"""Restarting hybrid system: simulation, Lyapunov certificates, restart tuning.

The hybrid system flows with the accelerated dynamics
``(q', p', tau') = (p, -(3/tau) p - G(q), eta)`` while ``tau`` lies in
``[T0, T]`` and jumps via ``(q, p, tau) -> (q, 0, T0)`` when ``tau``
reaches ``T``.  Resets keep the damping ``3/tau`` away from zero and kill
the momentum, which makes a quadratic-plus-potential Lyapunov function
strictly decrease along both flows and jumps whenever the reset window
satisfies ``T_lower < T <= T_upper``.

This module computes every constant of that certificate, simulates the
hybrid system with bit-exact resets (the step is snapped to a divisor of
the flow window so jumps land on grid points), verifies the decrease and
the convergence envelopes along simulated runs, and solves for the restart
period maximizing the guaranteed decay rate.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .fields import GeneralField, LinearField
from .odesim import BLOWUP_CAP, _blowup, _flow_t

__all__ = [
    "WindowViolationError",
    "BetaOutOfRangeError",
    "RestartConfig",
    "HybridTrajectory",
    "LyapunovCertificate",
    "DecreaseReport",
    "EnvelopeReport",
    "OptimalRestart",
    "simulate_hybrid",
    "reset_window",
    "lyapunov_certificate",
    "lyapunov_values",
    "verify_decrease",
    "verify_envelopes",
    "restart_ratio",
    "optimal_restart",
    "calibrate_optimal_restart",
]


class WindowViolationError(ValueError):
    """Requested reset trigger lies outside the admissible window."""


class BetaOutOfRangeError(ValueError):
    """Normalized curvature ratio must lie in (0, 1]."""


@dataclass(frozen=True)
class RestartConfig:
    """Reset parameters: lower reset value, trigger, and clock rate.

    ``eta`` in (0, 1] is accepted for simulation; certificates additionally
    require ``eta < 1``.
    """

    T0: float
    T: float
    eta: float

    def __post_init__(self):
        if not 0.0 < self.T0 < self.T:
            raise ValueError("need 0 < T0 < T")
        if not 0.0 < self.eta <= 1.0:
            raise ValueError("eta must lie in (0, 1]")

    @property
    def window(self) -> float:
        """Flow time between consecutive resets."""
        return (self.T - self.T0) / self.eta


@dataclass(frozen=True)
class HybridTrajectory:
    """Hybrid-time samples ``(t, j, q, p, tau)`` of a restarting run.

    Jumps contribute two rows at the same ``t``: the pre-jump state with
    ``tau = T`` and the post-jump state with ``p = 0`` and ``tau = T0``
    (bit-exact).  ``jump_indices`` are the row indices of the post-jump
    samples.
    """

    t: np.ndarray
    j: np.ndarray
    q: np.ndarray
    p: np.ndarray
    tau: np.ndarray
    jump_indices: np.ndarray
    blown_up: bool = False

    def __len__(self) -> int:
        return len(self.t)

    @property
    def dim(self) -> int:
        return self.q.shape[1]

    def distance_to(self, x_star: np.ndarray) -> np.ndarray:
        """Per-sample distance ``|q - x_star|``."""
        return np.linalg.norm(self.q - np.asarray(x_star)[None, :], axis=1)

    def set_distance(self, x_star: np.ndarray) -> np.ndarray:
        """Per-sample distance to the target set, ``sqrt(|q-x*|^2 + |p|^2)``."""
        dq = np.linalg.norm(self.q - np.asarray(x_star)[None, :], axis=1)
        dp = np.linalg.norm(self.p, axis=1)
        return np.hypot(dq, dp)


def simulate_hybrid(f: LinearField | GeneralField, cfg: RestartConfig,
                    chi0: tuple[np.ndarray, np.ndarray, float], t_end: float,
                    h: float = 1e-3, cap: float = BLOWUP_CAP) -> HybridTrajectory:
    """Simulate the restarting hybrid system up to time ``t_end``.

    The requested step is snapped, per flow window, to an exact divisor of
    the window length so every jump lands on a grid point; resets are
    applied exactly (no event-location error).  For a
    :class:`~nestode.fields.LinearField`, every full window after a reset
    applies one stack of window propagators, built once per run, to ``q``.
    """
    q0, p0, tau0 = chi0
    q = np.atleast_1d(np.asarray(q0, dtype=float))
    p = np.atleast_1d(np.asarray(p0, dtype=float))
    tau0 = float(tau0)
    if not cfg.T0 <= tau0 <= cfg.T:
        raise ValueError("tau0 must lie in [T0, T]")
    if t_end <= 0:
        raise ValueError("t_end must be positive")
    n = q.shape[0]
    eta = cfg.eta
    u = np.concatenate([q, p])

    # (t, j, state, tau) rows of each flow window and each reset
    blocks = [(np.zeros(1), np.zeros(1, dtype=int), u[None, :], np.array([tau0]))]
    t_cur, j_cur, tau_cur = 0.0, 0, tau0
    blown = False
    reset_flow = None  # (offsets, propagators, overflowed) of a full window from a reset

    while t_cur < t_end * (1.0 - 1e-14):
        window = (cfg.T - tau_cur) / eta
        if window > 0.0:  # a start on the jump set resets before flowing
            jumping = window <= t_end - t_cur
            span = window if jumping else t_end - t_cur
            # a full window after a reset starts from (q, 0) at T0, so for a
            # linear field its states are one propagator stack applied to q
            reuse = jumping and j_cur > 0 and isinstance(f, LinearField)
            if reuse and reset_flow is None:
                reset_flow = _flow_t(f, np.eye(2 * n, n), 0.0, cfg.T0, eta, span, h, math.inf)
            if reuse and not reset_flow[2]:  # a stack cut short by overflow is not reused
                offsets, propagators, _ = reset_flow
                with np.errstate(over="ignore", invalid="ignore"):
                    states = propagators @ u[:n]
                    keep, blown = _blowup(states[1:], cap)
                times, states = t_cur + offsets[:keep + 1], states[:keep + 1]
            else:
                times, states, blown = _flow_t(f, u, t_cur, tau_cur, eta, span, h, cap)
            taus = tau_cur + eta * (times[1:] - t_cur)
            blocks.append((times[1:], np.full(len(taus), j_cur), states[1:], taus))
            u = states[-1]
            if blown or not jumping:
                break
            t_cur += span
            taus[-1] = cfg.T  # pre-jump sample sits exactly on the jump set
        j_cur += 1
        tau_cur = cfg.T0
        u = np.concatenate([u[:n], np.zeros(n)])
        blocks.append((np.array([t_cur]), np.array([j_cur]), u[None, :], np.array([tau_cur])))

    t, j, u, tau = map(np.concatenate, zip(*blocks))
    return HybridTrajectory(
        t=t,
        j=j,
        q=u[:, :n].copy(),
        p=u[:, n:].copy(),
        tau=tau,
        jump_indices=np.flatnonzero(np.diff(j)) + 1,  # j steps up on post-jump rows only
        blown_up=blown,
    )


@dataclass(frozen=True)
class LyapunovCertificate:
    """Every constant of the restart stability certificate.

    ``V(chi) = a |q + (tau/b) p - x*|^2 + c tau^2 |p|^2
    + delta tau^2 (J(q) - J(x*))`` is sandwiched between
    ``c_lower |chi|_A^2`` and ``c_upper |chi|_A^2``, decreases at rate
    ``mu`` along flows and by the factor ``1 - nu/c_upper`` across jumps,
    giving the per-interval contraction ``exp(-rho)``.
    """

    kappa_j: float
    ell_j: float
    ell_k: float
    eta: float
    T0: float
    T: float
    a: float
    b: float
    c: float
    delta: float
    m: float
    c_lower: float
    c_upper: float
    lam: float
    mu: float
    gamma: float
    nu1: float
    nu2: float
    nu: float
    rho: float
    T_lower: float
    T_upper: float

    @property
    def contraction(self) -> float:
        """Guaranteed factor between consecutive interval-start values of V."""
        return math.exp(-self.rho)


def _field_constants(f) -> tuple[float, float, float]:
    if isinstance(f, (tuple, list)):
        kappa_j, ell_j, ell_k = map(float, f)
    else:
        kappa_j, ell_j, ell_k = f.kappa_j, f.ell_j, f.ell_k
    if kappa_j <= 0 or ell_j <= 0 or ell_k < 0:
        raise ValueError("need kappa_j, ell_j > 0 and ell_k >= 0")
    return kappa_j, ell_j, ell_k


def _t_lower(kappa_j: float, T0: float, eta: float) -> float:
    return math.sqrt(T0 * T0 + 4.0 * eta * eta / kappa_j)


def reset_window(kappa_j: float, ell_k: float, T0: float,
                 eta: float) -> tuple[float, float]:
    """Admissible reset window ``(T_lower, T_upper)``.

    ``T_upper`` is infinite for conservative fields (no rotation part).
    """
    T_lower = _t_lower(kappa_j, T0, eta)
    if ell_k == 0.0:
        return T_lower, math.inf
    T_upper = 2.0 * min(3.0 * (1.0 - eta), kappa_j * eta) / ell_k
    return T_lower, T_upper


def _sandwich_constants(ell_j: float, eta: float,
                        T: float) -> tuple[float, float, float, float, float, float]:
    """``(a, b, c, delta, m, c_upper)`` of the certificate at trigger ``T``."""
    b = 3.0 - eta
    a = 2.0 * eta * b / T ** 2
    c = 3.0 * a * (1.0 - eta) / (2.0 * eta * b ** 2)
    delta = a / (eta * b)
    m = a / b ** 2 + c
    c_upper = max(a + a * T / b + 0.5 * delta * T ** 2 * ell_j,
                  m * T ** 2 + a * T / b)
    return a, b, c, delta, m, c_upper


def lyapunov_certificate(f, cfg: RestartConfig,
                         enforce_window: bool = True) -> LyapunovCertificate:
    """Compute the certificate constants for a field and reset config.

    ``f`` may be a field object or a ``(kappa_j, ell_j, ell_k)`` triple.

    Raises
    ------
    WindowViolationError
        If ``enforce_window`` and the trigger lies outside
        ``(T_lower, T_upper]``.  Simulation remains allowed either way.
    """
    kappa_j, ell_j, ell_k = _field_constants(f)
    eta, T0, T = cfg.eta, cfg.T0, cfg.T
    if not 0.0 < eta < 1.0:
        raise ValueError("certificates require eta in (0, 1)")

    T_lower, T_upper = reset_window(kappa_j, ell_k, T0, eta)
    if enforce_window and not (T_lower < T <= T_upper):
        raise WindowViolationError(
            f"T = {T:.6g} outside the admissible window "
            f"({T_lower:.6g}, {T_upper:.6g}]"
        )

    a, b, c, delta, m, c_upper = _sandwich_constants(ell_j, eta, T)
    c_lower = T0 ** 2 * min(c, 0.5 * delta * kappa_j)
    lam = min(2.0 * c * (3.0 - eta), a * kappa_j / b)
    ratio = 0.0 if math.isinf(T_upper) else T / T_upper
    mu = lam * T0 * (1.0 - ratio) / c_upper

    gamma = math.sqrt((T ** 2 - T0 ** 2) * kappa_j)
    nu1 = 1.0 - 2.0 * eta / gamma
    nu2 = gamma * (gamma - 2.0 * eta) / T ** 2
    nu = min(nu1, nu2)
    rho = -math.log1p(-nu / c_upper) + mu * (T - T0)

    return LyapunovCertificate(
        kappa_j=kappa_j, ell_j=ell_j, ell_k=ell_k,
        eta=eta, T0=T0, T=T,
        a=a, b=b, c=c, delta=delta, m=m,
        c_lower=c_lower, c_upper=c_upper,
        lam=lam, mu=mu,
        gamma=gamma, nu1=nu1, nu2=nu2, nu=nu, rho=rho,
        T_lower=T_lower, T_upper=T_upper,
    )


def _potential_gaps(f, q_rows: np.ndarray) -> np.ndarray:
    """``J(q) - J(x*)`` for each row of ``q_rows``."""
    if isinstance(f, LinearField):
        dq = q_rows - f.x_star[None, :]
        return 0.5 * np.einsum("mi,ij,mj->m", dq, f.Qs, dq)
    base = f.potential(f.x_star)
    return np.array([f.potential(qi) - base for qi in q_rows])


def _lyapunov_rows(cert: LyapunovCertificate, f, q: np.ndarray,
                   p: np.ndarray, tau: np.ndarray) -> np.ndarray:
    """V at each row of the hybrid states ``(q, p, tau)``."""
    shifted = q - f.x_star[None, :] + (tau[:, None] / cert.b) * p
    quad = cert.a * np.einsum("mi,mi->m", shifted, shifted)
    kinetic = cert.c * tau ** 2 * np.einsum("mi,mi->m", p, p)
    return quad + kinetic + cert.delta * tau ** 2 * _potential_gaps(f, q)


def lyapunov_values(cert: LyapunovCertificate, f,
                    traj: HybridTrajectory) -> np.ndarray:
    """Vectorized Lyapunov evaluation over a whole hybrid trajectory."""
    return _lyapunov_rows(cert, f, traj.q, traj.p, traj.tau)


@dataclass(frozen=True)
class DecreaseReport:
    """Discrete verification of the flow and jump decrease conditions.

    Flow pairs check the difference quotient of V against ``-mu V`` with a
    step-proportional slack; jump pairs check the algebraic jump decrease
    with a relative slack.  ``interval_start_values`` are V at the start of
    each flow interval, which must contract by ``exp(-rho)`` per jump.
    """

    mu: float
    jump_factor: float
    flow_pairs: int
    flow_violations: int
    worst_flow_margin: float
    jump_count: int
    jump_violations: int
    worst_jump_margin: float
    interval_start_values: tuple[float, ...]
    contraction: float
    contraction_ok: bool
    worst_contraction_ratio: float

    @property
    def passed(self) -> bool:
        return self.flow_violations == 0 and self.jump_violations == 0


def verify_decrease(f, cfg: RestartConfig, traj: HybridTrajectory,
                    cert: LyapunovCertificate | None = None,
                    slack_factor: float = 10.0) -> DecreaseReport:
    """Check the Lyapunov decrease along a simulated hybrid run."""
    if cert is None:
        cert = lyapunov_certificate(f, cfg)
    V = lyapunov_values(cert, f, traj)

    # A margin or ratio that is NaN counts as a violation and propagates
    # into the worst value, so a non-finite V can never pass.
    dt = np.diff(traj.t)
    flow = dt > 0
    flow[traj.jump_indices - 1] = False
    dt, V_prev, V_next = dt[flow], V[:-1][flow], V[1:][flow]
    flow_margin = (V_next - V_prev) / dt + cert.mu * V_prev - slack_factor * dt * V_prev

    jump_factor = cert.nu / cert.c_upper
    V_pre, V_post = V[traj.jump_indices - 1], V[traj.jump_indices]
    jump_margin = (V_post - V_pre) + jump_factor * V_pre - 1e-9 * V_pre

    start_values = V[np.concatenate([[0], traj.jump_indices])]
    contraction = cert.contraction
    prev, nxt = start_values[:-1], start_values[1:]
    with np.errstate(divide="ignore", invalid="ignore"):
        ratio = np.where(prev <= 0.0, np.where(nxt <= 0.0, 0.0, np.inf),
                         nxt / (prev * contraction))

    return DecreaseReport(
        mu=cert.mu,
        jump_factor=jump_factor,
        flow_pairs=len(flow_margin),
        flow_violations=int(np.count_nonzero(~(flow_margin <= 0.0))),
        worst_flow_margin=float(np.max(flow_margin, initial=-math.inf)),
        jump_count=len(jump_margin),
        jump_violations=int(np.count_nonzero(~(jump_margin <= 0.0))),
        worst_jump_margin=float(np.max(jump_margin, initial=-math.inf)),
        interval_start_values=tuple(start_values.tolist()),
        contraction=contraction,
        contraction_ok=not np.any(~(ratio <= 1.0 + 1e-9)),
        worst_contraction_ratio=float(np.max(ratio, initial=0.0)),
    )


@dataclass(frozen=True)
class EnvelopeReport:
    """Per-sample convergence envelopes and fitted decay constants.

    The potential gap and the squared drive must stay below
    ``M T^2 exp(-rho j) / tau^2`` with ``M`` seeded from the initial
    Lyapunov value.  ``c1`` / ``c2`` are the exponential-stability
    constants achieved by the run: ``|chi|_A <= c1 |chi0|_A
    exp(-c2 (t + j))`` holds at every sample.
    """

    m_j: float
    m_g: float
    rho: float
    potential_ok: bool
    worst_potential_ratio: float
    drive_ok: bool
    worst_drive_ratio: float
    c1: float
    c2: float

    @property
    def passed(self) -> bool:
        return self.potential_ok and self.drive_ok


def verify_envelopes(f, cfg: RestartConfig, cert: LyapunovCertificate,
                     traj: HybridTrajectory) -> EnvelopeReport:
    """Check the decay envelopes and fit the achieved decay constants."""
    V0 = _lyapunov_rows(cert, f, traj.q[:1], traj.p[:1], traj.tau[:1])[0]
    m_j = 0.5 * V0
    m_g = 2.0 * (cert.ell_j + cert.ell_k) ** 2 * m_j / cert.kappa_j

    decay = np.exp(-cert.rho * traj.j)
    bound_pot = m_j * cert.T ** 2 * decay / traj.tau ** 2
    bound_drive = m_g * cert.T ** 2 * decay / traj.tau ** 2

    gaps = _potential_gaps(f, traj.q)
    if isinstance(f, LinearField):
        drive = np.einsum("mi,mi->m", traj.q @ f.Q.T, traj.q @ f.Q.T)
    else:
        drive = np.array([float(np.sum(f(qi) ** 2)) for qi in traj.q])

    with np.errstate(invalid="ignore", divide="ignore"):
        pot_ratio = np.where(bound_pot > 0, gaps / bound_pot,
                             np.where(gaps <= 0, 0.0, np.inf))
        drive_ratio = np.where(bound_drive > 0, drive / bound_drive,
                               np.where(drive <= 0, 0.0, np.inf))
    worst_pot = float(np.max(pot_ratio))
    worst_drive = float(np.max(drive_ratio))

    dist = traj.set_distance(f.x_star)
    d0 = dist[0]
    hybrid_time = traj.t + traj.j
    if d0 > 0 and np.all(dist > 0):
        slope = np.polyfit(hybrid_time, np.log(dist / d0), 1)[0]
        c2 = max(0.0, -float(slope))
        c1 = float(np.max(dist / (d0 * np.exp(-c2 * hybrid_time))))
    else:
        c2 = 0.0
        c1 = 1.0

    tol = 1.0 + 1e-9
    return EnvelopeReport(
        m_j=m_j,
        m_g=m_g,
        rho=cert.rho,
        potential_ok=bool(worst_pot <= tol),
        worst_potential_ratio=worst_pot,
        drive_ok=bool(worst_drive <= tol),
        worst_drive_ratio=worst_drive,
        c1=c1,
        c2=c2,
    )


def restart_ratio(beta: float, tol: float = 1e-10) -> float:
    """Optimal window ratio ``T_lower / T`` for a curvature ratio ``beta``.

    Solves ``ln(1 - beta(1 - xi)) + beta xi / (1 - beta(1 - xi)) = 0`` by
    bisection; the left side is strictly increasing on (0, 1) with a sign
    change, so the root is unique.  ``beta = 1`` gives ``1/e``; small
    ``beta`` approaches ``1/2``.
    """
    if not 0.0 < beta <= 1.0:
        raise BetaOutOfRangeError(f"beta = {beta!r} outside (0, 1]")
    if tol <= 0:
        raise ValueError("tol must be positive")

    def increasing(xi: float) -> float:
        body = 1.0 - beta * (1.0 - xi)
        return math.log(body) + beta * xi / body

    lo, hi = 0.0, 1.0
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        if increasing(mid) < 0.0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def optimal_restart(kappa_j: float, eta: float, T0: float, c_upper: float,
                    tol: float = 1e-10) -> tuple[float, float]:
    """Restart trigger maximizing the guaranteed decay rate.

    Returns ``(xi_star, T_opt)`` with ``T_opt = T_lower / xi_star``; the
    ratio always lands in ``[2, e]`` as ``T0`` vanishes.
    """
    if kappa_j <= 0:
        raise ValueError("kappa_j must be positive")
    if not 0.0 < eta < 1.0:
        raise ValueError("eta must lie in (0, 1)")
    if T0 < 0:
        raise ValueError("T0 must be nonnegative")
    if c_upper <= 0:
        raise BetaOutOfRangeError("c_upper must be positive")
    beta = min(1.0, kappa_j) / c_upper
    xi = restart_ratio(beta, tol=tol)
    return xi, _t_lower(kappa_j, T0, eta) / xi


@dataclass(frozen=True)
class OptimalRestart:
    """Calibrated restart solution with the sandwich constant it used.

    ``c_upper``, ``beta`` and ``xi_star`` are evaluated at ``history[-2]``,
    ``T_opt`` is ``history[-1]``; they agree only at a fixed point.
    """

    xi_star: float
    T_opt: float
    beta: float
    c_upper: float
    iterations: int
    history: tuple[float, ...]


def calibrate_optimal_restart(f, eta: float, T0: float, tol: float = 1e-10,
                              refine: int = 1) -> OptimalRestart:
    """Solve the restart problem with a self-consistent sandwich constant.

    The sandwich constant depends on the trigger being solved for, so it is
    seeded at ``T = 2 T_lower`` and optionally re-evaluated at the solution
    (one fixed-point pass by default).  ``history`` records the successive
    trigger estimates.  The returned ``c_upper``, ``beta`` and ``xi_star``
    belong to ``history[-2]``, the trigger the last pass started from, not
    to ``T_opt = history[-1]``.
    """
    kappa_j, ell_j, _ = _field_constants(f)
    T_lower = _t_lower(kappa_j, T0, eta)
    T_est = 2.0 * T_lower
    history = [T_est]
    xi = beta = c_upper = None
    for _ in range(1 + max(0, refine)):
        c_upper = _sandwich_constants(ell_j, eta, T_est)[-1]
        beta = min(1.0, kappa_j) / c_upper
        xi = restart_ratio(beta, tol=tol)
        T_est = T_lower / xi
        history.append(T_est)
    return OptimalRestart(
        xi_star=float(xi),
        T_opt=float(T_est),
        beta=float(beta),
        c_upper=float(c_upper),
        iterations=1 + max(0, refine),
        history=tuple(history),
    )
