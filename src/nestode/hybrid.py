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
from dataclasses import dataclass, field, fields

import numpy as np

from .fields import GeneralField, LinearField, _at_rows, _freeze
from .odesim import BLOWUP_CAP, _blowup, _flow_t, _snap_step, _state

__all__ = [
    "WindowViolationError",
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
    "calibrate_optimal_restart",
]

# A flow pair passes while the difference quotient of V stays below
# ``-mu V`` plus this multiple of ``dt V``, the slack of the sampled run.
FLOW_SLACK = 10.0

# Jump margins, the per-interval contraction and the envelopes pass within
# this relative slack of their bounds.
RELATIVE_SLACK = 1e-9

# Restart tuning's precision: the bisection's last bracket, calibration's last move.
RESTART_TOL = 1e-10

# Calibration gives up after this many fixed-point passes; on 7,000 random
# admissible problems and on scaled identities with curvatures from 1e-8 to
# 1e8 the trigger stopped moving within 11.
_MAX_PASSES = 64


class WindowViolationError(ValueError):
    """Requested reset trigger lies outside the admissible window."""


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


@dataclass(frozen=True, eq=False)
class HybridTrajectory:
    """Hybrid-time samples ``(t, j, q, p, tau)`` of a restarting run.

    Jumps contribute two rows at the same ``t``: the pre-jump state with
    ``tau = T`` and the post-jump state with ``p = 0`` and ``tau = T0``
    (bit-exact).  ``jump_indices`` are the row indices of the post-jump
    samples, the rows where ``j`` steps up; they are derived from ``j`` and
    are not passed in.

    ``potential_gap`` and ``drive`` record the field's values the audit
    reads at each row, ``J(q) - J(x*)`` and ``|G(q)|^2``.  A run of
    :func:`simulate_hybrid` on a :class:`~nestode.fields.GeneralField`
    records both; on a :class:`~nestode.fields.LinearField` both are
    ``None``, and the verifiers evaluate their closed forms from ``q``.
    The arrays are read-only copies of those passed in.
    """

    t: np.ndarray
    j: np.ndarray
    q: np.ndarray
    p: np.ndarray
    tau: np.ndarray
    jump_indices: np.ndarray = field(init=False)
    potential_gap: np.ndarray | None
    drive: np.ndarray | None
    blown_up: bool

    def __post_init__(self):
        if (self.potential_gap is None) != (self.drive is None):
            raise ValueError("potential_gap and drive are recorded together or not at all")
        recorded = () if self.drive is None else ("potential_gap", "drive")
        for name in ("t", "j", "q", "p", "tau", *recorded):
            object.__setattr__(self, name, _freeze(getattr(self, name), dtype=None))
        if recorded and not self.potential_gap.shape == self.drive.shape == (len(self.t),):
            raise ValueError("potential_gap and drive must hold one value per row")
        jumps = np.flatnonzero(np.diff(self.j)) + 1  # j steps up on post-jump rows only
        object.__setattr__(self, "jump_indices", _freeze(jumps, dtype=None))

    def __reduce__(self):
        # rebuilt through __init__ from the init fields, so the copy gets read-only arrays
        return type(self), tuple(getattr(self, c.name) for c in fields(self) if c.init)

    def __len__(self) -> int:
        return len(self.t)

    @property
    def dim(self) -> int:
        return self.q.shape[1]

    def distance_to(self, x_star: np.ndarray) -> np.ndarray:
        """Per-sample distance ``|q - x_star|``."""
        return np.linalg.norm(self.q - np.asarray(x_star)[None, :], axis=1)


def simulate_hybrid(f: LinearField | GeneralField, cfg: RestartConfig,
                    chi0: tuple[np.ndarray, np.ndarray, float], t_end: float,
                    h: float = 1e-3) -> HybridTrajectory:
    """Simulate the restarting hybrid system up to time ``t_end``.

    The requested step is snapped, per flow window, to an exact divisor of
    the window length so every jump lands on a grid point; resets are
    applied exactly (no event-location error).  For a
    :class:`~nestode.fields.LinearField`, every full window after a reset
    applies one stack of window propagators, built once per run, to ``q``.
    For a :class:`~nestode.fields.GeneralField`, the trajectory records
    each row's potential gap and the squared drives that the flow's first
    stages evaluated; the field is called once more, at the last row,
    which no step started from.
    """
    q0, p0, tau0 = chi0
    q, p = _state(q0, f.dim, "q0"), _state(p0, f.dim, "p0")
    tau0 = float(tau0)
    if not cfg.T0 <= tau0 <= cfg.T:
        raise ValueError("tau0 must lie in [T0, T]")
    if t_end <= 0:
        raise ValueError("t_end must be positive")
    # every window takes at least one step, so the run is held to the step
    # bound of one integration over t_end at the finer of h and the window
    _snap_step(t_end, min(h, cfg.window))
    n = q.shape[0]
    eta = cfg.eta
    u = np.concatenate([q, p])

    # (t, j, state, tau) rows of each flow window and each reset
    blocks = [(np.zeros(1), np.zeros(1, dtype=int), u[None, :], np.array([tau0]))]
    # a general field's drives at the rows so far, and how many last rows
    # lack one: they share the q that the next window starts from
    drives, pending = [], 1
    t_cur, j_cur, tau_cur = 0.0, 0, tau0
    blown = False
    reset_flow = None  # (offsets, propagators, overflowed) of a full window from a reset

    while t_cur < t_end * (1.0 - 1e-14):
        window = (cfg.T - tau_cur) / eta
        if window > 0.0:  # a start on the jump set resets before flowing
            jumping = window <= t_end - t_cur
            span = window if jumping else t_end - t_cur
            # a full window after a reset starts from (q, 0) at T0, so for a
            # linear field its states are one propagator stack applied to q,
            # taken as one 2-D product over all the stack's rows
            reuse = jumping and j_cur > 0 and isinstance(f, LinearField)
            if reuse and reset_flow is None:
                reset_flow = _flow_t(f, np.eye(2 * n, n), 0.0, cfg.T0, eta, span, h,
                                     math.inf)[:3]
            if reuse and not reset_flow[2]:  # a stack cut short by overflow is not reused
                offsets, propagators, _ = reset_flow
                with np.errstate(over="ignore", invalid="ignore"):
                    states = (propagators.reshape(-1, n) @ u[:n]).reshape(len(offsets), 2 * n)
                    keep, blown = _blowup(states[1:], BLOWUP_CAP)
                times, states = t_cur + offsets[:keep + 1], states[:keep + 1]
            else:
                times, states, blown, window_drives = _flow_t(f, u, t_cur, tau_cur, eta, span,
                                                              h, BLOWUP_CAP)
                if window_drives is not None and len(window_drives):
                    drives += [window_drives[:1]] * pending + [window_drives[1:]]
                    pending = 1
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
        pending += 1

    t, j, u, tau = map(np.concatenate, zip(*blocks))
    # the per-window rows are copied: free them before the trajectory copies
    # the columns once more, or the run peaks at three times its result
    del blocks
    q = u[:, :n]
    gaps = drive = None
    if isinstance(f, GeneralField):
        # an overflowing run records inf or NaN values, without a warning
        with np.errstate(over="ignore", invalid="ignore"):
            # the rows no step started from share the last q, so one call covers them
            drive = _squared_rows(np.concatenate(drives + [[f(q[-1])]] * pending), n)
            gaps = _potential_gaps(f, q)
    return HybridTrajectory(t=t, j=j, q=q, p=u[:, n:], tau=tau, potential_gap=gaps,
                            drive=drive, blown_up=blown)


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


def reset_window(f, T0: float, eta: float) -> tuple[float, float]:
    """Admissible reset window ``(T_lower, T_upper)`` from ``f.kappa_j`` and ``f.ell_k``.

    ``T_upper`` is infinite for conservative fields (no rotation part).
    """
    kappa_j, ell_k = float(f.kappa_j), float(f.ell_k)
    T_lower = math.sqrt(T0 * T0 + 4.0 * eta * eta / kappa_j)
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


def lyapunov_certificate(f, cfg: RestartConfig) -> LyapunovCertificate:
    """Compute the certificate constants for a field and reset config.

    The constants ``kappa_j``, ``ell_j`` and ``ell_k`` are read from the field ``f``.

    Raises
    ------
    WindowViolationError
        If the trigger lies outside ``(T_lower, T_upper]``.  Simulation
        remains allowed either way.
    """
    kappa_j, ell_j, ell_k = map(float, (f.kappa_j, f.ell_j, f.ell_k))
    eta, T0, T = cfg.eta, cfg.T0, cfg.T
    if not 0.0 < eta < 1.0:
        raise ValueError("certificates require eta in (0, 1)")

    T_lower, T_upper = reset_window(f, T0, eta)
    if not T_lower < T <= T_upper:
        raise WindowViolationError(
            f"T = {T:.6g} outside the admissible window "
            f"({T_lower:.6g}, {T_upper:.6g}]"
        )

    a, b, c, delta, m, c_upper = _sandwich_constants(ell_j, eta, T)
    c_lower = T0 ** 2 * min(c, 0.5 * delta * kappa_j)
    lam = min(2.0 * c * (3.0 - eta), a * kappa_j / b)
    mu = lam * T0 * (1.0 - T / T_upper) / c_upper

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
    return _at_rows(f, f.potential, q_rows) - f.potential(f.x_star)


def _drives(f, q_rows: np.ndarray) -> np.ndarray:
    """The squared drive ``|G(q)|^2`` for each row of ``q_rows``."""
    if isinstance(f, LinearField):
        g = q_rows @ f.Q.T
        return np.einsum("mi,mi->m", g, g)
    return _squared_rows(_at_rows(f, f, q_rows, dtype=float), f.dim)


def _squared_rows(rows, dim: int) -> np.ndarray:
    """``|g|^2`` for each row ``g`` of ``rows``, taken as a float ``(len(rows), dim)`` array."""
    return np.sum(np.reshape(np.asarray(rows, dtype=float), (len(rows), dim)) ** 2, axis=1)


def _row_values(f, traj: HybridTrajectory) -> tuple[np.ndarray, np.ndarray]:
    """The potential gaps and squared drives of ``traj``'s rows: those it recorded, or else
    those of ``f``, which ran it."""
    if traj.drive is not None:
        return traj.potential_gap, traj.drive
    return _potential_gaps(f, traj.q), _drives(f, traj.q)


def _lyapunov_rows(cert: LyapunovCertificate, f, q: np.ndarray, p: np.ndarray,
                   tau: np.ndarray, gaps: np.ndarray) -> np.ndarray:
    """V at each row of the hybrid states ``(q, p, tau)`` with potential gaps ``gaps``."""
    shifted = q - f.x_star[None, :] + (tau[:, None] / cert.b) * p
    quad = cert.a * np.einsum("mi,mi->m", shifted, shifted)
    kinetic = cert.c * tau ** 2 * np.einsum("mi,mi->m", p, p)
    return quad + kinetic + cert.delta * tau ** 2 * gaps


def lyapunov_values(cert: LyapunovCertificate, f,
                    traj: HybridTrajectory) -> np.ndarray:
    """Vectorized Lyapunov evaluation over a whole hybrid trajectory run by the field ``f``."""
    return _lyapunov_rows(cert, f, traj.q, traj.p, traj.tau, _row_values(f, traj)[0])


@dataclass(frozen=True)
class DecreaseReport:
    """Discrete verification of the flow and jump decrease conditions.

    Flow pairs check the difference quotient of V against ``-mu V`` with a
    step-proportional slack; jump pairs check the algebraic jump decrease
    with a relative slack.  ``interval_start_values`` are V at the start of
    each flow interval, which must contract by the certificate's
    ``contraction = exp(-rho)`` per jump.
    ``passed`` requires all three: no flow violation, no jump violation and
    the per-interval contraction.
    """

    flow_pairs: int
    flow_violations: int
    worst_flow_margin: float
    jump_count: int
    jump_violations: int
    worst_jump_margin: float
    interval_start_values: tuple[float, ...]
    contraction_ok: bool
    worst_contraction_ratio: float

    @property
    def passed(self) -> bool:
        return self.flow_violations == 0 and self.jump_violations == 0 and self.contraction_ok


def verify_decrease(f, cfg: RestartConfig, traj: HybridTrajectory,
                    cert: LyapunovCertificate) -> DecreaseReport:
    """Check the Lyapunov decrease of the certificate ``cert`` along a simulated hybrid run.

    ``f`` is the field that ran ``traj``.  ``cfg`` is not read: ``cert``
    carries the reset parameters.  It keeps its place for positional
    callers until one audit per hybrid run replaces the three verification
    calls (item 2 of ROADMAP.md).
    """
    V = lyapunov_values(cert, f, traj)

    # A margin or ratio that is NaN counts as a violation and propagates
    # into the worst value, so a non-finite V can never pass, and computing
    # one raises no warning.
    dt = np.diff(traj.t)
    flow = dt > 0
    flow[traj.jump_indices - 1] = False
    dt, V_prev, V_next = dt[flow], V[:-1][flow], V[1:][flow]
    V_pre, V_post = V[traj.jump_indices - 1], V[traj.jump_indices]
    start_values = V[np.concatenate([[0], traj.jump_indices])]
    prev, nxt = start_values[:-1], start_values[1:]
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        flow_margin = (V_next - V_prev) / dt + cert.mu * V_prev - FLOW_SLACK * dt * V_prev
        jump_margin = (V_post - V_pre) + (cert.nu / cert.c_upper) * V_pre - RELATIVE_SLACK * V_pre
        ratio = np.where(prev <= 0.0, np.where(nxt <= 0.0, 0.0, np.inf),
                         nxt / (prev * cert.contraction))

    return DecreaseReport(
        flow_pairs=len(flow_margin),
        flow_violations=int(np.count_nonzero(~(flow_margin <= 0.0))),
        worst_flow_margin=float(np.max(flow_margin, initial=-math.inf)),
        jump_count=len(jump_margin),
        jump_violations=int(np.count_nonzero(~(jump_margin <= 0.0))),
        worst_jump_margin=float(np.max(jump_margin, initial=-math.inf)),
        interval_start_values=tuple(start_values.tolist()),
        contraction_ok=not np.any(~(ratio <= 1.0 + RELATIVE_SLACK)),
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
    """Check the decay envelopes of ``traj``, run by ``f``, and fit the achieved decay constants."""
    gaps, drive = _row_values(f, traj)
    V0 = _lyapunov_rows(cert, f, traj.q[:1], traj.p[:1], traj.tau[:1], gaps[:1])[0]
    m_j = 0.5 * float(V0)
    m_g = 2.0 * (cert.ell_j + cert.ell_k) ** 2 * m_j / cert.kappa_j

    decay = np.exp(-cert.rho * traj.j)
    bound_pot = m_j * cert.T ** 2 * decay / traj.tau ** 2
    bound_drive = m_g * cert.T ** 2 * decay / traj.tau ** 2

    # an overflowing run's ratios, distances and fit are inf or NaN, which
    # fail the envelopes or read as they are, without a warning
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        pot_ratio = np.where(bound_pot > 0, gaps / bound_pot,
                             np.where(gaps <= 0, 0.0, np.inf))
        drive_ratio = np.where(bound_drive > 0, drive / bound_drive,
                               np.where(drive <= 0, 0.0, np.inf))
        # distance to the target set, sqrt(|q - x*|^2 + |p|^2)
        dist = np.hypot(traj.distance_to(f.x_star), np.linalg.norm(traj.p, axis=1))
        d0 = dist[0]
        hybrid_time = traj.t + traj.j
        # a line is fit only through two distinct hybrid times (nondecreasing)
        if d0 > 0 and np.all(dist > 0) and hybrid_time[-1] > hybrid_time[0]:
            slope = np.polyfit(hybrid_time, np.log(dist / d0), 1)[0]
            c2 = max(0.0, -float(slope))
            c1 = float(np.max(dist / (d0 * np.exp(-c2 * hybrid_time))))
        else:
            c2 = 0.0
            c1 = 1.0
    worst_pot = float(np.max(pot_ratio))
    worst_drive = float(np.max(drive_ratio))

    return EnvelopeReport(
        m_j=m_j,
        m_g=m_g,
        potential_ok=bool(worst_pot <= 1.0 + RELATIVE_SLACK),
        worst_potential_ratio=worst_pot,
        drive_ok=bool(worst_drive <= 1.0 + RELATIVE_SLACK),
        worst_drive_ratio=worst_drive,
        c1=c1,
        c2=c2,
    )


def restart_ratio(beta: float) -> float:
    """Optimal window ratio ``T_lower / T`` for a curvature ratio ``beta``.

    Solves ``ln(1 - beta(1 - xi)) + beta xi / (1 - beta(1 - xi)) = 0`` by
    bisection; the left side is strictly increasing on (0, 1) with a sign
    change, so the root is unique.  ``beta = 1`` gives ``1/e``; small
    ``beta`` approaches ``1/2``.  Bisection stops once the bracket is no
    wider than ``RESTART_TOL``, after 34 halvings of ``[0, 1]``.
    """
    if not 0.0 < beta <= 1.0:
        raise ValueError(f"beta = {beta!r} outside (0, 1]")

    def increasing(xi: float) -> float:
        loss = beta * (1.0 - xi)
        # not log(1 - loss): for tiny beta, 1 - loss rounds the loss away
        return math.log1p(-loss) + beta * xi / (1.0 - loss)

    lo, hi = 0.0, 1.0
    while hi - lo > RESTART_TOL:
        mid = 0.5 * (lo + hi)
        if increasing(mid) < 0.0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


@dataclass(frozen=True)
class OptimalRestart:
    """Calibrated restart trigger with the constants that belong to it.

    ``c_upper`` is the sandwich constant of the certificate at ``T_opt``,
    ``beta`` is computed from it and ``xi_star = restart_ratio(beta)``.
    ``history`` holds the seed and the trigger after each fixed-point pass;
    ``converged`` tells whether the last pass moved the trigger by at most
    ``RESTART_TOL`` relative to it.
    """

    xi_star: float
    T_opt: float
    beta: float
    c_upper: float
    converged: bool
    history: tuple[float, ...]


def calibrate_optimal_restart(f, eta: float, T0: float) -> OptimalRestart:
    """Solve the restart problem with a self-consistent sandwich constant.

    The sandwich constant depends on the trigger being solved for, so the
    trigger is a fixed point of ``T -> T_lower / restart_ratio(beta(T))``
    with ``beta(T) = min(1, kappa_j) / c_upper(T)``.  The iteration is
    seeded at ``T = 2 T_lower`` and stops once a pass moves the trigger by
    at most ``RESTART_TOL * T``, or after a fixed bound of 64 passes.
    The constants ``kappa_j``, ``ell_j`` and ``ell_k`` are read from the field ``f``.

    The trigger ``T_lower / xi_star`` maximizes the decay per unit time
    ``-ln(1 - beta(1 - xi)) / T`` of the paper's per-window model
    ``1 - beta(1 - xi)``, ``xi = T_lower / T``, not the certificate's
    guaranteed rate ``rho``.  At fixed ``beta`` that decay rises in ``T`` up
    to ``T_lower / xi_star``, so a fixed point past ``T_upper`` is clamped to
    ``T_opt = T_upper``; ``history`` keeps the unclamped estimates.  The
    returned ``c_upper`` and ``beta`` are those at the returned trigger.

    Raises
    ------
    WindowViolationError
        If the admissible window ``(T_lower, T_upper]`` is empty.
    """
    kappa_j, ell_j = map(float, (f.kappa_j, f.ell_j))
    if not 0.0 < eta < 1.0:
        raise ValueError("eta must lie in (0, 1)")
    if T0 < 0:
        raise ValueError("T0 must be nonnegative")
    T_lower, T_upper = reset_window(f, T0, eta)
    if not T_lower < T_upper:
        raise WindowViolationError(
            f"the admissible window ({T_lower:.6g}, {T_upper:.6g}] is empty"
        )
    history = [2.0 * T_lower]
    converged = False
    while not converged and len(history) <= _MAX_PASSES:
        beta = min(1.0, kappa_j) / _sandwich_constants(ell_j, eta, history[-1])[-1]
        T_next = T_lower / restart_ratio(beta)
        converged = abs(T_next - history[-1]) <= RESTART_TOL * T_next
        history.append(T_next)
    T_opt = min(history[-1], T_upper)
    c_upper = _sandwich_constants(ell_j, eta, T_opt)[-1]
    beta = min(1.0, kappa_j) / c_upper
    return OptimalRestart(
        xi_star=restart_ratio(beta),
        T_opt=T_opt,
        beta=beta,
        c_upper=c_upper,
        converged=converged,
        history=tuple(history),
    )
