"""Fixed-step integration of the continuous-time systems of the analysis.

All integrators use the classical fourth-order Runge-Kutta scheme with a
fixed step.  The step is snapped to an exact divisor of the horizon so the
final grid point lands on the requested end time.  Time-varying
coefficients (the vanishing damping ``3/tau``) are evaluated at the stage
times, which preserves the fourth-order accuracy.

Four coordinate systems appear, tagged on the trajectories they produce:

* ``t``   -- original time of the accelerated flow
  ``x'' + (3/tau) x' + G(x) = 0`` with ``tau = T0 + eta * t``;
* ``s``   -- the fast timescale of the normalized first-order system
  ``dy/ds = A y + eps B(eps s) y`` with ``eps = ell_j ** -0.5``, of the
  drift system ``dpsi/ds = A psi``, and of the pulled-back slow system
  ``dz/ds = eps exp(-A s) B exp(A s) z``;
* ``tau`` -- the slow time ``tau = eps * s + T0``, available through
  :func:`rescale_timescale` for plotting against the damping clock.

The systems on the ``s`` scale, the averaged system and the original flow
of a :class:`~nestode.fields.LinearField` are linear, ``y' = M(s) y``, so
an RK4 step is the matrix ``I + h/6 (K1 + 2 K2 + 2 K3 + K4)`` with
``K1 = M(s)``, ``K2 = M(s + h/2)(I + h/2 K1)``, ``K3 = M(s + h/2)(I + h/2
K2)`` and ``K4 = M(s + h)(I + h K3)``.  Their integrators build ``M`` at
the stage times, and ``_rk4_linear`` forms the step matrices in batches and
applies them in order, to a state vector or to a block of columns.  The
generic ``_rk4`` on a right-hand side serves only the original flow of a
:class:`~nestode.fields.GeneralField`, whose field may be nonlinear; the
choice is made by field type in ``_flow_t``, which both
:func:`integrate_nesterov_t` and the windows of the restarting system call.

Growth past a configurable cap truncates the trajectory and sets a flag
instead of raising: unstable runs are expected and their growth is data.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Mapping

import numpy as np

from .fields import GeneralField, LinearField, normalize

__all__ = [
    "BLOWUP_CAP",
    "OdeTrajectory",
    "DriftGenerator",
    "VariationCheck",
    "integrate_nesterov_t",
    "integrate_scaled_y",
    "drift_generator",
    "exp_drift",
    "integrate_drift",
    "integrate_pullback",
    "variation_of_constants_check",
    "rescale_timescale",
]

BLOWUP_CAP = 1e12

_TIMESCALES = ("t", "tau", "s")


@dataclass(frozen=True)
class OdeTrajectory:
    """Sampled solution of one of the continuous-time systems.

    ``times`` is strictly increasing and ``states`` has one row per time.
    ``blown_up`` marks a trajectory truncated by the growth cap.  ``meta``
    records scalars needed to reinterpret the run (``epsilon``, ``eta``...).
    """

    times: np.ndarray
    states: np.ndarray
    timescale: str
    blown_up: bool = False
    meta: Mapping[str, float] = field(default_factory=dict)

    def __post_init__(self):
        if self.timescale not in _TIMESCALES:
            raise ValueError(f"timescale must be one of {_TIMESCALES}")
        if len(self.times) != len(self.states):
            raise ValueError("times and states must have equal length")

    @property
    def final_state(self) -> np.ndarray:
        return self.states[-1]


def _snap_step(horizon: float, h: float) -> tuple[int, float]:
    """Number of steps and the snapped step covering ``horizon`` exactly."""
    if horizon <= 0:
        raise ValueError("integration horizon must be positive")
    if h <= 0:
        raise ValueError("step must be positive")
    n = max(1, int(round(horizon / h)))
    return n, horizon / n


def _rk4(rhs: Callable[[float, np.ndarray], np.ndarray], t0: float,
         y0: np.ndarray, horizon: float, h: float,
         cap: float) -> tuple[np.ndarray, np.ndarray, bool]:
    """Fixed-step RK4 with blow-up truncation.

    Returns ``(times, states, blown_up)``; times are ``t0 + k * h_snapped``.
    The blow-up rule is that of :func:`_blowup`, checked after each step.
    An overflowing run stops here earlier than in ``_rk4_linear``: the
    stage sum ``k1 + 2 k2 + 2 k3 + k4`` overflows a step or more before the
    state itself does.
    """
    n_steps, h = _snap_step(horizon, h)
    y = np.array(y0, dtype=float)
    states = [y]
    blown = False
    with np.errstate(over="ignore", invalid="ignore"):
        for k in range(n_steps):
            t = t0 + k * h
            k1 = rhs(t, y)
            k2 = rhs(t + 0.5 * h, y + 0.5 * h * k1)
            k3 = rhs(t + 0.5 * h, y + 0.5 * h * k2)
            k4 = rhs(t + h, y + h * k3)
            y = y + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
            norm = math.sqrt(y @ y)
            # an infinite or NaN norm is the only sign of a non-finite row;
            # it is also what a finite row too large to square gives
            if not norm < math.inf and not np.isfinite(y).all():
                blown = True
                break
            states.append(y)
            if norm > cap:
                blown = True
                break
    return t0 + np.arange(len(states)) * h, np.asarray(states), blown


def _blowup(rows: np.ndarray, cap: float) -> tuple[int, bool]:
    """Leading rows to keep, and whether growth cut the run short.

    The run is truncated before the first non-finite row, or after the
    first row whose norm (over all of its entries) exceeds ``cap``.
    """
    flat = rows.reshape(len(rows), -1)
    finite = np.isfinite(flat).all(axis=1)
    hit = np.flatnonzero(~finite | (np.linalg.norm(flat, axis=1) > cap))
    if not hit.size:
        return len(rows), False
    return int(hit[0] + finite[hit[0]]), True


# Steps per batch of step matrices: the stacked (steps, 2n, 2n) arrays stay
# near 1 MB per array at n = 6.
_CHUNK = 1024


def _rk4_linear(stage: Callable[[np.ndarray], np.ndarray], y0: np.ndarray,
                horizon: float, h: float,
                cap: float) -> tuple[np.ndarray, np.ndarray, bool]:
    """RK4 for ``y' = M(s) y`` from ``s = 0`` through per-step matrices.

    ``stage(s)`` returns ``M`` stacked over an array of times, with shape
    ``s.shape + (d, d)``.  ``y0`` is a state vector of length ``d`` or a
    ``(d, m)`` block of columns, whose rows are then ``(d, m)`` matrices.
    Step snapping, the time grid ``k * h_snapped`` and the blow-up rule of
    :func:`_blowup` are those of :func:`_rk4`.
    """
    n_steps, h = _snap_step(horizon, h)
    y = np.array(y0, dtype=float)
    eye = np.eye(len(y))
    states = [y[None]]
    with np.errstate(over="ignore", invalid="ignore"):
        for k0 in range(0, n_steps, _CHUNK):
            s = np.arange(k0, min(k0 + _CHUNK, n_steps)) * h
            K1, M2, M4 = stage(np.stack([s, s + 0.5 * h, s + h]))
            K2 = M2 @ (eye + 0.5 * h * K1)
            K3 = M2 @ (eye + 0.5 * h * K2)
            K4 = M4 @ (eye + h * K3)
            phi = eye + (h / 6.0) * (K1 + 2.0 * K2 + 2.0 * K3 + K4)
            rows = np.empty((len(s),) + y.shape)
            for P, row in zip(phi, rows):
                y = np.matmul(P, y, out=row)
            keep, blown = _blowup(rows, cap)
            states.append(rows[:keep])
            if blown:
                break
    states = np.concatenate(states)
    return np.arange(len(states)) * h, states, blown


def _oscillator_stage(K: np.ndarray, gain: float, rate: float,
                      offset: float) -> Callable[[np.ndarray], np.ndarray]:
    """Stage builder for ``M(s) = [[0, I], [-K, -(gain / (rate s + offset)) I]]``."""
    n = len(K)
    M0 = np.zeros((2 * n, 2 * n))
    M0[:n, n:] = np.eye(n)
    M0[n:, :n] = -K
    damped = np.diag(np.repeat([0.0, 1.0], n))
    return lambda s: M0 - (gain / (rate * s + offset))[..., None, None] * damped


def _flow_t(f: LinearField | GeneralField, u0: np.ndarray, t0: float, tau0: float,
            eta: float, span: float, h: float,
            cap: float) -> tuple[np.ndarray, np.ndarray, bool]:
    """RK4 of the flow on ``u = (x, x')`` from ``t0``, ``tau = tau0 + eta (t - t0)``.

    A :class:`~nestode.fields.LinearField` runs through step matrices, and
    ``u0`` may then be a ``(2n, m)`` block of columns; a
    :class:`~nestode.fields.GeneralField` runs through its right-hand side.
    """
    if isinstance(f, LinearField):
        times, states, blown = _rk4_linear(_oscillator_stage(f.Q, 3.0, eta, tau0),
                                           u0, span, h, cap)
        return t0 + times, states, blown
    n = len(u0) // 2

    def rhs(t: float, u: np.ndarray) -> np.ndarray:
        tau = tau0 + eta * (t - t0)
        x, v = u[:n], u[n:]
        return np.concatenate([v, -(3.0 / tau) * v - f(x)])

    return _rk4(rhs, t0, u0, span, h, cap)


def integrate_nesterov_t(f: LinearField | GeneralField, x0: np.ndarray,
                         v0: np.ndarray, T0: float, eta: float, t_end: float,
                         h: float = 1e-3,
                         cap: float = BLOWUP_CAP) -> OdeTrajectory:
    """Integrate the accelerated flow in original time.

    The system is ``x'' + (3/tau) x' + G(x) = 0`` with ``tau = T0 + eta*t``.
    State rows are ``(x, x', tau)``; the ``tau`` column is the exact affine
    clock, not an integrated quantity.
    """
    if T0 <= 0:
        raise ValueError("T0 must be positive")
    if not 0.0 < eta <= 1.0:
        raise ValueError("eta must lie in (0, 1]")
    x0 = np.atleast_1d(np.asarray(x0, dtype=float))
    v0 = np.atleast_1d(np.asarray(v0, dtype=float))
    times, states, blown = _flow_t(f, np.concatenate([x0, v0]), 0.0, T0, eta,
                                   t_end, h, cap)
    tau_col = T0 + eta * times
    return OdeTrajectory(
        times=times,
        states=np.column_stack([states, tau_col]),
        timescale="t",
        blown_up=blown,
        meta={"eta": eta, "T0": T0, "h": float(times[1] - times[0]) if len(times) > 1 else h},
    )


def integrate_scaled_y(f: LinearField, y0: np.ndarray, T0: float,
                       gamma: float = 1.0, s_end: float = 10.0,
                       h: float = 1e-3,
                       cap: float = BLOWUP_CAP) -> OdeTrajectory:
    """Integrate the normalized first-order system on the fast timescale.

    ``dy/ds = A y + eps B(eps s) y`` with ``eps = ell_j ** -0.5``,
    ``A = [[0, I], [-gamma Qhat_s, 0]]`` and
    ``B = [[0, 0], [-gamma Qhat_a, -(3/(eps s + T0)) I]]``.

    ``gamma`` scales both normalized blocks, shrinking the drift
    frequencies by ``sqrt(gamma)``.  At ``gamma = 1`` this is exactly the
    normalized image of the original flow with a unit clock rate, which is
    the regime all averaging machinery targets.  For ``gamma < 1`` the
    system is the scaled family as conventionally written, not a literal
    reparametrization of the original flow (that would scale the damping
    by ``1/sqrt(gamma)`` instead).
    """
    if not 0.0 < gamma <= 1.0:
        raise ValueError("gamma must lie in (0, 1]")
    eps = f.ell_j ** -0.5
    Qhat_s, Qhat_a = normalize(f)
    n = f.dim
    y0 = np.asarray(y0, dtype=float)
    if y0.shape != (2 * n,):
        raise ValueError(f"y0 must have length {2 * n}")

    stage = _oscillator_stage(gamma * Qhat_s + eps * gamma * Qhat_a, 3.0 * eps, eps, T0)
    times, states, blown = _rk4_linear(stage, y0, s_end, h, cap)
    return OdeTrajectory(
        times=times,
        states=states,
        timescale="s",
        blown_up=blown,
        meta={"epsilon": eps, "gamma": gamma, "T0": T0},
    )


@dataclass(frozen=True)
class DriftGenerator:
    """Spectral data of the drift block ``A = [[0, I], [-Qhat_s, 0]]``.

    ``P`` orthogonally diagonalizes the normalized symmetric part and
    ``freqs`` are the square roots of its eigenvalues, so the spectrum of
    ``A`` is ``{+/- i * freqs}`` and the drift flow is a superposition of
    rotations at those frequencies.
    """

    A: np.ndarray
    P: np.ndarray
    freqs: np.ndarray

    @property
    def dim(self) -> int:
        return self.P.shape[0]


def drift_generator(f: LinearField | np.ndarray) -> DriftGenerator:
    """Build the drift generator from a field (or a raw SPD matrix).

    A :class:`~nestode.fields.LinearField` contributes its normalized
    symmetric part ``Qs / ell_j``; a raw symmetric positive-definite matrix
    is used as the normalized block verbatim.
    """
    if isinstance(f, LinearField):
        S = f.Qs / f.ell_j
    else:
        S = np.asarray(f, dtype=float)
    n = S.shape[0]
    evals, P = np.linalg.eigh(S)
    if evals[0] <= 1e-12 * max(1.0, evals[-1]):
        raise ValueError("drift block requires a positive definite matrix")
    off = P.T @ S @ P - np.diag(evals)
    if np.max(np.abs(off)) > 1e-9 * max(1.0, evals[-1]):
        raise ValueError("eigendecomposition failed to diagonalize the drift block")
    A = np.zeros((2 * n, 2 * n))
    A[:n, n:] = np.eye(n)
    A[n:, :n] = -S
    freqs = np.sqrt(evals)
    return DriftGenerator(A=A, P=P, freqs=freqs)


def _rotation(s: float | np.ndarray, lam: np.ndarray) -> tuple[np.ndarray, ...]:
    """``cos(lam s)``, ``sin(lam s) / lam`` and ``-lam sin(lam s)``: the
    diagonal blocks of ``exp(A s)`` in the eigenbasis, shaped ``s x lam``."""
    phase = np.multiply.outer(s, lam)
    sin = np.sin(phase)
    return np.cos(phase), sin / lam, -(lam * sin)


def exp_drift(gen: DriftGenerator, s: float | np.ndarray) -> np.ndarray:
    """Matrix exponential ``exp(A s)`` in closed form.

    In the eigenbasis the drift decouples into planar rotations, so the
    exponential is assembled from ``cos`` / ``sin`` diagonals; the result is
    exact for every ``s`` (no scaling-and-squaring error).  A scalar ``s``
    gives shape ``(2n, 2n)``; an array of times gives ``(..., 2n, 2n)``.
    """
    P, n = gen.P, gen.dim
    c, sin_over, minus_lam_sin = (d[..., None, :] for d in _rotation(s, gen.freqs))
    E = np.empty(c.shape[:-2] + (2 * n, 2 * n))
    E[..., :n, :n] = (P * c) @ P.T
    E[..., :n, n:] = (P * sin_over) @ P.T
    E[..., n:, :n] = (P * minus_lam_sin) @ P.T
    E[..., n:, n:] = E[..., :n, :n]
    return E


def integrate_drift(gen: DriftGenerator, psi0: np.ndarray, s_end: float,
                    h: float = 1e-3, cap: float = BLOWUP_CAP) -> OdeTrajectory:
    """RK4 integration of the pure drift ``dpsi/ds = A psi``."""
    times, states, blown = _rk4_linear(
        lambda s: np.broadcast_to(gen.A, s.shape + gen.A.shape),
        psi0, s_end, h, cap)
    return OdeTrajectory(times=times, states=states, timescale="s", blown_up=blown)


def integrate_pullback(f: LinearField, z0: np.ndarray, T0: float,
                       s_end: float, h: float = 1e-3,
                       cap: float = BLOWUP_CAP) -> OdeTrajectory:
    """Integrate the slow pulled-back system.

    ``dz/ds = eps exp(-A s) B(tau) exp(A s) z`` with ``tau = eps*s + T0``;
    the conjugation uses the closed-form exponential at every stage time,
    so the only discretization error is the RK4 truncation of the slow
    dynamics.  Passing ``T0 = inf`` switches the vanishing-damping term off.
    """
    eps = f.ell_j ** -0.5
    _, Qhat_a = normalize(f)
    gen = drift_generator(f)
    n = f.dim
    z0 = np.asarray(z0, dtype=float)
    if z0.shape != (2 * n,):
        raise ValueError(f"z0 must have length {2 * n}")

    def stage(s: np.ndarray) -> np.ndarray:
        E = exp_drift(gen, s)
        BE = -(Qhat_a @ E[..., :n, :]) - (3.0 / (eps * s + T0))[..., None, None] * E[..., n:, :]
        # B only fills the lower block row, so exp(-A s) B enters through its
        # right block column; exp(-A s) is exp(A s) with the off-diagonal
        # blocks negated (cos is even, sin is odd), exact in floating point.
        right = np.concatenate([-E[..., :n, n:], E[..., n:, n:]], axis=-2)
        return eps * (right @ BE)

    times, states, blown = _rk4_linear(stage, z0, s_end, h, cap)
    return OdeTrajectory(
        times=times,
        states=states,
        timescale="s",
        blown_up=blown,
        meta={"epsilon": eps, "T0": T0},
    )


@dataclass(frozen=True)
class VariationCheck:
    """Grid comparison of the two factorizations of the normalized flow.

    ``gap[k] = | y(s_k) - exp(A s_k) z(s_k) |`` where ``y`` solves the full
    normalized system and ``z`` the pulled-back slow system from the same
    initial condition.  The identity is exact in continuous time; the gap
    measures integrator error only.
    """

    s: np.ndarray
    gap: np.ndarray
    y_norm_max: float

    @property
    def max_gap(self) -> float:
        return float(np.max(self.gap))

    @property
    def gap_at_end(self) -> float:
        return float(self.gap[-1])


def variation_of_constants_check(f: LinearField, y0: np.ndarray, T0: float,
                                 s_end: float, h: float = 1e-3) -> VariationCheck:
    """Cross-check ``y(s) = exp(A s) z(s)`` on a shared grid."""
    traj_y = integrate_scaled_y(f, y0, T0, s_end=s_end, h=h)
    traj_z = integrate_pullback(f, y0, T0, s_end=s_end, h=h)
    m = min(len(traj_y.times), len(traj_z.times))
    gen = drift_generator(f)
    E = exp_drift(gen, traj_y.times[:m])
    reconstructed = np.einsum("mij,mj->mi", E, traj_z.states[:m])
    gap = np.linalg.norm(traj_y.states[:m] - reconstructed, axis=1)
    y_norm_max = float(np.max(np.linalg.norm(traj_y.states[:m], axis=1)))
    return VariationCheck(s=traj_y.times[:m], gap=gap, y_norm_max=y_norm_max)


def rescale_timescale(traj: OdeTrajectory, scale: float, offset: float,
                      timescale: str) -> OdeTrajectory:
    """Affinely remap the time axis (e.g. fast ``s`` to slow ``tau``)."""
    return OdeTrajectory(
        times=scale * traj.times + offset,
        states=traj.states,
        timescale=timescale,
        blown_up=traj.blown_up,
        meta=dict(traj.meta),
    )
