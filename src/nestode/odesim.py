"""Fixed-step integration of the continuous-time systems of the analysis.

All integrators use the classical fourth-order Runge-Kutta scheme with a
fixed step.  The step is snapped to an exact divisor of the horizon so the
final grid point lands on the requested end time.  Time-varying
coefficients (the vanishing damping ``3/tau``) are evaluated at the stage
times, which preserves the fourth-order accuracy.

Two timescales appear, tagged on the trajectories they produce:

* ``t`` -- original time of the accelerated flow
  ``x'' + (3/tau) x' + G(x) = 0`` with ``tau = T0 + eta * t``;
* ``s`` -- the fast timescale of the normalized first-order system
  ``dy/ds = A y + eps B(eps s) y`` with ``eps = 1 / sqrt(ell_j)``, of the
  drift system ``dpsi/ds = A psi``, and of the pulled-back slow system
  ``dz/ds = eps exp(-A s) B exp(A s) z``, whose damping clock is the slow
  time ``tau = eps * s + T0``.

Every system on the ``s`` scale, the averaged one of
:func:`~nestode.averaging.integrate_average` included, takes a
:class:`~nestode.fields.LinearField` and reads the normalization and the
drift spectrum that :func:`~nestode.fields.helmholtz_split` stored on it:
``eps = f.epsilon``, ``A = [[0, I], [-f.Qhat_s, 0]]``, ``f.Qhat_a`` in
``B``, and ``f.P`` and ``f.freqs`` for the closed-form ``exp(A s)``.  Every
integrator with a damping clock refuses a start ``T0`` that is not above
zero, NaN included; ``T0 = inf`` switches the damping off.

The systems on the ``s`` scale, the averaged system and the original flow
of a :class:`~nestode.fields.LinearField` are linear, ``y' = M(s) y``, so
an RK4 step is the matrix ``I + h/6 (K1 + 2 K2 + 2 K3 + K4)`` with
``K1 = M(s)``, ``K2 = M(s + h/2)(I + h/2 K1)``, ``K3 = M(s + h/2)(I + h/2
K2)`` and ``K4 = M(s + h)(I + h K3)``.  Their integrators build ``M``,
and ``_rk4_linear`` evaluates it once per batch of steps on the grid of
half steps, so each step time serves as the end of one step and the start
of the next.  It forms the step matrices of the batch and applies them to
a state vector or to a block of columns as a blocked prefix product:
running products within blocks of about ``sqrt(batch)`` steps, formed for
all blocks at once, then the state carried from block to block, so a
batch takes about ``2 sqrt(batch)`` numpy calls instead of one per step.
A batch whose running products overflow is applied one step at a time
instead, which keeps the rows of the sequential product (a zero state
stays zero under an overflowing stack).  The pulled-back system's ``M``
conjugates ``B`` with the three rotation blocks of ``exp(A s)``, built by
``_rotation_blocks`` for a whole batch of stage times, not with
``exp(A s)`` itself.  Its products with the fixed matrices ``P`` and
``Qhat_a`` take the whole batch of times as the long side of a 2-D
product, which rounds each entry as numpy's loop of one small product per
time would, at a fraction of the cost.  The original flow of a
:class:`~nestode.fields.GeneralField`, whose field may be nonlinear, runs
through ``_rk4``, one RK4 for this second-order system alone: each step
fills a ``(4, 2n)`` buffer with the stage velocities and accelerations,
calls the field's two callables once per stage, and ends with one weighted
product of the buffer.  Its ufuncs take the step fractions ``h/2`` and
``h`` and the three damping coefficients of a step as 0-d float64 arrays,
the coefficients computed in Python floats and written in place, since
numpy converts a Python-float operand on every call; the products are the
same.  Its first stage also adds the two parts at the step's start state
into a ``(steps, n)`` buffer kept beside the rows: the
drives ``G(x)`` that the restarting system hands its envelope check, so
no drive is evaluated twice.  The choice is made by field type in ``_flow_t``,
which both :func:`integrate_nesterov_t` and the windows of the restarting
system call.

Growth past ``BLOWUP_CAP`` truncates the trajectory and sets a flag
instead of raising: unstable runs are expected and their growth is data.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .fields import GeneralField, LinearField

__all__ = [
    "BLOWUP_CAP",
    "OdeTrajectory",
    "VariationCheck",
    "integrate_nesterov_t",
    "integrate_scaled_y",
    "exp_drift",
    "integrate_drift",
    "integrate_pullback",
    "variation_of_constants_check",
]

BLOWUP_CAP = 1e12

# Most RK4 steps one run may take; every step keeps a row, so a longer run
# is refused before it starts.
_MAX_STEPS = 10 ** 8

_TIMESCALES = ("t", "s")


@dataclass(frozen=True, eq=False)
class OdeTrajectory:
    """Sampled solution of one of the continuous-time systems.

    ``times`` is strictly increasing and ``states`` has one row per time.
    ``blown_up`` marks a trajectory truncated by the growth cap.
    """

    times: np.ndarray
    states: np.ndarray
    timescale: str
    blown_up: bool

    def __post_init__(self):
        if self.timescale not in _TIMESCALES:
            raise ValueError(f"timescale must be one of {_TIMESCALES}")
        if len(self.times) != len(self.states):
            raise ValueError("times and states must have equal length")


def _snap_step(horizon: float, h: float) -> tuple[int, float]:
    """Number of steps and the snapped step covering ``horizon`` exactly."""
    if horizon <= 0:
        raise ValueError("integration horizon must be positive")
    if h <= 0:
        raise ValueError("step must be positive")
    ratio = float(horizon) / float(h)  # inf, not an overflow warning, past the float range
    if not ratio <= _MAX_STEPS:
        raise ValueError(f"horizon / step = {ratio:.6g} exceeds the bound of {_MAX_STEPS} steps")
    n = max(1, int(round(ratio)))
    return n, horizon / n


def _state(value, length: int, name: str) -> np.ndarray:
    """``value`` as a float vector, refused unless it has ``length`` entries."""
    vector = np.atleast_1d(np.asarray(value, dtype=float))
    if vector.shape != (length,):
        raise ValueError(f"{name} must have length {length}")
    return vector


def _clock_start(T0: float) -> None:
    """Refuse a damping clock that does not start above zero; ``inf`` (no damping) passes."""
    if not T0 > 0:
        raise ValueError("T0 must be positive")


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
# near 1 MB per array at n = 6.  ``_rk4`` stores its rows in chunks of as
# many steps.
_CHUNK = 1024
# Steps per block of the prefix product: about as many blocks as steps per
# block, so both passes of ``_apply_steps`` take about sqrt(_CHUNK) calls.
_BLOCK = math.isqrt(_CHUNK)


def _apply_steps(phi: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Rows ``phi[k] @ ... @ phi[0] @ y`` for every ``k``, as a blocked prefix product.

    The steps are split into blocks of ``_BLOCK`` (one block for fewer
    steps), the last one padded with identities.  Running products within
    each block are formed for all blocks at once, the state is carried from
    block start to block start by the blocks' full products, and every row
    is one batched product of a running product with its block's start.
    Should a running product overflow, the steps are applied one by one
    instead: a product that overflows can still map the state to finite
    rows (an overflowing stack times a zero state is 0, not NaN).
    """
    steps, d = phi.shape[:2]
    width = min(_BLOCK, steps)
    blocks = -(-steps // width)
    if blocks * width > steps:
        phi = np.concatenate([phi, np.broadcast_to(np.eye(d), (blocks * width - steps, d, d))])
    phi = phi.reshape(blocks, width, d, d)
    prefix = np.empty_like(phi)
    prefix[:, 0] = phi[:, 0]
    for j in range(1, width):
        np.matmul(phi[:, j], prefix[:, j - 1], out=prefix[:, j])
    if not np.isfinite(prefix).all():
        rows = np.empty((steps,) + y.shape)
        for P, row in zip(phi.reshape(-1, d, d), rows):
            y = np.matmul(P, y, out=row)
        return rows
    starts = np.empty((blocks,) + y.shape)
    for b in range(blocks):
        starts[b] = y
        y = prefix[b, -1].dot(y)
    rows = prefix @ starts.reshape(blocks, 1, d, -1)
    return rows.reshape((blocks * width,) + y.shape)[:steps]


def _rk4_linear(stage: Callable[[np.ndarray], np.ndarray], y0: np.ndarray,
                horizon: float, h: float,
                cap: float) -> tuple[np.ndarray, np.ndarray, bool]:
    """RK4 for ``y' = M(s) y`` from ``s = 0`` through per-step matrices.

    ``stage(s)`` returns ``M`` stacked over an array of times, with shape
    ``s.shape + (d, d)``.  ``y0`` is a state vector of length ``d`` or a
    ``(d, m)`` block of columns, whose rows are then ``(d, m)`` matrices.
    Each chunk of ``_CHUNK`` steps ``k0 <= k < k1`` calls ``stage`` once, on
    the ``2 (k1 - k0) + 1`` half-step times ``j * (h / 2)``,
    ``j = 2 k0 ... 2 k1``: the even ``j`` are the step times, shared by the
    end of one step and the start of the next, and the odd ``j`` the
    midpoints.  The step times are ``k * h`` exactly (scaling by 2 and by
    1/2 is exact); a midpoint or step end rounds once, so it can differ by
    one ulp from the ``s + h/2`` and ``s + h`` of :func:`_rk4`.  The step
    matrices of a chunk are applied by the blocked prefix product of
    :func:`_apply_steps`, which falls back to one step at a time in a chunk
    whose running products overflow.  Step snapping, the time grid
    ``k * h_snapped`` and the blow-up rule of :func:`_blowup` are those of
    :func:`_rk4`.
    """
    n_steps, h = _snap_step(horizon, h)
    y = np.array(y0, dtype=float)
    eye = np.eye(len(y))
    states = [y[None]]
    with np.errstate(over="ignore", invalid="ignore"):
        for k0 in range(0, n_steps, _CHUNK):
            k1 = min(k0 + _CHUNK, n_steps)
            M = stage(np.arange(2 * k0, 2 * k1 + 1) * (0.5 * h))
            K1, M2, M4 = M[:-1:2], M[1::2], M[2::2]
            K2 = M2 @ (eye + 0.5 * h * K1)
            K3 = M2 @ (eye + 0.5 * h * K2)
            K4 = M4 @ (eye + h * K3)
            phi = eye + (h / 6.0) * (K1 + 2.0 * K2 + 2.0 * K3 + K4)
            rows = _apply_steps(phi, y)
            y = rows[-1]
            keep, blown = _blowup(rows, cap)
            states.append(rows[:keep])
            if blown:
                break
    states = np.concatenate(states)
    return np.arange(len(states)) * h, states, blown


def _affine_stage(C: np.ndarray, D: np.ndarray, coef: Callable[[np.ndarray], np.ndarray],
                  scale: float = 1.0) -> Callable[[np.ndarray], np.ndarray]:
    """Stage builder for ``M(s) = scale * (C + coef(s) D)``.

    Each stack is filled with ``scale * C`` and only the nonzero entries of
    ``D`` are then recomputed, in the same order of operations, so the stack
    equals the dense expression wherever ``coef(s)`` is finite.
    """
    const = (scale * C).ravel()
    support = [(k, C.flat[k], D.flat[k]) for k in np.flatnonzero(D)]

    def stage(s: np.ndarray) -> np.ndarray:
        M = np.empty(s.shape + const.shape)
        M[...] = const
        c = coef(s)
        for k, C_k, D_k in support:
            M[..., k] = scale * (C_k + c * D_k)
        return M.reshape(s.shape + C.shape)

    return stage


def _oscillator_stage(K: np.ndarray, gain: float, rate: float,
                      offset: float) -> Callable[[np.ndarray], np.ndarray]:
    """Stage builder for ``M(s) = [[0, I], [-K, -(gain / (rate s + offset)) I]]``."""
    n = len(K)
    M0 = np.zeros((2 * n, 2 * n))
    M0[:n, n:] = np.eye(n)
    M0[n:, :n] = -K
    damped = np.diag(np.repeat([0.0, 1.0], n))
    return _affine_stage(M0, damped, lambda s: -(gain / (rate * s + offset)))


def _rk4(f: GeneralField, u0: np.ndarray, t0: float, tau0: float, eta: float, span: float,
         h: float, cap: float) -> tuple[np.ndarray, np.ndarray, bool, np.ndarray]:
    """RK4 of ``x'' = -(3/tau) x' - grad J(x) - rot K(x)`` on ``u = (x, x')``.

    ``tau = tau0 + eta (t - t0)`` and the times are ``t0 + k * h_snapped``.
    Each step fills the rows of a ``(4, 2n)`` stage buffer ``K``: a row
    takes the stage's velocity, then its acceleration is formed in place
    from ``-(3/tau) x'`` by subtracting ``potential_gradient(x)`` and
    ``rotation(x)``.  The step ends with one weighted product
    ``u + ((h/6) [1, 2, 2, 1]).dot(K)``, written into the row that stores
    it; ``ndarray.dot`` rounds as ``@`` does on these operands at about half
    its fixed cost per call, and so does ``u.dot(u)`` for the blow-up norm.
    The coefficients ``-3/tau`` at ``t``, ``t + h/2`` and ``t + h`` are
    computed in Python floats and written into three 0-d float64 arrays,
    which the stages' multiplies read, and a stage input is
    ``u + np.multiply(K[i-1], half0, tmp)`` with ``h/2`` (or ``h``) as a
    0-d array and ``tmp`` one reused ``(2n,)`` scratch vector: the same
    IEEE products as with Python floats, without numpy converting a float
    operand on each call.  The callables get a fresh stage state at every
    stage, or at the first stage a slice of a stored row, which is never
    written again; never a view into the stage buffer or into ``tmp``.
    Rows are stored in chunks of ``_CHUNK`` steps, so no array is sized to
    the requested step count.  The blow-up
    rule is that of :func:`_blowup`, checked after each step.  An
    overflowing run may stop here a step or more before ``_rk4_linear``
    does, as an acceleration can overflow before the state it moves.

    Besides the times, the states and the blow-up flag, the result holds
    the drives ``G(x) = np.add(potential_gradient(x), rotation(x))`` that
    the first stages evaluated: ``drives[k]`` is the drive at
    ``states[k]``, and ``len(drives) == len(states) - 1`` also in a run cut
    short, since a step dropped as non-finite takes the drive at its start
    with it.
    """
    n_steps, h = _snap_step(span, h)
    u = np.array(u0, dtype=float)
    n = len(u) // 2
    grad, rot = f.potential_gradient, f.rotation
    K = np.empty((4, 2 * n))
    vel, acc = [K[i, :n] for i in range(4)], [K[i, n:] for i in range(4)]
    weights = (h / 6.0) * np.array([1.0, 2.0, 2.0, 1.0])
    half = 0.5 * h
    # 0-d operands (a Python float is converted on every ufunc call): the
    # stage fractions and the coefficients at t, t + h/2 and t + h
    half0, h0 = np.array(half), np.array(h)
    c_start, c_mid, c_end = np.empty(()), np.empty(()), np.empty(())
    tmp = np.empty(2 * n)

    def stage(i: int, z: np.ndarray, c: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        x, v, a = z[:n], z[n:], acc[i]
        vel[i][...] = v
        np.multiply(v, c, out=a)
        g, r = grad(x), rot(x)
        a -= g
        a -= r
        return g, r

    chunks, drive_chunks = [u[None]], []
    blown = False
    with np.errstate(over="ignore", invalid="ignore"):
        for k0 in range(0, n_steps, _CHUNK):
            rows = np.empty((min(_CHUNK, n_steps - k0), 2 * n))
            drives = np.empty((len(rows), n))
            chunks.append(rows)
            drive_chunks.append(drives)
            for j in range(len(rows)):
                t = t0 + (k0 + j) * h
                c_start[()] = -3.0 / (tau0 + eta * (t - t0))
                c_mid[()] = -3.0 / (tau0 + eta * (t + half - t0))
                c_end[()] = -3.0 / (tau0 + eta * (t + h - t0))
                g, r = stage(0, u, c_start)
                np.add(g, r, out=drives[j])  # before a later stage calls the parts again
                stage(1, u + np.multiply(K[0], half0, tmp), c_mid)
                stage(2, u + np.multiply(K[1], half0, tmp), c_mid)
                stage(3, u + np.multiply(K[2], h0, tmp), c_end)
                u = np.add(u, weights.dot(K), out=rows[j])
                norm = math.sqrt(u.dot(u))
                # an infinite or NaN norm is the only sign of a non-finite row;
                # it is also what a finite row too large to square gives
                if not norm < math.inf and not np.isfinite(u).all():
                    chunks[-1], drive_chunks[-1], blown = rows[:j], drives[:j], True
                    break
                if norm > cap:
                    chunks[-1], drive_chunks[-1], blown = rows[:j + 1], drives[:j + 1], True
                    break
            if blown:
                break
    states = np.concatenate(chunks)
    return t0 + np.arange(len(states)) * h, states, blown, np.concatenate(drive_chunks)


def _flow_t(f: LinearField | GeneralField, u0: np.ndarray, t0: float, tau0: float,
            eta: float, span: float, h: float,
            cap: float) -> tuple[np.ndarray, np.ndarray, bool, np.ndarray | None]:
    """RK4 of the flow on ``u = (x, x')`` from ``t0``, ``tau = tau0 + eta (t - t0)``.

    A :class:`~nestode.fields.LinearField` runs through step matrices, and
    ``u0`` may then be a ``(2n, m)`` block of columns; its drives are
    ``None``.  A :class:`~nestode.fields.GeneralField` runs through
    :func:`_rk4`, which returns the drives its first stages evaluated.
    """
    if isinstance(f, LinearField):
        times, states, blown = _rk4_linear(_oscillator_stage(f.Q, 3.0, eta, tau0),
                                           u0, span, h, cap)
        return t0 + times, states, blown, None
    return _rk4(f, u0, t0, tau0, eta, span, h, cap)


def integrate_nesterov_t(f: LinearField | GeneralField, x0: np.ndarray,
                         v0: np.ndarray, T0: float, eta: float, t_end: float,
                         h: float = 1e-3) -> OdeTrajectory:
    """Integrate the accelerated flow in original time.

    The system is ``x'' + (3/tau) x' + G(x) = 0`` with ``tau = T0 + eta*t``.
    State rows are ``(x, x', tau)``; the ``tau`` column is the exact affine
    clock, not an integrated quantity.
    """
    _clock_start(T0)
    if not 0.0 < eta <= 1.0:
        raise ValueError("eta must lie in (0, 1]")
    u0 = np.concatenate([_state(x0, f.dim, "x0"), _state(v0, f.dim, "v0")])
    times, states, blown, _ = _flow_t(f, u0, 0.0, T0, eta, t_end, h, BLOWUP_CAP)
    tau_col = T0 + eta * times
    return OdeTrajectory(times=times, states=np.column_stack([states, tau_col]),
                         timescale="t", blown_up=blown)


def integrate_scaled_y(f: LinearField, y0: np.ndarray, T0: float, s_end: float,
                       h: float = 1e-3) -> OdeTrajectory:
    """Integrate the normalized first-order system on the fast timescale.

    ``dy/ds = A y + eps B(eps s) y`` with ``eps = f.epsilon``,
    ``A = [[0, I], [-Qhat_s, 0]]`` and
    ``B = [[0, 0], [-Qhat_a, -(3/(eps s + T0)) I]]``: the normalized image
    of the original flow with a unit clock rate.
    """
    _clock_start(T0)
    eps = f.epsilon
    y0 = _state(y0, 2 * f.dim, "y0")
    stage = _oscillator_stage(f.Qhat_s + eps * f.Qhat_a, 3.0 * eps, eps, T0)
    times, states, blown = _rk4_linear(stage, y0, s_end, h, BLOWUP_CAP)
    return OdeTrajectory(times=times, states=states, timescale="s", blown_up=blown)


def _rotation_blocks(f: LinearField, s: np.ndarray) -> np.ndarray:
    """The blocks ``D``, ``C``, ``S`` of ``exp(A s)`` at every time of the 1-D array ``s``.

    ``C = P diag(cos(lam s)) P^T`` is both diagonal blocks,
    ``S = P diag(sin(lam s) / lam) P^T`` the upper and
    ``D = P diag(-lam sin(lam s)) P^T`` the lower off-diagonal block.  The
    result has shape ``(3, n, n, len(s))``, time last, with ``[D, C, S]``
    along the first axis, so the block rows ``[C S]`` and ``[D C]`` of
    ``exp(A s)`` are its slices ``1:`` and ``:2``.  Each entry is rounded as
    in ``(P * diag) @ P.T``, but the elementwise products run along the time
    axis and ``P`` multiplies one ``(n, len(s))`` slab per row of a block
    instead of one ``n x n`` matrix per time.  For a single time numpy takes
    that product as a matrix-vector product, which may round the last bit
    differently.
    """
    P, lam = f.P, f.freqs
    phase = np.multiply.outer(lam, s)
    sin = np.sin(phase)
    blocks = np.empty((3,) + P.shape + phase.shape[1:])
    for block, diag in zip(blocks, (-(lam[:, None] * sin), np.cos(phase), sin / lam[:, None])):
        np.matmul(P, P[:, :, None] * diag, out=block)
    return blocks


def exp_drift(f: LinearField, s: float | np.ndarray) -> np.ndarray:
    """Matrix exponential ``exp(A s)`` of the drift block ``A = [[0, I], [-Qhat_s, 0]]``.

    In the eigenbasis the drift decouples into planar rotations, so the
    exponential is assembled from ``cos`` / ``sin`` diagonals; the result is
    exact for every ``s`` (no scaling-and-squaring error).  A scalar ``s``
    gives shape ``(2n, 2n)``; an array of times gives ``(..., 2n, 2n)``.
    """
    n = f.dim
    D, C, S = np.moveaxis(_rotation_blocks(f, np.ravel(s)), -1, 1)
    E = np.empty((len(C), 2 * n, 2 * n))
    E[:, :n, :n] = E[:, n:, n:] = C
    E[:, :n, n:] = S
    E[:, n:, :n] = D
    return E.reshape(np.shape(s) + E.shape[1:])


def integrate_drift(f: LinearField, psi0: np.ndarray, s_end: float,
                    h: float = 1e-3) -> OdeTrajectory:
    """RK4 integration of the pure drift ``dpsi/ds = A psi``, ``A = [[0, I], [-Qhat_s, 0]]``."""
    n = f.dim
    psi0 = _state(psi0, 2 * n, "psi0")
    A = np.zeros((2 * n, 2 * n))
    A[:n, n:] = np.eye(n)
    A[n:, :n] = -f.Qhat_s
    times, states, blown = _rk4_linear(lambda s: np.broadcast_to(A, s.shape + A.shape),
                                       psi0, s_end, h, BLOWUP_CAP)
    return OdeTrajectory(times=times, states=states, timescale="s", blown_up=blown)


def integrate_pullback(f: LinearField, z0: np.ndarray, T0: float,
                       s_end: float, h: float = 1e-3) -> OdeTrajectory:
    """Integrate the slow pulled-back system.

    ``dz/ds = eps exp(-A s) B(tau) exp(A s) z`` with ``tau = eps*s + T0``;
    the conjugation uses the closed-form blocks of the exponential at every
    stage time, so the only discretization error is the RK4 truncation of
    the slow dynamics.  Passing ``T0 = inf`` switches the vanishing-damping
    term off.
    """
    _clock_start(T0)
    eps, Qhat_a, n = f.epsilon, f.Qhat_a, f.dim
    z0 = _state(z0, 2 * n, "z0")

    def stage(s: np.ndarray) -> np.ndarray:
        m = len(s)
        blocks = _rotation_blocks(f, s)
        # B fills only the lower block row, so B exp(A s) is
        # -(Qhat_a [C S] + (3/tau) [D C]); BE holds it time first
        lower = (Qhat_a @ blocks[1:].reshape(2, n, -1)).reshape(2, n, n, m)
        lower += (3.0 / (eps * s + T0)) * blocks[:2]
        BE = np.empty((m, n, 2, n))
        np.negative(lower.transpose(3, 1, 0, 2), out=BE)
        # exp(-A s) B enters through the right block column of exp(-A s),
        # which is [-S; C]: cos is even and sin is odd, so the sign is exact
        right = np.empty((m, 2, n, n))
        np.negative(blocks[2].transpose(2, 0, 1), out=right[:, 0])
        right[:, 1] = blocks[1].transpose(2, 0, 1)
        return eps * (right.reshape(m, 2 * n, n) @ BE.reshape(m, n, 2 * n))

    times, states, blown = _rk4_linear(stage, z0, s_end, h, BLOWUP_CAP)
    return OdeTrajectory(times=times, states=states, timescale="s", blown_up=blown)


@dataclass(frozen=True, eq=False)
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
    E = exp_drift(f, traj_y.times[:m])
    reconstructed = np.einsum("mij,mj->mi", E, traj_z.states[:m])
    gap = np.linalg.norm(traj_y.states[:m] - reconstructed, axis=1)
    y_norm_max = float(np.max(np.linalg.norm(traj_y.states[:m], axis=1)))
    return VariationCheck(s=traj_y.times[:m], gap=gap, y_norm_max=y_norm_max)

