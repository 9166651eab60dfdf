import math
from dataclasses import replace
from fractions import Fraction
from typing import NamedTuple

import numpy as np
from hypothesis import settings
from scipy.special import jv, yv

from nestode.averaging import MAX_DENOMINATOR, PERIOD_RTOL, PeriodResult
from nestode.fields import GeneralField, LinearField, helmholtz_split
from nestode.hybrid import restart_ratio
from nestode.odesim import _CHUNK, _snap_step

# Property tests draw the same examples on every run, keep no example
# database, and stay within a bounded budget of the Tier-1 suite.
settings.register_profile("nestode", derandomize=True, database=None,
                          max_examples=20, deadline=None)
settings.load_profile("nestode")

DEMO_Q = np.array([[100.0, 5.0], [-5.0, 100.0]])

# Relative position error at h = 4e-3 / 2e-3 / 1e-3 of a prototype
# comparison of the demo flow at eta = 0.5 (t_end = 8, T0 = 0.1) with
# ``bessel_flow``; the oracle tests allow twice these.
BESSEL_STEPS = (4e-3, 2e-3, 1e-3)
BESSEL_PROTOTYPE = np.array([5.2e-8, 3.1e-9, 1.9e-10])


def make_commensurate_field(seed: int, n: int) -> LinearField:
    """Random field whose drift frequencies are small-integer multiples.

    Frequencies are drawn as integers k <= 6 and normalized by the largest,
    so the symmetric part has unit-norm normalization with eigenvalues
    (k_i/k_max)^2; a random rotation part is scaled to keep alpha <= 1.
    At n = 1 there is no rotation part and the field is conservative.
    """
    rng = np.random.default_rng(seed)
    ks = rng.integers(1, 7, size=n)
    ks[rng.integers(0, n)] = 6  # pin the top frequency so ratios stay small
    freqs = ks / 6.0
    ell_j = float(rng.uniform(50.0, 200.0))
    eigs = ell_j * freqs ** 2

    raw = rng.standard_normal((n, n))
    R, _ = np.linalg.qr(raw)
    Qs = R @ np.diag(eigs) @ R.T

    skew = rng.standard_normal((n, n))
    skew = 0.5 * (skew - skew.T)
    alpha = float(rng.uniform(0.2, 1.0))
    if n > 1:
        skew *= alpha * np.sqrt(ell_j) / np.linalg.norm(skew, 2)

    return helmholtz_split(Qs + skew)


def reference_period(f: LinearField) -> PeriodResult | None:
    """The common drift period of ``f``, with each ratio fit by ``Fraction.limit_denominator``.

    The ratio of each frequency to ``freqs[0]`` is fit within the
    denominator budget ``MAX_DENOMINATOR``; a fit off by more than
    ``PERIOD_RTOL`` (relative), or integer ratios that miss a frequency by
    more than that, give ``None``.
    """
    freqs = f.freqs
    base = float(freqs[0])
    numerators: list[int] = []
    denominators: list[int] = []
    for fk in freqs:
        ratio = float(fk) / base
        frac = Fraction(ratio).limit_denominator(MAX_DENOMINATOR)
        if abs(ratio - float(frac)) > PERIOD_RTOL * max(1.0, ratio):
            return None
        numerators.append(frac.numerator)
        denominators.append(frac.denominator)

    omega0 = base * math.gcd(*numerators) / math.lcm(*denominators)
    ratios = tuple(int(round(f / omega0)) for f in freqs)
    drift = np.max(np.abs(freqs - omega0 * np.asarray(ratios)))
    if drift > PERIOD_RTOL * max(1.0, float(freqs[-1])):
        return None
    return PeriodResult(omega0=omega0, period=2.0 * math.pi / omega0, ratios=ratios)


SOFT_QA = np.array([[0.0, 0.3], [-0.3, 0.0]])


def soft_field(scale=1.0, calls=None, vectorized=False) -> GeneralField:
    """``scale`` times the softened-identity field; each potential call appends to ``calls``.

    A mildly nonlinear monotone field with rotation ``SOFT_QA``; at ``scale = 1``
    its constants are ``kappa_j = 1``, ``ell_j = 1.5`` and ``ell_k = 0.3``.
    With ``vectorized`` it is the flagged twin, whose callables also take an
    ``(m, 2)`` block of rows and return one value per row.
    """
    def potential(q):
        if calls is not None:
            calls.append(q)
        value = np.sum(0.5 * q * q + 0.5 * (q * np.arctan(q) - 0.5 * np.log1p(q * q)), axis=-1)
        return scale * (value if vectorized else float(value))

    def rotation(q):
        return scale * (q @ SOFT_QA.T if vectorized else SOFT_QA @ q)

    f = GeneralField(dim=2, potential=potential,
                     potential_gradient=lambda q: scale * (q + 0.5 * np.arctan(q)),
                     rotation=rotation, x_star=np.zeros(2), kappa_j=scale, ell_j=1.5 * scale,
                     ell_k=0.3 * scale)
    # the flag is set only when asked, so that tests/bytediff.py can load the
    # unflagged field into a version of the package that has no flag
    return replace(f, vectorized=True) if vectorized else f


def split_parts_field(lists: bool) -> GeneralField:
    """The field ``diag(1, 4) x + [x1, -x0]``, whose parts return lists or arrays.

    The rotation is not orthogonal to the gradient, so ``|grad J + rot K|^2``
    differs from ``|grad J|^2 + |rot K|^2`` away from the origin.
    """
    def gradient(x):
        g = np.array([1.0, 4.0]) * x
        return g.tolist() if lists else g

    def rotation(x):
        r = np.array([x[1], -x[0]])
        return r.tolist() if lists else r

    return GeneralField(dim=2, potential=lambda x: 0.5 * float(x[0] ** 2 + 4.0 * x[1] ** 2),
                        potential_gradient=gradient, rotation=rotation, x_star=np.zeros(2),
                        kappa_j=1.0, ell_j=4.0, ell_k=1.0)


def bessel_flow(Q: np.ndarray, x0: np.ndarray, v0: np.ndarray, T0: float,
                eta: float, t: np.ndarray) -> np.ndarray:
    """Exact rows ``(x, x')`` of ``x'' + (3/tau) x' + Q x = 0``, ``tau = T0 + eta t``.

    In the eigenbasis of ``Q`` each mode ``lam`` solves
    ``u'' + 3/(eta tau) u' + (lam/eta^2) u = 0`` in ``tau``, whose solutions
    are ``tau^(-nu) Z_nu(k tau)`` with ``nu = (3/eta - 1)/2``, ``k = sqrt(lam)/eta``
    and ``Z_nu`` a combination of ``J_nu`` and ``Y_nu``; the derivative is
    ``-k tau^(-nu) Z_(nu+1)(k tau)``.  A non-normal ``Q`` has complex ``lam``,
    and the Bessel functions then take a complex argument.
    """
    lam, V = np.linalg.eig(Q)
    nu = (3.0 / eta - 1.0) / 2.0
    k = np.sqrt(lam.astype(complex)) / eta

    def modes(tau, order, factor):
        z = np.multiply.outer(tau, k)
        scale = factor * np.asarray(tau)[..., None] ** -nu
        return scale * jv(order, z), scale * yv(order, z)

    J, Y = modes(T0, nu, 1.0)
    dJ, dY = modes(T0, nu + 1.0, -k)
    w0 = np.linalg.solve(V, x0)
    dw0 = np.linalg.solve(V, v0) / eta  # d/dtau = (1/eta) d/dt
    det = J * dY - Y * dJ
    a, b = (w0 * dY - Y * dw0) / det, (J * dw0 - w0 * dJ) / det
    tau = T0 + eta * np.asarray(t)
    J, Y = modes(tau, nu, 1.0)
    dJ, dY = modes(tau, nu + 1.0, -k)
    rows = np.hstack([(a * J + b * Y) @ V.T, eta * (a * dJ + b * dY) @ V.T])
    return rows.real


def plain_triggers(kappa_j: float, ell_j: float, eta: float, T0: float,
                   passes: int) -> tuple[float, ...]:
    """Seed ``2 T_lower`` and ``passes`` trigger estimates, each pass written out.

    ``T_lower = sqrt(T0^2 + 4 eta^2 / kappa_j)`` is the lower end of the
    reset window.  A pass maps ``T`` to
    ``T_lower / restart_ratio(min(1, kappa_j) / c_upper)`` with the
    certificate's sandwich constant ``c_upper`` at ``T`` written out from
    its closed form, with no convergence stop.  An estimate may lie outside
    the admissible window, so no certificate is built for it.
    """
    T_lower = math.sqrt(T0 * T0 + 4.0 * eta * eta / kappa_j)
    history = [2.0 * T_lower]
    for _ in range(passes):
        T = history[-1]
        b = 3.0 - eta
        a = 2.0 * eta * b / T ** 2
        c = 3.0 * a * (1.0 - eta) / (2.0 * eta * b ** 2)
        delta = a / (eta * b)
        m = a / b ** 2 + c
        c_upper = max(a + a * T / b + 0.5 * delta * T ** 2 * ell_j, m * T ** 2 + a * T / b)
        history.append(T_lower / restart_ratio(min(1.0, kappa_j) / c_upper))
    return tuple(history)


def reference_normalize(f: LinearField) -> tuple[np.ndarray, np.ndarray]:
    """The normalized pair ``(Qs / ell_j, alpha * Qa / ell_k)``, computed afresh.

    The first matrix has unit spectral norm; the second has spectral norm
    ``alpha``.  A field with no rotation part maps to a zero second matrix.
    """
    Qhat_s = f.Qs / f.ell_j
    if f.ell_k == 0.0:
        Qhat_a = np.zeros_like(f.Qa)
    else:
        Qhat_a = f.alpha * f.Qa / f.ell_k
    return Qhat_s, Qhat_a


class ReferenceDrift(NamedTuple):
    """The drift block ``A = [[0, I], [-Qhat_s, 0]]`` and its spectral data."""

    A: np.ndarray
    P: np.ndarray
    freqs: np.ndarray


def reference_drift_generator(f: LinearField) -> ReferenceDrift:
    """The drift block of ``Qs / ell_j`` and its eigendecomposition, computed afresh.

    ``P`` orthogonally diagonalizes the normalized symmetric part and
    ``freqs`` are the square roots of its eigenvalues.
    """
    S = f.Qs / f.ell_j
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
    return ReferenceDrift(A=A, P=P, freqs=np.sqrt(evals))


def drift_matrix(f: LinearField) -> np.ndarray:
    """``A = [[0, I], [-f.Qhat_s, 0]]``, the drift block of the field."""
    n = f.dim
    return np.block([[np.zeros((n, n)), np.eye(n)], [-f.Qhat_s, np.zeros((n, n))]])


def reference_exp_drift(f: LinearField, s) -> np.ndarray:
    """``exp(A s)`` with each block ``P diag(d) P^T`` one ``n x n`` product per time.

    ``d`` is ``cos(lam s)`` on the diagonal blocks, ``sin(lam s) / lam`` on
    the upper and ``-lam sin(lam s)`` on the lower off-diagonal block.  The
    shape rule is that of ``exp_drift``: ``s.shape + (2n, 2n)``.
    """
    P, n, lam = f.P, f.dim, f.freqs
    phase = np.multiply.outer(s, lam)[..., None, :]
    sin = np.sin(phase)
    E = np.empty(phase.shape[:-2] + (2 * n, 2 * n))
    E[..., :n, :n] = (P * np.cos(phase)) @ P.T
    E[..., :n, n:] = (P * (sin / lam)) @ P.T
    E[..., n:, :n] = (P * -(lam * sin)) @ P.T
    E[..., n:, n:] = E[..., :n, :n]
    return E


def reference_pullback_stage(f: LinearField, T0: float, s: np.ndarray) -> np.ndarray:
    """``eps exp(-A s) B(eps s + T0) exp(A s)`` at each time of ``s``, from the whole ``exp(A s)``.

    ``B exp(A s)`` is ``-Qhat_a`` times the upper block row of ``exp(A s)``
    minus ``3 / tau`` times its lower block row, and it meets the right
    block column of ``exp(-A s)``, which is the right block column of
    ``exp(A s)`` with its upper block negated.
    """
    eps, n = f.epsilon, f.dim
    E = reference_exp_drift(f, s)
    BE = -(f.Qhat_a @ E[..., :n, :]) - (3.0 / (eps * s + T0))[..., None, None] * E[..., n:, :]
    right = np.concatenate([-E[..., :n, n:], E[..., n:, n:]], axis=-2)
    return eps * (right @ BE)


def generic_rk4(rhs, t0: float, y0: np.ndarray, horizon: float, h: float,
                cap: float) -> tuple[np.ndarray, np.ndarray, bool]:
    """Textbook RK4 on a right-hand side ``rhs(t, y)``: the reference of every integrator.

    Returns ``(times, states, blown_up)`` with times ``t0 + k * h_snapped``
    and the blow-up rule of the library, checked after each step: a
    non-finite step is dropped, and a step whose norm exceeds ``cap`` is
    kept as the last row.
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
            if not norm < math.inf and not np.isfinite(y).all():
                blown = True
                break
            states.append(y)
            if norm > cap:
                blown = True
                break
    return t0 + np.arange(len(states)) * h, np.asarray(states), blown


def reference_general_rk4(f: GeneralField, u0: np.ndarray, t0: float, tau0: float, eta: float,
                          span: float, h: float,
                          cap: float) -> tuple[np.ndarray, np.ndarray, bool, np.ndarray]:
    """The general-field RK4 loop with Python-float operands: the oracle of ``odesim._rk4``.

    The same IEEE products in the same order as ``_rk4``, with the damping
    coefficients and the stage fractions passed to numpy as Python floats
    and each stage input formed as ``u + half * K[i - 1]``.  Returns
    ``(times, states, blown_up, drives)`` by the rules of ``_rk4``.
    """
    n_steps, h = _snap_step(span, h)
    u = np.array(u0, dtype=float)
    n = len(u) // 2
    grad, rot = f.potential_gradient, f.rotation
    K = np.empty((4, 2 * n))
    vel, acc = [K[i, :n] for i in range(4)], [K[i, n:] for i in range(4)]
    weights = (h / 6.0) * np.array([1.0, 2.0, 2.0, 1.0])
    half = 0.5 * h

    def stage(i, z, c):
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
                mid = -3.0 / (tau0 + eta * (t + half - t0))
                g, r = stage(0, u, -3.0 / (tau0 + eta * (t - t0)))
                np.add(g, r, out=drives[j])
                stage(1, u + half * K[0], mid)
                stage(2, u + half * K[1], mid)
                stage(3, u + h * K[2], -3.0 / (tau0 + eta * (t + h - t0)))
                u = np.add(u, weights @ K, out=rows[j])
                norm = math.sqrt(u @ u)
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
