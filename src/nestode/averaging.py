"""Period computation, averaged matrices, and the instability certificate.

When the frequencies of the drift block are commensurate, the conjugated
perturbation ``exp(-A s) B exp(A s)`` is periodic and can be averaged over
one period, which the certificate's report carries as ``period`` (``None``
when the frequencies are incommensurate).  The averaged system splits into
a constant part (driven by the skew block, computable in closed form
through the eigenbasis) and a vanishing-damping part whose average is
exactly ``-I/2``.  A positive real eigenvalue of the constant part
certifies instability of the original accelerated flow when the structural
hypotheses hold:

(i)   every off-diagonal entry of the skew part is nonzero,
(ii)  the drift frequencies are commensurate (rational-square spectrum),
(iii) exactly one eigenvalue of the symmetric part is degenerate.

The closed form keeps only eigenbasis entries joining equal frequencies.
Its check, composite Simpson over one period (exact for this trigonometric
integrand), sums one weighted Gram matrix of the ``sin`` and ``cos`` of the
true drift frequencies over a grid of coarse and fine angles joined by angle
addition, sampled in one table of the coarse, fine and tail angles (about
``2 sqrt(nodes)`` samples per frequency), and assumes no entry vanishes, so
the routes stay independent.

The averaged slow system ``zeta' = eps (B1_bar + (3/tau) B2_bar) zeta`` is
fixed by the field alone: :func:`integrate_average` takes the field and
integrates the closed form at ``eps = f.epsilon``.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, fields

import numpy as np

from .fields import LinearField, _count
from .odesim import (BLOWUP_CAP, OdeTrajectory, _affine_stage, _clock_start, _rk4_linear,
                     _state)

__all__ = [
    "PeriodResult",
    "AveragedSystem",
    "InstabilityConditions",
    "CertificateReport",
    "average_closed_form",
    "integrate_average",
    "instability_certificate",
]

# A frequency ratio counts as rational, and the integer ratios as exact,
# within this relative residual.
PERIOD_RTOL = 1e-9
# Largest denominator a rational fit of a frequency ratio may have.
MAX_DENOMINATOR = 64
# Two drift eigenvalues count as equal within this size relative to the largest.
DEGENERACY_RTOL = 1e-9
# Most Simpson nodes a quadrature may use; a larger count is refused before
# anything is sampled.
_MAX_NODES = 2 ** 22
# Signs of the four coarse x fine products in SS, SC and CC (angle addition;
# see _simpson_gram), one row each, as multipliers of _simpson_gram's stack
_GRAM_SIGNS = np.array([[1.0, 1.0, 1.0, 1.0],
                        [1.0, -1.0, 1.0, -1.0],
                        [1.0, -1.0, -1.0, 1.0]]).reshape(3, 2, 2, 1, 1)


@dataclass(frozen=True)
class PeriodResult:
    """Common base frequency of the drift flow.

    Every drift frequency equals ``ratios[k] * omega0`` with integer
    ratios, so every drift solution is periodic with period
    ``2 pi / omega0``.
    """

    omega0: float
    period: float
    ratios: tuple[int, ...]


def _limit_denominator(x: float) -> tuple[int, int]:
    """The closest fraction ``p / q`` to ``x`` with ``q <= MAX_DENOMINATOR``.

    ``Fraction(x).limit_denominator(MAX_DENOMINATOR)`` as the pair ``(p,
    q)``, computed on the exact integer ratio of ``x`` with no
    ``Fraction``: ``x`` itself when its denominator is within the budget;
    otherwise the continued fraction of ``x`` is expanded until the next
    convergent's denominator would exceed the budget, and the last
    convergent ``p1 / q1`` is compared with the semiconvergent of the
    largest ``k`` that stays within it.  The closer of the two wins by exact
    integer cross-multiplication, and a tie goes to the convergent.
    """
    num, den = x.as_integer_ratio()
    if den <= MAX_DENOMINATOR:
        return num, den
    p0, q0, p1, q1 = 0, 1, 1, 0
    n, d = num, den
    while True:
        a = n // d
        q2 = q0 + a * q1
        if q2 > MAX_DENOMINATOR:
            break
        p0, q0, p1, q1 = p1, q1, p0 + a * p1, q2
        n, d = d, n - a * d
    k = (MAX_DENOMINATOR - q0) // q1
    p2, q2 = p0 + k * p1, q0 + k * q1
    # |p1/q1 - x| <= |p2/q2 - x|, both sides multiplied by q1 q2 den
    if abs(p1 * den - num * q1) * q2 <= abs(p2 * den - num * q2) * q1:
        return p1, q1
    return p2, q2


def _period(f: LinearField) -> PeriodResult | None:
    """The largest base frequency dividing every drift frequency ``f.freqs``.

    The ratio of each frequency to the lowest, ``freqs[0]``, is fit by
    :func:`_limit_denominator`, the best rational approximation with a
    denominator of at most ``MAX_DENOMINATOR`` (ties go to the continued
    fraction's convergent); the fit must be exact to within ``PERIOD_RTOL``
    (relative), or the frequencies are incommensurate and there is no
    period (``None``).  It runs on Python floats and ints, whose operations
    round as numpy's float64 ones do.
    """
    freqs = f.freqs.tolist()
    base = freqs[0]
    numerators: list[int] = []
    denominators: list[int] = []
    for fk in freqs:
        ratio = fk / base
        p, q = _limit_denominator(ratio)
        if abs(ratio - p / q) > PERIOD_RTOL * max(1.0, ratio):
            return None
        numerators.append(p)
        denominators.append(q)

    g = math.gcd(*numerators)
    lcm = math.lcm(*denominators)
    omega0 = base * g / lcm
    ratios = tuple(round(fk / omega0) for fk in freqs)
    drift = max(abs(fk - omega0 * r) for fk, r in zip(freqs, ratios))
    if drift > PERIOD_RTOL * max(1.0, freqs[-1]):
        return None
    return PeriodResult(omega0=omega0, period=2.0 * math.pi / omega0, ratios=ratios)


@dataclass(frozen=True)
class InstabilityConditions:
    """Which structural hypotheses of the instability argument hold."""

    offdiagonal_nonzero: bool
    commensurate: bool
    single_degenerate_group: bool

    def failed(self) -> tuple[str, ...]:
        return tuple(c.name for c in fields(self) if not getattr(self, c.name))


def _eigen_groups(values: np.ndarray, rtol: float) -> np.ndarray:
    """Group label of each eigenvalue, numbered in ascending order of value.

    Groups chain: after sorting, a value joins its lower neighbour's group
    when the two differ by at most ``rtol * max|values|``, so a group can
    span more than the tolerance.  Equal labels are the one equivalence
    relation that the degeneracy condition and the closed form both use.
    The walk runs on Python floats, whose operations round as numpy's
    float64 ones do; a label depends only on the sorted values, so the
    order among equal values does not matter.
    """
    vals = values.tolist()
    tol = rtol * max(1e-300, max(map(abs, vals)))
    order = sorted(range(len(vals)), key=vals.__getitem__)
    labels, group, prev = [0] * len(vals), 0, vals[order[0]]
    for i in order:
        if vals[i] - prev > tol:
            group += 1
        labels[i], prev = group, vals[i]
    return np.array(labels)


def _conditions(f: LinearField, labels: np.ndarray, commensurate: bool) -> InstabilityConditions:
    """The three hypotheses, given the drift eigenvalue groups of :func:`_eigen_groups`."""
    n, Qa = f.dim, f.Qa
    return InstabilityConditions(
        offdiagonal_nonzero=bool(np.count_nonzero(Qa) - np.count_nonzero(Qa.diagonal())
                                 == n * (n - 1)),
        commensurate=commensurate,
        single_degenerate_group=bool(np.count_nonzero(np.bincount(labels) > 1) == 1),
    )


@dataclass(frozen=True, eq=False)
class AveragedSystem:
    """Averaged matrices of the slow system and the spectrum that matters.

    ``b1_bar`` is the period average of the conjugated skew block and
    drives stability once the damping has faded; ``b2_bar`` is the period
    average of the damping block (``-I/2`` whenever the average exists).
    """

    b1_bar: np.ndarray
    b2_bar: np.ndarray

    @functools.cached_property
    def spectrum(self) -> np.ndarray:
        """Eigenvalues of ``b1_bar``, sorted by real part, then imaginary part."""
        return np.sort_complex(np.linalg.eigvals(self.b1_bar))

    @property
    def max_real_part(self) -> float:
        return float(np.max(self.spectrum.real))


def _node_count(nodes) -> int:
    """The even node count Simpson uses, refused unless ``nodes`` is an integer in range.

    ``nodes`` must be an integer (a numpy integer will do, a bool will not)
    from 64 to ``_MAX_NODES``; an odd count is rounded up.  The check needs
    no spectrum, so it holds for every field, commensurate or not.
    """
    nodes = _count("nodes", nodes)
    if nodes < 64:
        raise ValueError("nodes must be >= 64")
    if nodes > _MAX_NODES:
        raise ValueError(f"nodes = {nodes} exceeds the bound of {_MAX_NODES} Simpson nodes")
    return nodes + nodes % 2


def _refuse_aliasing(nodes: int, ratios: tuple[int, ...]) -> None:
    """Refuse an even node count of :func:`_node_count` where Simpson would alias.

    The integrand's harmonics are ``|r_j +/- r_k|`` in units of the base
    frequency.  Simpson with ``N`` subintervals is the trapezoid rule on
    ``N`` and ``N/2`` subintervals combined, and the trapezoid rule on
    ``M`` subintervals of a period is exact for a harmonic unless ``M``
    divides it; so a count is admissible when ``N/2`` divides no nonzero
    harmonic.
    """
    harmonics = sorted({abs(a + sign * b) for a in ratios for b in ratios for sign in (1, -1)} - {0})

    def aliased(count: int) -> list[int]:
        return [m for m in harmonics if m % (count // 2) == 0]

    if aliased(nodes):
        smallest = next(m for m in range(64, 2 * harmonics[-1] + 4, 2) if not aliased(m))
        raise ValueError(
            f"nodes = {nodes} aliases the harmonic {aliased(nodes)[0]} of the frequency "
            f"ratios; the smallest admissible count is {smallest}"
        )


def _simpson_gram(lam: np.ndarray, h: float, nodes: int) -> np.ndarray:
    """Blocks ``SS``, ``SC``, ``CC`` of the Simpson Gram ``sum_j w_j x_j x_j^T``, stacked.

    ``x_j = [sin(lam j h); cos(lam j h)]``, ``j = 0..nodes`` (even), one
    entry per frequency, and ``w_j`` are the composite Simpson weights.
    Node ``j = p B + r`` with an even block width ``B``, so on the rectangle
    ``j < P B`` of ``P`` full blocks the weight is ``(h/3) v_r``,
    ``v_r = 2`` or ``4`` by the parity of ``r`` alone.  Angle addition,
    ``sin(a + b) = sin a cos b + cos a sin b`` and
    ``cos(a + b) = cos a cos b - sin a sin b``, then splits each block of
    the rectangle's sum into four Hadamard products of an unweighted Gram
    of the coarse angles ``lam p B h`` and a ``v``-weighted Gram of the
    fine angles ``lam r h``; the tail ``j = P B .. nodes`` is summed
    directly.  One ``sin``/``cos`` table holds the coarse, fine and tail
    angles side by side, about ``2 sqrt(nodes)`` samples per frequency and
    no ``2n x (nodes + 1)`` table, and the three Grams read its column
    slices.  The twelve products are formed as one signed ``(3, 2, 2, n,
    n)`` stack, each block's four terms summed in order, so a difference
    ``x - y`` is the exact ``x + (-y)``.  The weight at ``j = 0``, where ``x_0 = [0; 1]``, is
    lowered from ``2 h/3`` to ``h/3`` last.  ``CS`` is ``SC^T``.
    """
    n, third = len(lam), h / 3.0
    B = 2 * math.isqrt(nodes // 4)
    P = nodes // B
    # columns: P coarse angles, then B fine ones, then the tail P B .. nodes;
    # P B is even, so the fine and the tail weights alternate 2, 4 alike
    index = np.concatenate([np.arange(0, P * B, B), np.arange(B), np.arange(P * B, nodes + 1)])
    X = np.empty((2 * n, len(index)))
    np.multiply.outer(lam, index * h, out=X[n:])  # the angles, in the cos rows
    np.sin(X[n:], out=X[:n])
    np.cos(X[n:], out=X[n:])
    weights = np.full(len(index) - P, 2.0 * third)
    weights[1::2] = 4.0 * third
    weights[-1] = third
    coarse, rest = X[:, :P], X[:, P:]
    wX = rest * weights
    # each Gram's n x n blocks [[SS, SC], [CS, CC]] as a (2, 2, n, n) view
    a, f, t = (G.reshape(2, n, 2, n).swapaxes(1, 2) for G in (
        coarse @ coarse.T, wX[:, :B] @ rest[:, :B].T, wX[:, B:] @ rest[:, B:].T))
    del X, coarse, rest, wX  # the table goes before the stack of products is built
    terms = np.empty((3, 2, 2, n, n))
    for k, coarse_blocks in enumerate((a, a[:, ::-1], a[::-1, ::-1])):
        np.multiply(coarse_blocks, f[::-1, ::-1], out=terms[k])
    terms *= _GRAM_SIGNS
    gram = terms.reshape(3, 4, n, n).sum(axis=1)
    gram += t[(0, 0, 1), (0, 1, 1)]
    gram[2] -= third
    return gram


def _quadrature(f: LinearField, pr: PeriodResult, nodes: int, Qt: np.ndarray) -> np.ndarray:
    """``[b1_bar, b2_bar]``: the perturbation blocks averaged over one period by quadrature.

    Composite Simpson with ``nodes`` subintervals per period, on the drift
    spectrum of the field and the period the caller has found once.  The
    integrand is a trigonometric polynomial with harmonics ``|r_j +/- r_k|``
    of the integer frequency ratios, so the rule is exact to rounding unless
    half the node count divides one of them; :func:`_refuse_aliasing`
    refuses such counts.  ``nodes`` is the even count of :func:`_node_count`.

    ``B`` fills only its lower block row, so in the eigenbasis ``exp(-A s)``
    enters through its right block column ``L = [-sin/lam, cos]`` and
    ``exp(A s)`` through its top row ``[cos, sin/lam]`` (skew block) or its
    bottom row ``[-lam sin, cos]`` (damping block).  Both Simpson sums
    ``(w L)^T row`` are therefore blocks ``SS``, ``SC``, ``CC`` of the one
    Gram matrix of :func:`_simpson_gram`, still the Simpson sum of
    ``nodes + 1`` samples, with the ``1/lam`` or ``lam`` factors of their
    rows and columns: the skew sum has the blocks ``-SC/lam_i``,
    ``-SS/(lam_i lam_k)``, ``CC`` and ``SC^T/lam_k``, each multiplied
    entrywise by the caller's ``Qt = P^T Qhat_a P``; the damping sum keeps
    only the diagonals ``diag(SS)``, ``-diag(SC)/lam``, ``-lam diag(SC)``
    and ``diag(CC)``.  All eight ``n x n`` blocks are conjugated by ``P`` in one
    stacked product and laid out as ``b1_bar`` and ``b2_bar``.  No entry is
    assumed to vanish.
    """
    _refuse_aliasing(nodes, pr.ratios)
    n, lam, P = f.dim, f.freqs, f.P

    SS, SC, CC = _simpson_gram(lam, pr.period / nodes, nodes)
    inv = 1.0 / lam
    skew = np.array([-SC * inv[:, None], -SS * np.outer(inv, inv), CC, SC.T * inv])
    sc = SC.diagonal()
    damping = np.array([SS.diagonal(), -sc * inv, -lam * sc, CC.diagonal()])
    blocks = np.concatenate([P @ (Qt * skew), P * damping[:, None, :]]) @ P.T / -pr.period
    return blocks.reshape(2, 2, 2, n, n).swapaxes(2, 3).reshape(2, 2 * n, 2 * n)


def _closed_form(f: LinearField, labels: np.ndarray, Qt: np.ndarray) -> np.ndarray:
    """``[b1_bar, b2_bar]`` of :func:`average_closed_form`, given :func:`_eigen_groups`' groups.

    ``Qt`` is the caller's skew block in the drift eigenbasis, ``P^T Qhat_a P``.
    """
    n, P = f.dim, f.P
    q = f.freqs ** 2

    same = labels[:, None] == labels[None, :]
    np.fill_diagonal(same, False)
    Qbar = np.where(same, Qt, 0.0)

    avg = np.zeros((2, 2 * n, 2 * n))
    avg[0, :n, n:], avg[0, n:, :n] = P @ np.array([0.5 * (Qbar / q[:, None]), 0.5 * (-Qbar)]) @ P.T
    np.multiply(-0.5, np.eye(2 * n), out=avg[1])
    return avg


def average_closed_form(f: LinearField) -> AveragedSystem:
    """Assemble the averaged matrices directly in the drift eigenbasis.

    In the eigenbasis only entries joining equal symmetric-part eigenvalues
    survive the averaging; surviving entries pick up a factor ``1/2`` and,
    in the upper block, a division by the shared eigenvalue.  The damping
    block averages to ``-I/2`` identically.  Eigenvalues count as equal when
    :func:`_eigen_groups` chains them within ``DEGENERACY_RTOL``; the
    frequencies need not be commensurate.
    """
    return AveragedSystem(*_closed_form(f, _eigen_groups(f.freqs ** 2, DEGENERACY_RTOL),
                                        f.P.T @ f.Qhat_a @ f.P))


def integrate_average(f: LinearField, zeta0: np.ndarray, T0: float, s_end: float,
                      h: float = 1e-3) -> OdeTrajectory:
    """Integrate the slow averaged system of the field.

    ``dzeta/ds = eps * (B1_bar + (3/(eps*s + T0)) B2_bar) zeta`` with
    ``eps = f.epsilon`` and the averages of :func:`average_closed_form`, on
    the same fast timescale as the pulled-back system it approximates.
    """
    _clock_start(T0)
    avg, eps = average_closed_form(f), f.epsilon
    zeta0 = _state(zeta0, 2 * f.dim, "zeta0")
    stage = _affine_stage(avg.b1_bar, avg.b2_bar, lambda s: 3.0 / (eps * s + T0), eps)
    times, states, blown = _rk4_linear(stage, zeta0, s_end, h, BLOWUP_CAP)
    return OdeTrajectory(times=times, states=states, timescale="s", blown_up=blown)


@dataclass(frozen=True, eq=False)
class CertificateReport:
    """Outcome of the spectral instability test.

    The verdict is ``UNSTABLE-CERTIFIED`` only when all three structural
    hypotheses hold and the averaged skew block has an eigenvalue whose real
    part is above the rounding floor ``DEGENERACY_RTOL * alpha / (2 min
    freqs)``; otherwise ``INCONCLUSIVE`` with the failing hypotheses named.
    The spectrum of the closed form is reported either way (informative,
    not a certificate on its own).  ``period`` is the common drift period
    of :func:`_period`, ``quadrature`` the Simpson average over it of
    :func:`_quadrature`, the cross-check of the closed form, and
    ``quadrature_gap`` the largest entrywise difference between the two;
    all three are ``None`` when the frequencies are incommensurate.
    """

    verdict: str
    conditions: InstabilityConditions
    failed: tuple[str, ...]
    period: PeriodResult | None
    closed_form: AveragedSystem
    quadrature: AveragedSystem | None
    quadrature_gap: float | None

    @property
    def spectrum(self) -> np.ndarray:
        return self.closed_form.spectrum

    @property
    def max_real_part(self) -> float:
        return self.closed_form.max_real_part


def instability_certificate(f: LinearField, nodes: int = 4096) -> CertificateReport:
    """Run the full spectral instability test on a linear field.

    Builds the averaged system in closed form, cross-checks against the
    quadrature route when the frequencies are commensurate, evaluates the
    three structural hypotheses, and emits the verdict.  ``nodes`` is
    refused by type and range on every field, before the period fit, and
    by aliasing where the frequencies are commensurate.
    """
    nodes = _node_count(nodes)
    pr = _period(f)
    labels = _eigen_groups(f.freqs ** 2, DEGENERACY_RTOL)
    conditions = _conditions(f, labels, pr is not None)
    Qt = f.P.T @ f.Qhat_a @ f.P  # the skew block in the drift eigenbasis, for both routes
    # the quadrature first, so the scratch of its Gram and the closed form never coexist
    quad = None if pr is None else _quadrature(f, pr, nodes, Qt)
    avg = _closed_form(f, labels, Qt)
    closed = AveragedSystem(*avg)
    gap = None if quad is None else float(np.abs(avg - quad).max())

    # every eigenvalue of b1_bar is at most alpha / (2 min freqs) in modulus,
    # so a real part within DEGENERACY_RTOL of that bound is rounding
    floor = DEGENERACY_RTOL * f.alpha / (2.0 * float(f.freqs.min()))
    failed = conditions.failed()
    if not failed and closed.max_real_part <= floor:
        failed = ("positive_real_eigenvalue",)
    return CertificateReport(
        verdict="INCONCLUSIVE" if failed else "UNSTABLE-CERTIFIED",
        conditions=conditions,
        failed=failed,
        period=pr,
        closed_form=closed,
        quadrature=None if quad is None else AveragedSystem(*quad),
        quadrature_gap=gap,
    )
