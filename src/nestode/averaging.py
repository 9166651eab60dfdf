"""Period computation, averaged matrices, and the instability certificate.

When the frequencies of the drift block are commensurate, the conjugated
perturbation ``exp(-A s) B exp(A s)`` is periodic and can be averaged over
one period.  The averaged system splits into a constant part (driven by
the skew block, computable in closed form through the eigenbasis) and a
vanishing-damping part whose average is exactly ``-I/2``.  A positive real
eigenvalue of the constant part certifies instability of the original
accelerated flow when the structural hypotheses hold:

(i)   every off-diagonal entry of the skew part is nonzero,
(ii)  the drift frequencies are commensurate (rational-square spectrum),
(iii) exactly one eigenvalue of the symmetric part is degenerate.

The closed form keeps only eigenbasis entries joining equal frequencies.
Its check, composite Simpson over one period (exact for this trigonometric
integrand), sums one weighted Gram matrix of the sampled ``sin`` and ``cos``
of the true drift frequencies, filled by angle addition from two tables of
about ``sqrt(nodes)`` angles each, and assumes no entry vanishes, so the
routes stay independent.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, fields
from fractions import Fraction

import numpy as np

from .fields import LinearField, normalize
from .odesim import (BLOWUP_CAP, DriftGenerator, OdeTrajectory, _affine_stage, _rk4_linear,
                     drift_generator)

__all__ = [
    "NotCommensurateError",
    "PeriodResult",
    "AveragedSystem",
    "InstabilityConditions",
    "CertificateReport",
    "period",
    "average_quadrature",
    "average_closed_form",
    "integrate_average",
    "instability_certificate",
]

# A frequency ratio counts as rational, and the integer ratios as exact,
# within this relative residual.
PERIOD_RTOL = 1e-9
# Most Simpson nodes a quadrature may use; its grid is allocated at once, so
# a larger count is refused before anything is allocated.
_MAX_NODES = 2 ** 22


class NotCommensurateError(ValueError):
    """Drift frequencies admit no common base within the rational-fit tolerance."""


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


def period(gen: DriftGenerator, max_denominator: int = 64) -> PeriodResult:
    """Find the largest base frequency dividing every drift frequency.

    Pairwise frequency ratios are fit by continued-fraction rational
    approximation with denominators bounded by ``max_denominator``; the
    fit must be exact to within ``PERIOD_RTOL`` (relative) or the
    frequencies are declared incommensurate.
    """
    freqs = np.asarray(gen.freqs, dtype=float)
    if np.any(freqs <= 0):
        raise ValueError("drift frequencies must be positive")
    base = float(freqs[0])
    numerators: list[int] = []
    denominators: list[int] = []
    for fk in freqs:
        ratio = float(fk) / base
        frac = Fraction(ratio).limit_denominator(max_denominator)
        if abs(ratio - float(frac)) > PERIOD_RTOL * max(1.0, ratio):
            raise NotCommensurateError(
                f"frequency ratio {ratio!r} has no rational fit with "
                f"denominator <= {max_denominator}"
            )
        numerators.append(frac.numerator)
        denominators.append(frac.denominator)

    g = math.gcd(*numerators)
    lcm = math.lcm(*denominators)
    omega0 = base * g / lcm
    ratios = tuple(int(round(f / omega0)) for f in freqs)
    drift = np.max(np.abs(freqs - omega0 * np.asarray(ratios)))
    if drift > PERIOD_RTOL * max(1.0, float(freqs[-1])):
        raise NotCommensurateError(
            f"integer fit residual {drift:.3e} exceeds tolerance {PERIOD_RTOL:.3e}"
        )
    return PeriodResult(omega0=omega0, period=2.0 * math.pi / omega0, ratios=ratios)


@dataclass(frozen=True)
class InstabilityConditions:
    """Which structural hypotheses of the instability argument hold."""

    offdiagonal_nonzero: bool
    commensurate: bool
    single_degenerate_group: bool

    @property
    def all_hold(self) -> bool:
        return not self.failed()

    def failed(self) -> tuple[str, ...]:
        return tuple(c.name for c in fields(self) if not getattr(self, c.name))


def _eigen_groups(values: np.ndarray, rtol: float) -> np.ndarray:
    """Group label of each eigenvalue, numbered in ascending order of value.

    Groups chain: after sorting, a value joins its lower neighbour's group
    when the two differ by at most ``rtol * max|values|``, so a group can
    span more than the tolerance.  Equal labels are the one equivalence
    relation that the degeneracy condition and the closed form both use.
    """
    order = np.argsort(values)
    scale = max(1e-300, float(np.max(np.abs(values))))
    labels = np.empty(len(values), dtype=int)
    labels[order] = np.concatenate([[0], np.cumsum(np.diff(values[order]) > rtol * scale)])
    return labels


def _conditions(f: LinearField, labels: np.ndarray, commensurate: bool) -> InstabilityConditions:
    """The three hypotheses, given the drift eigenvalue groups of :func:`_eigen_groups`."""
    n = f.dim
    off = ~np.eye(n, dtype=bool)
    return InstabilityConditions(
        offdiagonal_nonzero=bool(n == 1 or np.all(f.Qa[off] != 0.0)),
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


def _simpson_nodes(nodes: int, ratios: tuple[int, ...]) -> int:
    """The even node count Simpson uses, refused where it would alias.

    The integrand's harmonics are ``|r_j +/- r_k|`` in units of the base
    frequency.  Simpson with ``N`` subintervals is the trapezoid rule on
    ``N`` and ``N/2`` subintervals combined, and the trapezoid rule on
    ``M`` subintervals of a period is exact for a harmonic unless ``M``
    divides it; so a count is admissible when ``N/2`` divides no nonzero
    harmonic.
    """
    if nodes < 64:
        raise ValueError("nodes must be >= 64")
    if nodes > _MAX_NODES:
        raise ValueError(f"nodes = {nodes} exceeds the bound of {_MAX_NODES} Simpson nodes")
    nodes += nodes % 2
    harmonics = sorted({abs(a + sign * b) for a in ratios for b in ratios for sign in (1, -1)} - {0})

    def aliased(count: int) -> list[int]:
        return [m for m in harmonics if m % (count // 2) == 0]

    if aliased(nodes):
        smallest = next(m for m in range(64, 2 * harmonics[-1] + 4, 2) if not aliased(m))
        raise ValueError(
            f"nodes = {nodes} aliases the harmonic {aliased(nodes)[0]} of the frequency "
            f"ratios; the smallest admissible count is {smallest}"
        )
    return nodes


def _sin_cos_table(lam: np.ndarray, h: float, nodes: int) -> np.ndarray:
    """``[sin(lam s); cos(lam s)]`` at ``s = j h``, ``j = 0..nodes``, one row per frequency.

    Node ``j = p B + r`` with ``B = isqrt(nodes)``: ``sin`` and ``cos`` are
    taken only of the coarse angles ``lam p B h`` and the fine angles
    ``lam r h``, and each sample is filled by angle addition,
    ``sin(a + b) = sin a cos b + cos a sin b`` and
    ``cos(a + b) = cos a cos b - sin a sin b``.  That is about
    ``4 n sqrt(nodes)`` transcendental calls instead of ``2 n (nodes + 1)``;
    the last coarse block is cut at ``j = nodes``.
    """
    n, B = len(lam), math.isqrt(nodes)
    blocks = nodes // B + 1
    coarse = np.multiply.outer(lam, np.arange(0, blocks * B, B) * h)[:, :, None]
    fine = np.multiply.outer(lam, np.arange(B) * h)[:, None, :]
    sin_a, cos_a, sin_b, cos_b = np.sin(coarse), np.cos(coarse), np.sin(fine), np.cos(fine)
    X = np.empty((2 * n, blocks, B))
    np.multiply(sin_a, cos_b, out=X[:n])
    X[:n] += cos_a * sin_b
    np.multiply(cos_a, cos_b, out=X[n:])
    X[n:] -= sin_a * sin_b
    return X.reshape(2 * n, blocks * B)[:, :nodes + 1]


def _quadrature(f: LinearField, gen: DriftGenerator, pr: PeriodResult,
                nodes: int) -> AveragedSystem:
    """:func:`average_quadrature` on inputs the caller has built once.

    One Gram matrix of the ``[sin; cos]`` sample table of
    :func:`_sin_cos_table` holds both Simpson sums; the ``1/lam`` and
    ``lam`` factors scale its ``2n x 2n`` entries instead of the
    ``2n x (nodes + 1)`` samples.
    """
    nodes = _simpson_nodes(nodes, pr.ratios)
    _, Qhat_a = normalize(f)
    n, lam = f.dim, gen.freqs

    h = pr.period / nodes
    X = _sin_cos_table(lam, h, nodes)
    weights = np.full(nodes + 1, 2.0)
    weights[1::2] = 4.0
    weights[0] = weights[-1] = 1.0
    weights *= h / 3.0
    G = (X * weights) @ X.T

    one = np.ones(n)
    left = np.concatenate([-1.0 / lam, one])
    gram1 = np.roll(G, n, axis=1) * np.outer(left, np.concatenate([one, 1.0 / lam]))
    gram2 = G * np.outer(left, np.concatenate([-lam, one]))
    Phat = np.kron(np.eye(2), gen.P)
    Qt = gen.P.T @ Qhat_a @ gen.P
    b1_bar = -(Phat @ (np.tile(Qt, (2, 2)) * gram1) @ Phat.T) / pr.period
    b2_bar = -(Phat @ (np.tile(np.eye(n), (2, 2)) * gram2) @ Phat.T) / pr.period
    return AveragedSystem(b1_bar=b1_bar, b2_bar=b2_bar)


def average_quadrature(f: LinearField, nodes: int = 4096,
                       max_denominator: int = 64) -> AveragedSystem:
    """Average the conjugated perturbation blocks over one period by quadrature.

    Composite Simpson with ``nodes`` subintervals per period.  The
    integrand is a trigonometric polynomial with harmonics ``|r_j +/- r_k|``
    of the integer frequency ratios, so the rule is exact to rounding
    unless half the (even) node count divides one of them; such counts
    raise a ``ValueError`` naming the smallest admissible count.

    ``B`` fills only its lower block row, so in the eigenbasis ``exp(-A s)``
    enters through its right block column ``L = [-sin/lam, cos]`` and
    ``exp(A s)`` through its top row ``[cos, sin/lam]`` (skew block) or its
    bottom row ``[-lam sin, cos]`` (damping block).  The true frequencies
    are sampled once into the ``2n x (nodes + 1)`` table
    ``X = [sin(lam s); cos(lam s)]``, one row per frequency, whose samples
    are filled by angle addition from ``sin`` and ``cos`` of a coarse and a
    fine table of about ``sqrt(nodes)`` angles each (still samples of the
    integrand, not a closed-form sum), and summed into one weighted Gram
    matrix ``(X w) X^T``; both Simpson sums ``(w L)^T row``
    are that Gram matrix with its column halves arranged and each entry
    scaled by the ``1/lam`` or ``lam`` factors of its row and column, applied
    to the ``2n x 2n`` result.  Each sum is then ``tile(P^T Qhat_a P)`` (or
    ``tile(I)``) times it, entrywise, conjugated by ``diag(P, P)``.  The
    sum is only re-associated: no entry is assumed to vanish.
    """
    gen = drift_generator(f)
    return _quadrature(f, gen, period(gen, max_denominator=max_denominator), nodes)


def _closed_form(f: LinearField, gen: DriftGenerator, labels: np.ndarray) -> AveragedSystem:
    """:func:`average_closed_form` given the drift eigenvalue groups of :func:`_eigen_groups`."""
    _, Qhat_a = normalize(f)
    n = f.dim
    q = gen.freqs ** 2
    P = gen.P

    Qt = P.T @ Qhat_a @ P
    same = labels[:, None] == labels[None, :]
    np.fill_diagonal(same, False)
    Qbar = np.where(same, Qt, 0.0)

    upper = 0.5 * (Qbar / q[:, None])
    lower = 0.5 * (-Qbar)
    b1_bar = np.zeros((2 * n, 2 * n))
    b1_bar[:n, n:] = P @ upper @ P.T
    b1_bar[n:, :n] = P @ lower @ P.T
    return AveragedSystem(b1_bar=b1_bar, b2_bar=-0.5 * np.eye(2 * n))


def average_closed_form(f: LinearField, degeneracy_tol: float = 1e-9) -> AveragedSystem:
    """Assemble the averaged matrices directly in the drift eigenbasis.

    In the eigenbasis only entries joining equal symmetric-part eigenvalues
    survive the averaging; surviving entries pick up a factor ``1/2`` and,
    in the upper block, a division by the shared eigenvalue.  The damping
    block averages to ``-I/2`` identically.  Eigenvalues count as equal when
    :func:`_eigen_groups` chains them within ``degeneracy_tol``; the
    frequencies need not be commensurate.
    """
    gen = drift_generator(f)
    return _closed_form(f, gen, _eigen_groups(gen.freqs ** 2, degeneracy_tol))


def integrate_average(avg: AveragedSystem, zeta0: np.ndarray, T0: float,
                      epsilon: float, s_end: float, h: float = 1e-3) -> OdeTrajectory:
    """Integrate the slow averaged system.

    ``dzeta/ds = eps * (B1_bar + (3/(eps*s + T0)) B2_bar) zeta`` on the
    same fast timescale as the pulled-back system it approximates.
    """
    stage = _affine_stage(avg.b1_bar, avg.b2_bar, lambda s: 3.0 / (epsilon * s + T0), epsilon)
    times, states, blown = _rk4_linear(stage, zeta0, s_end, h, BLOWUP_CAP)
    return OdeTrajectory(times=times, states=states, timescale="s", blown_up=blown)


@dataclass(frozen=True, eq=False)
class CertificateReport:
    """Outcome of the spectral instability test.

    The verdict is ``UNSTABLE-CERTIFIED`` only when all three structural
    hypotheses hold and the averaged skew block has a positive real
    eigenvalue; otherwise ``INCONCLUSIVE`` with the failing hypotheses
    named.  The spectrum of the closed form is reported either way
    (informative, not a certificate on its own).
    """

    verdict: str
    conditions: InstabilityConditions
    failed: tuple[str, ...]
    period: PeriodResult | None
    closed_form: AveragedSystem
    quadrature: AveragedSystem | None
    quadrature_gap: float | None

    @property
    def certified(self) -> bool:
        return self.verdict == "UNSTABLE-CERTIFIED"

    @property
    def spectrum(self) -> np.ndarray:
        return self.closed_form.spectrum

    @property
    def max_real_part(self) -> float:
        return self.closed_form.max_real_part

    def to_text(self) -> str:
        lines = [f"verdict: {self.verdict}"]
        lines += [f"condition_{c.name}: {str(getattr(self.conditions, c.name)).lower()}"
                  for c in fields(self.conditions)]
        if self.failed:
            lines.append(f"failed_conditions: {', '.join(self.failed)}")
        lines.append(f"max_real_part: {self.max_real_part!r}")
        parts = []
        for z in self.spectrum:
            re, im = float(z.real), float(z.imag)
            sign = "+" if im >= 0 else "-"
            parts.append(f"{re!r}{sign}{abs(im)!r}j")
        lines.append(f"spectrum_b1_bar: {'; '.join(parts)}")
        if self.period is not None:
            lines.append(f"base_frequency: {self.period.omega0!r}")
            lines.append(f"period: {self.period.period!r}")
            lines.append(f"frequency_ratios: {', '.join(str(k) for k in self.period.ratios)}")
        if self.quadrature_gap is not None:
            lines.append(f"closed_vs_quadrature_gap: {self.quadrature_gap!r}")
        return "\n".join(lines) + "\n"


def instability_certificate(f: LinearField, degeneracy_tol: float = 1e-9,
                            max_denominator: int = 64,
                            nodes: int = 4096) -> CertificateReport:
    """Run the full spectral instability test on a linear field.

    Builds the averaged system in closed form, cross-checks against the
    quadrature route when the frequencies are commensurate, evaluates the
    three structural hypotheses, and emits the verdict.
    """
    gen = drift_generator(f)
    try:
        pr: PeriodResult | None = period(gen, max_denominator=max_denominator)
    except NotCommensurateError:
        pr = None
    labels = _eigen_groups(gen.freqs ** 2, degeneracy_tol)
    conditions = _conditions(f, labels, pr is not None)
    closed = _closed_form(f, gen, labels)
    quad: AveragedSystem | None = None
    gap: float | None = None
    if pr is not None:
        quad = _quadrature(f, gen, pr, nodes)
        gap = float(
            max(
                np.max(np.abs(closed.b1_bar - quad.b1_bar)),
                np.max(np.abs(closed.b2_bar - quad.b2_bar)),
            )
        )

    certified = conditions.all_hold and closed.max_real_part > 0.0
    failed = conditions.failed()
    if conditions.all_hold and closed.max_real_part <= 0.0:
        failed = failed + ("positive_real_eigenvalue",)
    return CertificateReport(
        verdict="UNSTABLE-CERTIFIED" if certified else "INCONCLUSIVE",
        conditions=conditions,
        failed=failed,
        period=pr,
        closed_form=closed,
        quadrature=quad,
        quadrature_gap=gap,
    )
