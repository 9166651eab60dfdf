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
integrand), sums a weighted Gram matrix of the rotation diagonals of
``exp(A s)`` and assumes no entry vanishes, so the routes stay independent.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .fields import LinearField, normalize
from .odesim import BLOWUP_CAP, DriftGenerator, OdeTrajectory, _rk4_linear, _rotation, drift_generator

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


class NotCommensurateError(ValueError):
    """Drift frequencies admit no common base within the rational-fit tolerance."""


@dataclass(frozen=True)
class PeriodResult:
    """Common base frequency of the drift flow.

    Every drift frequency equals ``ratios[k] * omega0`` with integer
    ratios, so every drift solution is periodic with period
    ``2 pi / omega0``.  ``mu`` and ``denominator_lcm`` record the scaling
    used to build the base: ``omega0 = mu / denominator_lcm``.
    """

    omega0: float
    period: float
    ratios: tuple[int, ...]
    mu: float
    denominator_lcm: int


def period(gen: DriftGenerator, max_denominator: int = 64,
           tol: float = 1e-9) -> PeriodResult:
    """Find the largest base frequency dividing every drift frequency.

    Pairwise frequency ratios are fit by continued-fraction rational
    approximation with denominators bounded by ``max_denominator``; the
    fit must be exact to within ``tol`` (relative) or the frequencies are
    declared incommensurate.
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
        if abs(ratio - float(frac)) > tol * max(1.0, ratio):
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
    if drift > tol * max(1.0, float(freqs[-1])):
        raise NotCommensurateError(
            f"integer fit residual {drift:.3e} exceeds tolerance {tol:.3e}"
        )
    return PeriodResult(
        omega0=omega0,
        period=2.0 * math.pi / omega0,
        ratios=ratios,
        mu=base * g,
        denominator_lcm=lcm,
    )


@dataclass(frozen=True)
class InstabilityConditions:
    """Which structural hypotheses of the instability argument hold."""

    offdiagonal_nonzero: bool
    commensurate: bool
    single_degenerate_group: bool

    @property
    def all_hold(self) -> bool:
        return (
            self.offdiagonal_nonzero
            and self.commensurate
            and self.single_degenerate_group
        )

    def failed(self) -> tuple[str, ...]:
        names = (
            ("offdiagonal_nonzero", self.offdiagonal_nonzero),
            ("commensurate", self.commensurate),
            ("single_degenerate_group", self.single_degenerate_group),
        )
        return tuple(name for name, ok in names if not ok)


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


def _conditions(f: LinearField, gen: DriftGenerator, pr: PeriodResult | None,
                degeneracy_tol: float) -> InstabilityConditions:
    n = f.dim
    off = ~np.eye(n, dtype=bool)
    offdiag_ok = bool(n == 1 or np.all(f.Qa[off] != 0.0))
    labels = _eigen_groups(gen.freqs ** 2, degeneracy_tol)
    degenerate = np.count_nonzero(np.bincount(labels) > 1)
    return InstabilityConditions(
        offdiagonal_nonzero=offdiag_ok,
        commensurate=pr is not None,
        single_degenerate_group=bool(degenerate == 1),
    )


@dataclass(frozen=True)
class AveragedSystem:
    """Averaged matrices of the slow system and the spectrum that matters.

    ``b1_bar`` is the period average of the conjugated skew block and
    drives stability once the damping has faded; ``b2_bar`` is the period
    average of the damping block (``-I/2`` whenever the average exists).
    """

    b1_bar: np.ndarray
    b2_bar: np.ndarray
    spectrum: np.ndarray
    max_real_part: float
    period: PeriodResult | None
    conditions: InstabilityConditions
    method: str


def _averaged(f: LinearField, gen: DriftGenerator, pr: PeriodResult | None,
              b1_bar: np.ndarray, b2_bar: np.ndarray, degeneracy_tol: float,
              method: str) -> AveragedSystem:
    spectrum = np.sort_complex(np.linalg.eigvals(b1_bar))
    return AveragedSystem(
        b1_bar=b1_bar, b2_bar=b2_bar, spectrum=spectrum,
        max_real_part=float(np.max(spectrum.real)), period=pr,
        conditions=_conditions(f, gen, pr, degeneracy_tol), method=method)


def average_quadrature(f: LinearField, nodes: int = 4096,
                       max_denominator: int = 64,
                       degeneracy_tol: float = 1e-9) -> AveragedSystem:
    """Average the conjugated perturbation blocks over one period by quadrature.

    Composite Simpson with ``nodes`` subintervals per period.  The
    integrand is a trigonometric polynomial with harmonics bounded by the
    integer frequency ratios, so the rule is exact to rounding for the
    default node count.

    ``B`` fills only its lower block row, so in the eigenbasis ``exp(-A s)``
    enters through its right block column ``L = [-sin/lam, cos]`` and
    ``exp(A s)`` through its top row ``[cos, sin/lam]`` (skew block) or its
    bottom row ``[-lam sin, cos]`` (damping block).  Each Simpson sum is then
    ``tile(P^T Qhat_a P)`` (or ``tile(I)``) times, entrywise, the Gram matrix
    ``(w L)^T row`` of the weighted samples, conjugated by ``diag(P, P)``.
    The sum is only re-associated: no entry is assumed to vanish.
    """
    if nodes < 64:
        raise ValueError("nodes must be >= 64")
    nodes += nodes % 2
    gen = drift_generator(f)
    pr = period(gen, max_denominator=max_denominator)
    _, Qhat_a = normalize(f)

    s = np.linspace(0.0, pr.period, nodes + 1)
    c, sin_over, minus_lam_sin = _rotation(s, gen.freqs)

    h = pr.period / nodes
    weights = np.full(nodes + 1, 2.0)
    weights[1::2] = 4.0
    weights[0] = weights[-1] = 1.0
    weights *= h / 3.0

    left = weights[:, None] * np.concatenate([-sin_over, c], axis=1)
    gram1 = left.T @ np.concatenate([c, sin_over], axis=1)
    gram2 = left.T @ np.concatenate([minus_lam_sin, c], axis=1)
    Phat = np.kron(np.eye(2), gen.P)
    Qt = gen.P.T @ Qhat_a @ gen.P
    b1_bar = -(Phat @ (np.tile(Qt, (2, 2)) * gram1) @ Phat.T) / pr.period
    b2_bar = -(Phat @ (np.tile(np.eye(f.dim), (2, 2)) * gram2) @ Phat.T) / pr.period

    return _averaged(f, gen, pr, b1_bar, b2_bar, degeneracy_tol, "quadrature")


def average_closed_form(f: LinearField, degeneracy_tol: float = 1e-9,
                        max_denominator: int = 64) -> AveragedSystem:
    """Assemble the averaged matrices directly in the drift eigenbasis.

    In the eigenbasis only entries joining equal symmetric-part eigenvalues
    survive the averaging; surviving entries pick up a factor ``1/2`` and,
    in the upper block, a division by the shared eigenvalue.  The damping
    block averages to ``-I/2`` identically.
    """
    gen = drift_generator(f)
    _, Qhat_a = normalize(f)
    n = f.dim
    q = gen.freqs ** 2
    P = gen.P

    Qt = P.T @ Qhat_a @ P
    labels = _eigen_groups(q, degeneracy_tol)
    same = labels[:, None] == labels[None, :]
    np.fill_diagonal(same, False)
    Qbar = np.where(same, Qt, 0.0)

    upper = 0.5 * (Qbar / q[:, None])
    lower = 0.5 * (-Qbar)
    b1_bar = np.zeros((2 * n, 2 * n))
    b1_bar[:n, n:] = P @ upper @ P.T
    b1_bar[n:, :n] = P @ lower @ P.T
    b2_bar = -0.5 * np.eye(2 * n)

    try:
        pr: PeriodResult | None = period(gen, max_denominator=max_denominator)
    except NotCommensurateError:
        pr = None

    return _averaged(f, gen, pr, b1_bar, b2_bar, degeneracy_tol, "closed-form")


def integrate_average(avg: AveragedSystem, zeta0: np.ndarray, T0: float,
                      epsilon: float, s_end: float, h: float = 1e-3,
                      cap: float = BLOWUP_CAP) -> OdeTrajectory:
    """Integrate the slow averaged system.

    ``dzeta/ds = eps * (B1_bar + (3/(eps*s + T0)) B2_bar) zeta`` on the
    same fast timescale as the pulled-back system it approximates.
    """
    def stage(s: np.ndarray) -> np.ndarray:
        return epsilon * (avg.b1_bar + (3.0 / (epsilon * s + T0))[..., None, None] * avg.b2_bar)

    times, states, blown = _rk4_linear(stage, zeta0, s_end, h, cap)
    return OdeTrajectory(
        times=times,
        states=states,
        timescale="s",
        blown_up=blown,
        meta={"epsilon": epsilon, "T0": T0},
    )


@dataclass(frozen=True)
class CertificateReport:
    """Outcome of the spectral instability test.

    The verdict is ``UNSTABLE-CERTIFIED`` only when all three structural
    hypotheses hold and the averaged skew block has a positive real
    eigenvalue; otherwise ``INCONCLUSIVE`` with the failing hypotheses
    named.  The spectrum is reported either way (informative, not a
    certificate on its own).
    """

    verdict: str
    conditions: InstabilityConditions
    failed: tuple[str, ...]
    max_real_part: float
    spectrum: np.ndarray
    period: PeriodResult | None
    closed_form: AveragedSystem
    quadrature: AveragedSystem | None
    quadrature_gap: float | None

    @property
    def certified(self) -> bool:
        return self.verdict == "UNSTABLE-CERTIFIED"

    def to_text(self) -> str:
        lines = [f"verdict: {self.verdict}"]
        lines.append(f"condition_offdiagonal_nonzero: {str(self.conditions.offdiagonal_nonzero).lower()}")
        lines.append(f"condition_commensurate: {str(self.conditions.commensurate).lower()}")
        lines.append(f"condition_single_degenerate_group: {str(self.conditions.single_degenerate_group).lower()}")
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
    closed = average_closed_form(f, degeneracy_tol=degeneracy_tol,
                                 max_denominator=max_denominator)
    conditions = closed.conditions
    quad: AveragedSystem | None = None
    gap: float | None = None
    if conditions.commensurate:
        quad = average_quadrature(f, nodes=nodes,
                                  max_denominator=max_denominator,
                                  degeneracy_tol=degeneracy_tol)
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
        max_real_part=closed.max_real_part,
        spectrum=closed.spectrum,
        period=closed.period,
        closed_form=closed,
        quadrature=quad,
        quadrature_gap=gap,
    )
