"""Driving vector fields and their conservative / rotational structure.

The accelerated flow studied by this package is driven by a vector field
``G`` that splits as ``G = grad J + rot K`` into a conservative part (the
gradient of a potential ``J``) and a divergence-free rotation part.  For a
linear field ``G(x) = Q x`` the split is simply the symmetric / skew
decomposition of ``Q``, and the regularity constants used throughout the
analysis are read off the spectra:

* ``kappa_j`` -- strong-monotonicity (curvature) constant, smallest
  eigenvalue of the symmetric part,
* ``ell_j``   -- Lipschitz constant of the conservative part, largest
  eigenvalue of the symmetric part,
* ``ell_k``   -- Lipschitz constant of the rotation part, spectral norm of
  the skew part,
* ``alpha``   -- the skew-to-curvature ratio ``ell_k / sqrt(ell_j)``.

:func:`helmholtz_split` also normalizes a linear field and diagonalizes its
normalized symmetric part, once, and stores the results on the
:class:`LinearField`, where every spectral routine of the analysis reads them.

Nonlinear fields are supplied by the caller as a pair of callables together
with declared constants; :func:`validate_assumption1` samples finite
differences, which can refute a declared constant but never prove it.

The potential convention for linear fields is ``J(x) = 0.5 * x @ Qs @ x``,
so ``grad J(x) = Qs @ x``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields
from typing import Callable

import numpy as np

__all__ = [
    "NotPositiveDefiniteError",
    "LinearField",
    "GeneralField",
    "ValidationReport",
    "helmholtz_split",
    "validate_assumption1",
]

# Eigenvalues within this relative size of zero do not count as positive.
POSITIVITY_RTOL = 1e-9
# A residual at x_star up to this multiple of 1 + |x_star| counts as an equilibrium.
EQUILIBRIUM_RTOL = 1e-8
# Sampled ratios may pass a declared constant by this relative slack.
VALIDATION_RTOL = 1e-9


class NotPositiveDefiniteError(ValueError):
    """The symmetric part of the driving matrix is not positive definite."""


def _as_square(Q: np.ndarray) -> np.ndarray:
    Q = np.asarray(Q, dtype=float)
    if Q.ndim != 2 or Q.shape[0] != Q.shape[1] or Q.shape[0] < 1:
        raise ValueError(f"expected a square matrix, got shape {Q.shape}")
    if not np.all(np.isfinite(Q)):
        raise ValueError("matrix entries must be finite")
    return Q


def _count(name: str, value) -> int:
    """``value`` as a Python int, refused by name unless it is an integer (numpy's, not a bool)."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise TypeError(f"{name} must be an integer, got {value!r}")
    return int(value)


def _freeze(a: np.ndarray, dtype=float) -> np.ndarray:
    """A read-only copy of ``a``; ``dtype=None`` keeps the input's type."""
    a = np.array(a, dtype=dtype)
    a.setflags(write=False)
    return a


@dataclass(frozen=True, eq=False)
class LinearField:
    """Linear driving field ``G(x) = Q x`` with its symmetric/skew split.

    Instances are produced by :func:`helmholtz_split` and are immutable.
    Besides the split and its constants they carry the normalized pair
    ``Qhat_s = Qs / ell_j`` (unit spectral norm) and ``Qhat_a = alpha Qa /
    ell_k`` (spectral norm ``alpha``, zero without a rotation part), the
    spectrum of the drift block ``A = [[0, I], [-Qhat_s, 0]]``: ``P``
    orthogonally diagonalizes ``Qhat_s`` and ``freqs`` are the square roots
    of its eigenvalues, so the spectrum of ``A`` is ``{+/- i freqs}``; and
    the timescale ratio ``epsilon = 1 / sqrt(ell_j)``.  ``warnings`` is
    computed from ``alpha``: non-fatal diagnostics, currently only an
    ``alpha out of range`` note when ``alpha > 1``.
    """

    Q: np.ndarray
    Qs: np.ndarray
    Qa: np.ndarray
    ell_j: float
    ell_k: float
    kappa_j: float
    alpha: float
    Qhat_s: np.ndarray
    Qhat_a: np.ndarray
    P: np.ndarray
    freqs: np.ndarray
    epsilon: float

    @property
    def dim(self) -> int:
        return self.Q.shape[0]

    @property
    def warnings(self) -> tuple[str, ...]:
        if self.alpha > 1.0 + 1e-12:
            return (f"alpha out of range: ell_k/sqrt(ell_j) = {self.alpha:.6g} > 1; "
                    "the scaling relationship requires alpha in (0, 1]",)
        return ()

    @property
    def x_star(self) -> np.ndarray:
        """Unique equilibrium of the field (the origin)."""
        return np.zeros(self.dim)

    # A vector (or a positively strided view) takes ``ndarray.dot``: about
    # half the fixed cost of ``@`` per call, and the same bits.  Only a zero
    # from a 1 x 1 matrix keeps the sign of its product, where ``@`` gives
    # +0.0.  An (m, n) block is read as m rows and gets one value per row,
    # with the bits of the per-row calls, as a vectorized GeneralField's
    # callables do.

    def __call__(self, x: np.ndarray) -> np.ndarray:
        return np.matmul(self.Q, x[:, :, None])[:, :, 0] if x.ndim > 1 else self.Q.dot(x)

    def potential(self, x: np.ndarray):
        """Potential of the conservative part, ``0.5 * x @ Qs @ x``."""
        if x.ndim > 1:
            return 0.5 * _row_dots(self.potential_gradient(x), x)
        return 0.5 * float(self.Qs.dot(x).dot(x))

    def potential_gradient(self, x: np.ndarray) -> np.ndarray:
        return np.matmul(self.Qs, x[:, :, None])[:, :, 0] if x.ndim > 1 else self.Qs.dot(x)

    def rotation(self, x: np.ndarray) -> np.ndarray:
        return np.matmul(self.Qa, x[:, :, None])[:, :, 0] if x.ndim > 1 else self.Qa.dot(x)

    def as_general(self) -> "GeneralField":
        """Wrap as a vectorized :class:`GeneralField` of this field's own methods and constants."""
        return GeneralField(
            dim=self.dim,
            potential=self.potential,
            potential_gradient=self.potential_gradient,
            rotation=self.rotation,
            x_star=self.x_star,
            kappa_j=self.kappa_j,
            ell_j=self.ell_j,
            ell_k=self.ell_k,
            vectorized=True,
        )


@dataclass(frozen=True, eq=False)
class GeneralField:
    """User-supplied field split with declared regularity constants.

    ``potential_gradient`` and ``rotation`` are the two parts of the split;
    ``potential`` is used by the Lyapunov machinery.  The constants are
    declared, not derived; run :func:`validate_assumption1` to probe them.
    The constructor refuses, with a ``ValueError`` that names the cause, an
    ``x_star`` or a constant that is not finite, and parts that do not
    return a finite vector of length ``dim`` that vanishes at ``x_star``
    (an infinite entry is refused as a nonzero one).

    ``vectorized`` declares that each of the three callables also takes an
    ``(m, dim)`` block of rows and returns one value per row: shape
    ``(m,)`` for ``potential`` and ``(m, dim)`` for the two parts.  The
    potential gaps a hybrid run records (or its audit computes) and the
    samples of :func:`validate_assumption1` then take one call per callable
    on all their rows, instead of one per row; the integrators still call
    per point.  The capability is declared, never probed: a callable
    written for one point can take a block and answer with the wrong
    orientation (``Qs @ X``).  A declared field is checked once, at
    construction: a call on the 2-row block of ``x_star`` and a nearby
    point must return the right shape and match the two per-row calls
    within ``VALIDATION_RTOL`` times 1 plus their largest magnitude, or the
    field is refused with a ``ValueError`` that names the callable.
    """

    dim: int
    potential: Callable[[np.ndarray], float]
    potential_gradient: Callable[[np.ndarray], np.ndarray]
    rotation: Callable[[np.ndarray], np.ndarray]
    x_star: np.ndarray
    kappa_j: float
    ell_j: float
    ell_k: float
    vectorized: bool = False

    def __post_init__(self):
        object.__setattr__(self, "x_star", _freeze(np.atleast_1d(self.x_star)))
        if self.x_star.shape != (self.dim,):
            raise ValueError("x_star must be a vector of length dim")
        if not np.isfinite(self.x_star).all():
            raise ValueError("x_star must be finite")
        if not (self.kappa_j > 0 and self.ell_j > 0 and self.ell_k >= 0):
            raise ValueError("constants must satisfy kappa_j, ell_j > 0 and ell_k >= 0")
        # a NaN constant fails the check above, and an infinite one passes it
        infinite = [f"{name} = {getattr(self, name)}" for name in ("kappa_j", "ell_j", "ell_k")
                    if not math.isfinite(getattr(self, name))]
        if infinite:
            raise ValueError(f"constants must be finite, got {', '.join(infinite)}")
        scale = EQUILIBRIUM_RTOL * (1.0 + float(np.linalg.norm(self.x_star)))
        # the integrators write both parts into stage rows in place, where a
        # scalar or a length-1 value would broadcast without a word
        values = {name: np.asarray(getattr(self, name)(self.x_star))
                  for name in ("potential_gradient", "rotation")}
        for name, value in values.items():
            if value.shape != (self.dim,):
                raise ValueError(f"{name} must return shape ({self.dim},) at x_star, "
                                 f"got {value.shape}")
        g, r = map(np.linalg.norm, values.values())
        if g > scale or r > scale:
            raise ValueError(
                f"x_star is not an equilibrium: |grad J| = {g:.3e}, |rot K| = {r:.3e}"
            )
        # a part with a NaN entry has a NaN norm, which passes the test above
        if not (g <= scale and r <= scale):
            raise ValueError(f"{'rotation' if g <= scale else 'potential_gradient'} "
                             "must be finite at x_star")
        if self.vectorized:
            self._check_rows()

    def _check_rows(self):
        """Refuse, by name, a declared-vectorized callable whose block values are not its
        per-row values at ``x_star`` and a nearby point."""
        n = self.dim
        # distinct nonzero offsets, so a block answered in the wrong orientation differs
        near = self.x_star + (1.0 + float(np.linalg.norm(self.x_star))) * np.arange(1, n + 1) / n
        block = np.stack([self.x_star, near])
        # a gap of inf - inf is NaN, which fails
        with np.errstate(invalid="ignore"):
            for name, shape in (("potential", (2,)), ("potential_gradient", (2, n)),
                                ("rotation", (2, n))):
                part = getattr(self, name)
                rows = np.array([part(x) for x in block], dtype=float)
                try:
                    value = np.asarray(part(block), dtype=float)
                except Exception as exc:
                    raise ValueError(f"{name} is declared vectorized but raised "
                                     f"{type(exc).__name__} on a block of 2 rows: {exc}") from exc
                if value.shape != shape:
                    raise ValueError(f"{name} is declared vectorized but returned shape "
                                     f"{value.shape} on a block of 2 rows, not {shape}")
                gap = np.abs(value - rows).max()
                tol = VALIDATION_RTOL * (1.0 + np.abs(rows).max())
                if not gap <= tol:
                    raise ValueError(f"{name} is declared vectorized but its values on a block "
                                     f"of 2 rows differ from its per-row values by {gap:.3e}, "
                                     f"more than {tol:.3e}")

    def __call__(self, x: np.ndarray) -> np.ndarray:
        # np.add, not +: parts that return lists would be concatenated
        return np.add(self.potential_gradient(x), self.rotation(x))


def helmholtz_split(Q: np.ndarray) -> LinearField:
    """Split a square matrix into its symmetric and skew parts.

    Returns a :class:`LinearField` carrying ``Qs = (Q + Q.T)/2``,
    ``Qa = (Q - Q.T)/2``, the regularity constants computed from their
    spectra, the normalized pair, the eigendecomposition of ``Qhat_s`` and
    ``epsilon``.  Since ``lambda_min > POSITIVITY_RTOL lambda_max``, every
    eigenvalue of ``Qhat_s`` is positive and ``freqs`` are real.

    Raises
    ------
    NotPositiveDefiniteError
        If the symmetric part is not positive definite (within the relative
        eigenvalue tolerance ``POSITIVITY_RTOL``).
    ValueError
        If the computed eigenvectors fail to diagonalize ``Qhat_s``, a guard
        on the output of LAPACK.
    """
    Q = _as_square(Q)
    Qs = 0.5 * (Q + Q.T)
    Qa = 0.5 * (Q - Q.T)

    eigs = np.linalg.eigvalsh(Qs)
    lo, hi = float(eigs[0]), float(eigs[-1])
    if lo <= POSITIVITY_RTOL * max(abs(lo), abs(hi)):
        raise NotPositiveDefiniteError(
            f"symmetric part has smallest eigenvalue {lo:.6g} <= 0"
        )

    ell_j = hi
    kappa_j = lo
    ell_k = float(np.linalg.norm(Qa, 2))
    alpha = float(ell_k / np.sqrt(ell_j))

    Qhat_s = Qs / ell_j
    Qhat_a = np.zeros_like(Qa) if ell_k == 0.0 else alpha * Qa / ell_k
    evals, P = np.linalg.eigh(Qhat_s)
    off = P.T @ Qhat_s @ P - np.diag(evals)
    if np.max(np.abs(off)) > 1e-9 * max(1.0, evals[-1]):
        raise ValueError("eigendecomposition failed to diagonalize the normalized symmetric part")

    return LinearField(
        Q=_freeze(Q),
        Qs=_freeze(Qs),
        Qa=_freeze(Qa),
        ell_j=ell_j,
        ell_k=ell_k,
        kappa_j=kappa_j,
        alpha=alpha,
        Qhat_s=_freeze(Qhat_s),
        Qhat_a=_freeze(Qhat_a),
        P=_freeze(P),
        freqs=_freeze(np.sqrt(evals)),
        epsilon=ell_j ** -0.5,
    )


@dataclass(frozen=True)
class ValidationReport:
    """Sampled check of the monotonicity / Lipschitz assumptions."""

    equilibrium_residual: float
    worst_grad_monotonicity: float
    worst_rot_monotonicity: float
    worst_grad_lipschitz: float
    worst_rot_lipschitz: float
    grad_monotone_ok: bool
    rot_monotone_ok: bool
    grad_lipschitz_ok: bool
    rot_lipschitz_ok: bool
    equilibrium_ok: bool

    @property
    def passed(self) -> bool:
        return not self.failures()

    def failures(self) -> tuple[str, ...]:
        return tuple(name for name, flag in self._CONDITIONS if not getattr(self, flag))


# (condition, flag field) of each ``*_ok`` field in declaration order, read
# once, so that failures() reads no dataclass metadata on each call
ValidationReport._CONDITIONS = tuple((c.name.removesuffix("_ok"), c.name)
                                     for c in fields(ValidationReport) if c.name.endswith("_ok"))


def _ball_samples(rng: np.random.Generator, center: np.ndarray, radius: float,
                  count: int) -> np.ndarray:
    """Uniform samples in the ball of given radius around ``center``."""
    n = center.shape[0]
    raw = rng.standard_normal((count, n))
    raw /= np.linalg.norm(raw, axis=1, keepdims=True)
    radii = radius * rng.uniform(size=(count, 1)) ** (1.0 / n)
    return center + raw * radii


def _row_dots(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """``a[k] @ b[k]`` for every row, each summed as the one-row product is."""
    return (a[:, None, :] @ b[:, :, None])[:, 0, 0]


def _at_rows(f: GeneralField, part: Callable, X: np.ndarray, dtype=None) -> np.ndarray:
    """The values of ``part``, a callable of ``f``, at the rows of ``X``, as one array.

    One call on the whole block when ``f`` is declared vectorized, and
    otherwise one call per row (none without rows).
    """
    if f.vectorized and len(X):
        return np.asarray(part(X), dtype=dtype)
    return np.array([part(x) for x in X], dtype=dtype)


def validate_assumption1(f: GeneralField, samples: int = 256,
                         radius: float = 10.0, seed: int = 0) -> ValidationReport:
    """Probe the declared constants of a :class:`GeneralField` by sampling.

    Draws ``samples`` point pairs uniformly in the ball of the given radius
    around ``x_star`` and checks the strong-monotonicity and Lipschitz
    inequalities for both parts of the split.  Pairs at zero distance are
    dropped before any call; each part is then called on the interleaved
    points ``a1, b1, a2, b2, ...`` of the remaining pairs, once on their
    block when the field is declared vectorized and otherwise on one point
    at a time, and its values are gathered into one float64 array of
    shape ``(pairs, 2, dim)`` (a part that returns float32 or integer values
    is cast before the difference is taken), so the differences are one
    array subtraction per part and the ratios and their extremes are array
    reductions over the pairs.  ``samples`` must be an integer (a numpy
    integer will do, a bool will not).  A ratio that is NaN makes its worst
    ratio NaN, which fails its condition; with no pair left the
    monotonicity ratios read ``inf`` and the Lipschitz ratios ``0.0``.  The
    report carries the worst observed ratios; a condition passes within
    ``VALIDATION_RTOL`` times the larger of 1 and its constant, ``ell_k``
    for the rotation's zero monotonicity bound.
    """
    samples = _count("samples", samples)
    if samples < 1:
        raise ValueError("samples must be >= 1")
    rng = np.random.default_rng(seed)
    x1 = _ball_samples(rng, f.x_star, radius, samples)
    x2 = _ball_samples(rng, f.x_star, radius, samples)

    # a ball too large for the float range gives inf or NaN ratios, which
    # fail their conditions, without a warning
    with np.errstate(over="ignore", invalid="ignore"):
        dx = x1 - x2
        nx2 = _row_dots(dx, dx)
        keep = nx2 != 0.0
        dx, nx2 = dx[keep], nx2[keep]
        points = np.stack([x1[keep], x2[keep]], axis=1).reshape(-1, f.dim)
        values = (_at_rows(f, part, points, dtype=float).reshape(len(dx), 2, f.dim)
                  for part in (f.potential_gradient, f.rotation))
        dg, dr = (v[:, 0] - v[:, 1] for v in values)
        nx = np.sqrt(nx2)
        worst_gm, worst_rm = (np.minimum.reduce(_row_dots(d, dx) / nx2, initial=np.inf)
                              for d in (dg, dr))
        worst_gl, worst_rl = (np.maximum.reduce(np.sqrt(_row_dots(d, d)) / nx, initial=0.0)
                              for d in (dg, dr))

    slack_kappa = VALIDATION_RTOL * max(1.0, f.kappa_j)
    slack_ell_j = VALIDATION_RTOL * max(1.0, f.ell_j)
    slack_ell_k = VALIDATION_RTOL * max(1.0, f.ell_k)
    residual = float(np.linalg.norm(f(f.x_star)))

    return ValidationReport(
        equilibrium_residual=residual,
        worst_grad_monotonicity=float(worst_gm),
        worst_rot_monotonicity=float(worst_rm),
        worst_grad_lipschitz=float(worst_gl),
        worst_rot_lipschitz=float(worst_rl),
        grad_monotone_ok=bool(worst_gm >= f.kappa_j - slack_kappa),
        rot_monotone_ok=bool(worst_rm >= -slack_ell_k),
        grad_lipschitz_ok=bool(worst_gl <= f.ell_j + slack_ell_j),
        rot_lipschitz_ok=bool(worst_rl <= f.ell_k + slack_ell_k),
        equilibrium_ok=bool(residual <= EQUILIBRIUM_RTOL * (1.0 + float(np.linalg.norm(f.x_star)))),
    )
