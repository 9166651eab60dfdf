import dataclasses
import itertools
import math
import re

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from nestode.fields import (
    EQUILIBRIUM_RTOL,
    VALIDATION_RTOL,
    GeneralField,
    NotPositiveDefiniteError,
    ValidationReport,
    _ball_samples,
    helmholtz_split,
    validate_assumption1,
)

from conftest import (DEMO_Q, SOFT_QA, reference_drift_generator, reference_normalize,
                      soft_field, split_parts_field)


def test_split_demo_matrix_constants():
    f = helmholtz_split(DEMO_Q)
    assert np.array_equal(f.Qs, 100.0 * np.eye(2))
    assert np.array_equal(f.Qa, np.array([[0.0, 5.0], [-5.0, 0.0]]))
    assert f.ell_j == pytest.approx(100.0)
    assert f.ell_k == pytest.approx(5.0)
    assert f.kappa_j == pytest.approx(100.0)
    assert f.alpha == pytest.approx(0.5)
    assert f.warnings == ()


def test_split_symmetric_matrix_has_no_rotation():
    Qs = np.array([[4.0, 1.0], [1.0, 3.0]])
    f = helmholtz_split(Qs)
    assert np.allclose(f.Qa, 0.0)
    assert f.ell_k == 0.0
    assert f.alpha == 0.0


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_split_reconstructs_random_matrix(seed):
    rng = np.random.default_rng(seed)
    Q = rng.standard_normal((4, 4))
    Q += 5.0 * np.eye(4)  # shift the symmetric part to be positive definite
    f = helmholtz_split(Q)
    assert np.max(np.abs(f.Qs + f.Qa - Q)) < 1e-12
    assert np.max(np.abs(f.Qs - f.Qs.T)) < 1e-12
    assert np.max(np.abs(f.Qa + f.Qa.T)) < 1e-12


def test_split_rejects_indefinite_symmetric_part():
    with pytest.raises(NotPositiveDefiniteError):
        helmholtz_split(np.array([[-1.0, 1.0], [-1.0, -1.0]]))


def test_split_flags_oversized_rotation_without_raising():
    Q = np.eye(2) + np.array([[0.0, 2.0], [-2.0, 0.0]])
    f = helmholtz_split(Q)
    assert f.alpha == pytest.approx(2.0)
    assert len(f.warnings) == 1
    assert "alpha" in f.warnings[0]


def test_split_is_idempotent_on_its_own_output():
    rng = np.random.default_rng(7)
    Q = rng.standard_normal((3, 3)) + 4.0 * np.eye(3)
    f = helmholtz_split(Q)
    again = helmholtz_split(f.Qs + f.Qa)
    # re-adding the parts costs one rounding per entry, nothing more
    scale = np.max(np.abs(Q))
    assert np.max(np.abs(again.Qs - f.Qs)) <= 1e-15 * scale
    assert np.max(np.abs(again.Qa - f.Qa)) <= 1e-15 * scale


def test_normalize_demo_matrix():
    f = helmholtz_split(DEMO_Q)
    assert np.allclose(f.Qhat_s, np.eye(2))
    assert np.allclose(f.Qhat_a, np.array([[0.0, 0.5], [-0.5, 0.0]]))
    assert np.allclose(f.freqs, [1.0, 1.0])
    assert f.epsilon == pytest.approx(0.1)


def test_normalize_symmetric_field_gives_zero_rotation():
    f = helmholtz_split(np.diag([2.0, 5.0]))
    assert np.array_equal(f.Qhat_a, np.zeros((2, 2)))


@pytest.mark.parametrize("seed", [3, 11])
def test_normalize_unit_spectral_norm(seed):
    rng = np.random.default_rng(seed)
    Q = rng.standard_normal((5, 5)) + 6.0 * np.eye(5)
    f = helmholtz_split(Q)
    assert np.linalg.norm(f.Qhat_s, 2) == pytest.approx(1.0, abs=1e-12)
    assert np.linalg.norm(f.Qhat_a, 2) == pytest.approx(f.alpha, abs=1e-12)


@given(st.integers(1, 8), st.integers(0, 2 ** 32 - 1), st.booleans())
def test_the_stored_normalization_and_drift_spectrum_equal_the_reference(n, seed, skew):
    # every bit of the stored pair, eigenbasis and frequencies is what the
    # separate normalization and diagonalization computed
    rng = np.random.default_rng(seed)
    M = rng.standard_normal((n, n))
    Q = M @ M.T + rng.uniform(0.5, 5.0) * np.eye(n)
    if skew:
        K = rng.standard_normal((n, n))
        Q += K - K.T
    f = helmholtz_split(Q)
    Qhat_s, Qhat_a = reference_normalize(f)
    ref = reference_drift_generator(f)
    assert np.array_equal(f.Qhat_s, Qhat_s) and np.array_equal(f.Qhat_a, Qhat_a)
    assert np.array_equal(f.P, ref.P) and np.array_equal(f.freqs, ref.freqs)
    assert f.epsilon == f.ell_j ** -0.5


def test_split_refuses_an_eigenbasis_that_does_not_diagonalize(monkeypatch):
    # a guard on LAPACK's output: swap the true eigenvectors for the identity
    eigh = np.linalg.eigh
    monkeypatch.setattr(np.linalg, "eigh", lambda a: (eigh(a)[0], np.eye(len(a))))
    with pytest.raises(ValueError, match="failed to diagonalize the normalized symmetric part"):
        helmholtz_split(np.array([[4.0, 1.0], [1.0, 3.0]]))


@pytest.mark.parametrize("seed", [0, 5, 9])
def test_rotation_part_is_pointwise_orthogonal(seed):
    rng = np.random.default_rng(seed)
    Q = rng.standard_normal((4, 4)) + 5.0 * np.eye(4)
    f = helmholtz_split(Q)
    for _ in range(50):
        x = rng.standard_normal(4) * rng.uniform(0.1, 100.0)
        assert abs(x @ f.rotation(x)) <= 1e-10 * (x @ x)


def test_linear_wrap_passes_validation_with_computed_constants():
    f = helmholtz_split(DEMO_Q)
    g = f.as_general()
    report = validate_assumption1(g, samples=256, radius=10.0, seed=0)
    assert report.passed, report.failures()
    # worst observed ratios must respect the spectral constants
    assert report.worst_grad_monotonicity >= f.kappa_j - 1e-6
    assert report.worst_grad_lipschitz <= f.ell_j + 1e-6
    assert report.worst_rot_lipschitz <= f.ell_k + 1e-6


def test_validation_componentwise_arctan_field():
    # grad J(q) = q + arctan(q)/2 has slope in (1, 1.5], so kappa=1, ell=1.5
    Qa = np.array([[0.0, 0.3], [-0.3, 0.0]])

    def potential(q):
        return float(np.sum(0.5 * q * q + 0.5 * (q * np.arctan(q) - 0.5 * np.log1p(q * q))))

    g = GeneralField(
        dim=2,
        potential=potential,
        potential_gradient=lambda q: q + 0.5 * np.arctan(q),
        rotation=lambda q: Qa @ q,
        x_star=np.zeros(2),
        kappa_j=1.0,
        ell_j=1.5,
        ell_k=0.3,
    )
    report = validate_assumption1(g, samples=256, radius=5.0, seed=1)
    assert report.passed, report.failures()


def reference_validate(f: GeneralField, samples: int = 256, radius: float = 10.0,
                       seed: int = 0) -> ValidationReport:
    """:func:`validate_assumption1` written as one Python loop over the pairs."""
    rng = np.random.default_rng(seed)
    x1 = _ball_samples(rng, f.x_star, radius, samples)
    x2 = _ball_samples(rng, f.x_star, radius, samples)
    worst_gm = worst_rm = np.inf
    worst_gl = worst_rl = 0.0
    def worst(pick, acc, ratio):
        # a NaN ratio makes the worst ratio NaN from then on
        return math.nan if math.isnan(acc) or math.isnan(ratio) else pick(acc, ratio)

    for a, b in zip(x1, x2):
        dx = a - b
        nx2 = float(dx @ dx)
        if nx2 == 0.0:
            continue
        dg = f.potential_gradient(a) - f.potential_gradient(b)
        dr = f.rotation(a) - f.rotation(b)
        worst_gm = worst(min, worst_gm, float(dg @ dx) / nx2)
        worst_rm = worst(min, worst_rm, float(dr @ dx) / nx2)
        nx = np.sqrt(nx2)
        worst_gl = worst(max, worst_gl, float(np.linalg.norm(dg)) / nx)
        worst_rl = worst(max, worst_rl, float(np.linalg.norm(dr)) / nx)
    def slack(c):
        return VALIDATION_RTOL * max(1.0, c)

    residual = float(np.linalg.norm(f(f.x_star)))
    return ValidationReport(
        equilibrium_residual=residual,
        worst_grad_monotonicity=float(worst_gm), worst_rot_monotonicity=float(worst_rm),
        worst_grad_lipschitz=float(worst_gl), worst_rot_lipschitz=float(worst_rl),
        grad_monotone_ok=bool(worst_gm >= f.kappa_j - slack(f.kappa_j)),
        rot_monotone_ok=bool(worst_rm >= -slack(f.ell_k)),
        grad_lipschitz_ok=bool(worst_gl <= f.ell_j + slack(f.ell_j)),
        rot_lipschitz_ok=bool(worst_rl <= f.ell_k + slack(f.ell_k)),
        equilibrium_ok=bool(residual <= EQUILIBRIUM_RTOL * (1.0 + float(np.linalg.norm(f.x_star)))),
    )


def arctan_field(grad=None) -> GeneralField:
    """grad J(q) = q + arctan(q)/2 with a skew rotation; kappa = 1, ell = 1.5."""
    Qa = np.array([[0.0, 0.3], [-0.3, 0.0]])
    return GeneralField(dim=2, potential=lambda q: 0.0,
                        potential_gradient=grad or (lambda q: q + 0.5 * np.arctan(q)),
                        rotation=lambda q: Qa @ q, x_star=np.zeros(2),
                        kappa_j=1.0, ell_j=1.5, ell_k=0.3)


def random_general(n: int) -> GeneralField:
    rng = np.random.default_rng(100 + n)
    return helmholtz_split(rng.standard_normal((n, n)) + 4.0 * np.eye(n)).as_general()


def nan_beyond_three(q):
    # NaN away from the centre: a NaN ratio fails its condition
    return q + 0.5 * np.arctan(q) if q[0] < 3.0 else np.full(2, np.nan)


VALIDATION_CASES = {
    "demo": (lambda: helmholtz_split(DEMO_Q).as_general(), {}),
    "arctan": (arctan_field, {"radius": 5.0, "seed": 1}),
    **{f"random-n{n}": (lambda n=n: random_general(n), {"seed": n}) for n in range(1, 7)},
    "one-sample": (lambda: helmholtz_split(DEMO_Q).as_general(), {"samples": 1, "seed": 3}),
    "zero-radius": (arctan_field, {"radius": 0.0}),
    "nan-ratios": (lambda: arctan_field(nan_beyond_three), {"radius": 5.0}),
}


def test_the_failures_are_the_false_ok_fields_in_order():
    names = [c.name for c in dataclasses.fields(ValidationReport)]
    oks = [name for name in names if name.endswith("_ok")]
    for flags in itertools.product([False, True], repeat=len(oks)):
        report = ValidationReport(**{**dict.fromkeys(names, 0.0), **dict(zip(oks, flags))})
        assert report.failures() == tuple(name.removesuffix("_ok")
                                          for name, ok in zip(oks, flags) if not ok)


@pytest.mark.parametrize("case", sorted(VALIDATION_CASES))
def test_validation_statistics_match_the_pairwise_loop(case):
    make, kwargs = VALIDATION_CASES[case]
    new, ref = validate_assumption1(make(), **kwargs), reference_validate(make(), **kwargs)
    # every rotation here is skew, so <dr, dx> / |dx|^2 is 0 but for the
    # rounding of an n-term dot product, at most n eps |dr| / |dx| on each
    # side; the BLAS kernel decides the order of the sum
    zero_bound = 2 * make().dim * np.finfo(float).eps * ref.worst_rot_lipschitz
    for c in dataclasses.fields(ValidationReport):
        got, want = getattr(new, c.name), getattr(ref, c.name)
        if isinstance(want, float):
            bound = zero_bound if c.name == "worst_rot_monotonicity" else 0.0
            assert got == pytest.approx(want, rel=1e-12, abs=bound, nan_ok=True), c.name
        else:
            assert got == want, c.name
    if case == "zero-radius":
        assert (new.worst_grad_monotonicity, new.worst_grad_lipschitz) == (np.inf, 0.0)
    if case == "nan-ratios":
        assert new.failures() == ("grad_monotone", "grad_lipschitz")


def test_a_gradient_that_is_nan_away_from_the_equilibrium_fails_validation():
    def grad(q):
        return np.zeros(2) if not q.any() else np.full(2, np.nan)

    report = validate_assumption1(arctan_field(grad))
    assert math.isnan(report.worst_grad_monotonicity)
    assert math.isnan(report.worst_grad_lipschitz)
    assert not report.passed
    assert report.failures() == ("grad_monotone", "grad_lipschitz")


def test_validation_calls_each_part_once_per_point_of_every_separated_pair():
    calls = {"potential_gradient": [], "rotation": []}
    base = helmholtz_split(DEMO_Q)

    def spy(name, fn):
        return lambda x: calls[name].append(np.array(x)) or fn(x)

    g = GeneralField(dim=2, potential=base.potential,
                     potential_gradient=spy("potential_gradient", base.potential_gradient),
                     rotation=spy("rotation", base.rotation), x_star=np.zeros(2),
                     kappa_j=base.kappa_j, ell_j=base.ell_j, ell_k=base.ell_k)
    for name in calls:
        calls[name].clear()  # drop the equilibrium check's calls
    validate_assumption1(g, samples=64, radius=3.0, seed=4)
    rng = np.random.default_rng(4)
    x1, x2 = (_ball_samples(rng, np.zeros(2), 3.0, 64) for _ in range(2))
    points = [p for a, b in zip(x1, x2) for p in (a, b)]
    for name, seen in calls.items():
        assert all(x.shape == (2,) for x in seen), name
        # the equilibrium residual adds one call at x_star after the pairs
        assert len(seen) == 2 * 64 + 1, name
        assert np.array_equal(seen[:-1], points), name
    for name in calls:
        calls[name].clear()
    validate_assumption1(g, samples=16, radius=0.0)
    assert [len(seen) for seen in calls.values()] == [1, 1]  # x_star only


def test_a_vectorized_field_is_called_once_per_part_on_the_pair_points():
    calls = {"potential_gradient": [], "rotation": []}
    f = soft_field(vectorized=True)

    def spy(name):
        part = getattr(f, name)
        return lambda x: calls[name].append(np.array(x)) or part(x)

    g = dataclasses.replace(f, potential_gradient=spy("potential_gradient"),
                            rotation=spy("rotation"))
    for name in calls:
        calls[name].clear()  # drop the constructor's checks
    validate_assumption1(g, samples=64, radius=3.0, seed=4)
    rng = np.random.default_rng(4)
    x1, x2 = (_ball_samples(rng, np.zeros(2), 3.0, 64) for _ in range(2))
    points = [p for a, b in zip(x1, x2) for p in (a, b)]
    for name, seen in calls.items():
        # one block of the interleaved pair points, then the residual at x_star
        assert [x.shape for x in seen] == [(2 * 64, 2), (2,)], name
        assert np.array_equal(seen[0], points), name
    for name in calls:
        calls[name].clear()
    validate_assumption1(g, samples=16, radius=0.0)  # no pair left: no block call
    assert [[x.shape for x in seen] for seen in calls.values()] == [[(2,)], [(2,)]]


@pytest.mark.parametrize("samples", [2.5, 64.0, True, "64", None])
def test_a_sample_count_that_is_not_an_integer_is_refused_by_name(samples):
    g = helmholtz_split(DEMO_Q).as_general()
    message = f"^samples must be an integer, got {re.escape(repr(samples))}$"
    with pytest.raises(TypeError, match=message):
        validate_assumption1(g, samples=samples)


def test_a_numpy_integer_sample_count_is_an_integer():
    g = helmholtz_split(DEMO_Q).as_general()
    want = repr(validate_assumption1(g, samples=64, seed=3))
    for samples in (np.int64(64), np.int32(64), np.uint8(64)):
        assert repr(validate_assumption1(g, samples=samples, seed=3)) == want


@pytest.mark.parametrize("values", [
    lambda q: (q + 0.5 * np.arctan(q)).astype(np.float32),
    lambda q: np.round(8.0 * (q + 0.5 * np.arctan(q))).astype(np.int64),
], ids=["float32", "int64"])
def test_part_values_are_cast_to_float64_before_their_difference(values):
    # a float32 or integer part is differenced in float64, as if it had
    # returned its values as float64: float32 differences would round
    def field(cast):
        return arctan_field(lambda q: cast(values(q)))

    kwargs = {"samples": 64, "radius": 5.0, "seed": 6}
    got = validate_assumption1(field(lambda v: v), **kwargs)
    want = validate_assumption1(field(lambda v: v.astype(float)), **kwargs)
    assert repr(got) == repr(want)


def test_an_exact_field_at_1e8_scale_validates():
    # the rounding noise of <dr, dx> / |dx|^2 grows with ell_k: an absolute
    # slack of 1e-9 refuted this field's exact constants at -1.03e-08
    report = validate_assumption1(helmholtz_split(np.array([[1e8, 3e7], [-3e7, 2e8]]))
                                  .as_general())
    assert report.passed, report.failures()
    assert report.worst_rot_monotonicity < -VALIDATION_RTOL


@given(st.integers(1, 6), st.integers(0, 2 ** 32 - 1), st.floats(-3.0, 8.0))
def test_the_general_wrap_of_a_linear_field_always_validates(n, seed, log_scale):
    # exact constants are never refuted, from 1e-3 to 1e8 scale
    rng = np.random.default_rng(seed)
    M, K = rng.standard_normal((2, n, n))
    Q = 10.0 ** log_scale * (M @ M.T + rng.uniform(0.5, 5.0) * np.eye(n) + K - K.T)
    report = validate_assumption1(helmholtz_split(Q).as_general())
    assert report.passed, report.failures()


def test_validation_catches_inflated_curvature_claim():
    f = helmholtz_split(DEMO_Q)
    g = GeneralField(
        dim=2,
        potential=f.potential,
        potential_gradient=f.potential_gradient,
        rotation=f.rotation,
        x_star=np.zeros(2),
        kappa_j=2.0 * f.kappa_j,  # stronger than the true smallest eigenvalue
        ell_j=f.ell_j,
        ell_k=f.ell_k,
    )
    report = validate_assumption1(g, samples=256, radius=10.0, seed=2)
    assert not report.grad_monotone_ok
    assert "grad_monotone" in report.failures()


def test_general_field_rejects_non_equilibrium_center():
    f = helmholtz_split(DEMO_Q)
    with pytest.raises(ValueError, match="equilibrium"):
        GeneralField(
            dim=2,
            potential=f.potential,
            potential_gradient=f.potential_gradient,
            rotation=f.rotation,
            x_star=np.array([1.0, 0.0]),
            kappa_j=f.kappa_j,
            ell_j=f.ell_j,
            ell_k=f.ell_k,
        )


@pytest.mark.parametrize("part", ["potential_gradient", "rotation"])
@pytest.mark.parametrize("value", [0.0, np.zeros(1), np.zeros(3), np.zeros((2, 1))],
                         ids=["scalar", "length-1", "length-3", "column"])
def test_general_field_rejects_a_part_of_the_wrong_shape(part, value):
    f = helmholtz_split(DEMO_Q)
    parts = {"potential_gradient": f.potential_gradient, "rotation": f.rotation,
             part: lambda x: value}
    with pytest.raises(ValueError, match=re.escape(
            f"{part} must return shape (2,) at x_star, got {np.shape(value)}")):
        GeneralField(dim=2, potential=f.potential, x_star=np.zeros(2), kappa_j=f.kappa_j,
                     ell_j=f.ell_j, ell_k=f.ell_k, **parts)


def test_parts_that_return_lists_validate_as_their_arrays_do():
    assert validate_assumption1(split_parts_field(lists=True)) == \
        validate_assumption1(split_parts_field(lists=False))


def test_field_matrices_are_read_only():
    f = helmholtz_split(DEMO_Q)
    for array in (f.Q, f.Qs, f.Qa, f.Qhat_s, f.Qhat_a, f.P):
        with pytest.raises(ValueError):
            array[0, 0] = 1.0
    with pytest.raises(ValueError):
        f.freqs[0] = 1.0


def one_point_gradient(x):
    if x.ndim != 1:
        raise TypeError("expected one point")
    return x + 0.5 * np.arctan(x)


def misdeclared_vectorized(**parts) -> GeneralField:
    """The flagged twin of ``soft_field`` with ``parts`` replaced."""
    return dataclasses.replace(soft_field(vectorized=True), **parts)


# one call per refusal of the field constructors and of validate_assumption1,
# with its exact text
_FIELD_REFUSALS = {
    # the per-point rotation SOFT_QA @ x answers the 2-row block [x*, (0.5, 1)]
    # with the rows mixed: [[0.15, 0.3], [0, 0]] against [[0, 0], [0.3, -0.15]]
    "vectorized-wrong-orientation": (
        lambda: misdeclared_vectorized(rotation=lambda x: SOFT_QA @ x),
        "rotation is declared vectorized but its values on a block of 2 rows differ from "
        "its per-row values by 3.000e-01, more than 1.300e-09"),
    "vectorized-raises": (
        lambda: misdeclared_vectorized(potential_gradient=one_point_gradient),
        "potential_gradient is declared vectorized but raised TypeError on a block of 2 rows: "
        "expected one point"),
    # a potential written for one point, whose sum takes in the whole block
    "vectorized-scalar-potential": (
        lambda: misdeclared_vectorized(potential=lambda x: 0.5 * float(np.sum(x * x))),
        "potential is declared vectorized but returned shape () on a block of 2 rows, "
        "not (2,)"),
    "Q-not-square": (lambda: helmholtz_split(np.ones((2, 3))),
                     "expected a square matrix, got shape (2, 3)"),
    "Q-a-vector": (lambda: helmholtz_split(np.ones(2)), "expected a square matrix, got shape (2,)"),
    "Q-nan": (lambda: helmholtz_split([[1.0, math.nan], [0.0, 1.0]]),
              "matrix entries must be finite"),
    "Q-inf": (lambda: helmholtz_split([[1.0, 0.0], [math.inf, 1.0]]),
              "matrix entries must be finite"),
    "x_star-length": (lambda: dataclasses.replace(soft_field(), x_star=np.zeros(3)),
                      "x_star must be a vector of length dim"),
    **{f"{name}-{value}": (lambda name=name, value=value:
                           dataclasses.replace(soft_field(), **{name: value}),
                           "constants must satisfy kappa_j, ell_j > 0 and ell_k >= 0")
       for name, value in [("kappa_j", 0.0), ("ell_j", -1.0), ("ell_k", -0.1)]},
    "samples-zero": (lambda: validate_assumption1(soft_field(), samples=0), "samples must be >= 1"),
}


@pytest.mark.parametrize("case", list(_FIELD_REFUSALS))
def test_each_field_refusal_names_its_cause(case):
    call, text = _FIELD_REFUSALS[case]
    with pytest.raises(ValueError, match=f"^{re.escape(text)}$"):
        call()
