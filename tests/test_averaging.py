import dataclasses
import itertools
import math
import re
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.linalg import expm

from nestode import averaging
from nestode.averaging import (
    _MAX_NODES,
    DEGENERACY_RTOL,
    MAX_DENOMINATOR,
    AveragedSystem,
    CertificateReport,
    InstabilityConditions,
    _conditions,
    _eigen_groups,
    _limit_denominator,
    _period,
    _node_count,
    _refuse_aliasing,
    _simpson_gram,
    average_closed_form,
    instability_certificate,
    integrate_average,
)
from nestode.fields import helmholtz_split
from nestode.odesim import integrate_pullback

from conftest import (DEMO_Q, make_commensurate_field, reference_drift_generator,
                      reference_normalize, reference_period)

Y0 = np.array([0.1, -0.1, 0.0, 0.0])


# ---------------------------------------------------------------- period


def test_period_isotropic_drift():
    pr = _period(helmholtz_split(DEMO_Q))
    assert pr.omega0 == pytest.approx(1.0)
    assert pr.period == pytest.approx(2.0 * np.pi)
    assert pr.ratios == (1, 1)


# the drift frequencies are the square roots of the eigenvalues of Qs / ell_j


def test_period_integer_frequency_pair():
    pr = _period(helmholtz_split(np.diag([1.0, 4.0])))  # freqs 0.5, 1
    assert pr.omega0 == pytest.approx(0.5)
    assert pr.period == pytest.approx(4.0 * np.pi)
    assert pr.ratios == (1, 2)


def test_period_half_integer_base():
    # freqs 0.5, 1, 1.5 over sqrt(ell_j) = 1.5
    pr = _period(helmholtz_split(np.diag([0.25, 1.0, 2.25])))
    assert pr.omega0 == pytest.approx(1.0 / 3.0)
    assert pr.ratios == (1, 2, 3)


def test_period_rejects_irrational_ratio():
    assert _period(helmholtz_split(np.diag([1.0, 2.0]))) is None  # ratio sqrt(2)


def test_period_respects_the_denominator_budget():
    # the budget is MAX_DENOMINATOR = 64: ratio 65/64 fits, 66/65 does not
    f = helmholtz_split(np.diag([(64.0 / 65.0) ** 2, 1.0]))
    assert _period(f).ratios == (64, 65)
    assert _period(helmholtz_split(np.diag([(65.0 / 66.0) ** 2, 1.0]))) is None


def fraction_fit(x: float) -> tuple[int, int]:
    frac = Fraction(x).limit_denominator(MAX_DENOMINATOR)
    return frac.numerator, frac.denominator


# floats near a fraction of a small denominator, from far inside the period
# tolerance to far outside it; log-uniform floats; and floats whose own
# denominator is within the budget, which are their own fit
_NEAR_FRACTIONS = st.builds(lambda p, q, delta: p / q * (1.0 + delta),
                            st.integers(1, 20000), st.integers(1, 200),
                            st.sampled_from([0.0, 1e-12, -1e-12, 1e-9, -1e-9, 1e-7, -1e-7,
                                             1e-4, -1e-4]))
_LOG_UNIFORM = st.floats(-3.0, 7.0).map(lambda e: 10.0 ** e)
_WITHIN_BUDGET = st.builds(lambda p, j: p / 2 ** j, st.integers(1, 10 ** 6), st.integers(0, 6))


@settings(max_examples=300)
@given(st.one_of(_NEAR_FRACTIONS, _LOG_UNIFORM, _WITHIN_BUDGET))
@example(math.pi)  # 201/64: the semiconvergent of the largest k wins
@example(65.0 / 64.0 * (1.0 + 1e-9))  # a convergent of denominator 64
@example(0.3)  # 3/10: a convergent, the semiconvergent loses
def test_the_integer_fit_is_the_fraction_fit(x):
    assert _limit_denominator(x) == fraction_fit(x)


def test_a_tie_goes_to_the_convergent():
    # a + 1/128 lies midway between the convergent a/1 and the semiconvergent
    # (64 a + 1)/64; these, and a - 1/128, are the only float ties at the
    # budget of 64 (a tie needs a midpoint of power-of-two denominator)
    for a in range(8):
        assert _limit_denominator(a + 1.0 / 128.0) == fraction_fit(a + 1.0 / 128.0) == (a, 1)
    for a in range(1, 8):
        assert _limit_denominator(a - 1.0 / 128.0) == fraction_fit(a - 1.0 / 128.0) == (a, 1)


def test_the_period_is_the_fraction_period_on_200_commensurate_fields():
    # the seeds and dimensions of the closed-vs-quadrature gap record
    rng = np.random.default_rng(0)
    seeds, dims = rng.integers(0, 2 ** 16, 200), rng.integers(2, 7, 200)
    for seed, n in zip(seeds.tolist(), dims.tolist()):
        f = make_commensurate_field(seed, n)
        assert _period(f) == reference_period(f) is not None, (seed, n)


@given(st.integers(1, 6), st.integers(0, 2 ** 32 - 1))
def test_the_period_is_the_fraction_period_on_random_spd_fields(n, seed):
    # almost every random spectrum is incommensurate, so both give None
    rng = np.random.default_rng(seed)
    A, B = rng.standard_normal((2, n, n))
    f = helmholtz_split(A @ A.T + 0.1 * np.eye(n) + 0.3 * (B - B.T))
    assert _period(f) == reference_period(f)


@given(st.lists(st.tuples(st.integers(1, 300), st.integers(1, 80)), min_size=1, max_size=6),
       st.sampled_from([0.0, 1e-12, 1e-8]))
def test_the_period_is_the_fraction_period_on_rational_spectra(pairs, delta):
    # frequencies p/q, some past the budget, nudged by a relative delta
    freqs = np.array([p / q for p, q in pairs]) * (1.0 + delta * np.arange(len(pairs)))
    f = helmholtz_split(np.diag(freqs ** 2))
    assert _period(f) == reference_period(f)


def test_the_budget_pair_keeps_the_fraction_period():
    fits, misses = (helmholtz_split(np.diag([x ** 2, 1.0])) for x in (64 / 65, 65 / 66))
    assert _period(fits) == reference_period(fits) is not None
    assert _period(misses) is reference_period(misses) is None


def test_quadrature_rounds_odd_node_counts_up():
    f = helmholtz_split(DEMO_Q)
    odd = instability_certificate(f, nodes=101).quadrature
    even = instability_certificate(f, nodes=102).quadrature
    assert np.array_equal(odd.b1_bar, even.b1_bar)


# ratios (1, 20, 20): the integrand's harmonics are 2, 19, 21 and 40
ALIASING_Q = np.diag([1.0, 400.0, 400.0]) + np.array([[0.0, 2.0, -1.0],
                                                      [-2.0, 0.0, 1.5],
                                                      [1.0, -1.5, 0.0]])


def test_quadrature_refuses_a_node_count_whose_half_divides_a_harmonic():
    f = helmholtz_split(ALIASING_Q)
    with pytest.raises(ValueError, match="aliases the harmonic 40 .* smallest admissible count is 64"):
        instability_certificate(f, nodes=80)
    with pytest.raises(ValueError, match="nodes = 80 aliases"):
        instability_certificate(f, nodes=79)  # rounded up to 80
    for nodes in (64, 128, 4096):
        assert instability_certificate(f, nodes=nodes).quadrature_gap <= 1e-12


def test_the_smallest_admissible_count_is_named():
    # ratios (1, 31): 64 aliases the harmonic 32 and 66 is the first count past it
    with pytest.raises(ValueError, match="harmonic 32 .* smallest admissible count is 66"):
        _refuse_aliasing(64, (1, 31))
    assert _node_count(65) == 66
    _refuse_aliasing(66, (1, 31))
    with pytest.raises(ValueError, match="nodes must be >= 64"):
        _node_count(62)


def _refusal(refuse, nodes: int, ratios: tuple[int, ...]) -> str | None:
    try:
        refuse(nodes, ratios)
    except ValueError as err:
        return str(err)
    return None


# the ratios of frequencies 1, 64/63, 64/61, ..., 64/41: the lcm of their
# denominators makes them about 1e12
_LARGE_LCM_RATIOS = [995745691521, 1011551178688, 1044716791104, 1080130919616,
                     1202409891648, 1355909026752, 1482040099008, 1554334737984]


# small ratios alias often at small counts; larger ones exercise the long
# search for the smallest admissible count, and ratios up to 1e13 a test
# whose cost must not grow with their size
@given(st.integers(32, 2 ** 12).map(lambda half: 2 * half),
       st.lists(st.integers(1, 3000) | st.integers(1, 10 ** 13), min_size=1, max_size=8))
@example(64, [1, 31])
@example(80, [1, 20, 20])
@example(4096, _LARGE_LCM_RATIOS)  # refused, as is 64: the smallest admissible count is 92
@example(8192, _LARGE_LCM_RATIOS)
def test_aliasing_refusals_match_the_set_of_all_harmonics(nodes, ratios):
    # the refusal, the aliased harmonic and the smallest admissible count
    ratios = tuple(ratios)
    assert _refusal(_refuse_aliasing, nodes, ratios) == _refusal(reference_refuse_aliasing,
                                                                 nodes, ratios)


def test_a_field_whose_ratios_are_about_1e12_is_refused_by_the_certificate():
    # diagonal drift with frequencies 1 and 64/q: its period fit gives the large-lcm ratios
    freqs = [Fraction(1)] + [Fraction(64, q) for q in (63, 61, 59, 53, 47, 43, 41)]
    Q = np.diag([float(w) ** 2 for w in freqs])
    Q[0, 1], Q[1, 0] = 0.5, -0.5
    f = helmholtz_split(Q)
    assert _period(f).ratios == tuple(_LARGE_LCM_RATIOS)
    message = _refusal(reference_refuse_aliasing, 4096, tuple(_LARGE_LCM_RATIOS))
    assert message.endswith("the smallest admissible count is 92")
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        instability_certificate(f)


def test_a_node_count_past_the_bound_is_refused_before_any_allocation():
    assert _node_count(_MAX_NODES - 1) == _MAX_NODES
    with pytest.raises(ValueError, match=f"nodes = {_MAX_NODES + 1} exceeds the bound of "
                                         f"{_MAX_NODES} Simpson nodes"):
        instability_certificate(helmholtz_split(DEMO_Q), nodes=_MAX_NODES + 1)


@pytest.mark.parametrize("nodes", [100.0, 4096.0, True, "4096", None])
def test_a_node_count_that_is_not_an_integer_is_refused_by_name(nodes):
    message = f"^nodes must be an integer, got {re.escape(repr(nodes))}$"
    with pytest.raises(TypeError, match=message):
        instability_certificate(helmholtz_split(DEMO_Q), nodes=nodes)


# the demo field, whose drift is periodic, and one whose frequency ratio is sqrt(2)
RATIONAL_AND_IRRATIONAL = [helmholtz_split(DEMO_Q), helmholtz_split(np.diag([1.0, 2.0]))]


@pytest.mark.parametrize("field", RATIONAL_AND_IRRATIONAL, ids=["demo", "sqrt2"])
@pytest.mark.parametrize("nodes, error, message", [
    (1.5, TypeError, "^nodes must be an integer, got 1.5$"),
    (True, TypeError, "^nodes must be an integer, got True$"),
    (-5, ValueError, "^nodes must be >= 64$"),
    (10, ValueError, "^nodes must be >= 64$"),
    (10 ** 9, ValueError, f"^nodes = {10 ** 9} exceeds the bound of {_MAX_NODES} Simpson nodes$"),
])
def test_a_node_count_is_refused_on_every_field_before_the_period_fit(
        field, nodes, error, message, monkeypatch):
    def no_fit(f):
        raise AssertionError("the period was fit before the node count was checked")

    monkeypatch.setattr(averaging, "_period", no_fit)
    with pytest.raises(error, match=message):
        instability_certificate(field, nodes=nodes)


def test_an_incommensurate_field_takes_every_admissible_count():
    f = RATIONAL_AND_IRRATIONAL[1]
    assert _period(f) is None
    for nodes in (64, 65, np.int32(80), _MAX_NODES):
        assert instability_certificate(f, nodes=nodes).quadrature is None


def test_a_numpy_integer_node_count_is_an_integer():
    # np.uint16(65535) rounds up to 65536 without wrapping to 0
    f = helmholtz_split(DEMO_Q)
    for nodes in (np.int64(100), np.int32(100), np.uint16(100), np.uint16(65535)):
        got, want = (instability_certificate(f, nodes=m).quadrature for m in (nodes, int(nodes)))
        assert np.array_equal(got.b1_bar, want.b1_bar) and np.array_equal(got.b2_bar, want.b2_bar)


def reference_sin_cos_table(lam: np.ndarray, h: float, nodes: int) -> np.ndarray:
    """``[sin(lam s); cos(lam s)]`` at ``s = j h``, ``j = 0..nodes``, one row per frequency.

    Node ``j = p B + r`` with ``B = isqrt(nodes)``: ``sin`` and ``cos`` are
    taken only of the coarse angles ``lam p B h`` and the fine angles
    ``lam r h``, and each sample is filled by angle addition; the last
    coarse block is cut at ``j = nodes``.
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


def reference_simpson_gram(lam: np.ndarray, h: float, nodes: int) -> np.ndarray:
    """The ``2n x 2n`` Simpson Gram ``(X w) X^T`` of the whole sample table."""
    X = reference_sin_cos_table(lam, h, nodes)
    weights = np.full(nodes + 1, 2.0)
    weights[1::2] = 4.0
    weights[0] = weights[-1] = 1.0
    weights *= h / 3.0
    return (X * weights) @ X.T


@pytest.mark.parametrize("nodes", [64, 102, 4098, 10000])
@pytest.mark.parametrize("n", range(1, 7))
def test_the_sin_cos_table_matches_direct_sampling(n, nodes):
    # none of these counts plus one is a multiple of isqrt(nodes), so the
    # last block of the table is a partial one
    f = make_commensurate_field(n, n)
    h = _period(f).period / nodes
    phase = np.multiply.outer(f.freqs, np.arange(nodes + 1) * h)
    table = reference_sin_cos_table(f.freqs, h, nodes)
    assert table.shape == (2 * n, nodes + 1)
    assert np.max(np.abs(table - np.concatenate([np.sin(phase), np.cos(phase)]))) <= 1e-13


def assert_gram_matches_the_table(n: int, nodes: int, seed: int):
    f = make_commensurate_field(seed, n)
    h = _period(f).period / nodes
    G = reference_simpson_gram(f.freqs, h, nodes)
    SS, SC, CC = _simpson_gram(f.freqs, h, nodes)
    peak = np.max(np.abs(G))
    for block, expected in ((SS, G[:n, :n]), (SC, G[:n, n:]), (SC.T, G[n:, :n]),
                            (CC, G[n:, n:])):
        assert np.max(np.abs(block - expected)) <= 1e-14 * peak


@pytest.mark.parametrize("nodes", [64, 66, 98, 1000, 4094, 4096])
@pytest.mark.parametrize("n", range(1, 7))
def test_the_factored_gram_matches_the_gram_of_the_table(n, nodes):
    # the tail past the last full block holds 1 (4096), 3 (66, 98, 4094)
    # or 11 (1000) nodes
    assert_gram_matches_the_table(n, nodes, n)


@given(st.integers(1, 6), st.integers(32, 20000), st.integers(0, 2**16))
def test_the_factored_gram_matches_the_table_at_any_even_node_count(n, half, seed):
    assert_gram_matches_the_table(n, 2 * half, seed)


# ------------------------------------- the certificate's helpers, one numpy call at a time
# The helpers as they stood before they moved to Python floats, count_nonzero
# and one sin/cos table, and the certificate built from them: the library
# must keep their bits.


def reference_eigen_groups(values: np.ndarray, rtol: float) -> np.ndarray:
    """:func:`_eigen_groups` by ``argsort`` and a cumulative sum of the sorted gaps."""
    order = np.argsort(values)
    scale = max(1e-300, float(np.max(np.abs(values))))
    labels = np.empty(len(values), dtype=int)
    labels[order] = np.concatenate([[0], np.cumsum(np.diff(values[order]) > rtol * scale)])
    return labels


def reference_conditions(f, labels: np.ndarray, commensurate: bool) -> InstabilityConditions:
    """:func:`_conditions` with a boolean mask of the off-diagonal entries."""
    n = f.dim
    off = ~np.eye(n, dtype=bool)
    return InstabilityConditions(
        offdiagonal_nonzero=bool(n == 1 or np.all(f.Qa[off] != 0.0)),
        commensurate=commensurate,
        single_degenerate_group=bool(np.count_nonzero(np.bincount(labels) > 1) == 1),
    )


def reference_refuse_aliasing(nodes: int, ratios: tuple[int, ...]) -> None:
    """:func:`_refuse_aliasing` from the set of all ``2 n^2`` harmonics."""
    harmonics = sorted({abs(a + sign * b) for a in ratios for b in ratios for sign in (1, -1)} - {0})

    def aliased(count: int) -> list[int]:
        return [m for m in harmonics if m % (count // 2) == 0]

    if aliased(nodes):
        smallest = next(m for m in range(64, 2 * harmonics[-1] + 4, 2) if not aliased(m))
        raise ValueError(
            f"nodes = {nodes} aliases the harmonic {aliased(nodes)[0]} of the frequency "
            f"ratios; the smallest admissible count is {smallest}"
        )


def three_table_simpson_gram(lam: np.ndarray, h: float, nodes: int) -> np.ndarray:
    """:func:`_simpson_gram` from three ``sin``/``cos`` tables and twelve separate products."""
    n, third = len(lam), h / 3.0
    B = 2 * math.isqrt(nodes // 4)
    P = nodes // B

    def gram(angles, weights=None):
        X = np.concatenate([np.sin(angles), np.cos(angles)])
        G = (X if weights is None else X * weights) @ X.T
        return G[:n, :n], G[:n, n:], G[n:, :n], G[n:, n:]

    a_ss, a_sc, a_cs, a_cc = gram(np.multiply.outer(lam, np.arange(0, P * B, B) * h))
    f_ss, f_sc, f_cs, f_cc = gram(np.multiply.outer(lam, np.arange(B) * h),
                                  np.tile([2.0 * third, 4.0 * third], B // 2))
    tail = np.arange(P * B, nodes + 1)
    weights = np.where(tail % 2, 4.0 * third, 2.0 * third)
    weights[-1] = third
    t_ss, t_sc, _, t_cc = gram(np.multiply.outer(lam, tail * h), weights)

    SS = a_ss * f_cc + a_sc * f_cs + a_cs * f_sc + a_cc * f_ss + t_ss
    SC = a_sc * f_cc - a_ss * f_cs + a_cc * f_sc - a_cs * f_ss + t_sc
    CC = a_cc * f_cc - a_cs * f_cs - a_sc * f_sc + a_ss * f_ss + t_cc - third
    return np.array([SS, SC, CC])


def reference_certificate(f, nodes: int = 4096) -> CertificateReport:
    """:func:`instability_certificate` on the reference helpers, each average built apart."""
    nodes = _node_count(nodes)
    pr = _period(f)
    labels = reference_eigen_groups(f.freqs ** 2, DEGENERACY_RTOL)
    conditions = reference_conditions(f, labels, pr is not None)
    n, lam, P = f.dim, f.freqs, f.P
    Qt = P.T @ f.Qhat_a @ P
    same = labels[:, None] == labels[None, :]
    np.fill_diagonal(same, False)
    Qbar = np.where(same, Qt, 0.0)
    b1_bar = np.zeros((2 * n, 2 * n))
    b1_bar[:n, n:] = P @ (0.5 * (Qbar / (lam ** 2)[:, None])) @ P.T
    b1_bar[n:, :n] = P @ (0.5 * (-Qbar)) @ P.T
    closed = AveragedSystem(b1_bar=b1_bar, b2_bar=-0.5 * np.eye(2 * n))
    quad = gap = None
    if pr is not None:
        reference_refuse_aliasing(nodes, pr.ratios)
        SS, SC, CC = three_table_simpson_gram(lam, pr.period / nodes, nodes)
        inv = 1.0 / lam
        skew = np.array([-SC * inv[:, None], -SS * np.outer(inv, inv), CC, SC.T * inv])
        sc = SC.diagonal()
        damping = np.array([SS.diagonal(), -sc * inv, -lam * sc, CC.diagonal()])
        blocks = np.concatenate([P @ (Qt * skew), P * damping[:, None, :]]) @ P.T / -pr.period
        quad = AveragedSystem(*blocks.reshape(2, 2, 2, n, n).swapaxes(2, 3)
                              .reshape(2, 2 * n, 2 * n))
        gap = float(max(np.max(np.abs(closed.b1_bar - quad.b1_bar)),
                        np.max(np.abs(closed.b2_bar - quad.b2_bar))))
    floor = DEGENERACY_RTOL * f.alpha / (2.0 * float(np.min(f.freqs)))
    failed = conditions.failed()
    if not failed and closed.max_real_part <= floor:
        failed = ("positive_real_eigenvalue",)
    return CertificateReport(verdict="INCONCLUSIVE" if failed else "UNSTABLE-CERTIFIED",
                             conditions=conditions, failed=failed, period=pr, closed_form=closed,
                             quadrature=quad, quadrature_gap=gap)


def same_bits(x: np.ndarray, y: np.ndarray) -> bool:
    """Equal dtype, shape and bytes: ``array_equal`` that also tells ``-0.0`` from ``0.0``."""
    return x.dtype == y.dtype and x.shape == y.shape and x.tobytes() == y.tobytes()


@st.composite
def clustered_spectra(draw):
    """1 to 8 positive values with exact ties and chains near the grouping tolerance.

    A value is a fresh draw, a copy of an earlier one, or an earlier one
    moved by ``u`` times the tolerance ``rtol * max|values|``, ``u`` up to
    1.5 either way.  With ``rtol = 2**-28`` the values are dyadic, so a move
    by exactly the tolerance lands on it and tests the ``<=`` of the chain.
    """
    dyadic = draw(st.booleans())
    rtol = 2.0 ** -28 if dyadic else draw(st.sampled_from([DEGENERACY_RTOL, 1e-6]))
    fresh = st.integers(1, 2 ** 12).map(lambda k: k / 64.0) if dyadic else st.floats(0.01, 100.0)
    values = [draw(fresh)]
    for _ in range(draw(st.integers(0, 7))):
        kind = draw(st.sampled_from(["fresh", "tie", "chain"]))
        base = draw(st.sampled_from(values))
        if kind == "fresh":
            values.append(draw(fresh))
        elif kind == "tie":
            values.append(base)
        else:
            u = draw(st.sampled_from([0.5, 1.0, 1.5, -1.0]) if dyadic else st.floats(-1.5, 1.5))
            values.append(base + u * rtol * max(values))
    return np.array(draw(st.permutations(values))), rtol


@settings(max_examples=300)
@given(clustered_spectra())
@example((np.array([4.0, 1.0, 1.0 + 2.0 ** -26]), 2.0 ** -28))  # a gap of exactly the tolerance
@example((np.array([1.0, 1.0 + 6e-10, 1.0 + 1.2e-9, 1.0]), 1e-9))  # a chain with a tie
@example((np.array([2.5]), DEGENERACY_RTOL))
def test_the_eigenvalue_groups_are_the_argsort_groups(spectrum):
    values, rtol = spectrum
    assert same_bits(_eigen_groups(values, rtol), reference_eigen_groups(values, rtol))


@st.composite
def fields_with_zero_couplings(draw):
    """A field of dimension 1 to 8 whose skew part has exact zeros and tied frequencies."""
    n = draw(st.integers(1, 8))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 16)))
    R, _ = np.linalg.qr(rng.standard_normal((n, n)))
    Qs = R @ np.diag(draw(st.lists(st.integers(1, 4), min_size=n, max_size=n))) @ R.T
    K = np.triu(np.array(draw(st.lists(st.integers(-2, 2), min_size=n * n, max_size=n * n)),
                         dtype=float).reshape(n, n), 1)
    return helmholtz_split(10.0 * (Qs + Qs.T) + K - K.T)


@given(fields_with_zero_couplings(), st.booleans())
def test_the_conditions_are_the_masked_conditions(f, commensurate):
    labels = reference_eigen_groups(f.freqs ** 2, DEGENERACY_RTOL)
    assert _conditions(f, labels, commensurate) == reference_conditions(f, labels, commensurate)


def test_the_failed_conditions_are_the_false_fields_in_order():
    names = [c.name for c in dataclasses.fields(InstabilityConditions)]
    for flags in itertools.product([False, True], repeat=len(names)):
        assert InstabilityConditions(*flags).failed() == tuple(
            name for name, ok in zip(names, flags) if not ok)


@settings(max_examples=60)
@given(st.integers(1, 6), st.integers(32, _MAX_NODES // 2), st.integers(0, 2 ** 16))
@example(6, 32, 0)  # 64 nodes
@example(3, 33, 1)  # 66: a tail of 3 nodes past the last full block
@example(5, 500, 2)  # 1000: a tail of 11 nodes
@example(6, _MAX_NODES // 2, 3)  # the largest count: one tail node
@example(4, _MAX_NODES // 2 - 1, 4)  # a tail of 4095 nodes
def test_the_one_table_gram_has_the_bits_of_the_three_table_gram(n, half, seed):
    f = make_commensurate_field(seed, n)
    h = _period(f).period / (2 * half)
    assert same_bits(_simpson_gram(f.freqs, h, 2 * half),
                     three_table_simpson_gram(f.freqs, h, 2 * half))


def _gap_set() -> list:
    """The demo, the ten certify fields and the 200 fields of the quadrature-gap record."""
    rng = np.random.default_rng(0)
    seeds, dims = rng.integers(0, 2 ** 16, 200), rng.integers(2, 7, 200)
    return ([helmholtz_split(DEMO_Q)] + [make_commensurate_field(s, n) for s, n in CRITERION4_CASES]
            + [make_commensurate_field(s, n) for s, n in zip(seeds.tolist(), dims.tolist())])


def test_every_certificate_field_has_the_bits_of_the_reference_certificate():
    for k, f in enumerate(_gap_set()):
        got, want = instability_certificate(f), reference_certificate(f)
        for field in dataclasses.fields(CertificateReport):
            x, y = getattr(got, field.name), getattr(want, field.name)
            if isinstance(y, AveragedSystem):
                assert same_bits(x.b1_bar, y.b1_bar) and same_bits(x.b2_bar, y.b2_bar), (k, field)
            else:
                assert type(x) is type(y) and x == y, (k, field.name, x, y)
        assert same_bits(got.spectrum, want.spectrum), k


def _spy(monkeypatch, module, names, calls):
    for name in names:
        spied = getattr(module, name)
        monkeypatch.setattr(module, name,
                            lambda *a, _f=spied, _n=name, **k: calls.append(_n) or _f(*a, **k))


def test_certificate_builds_its_shared_inputs_once(monkeypatch):
    # the drift spectrum comes with the field: the certificate diagonalizes nothing
    f = helmholtz_split(DEMO_Q)
    calls = []
    _spy(monkeypatch, averaging, ("_period", "_conditions", "_eigen_groups"), calls)
    _spy(monkeypatch, np.linalg, ("eigvals", "eig", "eigh", "eigvalsh"), calls)
    report = instability_certificate(f)
    assert report.quadrature is not None
    assert report.spectrum is report.closed_form.spectrum
    assert sorted(calls) == ["_conditions", "_eigen_groups", "_period", "eigvals"]


def test_the_closed_form_needs_no_period(monkeypatch):
    # normalized symmetric part diag(1/2, 1): drift frequencies 1/sqrt(2) and 1
    f = helmholtz_split(np.array([[1.0, 0.3], [-0.3, 2.0]]))
    calls = []
    _spy(monkeypatch, averaging, ("_period",), calls)
    closed = average_closed_form(f)
    assert calls == []
    assert np.array_equal(closed.b1_bar, instability_certificate(f).closed_form.b1_bar)


def test_the_averaged_spectrum_is_computed_once_on_demand(monkeypatch):
    avg = average_closed_form(helmholtz_split(DEMO_Q))
    expected = np.sort_complex(np.linalg.eigvals(avg.b1_bar))
    calls = []
    _spy(monkeypatch, np.linalg, ("eigvals",), calls)
    assert np.array_equal(avg.spectrum, expected)
    assert avg.spectrum is avg.spectrum
    assert avg.max_real_part == float(np.max(avg.spectrum.real))
    assert calls == ["eigvals"]


# ---------------------------------------------------------------- averages


def test_demo_field_averaged_matrices_and_spectrum():
    # frozen from the quadrature oracle (cross-checked against dense expm
    # averaging): the averaged skew block couples the two position/momentum
    # planes with weight 1/2, giving a real eigenvalue pair at +/- 1/4
    f = helmholtz_split(DEMO_Q)
    quad = instability_certificate(f, nodes=4096).quadrature
    expected = np.zeros((4, 4))
    expected[:2, 2:] = 0.5 * np.array([[0.0, 0.5], [-0.5, 0.0]])
    expected[2:, :2] = -expected[:2, 2:]
    assert np.max(np.abs(quad.b1_bar - expected)) < 1e-12
    assert quad.max_real_part == pytest.approx(0.25, abs=1e-9)
    reals = np.sort(quad.spectrum.real)
    assert np.allclose(reals, [-0.25, -0.25, 0.25, 0.25], atol=1e-9)
    assert np.allclose(quad.spectrum.imag, 0.0, atol=1e-9)


@pytest.mark.parametrize("seed,n", [(0, 2), (1, 4), (2, 6), (3, 4)])
def test_damping_block_averages_to_minus_half_identity(seed, n):
    f = make_commensurate_field(seed, n)
    quad = instability_certificate(f, nodes=4096).quadrature
    assert np.max(np.abs(quad.b2_bar + 0.5 * np.eye(2 * n))) < 1e-8


@pytest.mark.parametrize("seed,n", [(0, 2), (1, 4), (2, 6), (5, 3), (8, 5)])
def test_closed_form_matches_quadrature(seed, n):
    f = make_commensurate_field(seed, n)
    quad = instability_certificate(f, nodes=4096).quadrature
    closed = average_closed_form(f)
    assert np.max(np.abs(closed.b1_bar - quad.b1_bar)) < 1e-6
    assert np.max(np.abs(closed.b2_bar - quad.b2_bar)) < 1e-6


def test_no_rotation_part_averages_to_zero():
    f = helmholtz_split(100.0 * np.eye(2))
    quad = instability_certificate(f, nodes=512).quadrature
    assert np.max(np.abs(quad.b1_bar)) < 1e-12
    assert average_closed_form(f).max_real_part == pytest.approx(0.0, abs=1e-12)


def test_distinct_eigenvalues_kill_the_averaged_skew_block():
    # commensurate but non-degenerate spectrum: every cross entry vanishes
    Qs = np.diag([36.0, 16.0, 4.0])  # freqs 3, 2, 1 after normalization
    skew = np.array([[0.0, 1.0, -2.0], [-1.0, 0.0, 0.5], [2.0, -0.5, 0.0]])
    f = helmholtz_split(Qs + skew)
    closed = average_closed_form(f)
    assert np.max(np.abs(closed.b1_bar)) < 1e-12
    quad = instability_certificate(f, nodes=4096).quadrature
    assert np.max(np.abs(quad.b1_bar)) < 1e-8


def dense_expm_average(f, nodes: int) -> tuple[np.ndarray, np.ndarray]:
    """Simpson average of ``expm(-A s) B expm(A s)`` over one drift period.

    An oracle for the certificate's quadrature that never enters the drift
    eigenbasis: ``A`` and both perturbation blocks are built from the
    normalized field, every exponential is a dense ``scipy.linalg.expm``,
    and the period is checked to close the drift orbit.
    """
    n = f.dim
    Qhat_s, Qhat_a = reference_normalize(f)
    A = np.block([[np.zeros((n, n)), np.eye(n)], [-Qhat_s, np.zeros((n, n))]])
    T = _period(f).period
    assert np.max(np.abs(expm(A * T) - np.eye(2 * n))) < 1e-10
    s = np.linspace(0.0, T, nodes + 1)
    w = np.full(nodes + 1, 2.0)
    w[1::2] = 4.0
    w[0] = w[-1] = 1.0
    w *= (T / nodes) / 3.0
    b1 = np.zeros((2 * n, 2 * n))
    b1[n:, :n] = -Qhat_a
    b2 = np.zeros((2 * n, 2 * n))
    b2[n:, n:] = -np.eye(n)
    flows = [(wk, expm(-A * sk), expm(A * sk)) for wk, sk in zip(w, s)]
    b1_bar, b2_bar = (sum(wk * E_neg @ b @ E_pos for wk, E_neg, E_pos in flows) / T
                      for b in (b1, b2))
    return b1_bar, b2_bar


@pytest.mark.parametrize("field", [
    helmholtz_split(DEMO_Q), make_commensurate_field(1, 4), make_commensurate_field(8, 6),
], ids=["demo", "seed1-n4", "seed8-n6"])
def test_quadrature_matches_dense_expm_averaging(field):
    b1_ref, b2_ref = dense_expm_average(field, nodes=256)
    quad = instability_certificate(field, nodes=256).quadrature
    assert np.max(np.abs(quad.b1_bar - b1_ref)) < 1e-12
    assert np.max(np.abs(quad.b2_bar - b2_ref)) < 1e-12


def reference_quadrature(f, nodes: int = 4096, dtype=float) -> tuple[np.ndarray, np.ndarray]:
    """The two-Gram Simpson sums: ``1/lam`` and ``lam`` applied to the samples.

    ``L = [-sin/lam, cos]`` is weighted and paired with the sampled rows
    ``[cos, sin/lam]`` and ``[-lam sin, cos]`` of ``exp(A s)``, one Gram
    matrix for each block, then conjugated by ``diag(P, P)``.  The float
    inputs (frequencies, period, eigenbasis and ``Qhat_a``) are converted
    to ``dtype`` once, and everything after runs in ``dtype``.
    """
    gen = reference_drift_generator(f)
    pr = _period(f)
    nodes = _node_count(nodes)
    lam, T, P = gen.freqs.astype(dtype), dtype(pr.period), gen.P.astype(dtype)
    s = np.linspace(dtype(0.0), T, nodes + 1)
    phase = np.multiply.outer(s, lam)
    c, sin = np.cos(phase), np.sin(phase)
    sin_over, minus_lam_sin = sin / lam, -(lam * sin)
    w = np.full(nodes + 1, 2.0, dtype=dtype)
    w[1::2] = 4.0
    w[0] = w[-1] = 1.0
    w *= (T / nodes) / 3.0
    left = w[:, None] * np.concatenate([-sin_over, c], axis=1)
    gram1 = left.T @ np.concatenate([c, sin_over], axis=1)
    gram2 = left.T @ np.concatenate([minus_lam_sin, c], axis=1)
    Phat = np.kron(np.eye(2, dtype=dtype), P)
    Qt = P.T @ reference_normalize(f)[1].astype(dtype) @ P
    b1_bar = -(Phat @ (np.tile(Qt, (2, 2)) * gram1) @ Phat.T) / T
    b2_bar = -(Phat @ (np.tile(np.eye(f.dim, dtype=dtype), (2, 2)) * gram2) @ Phat.T) / T
    return b1_bar, b2_bar


def reference_quadrature_longdouble(f, nodes: int = 4096) -> tuple[np.ndarray, np.ndarray]:
    """:func:`reference_quadrature` in ``np.longdouble`` (80-bit on x86).

    The same float inputs are sampled, weighted and summed with about three
    more decimal digits than float arithmetic keeps.
    """
    return reference_quadrature(f, nodes, dtype=np.longdouble)


def assert_matches_reference_quadrature(f):
    # both blocks within 1e-14 of the larger peak entry (b2_bar's is 1/2)
    b1_ref, b2_ref = reference_quadrature(f)
    quad = instability_certificate(f).quadrature
    peak = max(np.max(np.abs(b1_ref)), np.max(np.abs(b2_ref)))
    assert np.max(np.abs(quad.b1_bar - b1_ref)) <= 1e-14 * peak
    assert np.max(np.abs(quad.b2_bar - b2_ref)) <= 1e-14 * peak


CRITERION4_CASES = [(0, 2), (1, 2), (2, 2), (3, 4), (4, 4), (5, 4), (9, 4),
                    (2, 6), (7, 6), (8, 6)]


@pytest.mark.parametrize("seed,n", CRITERION4_CASES)
def test_one_gram_quadrature_matches_the_two_gram_sums(seed, n):
    assert_matches_reference_quadrature(make_commensurate_field(seed, n))


def test_one_gram_quadrature_matches_the_two_gram_sums_on_the_demo():
    assert_matches_reference_quadrature(helmholtz_split(DEMO_Q))


# Twice the largest deviation of the quadrature from the long-double sum
# over 200 random commensurate fields (seeds and n = 2..6 drawn from
# default_rng(0)): 3.23e-15, at make_commensurate_field(7814, 3).
LONGDOUBLE_BOUND = 2 * 3.23e-15


@pytest.mark.parametrize("field", [helmholtz_split(DEMO_Q)] + [
    make_commensurate_field(seed, n) for seed, n in CRITERION4_CASES
], ids=["demo"] + [f"seed{seed}-n{n}" for seed, n in CRITERION4_CASES])
def test_quadrature_matches_the_long_double_simpson_sum(field):
    b1_ref, b2_ref = reference_quadrature_longdouble(field)
    quad = instability_certificate(field).quadrature
    assert np.max(np.abs(quad.b1_bar - b1_ref)) <= LONGDOUBLE_BOUND
    assert np.max(np.abs(quad.b2_bar - b2_ref)) <= LONGDOUBLE_BOUND


def test_quadrature_memory_grows_with_the_square_root_of_the_node_count():
    # a table of all samples would take 2n (nodes + 1) doubles, 400 MB here
    f = make_commensurate_field(2, 6)
    tracemalloc.start()
    try:
        instability_certificate(f, nodes=_MAX_NODES)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4 * 2 ** 20


def test_eigenvalue_groups_chain_and_the_closed_form_keeps_the_whole_chain():
    # 1, 1 + 6e-10, 1 + 1.2e-9: neighbours lie within the tolerance 1e-9,
    # the outer pair does not, and chaining puts all three in one group
    q = np.array([1.0, 1.0 + 6e-10, 1.0 + 1.2e-9])
    assert _eigen_groups(q, 1e-9).tolist() == [0, 0, 0]
    assert _eigen_groups(q[::-1], 1e-9).tolist() == [0, 0, 0]
    assert _eigen_groups(q, 5e-10).tolist() == [0, 1, 2]
    skew = np.array([[0.0, 1.0, -2.0], [-1.0, 0.0, 0.5], [2.0, -0.5, 0.0]])
    f = helmholtz_split(100.0 * np.diag(q) + skew)
    closed = average_closed_form(f)
    assert instability_certificate(f).conditions.single_degenerate_group
    P = f.P
    Qt = P.T @ f.Qhat_a @ P
    lower = P.T @ closed.b1_bar[3:, :3] @ P
    assert np.max(np.abs(lower + 0.5 * (Qt - np.diag(np.diag(Qt))))) < 1e-12
    assert abs(lower[0, 2]) > 0.1 * abs(Qt[0, 2]) > 0.0


@st.composite
def commensurate_fields(draw):
    return make_commensurate_field(draw(st.integers(0, 2**16)), draw(st.integers(2, 6)))


@given(commensurate_fields())
def test_closed_form_equals_quadrature_on_random_fields(f):
    quad = instability_certificate(f).quadrature
    closed = average_closed_form(f)
    assert np.max(np.abs(closed.b1_bar - quad.b1_bar)) < 1e-9
    assert np.max(np.abs(closed.b2_bar - quad.b2_bar)) < 1e-9


@given(commensurate_fields())
def test_one_gram_quadrature_matches_the_two_gram_sums_on_random_fields(f):
    assert_matches_reference_quadrature(f)


@given(commensurate_fields())
def test_averaged_spectrum_is_plus_minus_symmetric_on_random_fields(f):
    spec = np.sort_complex(average_closed_form(f).spectrum)
    assert np.max(np.abs(spec - np.sort_complex(-spec))) < 1e-9


@given(commensurate_fields(), st.integers(0, 2**16), st.floats(0.01, 100.0))
def test_max_real_part_under_rotation_and_scaling(f, seed, c):
    # rotating Q rotates B1_bar by diag(R, R) and keeps its spectrum; scaling
    # Q by c scales Qhat_a = Qa / sqrt(ell_j), hence B1_bar, by sqrt(c).  The
    # verdict is not rotation-invariant: condition (i) reads the entries of
    # Qa in the given basis.
    rho = average_closed_form(f).max_real_part
    R, _ = np.linalg.qr(np.random.default_rng(seed).standard_normal((f.dim, f.dim)))
    rotated = average_closed_form(helmholtz_split(R @ f.Q @ R.T))
    assert rotated.max_real_part == pytest.approx(rho, abs=1e-9)
    scaled = average_closed_form(helmholtz_split(c * f.Q))
    assert scaled.max_real_part == pytest.approx(np.sqrt(c) * rho, abs=1e-9)


@pytest.mark.parametrize("seed,n", [(0, 2), (4, 4)])
def test_spectrum_is_plus_minus_symmetric(seed, n):
    f = make_commensurate_field(seed, n)
    spec = average_closed_form(f).spectrum
    flipped = np.sort_complex(-spec)
    assert np.max(np.abs(np.sort_complex(spec) - flipped)) < 1e-9


def test_spectrum_invariant_under_the_drift_eigenbasis():
    f = make_commensurate_field(7, 4)
    closed = average_closed_form(f)
    Phat = np.kron(np.eye(2), f.P)
    rotated = Phat.T @ closed.b1_bar @ Phat
    a = np.sort_complex(np.linalg.eigvals(rotated))
    b = np.sort_complex(closed.spectrum)
    assert np.max(np.abs(a - b)) < 1e-9


# ---------------------------------------------------------------- slow system


def test_average_tracks_pullback_on_the_demo_field():
    f = helmholtz_split(DEMO_Q)
    z = integrate_pullback(f, Y0, T0=0.1, s_end=10.0, h=1e-3)
    zeta = integrate_average(f, Y0, T0=0.1, s_end=10.0, h=1e-3)
    gap = np.linalg.norm(z.states - zeta.states, axis=1)
    # measured: 0.079 overall (transient-dominated), 0.021 past tau = 0.5
    assert gap.max() <= 0.12
    tau = 0.1 + 0.1 * z.times
    assert gap[tau >= 0.5].max() <= 0.03


def test_average_error_scales_linearly_past_the_transient():
    maxima = []
    for ell_j in (100.0, 400.0):
        skew = 0.5 * np.sqrt(ell_j)
        f = helmholtz_split([[ell_j, skew], [-skew, ell_j]])
        eps = ell_j ** -0.5
        z = integrate_pullback(f, Y0, T0=0.1, s_end=1.0 / eps, h=1e-3)
        zeta = integrate_average(f, Y0, T0=0.1, s_end=1.0 / eps, h=1e-3)
        gap = np.linalg.norm(z.states - zeta.states, axis=1)
        tau = eps * z.times + 0.1
        maxima.append(gap[tau >= 0.5].max())
    assert 1.5 <= maxima[0] / maxima[1] <= 2.5


def test_average_has_the_pullback_rate_at_the_end_of_a_long_horizon():
    """The averaged rate must match the pull-back's, not just its transient.

    Over s in [0, 100] the slow clock advances by d_tau = eps * 100 = 10, so
    a wrong averaged growth rate compounds: the demo's rate 0.25 against a
    wrong 0.25 * sqrt(2) = 0.354 separates the two solutions by a factor
    exp(10 * 0.104) ~ 2.8 at the end.  Measured end gap: 0.157 of |z|; it
    reads 1.8 with b1_bar scaled by sqrt(2) and 0.32 scaled by 1.1.
    """
    f = helmholtz_split(DEMO_Q)
    z = integrate_pullback(f, Y0, T0=1.0, s_end=100.0, h=2e-2)
    zeta = integrate_average(f, Y0, T0=1.0, s_end=100.0, h=2e-2)
    end_gap = np.linalg.norm(z.states[-1] - zeta.states[-1]) / np.linalg.norm(z.states[-1])
    assert end_gap <= 0.25


def monodromy_rates(f) -> np.ndarray:
    """Sorted Floquet rates ``log|mu| / (period eps)`` of the undamped pull-back.

    With ``T0 = inf`` the pulled-back system ``z' = eps C(s) z`` has the
    drift period, so its monodromy matrix holds the states after one period
    from the unit vectors; by first-order averaging the rates are the real
    parts of the spectrum of ``b1_bar`` up to O(eps^2).
    """
    T = _period(f).period
    columns = [integrate_pullback(f, e, T0=np.inf, s_end=T, h=T / 1000).states[-1]
               for e in np.eye(2 * f.dim)]
    mu = np.linalg.eigvals(np.column_stack(columns))
    return np.sort(np.log(np.abs(mu)) / (T * f.ell_j ** -0.5))


# Q, eps, alpha: the Floquet gap to the averaged rates is about alpha^3 eps^2 / 16
FLOQUET_FIELDS = [
    ([[25.0, 2.5], [-2.5, 25.0]], 0.2, 0.5),
    (DEMO_Q, 0.1, 0.5),
    ([[400.0, 10.0], [-10.0, 400.0]], 0.05, 0.5),
    ([[1600.0, 20.0], [-20.0, 1600.0]], 0.025, 0.5),
    ([[100.0, 20.0], [-20.0, 100.0]], 0.1, 2.0),
]


@pytest.mark.parametrize("Q, eps, alpha", FLOQUET_FIELDS,
                         ids=["eps0.2", "demo", "eps0.05", "eps0.025", "alpha2"])
def test_floquet_rates_match_the_averaged_spectrum(Q, eps, alpha):
    f = helmholtz_split(Q)
    rates = monodromy_rates(f)
    averaged = np.sort(average_closed_form(f).spectrum.real)
    gap = np.max(np.abs(rates - averaged))
    assert 0.05 <= gap / (alpha ** 3 * eps ** 2) <= 0.07
    # rates pair up as +/- and each sign has multiplicity 2
    assert np.allclose(rates, -rates[::-1], rtol=0.0, atol=1e-9 * alpha)
    assert np.allclose(rates[[0, 2]], rates[[1, 3]], rtol=0.0, atol=1e-9 * alpha)


def test_average_pure_damping_contracts():
    f = helmholtz_split(100.0 * np.eye(2))
    zeta = integrate_average(f, Y0, T0=0.1, s_end=20.0, h=1e-3)
    norms = np.linalg.norm(zeta.states, axis=1)
    assert np.all(np.diff(norms) <= 0.0)


def test_average_zero_start_stays_zero():
    zeta = integrate_average(helmholtz_split(DEMO_Q), np.zeros(4), T0=0.1, s_end=5.0, h=1e-3)
    assert np.max(np.abs(zeta.states)) == 0.0


# ---------------------------------------------------------------- certificate


def test_demo_field_is_certified_unstable():
    report = instability_certificate(helmholtz_split(DEMO_Q))
    assert report.verdict == "UNSTABLE-CERTIFIED"
    assert report.conditions.failed() == ()
    assert report.max_real_part == pytest.approx(0.25, abs=1e-9)
    assert report.quadrature_gap is not None and report.quadrature_gap < 1e-9


def test_symmetric_field_fails_offdiagonal_hypothesis():
    report = instability_certificate(helmholtz_split(np.diag([100.0, 100.0])))
    assert report.verdict == "INCONCLUSIVE"
    assert "offdiagonal_nonzero" in report.failed


def test_nondegenerate_spectrum_fails_multiplicity_hypothesis():
    Qs = np.diag([1.0, 2.0, 3.0])
    skew = np.array([[0.0, 0.2, -0.1], [-0.2, 0.0, 0.15], [0.1, -0.15, 0.0]])
    report = instability_certificate(helmholtz_split(Qs + skew))
    assert report.verdict == "INCONCLUSIVE"
    assert "single_degenerate_group" in report.failed


def test_three_dimensional_field_with_one_degenerate_pair_is_certified():
    # frequencies (1, 2, 2) after normalization; the rotation restricted to
    # the degenerate plane has imaginary pair +/- 0.15i, so the averaged
    # block gains the real pair +/- 0.15/2 (frozen from the quadrature
    # oracle, which agrees with the closed form to rounding)
    Qs = np.diag([25.0, 100.0, 100.0])
    skew = np.array([[0.0, 2.0, -1.0], [-2.0, 0.0, 1.5], [1.0, -1.5, 0.0]])
    report = instability_certificate(helmholtz_split(Qs + skew))
    assert report.verdict == "UNSTABLE-CERTIFIED"
    assert report.period is not None and report.period.ratios == (1, 2, 2)
    assert report.max_real_part == pytest.approx(0.075, abs=1e-9)
    assert report.quadrature_gap < 1e-9


def zero_block_field(seed: int, a: float, b: float):
    """A 3-dim field meeting all three hypotheses whose exact ``b1_bar`` is zero.

    ``Qs = R diag(25, 25, 100) Rᵀ`` and ``Qa = R K Rᵀ`` for a random
    rotation R and a skew K with ``K[0, 1] = 0``: only entries joining the
    degenerate pair survive averaging, and K has none.
    """
    R, _ = np.linalg.qr(np.random.default_rng(seed).standard_normal((3, 3)))
    K = np.array([[0.0, 0.0, a], [0.0, 0.0, b], [-a, -b, 0.0]])
    return helmholtz_split(R @ (np.diag([25.0, 25.0, 100.0]) + K) @ R.T)


def test_a_rounding_residue_of_a_zero_block_is_not_certified():
    report = instability_certificate(zero_block_field(0, 0.7, -0.4))
    assert report.conditions.failed() == ()
    assert 0.0 < report.max_real_part < 1e-14
    assert report.verdict == "INCONCLUSIVE"
    assert report.failed == ("positive_real_eigenvalue",)


@given(seed=st.integers(0, 2 ** 32 - 1), a=st.floats(0.05, 1.0), b=st.floats(-1.0, -0.05))
def test_a_zero_averaged_block_is_never_certified(seed, a, b):
    report = instability_certificate(zero_block_field(seed, a, b))
    assert report.conditions.failed() == ()
    assert report.max_real_part < 1e-14
    assert (report.verdict, report.failed) == ("INCONCLUSIVE", ("positive_real_eigenvalue",))


def test_incommensurate_spectrum_fails_without_raising():
    Qs = np.diag([1.0, 2.0, 2.0])  # freqs 1, sqrt(2), sqrt(2): ratio irrational
    skew = 0.1 * np.array([[0.0, 1.0, 1.0], [-1.0, 0.0, 1.0], [-1.0, -1.0, 0.0]])
    report = instability_certificate(helmholtz_split(Qs + skew))
    assert report.verdict == "INCONCLUSIVE"
    assert "commensurate" in report.failed
    assert report.quadrature is None
    assert report.period is None
