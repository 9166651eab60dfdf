import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from scipy.linalg import expm

from nestode.averaging import (
    NotCommensurateError,
    _eigen_groups,
    average_closed_form,
    average_quadrature,
    instability_certificate,
    integrate_average,
    period,
)
from nestode.fields import helmholtz_split, normalize
from nestode.odesim import drift_generator, integrate_pullback

from conftest import DEMO_Q, make_commensurate_field

Y0 = np.array([0.1, -0.1, 0.0, 0.0])


# ---------------------------------------------------------------- period


def test_period_isotropic_drift():
    pr = period(drift_generator(helmholtz_split(DEMO_Q)))
    assert pr.omega0 == pytest.approx(1.0)
    assert pr.period == pytest.approx(2.0 * np.pi)
    assert pr.ratios == (1, 1)


def test_period_integer_frequency_pair():
    pr = period(drift_generator(np.diag([1.0, 4.0])))
    assert pr.omega0 == pytest.approx(1.0)
    assert pr.period == pytest.approx(2.0 * np.pi)
    assert pr.ratios == (1, 2)


def test_period_half_integer_base():
    pr = period(drift_generator(np.diag([0.25, 1.0, 2.25])))  # freqs 0.5, 1, 1.5
    assert pr.omega0 == pytest.approx(0.5)
    assert pr.ratios == (1, 2, 3)


def test_period_rejects_irrational_ratio():
    with pytest.raises(NotCommensurateError):
        period(drift_generator(np.diag([1.0, 2.0])))  # freqs 1, sqrt(2)


def test_period_respects_the_denominator_budget():
    gen = drift_generator(np.diag([(64.0 / 65.0) ** 2, 1.0]))  # ratio 65/64
    pr = period(gen, max_denominator=64)
    assert pr.ratios == (64, 65)
    with pytest.raises(NotCommensurateError):
        period(gen, max_denominator=32)


def test_quadrature_rounds_odd_node_counts_up():
    f = helmholtz_split(DEMO_Q)
    odd = average_quadrature(f, nodes=101)
    even = average_quadrature(f, nodes=102)
    assert np.array_equal(odd.b1_bar, even.b1_bar)


# ---------------------------------------------------------------- averages


def test_demo_field_averaged_matrices_and_spectrum():
    # frozen from the quadrature oracle (cross-checked against dense expm
    # averaging): the averaged skew block couples the two position/momentum
    # planes with weight 1/2, giving a real eigenvalue pair at +/- 1/4
    f = helmholtz_split(DEMO_Q)
    quad = average_quadrature(f, nodes=4096)
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
    quad = average_quadrature(f, nodes=4096)
    assert np.max(np.abs(quad.b2_bar + 0.5 * np.eye(2 * n))) < 1e-8


@pytest.mark.parametrize("seed,n", [(0, 2), (1, 4), (2, 6), (5, 3), (8, 5)])
def test_closed_form_matches_quadrature(seed, n):
    f = make_commensurate_field(seed, n)
    quad = average_quadrature(f, nodes=4096)
    closed = average_closed_form(f)
    assert np.max(np.abs(closed.b1_bar - quad.b1_bar)) < 1e-6
    assert np.max(np.abs(closed.b2_bar - quad.b2_bar)) < 1e-6


def test_no_rotation_part_averages_to_zero():
    f = helmholtz_split(100.0 * np.eye(2))
    quad = average_quadrature(f, nodes=512)
    assert np.max(np.abs(quad.b1_bar)) < 1e-12
    assert average_closed_form(f).max_real_part == pytest.approx(0.0, abs=1e-12)


def test_distinct_eigenvalues_kill_the_averaged_skew_block():
    # commensurate but non-degenerate spectrum: every cross entry vanishes
    Qs = np.diag([36.0, 16.0, 4.0])  # freqs 3, 2, 1 after normalization
    skew = np.array([[0.0, 1.0, -2.0], [-1.0, 0.0, 0.5], [2.0, -0.5, 0.0]])
    f = helmholtz_split(Qs + skew)
    closed = average_closed_form(f)
    assert np.max(np.abs(closed.b1_bar)) < 1e-12
    quad = average_quadrature(f, nodes=4096)
    assert np.max(np.abs(quad.b1_bar)) < 1e-8


def dense_expm_average(f, nodes: int) -> tuple[np.ndarray, np.ndarray]:
    """Simpson average of ``expm(-A s) B expm(A s)`` over one drift period.

    An oracle for :func:`average_quadrature` that never enters the drift
    eigenbasis: ``A`` and both perturbation blocks are built from the
    normalized field, every exponential is a dense ``scipy.linalg.expm``,
    and the period is checked to close the drift orbit.
    """
    n = f.dim
    Qhat_s, Qhat_a = normalize(f)
    A = np.block([[np.zeros((n, n)), np.eye(n)], [-Qhat_s, np.zeros((n, n))]])
    T = period(drift_generator(f)).period
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
    quad = average_quadrature(field, nodes=256)
    assert np.max(np.abs(quad.b1_bar - b1_ref)) < 1e-12
    assert np.max(np.abs(quad.b2_bar - b2_ref)) < 1e-12


def test_eigenvalue_groups_chain_and_the_closed_form_keeps_the_whole_chain():
    # 1, 1 + 6e-10, 1 + 1.2e-9: neighbours lie within the tolerance 1e-9,
    # the outer pair does not, and chaining puts all three in one group
    q = np.array([1.0, 1.0 + 6e-10, 1.0 + 1.2e-9])
    assert _eigen_groups(q, 1e-9).tolist() == [0, 0, 0]
    assert _eigen_groups(q[::-1], 1e-9).tolist() == [0, 0, 0]
    assert _eigen_groups(q, 5e-10).tolist() == [0, 1, 2]
    skew = np.array([[0.0, 1.0, -2.0], [-1.0, 0.0, 0.5], [2.0, -0.5, 0.0]])
    f = helmholtz_split(100.0 * np.diag(q) + skew)
    closed = average_closed_form(f, degeneracy_tol=1e-9)
    assert closed.conditions.single_degenerate_group
    P = drift_generator(f).P
    _, Qhat_a = normalize(f)
    Qt = P.T @ Qhat_a @ P
    lower = P.T @ closed.b1_bar[3:, :3] @ P
    assert np.max(np.abs(lower + 0.5 * (Qt - np.diag(np.diag(Qt))))) < 1e-12
    assert abs(lower[0, 2]) > 0.1 * abs(Qt[0, 2]) > 0.0


@st.composite
def commensurate_fields(draw):
    return make_commensurate_field(draw(st.integers(0, 2**16)), draw(st.integers(2, 6)))


@given(commensurate_fields())
def test_closed_form_equals_quadrature_on_random_fields(f):
    quad = average_quadrature(f)
    closed = average_closed_form(f)
    assert np.max(np.abs(closed.b1_bar - quad.b1_bar)) < 1e-9
    assert np.max(np.abs(closed.b2_bar - quad.b2_bar)) < 1e-9


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
    gen = drift_generator(f)
    Phat = np.kron(np.eye(2), gen.P)
    rotated = Phat.T @ closed.b1_bar @ Phat
    a = np.sort_complex(np.linalg.eigvals(rotated))
    b = np.sort_complex(closed.spectrum)
    assert np.max(np.abs(a - b)) < 1e-9


# ---------------------------------------------------------------- slow system


def test_average_tracks_pullback_on_the_demo_field():
    f = helmholtz_split(DEMO_Q)
    z = integrate_pullback(f, Y0, T0=0.1, s_end=10.0, h=1e-3)
    avg = average_closed_form(f)
    zeta = integrate_average(avg, Y0, T0=0.1, epsilon=0.1, s_end=10.0, h=1e-3)
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
        zeta = integrate_average(average_closed_form(f), Y0, T0=0.1,
                                 epsilon=eps, s_end=1.0 / eps, h=1e-3)
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
    zeta = integrate_average(average_closed_form(f), Y0, T0=1.0, epsilon=0.1,
                             s_end=100.0, h=2e-2)
    end_gap = np.linalg.norm(z.final_state - zeta.final_state) / np.linalg.norm(z.final_state)
    assert end_gap <= 0.25


def test_average_pure_damping_contracts():
    f = helmholtz_split(100.0 * np.eye(2))
    avg = average_closed_form(f)
    zeta = integrate_average(avg, Y0, T0=0.1, epsilon=0.1, s_end=20.0, h=1e-3)
    norms = np.linalg.norm(zeta.states, axis=1)
    assert np.all(np.diff(norms) <= 0.0)


def test_average_zero_start_stays_zero():
    avg = average_closed_form(helmholtz_split(DEMO_Q))
    zeta = integrate_average(avg, np.zeros(4), T0=0.1, epsilon=0.1,
                             s_end=5.0, h=1e-3)
    assert np.max(np.abs(zeta.states)) == 0.0


# ---------------------------------------------------------------- certificate


def test_demo_field_is_certified_unstable():
    report = instability_certificate(helmholtz_split(DEMO_Q))
    assert report.verdict == "UNSTABLE-CERTIFIED"
    assert report.certified
    assert report.conditions.all_hold
    assert report.max_real_part == pytest.approx(0.25, abs=1e-9)
    assert report.quadrature_gap is not None and report.quadrature_gap < 1e-9
    text = report.to_text()
    assert "verdict: UNSTABLE-CERTIFIED" in text
    assert "max_real_part" in text


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


def test_incommensurate_spectrum_fails_without_raising():
    Qs = np.diag([1.0, 2.0, 2.0])  # freqs 1, sqrt(2), sqrt(2): ratio irrational
    skew = 0.1 * np.array([[0.0, 1.0, 1.0], [-1.0, 0.0, 1.0], [-1.0, -1.0, 0.0]])
    report = instability_certificate(helmholtz_split(Qs + skew))
    assert report.verdict == "INCONCLUSIVE"
    assert "commensurate" in report.failed
    assert report.quadrature is None
    assert report.period is None
