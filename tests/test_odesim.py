import math
import re
import warnings

import numpy as np
import pytest
import scipy.integrate
import scipy.linalg
from hypothesis import example, given
from hypothesis import strategies as st

from nestode import odesim
from nestode.averaging import average_closed_form, instability_certificate, integrate_average
from nestode.fields import GeneralField, helmholtz_split
from nestode.hybrid import RestartConfig, simulate_hybrid
from nestode.odesim import (
    _BLOCK,
    _CHUNK,
    _MAX_STEPS,
    OdeTrajectory,
    _affine_stage,
    _apply_steps,
    _flow_t,
    _oscillator_stage,
    _rk4,
    _rk4_linear,
    exp_drift,
    integrate_drift,
    integrate_nesterov_t,
    integrate_pullback,
    integrate_scaled_y,
    variation_of_constants_check,
)

from conftest import (
    BESSEL_PROTOTYPE,
    BESSEL_STEPS,
    DEMO_Q,
    bessel_flow,
    drift_matrix,
    generic_rk4,
    make_commensurate_field,
    reference_drift_generator,
    reference_exp_drift,
    reference_normalize,
    reference_general_rk4,
    reference_pullback_stage,
)

Y0 = np.array([0.1, -0.1, 0.0, 0.0])


# ---------------------------------------------------------------- original time


def test_conservative_run_keeps_quadratic_rate_envelope():
    f = helmholtz_split(100.0 * np.eye(2))  # conservative: no rotation part
    traj = integrate_nesterov_t(f, x0=[1.0, -1.0], v0=[0.0, 0.0],
                                T0=0.1, eta=1.0, t_end=10.0, h=1e-3)
    assert not traj.blown_up
    x = traj.states[:, :2]
    gaps = 0.5 * np.einsum("mi,ij,mj->m", x, f.Qs, x)
    t = traj.times
    sel = t >= 1.0
    envelope = t[sel] ** 2 * gaps[sel]
    assert envelope.max() <= 10.0 * envelope[0]
    assert gaps[-1] < gaps[0]


def test_equilibrium_is_invariant():
    f = helmholtz_split(DEMO_Q)
    traj = integrate_nesterov_t(f, x0=[0.0, 0.0], v0=[0.0, 0.0],
                                T0=0.1, eta=0.5, t_end=2.0, h=1e-3)
    assert np.max(np.abs(traj.states[:, :4])) <= 1e-10


def test_tau_column_is_the_exact_affine_clock():
    f = helmholtz_split(DEMO_Q)
    traj = integrate_nesterov_t(f, x0=[0.1, 0.0], v0=[0.0, 0.0],
                                T0=0.3, eta=0.5, t_end=1.0, h=1e-3)
    assert np.array_equal(traj.states[:, -1], 0.3 + 0.5 * traj.times)


def test_nonconservative_run_grows_and_eventually_blows_up():
    f = helmholtz_split(DEMO_Q)
    traj = integrate_nesterov_t(f, x0=[0.1, -0.1], v0=[0.0, 0.0],
                                T0=0.1, eta=1.0, t_end=80.0, h=2e-3)
    start = np.linalg.norm(traj.states[0, :4])
    final = np.linalg.norm(traj.states[-1, :4])
    assert traj.blown_up or final > 1e3 * start


# ---------------------------------------------------------------- scaled system


def test_scaled_y_demo_field_oscillation_grows():
    f = helmholtz_split(DEMO_Q)
    traj = integrate_scaled_y(f, Y0, T0=0.1, s_end=400.0, h=0.01)
    assert f.epsilon == pytest.approx(0.1)
    norms = np.linalg.norm(traj.states, axis=1)
    dec = len(norms) // 10
    assert norms[-dec:].max() > 1.5 * norms[:dec].max()


def test_scaled_y_conservative_envelope_never_grows():
    # isotropic conservative field: the drift is norm-preserving, so the
    # damping makes |y| monotonically non-increasing
    f = helmholtz_split(100.0 * np.eye(2))
    traj = integrate_scaled_y(f, Y0, T0=0.1, s_end=50.0, h=1e-3)
    norms = np.linalg.norm(traj.states, axis=1)
    assert np.all(np.diff(norms) <= 1e-12)


def test_scaled_y_without_rotation_or_damping_is_the_drift_of_Qhat_s():
    # with no rotation part and the damping pushed out to an enormous
    # clock offset, the system is the pure drift generated by Qhat_s
    f = helmholtz_split(100.0 * np.eye(2))
    traj = integrate_scaled_y(f, Y0, T0=1e12, s_end=5.0, h=1e-3)
    exact = exp_drift(f, 5.0) @ Y0
    assert np.max(np.abs(traj.states[-1] - exact)) < 1e-10


def test_nesterov_t_matches_adaptive_reference_solver():
    f = helmholtz_split(DEMO_Q)
    x0 = np.array([0.1, -0.1])
    v0 = np.array([0.3, 0.2])

    def rhs(t, u):
        tau = 0.1 + 0.5 * t
        return np.concatenate([u[2:], -(3.0 / tau) * u[2:] - f(u[:2])])

    ref = scipy.integrate.solve_ivp(rhs, (0.0, 3.0), np.concatenate([x0, v0]),
                                    rtol=1e-12, atol=1e-14, dense_output=True)
    traj = integrate_nesterov_t(f, x0, v0, T0=0.1, eta=0.5, t_end=3.0, h=1e-3)
    gap = np.max(np.abs(traj.states[:, :4] - ref.sol(traj.times).T))
    assert gap < 1e-8


def test_scaled_y_zero_start_stays_zero():
    f = helmholtz_split(DEMO_Q)
    traj = integrate_scaled_y(f, np.zeros(4), T0=0.1, s_end=5.0, h=1e-3)
    assert np.max(np.abs(traj.states)) == 0.0


def test_blowup_truncates_and_flags(monkeypatch):
    f = helmholtz_split(DEMO_Q)
    monkeypatch.setattr(odesim, "BLOWUP_CAP", 0.3)
    traj = integrate_scaled_y(f, Y0, T0=0.1, s_end=400.0, h=0.01)
    assert traj.blown_up
    assert traj.times[-1] < 400.0
    assert np.all(np.isfinite(traj.states))


# ---------------------------------------------------------------- drift block


def test_drift_generator_demo_field():
    f = helmholtz_split(DEMO_Q)
    assert np.allclose(f.freqs, [1.0, 1.0])
    eigs = np.linalg.eigvals(drift_matrix(f))
    assert np.allclose(np.sort(eigs.imag), [-1, -1, 1, 1], atol=1e-12)
    assert np.allclose(eigs.real, 0.0, atol=1e-12)


def test_drift_generator_raw_matrix_frequencies():
    # the drift block is Qs / ell_j, so the frequencies are those of the raw
    # matrix divided by sqrt(ell_j) = 2
    f = helmholtz_split(np.diag([1.0, 4.0]))
    assert np.allclose(f.freqs, [0.5, 1.0])
    eigs = np.sort(np.linalg.eigvals(drift_matrix(f)).imag)
    assert np.allclose(eigs, [-1, -0.5, 0.5, 1], atol=1e-12)


def test_drift_generator_scalar_case():
    f = helmholtz_split([[1.0]])
    assert np.array_equal(f.Qhat_s, [[1.0]]) and np.array_equal(f.freqs, [1.0])
    assert np.array_equal(drift_matrix(f), np.array([[0.0, 1.0], [-1.0, 0.0]]))


@given(st.integers(1, 8), st.integers(0, 2 ** 32 - 1))
def test_drift_rk4_step_is_that_of_the_reference_drift_block(n, seed):
    # integrate_drift builds A from f.Qhat_s itself; one step pins it bit for
    # bit (sign and zeros) against the RK4 step matrix of the separate build
    rng = np.random.default_rng(seed)
    M, K = rng.standard_normal((2, n, n))
    f = helmholtz_split(M @ M.T + rng.uniform(0.5, 5.0) * np.eye(n) + K - K.T)
    A, h = reference_drift_generator(f).A, 0.01
    eye = np.eye(2 * n)
    K2 = A @ (eye + 0.5 * h * A)
    K3 = A @ (eye + 0.5 * h * K2)
    K4 = A @ (eye + h * K3)
    phi = eye + (h / 6.0) * (A + 2.0 * K2 + 2.0 * K3 + K4)
    psi0 = rng.standard_normal(2 * n)
    traj = integrate_drift(f, psi0, s_end=h, h=h)
    assert traj.states.shape == (2, 2 * n)
    assert traj.states[1].tobytes() == (phi @ psi0).tobytes()


def test_exp_drift_at_zero_is_identity():
    f = helmholtz_split(DEMO_Q)
    assert np.allclose(exp_drift(f, 0.0), np.eye(4), atol=1e-14)


def test_exp_drift_isotropic_period():
    f = helmholtz_split(DEMO_Q)
    assert np.allclose(exp_drift(f, 2.0 * np.pi), np.eye(4), atol=1e-12)


@pytest.mark.parametrize("seed", [0, 4])
def test_exp_drift_group_inverse_and_semigroup(seed):
    rng = np.random.default_rng(seed)
    M = rng.standard_normal((3, 3))
    f = helmholtz_split(M @ M.T + 3.0 * np.eye(3))
    s1, s2 = rng.uniform(-5, 5, size=2)
    E = exp_drift(f, s1)
    assert np.max(np.abs(E @ exp_drift(f, -s1) - np.eye(6))) < 1e-10
    assert np.max(np.abs(exp_drift(f, s1 + s2) - E @ exp_drift(f, s2))) < 1e-10


@pytest.mark.parametrize("seed", [1, 8])
def test_exp_drift_matches_dense_expm(seed):
    rng = np.random.default_rng(seed)
    M = rng.standard_normal((4, 4))
    f = helmholtz_split(M @ M.T + 4.0 * np.eye(4))
    for s in (0.3, 2.0, -7.1):
        dense = scipy.linalg.expm(drift_matrix(f) * s)
        assert np.max(np.abs(exp_drift(f, s) - dense)) < 1e-10


# one time, a row of times and a grid of times
EXP_DRIFT_TIMES = {"scalar": 0.7, "1d": np.linspace(-3.0, 9.0, 257),
                   "2d": np.linspace(0.0, 5.0, 24).reshape(4, 6)}


@pytest.mark.parametrize("times", list(EXP_DRIFT_TIMES))
@pytest.mark.parametrize("n", range(1, 7))
def test_exp_drift_matches_the_stacked_reference(n, times):
    # exp_drift forms its blocks as 2-D products over all times; the
    # reference forms one n x n product per time
    s = EXP_DRIFT_TIMES[times]
    f = make_commensurate_field(n, n)
    ref = reference_exp_drift(f, s)
    E = exp_drift(f, s)
    assert E.shape == ref.shape == np.shape(s) + (2 * n, 2 * n)
    assert np.max(np.abs(E - ref)) <= 1e-15 * np.max(np.abs(ref))


def test_integrate_drift_is_periodic_and_bounded():
    f = helmholtz_split(DEMO_Q)
    T = instability_certificate(f).period.period
    traj = integrate_drift(f, Y0, s_end=T, h=1e-3)  # grid lands on T exactly
    norms = np.linalg.norm(traj.states, axis=1)
    assert norms.max() <= np.linalg.norm(Y0) + 1e-9
    assert traj.times[-1] == pytest.approx(T, abs=1e-12)
    assert np.linalg.norm(traj.states[-1] - Y0) < 1e-9


def test_integrate_drift_rk4_order_against_closed_form():
    f = helmholtz_split(np.diag([0.25, 1.0]))
    psi0 = np.array([1.0, 0.0, 0.0, 1.0])
    errors = []
    for h in (4e-2, 2e-2, 1e-2):
        traj = integrate_drift(f, psi0, s_end=5.0, h=h)
        exact = exp_drift(f, 5.0) @ psi0
        errors.append(np.linalg.norm(traj.states[-1] - exact))
    assert 12.0 < errors[0] / errors[1] < 20.0
    assert 12.0 < errors[1] / errors[2] < 20.0


# ---------------------------------------------------------------- pullback


def test_pullback_without_perturbation_is_constant():
    f = helmholtz_split(100.0 * np.eye(2))  # no rotation part
    traj = integrate_pullback(f, Y0, T0=np.inf, s_end=5.0, h=1e-3)
    assert np.max(np.abs(traj.states - Y0[None, :])) < 1e-14


def test_pullback_demo_field_grows_slowly():
    f = helmholtz_split(DEMO_Q)
    traj = integrate_pullback(f, Y0, T0=0.1, s_end=10.0, h=1e-3)
    norms = np.linalg.norm(traj.states, axis=1)
    # slow system: per-step relative motion is O(eps * coefficient)
    assert np.max(np.abs(np.diff(norms))) < 0.05 * norms.max()


@pytest.mark.parametrize("T0", [0.1, np.inf], ids=["damped", "undamped"])
@pytest.mark.parametrize("n", range(1, 7))
def test_pullback_stage_matches_the_reference_built_from_exp_drift(monkeypatch, n, T0):
    # the stage builds the rotation blocks, not exp(A s); the reference
    # conjugates B with the whole stacked exp(A s)
    f = make_commensurate_field(10 + n, n)
    stages = []
    step_matrices = odesim._rk4_linear
    monkeypatch.setattr(odesim, "_rk4_linear",
                        lambda stage, *args: stages.append(stage) or step_matrices(stage, *args))
    integrate_pullback(f, np.ones(2 * n), T0, s_end=0.01, h=1e-3)
    s = np.linspace(0.0, 40.0, 2 * _CHUNK + 1)
    ref = reference_pullback_stage(f, T0, s)
    assert np.max(np.abs(stages[0](s) - ref)) <= 1e-15 * np.max(np.abs(ref))


def test_variation_of_constants_identity_tight_at_default_step():
    f = helmholtz_split(DEMO_Q)
    chk = variation_of_constants_check(f, Y0, T0=0.1, s_end=10.0, h=1e-3)
    assert chk.max_gap <= 1e-10 * chk.y_norm_max


def test_variation_of_constants_gap_shrinks_at_fourth_order():
    f = helmholtz_split(DEMO_Q)
    gaps = [variation_of_constants_check(f, Y0, T0=0.1, s_end=10.0, h=h).max_gap
            for h in (8e-3, 4e-3, 2e-3)]
    orders = np.log2(np.array(gaps[:-1]) / np.array(gaps[1:]))
    assert np.all(orders >= 3.5)


# ---------------------------------------------------------------- step-matrix path
#
# Right-hand sides of the four linear systems, written out term by term: the
# generic RK4 of ``conftest`` on them is the reference for the step-matrix path.


def reference_scaled_y(f, T0):
    eps = f.ell_j ** -0.5
    Qhat_s, Qhat_a = reference_normalize(f)
    n = f.dim
    M0 = np.zeros((2 * n, 2 * n))
    M0[:n, n:] = np.eye(n)
    M0[n:, :n] = -Qhat_s - eps * Qhat_a

    def rhs(s, y):
        out = M0 @ y
        out[n:] -= (3.0 * eps / (eps * s + T0)) * y[n:]
        return out

    return rhs


def reference_drift(f):
    A = drift_matrix(f)
    return lambda _s, psi: A @ psi


def reference_pullback(f, T0):
    eps = f.ell_j ** -0.5
    _, Qhat_a = reference_normalize(f)
    n = f.dim

    def rhs(s, z):
        w = exp_drift(f, s) @ z
        b = np.zeros_like(w)
        b[n:] = -(Qhat_a @ w[:n]) - (3.0 / (eps * s + T0)) * w[n:]
        return eps * (exp_drift(f, -s) @ b)

    return rhs


def reference_average(avg, T0, epsilon):
    def rhs(s, zeta):
        return epsilon * (avg.b1_bar @ zeta
                          + (3.0 / (epsilon * s + T0)) * (avg.b2_bar @ zeta))

    return rhs


def assert_matches_reference(traj, reference, rtol=1e-12):
    times, states, blown = reference
    assert np.array_equal(traj.times, times)
    assert traj.blown_up == blown
    assert np.max(np.abs(traj.states - states)) <= rtol * np.max(np.abs(states))


def _linear_run(kind, f, y0, T0, s_end, h):
    """The integrator's trajectory and the generic RK4 run of its reference."""
    eps = f.ell_j ** -0.5
    if kind == "scaled_y":
        return (integrate_scaled_y(f, y0, T0, s_end=s_end, h=h),
                reference_scaled_y(f, T0))
    if kind == "drift":
        return integrate_drift(f, y0, s_end, h=h), reference_drift(f)
    if kind == "pullback":
        return integrate_pullback(f, y0, T0, s_end, h=h), reference_pullback(f, T0)
    return (integrate_average(f, y0, T0, s_end, h=h),
            reference_average(average_closed_form(f), T0, eps))


LINEAR_CASES = [(kind, n, T0) for kind in ("scaled_y", "drift", "pullback", "average")
                for n in (1, 3, 5) for T0 in (0.1, 1.0)]
LINEAR_CASES += [("pullback", n, np.inf) for n in (1, 3, 5)]


@pytest.mark.parametrize("kind,n,T0", LINEAR_CASES)
def test_linear_integrators_match_generic_rk4(kind, n, T0):
    f = make_commensurate_field(10 + n, n)
    y0 = np.random.default_rng(n).standard_normal(2 * n)
    h = 2e-2
    s_end = h * (2 * _CHUNK + 377)  # three chunks, the last one partial
    traj, rhs = _linear_run(kind, f, y0, T0, s_end, h)
    assert len(traj.times) == 2 * _CHUNK + 378
    assert_matches_reference(traj, generic_rk4(rhs, 0.0, y0, s_end, h, np.inf))


SPIRAL = np.array([[0.1, 1.0], [-1.0, 0.1]])  # |y| grows by the same factor every step


def _spiral_stage(s):
    return np.broadcast_to(SPIRAL, s.shape + SPIRAL.shape)


@pytest.mark.parametrize("row", [_CHUNK, _CHUNK + 1, _CHUNK + 300])
def test_blowup_truncates_after_the_first_row_above_the_cap(row):
    y0, h, s_end = np.array([1.0, 0.0]), 1e-2, 3 * _CHUNK * 1e-2
    _, free, _ = generic_rk4(lambda _s, y: SPIRAL @ y, 0.0, y0, s_end, h, np.inf)
    norms = np.linalg.norm(free, axis=1)
    cap = np.sqrt(norms[row - 1] * norms[row])
    reference = generic_rk4(lambda _s, y: SPIRAL @ y, 0.0, y0, s_end, h, cap)
    times, states, blown = _rk4_linear(_spiral_stage, y0, s_end, h, cap)
    assert blown and len(times) == row + 1
    assert np.linalg.norm(states[-1]) > cap >= np.linalg.norm(states[-2])
    assert np.array_equal(times, reference[0])
    assert np.max(np.abs(states - reference[1])) <= 1e-12 * np.max(np.abs(reference[1]))


def test_blowup_truncates_before_an_overflowing_row():
    growth = np.diag([0.1, 0.05])
    y0, h, s_end = np.array([1e308, 1e308]), 0.5, 0.5 * (_CHUNK + 10)
    reference = generic_rk4(lambda _s, y: growth @ y, 0.0, y0, s_end, h, np.inf)
    times, states, blown = _rk4_linear(
        lambda s: np.broadcast_to(growth, s.shape + growth.shape), y0, s_end, h, np.inf)
    assert blown and reference[2]
    assert 1 < len(times) < 20
    assert np.all(np.isfinite(states))
    assert np.array_equal(times, reference[0])
    assert np.max(np.abs(states - reference[1])) <= 1e-12 * np.max(np.abs(reference[1]))


def test_overflow_truncates_both_paths_without_warnings():
    # the stage sum of the generic RK4 overflows 12 steps before the state of the
    # step-matrix path does; both drop the non-finite row and stay silent
    growth = np.diag([1.0, 2.0])
    y0, h, s_end = np.array([1e307, 1e307]), 0.1, 10.0
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        generic = generic_rk4(lambda _s, y: growth @ y, 0.0, y0, s_end, h, np.inf)
        linear = _rk4_linear(lambda s: np.broadcast_to(growth, s.shape + growth.shape),
                             y0, s_end, h, np.inf)
    for times, states, blown in (generic, linear):
        assert blown and np.all(np.isfinite(states))
    assert (len(generic[0]), len(linear[0])) == (3, 15)
    assert np.max(np.abs(linear[1][:3] - generic[1]) / generic[1]) <= 1e-15


# ---------------------------------------------------------------- original-time flow


def reference_flow_t(f, t0, tau0, eta):
    n = f.dim

    def rhs(t, u):
        tau = tau0 + eta * (t - t0)
        return np.concatenate([u[n:], -(3.0 / tau) * u[n:] - f(u[:n])])

    return rhs


@pytest.mark.parametrize("n", [1, 3, 5])
def test_linear_flow_t_matches_generic_rk4(n):
    f = make_commensurate_field(10 + n, n)
    u0 = np.random.default_rng(n).standard_normal(2 * n)
    h, t0, tau0, eta = 2e-2, 3.0, 0.4, 0.5
    span = h * (2 * _CHUNK + 377)  # three chunks, the last one partial
    times, states, blown, _ = _flow_t(f, u0, t0, tau0, eta, span, h, np.inf)
    assert len(times) == 2 * _CHUNK + 378
    reference = generic_rk4(reference_flow_t(f, t0, tau0, eta), t0, u0, span, h, np.inf)
    assert_matches_reference(OdeTrajectory(times, states, "t", blown), reference)


def test_linear_original_flow_keeps_rk4_order():
    f = helmholtz_split(DEMO_Q)
    ends = [integrate_nesterov_t(f, [1.0, -1.0], [0.5, 0.0], T0=1.0, eta=0.5,
                                 t_end=4.0, h=h).states[-1, :4]
            for h in (4e-2, 2e-2, 1e-2, 5e-3)]
    gaps = np.linalg.norm(np.diff(ends, axis=0), axis=1)
    assert np.all(np.log2(gaps[:-1] / gaps[1:]) >= 3.5)


def nonlinear_field(f, gain=20.0):
    """General field with gradient ``Qs x + gain tanh(x)`` and rotation ``Qa x`` of ``f``."""
    Qs, Qa = np.asarray(f.Qs), np.asarray(f.Qa)
    return GeneralField(
        dim=f.dim,
        potential=lambda x: 0.5 * float(x @ (Qs @ x)) + gain * float(np.sum(np.log(np.cosh(x)))),
        potential_gradient=lambda x: Qs @ x + gain * np.tanh(x),
        rotation=lambda x: Qa @ x,
        x_star=np.zeros(f.dim), kappa_j=f.kappa_j, ell_j=f.ell_j + gain, ell_k=f.ell_k)


@pytest.mark.parametrize("n", [1, 3, 5])
def test_general_flow_t_matches_generic_rk4(n):
    g = nonlinear_field(make_commensurate_field(10 + n, n))
    u0 = np.random.default_rng(n).standard_normal(2 * n)
    h, t0, tau0, eta = 2e-2, 3.0, 0.4, 0.5
    span = h * (2 * _CHUNK + 377)  # three chunks, the last one partial
    times, states, blown, _ = _flow_t(g, u0, t0, tau0, eta, span, h, np.inf)
    assert len(times) == 2 * _CHUNK + 378
    reference = generic_rk4(reference_flow_t(g, t0, tau0, eta), t0, u0, span, h, np.inf)
    assert_matches_reference(OdeTrajectory(times, states, "t", blown), reference, rtol=1e-13)


def anti_restoring_field(gain):
    """General field ``-gain x`` plus a small rotation: every flow from rest grows."""
    skew = np.array([[0.0, 0.1], [-0.1, 0.0]])
    return GeneralField(dim=2, potential=lambda x: -0.5 * gain * float(x @ x),
                        potential_gradient=lambda x: -gain * x, rotation=lambda x: skew @ x,
                        x_star=np.zeros(2), kappa_j=1.0, ell_j=1.0, ell_k=0.1)


@pytest.mark.parametrize("row", [_CHUNK, _CHUNK + 1, _CHUNK + 300])
def test_general_flow_t_truncates_after_the_first_row_above_the_cap(row):
    g = anti_restoring_field(1.0)
    u0, h, span = np.array([1.0, 0.0, 0.0, 0.0]), 1e-2, 3 * _CHUNK * 1e-2
    rhs = reference_flow_t(g, 0.0, 1.0, 1.0)
    norms = np.linalg.norm(generic_rk4(rhs, 0.0, u0, span, h, np.inf)[1], axis=1)
    cap = np.sqrt(norms[row - 1] * norms[row])
    times, states, blown, _ = _rk4(g, u0, 0.0, 1.0, 1.0, span, h, cap)
    assert blown and len(times) == row + 1
    assert np.linalg.norm(states[-1]) > cap >= np.linalg.norm(states[-2])
    assert_matches_reference(OdeTrajectory(times, states, "t", blown),
                             generic_rk4(rhs, 0.0, u0, span, h, cap), rtol=1e-13)


def test_an_overflowing_general_flow_truncates_without_warnings():
    # x'' = 4 x from 1e300: an acceleration can overflow before the state it
    # moves, so the run stops between the generic RK4, whose stage sum
    # overflows first, and the step-matrix path on the same system
    g = anti_restoring_field(4.0)
    u0, h, span = np.array([1e300, 1e300, 0.0, 0.0]), 0.5, 100.0
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        times, states, blown, _ = _rk4(g, u0, 0.0, 1.0, 1.0, span, h, np.inf)
        reference = generic_rk4(reference_flow_t(g, 0.0, 1.0, 1.0), 0.0, u0, span, h, np.inf)
        linear = _rk4_linear(_oscillator_stage(-4.0 * np.eye(2) - g.rotation(np.eye(2)).T,
                                               3.0, 1.0, 1.0), u0, span, h, np.inf)
    assert blown and reference[2] and linear[2]
    assert np.all(np.isfinite(states))
    assert len(reference[0]) <= len(times) <= len(linear[0]) < 100
    m = len(reference[0])
    assert np.array_equal(times[:m], reference[0])
    row_peaks = np.max(np.abs(reference[1]), axis=1)
    assert np.all(np.max(np.abs(states[:m] - reference[1]), axis=1) <= 1e-14 * row_peaks)


def test_callables_that_keep_or_return_their_argument_give_the_reference_run():
    # the gradient returns its argument and the rotation keeps every argument:
    # neither may be a view into a buffer that a later stage overwrites
    kept, given_to_gradient = [], []
    skew = np.array([[0.0, 3.0], [-3.0, 0.0]])

    def gradient(x):
        given_to_gradient.append(x)
        return x

    def rotation(x):
        kept.append((x, x.copy()))
        return skew @ x

    g = GeneralField(dim=2, potential=lambda x: 0.5 * float(x @ x),
                     potential_gradient=gradient, rotation=rotation,
                     x_star=np.zeros(2), kappa_j=1.0, ell_j=1.0, ell_k=3.0)
    plain = GeneralField(dim=2, potential=g.potential, potential_gradient=lambda x: 1.0 * x,
                         rotation=lambda x: skew @ x, x_star=np.zeros(2),
                         kappa_j=1.0, ell_j=1.0, ell_k=3.0)
    kept.clear()
    given_to_gradient.clear()
    u0, h, span = np.array([1.0, -0.5, 0.2, 0.0]), 1e-2, 1e-2 * (_CHUNK + 7)
    times, states, blown, drives = _flow_t(g, u0, 0.0, 0.2, 0.5, span, h, np.inf)
    assert len(kept) == 4 * (_CHUNK + 7)
    assert all(np.array_equal(x, copy) for x, copy in kept)
    # both parts of a stage get one position vector, never a 0-d operand, and
    # every stage's is its own memory: no scratch vector reused from stage to stage
    assert all(y is x for y, (x, _) in zip(given_to_gradient, kept, strict=True))
    assert all(x.shape == (2,) for x, _ in kept)
    assert len({x.ctypes.data for x, _ in kept}) == len(kept)
    reference = generic_rk4(reference_flow_t(plain, 0.0, 0.2, 0.5), 0.0, u0, span, h, np.inf)
    assert_matches_reference(OdeTrajectory(times, states, "t", blown), reference, rtol=1e-13)
    # the drive at each step's start state, which the gradient returned itself
    assert np.array_equal(drives, [plain(x) for x in states[:-1, :2]])


@given(n=st.integers(1, 8), seed=st.integers(0, 2 ** 32 - 1),
       t0=st.floats(-1e3, 1e3), tau0=st.one_of(st.floats(1e-3, 1e3), st.just(math.inf)),
       eta=st.floats(1e-3, 1.0), steps=st.integers(1, _CHUNK + 40), h=st.floats(1e-4, 0.5),
       cap=st.sampled_from([1e3, 1e12, math.inf]), start=st.floats(-3.0, 306.0))
@example(n=3, seed=0, t0=-2.0, tau0=0.1, eta=0.5, steps=_CHUNK + 40, h=1e-2, cap=math.inf,
         start=0.0)  # past a chunk's end
@example(n=2, seed=0, t0=0.0, tau0=0.1, eta=0.5, steps=50, h=0.5, cap=math.inf,
         start=306.0)  # the first step overflows and is dropped
def test_the_general_rk4_has_the_bits_of_the_python_float_loop(n, seed, t0, tau0, eta, steps,
                                                               h, cap, start):
    # every cap and start: finite runs, runs cut at the cap and overflowing runs
    rng = np.random.default_rng(seed)
    M = rng.standard_normal((n, n))
    g = nonlinear_field(helmholtz_split(M @ M.T + np.eye(n) + (M - M.T)),
                        gain=float(rng.uniform(0.0, 20.0)))
    u0 = 10.0 ** start * rng.standard_normal(2 * n)
    got = _rk4(g, u0, t0, tau0, eta, steps * h, h, cap)
    want = reference_general_rk4(g, u0, t0, tau0, eta, steps * h, h, cap)
    assert got[2] == want[2]
    for a, b in zip(got[:2] + got[3:], want[:2] + want[3:]):
        assert np.array_equal(a, b, equal_nan=True)


@pytest.mark.parametrize("flow", ["integrate_nesterov_t", "simulate_hybrid"])
def test_general_flows_keep_rk4_order(flow):
    g = nonlinear_field(helmholtz_split(DEMO_Q))
    cfg = RestartConfig(T0=0.1, T=0.5, eta=0.5)  # a window of 0.8: 20 steps at h = 4e-2
    ends = []
    for h in (4e-2, 2e-2, 1e-2, 5e-3):
        if flow == "simulate_hybrid":
            run = simulate_hybrid(g, cfg, ([1.0, -1.0], [0.5, 0.0], cfg.T0), t_end=3.0, h=h)
            assert len(run.jump_indices) == 3
            ends.append(np.concatenate([run.q[-1], run.p[-1]]))
        else:
            ends.append(integrate_nesterov_t(g, [1.0, -1.0], [0.5, 0.0], T0=1.0, eta=0.5,
                                             t_end=4.0, h=h).states[-1, :4])
    gaps = np.linalg.norm(np.diff(ends, axis=0), axis=1)
    assert np.all(np.log2(gaps[:-1] / gaps[1:]) >= 3.5)


@pytest.mark.parametrize("general", [False, True], ids=["linear", "general"])
def test_a_horizon_past_the_step_bound_is_refused_before_it_runs(general):
    f = helmholtz_split(np.diag([4.0, 3.0]))
    with pytest.raises(ValueError, match=f"= 1e\\+303 exceeds the bound of {_MAX_STEPS} steps"):
        integrate_nesterov_t(f.as_general() if general else f, [1.0, 0.0], [0.0, 0.0],
                             T0=0.1, eta=1.0, t_end=1e300)


ELEMENTWISE = GeneralField(dim=2, potential=lambda x: float(np.sum(2.0 * x * x)),
                           potential_gradient=lambda x: 4.0 * x, rotation=lambda x: 0.0 * x,
                           x_star=np.zeros(2), kappa_j=4.0, ell_j=4.0, ell_k=0.0)


def _flow_start(f, flow: str, wrong: int):
    """Name and run of ``flow`` on the 2-dim ``f`` from a 3-vector position (0) or velocity (1)."""
    start = [[1.0, 2.0], [0.0, 0.0]]
    start[wrong] = [1.0, 2.0, 3.0]
    if flow == "integrate_nesterov_t":
        return ("x0", "v0")[wrong], lambda: integrate_nesterov_t(f, *start, T0=0.1, eta=0.5,
                                                                 t_end=1.0)
    return ("q0", "p0")[wrong], lambda: simulate_hybrid(f, RestartConfig(T0=0.1, T=0.5, eta=0.5),
                                                        (*start, 0.1), t_end=1.0)


DEMO_FIELD = helmholtz_split(DEMO_Q)
# case -> (name, run, length): element-wise callables of a 2-dim field would
# run a 3-dim state silently, and the drift would run a block of columns
WRONG_STARTS = {
    **{f"{label}-{flow}-{part}": (*_flow_start(f, flow, wrong), 2)
       for label, f in (("linear", helmholtz_split(4.0 * np.eye(2))),
                        ("elementwise-general", ELEMENTWISE))
       for flow in ("integrate_nesterov_t", "simulate_hybrid")
       for wrong, part in enumerate(("position", "velocity"))},
    "integrate_drift-length-6": (
        "psi0", lambda: integrate_drift(DEMO_FIELD, np.ones(6), s_end=1.0), 4),
    "integrate_drift-block-4x2": (
        "psi0", lambda: integrate_drift(DEMO_FIELD, np.ones((4, 2)), s_end=1.0, h=0.1), 4),
    "integrate_average-length-3": (
        "zeta0", lambda: integrate_average(DEMO_FIELD, np.ones(3), T0=0.1, s_end=1.0), 4),
}


@pytest.mark.parametrize("case", list(WRONG_STARTS))
def test_an_initial_state_of_the_wrong_length_is_refused_by_name(case):
    name, run, length = WRONG_STARTS[case]
    with pytest.raises(ValueError, match=f"^{name} must have length {length}$"):
        run()


# integrator -> run from the clock start T0 on the demo field
CLOCKED = {
    "integrate_nesterov_t": lambda T0: integrate_nesterov_t(DEMO_FIELD, [1.0, 0.0], [0.0, 0.0],
                                                            T0=T0, eta=0.5, t_end=0.1),
    "integrate_scaled_y": lambda T0: integrate_scaled_y(DEMO_FIELD, np.ones(4), T0, s_end=0.1),
    "integrate_pullback": lambda T0: integrate_pullback(DEMO_FIELD, np.ones(4), T0, s_end=0.1),
    "integrate_average": lambda T0: integrate_average(DEMO_FIELD, np.ones(4), T0, s_end=0.1),
    "variation_of_constants_check": lambda T0: variation_of_constants_check(
        DEMO_FIELD, np.ones(4), T0, s_end=0.1),
}


@pytest.mark.parametrize("T0", [0.0, -0.05, np.nan])
@pytest.mark.parametrize("name", list(CLOCKED))
def test_a_clock_that_does_not_start_above_zero_is_refused(name, T0):
    # the damping 3/tau would divide by zero, or a NaN clock cut the run to one row
    with pytest.raises(ValueError, match="^T0 must be positive$"):
        CLOCKED[name](T0)
    CLOCKED[name](np.inf)  # no damping


NON_NORMAL_Q = np.array([[100.0, 3.0, -2.0], [-3.0, 100.0, 4.0], [2.0, -4.0, 25.0]])


@pytest.mark.parametrize("Q,eta", [(DEMO_Q, 0.5), (DEMO_Q, 1.0), (NON_NORMAL_Q, 0.3)],
                         ids=["demo-eta0.5", "demo-eta1", "non-normal-eta0.3"])
def test_linear_original_flow_matches_the_bessel_solution(Q, eta):
    f = helmholtz_split(Q)
    n = len(Q)
    x0, v0 = np.resize([1.0, -1.0], n), np.zeros(n)
    errors = []
    for h in BESSEL_STEPS:
        traj = integrate_nesterov_t(f, x0, v0, T0=0.1, eta=eta, t_end=8.0, h=h)
        exact = bessel_flow(Q, x0, v0, 0.1, eta, traj.times)[:, :n]
        errors.append(np.max(np.abs(traj.states[:, :n] - exact)) / np.max(np.abs(exact)))
    assert np.all(np.array(errors) <= 2.0 * BESSEL_PROTOTYPE)
    assert np.all(np.log2(np.array(errors[:-1]) / errors[1:]) >= 3.5)


@given(seed=st.integers(0, 2 ** 31 - 1), n=st.integers(1, 4),
       eta=st.floats(0.2, 1.0), T0=st.floats(0.05, 0.5))
def test_both_original_flow_paths_match_the_bessel_solution(seed, n, eta, T0):
    # 300 random draws gave orders 3.95 to 4.03 and path gaps up to 4.8e-15
    f = make_commensurate_field(seed, n)
    x0, v0 = np.random.default_rng(seed).standard_normal((2, n))
    errors = []
    for h in (2e-2, 1e-2):
        linear, general = (integrate_nesterov_t(g, x0, v0, T0=T0, eta=eta, t_end=1.0, h=h)
                           for g in (f, f.as_general()))
        exact = bessel_flow(f.Q, x0, v0, T0, eta, linear.times)
        peak = np.max(np.abs(exact))
        assert np.max(np.abs(linear.states - general.states)) <= 1e-12 * peak
        errors.append([np.max(np.abs(run.states[:, :2 * n] - exact)) / peak
                       for run in (linear, general)])
    assert np.all(np.log2(np.divide(*errors)) >= 3.5)


# ---------------------------------------------------------------- blocked product


def reference_apply(phi, y):
    """The step matrices applied one at a time, in order."""
    rows = np.empty((len(phi),) + y.shape)
    for P, row in zip(phi, rows):
        y = np.matmul(P, y, out=row)
    return rows


@pytest.mark.parametrize("columns", [None, 3])
@pytest.mark.parametrize("steps", [1, _BLOCK - 1, _BLOCK, _BLOCK + 1, 1000, _CHUNK,
                                   2 * _CHUNK + 377])
def test_blocked_product_matches_the_step_loop(steps, columns):
    rng = np.random.default_rng(steps)
    phi = np.eye(4) + 1e-2 * rng.standard_normal((steps, 4, 4))
    y = rng.standard_normal(4 if columns is None else (4, columns))
    rows = _apply_steps(phi, y)
    reference = reference_apply(phi, y)
    assert rows.shape == reference.shape
    assert np.max(np.abs(rows - reference)) <= 1e-13 * np.max(np.abs(reference))


@pytest.mark.parametrize("columns", [None, 2])
def test_rk4_linear_matches_the_step_loop(monkeypatch, columns):
    f = make_commensurate_field(13, 3)
    stage = _oscillator_stage(f.Q, 3.0, 0.5, 0.4)
    y0 = np.random.default_rng(3).standard_normal(6 if columns is None else (6, columns))
    h = 2e-2
    span = h * (2 * _CHUNK + 377)  # three chunks, the last one partial
    times, states, blown = _rk4_linear(stage, y0, span, h, np.inf)
    monkeypatch.setattr(odesim, "_apply_steps", reference_apply)
    ref_times, ref_states, ref_blown = _rk4_linear(stage, y0, span, h, np.inf)
    assert states.shape == (2 * _CHUNK + 378,) + y0.shape
    assert np.array_equal(times, ref_times) and blown == ref_blown
    assert np.max(np.abs(states - ref_states)) <= 1e-13 * np.max(np.abs(ref_states))


@pytest.mark.parametrize("steps", [1, _CHUNK - 1, _CHUNK, 2 * _CHUNK + 377])
def test_each_chunk_builds_its_stage_once_on_the_half_step_grid(steps):
    f = make_commensurate_field(13, 3)
    stage = _oscillator_stage(f.Q, 3.0, 0.5, 0.4)
    seen = []

    def counting(s):
        seen.append(s)
        return stage(s)

    h = 2e-2
    _rk4_linear(counting, np.ones(6), h * steps, h, np.inf)
    starts = range(0, steps, _CHUNK)
    assert len(seen) == len(starts)
    for k0, s in zip(starts, seen):
        k1 = min(k0 + _CHUNK, steps)
        assert np.array_equal(s, np.arange(2 * k0, 2 * k1 + 1) * (h / 2))
        assert np.array_equal(s[::2], np.arange(k0, k1 + 1) * h)  # step times exactly k h
    assert sum(map(len, seen)) == 2 * steps + len(starts)


@pytest.mark.parametrize("columns", [None, 2])
def test_a_zero_state_under_an_overflowing_stack_keeps_the_sequential_rows(monkeypatch, columns):
    # RK4 at h = 0.25 is unstable for the frequency 1e12: the running products
    # of the step matrices overflow, while the zero state stays exactly zero
    stage = _oscillator_stage(1e24 * np.eye(2), 3.0, 0.5, 1.0)
    y0 = np.zeros(4 if columns is None else (4, columns))
    blocked = _rk4_linear(stage, y0, 0.25 * 100, 0.25, np.inf)
    monkeypatch.setattr(odesim, "_apply_steps", reference_apply)
    sequential = _rk4_linear(stage, y0, 0.25 * 100, 0.25, np.inf)
    assert all(np.array_equal(a, b) for a, b in zip(blocked, sequential))
    assert not blocked[2] and len(blocked[0]) == 101 and not np.any(blocked[1])


def reference_oscillator_stage(K, gain, rate, offset):
    """The stage builder as one dense broadcast expression."""
    n = len(K)
    M0 = np.zeros((2 * n, 2 * n))
    M0[:n, n:] = np.eye(n)
    M0[n:, :n] = -K
    damped = np.diag(np.repeat([0.0, 1.0], n))
    return lambda s: M0 - (gain / (rate * s + offset))[..., None, None] * damped


@pytest.mark.parametrize("n", [1, 2, 5])
def test_stage_builders_equal_the_dense_expressions(n):
    f = make_commensurate_field(20 + n, n)
    s = np.arange(3 * 1000).reshape(3, 1000) * 7e-3
    for gain, rate, offset in ((3.0, 0.5, 0.1), (0.3, 0.1, 1.0), (3.0, 0.1, np.inf)):
        stage = _oscillator_stage(f.Q, gain, rate, offset)(s)
        assert stage.shape == (3, 1000, 2 * n, 2 * n)
        assert np.array_equal(stage, reference_oscillator_stage(f.Q, gain, rate, offset)(s))
    eps = f.ell_j ** -0.5
    for avg in (average_closed_form(f), instability_certificate(f, nodes=256).quadrature):
        for T0 in (0.1, np.inf):
            dense = eps * (avg.b1_bar + (3.0 / (eps * s + T0))[..., None, None] * avg.b2_bar)
            sparse = _affine_stage(avg.b1_bar, avg.b2_bar, lambda s: 3.0 / (eps * s + T0), eps)
            assert np.array_equal(sparse(s), dense)


# one call per refusal of OdeTrajectory, the step snap and integrate_nesterov_t's
# clock rate, with its exact text
_ODESIM_REFUSALS = {
    "timescale": (lambda: OdeTrajectory(np.zeros(2), np.zeros((2, 4)), "x", False),
                  "timescale must be one of ('t', 's')"),
    "lengths": (lambda: OdeTrajectory(np.zeros(2), np.zeros((3, 4)), "t", False),
                "times and states must have equal length"),
    "horizon-zero": (lambda: integrate_drift(helmholtz_split(DEMO_Q), np.zeros(4), s_end=0.0),
                     "integration horizon must be positive"),
    "step-zero": (lambda: integrate_drift(helmholtz_split(DEMO_Q), np.zeros(4), s_end=1.0, h=0.0),
                  "step must be positive"),
    **{f"eta-{eta}": (lambda eta=eta: integrate_nesterov_t(
        helmholtz_split(DEMO_Q), np.zeros(2), np.zeros(2), T0=0.1, eta=eta, t_end=1.0),
                      "eta must lie in (0, 1]") for eta in (0.0, 1.5)},
}


@pytest.mark.parametrize("case", list(_ODESIM_REFUSALS))
def test_each_odesim_refusal_names_its_cause(case):
    call, text = _ODESIM_REFUSALS[case]
    with pytest.raises(ValueError, match=f"^{re.escape(text)}$"):
        call()
