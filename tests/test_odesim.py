import warnings

import numpy as np
import pytest
import scipy.integrate
import scipy.linalg

from nestode.averaging import average_closed_form, integrate_average, period
from nestode.fields import helmholtz_split, normalize
from nestode.odesim import (
    _CHUNK,
    OdeTrajectory,
    _flow_t,
    _rk4,
    _rk4_linear,
    drift_generator,
    exp_drift,
    integrate_drift,
    integrate_nesterov_t,
    integrate_pullback,
    integrate_scaled_y,
    rescale_timescale,
    variation_of_constants_check,
)

from conftest import make_commensurate_field

DEMO_Q = np.array([[100.0, 5.0], [-5.0, 100.0]])
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
    assert traj.meta["epsilon"] == pytest.approx(0.1)
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


def test_scaled_y_gamma_scales_the_drift_block():
    # with no rotation part and the damping pushed out to an enormous
    # clock offset, the system is the pure drift generated by gamma*Qhat_s
    f = helmholtz_split(100.0 * np.eye(2))
    gamma = 0.25
    traj = integrate_scaled_y(f, Y0, T0=1e12, gamma=gamma, s_end=5.0, h=1e-3)
    gen = drift_generator(gamma * np.eye(2))
    exact = exp_drift(gen, 5.0) @ Y0
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


def test_blowup_truncates_and_flags():
    f = helmholtz_split(DEMO_Q)
    traj = integrate_scaled_y(f, Y0, T0=0.1, s_end=400.0, h=0.01, cap=0.3)
    assert traj.blown_up
    assert traj.times[-1] < 400.0
    assert np.all(np.isfinite(traj.states))


# ---------------------------------------------------------------- drift block


def test_drift_generator_demo_field():
    gen = drift_generator(helmholtz_split(DEMO_Q))
    assert np.allclose(gen.freqs, [1.0, 1.0])
    eigs = np.linalg.eigvals(gen.A)
    assert np.allclose(np.sort(eigs.imag), [-1, -1, 1, 1], atol=1e-12)
    assert np.allclose(eigs.real, 0.0, atol=1e-12)


def test_drift_generator_raw_matrix_frequencies():
    gen = drift_generator(np.diag([1.0, 4.0]))
    assert np.allclose(gen.freqs, [1.0, 2.0])
    eigs = np.sort(np.linalg.eigvals(gen.A).imag)
    assert np.allclose(eigs, [-2, -1, 1, 2], atol=1e-12)


def test_drift_generator_scalar_case():
    gen = drift_generator(np.array([[1.0]]))
    assert np.array_equal(gen.A, np.array([[0.0, 1.0], [-1.0, 0.0]]))


def test_exp_drift_at_zero_is_identity():
    gen = drift_generator(helmholtz_split(DEMO_Q))
    assert np.allclose(exp_drift(gen, 0.0), np.eye(4), atol=1e-14)


def test_exp_drift_isotropic_period():
    gen = drift_generator(helmholtz_split(DEMO_Q))
    assert np.allclose(exp_drift(gen, 2.0 * np.pi), np.eye(4), atol=1e-12)


@pytest.mark.parametrize("seed", [0, 4])
def test_exp_drift_group_inverse_and_semigroup(seed):
    rng = np.random.default_rng(seed)
    M = rng.standard_normal((3, 3))
    gen = drift_generator(M @ M.T + 3.0 * np.eye(3))
    s1, s2 = rng.uniform(-5, 5, size=2)
    E = exp_drift(gen, s1)
    assert np.max(np.abs(E @ exp_drift(gen, -s1) - np.eye(6))) < 1e-10
    assert np.max(np.abs(exp_drift(gen, s1 + s2) - E @ exp_drift(gen, s2))) < 1e-10


@pytest.mark.parametrize("seed", [1, 8])
def test_exp_drift_matches_dense_expm(seed):
    rng = np.random.default_rng(seed)
    M = rng.standard_normal((4, 4))
    gen = drift_generator(M @ M.T + 4.0 * np.eye(4))
    for s in (0.3, 2.0, -7.1):
        dense = scipy.linalg.expm(gen.A * s)
        assert np.max(np.abs(exp_drift(gen, s) - dense)) < 1e-10


def test_integrate_drift_is_periodic_and_bounded():
    f = helmholtz_split(DEMO_Q)
    gen = drift_generator(f)
    T = period(gen).period
    traj = integrate_drift(gen, Y0, s_end=T, h=1e-3)  # grid lands on T exactly
    norms = np.linalg.norm(traj.states, axis=1)
    assert norms.max() <= np.linalg.norm(Y0) + 1e-9
    assert traj.times[-1] == pytest.approx(T, abs=1e-12)
    assert np.linalg.norm(traj.states[-1] - Y0) < 1e-9


def test_integrate_drift_rk4_order_against_closed_form():
    gen = drift_generator(np.diag([0.25, 1.0]))
    psi0 = np.array([1.0, 0.0, 0.0, 1.0])
    errors = []
    for h in (4e-2, 2e-2, 1e-2):
        traj = integrate_drift(gen, psi0, s_end=5.0, h=h)
        exact = exp_drift(gen, 5.0) @ psi0
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


def test_rescale_timescale_maps_fast_time_to_slow_clock():
    f = helmholtz_split(DEMO_Q)
    traj = integrate_scaled_y(f, Y0, T0=0.1, s_end=2.0, h=1e-2)
    eps = traj.meta["epsilon"]
    slow = rescale_timescale(traj, eps, 0.1, "tau")
    assert slow.timescale == "tau"
    assert slow.times[0] == pytest.approx(0.1)
    assert slow.times[-1] == pytest.approx(0.1 + eps * 2.0)
    assert np.array_equal(slow.states, traj.states)


# ---------------------------------------------------------------- step-matrix path
#
# Right-hand sides of the four linear systems, written out term by term: the
# generic ``_rk4`` on them is the reference for the step-matrix path.


def reference_scaled_y(f, T0):
    eps = f.ell_j ** -0.5
    Qhat_s, Qhat_a = normalize(f)
    n = f.dim
    M0 = np.zeros((2 * n, 2 * n))
    M0[:n, n:] = np.eye(n)
    M0[n:, :n] = -Qhat_s - eps * Qhat_a

    def rhs(s, y):
        out = M0 @ y
        out[n:] -= (3.0 * eps / (eps * s + T0)) * y[n:]
        return out

    return rhs


def reference_drift(gen):
    return lambda _s, psi: gen.A @ psi


def reference_pullback(f, T0):
    eps = f.ell_j ** -0.5
    _, Qhat_a = normalize(f)
    gen = drift_generator(f)
    n = f.dim

    def rhs(s, z):
        w = exp_drift(gen, s) @ z
        b = np.zeros_like(w)
        b[n:] = -(Qhat_a @ w[:n]) - (3.0 / (eps * s + T0)) * w[n:]
        return eps * (exp_drift(gen, -s) @ b)

    return rhs


def reference_average(avg, T0, epsilon):
    def rhs(s, zeta):
        return epsilon * (avg.b1_bar @ zeta
                          + (3.0 / (epsilon * s + T0)) * (avg.b2_bar @ zeta))

    return rhs


def assert_matches_reference(traj, reference):
    times, states, blown = reference
    assert np.array_equal(traj.times, times)
    assert traj.blown_up == blown
    assert np.max(np.abs(traj.states - states)) <= 1e-12 * np.max(np.abs(states))


def _linear_run(kind, f, y0, T0, s_end, h):
    """The integrator's trajectory and the generic RK4 run of its reference."""
    eps = f.ell_j ** -0.5
    if kind == "scaled_y":
        return (integrate_scaled_y(f, y0, T0, s_end=s_end, h=h),
                reference_scaled_y(f, T0))
    if kind == "drift":
        gen = drift_generator(f)
        return integrate_drift(gen, y0, s_end, h=h), reference_drift(gen)
    if kind == "pullback":
        return integrate_pullback(f, y0, T0, s_end, h=h), reference_pullback(f, T0)
    avg = average_closed_form(f)
    return (integrate_average(avg, y0, T0, eps, s_end, h=h),
            reference_average(avg, T0, eps))


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
    assert_matches_reference(traj, _rk4(rhs, 0.0, y0, s_end, h, np.inf))


SPIRAL = np.array([[0.1, 1.0], [-1.0, 0.1]])  # |y| grows by the same factor every step


def _spiral_stage(s):
    return np.broadcast_to(SPIRAL, s.shape + SPIRAL.shape)


@pytest.mark.parametrize("row", [_CHUNK, _CHUNK + 1, _CHUNK + 300])
def test_blowup_truncates_after_the_first_row_above_the_cap(row):
    y0, h, s_end = np.array([1.0, 0.0]), 1e-2, 3 * _CHUNK * 1e-2
    _, free, _ = _rk4(lambda _s, y: SPIRAL @ y, 0.0, y0, s_end, h, np.inf)
    norms = np.linalg.norm(free, axis=1)
    cap = np.sqrt(norms[row - 1] * norms[row])
    reference = _rk4(lambda _s, y: SPIRAL @ y, 0.0, y0, s_end, h, cap)
    times, states, blown = _rk4_linear(_spiral_stage, y0, s_end, h, cap)
    assert blown and len(times) == row + 1
    assert np.linalg.norm(states[-1]) > cap >= np.linalg.norm(states[-2])
    assert np.array_equal(times, reference[0])
    assert np.max(np.abs(states - reference[1])) <= 1e-12 * np.max(np.abs(reference[1]))


def test_blowup_truncates_before_an_overflowing_row():
    growth = np.diag([0.1, 0.05])
    y0, h, s_end = np.array([1e308, 1e308]), 0.5, 0.5 * (_CHUNK + 10)
    reference = _rk4(lambda _s, y: growth @ y, 0.0, y0, s_end, h, np.inf)
    times, states, blown = _rk4_linear(
        lambda s: np.broadcast_to(growth, s.shape + growth.shape), y0, s_end, h, np.inf)
    assert blown and reference[2]
    assert 1 < len(times) < 20
    assert np.all(np.isfinite(states))
    assert np.array_equal(times, reference[0])
    assert np.max(np.abs(states - reference[1])) <= 1e-12 * np.max(np.abs(reference[1]))


def test_overflow_truncates_both_paths_without_warnings():
    # the stage sum of _rk4 overflows 12 steps before the state of the
    # step-matrix path does; both drop the non-finite row and stay silent
    growth = np.diag([1.0, 2.0])
    y0, h, s_end = np.array([1e307, 1e307]), 0.1, 10.0
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        generic = _rk4(lambda _s, y: growth @ y, 0.0, y0, s_end, h, np.inf)
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
        return np.concatenate([u[n:], -(3.0 / tau) * u[n:] - f.Q @ u[:n]])

    return rhs


@pytest.mark.parametrize("n", [1, 3, 5])
def test_linear_flow_t_matches_generic_rk4(n):
    f = make_commensurate_field(10 + n, n)
    u0 = np.random.default_rng(n).standard_normal(2 * n)
    h, t0, tau0, eta = 2e-2, 3.0, 0.4, 0.5
    span = h * (2 * _CHUNK + 377)  # three chunks, the last one partial
    times, states, blown = _flow_t(f, u0, t0, tau0, eta, span, h, np.inf)
    assert len(times) == 2 * _CHUNK + 378
    reference = _rk4(reference_flow_t(f, t0, tau0, eta), t0, u0, span, h, np.inf)
    assert_matches_reference(OdeTrajectory(times, states, "t", blown), reference)


def test_linear_original_flow_keeps_rk4_order():
    f = helmholtz_split(DEMO_Q)
    ends = [integrate_nesterov_t(f, [1.0, -1.0], [0.5, 0.0], T0=1.0, eta=0.5,
                                 t_end=4.0, h=h).states[-1, :4]
            for h in (4e-2, 2e-2, 1e-2, 5e-3)]
    gaps = np.linalg.norm(np.diff(ends, axis=0), axis=1)
    assert np.all(np.log2(gaps[:-1] / gaps[1:]) >= 3.5)
