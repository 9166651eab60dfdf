import math

import numpy as np
import pytest

from nestode import odesim
from nestode.fields import GeneralField, helmholtz_split
from nestode.hybrid import (
    BetaOutOfRangeError,
    HybridTrajectory,
    RestartConfig,
    WindowViolationError,
    calibrate_optimal_restart,
    lyapunov_certificate,
    lyapunov_values,
    optimal_restart,
    reset_window,
    restart_ratio,
    simulate_hybrid,
    verify_decrease,
    verify_envelopes,
)
from nestode.odesim import integrate_nesterov_t

from conftest import DEMO_Q

DEMO_CFG = RestartConfig(T0=0.1, T=0.471, eta=0.5)
CHI0 = (np.array([1e4, -1e4]), np.array([1e4, -1e4]), 0.1)


@pytest.fixture(scope="module")
def demo_field():
    return helmholtz_split(DEMO_Q)


@pytest.fixture(scope="module")
def demo_run(demo_field):
    return simulate_hybrid(demo_field, DEMO_CFG, CHI0, t_end=8.0, h=1e-3)


def pointwise_lyapunov(cert, f, q, p, tau):
    """Reference V at one hybrid state, written out term by term."""
    shifted = q + (tau / cert.b) * p - f.x_star
    return (cert.a * float(shifted @ shifted)
            + cert.c * tau ** 2 * float(p @ p)
            + cert.delta * tau ** 2 * (f.potential(q) - f.potential(f.x_star)))


def flow_samples(q, p, tau):
    """Unconnected states packed as a jump-free hybrid trajectory."""
    q, p = np.atleast_2d(q), np.atleast_2d(p)
    return HybridTrajectory(t=np.arange(len(q), dtype=float), j=np.zeros(len(q), dtype=int),
                            q=q, p=p, tau=np.asarray(tau, dtype=float),
                            jump_indices=np.zeros(0, dtype=int))


# ---------------------------------------------------------------- simulation


def test_demo_run_decays_and_respects_jump_cadence(demo_field, demo_run):
    traj = demo_run
    assert not traj.blown_up
    d = traj.distance_to(demo_field.x_star)
    assert d[-1] < 1.0  # from 1.4e4 down to (far) below unity
    jump_times = traj.t[traj.jump_indices]
    assert np.allclose(np.diff(jump_times), DEMO_CFG.window, atol=1e-9)
    # hybrid-time bound on the jump counter
    assert np.all(traj.j <= DEMO_CFG.eta * traj.t / (DEMO_CFG.T - DEMO_CFG.T0) + 1 + 1e-9)


def test_jump_map_is_bit_exact(demo_run):
    traj = demo_run
    for i in traj.jump_indices:
        assert np.all(traj.p[i] == 0.0)
        assert traj.tau[i] == DEMO_CFG.T0
        assert traj.tau[i - 1] == DEMO_CFG.T
        assert traj.t[i] == traj.t[i - 1]
        assert traj.j[i] == traj.j[i - 1] + 1
        assert np.array_equal(traj.q[i], traj.q[i - 1])


def test_tau_stays_inside_the_flow_set(demo_run):
    assert np.all(demo_run.tau >= DEMO_CFG.T0 - 1e-12)
    assert np.all(demo_run.tau <= DEMO_CFG.T + 1e-12)


def test_equilibrium_survives_flows_and_jumps(demo_field):
    traj = simulate_hybrid(demo_field, DEMO_CFG, (np.zeros(2), np.zeros(2), 0.1),
                           t_end=3.0, h=1e-3)
    assert np.max(np.abs(traj.q)) == 0.0
    assert np.max(np.abs(traj.p)) == 0.0
    assert len(traj.jump_indices) >= 3  # the clock keeps resetting regardless


def test_plain_flow_with_no_resets_eventually_grows(demo_field):
    # contrast run: the same field under the plain accelerated flow
    from nestode.odesim import integrate_nesterov_t

    traj = integrate_nesterov_t(demo_field, x0=[0.1, -0.1], v0=[0.0, 0.0],
                                T0=0.1, eta=0.5, t_end=150.0, h=2e-3)
    start = np.linalg.norm(traj.states[0, :4])
    final = np.linalg.norm(traj.states[-1, :4])
    assert traj.blown_up or final > 10.0 * start


def test_flow_window_matches_adaptive_reference_solver(demo_field):
    import scipy.integrate

    chi0 = (np.array([1.0, -2.0]), np.array([0.5, 0.25]), 0.1)

    def rhs(t, u):
        tau = 0.1 + 0.5 * t
        return np.concatenate([u[2:], -(3.0 / tau) * u[2:] - demo_field(u[:2])])

    traj = simulate_hybrid(demo_field, DEMO_CFG, chi0, t_end=DEMO_CFG.window, h=1e-3)
    ref = scipy.integrate.solve_ivp(
        rhs, (0.0, DEMO_CFG.window), np.concatenate([chi0[0], chi0[1]]),
        rtol=1e-12, atol=1e-14, dense_output=True)
    k = int(traj.jump_indices[0]) - 1 if len(traj.jump_indices) else len(traj) - 1
    expected = ref.sol(traj.t[k])
    gap = np.max(np.abs(np.concatenate([traj.q[k], traj.p[k]]) - expected))
    assert gap < 1e-9


def test_nonlinear_field_stabilizes_with_verified_certificate():
    # componentwise softened-identity gradient with a small rotation:
    # declared constants kappa=1, ell_j=1.5, ell_k=0.3 give the window
    # (1.005, 3.333]; everything downstream must verify on the run
    Qa = np.array([[0.0, 0.3], [-0.3, 0.0]])

    def potential(q):
        return float(np.sum(0.5 * q * q
                            + 0.5 * (q * np.arctan(q) - 0.5 * np.log1p(q * q))))

    from nestode.fields import GeneralField

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
    cfg = RestartConfig(T0=0.1, T=2.0, eta=0.5)
    cert = lyapunov_certificate(g, cfg)
    assert cert.T_lower == pytest.approx(math.sqrt(1.01), abs=1e-12)
    assert cert.T_upper == pytest.approx(2.0 * 0.5 / 0.3, abs=1e-12)
    traj = simulate_hybrid(g, cfg, (np.array([4.0, -3.0]), np.array([1.0, 1.0]), 0.1),
                           t_end=16.0, h=1e-3)
    dist = traj.distance_to(g.x_star)
    assert dist[-1] < 1e-2 * dist[0]
    report = verify_decrease(g, cfg, traj, cert=cert)
    assert report.passed and report.contraction_ok
    env = verify_envelopes(g, cfg, cert, traj)
    assert env.passed


def test_partial_first_window_when_tau0_above_reset(demo_field):
    chi0 = (np.array([1.0, 0.0]), np.array([0.0, 0.0]), 0.3)
    traj = simulate_hybrid(demo_field, DEMO_CFG, chi0, t_end=2.0, h=1e-3)
    first = traj.t[traj.jump_indices[0]]
    assert first == pytest.approx((DEMO_CFG.T - 0.3) / DEMO_CFG.eta, abs=1e-9)


def test_start_on_the_jump_set_resets_immediately(demo_field):
    chi0 = (np.array([1.0, 0.0]), np.array([2.0, -1.0]), DEMO_CFG.T)
    traj = simulate_hybrid(demo_field, DEMO_CFG, chi0, t_end=1.0, h=1e-3)
    assert traj.jump_indices[0] == 1
    assert traj.t[1] == 0.0
    assert traj.j[1] == 1
    assert np.all(traj.p[1] == 0.0)
    assert traj.tau[1] == DEMO_CFG.T0
    # the reset at t = 0 counts as one extra jump in the hybrid-time bound
    assert np.all(traj.j <= DEMO_CFG.eta * traj.t / (DEMO_CFG.T - DEMO_CFG.T0) + 1 + 1e-9)


# Unit clock window: T0 = 1, T = 2 and eta = 1/2 give flow windows of
# length 2, so dyadic steps land every sample exactly on its time.
UNIT_CFG = RestartConfig(T0=1.0, T=2.0, eta=0.5)
UNIT_CHI0 = (np.array([1.0, -1.0]), np.array([0.5, 0.0]), 1.0)


def test_step_larger_than_the_window_takes_one_step_per_window(demo_field):
    traj = simulate_hybrid(demo_field, UNIT_CFG, UNIT_CHI0, t_end=5.0, h=5.0)
    assert traj.t.tolist() == [0.0, 2.0, 2.0, 4.0, 4.0, 5.0]
    assert traj.j.tolist() == [0, 0, 1, 1, 2, 2]
    assert traj.jump_indices.tolist() == [2, 4]
    assert traj.tau.tolist() == [1.0, 2.0, 1.0, 2.0, 1.0, 1.5]
    assert not traj.blown_up


def test_horizon_shorter_than_one_step_takes_one_step(demo_field):
    traj = simulate_hybrid(demo_field, UNIT_CFG, UNIT_CHI0, t_end=0.1, h=0.25)
    assert traj.t.tolist() == [0.0, 0.1]
    assert traj.j.tolist() == [0, 0]
    assert len(traj.jump_indices) == 0
    assert not traj.blown_up


def test_horizon_ending_on_a_jump_keeps_both_jump_rows(demo_field):
    traj = simulate_hybrid(demo_field, UNIT_CFG, UNIT_CHI0, t_end=4.0, h=0.25)
    assert len(traj) == 19
    assert traj.jump_indices.tolist() == [9, 18]
    assert traj.t[-2] == traj.t[-1] == 4.0
    assert traj.tau[-2] == UNIT_CFG.T and traj.tau[-1] == UNIT_CFG.T0
    assert traj.j[-2] == 1 and traj.j[-1] == 2
    assert np.array_equal(traj.q[-2], traj.q[-1])
    assert np.all(traj.p[-1] == 0.0)


def test_nan_field_truncates_without_a_later_reset():
    # anti-restoring field that turns NaN past |q| = 13.5: the fourth window
    # reaches it in its last step, where a reset would otherwise follow
    g = GeneralField(
        dim=1,
        potential=lambda q: float(-0.5 * q @ q),
        potential_gradient=lambda q: -q if abs(q[0]) < 13.5 else np.full(1, np.nan),
        rotation=lambda q: 0.0 * q,
        x_star=np.zeros(1),
        kappa_j=1.0,
        ell_j=1.0,
        ell_k=0.0,
    )
    traj = simulate_hybrid(g, UNIT_CFG, (np.array([1.0]), np.array([0.0]), 1.0),
                           t_end=10.0, h=0.25)
    assert traj.blown_up
    assert len(traj) == 35
    assert traj.jump_indices.tolist() == [9, 18, 27]
    assert traj.t[-1] == 7.75 and traj.j[-1] == 3
    assert np.all(np.isfinite(traj.q)) and np.all(np.isfinite(traj.p))
    assert np.all(np.isfinite(traj.tau))


# ---------------------------------------------------------------- linear fast path
#
# A LinearField flows through step matrices and shares one propagator stack
# among its reset windows; its as_general() wrapper takes the generic RK4
# path, which is the reference.


def assert_same_hybrid_run(lin, gen):
    for name in ("t", "j", "tau", "jump_indices"):
        assert np.array_equal(getattr(lin, name), getattr(gen, name))
    assert lin.blown_up == gen.blown_up
    ref = np.hstack([gen.q, gen.p])
    assert np.max(np.abs(np.hstack([lin.q, lin.p]) - ref)) <= 1e-12 * np.max(np.abs(ref))


def reference_case(case):
    """Field, restart config, start and horizon of figure 2 or a criterion-10 run."""
    if case == "figure2":
        return helmholtz_split(DEMO_Q), DEMO_CFG, CHI0, 8.0
    eta, T0 = 0.5, 0.01
    f = helmholtz_split(case * np.eye(2))
    cfg = RestartConfig(T0=T0, T=calibrate_optimal_restart(f, eta=eta, T0=T0).T_opt, eta=eta)
    return f, cfg, (np.array([3.0, -2.0]), np.zeros(2), T0), 24.0 / (eta * math.sqrt(case))


@pytest.mark.parametrize("case", ["figure2", 1.0, 4.0, 16.0, 64.0])
def test_linear_field_runs_match_the_general_wrapper(case):
    f, cfg, chi0, t_end = reference_case(case)
    lin, gen = (simulate_hybrid(g, cfg, chi0, t_end=t_end, h=1e-3) for g in (f, f.as_general()))
    assert_same_hybrid_run(lin, gen)
    lin, gen = (integrate_nesterov_t(g, chi0[0], chi0[1], T0=cfg.T0, eta=cfg.eta,
                                     t_end=t_end, h=1e-3) for g in (f, f.as_general()))
    assert np.array_equal(lin.times, gen.times) and lin.blown_up == gen.blown_up
    assert np.array_equal(lin.states[:, -1], gen.states[:, -1])  # the tau column
    assert np.max(np.abs(lin.states - gen.states)) <= 1e-12 * np.max(np.abs(gen.states[:, :-1]))


def test_cap_crossing_in_a_reused_window_truncates_at_the_same_row():
    # strong rotation and long windows: the restarted run grows tenfold per window
    f = helmholtz_split(np.array([[1.0, 10.0], [-10.0, 1.0]]))
    cfg = RestartConfig(T0=1.0, T=3.0, eta=1.0)
    chi0 = (np.array([1.0, 0.0]), np.zeros(2), 1.0)
    free = simulate_hybrid(f, cfg, chi0, t_end=10.0, h=1e-2, cap=np.inf)
    norms = np.linalg.norm(np.hstack([free.q, free.p]), axis=1)
    peak = np.maximum.accumulate(norms)
    row = next(r for r in range(1, len(norms)) if free.j[r] == 2 and norms[r] > peak[r - 1])
    cap = math.sqrt(peak[row - 1] * norms[row])
    lin, gen = (simulate_hybrid(g, cfg, chi0, t_end=10.0, h=1e-2, cap=cap)
                for g in (f, f.as_general()))
    assert lin.blown_up and len(lin) == row + 1
    assert_same_hybrid_run(lin, gen)


SHARED_PROPAGATOR_CASES = {  # config, start, t_end, step, jumps, _rk4_linear calls
    "figure2": (DEMO_CFG, CHI0, 8.0, 1e-3, 10, 3),
    "tau0_above_T0": (DEMO_CFG, (np.array([1.0, 0.0]), np.zeros(2), 0.3), 2.0, 1e-3, 3, 3),
    "t_end_on_a_jump": (UNIT_CFG, UNIT_CHI0, 4.0, 0.25, 2, 2),
    "ends_in_the_first_reset_window": (UNIT_CFG, UNIT_CHI0, 3.0, 0.25, 1, 2),
}


@pytest.mark.parametrize("case", list(SHARED_PROPAGATOR_CASES))
def test_reset_windows_share_one_propagator(monkeypatch, demo_field, case):
    # one call for the window from chi0, one for the stack every full reset
    # window reuses, and one for a final partial window
    cfg, chi0, t_end, h, jumps, calls = SHARED_PROPAGATOR_CASES[case]
    made = []
    step_matrices = odesim._rk4_linear
    with monkeypatch.context() as m:
        m.setattr(odesim, "_rk4_linear", lambda *args: made.append(args) or step_matrices(*args))
        lin = simulate_hybrid(demo_field, cfg, chi0, t_end=t_end, h=h)
    assert (len(lin.jump_indices), len(made)) == (jumps, calls)
    assert_same_hybrid_run(lin, simulate_hybrid(demo_field.as_general(), cfg, chi0,
                                                t_end=t_end, h=h))


def test_a_start_above_the_cap_on_the_jump_set_flows_one_step(demo_field):
    # the cap applies to the states a flow produces, not to its start
    chi0 = (np.array([2.0, 0.0]), np.array([1.0, 1.0]), UNIT_CFG.T)
    lin, gen = (simulate_hybrid(g, UNIT_CFG, chi0, t_end=4.0, h=1e-2, cap=1.5)
                for g in (demo_field, demo_field.as_general()))
    assert lin.blown_up and len(lin) == 3
    assert lin.jump_indices.tolist() == [1]
    assert_same_hybrid_run(lin, gen)


def test_an_overflowing_window_propagator_is_not_reused():
    # RK4 at h = 0.25 is unstable for the frequency 1e12, so the propagator
    # stack overflows within one window while the equilibrium stays at zero
    f = helmholtz_split(1e24 * np.eye(2))
    chi0 = (np.zeros(2), np.zeros(2), UNIT_CFG.T0)
    lin, gen = (simulate_hybrid(g, UNIT_CFG, chi0, t_end=6.0, h=0.25)
                for g in (f, f.as_general()))
    assert not lin.blown_up and np.max(np.abs(lin.q)) == 0.0
    assert len(lin.jump_indices) == 3
    assert_same_hybrid_run(lin, gen)

# ---------------------------------------------------------------- certificate


def test_demo_window_bounds(demo_field):
    lo, hi = reset_window(demo_field.kappa_j, demo_field.ell_k, 0.1, 0.5)
    assert lo == pytest.approx(math.sqrt(0.02), abs=1e-12)
    assert hi == pytest.approx(0.6, abs=1e-12)


def test_certificate_demo_constants(demo_field):
    cert = lyapunov_certificate(demo_field, DEMO_CFG)
    assert cert.b == pytest.approx(2.5)
    assert cert.a == pytest.approx(2 * 0.5 * 2.5 / 0.471 ** 2, rel=1e-12)
    assert cert.delta == pytest.approx(2.0 / 0.471 ** 2, rel=1e-12)
    assert cert.m == pytest.approx(cert.delta / 2, rel=1e-12)
    assert cert.nu == pytest.approx(cert.nu1)
    assert 0.0 < cert.nu < 1.0
    assert cert.mu > 0.0
    assert cert.rho > 0.0


@pytest.mark.parametrize("eta", [0.1, 0.5, 0.9])
@pytest.mark.parametrize("T", [0.2, 0.471, 1.0, 3.0, 10.0])
def test_certificate_constants_satisfy_the_closed_forms(demo_field, eta, T):
    # delta = 2/T^2 and m = delta/2 hold algebraically for every eta and T
    cert = lyapunov_certificate(demo_field, RestartConfig(T0=0.1, T=T, eta=eta),
                                enforce_window=False)
    assert cert.delta == pytest.approx(2.0 / T ** 2, rel=1e-12)
    assert cert.m == pytest.approx(cert.delta / 2, rel=1e-12)


def test_certificate_rejects_out_of_window_triggers(demo_field):
    with pytest.raises(WindowViolationError):
        lyapunov_certificate(demo_field, RestartConfig(T0=0.1, T=0.141, eta=0.5))
    with pytest.raises(WindowViolationError):
        lyapunov_certificate(demo_field, RestartConfig(T0=0.1, T=0.7, eta=0.5))
    # boundary excluded: T equal to the lower bound is refused
    lo, _ = reset_window(demo_field.kappa_j, demo_field.ell_k, 0.1, 0.5)
    with pytest.raises(WindowViolationError):
        lyapunov_certificate(demo_field, RestartConfig(T0=0.1, T=lo, eta=0.5))


def test_certificate_accepts_raw_constant_triples(demo_field):
    by_field = lyapunov_certificate(demo_field, DEMO_CFG)
    by_triple = lyapunov_certificate((100.0, 100.0, 5.0), DEMO_CFG)
    assert by_triple.mu == by_field.mu
    assert by_triple.rho == by_field.rho
    assert by_triple.c_upper == by_field.c_upper


def test_conservative_field_has_unbounded_window():
    f = helmholtz_split(np.diag([4.0, 9.0]))
    lo, hi = reset_window(f.kappa_j, f.ell_k, 0.1, 0.5)
    assert hi == math.inf
    cert = lyapunov_certificate(f, RestartConfig(T0=0.1, T=5.0, eta=0.5))
    assert cert.mu > 0.0


@pytest.mark.parametrize("seed", [0, 3])
def test_lyapunov_sandwich_on_random_states(demo_field, seed):
    cert = lyapunov_certificate(demo_field, DEMO_CFG)
    rng = np.random.default_rng(seed)
    q = rng.standard_normal((500, 2)) * rng.uniform(0.1, 100.0, (500, 1))
    p = rng.standard_normal((500, 2)) * rng.uniform(0.1, 100.0, (500, 1))
    tau = rng.uniform(DEMO_CFG.T0, DEMO_CFG.T, 500)
    values = lyapunov_values(cert, demo_field, flow_samples(q, p, tau))
    for k in range(500):
        V = values[k]
        assert V == pytest.approx(pointwise_lyapunov(cert, demo_field, q[k], p[k], tau[k]),
                                  rel=1e-12)
        dist2 = float(q[k] @ q[k] + p[k] @ p[k])
        assert cert.c_lower * dist2 * (1 - 1e-9) <= V <= cert.c_upper * dist2 * (1 + 1e-9)


def test_lyapunov_value_vanishes_only_on_the_target(demo_field):
    cert = lyapunov_certificate(demo_field, DEMO_CFG)
    q = np.array([[0.0, 0.0], [1e-3, 0.0]])
    values = lyapunov_values(cert, demo_field, flow_samples(q, np.zeros((2, 2)), [0.2, 0.2]))
    assert values[0] == 0.0
    assert values[1] > 0.0
    assert values[1] == pytest.approx(
        pointwise_lyapunov(cert, demo_field, q[1], np.zeros(2), 0.2), rel=1e-12)


def test_vectorized_lyapunov_matches_pointwise(demo_field, demo_run):
    cert = lyapunov_certificate(demo_field, DEMO_CFG)
    values = lyapunov_values(cert, demo_field, demo_run)
    for k in (0, 137, len(demo_run) - 1):
        single = pointwise_lyapunov(cert, demo_field, demo_run.q[k], demo_run.p[k],
                                    float(demo_run.tau[k]))
        assert values[k] == pytest.approx(single, rel=1e-12, abs=1e-300)


# ---------------------------------------------------------------- verification


def test_decrease_report_demo_run(demo_field, demo_run):
    report = verify_decrease(demo_field, DEMO_CFG, demo_run)
    assert report.passed
    assert report.flow_violations == 0
    assert report.jump_violations == 0
    assert report.contraction_ok
    # actual per-interval contraction is far stronger than the guarantee
    assert report.worst_contraction_ratio < 0.1
    starts = report.interval_start_values
    assert all(b <= a * report.contraction for a, b in zip(starts, starts[1:]))


def test_decrease_report_equilibrium_run(demo_field):
    traj = simulate_hybrid(demo_field, DEMO_CFG, (np.zeros(2), np.zeros(2), 0.1),
                           t_end=3.0, h=1e-3)
    report = verify_decrease(demo_field, DEMO_CFG, traj)
    assert report.passed
    assert set(report.interval_start_values) == {0.0}


def test_decrease_report_counts_a_nan_potential_as_a_violation():
    # V is NaN while |q| > 50; a NaN margin must fail, not drop out of the count
    def potential(q):
        return 8.0 * float(q @ q) if np.linalg.norm(q) <= 50.0 else math.nan

    Qa = np.array([[0.0, 0.3], [-0.3, 0.0]])
    g = GeneralField(dim=2, potential=potential, potential_gradient=lambda q: 16.0 * q,
                     rotation=lambda q: Qa @ q, x_star=np.zeros(2),
                     kappa_j=16.0, ell_j=16.0, ell_k=0.3)
    cfg = RestartConfig(T0=0.1, T=0.5, eta=0.5)
    cert = lyapunov_certificate(g, cfg)
    traj = simulate_hybrid(g, cfg, (np.array([100.0, -100.0]), np.zeros(2), 0.1),
                           t_end=2.0, h=1e-3)
    V = lyapunov_values(cert, g, traj)
    assert 0 < np.count_nonzero(np.isnan(V)) < len(V)
    report = verify_decrease(g, cfg, traj, cert=cert)
    assert not report.passed
    assert report.flow_violations >= np.count_nonzero(np.isnan(V[1:]))
    assert math.isnan(report.worst_flow_margin)
    assert not report.contraction_ok
    assert math.isnan(report.worst_contraction_ratio)


def test_forced_inadmissible_trigger_voids_the_rate_guarantee(demo_field):
    cfg = RestartConfig(T0=0.1, T=0.9, eta=0.5)  # above T_upper = 0.6
    with pytest.raises(WindowViolationError):
        verify_decrease(demo_field, cfg,
                        simulate_hybrid(demo_field, cfg, CHI0, t_end=1.0, h=1e-2))
    cert = lyapunov_certificate(demo_field, cfg, enforce_window=False)
    assert cert.mu < 0.0  # no positive flow rate survives past the window
    traj = simulate_hybrid(demo_field, cfg, CHI0, t_end=8.0, h=1e-3)
    report = verify_decrease(demo_field, cfg, traj, cert=cert)
    # the run itself still contracts here; the report is what flags or
    # clears it, and it must come back well-formed either way
    assert report.flow_pairs > 0 and report.jump_count > 0
    assert report.flow_violations >= 0


def test_envelopes_demo_run(demo_field, demo_run):
    cert = lyapunov_certificate(demo_field, DEMO_CFG)
    env = verify_envelopes(demo_field, DEMO_CFG, cert, demo_run)
    assert env.passed
    assert env.worst_potential_ratio <= 1.0
    assert env.worst_drive_ratio <= 1.0
    assert env.c2 > 0.0
    # fitted constants certify the run: distance under c1 * exp(-c2 (t+j))
    dist = demo_run.set_distance(demo_field.x_star)
    bound = env.c1 * dist[0] * np.exp(-env.c2 * (demo_run.t + demo_run.j))
    assert np.all(dist <= bound * (1 + 1e-9))


def test_envelopes_conservative_field_hold_with_strict_margin():
    cons = helmholtz_split(100.0 * np.eye(2))
    cert = lyapunov_certificate(cons, DEMO_CFG)
    traj = simulate_hybrid(cons, DEMO_CFG, CHI0, t_end=8.0, h=1e-3)
    env = verify_envelopes(cons, DEMO_CFG, cert, traj)
    assert env.passed
    # measured: both worst ratios sit near 0.39, dominated by the initial
    # sample; everything later decays much faster than the bound
    assert env.worst_potential_ratio < 0.5
    assert env.worst_drive_ratio < 0.5


def test_envelopes_equilibrium_run_is_trivial(demo_field):
    cert = lyapunov_certificate(demo_field, DEMO_CFG)
    traj = simulate_hybrid(demo_field, DEMO_CFG, (np.zeros(2), np.zeros(2), 0.1),
                           t_end=2.0, h=1e-3)
    env = verify_envelopes(demo_field, DEMO_CFG, cert, traj)
    assert env.passed
    assert env.m_j == 0.0


# ---------------------------------------------------------------- restart tuning


def test_restart_ratio_at_unit_beta_is_inverse_e():
    assert restart_ratio(1.0, tol=1e-10) == pytest.approx(1.0 / math.e, abs=1e-8)


def test_restart_ratio_small_beta_approaches_half():
    assert restart_ratio(1e-4, tol=1e-10) == pytest.approx(0.5, abs=1e-3)


@pytest.mark.parametrize("beta", [0.01, 0.05, 0.1, 0.25, 0.5, 0.75, 1.0])
def test_optimal_trigger_ratio_lands_between_two_and_e(beta):
    xi, T_opt = optimal_restart(kappa_j=1.0, eta=0.5, T0=0.0, c_upper=1.0 / beta)
    T_lower = 2.0 * 0.5 / 1.0  # sqrt(4 eta^2 / kappa) with T0 = 0
    ratio = T_opt / T_lower
    assert 2.0 - 1e-6 <= ratio <= math.e + 1e-6
    assert xi == pytest.approx(restart_ratio(beta), abs=1e-9)


@pytest.mark.parametrize("beta", [0.01, 0.1, 0.5, 1.0])
def test_root_function_is_strictly_increasing(beta):
    xs = np.linspace(1e-3, 1.0 - 1e-3, 100)
    vals = [math.log(1 - beta * (1 - x)) + beta * x / (1 - beta * (1 - x)) for x in xs]
    assert np.all(np.diff(vals) > 0.0)


def test_beta_out_of_range_is_rejected():
    with pytest.raises(BetaOutOfRangeError):
        restart_ratio(0.0)
    with pytest.raises(BetaOutOfRangeError):
        restart_ratio(1.2)
    with pytest.raises(BetaOutOfRangeError):
        optimal_restart(kappa_j=2.0, eta=0.5, T0=0.0, c_upper=0.5)  # beta = 2


def test_calibrated_restart_for_the_demo_field(demo_field):
    sol = calibrate_optimal_restart(demo_field, eta=0.5, T0=0.1)
    assert sol.T_opt == pytest.approx(0.2831, abs=2e-4)
    assert sol.iterations == 2
    assert len(sol.history) == 3
    # solution is admissible for the demo field
    lo, hi = reset_window(demo_field.kappa_j, demo_field.ell_k, 0.1, 0.5)
    assert lo < sol.T_opt <= hi


@pytest.mark.parametrize("eta", [0.1, 0.5, 0.9])
@pytest.mark.parametrize("field", ["demo", (0.2, 0.2, 0.05)], ids=["demo", "triple"])
def test_calibrated_c_upper_is_the_certificate_c_upper(demo_field, field, eta):
    # with enough refinement the trigger is a fixed point, so the sandwich
    # constant the solver used is the certificate's at the returned trigger
    f = demo_field if field == "demo" else field
    sol = calibrate_optimal_restart(f, eta=eta, T0=0.1, refine=8)
    assert sol.history[-1] == sol.history[-2]
    cert = lyapunov_certificate(f, RestartConfig(T0=0.1, T=sol.T_opt, eta=eta),
                                enforce_window=False)
    assert sol.c_upper == cert.c_upper


@pytest.mark.parametrize("refine", [0, 1, 3])
def test_calibrated_constants_come_from_the_previous_trigger(demo_field, refine):
    # beta, c_upper and xi_star are solved at history[-2]; only T_opt is
    # the newest estimate history[-1]
    sol = calibrate_optimal_restart(demo_field, eta=0.5, T0=0.1, refine=refine)
    assert sol.T_opt == sol.history[-1]
    cert = lyapunov_certificate(demo_field, RestartConfig(T0=0.1, T=sol.history[-2], eta=0.5),
                                enforce_window=False)
    assert sol.c_upper == cert.c_upper
    assert sol.beta == min(1.0, demo_field.kappa_j) / sol.c_upper
    assert sol.xi_star == restart_ratio(sol.beta)
