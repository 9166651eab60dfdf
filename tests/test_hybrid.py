import copy
import math
import pickle
import re
import tracemalloc
from dataclasses import fields, replace

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from nestode import hybrid, odesim
from nestode.fields import GeneralField, helmholtz_split
from nestode.hybrid import (
    HybridTrajectory,
    RestartConfig,
    WindowViolationError,
    calibrate_optimal_restart,
    lyapunov_certificate,
    lyapunov_values,
    reset_window,
    restart_ratio,
    simulate_hybrid,
    verify_decrease,
    verify_envelopes,
)
from nestode.odesim import integrate_nesterov_t

from conftest import (
    BESSEL_PROTOTYPE,
    BESSEL_STEPS,
    DEMO_Q,
    bessel_flow,
    make_commensurate_field,
    plain_triggers,
    soft_field,
    split_parts_field,
)

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
                            q=q, p=p, tau=np.asarray(tau, dtype=float), potential_gap=None,
                            drive=None, blown_up=False)


# ---------------------------------------------------------------- simulation


def test_demo_run_decays_and_respects_jump_cadence(demo_field, demo_run):
    traj = demo_run
    assert not traj.blown_up
    assert traj.dim == 2
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
    g = soft_field()
    cfg = RestartConfig(T0=0.1, T=2.0, eta=0.5)
    cert = lyapunov_certificate(g, cfg)
    assert cert.T_lower == pytest.approx(math.sqrt(1.01), abs=1e-12)
    assert cert.T_upper == pytest.approx(2.0 * 0.5 / 0.3, abs=1e-12)
    traj = simulate_hybrid(g, cfg, (np.array([4.0, -3.0]), np.array([1.0, 1.0]), 0.1),
                           t_end=16.0, h=1e-3)
    assert traj.dim == g.dim
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


@pytest.mark.parametrize("cfg,t_end", [(DEMO_CFG, 1e300),
                                       (RestartConfig(T0=0.1, T=0.1 + 1e-9, eta=1.0), 1.0)],
                         ids=["long-run", "windows-shorter-than-the-step"])
def test_a_run_past_the_step_bound_is_refused_before_it_starts(demo_field, cfg, t_end):
    # every window takes a step, so 1e9 windows of 1e-9 count as 1e9 steps
    with pytest.raises(ValueError, match="exceeds the bound of 100000000 steps"):
        simulate_hybrid(demo_field, cfg, CHI0, t_end=t_end, h=1e-3)


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


def test_a_run_peaks_below_three_times_its_result():
    # the per-window rows are freed before the trajectory copies its columns;
    # kept alive, they lifted this run's peak to 3.3 times its result
    f, cfg, chi0, t_end = reference_case(1.0)
    tracemalloc.start()
    try:
        run = simulate_hybrid(f, cfg, chi0, t_end=t_end, h=1e-3)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    size = sum(a.nbytes for a in (run.t, run.j, run.q, run.p, run.tau, run.jump_indices))
    assert peak < 2.75 * size


def test_cap_crossing_in_a_reused_window_truncates_at_the_same_row(monkeypatch):
    # strong rotation and long windows: the restarted run grows tenfold per window
    f = helmholtz_split(np.array([[1.0, 10.0], [-10.0, 1.0]]))
    cfg = RestartConfig(T0=1.0, T=3.0, eta=1.0)
    chi0 = (np.array([1.0, 0.0]), np.zeros(2), 1.0)
    monkeypatch.setattr(hybrid, "BLOWUP_CAP", np.inf)
    free = simulate_hybrid(f, cfg, chi0, t_end=10.0, h=1e-2)
    norms = np.linalg.norm(np.hstack([free.q, free.p]), axis=1)
    peak = np.maximum.accumulate(norms)
    row = next(r for r in range(1, len(norms)) if free.j[r] == 2 and norms[r] > peak[r - 1])
    monkeypatch.setattr(hybrid, "BLOWUP_CAP", math.sqrt(peak[row - 1] * norms[row]))
    lin, gen = (simulate_hybrid(g, cfg, chi0, t_end=10.0, h=1e-2)
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


def test_a_start_above_the_cap_on_the_jump_set_flows_one_step(monkeypatch, demo_field):
    # the cap applies to the states a flow produces, not to its start
    chi0 = (np.array([2.0, 0.0]), np.array([1.0, 1.0]), UNIT_CFG.T)
    monkeypatch.setattr(hybrid, "BLOWUP_CAP", 1.5)
    lin, gen = (simulate_hybrid(g, UNIT_CFG, chi0, t_end=4.0, h=1e-2)
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


def test_reset_windows_match_the_bessel_solution(demo_field):
    # every full window after a reset applies the one propagator stack to
    # (q, 0) at T0; each is checked against the exact flow from its own start
    chi0 = (np.array([1.0, -1.0]), np.zeros(2), DEMO_CFG.T0)
    errors = []
    for h in BESSEL_STEPS:
        run = simulate_hybrid(demo_field, DEMO_CFG, chi0, t_end=3.0, h=h)
        assert run.j[-1] == 4  # windows 1, 2 and 3 are full, window 4 is partial
        worst = 0.0
        for j in (1, 2, 3):
            t, q = run.t[run.j == j], run.q[run.j == j]
            exact = bessel_flow(DEMO_Q, q[0], np.zeros(2), DEMO_CFG.T0, DEMO_CFG.eta,
                                t - t[0])[:, :2]
            worst = max(worst, np.max(np.abs(q - exact)) / np.max(np.abs(exact)))
        errors.append(worst)
    assert np.all(np.array(errors) <= 2.0 * BESSEL_PROTOTYPE)
    assert np.all(np.log2(np.array(errors[:-1]) / errors[1:]) >= 3.5)


@pytest.mark.parametrize("n", range(1, 7))
def test_reset_windows_are_the_propagator_stack_applied_to_q(n):
    # the stack of one full window from (I, 0) at T0, applied to each reset
    # state as a stacked matrix-vector product
    f = make_commensurate_field(20 + n, n)
    chi0 = (np.ones(n), np.zeros(n), DEMO_CFG.T0)
    run = simulate_hybrid(f, DEMO_CFG, chi0, t_end=3.0, h=1e-3)
    assert run.j[-1] == 4  # windows 1, 2 and 3 are full, window 4 is partial
    window = (DEMO_CFG.T - DEMO_CFG.T0) / DEMO_CFG.eta
    propagators = odesim._flow_t(f, np.eye(2 * n, n), 0.0, DEMO_CFG.T0, DEMO_CFG.eta,
                                 window, 1e-3, math.inf)[1]
    for j in (1, 2, 3):
        rows = run.j == j
        ref = propagators @ run.q[rows][0]
        states = np.hstack([run.q[rows], run.p[rows]])
        assert np.max(np.abs(states - ref)) <= 1e-15 * np.max(np.abs(ref))

# ---------------------------------------------------------------- certificate


def test_demo_window_bounds(demo_field):
    lo, hi = reset_window(demo_field, 0.1, 0.5)
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
def test_certificate_constants_satisfy_the_closed_forms(eta, T):
    # delta = 2/T^2 and m = delta/2 hold algebraically for every eta and T; a
    # stiff conservative field has every one of these triggers in its window
    f = helmholtz_split(1e4 * np.eye(2))
    cert = lyapunov_certificate(f, RestartConfig(T0=0.1, T=T, eta=eta))
    assert cert.delta == pytest.approx(2.0 / T ** 2, rel=1e-12)
    assert cert.m == pytest.approx(cert.delta / 2, rel=1e-12)


def test_certificate_rejects_out_of_window_triggers(demo_field):
    with pytest.raises(WindowViolationError):
        lyapunov_certificate(demo_field, RestartConfig(T0=0.1, T=0.141, eta=0.5))
    with pytest.raises(WindowViolationError):
        lyapunov_certificate(demo_field, RestartConfig(T0=0.1, T=0.7, eta=0.5))
    # boundary excluded: T equal to the lower bound is refused
    lo, _ = reset_window(demo_field, 0.1, 0.5)
    with pytest.raises(WindowViolationError):
        lyapunov_certificate(demo_field, RestartConfig(T0=0.1, T=lo, eta=0.5))


def test_conservative_field_has_unbounded_window():
    f = helmholtz_split(np.diag([4.0, 9.0]))
    lo, hi = reset_window(f, 0.1, 0.5)
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
    report = verify_decrease(demo_field, DEMO_CFG, demo_run,
                             cert=lyapunov_certificate(demo_field, DEMO_CFG))
    assert report.passed
    assert report.flow_violations == 0
    assert report.jump_violations == 0
    assert report.contraction_ok
    # actual per-interval contraction is far stronger than the guarantee
    assert report.worst_contraction_ratio < 0.1
    starts = report.interval_start_values
    contraction = lyapunov_certificate(demo_field, DEMO_CFG).contraction
    assert all(b <= a * contraction for a, b in zip(starts, starts[1:]))


def test_decrease_report_fails_on_the_contraction_alone(demo_field, demo_run):
    # a forged rate leaves every flow and jump margin as it is, so only the
    # per-interval contraction can fail the report
    cert = lyapunov_certificate(demo_field, DEMO_CFG)
    report = verify_decrease(demo_field, DEMO_CFG, demo_run, cert=replace(cert, rho=cert.rho + 50))
    assert report.flow_violations == 0 and report.jump_violations == 0
    assert not report.contraction_ok
    assert not report.passed


def test_decrease_report_equilibrium_run(demo_field):
    traj = simulate_hybrid(demo_field, DEMO_CFG, (np.zeros(2), np.zeros(2), 0.1),
                           t_end=3.0, h=1e-3)
    report = verify_decrease(demo_field, DEMO_CFG, traj,
                             cert=lyapunov_certificate(demo_field, DEMO_CFG))
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


def test_envelopes_demo_run(demo_field, demo_run):
    cert = lyapunov_certificate(demo_field, DEMO_CFG)
    env = verify_envelopes(demo_field, DEMO_CFG, cert, demo_run)
    assert env.passed
    assert env.worst_potential_ratio <= 1.0
    assert env.worst_drive_ratio <= 1.0
    assert env.c2 > 0.0
    # fitted constants certify the run: distance under c1 * exp(-c2 (t+j))
    dist = np.hypot(demo_run.distance_to(demo_field.x_star), np.linalg.norm(demo_run.p, axis=1))
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


def test_envelopes_of_a_one_row_run_fit_no_decay_rate(demo_field):
    # the demo field with a gradient that is NaN where |x|_inf > 1e3: the
    # first step from far out is non-finite, so the run keeps its start row
    # alone, one hybrid time through which no line can be fit
    g = GeneralField(dim=2, potential=demo_field.potential,
                     potential_gradient=lambda x: (demo_field.Qs @ x if np.max(np.abs(x)) <= 1e3
                                                   else np.full(2, np.nan)),
                     rotation=demo_field.rotation, x_star=np.zeros(2),
                     kappa_j=demo_field.kappa_j, ell_j=demo_field.ell_j, ell_k=demo_field.ell_k)
    far = simulate_hybrid(g, DEMO_CFG, (np.array([1e4, 0.0]), np.zeros(2), 0.1), t_end=1.0)
    assert len(far) == 1 and far.blown_up
    by_hand = HybridTrajectory(t=np.zeros(1), j=np.zeros(1, dtype=int), q=[[1.0, -1.0]],
                               p=[[1.0, -1.0]], tau=[0.1], potential_gap=None, drive=None,
                               blown_up=False)
    for f, traj in ((g, far), (demo_field, by_hand)):
        env = verify_envelopes(f, DEMO_CFG, lyapunov_certificate(f, DEMO_CFG), traj)
        assert (env.c1, env.c2) == (1.0, 0.0)


# ---------------------------------------------------------------- recorded per-row values


SOFT_CFG = RestartConfig(T0=0.1, T=1.2, eta=0.5)
SOFT_CHI0 = (np.array([4.0, -3.0]), np.ones(2), 0.1)


def soft_hybrid_run(f):
    """A run of the soft field ``f`` with one reset."""
    return simulate_hybrid(f, SOFT_CFG, SOFT_CHI0, t_end=3.0, h=2e-3)


@pytest.fixture(scope="module")
def soft_run():
    """A soft-field run with one reset, which records its potential gaps and drives."""
    return soft_hybrid_run(soft_field())


def audit(f, traj, envelopes_first=False):
    """V, the decrease report and the envelope report of ``traj`` under ``f``."""
    cert = lyapunov_certificate(f, SOFT_CFG)
    if envelopes_first:
        env = verify_envelopes(f, SOFT_CFG, cert, traj)
    decrease = verify_decrease(f, SOFT_CFG, traj, cert=cert)
    if not envelopes_first:
        env = verify_envelopes(f, SOFT_CFG, cert, traj)
    return lyapunov_values(cert, f, traj).tolist(), decrease, env


def test_verification_evaluates_the_potential_once_per_row():
    calls = []
    f = soft_field(calls=calls)
    traj = soft_hybrid_run(f)
    audit(f, traj)
    assert len(calls) == len(traj) + 1  # each row and x_star, for the run and its audit


def test_a_vectorized_run_and_its_audit_call_the_potential_twice():
    calls = []
    f = soft_field(calls=calls, vectorized=True)
    calls.clear()  # the constructor's checks
    traj = soft_hybrid_run(f)
    audit(f, traj)
    # one call on the block of every row, and one at x_star
    assert [np.shape(q) for q in calls] == [(len(traj), 2), (2,)]
    assert np.array_equal(calls[0], traj.q)


@pytest.mark.parametrize("vectorized", [False, True])
def test_a_potential_that_keeps_its_argument_cannot_write_into_the_run(vectorized):
    calls = []
    traj = soft_hybrid_run(soft_field(calls=calls, vectorized=vectorized))
    q = traj.q.copy()
    for kept in calls:
        try:
            kept[...] = 99.0
        except ValueError:  # read-only
            pass
    assert np.array_equal(traj.q, q)


def test_verification_results_do_not_depend_on_the_call_order(soft_run):
    g = soft_field()
    assert audit(g, soft_run) == audit(g, soft_run, envelopes_first=True)


def test_a_recorded_run_is_audited_without_a_field_call():
    f, calls = spied_soft_field()
    traj = soft_hybrid_run(f)
    for recorded in calls.values():
        recorded.clear()
    audit(f, traj)
    assert calls == {"potential": [], "potential_gradient": [], "rotation": []}


def test_a_trajectory_holds_its_declared_fields_alone(demo_run, soft_run):
    assert demo_run.drive is None and soft_run.drive is not None  # a linear run records nothing
    by_hand = flow_samples(np.ones((3, 2)), np.zeros((3, 2)), [0.1, 0.2, 0.3])
    declared = {c.name for c in fields(HybridTrajectory)}
    for traj in (demo_run, soft_run, by_hand):
        for clone in (traj, pickle.loads(pickle.dumps(traj)), copy.copy(traj),
                      copy.deepcopy(traj)):
            assert vars(clone).keys() == declared


@pytest.mark.parametrize("potential_gap, drive, match", [
    (np.zeros(3), None, "together"),
    (None, np.zeros(3), "together"),
    (np.zeros(2), np.zeros(3), "one value per row"),
    (np.zeros(4), np.zeros(4), "one value per row"),
    (np.zeros((3, 1)), np.zeros((3, 1)), "one value per row"),
], ids=["gap-alone", "drive-alone", "short-gap", "long-both", "column"])
def test_recorded_values_come_in_pairs_of_one_value_per_row(potential_gap, drive, match):
    arrays = {"t": np.arange(3.0), "j": np.zeros(3, dtype=int), "q": np.ones((3, 2)),
              "p": np.zeros((3, 2)), "tau": np.full(3, 0.1), "blown_up": False}
    assert len(HybridTrajectory(**arrays, potential_gap=np.zeros(3), drive=np.zeros(3))) == 3
    with pytest.raises(ValueError, match=match):
        HybridTrajectory(**arrays, potential_gap=potential_gap, drive=drive)


@pytest.mark.parametrize("field", ["linear", "general"])
def test_report_fields_are_python_floats(demo_field, field):
    f = demo_field if field == "linear" else soft_field()
    cfg = DEMO_CFG if field == "linear" else SOFT_CFG
    traj = simulate_hybrid(f, cfg, CHI0 if field == "linear" else SOFT_CHI0, t_end=1.0)
    cert = lyapunov_certificate(f, cfg)
    for report in (verify_decrease(f, cfg, traj, cert=cert), verify_envelopes(f, cfg, cert, traj)):
        floats = [c.name for c in fields(report) if c.type == "float"]
        assert floats and all(type(getattr(report, name)) is float for name in floats), report


@pytest.mark.parametrize("f", [soft_field(), make_commensurate_field(9, 9).as_general()],
                         ids=["soft", "dim9"])
def test_stacked_drives_equal_the_row_by_row_sums(f):
    q = np.random.default_rng(0).standard_normal((500, f.dim))
    assert np.array_equal(hybrid._drives(f, q), [float(np.sum(f(qi) ** 2)) for qi in q])


def test_parts_that_return_lists_drive_with_their_sum():
    # at (1, 2), |g + r|^2 = 58, while a concatenation of the lists sums
    # |g|^2 + |r|^2 = 70
    f = split_parts_field(lists=True)
    assert f(np.array([1.0, 2.0])).tolist() == [3.0, 7.0]
    assert hybrid._drives(f, np.array([[1.0, 2.0]])).tolist() == [58.0]


def spied_soft_field():
    """``soft_field`` whose potential, gradient and rotation each record their calls."""
    calls = {"potential": [], "potential_gradient": [], "rotation": []}
    f = soft_field(calls=calls["potential"])

    def spy(name):
        part = getattr(f, name)
        return lambda q: calls[name].append(q) or part(q)

    spied = replace(f, potential_gradient=spy("potential_gradient"), rotation=spy("rotation"))
    for recorded in calls.values():
        recorded.clear()  # the shape check at x_star
    return spied, calls


@pytest.mark.parametrize("cfg,chi0,t_end,h", [
    (SOFT_CFG, (np.array([4.0, -3.0]), np.ones(2), 0.1), 3.0, 2e-3),  # ends inside a window
    (UNIT_CFG, UNIT_CHI0, 4.0, 0.25),  # ends on a jump
    (UNIT_CFG, (np.array([1.0, -1.0]), np.array([0.5, 0.0]), UNIT_CFG.T), 3.0, 0.25),
], ids=["inside-a-window", "on-a-jump", "start-on-the-jump-set"])
def test_a_general_run_and_its_audit_call_each_part_four_times_per_step_and_once_more(
        cfg, chi0, t_end, h):
    f, calls = spied_soft_field()
    traj = simulate_hybrid(f, cfg, chi0, t_end=t_end, h=h)
    cert = lyapunov_certificate(f, cfg)
    lyapunov_values(cert, f, traj)
    verify_decrease(f, cfg, traj, cert=cert)
    verify_envelopes(f, cfg, cert, traj)
    steps = np.count_nonzero(np.diff(traj.t) > 0)  # each step keeps one row, a reset none
    # the rows no step started from share the last q, which is called once
    assert len(calls["potential_gradient"]) == len(calls["rotation"]) == 4 * steps + 1
    assert len(calls["potential"]) == len(traj) + 1  # each row and x_star


def random_general_field(seed, n, mode, lists):
    """A random nonlinear ``GeneralField`` of dimension ``n`` with loose declared constants.

    ``Qs x + tanh x`` plus a random rotation, times 1 in mode ``"decay"``
    and times -100 in modes ``"growth"`` and ``"nan"``, where the gradient
    turns NaN past ``|x|_inf = 1e3``.  Parts return lists when ``lists`` is
    set.  The declared ``kappa_j = ell_j = 1e4`` and ``ell_k = 1e-3`` put
    every trigger of the tests in the certificate's window; they are not
    the field's constants.
    """
    rng = np.random.default_rng(seed)
    A = rng.standard_normal((n, n))
    Qs = A @ A.T + n * np.eye(n)
    S = rng.standard_normal((n, n))
    Qa = S - S.T
    gain = 1.0 if mode == "decay" else -100.0

    def gradient(x):
        g = gain * (Qs @ x + np.tanh(x))
        if mode == "nan" and np.max(np.abs(x)) > 1e3:
            g = np.full(n, np.nan)
        return g.tolist() if lists else g

    def rotation(x):
        r = Qa @ x
        return r.tolist() if lists else r

    def potential(x):
        a = np.abs(x)  # log cosh without overflow
        return gain * (0.5 * float(x @ (Qs @ x)) + float(np.sum(a + np.log1p(np.exp(-2.0 * a)))))

    return GeneralField(dim=n, potential=potential, potential_gradient=gradient,
                        rotation=rotation, x_star=np.zeros(n), kappa_j=1e4, ell_j=1e4,
                        ell_k=1e-3)


@given(n=st.integers(1, 4), seed=st.integers(0, 2 ** 16),
       mode=st.sampled_from(["decay", "growth", "nan"]), lists=st.booleans(),
       T0=st.floats(0.1, 1.0), length=st.floats(0.05, 1.0), eta=st.floats(0.1, 0.9),
       start=st.floats(0.0, 1.0), t_end=st.floats(0.05, 6.0), h=st.floats(5e-3, 5e-2))
@example(n=2, seed=0, mode="decay", lists=False, T0=1.0, length=1.0, eta=0.5, start=0.0,
         t_end=4.0, h=0.25)  # ends on a jump
@example(n=3, seed=1, mode="decay", lists=True, T0=0.2, length=0.5, eta=0.5, start=1.0,
         t_end=2.0, h=1e-2)  # starts on the jump set
@example(n=1, seed=2, mode="growth", lists=False, T0=0.1, length=0.5, eta=0.5, start=0.0,
         t_end=6.0, h=1e-2)  # cut by BLOWUP_CAP
@example(n=4, seed=3, mode="nan", lists=True, T0=0.1, length=0.5, eta=0.5, start=0.5,
         t_end=6.0, h=1e-2)  # cut before a non-finite row
def test_a_general_run_leaves_the_drives_its_audit_would_compute(n, seed, mode, lists, T0, length,
                                                                 eta, start, t_end, h):
    f = random_general_field(seed, n, mode, lists)
    cfg = RestartConfig(T0=T0, T=T0 + length, eta=eta)
    tau0 = cfg.T if start == 1.0 else T0 + start * length
    rng = np.random.default_rng(seed)
    traj = simulate_hybrid(f, cfg, (rng.standard_normal(n), rng.standard_normal(n), tau0),
                           t_end=t_end, h=h)
    assert np.array_equal(traj.drive, hybrid._drives(f, traj.q), equal_nan=True)
    assert np.array_equal(traj.potential_gap, hybrid._potential_gaps(f, traj.q), equal_nan=True)
    cert = lyapunov_certificate(f, cfg)
    recorded, computed = (
        (verify_decrease(f, cfg, run, cert=cert), verify_envelopes(f, cfg, cert, run))
        for run in (traj, replace(traj, potential_gap=None, drive=None)))
    assert repr(recorded) == repr(computed)  # repr: a NaN field compares unequal to itself


@pytest.mark.parametrize("name", ["t", "j", "q", "p", "tau", "jump_indices", "potential_gap",
                                  "drive"])
def test_trajectory_arrays_are_read_only_copies(name):
    arrays = {"t": np.arange(3.0), "j": np.array([0, 1, 1]), "q": np.ones((3, 2)),
              "p": np.zeros((3, 2)), "tau": np.full(3, 0.1), "potential_gap": np.zeros(3),
              "drive": np.ones(3)}
    traj = HybridTrajectory(**arrays, blown_up=False)
    with pytest.raises(ValueError, match="read-only"):
        getattr(traj, name)[0] = 0
    source = "j" if name == "jump_indices" else name  # jump indices are derived from j
    arrays[source][0] = 7  # the caller's array stays writable and apart
    assert np.all(getattr(traj, name)[0] != 7)
    assert traj.jump_indices.tolist() == [1]
    if name != "jump_indices":
        assert getattr(traj, name).dtype == arrays[name].dtype


def test_jump_indices_are_derived_from_j_and_never_passed():
    arrays = {"t": np.array([0.0, 0.5, 0.5, 1.0, 1.0]), "j": np.array([0, 0, 1, 1, 2]),
              "q": np.ones((5, 1)), "p": np.zeros((5, 1)),
              "tau": np.array([0.1, 0.5, 0.1, 0.5, 0.1]), "potential_gap": None, "drive": None,
              "blown_up": False}
    traj = HybridTrajectory(**arrays)
    assert traj.jump_indices.tolist() == [2, 4]
    assert replace(traj, j=np.array([0, 0, 0, 0, 1])).jump_indices.tolist() == [4]
    for clone in (pickle.loads(pickle.dumps(traj)), copy.deepcopy(traj)):
        assert clone.jump_indices.tolist() == [2, 4] and not clone.jump_indices.flags.writeable
    with pytest.raises(TypeError):
        HybridTrajectory(**arrays, jump_indices=np.array([2, 4]))
    with pytest.raises(ValueError, match="init=False"):
        replace(traj, jump_indices=np.array([2, 4]))


def test_a_recorded_trajectory_pickles_and_copies_with_its_values(soft_run):
    # the field's parts are lambdas, which cannot be pickled; the record holds no field
    verified = audit(soft_field(), soft_run)
    assert [c.name for c in fields(soft_run)] == ["t", "j", "q", "p", "tau", "jump_indices",
                                                   "potential_gap", "drive", "blown_up"]
    for clone in (pickle.loads(pickle.dumps(soft_run)), copy.copy(soft_run),
                  copy.deepcopy(soft_run)):
        for c in fields(soft_run):
            assert np.array_equal(getattr(clone, c.name), getattr(soft_run, c.name))
        assert not clone.q.flags.writeable and not clone.drive.flags.writeable
        calls = []
        assert audit(soft_field(calls=calls), clone) == verified
        assert not calls  # the clone carries its recorded values


# ---------------------------------------------------------------- restart tuning


def root_function(beta, xi):
    """The left side of the restart-ratio equation, increasing in ``xi``; log1p keeps tiny beta."""
    loss = beta * (1 - xi)
    return math.log1p(-loss) + beta * xi / (1 - loss)


def test_restart_ratio_at_unit_beta_is_inverse_e():
    assert restart_ratio(1.0) == pytest.approx(1.0 / math.e, abs=1e-8)


def test_restart_ratio_small_beta_approaches_half():
    assert restart_ratio(1e-4) == pytest.approx(0.5, abs=1e-3)


@pytest.mark.parametrize("beta", [1e-6, 1e-8, 1e-12, 1e-17])
def test_restart_ratio_follows_its_small_beta_expansion(beta):
    # the root is 1/2 - beta/16 + O(beta^2); taking the log of a rounded
    # 1 - beta (1 - xi) loses it to cancellation at these beta
    tol = 1e-10
    assert abs(restart_ratio(beta) - (0.5 - beta / 16.0)) <= tol + beta ** 2


@given(st.floats(min_value=0.0, max_value=1.0, exclude_min=True))
@example(1e-17)
@example(5e-324)
def test_restart_ratio_brackets_its_root_within_the_restart_tolerance(beta):
    tol = hybrid.RESTART_TOL
    xi = restart_ratio(beta)
    assert 1.0 / math.e - tol < xi <= 0.5 + tol
    assert root_function(beta, xi - tol) < 0.0 <= root_function(beta, xi + tol)


@pytest.mark.parametrize("beta", [0.01, 0.05, 0.1, 0.25, 0.5, 0.75, 1.0])
def test_optimal_trigger_ratio_lands_between_two_and_e(beta):
    # at T0 = 0, kappa_j = 1 and eta = 0.5, T_lower is 1 and T_opt / T_lower = 1 / xi
    assert reset_window(helmholtz_split(np.eye(2)), 0.0, 0.5)[0] == 1.0
    ratio = 1.0 / restart_ratio(beta)
    assert 2.0 - 1e-6 <= ratio <= math.e + 1e-6


@pytest.mark.parametrize("beta", [0.01, 0.1, 0.5, 1.0])
def test_root_function_is_strictly_increasing(beta):
    xs = np.linspace(1e-3, 1.0 - 1e-3, 100)
    vals = [root_function(beta, x) for x in xs]
    assert np.all(np.diff(vals) > 0.0)


def test_beta_out_of_range_is_rejected():
    with pytest.raises(ValueError, match=r"outside \(0, 1\]"):
        restart_ratio(0.0)
    with pytest.raises(ValueError, match=r"outside \(0, 1\]"):
        restart_ratio(1.2)


def test_calibrated_restart_for_the_demo_field(demo_field):
    sol = calibrate_optimal_restart(demo_field, eta=0.5, T0=0.1)
    assert sol.T_opt == pytest.approx(0.2831, abs=2e-4)
    assert sol.converged
    assert len(sol.history) == 5
    # solution is admissible for the demo field
    lo, hi = reset_window(demo_field, 0.1, 0.5)
    assert lo < sol.T_opt <= hi


# the 2x2 field Q = [[kappa_j, ell_k], [-ell_k, ell_j]] with the constants
# (kappa_j, ell_j, ell_k) = (0.2, 0.2, 0.05)
TRIPLE_FIELD = helmholtz_split([[0.2, 0.05], [-0.05, 0.2]])


@pytest.mark.parametrize("eta", [0.1, 0.5, 0.9])
@pytest.mark.parametrize("field", ["demo", "triple"])
def test_calibrated_c_upper_is_the_certificate_c_upper(demo_field, field, eta):
    # the trigger is a fixed point, so the sandwich constant the solver used
    # is the certificate's at the returned trigger
    f = demo_field if field == "demo" else TRIPLE_FIELD
    if (field, eta) == ("demo", 0.9):
        # the demo's window is empty at eta = 0.9, and the solver refuses it
        with pytest.raises(WindowViolationError, match=r"^the admissible window "
                                                       r"\(0\.205913, 0\.12\] is empty$"):
            calibrate_optimal_restart(f, eta=eta, T0=0.1)
        return
    sol = calibrate_optimal_restart(f, eta=eta, T0=0.1)
    assert sol.history[-1] == sol.history[-2]
    cert = lyapunov_certificate(f, RestartConfig(T0=0.1, T=sol.T_opt, eta=eta))
    assert sol.c_upper == cert.c_upper


# passes of the fixed-point iteration at eta = 0.5: the demo's trigger stops
# moving at pass 4, the triple's at pass 5
CALIBRATION_PASSES = {"demo": 4, "triple": 5}


@pytest.mark.parametrize("field", ["demo", "triple"])
def test_calibrated_constants_belong_to_the_returned_trigger(demo_field, field):
    f = demo_field if field == "demo" else TRIPLE_FIELD
    sol = calibrate_optimal_restart(f, eta=0.5, T0=0.1)
    # the triple's estimates pass its T_upper = 4, and the trigger is clamped there
    hi = reset_window(f, 0.1, 0.5)[1]
    assert sol.T_opt == min(sol.history[-1], hi)
    assert (sol.T_opt == hi) == (field == "triple")
    cert = lyapunov_certificate(f, RestartConfig(T0=0.1, T=sol.T_opt, eta=0.5))
    assert sol.c_upper == cert.c_upper
    assert sol.beta == min(1.0, f.kappa_j) / sol.c_upper
    assert sol.xi_star == restart_ratio(sol.beta)
    assert sol.converged
    assert len(sol.history) == CALIBRATION_PASSES[field] + 1


def test_calibration_keeps_the_trigger_estimates_of_the_plain_passes(demo_field):
    # the calibration stops at the pass that repeats its estimate, and every
    # estimate up to there is the pass-by-pass iteration's, bit for bit
    sol = calibrate_optimal_restart(demo_field, eta=0.5, T0=0.1)
    assert sol.history == plain_triggers(100.0, 100.0, 0.5, 0.1, passes=4)


@pytest.mark.parametrize("f", [
    helmholtz_split(np.array([[1.0, 2.0], [-2.0, 4.0]])),  # kappa_j = 1, ell_k = 2
    helmholtz_split(np.array([[1.0, 4.0], [-4.0, 1.0]])),  # kappa_j = 1, ell_k = 4
], ids=["linear", "triple"])
def test_calibration_refuses_an_empty_window_naming_both_ends(f):
    lo, hi = reset_window(f, 0.1, 0.5)
    assert lo >= hi
    with pytest.raises(WindowViolationError) as exc:
        calibrate_optimal_restart(f, eta=0.5, T0=0.1)
    assert str(exc.value) == f"the admissible window ({lo:.6g}, {hi:.6g}] is empty"


# ---------------------------------------------------------------- properties


def random_restart_field(rng, n: int, eta: float, T0: float, skew: float, smallest: float):
    """A random field of dimension ``n`` with eigenvalues in ``[smallest, 20)``.

    ``skew`` is the rotation size as a fraction of the largest one whose
    window is not empty; 0 gives a conservative field with ``T_upper = inf``.
    """
    R, _ = np.linalg.qr(rng.standard_normal((n, n)))
    eigs = rng.uniform(smallest, 20.0, n)
    S = rng.standard_normal((n, n))
    S = S - S.T
    if n > 1:
        kappa = eigs.min()
        T_lower = math.sqrt(T0 ** 2 + 4.0 * eta ** 2 / kappa)
        S *= skew * 2.0 * min(3.0 * (1.0 - eta), kappa * eta) / T_lower / np.linalg.norm(S, 2)
    return helmholtz_split(R @ np.diag(eigs) @ R.T + S)


@st.composite
def restart_problems(draw):
    """A random field (n = 1..4) with ``eta`` and ``T0``.

    Past a ``skew`` of 1 the window is empty, and just under 1 the fixed
    point of the calibration lies past ``T_upper``.
    """
    n = draw(st.integers(1, 4))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 16)))
    eta = draw(st.floats(0.05, 0.95))
    T0 = draw(st.floats(0.01, 1.0))
    skew = draw(st.floats(0.0, 1.5))
    return random_restart_field(rng, n, eta, T0, skew, smallest=0.1), eta, T0


@given(restart_problems())
def test_the_calibrated_trigger_lies_in_its_window_or_is_refused(problem):
    f, eta, T0 = problem
    lo, hi = reset_window(f, T0, eta)
    try:
        sol = calibrate_optimal_restart(f, eta=eta, T0=T0)
    except WindowViolationError:
        assert not lo < hi
        return
    assert sol.converged
    assert lo < sol.T_opt <= hi
    assert sol.T_opt == min(sol.history[-1], hi)
    cert = lyapunov_certificate(f, RestartConfig(T0=T0, T=sol.T_opt, eta=eta))
    assert sol.c_upper == cert.c_upper
    assert sol.beta == min(1.0, f.kappa_j) / sol.c_upper


@st.composite
def admissible_runs(draw):
    """A random field (n = 1..4), a restart config inside its window, and a start.

    ``skew`` is as in :func:`random_restart_field`, and ``T`` lies in
    ``(T_lower, min(T_upper, 3 T_lower)]``.
    """
    n = draw(st.integers(1, 4))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 16)))
    eta = draw(st.floats(0.2, 0.8))
    T0 = draw(st.floats(0.05, 0.3))
    skew = draw(st.one_of(st.just(0.0), st.floats(0.0, 0.99)))
    position = draw(st.floats(1e-6, 1.0))
    f = random_restart_field(rng, n, eta, T0, skew, smallest=0.5)
    lo, hi = reset_window(f, T0, eta)
    T = lo + position * (min(hi, 3.0 * lo) - lo)
    chi0 = (rng.standard_normal(n), rng.standard_normal(n), T0)
    return f, RestartConfig(T0=T0, T=T, eta=eta), chi0


@given(admissible_runs())
def test_restarted_runs_keep_every_certified_claim(run):
    f, cfg, chi0 = run
    t_end = 6.0 * cfg.window
    traj = simulate_hybrid(f, cfg, chi0, t_end=t_end, h=0.02 / math.sqrt(f.ell_j))
    post = traj.jump_indices
    assert np.all(traj.p[post] == 0.0)
    assert np.all(traj.tau[post] == cfg.T0)
    assert np.array_equal(traj.q[post], traj.q[post - 1])
    assert np.all(traj.tau[post - 1] == cfg.T)
    assert len(post) <= math.ceil(t_end / cfg.window)
    cert = lyapunov_certificate(f, cfg)
    decrease = verify_decrease(f, cfg, traj, cert=cert)
    assert decrease.passed and decrease.contraction_ok
    assert verify_envelopes(f, cfg, cert, traj).passed


# one call per refusal of RestartConfig and simulate_hybrid, with its exact text
_HYBRID_REFUSALS = {
    "T0-above-T": (lambda: RestartConfig(T0=0.5, T=0.3, eta=0.5), "need 0 < T0 < T"),
    "T0-zero": (lambda: RestartConfig(T0=0.0, T=0.471, eta=0.5), "need 0 < T0 < T"),
    "eta-zero": (lambda: RestartConfig(T0=0.1, T=0.471, eta=0.0), "eta must lie in (0, 1]"),
    "eta-above-one": (lambda: RestartConfig(T0=0.1, T=0.471, eta=1.5), "eta must lie in (0, 1]"),
    "tau0-below-T0": (lambda: simulate_hybrid(helmholtz_split(DEMO_Q), DEMO_CFG,
                                              (CHI0[0], CHI0[1], 0.05), t_end=1.0),
                      "tau0 must lie in [T0, T]"),
    "tau0-above-T": (lambda: simulate_hybrid(helmholtz_split(DEMO_Q), DEMO_CFG,
                                             (CHI0[0], CHI0[1], 0.5), t_end=1.0),
                     "tau0 must lie in [T0, T]"),
    "t_end-zero": (lambda: simulate_hybrid(helmholtz_split(DEMO_Q), DEMO_CFG, CHI0, t_end=0.0),
                   "t_end must be positive"),
}


@pytest.mark.parametrize("case", list(_HYBRID_REFUSALS))
def test_each_hybrid_refusal_names_its_cause(case):
    call, text = _HYBRID_REFUSALS[case]
    with pytest.raises(ValueError, match=f"^{re.escape(text)}$"):
        call()
