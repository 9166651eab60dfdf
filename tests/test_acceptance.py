"""Acceptance suite: one test per criterion, one printed verdict line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines.

The references of criteria 1, 2 and 5 follow from the averaged spectrum of
the demo field ``Q = 100 I + [[0, 5], [-5, 0]]``:

* criterion 1: the drift has the single frequency 1, and averaging
  ``exp(-A s) B1 exp(A s)`` over one period ``2 pi`` gives
  ``B1_bar = 1/2 [[0, K], [-K, 0]]`` with ``K = Qa / sqrt(ell_j)``.  Since
  ``K^2 = -alpha^2 I``, the spectrum of ``B1_bar`` is ``+/- alpha/2``, each
  twice, with ``alpha = ell_k / sqrt(ell_j) = 0.5``: the top real eigenvalue
  is 0.25.  The closed form, 4096-node Simpson quadrature, dense-expm
  averaging (``test_quadrature_matches_dense_expm_averaging`` in
  ``tests/test_averaging.py``) and the unaveraged flow of criterion 5 all
  give this value.
* criterion 2: first-order averaging promises an O(eps) error over an
  s-horizon of 1/eps only while the perturbation itself is O(eps).  Its
  damping part is ``eps * 3 / tau <= 3 eps / T0``, so the criterion runs at
  ``T0 = 1`` (see the test's docstring).
* criterion 5: the averaged growing mode is ``tau^(-3/2) exp(rho tau)``,
  with ``rho`` the top real eigenvalue of ``B1_bar``.  Over
  ``tau in [0.1, 40.1]`` that is a growth of about 4x, not 10x, so the
  criterion checks growth and fits ``rho`` from the flow itself.
"""

import math
import time

import numpy as np
import pytest

import nestode as nd

from conftest import DEMO_Q, make_commensurate_field

Y0 = np.array([0.1, -0.1, 0.0, 0.0])
CHI0 = (np.array([1e4, -1e4]), np.array([1e4, -1e4]), 0.1)
DEMO_CFG = nd.RestartConfig(T0=0.1, T=0.471, eta=0.5)


def _report(num: int, desc: str, checks: dict[str, bool]) -> None:
    ok = all(checks.values())
    line = f"criterion {num:2d} [{'PASS' if ok else 'FAIL'}] {desc}"
    failed = [name for name, good in checks.items() if not good]
    if failed:
        line += f" -- failed: {', '.join(failed)}"
    print(line)
    assert ok, line


@pytest.fixture(scope="module")
def demo_field():
    return nd.helmholtz_split(DEMO_Q)


@pytest.fixture(scope="module")
def stabilized_run(demo_field):
    """Shared by criteria 6 and 7, which also share a runtime budget."""
    start = time.perf_counter()
    traj = nd.simulate_hybrid(demo_field, DEMO_CFG, CHI0, t_end=8.0, h=1e-3)
    cert = nd.lyapunov_certificate(demo_field, DEMO_CFG)
    decrease = nd.verify_decrease(demo_field, DEMO_CFG, traj, cert=cert)
    env = nd.verify_envelopes(demo_field, DEMO_CFG, cert, traj)
    elapsed = time.perf_counter() - start
    return traj, cert, decrease, env, elapsed


def test_criterion_01_instability_certificate(demo_field):
    start = time.perf_counter()
    report = nd.instability_certificate(demo_field, nodes=4096)
    elapsed = time.perf_counter() - start
    _report(1, "instability certificate on the demo matrix", {
        "verdict_unstable_certified": report.verdict == "UNSTABLE-CERTIFIED",
        "max_real_part_is_half_alpha":
            abs(report.max_real_part - demo_field.alpha / 2) <= 1e-6,
        "closed_form_matches_quadrature":
            report.quadrature_gap is not None and report.quadrature_gap <= 1e-6,
        "runtime_under_1s": elapsed < 1.0,
    })


def test_criterion_02_averaging_validity():
    """Averaged and pulled-back systems agree to O(eps) over s in [0, 1/eps].

    The averaging estimate holds while the perturbation is O(eps).  Its
    damping part is ``eps * 3 / tau <= 3 eps / T0``: at ``T0 = 1`` that is
    0.3 and 0.15 for eps = 0.1 and 0.05, below the drift frequency 1.  At
    ``T0 = 0.1`` it would be 3 and 1.5, and the worst gap would fall in that
    strong-damping transient (0.56 |Y0| at s ~ 1.2, shrinking only 1.4x when
    eps halves).  The transient case is covered past its end by
    ``test_average_error_scales_linearly_past_the_transient``.
    """
    start = time.perf_counter()
    maxima = []
    for ell_j in (100.0, 400.0):
        skew = 0.5 * math.sqrt(ell_j)
        f = nd.helmholtz_split([[ell_j, skew], [-skew, ell_j]])
        eps = ell_j ** -0.5
        horizon = 1.0 / eps
        z = nd.integrate_pullback(f, Y0, T0=1.0, s_end=horizon, h=1e-3)
        zeta = nd.integrate_average(f, Y0, T0=1.0, s_end=horizon, h=1e-3)
        maxima.append(float(np.linalg.norm(z.states - zeta.states, axis=1).max()))
    elapsed = time.perf_counter() - start
    factor = maxima[0] / maxima[1]
    _report(2, "averaged system tracks the pulled-back system", {
        "gap_below_015_of_initial": maxima[0] <= 0.15 * float(np.linalg.norm(Y0)),
        "halving_eps_reduces_gap_1p6_to_2p4": 1.6 <= factor <= 2.4,
        "runtime_under_10s": elapsed < 10.0,
    })


def test_criterion_03_variation_of_constants(demo_field):
    start = time.perf_counter()
    chk = nd.variation_of_constants_check(demo_field, Y0, T0=0.1, s_end=10.0, h=1e-3)
    gaps = [nd.variation_of_constants_check(demo_field, Y0, T0=0.1,
                                            s_end=10.0, h=h).max_gap
            for h in (8e-3, 4e-3, 2e-3)]
    elapsed = time.perf_counter() - start
    orders = np.log2(np.asarray(gaps[:-1]) / np.asarray(gaps[1:]))
    _report(3, "flow factorization identity at the end of the slow horizon", {
        "end_gap_below_1e-5_of_peak": chk.gap_at_end <= 1e-5 * chk.y_norm_max,
        "order_at_least_3p5": bool(np.all(orders >= 3.5)),
        "runtime_under_10s": elapsed < 10.0,
    })


def test_criterion_04_damping_block_average():
    start = time.perf_counter()
    worst = 0.0
    cases = [(0, 2), (1, 2), (2, 2), (3, 4), (4, 4), (5, 4), (9, 4),
             (2, 6), (7, 6), (8, 6)]
    for seed, n in cases:
        f = make_commensurate_field(seed, n)
        quad = nd.instability_certificate(f, nodes=4096).quadrature
        worst = max(worst, float(np.max(np.abs(quad.b2_bar + 0.5 * np.eye(2 * n)))))
    elapsed = time.perf_counter() - start
    _report(4, "damping block averages to -I/2 on 10 random commensurate fields", {
        "deviation_below_1e-8": worst <= 1e-8,
        "runtime_under_5s": elapsed < 5.0,
    })


def test_criterion_05_full_system_instability(demo_field):
    start = time.perf_counter()
    traj = nd.integrate_scaled_y(demo_field, Y0, T0=0.1, s_end=400.0, h=0.01)
    elapsed = time.perf_counter() - start
    norms = np.linalg.norm(traj.states, axis=1)
    dec = len(norms) // 10
    # The growing mode is tau^(-3/2) exp(rho tau); fit rho past the transient.
    tau = demo_field.ell_j ** -0.5 * traj.times + 0.1
    late = traj.times >= 200.0
    rate = float(np.polyfit(tau[late], np.log(norms[late] * tau[late] ** 1.5), 1)[0])
    rho = nd.instability_certificate(demo_field).max_real_part
    _report(5, "normalized flow grows from a small start over s in [0, 400]", {
        "last_decile_exceeds_first": bool(norms[-dec:].max() > norms[:dec].max()),
        "fitted_rate_within_2pct_of_certificate": abs(rate - rho) <= 0.02 * rho,
        "runtime_under_5s": elapsed < 5.0,
    })


def test_criterion_06_hybrid_stabilization(demo_field, stabilized_run):
    traj, cert, decrease, _env, elapsed = stabilized_run
    dist = traj.distance_to(demo_field.x_star)
    orders = math.log10(dist[0] / max(dist[-1], 1e-300))
    _report(6, "restarting run contracts by 6+ orders with certified decrease", {
        "distance_drops_6_orders": orders >= 6.0,
        "no_flow_violations": decrease.flow_violations == 0,
        "no_jump_violations": decrease.jump_violations == 0,
        "per_jump_contraction": decrease.contraction_ok,
        "no_blow_up": not traj.blown_up,
        "runtime_under_30s": elapsed < 30.0,
    })


def test_criterion_07_envelope_bounds(stabilized_run):
    _traj, cert, _decrease, env, _elapsed = stabilized_run
    v0 = env.m_j * 2.0
    _report(7, "potential and drive envelopes hold at every sample", {
        "potential_envelope": env.potential_ok,
        "drive_envelope": env.drive_ok,
        "m_j_seeded_from_initial_state": v0 > 0.0,
        "m_g_formula": abs(env.m_g - 2.0 * (cert.ell_j + cert.ell_k) ** 2
                           * env.m_j / cert.kappa_j) <= 1e-9 * env.m_g,
    })


def test_criterion_08_reset_window_bounds(demo_field):
    start = time.perf_counter()
    lo, hi = nd.reset_window(demo_field, 0.1, 0.5)
    accepted = True
    try:
        nd.lyapunov_certificate(demo_field, DEMO_CFG)
    except nd.WindowViolationError:
        accepted = False
    rejected = []
    for T in (0.141, 0.7):
        try:
            nd.lyapunov_certificate(demo_field,
                                    nd.RestartConfig(T0=0.1, T=T, eta=0.5))
            rejected.append(False)
        except nd.WindowViolationError:
            rejected.append(True)
    elapsed = time.perf_counter() - start
    _report(8, "reset window endpoints and admissibility decisions", {
        "lower_bound_sqrt_0p02": abs(lo - math.sqrt(0.02)) <= 1e-12,
        "upper_bound_0p6": abs(hi - 0.6) <= 1e-12,
        "accepts_0p471": accepted,
        "rejects_0p141": rejected[0],
        "rejects_0p7": rejected[1],
        "runtime_under_1s": elapsed < 1.0,
    })


def test_criterion_09_optimal_restart():
    start = time.perf_counter()
    xi_unit = nd.restart_ratio(1.0)
    xi_small = nd.restart_ratio(1e-4)
    ratios = []
    for beta in (0.01, 0.05, 0.1, 0.25, 0.5, 0.75, 1.0):
        # T_opt / T_lower = 1 / xi, with T_lower = 2 eta / sqrt(kappa) = 1 at T0 = 0
        ratios.append(1.0 / nd.restart_ratio(beta))
    elapsed = time.perf_counter() - start
    _report(9, "restart ratio solver hits the analytic landmarks", {
        "unit_beta_gives_inverse_e": abs(xi_unit - 1.0 / math.e) <= 1e-8,
        "tiny_beta_gives_half": abs(xi_small - 0.5) <= 1e-3,
        "sweep_ratios_between_2_and_e": all(
            2.0 - 1e-6 <= r <= math.e + 1e-6 for r in ratios),
        "runtime_under_1s": elapsed < 1.0,
    })


def test_criterion_10_sqrt_curvature_rate_scaling():
    start = time.perf_counter()
    eta, T0 = 0.5, 0.01
    rates = []
    for kappa in (1.0, 4.0, 16.0, 64.0):
        f = nd.helmholtz_split(kappa * np.eye(2))
        sol = nd.calibrate_optimal_restart(f, eta=eta, T0=T0)
        cfg = nd.RestartConfig(T0=T0, T=sol.T_opt, eta=eta)
        t_end = 24.0 / (eta * math.sqrt(kappa))
        traj = nd.simulate_hybrid(f, cfg, (np.array([3.0, -2.0]), np.zeros(2), T0),
                                  t_end=t_end, h=1e-3)
        dist = traj.distance_to(f.x_star)
        mask = dist > dist[0] * 1e-11
        slope = np.polyfit(traj.t[mask], np.log(dist[mask]), 1)[0]
        rates.append(-float(slope))
    elapsed = time.perf_counter() - start
    normalized = [(rates[i + 1] / rates[i]) / 2.0 for i in range(len(rates) - 1)]
    _report(10, "fitted decay rate scales like sqrt(curvature)", {
        "consecutive_ratios_within_band": all(0.5 <= r <= 2.0 for r in normalized),
        "rates_increase": all(b > a for a, b in zip(rates, rates[1:])),
        "runtime_under_60s": elapsed < 60.0,
    })


def test_criterion_11_conservative_rate_sanity():
    start = time.perf_counter()
    f = nd.helmholtz_split(100.0 * np.eye(2))
    traj = nd.integrate_nesterov_t(f, [1.0, -1.0], [0.0, 0.0],
                                   T0=0.1, eta=1.0, t_end=50.0, h=1e-3)
    elapsed = time.perf_counter() - start
    x = traj.states[:, :2]
    gaps = 0.5 * np.einsum("mi,ij,mj->m", x, f.Qs, x)
    sel = traj.times >= 1.0
    envelope = traj.times[sel] ** 2 * gaps[sel]
    _report(11, "conservative flow keeps the quadratic-rate envelope", {
        "envelope_within_10x_of_t1_value": float(envelope.max()) <= 10.0 * float(envelope[0]),
        "no_blow_up": not traj.blown_up,
        "runtime_under_5s": elapsed < 5.0,
    })
