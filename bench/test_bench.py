"""Tests of the benchmark itself: ``python3 -m pytest bench``.

The workload passes take seconds each, so these tests are not part of the
package's own suite.
"""

import json
import shutil
import subprocess
import sys
from decimal import Decimal, getcontext

import numpy as np
import pytest

import run  # puts src/ on sys.path
import tracing
import workloads

import nestode as nd


def test_benchmark_json_names_the_metrics_the_code_reports():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == list(tracing.PER_LAYER)


def _log_cosh_reference(x: float) -> float:
    getcontext().prec = 60
    d = Decimal(x)
    return float(((d.exp() + (-d).exp()) / 2).ln())


@pytest.mark.parametrize("x", [1e-12, 1e-7, 3e-4, 0.2, 0.999, 1.0, 1.001, 4.0, 37.0,
                               800.0, 1e4])
def test_log_cosh_is_accurate_near_zero_and_finite_far_out(x):
    with np.errstate(over="raise", invalid="raise", divide="raise"):
        got = workloads.log_cosh(np.array([x, -x]))
    want = _log_cosh_reference(x)
    assert got[0] == got[1]
    assert abs(got[0] - want) <= 4e-16 * want


def test_nonlinear_field_constants_hold_and_certify_the_demo_window():
    g = workloads.nonlinear_field(nd.helmholtz_split(workloads.DEMO_Q))
    assert nd.validate_assumption1(g, samples=512, radius=50.0).passed
    nd.lyapunov_certificate(g, workloads.DEMO_CFG)  # raises outside the window


def test_the_nonlinear_check_counts_non_finite_lyapunov_values():
    # This potential is accurate near 0 but overflows for |x| > ~710, as the
    # initial state |x| = 1e4 does.  The NaN decrease margins compare False in
    # verify_decrease, so the check must flag the values itself.
    demo = nd.helmholtz_split(workloads.DEMO_Q)
    good = workloads.nonlinear_field(demo)

    def overflowing(x):
        a = np.abs(x)
        return np.where(a < 1.0, workloads.log_cosh(np.minimum(a, 1.0)), np.log(np.cosh(x)))

    g = nd.GeneralField(
        dim=2, potential=lambda x: 0.5 * float(x @ (demo.Qs @ x))
        + 20.0 * float(np.sum(overflowing(x))),
        potential_gradient=good.potential_gradient, rotation=good.rotation,
        x_star=np.zeros(2), kappa_j=100.0, ell_j=120.0, ell_k=5.0)
    cfg = workloads.DEMO_CFG
    cert = nd.lyapunov_certificate(g, cfg)
    chi0 = (workloads.FIG2_Q0, workloads.FIG2_P0, cfg.T0)
    with np.errstate(over="ignore", invalid="ignore"):
        traj = nd.simulate_hybrid(g, cfg, chi0, t_end=1.0)
        result = (traj, nd.verify_decrease(g, cfg, traj, cert=cert),
                  nd.verify_envelopes(g, cfg, cert, traj),
                  nd.integrate_nesterov_t(g, chi0[0], chi0[1], T0=cfg.T0,
                                          eta=cfg.eta, t_end=1.0))
        problems = workloads._check_nonlinear(g, cert)(result)
    assert any("Lyapunov values non-finite" in p for p in problems)


@pytest.mark.parametrize("name", run.WORKLOADS)
def test_seeds_change_inputs_but_not_sizes(name, tmp_path):
    built = {seed: workloads.build(name, seed, tmp_path / str(seed)) for seed in (0, 1)}
    assert [op.name for op in built[0].ops] == [op.name for op in built[1].ops]
    configs = {seed: sorted(p.read_text() for p in (tmp_path / str(seed)).glob("*.ini"))
               for seed in built}
    if name == "certify":
        f0 = workloads.commensurate_field(workloads._case_seed(0, 9), 4)
        f1 = workloads.commensurate_field(workloads._case_seed(1, 9), 4)
        assert f0.dim == f1.dim and not np.allclose(f0.Q, f1.Q)
    else:
        assert configs[0] != configs[1]


@pytest.mark.parametrize("name", run.WORKLOADS)
def test_traced_passes_match_untraced_outputs_and_counts_across_seeds(name, tmp_path):
    counts = {}
    for seed in (0, 1):
        bench = run.Run(workloads.build(name, seed, tmp_path / str(seed)))
        if seed == 0:
            bench.one_pass(0)
        tracer = tracing.Tracer()
        wall, _, rows = bench.one_pass(1, tracer)
        # The determinism check inside one_pass compares the traced outputs
        # with the untraced first pass.
        assert bench.failed == 0, bench.problems
        m = tracing.layer_metrics(tracer.spans, wall, rows)
        counts[seed] = {k: m[k] for k in ("odesim.steps", "hybrid.jumps",
                                          "cli.csv_rows", "odesim.exp_drift.calls")}
        assert sum(m[f"{layer}.share"] for layer in tracing.LAYERS) + m["bench.share"] \
            == pytest.approx(1.0, abs=1e-9)
    assert counts[0] == counts[1]
    assert not hasattr(nd.simulate_hybrid, "__wrapped__")


def test_benchmark_refuses_to_run_without_the_package(tmp_path):
    shutil.copytree(run.HERE, tmp_path / run.HERE.name,
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run([sys.executable, f"{run.HERE.name}/run.py", "--workload", "certify",
                           "--seed", "0", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=180)
    assert proc.returncode != 0
    assert "correct" not in proc.stdout
