"""The three benchmark workloads: inputs drawn from a seed, timed operations, checks.

Each workload is a list of operations.  An operation's ``call`` is the work a
pass times; its ``check`` inspects the result afterwards, outside the timed
region, and returns a list of problems (empty when the output is correct).
Every check is a tolerance oracle, so an optimization that changes
floating-point results still passes as long as it stays accurate.

Seed 0 reproduces the acceptance-test inputs.  Other seeds redraw the random
commensurate fields and the directions of the initial conditions (keeping
their norms), and keep every dimension, step count and CSV row count.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import numpy as np

import nestode as nd
from nestode import cli

DEMO_Q = np.array([[100.0, 5.0], [-5.0, 100.0]])
DEMO_CFG = nd.RestartConfig(T0=0.1, T=0.471, eta=0.5)
# Defaults of the figure1 / figure2 scenarios and of acceptance criterion 10.
FIG1_Y0 = np.array([0.1, -0.1, 0.0, 0.0])
FIG2_Q0 = np.array([1e4, -1e4])
FIG2_P0 = np.array([1e4, -1e4])
SWEEP_Q0 = np.array([3.0, -2.0])
SWEEP_KAPPAS = (1.0, 4.0, 16.0, 64.0)
# (seed, dimension) of the ten random fields of acceptance criterion 4.
CRITERION4_CASES = ((0, 2), (1, 2), (2, 2), (3, 4), (4, 4), (5, 4), (9, 4),
                    (2, 6), (7, 6), (8, 6))
# Data rows each CLI scenario writes per CSV at the default sizes.
FIG1_ROWS = {"drift.csv": 2501, "slow.csv": 4001, "scaled.csv": 40001}
FIG2_ROWS = {"hybrid.csv": 8011, "hybrid_dist.csv": 8011, "ode_dist.csv": 8001}

# Declared constants of the nonlinear field: Qs = 100 I contributes curvature
# 100, 20 tanh adds a monotone part with slope in [0, 20], and |Qa| = 5.
NONLINEAR_GAIN = 20.0
NONLINEAR_KAPPA_J = 100.0
NONLINEAR_ELL_J = 120.0
NONLINEAR_ELL_K = 5.0


@dataclass
class Op:
    """One timed operation and the oracle that checks its result."""

    name: str
    call: Callable[[], object]
    check: Callable[[object], list[str]]
    out_dir: Path | None = None  # set for CLI runs, whose files are hashed


@dataclass
class Workload:
    ops: list[Op]
    # Correctness oracles run once per run, outside the timed passes.
    oracles: list[Op] = field(default_factory=list)

    @property
    def out_dirs(self) -> list[Path]:
        return [op.out_dir for op in self.ops if op.out_dir is not None]


# ------------------------------------------------------------------ inputs

def commensurate_field(seed, n: int) -> nd.LinearField:
    """Random field whose drift frequencies are small-integer multiples.

    Same construction as ``make_commensurate_field`` in the test suite, so
    integer seeds give the acceptance-test fields.
    """
    rng = np.random.default_rng(seed)
    ks = rng.integers(1, 7, size=n)
    ks[rng.integers(0, n)] = 6
    freqs = ks / 6.0
    ell_j = float(rng.uniform(50.0, 200.0))
    eigs = ell_j * freqs ** 2

    raw = rng.standard_normal((n, n))
    R, _ = np.linalg.qr(raw)
    Qs = R @ np.diag(eigs) @ R.T

    skew = rng.standard_normal((n, n))
    skew = 0.5 * (skew - skew.T)
    alpha = float(rng.uniform(0.2, 1.0))
    Qa = skew * (alpha * np.sqrt(ell_j) / np.linalg.norm(skew, 2))
    return nd.helmholtz_split(Qs + Qa)


def _case_seed(seed: int, case: int):
    return case if seed == 0 else [seed, case]


def _redirect(v: np.ndarray, rng: np.random.Generator | None) -> np.ndarray:
    """``v`` itself, or a vector of the same norm in a random direction."""
    if rng is None:
        return v.copy()
    u = rng.standard_normal(v.shape)
    return float(np.linalg.norm(v)) * u / float(np.linalg.norm(u))


def log_cosh(x: np.ndarray) -> np.ndarray:
    """``log(cosh(x))`` without cancellation near 0 or overflow at large ``|x|``."""
    a = np.abs(x)
    small = np.log1p(2.0 * np.sinh(0.5 * np.minimum(a, 1.0)) ** 2)
    large = a + np.log1p(np.exp(-2.0 * a)) - math.log(2.0)
    return np.where(a < 1.0, small, large)


def nonlinear_field(f: nd.LinearField) -> nd.GeneralField:
    """Field with gradient ``Qs x + 20 tanh(x)`` and rotation ``Qa x``."""
    Qs, Qa = np.asarray(f.Qs), np.asarray(f.Qa)

    def potential(x):
        return 0.5 * float(x @ (Qs @ x)) + NONLINEAR_GAIN * float(np.sum(log_cosh(x)))

    def potential_gradient(x):
        return Qs @ x + NONLINEAR_GAIN * np.tanh(x)

    def rotation(x):
        return Qa @ x

    return nd.GeneralField(
        dim=f.dim, potential=potential, potential_gradient=potential_gradient,
        rotation=rotation, x_star=np.zeros(f.dim), kappa_j=NONLINEAR_KAPPA_J,
        ell_j=NONLINEAR_ELL_J, ell_k=NONLINEAR_ELL_K,
    )


def _vector(v: np.ndarray) -> str:
    return "[" + ", ".join(repr(float(x)) for x in v) + "]"


def _write_config(path: Path, sections: dict[str, dict[str, np.ndarray]]) -> Path:
    lines = []
    for section, keys in sections.items():
        lines.append(f"[{section}]")
        lines += [f"{key} = {_vector(value)}" for key, value in keys.items()]
        lines.append("")
    path.write_text("\n".join(lines))
    return path


# ------------------------------------------------------------------ checks

def _bad(name: str, value, bound: str) -> str:
    return f"{name} = {value!r}, expected {bound}"


def _report(out: Path) -> dict[str, str]:
    """``key: value`` lines of a CLI report, up to the resolved config echo."""
    values = {}
    for line in (out / "report.txt").read_text().splitlines():
        if line.startswith("resolved configuration:"):
            break
        key, sep, value = line.partition(": ")
        if sep:
            values[key] = value
    return values


def _check_cli_run(out: Path, code, rows: dict[str, int],
                   expect: dict[str, str]) -> list[str]:
    if code != cli.EXIT_OK:
        return [_bad("exit code", code, "0")]
    problems = []
    report = _report(out)
    for key, want in expect.items():
        if report.get(key) != want:
            problems.append(_bad(key, report.get(key), repr(want)))
    for name, count in rows.items():
        data = np.loadtxt(out / name, delimiter=",", skiprows=1, ndmin=2)
        if data.shape[0] != count:
            problems.append(_bad(f"{name} rows", data.shape[0], str(count)))
        bad = int(np.count_nonzero(~np.isfinite(data)))
        if bad:
            problems.append(f"{name}: {bad} non-finite values")
    return problems


def _check_spectrum(max_real_part: float, spectrum: np.ndarray) -> list[str]:
    """The averaged demo spectrum is +/-0.25, each twice."""
    real = np.sort(np.asarray(spectrum).real)
    dev = float(np.max(np.abs(real - np.array([-0.25, -0.25, 0.25, 0.25]))))
    problems = []
    if not dev <= 1e-9:
        problems.append(_bad("demo spectrum deviation from +/-0.25", dev, "<= 1e-9"))
    if not abs(max_real_part - 0.25) <= 1e-9:
        problems.append(_bad("demo max_real_part", max_real_part, "0.25"))
    return problems


def _check_certificate(demo: bool):
    def check(rep) -> list[str]:
        problems = []
        gap = rep.quadrature_gap
        if gap is None or not gap <= 1e-6:
            problems.append(_bad("closed-form vs quadrature gap", gap, "<= 1e-6"))
        else:
            n2 = rep.quadrature.b2_bar.shape[0]
            dev = float(np.max(np.abs(rep.quadrature.b2_bar + 0.5 * np.eye(n2))))
            if not dev <= 1e-8:
                problems.append(_bad("b2_bar deviation from -I/2", dev, "<= 1e-8"))
        if not np.all(np.isfinite(rep.spectrum)):
            problems.append("non-finite averaged spectrum")
        if demo:
            if rep.verdict != "UNSTABLE-CERTIFIED":
                problems.append(_bad("demo verdict", rep.verdict, "UNSTABLE-CERTIFIED"))
            problems += _check_spectrum(rep.max_real_part, rep.spectrum)
        return problems
    return check


def _check_validation(rep) -> list[str]:
    return [] if rep.passed else [f"validate_assumption1 failed: {rep.failures()}"]


def _finite_hybrid(name: str, traj) -> list[str]:
    problems = []
    if traj.blown_up:
        problems.append(f"{name}: blew up")
    bad = sum(int(np.count_nonzero(~np.isfinite(a))) for a in (traj.q, traj.p, traj.tau))
    if bad:
        problems.append(f"{name}: {bad} non-finite state values")
    return problems


def _decay_rate(traj) -> float:
    """Fitted exponential decay rate of the distance to the origin (criterion 10)."""
    dist = traj.distance_to(np.zeros(traj.dim))
    mask = dist > dist[0] * 1e-11
    return -float(np.polyfit(traj.t[mask], np.log(dist[mask]), 1)[0])


def _check_sweep(trajs) -> list[str]:
    problems = []
    for kappa, traj in zip(SWEEP_KAPPAS, trajs):
        problems += _finite_hybrid(f"sweep kappa={kappa:g}", traj)
    if problems:
        return problems
    rates = [_decay_rate(t) for t in trajs]
    if not all(b > a for a, b in zip(rates, rates[1:])):
        problems.append(_bad("criterion-10 rates", rates, "strictly increasing"))
    return problems


def _check_nonlinear(g, cert):
    def check(result) -> list[str]:
        traj, decrease, env, plain = result
        problems = _finite_hybrid("nonlinear hybrid run", traj)
        # DecreaseReport.passed is not trusted alone: a NaN margin compares
        # False, so non-finite Lyapunov values would count as no violation.
        V = nd.lyapunov_values(cert, g, traj)
        bad = int(np.count_nonzero(~np.isfinite(V)))
        if bad:
            problems.append(f"nonlinear run: {bad} of {len(V)} Lyapunov values non-finite")
        if not (decrease.passed and decrease.contraction_ok):
            problems.append(f"nonlinear decrease: {decrease.flow_violations} flow and "
                            f"{decrease.jump_violations} jump violations, "
                            f"contraction_ok={decrease.contraction_ok}")
        for name in ("worst_flow_margin", "worst_jump_margin", "worst_contraction_ratio"):
            if not math.isfinite(getattr(decrease, name)):
                problems.append(_bad(f"nonlinear {name}", getattr(decrease, name), "finite"))
        if not env.passed:
            problems.append("nonlinear envelopes violated")
        for name in ("worst_potential_ratio", "worst_drive_ratio", "c1", "c2"):
            if not math.isfinite(getattr(env, name)):
                problems.append(_bad(f"nonlinear {name}", getattr(env, name), "finite"))
        dist = traj.distance_to(g.x_star)
        if not dist[-1] <= 1e-6 * dist[0]:
            problems.append(_bad("nonlinear distance ratio", dist[-1] / dist[0], "<= 1e-6"))
        if plain.blown_up or not np.all(np.isfinite(plain.states)):
            problems.append("nonlinear plain flow blew up or is non-finite")
        return problems
    return check


def _check_rk4_order(gaps) -> list[str]:
    orders = np.log2(np.asarray(gaps[:-1]) / np.asarray(gaps[1:]))
    if not np.all(orders >= 3.5):
        return [_bad("RK4 order at h = 8e-3, 4e-3, 2e-3", orders.tolist(), ">= 3.5")]
    return []


def _check_general_agrees(pair) -> list[str]:
    lin, gen = pair
    if len(lin) != len(gen) or not (np.array_equal(lin.t, gen.t) and np.array_equal(lin.j, gen.j)
                                    and np.array_equal(lin.tau, gen.tau)):
        return ["LinearField and as_general() runs differ in time grid or jumps"]
    scale = float(np.max(np.abs(np.hstack([lin.q, lin.p]))))
    dev = float(np.max(np.abs(np.hstack([lin.q - gen.q, lin.p - gen.p]))))
    if not dev <= 1e-12 * scale:
        return [_bad("LinearField vs as_general() deviation / peak", dev / scale, "<= 1e-12")]
    return []


# ------------------------------------------------------------------ workloads

def _cli_op(name: str, argv: list[str], out: Path, check) -> Op:
    def call():
        return cli.main(argv + ["--out", os.path.relpath(out)])
    return Op(name, call, lambda code: check(out, code), out_dir=out)


def _certify(seed: int, work: Path) -> Workload:
    demo = nd.helmholtz_split(DEMO_Q)
    fields = [(f"certificate n={n} case={case}", commensurate_field(_case_seed(seed, case), n))
              for case, n in CRITERION4_CASES]

    def certificate(f):
        return lambda: nd.instability_certificate(f, nodes=4096)

    ops = [Op("certificate demo", certificate(demo), _check_certificate(demo=True))]
    ops += [Op(name, certificate(f), _check_certificate(demo=False)) for name, f in fields]
    ops.append(Op("validate_assumption1 demo",
                  lambda: nd.validate_assumption1(demo.as_general(), seed=seed),
                  _check_validation))

    def check_cli(out, code):
        problems = _check_cli_run(out, code, {}, {"verdict": "UNSTABLE-CERTIFIED"})
        if not problems:
            report = _report(out)
            gap = float(report["closed_vs_quadrature_gap"])
            if not gap <= 1e-6:
                problems.append(_bad("CLI closed_vs_quadrature_gap", gap, "<= 1e-6"))
            problems += _check_spectrum(float(report["max_real_part"]),
                                        np.array([complex(z) for z in
                                                  report["spectrum_b1_bar"].split("; ")]))
        return problems

    ops.append(_cli_op("cli instability-test", ["instability-test"],
                       work / "instability-test", check_cli))
    return Workload(ops)


def _layers(seed: int, work: Path) -> Workload:
    rng = None if seed == 0 else np.random.default_rng(seed)
    demo = nd.helmholtz_split(DEMO_Q)
    y0 = _redirect(FIG1_Y0, rng)
    config = _write_config(work / "figure1.ini", {"initial": {"y0": y0}})

    def check_fig1(out, code):
        return _check_cli_run(out, code, FIG1_ROWS,
                              {"verdict": "UNSTABLE-CERTIFIED", "fast_blown_up": "false"})

    def check_voc(chk) -> list[str]:
        ratio = chk.gap_at_end / chk.y_norm_max
        return [] if ratio <= 1e-5 else [_bad("variation-of-constants end gap / peak",
                                               ratio, "<= 1e-5")]

    def rk4_gaps():
        return [nd.variation_of_constants_check(demo, y0, T0=0.1, s_end=10.0, h=h).max_gap
                for h in (8e-3, 4e-3, 2e-3)]

    ops = [
        _cli_op("cli figure1", ["figure1", str(config)], work / "figure1", check_fig1),
        Op("variation_of_constants_check",
           lambda: nd.variation_of_constants_check(demo, y0, T0=0.1, s_end=10.0, h=1e-3),
           check_voc),
    ]
    return Workload(ops, oracles=[Op("rk4 order", rk4_gaps, _check_rk4_order)])


def _restart(seed: int, work: Path) -> Workload:
    rng = None if seed == 0 else np.random.default_rng(seed)
    demo = nd.helmholtz_split(DEMO_Q)
    q0, p0 = _redirect(FIG2_Q0, rng), _redirect(FIG2_P0, rng)
    config = _write_config(work / "figure2.ini", {"initial": {"q0": q0, "p0": p0}})
    chi0 = (q0, p0, DEMO_CFG.T0)
    sweep_q0 = _redirect(SWEEP_Q0, rng)
    eta, T0 = 0.5, 0.01
    g = nonlinear_field(demo)
    g_cert = nd.lyapunov_certificate(g, DEMO_CFG)

    def check_fig2(out, code):
        return _check_cli_run(out, code, FIG2_ROWS, {"certified_claim": "verified"})

    def sweep():
        trajs = []
        for kappa in SWEEP_KAPPAS:
            f = nd.helmholtz_split(kappa * np.eye(2))
            sol = nd.calibrate_optimal_restart(f, eta=eta, T0=T0)
            cfg = nd.RestartConfig(T0=T0, T=sol.T_opt, eta=eta)
            trajs.append(nd.simulate_hybrid(f, cfg, (sweep_q0, np.zeros(2), T0),
                                            t_end=24.0 / (eta * math.sqrt(kappa)), h=1e-3))
        return trajs

    def nonlinear():
        traj = nd.simulate_hybrid(g, DEMO_CFG, chi0, t_end=8.0, h=1e-3)
        decrease = nd.verify_decrease(g, DEMO_CFG, traj, cert=g_cert)
        env = nd.verify_envelopes(g, DEMO_CFG, g_cert, traj)
        plain = nd.integrate_nesterov_t(g, q0, p0, T0=DEMO_CFG.T0, eta=DEMO_CFG.eta,
                                        t_end=8.0, h=1e-3)
        return traj, decrease, env, plain

    def general_pair():
        return tuple(nd.simulate_hybrid(f, DEMO_CFG, chi0, t_end=8.0, h=1e-3)
                     for f in (demo, demo.as_general()))

    ops = [
        _cli_op("cli figure2", ["figure2", str(config)], work / "figure2", check_fig2),
        Op("criterion-10 sweep", sweep, _check_sweep),
        Op("nonlinear field", nonlinear, _check_nonlinear(g, g_cert)),
    ]
    oracles = [
        Op("nonlinear constants", lambda: nd.validate_assumption1(g, seed=seed),
           _check_validation),
        Op("LinearField vs as_general()", general_pair, _check_general_agrees),
    ]
    return Workload(ops, oracles)


_BUILDERS = {"certify": _certify, "layers": _layers, "restart": _restart}


def build(name: str, seed: int, work: Path) -> Workload:
    """Build a workload's fields and inputs; CLI configs go under ``work``."""
    work.mkdir(parents=True, exist_ok=True)
    return _BUILDERS[name](seed, work)
