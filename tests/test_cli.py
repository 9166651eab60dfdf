import contextlib
import dataclasses
import errno
import hashlib
import io
import math
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import Phase, given, settings
from hypothesis import strategies as st

from nestode.cli import (
    EXIT_CLAIM,
    EXIT_CONFIG,
    EXIT_OK,
    EXIT_SCENARIO,
    SCHEMAS,
    _CSV_CHUNK,
    ConfigError,
    ScenarioConfig,
    _parser,
    _write_csv,
    main,
    parse_config,
)
import nestode
from nestode import cli
from nestode.averaging import integrate_average
from nestode.fields import GeneralField, helmholtz_split, validate_assumption1
from nestode.hybrid import RestartConfig, lyapunov_certificate, restart_ratio
from nestode.odesim import integrate_nesterov_t, integrate_pullback

from bytediff import REFUSALS, RUNS
# the soft field and its skew matrix load as 'test_cli:soft_field' and 'test_cli:_SOFT_QA'
from conftest import DEMO_Q, SOFT_QA as _SOFT_QA, plain_triggers, soft_field  # noqa: F401

POTENTIAL_CALLS = []
FIELD_LOADS = []


def counted_soft_field() -> GeneralField:
    """``soft_field`` recording each potential call in ``POTENTIAL_CALLS``.

    Each call of this factory is recorded in ``FIELD_LOADS``.  Loadable via
    'test_cli:counted_soft_field'.
    """
    FIELD_LOADS.append(1)
    return soft_field(calls=POTENTIAL_CALLS)


def stiff_tail_soft_field() -> GeneralField:
    """``soft_field`` whose gradient gains slope 9 beyond ``|q_i| = 20``, declaring its constants.

    Inside that box the declared ``ell_j = 1.5`` holds; beyond it the true
    Lipschitz constant of the gradient is 10.5, so only a check that samples
    out there refutes it.  Loadable via 'test_cli:stiff_tail_soft_field'.
    """
    g = soft_field()

    def excess(q):
        return np.maximum(np.abs(q) - 20.0, 0.0)

    return dataclasses.replace(
        g, potential=lambda q: g.potential(q) + 4.5 * float(np.sum(excess(q) ** 2)),
        potential_gradient=lambda q: g.potential_gradient(q) + 9.0 * np.sign(q) * excess(q))


# a general field itself rather than a factory of one, loadable via
# 'test_cli:SOFT_FIELD'
SOFT_FIELD = soft_field()

# references that resolve to something other than a general field
LINEAR_FIELD = helmholtz_split(DEMO_Q)


def demo_general_field() -> GeneralField:
    """The demo field's ``as_general()`` wrap, which is declared vectorized.

    Loadable via 'test_cli:demo_general_field'.
    """
    return LINEAR_FIELD.as_general()


def unflagged_demo_general_field() -> GeneralField:
    """``demo_general_field`` with the flag cleared, so its callables are called per row.

    Loadable via 'test_cli:unflagged_demo_general_field'.
    """
    return dataclasses.replace(demo_general_field(), vectorized=False)


def one_argument_factory(x) -> GeneralField:
    return soft_field()


def misdeclared_soft_field() -> GeneralField:
    """``soft_field`` declaring ``kappa_j = 4`` and ``ell_k = 0.01``, which sampling refutes.

    Its true constants are 1, 1.5 and 0.3, so its true reset window at
    eta = 0.5, T0 = 0.1 is (1.005, 3.33], while the declared constants give
    ``T_upper = 300``.
    """
    return dataclasses.replace(soft_field(), kappa_j=4.0, ell_k=0.01)


def off_equilibrium_field() -> GeneralField:
    """``soft_field`` with a gradient that misses ``x_star``, which the field refuses."""
    return dataclasses.replace(soft_field(), potential_gradient=lambda q: q + 1)


MINIMAL_FIG2 = """
[field]
Q = [[100, 5], [-5, 100]]

[restart]
eta = 0.5
T0 = 0.1
T = 0.471
"""


# ---------------------------------------------------------------- parsing


def test_minimal_figure2_config_fills_defaults():
    cfg = parse_config(MINIMAL_FIG2, scenario="figure2")
    assert cfg.get("sim", "t_end") == 8.0
    assert cfg.get("sim", "step") == 1e-3
    assert list(cfg.values) == ["field", "restart", "initial", "sim"]
    assert np.array_equal(cfg.get("initial", "q0"), [1e4, -1e4])
    assert cfg.get("initial", "tau0") == 0.1  # defaults to T0


def test_scenario_can_come_from_the_document():
    cfg = parse_config("[run]\nscenario = figure2\n" + MINIMAL_FIG2)
    assert cfg.scenario == "figure2"
    with pytest.raises(ConfigError, match="declares scenario"):
        parse_config("[run]\nscenario = figure1\n" + MINIMAL_FIG2, scenario="figure2")


def test_inverted_restart_window_is_named():
    bad = MINIMAL_FIG2.replace("T0 = 0.1", "T0 = 0.5").replace("T = 0.471", "T = 0.3")
    with pytest.raises(ConfigError, match="0 < T0 < T"):
        parse_config(bad, scenario="figure2")


def test_unknown_keys_and_sections_are_rejected():
    bogus = MINIMAL_FIG2.replace("[field]\n", "[field]\nbogus = 1\n")
    with pytest.raises(ConfigError, match="unknown key"):
        parse_config(bogus, scenario="figure2")
    with pytest.raises(ConfigError, match="unknown section"):
        parse_config(MINIMAL_FIG2 + "\n[mystery]\na = 1\n", scenario="figure2")


def test_dimension_mismatch_is_rejected():
    with pytest.raises(ConfigError, match="length 2"):
        parse_config(MINIMAL_FIG2 + "\n[initial]\nq0 = [1, 2, 3]\n",
                     scenario="figure2")


def test_missing_required_key_is_reported():
    with pytest.raises(ConfigError, match="missing required key"):
        parse_config("[field]\nQ = [[1, 0], [0, 1]]\n", scenario="simulate-ode")


def test_resolved_ini_round_trips_through_the_parser():
    cfg = parse_config(MINIMAL_FIG2, scenario="figure2")
    again = parse_config(cfg.resolved_ini())
    assert again.scenario == "figure2"
    assert again.get("sim", "t_end") == cfg.get("sim", "t_end")
    assert np.array_equal(again.get("field", "Q"), cfg.get("field", "Q"))


# ---------------------------------------------------------------- scenarios


def test_decompose_symmetric_matrix_reports_zero_rotation(tmp_path):
    ini = tmp_path / "dec.ini"
    ini.write_text("[field]\nQ = [[4, 1], [1, 3]]\n")
    out = tmp_path / "out"
    assert main(["decompose", str(ini), "--out", str(out)]) == EXIT_OK
    report = (out / "report.txt").read_text()
    assert "alpha: 0.0" in report
    assert "Qa: [[0.0, 0.0], [0.0, 0.0]]" in report
    assert (out / "config_resolved.ini").exists()


def test_instability_test_non_positive_definite_is_a_scenario_error(tmp_path):
    ini = tmp_path / "bad.ini"
    ini.write_text("[field]\nQ = [[-1, 1], [-1, -1]]\n")
    assert main(["instability-test", str(ini), "--out", str(tmp_path / "o")]) == EXIT_SCENARIO


# report.txt of instability-test: a certified field, an INCONCLUSIVE one
# with its failed conditions, an incommensurate one, which has no period
# lines, and one whose averaged block is zero but for rounding
# (test_averaging.zero_block_field(0, 0.7, -0.4)); the pins are the values
# of an AVX-512 OpenBLAS kernel
_INSTABILITY_REPORTS = {
    "certified": ("[[100, 5], [-5, 100]]", """\
scenario: instability-test
verdict: UNSTABLE-CERTIFIED
condition_offdiagonal_nonzero: true
condition_commensurate: true
condition_single_degenerate_group: true
max_real_part: 0.25
spectrum_b1_bar: -0.25+0.0j; -0.25+0.0j; 0.25+0.0j; 0.25+0.0j
base_frequency: 1.0
period: 6.283185307179586
frequency_ratios: 1, 1
closed_vs_quadrature_gap: 1.3210587533992262e-17
ell_j: 100.0
ell_k: 5.0
kappa_j: 100.0
alpha: 0.5

resolved configuration:
[run]
scenario = instability-test

[field]
Q = [[100.0, 5.0], [-5.0, 100.0]]

[averaging]
nodes = 4096
"""),
    "inconclusive": ("[[100, 0], [0, 100]]", """\
scenario: instability-test
verdict: INCONCLUSIVE
condition_offdiagonal_nonzero: false
condition_commensurate: true
condition_single_degenerate_group: true
failed_conditions: offdiagonal_nonzero
max_real_part: 0.0
spectrum_b1_bar: 0.0+0.0j; 0.0+0.0j; 0.0+0.0j; 0.0+0.0j
base_frequency: 1.0
period: 6.283185307179586
frequency_ratios: 1, 1
closed_vs_quadrature_gap: 1.3210587533992262e-17
ell_j: 100.0
ell_k: 0.0
kappa_j: 100.0
alpha: 0.0

resolved configuration:
[run]
scenario = instability-test

[field]
Q = [[100.0, 0.0], [0.0, 100.0]]

[averaging]
nodes = 4096
"""),
    "incommensurate": ("[[1, 0.5], [-0.5, 2]]", """\
scenario: instability-test
verdict: INCONCLUSIVE
condition_offdiagonal_nonzero: true
condition_commensurate: false
condition_single_degenerate_group: false
failed_conditions: commensurate, single_degenerate_group
max_real_part: 0.0
spectrum_b1_bar: 0.0+0.0j; 0.0+0.0j; 0.0+0.0j; 0.0+0.0j
ell_j: 2.0
ell_k: 0.5
kappa_j: 1.0
alpha: 0.35355339059327373

resolved configuration:
[run]
scenario = instability-test

[field]
Q = [[1.0, 0.5], [-0.5, 2.0]]

[averaging]
nodes = 4096
"""),
    "zero-block": ("[[90.91485792299038, -23.747413822826353, -5.106466987340678], "
                   "[-24.39057268266476, 33.78885966617023, 1.886200627111588], "
                   "[-3.73195210558718, 1.341172627051474, 25.296282410839357]]", """\
scenario: instability-test
verdict: INCONCLUSIVE
condition_offdiagonal_nonzero: true
condition_commensurate: true
condition_single_degenerate_group: true
failed_conditions: positive_real_eigenvalue
max_real_part: 2.9444803914228066e-17
spectrum_b1_bar: -2.9444803914228066e-17+0.0j; -2.944480391422806e-17+0.0j; -3.0814879110195774e-33+0.0j; 4.184092460029576e-34+0.0j; 2.9444803914228066e-17+0.0j; 2.9444803914228066e-17+0.0j
base_frequency: 0.4999999999999999
period: 12.566370614359176
frequency_ratios: 1, 1, 2
closed_vs_quadrature_gap: 1.1102230246251565e-16
ell_j: 99.99999999999997
ell_k: 0.8062257748298551
kappa_j: 24.999999999999982
alpha: 0.08062257748298553

resolved configuration:
[run]
scenario = instability-test

[field]
Q = [[90.91485792299038, -23.747413822826353, -5.106466987340678], [-24.39057268266476, 33.78885966617023, 1.886200627111588], [-3.73195210558718, 1.341172627051474, 25.296282410839357]]

[averaging]
nodes = 4096
"""),
}


# Report keys whose last bits follow the BLAS and LAPACK kernel, with the
# absolute bound on each of their numbers.  The gap, the spectrum and the
# largest real part are rounding noise around 0 in these cases (or exact, as
# 0.25 is), so their bound is absolute; the constants and the period are
# spectra of a matrix, bounded relative to the pin.  Under the AVX2 and
# SSE3 kernels the gap moved by up to 1.7e-16 and alpha by 2 ulps.
_KERNEL_ROUNDED = {"max_real_part": 1e-14, "spectrum_b1_bar": 1e-14,
                   "closed_vs_quadrature_gap": 1e-14, "base_frequency": 0.0, "period": 0.0,
                   "ell_j": 0.0, "ell_k": 0.0, "kappa_j": 0.0, "alpha": 0.0}


@pytest.mark.parametrize("case", list(_INSTABILITY_REPORTS))
def test_the_instability_report_keeps_its_bytes(tmp_path, case):
    # every line is pinned byte for byte but the values of _KERNEL_ROUNDED,
    # which are held within 1e-12 of the pin or within their absolute bound
    Q, expected = _INSTABILITY_REPORTS[case]
    ini, out = tmp_path / "field.ini", tmp_path / "o"
    ini.write_text(f"[field]\nQ = {Q}\n")
    assert main(["instability-test", str(ini), "--out", str(out)]) == EXIT_OK
    got, want = (out / "report.txt").read_text().split("\n"), expected.split("\n")
    assert [line.partition(": ")[0] for line in got] == [line.partition(": ")[0] for line in want]
    for line, pin in zip(got, want):
        key, _, value = pin.partition(": ")
        if key not in _KERNEL_ROUNDED:
            assert line == pin
            continue
        numbers = [complex(v) for v in line.partition(": ")[2].split("; ")]
        assert numbers == pytest.approx([complex(v) for v in value.split("; ")],
                                        rel=1e-12, abs=_KERNEL_ROUNDED[key]), key


def test_a_node_count_past_the_bound_exits_three_with_its_cause(tmp_path, capsys):
    ini = tmp_path / "nodes.ini"
    ini.write_text("[averaging]\nnodes = 100000000000\n")
    assert main(["instability-test", str(ini), "--out", str(tmp_path / "o")]) == EXIT_SCENARIO
    assert capsys.readouterr().err == (
        "scenario error: nodes = 100000000000 exceeds the bound of 4194304 Simpson nodes\n")


@pytest.mark.parametrize("field", ["", "[field]\nQ = [[1, 0], [0, 2]]\n"], ids=["demo", "sqrt2"])
def test_a_node_count_below_the_bound_exits_three_on_every_field(tmp_path, capsys, field):
    # the second field's drift frequencies have the ratio sqrt(2): no period, no quadrature
    ini = tmp_path / "nodes.ini"
    ini.write_text(field + "[averaging]\nnodes = 10\n")
    assert main(["instability-test", str(ini), "--out", str(tmp_path / "o")]) == EXIT_SCENARIO
    assert capsys.readouterr().err == "scenario error: nodes must be >= 64\n"


def test_a_horizon_past_the_step_bound_exits_three_at_once(tmp_path):
    # in a subprocess with a timeout and a memory limit, so that a run with
    # no step bound fails here instead of storing rows until it is killed
    ini = tmp_path / "long.ini"
    ini.write_text("[field]\nQ = [[4, 0], [0, 3]]\n[initial]\nx0 = [1, 0]\nv0 = [0, 0]\n"
                   "[sim]\nt_end = 1e300\n")
    paths = [str(Path(nestode.__file__).parents[1]), os.environ.get("PYTHONPATH")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, paths)))
    script = ("import resource, sys\n"
              "resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))\n"
              "from nestode.cli import main\n"
              "sys.exit(main(sys.argv[1:]))\n")
    run = subprocess.run([sys.executable, "-c", script, "simulate-ode", str(ini),
                          "--out", str(tmp_path / "o")],
                         env=env, capture_output=True, text=True, timeout=60)
    assert run.returncode == EXIT_SCENARIO, run.stderr
    assert run.stderr == ("scenario error: horizon / step = 1e+303 exceeds the bound "
                          "of 100000000 steps\n")


def test_config_errors_exit_with_code_two(tmp_path):
    ini = tmp_path / "broken.ini"
    ini.write_text("[field]\nQ = [[1, 2], [3]]\n")
    assert main(["decompose", str(ini), "--out", str(tmp_path / "o")]) == EXIT_CONFIG
    assert main(["decompose", str(tmp_path / "nope.ini")]) == EXIT_CONFIG


# ---------------------------------------------------------------- parser


def test_a_refused_argv_leaves_the_parser_usable(tmp_path, capsys):
    assert _parser() is _parser()
    # [sim] step is the one route to the step, so no scenario takes --step
    for argv in (["instability-test", "--step", "0.1"], ["figure1", "--step", "0.01"],
                 ["figure2", "--seed", "1"], ["no-such-scenario"], []):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == EXIT_CONFIG
    assert "usage: nestode" in capsys.readouterr().err
    out = tmp_path / "o"
    assert main(["instability-test", "--out", str(out)]) == EXIT_OK
    assert "verdict: UNSTABLE-CERTIFIED" in (out / "report.txt").read_text()


def test_options_of_one_run_do_not_carry_into_the_next(tmp_path):
    ini, ode, fine = tmp_path / "dec.ini", tmp_path / "ode.ini", tmp_path / "fine.ini"
    ini.write_text("[field]\nQ = [[4, 1], [1, 3]]\n")
    ode.write_text("[field]\nQ = [[4, 1], [1, 3]]\n[initial]\nx0 = [1, 0]\nv0 = [0, 0]\n"
                   "[sim]\nt_end = 1.0\n")
    fine.write_text(ode.read_text() + "step = 0.01\n")
    runs = [["simulate-ode", str(fine), "--out", str(tmp_path / "a")],
            ["decompose", str(ini), "--out", str(tmp_path / "b")],
            ["instability-test", "--out", str(tmp_path / "c")],
            ["simulate-ode", str(ode), "--out", str(tmp_path / "d")]]
    assert [main(argv) for argv in runs] == [EXIT_OK] * 4
    resolved = {name: (tmp_path / name / "config_resolved.ini").read_text() for name in "abcd"}
    assert "step = 0.01" in resolved["a"] and "step = 0.001" in resolved["d"]
    assert "step" not in resolved["b"] + resolved["c"]
    assert "alpha: 0.0" in (tmp_path / "b" / "report.txt").read_text()


@pytest.mark.parametrize("scenario", SCHEMAS)
def test_no_scenario_takes_a_seed(scenario, capsys):
    # sampling runs only on declared constants, at the fixed seed of
    # validate_assumption1; decompose's constants are exact and unsampled
    with pytest.raises(SystemExit) as exc:
        main([scenario, "--seed=1"])
    assert exc.value.code == EXIT_CONFIG
    assert "unrecognized arguments: --seed=1" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [["--help"], ["figure1", "--help"], ["decompose", "-h"]])
def test_help_text_is_that_of_a_freshly_built_parser(argv, capsys):
    def help_text(parse):
        with pytest.raises(SystemExit) as exc:
            parse(argv)
        assert exc.value.code == EXIT_OK
        return capsys.readouterr().out

    texts = [help_text(main) for _ in range(2)]
    assert texts == [help_text(_parser.__wrapped__().parse_args)] * 2
    assert texts[0].startswith("usage: nestode")


def test_figure1_emits_three_csv_panels(tmp_path):
    ini = tmp_path / "f1.ini"
    ini.write_text("[sim]\ns_end_drift = 13.0\ns_end_slow = 10.0\ns_end_fast = 40.0\n"
                   "step = 0.01\n")
    out = tmp_path / "f1"
    assert main(["figure1", str(ini), "--out", str(out)]) == EXIT_OK
    for name in ("drift.csv", "slow.csv", "scaled.csv"):
        assert (out / name).exists(), name
    header = (out / "slow.csv").read_text().splitlines()[0]
    assert header == "s,tau,z_1,z_2,z_3,z_4,zeta_1,zeta_2,zeta_3,zeta_4"
    report = (out / "report.txt").read_text()
    assert "verdict: UNSTABLE-CERTIFIED" in report
    assert "\nslow_blown_up: false\nfast_blown_up: false\n" in report


def test_figure1_writes_the_common_prefix_of_runs_cut_at_different_steps(tmp_path):
    # from this start the pull-back passes the blow-up cap about 2600 steps
    # before the end, while the averaged run stays under it
    ini = tmp_path / "cut.ini"
    ini.write_text("[initial]\ny0 = [3e11, -3e11, 0, 0]\n"
                   "[sim]\ns_end_drift = 0.5\ns_end_fast = 0.5\ns_end_slow = 400\n")
    out = tmp_path / "cut"
    assert main(["figure1", str(ini), "--out", str(out)]) == EXIT_OK
    f = helmholtz_split(DEMO_Q)
    y0 = np.array([3e11, -3e11, 0.0, 0.0])
    z = integrate_pullback(f, y0, T0=0.1, s_end=400.0, h=1e-2)
    zeta = integrate_average(f, y0, T0=0.1, s_end=400.0, h=1e-2)
    m = len(z.times)
    assert z.blown_up and not zeta.blown_up and m < len(zeta.times)
    rows = np.loadtxt(out / "slow.csv", delimiter=",", skiprows=1)
    assert rows.shape == (m, 10)
    assert np.array_equal(rows[:, 0], z.times)
    assert np.array_equal(rows[:, 2:6], z.states) and np.array_equal(rows[:, 6:], zeta.states[:m])
    gap = float(np.linalg.norm(z.states - zeta.states[:m], axis=1).max())
    report = (out / "report.txt").read_text()
    assert f"max_tracking_gap: {gap!r}\n" in report
    assert "\nslow_blown_up: true\n" in report


def test_csv_columns_of_unequal_length_are_refused(tmp_path):
    path = tmp_path / "bad.csv"
    with pytest.raises(ValueError, match=r"bad.csv have unequal lengths \[3, 2, 3\]"):
        _write_csv(path, {"a": np.zeros(3), "b": np.zeros(2), "c": np.arange(3)})
    assert not path.exists()


_SPECIAL_FLOATS = [math.nan, math.inf, -math.inf, -0.0, 5e-324, 1e16, 1e-5]


@pytest.mark.parametrize("rows", [1, _CSV_CHUNK - 1, _CSV_CHUNK, _CSV_CHUNK + 1,
                                  2 * _CSV_CHUNK + 1])
# no shrinking: a failing example of thousands of rows would take minutes to
# shrink, and its seed and column kinds already reproduce it
@settings(phases=[Phase.explicit, Phase.reuse, Phase.generate])
@given(kinds=st.lists(st.booleans(), min_size=1, max_size=11),
       seed=st.integers(0, 2 ** 32 - 1), head=st.lists(st.floats(), max_size=8))
def test_csv_bytes_are_the_repr_of_every_cell(tmp_path_factory, rows, kinds, seed, head):
    # an int column for each True; float columns mix the special values,
    # drawn floats and magnitudes from subnormal to overflow
    rng = np.random.default_rng(seed)
    columns = []
    for is_int in kinds:
        if is_int:
            columns.append(rng.integers(-2 ** 62, 2 ** 62, size=rows))
            continue
        with np.errstate(over="ignore"):
            col = rng.standard_normal(rows) * 10.0 ** rng.integers(-330, 310, size=rows)
        picks = rng.random(rows) < 0.2
        col[picks] = rng.choice(_SPECIAL_FLOATS, size=int(picks.sum()))
        col[:len(head)] = head[:rows]
        columns.append(col)
    header = [f"c{k}" for k in range(len(columns))]
    path = tmp_path_factory.mktemp("csv") / "cells.csv"
    _write_csv(path, dict(zip(header, columns)))
    expected = ",".join(header) + "\n" + "".join(
        ",".join(map(repr, row)) + "\n" for row in zip(*(col.tolist() for col in columns)))
    assert path.read_text() == expected


def test_figure2_emits_distance_series_with_jump_markers(tmp_path):
    ini = tmp_path / "f2.ini"
    ini.write_text(MINIMAL_FIG2 + "\n[sim]\nt_end = 3.0\n")
    out = tmp_path / "f2"
    assert main(["figure2", str(ini), "--out", str(out)]) == EXIT_OK
    ode = (out / "ode_dist.csv").read_text().splitlines()
    hyb = (out / "hybrid_dist.csv").read_text().splitlines()
    assert ode[0] == "t,dist"
    assert hyb[0] == "t,j,dist,jump"
    markers = [line.split(",")[3] for line in hyb[1:]]
    assert markers.count("1") == 4  # jumps every 0.742 within t <= 3
    full = (out / "hybrid.csv").read_text().splitlines()
    assert full[0].endswith(",tau,V")
    # reset rows are duplicated: same t, j incremented, p zeroed, tau back to T0
    jump_row = next(i for i, line in enumerate(hyb[1:], 1) if line.split(",")[3] == "1")
    pre, post = full[jump_row - 1].split(","), full[jump_row].split(",")
    assert pre[0] == post[0]
    assert int(post[1]) == int(pre[1]) + 1
    assert post[4] == post[5] == "0.0"
    assert pre[6] == "0.471" and post[6] == "0.1"
    report = (out / "report.txt").read_text()
    assert "certified_claim: verified" in report


def test_identical_config_gives_byte_identical_output(tmp_path):
    ini = tmp_path / "f2.ini"
    ini.write_text(MINIMAL_FIG2 + "\n[sim]\nt_end = 2.0\n")
    out1, out2 = tmp_path / "a", tmp_path / "b"
    assert main(["figure2", str(ini), "--out", str(out1)]) == EXIT_OK
    assert main(["figure2", str(ini), "--out", str(out2)]) == EXIT_OK
    for name in ("hybrid.csv", "hybrid_dist.csv", "ode_dist.csv"):
        assert (out1 / name).read_bytes() == (out2 / name).read_bytes()


def test_rerunning_the_emitted_echo_reproduces_the_output(tmp_path):
    ini = tmp_path / "f2.ini"
    ini.write_text(MINIMAL_FIG2 + "\n[sim]\nt_end = 2.0\n")
    out1, out2 = tmp_path / "a", tmp_path / "b"
    assert main(["figure2", str(ini), "--out", str(out1)]) == EXIT_OK
    echo = out1 / "config_resolved.ini"
    assert main(["figure2", str(echo), "--out", str(out2)]) == EXIT_OK
    assert (out1 / "hybrid.csv").read_bytes() == (out2 / "hybrid.csv").read_bytes()


def test_every_file_is_the_same_wherever_the_run_is_written(tmp_path):
    # --out says where a run goes and nothing else: two directories and a
    # rerun of the echo in a third give the same bytes in every file, the
    # report and the echo included
    ini = tmp_path / "f2.ini"
    ini.write_text(_ini(_CHEAP["figure2"], {}))
    outs = [tmp_path / "a", tmp_path / "b" / "c", tmp_path / "d"]
    assert main(["figure2", str(ini), "--out", str(outs[0])]) == EXIT_OK
    assert main(["figure2", str(ini), "--out", str(outs[1])]) == EXIT_OK
    assert main(["figure2", str(outs[0] / "config_resolved.ini"), "--out", str(outs[2])]) \
        == EXIT_OK
    first, *others = ({p.name: p.read_bytes() for p in out.iterdir()} for out in outs)
    assert sorted(first) == ["config_resolved.ini", "figure2_plot.gp", "hybrid.csv",
                             "hybrid_dist.csv", "ode_dist.csv", "report.txt"]
    for files in others:
        assert sorted(files) == sorted(first)
        assert [name for name in first if files[name] != first[name]] == []


def test_a_run_formats_its_resolved_config_once_for_both_files(tmp_path, monkeypatch):
    calls = []
    resolved_ini = ScenarioConfig.resolved_ini
    monkeypatch.setattr(ScenarioConfig, "resolved_ini",
                        lambda self: calls.append(self.scenario) or resolved_ini(self))
    out = tmp_path / "inst"
    assert main(["instability-test", "--out", str(out)]) == EXIT_OK
    assert calls == ["instability-test"]
    echo = (out / "config_resolved.ini").read_text()
    assert (out / "report.txt").read_text().endswith("\n\nresolved configuration:\n" + echo)


def test_simulate_hybrid_claim_violation_exits_four(tmp_path):
    # a step outside the integrator's stability region fabricates growth,
    # which the decrease checks must flag under an admissible certificate
    ini = tmp_path / "coarse.ini"
    ini.write_text(
        MINIMAL_FIG2
        + "\n[initial]\nq0 = [100, -100]\np0 = [100, -100]\n"
        + "\n[sim]\nt_end = 3.0\nstep = 0.4\n"
    )
    out = tmp_path / "claim"
    assert main(["simulate-hybrid", str(ini), "--out", str(out)]) == EXIT_CLAIM
    report = (out / "report.txt").read_text()
    assert "certified_claim: VIOLATED" in report


@pytest.mark.parametrize("scenario", ["simulate-hybrid", "figure2"])
def test_an_overflowing_hybrid_run_exits_four_without_a_warning(scenario, tmp_path):
    # the first step from 1e306 overflows: its NaN margins, ratios, distances
    # and fit are violations or read as they are, and pytest turns any
    # numpy warning on the way into an error
    ini = tmp_path / "overflow.ini"
    ini.write_text(MINIMAL_FIG2 + "\n[initial]\nq0 = [1e306, 0]\np0 = [0, 0]\n"
                   "\n[sim]\nt_end = 1.0\n")
    out = tmp_path / "o"
    assert main([scenario, str(ini), "--out", str(out)]) == EXIT_CLAIM
    report = (out / "report.txt").read_text()
    assert "blown_up: true\n" in report and "certified_claim: VIOLATED\n" in report


def test_an_overflowing_general_run_is_refused_without_a_warning(tmp_path):
    # the run records an overflowing drive, the check of the declared
    # constants samples a ball of infinite radius, and pytest turns any
    # numpy warning on the way into an error
    ini = tmp_path / "overflow.ini"
    ini.write_text("[field]\ngeneral = test_cli:soft_field\n"
                   "[restart]\neta = 0.5\nT0 = 0.1\nT = 2.0\n"
                   "[initial]\nq0 = [1e306, 0]\np0 = [0, 0]\n[sim]\nt_end = 1\n")
    out = tmp_path / "o"
    assert main(["simulate-hybrid", str(ini), "--out", str(out)]) == EXIT_OK
    report = (out / "report.txt").read_text()
    assert "blown_up: true\n" in report
    assert ("certificate: refused (declared constants fail the sampled check: grad_monotone, "
            "rot_monotone, grad_lipschitz, rot_lipschitz)\n") in report


def test_simulate_ode_trajectory_layout(tmp_path):
    ini = tmp_path / "ode.ini"
    ini.write_text(
        "[field]\nQ = [[100, 5], [-5, 100]]\n"
        "[initial]\nx0 = [0.1, -0.1]\nv0 = [0, 0]\n"
        "[sim]\nt_end = 1.0\n"
    )
    out = tmp_path / "so"
    assert main(["simulate-ode", str(ini), "--out", str(out)]) == EXIT_OK
    lines = (out / "trajectory.csv").read_text().splitlines()
    assert lines[0] == "t,x_1,x_2,v_1,v_2,tau"
    assert lines[1] == "0.0,0.1,-0.1,0.0,0.0,0.1"
    assert len(lines) == 1002  # header + 1001 grid points


def test_simulate_hybrid_accepts_a_general_field_reference(tmp_path):
    ini = tmp_path / "soft.ini"
    ini.write_text(
        "[field]\ngeneral = test_cli:soft_field\n"
        "[restart]\neta = 0.5\nT0 = 0.1\nT = 2.0\n"
        "[initial]\nq0 = [4.0, -3.0]\np0 = [0, 0]\n"
        "[sim]\nt_end = 8.0\nstep = 1e-3\n"
    )
    out = tmp_path / "soft"
    assert main(["simulate-hybrid", str(ini), "--out", str(out)]) == EXIT_OK
    report = (out / "report.txt").read_text()
    assert "certified_claim: verified" in report
    assert "general = test_cli:soft_field" in (out / "config_resolved.ini").read_text()


def test_simulate_hybrid_evaluates_the_potential_once_per_row(tmp_path):
    ini = tmp_path / "counted.ini"
    ini.write_text(
        "[field]\ngeneral = test_cli:counted_soft_field\n"
        "[restart]\neta = 0.5\nT0 = 0.1\nT = 1.2\n"
        "[initial]\nq0 = [4.0, -3.0]\np0 = [1, 1]\n"
        "[sim]\nt_end = 3.0\nstep = 2e-3\n"
    )
    out = tmp_path / "counted"
    POTENTIAL_CALLS.clear()
    assert main(["simulate-hybrid", str(ini), "--out", str(out)]) == EXIT_OK
    header, *rows = (out / "trajectory.csv").read_text().splitlines()
    assert header.endswith(",V")
    assert "certified_claim: verified" in (out / "report.txt").read_text()
    assert len(POTENTIAL_CALLS) == len(rows) + 1  # each row and x_star


def test_a_general_reference_is_loaded_once_per_run(tmp_path):
    ini = tmp_path / "counted.ini"
    ini.write_text(_ini(_CHEAP["simulate-hybrid"], {
        "field": {"Q": None, "general": "test_cli:counted_soft_field"}, "restart": {"T": "1.2"}}))
    FIELD_LOADS.clear()
    assert main(["simulate-hybrid", str(ini), "--out", str(tmp_path / "o")]) == EXIT_OK
    assert len(FIELD_LOADS) == 1


def test_a_vectorized_general_field_writes_the_bytes_of_its_unflagged_twin(tmp_path):
    outs = []
    for ref in ("demo_general_field", "unflagged_demo_general_field"):
        ini = tmp_path / f"{ref}.ini"
        ini.write_text(_ini(_CHEAP["simulate-hybrid"], {
            "field": {"Q": None, "general": f"test_cli:{ref}"}}))
        outs.append(tmp_path / ref)
        assert main(["simulate-hybrid", str(ini), "--out", str(outs[-1])]) == EXIT_OK
    # the reference is the only name that differs
    flagged, twin = ({p.name: p.read_bytes().replace(b"unflagged_", b"") for p in out.iterdir()}
                     for out in outs)
    assert "trajectory.csv" in flagged
    assert flagged == twin


def test_a_general_field_instance_runs_as_its_factory_does(tmp_path):
    outs = []
    for ref in ("soft_field", "SOFT_FIELD"):
        ini = tmp_path / f"{ref}.ini"
        ini.write_text(_ini(_CHEAP["simulate-hybrid"], {
            "field": {"Q": None, "general": f"test_cli:{ref}"}, "restart": {"T": "2.0"}}))
        outs.append(tmp_path / ref)
        assert main(["simulate-hybrid", str(ini), "--out", str(outs[-1])]) == EXIT_OK
    # the reference is the only name that differs
    factory, instance = ({p.name: p.read_bytes().replace(b"SOFT_FIELD", b"soft_field")
                          for p in out.iterdir()} for out in outs)
    assert instance == factory
    assert b"certified_claim: verified" in instance["report.txt"]


_MISDECLARED = "[field]\ngeneral = test_cli:misdeclared_soft_field\n"
_REFUTED = "declared constants fail the sampled check: grad_monotone, rot_lipschitz"


@pytest.mark.parametrize("T", [1.0, 5.0])
def test_a_certificate_on_refuted_constants_is_refused_by_name(tmp_path, T):
    # both triggers lie outside the true window (1.005, 3.33] and inside the
    # window (0.51, 300] of the declared constants
    ini = tmp_path / "mis.ini"
    ini.write_text(_MISDECLARED + f"[restart]\neta = 0.5\nT0 = 0.1\nT = {T}\n"
                   "[initial]\nq0 = [1, -1]\np0 = [1, -1]\n[sim]\nt_end = 12.0\n")
    out = tmp_path / "o"
    assert main(["simulate-hybrid", str(ini), "--out", str(out)]) == EXIT_OK
    report = _report_values(out)
    assert list(report)[3:] == ["constants_validated", "failed_assumptions", "certificate"]
    assert report["constants_validated"] == "false"
    assert report["failed_assumptions"] == "grad_monotone, rot_lipschitz"
    assert report["certificate"] == f"refused ({_REFUTED})"
    assert (out / "trajectory.csv").read_text().split("\n", 1)[0] == "t,j,q_1,q_2,p_1,p_2,tau"


def test_optimal_restart_on_refuted_constants_exits_three_naming_them(tmp_path, capsys):
    ini = tmp_path / "mis.ini"
    ini.write_text(_MISDECLARED)
    assert main(["optimal-restart", str(ini), "--out", str(tmp_path / "o")]) == EXIT_SCENARIO
    assert capsys.readouterr() == ("", f"scenario error: {_REFUTED}\n")
    assert not (tmp_path / "o" / "report.txt").exists()


def test_simulate_ode_reports_refuted_constants_and_runs(tmp_path):
    ini = tmp_path / "ode.ini"
    ini.write_text(_MISDECLARED + "[initial]\nx0 = [0.1, -0.1]\nv0 = [0, 0]\n[sim]\nt_end = 0.2\n")
    assert main(["simulate-ode", str(ini), "--out", str(tmp_path / "o")]) == EXIT_OK
    report = _report_values(tmp_path / "o")
    assert list(report) == ["samples", "blown_up", "final_norm", "constants_validated",
                            "failed_assumptions", "files"]
    assert report["constants_validated"] == "false"
    assert report["failed_assumptions"] == "grad_monotone, rot_lipschitz"


# starts at |q| = 141, far beyond |q_i| = 20, where the stiff tail's gradient
# outgrows the declared ell_j = 1.5
_FAR_START = {
    "simulate-ode": "[initial]\nx0 = [100, -100]\nv0 = [0, 0]\n[sim]\nt_end = 1.0\n",
    "simulate-hybrid": "[restart]\neta = 0.5\nT0 = 0.1\nT = 2.0\n"
                       "[initial]\nq0 = [100, -100]\np0 = [0, 0]\n[sim]\nt_end = 10\n",
}


@pytest.mark.parametrize("scenario", list(_FAR_START))
def test_a_general_run_samples_its_constants_as_far_out_as_it_goes(tmp_path, scenario):
    # the ball of radius 10 around x_star holds none of the stiff tail
    assert validate_assumption1(stiff_tail_soft_field()).failures() == ()
    ini = tmp_path / "far.ini"
    ini.write_text("[field]\ngeneral = test_cli:stiff_tail_soft_field\n" + _FAR_START[scenario])
    assert main([scenario, str(ini), "--out", str(tmp_path / "o")]) == EXIT_OK
    report = _report_values(tmp_path / "o")
    assert report["constants_validated"] == "false"
    assert report["failed_assumptions"] == "grad_lipschitz"
    if scenario == "simulate-hybrid":
        assert report["certificate"] == ("refused (declared constants fail the sampled check: "
                                         "grad_lipschitz)")


@pytest.mark.parametrize("scenario", ["simulate-ode", "simulate-hybrid", "optimal-restart"])
def test_a_general_run_samples_its_constants_once_and_a_linear_run_never(tmp_path, monkeypatch,
                                                                         scenario):
    calls = []
    monkeypatch.setattr(cli, "validate_assumption1",
                        lambda f, **kw: calls.append(f) or validate_assumption1(f, **kw))
    general = {**_SOFT, "restart": {"T": "2.0"}} if scenario == "simulate-hybrid" else _SOFT
    for name, changes in (("general", general), ("linear", {})):
        ini = tmp_path / f"{name}.ini"
        ini.write_text(_ini(_CHEAP[scenario], changes))
        assert main([scenario, str(ini), "--out", str(tmp_path / name)]) == EXIT_OK
    assert len(calls) == 1 and isinstance(calls[0], GeneralField)
    assert _report_values(tmp_path / "general")["constants_validated"] == "true"
    assert "constants_validated" not in _report_values(tmp_path / "linear")


def test_field_section_rejects_both_matrix_and_reference(tmp_path):
    ini = tmp_path / "both.ini"
    ini.write_text(
        "[field]\nQ = [[1, 0], [0, 1]]\ngeneral = test_cli:soft_field\n"
        "[restart]\neta = 0.5\nT0 = 0.1\nT = 2.0\n"
        "[initial]\nq0 = [1, 0]\np0 = [0, 0]\n"
    )
    assert main(["simulate-hybrid", str(ini), "--out", str(tmp_path / "o")]) == EXIT_CONFIG


def test_general_field_dimension_checks_apply(tmp_path):
    ini = tmp_path / "dim.ini"
    ini.write_text(
        "[field]\ngeneral = test_cli:soft_field\n"
        "[restart]\neta = 0.5\nT0 = 0.1\nT = 2.0\n"
        "[initial]\nq0 = [1, 0, 0]\np0 = [0, 0, 0]\n"
    )
    assert main(["simulate-hybrid", str(ini), "--out", str(tmp_path / "o")]) == EXIT_CONFIG


# (module source, refusal text): a field module whose own code raises, on
# import or in its factory ``f``; the module is named after the case
_RAISING_MODULES = {
    "syntax_error": ("def f(:\n", "cannot import field module 'syntax_error': "
                     "SyntaxError: invalid syntax (syntax_error.py, line 1)"),
    "raises_on_import": ("raise RuntimeError('boom')\n",
                         "cannot import field module 'raises_on_import': RuntimeError: boom"),
    "failed_inner_import": ("import no_such_field_dependency\n",
                            "cannot import field module 'failed_inner_import': "
                            "No module named 'no_such_field_dependency'"),
    "factory_raises": ("def f():\n    raise RuntimeError('boom')\n",
                       "'factory_raises:f' failed to build a general field: RuntimeError: boom"),
    "factory_divides_by_zero": ("def f():\n    return 1 / 0\n",
                                "'factory_divides_by_zero:f' failed to build a general field: "
                                "ZeroDivisionError: division by zero"),
}


@pytest.mark.parametrize("name", list(_RAISING_MODULES))
def test_a_field_module_that_raises_exits_two_naming_the_exception(tmp_path, monkeypatch,
                                                                   capsys, name):
    source, text = _RAISING_MODULES[name]
    (tmp_path / f"{name}.py").write_text(source)
    monkeypatch.syspath_prepend(str(tmp_path))
    ini = tmp_path / "bad.ini"
    ini.write_text(_ini(_CHEAP["simulate-ode"], {"field": {"Q": None, "general": f"{name}:f"}}))
    try:
        code = main(["simulate-ode", str(ini), "--out", str(tmp_path / "o")])
    finally:
        sys.modules.pop(name, None)
    assert code == EXIT_CONFIG
    assert capsys.readouterr() == ("", f"config error: {text}\n")
    assert not (tmp_path / "o").exists()


def test_an_aliasing_node_count_exits_three_with_its_cause(tmp_path, capsys):
    ini = tmp_path / "alias.ini"
    ini.write_text("[field]\nQ = [[1, 2, -1], [-2, 400, 1.5], [1, -1.5, 400]]\n"
                   "\n[averaging]\nnodes = 80\n")
    assert main(["instability-test", str(ini), "--out", str(tmp_path / "o")]) == EXIT_SCENARIO
    err = capsys.readouterr().err
    assert "smallest admissible count is 64" in err
    assert "Traceback" not in err


# ---------------------------------------------------------------- optimal restart


def _report_values(out) -> dict[str, str]:
    head = (out / "report.txt").read_text().split("\n\nresolved configuration:")[0]
    return dict(line.split(": ", 1) for line in head.splitlines()[1:])


def test_optimal_restart_report(tmp_path):
    out = tmp_path / "opt"
    assert main(["optimal-restart", "--out", str(out)]) == EXIT_OK
    report = _report_values(out)
    assert list(report) == ["beta", "c_upper", "xi_star", "T_opt", "T_lower", "T_upper",
                            "iterations", "converged", "history", "admissible"]
    f = helmholtz_split(DEMO_Q)
    # the demo's trigger stops moving at pass 4
    history = plain_triggers(100.0, 100.0, 0.5, 0.1, passes=4)
    assert history[-1] == history[-2]
    assert report["history"] == ", ".join(map(repr, history))
    assert report["T_opt"] == repr(history[-1])
    assert report["iterations"] == "4"
    assert report["converged"] == "true"
    assert report["admissible"] == "true"
    cert = lyapunov_certificate(f, RestartConfig(T0=0.1, T=history[-1], eta=0.5))
    assert report["c_upper"] == repr(cert.c_upper)
    assert report["beta"] == repr(1.0 / cert.c_upper)
    assert report["xi_star"] == repr(restart_ratio(1.0 / cert.c_upper))


# keys that resolved configs of older versions carry: (scenario, section, line)
_REMOVED_KEYS = {
    "refine": ("optimal-restart", "solve", "refine = 1"),
    "tol": ("optimal-restart", "solve", "tol = 1e-10"),
    "max_denominator": ("instability-test", "averaging", "max_denominator = 64"),
    "degeneracy_tol": ("instability-test", "averaging", "degeneracy_tol = 1e-09"),
    "include_v": ("simulate-hybrid", "sim", "include_v = true"),
    "seed": ("decompose", "output", "seed = 0"),
    "out_dir": ("figure2", "output", "out_dir = out"),
}


@pytest.mark.parametrize("key", list(_REMOVED_KEYS))
def test_an_old_resolved_config_with_a_removed_key_exits_two(tmp_path, capsys, key):
    # the calibration runs to its fixed point at a fixed precision, the
    # certificate tolerances are constants, V is written whenever the
    # certificate is admissible, decompose no longer samples its exact
    # constants, and --out is the one route to the output directory
    scenario, section, line = _REMOVED_KEYS[key]
    resolved = parse_config(_ini(_CHEAP[scenario], {}), scenario).resolved_ini()
    if section in SCHEMAS[scenario]:
        text = resolved.replace(f"[{section}]\n", f"[{section}]\n{line}\n")
        error = f"unknown key {key!r} in section [{section}]"
    else:  # the whole section is gone: append it
        text = f"{resolved}\n[{section}]\n{line}\n"
        error = f"unknown section [{section}] for scenario {scenario}"
    ini = tmp_path / "config_resolved.ini"
    ini.write_text(text)
    assert f"[{section}]\n" in text and f"\n{line}\n" in text
    assert main([scenario, str(ini), "--out", str(tmp_path / "o")]) == EXIT_CONFIG
    assert capsys.readouterr() == ("", f"config error: {error}\n")
    assert not (tmp_path / "o").exists()


def test_optimal_restart_clamps_a_trigger_past_the_window(tmp_path):
    ini = tmp_path / "opt.ini"
    ini.write_text("[field]\nQ = [[1, 0.5], [-0.5, 1]]\n")
    out = tmp_path / "opt"
    assert main(["optimal-restart", str(ini), "--out", str(out)]) == EXIT_OK
    report = _report_values(out)
    assert (report["T_opt"], report["T_upper"], report["admissible"]) == ("2.0", "2.0", "true")
    # the fixed point lies past T_upper; the last pass repeats it
    assert report["converged"] == "true"
    assert report["history"].endswith(", 2.1889784835219106, 2.1889784835219106")
    cert = lyapunov_certificate(helmholtz_split(np.array([[1.0, 0.5], [-0.5, 1.0]])),
                                RestartConfig(T0=0.1, T=2.0, eta=0.5))
    assert report["c_upper"] == repr(cert.c_upper)


# the report above its configuration echo: (Q, or None for the demo default; text)
_OPTIMAL_RESTART_REPORTS = {
    "demo": (None, """\
scenario: optimal-restart
beta: 0.007422576872737721
c_upper: 134.72410150077206
xi_star: 0.4995346484647598
T_opt: 0.2831062002844959
T_lower: 0.14142135623730953
T_upper: 0.6
iterations: 4
converged: true
history: 0.28284271247461906, 0.2831060797112069, 0.2831062002515073, 0.2831062002844959, 0.2831062002844959
admissible: true

"""),
    "clamped": ("[[1, 0.5], [-0.5, 1]]", """\
scenario: optimal-restart
beta: 0.47058823529411764
c_upper: 2.125
xi_star: 0.4627534545434173
T_opt: 2.0
T_lower: 1.004987562112089
T_upper: 2.0
iterations: 10
converged: true
history: 2.009975124224178, 2.1726812139001197, 2.187519302634918, 2.1888480400138253, 2.188966824194729, 2.1889774414152288, 2.1889783902734425, 2.188978475196154, 2.188978482689335, 2.1889784835219106, 2.1889784835219106
admissible: true

"""),
    "conservative": ("[[2, 0], [0, 1]]", """\
scenario: optimal-restart
beta: 0.3295672999210025
c_upper: 3.034281617865913
xi_star: 0.4759439722110983
T_opt: 2.1115669507131414
T_lower: 1.004987562112089
T_upper: inf
iterations: 7
converged: true
history: 2.009975124224178, 2.1082814176981586, 2.111464115724423, 2.111563735588139, 2.111566850256477, 2.111566947614221, 2.1115669507131414, 2.1115669507131414
admissible: true

"""),
}


@pytest.mark.parametrize("case", list(_OPTIMAL_RESTART_REPORTS))
def test_the_optimal_restart_report_keeps_its_bytes(tmp_path, case):
    Q, expected = _OPTIMAL_RESTART_REPORTS[case]
    argv = ["optimal-restart", "--out", str(tmp_path / "o")]
    if Q is not None:
        (tmp_path / "field.ini").write_text(f"[field]\nQ = {Q}\n")
        argv.insert(1, str(tmp_path / "field.ini"))
    assert main(argv) == EXIT_OK
    report = (tmp_path / "o" / "report.txt").read_text()
    assert report.split("\nresolved configuration:\n")[0] + "\n" == expected


# report.txt above its configuration echo on the branches of a refused
# certificate, which writes no V column, and of a decompose warning
_BRANCH_REPORTS = {
    "hybrid-T-outside-window": ("simulate-hybrid", {"restart": {"T": "0.8"}}, """\
scenario: simulate-hybrid
samples: 1001
jumps: 0
blown_up: false
certificate: refused (T = 0.8 outside the admissible window (0.141421, 0.6])

"""),
    "hybrid-eta-one": ("simulate-hybrid", {"restart": {"eta": "1.0"}}, """\
scenario: simulate-hybrid
samples: 1003
jumps: 2
blown_up: false
certificate: refused (certificates require eta in (0, 1))

"""),
    "decompose-alpha-above-one": ("decompose", {"field": {"Q": "[[1, 3], [-3, 1]]"}}, """\
scenario: decompose
dim: 2
Qs: [[1.0, 0.0], [0.0, 1.0]]
Qa: [[0.0, 3.0], [-3.0, 0.0]]
ell_j: 1.0
ell_k: 3.0
kappa_j: 1.0
alpha: 3.0
warning: alpha out of range: ell_k/sqrt(ell_j) = 3 > 1; the scaling relationship requires \
alpha in (0, 1]

"""),
}


@pytest.mark.parametrize("case", list(_BRANCH_REPORTS))
def test_a_refused_certificate_and_a_warning_keep_their_bytes(tmp_path, case):
    scenario, changes, expected = _BRANCH_REPORTS[case]
    ini = tmp_path / "branch.ini"
    ini.write_text(_ini(_CHEAP[scenario], changes))
    out = tmp_path / "o"
    assert main([scenario, str(ini), "--out", str(out)]) == EXIT_OK
    report = (out / "report.txt").read_text()
    assert report.split("\nresolved configuration:\n")[0] + "\n" == expected
    if scenario == "simulate-hybrid":
        header = (out / "trajectory.csv").read_text().split("\n", 1)[0]
        assert header == "t,j,q_1,q_2,p_1,p_2,tau"


# ---------------------------------------------------------------- malformed input

_ODE = "[field]\nQ = [[100, 5], [-5, 100]]\n[initial]\nx0 = [0.1, -0.1]\nv0 = [0, 0]\n"


@pytest.mark.parametrize("scenario, text, cause", [
    ("simulate-ode", _ODE + "[clock]\nT0 = nan\n", "[clock] T0"),
    ("optimal-restart", "[restart]\neta = nan\n", "[restart] eta"),
    ("simulate-ode", _ODE + "[sim]\nt_end = inf\n", "[sim] t_end"),
], ids=["clock-T0-nan", "restart-eta-nan", "sim-t_end-inf"])
def test_a_non_finite_number_exits_two_naming_its_key(tmp_path, capsys, scenario, text, cause):
    ini = tmp_path / "bad.ini"
    ini.write_text(text)
    assert main([scenario, str(ini), "--out", str(tmp_path / "o")]) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.startswith(f"config error: {cause}: ")
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("token", ["inf", "1e400"])
def test_an_infinite_clock_start_runs_without_damping(tmp_path, token):
    ini = tmp_path / "undamped.ini"
    ini.write_text(_ODE + f"[clock]\nT0 = {token}\n[sim]\nt_end = 0.5\n")
    out = tmp_path / "o"
    assert main(["simulate-ode", str(ini), "--out", str(out)]) == EXIT_OK
    rows = (out / "trajectory.csv").read_text().splitlines()
    assert rows[1] == "0.0,0.1,-0.1,0.0,0.0,inf"
    f = helmholtz_split(DEMO_Q)
    undamped = integrate_nesterov_t(f, [0.1, -0.1], [0.0, 0.0], T0=math.inf, eta=1.0,
                                    t_end=0.5)
    assert rows[-1] == ",".join(map(repr, [0.5, *undamped.states[-1].tolist()]))


# A cheap valid config per scenario; the property below overwrites some of
# its keys with malformed tokens, none of which asks for more work.
_CHEAP = {
    "decompose": {"field": {"Q": "[[4, 1], [1, 3]]"}},
    "instability-test": {},
    "simulate-ode": {"field": {"Q": "[[100, 5], [-5, 100]]"},
                     "initial": {"x0": "[0.1, -0.1]", "v0": "[0, 0]"},
                     "sim": {"t_end": "0.2"}},
    "simulate-pullback": {"field": {"Q": "[[100, 5], [-5, 100]]"},
                          "initial": {"z0": "[0.1, -0.1, 0, 0]"}, "sim": {"s_end": "0.2"}},
    "simulate-average": {"field": {"Q": "[[100, 5], [-5, 100]]"},
                         "initial": {"zeta0": "[0.1, -0.1, 0, 0]"}, "sim": {"s_end": "0.2"}},
    "simulate-hybrid": {"field": {"Q": "[[100, 5], [-5, 100]]"},
                        "restart": {"eta": "0.5", "T0": "0.1", "T": "0.471"},
                        "initial": {"q0": "[1, -1]", "p0": "[1, -1]"}, "sim": {"t_end": "1.0"}},
    "optimal-restart": {},
    "figure1": {"sim": {"s_end_drift": "0.5", "s_end_slow": "0.5", "s_end_fast": "0.5",
                        "step": "0.01"}},
    "figure2": {"sim": {"t_end": "1.0"}},
}
_TOKENS = ["nan", "inf", "1e400", "1e300", "-1", "0", "abc", "[1, 2", "[[1, 2], [3]]", "[]"]


def _ini(base: dict, changes: dict) -> str:
    """Config text of ``base`` with ``changes`` applied; a ``None`` value drops its key."""
    sections = {section: dict(values) for section, values in base.items()}
    for section, values in changes.items():
        sections.setdefault(section, {}).update(values)
    return "".join(f"[{section}]\n" + "".join(f"{k} = {v}\n" for k, v in values.items()
                                              if v is not None)
                   for section, values in sections.items())


@st.composite
def _malformed_configs(draw):
    scenario = draw(st.sampled_from(sorted(_CHEAP)))
    keys = [(section, key) for section, spec in SCHEMAS[scenario].items() for key in spec]
    picked = draw(st.lists(st.sampled_from(keys), min_size=1, max_size=3, unique=True))
    changes = {}
    for section, key in picked:
        changes.setdefault(section, {})[key] = draw(st.sampled_from(_TOKENS))
    return scenario, _ini(_CHEAP[scenario], changes)


@given(_malformed_configs())
def test_malformed_numbers_exit_cleanly(tmp_path_factory, drawn):
    scenario, text = drawn
    work = tmp_path_factory.mktemp("malformed")
    ini = work / "bad.ini"
    ini.write_text(text)
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        code = main([scenario, str(ini), "--out", str(work / "o")])
    assert code in (EXIT_OK, EXIT_CONFIG, EXIT_SCENARIO), (scenario, text, err.getvalue())
    assert "Traceback" not in err.getvalue()


def test_a_config_without_section_headers_exits_two(tmp_path, capsys):
    ini = tmp_path / "flat.ini"
    ini.write_text("nodes = 1\n")
    assert main(["instability-test", str(ini), "--out", str(tmp_path / "o")]) == EXIT_CONFIG
    assert capsys.readouterr() == ("", "config error: config parse failure: File contains no "
                                   "section headers.\nfile: '<string>', line: 1\n'nodes = 1\\n'\n")
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("scenario, refusal", [
    (None, "no scenario given (add [run] scenario = ...)"),
    ("bogus", "unknown scenario 'bogus'; expected one of ('decompose', 'instability-test', "
     "'simulate-ode', 'simulate-pullback', 'simulate-average', 'simulate-hybrid', "
     "'optimal-restart', 'figure1', 'figure2')"),
], ids=["no-scenario", "unknown-scenario"])
def test_parse_config_names_a_scenario_or_override_it_cannot_resolve(scenario, refusal):
    with pytest.raises(ConfigError) as exc:
        parse_config("", scenario)
    assert str(exc.value) == refusal


def test_a_zero_clock_rate_in_optimal_restart_exits_three_with_its_cause(tmp_path, capsys):
    ini = tmp_path / "eta.ini"
    ini.write_text("[restart]\neta = 0\n")
    assert main(["optimal-restart", str(ini), "--out", str(tmp_path / "o")]) == EXIT_SCENARIO
    assert capsys.readouterr().err == "scenario error: eta must lie in (0, 1)\n"


def test_a_negative_reset_value_in_optimal_restart_exits_three_with_its_cause(tmp_path, capsys):
    ini = tmp_path / "T0.ini"
    ini.write_text("[restart]\nT0 = -0.1\n")
    assert main(["optimal-restart", str(ini), "--out", str(tmp_path / "o")]) == EXIT_SCENARIO
    assert capsys.readouterr().err == "scenario error: T0 must be nonnegative\n"


# ---------------------------------------------------------------- config schema

# every scenario.section.key of the config schema: a key is added or removed on purpose
SCHEMA_KEYS = {
    "decompose.field.Q",
    "instability-test.field.Q", "instability-test.averaging.nodes",
    "simulate-ode.field.general", "simulate-ode.field.Q", "simulate-ode.initial.x0",
    "simulate-ode.initial.v0", "simulate-ode.clock.T0", "simulate-ode.clock.eta",
    "simulate-ode.sim.t_end", "simulate-ode.sim.step",
    "simulate-pullback.field.Q", "simulate-pullback.initial.z0", "simulate-pullback.clock.T0",
    "simulate-pullback.sim.s_end", "simulate-pullback.sim.step",
    "simulate-average.field.Q", "simulate-average.initial.zeta0", "simulate-average.clock.T0",
    "simulate-average.sim.s_end", "simulate-average.sim.step",
    "simulate-hybrid.field.general", "simulate-hybrid.field.Q", "simulate-hybrid.restart.eta",
    "simulate-hybrid.restart.T0", "simulate-hybrid.restart.T", "simulate-hybrid.initial.q0",
    "simulate-hybrid.initial.p0", "simulate-hybrid.initial.tau0", "simulate-hybrid.sim.t_end",
    "simulate-hybrid.sim.step",
    "optimal-restart.field.general", "optimal-restart.field.Q", "optimal-restart.restart.eta",
    "optimal-restart.restart.T0",
    "figure1.field.Q", "figure1.initial.y0", "figure1.clock.T0", "figure1.sim.s_end_drift",
    "figure1.sim.s_end_slow", "figure1.sim.s_end_fast", "figure1.sim.step",
    "figure2.field.Q", "figure2.restart.eta", "figure2.restart.T0", "figure2.restart.T",
    "figure2.initial.q0", "figure2.initial.p0", "figure2.initial.tau0", "figure2.sim.t_end",
    "figure2.sim.step",
}


def test_the_config_schema_has_exactly_the_listed_keys():
    assert len(SCHEMA_KEYS) == 51
    assert {f"{scenario}.{section}.{key}" for scenario, schema in SCHEMAS.items()
            for section, keys in schema.items() for key in keys} == SCHEMA_KEYS


_SOFT = {"field": {"Q": None, "general": "test_cli:soft_field"}}
# figure1 and figure2 rerun at their full defaults, the rest at _CHEAP
_RERUNS = {**{s: (s, {}) for s in SCHEMAS},
           "simulate-ode-general": ("simulate-ode", _SOFT),
           "simulate-hybrid-general": ("simulate-hybrid", {**_SOFT, "restart": {"T": "2.0"}}),
           "optimal-restart-general": ("optimal-restart", _SOFT)}
_CSVS = {"figure1": ["drift.csv", "scaled.csv", "slow.csv"],
         "figure2": ["hybrid.csv", "hybrid_dist.csv", "ode_dist.csv"],
         "decompose": [], "instability-test": [], "optimal-restart": []}


@pytest.mark.parametrize("case", list(_RERUNS))
def test_rerun_from_the_resolved_config_reproduces_every_file(tmp_path, case):
    scenario, changes = _RERUNS[case]
    out = tmp_path / case

    def digests():
        return {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
                for p in out.iterdir() if p.suffix == ".csv" or p.name == "report.txt"}

    ini = tmp_path / "first.ini"
    ini.write_text("" if scenario.startswith("figure") else _ini(_CHEAP[scenario], changes))
    assert main([scenario, str(ini), "--out", str(out)]) == EXIT_OK
    first = digests()
    assert sorted(first) == sorted(_CSVS.get(scenario, ["trajectory.csv"]) + ["report.txt"])
    echo = tmp_path / "echo.ini"
    echo.write_text((out / "config_resolved.ini").read_text())
    for p in out.iterdir():
        p.unlink()
    assert main([scenario, str(echo), "--out", str(out)]) == EXIT_OK
    assert digests() == first
    assert (out / "config_resolved.ini").read_text() == echo.read_text()


_LONG = "[1, 0, 0]"
# one fault per config: (scenario, changes to its _CHEAP config, refusal text)
_REFUSALS = {
    **{f"{s}-{key}": (s, {"sim": {key: value}}, f"{key} must be positive")
       for s, key, value in [
           ("simulate-ode", "t_end", "0"), ("simulate-ode", "step", "-1e-3"),
           ("simulate-pullback", "s_end", "-2"), ("simulate-pullback", "step", "0"),
           ("simulate-average", "s_end", "0"), ("simulate-average", "step", "-0.5"),
           ("simulate-hybrid", "t_end", "-1"), ("simulate-hybrid", "step", "0"),
           ("figure1", "s_end_drift", "0"), ("figure1", "s_end_slow", "-1"),
           ("figure1", "s_end_fast", "0"), ("figure1", "step", "-0.01"),
           ("figure2", "t_end", "0"), ("figure2", "step", "-1e-3")]},
    **{f"{s}-clock-T0": (s, {"clock": {"T0": value}}, "T0 must be positive")
       for s, value in [("simulate-ode", "0"), ("simulate-pullback", "-inf"),
                        ("simulate-average", "-0.1"), ("figure1", "0")]},
    "simulate-ode-clock-eta-zero": ("simulate-ode", {"clock": {"eta": "0"}},
                                    "eta must lie in (0, 1], got 0.0"),
    "simulate-ode-clock-eta-above-one": ("simulate-ode", {"clock": {"eta": "1.5"}},
                                         "eta must lie in (0, 1], got 1.5"),
    **{f"{s}-{case}": (s, {"restart": changes}, text) for s in ("simulate-hybrid", "figure2")
       for case, changes, text in [
           ("T0-zero", {"T0": "0"},
            "restart window violated: need 0 < T0 < T, got T0=0.0, T=0.471"),
           ("T-at-T0", {"T": "0.1"},
            "restart window violated: need 0 < T0 < T, got T0=0.1, T=0.1"),
           ("eta-zero", {"eta": "0"}, "eta must lie in (0, 1], got 0.0"),
           ("eta-above-one", {"eta": "1.25"}, "eta must lie in (0, 1], got 1.25")]},
    **{f"{s}-tau0-{side}": (s, {"initial": {"tau0": value}},
                            f"tau0 must lie in [T0, T], got {value}")
       for s in ("simulate-hybrid", "figure2")
       for side, value in [("below", "0.05"), ("above", "0.5")]},
    **{f"{s}-{key}{'-general' if general else ''}": (
        s, {**(_SOFT if general else {}), "initial": {key: value}},
        f"{key} must have length {size} for a field of dimension 2, got length {length}")
       for s, key, value, size, length, general in [
           ("simulate-ode", "x0", _LONG, 2, 3, False), ("simulate-ode", "v0", "[1]", 2, 1, False),
           ("simulate-ode", "x0", _LONG, 2, 3, True), ("simulate-ode", "v0", "[1]", 2, 1, True),
           ("simulate-pullback", "z0", "[1, 0]", 4, 2, False),
           ("simulate-average", "zeta0", "[1, 0, 0]", 4, 3, False),
           ("simulate-hybrid", "q0", _LONG, 2, 3, False),
           ("simulate-hybrid", "p0", "[1]", 2, 1, False),
           ("simulate-hybrid", "q0", _LONG, 2, 3, True),
           ("simulate-hybrid", "p0", "[1]", 2, 1, True),
           ("figure1", "y0", "[0.1, -0.1]", 4, 2, False),
           ("figure2", "q0", _LONG, 2, 3, False), ("figure2", "p0", "[1]", 2, 1, False)]},
    **{f"{s}-Q-and-general": (s, {"field": {"Q": "[[4, 1], [1, 3]]",
                                            "general": "test_cli:soft_field"}},
                              "give either Q or general in [field], not both")
       for s in ("simulate-ode", "simulate-hybrid", "optimal-restart")},
    **{f"{s}-neither-Q-nor-general": (s, {"field": {"Q": None}},
                                      "section [field] needs either Q or general")
       for s in ("simulate-ode", "simulate-hybrid")},
    **{f"simulate-ode-general-{name}": (
        "simulate-ode", {"field": {"Q": None, "general": f"test_cli:{name}"}},
        f"'test_cli:{name}' is neither a general field nor a zero-argument factory of one "
        "(missing a required argument: 'x')")
       for name in ("LINEAR_FIELD", "one_argument_factory")},
    "instability-test-nodes-not-an-integer": ("instability-test", {"averaging": {"nodes": "1.5"}},
                                              "[averaging] nodes: expected an integer, got '1.5'"),
    "instability-test-unknown-run-key": ("instability-test", {"run": {"foo": "1"}},
                                         "unknown keys in [run]: ['foo']"),
    **{f"simulate-ode-general-{case}": ("simulate-ode", {"field": {"Q": None, "general": ref}},
                                        text)
       for case, ref, text in [
           ("no-colon", "nocolon",
            "general field reference must look like 'module:attribute', got 'nocolon'"),
           ("no-module", "no_such_field_module:f", "cannot import field module "
            "'no_such_field_module': No module named 'no_such_field_module'"),
           ("no-attribute", "test_cli:no_such_field",
            "module 'test_cli' has no attribute 'no_such_field'"),
           ("not-a-field", "test_cli:_SOFT_QA",
            "'test_cli:_SOFT_QA' did not produce a general field")]},
    "simulate-ode-general-off-equilibrium": (
        "simulate-ode", {"field": {"Q": None, "general": "test_cli:off_equilibrium_field"}},
        "'test_cli:off_equilibrium_field' failed to build a general field: "
        "x_star is not an equilibrium: |grad J| = 1.414e+00, |rot K| = 0.000e+00"),
}


@pytest.mark.parametrize("case", list(_REFUSALS))
def test_each_range_rule_refuses_with_its_exact_text(tmp_path, capsys, case):
    scenario, changes, text = _REFUSALS[case]
    ini = tmp_path / "bad.ini"
    ini.write_text(_ini(_CHEAP[scenario], changes))
    assert main([scenario, str(ini), "--out", str(tmp_path / "o")]) == EXIT_CONFIG
    assert capsys.readouterr() == ("", f"config error: {text}\n")
    assert not (tmp_path / "o").exists()


def test_every_byte_diff_config_parses_or_is_refused_as_listed():
    # a schema change that turns a listed run into a refusal fails here
    for _, scenario, text in RUNS:
        parse_config(text, scenario)
    for _, scenario, text in REFUSALS:
        with pytest.raises(ConfigError):
            parse_config(text, scenario)


def test_the_readme_key_table_names_every_config_key():
    readme = (Path(__file__).parents[1] / "README.md").read_text()
    section = readme.split("\n### Config keys, defaults and rules\n")[1].split("\n#")[0]
    known = {f"{name}.{key}" for schema in SCHEMAS.values()
             for name, keys in schema.items() for key in keys}
    missing = sorted(k for k in known if f"`{k}`" not in section)
    assert missing == []
    # and every key a table row names is a config key
    rows = "\n".join(line for line in section.splitlines() if line.startswith("|"))
    assert sorted(set(re.findall(r"`([a-z_]+\.\w+)`", rows)) - known) == []


@pytest.mark.parametrize("scenario", list(_CHEAP))
def test_every_config_key_is_read_by_its_scenario(tmp_path, monkeypatch, scenario):
    # a key the run never reads is an option that changes nothing; a general
    # reference is read while parsing, and its _CHEAP configs set Q instead
    read = set()
    get = ScenarioConfig.get

    def recording_get(self, section, key):
        read.add(f"{section}.{key}")
        return get(self, section, key)

    monkeypatch.setattr(ScenarioConfig, "get", recording_get)
    ini = tmp_path / "cheap.ini"
    ini.write_text(_ini(_CHEAP[scenario], {}))
    assert main([scenario, str(ini), "--out", str(tmp_path / "o")]) == EXIT_OK
    keys = {f"{section}.{key}" for section, spec in SCHEMAS[scenario].items() for key in spec}
    assert sorted(keys - read - {"field.general"}) == []


@pytest.mark.parametrize("scenario, section, key", [
    ("figure2", "initial", "q0"), ("figure1", "field", "Q"), ("optimal-restart", "field", "Q")])
def test_each_config_gets_its_own_copy_of_a_default_array(scenario, section, key):
    first = parse_config("", scenario).get(section, key)
    expected = first.copy()
    first[...] = -1.0
    assert np.array_equal(parse_config("", scenario).get(section, key), expected)


def test_computed_defaults_follow_the_keys_they_are_computed_from():
    for scenario in ("simulate-hybrid", "figure2"):
        cfg = parse_config(_ini(_CHEAP[scenario], {"restart": {"T0": "0.25"}}), scenario)
        assert cfg.get("initial", "tau0") == 0.25
        assert "[initial]\nq0 = " in cfg.resolved_ini()
        assert "\ntau0 = 0.25\n" in cfg.resolved_ini()
    demo = parse_config("", "optimal-restart")
    assert np.array_equal(demo.get("field", "Q"), DEMO_Q)
    assert demo.get("field", "general") is None
    soft = parse_config(_ini({}, _SOFT), "optimal-restart")
    assert soft.get("field", "Q") is None
    assert "[field]\ngeneral = test_cli:soft_field\n\n" in soft.resolved_ini()


# argv after the scenario, and the refusal text; {d} is the working directory
_UNUSABLE = {
    "out-is-a-file": (["{d}/q.ini", "--out", "{d}/q.ini"],
                      "cannot create output directory {d}/q.ini: " + os.strerror(errno.EEXIST)),
    "out-under-a-file": (["{d}/q.ini", "--out", "{d}/q.ini/sub"],
                         "cannot create output directory {d}/q.ini/sub: "
                         + os.strerror(errno.ENOTDIR)),
    "config-is-a-directory": (["{d}", "--out", "{d}/o"],
                              "cannot read config {d}: " + os.strerror(errno.EISDIR)),
    "config-not-utf8": (["{d}/latin1.ini", "--out", "{d}/o"],
                        "cannot read config {d}/latin1.ini: 'utf-8' codec can't decode "
                        "byte 0xe9 in position 13: invalid continuation byte"),
}


@pytest.mark.parametrize("case", list(_UNUSABLE))
def test_an_unusable_path_exits_two_naming_it(tmp_path, capsys, case):
    (tmp_path / "q.ini").write_text("[field]\nQ = [[4, 1], [1, 3]]\n")
    (tmp_path / "latin1.ini").write_bytes("[field]\n# café\nQ = [[4, 1], [1, 3]]\n"
                                          .encode("latin-1"))
    argv, text = _UNUSABLE[case]
    argv = [arg.replace("{d}", str(tmp_path)) for arg in argv]
    assert main(["decompose", *argv]) == EXIT_CONFIG
    assert capsys.readouterr() == ("", f"config error: {text.replace('{d}', str(tmp_path))}\n")
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("scenario, name", [
    ("instability-test", "config_resolved.ini"), ("figure2", "report.txt"),
    ("figure2", "hybrid_dist.csv"), ("figure1", "slow_plot.gp")])
def test_an_output_file_that_is_a_directory_exits_two_naming_it(tmp_path, capsys,
                                                                scenario, name):
    ini = tmp_path / "cheap.ini"
    ini.write_text(_ini(_CHEAP[scenario], {}))
    (tmp_path / "o" / name).mkdir(parents=True)
    assert main([scenario, str(ini), "--out", str(tmp_path / "o")]) == EXIT_CONFIG
    assert capsys.readouterr() == (
        "", f"config error: cannot write {tmp_path}/o/{name}: {os.strerror(errno.EISDIR)}\n")
    assert not (tmp_path / "o" / "report.txt").is_file()


@pytest.mark.parametrize("scenario, changes, key, value", [
    ("figure1", {"initial": {"y0": "[0, 0, 0, 0]"}}, "growth_ratio_last_to_first_decile", "1.0"),
    ("figure2", {"initial": {"q0": "[0, 0]", "p0": "[0, 0]"}}, "decay_orders", "0.0"),
], ids=["figure1", "figure2"])
def test_a_run_from_the_zero_state_reports_without_numpy_warnings(tmp_path, scenario, changes,
                                                                  key, value):
    # numpy warnings are errors in this suite, so a 0/0 or a log10(0) fails here
    ini = tmp_path / "zero.ini"
    ini.write_text(_ini(_CHEAP[scenario], changes))
    assert main([scenario, str(ini), "--out", str(tmp_path / "o")]) == EXIT_OK
    assert _report_values(tmp_path / "o")[key] == value


def test_an_empty_reset_window_exits_three_naming_both_ends(tmp_path, capsys):
    ini = tmp_path / "empty.ini"
    ini.write_text("[field]\nQ = [[1, 2], [-2, 4]]\n")
    assert main(["optimal-restart", str(ini), "--out", str(tmp_path / "o")]) == EXIT_SCENARIO
    assert capsys.readouterr() == (
        "", "scenario error: the admissible window (1.00499, 0.5] is empty\n")
    assert not (tmp_path / "o" / "report.txt").exists()
