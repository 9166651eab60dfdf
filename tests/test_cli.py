import hashlib

import numpy as np
import pytest

from nestode.cli import (
    EXIT_CLAIM,
    EXIT_CONFIG,
    EXIT_OK,
    EXIT_SCENARIO,
    ConfigError,
    main,
    parse_config,
)
from nestode.fields import GeneralField

_SOFT_QA = np.array([[0.0, 0.3], [-0.3, 0.0]])


def soft_field() -> GeneralField:
    """Mildly nonlinear monotone field, loadable via 'test_cli:soft_field'."""
    def potential(q):
        return float(np.sum(0.5 * q * q
                            + 0.5 * (q * np.arctan(q) - 0.5 * np.log1p(q * q))))

    return GeneralField(
        dim=2,
        potential=potential,
        potential_gradient=lambda q: q + 0.5 * np.arctan(q),
        rotation=lambda q: _SOFT_QA @ q,
        x_star=np.zeros(2),
        kappa_j=1.0,
        ell_j=1.5,
        ell_k=0.3,
    )

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
    assert cfg.get("output", "out_dir") == "out"
    assert cfg.get("output", "seed") == 0
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


def test_config_errors_exit_with_code_two(tmp_path):
    ini = tmp_path / "broken.ini"
    ini.write_text("[field]\nQ = [[1, 2], [3]]\n")
    assert main(["decompose", str(ini), "--out", str(tmp_path / "o")]) == EXIT_CONFIG
    assert main(["decompose", str(tmp_path / "nope.ini")]) == EXIT_CONFIG


def test_figure1_emits_three_csv_panels(tmp_path):
    ini = tmp_path / "f1.ini"
    ini.write_text("[sim]\ns_end_drift = 13.0\ns_end_slow = 10.0\ns_end_fast = 40.0\n")
    out = tmp_path / "f1"
    assert main(["figure1", str(ini), "--out", str(out), "--step", "0.01"]) == EXIT_OK
    for name in ("drift.csv", "slow.csv", "scaled.csv"):
        assert (out / name).exists(), name
    header = (out / "slow.csv").read_text().splitlines()[0]
    assert header == "s,tau,z_1,z_2,z_3,z_4,zeta_1,zeta_2,zeta_3,zeta_4"
    report = (out / "report.txt").read_text()
    assert "verdict: UNSTABLE-CERTIFIED" in report


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


def test_step_flag_overrides_config(tmp_path):
    ini = tmp_path / "ode.ini"
    ini.write_text(
        "[field]\nQ = [[100, 5], [-5, 100]]\n"
        "[initial]\nx0 = [0.1, -0.1]\nv0 = [0, 0]\n"
        "[sim]\nt_end = 1.0\nstep = 1e-3\n"
    )
    out = tmp_path / "so"
    assert main(["simulate-ode", str(ini), "--out", str(out), "--step", "0.01"]) == EXIT_OK
    lines = (out / "trajectory.csv").read_text().splitlines()
    assert len(lines) == 102
    assert "step = 0.01" in (out / "config_resolved.ini").read_text()


@pytest.mark.parametrize("scenario", ["figure1", "figure2"])
def test_rerun_from_the_resolved_config_reproduces_every_file(tmp_path, scenario):
    out = tmp_path / scenario

    def digests():
        return {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
                for p in out.iterdir() if p.suffix == ".csv" or p.name == "report.txt"}

    assert main([scenario, "--out", str(out)]) == EXIT_OK
    first = digests()
    assert len(first) == 4  # three CSVs and the report
    echo = tmp_path / "echo.ini"
    echo.write_text((out / "config_resolved.ini").read_text())
    for p in out.iterdir():
        p.unlink()
    assert main([scenario, str(echo)]) == EXIT_OK
    assert digests() == first


def test_an_aliasing_node_count_exits_three_with_its_cause(tmp_path, capsys):
    ini = tmp_path / "alias.ini"
    ini.write_text("[field]\nQ = [[1, 2, -1], [-2, 400, 1.5], [1, -1.5, 400]]\n"
                   "\n[averaging]\nnodes = 80\n")
    assert main(["instability-test", str(ini), "--out", str(tmp_path / "o")]) == EXIT_SCENARIO
    err = capsys.readouterr().err
    assert "smallest admissible count is 64" in err
    assert "Traceback" not in err
