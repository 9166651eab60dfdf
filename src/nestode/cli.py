"""Scenario runner: config ingestion, orchestration, and data emission.

Configs are flat INI documents (``key = value`` under ``[section]``
headers) with arrays written as bracketed row lists.  In the schema of a
scenario every key carries its parser, its default (a value, or a function
of the keys resolved before it), its range rule and, for a vector, its
length in multiples of the field's dimension; ``[field]`` resolves first
and must set exactly one of ``Q`` and ``general``.  Unknown keys are
rejected, and the fully-resolved configuration is echoed both into the
report and into ``config_resolved.ini``.  A config holds only what the run
computes: ``--out DIR`` (default ``out``) is the one route to the output
directory, so rerunning an echo reproduces every file byte for byte,
wherever it is written.

Emitted files use shortest round-trip decimal formatting, which makes CSV
output byte-identical across runs of the same resolved config.  Each
scenario runner returns its report as ``(key, value)`` pairs, and one
formatter writes them as the ``key: value`` lines of ``report.txt``.  Plot
scripts are plain gnuplot text referencing the CSVs; nothing here ever
invokes a renderer.

Exit codes: 0 success, 2 config error (an unreadable config file, an
output directory that cannot be created and an output file that cannot be
written included), 3 scenario error
(propagated from the library), 4 certified-claim violation (an admissible
certificate whose verification checks failed on the simulated run).
"""

from __future__ import annotations

import argparse
import ast
import configparser
import contextlib
import functools
import importlib
import inspect
import math
import sys
from copy import copy
from dataclasses import dataclass, fields
from pathlib import Path
from typing import Callable, Iterator, TextIO

import numpy as np

from . import averaging, hybrid, odesim
from .fields import GeneralField, helmholtz_split, validate_assumption1

__all__ = ["ConfigError", "ScenarioError", "ScenarioConfig", "parse_config",
           "run", "main", "SCENARIOS"]

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_SCENARIO = 3
EXIT_CLAIM = 4


class ConfigError(Exception):
    """Malformed, unknown, or inconsistent configuration input."""


class ScenarioError(Exception):
    """A scenario failed while executing library operations."""


# ------------------------------------------------------------------ value parsing

_REQUIRED = object()


def _parse_clock(raw: str) -> float:
    """A number other than NaN; an infinite start of the clock means no damping."""
    try:
        value = float(raw)
    except ValueError:
        value = math.nan
    if math.isnan(value):
        raise ConfigError(f"expected a number, got {raw!r}")
    return value


def _parse_float(raw: str) -> float:
    value = _parse_clock(raw)
    if math.isinf(value):
        raise ConfigError(f"expected a finite number, got {raw!r}")
    return value


def _parse_int(raw: str) -> int:
    try:
        return int(raw)
    except ValueError as exc:
        raise ConfigError(f"expected an integer, got {raw!r}") from exc


def _parse_array(raw: str, what: str) -> np.ndarray:
    try:
        arr = np.asarray(ast.literal_eval(raw), dtype=float)
    except (ValueError, TypeError, SyntaxError) as exc:
        raise ConfigError(f"expected {what}, got {raw!r}") from exc
    if not np.isfinite(arr).all():
        raise ConfigError(f"expected finite numbers, got {raw!r}")
    return arr


def _parse_vector(raw: str) -> np.ndarray:
    arr = _parse_array(raw, "a bracketed number list")
    if arr.ndim != 1 or arr.size == 0:
        raise ConfigError(f"expected a flat vector, got {raw!r}")
    return arr


def _parse_matrix(raw: str) -> np.ndarray:
    arr = _parse_array(raw, "bracketed rows")
    if arr.ndim != 2 or arr.shape[0] != arr.shape[1]:
        raise ConfigError(f"expected a square row-major matrix, got {raw!r}")
    return arr


def _parse_str(raw: str) -> str:
    return raw.strip()


@dataclass(frozen=True)
class _Key:
    """One config key: parser, default, range rule and vector length.

    ``default`` is a value, ``_REQUIRED`` or a function of the values
    resolved so far, and each config gets a copy of it; ``check(value,
    resolved)`` returns the refusal text or ``None``; a vector holds
    ``per_dim`` times the field's dimension.
    """

    parse: Callable[[str], object]
    default: object = _REQUIRED
    check: Callable[[object, dict], str | None] | None = None
    per_dim: int = 0


def _fmt_scalar(v) -> str:
    if isinstance(v, (int, np.integer)):
        return str(int(v))
    if isinstance(v, (float, np.floating)):
        return repr(float(v))
    if isinstance(v, np.ndarray):
        if v.ndim == 1:
            return "[" + ", ".join(repr(float(x)) for x in v) + "]"
        rows = ("[" + ", ".join(repr(float(x)) for x in row) + "]" for row in v)
        return "[" + ", ".join(rows) + "]"
    return str(v)


# ------------------------------------------------------------------ schemas

_DEMO_Q = np.array([[100.0, 5.0], [-5.0, 100.0]])


def _positive(name: str) -> Callable[[float, dict], str | None]:
    return lambda value, _: None if value > 0 else f"{name} must be positive"


def _rate(eta: float, _) -> str | None:
    return None if 0.0 < eta <= 1.0 else f"eta must lie in (0, 1], got {eta}"


def _above_T0(T: float, resolved: dict) -> str | None:
    T0 = resolved["restart"]["T0"]
    if 0.0 < T0 < T:
        return None
    return f"restart window violated: need 0 < T0 < T, got T0={T0}, T={T}"


def _in_window(tau0: float, resolved: dict) -> str | None:
    T0, T = resolved["restart"]["T0"], resolved["restart"]["T"]
    return None if T0 <= tau0 <= T else f"tau0 must lie in [T0, T], got {tau0}"


def _sim(**defaults: float) -> dict[str, _Key]:
    """``[sim]`` horizons and step: positive numbers."""
    return {key: _Key(_parse_float, value, _positive(key)) for key, value in defaults.items()}


def _hybrid(eta=_REQUIRED, T0=_REQUIRED, T=_REQUIRED, q0=_REQUIRED, p0=_REQUIRED) -> dict:
    """``[restart]`` and ``[initial]`` of a hybrid run; the clock starts at ``T0`` by default."""
    return {"restart": {"eta": _Key(_parse_float, eta, _rate), "T0": _Key(_parse_float, T0),
                        "T": _Key(_parse_float, T, _above_T0)},
            "initial": {"q0": _Key(_parse_vector, q0, per_dim=1),
                        "p0": _Key(_parse_vector, p0, per_dim=1),
                        "tau0": _Key(_parse_float, lambda v: v["restart"]["T0"], _in_window)}}


_CLOCK_T0 = _Key(_parse_clock, 0.1, _positive("T0"))
_LINEAR = {"Q": _Key(_parse_matrix)}
_EITHER = {"general": _Key(_parse_str, None), "Q": _Key(_parse_matrix, None)}
_DEMO = {"Q": _Key(_parse_matrix, _DEMO_Q)}

SCHEMAS: dict[str, dict[str, dict[str, _Key]]] = {
    "decompose": {"field": _LINEAR},
    "instability-test": {
        "field": _DEMO,
        "averaging": {"nodes": _Key(_parse_int, 4096)},
    },
    "simulate-ode": {
        "field": _EITHER,
        "initial": {"x0": _Key(_parse_vector, per_dim=1),
                    "v0": _Key(_parse_vector, per_dim=1)},
        "clock": {"T0": _CLOCK_T0, "eta": _Key(_parse_float, 1.0, _rate)},
        "sim": _sim(t_end=10.0, step=1e-3),
    },
    "simulate-pullback": {
        "field": _LINEAR,
        "initial": {"z0": _Key(_parse_vector, per_dim=2)},
        "clock": {"T0": _CLOCK_T0},
        "sim": _sim(s_end=10.0, step=1e-3),
    },
    "simulate-average": {
        "field": _LINEAR,
        "initial": {"zeta0": _Key(_parse_vector, per_dim=2)},
        "clock": {"T0": _CLOCK_T0},
        "sim": _sim(s_end=10.0, step=1e-3),
    },
    "simulate-hybrid": {
        "field": _EITHER,
        **_hybrid(),
        "sim": _sim(t_end=10.0, step=1e-3),
    },
    "optimal-restart": {
        "field": {**_EITHER,
                  "Q": _Key(_parse_matrix, lambda v: None if v["field"]["general"] else _DEMO_Q)},
        "restart": {"eta": _Key(_parse_float, 0.5), "T0": _Key(_parse_float, 0.1)},
    },
    "figure1": {
        "field": _DEMO,
        "initial": {"y0": _Key(_parse_vector, np.array([0.1, -0.1, 0.0, 0.0]), per_dim=2)},
        "clock": {"T0": _CLOCK_T0},
        "sim": _sim(s_end_drift=25.0, s_end_slow=40.0, s_end_fast=400.0, step=1e-2),
    },
    "figure2": {
        "field": _DEMO,
        **_hybrid(eta=0.5, T0=0.1, T=0.471, q0=np.array([1e4, -1e4]), p0=np.array([1e4, -1e4])),
        "sim": _sim(t_end=8.0, step=1e-3),
    },
}

SCENARIOS = tuple(SCHEMAS)


@dataclass(frozen=True, eq=False)
class ScenarioConfig:
    """Fully-resolved, validated configuration for one scenario run.

    ``general_field`` is the field a ``general`` reference resolved to,
    loaded once by :func:`parse_config`; it is ``None`` for a ``Q`` field.
    """

    scenario: str
    values: dict[str, dict[str, object]]
    general_field: GeneralField | None

    def get(self, section: str, key: str):
        return self.values[section][key]

    def resolved_ini(self) -> str:
        """INI echo of the resolved config; reruns reproduce the output."""
        lines = ["[run]", f"scenario = {self.scenario}", ""]
        for section in SCHEMAS[self.scenario]:
            lines.append(f"[{section}]")
            for key, value in self.values[section].items():
                if value is None:
                    continue
                lines.append(f"{key} = {_fmt_scalar(value)}")
            lines.append("")
        return "\n".join(lines)


def parse_config(text: str, scenario: str | None = None) -> ScenarioConfig:
    """Parse and validate a config document against its scenario schema.

    ``scenario`` may come from the document's ``[run]`` section, the
    argument, or both (they must agree).
    """
    cp = configparser.ConfigParser(interpolation=None)
    cp.optionxform = str  # keys are case-sensitive (matrices use 'Q')
    try:
        cp.read_string(text)
    except configparser.Error as exc:
        raise ConfigError(f"config parse failure: {exc}") from exc

    declared = None
    if cp.has_section("run"):
        extra = set(cp.options("run")) - {"scenario"}
        if extra:
            raise ConfigError(f"unknown keys in [run]: {sorted(extra)}")
        declared = cp.get("run", "scenario", fallback=None)
    if declared is not None and scenario is not None and declared != scenario:
        raise ConfigError(
            f"config declares scenario {declared!r} but {scenario!r} was requested"
        )
    scenario = scenario or declared
    if scenario is None:
        raise ConfigError("no scenario given (add [run] scenario = ...)")
    if scenario not in SCHEMAS:
        raise ConfigError(f"unknown scenario {scenario!r}; expected one of {SCENARIOS}")
    schema = SCHEMAS[scenario]

    for section in cp.sections():
        if section == "run":
            continue
        if section not in schema:
            raise ConfigError(f"unknown section [{section}] for scenario {scenario}")
        for key in cp.options(section):
            if key not in schema[section]:
                raise ConfigError(f"unknown key {key!r} in section [{section}]")

    values: dict[str, dict[str, object]] = {}
    dim = general = None
    for section, keys in schema.items():
        values[section] = resolved = {}
        for key, spec in keys.items():
            if cp.has_option(section, key):
                try:
                    value = spec.parse(cp.get(section, key))
                except ConfigError as exc:
                    raise ConfigError(f"[{section}] {key}: {exc}") from exc
            elif spec.default is _REQUIRED:
                raise ConfigError(f"missing required key {key!r} in section [{section}]")
            else:
                value = copy(spec.default(values) if callable(spec.default) else spec.default)
            if spec.check and (refusal := spec.check(value, values)):
                raise ConfigError(refusal)
            if spec.per_dim and value.shape != (spec.per_dim * dim,):
                raise ConfigError(f"{key} must have length {spec.per_dim * dim} for a field "
                                  f"of dimension {dim}, got length {value.shape[0]}")
            resolved[key] = value
        if section == "field":
            general = _general_field(resolved)
            dim = resolved["Q"].shape[0] if general is None else general.dim
    return ScenarioConfig(scenario=scenario, values=values, general_field=general)


def _cause(exc: Exception, expected: type[Exception]) -> str:
    """The message of ``exc``, led by its type name unless it is an ``expected`` one."""
    return str(exc) if isinstance(exc, expected) else f"{type(exc).__name__}: {exc}"


def _load_general(ref: str) -> GeneralField:
    """Resolve a ``module:attribute`` reference to a general field.

    The attribute may be a :class:`~nestode.fields.GeneralField` or a
    zero-argument factory returning one; anything else is a ConfigError
    naming the reference.  So is any exception raised while importing the
    module or calling the factory; its message is led by the exception's type
    unless it is an ImportError of the import or a ValueError of the factory
    (a field failing its own checks).
    """
    mod_name, sep, attr = ref.partition(":")
    if not sep or not mod_name or not attr:
        raise ConfigError(
            f"general field reference must look like 'module:attribute', got {ref!r}"
        )
    try:
        module = importlib.import_module(mod_name)
    except Exception as exc:  # the module's own code runs on import
        raise ConfigError(f"cannot import field module {mod_name!r}: "
                          f"{_cause(exc, ImportError)}") from exc
    try:
        obj = getattr(module, attr)
    except AttributeError as exc:
        raise ConfigError(f"module {mod_name!r} has no attribute {attr!r}") from exc
    if isinstance(obj, GeneralField):
        return obj
    if callable(obj):
        try:
            inspect.signature(obj).bind()
        except (TypeError, ValueError) as exc:
            raise ConfigError(f"{ref!r} is neither a general field nor a zero-argument "
                              f"factory of one ({exc})") from exc
        try:
            obj = obj()
        except Exception as exc:
            raise ConfigError(f"{ref!r} failed to build a general field: "
                              f"{_cause(exc, ValueError)}") from exc
        if isinstance(obj, GeneralField):
            return obj
    raise ConfigError(f"{ref!r} did not produce a general field")


def _general_field(field: dict[str, object]) -> GeneralField | None:
    """The loaded ``general`` field of ``[field]``, which sets exactly one of ``Q`` and ``general``."""
    general = field.get("general")
    if general is None:
        if field["Q"] is None:
            raise ConfigError("section [field] needs either Q or general")
        return None
    if field["Q"] is not None:
        raise ConfigError("give either Q or general in [field], not both")
    return _load_general(general)


# ------------------------------------------------------------------ emission

# Rows per formatted chunk: the chunk's text and cells stay under 1 MB on
# the figure runs, and one chunk is one short ``%`` call.
_CSV_CHUNK = 1024


@contextlib.contextmanager
def _output(path: Path) -> Iterator[TextIO]:
    """``path`` opened for writing; an OSError opening or writing it is a ConfigError."""
    try:
        with path.open("w") as fh:
            yield fh
    except OSError as exc:
        raise ConfigError(f"cannot write {path}: {exc.strerror}") from exc


def _write_text(path: Path, text: str) -> None:
    with _output(path) as fh:
        fh.write(text)


def _write_csv(path: Path, columns: dict[str, np.ndarray]) -> None:
    """Stream rows in chunks under a header of the column names; ``repr`` of each cell.

    Each chunk fills one flat list of cells column by column (``tolist``
    keeps int columns ints) and is formatted by a single ``%`` call with
    one ``%r`` per cell, which is ``repr``.  Chunking bounds the memory of
    the formatted text: a whole-file string costs several MB of peak RSS on
    the figure runs.  Columns of unequal length are refused.
    """
    lengths = [len(col) for col in columns.values()]
    if len(set(lengths)) > 1:
        raise ValueError(f"CSV columns of {path.name} have unequal lengths {lengths}")
    width = len(columns)
    row = ",".join(["%r"] * width) + "\n"
    with _output(path) as fh:
        fh.write(",".join(columns) + "\n")
        for start in range(0, lengths[0], _CSV_CHUNK):
            stop = min(start + _CSV_CHUNK, lengths[0])
            cells = [None] * ((stop - start) * width)
            for k, col in enumerate(columns.values()):
                cells[k::width] = col[start:stop].tolist()
            fh.write((row * (stop - start)) % tuple(cells))


def _named(prefix: str, block: np.ndarray) -> dict[str, np.ndarray]:
    """The columns of ``block`` named ``prefix_1``, ``prefix_2``, ..."""
    return {f"{prefix}_{k + 1}": col for k, col in enumerate(block.T)}


def _report_text(value) -> str:
    """Booleans lower-case, sequences joined by ``", "``, the rest through _fmt_scalar."""
    if isinstance(value, (bool, np.bool_)):
        return str(value).lower()
    if isinstance(value, (list, tuple)):
        return ", ".join(map(_report_text, value))
    return _fmt_scalar(value)


def _write_report(path: Path, scenario: str, pairs: list[tuple[str, object]], ini: str) -> None:
    """``report.txt``: the scenario, a ``key: value`` line per pair, then the echo ``ini``."""
    body = [f"scenario: {scenario}", *(f"{key}: {_report_text(v)}" for key, v in pairs),
            "", "resolved configuration:", ini]
    _write_text(path, "\n".join(body))


def _plot_script(png: str, plots: list[str], logscale: bool = False) -> str:
    lines = [
        "set datafile separator ','",
        "set terminal pngcairo size 960,640",
        f"set output '{png}'",
        "set key left top",
    ]
    if logscale:
        lines.append("set logscale y")
    lines.append("plot \\")
    lines.append(", \\\n".join("  " + p for p in plots))
    return "\n".join(lines) + "\n"


def _trajectory_files(out: Path, name: str, traj: odesim.OdeTrajectory,
                      columns: dict[str, np.ndarray]) -> list[str]:
    """``name.csv`` of the trajectory's times and ``columns``, and a plot of each column."""
    _write_csv(out / f"{name}.csv", {traj.timescale: traj.times, **columns})
    plots = [f"'{name}.csv' using 1:{k} with lines title '{col}'"
             for k, col in enumerate(columns, 2)]
    _write_text(out / f"{name}_plot.gp", _plot_script(f"{name}.png", plots))
    return [f"{name}.csv", f"{name}_plot.gp"]


# ------------------------------------------------------------------ scenarios

def _field_of(cfg: ScenarioConfig):
    if cfg.general_field is not None:
        return cfg.general_field
    return helmholtz_split(cfg.get("field", "Q"))


def _constants(f) -> list[tuple[str, float]]:
    """The field's constants ``ell_j``, ``ell_k``, ``kappa_j`` and ``alpha``."""
    return [("ell_j", f.ell_j), ("ell_k", f.ell_k), ("kappa_j", f.kappa_j), ("alpha", f.alpha)]


def _checked_constants(f, q: np.ndarray | None = None
                       ) -> tuple[list[tuple[str, object]], str | None]:
    """Report pairs of the sampled check of a general field's declared constants, and the
    cause refusing what is built on refuted ones; none for a linear field's computed ones.
    The check samples the ball around ``x_star`` out to radius 10 or to the farthest of
    the run's positions ``q``, whichever is farther."""
    if not isinstance(f, GeneralField):
        return [], None
    with np.errstate(over="ignore"):  # a reach past the float range is inf
        reach = () if q is None else np.linalg.norm(q - f.x_star, axis=1)
    failed = validate_assumption1(f, radius=float(np.max(reach, initial=10.0))).failures()
    if not failed:
        return [("constants_validated", True)], None
    return ([("constants_validated", False), ("failed_assumptions", failed)],
            f"declared constants fail the sampled check: {', '.join(failed)}")


def _run_decompose(cfg: ScenarioConfig, f, out: Path) -> tuple[int, list]:
    return EXIT_OK, [("dim", f.dim), ("Qs", f.Qs), ("Qa", f.Qa), *_constants(f),
                     *(("warning", w) for w in f.warnings)]


def _run_instability_test(cfg: ScenarioConfig, f, out: Path) -> tuple[int, list]:
    report = averaging.instability_certificate(f, nodes=cfg.get("averaging", "nodes"))
    pairs = [("verdict", report.verdict)]
    pairs += [(f"condition_{c.name}", getattr(report.conditions, c.name))
              for c in fields(report.conditions)]
    if report.failed:
        pairs.append(("failed_conditions", report.failed))
    spectrum = [f"{z.real!r}{'+' if z.imag >= 0 else '-'}{abs(z.imag)!r}j"
                for z in report.spectrum.tolist()]
    pairs += [("max_real_part", report.max_real_part), ("spectrum_b1_bar", "; ".join(spectrum))]
    if report.period is not None:
        pairs += [("base_frequency", report.period.omega0), ("period", report.period.period),
                  ("frequency_ratios", report.period.ratios)]
    if report.quadrature_gap is not None:
        pairs.append(("closed_vs_quadrature_gap", report.quadrature_gap))
    return EXIT_OK, pairs + _constants(f)


def _simulation(out: Path, traj: odesim.OdeTrajectory, columns: dict[str, np.ndarray],
                before: tuple = (), after: tuple = ()) -> tuple[int, list]:
    """Shared tail of the ``simulate-*`` scenarios: files and report pairs."""
    files = _trajectory_files(out, "trajectory", traj, columns)
    return EXIT_OK, [*before, ("samples", len(traj.times)), ("blown_up", traj.blown_up),
                     *after, ("files", files)]


def _run_simulate_ode(cfg: ScenarioConfig, f, out: Path) -> tuple[int, list]:
    traj = odesim.integrate_nesterov_t(
        f, cfg.get("initial", "x0"), cfg.get("initial", "v0"),
        T0=cfg.get("clock", "T0"), eta=cfg.get("clock", "eta"),
        t_end=cfg.get("sim", "t_end"), h=cfg.get("sim", "step"),
    )
    n = f.dim
    columns = {**_named("x", traj.states[:, :n]), **_named("v", traj.states[:, n:2 * n]),
               "tau": traj.states[:, 2 * n]}
    final_norm = np.linalg.norm(traj.states[-1, :2 * n])
    return _simulation(out, traj, columns,
                       after=(("final_norm", final_norm),
                              *_checked_constants(f, traj.states[:, :n])[0]))


def _run_simulate_pullback(cfg: ScenarioConfig, f, out: Path) -> tuple[int, list]:
    traj = odesim.integrate_pullback(
        f, cfg.get("initial", "z0"), T0=cfg.get("clock", "T0"),
        s_end=cfg.get("sim", "s_end"), h=cfg.get("sim", "step"),
    )
    return _simulation(out, traj, _named("z", traj.states),
                       before=(("epsilon", f.epsilon),))


def _run_simulate_average(cfg: ScenarioConfig, f, out: Path) -> tuple[int, list]:
    traj = averaging.integrate_average(
        f, cfg.get("initial", "zeta0"), T0=cfg.get("clock", "T0"),
        s_end=cfg.get("sim", "s_end"), h=cfg.get("sim", "step"),
    )
    rate = averaging.average_closed_form(f).max_real_part
    return _simulation(out, traj, _named("zeta", traj.states),
                       before=(("epsilon", f.epsilon), ("max_real_part", rate)))


def _hybrid_run(cfg: ScenarioConfig, f, out: Path,
                csv_name: str) -> tuple[int, list, "hybrid.HybridTrajectory"]:
    rc = hybrid.RestartConfig(
        T0=cfg.get("restart", "T0"), T=cfg.get("restart", "T"),
        eta=cfg.get("restart", "eta"),
    )
    traj = hybrid.simulate_hybrid(
        f, rc, (cfg.get("initial", "q0"), cfg.get("initial", "p0"),
                cfg.get("initial", "tau0")),
        t_end=cfg.get("sim", "t_end"), h=cfg.get("sim", "step"),
    )
    checked, refusal = _checked_constants(f, traj.q)
    pairs = [("samples", len(traj)), ("jumps", len(traj.jump_indices)),
             ("blown_up", traj.blown_up), *checked]
    columns = {"t": traj.t, "j": traj.j, **_named("q", traj.q), **_named("p", traj.p),
               "tau": traj.tau}
    try:
        if refusal is not None:
            raise ValueError(refusal)
        cert = hybrid.lyapunov_certificate(f, rc)
    except ValueError as exc:
        _write_csv(out / csv_name, columns)
        return EXIT_OK, pairs + [("certificate", f"refused ({exc})")], traj
    _write_csv(out / csv_name, {**columns, "V": hybrid.lyapunov_values(cert, f, traj)})
    decrease = hybrid.verify_decrease(f, rc, traj, cert=cert)
    env = hybrid.verify_envelopes(f, rc, cert, traj)
    verified = decrease.passed and env.passed
    return EXIT_OK if verified else EXIT_CLAIM, pairs + [
        ("T_lower", cert.T_lower), ("T_upper", cert.T_upper),
        ("a", cert.a), ("b", cert.b), ("c", cert.c),
        ("delta", cert.delta), ("m", cert.m),
        ("c_lower", cert.c_lower), ("c_upper", cert.c_upper),
        ("lambda", cert.lam), ("mu", cert.mu),
        ("Gamma", cert.gamma), ("nu1", cert.nu1), ("nu2", cert.nu2),
        ("nu", cert.nu), ("rho", cert.rho),
        ("flow_violations", f"{decrease.flow_violations} of {decrease.flow_pairs}"),
        ("jump_violations", f"{decrease.jump_violations} of {decrease.jump_count}"),
        ("per_jump_contraction_ok", decrease.contraction_ok),
        ("envelope_potential_ok", env.potential_ok), ("envelope_drive_ok", env.drive_ok),
        ("uges_c1", env.c1), ("uges_c2", env.c2),
        ("certified_claim", "verified" if verified else "VIOLATED"),
    ], traj


def _run_simulate_hybrid(cfg: ScenarioConfig, f, out: Path) -> tuple[int, list]:
    code, pairs, traj = _hybrid_run(cfg, f, out, "trajectory.csv")
    plots = [f"'trajectory.csv' using 1:3 with lines title 'q_1'"]
    _write_text(out / "trajectory_plot.gp", _plot_script("trajectory.png", plots))
    return code, pairs


def _run_optimal_restart(cfg: ScenarioConfig, f, out: Path) -> tuple[int, list]:
    checked, refusal = _checked_constants(f)
    if refusal is not None:
        raise ValueError(refusal)
    eta = cfg.get("restart", "eta")
    T0 = cfg.get("restart", "T0")
    sol = hybrid.calibrate_optimal_restart(f, eta=eta, T0=T0)
    lo, hi = hybrid.reset_window(f, T0, eta)
    return EXIT_OK, [
        *checked, ("beta", sol.beta), ("c_upper", sol.c_upper), ("xi_star", sol.xi_star),
        ("T_opt", sol.T_opt), ("T_lower", lo), ("T_upper", hi),
        ("iterations", len(sol.history) - 1), ("converged", sol.converged),
        ("history", sol.history), ("admissible", lo < sol.T_opt <= hi),
    ]


def _run_figure1(cfg: ScenarioConfig, f, out: Path) -> tuple[int, list]:
    y0 = cfg.get("initial", "y0")
    T0 = cfg.get("clock", "T0")
    h = cfg.get("sim", "step")
    eps = f.epsilon

    drift = odesim.integrate_drift(f, y0, s_end=cfg.get("sim", "s_end_drift"), h=h)
    files = _trajectory_files(out, "drift", drift, _named("psi", drift.states))

    s_slow = cfg.get("sim", "s_end_slow")
    z = odesim.integrate_pullback(f, y0, T0=T0, s_end=s_slow, h=h)
    cert = averaging.instability_certificate(f)
    zeta = averaging.integrate_average(f, y0, T0=T0, s_end=s_slow, h=h)
    # the blow-up cap can cut the two runs at different steps: compare and
    # write their common prefix
    m = min(len(z.times), len(zeta.times))
    s, z_rows, zeta_rows = z.times[:m], z.states[:m], zeta.states[:m]
    columns = {"s": s, "tau": eps * s + T0, **_named("z", z_rows), **_named("zeta", zeta_rows)}
    _write_csv(out / "slow.csv", columns)
    plots = [f"'slow.csv' using 2:{k} with lines "
             f"{'dashtype 2 ' if col.startswith('zeta') else ''}title '{col}'"
             for k, col in enumerate(columns, 1) if k > 2]
    _write_text(out / "slow_plot.gp", _plot_script("slow.png", plots))
    files += ["slow.csv", "slow_plot.gp"]

    fast = odesim.integrate_scaled_y(f, y0, T0=T0,
                                     s_end=cfg.get("sim", "s_end_fast"), h=h)
    files += _trajectory_files(out, "scaled", fast, _named("y", fast.states))

    gap = np.linalg.norm(z_rows - zeta_rows, axis=1)
    # each decile's largest norm is floored at 1e-300, so a run from the
    # zero state reads 1.0 rather than 0/0
    norms = np.linalg.norm(fast.states, axis=1)
    dec = max(1, len(norms) // 10)
    growth = max(norms[-dec:].max(), 1e-300) / max(norms[:dec].max(), 1e-300)
    return EXIT_OK, [
        ("epsilon", eps), ("period", cert.period.period if cert.period else "none"),
        ("verdict", cert.verdict), ("max_real_part", cert.max_real_part),
        ("max_tracking_gap", gap.max()), ("growth_ratio_last_to_first_decile", growth),
        ("slow_blown_up", z.blown_up or zeta.blown_up), ("fast_blown_up", fast.blown_up),
        ("files", files),
    ]


def _run_figure2(cfg: ScenarioConfig, f, out: Path) -> tuple[int, list]:
    code, pairs, traj = _hybrid_run(cfg, f, out, "hybrid.csv")
    plain = odesim.integrate_nesterov_t(
        f, cfg.get("initial", "q0"), cfg.get("initial", "p0"),
        T0=cfg.get("restart", "T0"), eta=cfg.get("restart", "eta"),
        t_end=cfg.get("sim", "t_end"), h=cfg.get("sim", "step"),
    )
    # an overflowing run's distances read inf and its decay orders NaN, without a warning
    with np.errstate(over="ignore", invalid="ignore"):
        dist = traj.distance_to(f.x_star)
        dist_plain = np.linalg.norm(plain.states[:, :f.dim], axis=1)
        # both ends are floored at 1e-300, so a run from x* decays by 0.0 orders
        d_first, d_last = np.maximum(dist[[0, -1]], 1e-300)
        decay_orders = np.log10(d_first / d_last)

    marker = np.zeros(len(traj), dtype=int)
    marker[traj.jump_indices] = 1
    _write_csv(out / "hybrid_dist.csv", {"t": traj.t, "j": traj.j, "dist": dist, "jump": marker})
    _write_csv(out / "ode_dist.csv", {"t": plain.times, "dist": dist_plain})

    plots = [
        "'ode_dist.csv' using 1:2 with lines title 'no resets'",
        "'hybrid_dist.csv' using 1:3 with lines title 'restarting'",
        "'hybrid_dist.csv' using ($4==1?$1:1/0):3 with points pt 7 title 'resets'",
    ]
    _write_text(out / "figure2_plot.gp", _plot_script("figure2.png", plots, logscale=True))
    return code, pairs + [
        ("ode_final_dist", dist_plain[-1]), ("hybrid_final_dist", dist[-1]),
        ("decay_orders", decay_orders),
        ("files", ["ode_dist.csv", "hybrid.csv", "hybrid_dist.csv", "figure2_plot.gp"]),
    ]


_RUNNERS = {
    "decompose": _run_decompose,
    "instability-test": _run_instability_test,
    "simulate-ode": _run_simulate_ode,
    "simulate-pullback": _run_simulate_pullback,
    "simulate-average": _run_simulate_average,
    "simulate-hybrid": _run_simulate_hybrid,
    "optimal-restart": _run_optimal_restart,
    "figure1": _run_figure1,
    "figure2": _run_figure2,
}


def run(cfg: ScenarioConfig, out: Path) -> int:
    """Execute a resolved scenario in the directory ``out``; ConfigError if it cannot be written."""
    try:
        out.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise ConfigError(f"cannot create output directory {out}: {exc.strerror}") from exc
    ini = cfg.resolved_ini()  # written to config_resolved.ini and echoed in report.txt
    _write_text(out / "config_resolved.ini", ini)
    try:
        code, pairs = _RUNNERS[cfg.scenario](cfg, _field_of(cfg), out)
    except ValueError as exc:
        raise ScenarioError(str(exc)) from exc
    _write_report(out / "report.txt", cfg.scenario, pairs, ini)
    return code


def _read_config(path: Path) -> str:
    """Text of the config file at ``path``; a path that cannot be read is a ConfigError."""
    if not path.exists():
        raise ConfigError(f"config file not found: {path}")
    try:
        return path.read_text(encoding="utf-8")
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc.strerror}") from exc
    except UnicodeDecodeError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The command-line parser, built once per process; parsing leaves it unchanged."""
    parser = argparse.ArgumentParser(
        prog="nestode",
        description="Accelerated-flow instability certificates and restart stabilization",
    )
    sub = parser.add_subparsers(dest="scenario", required=True)
    for name in SCENARIOS:
        p = sub.add_parser(name, help=f"run the {name} scenario")
        p.add_argument("config", nargs="?", default=None,
                       help="INI config file (defaults apply when omitted)")
        p.add_argument("--out", default="out", help="output directory (default: out)")
    return parser


def main(argv: list[str] | None = None) -> int:
    args = _parser().parse_args(argv)
    try:
        text = "" if args.config is None else _read_config(Path(args.config))
        return run(parse_config(text, scenario=args.scenario), Path(args.out))
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except ScenarioError as exc:
        print(f"scenario error: {exc}", file=sys.stderr)
        return EXIT_SCENARIO


if __name__ == "__main__":
    sys.exit(main())
