"""Per-layer tracing by swapping the benchmark's own wrappers into nestode.

Every public function of ``fields``, ``odesim``, ``averaging`` and ``hybrid``
and ``cli.main`` is wrapped.  The wrapper replaces the function wherever a
module of the package holds it: in its defining module (which also catches
calls inside that module), in the ``nestode`` re-exports and in modules that
imported it by name (``cli.helmholtz_split``, ``averaging.drift_generator``).
Each call records a span ``[name, start, end, parent, counts]`` in memory;
step and sample counts come from the lengths of the returned trajectories.
Layers are the modules; a layer's self time is the time of its spans minus
the time of their child spans.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import statistics
import time
from collections import defaultdict
from contextlib import contextmanager
from pathlib import Path

import nestode

LAYERS = ("fields", "odesim", "averaging", "hybrid", "cli")
_MODULES = LAYERS[:-1]

# Per-layer metrics and units, in report order.  A metric whose layer does not
# run on a workload reads 0.
PER_LAYER = (
    ("odesim.integrate_scaled_y.us_per_step", "us"),
    ("odesim.integrate_pullback.us_per_step", "us"),
    ("odesim.integrate_drift.us_per_step", "us"),
    ("averaging.integrate_average.us_per_step", "us"),
    ("odesim.exp_drift.calls", "count"),
    ("odesim.integrate_nesterov_t.linear.us_per_step", "us"),
    ("odesim.integrate_nesterov_t.general.us_per_step", "us"),
    ("hybrid.simulate_hybrid.linear.us_per_step", "us"),
    ("hybrid.simulate_hybrid.general.us_per_step", "us"),
    ("hybrid.verify_decrease.us_per_sample", "us"),
    ("hybrid.verify_envelopes.us_per_sample", "us"),
    ("hybrid.lyapunov_values.us_per_sample", "us"),
    ("averaging.average_quadrature.ms_per_call.n2", "ms"),
    ("averaging.average_quadrature.ms_per_call.n4", "ms"),
    ("averaging.average_quadrature.ms_per_call.n6", "ms"),
    ("averaging.instability_certificate.self_ms", "ms"),
    ("fields.validate_assumption1.ms_per_call", "ms"),
    ("cli.us_per_csv_row", "us"),
    ("cli.csv_rows", "count"),
    *((f"{layer}.self_s", "s") for layer in LAYERS),
    *((f"{layer}.share", "ratio") for layer in LAYERS),
    ("bench.share", "ratio"),
    ("odesim.steps", "count"),
    ("hybrid.jumps", "count"),
    ("odesim.blowups", "count"),
    ("trace.overhead_s", "s"),
)

# Integrators whose returned trajectory gives the step count, and the layer
# functions timed per trajectory sample.
_INTEGRATORS = ("odesim.integrate_nesterov_t", "odesim.integrate_scaled_y",
                "odesim.integrate_drift", "odesim.integrate_pullback",
                "averaging.integrate_average", "hybrid.simulate_hybrid")
_PER_SAMPLE = ("hybrid.verify_decrease", "hybrid.verify_envelopes",
               "hybrid.lyapunov_values")
_BY_FIELD = ("odesim.integrate_nesterov_t", "hybrid.simulate_hybrid")
_COUNTED = {*_INTEGRATORS, *_PER_SAMPLE, "averaging.average_quadrature"}


def _kind(f) -> str:
    return "linear" if isinstance(f, nestode.LinearField) else "general"


def _counts(name: str, bound: dict, result) -> dict | None:
    """Step, sample and size counts of one call, read from its inputs and result."""
    if name == "hybrid.simulate_hybrid":
        jumps = len(result.jump_indices)
        return {"steps": len(result) - 1 - jumps, "jumps": jumps,
                "blown": int(result.blown_up), "kind": _kind(bound["f"])}
    if name in _INTEGRATORS:
        counts = {"steps": len(result.times) - 1, "blown": int(result.blown_up)}
        if name in _BY_FIELD:
            counts["kind"] = _kind(bound["f"])
        return counts
    if name == "hybrid.lyapunov_values":
        return {"samples": len(result)}
    if name in _PER_SAMPLE:
        return {"samples": len(bound["traj"])}
    if name == "averaging.average_quadrature":
        return {"dim": bound["f"].dim}
    return None


class Tracer:
    """Records spans of the wrapped functions while installed."""

    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []

    def _wrap(self, name: str, fn):
        spans, stack, clock = self.spans, self._stack, time.perf_counter
        signature = inspect.signature(fn)
        counted = name in _COUNTED

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, None]
            stack.append(len(spans))
            spans.append(span)
            span[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
            if counted:
                span[4] = _counts(name, signature.bind(*args, **kwargs).arguments, result)
            return result
        return traced

    @contextmanager
    def installed(self):
        """Swap the wrappers into every module of the package, then restore."""
        modules = [importlib.import_module(f"nestode.{m}") for m in _MODULES]
        cli = importlib.import_module("nestode.cli")
        wrappers = {}
        for short, mod in zip(_MODULES, modules):
            for attr in mod.__all__:
                fn = getattr(mod, attr)
                if inspect.isfunction(fn):
                    wrappers[id(fn)] = (fn, self._wrap(f"{short}.{attr}", fn))
        wrappers[id(cli.main)] = (cli.main, self._wrap("cli.main", cli.main))

        saved = []
        for mod in (nestode, *modules, cli):
            for attr, value in list(vars(mod).items()):
                entry = wrappers.get(id(value))
                if entry is not None and entry[0] is value:
                    saved.append((mod, attr, value))
                    setattr(mod, attr, entry[1])
        try:
            yield self
        finally:
            for mod, attr, value in saved:
                setattr(mod, attr, value)


def layer_metrics(spans: list[list], wall: float, csv_rows: int) -> dict[str, float]:
    """Per-layer metrics of one traced pass that took ``wall`` seconds."""
    child_time = defaultdict(float)
    for name, start, end, parent, _ in spans:
        if parent >= 0:
            child_time[parent] += end - start

    total = defaultdict(float)      # inclusive seconds per function (or function.kind)
    calls = defaultdict(int)
    steps = defaultdict(int)        # steps or samples per function (or function.kind)
    layer_self = dict.fromkeys(LAYERS, 0.0)
    cert_self = 0.0
    top_level = 0.0
    rk4_steps = jumps = blowups = 0
    for idx, (name, start, end, parent, counts) in enumerate(spans):
        duration = end - start
        own = duration - child_time[idx]
        layer_self[name.partition(".")[0]] += own
        if parent < 0:
            top_level += duration
        key = name
        if counts:
            if "kind" in counts:
                key = f"{name}.{counts['kind']}"
            if "dim" in counts:
                key = f"{name}.n{counts['dim']}"
            steps[key] += counts.get("steps", counts.get("samples", 0))
            rk4_steps += counts.get("steps", 0)
            jumps += counts.get("jumps", 0)
            blowups += counts.get("blown", 0)
        total[key] += duration
        calls[key] += 1
        if name == "averaging.instability_certificate":
            cert_self += own

    def per(key: str, scale: float, base: dict) -> float:
        return scale * total[key] / base[key] if base[key] else 0.0

    m: dict[str, float] = {}
    for key in ("odesim.integrate_scaled_y", "odesim.integrate_pullback",
                "odesim.integrate_drift", "averaging.integrate_average"):
        m[f"{key}.us_per_step"] = per(key, 1e6, steps)
    m["odesim.exp_drift.calls"] = calls["odesim.exp_drift"]
    for key in _BY_FIELD:
        for kind in ("linear", "general"):
            m[f"{key}.{kind}.us_per_step"] = per(f"{key}.{kind}", 1e6, steps)
    for key in _PER_SAMPLE:
        m[f"{key}.us_per_sample"] = per(key, 1e6, steps)
    for n in (2, 4, 6):
        key = f"averaging.average_quadrature.n{n}"
        m[f"averaging.average_quadrature.ms_per_call.n{n}"] = per(key, 1e3, calls)
    n_cert = calls["averaging.instability_certificate"]
    m["averaging.instability_certificate.self_ms"] = 1e3 * cert_self / n_cert if n_cert else 0.0
    m["fields.validate_assumption1.ms_per_call"] = per("fields.validate_assumption1", 1e3, calls)
    m["cli.us_per_csv_row"] = 1e6 * layer_self["cli"] / csv_rows if csv_rows else 0.0
    m["cli.csv_rows"] = csv_rows
    for layer in LAYERS:
        m[f"{layer}.self_s"] = layer_self[layer]
    for layer in LAYERS:
        m[f"{layer}.share"] = layer_self[layer] / wall
    m["bench.share"] = (wall - top_level) / wall
    m["odesim.steps"] = rk4_steps
    m["hybrid.jumps"] = jumps
    m["odesim.blowups"] = blowups
    return m


def median_metrics(per_pass: list[dict[str, float]]) -> dict[str, float]:
    """Median of each metric over the traced passes."""
    return {k: statistics.median(p[k] for p in per_pass) for k in per_pass[0]}


def write_spans(path: Path, passes: list[list[list]], origin: float) -> None:
    """Write spans as CSV; ``pass`` identifies the pass each span belongs to."""
    lines = ["pass,index,parent,name,start_s,end_s"]
    for number, spans in enumerate(passes):
        lines += [f"{number},{i},{parent},{name},{start - origin!r},{end - origin!r}"
                  for i, (name, start, end, parent, _) in enumerate(spans)]
    path.write_text("\n".join(lines) + "\n")
