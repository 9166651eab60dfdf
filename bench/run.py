"""Benchmark nestode end to end and per layer.

    python3 bench/run.py --workload {certify,layers,restart,all} --seed N \
        --seconds S --trace {0,1}

Run from the repository root (or any checkout of it): the package is imported
from ``src/`` next to this directory.  One run builds the workload's inputs
from the seed, runs its correctness oracles once, then runs passes back to
back (a closed loop with one caller) until ``--seconds`` have elapsed and
checks every pass's outputs.

``--trace 0`` reports the end-to-end metrics: ``wall_ref_s`` (median seconds
per pass, scaled to a reference CPU speed by ``speed.SpeedProbe``; the raw
median ``wall_s`` is printed beside it), ``setup_s`` (median time from
interpreter start to ready, over fresh processes), ``peak_rss_mb`` and
``success_rate`` (1 - error rate).
``--trace 1`` alternates untraced and traced passes and reports the per-layer
metrics of ``tracing.PER_LAYER``; spans are written to
``.bench_run/spans-<workload>.csv``.

Human-readable lines come first; the last line of standard output is one JSON
object with the keys ``correct``, ``attempted``, ``failed`` and ``metrics``.
``--workload all`` runs each workload in its own process and combines them.
"""

from __future__ import annotations

import os

# Small matrices: BLAS threads only add noise.  Set before numpy is imported.
BLAS_THREADS = "1"
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = BLAS_THREADS

import argparse
import contextlib
import hashlib
import json
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
RUN_DIR = ROOT / ".bench_run"
if str(SRC) not in sys.path:
    sys.path.insert(0, str(SRC))

import speed  # imports numpy, so it comes after the thread cap

WORKLOADS = ("certify", "layers", "restart")
END_TO_END = (("wall_ref_s", "s"), ("setup_s", "s"), ("peak_rss_mb", "MB"),
              ("success_rate", "ratio"))
SETUP_PROBES = 7


def _git_sha() -> str:
    """Commit of the checkout, read from ``.git`` without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def _cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.partition(":")[2].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def environment(seed: int) -> dict:
    import numpy as np
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]["name"]
    except (KeyError, TypeError):
        blas = "unknown"
    return {"git_sha": _git_sha(), "python": platform.python_version(),
            "numpy": np.__version__, "blas": blas, "blas_threads": int(BLAS_THREADS),
            "nproc": os.cpu_count(), "cpu": _cpu_model(), "seed": seed}


def digest_outputs(out_dirs) -> tuple[dict[str, dict[str, str]], int]:
    """SHA-256 of every CLI output file by directory, and the CSV data rows."""
    hashes, rows = {}, 0
    for out in out_dirs:
        hashes[out.name] = {}
        for path in sorted(out.iterdir()):
            data = path.read_bytes()
            hashes[out.name][path.name] = hashlib.sha256(data).hexdigest()
            if path.suffix == ".csv":
                rows += data.count(b"\n") - 1
    return hashes, rows


def probe_setup(workload: str, seed: int) -> list[float]:
    """Seconds from starting a fresh interpreter to having the inputs built.

    The child reports the time itself once ready, so interpreter teardown and
    the parent's polling are not counted.  The first probe also compiles
    bytecode and is not counted.
    """
    times = []
    for _ in range(SETUP_PROBES + 1):
        argv = [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
                "--seed", str(seed), "--setup-since", repr(time.time())]
        proc = subprocess.run(argv, check=True, stdout=subprocess.PIPE, text=True, timeout=120)
        times.append(float(proc.stdout))
    return times[1:]


class Run:
    """One workload's passes, failures and determinism reference."""

    def __init__(self, workload):
        self.workload = workload
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.reference: dict[str, dict[str, str]] | None = None

    def _record(self, label: str, problems: list[str]) -> None:
        self.attempted += 1
        if problems:
            self.failed += 1
            self.problems += [f"{label}: {p}" for p in problems]

    def oracles(self) -> None:
        for op in self.workload.oracles:
            self._record(op.name, _outcome(op))

    def one_pass(self, number: int, tracer=None) -> tuple[float, float, int]:
        """Run every operation once.

        Returns the pass's wall seconds, the same scaled to the reference CPU
        speed, and the CSV data rows written.
        """
        for out in self.workload.out_dirs:
            shutil.rmtree(out, ignore_errors=True)
        probe = speed.SpeedProbe()
        results = []
        with tracer.installed() if tracer else contextlib.nullcontext(), probe:
            start = time.perf_counter()
            for op in self.workload.ops:
                results.append(_call(op))
            wall = time.perf_counter() - start
        wall_ref = probe.at_reference(wall)

        hashes, rows = digest_outputs(self.workload.out_dirs)
        if self.reference is None:
            self.reference = hashes
        for op, (value, error) in zip(self.workload.ops, results):
            problems = [error] if error else _checked(op, value)
            out = op.out_dir
            if out is not None and hashes[out.name] != self.reference[out.name]:
                problems.append("outputs differ from the first pass of this run")
            self._record(f"pass {number} {op.name}", problems)
        return wall, wall_ref, rows


def _call(op) -> tuple[object, str | None]:
    try:
        return op.call(), None
    except Exception as exc:  # a failed operation is data: count it and go on
        return None, f"raised {type(exc).__name__}: {exc}"


def _checked(op, value) -> list[str]:
    try:
        return op.check(value)
    except Exception as exc:  # an output the check cannot read is a failure
        return [f"check raised {type(exc).__name__}: {exc}"]


def _outcome(op) -> list[str]:
    value, error = _call(op)
    return [error] if error else _checked(op, value)


def measure(name: str, seed: int, seconds: float, trace: bool) -> dict:
    import tracing
    import workloads

    work = RUN_DIR / name
    shutil.rmtree(work, ignore_errors=True)
    setup = [] if trace else probe_setup(name, seed)
    run = Run(workloads.build(name, seed, work))
    run.oracles()

    walls, walls_ref, traced_refs, layer, spans = [], [], [], [], []
    origin = time.perf_counter()
    while True:
        wall, wall_ref, _ = run.one_pass(len(walls) + len(traced_refs))
        walls.append(wall)
        walls_ref.append(wall_ref)
        if trace:
            tracer = tracing.Tracer()
            wall, wall_ref, rows = run.one_pass(len(walls) + len(traced_refs), tracer)
            traced_refs.append(wall_ref)
            layer.append(tracing.layer_metrics(tracer.spans, wall, rows))
            spans.append(tracer.spans)
        if time.perf_counter() - origin >= seconds:
            break

    result = {"workload": name, "seed": seed, "trace": int(trace),
              "hashes": run.reference, "attempted": run.attempted, "failed": run.failed,
              "problems": run.problems, "walls": walls}
    if trace:
        metrics = tracing.median_metrics(layer)
        metrics["trace.overhead_s"] = statistics.median(traced_refs) - statistics.median(walls_ref)
        result["traced_passes"] = len(traced_refs)
        result["metrics"] = {k: {"value": metrics[k], "unit": u} for k, u in tracing.PER_LAYER}
        tracing.write_spans(RUN_DIR / f"spans-{name}.csv", spans, origin)
    else:
        rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        values = {"wall_ref_s": statistics.median(walls_ref),
                  "setup_s": statistics.median(setup), "peak_rss_mb": rss_mb,
                  "success_rate": 1.0 - run.failed / run.attempted}
        result["setup"] = setup
        result["metrics"] = {k: {"value": values[k], "unit": u} for k, u in END_TO_END}
    shutil.rmtree(work, ignore_errors=True)
    return result


def print_result(result: dict, env: dict) -> None:
    name = result["workload"]
    print(f"workload: {name}  seed: {result['seed']}  trace: {result['trace']}")
    print(f"{name} env: {json.dumps(env)}")
    for out, files in result["hashes"].items():
        for path, digest in files.items():
            print(f"{name} output sha256: {digest}  {out}/{path}")
    walls = result["walls"]
    if result["trace"]:
        print(f"{name} passes: {len(walls)} untraced, {result['traced_passes']} traced "
              "(alternating, closed loop, one caller)")
    else:
        print(f"{name} passes: {len(walls)} (closed loop, one caller)")
        print(f"{name} wall_s: {statistics.median(walls):.6g} s (median pass wall time; "
              f"min {min(walls):.4f}, max {max(walls):.4f})")
        print(f"{name} setup probes: {len(result['setup'])} fresh processes")
    for key, metric in result["metrics"].items():
        print(f"{name} {key}: {metric['value']:.6g} {metric['unit']}")
    attempted, failed = result["attempted"], result["failed"]
    print(f"{name} error_rate: {failed / attempted:.6g} ({failed} of {attempted} "
          "operations failed)")
    for problem in result["problems"][:20]:
        print(f"{name} FAIL {problem}")


def run_all(args) -> int:
    """Each workload in its own process, so peak RSS stays its own."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOADS:
        argv = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
                "--seed", str(args.seed), "--seconds", str(args.seconds),
                "--trace", str(args.trace)]
        proc = subprocess.run(argv, stdout=subprocess.PIPE, text=True, timeout=900)
        lines = proc.stdout.rstrip("\n").split("\n")
        if proc.returncode != 0:
            print(f"{name}: exited with code {proc.returncode}", file=sys.stderr)
            return 1
        print("\n".join(lines[:-1]))
        result = json.loads(lines[-1])
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for key, metric in result["metrics"].items():
            combined["metrics"][f"{name}.{key}"] = metric
    print(json.dumps(combined))
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-since", type=float, default=None, help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if not (SRC / "nestode" / "__init__.py").is_file():
        print(f"error: no nestode package under {SRC}", file=sys.stderr)
        return 2
    os.chdir(ROOT)
    if args.workload == "all":
        return run_all(args)

    import nestode
    if Path(nestode.__file__).resolve().parent != SRC / "nestode":
        print(f"error: imported nestode from {nestode.__file__}, not {SRC}", file=sys.stderr)
        return 2
    if args.setup_since is not None:
        import workloads
        workloads.build(args.workload, args.seed, RUN_DIR / args.workload)
        print(time.time() - args.setup_since)
        return 0

    result = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    print_result(result, environment(args.seed))
    print(json.dumps({"correct": result["failed"] == 0, "attempted": result["attempted"],
                      "failed": result["failed"], "metrics": result["metrics"]}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
