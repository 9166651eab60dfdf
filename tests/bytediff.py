"""Byte diff of every CLI output between two versions of ``src/``, or between two environments.

Usage::

    python tests/bytediff.py OLD [NEW]
    python tests/bytediff.py --env KEY=VALUE [--env KEY=VALUE ...] [REF]

``OLD``, ``NEW`` and ``REF`` are local git refs; ``NEW`` and ``REF``
default to the working tree.  The ``src/`` of each ref is exported with
``git archive`` into a temporary directory, and each run of ``RUNS`` and
``REFUSALS`` is made on both sides, each in a fresh ``python`` process with
that side's ``src/`` and this ``tests/`` directory (for
``test_cli:soft_field``) on ``PYTHONPATH``.  With ``--env`` both sides run
the tree of ``REF``: ``OLD`` in this process's environment and ``NEW`` with
each ``KEY=VALUE`` set, for example ``OPENBLAS_CORETYPE=Haswell`` to force
an OpenBLAS kernel.  A kernel is forced only when the host's CPU flags
(``/proc/cpuinfo``) show the instructions it needs.  Every run writes its
config to ``cfg.ini`` and its files (``--out o``) to ``o`` in a directory of
its own, so a ref whose configs still carry ``[output] out_dir`` echoes the
same directory on both sides.

For each run the tool prints whether the exit code, stdout and stderr are
equal and whether the sha256 of each output file is equal.  For a CSV of the
same header and shape whose bytes differ, it prints the rows that changed
and the largest deviation of a cell, absolute, over the peak magnitude of
its column in ``OLD`` and over the cell's own magnitude in ``OLD`` (cells
that are zero in ``OLD`` skipped); for any other file that differs, the
lines that changed.  It exits 1 when any run differs.  It uses only local git, and
pytest does not collect it.
"""

from __future__ import annotations

import argparse
import difflib
import hashlib
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parents[1]

_DEMO = "[field]\nQ = [[100, 5], [-5, 100]]\n"
_INITIAL = "[initial]\nx0 = [0.1, -0.1]\nv0 = [0, 0]\n"
_HYBRID = ("[restart]\neta = {eta}\nT0 = 0.1\nT = {T}\n[initial]\nq0 = [1, -1]\np0 = [1, -1]\n"
           "[sim]\nt_end = 1.0\n")
# a start whose first step overflows, which no certified claim survives (exit 4)
_OVERFLOW = ("[restart]\neta = 0.5\nT0 = 0.1\nT = {T}\n[initial]\nq0 = [1e306, 0]\n"
             "p0 = [0, 0]\n[sim]\nt_end = 1.0\n")
_SOFT = "[field]\ngeneral = test_cli:{ref}\n"
# test_averaging.zero_block_field(0, 0.7, -0.4): all three hypotheses hold,
# and the averaged skew block is zero but for rounding
_ZERO_BLOCK = ("[[90.91485792299038, -23.747413822826353, -5.106466987340678], "
               "[-24.39057268266476, 33.78885966617023, 1.886200627111588], "
               "[-3.73195210558718, 1.341172627051474, 25.296282410839357]]")
# conftest.make_commensurate_field(1, n) at n = 3 and 5 (drift frequencies
# 3 : 4 : 6 and 1 : 4 : 5 : 6 : 6), each with a restart trigger T inside its
# reset window at eta = 0.5, T0 = 0.1
_COMMENSURATE = {
    3: ("[[27.314110402162985, -19.264456571372968, 13.923176164279267], "
        "[-12.58734767144328, 48.18359452895505, -15.441183125260435], "
        "[11.295399845725653, -15.132075056229032, 45.86508552401109]]", 0.5),
    5: ("[[107.50323925652496, -50.008482195670496, -7.9211717479449195, "
        "-39.97054607606816, -27.503178879524746], "
        "[-54.088281578280096, 63.95306796856392, -11.55421092054626, "
        "-25.41330078489783, -27.105523585563], "
        "[-4.53495997292289, -13.53248332523604, 91.75710040803526, "
        "-26.426166956734026, 16.755539805130457], "
        "[-39.19588546849383, -20.57801103119411, -26.12768432833002, "
        "168.2460462967214, -8.949908404566681], "
        "[-30.696844674754807, -26.680155531643415, 17.1064128695899, "
        "-8.567468160292133, 177.48236679367847]]", 0.6),
}


def _vector(n: int, head: list[float]) -> str:
    """``head`` padded with zeros to length ``n``, as a config list."""
    return str((head + [0.0] * n)[:n])


def _commensurate_runs(n: int) -> list[tuple[str, str, str]]:
    """instability-test, simulate-ode, -pullback and -hybrid on the ``_COMMENSURATE`` field."""
    Q, T = _COMMENSURATE[n]
    field, x0 = f"[field]\nQ = {Q}\n", _vector(n, [0.1, -0.1, 0.05])
    return [
        (f"instability-test-n{n}", "instability-test", field),
        (f"simulate-ode-n{n}", "simulate-ode",
         field + f"[initial]\nx0 = {x0}\nv0 = {_vector(n, [])}\n[sim]\nt_end = 0.5\n"),
        (f"simulate-pullback-n{n}", "simulate-pullback",
         field + f"[initial]\nz0 = {_vector(2 * n, [0.1, -0.1, 0.05])}\n[sim]\ns_end = 2.0\n"),
        (f"simulate-hybrid-n{n}", "simulate-hybrid",
         field + f"[restart]\neta = 0.5\nT0 = 0.1\nT = {T}\n[initial]\nq0 = {x0}\n"
         f"p0 = {_vector(n, [0.2])}\n[sim]\nt_end = 3.0\n"),
    ]


# (name, scenario, config text): runs whose config the current schema accepts.
# The scenarios at their defaults (where they have all they need) and at the
# cheap configs of tests/test_cli.py::_CHEAP, the general-field reruns, the
# figure runs of test_cli.py, and the branches of a refused certificate, a
# decompose warning, a general field given as an instance, a general field
# whose declared constants sampling refutes, one whose declared constants
# hold within radius 10 of x_star but not along a run from far out, an
# undamped clock, a zero averaged block, hybrid runs that overflow on a
# linear and on a general field, a general run whose certificate is refused
# at eta = 1, a general run on the demo field's as_general() wrap, declared
# vectorized (against a version without the flag, it is compared with the
# unflagged wrap), and a certificate and three simulate runs on a field of
# dimension 3 and one of dimension 5.
RUNS = [
    ("instability-test-default", "instability-test", ""),
    ("optimal-restart-default", "optimal-restart", ""),
    ("figure1-default", "figure1", ""),
    ("figure2-default", "figure2", ""),
    ("decompose-cheap", "decompose", "[field]\nQ = [[4, 1], [1, 3]]\n"),
    ("simulate-ode-cheap", "simulate-ode", _DEMO + _INITIAL + "[sim]\nt_end = 0.2\n"),
    ("simulate-pullback-cheap", "simulate-pullback",
     _DEMO + "[initial]\nz0 = [0.1, -0.1, 0, 0]\n[sim]\ns_end = 0.2\n"),
    ("simulate-average-cheap", "simulate-average",
     _DEMO + "[initial]\nzeta0 = [0.1, -0.1, 0, 0]\n[sim]\ns_end = 0.2\n"),
    ("simulate-hybrid-cheap", "simulate-hybrid", _DEMO + _HYBRID.format(eta=0.5, T=0.471)),
    ("figure1-cheap", "figure1",
     "[sim]\ns_end_drift = 0.5\ns_end_slow = 0.5\ns_end_fast = 0.5\nstep = 0.01\n"),
    ("figure2-cheap", "figure2", "[sim]\nt_end = 1.0\n"),
    ("simulate-ode-general", "simulate-ode",
     _SOFT.format(ref="soft_field") + _INITIAL + "[sim]\nt_end = 0.2\n"),
    ("simulate-hybrid-general", "simulate-hybrid",
     _SOFT.format(ref="soft_field") + _HYBRID.format(eta=0.5, T=2.0)),
    ("optimal-restart-general", "optimal-restart", _SOFT.format(ref="soft_field")),
    ("figure1-panels", "figure1",
     "[sim]\ns_end_drift = 13.0\ns_end_slow = 10.0\ns_end_fast = 40.0\nstep = 0.01\n"),
    ("figure2-t3", "figure2", _DEMO + "[restart]\neta = 0.5\nT0 = 0.1\nT = 0.471\n"
     "[sim]\nt_end = 3.0\n"),
    ("figure1-zero-state", "figure1", "[initial]\ny0 = [0, 0, 0, 0]\n"
     "[sim]\ns_end_drift = 0.5\ns_end_slow = 0.5\ns_end_fast = 0.5\nstep = 0.01\n"),
    ("figure1-capped-slow-run", "figure1", "[initial]\ny0 = [3e11, -3e11, 0, 0]\n"
     "[sim]\ns_end_drift = 0.5\ns_end_fast = 0.5\ns_end_slow = 400\n"),
    ("figure2-zero-state", "figure2", "[initial]\nq0 = [0, 0]\np0 = [0, 0]\n"
     "[sim]\nt_end = 1.0\n"),
    ("simulate-hybrid-T-outside-window", "simulate-hybrid",
     _DEMO + _HYBRID.format(eta=0.5, T=0.8)),
    ("simulate-hybrid-eta-one", "simulate-hybrid", _DEMO + _HYBRID.format(eta=1.0, T=0.471)),
    ("simulate-hybrid-general-instance", "simulate-hybrid",
     _SOFT.format(ref="SOFT_FIELD") + _HYBRID.format(eta=0.5, T=2.0)),
    ("simulate-ode-general-misdeclared", "simulate-ode",
     _SOFT.format(ref="misdeclared_soft_field") + _INITIAL + "[sim]\nt_end = 0.2\n"),
    ("simulate-hybrid-general-misdeclared", "simulate-hybrid",
     _SOFT.format(ref="misdeclared_soft_field") + _HYBRID.format(eta=0.5, T=5.0)),
    ("optimal-restart-general-misdeclared", "optimal-restart",
     _SOFT.format(ref="misdeclared_soft_field")),
    ("simulate-hybrid-general-far-start", "simulate-hybrid",
     _SOFT.format(ref="stiff_tail_soft_field") + "[restart]\neta = 0.5\nT0 = 0.1\nT = 2.0\n"
     "[initial]\nq0 = [100, -100]\np0 = [0, 0]\n[sim]\nt_end = 10\n"),
    ("decompose-alpha-above-one", "decompose", "[field]\nQ = [[1, 3], [-3, 1]]\n"),
    ("simulate-ode-undamped", "simulate-ode",
     _DEMO + _INITIAL + "[clock]\nT0 = inf\n[sim]\nt_end = 0.5\n"),
    ("instability-test-zero-block", "instability-test", f"[field]\nQ = {_ZERO_BLOCK}\n"),
    ("simulate-hybrid-overflow", "simulate-hybrid", _DEMO + _OVERFLOW.format(T=0.471)),
    ("figure2-overflow", "figure2", _OVERFLOW.format(T=0.471)),
    ("simulate-hybrid-general-overflow", "simulate-hybrid",
     _SOFT.format(ref="soft_field") + _OVERFLOW.format(T=2.0)),
    ("simulate-hybrid-general-eta-one", "simulate-hybrid",
     _SOFT.format(ref="soft_field") + _HYBRID.format(eta=1.0, T=2.0)),
    ("simulate-hybrid-general-vectorized", "simulate-hybrid",
     _SOFT.format(ref="demo_general_field") + _HYBRID.format(eta=0.5, T=0.471)),
    *_commensurate_runs(3),
    *_commensurate_runs(5),
]

# the cheap run of each scenario, the demo certificate and four general-field
# runs through the general RK4 (one overflowing, one vectorized), which
# tests/test_bytediff.py compares on HEAD and the working tree: 24 fresh
# processes for the two sides, a few seconds in all
CHEAP = [run for run in RUNS if run[0].endswith("-cheap") or run[0] in (
    "instability-test-default", "simulate-ode-general", "simulate-hybrid-general",
    "simulate-hybrid-general-overflow", "simulate-hybrid-general-vectorized")]

# (name, scenario, config text): configs that exit 2 with a named cause
REFUSALS = [
    *((f"{scenario}-default", scenario, "") for scenario in (
        "decompose", "simulate-ode", "simulate-pullback", "simulate-average",
        "simulate-hybrid")),
    ("nodes-not-an-integer", "instability-test", "[averaging]\nnodes = 1.5\n"),
    ("no-section-header", "instability-test", "nodes = 1\n"),
    ("unknown-run-key", "instability-test", "[run]\nfoo = 1\n"),
    # the echo of an older version, whose configs named their output directory
    ("output-section", "instability-test", "[output]\nout_dir = out\n"),
    *((f"general-{case}", "simulate-ode", f"[field]\ngeneral = {ref}\n" + _INITIAL)
      for case, ref in [("no-colon", "nocolon"), ("no-module", "no_such_field_module:f"),
                        ("no-attribute", "test_cli:no_such_field"),
                        ("not-a-field", "test_cli:_SOFT_QA")]),
]

_MAIN = "import sys\nfrom nestode.cli import main\nsys.exit(main(sys.argv[1:]))\n"

# the CPU flags, as /proc/cpuinfo names them, of the instructions each
# OpenBLAS kernel runs (names are case-insensitive); OPENBLAS_CORETYPE is set
# only to a kernel listed here whose flags the host has
_KERNEL_FLAGS = {
    "prescott": {"pni"}, "sandybridge": {"avx"}, "haswell": {"avx2", "fma"},
    "zen": {"avx2", "fma"},
    "skylakex": {"avx512f", "avx512cd", "avx512bw", "avx512dq", "avx512vl"},
}


def _export(ref: str, dest: Path) -> Path:
    """``src/`` of the local git ``ref`` under ``dest``; the tree's ``src`` path."""
    git = subprocess.run(["git", "archive", ref, "src"], cwd=ROOT, capture_output=True)
    if git.returncode:
        sys.exit(f"cannot export src/ of {ref!r}: {git.stderr.decode().strip()}")
    archive = git.stdout
    dest.mkdir(parents=True)
    subprocess.run(["tar", "-x", "-C", str(dest)], input=archive, check=True)
    return dest / "src"


def _cpu_flags() -> set[str]:
    """The host's CPU flags; none where ``/proc/cpuinfo`` cannot be read."""
    try:
        lines = Path("/proc/cpuinfo").read_text().splitlines()
    except OSError:
        return set()
    return {flag for line in lines if line.startswith("flags")
            for flag in line.partition(":")[2].split()}


def _environment(pairs: list[str]) -> dict[str, str]:
    """The ``KEY=VALUE`` pairs as a dict.

    Raises ValueError on a malformed pair and on an OpenBLAS kernel that is
    unknown or that the host cannot run.
    """
    if any("=" not in pair or pair.startswith("=") for pair in pairs):
        raise ValueError(f"--env takes KEY=VALUE, got {pairs}")
    env = dict(pair.partition("=")[::2] for pair in pairs)
    kernel = env.get("OPENBLAS_CORETYPE")
    if kernel is not None:
        if kernel.lower() not in _KERNEL_FLAGS:
            raise ValueError(f"unknown OpenBLAS kernel {kernel!r}; known: "
                             f"{', '.join(_KERNEL_FLAGS)}")
        missing = _KERNEL_FLAGS[kernel.lower()] - _cpu_flags()
        if missing:
            raise ValueError(f"this host cannot run the {kernel} kernel: its CPU flags "
                             f"lack {', '.join(sorted(missing))}")
    return env


def _run(side: tuple[Path, dict], work: Path, scenario: str, text: str) -> tuple:
    """Exit code, stdout, stderr and ``{file: bytes}`` of one run in a fresh process.

    ``side`` is the ``src/`` to run and the variables set on top of this
    process's environment.
    """
    src, extra = side
    work.mkdir(parents=True)
    (work / "cfg.ini").write_text(text)
    env = {**os.environ, **extra,
           "PYTHONPATH": os.pathsep.join([str(src), str(ROOT / "tests")])}
    proc = subprocess.run([sys.executable, "-c", _MAIN, scenario, "cfg.ini", "--out", "o"],
                          cwd=work, env=env, capture_output=True)
    out = work / "o"
    files = {p.name: p.read_bytes() for p in sorted(out.iterdir())} if out.is_dir() else {}
    return proc.returncode, proc.stdout, proc.stderr, files


def _csv_change(old: bytes, new: bytes) -> str:
    """Rows changed and the largest cell deviation of two CSVs of one header and shape.

    The deviation is given absolute, over the peak magnitude of the cell's
    column in ``old`` and over the cell itself, ``|new - old| / |old|``, which
    skips the cells that are zero in ``old``.
    """
    a, b = ([line.split(",") for line in data.decode().splitlines()] for data in (old, new))
    if a[0] != b[0] or [len(row) for row in a] != [len(row) for row in b]:
        return "header or shape differs"
    changed = np.array(a[1:]) != np.array(b[1:])
    x, y = (np.array(rows[1:], dtype=float) for rows in (a, b))
    with np.errstate(invalid="ignore", divide="ignore"):
        dev = np.where(changed, np.abs(x - y), 0.0).max(axis=0)
        rel = np.where(dev > 0.0, dev / np.fmax.reduce(np.abs(x), axis=0), 0.0)  # NaN cells skipped
        own = np.where(changed & (x != 0.0), np.abs(x - y) / np.abs(x), 0.0)
    return (f"{changed.any(axis=1).sum()} of {len(a) - 1} rows changed, max abs "
            f"{dev.max():.2g}, max over its column's peak {rel.max():.2g}, "
            f"max over the entry itself {own.max():.2g}")


def compare(old_side: tuple[Path, dict], new_side: tuple[Path, dict], work: Path,
            runs: list[tuple[str, str, str]] = RUNS + REFUSALS) -> int:
    """Print the comparison of each of ``runs`` on both sides; the number of runs that differ.

    A side is the ``src/`` to run and the environment variables to set.
    """
    differ = 0
    for name, scenario, text in runs:
        old, new = (_run(s, work / side / name, scenario, text)
                    for side, s in (("old", old_side), ("new", new_side)))
        same = [f"{what} {'equal' if x == y else 'DIFFERS'}"
                for what, x, y in zip(("exit", "stdout", "stderr"), old, new)]
        print(f"{name}: exit {old[0]}/{new[0]}; " + ", ".join(same))
        for file in sorted(set(old[3]) | set(new[3])):
            x, y = old[3].get(file), new[3].get(file)
            if x is None or y is None:
                print(f"  {file}: only in {'NEW' if x is None else 'OLD'}")
            elif x == y:
                print(f"  {file}: sha256 equal {hashlib.sha256(x).hexdigest()[:12]}")
            elif file.endswith(".csv"):
                print(f"  {file}: sha256 DIFFERS; {_csv_change(x, y)}")
            else:  # a text file: its changed lines
                print(f"  {file}: sha256 DIFFERS")
                for line in difflib.ndiff(x.decode().splitlines(), y.decode().splitlines()):
                    if line[0] in "-+":
                        print(f"    {line}")
        differ += old[:3] != new[:3] or old[3] != new[3]
    print(f"{len(runs)} runs, {differ} differ")
    return differ


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(
        prog="python tests/bytediff.py",
        usage="%(prog)s OLD [NEW]\n       %(prog)s --env KEY=VALUE [--env KEY=VALUE ...] [REF]",
        description="Byte diff of every CLI output between two git refs, or between this "
                    "environment and one with KEY=VALUE set (REF's tree on both sides).")
    parser.add_argument("refs", nargs="*", help="local git refs; the working tree by default")
    parser.add_argument("--env", action="append", default=[], metavar="KEY=VALUE",
                        help="run the NEW side with this variable set; repeatable")
    args = parser.parse_args(argv)
    if not (len(args.refs) <= 1 if args.env else 1 <= len(args.refs) <= 2):
        parser.error("give OLD [NEW], or --env KEY=VALUE with at most one REF")
    try:
        env = _environment(args.env)
    except ValueError as exc:
        parser.error(str(exc))
    with tempfile.TemporaryDirectory(prefix="bytediff-") as tmp:
        work = Path(tmp)
        trees = [_export(ref, work / "trees" / side) for side, ref in zip(("old", "new"), args.refs)]
        if args.env:
            tree = trees[0] if trees else ROOT / "src"
            sides = (tree, {}), (tree, env)
        else:
            sides = (trees[0], {}), (trees[1] if len(trees) == 2 else ROOT / "src", {})
        return 1 if compare(*sides, work / "runs") else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
