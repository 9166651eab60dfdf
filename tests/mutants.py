"""Mutation catalogue: one-string changes to ``src/`` and the tests that must fail on each.

Usage::

    python tests/mutants.py

For each entry of ``MUTANTS``, ``src/``, ``tests/``, ``demos/``,
``pyproject.toml`` and ``README.md`` (which the tests read) are copied into
a temporary directory, the entry's ``old`` text is replaced by ``new`` in
its file, and the entry's tests run there with ``pytest -x``.  A mutant is
killed when pytest exits 1 with a failed test; it survived when every test
passed.  Any other exit (a collection error, a test id that is not found,
an empty selection) stops the tool with an error, since it does not show
that a test failed on the mutant.  The tool prints one line per mutant,
with the first test that failed, and exits 1 when any survived.  pytest
does not collect it; ``tests/test_mutants.py`` checks that each ``old``
occurs exactly once in the current source and that each named test is
defined, so a change that removes a mutated line or renames a test updates
this catalogue on purpose.
"""

from __future__ import annotations

import shutil
import subprocess
import sys
import tempfile
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parents[1]


class Mutant(NamedTuple):
    name: str
    file: str  # relative to the repository root
    old: str
    new: str
    tests: tuple[str, ...]  # pytest node ids or paths, relative to the repository root


_GRAM_TESTS = tuple(f"tests/test_averaging.py::{name}" for name in (
    "test_the_one_table_gram_has_the_bits_of_the_three_table_gram",
    "test_the_factored_gram_matches_the_gram_of_the_table"))

MUTANTS = [
    Mutant("gram-sign-flipped", "src/nestode/averaging.py",
           "[1.0, -1.0, -1.0, 1.0]", "[1.0, -1.0, 1.0, 1.0]", _GRAM_TESTS),
    Mutant("group-chain-at-the-tolerance", "src/nestode/averaging.py",
           "if vals[i] - prev > tol:", "if vals[i] - prev >= tol:",
           ("tests/test_averaging.py::test_the_eigenvalue_groups_are_the_argsort_groups",)),
    Mutant("first-weight-not-lowered", "src/nestode/averaging.py",
           "gram[2] -= third", "gram[2] -= 0.0", _GRAM_TESTS),
    Mutant("simpson-weights-swapped", "src/nestode/averaging.py",
           "2.0 * third)\n    weights[1::2] = 4.0 * third",
           "4.0 * third)\n    weights[1::2] = 2.0 * third", _GRAM_TESTS),
    Mutant("csv-cells-as-17g", "src/nestode/cli.py", '["%r"]', '["%.17g"]',
           ("tests/test_cli.py::test_csv_bytes_are_the_repr_of_every_cell",)),
    Mutant("reset-keeps-momentum", "src/nestode/hybrid.py",
           "np.concatenate([u[:n], np.zeros(n)])", "np.concatenate([u[:n], u[n:]])",
           ("tests/test_hybrid.py::test_jump_map_is_bit_exact",)),
    Mutant("rk4-weights-1-2-1-2", "src/nestode/odesim.py",
           "[1.0, 2.0, 2.0, 1.0]", "[1.0, 2.0, 1.0, 2.0]",
           ("tests/test_odesim.py::test_the_general_rk4_has_the_bits_of_the_python_float_loop",)),
    Mutant("out-ignored", "src/nestode/cli.py", "Path(args.out)", 'Path("out")',
           ("tests/test_cli.py::test_every_file_is_the_same_wherever_the_run_is_written",)),
    Mutant("rotation-transposed", "src/nestode/fields.py",
           "return self.Qa.dot(x)", "return self.Qa.T.dot(x)",
           ("tests/test_dot_forms.py::test_each_dot_form_has_the_bits_of_the_matmul_it_replaces",)),
    Mutant("rotation-blocks-S-and-D-swapped", "src/nestode/odesim.py",
           "(-(lam[:, None] * sin), np.cos(phase), sin / lam[:, None])",
           "(sin / lam[:, None], np.cos(phase), -(lam[:, None] * sin))",
           ("tests/test_odesim.py::test_exp_drift_matches_dense_expm",)),
    Mutant("row-rotation-transposed", "src/nestode/fields.py",
           "np.matmul(self.Qa, x[:, :, None])", "np.matmul(self.Qa.T, x[:, :, None])",
           ("tests/test_dot_forms.py::"
            "test_the_row_callables_of_as_general_have_the_per_point_bits",)),
    # known survivor: a certified flow rate twice the derived one passes
    # every test (see CHANGES.md)
    Mutant("flow-rate-doubled", "src/nestode/hybrid.py",
           "mu = lam * T0 * (1.0 - T / T_upper) / c_upper",
           "mu = 2.0 * lam * T0 * (1.0 - T / T_upper) / c_upper", ("tests",)),
]


def killer(mutant: Mutant, work: Path) -> str | None:
    """The first of ``mutant``'s tests to fail on a copy of the tree under ``work`` with it applied.

    ``None`` when they all pass.
    """
    for part in ("src", "tests", "demos"):
        shutil.copytree(ROOT / part, work / part,
                        ignore=shutil.ignore_patterns("__pycache__", ".hypothesis"))
    for part in ("pyproject.toml", "README.md"):
        shutil.copy(ROOT / part, work)
    path = work / mutant.file
    text = path.read_text()
    if text.count(mutant.old) != 1:
        sys.exit(f"{mutant.name}: its old text occurs {text.count(mutant.old)} times "
                 f"in {mutant.file}")
    path.write_text(text.replace(mutant.old, mutant.new))
    # the catalogue's own check fails on every mutated tree, so it is left out
    proc = subprocess.run([sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider",
                           "-rfE", "--ignore=tests/test_mutants.py", *mutant.tests],
                          cwd=work, capture_output=True, text=True)
    failed = [line.split()[1] for line in proc.stdout.splitlines()
              if line.startswith(("FAILED ", "ERROR "))]
    if proc.returncode == 0:
        return None
    if proc.returncode == 1 and failed:
        return failed[0]
    sys.exit(f"{mutant.name}: pytest exit {proc.returncode} with no failed test:\n"
             f"{proc.stdout[-2000:]}{proc.stderr[-2000:]}")


def main() -> int:
    survived = 0
    for mutant in MUTANTS:
        with tempfile.TemporaryDirectory(prefix="mutant-") as tmp:
            test = killer(mutant, Path(tmp))
        survived += test is None
        print(f"{mutant.name}: {f'killed by {test}' if test else 'SURVIVED'}", flush=True)
    return 1 if survived else 0


if __name__ == "__main__":
    sys.exit(main())
