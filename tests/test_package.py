import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

import nestode
from nestode import averaging, fields, hybrid, odesim

MODULES = (fields, odesim, averaging, hybrid)


def test_library_has_no_assert_statements():
    # checks must raise: `python -O` strips assert statements
    found = []
    for path in sorted(Path(nestode.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        found += [f"{path.name}:{node.lineno}" for node in ast.walk(tree)
                  if isinstance(node, ast.Assert)]
    assert found == []


def test_package_exports_exactly_the_module_exports():
    union = [name for mod in MODULES for name in mod.__all__]
    assert len(union) == len(set(union))
    assert sorted(nestode.__all__) == sorted(union)
    for mod in MODULES:
        for name in mod.__all__:
            assert getattr(nestode, name) is getattr(mod, name)


DEMOS = sorted((Path(__file__).parents[1] / "demos").glob("*.py"))


@pytest.mark.parametrize("demo", DEMOS, ids=[d.stem for d in DEMOS])
def test_demo_runs_without_asserts_or_warnings(demo):
    # -O strips assert statements and -W error turns every warning into a failure
    paths = [str(Path(nestode.__file__).parents[1]), os.environ.get("PYTHONPATH")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, paths)))
    run = subprocess.run([sys.executable, "-O", "-W", "error", str(demo)], env=env,
                         capture_output=True, text=True, timeout=60)
    assert run.returncode == 0, run.stderr
