import ast
from pathlib import Path

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
