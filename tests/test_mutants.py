import pytest

import mutants


@pytest.mark.parametrize("mutant", mutants.MUTANTS, ids=lambda m: m.name)
def test_each_mutated_text_occurs_once_in_the_source(mutant):
    assert (mutants.ROOT / mutant.file).read_text().count(mutant.old) == 1
    for test in mutant.tests:
        path, _, name = test.partition("::")
        assert (mutants.ROOT / path).exists(), test
        if name:
            assert f"def {name}(" in (mutants.ROOT / path).read_text(), test


def test_mutant_names_are_unique():
    assert len({m.name for m in mutants.MUTANTS}) == len(mutants.MUTANTS)
