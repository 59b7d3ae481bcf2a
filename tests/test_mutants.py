"""The mutant list is well-formed: the kill run itself (python tests/mutants.py)
stays out of the suite, since it runs one pytest selection per mutant."""

import pytest

from mutants import MUTANTS, ROOT


def test_mutant_names_are_unique():
    names = [m.name for m in MUTANTS]
    assert len(set(names)) == len(names)


@pytest.mark.parametrize("mutant", MUTANTS, ids=lambda m: m.name)
def test_each_mutant_changes_one_place_and_names_its_tests(mutant):
    assert (ROOT / mutant.file).read_text().count(mutant.old) == 1
    assert mutant.new != mutant.old
    paths = [s for s in mutant.selection if s.startswith("tests/")]
    assert paths and all((ROOT / p.split("::")[0]).is_file() for p in paths)
