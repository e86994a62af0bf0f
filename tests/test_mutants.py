"""The mutant list stays replayable: ``python tests/mutants.py`` runs it."""
import ast

import pytest

from mutants import MUTANTS, ROOT, mutated, path


@pytest.mark.parametrize("mutant", MUTANTS, ids=[m.name for m in MUTANTS])
def test_mutant_applies_and_parses(mutant):
    text = mutated(mutant, ROOT)
    assert text != path(mutant, ROOT).read_text()
    ast.parse(text)
    for node in mutant.tests:
        assert (ROOT / node.split("::")[0]).is_file(), node


def test_names_are_unique():
    assert len({m.name for m in MUTANTS}) == len(MUTANTS)


def test_a_missing_old_text_is_an_error(tmp_path):
    (tmp_path / "src" / "cdalgebra").mkdir(parents=True)
    (tmp_path / "src" / "cdalgebra" / MUTANTS[0].file).write_text("")
    with pytest.raises(ValueError, match="occurs 0 times"):
        mutated(MUTANTS[0], tmp_path)
