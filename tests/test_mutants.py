"""The mutant catalogue (``tests/mutants.py``) stays applicable: each snippet
occurs exactly once in its file, and each mutant names tests to run."""

from pathlib import Path

import pytest

import effcone
from mutants import MUTANTS

PACKAGE = Path(effcone.__file__).parent


@pytest.mark.parametrize("mutant", MUTANTS, ids=[m.name for m in MUTANTS])
def test_each_snippet_occurs_once(mutant):
    source = (PACKAGE / mutant.path).read_text(encoding="utf-8")
    assert source.count(mutant.snippet) == 1
    assert mutant.replacement != mutant.snippet and mutant.tests
