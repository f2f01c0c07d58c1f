"""The mutant catalogue (``tests/mutants.py``) stays applicable: each snippet
occurs exactly once in its file, each mutant's source still parses, and
each mutant names tests that exist."""

import ast
from pathlib import Path

import pytest

import effcone
from mutants import MUTANTS, ROOT

PACKAGE = Path(effcone.__file__).parent


def _defined(test_id):
    """Whether the file of a pytest id exists and defines its class and
    function, the ``[...]`` parameter id stripped."""
    path, *names = test_id.split("::")
    names[-1] = names[-1].split("[", 1)[0]
    if not (ROOT / path).is_file():
        return False
    scope = ast.parse((ROOT / path).read_text(encoding="utf-8"))
    for name in names:
        scope = next(
            (node for node in scope.body
             if isinstance(node, (ast.ClassDef, ast.FunctionDef)) and node.name == name),
            None,
        )
        if scope is None:
            return False
    return True


@pytest.mark.parametrize("mutant", MUTANTS, ids=[m.name for m in MUTANTS])
def test_each_snippet_occurs_once(mutant):
    source = (PACKAGE / mutant.path).read_text(encoding="utf-8")
    assert source.count(mutant.snippet) == 1
    assert mutant.replacement != mutant.snippet and mutant.tests


@pytest.mark.parametrize("mutant", MUTANTS, ids=[m.name for m in MUTANTS])
def test_each_mutant_still_parses(mutant):
    """A replacement that breaks the syntax is a catalogue typo, not a
    mutant: it would fail every test it names at import."""
    source = (PACKAGE / mutant.path).read_text(encoding="utf-8")
    ast.parse(source.replace(mutant.snippet, mutant.replacement), filename=mutant.path)


@pytest.mark.parametrize("mutant", MUTANTS, ids=[m.name for m in MUTANTS])
def test_each_named_test_exists(mutant):
    assert [test for test in mutant.tests if not _defined(test)] == []


def test_a_misspelt_name_is_not_found():
    named = MUTANTS[0].tests[0]
    assert _defined(named)
    path, cls, function = named.split("::")
    for wrong in (f"{path}x::{cls}::{function}", f"{path}::{cls}x::{function}", f"{path}::{cls}::x{function}"):
        assert not _defined(wrong)
