"""The mutant catalogue (``tests/mutants.py``) stays applicable: each snippet
occurs exactly once in its file, each mutant's source still parses, and
each mutant names tests that exist.  The runner counts the named tests
that failed, not the failed cases."""

import ast
import subprocess
from pathlib import Path

import pytest

import effcone
from mutants import MUTANTS, ROOT, _outcome

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


# the tail of a child ``pytest -q -rf`` run: one name without parameters
# failed three cases, and one of the two cases named with parameters failed
CANNED = """\
F.FFF.                                                                   [100%]
=========================== short test summary info ============================
FAILED tests/test_x.py::TestA::test_one[1] - assert 1 == 2
FAILED tests/test_x.py::TestA::test_one[2] - assert 1 == 2
FAILED tests/test_x.py::TestA::test_one[3] - assert 1 == 2
FAILED tests/test_x.py::TestA::test_two[a b-1] - AssertionError: x - y
4 failed, 2 passed in 0.12s
"""


def test_the_count_is_of_named_tests_that_failed():
    named = (
        "tests/test_x.py::TestA::test_one",
        "tests/test_x.py::TestA::test_on",  # a prefix of a failed name, not a name
        "tests/test_x.py::TestA::test_two[a b-1]",
        "tests/test_x.py::TestA::test_two[a b-2]",
    )
    done = subprocess.CompletedProcess([], 1, CANNED, "")
    assert _outcome(done, named) == "caught (2 of 4 tests failed)"
    assert _outcome(subprocess.CompletedProcess([], 0, "", ""), named) == "survived"
