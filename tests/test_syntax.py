"""Every module of the package parses as the oldest Python that
``pyproject.toml`` declares (``requires-python``)."""

import ast
import re
from pathlib import Path

import pytest

import effcone

PACKAGE = Path(effcone.__file__).parent
ROOT = Path(__file__).resolve().parent.parent


def test_the_declared_floor_is_3_10():
    pyproject = (ROOT / "pyproject.toml").read_text(encoding="utf-8")
    assert re.search(r'^requires-python = ">=3\.10"$', pyproject, re.MULTILINE)


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda path: path.name)
def test_parses_as_python_3_10(path):
    ast.parse(path.read_text(encoding="utf-8"), filename=path.name, feature_version=(3, 10))
