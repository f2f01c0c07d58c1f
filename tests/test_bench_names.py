"""The names ``bench/layers.py`` wraps stay in the package: each function
it instruments by name exists on its ``effcone`` module, and ``effcone.cli``
holds the module-level ``json`` it swaps for a timing proxy, through which
the whole read decodes.  ``bench/layers.py`` is loaded by path, as it is."""

import importlib
import importlib.util
import json
import sys
from pathlib import Path

import pytest

from effcone import cli

LAYERS = Path(__file__).resolve().parent.parent / "bench" / "layers.py"


def _load_layers():
    spec = importlib.util.spec_from_file_location("bench_layers_by_path", LAYERS)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # its dataclass looks its module up
    try:
        spec.loader.exec_module(module)
    finally:
        del sys.modules[spec.name]
    return module


INSTRUMENTED = _load_layers().INSTRUMENTED


@pytest.mark.parametrize("module", sorted(INSTRUMENTED))
def test_each_instrumented_name_exists(module):
    package = importlib.import_module(f"effcone.{module}")
    assert [name for name in INSTRUMENTED[module] if not callable(getattr(package, name, None))] == []


def test_cli_holds_the_json_module():
    assert vars(cli).get("json") is json


def test_the_whole_read_decodes_through_cli_json(monkeypatch):
    calls = []

    class Proxy:
        def loads(self, *args, **kwargs):
            calls.append(args)
            return json.loads(*args, **kwargs)

        def __getattr__(self, name):
            return getattr(json, name)

    monkeypatch.setattr(cli, "json", Proxy())
    assert cli._decode("file.json", '{"a": [1]}') == {"a": [1]}
    assert calls == [('{"a": [1]}',)]
