"""The committed bench records stay readable: each ``BENCH_<n>.json`` at
the root of the repository has its ``BENCH_<n>.base.json``, both are lists
of passing records over the same workloads, every untraced record holds the
end-to-end metrics, and ``bench/run.py``'s ``--compare`` reads the pair.
``bench/run.py`` is loaded by path, as it is."""

import importlib.util
import json
import re
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
RUN = ROOT / "bench" / "run.py"


def _load_run():
    spec = importlib.util.spec_from_file_location("bench_run_by_path", RUN)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # its dataclass looks its module up
    try:
        spec.loader.exec_module(module)
    finally:
        del sys.modules[spec.name]
    return module


run = _load_run()
CHANGES = sorted(path for path in ROOT.glob("BENCH_*.json") if re.fullmatch(r"BENCH_[0-9]+\.json", path.name))


def _base(change):
    return change.with_name(change.stem + ".base.json")


def _records(path):
    return json.loads(path.read_text(encoding="utf-8"))


def test_records_are_committed():
    # positive control for the checks below: they read at least one pair
    assert CHANGES


@pytest.mark.parametrize("change", CHANGES, ids=lambda path: path.name)
def test_each_record_has_its_base(change):
    assert _base(change).is_file()


@pytest.mark.parametrize("change", CHANGES, ids=lambda path: path.name)
def test_both_sides_pass_on_the_same_workloads(change):
    sides = [_records(_base(change)), _records(change)]
    for records in sides:
        assert type(records) is list and records
        assert [record["workload"] for record in records if record.get("correct") is not True] == []
        untraced = [record for record in records if not record["trace"]]
        missing = [record["workload"] for record in untraced if not run.END_TO_END.keys() <= record["metrics"].keys()]
        assert missing == []
    base, ours = ({(record["workload"], record["trace"]) for record in records} for records in sides)
    assert base == ours


@pytest.mark.parametrize("change", CHANGES, ids=lambda path: path.name)
def test_compare_reads_the_pair(change):
    rows = run.compare(str(_base(change)), str(change)).splitlines()
    expected = {record["workload"] + (" (traced)" if record["trace"] else "") for record in _records(change)}
    assert sorted(row.split(": ", 1)[0] for row in rows) == sorted(expected)
    assert [row for row in rows if "only in" in row] == []
