"""Self-test of the benchmark harness.

    python3 -m pytest bench/tests -q

It makes tiny smoke runs (one operation each, plus one traced run of about
half a minute) and checks that the emitted metric names match
``BENCHMARK.json``, that a wrong expected answer is counted as a failed
operation, and that the benchmark refuses to run without the program.
"""

import dataclasses
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
sys.path.insert(0, str(ROOT / "bench"))

import layers  # noqa: E402
import run  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}


def _bench(*args, cwd=ROOT):
    return subprocess.run(
        [sys.executable, str(ROOT / "bench" / "run.py"), *args],
        cwd=cwd, capture_output=True, text=True, timeout=300,
    )


def _metric_units(section):
    return {m["name"]: m["unit"] for m in SPEC[section]}


def test_spec_matches_harness():
    assert [w["name"] for w in SPEC["workloads"]] == list(run.WORKLOADS)
    assert _metric_units("end_to_end") == run.END_TO_END
    assert SPEC["per_layer"] == [
        {"name": m.name, "unit": m.unit, "better": m.better} for m in layers.PER_LAYER
    ]
    assert SPEC["command"] == ["python3", "bench/run.py"]


@pytest.mark.parametrize("trace, section", [(0, "end_to_end"), (1, "per_layer")])
def test_smoke_run_emits_the_spec_metrics(trace, section):
    done = _bench("--workload", "gonal-direct", "--seed", "7", "--seconds", "0", "--trace", str(trace))
    assert done.returncode == 0, done.stderr
    env_line, result_line = done.stdout.strip().splitlines()[-2:]
    result = json.loads(result_line)
    assert set(result) == RESULT_KEYS
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    assert {n: m["unit"] for n, m in result["metrics"].items()} == _metric_units(section)
    assert all(m["value"] > 0 for n, m in result["metrics"].items() if n != "trace.overhead_frac")
    env = json.loads(env_line)["env"]
    assert env["seed"] == 7 and env["cpus"] >= 1 and env["effcone_version"]


def test_wrong_expected_answer_counts_as_failed(tmp_path):
    workload = run.WORKLOADS["gonal-direct"]
    wrong = dict(workload.expected, route_direct={**workload.expected["route_direct"], 5: "-1"})
    body = run.run_end_to_end(dataclasses.replace(workload, expected=wrong), ROOT, tmp_path, 0)
    assert body["attempted"] == 1 and body["failed"] == 1
    assert body["metrics"]["ok_frac"] == 0.0
    assert "route_direct.d=05" in body["errors"][0]


def test_wrong_roundtrip_answer_counts_as_failed(tmp_path):
    workload = run.WORKLOADS["file-roundtrip"]
    wrong = dict(workload.expected, pullback_entries=1)
    body = run.run_end_to_end(dataclasses.replace(workload, expected=wrong), ROOT, tmp_path, 0)
    assert (body["attempted"], body["failed"]) == (1, 1)
    assert "65519" in body["errors"][0]


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "bench", tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    for trace in ("0", "1"):
        done = _bench("--workload", "verify-all", "--seed", "1", "--seconds", "1", "--trace", trace, cwd=tmp_path)
        assert done.returncode != 0
        assert "correct" not in done.stdout


def test_compare_prints_ratio_and_base(tmp_path):
    def record(workload, verdict):
        return {"workload": workload, "trace": 0, "metrics": {"verdict_s": verdict, "ok_frac": 1.0}}

    base, change = tmp_path / "base.json", tmp_path / "change.json"
    base.write_text(json.dumps([record("verify-all", 2.0), record("verify-all", 4.0)]))
    change.write_text(json.dumps(record("verify-all", 1.5)))
    done = _bench("--compare", str(base), str(change))
    assert done.returncode == 0, done.stderr
    assert done.stdout.splitlines() == ["verify-all: ok_frac=1.000 (base 1)  verdict_s=0.500 (base 3)"]
