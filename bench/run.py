"""Benchmark of the effcone command line, end to end and layer by layer.

Run from the root of a checkout:

    python3 bench/run.py --workload verify-all --seed 1 --seconds 30 --trace 0
    python3 bench/run.py --workload verify-all --seed 1 --seconds 30 --trace 1
    python3 bench/run.py --compare base.json change.json

With ``--trace 0`` the workload runs the CLI as child processes of this
driver, one at a time, for ``--seconds`` seconds (a closed loop: the next
operation starts when the previous one has exited).  Tracing is off.  It
reports the end-to-end metrics named in ``BENCHMARK.json``:

* ``verdict_s``: median time of one operation, from launching its first CLI
  process to the exit of its last one, in seconds at reference host speed
  (see ``Reference``; the plain wall-clock median is printed beside it);
* ``peak_rss_mib``: the largest per-child ``ru_maxrss`` among the
  operations' processes, read with ``os.wait4`` for each child on its own
  (``RUSAGE_CHILDREN`` would be a high-water mark over every child reaped);
* ``ok_frac``: the share of attempted operations that passed their gate,
  ``1 - failed_frac``.  ``failed`` and ``attempted`` in the result line give
  the failure count itself; the share is reported this way round because
  a metric that reads 0 on a healthy run has no ratio to bound;
* ``setup_s``: median time, at reference host speed, of a fresh interpreter
  importing ``effcone.cli`` (for ``file-roundtrip``: running
  ``export bn(5)``, which also writes the input class file).

An operation fails when a process exits non-zero or when its output differs
from the known answer, which each gate gets by an independent route.  A
failure is counted, not raised.

With ``--trace 1`` it instead makes the in-process traced run of
``layers.py`` and reports every per-layer metric.

The last line of standard output is the result object; the line before it
records the environment (interpreter, CPU count, git SHA, effcone version,
argv and seed), the sample count of every median and the wall-clock
medians.  The full record is also written under ``.bench_out/``.
``--compare A B`` reads two such records (or JSON lists of them) and prints,
per workload, the ratio of each metric with the base value beside it.  It
only reports.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import re
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from fractions import Fraction
from math import factorial
from pathlib import Path
from typing import Callable, Dict, List, Optional, Tuple

OUT_DIR_NAME = ".bench_out"
SETUP_REPS = 10
BLOCK_S = 1.0
CHILD_TIMEOUT_S = 120

END_TO_END = {
    "verdict_s": "s",
    "peak_rss_mib": "MiB",
    "ok_frac": "frac",
    "setup_s": "s",
}


class CannotRun(RuntimeError):
    """The benchmark cannot run here: the directory holds no effcone
    sources, or the program fails to import or to set up."""


def closed_form(d: int) -> Fraction:
    """The gonal pairing by its closed form, written out here so that the
    gate does not rest on the code it checks:
    3 (2d-4)! / (d! (d-2)!) * (2/3) * (d (d-2)^(2d-2) - 2 (d-3) (d-1)^(2d-1))."""
    scale = Fraction(3 * factorial(2 * d - 4), factorial(d) * factorial(d - 2))
    core = d * (d - 2) ** (2 * d - 2) - 2 * (d - 3) * (d - 1) ** (2 * d - 1)
    return scale * Fraction(2, 3) * core


def rat_text(x: Fraction) -> str:
    return str(x.numerator) if x.denominator == 1 else f"{x.numerator}/{x.denominator}"


# ---------------------------------------------------------------------------
# child processes


@dataclass
class Child:
    argv: List[str]
    code: int
    stdout: str
    start: float
    end: float
    maxrss_mib: float

    @property
    def wall_s(self) -> float:
        return self.end - self.start


class Runner:
    """Starts effcone processes from the checkout's sources, one at a time,
    and reads each child's own resource usage as it is reaped."""

    def __init__(self, root: Path, work: Path):
        self.work = work
        src = str(root / "src")
        path = os.environ.get("PYTHONPATH")
        self.env = dict(os.environ, PYTHONPATH=src + (os.pathsep + path if path else ""))

    def _spawn(self, argv: List[str]) -> Child:
        with open(self.work / "stderr.txt", "wb") as err:
            start = time.perf_counter()
            proc = subprocess.Popen(
                argv, cwd=self.work, env=self.env,
                stdin=subprocess.DEVNULL, stdout=subprocess.PIPE, stderr=err,
            )
            timer = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
            timer.start()
            try:
                out = proc.stdout.read()
            finally:
                proc.stdout.close()
                _, status, usage = os.wait4(proc.pid, 0)
                timer.cancel()
            end = time.perf_counter()
        proc.returncode = os.waitstatus_to_exitcode(status)
        return Child(argv, proc.returncode, out.decode("utf-8", "replace"), start, end, usage.ru_maxrss / 1024)

    def cli(self, *args: str) -> Child:
        return self._spawn([sys.executable, "-m", "effcone.cli", *args])

    def python(self, code: str) -> Child:
        return self._spawn([sys.executable, "-c", code])

    def stderr_tail(self) -> str:
        text = (self.work / "stderr.txt").read_text(encoding="utf-8", errors="replace")
        return text.strip().splitlines()[-1] if text.strip() else ""


# ---------------------------------------------------------------------------
# workloads and their gates


def _verify_all_gate(outputs: List[str], work: Path, expected: dict) -> Optional[str]:
    try:
        report = json.loads(outputs[-1])
        summary = report["summary"]
        direct = {r["check"]: r["actual"] for r in report["checks"] if r["check"].startswith("route_direct.")}
    except (ValueError, KeyError, TypeError, AttributeError) as exc:
        return f"report is malformed: {exc!r}"
    if summary != expected["summary"]:
        return f"summary {summary} != {expected['summary']}"
    return _direct_rows_error(direct, expected["route_direct"])


def _direct_rows_error(direct: Dict[str, str], wanted: Dict[int, str]) -> Optional[str]:
    want = {f"route_direct.d={d:02d}": v for d, v in wanted.items()}
    if direct != want:
        bad = sorted(set(direct.items()) ^ set(want.items()))
        return f"route_direct rows differ from the closed form: {bad}"
    return None


_TEXT_ROW = re.compile(r"^(PASS|FAIL)  gonal/(route_direct\.d=\d+)  expected=(\S+) actual=(\S+)  ")


def _verify_gonal_gate(outputs: List[str], work: Path, expected: dict) -> Optional[str]:
    lines = outputs[-1].splitlines()
    if not lines or lines[-1] != expected["summary"]:
        return f"summary {lines[-1:]} != {expected['summary']!r}"
    direct = {m.group(2): m.group(4) for m in map(_TEXT_ROW.match, lines) if m}
    return _direct_rows_error(direct, expected["route_direct"])


def _roundtrip_gate(outputs: List[str], work: Path, expected: dict) -> Optional[str]:
    printed = outputs[-1].strip()
    if printed != expected["intersect"]:
        return f"intersect printed {printed!r}, expected {expected['intersect']!r}"
    try:
        entries = len(json.loads((work / "pb.json").read_text(encoding="utf-8"))["boundary"])
    except (OSError, ValueError, KeyError, TypeError) as exc:
        return f"pullback file unreadable: {exc}"
    if entries != expected["pullback_entries"]:
        return f"pullback file holds {entries} boundary entries, expected {expected['pullback_entries']}"
    return None


@dataclass(frozen=True)
class Workload:
    """CLI steps of one operation, run in ``work``; ``setup`` is the step
    that prepares its input (None: only start an interpreter and import
    ``effcone.cli``); ``outputs`` are files an operation writes, removed
    before it starts; ``gate`` checks the steps' standard output against
    ``expected`` and returns an error or None."""

    name: str
    why: str
    setup: Optional[Tuple[str, ...]]
    steps: Tuple[Tuple[str, ...], ...]
    gate: Callable[[List[str], Path, dict], Optional[str]]
    expected: dict
    outputs: Tuple[str, ...] = ()


DIRECT_ROWS = {d: rat_text(closed_form(d)) for d in range(3, 7)}

WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "verify-all",
            "the verdict users wait for; dominated by forgetful lifts, suites and gluing",
            None,
            (("verify", "all", "--json"),),
            _verify_all_gate,
            {"summary": {"checks": 86, "failed": 0}, "route_direct": DIRECT_ROWS},
        ),
        Workload(
            "gonal-direct",
            "gluing, profiles and pairing with no forgetful lift, so it separates the two pullbacks",
            None,
            (("verify", "gonal"),),
            _verify_gonal_gate,
            {"summary": "20 checks, 0 failed", "route_direct": DIRECT_ROWS},
        ),
        Workload(
            "file-roundtrip",
            "pullback, export and intersect through files; the JSON path dominates and gluing is small",
            ("export", "--name", "bn(5)", "--output", "bn5.json"),
            (
                ("pullback", "--g", "9", "--m", "8", "--input", "bn5.json", "--output", "pb.json"),
                ("export", "--name", "profile-gonal(5)", "--output", "prof.json"),
                ("intersect", "--profile", "prof.json", "--class", "pb.json"),
            ),
            _roundtrip_gate,
            {"intersect": rat_text(closed_form(5)), "pullback_entries": 65519},
            ("pb.json", "prof.json"),
        ),
    )
}


def run_operation(workload: Workload, runner: Runner) -> Tuple[List[Child], Optional[str]]:
    """One operation as child processes; it fails on the first non-zero
    exit or when the gate rejects the output."""
    for name in workload.outputs:
        (runner.work / name).unlink(missing_ok=True)
    children = []
    for step in workload.steps:
        child = runner.cli(*step)
        children.append(child)
        if child.code != 0:
            return children, f"{' '.join(step)} exited {child.code}: {runner.stderr_tail()}"
    return children, workload.gate([c.stdout for c in children], runner.work, workload.expected)


# ---------------------------------------------------------------------------
# runs


def check_root(root: Path) -> None:
    if not (root / "src" / "effcone" / "cli.py").is_file():
        raise CannotRun(f"no effcone sources under {root / 'src'}; run from the root of a checkout")


class Reference:
    """Host speed, read from a fixed pure-Python task that does not touch
    effcone: a fresh interpreter fills a dict of 2^16 fractions and dumps
    their strings as JSON, the same kind of work as gluing and exporting.

    The machine this benchmark was written on (2 vCPUs, shared) drifts in
    speed by a third over minutes, much more than within a few seconds, so
    wall times of runs made minutes apart do not agree.  Each timed interval
    is therefore rescaled by ``REFERENCE_S`` over the reference's wall time
    measured right before and after it: the reported seconds are the wall
    seconds on a host where the reference takes exactly ``REFERENCE_S``.
    Each measurement is the faster of two back-to-back runs, which drops
    most of the short stalls a single 0.15 s run catches.  The rescaling is
    approximate: operations do not slow exactly as the reference does, and
    on that machine a 40% slower host moved rescaled verdicts by up to 8%."""

    SCRIPT = (
        "import json\n"
        "from fractions import Fraction\n"
        "d = {s: Fraction(1 - s.bit_count(), 3) for s in range(3, 1 << 16)}\n"
        "json.dumps([str(v) for v in d.values()])\n"
    )
    REFERENCE_S = 0.2
    REFERENCE_RUNS = 2

    def __init__(self, runner: Runner):
        self.runner = runner
        self.walls: List[float] = []

    def measure(self) -> float:
        walls = []
        for _ in range(self.REFERENCE_RUNS):
            child = self.runner.python(self.SCRIPT)
            if child.code != 0:
                raise CannotRun(f"reference task failed: {self.runner.stderr_tail()}")
            walls.append(child.wall_s)
        self.walls.append(min(walls))
        return min(walls)

    def scale(self, before: float, after: float) -> float:
        return self.REFERENCE_S / ((before + after) / 2)


def timed_blocks(ref: Reference, action: Callable[[], float], done: Callable[[int], bool]) -> Tuple[List[float], List[float]]:
    """Repeat ``action`` (which returns the wall seconds it timed) in blocks
    of at least ``BLOCK_S`` seconds, with a reference measurement between
    blocks, until ``done(count)``; at least once.  Returns the wall times
    and the same times rescaled to reference speed."""
    walls, scaled = [], []
    before = ref.measure()
    while True:
        block, block_end = [], time.perf_counter() + BLOCK_S
        while True:
            block.append(action())
            if done(len(walls) + len(block)) or time.perf_counter() >= block_end:
                break
        after = ref.measure()
        walls += block
        scaled += [v * ref.scale(before, after) for v in block]
        before = after
        if done(len(walls)):
            return walls, scaled


def run_end_to_end(workload: Workload, root: Path, work: Path, seconds: float) -> dict:
    """``SETUP_REPS`` timed set-ups, then a closed loop of the workload's
    operations for ``seconds`` seconds (at least one operation).  The driver
    and its children share one CPU so that the reference sees the host the
    operations see."""
    work.mkdir(parents=True, exist_ok=True)
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    runner = Runner(root, work)
    warm = runner.python("import effcone.cli")  # writes bytecode once, untimed
    if warm.code != 0:
        raise CannotRun(f"cannot import effcone.cli: {runner.stderr_tail()}")
    ref = Reference(runner)

    def setup() -> float:
        child = runner.cli(*workload.setup) if workload.setup else runner.python("import effcone.cli")
        if child.code != 0:
            raise CannotRun(f"set-up failed: {runner.stderr_tail()}")
        return child.wall_s

    setup_walls, setup_scaled = timed_blocks(ref, setup, lambda count: count >= SETUP_REPS)

    ok, errors, peak = [], [], 0.0

    def operation() -> float:
        nonlocal peak
        children, error = run_operation(workload, runner)
        ok.append(error is None)
        if error:
            errors.append(error)
        peak = max([peak] + [c.maxrss_mib for c in children])
        # from launching the first process to the exit of the last one
        return children[-1].end - children[0].start

    deadline = time.perf_counter() + seconds
    walls, scaled = timed_blocks(ref, operation, lambda count: time.perf_counter() >= deadline)

    attempted = len(walls)
    timed = [v for v, good in zip(scaled, ok) if good] or scaled
    values = {
        "verdict_s": statistics.median(timed),
        "peak_rss_mib": peak,
        "ok_frac": (attempted - len(errors)) / attempted,
        "setup_s": statistics.median(setup_scaled),
    }
    return {
        "metrics": values,
        "samples": {"verdict_s": len(timed), "peak_rss_mib": attempted, "ok_frac": attempted, "setup_s": SETUP_REPS},
        "wall": {
            "verdict_s": statistics.median(walls),
            "setup_s": statistics.median(setup_walls),
            "reference_s": statistics.median(ref.walls),
        },
        "attempted": attempted,
        "failed": len(errors),
        "errors": errors[:5],
        "raw": {"verdict_wall_s": walls, "setup_wall_s": setup_walls, "reference_wall_s": ref.walls},
    }


def git_sha(root: Path) -> str:
    if not (root / ".git").exists():
        return "unknown (not a git checkout)"
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() or "unknown"


def effcone_version(root: Path) -> str:
    text = (root / "src" / "effcone" / "__init__.py").read_text(encoding="utf-8")
    match = re.search(r'__version__\s*=\s*"([^"]+)"', text)
    return match.group(1) if match else "unknown"


def environment(root: Path, argv: List[str], seed: int) -> dict:
    return {
        "python": f"{platform.python_implementation()} {platform.python_version()}",
        "cpus": os.cpu_count(),
        "git_sha": git_sha(root),
        "effcone_version": effcone_version(root),
        "argv": argv,
        "seed": seed,
    }


def run(workload_name: str, seed: int, seconds: float, trace: bool, root: Path, argv: List[str]) -> dict:
    check_root(root)
    workload = WORKLOADS[workload_name]
    work = root / OUT_DIR_NAME / f"{workload_name}-seed{seed}"
    if trace:
        import layers

        body = layers.traced_run(root, work, WORKLOADS)
        units = {m.name: m.unit for m in layers.PER_LAYER}
    else:
        body = run_end_to_end(workload, root, work, seconds)
        units = END_TO_END
    record = {
        "workload": workload_name,
        "trace": int(trace),
        "env": environment(root, argv, seed),
        **body,
        "correct": body["failed"] == 0,
        "units": {name: units[name] for name in body["metrics"]},
    }
    (root / OUT_DIR_NAME / f"{workload_name}-seed{seed}-trace{int(trace)}.json").write_text(
        json.dumps(record, indent=2) + "\n", encoding="utf-8"
    )
    return record


def result_line(record: dict) -> str:
    return json.dumps(
        {
            "correct": record["correct"],
            "attempted": record["attempted"],
            "failed": record["failed"],
            "metrics": {
                name: {"value": value, "unit": record["units"][name]}
                for name, value in record["metrics"].items()
            },
        }
    )


# ---------------------------------------------------------------------------
# compare


def _load_records(path: str) -> Dict[str, Dict[str, float]]:
    """Per workload, the median of each metric over the records in a file
    (a single record or a JSON list of records)."""
    data = json.loads(Path(path).read_text(encoding="utf-8"))
    records = data if isinstance(data, list) else [data]
    grouped: Dict[str, Dict[str, List[float]]] = {}
    for rec in records:
        key = rec["workload"] + (" (traced)" if rec.get("trace") else "")
        for name, value in rec["metrics"].items():
            grouped.setdefault(key, {}).setdefault(name, []).append(value)
    return {w: {n: statistics.median(v) for n, v in ms.items()} for w, ms in grouped.items()}


def compare(base_path: str, change_path: str) -> str:
    """One row per workload: change/base for each metric, base in brackets."""
    base, change = _load_records(base_path), _load_records(change_path)
    rows = []
    for workload in sorted(base.keys() & change.keys()):
        cells = []
        for name in sorted(base[workload].keys() & change[workload].keys()):
            b, c = base[workload][name], change[workload][name]
            ratio = f"{c / b:.3f}" if b else ("1.000" if c == b else "inf")
            cells.append(f"{name}={ratio} (base {b:.6g})")
        rows.append(f"{workload}: " + "  ".join(cells))
    for workload in sorted(base.keys() ^ change.keys()):
        rows.append(f"{workload}: only in {'base' if workload in base else 'change'}")
    return "\n".join(rows)


def main(argv: Optional[List[str]] = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0, help="recorded; the corpus inputs are fixed")
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--compare", nargs=2, metavar=("BASE", "CHANGE"))
    args = parser.parse_args(argv)
    if args.compare:
        print(compare(*args.compare))
        return 0
    if not args.workload:
        parser.error("--workload is required")
    root = Path.cwd()
    try:
        record = run(args.workload, args.seed, args.seconds, bool(args.trace), root, [sys.argv[0], *argv])
    except CannotRun as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    for error in record["errors"]:
        print(f"FAILED: {error}", file=sys.stderr)
    print(json.dumps({key: record[key] for key in ("env", "samples", "wall") if key in record}))
    print(result_line(record))
    return 0


if __name__ == "__main__":
    sys.exit(main())
