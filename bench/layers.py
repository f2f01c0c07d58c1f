"""The traced run: per-layer numbers for every effcone module, measured
from outside the program.

Spans are recorded by this file around calls into each module's public
functions; no file under ``src/`` is changed.  The run has three parts.

1. Replay.  Every workload's CLI steps run in this process through
   ``cli.main([...])``: once to warm up, then each step untraced and traced
   back to back.  While traced, the module attributes that hold the
   instrumented functions (in every effcone module that imported them) are
   replaced by wrappers that open a span, so each CLI step gets a parent
   span and each public call a child span.  A span's self time is its
   duration minus the time of its child spans.
   ``trace.coverage`` is the share of the steps' time that layer spans cover;
   ``trace.overhead_frac`` is traced time over untraced time, minus one.
2. Sweeps.  ``glue_pullback`` for m = 3..10, ``forget_pullback`` for the
   d = 3..6 lifts and ``corpus.profile("gonal", d)`` for d = 3..9, each a
   median over repetitions, with exact counts (terms, support) that must
   equal the known values below on every repetition.  ``tracemalloc`` gives
   the traced peak of one call of each pullback, measured separately so
   that it does not slow the timed calls.
3. Scalars.  Nanoseconds per call of ``canon``, ``format_rat``,
   ``parse_rat`` and ``Poly`` multiplication, timed in batches; they are far
   too frequent to wrap in spans.

``PER_LAYER`` lists every metric with the end-to-end metric and workload
that it should move.  ``BENCHMARK.json`` cannot carry that mapping, so it
lives here and the self-test checks that the two lists agree.
"""

from __future__ import annotations

import contextlib
import functools
import io
import json
import os
import statistics
import sys
import time
import timeit
import tracemalloc
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Callable, Dict, List, Optional

GLUE_SWEEP = range(3, 11)
FORGET_SWEEP = range(3, 7)
PROFILE_SWEEP = range(3, 10)
SWEEP_REPS = 3
NS_BATCHES = 5
GLUE_PEAK_M = 10
FORGET_PEAK_D = 5  # tracing the 4*10^6 allocations of d = 6 costs 6 s and 300 MiB

# exact counts: nonzero boundary entries of the sweep pullbacks and of the
# d-gonal profiles; they depend only on the classes, not on how they are built
GLUE_TERMS = {3: 57, 4: 243, 5: 1013, 6: 4083, 7: 16348, 8: 65519, 9: 262125, 10: 1048435}
FORGET_TERMS = {3: 972, 4: 16332, 5: 262076, 6: 4193740}
PROFILE_SUPPORT = {3: 43, 4: 249, 5: 1271, 6: 6133, 7: 28659, 8: 131057, 9: 589807}

SUITES = ("trigonal", "gonal", "gp", "chow", "certificate", "property")


@dataclass(frozen=True)
class Metric:
    name: str
    unit: str
    better: str
    moves: str  # the end-to-end metric and workload this layer should move


def _registry() -> List[Metric]:
    m: List[Metric] = []
    both = "verdict_s on gonal-direct most and verify-all somewhat; barely file-roundtrip"
    m.append(Metric("gluing.glue_pullback.ms", "ms", "lower", both))
    m.append(Metric("gluing.glue_pullback.terms", "count", "lower", both))
    m.append(Metric("gluing.glue_pullback.peak_mib", "MiB", "lower", "peak_rss_mib on gonal-direct"))
    for k in GLUE_SWEEP:
        m.append(Metric(f"gluing.glue_pullback.m{k}.ms", "ms", "lower", both))
        m.append(Metric(f"gluing.glue_pullback.m{k}.terms", "count", "lower", both))
    lifts = "verdict_s and peak_rss_mib on verify-all only"
    m.append(Metric("gluing.forget_pullback.ms", "ms", "lower", lifts))
    m.append(Metric("gluing.forget_pullback.terms", "count", "lower", lifts))
    m.append(Metric("gluing.forget_pullback.peak_mib", "MiB", "lower", lifts))
    for d in FORGET_SWEEP:
        m.append(Metric(f"gluing.forget_pullback.d{d}.ms", "ms", "lower", lifts))
        m.append(Metric(f"gluing.forget_pullback.d{d}.terms", "count", "lower", lifts))
    profiles = "verdict_s on gonal-direct (d <= 6); d >= 7 has no end-to-end workload yet"
    m.append(Metric("corpus.profile.ms", "ms", "lower", profiles))
    m.append(Metric("corpus.profile.support", "count", "lower", profiles))
    for d in PROFILE_SWEEP:
        m.append(Metric(f"corpus.profile.gonal.d{d}.ms", "ms", "lower", profiles))
        m.append(Metric(f"corpus.profile.gonal.d{d}.support", "count", "lower", profiles))
    m.append(Metric("corpus.golden_pullback.ms", "ms", "lower", "verdict_s on verify-all"))
    pairing = "verdict_s on gonal-direct and verify-all"
    m.append(Metric("picard.pair.ms", "ms", "lower", pairing))
    m.append(Metric("picard.pair.reads", "count", "lower", pairing))
    files = "verdict_s on file-roundtrip only"
    for fn in ("m1n_class_to_json", "m1n_class_from_json", "profile_to_json", "profile_from_json"):
        m.append(Metric(f"picard.{fn}.ms", "ms", "lower", files))
    m.append(Metric("json.dumps.ms", "ms", "lower", files))
    m.append(Metric("json.loads.ms", "ms", "lower", files))
    for fn in ("canon", "format_rat", "parse_rat"):
        m.append(Metric(f"scalars.{fn}.ns", "ns", "lower", files))
    m.append(Metric("scalars.Poly.mul.ns", "ns", "lower", "regressions only (chow, about 6 ms of verify-all)"))
    for fn in ("pairing_direct", "pairing_binomial", "pairing_closed", "negativity_report"):
        m.append(Metric(f"gonal.{fn}.ms", "ms", "lower", "verdict_s on verify-all and gonal-direct"))
    m.append(Metric("certify.certify.ms", "ms", "lower", "verdict_s on verify-all"))
    m.append(Metric("certify.lift.ms", "ms", "lower", lifts))
    m.append(Metric("certify.lift.self_ms", "ms", "lower", "verdict_s on verify-all"))
    for fn in ("family_invariants", "intersection_table_check", "chern_data"):
        m.append(Metric(f"chow.{fn}.ms", "ms", "lower", "regressions only (about 6 ms of verify-all)"))
    for suite in SUITES:
        m.append(Metric(f"cli.{suite}_suite.ms", "ms", "lower", "verdict_s on verify-all"))
    m.append(Metric("cli.emit_report.ms", "ms", "lower", "verdict_s on verify-all and gonal-direct"))
    for workload in ("verify-all", "gonal-direct", "file-roundtrip"):
        m.append(Metric(f"cli.main.{workload}.ms", "ms", "lower", f"verdict_s on {workload}"))
    m.append(Metric("trace.coverage", "frac", "higher", "none: share of CLI step time inside layer spans"))
    m.append(Metric("trace.overhead_frac", "frac", "lower", "none: cost of tracing itself"))
    return m


PER_LAYER = _registry()


# ---------------------------------------------------------------------------
# spans


class Span:
    __slots__ = ("id", "parent", "name", "start", "end", "child_s", "count")

    def __init__(self, id: int, parent: Optional[int], name: str, start: float):
        self.id, self.parent, self.name, self.start = id, parent, name, start
        self.end = start
        self.child_s = 0.0
        self.count: Optional[int] = None

    @property
    def duration(self) -> float:
        return self.end - self.start

    @property
    def self_s(self) -> float:
        return self.duration - self.child_s


class Tracer:
    """Spans kept in memory: name, start, end, parent and an optional count."""

    def __init__(self):
        self.spans: List[Span] = []
        self._open: List[Span] = []

    @contextlib.contextmanager
    def span(self, name: str):
        parent = self._open[-1] if self._open else None
        sp = Span(len(self.spans), parent.id if parent else None, name, time.perf_counter())
        self.spans.append(sp)
        self._open.append(sp)
        try:
            yield sp
        finally:
            sp.end = time.perf_counter()
            self._open.pop()
            if parent is not None:
                parent.child_s += sp.duration

    def wrap(self, name: str, fn: Callable, count: Optional[Callable] = None) -> Callable:
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            with self.span(name) as sp:
                result = fn(*args, **kwargs)
                if count is not None:
                    sp.count = count(args, result)
                return result

        return traced

    def totals(self) -> Dict[str, Dict[str, float]]:
        out: Dict[str, Dict[str, float]] = {}
        for sp in self.spans:
            agg = out.setdefault(sp.name, {"s": 0.0, "self_s": 0.0, "calls": 0, "count": 0})
            agg["s"] += sp.duration
            agg["self_s"] += sp.self_s
            agg["calls"] += 1
            agg["count"] += sp.count or 0
        return out

    def write(self, path: Path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for sp in self.spans:
                fh.write(json.dumps({
                    "id": sp.id, "parent": sp.parent, "name": sp.name,
                    "start": sp.start, "end": sp.end, "self_s": sp.self_s, "count": sp.count,
                }) + "\n")


def _boundary_len(args, result) -> int:
    return len(result.boundary)


def _support_len(args, result) -> int:
    return len(result.on_boundary)


def _profile_reads(args, result) -> int:
    return len(args[0].on_boundary)


# module -> {function: count or None}; every function of these modules that
# the CLI reaches, so that the span tree covers the steps
INSTRUMENTED = {
    "picard": {
        "pair": _profile_reads,
        "m1n_class_to_json": None, "m1n_class_from_json": None,
        "profile_to_json": None, "profile_from_json": None,
        "mg_class_to_json": None, "mg_class_from_json": None,
    },
    "gluing": {"glue_pullback": _boundary_len, "forget_pullback": _boundary_len},
    "corpus": {"profile": _support_len, "golden_pullback": None, "bn_class": None, "gp_class": None},
    "gonal": {
        "pairing_direct": None, "pairing_binomial": None, "pairing_closed": None,
        "negativity_report": None, "even_subset_sum": None,
    },
    "chow": {"family_invariants": None, "intersection_table_check": None, "chern_data": None},
    "certify": {"certify": None, "lift": None},
    "cli": {**{f"{s}_suite": None for s in SUITES}, "emit_report": None},
}


class _JsonProxy:
    """Stands in for the ``json`` module inside ``effcone.cli`` so that its
    ``dumps`` and ``loads`` calls get spans."""

    def __init__(self, tracer: Tracer):
        self.dumps = tracer.wrap("json.dumps", json.dumps)
        self.loads = tracer.wrap("json.loads", json.loads)

    def __getattr__(self, name):
        return getattr(json, name)


@contextlib.contextmanager
def instrumented(tracer: Tracer, modules: Dict[str, object]):
    """Replace each instrumented function by a span wrapper wherever an
    effcone module holds it, and restore the originals on exit."""
    wrappers = {}
    for mod_name, functions in INSTRUMENTED.items():
        for fn_name, count in functions.items():
            fn = getattr(modules[mod_name], fn_name)
            wrappers[id(fn)] = (fn, tracer.wrap(f"{mod_name}.{fn_name}", fn, count))
    patched = []
    try:
        for mod in set(modules.values()):
            for attr, value in list(vars(mod).items()):
                if callable(value) and id(value) in wrappers and wrappers[id(value)][0] is value:
                    setattr(mod, attr, wrappers[id(value)][1])
                    patched.append((mod, attr, value))
        cli = modules["cli"]
        patched.append((cli, "json", cli.json))
        cli.json = _JsonProxy(tracer)
        yield
    finally:
        for mod, attr, value in reversed(patched):
            setattr(mod, attr, value)


# ---------------------------------------------------------------------------
# the run


def _load_modules(root: Path) -> Dict[str, object]:
    src = str(root / "src")
    if src not in sys.path:
        sys.path.insert(0, src)
    import importlib

    names = ("scalars", "picard", "gluing", "corpus", "gonal", "chow", "certify", "cli")
    modules = {name: importlib.import_module(f"effcone.{name}") for name in names}
    modules["effcone"] = importlib.import_module("effcone")
    if not Path(modules["cli"].__file__).resolve().is_relative_to((root / "src").resolve()):
        raise RuntimeError(f"effcone imported from {modules['cli'].__file__}, not from {src}")
    return modules


def _run_step(cli, step, span) -> tuple:
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        start = time.perf_counter()
        with span:
            code = cli.main(list(step))
        elapsed = time.perf_counter() - start
    return code, out.getvalue(), elapsed


def replay(workloads, modules, work: Path, tracer: Optional[Tracer]) -> tuple:
    """Run every workload's set-up and steps through ``cli.main``.

    Without a tracer each step runs once.  With one, each step runs twice
    back to back, untraced and traced, the order alternating from step to
    step, so that the two times see the same host.  Returns the untraced
    and traced seconds (equal without a tracer) and the gate errors; each
    variant's output goes through the workload's gate."""
    cli = modules["cli"]
    variants = (False, True) if tracer else (False,)
    seconds = {False: 0.0, True: 0.0}
    errors = []
    here = os.getcwd()
    order = 0
    for wl in workloads.values():
        wdir = work / "replay" / wl.name
        wdir.mkdir(parents=True, exist_ok=True)
        steps = ([wl.setup] if wl.setup else []) + list(wl.steps)
        outputs = {v: [] for v in variants}
        failed = None
        os.chdir(wdir)
        try:
            for name in wl.outputs:
                (wdir / name).unlink(missing_ok=True)
            for step in steps:
                order += 1
                for traced in variants if order % 2 else variants[::-1]:
                    if traced:
                        with instrumented(tracer, modules):
                            code, out, elapsed = _run_step(cli, step, tracer.span(f"cli.main.{wl.name}"))
                    else:
                        code, out, elapsed = _run_step(cli, step, contextlib.nullcontext())
                    seconds[traced] += elapsed
                    outputs[traced].append(out)
                    if code != 0:
                        failed = f"{' '.join(step)} exited {code}"
                if failed:
                    break
        finally:
            os.chdir(here)
        for traced in variants:
            error = failed or wl.gate(outputs[traced][len(steps) - len(wl.steps):], wdir, wl.expected)
            if error:
                errors.append(f"replay {wl.name}{' (traced)' if traced else ''}: {error}")
    return seconds[False], seconds[variants[-1]], errors


def _sweep_class(modules, m: int):
    """A genus-(m+1) class with nonzero delta_irr for every m: six times the
    Brill-Noether slope form (g+3) lambda - (g+1)/6 delta_irr - sum i(g-i) delta_i."""
    g = m + 1
    return modules["picard"].DivisorClassMg(g, 6 * (g + 3), -(g + 1), [-6 * i * (g - i) for i in range(1, g // 2 + 1)])


def _sweep(tracer: Tracer, name: str, reps: int, call: Callable, count: Callable, known: int, out: dict) -> None:
    """Median milliseconds of ``reps`` spans of ``call`` into ``out``; every
    repetition's count must equal ``known``."""
    times = []
    for _ in range(reps):
        with tracer.span(name) as sp:
            result = call()
        sp.count = count(result)
        del result
        times.append(sp.duration * 1e3)
        if sp.count != known:
            out["errors"].append(f"{name}: count {sp.count} != {known}")
    out["values"][f"{name}.ms"] = statistics.median(times)
    out["samples"][f"{name}.ms"] = reps


def _peak_mib(call: Callable) -> float:
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        result = call()
        peak = tracemalloc.get_traced_memory()[1]
        del result
    finally:
        tracemalloc.stop()
    return (peak - base) / 2**20


def _ns_per_call(stmt: Callable, number: int) -> float:
    return statistics.median(timeit.repeat(stmt, number=number, repeat=NS_BATCHES)) / number * 1e9


def traced_run(root: Path, work: Path, workloads) -> dict:
    modules = _load_modules(root)
    gluing, corpus, scalars = modules["gluing"], modules["corpus"], modules["scalars"]
    work.mkdir(parents=True, exist_ok=True)
    values: Dict[str, float] = {}
    samples: Dict[str, int] = {}

    # the first replay faults in the heap and fills lazy caches; it is not timed
    _, _, errors = replay(workloads, modules, work, None)
    tracer = Tracer()
    untraced, traced, paired_errors = replay(workloads, modules, work, tracer)
    errors += paired_errors
    attempted = 3 * len(workloads)

    totals = tracer.totals()
    steps = [sp for sp in tracer.spans if sp.name.startswith("cli.main.")]
    values["trace.coverage"] = sum(sp.child_s for sp in steps) / sum(sp.duration for sp in steps)
    values["trace.overhead_frac"] = traced / untraced - 1
    for name in list(totals):
        agg = totals[name]
        values[f"{name}.ms"] = agg["s"] * 1e3
        samples[f"{name}.ms"] = agg["calls"]
    values["certify.lift.self_ms"] = totals["certify.lift"]["self_s"] * 1e3
    values["gluing.glue_pullback.terms"] = totals["gluing.glue_pullback"]["count"]
    values["gluing.forget_pullback.terms"] = totals["gluing.forget_pullback"]["count"]
    values["corpus.profile.support"] = totals["corpus.profile"]["count"]
    values["picard.pair.reads"] = totals["picard.pair"]["count"]

    out = {"values": values, "samples": samples, "errors": errors}
    bn = corpus.bn_class
    for m in GLUE_SWEEP:
        cls = _sweep_class(modules, m)
        name = f"gluing.glue_pullback.m{m}"
        _sweep(tracer, name, SWEEP_REPS, lambda: gluing.glue_pullback(cls, m),
               lambda r: len(r.boundary), GLUE_TERMS[m], out)
        values[f"{name}.terms"] = GLUE_TERMS[m]
    for d in FORGET_SWEEP:
        source = gluing.glue_pullback(bn(d), 2 * d - 2)
        name = f"gluing.forget_pullback.d{d}"
        _sweep(tracer, name, SWEEP_REPS, lambda: gluing.forget_pullback(source, 4 * d - 2),
               lambda r: len(r.boundary), FORGET_TERMS[d], out)
        values[f"{name}.terms"] = FORGET_TERMS[d]
    for d in PROFILE_SWEEP:
        name = f"corpus.profile.gonal.d{d}"
        reps = SWEEP_REPS if d < max(PROFILE_SWEEP) else 1  # d = 9 alone takes 1-2 s
        _sweep(tracer, name, reps, lambda: corpus.profile("gonal", d),
               lambda r: len(r.on_boundary), PROFILE_SUPPORT[d], out)
        values[f"{name}.support"] = PROFILE_SUPPORT[d]
    attempted += len(GLUE_SWEEP) + len(FORGET_SWEEP) + len(PROFILE_SWEEP)

    peak_cls = _sweep_class(modules, GLUE_PEAK_M)
    values["gluing.glue_pullback.peak_mib"] = _peak_mib(lambda: gluing.glue_pullback(peak_cls, GLUE_PEAK_M))
    peak_source = gluing.glue_pullback(bn(FORGET_PEAK_D), 2 * FORGET_PEAK_D - 2)
    values["gluing.forget_pullback.peak_mib"] = _peak_mib(
        lambda: gluing.forget_pullback(peak_source, 4 * FORGET_PEAK_D - 2))
    del peak_source

    third = Fraction(-8, 3)
    p, q = scalars.Poly((-2, 1)), scalars.Poly((Fraction(1, 2), 3, 1))
    for name, stmt, number in (
        ("scalars.canon.ns", lambda: scalars.canon(third), 20000),
        ("scalars.format_rat.ns", lambda: scalars.format_rat(third), 20000),
        ("scalars.parse_rat.ns", lambda: scalars.parse_rat("-8/3"), 20000),
        ("scalars.Poly.mul.ns", lambda: p * q, 5000),
    ):
        values[name] = _ns_per_call(stmt, number)
        samples[name] = NS_BATCHES

    tracer.write(work / "spans.jsonl")
    names = [m.name for m in PER_LAYER]
    missing = [n for n in names if n not in values]
    if missing:
        raise RuntimeError(f"traced run produced no value for {missing}")
    return {
        "metrics": {n: values[n] for n in names},
        "samples": {n: samples.get(n, 1) for n in names},
        "attempted": attempted,
        "failed": len(errors),
        "errors": errors[:5],
    }
