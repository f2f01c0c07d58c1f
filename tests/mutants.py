"""A catalogue of mutants of the package, each with the tests that catch it.

Each entry of ``MUTANTS`` names a file under ``src/effcone``, an exact
snippet of it, the replacement that breaks one check, and the tier-1 tests
that must fail once the snippet is replaced.  ``tests/test_mutants.py``
keeps each snippet occurring exactly once in its file and each named test
defined, so the catalogue cannot drift from the code or the tests.

Run it as:

    python tests/mutants.py

Each mutant is applied to a copy of ``src/``, ``tests/`` and
``pyproject.toml`` in a temporary directory, and its tests run there in a
child pytest under a timeout.  A mutant is caught
when one of its tests fails; the runner exits 1 when some mutant is caught
by none of them, or its tests cannot be run.

Left out, as equivalent mutants:

- A string gate on the reader's coefficients.  ``_tagged_boundary`` has
  none to remove: a polynomial (a list) fails ``set()`` and any other
  non-string, a tag included, fails ``parse_rat``, so both already put the
  document back to plain for the entry loop, and a gate added or dropped
  changes no result.
"""

from __future__ import annotations

import shutil
import subprocess
import sys
import tempfile
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parent.parent
TIMEOUT_S = 300


class Mutant(NamedTuple):
    name: str
    path: str  # relative to src/effcone
    snippet: str
    replacement: str
    tests: tuple


MUTANTS = (
    Mutant(
        "reader: no duplicate check",
        "picard.py",
        "    return out if len(out) == len(masks) else None\n",
        "    return out\n",
        (
            "tests/test_inputs.py::TestBulkReader::test_same_error[subset twice]",
            "tests/test_inputs.py::TestBoundaryEntries::test_malformed_class[subset twice]",
        ),
    ),
    Mutant(
        "reader: no range check",
        "picard.py",
        "not bits >> (n + 1) and ",
        "",
        (
            "tests/test_inputs.py::TestBulkReader::test_same_error[marking past n]",
            "tests/test_inputs.py::TestBoundaryEntries::test_malformed_class[marking past n]",
        ),
    ),
    Mutant(
        "reader: range shift n in place of n + 1",
        "picard.py",
        "not bits >> (n + 1)",
        "not bits >> n",
        (
            "tests/test_inputs.py::TestReaderGuards::test_pullback_files_take_the_bulk_check[8]",
            "tests/test_inputs.py::TestReaderGuards::test_exported_files_take_the_bulk_check[pullback-gp]",
        ),
    ),
    Mutant(
        "reader: one-marking subsets pass the size check",
        "picard.py",
        "        and min(sizes) >= 2\n",
        "        and min(sizes) >= 1\n",
        (
            "tests/test_inputs.py::TestBulkReader::test_same_error[one marking]",
            "tests/test_inputs.py::TestBoundaryEntries::test_malformed_profile[one marking]",
        ),
    ),
    Mutant(
        # the bit-count check: a false or a repeated marking leaves fewer
        # bits than members
        "reader: no repeated-marking check",
        "picard.py",
        "        and list(map(int.bit_count, sums)) == sizes\n",
        "",
        (
            "tests/test_inputs.py::TestBulkReader::test_same_error[repeated marking]",
            "tests/test_inputs.py::TestBoundaryEntries::test_malformed_class[repeated marking]",
        ),
    ),
    Mutant(
        # the bit-0 check: a true marking sets bit 0
        "reader: no marking-type check",
        "picard.py",
        " and not bits & 1",
        "",
        (
            "tests/test_inputs.py::TestBulkReader::test_same_error[bool marking]",
            "tests/test_inputs.py::TestIntegerFields::test_markings[members0]",
        ),
    ),
    Mutant(
        "reader: zero coefficients kept on the bulk path",
        "picard.py",
        "        all(map(parsed.__getitem__, new))\n        and ",
        "        ",
        (
            "tests/test_inputs.py::TestBulkReader::test_a_zero_string_goes_through_the_entry_loop",
            "tests/test_inputs.py::TestBulkReader::test_same_dict_in_the_same_order",
        ),
    ),
    Mutant(
        # each batch's first entry is no longer checked against the last
        # entry of the batch before
        "batched reader: no duplicate check across batches",
        "picard.py",
        "                z, s = [size, *sizes], [top, *sums]\n",
        "                z, s = [0, *sizes], [0, *sums]\n",
        (
            "tests/test_inputs.py::TestBatchedReader::test_a_subset_twice_across_batches[0-1]",
            "tests/test_inputs.py::TestBatchedReader::test_a_subset_twice_across_batches[245-1]",
        ),
    ),
    Mutant(
        "batched reader: no range check at the end of the array",
        "picard.py",
        "    if not (size and _in_range(bits, doc.n)):",
        "    if not size:",
        ("tests/test_inputs.py::TestBatchedReader::test_a_marking_past_n_in_the_last_entry",),
    ),
    Mutant(
        "batched reader: any head batched",
        "picard.py",
        "    if head != _CLASS_HEAD or mid < 0:\n",
        "    if mid < 0:\n",
        ("tests/test_inputs.py::TestBatchedReader::test_another_layout_is_read_whole[renamed array key]",),
    ),
    Mutant(
        "reader: inverse tag map off by one",
        "picard.py",
        "                node[key] = value.bit_length() - 1\n",
        "                node[key] = value.bit_length()\n",
        (
            "tests/test_inputs.py::TestBulkReader::test_a_zero_string_goes_through_the_entry_loop",
            "tests/test_inputs.py::TestTagExactness::test_class_files",
        ),
    ),
    Mutant(
        "reader: the text kept alive past the decode",
        "cli.py",
        "        obj = _decode(path, _text(path))\n",
        "        text = _text(path)\n        obj = _decode(path, text)\n",
        ("tests/test_inputs.py::TestReaderGuards::test_the_text_is_freed_before_the_checks",),
    ),
    Mutant(
        "constructor: int zeros kept in the copy",
        "picard.py",
        "    if set(map(type, values)) == {int} and 0 not in values:\n",
        "    if set(map(type, values)) == {int}:\n",
        (
            "tests/test_picard.py::TestConstruction::test_zero_coefficients_are_pruned",
            "tests/test_picard.py::TestCheckedBoundary::test_same_canonical_entries[int with zeros]",
        ),
    ),
    Mutant(
        "forgetful view: the base read at T, not T & {1..m}",
        "gluing.py",
        "        return self.base.get(mask & self._low, default)\n",
        "        return self.base.get(mask, default)\n",
        ("tests/test_gluing.py::TestForgetfulView::test_dict_source[5]",),
    ),
    Mutant(
        "lift: no projection-formula check",
        "certify.py",
        "    if pushforward_profile(profile, cert.n) != cert.profile:\n",
        "    if False:\n",
        ("tests/test_certify.py::TestLift::test_lift_checks_the_projection_formula",),
    ),
)


def _run(mutant: Mutant) -> str:
    """``caught``, ``survived`` or ``error: ...`` for one mutant, run in a
    fresh copy of the sources."""
    with tempfile.TemporaryDirectory(prefix="effcone-mutant-") as tmp:
        work = Path(tmp)
        shutil.copytree(ROOT / "src", work / "src", ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copytree(ROOT / "tests", work / "tests", ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy2(ROOT / "pyproject.toml", work / "pyproject.toml")
        target = work / "src" / "effcone" / mutant.path
        source = target.read_text(encoding="utf-8")
        if source.count(mutant.snippet) != 1:
            return f"error: snippet occurs {source.count(mutant.snippet)} times in {mutant.path}"
        target.write_text(source.replace(mutant.snippet, mutant.replacement), encoding="utf-8")
        argv = [sys.executable, "-m", "pytest", "-q", "-rf", "-p", "no:cacheprovider", *mutant.tests]
        try:
            done = subprocess.run(argv, cwd=work, capture_output=True, text=True, timeout=TIMEOUT_S)
        except subprocess.TimeoutExpired:
            return "caught (timeout)"
    if done.returncode == 1:  # pytest: some test failed
        failed = sum(line.startswith("FAILED ") for line in done.stdout.splitlines())
        return f"caught ({failed} of {len(mutant.tests)} tests failed)"
    if done.returncode == 0:
        return "survived"
    tail = (done.stdout + done.stderr).strip().splitlines()[-1:]
    return f"error: pytest exit {done.returncode}: {' '.join(tail)}"


def main() -> int:
    escaped = 0
    for mutant in MUTANTS:
        outcome = _run(mutant)
        escaped += not outcome.startswith("caught")
        print(f"{mutant.name}: {outcome}", flush=True)
    print(f"{len(MUTANTS) - escaped} of {len(MUTANTS)} mutants caught")
    return 1 if escaped else 0


if __name__ == "__main__":
    sys.exit(main())
