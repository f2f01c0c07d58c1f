"""A catalogue of mutants of the package, each with the tests that catch it.

Each entry of ``MUTANTS`` names a file under ``src/effcone``, an exact
snippet of it, the replacement that breaks one check, and the tier-1 tests
that must fail once the snippet is replaced.  ``tests/test_mutants.py``
keeps each snippet occurring exactly once in its file and each named test
defined, so the catalogue cannot drift from the code or the tests.

Run it as:

    python tests/mutants.py

First the union of the named tests runs once on an unmutated copy of
``src/``, ``tests/`` and ``pyproject.toml`` in a temporary directory: a
test that already fails would count every mutant that names it as caught,
so the runner prints each failure and exits 1 before any mutant is applied.
Then each mutant is applied to a fresh copy, and its tests run there in a
child pytest under a timeout.  A mutant is caught
when one of its tests fails; the runner exits 1 when some mutant is caught
by none of them, or its tests cannot be run.

Retired:

- ``constructor: int zeros kept in the copy``.  The constructor's check
  (``picard._checked_boundary``) no longer has a bulk path that copies a
  mapping of plain ints whole, so the ``0 not in values`` test it mutated
  is gone; the one per-entry nonzero gate left is ``constructor: zero
  coefficients kept``.
- ``reader: no marking-type check`` and ``reader: range shift n in place
  of n + 1``.  The batch reader no longer decodes markings as JSON
  integers: each marking line is looked up in a table of the lines of the
  file's markings 1..n alone, built once per read, so no line decodes to
  bit 0 and no tag shift is left to get wrong; a ``true``, a float, a 0 or
  a marking past n is a line not in the table, and a ``KeyError``.
- ``walk: zero coefficient pieces accepted`` and ``batched reader: no
  range check at the end of the array``.  The walk and the line-by-line
  read share one nonzero gate and one line table, so each is one mutant
  above, naming the tests of both.  No check is left after the batch loop
  (the reader once tested the bits of every mask read against n there),
  so ``reader: no range check`` and ``reader: range check one marking too
  wide`` now widen the table's bound.
- ``reader: zero coefficients kept on the bulk path``.  The batch reader
  no longer refuses a zero: it decodes each coefficient as the whole read
  does, and both readers drop zeros through one helper,
  ``files._nonzero``, which ``readers: zero coefficients kept`` mutates.
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
        # the one range check, the line table's bound: a table of all 64
        # lines
        "reader: no range check",
        "batches.py",
        "enumerate(_MARKING_LINES[1:n + 1])",
        "enumerate(_MARKING_LINES[1:])",
        (
            "tests/test_inputs.py::TestBulkReader::test_same_error[marking past n]",
            "tests/test_inputs.py::TestTagExactness::test_every_reader_fault[marking past n]",
            "tests/test_inputs.py::TestBatchedReader::test_a_marking_past_n_in_the_last_entry",
            "tests/test_inputs.py::TestBatchedReader::test_a_marking_past_n_in_the_first_batch_stops_the_read_there[class]",
            "tests/test_inputs.py::TestBatchedReader::test_a_marking_past_n_in_the_first_batch_stops_the_read_there[profile]",
        ),
    ),
    Mutant(
        # the lines of 1..n + 1
        "reader: range check one marking too wide",
        "batches.py",
        "enumerate(_MARKING_LINES[1:n + 1])",
        "enumerate(_MARKING_LINES[1:n + 2])",
        (
            "tests/test_inputs.py::TestBatchedReader::test_a_marking_past_n_in_the_last_entry",
            "tests/test_inputs.py::TestBatchedReader::test_a_marking_past_n_in_the_first_batch_stops_the_read_there[class]",
            "tests/test_inputs.py::TestBatchedReader::test_a_marking_past_n_in_the_first_batch_stops_the_read_there[profile]",
        ),
    ),
    Mutant(
        "reader: one-marking subsets pass the size check",
        "batches.py",
        "                    min(sizes) >= 2\n",
        "                    min(sizes) >= 1\n",
        (
            "tests/test_inputs.py::TestBulkReader::test_same_error[one marking]",
            "tests/test_inputs.py::TestTagExactness::test_every_reader_fault[one marking]",
        ),
    ),
    Mutant(
        # the bit-count check: a repeated marking leaves fewer bits than
        # marking lines
        "reader: no repeated-marking check",
        "batches.py",
        "                    and list(map(int.bit_count, masks)) == sizes\n",
        "",
        (
            "tests/test_inputs.py::TestBulkReader::test_same_error[repeated marking]",
            "tests/test_inputs.py::TestTagExactness::test_every_reader_fault[repeated marking]",
        ),
    ),
    Mutant(
        # the one zero rule, which both readers share, so no comparison of
        # the batch read with the whole read can catch it: only tests that
        # hold an absolute dict
        "readers: zero coefficients kept",
        "files.py",
        "    for mask in [mask for mask, value in out.items() if not value]:\n        del out[mask]\n",
        "",
        (
            "tests/test_inputs.py::TestBoundaryEntries::test_zero_coefficients_are_dropped",
            "tests/test_inputs.py::TestBulkReader::test_a_zero_string_stays_on_the_batch_path",
        ),
    ),
    Mutant(
        # the batch reader's decode narrowed to rational strings, as it was:
        # a polynomial coefficient then sends the file to the whole read
        "reader: string-only coefficient decode",
        "batches.py",
        "    values.update(zip(new, map(scalar_from_json, map(json.loads, new))))\n",
        "    from .scalars import parse_rat\n\n    values.update(zip(new, map(parse_rat, map(json.loads, new))))\n",
        (
            "tests/test_inputs.py::TestReaderGuards::test_a_polynomial_file_stays_on_the_batch_path",
            "tests/test_inputs.py::TestBatchedReader::test_a_dense_file_edited_gives_the_whole_read[polynomial coefficient-1]",
            "tests/test_inputs.py::TestBatchedReader::test_a_dense_file_edited_gives_the_whole_read[polynomial coefficient-65536]",
        ),
    ),
    Mutant(
        # each batch's first entry is no longer checked against the last
        # entry of the batch before
        "batched reader: no duplicate check across batches",
        "batches.py",
        "                z, s = [size, *sizes], [top, *masks]\n",
        "                z, s = [0, *sizes], [0, *masks]\n",
        (
            "tests/test_inputs.py::TestBatchedReader::test_a_subset_twice_across_batches[0-1]",
            "tests/test_inputs.py::TestBatchedReader::test_a_subset_twice_across_batches[245-1]",
        ),
    ),
    Mutant(
        # the first entry of each run is taken for the next subset of the
        # walk, whatever its member text
        "walk: no comparison with the writer's text",
        "batches.py",
        "        if not text.startswith(head, at):\n            return None\n",
        "",
        (
            "tests/test_inputs.py::TestBatchedReader::test_a_dense_file_edited_gives_the_whole_read[marking past n-97]",
            "tests/test_inputs.py::TestBatchedReader::test_the_walk_ends_at_the_first_batch_that_differs[pullback-trigonal-1]",
        ),
    ),
    Mutant(
        # the last entry each step of a run joins is taken to share the
        # run's coefficient, whatever its own
        "walk: run coefficient not compared",
        "batches.py",
        " and text.startswith(between, at + len(joined)):",
        ":",
        (
            "tests/test_inputs.py::TestBatchedReader::test_runs_of_one_coefficient_give_the_whole_read[changed inside a long run-4096]",
            "tests/test_inputs.py::TestBatchedReader::test_runs_of_one_coefficient_give_the_whole_read[prefix coefficient-65536]",
        ),
    ),
    Mutant(
        "walk: run ends one entry late",
        "batches.py",
        "        out += [value] * (i - first)\n",
        "        out += [value] * (i - first + 1)\n",
        (
            "tests/test_inputs.py::TestBatchedReader::test_runs_of_one_coefficient_give_the_whole_read[changed at a run's last entry-65536]",
            "tests/test_inputs.py::TestBatchedReader::test_runs_from_a_small_pool_give_the_whole_read",
        ),
    ),
    Mutant(
        # each walked batch takes the support's ranks from the first on, so
        # ranks of earlier batches index its coefficients from the end
        "walk: support rank slice not advanced",
        "batches.py",
        "                        kept = below\n",
        "",
        (
            "tests/test_inputs.py::TestBatchedReader::test_pullback_files_give_the_whole_read[8-65536]",
            "tests/test_inputs.py::TestBatchedReader::test_runs_of_one_coefficient_give_the_whole_read[all distinct-97]",
        ),
    ),
    Mutant(
        # every size's ranks start one subset late
        "walk: support ranks one place late",
        "batches.py",
        "[count - n - 1 for count in",
        "[count - n for count in",
        (
            "tests/test_inputs.py::TestBatchedReader::test_only_the_support_is_kept",
            "tests/test_cli.py::TestIntersectCommand::test_gp_pairing_prints_minus_sixteen",
        ),
    ),
    Mutant(
        # every file is taken for a class file: a renamed array key is read
        # as the boundary
        "batched reader: any head batched",
        "files.py",
        " for layout in _LAYOUTS if head.startswith(layout.head.encode())), None)",
        " for layout in _LAYOUTS), None)",
        ("tests/test_inputs.py::TestBatchedReader::test_another_layout_is_read_whole[renamed array key]",),
    ),
    Mutant(
        # the pieces no longer close and open their entries' braces
        'writer: pieces joined by "," and a line break instead of _BETWEEN',
        "writer.py",
        "        write(_BETWEEN)\n",
        '        write(",\\n")\n',
        (
            "tests/test_json_text.py::TestGluedViewWriter::test_every_piece_boundary[0]",
            "tests/test_json_text.py::TestListingOfADict::test_every_piece_boundary[dict]",
        ),
    ),
    Mutant(
        # every output written in place: a failure mid-write leaves half a file
        "writer: the output always written in place",
        "writer.py",
        "        if not replaced:\n",
        "        if True:\n",
        ("tests/test_inputs.py::TestWholeOutput::test_a_failure_mid_write_leaves_the_output_as_it_was",),
    ),
    Mutant(
        # the new file keeps the umask mode
        "writer: the mode of the replaced file not carried",
        "writer.py",
        "                    os.fchmod(fd, stat.S_IMODE(found.st_mode))\n",
        "                    pass\n",
        ("tests/test_inputs.py::TestWholeOutput::test_an_existing_file_keeps_its_mode",),
    ),
    Mutant(
        # a taken temporary name is an error that names the output
        "writer: no retry past a taken temporary name",
        "writer.py",
        "            except FileExistsError:\n                attempt += 1\n",
        "",
        ("tests/test_inputs.py::TestWholeOutput::test_a_taken_temporary_name_is_passed_over",),
    ),
    Mutant(
        "batched reader: profile files read whole",
        "files.py",
        '(("boundary", "lambda"), ("on_boundary", "on_lambda"))',
        '(("boundary", "lambda"),)',
        (
            "tests/test_inputs.py::TestReaderGuards::test_exported_files_take_the_bulk_check[profile-gonal(4)]",
            "tests/test_inputs.py::TestReaderGuards::test_a_profile_file_takes_the_bulk_check",
        ),
    ),
    Mutant(
        # a file of the other kind, refused from its tail alone, is then
        # read whole to word the same error
        "batched reader: its parse errors sent to the whole read",
        "cli.py",
        "                except files.NotCanonical:\n",
        "                except (files.NotCanonical, KeyError, TypeError, ValueError):\n",
        (
            "tests/test_inputs.py::TestBatchedReader::test_the_peak_of_a_large_file_is_that_of_the_imports[class as profile]",
            "tests/test_inputs.py::TestBatchedReader::test_the_peak_of_a_large_file_is_that_of_the_imports[class as genus-g class]",
        ),
    ),
    Mutant(
        "reader: the text kept alive past the decode",
        "cli.py",
        "            obj = _decode(path, _text(path))\n",
        "            text = _text(path)\n            obj = _decode(path, text)\n",
        ("tests/test_inputs.py::TestReaderGuards::test_the_text_is_freed_before_the_checks",),
    ),
    Mutant(
        # the constructor's one nonzero gate
        "constructor: zero coefficients kept",
        "picard.py",
        "        if value != 0:\n",
        "        if True:\n",
        (
            "tests/test_picard.py::TestConstruction::test_zero_coefficients_are_pruned",
            "tests/test_picard.py::TestCheckedBoundary::test_same_canonical_entries[int with zeros]",
            "tests/test_picard.py::TestCheckedBoundary::test_same_canonical_entries[zeros of every type]",
        ),
    ),
    Mutant(
        # the profile is handed over unchecked, so the builder's own size
        # gate is all that keeps one-marking subsets out of it
        "gonal builder: one-even subsets listed",
        "corpus.py",
        "            if sub & (sub - 1):\n",
        "            if sub:\n",
        (
            "tests/test_corpus.py::TestGonalBuilder::test_matches_the_combinations_builder[3]",
            "tests/test_corpus.py::TestGonalBuilder::test_a_fixed_point_of_the_checked_constructor[3]",
            "tests/test_corpus.py::TestGonalBuilder::test_a_fixed_point_of_the_checked_constructor[6]",
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
        # the unions of pairs keep no value in a combination of glued views
        "glued combination: _on_pairs left out",
        "gluing.py",
        "            for sums, slots in ((by_size, view._by_size), (on_pairs, view._on_pairs)):\n",
        "            for sums, slots in ((by_size, view._by_size),):\n",
        (
            "tests/test_gluing.py::TestRuleCombination::test_matches_the_combination_of_the_listings",
            "tests/test_picard.py::TestMemoizedLinearCombine::test_matches_the_per_entry_loop",
            "tests/test_cli.py::TestPropertySuite::test_all_properties_hold",
        ),
    ),
    Mutant(
        # two glued views that differ on the unions of pairs alone compare equal
        "glued equality: _by_size alone",
        "gluing.py",
        "        return self._by_size[2:top] == other._by_size[2:top] and self._on_pairs[1:] == other._on_pairs[1:]\n",
        "        return self._by_size[2:top] == other._by_size[2:top]\n",
        (
            "tests/test_gluing.py::TestViewEquality::test_rules_compare_as_their_listings",
            "tests/test_cli.py::TestPropertySuiteCanFail::test_linearity_row_fails_when_one_slot_is_off[a union of pairs]",
        ),
    ),
    Mutant(
        "lift: no projection-formula check",
        "certify.py",
        "    if pushforward_profile(profile, cert.n) != cert.profile:\n",
        "    if False:\n",
        ("tests/test_certify.py::TestLift::test_lift_checks_the_projection_formula",),
    ),
    Mutant(
        # the Riemann-Roch route collapsed onto the Noether route: every row
        # still agrees, so only the walk of what each route reaches sees it
        "chow: hodge_lambda_rr read from hodge_lambda",
        "chow.py",
        "    hodge_lambda_rr = Poly.of(\n"
        "        chi_structure_sheaf(data.k_x, data.c2_tx) - chi_line_bundle(-1 * D, data)\n"
        "    )\n",
        "    hodge_lambda_rr = hodge_lambda\n",
        ("tests/test_independence.py::TestHodgeRoutes::test_riemann_roch_route_skips_the_noether_inputs",),
    ),
    Mutant(
        # the binomial route collapsed onto the direct route, which agrees
        # with it wherever both run
        "gonal: pairing_binomial returns pairing_direct",
        "gonal.py",
        "    return canon(bn_scale(d) * (pairs_term + evens_term + odd_term))\n",
        "    return pairing_direct(d)\n",
        ("tests/test_independence.py::TestGonalRoutes::test_route_reaches_no_pairing_of_the_pullback[gonal.pairing_binomial]",),
    ),
    Mutant(
        "pair symmetry: the swap within pair 1 dropped",
        "properties.py",
        "(2, 1, *rest), ",
        "",
        (
            "tests/test_cli.py::TestPairSymmetryRow::test_only_one_generator_catches_it[swap within pair 1]",
            "tests/test_cli.py::TestPropertySuiteCanFail::test_pair_symmetry_fails_when_relabeling_moves_a_coefficient",
        ),
    ),
    Mutant(
        "pair symmetry: the swap of pairs 1 and 2 dropped",
        "properties.py",
        "(3, 4, 1, 2, *rest[2:]), ",
        "",
        (
            "tests/test_cli.py::TestPairSymmetryRow::test_only_one_generator_catches_it[swap of pairs 1 and 2]",
            "tests/test_cli.py::TestPropertySuiteCanFail::test_pair_symmetry_fails_when_relabeling_moves_a_coefficient",
        ),
    ),
    Mutant(
        # only a mapping moved by the cycle alone, such as one of a subset
        # inside pair 3, shows it
        "pair symmetry: the cycle of the pairs dropped",
        "properties.py",
        ", (*rest, 1, 2)",
        "",
        (
            "tests/test_cli.py::TestPairSymmetryRow::test_only_one_generator_catches_it[cycle of the pairs]",
            "tests/test_cli.py::TestPropertySuiteCanFail::test_pair_symmetry_fails_when_relabeling_moves_a_coefficient",
        ),
    ),
    Mutant(
        "gluing: lambda_family in combination order, not ascending",
        "gluing.py",
        "    return tuple(sorted(sets))\n",
        "    return tuple(sets)\n",
        (
            "tests/test_cli.py::TestPropertySuite::test_all_properties_hold",
            "tests/test_acceptance.py::test_criterion_8_property_suites",
        ),
    ),
    Mutant(
        # f2 no longer restricts to zero on the exceptional surfaces
        "chow: f2 restricted to the ruling in the top form",
        "chow.py",
        "_F2: (0, 0)}",
        "_F2: (0, 1)}",
        (
            "tests/test_chow.py::TestTopForm::test_matches_the_handwritten_table",
            "tests/test_chow.py::TestDerivedSections::test_full_table_check_passes",
        ),
    ),
    Mutant(
        # the one-pass product reads no intersection number with e3
        "chow: product contracts against five generators",
        "chow.py",
        "for k in range(6):",
        "for k in range(5):",
        (
            "tests/test_chow.py::TestProductReference::test_every_generator_pair",
            "tests/test_chow.py::TestProductReference::test_drawn_classes",
            "tests/test_chow.py::TestChernData::test_chi_normalization_on_both_spaces",
        ),
    ),
    Mutant(
        # a sum keeps only the degrees both operands have
        "scalars: Poly sum drops the longer operand's tail",
        "scalars.py",
        " + list(longer[len(shorter):])",
        "",
        (
            "tests/test_scalars.py::TestCanonicalCoefficients::test_ring_operations_match_fraction_lists",
            "tests/test_scalars.py::TestCanonicalCoefficients::test_mixed_operations_match_fraction_lists",
            "tests/test_chow.py::TestFamilyInvariants::test_frozen_polynomials",
        ),
    ),
    Mutant(
        # the first identity's Horner coefficients become the second's
        "properties: binomial Horner coefficient s in place of s - 1",
        "properties.py",
        "(s - 1) * row[s]",
        "s * row[s]",
        (
            "tests/test_cli.py::TestPropertySuite::test_all_properties_hold",
            "tests/test_acceptance.py::test_criterion_8_property_suites",
        ),
    ),
)


def _copy(work: Path) -> None:
    """A fresh copy of the sources, the tests and ``pyproject.toml`` in ``work``."""
    shutil.copytree(ROOT / "src", work / "src", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copytree(ROOT / "tests", work / "tests", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy2(ROOT / "pyproject.toml", work / "pyproject.toml")


def _pytest(work: Path, tests) -> subprocess.CompletedProcess:
    """A child pytest of ``tests`` in ``work``; raises ``TimeoutExpired``."""
    argv = [sys.executable, "-m", "pytest", "-q", "-rf", "-p", "no:cacheprovider", *tests]
    return subprocess.run(argv, cwd=work, capture_output=True, text=True, timeout=TIMEOUT_S)


def _baseline() -> list:
    """The lines that report the failures of every named test, run once on
    an unmutated copy; empty when all of them pass.  A test that fails
    here would count each mutant that names it as caught."""
    tests = sorted({test for mutant in MUTANTS for test in mutant.tests})
    with tempfile.TemporaryDirectory(prefix="effcone-baseline-") as tmp:
        _copy(Path(tmp))
        try:
            done = _pytest(Path(tmp), tests)
        except subprocess.TimeoutExpired:
            return [f"timeout: the {len(tests)} named tests ran past {TIMEOUT_S} s"]
    if done.returncode == 0:
        return []
    failed = [line for line in done.stdout.splitlines() if line.startswith(("FAILED ", "ERROR "))]
    return failed or (done.stdout + done.stderr).strip().splitlines()[-1:]


def _run(mutant: Mutant) -> str:
    """``caught``, ``survived`` or ``error: ...`` for one mutant, run in a
    fresh copy of the sources."""
    with tempfile.TemporaryDirectory(prefix="effcone-mutant-") as tmp:
        work = Path(tmp)
        _copy(work)
        target = work / "src" / "effcone" / mutant.path
        source = target.read_text(encoding="utf-8")
        if source.count(mutant.snippet) != 1:
            return f"error: snippet occurs {source.count(mutant.snippet)} times in {mutant.path}"
        target.write_text(source.replace(mutant.snippet, mutant.replacement), encoding="utf-8")
        try:
            done = _pytest(work, mutant.tests)
        except subprocess.TimeoutExpired:
            return "caught (timeout)"
    return _outcome(done, mutant.tests)


def _outcome(done: subprocess.CompletedProcess, tests) -> str:
    """``caught``, ``survived`` or ``error: ...`` from a child pytest of the
    named ``tests`` run with ``-rf``.  A caught mutant reports how many
    named tests had a failing case: a name without ``[...]`` stands for
    all of its parametrized cases, and counts once however many fail."""
    if done.returncode == 1:  # pytest: some test failed
        failed = [line[len("FAILED "):] + " " for line in done.stdout.splitlines() if line.startswith("FAILED ")]
        caught = [test for test in tests if any(line.startswith((test + " ", test + "[")) for line in failed)]
        return f"caught ({len(caught)} of {len(tests)} tests failed)"
    if done.returncode == 0:
        return "survived"
    tail = (done.stdout + done.stderr).strip().splitlines()[-1:]
    return f"error: pytest exit {done.returncode}: {' '.join(tail)}"


def main() -> int:
    failing = _baseline()
    if failing:
        print("baseline: named tests fail on the unmutated sources", flush=True)
        for line in failing:
            print(f"  {line}", flush=True)
        return 1
    print("baseline: every named test passes on the unmutated sources", flush=True)
    escaped = 0
    for mutant in MUTANTS:
        outcome = _run(mutant)
        escaped += not outcome.startswith("caught")
        print(f"{mutant.name}: {outcome}", flush=True)
    print(f"{len(MUTANTS) - escaped} of {len(MUTANTS)} mutants caught")
    return 1 if escaped else 0


if __name__ == "__main__":
    sys.exit(main())
