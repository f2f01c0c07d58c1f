"""The command-line driver: suites, file commands, exit codes, reports."""

import ast
import json
import os
import random
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest

import effcone
from effcone import certify, chow, cli, corpus, gluing, gonal, picard, suites
from effcone.cli import emit_report, main
from effcone.gluing import GluedBoundary, glue_pullback
from effcone.picard import m1n_class_from_json, subset_mask
from effcone.scalars import scalar_to_json
from effcone.suites import CheckRow
from test_gluing import wall_clock_bound
from test_independence import MODULES, _parse


@pytest.fixture()
def bn3_file(tmp_path):
    path = tmp_path / "bn3.json"
    assert main(["export", "--name", "bn(3)", "--output", str(path)]) == 0
    return path


class TestVerify:
    def test_trigonal_passes(self, capsys):
        assert main(["verify", "trigonal"]) == 0
        out = capsys.readouterr().out
        assert "B.pullback_BN13" in out and "expected=-1 actual=-1" in out
        assert "0 failed" in out

    def test_trigonal_json_row(self, capsys):
        assert main(["verify", "trigonal", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        rows = {row["check"]: row for row in payload["checks"]}
        assert rows["B.pullback_BN13"]["expected"] == "-1"
        assert rows["B.pullback_BN13"]["actual"] == "-1"
        assert rows["B.pullback_BN13"]["status"] == "pass"
        assert payload["summary"]["failed"] == 0

    def test_json_rows_name_their_suite(self, capsys):
        # trigonal and gp both have a pullback_golden_match row
        assert main(["verify", "all", "--json", "--direct-max-d", "3", "--max-d", "4"]) == 0
        checks = json.loads(capsys.readouterr().out)["checks"]
        assert all(set(row) == {"module", "check", "status", "expected", "actual", "citation"} for row in checks)
        golden = sorted(row["module"] for row in checks if row["check"] == "pullback_golden_match")
        assert golden == ["gp", "trigonal"]
        assert {row["module"] for row in checks} == set(cli.SUITES)

    def test_all_passes_quickly_with_small_caps(self, capsys):
        assert main(["verify", "all", "--direct-max-d", "4", "--max-d", "5"]) == 0
        assert "0 failed" in capsys.readouterr().out

    def test_gonal_respects_max_d(self, capsys):
        assert main(["verify", "gonal", "--direct-max-d", "3", "--max-d", "4"]) == 0
        out = capsys.readouterr().out
        assert "sign.d=04" in out and "sign.d=05" not in out

    def test_direct_route_above_the_default_cap(self, capsys):
        assert main(["verify", "gonal", "--direct-max-d", "8", "--max-d", "9", "--json"]) == 0
        rows = {row["check"]: row for row in json.loads(capsys.readouterr().out)["checks"]}
        for d in (7, 8):
            row = rows[f"route_direct.d={d:02d}"]
            assert row["expected"] == row["actual"] == scalar_to_json(gonal.pairing_closed(d))

    def test_tampered_golden_data_fails(self, capsys, monkeypatch):
        honest = corpus.golden_pullback

        def tampered(name):
            cls = honest(name)
            boundary = dict(cls.boundary)
            boundary[subset_mask((1, 2), cls.n)] = -3
            return picard.DivisorClassM1n(cls.n, cls.lam, boundary)

        monkeypatch.setattr(corpus, "golden_pullback", tampered)
        assert main(["verify", "all", "--direct-max-d", "3", "--max-d", "4"]) == 1
        out = capsys.readouterr().out
        assert "FAIL" in out and "247/248" in out
        assert main(["verify", "trigonal"]) == 1

    def test_report_is_byte_deterministic(self, capsys):
        assert main(["verify", "chow", "--json"]) == 0
        first = capsys.readouterr().out
        assert main(["verify", "chow", "--json"]) == 0
        assert capsys.readouterr().out == first


class TestEmitReport:
    def test_empty_report(self):
        assert emit_report([]) == "0 checks, 0 failed\n"

    def test_failing_row_keeps_both_values(self):
        row = CheckRow("m", "c", "1", "2", "why")
        text = emit_report([row])
        assert "FAIL" in text and "expected=1 actual=2" in text
        payload = json.loads(emit_report([row], "json"))
        assert payload["checks"][0]["status"] == "fail"
        assert payload["checks"][0]["expected"] == "1"
        assert payload["checks"][0]["actual"] == "2"

    def test_rows_sorted_by_module_then_check(self):
        rows = [
            CheckRow("zmod", "a", "0", "0", ""),
            CheckRow("amod", "z", "0", "0", ""),
            CheckRow("amod", "a", "0", "0", ""),
        ]
        lines = emit_report(rows).splitlines()[:-1]
        assert [line.split()[1] for line in lines] == ["amod/a", "amod/z", "zmod/a"]


class TestPullbackCommand:
    def test_round_trip_matches_library(self, bn3_file, tmp_path):
        out = tmp_path / "pb.json"
        code = main(
            ["pullback", "--g", "5", "--m", "4", "--input", str(bn3_file), "--output", str(out)]
        )
        assert code == 0
        written = m1n_class_from_json(json.loads(out.read_text()))
        assert written == glue_pullback(corpus.bn_class(3), 4)

    def test_writes_to_stdout_without_output(self, bn3_file, capsys):
        assert main(["pullback", "--g", "5", "--m", "4", "--input", str(bn3_file)]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["lambda"] == "4"

    def test_genus_flag_mismatch(self, bn3_file, capsys):
        assert main(["pullback", "--g", "4", "--m", "3", "--input", str(bn3_file)]) == 2
        assert "genus" in capsys.readouterr().err

    def test_malformed_json_reports_location(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text('{"space": {"type": "Mg", "g": 5}, ')
        assert main(["pullback", "--g", "5", "--m", "4", "--input", str(bad)]) == 2
        err = capsys.readouterr().err
        assert "line" in err and "column" in err

    def test_missing_file(self, tmp_path, capsys):
        missing = tmp_path / "nope.json"
        assert main(["pullback", "--g", "5", "--m", "4", "--input", str(missing)]) == 2
        assert "cannot read" in capsys.readouterr().err

    def test_wrong_schema(self, tmp_path, capsys):
        wrong = tmp_path / "wrong.json"
        wrong.write_text('{"space": {"type": "M1n", "n": 8}}')
        assert main(["pullback", "--g", "5", "--m", "4", "--input", str(wrong)]) == 2


class TestIntersectCommand:
    def test_gp_pairing_prints_minus_sixteen(self, tmp_path, capsys):
        prof = tmp_path / "prof.json"
        cls = tmp_path / "cls.json"
        assert main(["export", "--name", "profile-gp", "--output", str(prof)]) == 0
        assert main(["export", "--name", "pullback-gp", "--output", str(cls)]) == 0
        assert main(["intersect", "--profile", str(prof), "--class", str(cls)]) == 0
        assert capsys.readouterr().out.strip() == "-16"

    def test_space_mismatch_is_an_input_error(self, tmp_path, capsys):
        prof = tmp_path / "prof.json"
        cls = tmp_path / "cls.json"
        assert main(["export", "--name", "profile-gp", "--output", str(prof)]) == 0
        assert main(["export", "--name", "pullback-trigonal", "--output", str(cls)]) == 0
        assert main(["intersect", "--profile", str(prof), "--class", str(cls)]) == 2


class TestExportCommand:
    def test_known_names(self, tmp_path):
        for name in (
            "gp",
            "bn(4)",
            "pullback-trigonal",
            "pullback-gp",
            "profile-trig",
            "profile-bnd",
            "profile-gp",
            "profile-gonal(3)",
        ):
            target = tmp_path / "out.json"
            assert main(["export", "--name", name, "--output", str(target)]) == 0
            json.loads(target.read_text())

    def test_unknown_name(self, capsys):
        assert main(["export", "--name", "hyperelliptic"]) == 2
        assert "unknown corpus item" in capsys.readouterr().err

    def test_bad_parameter(self, capsys):
        assert main(["export", "--name", "bn(2)"]) == 2

    @pytest.mark.parametrize("d", [18, 60000])
    def test_bn_past_64_markings_is_refused_before_it_is_built(self, capsys, d):
        """bn(d) pulls back to 4d - 4 markings, so d >= 18 has no pullback
        any command can take; bn(60000) alone takes seconds to build."""
        with wall_clock_bound(2):
            assert main(["export", "--name", f"bn({d})"]) == 2
        assert f"marking count must be in 2..64, got {4 * d - 4}" in capsys.readouterr().err

    def test_export_is_deterministic(self, tmp_path):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        assert main(["export", "--name", "profile-gonal(4)", "--output", str(a)]) == 0
        assert main(["export", "--name", "profile-gonal(4)", "--output", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()


class TestInternalFailures:
    """A consistency failure inside a suite is a failing row and exit 1."""

    SMALL = ("--direct-max-d", "4", "--max-d", "5")

    def _fails_once(self, capsys, monkeypatch, module, name, error, suite):
        def broken(*args, **kwargs):
            raise error

        monkeypatch.setattr(module, name, broken)
        assert main(["verify", "all", "--json", *self.SMALL]) == 1
        checks = json.loads(capsys.readouterr().out)["checks"]
        failing = [row for row in checks if row["status"] == "fail"]
        assert [row["check"] for row in failing] == ["internal_error"]
        assert failing[0]["actual"] == f"{type(error).__name__}: {error}"
        assert "pullback_golden_match" in {row["check"] for row in checks}
        assert main(["verify", suite]) == 1
        assert f"FAIL  {suite}/internal_error" in capsys.readouterr().out

    def test_arithmetic_error_in_lift(self, capsys, monkeypatch):
        error = ArithmeticError("lift changed the pairing: -1 became -2")
        self._fails_once(capsys, monkeypatch, certify, "lift", error, "certify")

    def test_integrality_error(self, capsys, monkeypatch):
        error = chow.IntegralityError("c2 is not divisible by 12: got 1/2")
        self._fails_once(capsys, monkeypatch, chow, "family_invariants", error, "chow")

    def test_certificate_refused(self, capsys, monkeypatch):
        error = certify.CertificateRefused("pairing 1 is nonnegative; no extremality certificate", 1)
        self._fails_once(capsys, monkeypatch, certify, "certify", error, "certify")

    def test_lift_that_breaks_the_projection_formula(self, capsys, monkeypatch):
        pushforward = certify.pushforward_profile

        def skewed(profile, m):
            out = pushforward(profile, m)
            return picard.CurveProfile(m, out.on_lambda, {**out.on_boundary, 3: 7})

        monkeypatch.setattr(certify, "pushforward_profile", skewed)
        assert main(["verify", "certify", "--json", *self.SMALL]) == 1
        checks = json.loads(capsys.readouterr().out)["checks"]
        failing = [row for row in checks if row["status"] == "fail"]
        assert [row["check"] for row in failing] == ["internal_error"]
        assert "does not push forward" in failing[0]["actual"]
        assert main(["verify", "certify"]) == 1
        assert "FAIL  certify/internal_error" in capsys.readouterr().out

    def test_usage_errors_still_exit_two(self, capsys):
        assert main(["verify", "gonal", "--max-d", "2"]) == 2
        assert "error: report range" in capsys.readouterr().err


class TestUsageErrors:
    def test_no_arguments(self, capsys):
        assert main([]) == 2

    def test_unknown_suite(self, capsys):
        assert main(["verify", "quartic"]) == 2

    def test_help_exits_zero(self, capsys):
        assert main(["--help"]) == 0


class TestPropertySuite:
    def test_all_properties_hold(self):
        rows = cli.property_suite(reps=30)
        assert all(row.ok for row in rows)
        names = {row.check for row in rows}
        assert names == {
            "pair_bilinearity",
            "pullback_linearity",
            "pullback_pair_symmetry",
            "lambda_family_sizes",
            "binomial_identities",
            "top_form_symmetry",
        }


class TestSuiteRegistry:
    NAMES = ("trigonal", "gonal", "gp", "chow", "certify", "properties")
    SMALL = ("--direct-max-d", "4", "--max-d", "5")

    def _checks(self, capsys, suite):
        assert main(["verify", suite, "--json", *self.SMALL]) == 0
        return json.loads(capsys.readouterr().out)["checks"]

    def test_all_is_the_union_of_the_suites(self, capsys):
        def key(row):
            return json.dumps(row, sort_keys=True)

        everything = self._checks(capsys, "all")
        parts = [row for name in self.NAMES for row in self._checks(capsys, name)]
        assert sorted(everything, key=key) == sorted(parts, key=key)

    @pytest.mark.parametrize("suite", ["certify", "properties"])
    def test_every_suite_is_selectable(self, capsys, suite):
        assert main(["verify", suite]) == 0
        out = capsys.readouterr().out
        assert out.startswith(f"PASS  {suite}/") and "0 failed" in out

    def test_suites_are_looked_up_when_run(self, capsys, monkeypatch):
        monkeypatch.setattr(cli, "gp_suite", lambda: [CheckRow("gp", "replaced", "0", "1", "")])
        assert main(["verify", "gp"]) == 1
        assert "FAIL  gp/replaced" in capsys.readouterr().out


class TestWholeReport:
    def test_verify_all_matches_the_recorded_report(self, capsys):
        """Every row of ``verify all``, byte for byte: a dropped, renamed or
        reworded row shows here, not only in the summary count."""
        recorded = (Path(__file__).parent / "data" / "verify_all.txt").read_text(encoding="utf-8")
        assert main(["verify", "all"]) == 0
        assert capsys.readouterr().out == recorded


class TestNoetherRow:
    def test_fails_when_the_canonical_square_is_off(self, capsys, monkeypatch):
        """``noether_identity`` compares Noether's formula with the
        Riemann-Roch Hodge degree, so a wrong K_D^2 fails it even though
        the Noether-route degree is recomputed from that wrong value."""
        honest = chow.family_invariants

        def skewed():
            inv = honest()
            kd_squared = inv.kd_squared + 12
            hodge_lambda = chow._exact_div(kd_squared + inv.c2_td, 12, "K_D^2 + c2(T_D)")
            return inv._replace(kd_squared=kd_squared, hodge_lambda=hodge_lambda)

        monkeypatch.setattr(chow, "family_invariants", skewed)
        assert main(["verify", "chow", "--json"]) == 1
        status = {row["check"]: row["status"] for row in json.loads(capsys.readouterr().out)["checks"]}
        assert status["noether_identity"] == "fail"


class TestPropertySuiteCanFail:
    REPS = 10

    def _actual(self):
        return {row.check: row.actual for row in cli.property_suite(reps=self.REPS)}

    def test_pair_symmetry_fails_when_relabeling_moves_a_coefficient(self, monkeypatch):
        """The pair-symmetry pullbacks are built once, but each of B_m's
        three generators still relabels each of the three through
        ``permute_markings``, whatever ``reps`` is."""
        honest = picard.permute_markings

        def skewed(cls, sigma):
            moved = honest(cls, sigma)
            boundary = dict(moved.boundary)
            mask = min(boundary)
            boundary[mask] += 1
            return picard.DivisorClassM1n(moved.n, moved.lam, boundary)

        monkeypatch.setattr(picard, "permute_markings", skewed)
        actual = self._actual()
        assert actual["pullback_pair_symmetry"] == "9 failures"
        assert actual["pair_bilinearity"] == actual["pullback_linearity"] == "0 failures"

    def test_linearity_rows_fail_when_combination_is_off(self, monkeypatch):
        honest = picard.linear_combine

        def skewed(terms):
            combo = honest(terms)
            return picard.DivisorClassM1n(combo.n, combo.lam + 1, combo.boundary)

        monkeypatch.setattr(picard, "linear_combine", skewed)
        actual = self._actual()
        assert actual["pair_bilinearity"] != "0 failures"
        assert actual["pullback_linearity"] == f"{self.REPS} failures"
        assert actual["pullback_pair_symmetry"] == "0 failures"

    def test_binomial_identities_fail_when_binom_is_off(self, monkeypatch):
        """Both identities read ``binom``; one wrong at s = 2 fails them."""
        honest = suites.binom
        monkeypatch.setattr(suites, "binom", lambda n, k: honest(n, k) + (k == 2))
        actual = self._actual()
        assert actual["binomial_identities"] != "0 failures"
        assert actual["pair_bilinearity"] == actual["pullback_linearity"] == "0 failures"


def _fixed_by_two(m):
    """Per generator of B_m (m >= 3), in ``suites.pair_generators`` order,
    subsets of a mapping that the other two generators fix and it moves."""
    def pair(k):
        return 2 * (k % m) + 1, 2 * (k % m) + 2

    odd = range(1, 2 * m, 2)
    return [
        [(a, b) for a in odd for b in odd if a < b],  # odd markings only
        [(pair(k)[e], *pair(k + 1)) for k in range(m) for e in (0, 1)],  # a pair's next pair
        [(5, 6)],  # pair 3 alone
    ]


class TestPairSymmetryRow:
    """``properties/pullback_pair_symmetry`` relabels each of its three
    pullbacks by the generators of B_m.  Each case gives the row, in place
    of every pullback, a mapping that two of the generators fix: only the
    third catches it, once per pullback."""

    def test_the_generators(self):
        assert suites.pair_generators(3) == ((2, 1, 3, 4, 5, 6), (3, 4, 1, 2, 5, 6), (3, 4, 5, 6, 1, 2))

    @pytest.mark.parametrize(
        "moved", [0, 1, 2], ids=["swap within pair 1", "swap of pairs 1 and 2", "cycle of the pairs"]
    )
    def test_only_one_generator_catches_it(self, monkeypatch, moved):
        def skewed(source, m):
            masks = [subset_mask(members, 2 * m) for members in _fixed_by_two(m)[moved]]
            cls = picard.DivisorClassM1n(2 * m, 0, dict.fromkeys(masks, 1))
            fixed = [picard.permute_markings(cls, sigma) == cls for sigma in suites.pair_generators(m)]
            assert fixed == [k != moved for k in range(3)]
            return cls

        monkeypatch.setattr(gluing, "glue_pullback", skewed)
        rows = {row.check: row.actual for row in cli.property_suite(reps=0)}
        assert rows["pullback_pair_symmetry"] == "3 failures"


class TestPropertyStream:
    def test_the_draws_are_pinned(self, monkeypatch):
        """After the suite, its generator yields the value it yielded when
        this test was written, so that a row made faster can never change,
        skip or add a draw unnoticed."""
        made = []

        class Captured(random.Random):
            def __init__(self, *args):
                super().__init__(*args)
                made.append(self)

        monkeypatch.setattr(random, "Random", Captured)
        assert all(row.ok for row in cli.property_suite())
        assert len(made) == 1 and made[0].getrandbits(64) == 1542893947892675325


class TestPropertySuiteListing:
    def test_pair_symmetry_pullbacks_are_listed_once(self, monkeypatch):
        """The 8- and 12-marking glued pullbacks are listed once for the
        whole suite, not once per rep."""
        listed = Counter()
        honest = GluedBoundary.items

        def counted(self):
            listed[self.n] += 1
            return honest(self)

        monkeypatch.setattr(GluedBoundary, "items", counted)
        assert all(row.ok for row in cli.property_suite())
        assert listed[12] == 1 and listed[8] == 1


class TestLambdaFamilyRow:
    """``properties/lambda_family_sizes`` reads the pair-union predicate
    through ``GluedBoundary.get``, so a skewed predicate fails the row once
    for each pair count m = 2..6 it shows at."""

    @pytest.mark.parametrize(
        "mask, value",
        [(0b0110, 1), (0b1111, None)],
        ids=["{2, 3} read as a union of pairs", "{1, 2, 3, 4} read as none"],
    )
    def test_a_skewed_get_fails_the_row(self, monkeypatch, mask, value):
        honest = GluedBoundary.get

        def skewed(self, asked, default=None):
            if asked == mask:
                return default if value is None else value
            return honest(self, asked, default)

        monkeypatch.setattr(GluedBoundary, "get", skewed)
        rows = {row.check: row for row in cli.property_suite(reps=1)}
        assert rows["lambda_family_sizes"].actual == "5 failures"


class TestClosedStdout:
    """A reader that stops after the first line (``| head -1``) ends the
    command with exit 1 and nothing on stderr: no traceback, and no
    "Exception ignored" from the flush at exit."""

    @pytest.mark.parametrize(
        "args",
        [
            ["pullback", "--g", "9", "--m", "8", "--input", "bn5.json"],
            ["export", "--name", "profile-gonal(7)"],
        ],
    )
    def test_no_traceback(self, tmp_path, args):
        assert main(["export", "--name", "bn(5)", "--output", str(tmp_path / "bn5.json")]) == 0
        env = {**os.environ, "PYTHONPATH": str(Path(effcone.__file__).resolve().parents[1])}
        read_end, write_end = os.pipe()
        with subprocess.Popen(
            [sys.executable, "-m", "effcone.cli", *args],
            cwd=tmp_path, env=env, stdout=write_end, stderr=subprocess.PIPE,
        ) as child:
            os.close(write_end)
            with open(read_end, "rb") as out:
                first = out.readline()
            _, err = child.communicate(timeout=60)
        assert first == b"{\n"
        assert child.returncode == 1 and err == b""


# Runs in a fresh interpreter: imports effcone.cli, runs each command line
# given as JSON through main(), and prints the exit code and which of
# HEAVY are loaded after each.
STARTUP_CHILD = """
import contextlib, io, json, sys
HEAVY = (
    "effcone.corpus", "effcone.gluing", "effcone.gonal", "effcone.chow", "effcone.certify", "dataclasses",
    "effcone.suites", "effcone.batches", "effcone.writer", "random", "pathlib",
)
def loaded():
    return [name for name in HEAVY if name in sys.modules]
from effcone import cli
report = [["import", 0, loaded()]]
for step in json.loads(sys.argv[1]):
    with contextlib.redirect_stdout(io.StringIO()):
        report.append([" ".join(step), cli.main(step), loaded()])
print(json.dumps(report))
"""


class TestStartupImports:
    """Commands load only the modules they run: ``corpus``, ``gluing`` and
    ``gonal`` with the commands that call them, ``chow`` and ``certify``
    with their suites, the suites (and ``random``) with ``verify`` alone,
    the batch reader with a file read in batches and the writer with a
    written file, and no module on the shared path needs ``dataclasses``
    or ``pathlib``.  The child runs without ``site`` (``-S``), so only
    effcone's own imports are seen."""

    @staticmethod
    def _run(steps, cwd):
        env = {**os.environ, "PYTHONPATH": str(Path(effcone.__file__).resolve().parents[1])}
        child = subprocess.run(
            [sys.executable, "-S", "-c", STARTUP_CHILD, json.dumps(steps)],
            cwd=cwd, env=env, capture_output=True, text=True, check=True,
        )
        return json.loads(child.stdout)

    def test_commands_without_chow_or_certify_load_neither(self, tmp_path):
        steps = [
            ["export", "--name", "bn(3)", "--output", "bn3.json"],
            ["export", "--name", "profile-trig", "--output", "trig.json"],
            ["pullback", "--g", "5", "--m", "4", "--input", "bn3.json", "--output", "pulled.json"],
            ["intersect", "--profile", "trig.json", "--class", "pulled.json"],
            ["verify", "gonal"],
        ]
        report = self._run(steps, tmp_path)
        assert [step for step, _, _ in report] == ["import"] + [" ".join(s) for s in steps]
        unshared = {"effcone.chow", "effcone.certify", "dataclasses"}
        assert [(step, code, heavy) for step, code, heavy in report if code or unshared & set(heavy)] == []

    def test_verify_all_loads_both_suites_modules_without_dataclasses(self, tmp_path):
        (_, after) = self._run([["verify", "all"]], tmp_path)
        assert after[1] == 0
        assert after[2] == [
            "effcone.corpus", "effcone.gluing", "effcone.gonal", "effcone.chow", "effcone.certify",
            "effcone.suites", "random",
        ]

    @pytest.mark.parametrize("step, loaded", [
        (["intersect", "--profile", "trig.json", "--class", "pulled.json"], ["effcone.batches"]),
        # a genus-g input is read whole, so the batch reader stays unloaded
        (["pullback", "--g", "5", "--m", "4", "--input", "bn3.json", "--output", "out.json"],
         ["effcone.gluing", "effcone.writer"]),
        (["export", "--name", "profile-gonal(4)", "--output", "out.json"], ["effcone.corpus", "effcone.writer"]),
        (["export", "--name", "bn(3)", "--output", "out.json"], ["effcone.corpus", "effcone.writer"]),
        (["verify", "gonal", "--max-d", "5"],
         ["effcone.corpus", "effcone.gluing", "effcone.gonal", "effcone.suites", "random"]),
        (["verify", "trigonal"], ["effcone.corpus", "effcone.gluing", "effcone.suites", "random"]),
        (["pullback", "--g", "5", "--m", "4", "--input", "bn3.json"], ["effcone.gluing", "effcone.writer"]),
    ])
    def test_each_command_loads_only_the_modules_it_runs(self, tmp_path, step, loaded):
        for argv in (
            ["export", "--name", "bn(3)", "--output", "bn3.json"],
            ["export", "--name", "profile-trig", "--output", "trig.json"],
            ["pullback", "--g", "5", "--m", "4", "--input", "bn3.json", "--output", "pulled.json"],
        ):
            assert main([argv[0], *(str(tmp_path / a) if a.endswith(".json") else a for a in argv[1:])]) == 0
        (before, after) = self._run([step], tmp_path)
        assert before[2] == [] and after[1:] == [0, loaded]

    @pytest.mark.parametrize("suite,module", [("chow", "effcone.chow"), ("certify", "effcone.certify")])
    def test_a_suite_loads_its_module(self, tmp_path, suite, module):
        # positive control: the check sees a module once its suite runs
        (before, after) = self._run([["verify", suite, "--direct-max-d", "4"]], tmp_path)
        assert before[2] == [] and after[1] == 0 and module in after[2]

    @staticmethod
    def _imports_cli(tree):
        """Whether the syntax tree of a package module imports
        ``effcone.cli``, in any spelling."""
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                names = {alias.name for alias in node.names}
            elif isinstance(node, ast.ImportFrom):
                base = ".".join(filter(None, ["effcone" if node.level else None, node.module]))
                names = {base} | {f"{base}.{alias.name}" for alias in node.names}
            else:
                continue
            if "effcone.cli" in names:
                return True
        return False

    def test_no_module_imports_the_command_line(self):
        """Under ``python -m effcone.cli`` the command line runs as
        ``__main__``, so a module that imports ``effcone.cli`` would compile
        and run ``cli.py`` a second time."""
        assert [module for module in MODULES if self._imports_cli(_parse(module))] == []

    @pytest.mark.parametrize("source", [
        "from . import cli", "from .cli import CheckRow", "import effcone.cli",
        "from effcone import cli", "from effcone.cli import main", "def f():\n    from . import cli",
    ])
    def test_every_spelling_of_the_import_is_seen(self, source):
        # positive control for the check above
        assert self._imports_cli(ast.parse(source))
        assert not self._imports_cli(ast.parse(source.replace("cli", "picard")))
