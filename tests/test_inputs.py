"""Strict input files: every malformed scalar, marking or space size is an
input error (exit 2), and no pullback leaves the 64-marking range."""

import errno
import gc
import json
import os
import signal
import stat
import subprocess
import sys
import tempfile
import threading
import tracemalloc
from fractions import Fraction
from itertools import combinations
from pathlib import Path
from types import SimpleNamespace
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import rationals
from effcone import batches, cli, corpus, gonal, picard, writer
from effcone.cli import main
from effcone.gluing import forget_pullback, glue_pullback
from effcone.picard import DivisorClassM1n, DivisorClassMg
from effcone.scalars import format_rat, parse_rat, scalar_from_json, scalar_to_json
from test_gluing import wall_clock_bound
from texts import json_text

BAD_RATIONALS = [
    "1e3",
    " 1_0 ",
    "1_0",
    "1.5",
    "+3",
    "٣",  # ARABIC-INDIC DIGIT THREE
    "1/0",
    "0/0",
    "1/-2",
    "-",
    "",
    " 3",
    "3\n",
    "0x10",
    "inf",
    "nan",
    3,
    1.5,
    True,
    None,
]


@pytest.fixture()
def files(tmp_path):
    """The trigonal profile and the pullback it pairs with, as JSON objects
    and as files, plus a writer for edited copies."""
    prof, cls = tmp_path / "prof.json", tmp_path / "cls.json"
    assert main(["export", "--name", "profile-trig", "--output", str(prof)]) == 0
    assert main(["export", "--name", "pullback-trigonal", "--output", str(cls)]) == 0

    def write(name, obj):
        path = tmp_path / name
        path.write_text(json.dumps(obj))
        return str(path)

    return SimpleNamespace(
        prof=json.loads(prof.read_text()),
        cls=json.loads(cls.read_text()),
        prof_path=str(prof),
        cls_path=str(cls),
        write=write,
    )


def _intersect_fails(capsys, profile, class_file):
    assert main(["intersect", "--profile", profile, "--class", class_file]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "Traceback" not in err


class TestRationalGrammar:
    @pytest.mark.parametrize(
        "text, value",
        [("0", 0), ("-0", 0), ("007", 7), ("-12", -12), ("3/2", Fraction(3, 2)), ("-6/4", Fraction(-3, 2)), ("6/3", 2)],
    )
    def test_accepts_integers_and_quotients(self, text, value):
        parsed = parse_rat(text)
        assert parsed == value and type(parsed) is type(value)

    @pytest.mark.parametrize("text", BAD_RATIONALS)
    def test_rejects_everything_else(self, text):
        with pytest.raises(ValueError):
            parse_rat(text)

    @pytest.mark.parametrize("entry", [["1", "1e3"], ["1/0", "1"], ["1", 2], ["1", " 2"]])
    def test_polynomial_entries_are_strict(self, entry):
        with pytest.raises(ValueError):
            scalar_from_json(entry)

    @pytest.mark.parametrize("text", BAD_RATIONALS)
    def test_profile_on_lambda(self, files, capsys, text):
        bad = files.write("bad.json", {**files.prof, "on_lambda": text})
        _intersect_fails(capsys, bad, files.cls_path)

    @pytest.mark.parametrize("text", [" 1_0 ", "1/0", "1.5"])
    def test_profile_coefficient(self, files, capsys, text):
        entries = [{**files.prof["on_boundary"][0], "coeff": text}, *files.prof["on_boundary"][1:]]
        bad = files.write("bad.json", {**files.prof, "on_boundary": entries})
        _intersect_fails(capsys, bad, files.cls_path)

    @pytest.mark.parametrize("value", [["1", "1e3"], ["1/0", "1"], ["1", 2]])
    def test_class_polynomial_lambda(self, files, capsys, value):
        bad = files.write("bad.json", {**files.cls, "lambda": value})
        _intersect_fails(capsys, files.prof_path, bad)


class TestIntegerFields:
    @pytest.mark.parametrize("members", [[True, 2], [1, False], [1.0, 2], ["1", 2], "12"])
    def test_markings(self, files, capsys, members):
        entries = [{**files.prof["on_boundary"][0], "S": members}, *files.prof["on_boundary"][1:]]
        bad = files.write("bad.json", {**files.prof, "on_boundary": entries})
        _intersect_fails(capsys, bad, files.cls_path)

    def test_bool_marking_with_float_lambda(self, files, capsys):
        # both were once accepted: the entry read as marking 1, "1e3" as 1000
        entries = [{"S": [True, 2], "coeff": "1"}, *files.prof["on_boundary"][1:]]
        bad = files.write("bad.json", {**files.prof, "on_lambda": "1e3", "on_boundary": entries})
        _intersect_fails(capsys, bad, files.cls_path)

    @pytest.mark.parametrize("n", [8.0, True, "8", None])
    def test_marking_count(self, files, capsys, n):
        space = {"type": "M1n", "n": n}
        _intersect_fails(capsys, files.write("p.json", {**files.prof, "space": space}), files.cls_path)
        _intersect_fails(capsys, files.prof_path, files.write("c.json", {**files.cls, "space": space}))

    @pytest.mark.parametrize("g", [5.0, True, "5"])
    def test_genus(self, tmp_path, capsys, g):
        path = tmp_path / "bn3.json"
        assert main(["export", "--name", "bn(3)", "--output", str(path)]) == 0
        obj = json.loads(path.read_text())
        path.write_text(json.dumps({**obj, "space": {"type": "Mg", "g": g}}))
        assert main(["pullback", "--g", "5", "--m", "4", "--input", str(path)]) == 2
        assert "must be an integer" in capsys.readouterr().err

    def test_space_type_message_is_kept(self):
        with pytest.raises(ValueError, match="expected an M1n profile"):
            picard.profile_from_json({"space": {"type": "Mg", "g": 5}})


class TestMarkingBound:
    def test_gluing_past_64_markings(self):
        with pytest.raises(ValueError, match="marking count"):
            glue_pullback(DivisorClassMg(34, 1, 1, [1] * 17), 33)
        assert glue_pullback(DivisorClassMg(33, 1, 1, [1] * 16), 32).n == 64

    def test_forgetting_past_64_markings(self):
        cls = DivisorClassM1n(4, 1, {0b11: 1})
        with pytest.raises(ValueError, match="marking count"):
            forget_pullback(cls, 65)
        assert forget_pullback(cls, 64).n == 64

    def test_pullback_command(self, tmp_path, capsys):
        path = tmp_path / "g34.json"
        path.write_text(json.dumps(picard.mg_class_to_json(DivisorClassMg(34, 1, 1, [1] * 17))))
        assert main(["pullback", "--g", "34", "--m", "33", "--input", str(path)]) == 2
        assert "marking count must be in 2..64, got 66" in capsys.readouterr().err

    def test_sign_sweep_refused_at_once(self, capsys):
        def too_slow(signum, frame):
            raise TimeoutError("--max-d 20000 ran the sign sweep")

        previous = signal.signal(signal.SIGALRM, too_slow)
        signal.alarm(2)
        try:
            assert main(["verify", "gonal", "--max-d", "20000"]) == 2
        finally:
            signal.alarm(0)
            signal.signal(signal.SIGALRM, previous)
        assert capsys.readouterr() == ("", "error: marking count must be in 2..64, got 79996\n")

    def test_sign_sweep_refused_before_any_suite(self, capsys, monkeypatch):
        def run(*args):
            raise AssertionError("a suite ran")

        for name in ("trigonal", "gonal", "gp", "chow", "certificate", "property"):
            monkeypatch.setattr(cli, f"{name}_suite", run)
        assert main(["verify", "all", "--max-d", "18"]) == 2
        assert capsys.readouterr() == ("", "error: marking count must be in 2..64, got 68\n")

    @pytest.mark.parametrize("suite, target", [("chow", "chow_suite"), ("all", "trigonal_suite")])
    def test_report_range_below_three_refused_before_any_suite(self, capsys, monkeypatch, suite, target):
        calls = []
        monkeypatch.setattr(cli, target, lambda *args: calls.append(args) or [])
        assert main(["verify", suite, "--max-d", "2"]) == 2
        assert capsys.readouterr() == ("", "error: report range must reach at least d = 3, got 2\n")
        assert calls == []

    def test_sign_sweep_to_seventeen_still_runs(self, capsys):
        assert main(["verify", "gonal", "--max-d", "17"]) == 0
        assert "PASS  gonal/sign.d=17  expected=- actual=-" in capsys.readouterr().out


BAD_ENTRIES = {
    "repeated marking": [{"S": [1, 1, 2], "coeff": "1"}],
    "repeated pair": [{"S": [2, 2], "coeff": "1"}],
    "repeated last marking": [{"S": [1, 2, 1], "coeff": "1"}],
    "one marking": [{"S": [1], "coeff": "1"}],
    "no markings": [{"S": [], "coeff": "1"}],
    "marking zero": [{"S": [0, 1], "coeff": "1"}],
    "marking past n": [{"S": [1, 9], "coeff": "1"}],
    "subset twice": [{"S": [1, 2], "coeff": "1"}, {"S": [2, 1], "coeff": "1"}],
    "subset twice, zero first": [{"S": [1, 2], "coeff": "0"}, {"S": [1, 2], "coeff": "3"}],
    "no coefficient": [{"S": [1, 2]}],
    "entry not an object": [[[1, 2], "1"]],
    "markings not a list": [{"S": 12, "coeff": "1"}],
}


class TestBoundaryEntries:
    @pytest.mark.parametrize("case", BAD_ENTRIES)
    def test_malformed_profile(self, files, capsys, case):
        bad = files.write("bad.json", {**files.prof, "on_boundary": BAD_ENTRIES[case]})
        _intersect_fails(capsys, bad, files.cls_path)

    @pytest.mark.parametrize("case", BAD_ENTRIES)
    def test_malformed_class(self, files, capsys, case):
        bad = files.write("bad.json", {**files.cls, "boundary": BAD_ENTRIES[case]})
        _intersect_fails(capsys, files.prof_path, bad)

    def test_repeated_marking_is_named(self):
        obj = {"space": {"type": "M1n", "n": 3}, "lambda": "0", "boundary": [{"S": [1, 1, 2], "coeff": "3"}]}
        with pytest.raises(ValueError, match="marking 1 repeated"):
            picard.m1n_class_from_json(obj)

    def test_zero_coefficients_are_dropped(self):
        obj = {
            "space": {"type": "M1n", "n": 4},
            "on_lambda": "1",
            "on_boundary": [{"S": [1, 2], "coeff": "0"}, {"S": [3, 4], "coeff": ["0/5"]}, {"S": [2, 3], "coeff": "-2/4"}],
        }
        prof = picard.profile_from_json(obj)
        assert prof == picard.CurveProfile(4, 1, {0b0110: Fraction(-1, 2)})
        assert prof.on_boundary == {0b0110: Fraction(-1, 2)}


def _genus_file(tmp_path, g):
    path = tmp_path / f"g{g}.json"
    path.write_text(json.dumps(picard.mg_class_to_json(DivisorClassMg(g, 1, 1, [1] * (g // 2)))))
    return str(path)


class TestExportBudget:
    @pytest.mark.parametrize("m, entries", [(32, 2**64 - 65), (11, 2**22 - 23)])
    def test_refused_before_enumerating(self, tmp_path, capsys, monkeypatch, m, entries):
        def enumerate_entries(cls):
            raise AssertionError("the class was enumerated")

        monkeypatch.setattr(picard, "m1n_class_to_json", enumerate_entries)
        assert main(["pullback", "--g", str(m + 1), "--m", str(m), "--input", _genus_file(tmp_path, m + 1)]) == 2
        err = capsys.readouterr().err
        assert f"export budget is {cli.EXPORT_BUDGET} boundary entries" in err
        assert f"{2 * m} markings has {entries}" in err

    def test_refused_pullback_leaves_the_output_file_untouched(self, tmp_path, capsys):
        out = tmp_path / "out.json"
        out.write_bytes(b"kept\n")
        assert main(["pullback", "--g", "12", "--m", "11", "--input", _genus_file(tmp_path, 12), "--output", str(out)]) == 2
        assert "export budget" in capsys.readouterr().err
        assert out.read_bytes() == b"kept\n"

    def test_pullback_failing_before_its_first_write_leaves_the_output_file_untouched(self, tmp_path, capsys):
        # lambda of the pullback has 4,301 digits, which str() refuses while
        # the head of the file is rendered
        source, out = tmp_path / "g5.json", tmp_path / "out.json"
        source.write_text(json.dumps(picard.mg_class_to_json(DivisorClassMg(5, 0, 10**4300 - 1, [0, 0]))))
        out.write_bytes(b"kept\n")
        assert main(["pullback", "--g", "5", "--m", "4", "--input", str(source), "--output", str(out)]) == 2
        assert "integer string conversion" in capsys.readouterr().err
        assert out.read_bytes() == b"kept\n"

    def test_admits_every_pullback_to_ten_pairs(self, tmp_path, monkeypatch):
        written = []

        def record(cls, write):
            written.append(len(cls.boundary))

        monkeypatch.setattr(writer, "write_json", record)
        out = tmp_path / "out.json"
        assert main(["pullback", "--g", "11", "--m", "10", "--input", _genus_file(tmp_path, 11), "--output", str(out)]) == 0
        assert written == [2**20 - 21] and 2**20 - 21 <= cli.EXPORT_BUDGET < 2**22 - 23

    @pytest.mark.parametrize("d, refusal", [
        (10, f"export budget is {picard.EXPORT_BUDGET} boundary entries; profile-gonal(10) on 36 markings has 2621421"),
        (20, "marking count must be in 2..64, got 76"),
    ], ids=["10", "20"])
    def test_gonal_profile_refused_before_enumerating(self, capsys, d, refusal):
        # the builder refuses itself: the d = 10 profile would trace about
        # 256 MiB before it could be refused, and d = 20 would not end
        tracemalloc.start()
        try:
            with wall_clock_bound(2):
                assert main(["export", "--name", f"profile-gonal({d})"]) == 2
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2**20, f"traced peak {peak / 2**20:.1f} MiB"
        assert capsys.readouterr().err == f"error: {refusal}\n"

    @pytest.mark.parametrize("d", [10, 12, 20])
    def test_direct_route_refused_before_building(self, capsys, monkeypatch, d):
        def build_profile(name, d=None):
            raise AssertionError("the profile was built")

        monkeypatch.setattr(corpus, "profile", build_profile)
        monkeypatch.setattr(gonal, "profile", build_profile)
        assert main(["verify", "all", "--direct-max-d", str(d)]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        if d < 18:
            assert err.startswith(f"error: export budget is {cli.EXPORT_BUDGET} boundary entries; ")
            what = f"--direct-max-d {d} (profile-gonal({d}) on {4 * d - 4} markings)"
            assert err.rstrip().endswith(f"{what} has {corpus.gonal_support(d)}")
        else:
            assert err == f"error: marking count must be in 2..64, got {4 * d - 4}\n"

    def test_direct_route_budget_admits_nine(self):
        assert corpus.gonal_support(9) <= cli.EXPORT_BUDGET < corpus.gonal_support(10)

    def test_direct_route_below_three_is_not_counted(self, capsys):
        assert main(["verify", "gonal", "--direct-max-d", "2", "--max-d", "4"]) == 0
        assert "route_direct" not in capsys.readouterr().out

    def test_gonal_profile_below_the_budget_still_writes(self, tmp_path):
        out = tmp_path / "gonal5.json"
        assert main(["export", "--name", "profile-gonal(5)", "--output", str(out)]) == 0
        assert len(json.loads(out.read_text())["on_boundary"]) == 1271 == corpus.gonal_support(5)

    def test_m8_still_writes(self, tmp_path):
        src, out = tmp_path / "bn5.json", tmp_path / "pb.json"
        assert main(["export", "--name", "bn(5)", "--output", str(src)]) == 0
        assert main(["pullback", "--g", "9", "--m", "8", "--input", str(src), "--output", str(out)]) == 0
        assert len(json.loads(out.read_text())["boundary"]) == 65519


class TestExportNames:
    @pytest.mark.parametrize("name", ["bn(٣)", "profile-gonal(٥)"])  # ARABIC-INDIC THREE, FIVE
    def test_parameters_take_ascii_digits_only(self, capsys, name):
        assert main(["export", "--name", name]) == 2
        out, err = capsys.readouterr()
        assert out == "" and err.startswith(f"error: unknown corpus item {name!r}")


class TestJsonKinds:
    """``space`` is a JSON object, and ``delta``, ``boundary`` and
    ``on_boundary`` are JSON arrays: a string there is not read character by
    character, nor an object key by key."""

    @pytest.mark.parametrize("space", [5, ["M1n"], "M1n", None])
    def test_space(self, files, capsys, space):
        _intersect_fails(capsys, files.write("p.json", {**files.prof, "space": space}), files.cls_path)
        _intersect_fails(capsys, files.prof_path, files.write("c.json", {**files.cls, "space": space}))

    @pytest.mark.parametrize("obj", [[], 5, "M1n", None])
    def test_file_is_an_object(self, files, capsys, obj):
        _intersect_fails(capsys, files.write("p.json", obj), files.cls_path)
        _intersect_fails(capsys, files.prof_path, files.write("c.json", obj))

    NOT_ARRAYS = [{}, "", "12", {"S": [1, 2], "coeff": "1"}, None, 0]

    @pytest.mark.parametrize("entries", NOT_ARRAYS)
    def test_profile_entries(self, files, capsys, entries):
        bad = files.write("bad.json", {**files.prof, "on_boundary": entries})
        _intersect_fails(capsys, bad, files.cls_path)

    @pytest.mark.parametrize("entries", NOT_ARRAYS)
    def test_class_entries(self, files, capsys, entries):
        bad = files.write("bad.json", {**files.cls, "boundary": entries})
        _intersect_fails(capsys, files.prof_path, bad)

    @pytest.mark.parametrize(
        "key, value",
        [("delta", "46"), ("delta", {"-4": 1, "-6": 2}), ("space", 5), ("space", ["Mg"])],
    )
    def test_genus_class(self, tmp_path, capsys, key, value):
        path = tmp_path / "bn3.json"
        assert main(["export", "--name", "bn(3)", "--output", str(path)]) == 0
        obj = json.loads(path.read_text())
        path.write_text(json.dumps({**obj, key: value}))
        assert main(["pullback", "--g", "5", "--m", "4", "--input", str(path)]) == 2
        out, err = capsys.readouterr()
        assert out == "" and err.startswith("error: ") and "Traceback" not in err
        assert f"{key} must be a JSON " in err

    def test_a_glued_listing_still_reads_back(self):
        cls = glue_pullback(DivisorClassMg(5, 1, 2, [3, -4]), 4)
        obj = picard.m1n_class_to_json(cls)
        assert type(obj["boundary"]) is list
        assert picard.m1n_class_from_json(obj) == cls


class TestUnreadableFiles:
    """A file the JSON decoder cannot take is an input error that names the
    file, not a traceback."""

    def _fails(self, capsys, argv, path):
        assert main(argv) == 2
        out, err = capsys.readouterr()
        assert out == "" and err.startswith("error: ") and "Traceback" not in err
        assert path in err

    @pytest.fixture(params=["nested", "not utf-8", "integer past the digit limit"])
    def bad(self, request, tmp_path):
        path = tmp_path / "bad.json"
        if request.param == "nested":
            path.write_text("[" * 200_000 + "]" * 200_000)
        elif request.param == "not utf-8":
            path.write_bytes(b'{"space": \xff}')
        else:  # json.loads raises a plain ValueError past 4,300 digits
            path.write_text('{"space": {"type": "M1n", "n": 1%s}}' % ("0" * 4999))
        return str(path)

    def test_profile(self, files, capsys, bad):
        self._fails(capsys, ["intersect", "--profile", bad, "--class", files.cls_path], bad)

    def test_genus_class(self, capsys, bad):
        self._fails(capsys, ["pullback", "--g", "5", "--m", "4", "--input", bad], bad)


class TestUnwritableOutput:
    """An ``--output`` that cannot be opened or written is an input error
    that names the path, not a traceback; so is a standard output that
    cannot be written, while a closed one still exits 1 in silence."""

    @pytest.fixture(params=["directory", "missing parent", "full device", "empty path"])
    def target(self, request, tmp_path):
        if request.param == "directory":
            return str(tmp_path)
        if request.param == "full device":  # opens, and every write fails
            if not os.path.exists("/dev/full"):
                pytest.skip("no /dev/full here")
            return "/dev/full"
        if request.param == "empty path":  # a path, not standard output
            return ""
        return str(tmp_path / "missing" / "out.json")

    def _fails(self, capsys, argv, path):
        assert main(argv + ["--output", path]) == 2
        out, err = capsys.readouterr()
        assert out == "" and err.startswith(f"error: cannot write {path}: ") and "Traceback" not in err

    def test_export(self, capsys, target):
        self._fails(capsys, ["export", "--name", "bn(3)"], target)

    def test_pullback(self, tmp_path, capsys, target):
        source = str(tmp_path / "bn3.json")
        assert main(["export", "--name", "bn(3)", "--output", source]) == 0
        self._fails(capsys, ["pullback", "--g", "5", "--m", "4", "--input", source], target)

    @pytest.mark.parametrize("error, code, err", [
        pytest.param(
            OSError(errno.ENOSPC, os.strerror(errno.ENOSPC)), 2,
            f"error: cannot write standard output: [Errno {errno.ENOSPC}] {os.strerror(errno.ENOSPC)}\n",
            id="full",
        ),
        pytest.param(BrokenPipeError(errno.EPIPE, os.strerror(errno.EPIPE)), 1, "", id="closed"),
    ])
    @pytest.mark.parametrize("argv", [["verify", "gonal"], ["export", "--name", "bn(3)"]], ids=["verify", "export"])
    def test_standard_output(self, tmp_path, capsys, monkeypatch, argv, error, code, err):
        # a stdout whose writes fail; its descriptor is a file of its own, so
        # that what main points at devnull can be seen
        spare = tmp_path / "stdout"
        fd = os.open(spare, os.O_WRONLY | os.O_CREAT)

        class FailingStdout:
            def write(self, text):
                raise error

            def flush(self):
                pass

            def fileno(self):
                return fd

        monkeypatch.setattr(sys, "stdout", FailingStdout())
        try:
            assert main(argv) == code
            os.write(fd, b"dropped")  # the flush at exit would land here
        finally:
            os.close(fd)
        assert capsys.readouterr() == ("", err)
        assert spare.read_bytes() == b""


class TestWholeOutput:
    """A regular ``--output``, or one that does not exist yet, is replaced
    only by a whole file: the text goes to a new file beside it, renamed
    onto it after the last write.  Any other target is written in place."""

    @pytest.mark.parametrize("old", [b"kept\n", None], ids=["existing", "new"])
    def test_a_failure_mid_write_leaves_the_output_as_it_was(self, tmp_path, capsys, old):
        # the size-11 coefficient of this pullback has 4,301 digits, which
        # str() refuses after about 17 MB of the file are written
        source, out = tmp_path / "g7.json", tmp_path / "out.json"
        source.write_text(json.dumps(picard.mg_class_to_json(DivisorClassMg(7, 0, 10**4299, [0, 0, 0]))))
        if old is not None:
            out.write_bytes(old)
        assert main(["pullback", "--g", "7", "--m", "6", "--input", str(source), "--output", str(out)]) == 2
        assert "integer string conversion" in capsys.readouterr().err
        if old is None:
            assert os.listdir(tmp_path) == ["g7.json"]
        else:
            assert sorted(os.listdir(tmp_path)) == ["g7.json", "out.json"] and out.read_bytes() == old

    @pytest.mark.parametrize("mask, mode", [(0o022, 0o644), (0o077, 0o600), (0o002, 0o664)])
    def test_a_new_file_gets_the_umask_mode(self, tmp_path, mask, mode):
        out = tmp_path / "out.json"
        old = os.umask(mask)
        try:
            assert main(["export", "--name", "bn(3)", "--output", str(out)]) == 0
        finally:
            os.umask(old)
        assert out.stat().st_mode & 0o7777 == mode
        assert os.listdir(tmp_path) == ["out.json"]

    @pytest.mark.parametrize("mode", [0o600, 0o640, 0o755])
    def test_an_existing_file_keeps_its_mode(self, tmp_path, mode):
        out = tmp_path / "out.json"
        out.write_bytes(b"old\n")
        out.chmod(mode)
        assert main(["export", "--name", "bn(3)", "--output", str(out)]) == 0
        assert out.stat().st_mode & 0o7777 == mode
        assert out.read_text() == json_text(corpus.bn_class(3))
        assert os.listdir(tmp_path) == ["out.json"]

    def test_a_symbolic_link_is_written_through(self, tmp_path):
        target, link = tmp_path / "target.json", tmp_path / "link.json"
        target.write_bytes(b"old\n")
        link.symlink_to(target)
        assert main(["export", "--name", "bn(3)", "--output", str(link)]) == 0
        assert link.is_symlink() and target.read_text() == json_text(corpus.bn_class(3))

    def test_a_fifo_is_streamed_to(self, tmp_path):
        fifo = tmp_path / "pipe"
        os.mkfifo(fifo)
        got = []
        reader = threading.Thread(target=lambda: got.append(fifo.read_bytes()))
        reader.start()
        try:
            assert main(["export", "--name", "bn(3)", "--output", str(fifo)]) == 0
        finally:
            reader.join(10)
        assert got == [json_text(corpus.bn_class(3)).encode()]
        assert stat.S_ISFIFO(os.lstat(fifo).st_mode)

    def test_a_missing_directory_is_named_as_before(self, tmp_path, capsys):
        out = str(tmp_path / "missing" / "out.json")
        assert main(["export", "--name", "bn(3)", "--output", out]) == 2
        assert capsys.readouterr().err == f"error: cannot write {out}: [Errno 2] No such file or directory: {out!r}\n"


class TestPipeInput:
    """``intersect`` reads ``--class`` and ``--profile`` once, so a pipe,
    which is always read whole, gives what the same file gives, read in
    batches or whole."""

    @staticmethod
    def _run(argv, stdin=None):
        child = subprocess.run(
            [sys.executable, "-m", "effcone.cli", *argv], input=stdin, capture_output=True, timeout=60,
            env={**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)},
        )
        return child.returncode, child.stdout, child.stderr

    @pytest.mark.parametrize(
        "case", ["canonical class", "canonical profile", "class with a zero coefficient", "polynomial profile"]
    )
    def test_a_pipe_reads_as_the_file(self, files, tmp_path, case):
        prof, cls = Path(files.prof_path), Path(files.cls_path)
        piped = prof if case == "canonical profile" else cls
        if case == "class with a zero coefficient":
            boundary = [dict(entry) for entry in files.cls["boundary"]]
            boundary[3]["coeff"] = "0"
            cls = piped = Path(files.write("zero.json", {**files.cls, "boundary": boundary}))
        elif case == "polynomial profile":
            prof, cls = tmp_path / "gp-prof.json", tmp_path / "gp-cls.json"
            assert main(["export", "--name", "profile-gp", "--output", str(prof)]) == 0
            assert main(["export", "--name", "pullback-gp", "--output", str(cls)]) == 0
            piped = prof
        argv = ["intersect", "--profile", str(prof), "--class", str(cls)]
        from_file = self._run(argv)
        assert from_file[0] == 0 and from_file[1].strip()
        through_pipe = ["/dev/stdin" if arg == str(piped) else arg for arg in argv]
        assert self._run(through_pipe, piped.read_bytes()) == from_file


# pairs of faults in one file: the first in file order is the one reported
ORDERED_FAULTS = {
    "bool then bad coeff": [{"S": [1, 2], "coeff": "1"}, {"S": [True, 3], "coeff": "1"}, {"S": [4, 5], "coeff": "x"}],
    "bad coeff then bool": [{"S": [1, 2], "coeff": "x"}, {"S": [True, 3], "coeff": "1"}],
    "duplicate then range": [{"S": [1, 2], "coeff": "1"}, {"S": [2, 1], "coeff": "1"}, {"S": [1, 9], "coeff": "1"}],
    "range then duplicate": [{"S": [1, 9], "coeff": "1"}, {"S": [1, 2], "coeff": "1"}, {"S": [2, 1], "coeff": "1"}],
}
READER_FAULTS = {
    **BAD_ENTRIES,
    **ORDERED_FAULTS,
    "bool marking": [{"S": [1, 2], "coeff": "1"}, {"S": [True, 3], "coeff": "1"}],
    # in boundary order, so that only the bit-0 check refuses it
    "bool marking first": [{"S": [True, 3], "coeff": "1"}],
    "float marking": [{"S": [2.0, 3], "coeff": "1"}],
    "marking 65": [{"S": [1, 65], "coeff": "1"}],
    "nested markings": [{"S": [[1, 2]], "coeff": "1"}],
    "markings null": [{"S": None, "coeff": "1"}],
    "markings string": [{"S": "12", "coeff": "1"}],
    "entry null": [None],
    "bad coeff": [{"S": [1, 2], "coeff": "1.5"}],
    "bad polynomial coeff": [{"S": [1, 2], "coeff": ["1", "x"]}],
}


def _coefficients():
    """Serialized coefficients: rational strings, polynomials and zeros,
    not all of them canonical."""
    rational = rationals.map(format_rat)
    return st.one_of(
        rational,
        st.lists(rational, min_size=1, max_size=3),
        st.sampled_from(["0", "-0", "0/5", "4/2", "-6/4", ["0"], ["0", "0"], ["1", "0"]]),
    )


@st.composite
def _valid_entries(draw):
    n = draw(st.sampled_from([2, 3, 5, 8, 13, 64]))
    masks = draw(st.lists(
        st.integers(0, (1 << n) - 1).filter(lambda m: m.bit_count() >= 2), unique=True, max_size=12
    ))
    entries = [
        {"S": draw(st.permutations(picard.subset_members(mask))), "coeff": draw(_coefficients())}
        for mask in masks
    ]
    return n, entries


def _written(boundary, n=8, lam="7/2"):
    """The text of a class file holding the serialized ``boundary``, in the
    writer's layout: ``json.dumps`` with ``indent=2`` and sorted keys."""
    return json.dumps({"space": {"type": "M1n", "n": n}, "lambda": lam, "boundary": boundary}, indent=2, sort_keys=True)


def _read_file(text, parse=picard.m1n_class_from_json):
    """What ``parse`` makes of a regular file holding ``text``, read as the
    commands read it (:func:`cli._read`); an input error gives way to the
    error it words."""
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "file.json")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
        try:
            return cli._read(path, parse, "file")
        except cli.InputError as exc:
            raise exc.__cause__


def _read_class(entries, n=8):
    """The class in a file holding ``entries`` on n markings in the writer's
    layout, read by :func:`_read_file`."""
    return _read_file(_written(entries, n, "0"))


class TestBulkReader:
    """The batch reader, fed class files in the writer's layout through
    :func:`cli._read`, reads what the entry loop
    :func:`picard._boundary_entries` reads, and leaves every error to it."""

    @pytest.mark.parametrize("case", READER_FAULTS)
    def test_same_error(self, case):
        entries = READER_FAULTS[case]
        with pytest.raises((KeyError, TypeError, ValueError)) as looped:
            picard._boundary_entries(entries, 8)
        with pytest.raises(type(looped.value)) as bulk:
            _read_class(entries)
        assert type(bulk.value) is type(looped.value) and str(bulk.value) == str(looped.value)

    @pytest.mark.parametrize("case, message", [
        ("bool then bad coeff", "markings must be integers, got [True, 3]"),
        ("bad coeff then bool", "not a rational string: 'x'"),
        ("duplicate then range", "duplicate boundary index [2, 1]"),
        ("range then duplicate", "marking 9 not in 1..8"),
    ])
    def test_first_fault_is_reported(self, case, message):
        with pytest.raises(ValueError) as caught:
            _read_class(ORDERED_FAULTS[case])
        assert str(caught.value) == message

    @settings(max_examples=200, deadline=None)
    @given(_valid_entries(), st.booleans())
    def test_same_dict_in_the_same_order(self, drawn, ordered):
        # only entries the writer writes, in boundary order with every
        # coefficient a nonzero rational string, stay on the batch path;
        # any other draw goes to the loop once
        n, entries = drawn
        if ordered:
            entries.sort(key=lambda e: picard.boundary_order(picard.subset_mask(e["S"], n)))
        looped = picard._boundary_entries(entries, n)
        written = all(type(e["coeff"]) is str and parse_rat(e["coeff"]) != 0 for e in entries)
        in_order = list(looped) == sorted(looped, key=picard.boundary_order)
        with mock.patch.object(picard, "_boundary_entries", wraps=picard._boundary_entries) as loop:
            bulk = _read_class(entries, n).boundary
        assert list(bulk.items()) == list(looped.items())
        assert loop.call_count == (not (entries and written and in_order))

    def test_a_zero_string_goes_through_the_entry_loop(self):
        entries = [{"S": [1, 2], "coeff": "-0"}, {"S": [2, 3], "coeff": "-2/4"}, {"S": [3, 4], "coeff": "0/5"}]
        with mock.patch.object(picard, "_boundary_entries", wraps=picard._boundary_entries) as loop:
            assert _read_class(entries, 4).boundary == {0b0110: Fraction(-1, 2)}
        loop.assert_called_once_with(entries, 4)

    def test_a_plain_object_goes_through_the_entry_loop(self):
        # a plain object, from an in-process caller or a file read whole, is
        # never checked in bulk
        entries = [{"S": [1, 2], "coeff": "3"}]
        obj = {"space": {"type": "M1n", "n": 4}, "lambda": "0", "boundary": entries}
        with mock.patch.object(picard, "_boundary_entries", wraps=picard._boundary_entries) as loop:
            assert picard.m1n_class_from_json(obj).boundary == {0b11: 3}
        loop.assert_called_once_with(entries, 4)


# JSON numbers json.dumps cannot write, spliced in for their placeholders
RAW_NUMBERS = {'"@big@"': "1" + "0" * 4999, '"@1e0@"': "1e0", '"@nan@"': "NaN"}
# wrong values for a marking, an extra key or a coefficient: the first list
# holds no integer, the second adds integers outside 1..64; the split reader
# finds none of their marking lines among the lines of the file's markings
TAGGED_ODD = [True, False, 2.0, 1.5, None, "3", [1, 2], [[3]], {"k": 1}, "@1e0@", "@nan@"]
PLAIN_ODD = TAGGED_ODD + [0, -1, 65, "@big@"]


def _order_key(entry):
    """The boundary-order key of an entry whose markings are integers in
    1..64; every other entry sorts after those."""
    members = entry.get("S") if type(entry) is dict else None
    if type(members) is list and all(type(i) is int and 1 <= i <= 64 for i in members):
        return 0, len(members), sorted(members)
    return (1,)


@st.composite
def _drawn_doc(draw, kind):
    """A class (``kind`` ``"class"``) or profile document, its raw numbers
    as placeholders: entries the writer could write, and every kind of value
    a marking, a coefficient, a space size or an extra key can wrongly hold.
    Half the documents are as the writer writes them but for their space
    size and, in half of them, one entry, so that written in the writer's
    layout they reach the batch reader; of the others, half hold no integer
    outside 1..64 and half list their entries in boundary order."""
    lam_key, key = ("lambda", "boundary") if kind == "class" else ("on_lambda", "on_boundary")
    odd = st.sampled_from(draw(st.sampled_from([TAGGED_ODD, PLAIN_ODD])))
    marking = st.one_of(st.integers(1, 9), st.integers(1, 9), st.integers(1, 9), odd)
    rational = rationals.map(format_rat)
    coeff = st.one_of(
        rational, rational,
        st.sampled_from(["0", "-0", "0/5", "4/2", "x", ["0"], ["1", "0"], ["1", 2]]),
        st.lists(rational, min_size=1, max_size=3),
        odd,
    )
    entry = st.one_of(
        st.fixed_dictionaries(
            {"S": st.lists(marking, max_size=4), "coeff": coeff},
            optional={"x": st.one_of(st.integers(1, 64), odd)},
        ),
        st.sampled_from([None, [[1, 2], "1"], {"S": [1, 2]}, {"coeff": "1"}]),
    )
    written = st.fixed_dictionaries(
        {"S": st.lists(st.integers(1, 9), min_size=2, max_size=4, unique=True), "coeff": rational}
    )
    size = st.sampled_from([2, 3, 5, 8, 9, 9, 9, 9, 9, 9])
    space = st.one_of(
        st.builds(lambda n: {"type": "M1n", "n": n}, size),
        st.builds(lambda n: {"type": "M1n", "n": n}, size),
        st.fixed_dictionaries({"type": st.sampled_from(["M1n", "Mg", 3]), "n": st.one_of(size, odd)}),
    )
    if draw(st.booleans()):
        entries = draw(st.lists(written, min_size=1, max_size=6))
        if draw(st.booleans()):
            entries.insert(draw(st.integers(0, len(entries))), draw(entry))
        doc = {"space": {"type": "M1n", "n": draw(size)}, lam_key: draw(rational), key: entries}
        ordered = True
    else:
        doc = draw(st.fixed_dictionaries(
            {"space": space, lam_key: st.one_of(rational, rational, coeff), key: st.lists(entry, max_size=6)},
            optional={"extra": st.one_of(st.integers(1, 64), odd)},
        ))
        ordered = draw(st.booleans())
    if ordered:
        doc[key].sort(key=_order_key)
    return doc


def _file_text(doc, **layout):
    """``json.dumps(doc, **layout)`` with the raw numbers spliced in for
    their placeholders."""
    text = json.dumps(doc, **layout)
    for placeholder, raw in RAW_NUMBERS.items():
        text = text.replace(placeholder, raw)
    return text


def _outcome(read):
    """What ``read`` gives: the exception type and message, or the space
    size, lambda value and boundary entries in order, each with its type."""
    try:
        item = read()
    except (KeyError, TypeError, ValueError, RecursionError) as exc:
        return type(exc), str(exc)
    if isinstance(item, picard.CurveProfile):
        lam, boundary = item.on_lambda, item.on_boundary
    else:
        lam, boundary = item.lam, item.boundary
    return item.n, type(lam), lam, [(mask, type(value), value) for mask, value in boundary.items()]


class TestTagExactness:
    """Reading a file as the commands read it (:func:`cli._read`), cut by
    the batch reader at the writer's entry separators when it is in the
    writer's layout, gives exactly what a plain ``json.loads`` and the
    plain reader (:func:`picard._boundary_entries`) give: the same entries
    in the same order, or the same exception type and message.  Each
    document is written compact and in the writer's layout."""

    @staticmethod
    def _same(doc, parse):
        for layout in ({}, {"indent": 2, "sort_keys": True}):
            text = _file_text(doc, **layout)
            assert _outcome(lambda: _read_file(text, parse)) == _outcome(lambda: parse(json.loads(text)))

    @settings(max_examples=200, deadline=None)
    @given(_drawn_doc("class"))
    def test_class_files(self, doc):
        self._same(doc, picard.m1n_class_from_json)

    @settings(max_examples=200, deadline=None)
    @given(_drawn_doc("profile"))
    def test_profile_files(self, doc):
        self._same(doc, picard.profile_from_json)

    @pytest.mark.parametrize("case", READER_FAULTS)
    def test_every_reader_fault(self, case):
        obj = {"space": {"type": "M1n", "n": 8}, "lambda": "0", "boundary": READER_FAULTS[case]}
        self._same(obj, picard.m1n_class_from_json)


# a child that runs the command given as JSON in argv[1] and prints its
# output, then its exit code and its VmHWM (KiB) when the last file read was
# decoded and at exit
PEAK_CHILD = """
import json, sys
from effcone import cli

def peak_kib():
    with open("/proc/self/status") as fh:
        return next(int(line.split()[1]) for line in fh if line.startswith("VmHWM:"))

decode, marks = cli._decode, []

def marked(path, text):
    doc = decode(path, text)
    marks.append(peak_kib())
    return doc

cli._decode = marked
code = cli.main(json.loads(sys.argv[1]))
print(code, marks[-1], peak_kib())
"""


class TestReaderGuards:
    """The fast paths of the reader stay taken: files the commands write are
    read in batches, never by the entry loop, and the cycle collector is
    paused for a read and then put back as it was."""

    @pytest.mark.parametrize("m", [4, 5, 6, 7, 8])
    def test_pullback_files_take_the_bulk_check(self, monkeypatch, m):
        cls = glue_pullback(DivisorClassMg(m + 1, Fraction(7, 2), -1, [Fraction(-3, 4)] * ((m + 1) // 2)), m)
        text = json_text(cls)
        monkeypatch.setattr(picard, "_boundary_entries", mock.Mock(side_effect=AssertionError("fell back")))
        assert _read_file(text) == cls

    @pytest.mark.parametrize("name", ["pullback-gp", "pullback-trigonal", "profile-gonal(4)", "profile-trig"])
    def test_exported_files_take_the_bulk_check(self, tmp_path, monkeypatch, name):
        path = tmp_path / "item.json"
        assert main(["export", "--name", name, "--output", str(path)]) == 0
        parse = picard.profile_from_json if name.startswith("profile") else picard.m1n_class_from_json
        expected = parse(json.loads(path.read_text()))
        monkeypatch.setattr(picard, "_boundary_entries", mock.Mock(side_effect=AssertionError("fell back")))
        assert cli._read(str(path), parse, name) == expected

    def test_a_profile_file_takes_the_bulk_check(self, monkeypatch):
        profile = picard.CurveProfile(9, Fraction(-5, 3), {0b11: 2, 0b1_0000_0110: Fraction(1, 7), 0x1FF: -4})
        text = json_text(profile)
        monkeypatch.setattr(picard, "_boundary_entries", mock.Mock(side_effect=AssertionError("fell back")))
        assert _read_file(text, picard.profile_from_json) == profile

    def test_a_polynomial_file_goes_through_the_entry_loop(self, tmp_path, monkeypatch):
        # profile-gp, 11 entries with polynomial coefficients, is the one
        # polynomial boundary file the commands write
        path = tmp_path / "gp.json"
        assert main(["export", "--name", "profile-gp", "--output", str(path)]) == 0
        loop = mock.Mock(wraps=picard._boundary_entries)
        monkeypatch.setattr(picard, "_boundary_entries", loop)
        assert cli._read(str(path), picard.profile_from_json, "profile") == corpus.profile("gp")
        assert loop.call_count == 1

    @pytest.mark.skipif(not os.path.exists("/proc/self/status"), reason="reads VmHWM from /proc")
    def test_the_text_is_freed_before_the_checks(self, tmp_path):
        # in a child, the peak RSS once the class file is decoded (its text
        # and its tree) is the peak of the whole command: the checks run on
        # the tree alone, and would raise the peak by tens of MiB if the
        # 41 MB text of these 262,125 entries were still held.  The file
        # starts with a space, so it is read whole: in the writer's layout
        # it would be read in batches, never decoded whole
        cls, prof = tmp_path / "cls.json", tmp_path / "prof.json"
        with open(cls, "w", encoding="utf-8") as fh:
            fh.write(" ")
            writer.write_json(glue_pullback(DivisorClassMg(10, 1, 1, [1] * 5), 9), fh.write)
        prof.write_text(json_text(picard.CurveProfile(18, 0, {0b11: 1})))
        argv = ["intersect", "--profile", str(prof), "--class", str(cls)]
        child = subprocess.run(
            [sys.executable, "-c", PEAK_CHILD, json.dumps(argv)],
            capture_output=True, text=True, timeout=120,
            env={**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)},
        )
        assert child.returncode == 0, child.stderr
        out, code, decoded, peak = child.stdout.split()
        assert (out, code) == ("-1", "0")
        assert int(peak) - int(decoded) < 8 * 1024, f"peak {peak} KiB, {decoded} KiB once decoded"

    def test_collector_paused_for_the_read(self, files, capsys, monkeypatch):
        seen = []
        parse = picard.m1n_class_from_json

        def watched(obj):
            seen.append(gc.isenabled())
            return parse(obj)

        monkeypatch.setattr(picard, "m1n_class_from_json", watched)
        assert main(["intersect", "--profile", files.prof_path, "--class", files.cls_path]) == 0
        assert seen == [False] and gc.isenabled()
        assert capsys.readouterr().out == "-1\n"

    def test_collector_back_on_after_a_bad_file(self, files, capsys):
        bad = files.write("bad.json", {**files.cls, "boundary": BAD_ENTRIES["repeated marking"]})
        _intersect_fails(capsys, files.prof_path, bad)
        assert gc.isenabled()

    def test_collector_left_off_when_it_was_off(self, files, capsys):
        bad = files.write("bad.json", {**files.cls, "boundary": BAD_ENTRIES["repeated marking"]})
        gc.disable()
        try:
            assert main(["intersect", "--profile", files.prof_path, "--class", files.cls_path]) == 0
            assert not gc.isenabled()
            _intersect_fails(capsys, files.prof_path, bad)
            assert not gc.isenabled()
        finally:
            gc.enable()


def _every_subset(n):
    """Every subset of 1..n with two markings or more, in boundary order,
    with nonzero coefficients, some repeated."""
    return [
        {"S": list(members), "coeff": format_rat(Fraction(2 * len(members) - 7, 1 + sum(members) % 3))}
        for members, _ in picard._entries(dict.fromkeys(range(1 << n), 1)) if len(members) >= 2
    ]


ALL_SUBSETS = _every_subset(8)
# a dense file of 1,013 entries, about 110 KB: more than one 64 KiB batch
DENSE = _every_subset(10)
BETWEEN = picard._BETWEEN


def _gap_at_the_first_cut(entries, n, size):
    """The text of a class file holding ``entries`` but one, left out where
    the reader's first cut falls in batches of ``size`` bytes, so that the
    first batch ends with the subset before the gap: reads of ``size``
    bytes until one holds a separator, cut at the last separator."""
    text = _written(entries, n)
    head, mid = len(picard._LAYOUTS[0].head), text.rindex(picard._LAYOUTS[0].mid)
    body = text[head:mid].split(BETWEEN)
    for gap in range(1, len(body)):
        kept = BETWEEN.join(body[:gap] + body[gap + 1:])
        read = -(-(kept.index(BETWEEN) + len(BETWEEN)) // size) * size
        if kept.count(BETWEEN, 0, read) == gap:
            return text[:head] + kept + text[mid:]
    raise AssertionError("no cut")


def _dense_edit(case, size):
    """The text of the dense class file on 10 markings with one edit, made
    at the first entry from the 500th on that holds 5 and not 9 unless the
    edit names its place."""
    entries = [dict(entry) for entry in DENSE]
    at = next(i for i in range(500, len(entries)) if 5 in entries[i]["S"] and 9 not in entries[i]["S"])
    if case == "gap at a batch cut":
        return _gap_at_the_first_cut(entries, 10, size)
    if case == "gap at the first entry":
        del entries[0]
    elif case == "gap inside a batch":
        del entries[at]
    elif case == "subset repeated":
        entries.insert(at, entries[at])
    elif case == "marking re-indented":  # the entry's line of marking 5
        entries[at]["coeff"] = "12345"
        head, tail = _written(entries, 10).split('"12345"')
        line = head.rindex("\n        5") + 1
        return head[:line] + " " + head[line:] + '"12345"' + tail
    elif case.startswith("marking"):  # one marking line edited
        past = case == "marking past n"
        entries[at]["S"] = [(11 if past else 9) if i == 5 else i for i in entries[at]["S"]]
    elif case == "polynomial coefficient":
        entries[at]["coeff"] = ["1", "-2"]
    elif case == "extra key in an entry":
        entries[at]["x"] = 1
    else:  # a coefficient piece the writer never writes
        entries[at]["coeff"] = "12345"
        piece = '"0"' if case == "zero coefficient" else '"\\u0035"'
        return _written(entries, 10).replace('"12345"', piece)
    return _written(entries, 10)


# how each edit of the dense file is read: in batches alone, or whole once
# a batch is refused
DENSE_EDITS = {
    "gap at the first entry": "batches",
    "gap inside a batch": "batches",
    "gap at a batch cut": "batches",
    "escaped coefficient": "batches",
    "subset repeated": "batches then whole",
    "marking past n": "batches then whole",
    "marking moved": "batches then whole",
    "zero coefficient": "batches then whole",
    "polynomial coefficient": "batches then whole",
    "marking re-indented": "batches then whole",
    "extra key in an entry": "batches then whole",
}


# a dense class on 10 markings, about 110 KB written: its size-5 row is one
# run of 252 entries, and its other rows runs broken by the unions of pairs
RUNS = dict(glue_pullback(DivisorClassMg(6, Fraction(7, 2), -1, [Fraction(-3, 4)] * 3), 5).boundary.items())
RUN_ORDER = sorted(RUNS, key=picard.boundary_order)
LONG_RUN = range(RUN_ORDER.index(0b11111), RUN_ORDER.index(0b11111) + 252)


def _batch_starts(text, size):
    """The index of each entry but the first that starts a batch when the
    class file ``text`` is read in batches of ``size`` bytes: reads of
    ``size`` bytes until one holds a separator, cut at the last separator."""
    body = text[len(picard._LAYOUTS[0].head):text.rindex(picard._LAYOUTS[0].mid)]
    starts, start, read = [], 0, size
    while read < len(body):
        cut = body.rfind(BETWEEN, start, read)
        if cut >= 0:
            start = cut + len(BETWEEN)
            starts.append(body.count(BETWEEN, 0, start))
        read += size
    return starts


def _run_file(case, size):
    """The text of a dense class file on 10 markings whose runs of one
    coefficient the case shapes: one coefficient of :data:`RUNS` changed
    at a place in its long run, or at the first entry of that run or after
    it that starts a batch; coefficients 14 and 1 in runs of five and
    seven entries; or every coefficient distinct."""
    if case == "prefix coefficient":
        boundary = {mask: 14 if rank % 12 < 5 else 1 for rank, mask in enumerate(RUN_ORDER)}
    elif case == "all distinct":
        boundary = {mask: Fraction(rank + 1, 3) for rank, mask in enumerate(RUN_ORDER)}
    elif case == "changed at a batch cut":
        starts = _batch_starts(json_text(DivisorClassM1n(10, Fraction(7, 2), RUNS)), size)
        for at in (at for at in starts if at >= LONG_RUN[0]):
            text = json_text(DivisorClassM1n(10, Fraction(7, 2), {**RUNS, RUN_ORDER[at]: 12345}))
            if at in _batch_starts(text, size):
                return text
        raise AssertionError("no cut")
    else:
        at = {
            "changed inside a long run": LONG_RUN[126],
            "changed at a run's first entry": LONG_RUN[0],
            "changed at a run's last entry": LONG_RUN[-1],
        }[case]
        boundary = {**RUNS, RUN_ORDER[at]: 12345}
    return json_text(DivisorClassM1n(10, Fraction(7, 2), boundary))


RUN_CASES = [
    "changed inside a long run",
    "changed at a run's first entry",
    "changed at a run's last entry",
    "changed at a batch cut",
    "prefix coefficient",
    "all distinct",
]


class TestBatchedReader:
    """``intersect`` reads a regular class file in the writer's layout in
    batches of about ``batches._BATCH_BYTES``, keeping only the profile's
    support; every entry is still checked, and anything else is read whole,
    with the same result and the same error.  Here the batches are made
    small, so that every file spans many of them."""

    @pytest.fixture()
    def run(self, tmp_path, monkeypatch, capsys):
        """Run ``intersect`` of ``profile`` (or of a profile file holding
        it, if it is a text) against a class file holding ``text``, in
        batches of ``size`` bytes or, with ``whole``, read whole; give the
        exit code, the output, the error and how the class file was read:
        in ``batches``, ``whole``, or both in turn.  With ``decoded``, add
        the entry counts of the batches whose members the profile file and
        the class file each had read line by line by ``batches._line_masks``,
        not read by the walk, and then the number of calls of
        ``batches._walked`` and of ``batches._split`` that each file's read
        made."""
        prof, cls = tmp_path / "prof.json", tmp_path / "cls.json"
        default = picard.CurveProfile(8, 3, {mask: 1 for mask in range(3, 256, 5) if mask.bit_count() >= 2})

        def run(text, size=97, profile=default, whole=False, decoded=False):
            prof.write_text(profile if isinstance(profile, str) else json_text(profile))
            cls.write_text(text)
            calls = mock.Mock()  # its mock_calls keep the order of every kind
            reads = mock.Mock(wraps=batches._batched_boundary)  # the profile file's too
            calls.attach_mock(reads, "batches")
            texts = mock.Mock(wraps=cli._text)
            with monkeypatch.context() as patch:
                patch.setattr(batches, "_BATCH_BYTES", size)
                patch.setattr(batches, "_batched_boundary", reads)
                for name in ("_line_masks", "_walked", "_split"):
                    calls.attach_mock(mock.Mock(wraps=getattr(batches, name)), name)
                    patch.setattr(batches, name, getattr(calls, name))
                patch.setattr(cli, "_text", texts)
                if whole:
                    patch.setattr(picard, "batched_class", mock.Mock(return_value=None))
                code = main(["intersect", "--profile", str(prof), "--class", str(cls)])
            out, err = capsys.readouterr()
            batched = [call for call in reads.call_args_list if call.args[0].path == str(cls)]
            read = ["batches"] * len(batched) + ["whole"] * texts.call_args_list.count(mock.call(str(cls)))
            result = code, out, err.replace(str(cls), "CLS"), " then ".join(read)
            if not decoded:
                return result
            counts = {str(prof): [], str(cls): []}
            routes = {path: {"_walked": 0, "_split": 0} for path in counts}
            for name, args, _ in calls.mock_calls:
                if name == "batches":
                    path = args[0].path
                elif name == "_line_masks":
                    counts[path].append(len(args[0]))
                else:
                    routes[path][name] += 1
            return (*result, tuple(counts.values()), tuple(routes.values()))

        return run

    @pytest.mark.parametrize("size", [1, 97, 4096, 1 << 16])
    @pytest.mark.parametrize("m", [4, 6, 8])
    def test_pullback_files_give_the_whole_read(self, run, size, m):
        # a batch of 1 or 97 bytes ends inside an entry, which is carried on
        # to the next cut
        # a class that lists every subset is read by the walk alone: no
        # batch of it is decoded
        cls = glue_pullback(DivisorClassMg(m + 1, Fraction(7, 2), -1, [Fraction(-3, 4)] * ((m + 1) // 2)), m)
        support = {mask: mask % 7 - 3 for mask in range(3, 1 << (2 * m), 11) if mask.bit_count() >= 2}
        profile = picard.CurveProfile(2 * m, 5, support)
        expected = f"{scalar_to_json(picard.pair(profile, cls))}\n"
        *result, (_, decoded), routes = run(json_text(cls), size, profile, decoded=True)
        assert result == [0, expected, "", "batches"]
        assert decoded == []
        # the profile file is never walked, and the class is read run by
        # run to the end of each batch, never split
        assert routes[0]["_walked"] == 0 and routes[1]["_walked"] > 0
        assert routes[1]["_split"] == 0

    @pytest.mark.parametrize("size", [1, 97, 1 << 16])
    @pytest.mark.parametrize("name", ["profile-gonal(5)", "pullback-trigonal"])
    def test_the_walk_ends_at_the_first_batch_that_differs(self, run, size, name):
        # pullback-trigonal leaves out {1, ..., 6}, its 211th subset: the
        # batch that holds that gap and every later one are decoded.  A
        # profile file is read with no profile, so it is never walked: it
        # is decoded from its first batch
        if name == "pullback-trigonal":
            cls = corpus.golden_pullback("trigonal")
            n, mapping, args = 8, cls.boundary, (json_text(cls), size)
        else:
            profile = corpus.profile("gonal", 5)
            n, mapping = 16, profile.on_boundary
            args = (_written([{"S": [1, 2], "coeff": "1"}], n=16), size, profile)
        listed = sorted(mapping, key=picard.boundary_order)
        whole = run(*args, whole=True)
        *result, decoded, routes = run(*args, decoded=True)
        assert result == [*whole[:3], "batches"]
        if name.startswith("profile"):
            assert (sum(decoded[0]), routes[0]["_walked"]) == (len(listed), 0)
            return
        walk = (sum(1 << (i - 1) for i in members) for k in range(2, n + 1) for members in combinations(range(1, n + 1), k))
        gap = next(i for i, (mask, walked) in enumerate(zip(listed, walk)) if mask != walked)
        counts = decoded[1]
        start = len(listed) - sum(counts)  # the first entry decoded
        assert start <= gap < start + counts[0]
        if size == 1:  # a batch a subset
            assert start == gap
        if size == 1 << 16:
            assert start == 0

    @pytest.mark.parametrize("size", [1, 97, 1 << 16])
    @pytest.mark.parametrize("case", DENSE_EDITS)
    def test_a_dense_file_edited_gives_the_whole_read(self, run, size, case):
        # the walk reads the batches before the edit, and the batch that
        # holds it is read line by line, after the last subset walked
        text = _dense_edit(case, size)
        profile = picard.CurveProfile(10, 3, {mask: mask % 5 - 2 for mask in range(3, 1 << 10, 7) if mask.bit_count() >= 2})
        whole = run(text, profile=profile, whole=True)
        *result, (_, decoded), _ = run(text, size, profile, decoded=True)
        assert result == [*whole[:3], DENSE_EDITS[case]]
        if case == "escaped coefficient":  # a piece the walk decodes to "5"
            assert decoded == []

    def test_only_the_support_is_kept(self, tmp_path):
        text = _written(ALL_SUBSETS)
        (tmp_path / "cls.json").write_text(text)
        profile = picard.CurveProfile(8, 1, {0b11: 2, 0b1010_0000: 1, 0xFF: -1})
        cls = picard.m1n_class_from_json(picard.batched_class(str(tmp_path / "cls.json"), profile))
        whole = picard.m1n_class_from_json(json.loads(text))
        assert (cls.n, cls.lam) == (whole.n, whole.lam) == (8, Fraction(7, 2))
        assert cls.boundary == {mask: whole.boundary[mask] for mask in profile.on_boundary}

    def test_one_entry_a_batch(self, run):
        code, out, err, read = run(_written(ALL_SUBSETS), 1)
        assert (code, err, read) == (0, "", "batches")
        assert run(_written(ALL_SUBSETS), whole=True) == (code, out, err, "whole")

    @pytest.mark.parametrize("case", BAD_ENTRIES)
    def test_a_bad_entry_in_the_last_batch(self, run, case):
        text = _written(ALL_SUBSETS + BAD_ENTRIES[case])
        code, out, err, read = run(text, whole=True)
        assert code == 2 and err.startswith("error: CLS: not a marked-space class file: ")
        # a last entry that is not an object leaves the writer's tail
        by_batches = "whole" if case == "entry not an object" else "batches then whole"
        assert run(text, 97) == (code, out, err, by_batches)

    @pytest.mark.parametrize("size", [1, 97])
    @pytest.mark.parametrize("at", [0, 100, 245])
    def test_a_subset_twice_across_batches(self, run, size, at):
        # the entry is written again right after itself, or at the end, with
        # another coefficient: with one entry a batch, each check of the
        # order is one between batches
        entry = ALL_SUBSETS[at]
        for boundary in (
            ALL_SUBSETS[:at + 1] + [{**entry, "coeff": "5"}] + ALL_SUBSETS[at + 1:],
            ALL_SUBSETS + [{**entry, "coeff": "5"}],
        ):
            error = f"error: CLS: not a marked-space class file: duplicate boundary index {entry['S']}\n"
            assert run(_written(boundary), size) == (2, "", error, "batches then whole")

    def test_a_marking_past_n_in_the_last_entry(self, run):
        # in boundary order after 1..8, so only the lookup of its line in
        # the table of the lines of 1..8 can refuse it
        text = _written(ALL_SUBSETS + [{"S": [1, 2, 3, 4, 5, 6, 7, 9], "coeff": "1"}])
        error = "error: CLS: not a marked-space class file: marking 9 not in 1..8\n"
        assert run(text, 97) == (2, "", error, "batches then whole")

    @pytest.mark.parametrize("kind", ["class", "profile"])
    def test_a_marking_past_n_in_the_first_batch_stops_the_read_there(self, run, kind):
        # {1, 8}, the seventh entry, becomes {1, 9}, which keeps boundary
        # order, so only the range check refuses it.  The file spans about
        # 25 batches of 1 KiB, and no batch after the first is read: the
        # class file's first batch is walked and then split, the profile
        # file's split alone, and each is then read whole for its error
        def edited(text):
            return text.replace('"S": [\n        1,\n        8\n', '"S": [\n        1,\n        9\n', 1)

        profile = picard.CurveProfile(8, 3, {mask: 1 for mask in range(1 << 8) if mask.bit_count() >= 2})
        cls, prof = _written(ALL_SUBSETS), json_text(profile)
        at = 1 if kind == "class" else 0  # the file's place in the spy's counts
        *_, routes = run(cls, 1024, prof, decoded=True)
        assert routes[at]["_walked" if at else "_split"] > 10  # unedited, every batch is read
        if kind == "class":
            cls = edited(cls)
        else:
            prof = edited(prof)
        whole = run(cls, profile=prof, whole=True)
        *result, counts, routes = run(cls, 1024, prof, decoded=True)
        assert whole[0] == 2 and "marking 9 not in 1..8" in whole[2]
        assert result == [*whole[:3], "batches then whole" if at else ""]
        assert (len(counts[at]), routes[at]) == (1, {"_walked": at, "_split": 1})

    @pytest.mark.parametrize("layout", ["compact", "reordered keys", "renamed array key", "array twice"])
    def test_another_layout_is_read_whole(self, run, layout):
        obj = json.loads(_written(ALL_SUBSETS))
        if layout == "compact":
            text = json.dumps(obj, sort_keys=True, separators=(",", ":"))
        elif layout == "reordered keys":
            text = json.dumps({"space": obj["space"], "lambda": obj["lambda"], "boundary": obj["boundary"]}, indent=2)
        elif layout == "renamed array key":
            # of the same length, so the entries lie where the writer puts them
            text = _written(ALL_SUBSETS).replace('"boundary"', '"Boundary"')
        else:
            # a second boundary array after the tail is the one JSON keeps
            text = _written(ALL_SUBSETS)[:-2] + ',\n  "boundary": []\n}'
        whole = run(text, whole=True)
        assert whole[0] == (2 if layout == "renamed array key" else 0)
        assert run(text, 97) == whole

    def test_a_file_of_the_other_kind_is_refused_from_its_tail(self, tmp_path, capsys):
        # every file is in the writer's layout, so each is read as a batched
        # file: its tail shows its kind, and the space check waits for the
        # kind.  So a file of the other kind that is malformed after its head
        # gets the kind error, not the JSON error its whole read would give
        paths = {}
        for name in ("profile-trig", "pullback-trigonal", "profile-gonal(4)"):
            paths[name] = str(tmp_path / f"{name}.json")
            assert main(["export", "--name", name, "--output", paths[name]]) == 0
        trig, cls, gonal4 = paths.values()
        broken = tmp_path / "broken.json"
        broken.write_text(Path(trig).read_text().replace('"S": [', '"S": [[', 1))
        with pytest.raises(json.JSONDecodeError):
            json.loads(broken.read_text())
        broken = str(broken)
        for argv, error in [
            (["intersect", "--profile", cls, "--class", cls], f"{cls}: not a profile file: 'on_lambda'"),
            (["intersect", "--profile", trig, "--class", trig], f"{trig}: not a marked-space class file: 'lambda'"),
            (["intersect", "--profile", trig, "--class", gonal4], f"{gonal4}: not a marked-space class file: 'lambda'"),
            (["pullback", "--g", "5", "--m", "4", "--input", trig],
             f"{trig}: not a genus-g class file: expected an Mg class, got space {{'n': 8, 'type': 'M1n'}}"),
            (["intersect", "--profile", trig, "--class", broken], f"{broken}: not a marked-space class file: 'lambda'"),
        ]:
            assert main(argv) == 2
            assert capsys.readouterr() == ("", f"error: {error}\n")

    def test_another_space_is_refused_before_any_batch(self, run):
        assert run(_written(ALL_SUBSETS, n=9), 97) == (2, "", "error: profile on n=8, class on n=9\n", "")

    def test_a_fifo_is_not_opened(self, tmp_path):
        fifo = tmp_path / "cls.fifo"
        os.mkfifo(fifo)
        with wall_clock_bound(2):  # opening a FIFO that has no writer would block
            assert picard.batched_class(str(fifo), picard.CurveProfile(8, 1)) is None

    @pytest.fixture(scope="class")
    def large_files(self, tmp_path_factory):
        """A 41 MB class file of 262,125 entries on 18 markings, and a
        profile on the same space."""
        tmp = tmp_path_factory.mktemp("large")
        cls, prof = tmp / "cls.json", tmp / "prof.json"
        with open(cls, "w", encoding="utf-8") as fh:
            writer.write_json(glue_pullback(DivisorClassMg(10, 1, 1, [1] * 5), 9), fh.write)
        prof.write_text(json_text(picard.CurveProfile(18, 0, {0b11: 1})))
        return str(cls), str(prof)

    @pytest.mark.skipif(not os.path.exists("/proc/self/status"), reason="reads VmHWM from /proc")
    @pytest.mark.parametrize("command", ["class", "class as profile", "class as genus-g class"])
    def test_the_peak_of_a_large_file_is_that_of_the_imports(self, large_files, command):
        # this file peaked at 163 MiB when it was read whole; in batches the
        # command's peak stays within a few MiB of that of the interpreter
        # and its imports, and so does either refusal of it as a file of
        # another kind, which its tail alone shows
        cls, prof = large_files
        argv, code, out, err = {
            "class": (["intersect", "--profile", prof, "--class", cls], "0", ["-1"], ""),
            "class as profile": (
                ["intersect", "--profile", cls, "--class", prof], "2", [],
                f"error: {cls}: not a profile file: 'on_lambda'\n",
            ),
            "class as genus-g class": (
                ["pullback", "--g", "10", "--m", "9", "--input", cls], "2", [],
                f"error: {cls}: not a genus-g class file: expected an Mg class, got space {{'n': 18, 'type': 'M1n'}}\n",
            ),
        }[command]
        # the child's mark is taken once it has imported the command line
        child = subprocess.run(
            [sys.executable, "-c", PEAK_CHILD.replace("cli._decode = marked", "marks.append(peak_kib())"),
             json.dumps(argv)],
            capture_output=True, text=True, timeout=120,
            env={**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)},
        )
        assert child.returncode == 0 and child.stderr == err, child.stderr
        *printed, exited, imported, peak = child.stdout.split()
        assert (printed, exited) == (out, code)
        assert int(peak) - int(imported) < 8 * 1024, f"peak {peak} KiB, {imported} KiB once imported"

    @pytest.mark.parametrize("size", [1, 97, 4096, 1 << 16])
    @pytest.mark.parametrize("case", RUN_CASES)
    def test_runs_of_one_coefficient_give_the_whole_read(self, run, size, case):
        # every subset is listed, so the walk reads each batch a run at a
        # time, and no batch of the class is read line by line
        text = _run_file(case, size)
        profile = picard.CurveProfile(10, 3, {mask: mask % 5 - 2 for mask in range(3, 1 << 10, 7) if mask.bit_count() >= 2})
        whole = run(text, profile=profile, whole=True)
        *result, (_, decoded), _ = run(text, size, profile, decoded=True)
        assert whole[0] == 0
        assert result == [*whole[:3], "batches"]
        assert decoded == []

    @settings(max_examples=100, deadline=None)
    @given(st.data())
    def test_runs_from_a_small_pool_give_the_whole_read(self, data):
        # dense classes whose coefficients come from a pool of one to three
        # values, so that runs have random lengths, read in batches of a
        # random size with or without a profile: with one, the walk reads
        # every batch; with none, every batch is read line by line
        n = data.draw(st.integers(2, 7), label="n")
        masks = sorted((mask for mask in range(1 << n) if mask.bit_count() >= 2), key=picard.boundary_order)
        pool = data.draw(st.lists(rationals.filter(bool), min_size=1, max_size=3, unique=True), label="pool")
        values = data.draw(st.lists(st.sampled_from(pool), min_size=len(masks), max_size=len(masks)), label="values")
        support = data.draw(st.none() | st.dictionaries(st.sampled_from(masks), rationals.filter(bool)), label="support")
        size = data.draw(st.integers(1, 4096), label="size")
        text = json_text(DivisorClassM1n(n, Fraction(7, 2), dict(zip(masks, values))))
        profile = None if support is None else picard.CurveProfile(n, 1, support)
        with tempfile.TemporaryDirectory() as tmp:
            path = os.path.join(tmp, "cls.json")
            with open(path, "w", encoding="utf-8") as fh:
                fh.write(text)
            with mock.patch.object(batches, "_BATCH_BYTES", size), \
                    mock.patch.object(batches, "_line_masks", wraps=batches._line_masks) as lines, \
                    mock.patch.object(batches, "_walked", wraps=batches._walked) as walked:
                read = picard.m1n_class_from_json(picard.batched_class(path, profile))
        whole = picard.m1n_class_from_json(json.loads(text))
        assert (read.n, read.lam) == (whole.n, whole.lam)
        kept = [(mask, value) for mask, value in whole.boundary.items() if profile is None or mask in support]
        assert list(read.boundary.items()) == kept
        if profile is None:
            assert walked.call_count == 0
        else:
            assert lines.call_count == 0
