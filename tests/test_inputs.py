"""Strict input files: every malformed scalar, marking or space size is an
input error (exit 2), and no pullback leaves the 64-marking range."""

import gc
import json
import signal
from fractions import Fraction
from types import SimpleNamespace
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import rationals
from effcone import cli, corpus, gonal, picard
from effcone.cli import main
from effcone.gluing import forget_pullback, glue_pullback
from effcone.picard import DivisorClassM1n, DivisorClassMg
from effcone.scalars import format_rat, parse_rat, scalar_from_json

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

    def test_admits_every_pullback_to_ten_pairs(self, tmp_path, monkeypatch):
        written = []

        def record(cls, write):
            written.append(len(cls.boundary))

        monkeypatch.setattr(picard, "write_json", record)
        out = tmp_path / "out.json"
        assert main(["pullback", "--g", "11", "--m", "10", "--input", _genus_file(tmp_path, 11), "--output", str(out)]) == 0
        assert written == [2**20 - 21] and 2**20 - 21 <= cli.EXPORT_BUDGET < 2**22 - 23

    @pytest.mark.parametrize("d", [10, 20])
    def test_gonal_profile_refused_before_enumerating(self, capsys, monkeypatch, d):
        def enumerate_profile(name, d=None):
            raise AssertionError("the profile was enumerated")

        monkeypatch.setattr(corpus, "profile", enumerate_profile)
        assert main(["export", "--name", f"profile-gonal({d})"]) == 2
        assert capsys.readouterr().err.startswith("error: ")

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

    @pytest.fixture(params=["nested", "not utf-8"])
    def bad(self, request, tmp_path):
        path = tmp_path / "bad.json"
        if request.param == "nested":
            path.write_text("[" * 200_000 + "]" * 200_000)
        else:
            path.write_bytes(b'{"space": \xff}')
        return str(path)

    def test_profile(self, files, capsys, bad):
        self._fails(capsys, ["intersect", "--profile", bad, "--class", files.cls_path], bad)

    def test_genus_class(self, capsys, bad):
        self._fails(capsys, ["pullback", "--g", "5", "--m", "4", "--input", bad], bad)


class TestUnwritableOutput:
    """An ``--output`` that cannot be opened for writing is an input error
    that names the path, not a traceback."""

    @pytest.fixture(params=["directory", "missing parent"])
    def target(self, request, tmp_path):
        if request.param == "directory":
            return str(tmp_path)
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


class TestBulkReader:
    """The bulk check of :func:`picard._boundary_from_json` reads what the
    entry loop :func:`picard._boundary_entries` reads, and leaves every
    error to it."""

    @pytest.mark.parametrize("case", READER_FAULTS)
    def test_same_error(self, case):
        entries = READER_FAULTS[case]
        with pytest.raises((KeyError, TypeError, ValueError)) as looped:
            picard._boundary_entries(entries, 8)
        with pytest.raises(type(looped.value)) as bulk:
            picard._boundary_from_json(entries, 8)
        assert type(bulk.value) is type(looped.value) and str(bulk.value) == str(looped.value)

    @pytest.mark.parametrize("case, message", [
        ("bool then bad coeff", "markings must be integers, got [True, 3]"),
        ("bad coeff then bool", "not a rational string: 'x'"),
        ("duplicate then range", "duplicate boundary index [2, 1]"),
        ("range then duplicate", "marking 9 not in 1..8"),
    ])
    def test_first_fault_is_reported(self, case, message):
        with pytest.raises(ValueError) as caught:
            picard._boundary_from_json(ORDERED_FAULTS[case], 8)
        assert str(caught.value) == message

    @settings(max_examples=200)
    @given(_valid_entries())
    def test_same_dict_in_the_same_order(self, drawn):
        n, entries = drawn
        looped = picard._boundary_entries(entries, n)
        with mock.patch.object(picard, "_boundary_entries", side_effect=AssertionError("fell back")):
            bulk = picard._boundary_from_json(entries, n)
        assert list(bulk.items()) == list(looped.items())


class TestReaderGuards:
    """The fast paths of the reader stay taken: canonical files pass the
    bulk check, and the cycle collector is paused for a read and then put
    back as it was."""

    @pytest.mark.parametrize("m", [4, 5, 6, 7, 8])
    def test_pullback_files_take_the_bulk_check(self, monkeypatch, m):
        cls = glue_pullback(DivisorClassMg(m + 1, Fraction(7, 2), -1, [Fraction(-3, 4)] * ((m + 1) // 2)), m)
        obj = json.loads(picard.json_text(cls))
        monkeypatch.setattr(picard, "_boundary_entries", mock.Mock(side_effect=AssertionError("fell back")))
        assert picard.m1n_class_from_json(obj) == cls

    @pytest.mark.parametrize("name", ["pullback-gp", "profile-gp", "profile-gonal(4)"])
    def test_exported_files_take_the_bulk_check(self, tmp_path, monkeypatch, name):
        path = tmp_path / "item.json"
        assert main(["export", "--name", name, "--output", str(path)]) == 0
        parse = picard.profile_from_json if name.startswith("profile") else picard.m1n_class_from_json
        expected = parse(json.loads(path.read_text()))
        monkeypatch.setattr(picard, "_boundary_entries", mock.Mock(side_effect=AssertionError("fell back")))
        assert parse(json.loads(path.read_text())) == expected

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
