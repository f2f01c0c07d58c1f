"""Strict input files: every malformed scalar, marking or space size is an
input error (exit 2), and no pullback leaves the 64-marking range."""

import json
from fractions import Fraction
from types import SimpleNamespace

import pytest

from effcone import cli, corpus, gonal, picard
from effcone.cli import main
from effcone.gluing import forget_pullback, glue_pullback
from effcone.picard import DivisorClassM1n, DivisorClassMg
from effcone.scalars import parse_rat, scalar_from_json

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

        def record(cls):
            written.append(len(cls.boundary))
            return picard.mg_class_to_json(DivisorClassMg(3, 0, 0, [0]))

        monkeypatch.setattr(picard, "m1n_class_to_json", record)
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
        assert type(obj["boundary"]) is picard._Listing
        assert picard.m1n_class_from_json(obj) == cls
