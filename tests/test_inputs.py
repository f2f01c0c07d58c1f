"""Strict input files: every malformed scalar, marking or space size is an
input error (exit 2), and no pullback leaves the 64-marking range."""

import json
from fractions import Fraction
from types import SimpleNamespace

import pytest

from effcone import picard
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
