"""The class file writer: ``picard.json_text`` gives the same bytes as
``json.dumps(obj, indent=2, sort_keys=True) + "\\n"``, which stays here as
the oracle, and the members table behind the boundary order."""

import json
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import rationals
from effcone import picard
from effcone.cli import _EXPORTERS, main
from effcone.gluing import glue_pullback
from effcone.picard import (
    CurveProfile,
    DivisorClassM1n,
    DivisorClassMg,
    boundary_order,
    json_text,
    m1n_class_to_json,
    mg_class_to_json,
    profile_to_json,
    subset_members,
)
from effcone.scalars import Poly


def oracle(obj) -> str:
    return json.dumps(obj, indent=2, sort_keys=True) + "\n"


def members_by_bits(mask):
    return tuple(i + 1 for i in range(mask.bit_length()) if mask >> i & 1)


scalars = st.one_of(rationals, st.lists(rationals, min_size=1, max_size=4).map(Poly))


@st.composite
def boundaries(draw):
    n = draw(st.integers(min_value=2, max_value=picard.MAX_MARKINGS))
    masks = st.integers(min_value=0, max_value=(1 << n) - 1).filter(lambda m: m.bit_count() >= 2)
    return n, draw(st.dictionaries(masks, scalars, max_size=8))


class TestWriterMatchesOracle:
    @given(boundaries(), scalars)
    @settings(max_examples=75)
    def test_random_classes(self, nb, lam):
        n, boundary = nb
        obj = m1n_class_to_json(DivisorClassM1n(n, lam, boundary))
        assert json_text(obj) == oracle(obj)

    @given(boundaries(), scalars)
    @settings(max_examples=75)
    def test_random_profiles(self, nb, on_lambda):
        n, boundary = nb
        obj = profile_to_json(CurveProfile(n, on_lambda, boundary))
        assert json_text(obj) == oracle(obj)

    def test_empty_boundary(self):
        for obj in (
            m1n_class_to_json(DivisorClassM1n(5, 3)),
            profile_to_json(CurveProfile(5, Poly((1, 2)))),
            m1n_class_to_json(DivisorClassM1n(2, 0)),
        ):
            assert json_text(obj) == oracle(obj)

    def test_every_marking_up_to_64(self):
        full = (1 << 64) - 1
        boundary = {full: Poly((-1, 0, 3)), full ^ 1: 7, 3 << 62: -2, 1 | 1 << 63: Fraction(5, 3)}
        obj = m1n_class_to_json(DivisorClassM1n(64, -1, boundary))
        assert obj["boundary"][-1]["S"] == list(range(1, 65))
        assert json_text(obj) == oracle(obj)

    def test_genus_g_classes_go_through_json_dumps(self):
        obj = mg_class_to_json(DivisorClassMg(9, 12, -1, [-4, -6, -8, -10]))
        assert json_text(obj) == oracle(obj)


class TestCommandsMatchOracle:
    NAMES = [*_EXPORTERS, "bn(3)", "bn(6)", "profile-gonal(3)", "profile-gonal(5)"]

    @pytest.mark.parametrize("name", NAMES)
    def test_export(self, tmp_path, name):
        out = tmp_path / "out.json"
        assert main(["export", "--name", name, "--output", str(out)]) == 0
        text = out.read_text()
        assert text == oracle(json.loads(text))

    @pytest.mark.parametrize("m", range(2, 9))
    def test_pullback(self, tmp_path, m):
        g = m + 1
        cls = DivisorClassMg(g, 6 * (g + 3), -(g + 1), [-6 * i * (g - i) for i in range(1, g // 2 + 1)])
        src, out = tmp_path / "cls.json", tmp_path / "pb.json"
        src.write_text(oracle(mg_class_to_json(cls)))
        assert main(["pullback", "--g", str(g), "--m", str(m), "--input", str(src), "--output", str(out)]) == 0
        text = out.read_text()
        obj = json.loads(text)
        assert text == oracle(obj)
        assert len(obj["boundary"]) == len(glue_pullback(cls, m).boundary)


class TestMembersTable:
    @given(st.integers(min_value=0, max_value=(1 << 64) - 1))
    @settings(max_examples=300)
    def test_random_masks_up_to_64_markings(self, mask):
        assert subset_members(mask) == members_by_bits(mask)
        assert boundary_order(mask) == (mask.bit_count(), members_by_bits(mask))

    @pytest.mark.parametrize("n", [8, 9, 16, 17, 33, 63, 64])
    def test_high_bits(self, n):
        for mask in (1 << (n - 1), (1 << n) - 1, (1 << (n - 1)) | 1, ((1 << n) - 1) ^ (1 << (n // 2))):
            assert subset_members(mask) == members_by_bits(mask)
