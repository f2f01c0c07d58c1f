"""Divisor classes, profiles, the pairing, and the marking action."""

import heapq
import json
import random
from collections.abc import Mapping
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import curve_profiles, m1n_classes, rationals
from effcone.corpus import bn_class, golden_pullback, profile
from effcone.gluing import GluedBoundary, forget_pullback, glue_pullback
from effcone.picard import (
    CurveProfile,
    _checked_boundary,
    DivisorClassM1n,
    DivisorClassMg,
    MarkingIndexError,
    SpaceMismatchError,
    boundary_order,
    linear_combine,
    m1n_class_from_json,
    m1n_class_to_json,
    mg_class_from_json,
    mg_class_to_json,
    pair,
    permute_markings,
    permute_profile,
    profile_from_json,
    profile_to_json,
    subset_mask,
    subset_members,
)
from effcone.scalars import Poly, canon, scalar_to_json


def d0(n, *members):
    return DivisorClassM1n(n, 0, {subset_mask(members, n): 1})


def permute_mask(mask, sigma):
    """Reference: the image of a subset mask under sigma (a sequence of the
    images of 1..n), one bit at a time."""
    out = 0
    i = 1
    while mask:
        if mask & 1:
            out |= 1 << (sigma[i - 1] - 1)
        mask >>= 1
        i += 1
    return out


class TestConstruction:
    def test_zero_coefficients_are_pruned(self):
        cls = DivisorClassM1n(4, 1, {subset_mask((1, 2), 4): 0})
        assert cls.boundary == {}
        assert cls.is_zero() is False  # lambda part remains

    def test_singletons_rejected_as_boundary_indices(self):
        with pytest.raises(ValueError):
            DivisorClassM1n(4, 0, {subset_mask((1,), 4): 1})

    def test_out_of_range_markings_rejected(self):
        with pytest.raises(MarkingIndexError):
            DivisorClassM1n(4, 0, {1 << 10: 1})
        with pytest.raises(MarkingIndexError):
            subset_mask((5,), 4)

    def test_marking_count_bounds(self):
        with pytest.raises(ValueError):
            DivisorClassM1n(1)
        with pytest.raises(ValueError):
            DivisorClassM1n(65)

    def test_canonical_form_is_idempotent(self):
        cls = DivisorClassM1n(5, Fraction(4, 2), {subset_mask((1, 3), 5): Fraction(6, 3)})
        again = DivisorClassM1n(cls.n, cls.lam, cls.boundary)
        assert cls == again and cls.lam == 2 and cls.coeff(subset_mask((1, 3), 5)) == 2

    def test_mg_requires_matching_delta_length(self):
        with pytest.raises(ValueError):
            DivisorClassMg(5, 1, 1, (1,))
        with pytest.raises(ValueError):
            DivisorClassMg(2, 1, 1, (1,))

    def test_mg_delta_form_round_trip(self):
        cls = DivisorClassMg.from_delta_form(5, 8, -1, (-3, -5))
        assert cls == DivisorClassMg(5, 8, -1, (-4, -6))
        assert cls.delta_form() == (8, -1, (-3, -5))


class TestLinearCombine:
    def test_doubling_lambda(self):
        lam = DivisorClassM1n(3, 1)
        assert linear_combine([(1, lam), (1, lam)]) == DivisorClassM1n(3, 2)

    def test_additive_inverse_gives_zero_class(self):
        x = d0(4, 1, 2)
        result = linear_combine([(1, x), (-1, x)])
        assert result.is_zero() and result.boundary == {}

    def test_doubled_trigonal_pullback_pair_coefficient(self):
        doubled = linear_combine([(2, golden_pullback("trigonal"))])
        assert doubled.coeff(subset_mask((1, 2), 8)) == -4

    def test_mismatched_spaces(self):
        with pytest.raises(SpaceMismatchError):
            linear_combine([(1, DivisorClassM1n(3, 1)), (1, DivisorClassM1n(4, 1))])

    @given(x=m1n_classes(n=5), y=m1n_classes(n=5), s=rationals, t=rationals)
    @settings(max_examples=100)
    def test_combination_matches_pointwise(self, x, y, s, t):
        combo = linear_combine([(s, x), (t, y)])
        assert combo.lam == s * x.lam + t * y.lam
        for key in x.boundary.keys() | y.boundary.keys():
            assert combo.coeff(key) == s * x.coeff(key) + t * y.coeff(key)


class TestPair:
    def test_trigonal_pencil_pairing(self):
        assert pair(profile("trig"), golden_pullback("trigonal")) == -1

    def test_boundary_pencil_pairing(self):
        assert pair(profile("bnd"), golden_pullback("trigonal")) == -2

    def test_zero_profile(self):
        zero = CurveProfile(8)
        assert pair(zero, golden_pullback("trigonal")) == 0

    def test_mismatched_spaces(self):
        with pytest.raises(SpaceMismatchError):
            pair(CurveProfile(6, 1), golden_pullback("trigonal"))

    @given(
        p=curve_profiles(n=5),
        x=m1n_classes(n=5),
        y=m1n_classes(n=5),
        s=rationals,
        t=rationals,
    )
    @settings(max_examples=100)
    def test_bilinearity(self, p, x, y, s, t):
        assert pair(p, linear_combine([(s, x), (t, y)])) == s * pair(p, x) + t * pair(p, y)


class TestPermutations:
    def test_identity_fixes_everything(self):
        cls = golden_pullback("trigonal")
        assert permute_markings(cls, tuple(range(1, 9))) == cls

    def test_in_pair_swap_fixes_trigonal_pullback(self):
        cls = golden_pullback("trigonal")
        swap12 = (2, 1, 3, 4, 5, 6, 7, 8)
        assert permute_markings(cls, swap12) == cls

    def test_pair_block_swap_fixes_trigonal_pullback(self):
        cls = golden_pullback("trigonal")
        blocks12 = (3, 4, 1, 2, 5, 6, 7, 8)
        assert permute_markings(cls, blocks12) == cls

    def test_generic_permutation_moves_a_generic_class(self):
        cls = d0(4, 1, 2)
        moved = permute_markings(cls, (1, 3, 2, 4))
        assert moved == d0(4, 1, 3)

    def test_rejects_non_permutations(self):
        with pytest.raises(ValueError):
            permute_markings(d0(4, 1, 2), (1, 1, 2, 3))
        with pytest.raises(ValueError):
            permute_markings(d0(4, 1, 2), (1, 2, 3))

    @given(
        cls=m1n_classes(n=5),
        first=st.permutations(range(1, 6)),
        second=st.permutations(range(1, 6)),
    )
    @settings(max_examples=100)
    def test_group_action(self, cls, first, second):
        first, second = tuple(first), tuple(second)
        stepwise = permute_markings(permute_markings(cls, first), second)
        composed = permute_markings(cls, tuple(second[f - 1] for f in first))
        assert stepwise == composed

    @given(cls=m1n_classes(n=5), sigma=st.permutations(range(1, 6)))
    @settings(max_examples=100)
    def test_action_preserves_support_sizes(self, cls, sigma):
        moved = permute_markings(cls, tuple(sigma))
        assert sorted(m.bit_count() for m in moved.boundary) == sorted(
            m.bit_count() for m in cls.boundary
        )
        assert moved.lam == cls.lam


    def test_table_relabeling_matches_bitwise_relabeling(self):
        # one to three lookup tables per mask, including a partial last byte
        rng = random.Random(11)
        for n in (3, 8, 9, 16, 20):
            sigma = tuple(rng.sample(range(1, n + 1), n))
            masks = {rng.randrange(1 << n) for _ in range(200)}
            masks = {m for m in masks if m.bit_count() >= 2}
            prof = CurveProfile(n, 0, {m: m for m in masks})
            moved = permute_profile(prof, sigma)
            assert moved.on_boundary == {permute_mask(m, sigma): m for m in masks}


class TestJson:
    def test_class_round_trip(self):
        cls = DivisorClassM1n(4, Fraction(3, 2), {subset_mask((1, 3), 4): -2})
        obj = m1n_class_to_json(cls)
        assert obj["space"] == {"type": "M1n", "n": 4}
        assert obj["boundary"] == [{"S": [1, 3], "coeff": "-2"}]
        assert m1n_class_from_json(obj) == cls

    def test_profile_round_trip(self):
        prof = profile("gp")
        obj = profile_to_json(prof)
        assert obj["on_lambda"] == ["-8", "8"]
        assert profile_from_json(obj) == prof

    def test_mg_round_trip(self):
        cls = DivisorClassMg(5, 8, -1, (-4, -6))
        obj = mg_class_to_json(cls)
        assert obj == {
            "space": {"type": "Mg", "g": 5},
            "lambda": "8",
            "delta_irr": "-1",
            "delta": ["-4", "-6"],
        }
        assert mg_class_from_json(obj) == cls

    def test_boundary_entries_are_sorted_and_deterministic(self):
        a = DivisorClassM1n(4, 0, {subset_mask((1, 2, 3), 4): 1, subset_mask((2, 4), 4): 2})
        b = DivisorClassM1n(4, 0, {subset_mask((2, 4), 4): 2, subset_mask((1, 2, 3), 4): 1})
        assert json.dumps(m1n_class_to_json(a)) == json.dumps(m1n_class_to_json(b))
        sizes = [len(e["S"]) for e in m1n_class_to_json(a)["boundary"]]
        assert sizes == sorted(sizes)

    def test_duplicate_boundary_entries_rejected(self):
        obj = m1n_class_to_json(d0(4, 1, 2))
        obj["boundary"].append({"S": [1, 2], "coeff": "5"})
        with pytest.raises(ValueError):
            m1n_class_from_json(obj)

    def test_wrong_space_type_rejected(self):
        with pytest.raises(ValueError):
            mg_class_from_json({"space": {"type": "M1n", "n": 4}})

    @given(cls=m1n_classes())
    @settings(max_examples=100)
    def test_round_trip_random(self, cls):
        assert m1n_class_from_json(m1n_class_to_json(cls)) == cls


def test_boundary_order_is_size_then_sorted_members():
    for n in range(1, 11):
        masks = list(range(1 << n))
        by_members = sorted(masks, key=lambda m: (m.bit_count(), subset_members(m)))
        assert sorted(masks, key=boundary_order) == by_members


def test_subset_members_inverts_mask():
    mask = subset_mask((2, 5, 7), 8)
    assert subset_members(mask) == (2, 5, 7)


class TestRepr:
    def test_small_class_text(self):
        cls = DivisorClassM1n(4, 2, {0b1111: -2, 0b0101: Fraction(3, 2), 0b0011: 1, 0b1010: 5})
        assert repr(cls) == "<DivisorClassM1n n=4 lambda=2 d0;{1, 2}: 1, d0;{1, 3}: 3/2, d0;{2, 4}: 5, d0;{1, 2, 3, 4}: -2>"

    def test_profile_text_lists_the_first_six(self):
        prof = CurveProfile(4, 1, {m: m for m in range(16) if m.bit_count() >= 2})
        assert repr(prof) == (
            "<CurveProfile n=4 lambda=1 d0;{1, 2}: 3, d0;{1, 3}: 5, d0;{1, 4}: 9, d0;{2, 3}: 6, "
            "d0;{2, 4}: 10, d0;{3, 4}: 12, ... (11 terms)>"
        )

    @staticmethod
    def searched(cls):
        """The text of a class with its first entries found by searching
        every entry, as the repr did before glued views listed themselves."""
        first = heapq.nsmallest(6, cls.boundary.items(), key=lambda kv: boundary_order(kv[0]))
        parts = [f"d0;{set(subset_members(mask))}: {value}" for mask, value in first]
        if len(cls.boundary) > 6:
            parts.append(f"... ({len(cls.boundary)} terms)")
        return f"<DivisorClassM1n n={cls.n} lambda={cls.lam} {', '.join(parts)}>"

    @pytest.mark.parametrize("m", range(2, 7))
    def test_glued_view_text_matches_the_search(self, m):
        rng = random.Random(600 + m)
        g = m + 1
        for w_irr in (0, 1, Fraction(-1, 2)):
            for _ in range(4):
                delta = [rng.choice((0, 1, -1, w_irr)) for _ in range(g // 2)]
                cls = glue_pullback(DivisorClassMg(g, rng.choice((0, 3)), w_irr, delta), m)
                assert repr(cls) == self.searched(cls)

    def test_large_view_counts_its_terms(self):
        text = repr(glue_pullback(bn_class(6), 10))
        assert text.startswith("<DivisorClassM1n n=20 lambda=210 d0;{1, 2}: -42, d0;{1, 3}: 14, ")
        assert text.endswith(", d0;{1, 7}: 14, ... (1048435 terms)>")


def _checked_by_entry(boundary, n):
    """Boundary validation one entry at a time, as ``_checked_boundary`` did
    before it checked the keys in bulk."""
    out = {}
    top = (1 << n) - 1
    for mask, value in dict(boundary or {}).items():
        if not isinstance(mask, int) or mask < 0 or mask & ~top:
            raise MarkingIndexError(f"subset {mask!r} not within 1..{n}")
        if mask.bit_count() < 2:
            raise ValueError(f"boundary index {subset_members(mask)} has fewer than two markings")
        value = canon(value)
        if value != 0:
            out[mask] = value
    return out


def _outcome(check, boundary, n):
    """What a validator makes of a boundary: its entries with their value
    types in order, or the type and message of the error it raises."""
    try:
        out = check(boundary, n)
    except Exception as exc:  # the comparison is of which error, exactly
        return type(exc), str(exc)
    return [(mask, value, type(value)) for mask, value in out.items()]


class TestCheckedBoundary:
    """The bulk key checks accept and reject exactly what the per-entry loop
    does, with the same first error and the same canonical values."""

    @pytest.mark.parametrize(
        "boundary",
        [
            pytest.param({0b0011: 1, "0b0101": 1}, id="non-int key"),
            pytest.param({0b0011: 1, 5.0: 1}, id="float key"),
            pytest.param({0b0011: 1, True: 1}, id="bool key"),
            pytest.param({0b0011: 1, -0b0101: 1}, id="negative key"),
            pytest.param({0b0011: 1, 0b10001: 1}, id="key past n"),
            pytest.param({0b0011: 1, 0b0100: 1}, id="one-marking key"),
            pytest.param({0b0011: 1, 0: 1}, id="empty key"),
            pytest.param({0b0011: 1, 0b0101: 1.5}, id="float value"),
            pytest.param({0b0011: 1, 0b0101: True}, id="bool value"),
            pytest.param({0b0011: 1, 0b0101: "1"}, id="string value"),
            pytest.param({0b0011: 1.5, 0b10001: 1}, id="bad value before bad key"),
            pytest.param({0b10001: 1, 0b0011: 1.5}, id="bad key before bad value"),
            pytest.param({0b0011: Fraction(1, 2), 0b0100: 1, 0b1000: 1}, id="first of two bad keys"),
        ],
    )
    def test_same_first_error(self, boundary):
        new = _outcome(_checked_boundary, boundary, 4)
        assert isinstance(new, tuple) and issubclass(new[0], Exception)
        assert new == _outcome(_checked_by_entry, boundary, 4)

    @pytest.mark.parametrize(
        "boundary",
        [
            pytest.param(None, id="none"),
            pytest.param({}, id="empty"),
            pytest.param({0b0011: 1, 0b1100: -4, 0b1111: 2**70}, id="int"),
            pytest.param({0b0011: 1, 0b1100: 0, 0b1111: 5}, id="int with zeros"),
            pytest.param({0b0011: Fraction(6, 3), 0b0101: Fraction(-1, 2)}, id="fraction"),
            pytest.param({0b0011: Poly((3,)), 0b0101: Poly((Fraction(1, 2),))}, id="constant poly"),
            pytest.param({0b0011: Poly((1, 2)), 0b0101: 7}, id="non-constant poly"),
            pytest.param(
                {0b0011: Fraction(0), 0b0101: Poly(()), 0b0110: Poly((0, 0)), 0b1001: 0, 0b1010: 3},
                id="zeros of every type",
            ),
        ],
    )
    def test_same_canonical_entries(self, boundary):
        new = _outcome(_checked_boundary, boundary, 4)
        assert isinstance(new, list)
        assert new == _outcome(_checked_by_entry, boundary, 4)

    def test_returns_a_copy(self):
        boundary = {0b0011: 1, 0b0101: 2}
        out = _checked_boundary(boundary, 4)
        assert out == boundary and out is not boundary

    def test_mapping_view_input(self):
        view = glue_pullback(bn_class(3), 4).boundary
        assert _checked_boundary(view, 8) == _checked_by_entry(view, 8) == dict(view.items())

    def test_a_view_is_listed_once_and_never_read_by_point(self, monkeypatch):
        view = glue_pullback(bn_class(4), 6).boundary
        listed = dict(view.items())
        reads = []
        honest = GluedBoundary.get

        def counted(self, mask, default=None):
            reads.append(mask)
            return honest(self, mask, default)

        monkeypatch.setattr(GluedBoundary, "get", counted)
        assert DivisorClassM1n(12, 0, view).boundary == listed
        assert reads == [] and len(listed) == 4083

    @given(st.integers(min_value=2, max_value=6).flatmap(
        lambda n: st.tuples(st.just(n), st.dictionaries(
            st.integers(min_value=-1, max_value=(1 << n) + 1),
            st.one_of(rationals, st.integers(-3, 3), st.builds(Poly, st.lists(rationals, max_size=3))),
            max_size=6,
        ))
    ))
    @settings(max_examples=100, deadline=None)
    def test_agrees_with_the_entry_loop(self, case):
        n, boundary = case
        assert _outcome(_checked_boundary, boundary, n) == _outcome(_checked_by_entry, boundary, n)


def _relabeled(mapping, sigma):
    """Reference: every key moved one bit at a time."""
    return {permute_mask(mask, sigma): value for mask, value in mapping.items()}


def _sources(n, rng):
    """A dict, a forgetful view and (for even n) a glued view on n markings.
    The glued view on 20 markings keeps only pair unions, so that listing
    it stays small."""
    def rat():
        return Fraction(rng.randint(-9, 9), rng.randint(1, 4))

    masks = {rng.randrange(1 << n) for _ in range(300)}
    yield "dict", DivisorClassM1n(n, 1, {m: rat() for m in masks if m.bit_count() >= 2})
    base_n = max(2, n - 3)
    base = {m: rat() for m in (rng.randrange(1 << base_n) for _ in range(40)) if m.bit_count() >= 2}
    yield "forgetful", forget_pullback(DivisorClassM1n(base_n, 1, base), n)
    if n % 2 == 0:
        m = n // 2
        w_irr = 0 if n == 20 else rat()
        yield "glued", glue_pullback(DivisorClassMg(m + 1, rat(), w_irr, [rat() for _ in range((m + 1) // 2)]), m)


def _sorted_entries(boundary):
    """Reference: every entry sorted by ``boundary_order`` and serialized on
    its own."""
    ordered = sorted(boundary.items(), key=lambda kv: boundary_order(kv[0]))
    return [{"S": list(subset_members(mask)), "coeff": scalar_to_json(value)} for mask, value in ordered]


class TestOneListing:
    """The repr and the serialized entries of a dict, a forgetful view and a
    glued view come from one listing: each is checked against a search or a
    sort of every entry.  Every kind serializes to a list."""

    @pytest.mark.parametrize("n", [3, 8, 9, 16])
    def test_reprs_and_entries(self, n):
        rng = random.Random(700 + n)
        for kind, cls in _sources(n, rng):
            assert repr(cls) == TestRepr.searched(cls), kind
            entries = m1n_class_to_json(cls)["boundary"]
            assert type(entries) is list, kind
            assert entries == _sorted_entries(cls.boundary), kind

    def test_polynomial_values_are_separate_lists(self):
        value = Poly((1, -2))
        cls = DivisorClassM1n(5, 0, {0b10101: value, 0b00011: value, 0b01100: 3, 0b11000: value})
        entries = m1n_class_to_json(cls)["boundary"]
        assert entries == _sorted_entries(cls.boundary)
        entries[0]["coeff"].append("9")
        assert entries[1:] == _sorted_entries(cls.boundary)[1:]


class TestPermutationPipeline:
    """The lookup-table pipelines of ``permute_markings`` and
    ``permute_profile`` against bit-by-bit relabeling.  A table is w bits
    wide, w the bit length of the key count within 8..12, so the cases sit
    on both sides of each width change (255/256 and 2,047/2,048 keys, and
    past 4,095) and of each field boundary (n = 11, 12, 13, 24, 25): one to
    three tables, a partial last field, dicts and both views (the glued view
    on 12 markings lists all 4,083 masks), and eight tables on 64 markings
    with polynomial values."""

    @pytest.mark.parametrize("n", [3, 8, 9, 12, 16, 20])
    def test_classes_and_profiles(self, n):
        rng = random.Random(n)
        for kind, cls in _sources(n, rng):
            sigma = tuple(rng.sample(range(1, n + 1), n))
            expected = _relabeled(dict(cls.boundary.items()), sigma)
            moved = permute_markings(cls, sigma)
            assert type(moved.boundary) is dict and moved.boundary == expected, kind
            assert moved.n == n and moved.lam == cls.lam
            prof = CurveProfile(n, 2, cls.boundary)
            assert permute_profile(prof, sigma).on_boundary == expected, kind

    def test_sixty_four_markings_with_polynomial_values(self):
        rng = random.Random(64)
        n = 64
        boundary = {}
        for _ in range(500):
            mask = rng.getrandbits(n) | 1 << 63 | 1
            boundary[mask] = Poly((rng.randint(-5, 5), rng.randint(1, 5)))
        sigma = tuple(rng.sample(range(1, n + 1), n))
        expected = _relabeled(boundary, sigma)
        assert permute_markings(DivisorClassM1n(n, 0, boundary), sigma).boundary == expected
        assert permute_profile(CurveProfile(n, 0, boundary), sigma).on_boundary == expected
        assert all(type(value) is Poly for value in expected.values())

    @pytest.mark.parametrize("n, count", [
        (8, 247),  # every mask on 8 markings: one 8-bit table
        (11, 255), (11, 256), (11, 2036),  # 8 + 3, 9 + 2, and one 11-bit table
        (12, 2047), (12, 2048), (12, 4083),  # 11 + 1, one 12-bit table, every mask
        (13, 2048), (24, 2048), (25, 2048),  # 12 + 1, 12 + 12, 12 + 12 + 1
        (24, 255), (24, 256), (25, 5000),  # 8 + 8 + 8, 9 + 9 + 6, 12 + 12 + 1
    ])
    def test_both_sides_of_each_table_width(self, n, count):
        rng = random.Random(100 * n + count)
        masks = set()
        while len(masks) < count:
            mask = rng.getrandbits(n)
            if mask.bit_count() >= 2:
                masks.add(mask)
        boundary = {mask: Fraction(rng.randint(-9, 9) or 1, rng.randint(1, 4)) for mask in masks}
        assert len(boundary) == count
        sigma = tuple(rng.sample(range(1, n + 1), n))
        expected = _relabeled(boundary, sigma)
        assert permute_markings(DivisorClassM1n(n, 0, boundary), sigma).boundary == expected
        assert permute_profile(CurveProfile(n, 0, boundary), sigma).on_boundary == expected


def _combined_by_entry(terms):
    """Reference: the per-entry loop that scales every coefficient and adds
    it to zero for a new key."""
    lam, boundary = 0, {}
    for coeff, cls in terms:
        coeff = canon(coeff)
        if coeff == 0:
            continue
        lam = lam + coeff * cls.lam
        for mask, value in cls.boundary.items():
            boundary[mask] = boundary.get(mask, 0) + coeff * value
    boundary = {m: canon(v) for m, v in boundary.items()}
    return canon(lam), {m: v for m, v in boundary.items() if v != 0}


def _is_canonical(value):
    if type(value) is Fraction:
        return value.denominator != 1
    if type(value) is Poly:
        return not value.is_constant()
    return type(value) is int


_values = st.sampled_from([1, -2, Fraction(1, 2), Fraction(-3, 4), Poly((0, 1)), Poly((1, -1, 2))])
_coefficients = st.one_of(st.just(0), rationals, st.sampled_from([Poly((0, 1)), Poly((2, 0, 1))]))


@st.composite
def _combination_classes(draw):
    """A class on 6 markings whose few distinct values repeat: a dict, or
    a glued view on three pairs with rational or polynomial values."""
    if draw(st.booleans()):
        masks = st.integers(min_value=3, max_value=63).filter(lambda m: m.bit_count() >= 2)
        return DivisorClassM1n(6, draw(_values), draw(st.dictionaries(masks, _values, max_size=20)))
    return glue_pullback(DivisorClassMg(4, draw(_values), draw(_values), [draw(_values), draw(_values)]), 3)


@st.composite
def _combinations(draw):
    count = draw(st.integers(min_value=1, max_value=3))
    terms = []
    while len(terms) < count:
        terms.append((draw(_coefficients), draw(_combination_classes())))
        if len(terms) < count and draw(st.booleans()):
            # a term that cancels the one before it
            coeff, cls = terms[-1]
            terms.append((-coeff, cls))
    return terms


class TestMemoizedLinearCombine:
    @given(terms=_combinations())
    @settings(max_examples=200, deadline=None)
    def test_matches_the_per_entry_loop(self, terms):
        lam, boundary = _combined_by_entry(terms)
        result = linear_combine(terms)
        assert result.n == 6 and result.lam == lam and result.boundary == boundary
        assert type(result.boundary) is dict
        assert _is_canonical(result.lam)
        assert all(_is_canonical(value) and value != 0 for value in result.boundary.values())


class _FreshValues(Mapping):
    """A boundary whose listing builds a new value object for every entry,
    so that each one is freed once the next has been read and its id can
    be taken by a later entry's value."""

    def __init__(self, boundary):
        self._boundary = boundary

    def __getitem__(self, mask):
        return self._boundary[mask]

    def __iter__(self):
        return iter(self._boundary)

    def __len__(self):
        return len(self._boundary)

    def items(self):
        for mask, value in self._boundary.items():
            yield mask, Fraction(value.numerator, value.denominator) if type(value) is Fraction else int(str(value))


# ints past the small-int cache, and fractions: every listing makes new objects
_fresh_values = st.one_of(st.integers(min_value=300, max_value=10**9), st.fractions(max_denominator=50).filter(lambda x: x.denominator > 1))


class TestIdentityMemo:
    """``linear_combine`` memoizes each sum by the identity of its operands;
    the memo holds them, so an id is never reused while it lives."""

    @given(terms=st.lists(st.tuples(
        st.one_of(rationals, st.integers(min_value=300, max_value=10**6)).filter(bool),
        st.dictionaries(st.integers(min_value=3, max_value=63).filter(lambda m: m.bit_count() >= 2), _fresh_values, min_size=1),
    ), min_size=1, max_size=3))
    @settings(max_examples=200, deadline=None)
    def test_values_made_afresh_by_each_listing(self, terms):
        terms = [(coeff, DivisorClassM1n._trusted(6, 0, _FreshValues(boundary))) for coeff, boundary in terms]
        lam, boundary = _combined_by_entry(terms)
        result = linear_combine(terms)
        assert result.lam == lam and result.boundary == boundary

    def test_coefficients_made_canonical_afresh(self):
        """Integral fraction coefficients are made canonical into new ints,
        one term at a time; one value object at a new mask in each term
        then meets a new coefficient object, which could take the id of the
        one before it if the memo did not hold that."""
        value = 10**12 + 1
        terms = [(Fraction(1000 + k), DivisorClassM1n(6, 0, {3 << k: value})) for k in range(5)]
        lam, boundary = _combined_by_entry(terms)
        assert linear_combine(terms).boundary == boundary == {3 << k: (1000 + k) * value for k in range(5)}

    def test_one_product_per_distinct_operand_triple(self, monkeypatch):
        """Two 12-marking glued views, 4,083 entries each, take one
        ``Fraction`` product per distinct (coefficient, value, sum before)
        triple and one per lambda coefficient."""
        rng = random.Random(7)

        def rat():
            return Fraction(rng.randint(-30, 30), rng.randint(2, 12))

        a, b = (glue_pullback(DivisorClassMg(7, rat(), rat(), [rat(), rat(), rat()]), 6) for _ in range(2))
        terms = [(Fraction(1, 3), a), (Fraction(-5, 7), b)]
        lam, boundary = _combined_by_entry(terms)
        triples = {id(value) for _, value in a.boundary.items()}
        triples |= {(id(a.boundary.get(mask)), id(value)) for mask, value in b.boundary.items()}
        products = []
        honest = Fraction.__mul__

        def counted(self, other):
            products.append(other)
            return honest(self, other)

        monkeypatch.setattr(Fraction, "__mul__", counted)
        result = linear_combine(terms)
        monkeypatch.undo()
        assert len(products) <= len(triples) + len(terms) < 100
        assert result.lam == lam and result.boundary == boundary
