"""The gluing pullback, its pair combinatorics, and the forgetful pullback."""

import random
import signal
from contextlib import contextmanager
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import curve_profiles, m1n_classes, mg_classes, rationals, subset_masks
from effcone.corpus import bn_class, golden_pullback, gp_class
from effcone.gluing import (
    ForgetfulBoundary,
    GluedBoundary,
    forget_pullback,
    glue_pullback,
    lambda_family,
    pushforward_profile,
)
from effcone.picard import (
    EXPORT_BUDGET,
    CurveProfile,
    DivisorClassM1n,
    DivisorClassMg,
    ResourceGuardError,
    SpaceMismatchError,
    full_mask,
    linear_combine,
    pair,
    permute_markings,
    subset_mask,
)
from effcone.scalars import Poly, binom, canon


def dense_glue_pullback(W, m):
    """Reference: the gluing pullback expanded into a dict, subset by
    subset, from the separate delta_i families.  Test-only; the package
    computes coefficients per subset instead."""
    n = 2 * m
    w_irr = W.delta_irr
    lam = canon(W.lam + (12 - 2 * m) * w_irr)
    boundary = {}
    if w_irr != 0:
        row = {b: canon((1 - b) * w_irr) for b in range(2, n + 1)}
        for s in range(3, 1 << n):
            b = s.bit_count()
            if b >= 2:
                boundary[s] = row[b]
    for i in range(1, (m + 1) // 2 + 1):
        adjust = canon(W.delta[i - 1] - w_irr)
        if adjust == 0:
            continue
        support = lambda_family(i, m)
        if not (m % 2 == 1 and 2 * i == m + 1):
            support += tuple(full_mask(n) ^ s for s in lambda_family(i - 1, m))
        for s in support:
            value = canon(boundary.get(s, 0) + adjust)
            if value == 0:
                boundary.pop(s, None)
            else:
                boundary[s] = value
    return lam, boundary


def assert_view_matches(boundary, expected, n):
    """Every coordinate, the length, the one-pass listing and equality."""
    for mask in range(1 << n):
        assert boundary.get(mask) == expected.get(mask), bin(mask)
        assert (mask in boundary) == (mask in expected)
    assert boundary.get(1 << n) is None and boundary.get(-1) is None
    assert len(boundary) == len(expected)
    listed = list(boundary.items())
    assert len(listed) == len(expected) and dict(listed) == expected
    assert all(value != 0 for _, value in listed)
    assert set(boundary) == set(expected)
    assert boundary == expected and expected == boundary


def _random_mg(rng, g, w_irr=None):
    def rat():
        return Fraction(rng.randint(-9, 9), rng.randint(1, 4))

    return DivisorClassMg(g, rat(), rat() if w_irr is None else w_irr, [rat() for _ in range(g // 2)])


class TestLambdaFamily:
    def test_one_pair_among_two(self):
        fam = lambda_family(1, 2)
        assert set(fam) == {subset_mask((1, 2), 4), subset_mask((3, 4), 4)}

    def test_all_pairs_is_the_full_set(self):
        fam = lambda_family(3, 3)
        assert fam == (full_mask(6),)

    def test_two_of_four_pairs(self):
        fam = lambda_family(2, 4)
        assert len(fam) == 6
        assert all(s.bit_count() == 4 for s in fam)

    def test_zero_pairs_is_the_empty_set(self):
        assert lambda_family(0, 5) == (0,)

    def test_index_out_of_range(self):
        with pytest.raises(ValueError):
            lambda_family(4, 3)
        with pytest.raises(ValueError):
            lambda_family(-1, 3)

    def test_cardinalities_and_sizes(self):
        for m in range(1, 13):
            for i in range(m + 1):
                fam = lambda_family(i, m)
                assert len(fam) == binom(m, i)
                assert len(set(fam)) == len(fam)
                assert all(s.bit_count() == 2 * i for s in fam)

    def test_stable_under_pair_block_permutation(self):
        # swapping blocks 1 and 3 of four maps the family onto itself
        sigma = (5, 6, 3, 4, 1, 2, 7, 8)
        for i in range(5):
            fam = lambda_family(i, 4)
            moved = {
                subset_mask([sigma[j - 1] for j in range(1, 9) if s >> (j - 1) & 1], 8)
                for s in fam
            }
            assert moved == set(fam)


class TestGluePullback:
    def test_pure_lambda_pulls_back_to_lambda(self):
        W = DivisorClassMg(5, 1, 0, (0, 0))
        assert glue_pullback(W, 4) == DivisorClassM1n(8, 1)

    def test_pure_total_boundary(self):
        # delta = delta_irr + delta_1 + delta_2 on genus 4; three glued pairs
        W = DivisorClassMg.from_delta_form(4, 0, 1, (0, 0))
        result = glue_pullback(W, 3)
        assert result.lam == 6
        for size in range(2, 7):
            mask = subset_mask(range(1, size + 1), 6)
            assert result.coeff(mask) == -(size - 1)
        assert len(result.boundary) == 2 ** 6 - 6 - 1

    def test_trigonal_expansion_coefficients(self):
        result = glue_pullback(bn_class(3), 4)
        assert result.lam == 4
        assert result.coeff(full_mask(8)) == 4
        for k in range(1, 5):
            assert result.coeff(subset_mask((2 * k - 1, 2 * k), 8)) == -2
        assert result.coeff(subset_mask((1, 2, 3, 4), 8)) == -2
        assert result.coeff(subset_mask((1, 3), 8)) == 1
        assert result.coeff(subset_mask((1, 2, 3), 8)) == 2

    def test_three_pair_unions_get_zero(self):
        result = glue_pullback(bn_class(3), 4)
        assert result.coeff(subset_mask((3, 4, 5, 6, 7, 8), 8)) == 0
        for s in lambda_family(3, 4):
            assert s not in result.boundary

    def test_gp_expansion_coefficients(self):
        result = glue_pullback(gp_class(), 3)
        assert result.lam == 10
        assert result.coeff(full_mask(6)) == 10
        assert result.coeff(subset_mask((1, 2), 6)) == -6
        assert result.coeff(subset_mask((1, 2, 5, 6), 6)) == -2
        assert result.coeff(subset_mask((1, 3, 5), 6)) == 8

    def test_genus_must_match_pair_count(self):
        with pytest.raises(SpaceMismatchError):
            glue_pullback(bn_class(3), 3)
        with pytest.raises(ValueError):
            glue_pullback(DivisorClassMg(3, 1, 0, (0,)), 1)

    def test_published_forms_agree_for_both_named_classes(self):
        trig_delta_form = DivisorClassMg.from_delta_form(5, 8, -1, (-3, -5))
        assert glue_pullback(trig_delta_form, 4) == glue_pullback(bn_class(3), 4)
        gp_delta_form = DivisorClassMg.from_delta_form(4, 34, -4, (-10, -14))
        assert glue_pullback(gp_delta_form, 3) == glue_pullback(gp_class(), 3)

    @given(w1=mg_classes(g=4), w2=mg_classes(g=4), s=rationals, t=rationals)
    @settings(max_examples=100, deadline=None)
    def test_linearity(self, w1, w2, s, t):
        combined = DivisorClassMg(
            4,
            s * w1.lam + t * w2.lam,
            s * w1.delta_irr + t * w2.delta_irr,
            [s * c1 + t * c2 for c1, c2 in zip(w1.delta, w2.delta)],
        )
        lhs = glue_pullback(combined, 3)
        rhs = linear_combine([(s, glue_pullback(w1, 3)), (t, glue_pullback(w2, 3))])
        assert lhs == rhs

    @given(w=mg_classes(g=4))
    @settings(max_examples=100, deadline=None)
    def test_pullback_invariant_under_pair_symmetries(self, w):
        cls = glue_pullback(w, 3)
        assert permute_markings(cls, (2, 1, 3, 4, 5, 6)) == cls  # in-pair swap
        assert permute_markings(cls, (3, 4, 1, 2, 5, 6)) == cls  # block swap
        assert permute_markings(cls, (5, 6, 1, 2, 4, 3)) == cls  # 3-cycle with a swap


class TestGluedViewAgainstDenseExpansion:
    NAMED = [(bn_class(3), 4), (bn_class(4), 6), (bn_class(5), 8), (gp_class(), 3)]

    @pytest.mark.parametrize("W,m", NAMED, ids=["bn3", "bn4", "bn5", "gp"])
    def test_named_classes(self, W, m):
        lam, expected = dense_glue_pullback(W, m)
        result = glue_pullback(W, m)
        assert result.lam == lam
        assert_view_matches(result.boundary, expected, 2 * m)

    @pytest.mark.parametrize("m", range(2, 9))
    def test_random_classes(self, m):
        rng = random.Random(100 + m)
        for _ in range(2 if m < 8 else 1):
            W = _random_mg(rng, m + 1)
            lam, expected = dense_glue_pullback(W, m)
            result = glue_pullback(W, m)
            assert result.lam == lam
            assert_view_matches(result.boundary, expected, 2 * m)

    @pytest.mark.parametrize("m", range(2, 8))
    def test_zero_delta_irr(self, m):
        W = _random_mg(random.Random(m), m + 1, w_irr=0)
        _, expected = dense_glue_pullback(W, m)
        assert all(s.bit_count() % 2 == 0 for s in expected)
        assert_view_matches(glue_pullback(W, m).boundary, expected, 2 * m)

    @pytest.mark.parametrize("m", range(2, 8))
    def test_all_adjustments_zero(self, m):
        # delta_i = delta_irr for every i: only the total-boundary row remains
        W = DivisorClassMg(m + 1, 1, Fraction(-2, 3), [Fraction(-2, 3)] * ((m + 1) // 2))
        _, expected = dense_glue_pullback(W, m)
        assert len(expected) == 2 ** (2 * m) - 2 * m - 1
        assert_view_matches(glue_pullback(W, m).boundary, expected, 2 * m)

    @pytest.mark.parametrize("m", [3, 5, 7])
    def test_odd_middle_index_counted_once(self, m):
        # only the middle class delta_{(m+1)/2} is nonzero
        middle = (m + 1) // 2
        delta = [0] * middle
        delta[middle - 1] = 5
        W = DivisorClassMg(m + 1, 0, 0, delta)
        _, expected = dense_glue_pullback(W, m)
        assert set(expected) == set(lambda_family(middle, m))
        assert set(expected.values()) == {5}
        assert_view_matches(glue_pullback(W, m).boundary, expected, 2 * m)

    def test_adjustment_cancelling_the_row(self):
        # delta_1 - delta_irr = 1 = -(1 - 2) * delta_irr: the two-marking pairs vanish
        W = DivisorClassMg(5, 0, 1, (2, 0))
        _, expected = dense_glue_pullback(W, 4)
        assert subset_mask((1, 2), 8) not in expected
        assert_view_matches(glue_pullback(W, 4).boundary, expected, 8)

    def test_zero_class(self):
        result = glue_pullback(DivisorClassMg(5, 0, 0, (0, 0)), 4)
        assert result.is_zero() and len(result.boundary) == 0
        assert list(result.boundary.items()) == []

    def test_sixty_four_markings_without_enumeration(self, monkeypatch):
        def enumerate_entries(self):
            raise AssertionError("the view was enumerated")

        monkeypatch.setattr(GluedBoundary, "items", enumerate_entries)
        # lambda pulls back to 52 + (12 - 64) * 1 = 0, so is_zero reads the boundary
        result = glue_pullback(DivisorClassMg(33, 52, 1, [1] * 16), 32)
        assert result.lam == 0 and bool(result.boundary) is True
        assert not result.is_zero()
        assert (result.boundary or {}) is result.boundary
        assert repr(result) == f"<DivisorClassM1n n=64 lambda=0 ... ({2**64 - 65} terms)>"


class TestForgetfulView:
    @staticmethod
    def extended(boundary, m, n):
        return {s | t << m: v for s, v in boundary.items() for t in range(1 << (n - m))}

    @pytest.mark.parametrize("n", [5, 7, 9])
    def test_dict_source(self, n):
        rng = random.Random(n)
        source = DivisorClassM1n(
            4, 2, {mask: Fraction(rng.randint(-5, 5), 3) for mask in range(16) if mask.bit_count() >= 2}
        )
        result = forget_pullback(source, n)
        assert result.lam == 2
        assert len(result.boundary) == len(source.boundary) << (n - 4)
        assert_view_matches(result.boundary, self.extended(source.boundary, 4, n), n)

    @pytest.mark.parametrize("W,m", [(bn_class(3), 4), (gp_class(), 3), (bn_class(4), 6)])
    def test_glued_source_and_repeated_lifts(self, W, m):
        n = 2 * m
        glued = glue_pullback(W, m)
        once = forget_pullback(glued, n + 1)
        twice = forget_pullback(once, n + 3)
        expected = self.extended(dict(glued.boundary.items()), n, n + 1)
        assert_view_matches(once.boundary, expected, n + 1)
        assert_view_matches(twice.boundary, self.extended(expected, n + 1, n + 3), n + 3)

    def test_length_matches_d6_lift_without_enumeration(self):
        glued = glue_pullback(bn_class(6), 10)
        assert len(glued.boundary) == 1048435
        assert len(forget_pullback(glued, 22).boundary) == 4 * 1048435


class TestForgetPullback:
    def test_lambda_is_stable(self):
        assert forget_pullback(DivisorClassM1n(2, 1), 3) == DivisorClassM1n(3, 1)

    def test_boundary_index_extends_over_forgotten_markings(self):
        cls = DivisorClassM1n(2, 0, {subset_mask((1, 2), 2): 1})
        expected = DivisorClassM1n(
            3, 0, {subset_mask((1, 2), 3): 1, subset_mask((1, 2, 3), 3): 1}
        )
        assert forget_pullback(cls, 3) == expected

    def test_identity_when_no_markings_added(self):
        cls = golden_pullback("gp")
        assert forget_pullback(cls, 6) is cls

    def test_cannot_forget_downward(self):
        with pytest.raises(ValueError):
            forget_pullback(golden_pullback("gp"), 5)

    @given(w=m1n_classes(n=4), p=curve_profiles(n=6))
    @settings(max_examples=100, deadline=None)
    def test_projection_formula(self, w, p):
        # pairing upstairs against the pullback equals pairing of the
        # pushforward downstairs, whenever the pushforward is defined
        try:
            q = pushforward_profile(p, 4)
        except ValueError:
            return
        assert pair(p, forget_pullback(w, 6)) == pair(q, w)

    def test_pushforward_requires_enough_retained_mass(self):
        bad = CurveProfile(6, 0, {subset_mask((1, 5, 6), 6): 1})
        with pytest.raises(ValueError):
            pushforward_profile(bad, 4)


def test_full_pair_symmetry_orbit_randomized():
    # 100 random elements of the order 2^m m! group fix the trigonal pullback
    rng = random.Random(7)
    cls = glue_pullback(bn_class(3), 4)
    for _ in range(100):
        blocks = list(range(1, 5))
        rng.shuffle(blocks)
        sigma = []
        for target in blocks:
            odd, even = 2 * target - 1, 2 * target
            sigma.extend((even, odd) if rng.random() < 0.5 else (odd, even))
        assert permute_markings(cls, tuple(sigma)) == cls


_slot_values = st.sampled_from([0, 1, -1, Fraction(1, 2), Fraction(4, 2), Poly((0, 1)), Poly((3,))])


@st.composite
def glued_rules(draw, m):
    """``(row, by_pairs)`` of a glued view on m pairs, every slot drawn,
    the unread ones (sizes 0 and 1, and k = 0) and zeros included."""
    row = draw(st.lists(_slot_values, min_size=2 * m + 1, max_size=2 * m + 1))
    return row, draw(st.lists(_slot_values, min_size=m + 1, max_size=m + 1))


class TestUnreadSlots:
    """No subset of fewer than two markings is a boundary index, so the
    slots only such a subset would read (sizes 0 and 1, and the union of
    no pairs) hold nothing, whatever the rule gives there: ``get``,
    ``items`` and ``len`` agree."""

    def test_a_one_marking_row_value(self):
        view = GluedBoundary(2, [0, 5, 1, 1, 1], [0, 0, 0])
        assert len(view) == len(dict(view.items())) == 11
        assert [view.get(mask) for mask in (0, 1, 2, 4, 8)] == [None] * 5
        assert dict(view.items()) == {mask: 1 for mask in range(16) if mask.bit_count() >= 2}

    @given(data=st.data(), m=st.integers(min_value=1, max_value=4))
    @settings(max_examples=200, deadline=None)
    def test_get_items_and_len_agree(self, data, m):
        view = GluedBoundary(m, *data.draw(glued_rules(m)))
        listed = dict(view.items())
        assert len(view) == len(listed)
        assert {mask: view.get(mask) for mask in range(1 << 2 * m) if view.get(mask) is not None} == listed
        assert all(mask.bit_count() >= 2 and value != 0 for mask, value in listed.items())


def _listed_combination(terms):
    """Reference: the per-entry combination of the listed views."""
    out = {}
    for coeff, view in terms:
        for mask, value in view.items():
            out[mask] = out.get(mask, 0) + coeff * value
    return {mask: canon(value) for mask, value in out.items() if value != 0}


class TestRuleCombination:
    """Glued views on one m combine slot by slot into a glued view, as
    their listings combine entry by entry."""

    @given(
        data=st.data(),
        m=st.integers(min_value=1, max_value=4),
        coefficients=st.lists(st.one_of(st.just(0), rationals, st.just(Poly((1, 1)))), min_size=1, max_size=3),
    )
    @settings(max_examples=300, deadline=None)
    def test_matches_the_combination_of_the_listings(self, data, m, coefficients):
        views = [GluedBoundary(m, *data.draw(glued_rules(m))) for _ in coefficients]
        if len(views) > 1 and data.draw(st.booleans()):
            views[-1] = views[0]  # a term that may cancel the first
            coefficients[-1] = -canon(coefficients[0])
        terms = [(canon(coeff), view) for coeff, view in zip(coefficients, views)]
        result = views[0].combined(terms)
        assert type(result) is GluedBoundary and result.m == m
        listed = dict(result.items())
        assert listed == _listed_combination(terms)
        assert all(value == canon(value) and type(value) is type(canon(value)) for value in listed.values())

    def test_other_terms_are_not_combined(self):
        glued = glue_pullback(gp_class(), 3).boundary
        other_m = GluedBoundary(2, [0, 0, 1, 1, 1], [0, 1, 1])
        for other in (ForgetfulBoundary(glued, 6, 6), dict(glued.items()), other_m):
            assert glued.combined([(1, glued), (2, other)]) is None


class TestViewEquality:
    """Two glued views on one m compare their rules; any other two views
    compare by ``Mapping``'s equality, which lists both sides through
    ``items``.  With a view of either kind or a dict, each answer must
    agree with equality of the fully listed mappings."""

    @given(
        data=st.data(),
        m=st.integers(min_value=1, max_value=4),
        edits=st.lists(st.tuples(st.integers(min_value=0, max_value=13), _slot_values), max_size=2),
    )
    @settings(max_examples=500, deadline=None)
    def test_rules_compare_as_their_listings(self, data, m, edits):
        # the second rule is the first with at most two slots redrawn, the
        # unread ones included, so that equal views are common
        row, by_pairs = data.draw(glued_rules(m))
        slots = row + by_pairs
        for index, value in edits:
            slots[index % len(slots)] = value
        a, b = GluedBoundary(m, row, by_pairs), GluedBoundary(m, slots[:2 * m + 1], slots[2 * m + 1:])
        expected = dict(a.items()) == dict(b.items())
        assert (a == b) is expected and (b == a) is expected and (a != b) is not expected

    @staticmethod
    def listed(boundary):
        return dict(boundary.items())

    @given(
        m=st.integers(min_value=2, max_value=4),
        values=st.lists(st.sampled_from([0, 1, -1]), min_size=11, max_size=11),
        up=st.integers(min_value=-1, max_value=10),
        down=st.integers(min_value=-1, max_value=10),
    )
    @settings(max_examples=500, deadline=None)
    def test_every_row_get_reads_is_compared(self, m, values, up, down):
        # rows built directly, so that each may differ on its own.  The
        # second view moves one entry up and one down (either may be
        # skipped): row[2k] + 1 with by_pairs[k] - 1 changes only the
        # subsets of size 2k that are not pair unions, and at k = m only
        # the never-read row[2m]
        size = 3 * m - 1
        values = values[:size]
        other = list(values)
        if 0 <= up < size:
            other[up] += 1
        if 0 <= down < size:
            other[down] -= 1

        def view(v):
            return GluedBoundary(m, [0, 0] + v[:2 * m - 1], [0] + v[2 * m - 1:])

        a, b = view(values), view(other)
        expected = self.listed(a) == self.listed(b)
        assert (a == b) is expected and (b == a) is expected and (a != b) is not expected

    def test_classes_differing_only_in_lambda_have_equal_views(self):
        a = glue_pullback(DivisorClassMg(5, 1, 2, (3, 4)), 4).boundary
        b = glue_pullback(DivisorClassMg(5, 7, 2, (3, 4)), 4).boundary
        assert a is not b and a == b

    def test_views_on_different_pair_counts(self):
        empty4 = glue_pullback(DivisorClassMg(5, 0, 0, (0, 0)), 4).boundary
        empty3 = glue_pullback(DivisorClassMg(4, 0, 0, (0, 0)), 3).boundary
        assert empty4 == empty3 == {}
        assert glue_pullback(bn_class(3), 4).boundary != glue_pullback(gp_class(), 3).boundary

    @pytest.mark.parametrize("W,m", [(bn_class(3), 4), (gp_class(), 3)], ids=["bn3", "gp"])
    def test_view_against_dicts(self, W, m):
        view = glue_pullback(W, m).boundary
        listed = self.listed(view)
        assert view == listed and listed == view
        mask = min(listed)
        changed = {**listed, mask: listed[mask] + 1}
        assert view != changed and changed != view
        dropped = {k: v for k, v in listed.items() if k != mask}
        assert view != dropped and dropped != view
        # a zero entry is still a key the view does not hold
        assert view != {**dropped, mask: 0}
        assert view != {**listed, full_mask(2 * m) + 1: 1}

    def test_forgetful_view_against_a_dict(self):
        view = forget_pullback(glue_pullback(gp_class(), 3), 8).boundary
        listed = self.listed(view)
        assert view == listed and listed == view
        assert view != {**listed, min(listed): 0}

    @staticmethod
    def forgetful(base, k, n, listed):
        """The view on n markings of ``base`` (4 markings) forgotten first to
        k markings, that middle view listed into a dict or kept as a view."""
        middle = ForgetfulBoundary(base, 4, k)
        return ForgetfulBoundary(dict(middle.items()) if listed else middle, k, n)

    @given(
        x=st.dictionaries(subset_masks(4), st.sampled_from([1, -1]), max_size=4),
        edit=st.none() | st.tuples(subset_masks(4), st.sampled_from([0, 1, 2])),
        ka=st.integers(min_value=4, max_value=6),
        kb=st.integers(min_value=4, max_value=6),
        na=st.integers(min_value=6, max_value=7),
        nb=st.integers(min_value=6, max_value=7),
        listed=st.tuples(st.booleans(), st.booleans()),
    )
    @settings(max_examples=300, deadline=None)
    def test_forgetful_views_against_each_other(self, x, edit, ka, kb, na, nb, listed):
        # the second base is the first with at most one entry changed,
        # added or dropped, so that equal views on different m are common
        y = dict(x)
        if edit is not None:
            mask, value = edit
            if value:
                y[mask] = value
            else:
                y.pop(mask, None)
        a, b = self.forgetful(x, ka, na, listed[0]), self.forgetful(y, kb, nb, listed[1])
        expected = self.listed(a) == self.listed(b)
        assert (a == b) is expected and (b == a) is expected and (a != b) is not expected

    def test_forgetful_views_on_different_marking_counts(self):
        empty = DivisorClassM1n(4)
        assert forget_pullback(empty, 6).boundary == forget_pullback(empty, 7).boundary
        one = DivisorClassM1n(4, 0, {3: 1})
        assert forget_pullback(one, 6).boundary != forget_pullback(one, 7).boundary

    @given(
        m=st.integers(min_value=2, max_value=3),
        values=st.lists(st.sampled_from([0, 1, -1]), min_size=8, max_size=8),
        k=st.integers(min_value=2, max_value=6),
        base=st.sampled_from(["listed", "view", "dict"]),
        x=st.dictionaries(subset_masks(6), st.sampled_from([1, -1]), max_size=4),
    )
    @settings(max_examples=200, deadline=None)
    def test_glued_against_forgetful_views(self, m, values, k, base, x):
        # the forgetful view's base is the glued view itself, its listing, or
        # a random dict on k markings, so that both outcomes are common
        n = 2 * m
        glued = GluedBoundary(m, [0, 0] + values[:n - 1], [0] + values[n - 1:n + m - 1])
        if base == "dict":
            k = min(k, n)
            forgetful = ForgetfulBoundary({s: v for s, v in x.items() if not s >> k}, k, n)
        else:
            forgetful = ForgetfulBoundary(self.listed(glued) if base == "listed" else glued, n, n)
        expected = self.listed(glued) == self.listed(forgetful)
        assert (glued == forgetful) is expected and (forgetful == glued) is expected
        assert (glued != forgetful) is not expected

    def test_view_against_other_mappings(self):
        view = glue_pullback(gp_class(), 3).boundary
        same = ForgetfulBoundary(self.listed(view), 6, 6)
        assert view == same and same == view
        assert view != ForgetfulBoundary({3: 1}, 6, 6)
        assert (view == [1, 2]) is False


def _expire(signum, frame):
    raise TimeoutError("still running at the wall-clock bound")


@contextmanager
def wall_clock_bound(seconds):
    """Raise TimeoutError in the block after ``seconds``: an enumeration of
    2^64 masks fails the test instead of hanging it."""
    previous = signal.signal(signal.SIGALRM, _expire)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


class TestSixtyFourMarkingViews:
    W = DivisorClassMg(33, 1, 1, [1] * 16)

    @staticmethod
    def assert_refused(compare, asked):
        """``compare`` raises ResourceGuardError for ``asked`` entries, the
        count of the side it lists first."""
        with pytest.raises(ResourceGuardError) as refused:
            compare()
        assert (refused.value.limit, refused.value.asked) == (EXPORT_BUDGET, asked)

    def test_equality_without_enumeration(self):
        # two glued views on one m compare their rules; against any other
        # mapping equality lists both sides, so it is refused before the
        # first entry
        other = glue_pullback(DivisorClassMg(33, 1, 1, [1] * 15 + [2]), 32)
        with wall_clock_bound(2):
            assert glue_pullback(self.W, 32) == glue_pullback(self.W, 32)
            assert glue_pullback(self.W, 32) != other
            for compare in (
                lambda: glue_pullback(self.W, 32).boundary != {},
                lambda: {} != glue_pullback(self.W, 32).boundary,
            ):
                self.assert_refused(compare, 2**64 - 65)

    def test_forgetful_views_compare_without_enumeration(self):
        x = DivisorClassM1n(4, 0, {3: 1})
        on_ten = DivisorClassM1n(10, 0, dict(forget_pullback(x, 10).boundary.items()))
        with wall_clock_bound(2):
            for compare in (
                lambda: forget_pullback(x, 64) == forget_pullback(x, 64),
                lambda: forget_pullback(x, 64) == forget_pullback(on_ten, 64),
                lambda: forget_pullback(on_ten, 64) == forget_pullback(forget_pullback(x, 10), 64),
                lambda: forget_pullback(x, 64) != forget_pullback(DivisorClassM1n(4, 0, {3: 2}), 64),
                lambda: forget_pullback(x, 64).boundary != forget_pullback(x, 63).boundary,
            ):
                self.assert_refused(compare, 2**60)

    def test_glued_against_forgetful_is_refused_with_the_count(self):
        glued = glue_pullback(self.W, 32).boundary
        forgetful = forget_pullback(DivisorClassM1n(4, 0, {3: 1}), 64).boundary
        with wall_clock_bound(2):
            with pytest.raises(ValueError, match=f"export budget is {2**21} boundary entries; a GluedBoundary has {2**64 - 65}"):
                glued == forgetful
            with pytest.raises(ValueError, match=f"export budget is {2**21} boundary entries; a ForgetfulBoundary has {2**60}"):
                forgetful == glued

    def test_forgetful_view_of_a_glued_base_is_refused_with_the_count(self):
        # the side listed first is counted whole: the glued base's 2^32 - 33
        # entries on 32 markings, each extended over the other 32
        on_glued = forget_pullback(glue_pullback(DivisorClassMg(17, 1, 1, [1] * 8), 16), 64).boundary
        on_four = forget_pullback(DivisorClassM1n(4, 0, {3: 1}), 64).boundary
        with wall_clock_bound(2):
            with pytest.raises(ValueError, match=f"export budget is {2**21} boundary entries; a ForgetfulBoundary has {(2**32 - 33) << 32}"):
                on_glued == on_four
            with pytest.raises(ValueError, match=f"export budget is {2**21} boundary entries; a ForgetfulBoundary has {2**60}"):
                on_four == on_glued

    def test_linear_combination_answers_from_the_rule(self):
        # glued views on one m combine slot by slot; mixed with another kind
        # of boundary the combination lists each term, and is refused
        cls = glue_pullback(self.W, 32)
        twice = glue_pullback(DivisorClassMg(33, 2, 2, [2] * 16), 32)
        forgetful = forget_pullback(DivisorClassM1n(4, 0, {3: 1}), 64)
        with wall_clock_bound(2):
            assert linear_combine([(1, cls)]) == cls
            assert linear_combine([(3, cls), (-1, twice)]) == cls
            assert linear_combine([(1, cls), (-1, cls)]).is_zero()
            with pytest.raises(ValueError, match=f"export budget is {2**21} boundary entries; a GluedBoundary has {2**64 - 65}"):
                linear_combine([(1, cls), (1, forgetful)])

    @pytest.mark.parametrize("record", [DivisorClassM1n, CurveProfile])
    def test_copying_into_a_class_or_profile_is_refused_with_the_count(self, record):
        with wall_clock_bound(2):
            with pytest.raises(ValueError, match=f"export budget is {2**21} boundary entries; a GluedBoundary has {2**64 - 65}"):
                record(64, 0, glue_pullback(self.W, 32).boundary)

    def test_relabeling_is_refused_with_the_count(self):
        identity = tuple(range(1, 65))
        with wall_clock_bound(2):
            with pytest.raises(ValueError, match=f"export budget is {2**21} boundary entries; a GluedBoundary has {2**64 - 65}"):
                permute_markings(glue_pullback(self.W, 32), identity)
