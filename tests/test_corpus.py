"""Named classes, hand-entered expansions, and test-curve profiles."""

from fractions import Fraction
from itertools import combinations

import pytest

from effcone import picard
from effcone.corpus import bn_class, bn_scale, golden_pullback, gonal_support, gp_class, profile
from effcone.gluing import glue_pullback
from effcone.picard import (
    DivisorClassMg,
    full_mask,
    pair,
    permute_profile,
    subset_mask,
)
from effcone.scalars import A


class TestBnClass:
    def test_trigonal_class(self):
        cls = bn_class(3)
        assert cls == DivisorClassMg(5, 8, -1, (-4, -6))
        assert bn_scale(3) == 1

    def test_scale_values(self):
        assert bn_scale(4) == Fraction(3, 2)
        assert bn_scale(5) == 3
        assert bn_scale(6) == 7

    def test_coefficients_are_the_scaled_pattern(self):
        for d in (4, 5, 6):
            c = bn_scale(d)
            cls = bn_class(d)
            assert cls.g == 2 * d - 1
            assert cls.lam == c * (2 * d + 2)
            assert cls.delta_irr == -c * Fraction(d, 3)
            assert len(cls.delta) == d - 1
            for i in range(1, d):
                assert cls.delta[i - 1] == -c * i * (2 * d - 1 - i)

    def test_requires_d_at_least_three(self):
        with pytest.raises(ValueError):
            bn_class(2)
        with pytest.raises(ValueError):
            bn_scale(2)


class TestGpClass:
    def test_displayed_coefficients(self):
        cls = gp_class()
        assert cls.lam == 34
        assert cls.delta_irr == -4
        assert cls.delta == (-14, -18)

    def test_delta_form_matches_second_display(self):
        assert gp_class() == DivisorClassMg.from_delta_form(4, 34, -4, (-10, -14))


class TestGoldenPullbacks:
    def test_trigonal_spot_coefficients(self):
        cls = golden_pullback("trigonal")
        assert cls.lam == 4
        assert cls.coeff(subset_mask((1, 2), 8)) == -2
        assert cls.coeff(subset_mask((1, 3), 8)) == 1
        assert cls.coeff(subset_mask((1, 2, 3, 4), 8)) == -2
        assert cls.coeff(full_mask(8)) == 4
        assert cls.coeff(subset_mask((3, 4, 5, 6, 7, 8), 8)) == 0

    def test_trigonal_support_size(self):
        # all 247 subsets except the four three-pair unions carry a coefficient
        assert len(golden_pullback("trigonal").boundary) == 243

    def test_gp_spot_coefficients(self):
        cls = golden_pullback("gp")
        assert cls.lam == 10
        assert cls.coeff(subset_mask((1, 2, 3, 4), 8 - 2)) == -2
        assert cls.coeff(subset_mask((1, 2), 6)) == -6
        assert cls.coeff(subset_mask((5, 6), 6)) == -6
        assert cls.coeff(full_mask(6)) == 10
        assert cls.coeff(subset_mask((2, 4, 6), 6)) == 8

    def test_unknown_name(self):
        with pytest.raises(ValueError):
            golden_pullback("quintic")

    def test_two_route_agreement_trigonal(self):
        assert glue_pullback(bn_class(3), 4) == golden_pullback("trigonal")

    def test_two_route_agreement_gp(self):
        assert glue_pullback(gp_class(), 3) == golden_pullback("gp")


class TestProfiles:
    def test_trig_profile(self):
        prof = profile("trig")
        assert prof.n == 8 and prof.on_lambda == 1
        for k in range(1, 5):
            assert prof.value_on(subset_mask((2 * k - 1, 2 * k), 8)) == 1
        assert prof.value_on(subset_mask((2, 4, 6, 8), 8)) == 1
        assert len(prof.on_boundary) == 5

    def test_bnd_profile(self):
        prof = profile("bnd")
        assert prof.on_lambda == 1
        assert prof.value_on(subset_mask(range(1, 8), 8)) == -1
        assert len(prof.on_boundary) == 1

    def test_gonal3_profile_matches_the_small_pencil(self):
        prof = profile("gonal", 3)
        assert prof.n == 8 and prof.on_lambda == 0
        for k in range(1, 5):
            assert prof.value_on(subset_mask((2 * k - 1, 2 * k), 8)) == 16
        # both free base points contribute over every even subset
        for size in range(2, 5):
            for S in combinations((2, 4, 6, 8), size):
                assert prof.value_on(subset_mask(S, 8)) == 2
        # fixed-point fibers: one odd marking plus evens avoiding its partner
        for k in range(1, 5):
            rest = tuple(e for e in (2, 4, 6, 8) if e != 2 * k)
            for size in range(1, 4):
                for S in combinations(rest, size):
                    assert prof.value_on(subset_mask(S + (2 * k - 1,), 8)) == 2

    def test_gonal3_support_size(self):
        prof = profile("gonal", 3)
        # 4 pairs + 11 even subsets + 4 * 7 odd-augmented subsets
        assert len(prof.on_boundary) == 4 + 11 + 28

    def test_gonal_general_d_values(self):
        prof = profile("gonal", 4)
        assert prof.n == 12
        assert prof.value_on(subset_mask((1, 2), 12)) == 3 ** 6
        assert prof.value_on(subset_mask((2, 4), 12)) == 2 * 2 ** 4
        assert prof.value_on(subset_mask((1, 4), 12)) == 3 * 2 ** 4
        assert prof.value_on(subset_mask((2, 4, 6, 8, 10, 12), 12)) == 2

    def test_gonal_requires_d(self):
        with pytest.raises(ValueError):
            profile("gonal")
        with pytest.raises(ValueError):
            profile("gonal", 2)

    def test_gp_profile(self):
        prof = profile("gp")
        assert prof.n == 6
        assert prof.on_lambda == 8 * (A - 1)
        for i in (1, 2):
            for j in (3, 4):
                for k in (5, 6):
                    assert prof.value_on(subset_mask((i, j, k), 6)) == A + 1
        for k in (1, 2, 3):
            assert prof.value_on(subset_mask((2 * k - 1, 2 * k), 6)) == 8 * A
        assert len(prof.on_boundary) == 11

    def test_unknown_profile(self):
        with pytest.raises(ValueError):
            profile("pentagonal")

    def test_supports_stay_in_range(self):
        for name, d in (("trig", None), ("bnd", None), ("gonal", 5), ("gp", None)):
            prof = profile(name, d)
            top = full_mask(prof.n)
            assert all(0 < mask <= top and mask.bit_count() >= 2 for mask in prof.on_boundary)

    def test_gonal_profile_invariant_under_relabeled_block_permutations(self):
        prof = profile("gonal", 3)
        # block permutation: pair k goes to pair blocks[k-1], odd to odd, even to even
        for blocks in ((2, 1, 3, 4), (4, 3, 2, 1), (2, 3, 4, 1)):
            sigma = []
            for k in range(1, 5):
                sigma.extend((2 * blocks[k - 1] - 1, 2 * blocks[k - 1]))
            assert permute_profile(prof, tuple(sigma)) == prof

    def test_gp_pairing_against_golden(self):
        assert pair(profile("gp"), golden_pullback("gp")) == -16


def _gonal_profile_by_combinations(d):
    """The d-gonal profile's boundary built subset by subset with
    ``combinations``, as the bitwise builder in ``corpus`` replaced."""
    n = 4 * d - 4
    evens = tuple(range(2, n + 1, 2))
    boundary = {}
    for k in range(1, 2 * d - 1):
        boundary[subset_mask((2 * k - 1, 2 * k), n)] = (d - 1) ** (2 * d - 2)
    for size in range(2, len(evens) + 1):
        for S in combinations(evens, size):
            boundary[subset_mask(S, n)] = 2 * (d - 2) ** (2 * d - 2 - size)
    for k in range(1, 2 * d - 1):
        rest = tuple(e for e in evens if e != 2 * k)
        for size in range(1, len(rest) + 1):
            for S in combinations(rest, size):
                boundary[subset_mask(S + (2 * k - 1,), n)] = (d - 1) * (d - 2) ** (2 * d - 3 - size)
    return boundary


class TestGonalBuilder:
    @pytest.mark.parametrize("d", [3, 4, 5, 6, 7])
    def test_matches_the_combinations_builder(self, d):
        prof = profile("gonal", d)
        assert prof.n == 4 * d - 4 and prof.on_lambda == 0
        assert prof.on_boundary == _gonal_profile_by_combinations(d)
        assert len(prof.on_boundary) == gonal_support(d)
        assert min(mask.bit_count() for mask in prof.on_boundary) >= 2

    @pytest.mark.parametrize("d", [3, 4, 5, 6, 7, 8])
    def test_a_fixed_point_of_the_checked_constructor(self, d):
        """The profile is handed over unchecked; the constructor's check
        would keep every entry as it is."""
        prof = profile("gonal", d)
        assert picard._checked_boundary(prof.on_boundary, prof.n) == prof.on_boundary
        assert all(type(value) is int and value != 0 for value in prof.on_boundary.values())
