"""The blown-up bundle threefold: top form, Chern data, family invariants."""

from fractions import Fraction
from itertools import permutations, product as iproduct

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from effcone.chow import (
    E1,
    E2,
    E3,
    E_SUM,
    F1,
    F2,
    PI_SECTION,
    SIGMA,
    ZETA,
    ChowDeg1,
    ChowDeg2,
    IntegralityError,
    chern_data,
    chi_line_bundle,
    chi_structure_sheaf,
    dot,
    family_divisor,
    family_invariants,
    intersection_table_check,
    product,
    pushforward_line,
    pushforward_ruling,
    top_form,
    triple,
    _exact_div,
)
from effcone.scalars import A, Poly

EXCEPTIONAL = (E1, E2, E3)
GENERATORS = (ZETA, F1, F2, E1, E2, E3)


def reference_product(x, y):
    """The product as it was first defined: six full contractions, each
    against a fresh unit vector of one generator."""
    units = [ChowDeg1(tuple(1 if j == k else 0 for j in range(6))) for k in range(6)]
    return ChowDeg2(triple(x, y, u) for u in units)


entries = st.one_of(
    st.integers(-6, 6),
    st.fractions(min_value=-6, max_value=6, max_denominator=5),
    st.builds(Poly, st.lists(st.fractions(min_value=-6, max_value=6, max_denominator=5), max_size=3)),
)
# sparse classes too: zero entries are the ones the contraction skips
classes = st.builds(ChowDeg1, st.lists(st.one_of(st.just(0), entries), min_size=6, max_size=6))


def expected_generator_triple(i, j, k):
    """The table entries, written out by hand for comparison."""
    key = tuple(sorted((i, j, k)))
    zz, f1, f2 = 0, 1, 2
    if key == (zz, zz, zz):
        return 4
    if key == (zz, zz, f1):
        return 2
    if key == (zz, zz, f2):
        return 1
    if key == (zz, f1, f2):
        return 1
    for e in (3, 4, 5):
        if key == (zz, e, e) or key == (f1, e, e) or key == (e, e, e):
            return -1
    return 0


class TestTopForm:
    def test_matches_the_handwritten_table(self):
        form = top_form()
        for i, j, k in iproduct(range(6), repeat=3):
            assert form[i][j][k] == expected_generator_triple(i, j, k), (i, j, k)

    def test_fully_symmetric(self):
        form = top_form()
        for i, j, k in iproduct(range(6), repeat=3):
            base = form[i][j][k]
            assert all(form[a][b][c] == base for a, b, c in permutations((i, j, k)))

    def test_headline_values(self):
        assert triple(ZETA, ZETA, ZETA) == 4
        assert triple(E1, E1, E1) == -1
        assert triple(ZETA, ZETA, F1) == 2
        assert triple(F1, F2, E2) == 0


class TestDerivedSections:
    def test_sections_are_disjoint(self):
        for x in (ZETA, F1, F2, E1, E2, E3):
            assert triple(SIGMA, PI_SECTION, x) == 0

    def test_sigma_misses_the_blown_up_curves(self):
        for e in EXCEPTIONAL:
            for x in (ZETA, F1, F2, E1, E2, E3):
                assert triple(SIGMA, e, x) == 0

    def test_section_cubes(self):
        assert triple(SIGMA, SIGMA, SIGMA) == 4
        assert triple(PI_SECTION, PI_SECTION, PI_SECTION) == 4

    def test_section_squares_against_rulings(self):
        assert triple(SIGMA, SIGMA, F1) == -2
        assert triple(PI_SECTION, PI_SECTION, F1) == 2
        assert triple(SIGMA, SIGMA, F2) == -1
        assert triple(PI_SECTION, PI_SECTION, F2) == 1
        assert triple(SIGMA, F1, F2) == 1
        assert triple(PI_SECTION, F1, F2) == 1

    def test_full_table_check_passes(self):
        checks = intersection_table_check()
        assert len(checks) >= 15
        assert all(expected == actual for _, expected, actual in checks)


class TestFamilySlices:
    def test_rational_tail_count_slice(self):
        assert triple(family_divisor(), ZETA - E_SUM, F2) == A + 1

    def test_directrix_slice(self):
        assert triple(family_divisor(), SIGMA, F2) == A - 2

    def test_triple_is_polynomial_of_bounded_degree(self):
        D = family_divisor()
        value = triple(D, D, D)
        assert isinstance(value, Poly) and value.degree() <= 3


class TestChernData:
    def test_canonical_classes(self):
        data = chern_data()
        assert data.k_y == -2 * ZETA - F1
        assert data.k_x == -2 * ZETA - F1 + E_SUM

    def test_bundle_c2(self):
        data = chern_data()
        assert data.c2_ty == 4 * product(ZETA, F1) + 4 * product(ZETA, F2) - 2 * product(F1, F2)

    def test_blowup_c2(self):
        data = chern_data()
        expected = (
            -1 * product(E_SUM, E_SUM)
            - 2 * product(ZETA, E_SUM)
            + 4 * product(ZETA, F1)
            + 4 * product(ZETA, F2)
            - 2 * product(F1, F2)
        )
        assert data.c2_tx == expected

    def test_chi_normalization_on_both_spaces(self):
        data = chern_data()
        assert dot(data.c2_ty, -1 * data.k_y) == 24
        assert dot(data.c2_tx, -1 * data.k_x) == 24
        assert chi_structure_sheaf(data.k_y, data.c2_ty) == 1
        assert chi_structure_sheaf(data.k_x, data.c2_tx) == 1

    def test_tangent_subbundle_decomposition(self):
        # -K_Y splits as the section classes plus the base tangent classes
        data = chern_data()
        assert -1 * data.k_y == (SIGMA + PI_SECTION) + (2 * F1 + 2 * F2)

    def test_pushforwards(self):
        # the ruling pushes to f1.e_i and the line to f1.e_i - e_i^2
        assert pushforward_ruling(1) == product(F1, E1)
        assert pushforward_line(2) == product(F1, E2) - product(E2, E2)

    def test_trivial_line_bundle_chi(self):
        data = chern_data()
        assert chi_line_bundle(0 * ZETA, data) == 1


class TestDeg2Normalization:
    def test_bundle_relation_rewrites_zeta_squared(self):
        assert product(ZETA, ZETA) == product(ZETA, F1) + 2 * product(ZETA, F2)

    def test_base_squares_vanish(self):
        assert product(F1, F1) == ChowDeg2()
        assert product(F2, F2) == ChowDeg2()

    def test_disjoint_exceptional_products_vanish(self):
        assert product(E1, E2) == ChowDeg2()
        assert product(F2, E3) == ChowDeg2()

    def test_contraction_agrees_with_triple(self):
        x = 3 * ZETA + F1 - 2 * E1
        y = SIGMA + E2
        z = family_divisor()
        assert dot(product(x, y), z) == triple(x, y, z)


class TestProductReference:
    """``product`` reads the top form once per nonzero pair; it equals the
    six contractions ``triple(x, y, g)``, value and type alike."""

    def assert_matches(self, x, y):
        got, want = product(x, y), reference_product(x, y)
        assert got == want, (x, y)
        assert [type(c) for c in got.coeffs] == [type(c) for c in want.coeffs], (x, y)

    @pytest.mark.parametrize("i, j", list(iproduct(range(6), repeat=2)))
    def test_every_generator_pair(self, i, j):
        self.assert_matches(GENERATORS[i], GENERATORS[j])

    def test_the_named_classes(self):
        named = (family_divisor(), SIGMA, PI_SECTION, E_SUM, *GENERATORS)
        for x, y in iproduct(named, repeat=2):
            self.assert_matches(x, y)

    @given(x=classes, y=classes)
    @settings(max_examples=100, deadline=None)
    def test_drawn_classes(self, x, y):
        self.assert_matches(x, y)
        z = ChowDeg1((1, Fraction(1, 2), -2, 3, 0, A))
        assert dot(product(x, y), z) == triple(x, y, z)


class TestFamilyInvariants:
    def test_frozen_polynomials(self):
        inv = family_invariants()
        assert inv.kd_squared == -(A + 1)
        assert inv.c2_td == 13 * A - 11
        assert inv.hodge_lambda == A - 1
        assert inv.hodge_lambda_rr == A - 1
        assert inv.rational_tails == A + 1
        assert inv.directrix_cycles == A - 2
        assert inv.two_section_genus == A - 1
        assert inv.ramification == 2 * A
        assert inv.irreducible_nodal == 10 * A - 8

    def test_noether_identity(self):
        inv = family_invariants()
        assert 12 * inv.hodge_lambda == inv.kd_squared + inv.c2_td

    def test_two_routes_to_lambda_agree(self):
        inv = family_invariants()
        assert inv.hodge_lambda == inv.hodge_lambda_rr

    def test_euler_census(self):
        inv = family_invariants()
        assert (
            inv.irreducible_nodal + inv.rational_tails + 2 * inv.directrix_cycles
            == inv.c2_td
        )
        assert inv.irreducible_nodal + 2 * inv.directrix_cycles == 12 * inv.hodge_lambda

    def test_c2_degree_and_leading_coefficient(self):
        inv = family_invariants()
        assert inv.c2_td.degree() == 1
        assert inv.c2_td.coeff(1) == 13

    def test_nodal_count_at_small_parameter_values(self):
        inv = family_invariants()
        assert inv.irreducible_nodal.eval(1) == 2
        assert inv.ramification.eval(3) == 6


class TestGuards:
    def test_exact_division_guard(self):
        with pytest.raises(IntegralityError):
            _exact_div(Poly((1,)), 12, "test value")
        assert _exact_div(Poly((-12, 12)), 12, "test value") == A - 1

    def test_deg1_needs_six_coefficients(self):
        with pytest.raises(ValueError):
            ChowDeg1((1, 2, 3))

    def test_deg1_linear_algebra(self):
        assert 2 * (ZETA + F1) - F1 == 2 * ZETA + F1
        assert -(ZETA - F2) == -1 * ZETA + F2
        assert (A * ZETA).coeffs[0] == A
