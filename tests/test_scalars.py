"""Exact scalar arithmetic: binomials, polynomials, serialization."""

import ast
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import effcone
from effcone import cli, suites
from effcone.picard import DivisorClassMg
from effcone.scalars import (
    A,
    Poly,
    as_rat,
    binom,
    canon,
    format_rat,
    parse_rat,
    poly_eval,
    scalar_from_json,
    scalar_to_json,
)

rationals = st.fractions(min_value=-50, max_value=50, max_denominator=20)
polys = st.builds(Poly, st.lists(rationals, max_size=4))
# coefficient lists as given, integral Fractions and trailing zeros included
coefficient_lists = st.lists(
    st.one_of(st.integers(-20, 20), st.fractions(min_value=-20, max_value=20, max_denominator=6)),
    max_size=5,
)


def canonical_coefficient(c):
    """An ``int``, or a ``Fraction`` whose denominator is not 1."""
    return type(c) is int or (type(c) is Fraction and c.denominator != 1)


def stripped(cs):
    """Fractions of ``cs`` with the trailing zeros dropped."""
    cs = [Fraction(c) for c in cs]
    while cs and cs[-1] == 0:
        cs.pop()
    return cs


def fraction_sum(xs, ys):
    k = max(len(xs), len(ys))
    xs, ys = list(xs) + [0] * (k - len(xs)), list(ys) + [0] * (k - len(ys))
    return stripped(Fraction(x) + Fraction(y) for x, y in zip(xs, ys))


def fraction_product(xs, ys):
    out = [Fraction(0)] * max(len(xs) + len(ys) - 1, 0)
    for i, x in enumerate(xs):
        for j, y in enumerate(ys):
            out[i + j] += Fraction(x) * Fraction(y)
    return stripped(out)


class TestBinom:
    def test_small_pascal_entries(self):
        assert binom(4, 2) == 6
        assert binom(6, 3) == 20

    def test_k_above_n_is_zero(self):
        assert binom(3, 5) == 0

    def test_negative_arguments_rejected(self):
        with pytest.raises(ValueError):
            binom(-1, 2)
        with pytest.raises(ValueError):
            binom(4, -2)

    def test_pascal_recurrence_full_sweep(self):
        for n in range(1, 65):
            for k in range(1, n + 1):
                assert binom(n, k) == binom(n - 1, k - 1) + binom(n - 1, k)


class TestPoly:
    def test_canonical_form_strips_trailing_zeros(self):
        assert Poly((1, 2, 0, 0)) == Poly((1, 2))
        assert Poly((0, 0)).is_zero()
        assert Poly((0, 0)).degree() == -1

    def test_constant_identifies_with_rational(self):
        assert Poly((Fraction(5),)) == 5
        assert Poly((Fraction(5),)) == Fraction(5)
        assert hash(Poly((Fraction(5),))) == hash(5)
        assert Poly((1, 1)) != 1

    def test_eval_examples(self):
        assert poly_eval(13 * A - 11, 1) == 2
        assert poly_eval(-16, 100) == -16
        assert poly_eval(12 * A - 12, 1) == 0

    def test_eval_is_exact(self):
        p = Poly((Fraction(1, 3), Fraction(-2, 7), 1))
        x = Fraction(5, 11)
        assert p.eval(x) == Fraction(1, 3) - Fraction(2, 7) * x + x * x

    def test_degree_and_constant(self):
        assert (13 * A - 11).degree() == 1
        assert Poly((7,)).constant() == 7
        with pytest.raises(ValueError):
            (A + 1).constant()

    @given(p=polys, q=polys, r=polys)
    @settings(max_examples=100)
    def test_ring_axioms(self, p, q, r):
        assert (p + q) + r == p + (q + r)
        assert p + q == q + p
        assert p * q == q * p
        assert (p * q) * r == p * (q * r)
        assert p * (q + r) == p * q + p * r
        assert p + (-p) == Poly()
        assert p - q == p + (-q)

    @given(p=polys, q=polys, x=rationals)
    @settings(max_examples=100)
    def test_eval_is_ring_homomorphism(self, p, q, x):
        assert poly_eval(p * q, x) == poly_eval(p, x) * poly_eval(q, x)
        assert poly_eval(p + q, x) == poly_eval(p, x) + poly_eval(q, x)

    @given(p=polys, c=rationals)
    @settings(max_examples=100)
    def test_mixed_scalar_arithmetic(self, p, c):
        assert p + c == p + Poly((c,))
        assert c * p == Poly((c,)) * p
        assert c - p == Poly((c,)) - p


class TestCanonicalCoefficients:
    """Each ``Poly`` coefficient is stored in its canonical form, and the
    ring operations agree with plain ``Fraction`` coefficient lists."""

    def assert_canonical(self, p):
        assert all(canonical_coefficient(c) for c in p.coeffs), p.coeffs
        assert not p.coeffs or p.coeffs[-1] != 0, p.coeffs

    def test_integral_fractions_are_stored_as_ints(self):
        p = Poly((Fraction(4, 2), Fraction(1, 2), Fraction(-3, 1), Fraction(0, 5)))
        assert p.coeffs == (2, Fraction(1, 2), -3)
        assert [type(c) for c in p.coeffs] == [int, Fraction, int]

    def test_zeros_read_off_a_poly_are_ints(self):
        assert type(Poly().constant()) is int and Poly().constant() == 0
        assert type(A.coeff(5)) is int and type(A.coeff(0)) is int
        assert type((2 * A).coeff(1)) is int

    @given(xs=coefficient_lists, ys=coefficient_lists)
    @settings(max_examples=200)
    def test_ring_operations_match_fraction_lists(self, xs, ys):
        p, q = Poly(xs), Poly(ys)
        self.assert_canonical(p)
        assert list(p.coeffs) == stripped(xs)
        negated = [-Fraction(y) for y in ys]
        for result, expected in (
            (p + q, fraction_sum(xs, ys)),
            (p - q, fraction_sum(xs, negated)),
            (p * q, fraction_product(xs, ys)),
            (-p, stripped(-Fraction(x) for x in xs)),
        ):
            self.assert_canonical(result)
            assert list(result.coeffs) == expected

    @given(xs=coefficient_lists, c=st.one_of(st.integers(-20, 20), rationals))
    @settings(max_examples=200)
    def test_mixed_operations_match_fraction_lists(self, xs, c):
        p = Poly(xs)
        for result, expected in (
            (p + c, fraction_sum(xs, [c])),
            (c + p, fraction_sum(xs, [c])),
            (p - c, fraction_sum(xs, [-c])),
            (c - p, fraction_sum([c], [-Fraction(x) for x in xs])),
            (p * c, fraction_product(xs, [c])),
            (c * p, fraction_product(xs, [c])),
        ):
            self.assert_canonical(result)
            assert list(result.coeffs) == expected

    @pytest.mark.parametrize("value", [0.5, True, 1j, "1/2"], ids=["float", "bool", "complex", "str"])
    def test_poly_refuses_what_canon_refuses(self, value):
        with pytest.raises(TypeError):
            canon(value)
        with pytest.raises(TypeError):
            Poly((value,))
        with pytest.raises(TypeError):
            Poly((1, value))
        with pytest.raises(TypeError):
            A + value
        with pytest.raises(TypeError):
            A * value

    def test_a_class_with_a_float_in_a_poly_is_refused(self):
        with pytest.raises(TypeError):
            DivisorClassMg(3, Poly((0.5,)), 0, [0])

    def test_a_poly_is_not_a_coefficient(self):
        with pytest.raises(TypeError):
            Poly((A,))
        with pytest.raises(TypeError):
            Poly((Poly((2,)),))


class TestCanonicalization:
    def test_canon_collapses(self):
        assert canon(Fraction(6, 3)) == 2 and isinstance(canon(Fraction(6, 3)), int)
        assert canon(Poly((Fraction(3, 2),))) == Fraction(3, 2)
        assert isinstance(canon(A + 1), Poly)

    def test_canon_rejects_floats(self):
        with pytest.raises(TypeError):
            canon(1.5)

    def test_as_rat(self):
        assert as_rat(Poly((Fraction(-16),))) == -16
        with pytest.raises(ValueError):
            as_rat(A + 1)


class TestSerialization:
    def test_rat_strings(self):
        assert format_rat(Fraction(3, 2)) == "3/2"
        assert format_rat(Fraction(-4, 1)) == "-4"
        assert parse_rat("3/2") == Fraction(3, 2)
        assert parse_rat("-4") == -4

    def test_poly_strings(self):
        assert scalar_to_json(13 * A - 11) == ["-11", "13"]
        assert scalar_from_json(["-11", "13"]) == 13 * A - 11

    def test_constant_poly_serializes_as_rational(self):
        assert scalar_to_json(Poly((Fraction(-16),))) == "-16"
        assert scalar_from_json("-16") == -16

    @given(p=polys)
    @settings(max_examples=100)
    def test_round_trip(self, p):
        assert scalar_from_json(scalar_to_json(p)) == p

    def test_rejects_garbage(self):
        with pytest.raises(ValueError):
            scalar_from_json({"not": "a scalar"})


class TestNoFloatingPoint:
    @pytest.mark.parametrize(
        "path", sorted(Path(effcone.__file__).parent.glob("*.py")), ids=lambda p: p.name
    )
    def test_package_source_is_exact(self, path):
        """No float or complex literal and no ``float(...)`` call in the package."""
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        found = [
            node.lineno
            for node in ast.walk(tree)
            if (isinstance(node, ast.Constant) and type(node.value) in (float, complex))
            or (isinstance(node, ast.Call) and isinstance(node.func, ast.Name) and node.func.id == "float")
        ]
        assert found == [], f"{path.name}: floating point at lines {found}"

    INTEGER_VALUED_MATH = {"comb", "factorial", "gcd", "isqrt", "lcm", "perm"}

    @pytest.mark.parametrize(
        "path", sorted(Path(effcone.__file__).parent.glob("*.py")), ids=lambda p: p.name
    )
    def test_only_integer_valued_math(self, path):
        """Names taken from ``math``, by ``from math import`` or as an
        attribute of the imported module, are integer-valued functions."""
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        modules = {
            alias.asname or alias.name
            for node in ast.walk(tree)
            if isinstance(node, ast.Import)
            for alias in node.names
            if alias.name == "math"
        }
        used = set()
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.module == "math":
                used |= {alias.name for alias in node.names}
            elif isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name) and node.value.id in modules:
                used.add(node.attr)
        assert used <= self.INTEGER_VALUED_MATH, f"{path.name}: math names {sorted(used - self.INTEGER_VALUED_MATH)}"


class TestVerifyScalarsAreExact:
    def test_every_serialized_verify_all_scalar(self, monkeypatch, capsys):
        """Each scalar behind a ``verify all`` row is an int, a Fraction, or a
        Poly whose coefficients are ints or Fractions with a denominator
        other than 1."""
        seen = []

        def recording(value):
            seen.append(value)
            return scalar_to_json(value)

        monkeypatch.setattr(suites, "scalar_to_json", recording)
        assert cli.main(["verify", "all"]) == 0
        capsys.readouterr()

        def exact(value):
            if type(value) is Poly:
                return all(canonical_coefficient(c) for c in value.coeffs)
            return type(value) in (int, Fraction)

        assert [v for v in seen if not exact(v)] == []
        assert {type(v) for v in seen} >= {int, Poly}

    @pytest.mark.parametrize(
        "c", [0.5, 2.0, True, False, Fraction(2, 1), Fraction(0, 1)], ids=repr
    )
    def test_the_coefficient_check_refuses_noncanonical_values(self, c):
        assert not canonical_coefficient(c)

    @pytest.mark.parametrize("c", [0, 3, -7, Fraction(1, 2), Fraction(-5, 3)], ids=repr)
    def test_the_coefficient_check_accepts_canonical_values(self, c):
        assert canonical_coefficient(c)
