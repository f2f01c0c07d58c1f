"""Exact scalar arithmetic: big-integer combinatorics, rationals, and
univariate polynomials in the formal parameter ``a``.

Every coefficient in this package lives in the ring Q[a].  Plain rationals
are degree-zero elements, represented directly by ``int`` or
``fractions.Fraction``; genuinely polynomial values use :class:`Poly`.  The
three types mix freely under arithmetic and compare equal whenever they
denote the same ring element.  There is no floating point anywhere.
"""

from __future__ import annotations

import re
from fractions import Fraction
from math import comb as binom  # noqa: F401  exact C(n, k); 0 when k > n
from typing import Iterable, Sequence, Union

Rat = Union[int, Fraction]
Scalar = Union[int, Fraction, "Poly"]


class Poly:
    """Univariate polynomial in the formal parameter ``a`` over Q.

    Coefficients are stored ascending by degree and kept canonical (no
    trailing zeros).  Instances are immutable; a constant polynomial hashes
    and compares equal to the rational it denotes, so mixed int / Fraction /
    Poly containers behave like a single coefficient ring.
    """

    __slots__ = ("_coeffs",)

    def __init__(self, coeffs: Iterable[Rat] = ()):
        cs = [Fraction(c) for c in coeffs]
        while cs and cs[-1] == 0:
            cs.pop()
        self._coeffs = tuple(cs)

    @classmethod
    def of(cls, value: Scalar) -> "Poly":
        """Coerce any scalar to a Poly."""
        if isinstance(value, Poly):
            return value
        return cls((value,))

    @classmethod
    def from_strings(cls, items: Sequence[str]) -> "Poly":
        """Parse the serialized form: rational strings, ascending degree."""
        return cls(parse_rat(s) for s in items)

    @property
    def coeffs(self) -> tuple:
        return self._coeffs

    def degree(self) -> int:
        """Degree of the polynomial; -1 for the zero polynomial."""
        return len(self._coeffs) - 1

    def is_zero(self) -> bool:
        return not self._coeffs

    def is_constant(self) -> bool:
        return len(self._coeffs) <= 1

    def constant(self) -> Fraction:
        """The value of a constant polynomial."""
        if len(self._coeffs) > 1:
            raise ValueError(f"{self} is not constant")
        return self._coeffs[0] if self._coeffs else Fraction(0)

    def coeff(self, k: int) -> Fraction:
        return self._coeffs[k] if 0 <= k < len(self._coeffs) else Fraction(0)

    def eval(self, x: Rat) -> Rat:
        """Exact evaluation at ``a = x`` (Horner)."""
        acc: Rat = 0
        for c in reversed(self._coeffs):
            acc = acc * x + c
        return canon(acc)

    def to_strings(self) -> list:
        return [format_rat(c) for c in self._coeffs]

    # ring operations ----------------------------------------------------

    def __add__(self, other):
        if isinstance(other, (int, Fraction)):
            other = Poly.of(other)
        if not isinstance(other, Poly):
            return NotImplemented
        k = max(len(self._coeffs), len(other._coeffs))
        return Poly(self.coeff(i) + other.coeff(i) for i in range(k))

    __radd__ = __add__

    def __neg__(self):
        return Poly(-c for c in self._coeffs)

    def __sub__(self, other):
        if isinstance(other, (int, Fraction, Poly)):
            return self + (-other if isinstance(other, Poly) else -Poly.of(other))
        return NotImplemented

    def __rsub__(self, other):
        if isinstance(other, (int, Fraction)):
            return Poly.of(other) + (-self)
        return NotImplemented

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return Poly(c * other for c in self._coeffs)
        if not isinstance(other, Poly):
            return NotImplemented
        if self.is_zero() or other.is_zero():
            return Poly()
        out = [Fraction(0)] * (len(self._coeffs) + len(other._coeffs) - 1)
        for i, ci in enumerate(self._coeffs):
            if ci == 0:
                continue
            for j, cj in enumerate(other._coeffs):
                out[i + j] += ci * cj
        return Poly(out)

    __rmul__ = __mul__

    # comparisons --------------------------------------------------------

    def __eq__(self, other):
        if isinstance(other, Poly):
            return self._coeffs == other._coeffs
        if isinstance(other, (int, Fraction)):
            return self.is_constant() and self.constant() == other
        return NotImplemented

    def __hash__(self):
        if self.is_constant():
            return hash(self.constant())
        return hash(self._coeffs)

    def __bool__(self):
        return not self.is_zero()

    def __str__(self):
        if not self._coeffs:
            return "0"
        parts = []
        for k in range(len(self._coeffs) - 1, -1, -1):
            c = self._coeffs[k]
            if c == 0:
                continue
            mag = format_rat(abs(c))
            if k == 0:
                term = mag
            else:
                var = "a" if k == 1 else f"a^{k}"
                term = var if abs(c) == 1 else f"{mag}*{var}"
            sign = "-" if c < 0 else "+"
            parts.append((sign, term))
        head_sign, head = parts[0]
        text = ("-" if head_sign == "-" else "") + head
        for sign, term in parts[1:]:
            text += f" {sign} {term}"
        return text

    def __repr__(self):
        return f"Poly({str(self)!r})"


#: The generator of Q[a].
A = Poly((0, 1))


def poly_eval(p: Scalar, x: Rat) -> Rat:
    """Evaluate a scalar at ``a = x``; plain rationals are unchanged."""
    if isinstance(p, Poly):
        return p.eval(x)
    return canon(p)


def canon(value: Scalar) -> Scalar:
    """Canonical representative of a scalar: constant polynomials collapse
    to rationals, integral fractions collapse to int."""
    if isinstance(value, Poly):
        if value.is_constant():
            return canon(value.constant())
        return value
    if isinstance(value, bool):
        raise TypeError("bool is not a scalar")
    if isinstance(value, Fraction):
        return int(value) if value.denominator == 1 else value
    if isinstance(value, int):
        return value
    raise TypeError(f"not an exact scalar: {value!r}")


def as_rat(value: Scalar) -> Rat:
    """The rational a constant scalar denotes; raises on nonconstant input."""
    c = canon(value)
    if isinstance(c, Poly):
        raise ValueError(f"{c} is not constant in a")
    return c


def format_rat(x: Rat) -> str:
    """Serialize a rational as ``p/q`` (``p`` when the denominator is 1)."""
    x = Fraction(x)
    if x.denominator == 1:
        return str(x.numerator)
    return f"{x.numerator}/{x.denominator}"


# ASCII digits only: ``\d`` would also match digits of other scripts
_RAT = re.compile(r"(-?[0-9]+)(?:/(0*[1-9][0-9]*))?")


def parse_rat(text: str) -> Rat:
    """Inverse of :func:`format_rat`: accepts exactly ``p`` or ``p/q`` with
    decimal integers p (optionally negative) and q (nonzero)."""
    match = _RAT.fullmatch(text) if isinstance(text, str) else None
    if match is None:
        raise ValueError(f"not a rational string: {text!r}")
    num, den = match.groups()
    return int(num) if den is None else canon(Fraction(int(num), int(den)))


def scalar_to_json(value: Scalar):
    """JSON form of a scalar: a rational string, or a list of rational
    strings (ascending degree) for nonconstant polynomials."""
    value = canon(value)
    if isinstance(value, Poly):
        return value.to_strings()
    return format_rat(value)


def scalar_from_json(obj) -> Scalar:
    if isinstance(obj, str):
        return parse_rat(obj)
    if isinstance(obj, list):
        return canon(Poly.from_strings(obj))
    raise ValueError(f"not a scalar serialization: {obj!r}")
