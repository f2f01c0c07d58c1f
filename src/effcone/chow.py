"""Intersection ring of the threefold used for the three-pair family: the
blowup X of the projective bundle Y = Proj(O + O(1,2)) over a quadric
surface Q along three disjoint ruling curves of a section.

Degree-1 classes live on the generator basis (zeta, f1, f2, e1, e2, e3):
the universal bundle class, the two ruling classes of Q, and the three
exceptional divisors.  The whole module reduces to a symmetric trilinear
top form on these generators, derived from:

* the bundle relation zeta^2 = (f1 + 2 f2) zeta (the bundle splits off a
  trivial summand, so its second Chern class vanishes);
* the base relations f1^2 = f2^2 = 0 and deg(zeta f1 f2) = 1;
* blowup relations: distinct exceptional surfaces are disjoint, a single
  exceptional factor against two pullbacks dies under pushforward, and f2
  restricts to zero on each exceptional surface;
* each exceptional surface is a Hirzebruch surface F1 with line class l and
  ruling class r (l.l = 1, l.r = 1, r.r = 0, canonical class -2l - r); the
  surface restricts on itself to r - l, while zeta and f1 restrict to r.

The top form is the one place these relations are written.  A degree-2
class is recorded up to numerical equivalence, as its six intersection
numbers with the generators, so a product of two divisors is read off the
top form and every relation among degree-2 classes follows from it.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cache
from typing import List, NamedTuple, Tuple

from .scalars import A, Poly, Rat, Scalar, canon

GENERATOR_NAMES = ("zeta", "f1", "f2", "e1", "e2", "e3")
_ZETA, _F1, _F2 = 0, 1, 2


class IntegralityError(ArithmeticError):
    """An invariant that must be integral came out fractional."""


# ---------------------------------------------------------------------------
# six-vectors: degree-1 classes and degree-2 classes


class _SixVector:
    """Six exact numbers indexed by the generators (zeta, f1, f2, e1, e2, e3),
    with the vector operations both degrees share."""

    __slots__ = ("coeffs",)
    _names = GENERATOR_NAMES

    def __init__(self, coeffs=(0,) * 6):
        coeffs = tuple(canon(c) for c in coeffs)
        if len(coeffs) != 6:
            raise ValueError(f"expected 6 generator coefficients, got {len(coeffs)}")
        self.coeffs = coeffs

    def __add__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return type(self)(a + b for a, b in zip(self.coeffs, other.coeffs))

    def __sub__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return type(self)(a - b for a, b in zip(self.coeffs, other.coeffs))

    def __neg__(self):
        return type(self)(-c for c in self.coeffs)

    def __mul__(self, scalar):
        if isinstance(scalar, _SixVector):
            return NotImplemented
        return type(self)(c * scalar for c in self.coeffs)

    __rmul__ = __mul__

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return self.coeffs == other.coeffs

    def __repr__(self):
        terms = [f"{c}*{name}" for c, name in zip(self.coeffs, self._names) if c != 0]
        return f"<{type(self).__name__} " + (" + ".join(terms) if terms else "0") + ">"


class ChowDeg1(_SixVector):
    """A degree-1 class: six coefficients on (zeta, f1, f2, e1, e2, e3)."""

    __slots__ = ()


class ChowDeg2(_SixVector):
    """A degree-2 class up to numerical equivalence: its six intersection
    numbers with (zeta, f1, f2, e1, e2, e3).  ``ChowDeg2()`` is zero."""

    __slots__ = ()
    # the dual basis: g* meets the generator g once and the others not at all
    _names = tuple(f"{name}*" for name in GENERATOR_NAMES)


def _unit(i: int) -> ChowDeg1:
    return ChowDeg1(tuple(1 if j == i else 0 for j in range(6)))


ZETA = _unit(0)
F1 = _unit(1)
F2 = _unit(2)
E1, E2, E3 = _unit(3), _unit(4), _unit(5)
E_SUM = E1 + E2 + E3

#: Distinguished section of the bundle: union of the directrices of the fibers.
SIGMA = ZETA - F1 - 2 * F2
#: Complementary section, disjoint from SIGMA.
PI_SECTION = ZETA


def family_divisor() -> ChowDeg1:
    """The class 3 zeta + (a-2) f1 - 2 e cutting the pencil of marked
    genus-one fibrations."""
    return 3 * ZETA + (A - 2) * F1 - 2 * E_SUM


# ---------------------------------------------------------------------------
# the top form, derived from reduction rules


def _pullback_degree(p: int, q: int, r: int) -> int:
    """Degree of zeta^p f1^q f2^r (p+q+r = 3) on the bundle before blowup."""
    if p >= 2:
        # zeta^2 = (f1 + 2 f2) zeta
        return _pullback_degree(p - 1, q + 1, r) + 2 * _pullback_degree(p - 1, q, r + 1)
    # with at most one zeta factor only the fiber point zeta.f1.f2 survives
    return 1 if (p, q, r) == (1, 1, 1) else 0


def _hirzebruch_pair(x: Tuple[Rat, Rat], y: Tuple[Rat, Rat]) -> Rat:
    """Intersection on F1 of classes written as (line, ruling) coefficients."""
    return x[0] * y[0] + x[0] * y[1] + x[1] * y[0]


_EXC_SELF = (-1, 1)  # an exceptional surface restricted to itself: r - l
_RESTRICT = {_ZETA: (0, 1), _F1: (0, 1), _F2: (0, 0)}  # pullbacks restricted to it


def _generator_triple(i: int, j: int, k: int) -> int:
    exceptional = [t for t in (i, j, k) if t >= 3]
    base = [t for t in (i, j, k) if t < 3]
    if len(set(exceptional)) > 1:
        return 0  # disjoint exceptional surfaces
    if not exceptional:
        return _pullback_degree(base.count(_ZETA), base.count(_F1), base.count(_F2))
    if len(exceptional) == 1:
        return 0  # one exceptional factor against two pullbacks pushes to zero
    other = _EXC_SELF if len(exceptional) == 3 else _RESTRICT[base[0]]
    return _hirzebruch_pair(_EXC_SELF, other)


@cache
def top_form() -> Tuple[Tuple[Tuple[int, ...], ...], ...]:
    """The symmetric trilinear top-intersection form on the six generators,
    as the 6x6x6 tuple table whose ``[i][j][k]`` entry is the degree of the
    product of generators i, j and k."""
    return tuple(
        tuple(tuple(_generator_triple(i, j, k) for k in range(6)) for j in range(6))
        for i in range(6)
    )


def triple(x: ChowDeg1, y: ChowDeg1, z: ChowDeg1) -> Scalar:
    """Trilinear extension of the top form to arbitrary degree-1 classes."""
    table = top_form()
    total: Scalar = 0
    for i, xi in enumerate(x.coeffs):
        if xi == 0:
            continue
        row = table[i]
        for j, yj in enumerate(y.coeffs):
            if yj == 0:
                continue
            line = row[j]
            for k, zk in enumerate(z.coeffs):
                if zk == 0:
                    continue
                t = line[k]
                if t:
                    total = total + xi * yj * (zk * t)
    return canon(total)


# ---------------------------------------------------------------------------
# degree-2 classes


def product(x: ChowDeg1, y: ChowDeg1) -> ChowDeg2:
    """The degree-2 class x.y: its intersection number with generator k is
    the top form contracted with x and y, read off one pass over the table
    rows ``[i][j]`` of the nonzero pairs (x_i, y_j).  It is ``triple``
    against each generator in turn, without the six contractions."""
    table = top_form()
    out: List[Scalar] = [0] * 6
    for i, xi in enumerate(x.coeffs):
        if xi == 0:
            continue
        row = table[i]
        for j, yj in enumerate(y.coeffs):
            if yj == 0:
                continue
            xy = xi * yj
            line = row[j]
            for k in range(6):
                t = line[k]
                if t:
                    out[k] = out[k] + xy * t
    return ChowDeg2(out)


def dot(d2: ChowDeg2, d1: ChowDeg1) -> Scalar:
    """Contract a degree-2 class against a degree-1 class."""
    return canon(sum(n * c for n, c in zip(d2.coeffs, d1.coeffs)))


# ---------------------------------------------------------------------------
# pushforwards from the exceptional surfaces

# On each exceptional surface F1 the ambient intersection data identifies the
# pushforward of the ruling r_i with f1.e_i, and the self-intersection e_i^2
# with the pushforward of r_i - l_i, so the line class pushes to f1.e_i - e_i^2.


def pushforward_ruling(i: int) -> ChowDeg2:
    """Pushforward of the ruling class of the i-th exceptional surface (i in 1..3)."""
    return product(F1, _unit(2 + i))


def pushforward_line(i: int) -> ChowDeg2:
    """Pushforward of the line class of the i-th exceptional surface."""
    ei = _unit(2 + i)
    return product(F1, ei) - product(ei, ei)


# ---------------------------------------------------------------------------
# Chern data


class ChernData(NamedTuple):
    k_y: ChowDeg1    # canonical class of the bundle
    k_x: ChowDeg1    # canonical class of the blowup
    c2_ty: ChowDeg2  # second Chern class of the bundle tangent sheaf
    c2_tx: ChowDeg2  # second Chern class of the blowup tangent sheaf


def chern_data() -> ChernData:
    """Chern classes of Y and X.

    On Y the tangent sheaf is an extension of the pulled-back base tangent
    bundle by the relative line bundle O(Sigma + Pi), so Whitney gives
    c1 = (Sigma + Pi) + (2 f1 + 2 f2) and c2 = (Sigma + Pi)(2 f1 + 2 f2)
    + 4 f1 f2.  On the blowup along three smooth disjoint curves,
    K_X = K_Y + E and

        c2(T_X) = push(-relative canonical of E) + E.K_X + c2(T_Y),

    where the pushforward term is sum_i (f1 e_i - 2 e_i^2).
    """
    base_c1 = 2 * F1 + 2 * F2
    base_c2 = 4 * product(F1, F2)
    sections = SIGMA + PI_SECTION
    c1_ty = sections + base_c1
    k_y = -c1_ty
    c2_ty = product(sections, base_c1) + base_c2

    k_x = k_y + E_SUM
    minus_rel_canonical = ChowDeg2()
    for i in (1, 2, 3):
        minus_rel_canonical = minus_rel_canonical + (2 * pushforward_line(i) - pushforward_ruling(i))
    c2_tx = minus_rel_canonical + product(E_SUM, k_x) + c2_ty
    return ChernData(k_y, k_x, c2_ty, c2_tx)


def chi_structure_sheaf(k: ChowDeg1, c2: ChowDeg2) -> Scalar:
    """chi(O) = c1.c2 / 24 for a smooth projective threefold."""
    return canon(Fraction(1, 24) * dot(c2, -k))


def chi_line_bundle(L: ChowDeg1, data: ChernData) -> Scalar:
    """Degree-3 Riemann-Roch:
    chi(L) = L^3/6 + L^2 c1/4 + L(c1^2 + c2)/12 + c1 c2/24."""
    c1 = -data.k_x
    return canon(
        Fraction(1, 6) * triple(L, L, L)
        + Fraction(1, 4) * triple(L, L, c1)
        + Fraction(1, 12) * (triple(L, c1, c1) + dot(data.c2_tx, L))
        + chi_structure_sheaf(data.k_x, data.c2_tx)
    )


# ---------------------------------------------------------------------------
# invariants of the pencil of genus-one fibrations


def _exact_div(value: Scalar, k: int, what: str) -> Poly:
    out = Poly.of(Fraction(1, k) * Poly.of(value))
    if any(c.denominator != 1 for c in out.coeffs):
        raise IntegralityError(f"{what} is not divisible by {k}: got {out}")
    return out


class FamilyInvariants(NamedTuple):
    """Numerical invariants of the pencil cut by the family divisor, all
    polynomials in the parameter a."""

    kd_squared: Poly        # self-intersection of the fiberwise canonical class
    c2_td: Poly             # topological Euler number of the total surface
    hodge_lambda: Poly      # degree of the Hodge class on the pencil
    hodge_lambda_rr: Poly   # the same, via Riemann-Roch on the ambient threefold
    rational_tails: Poly    # fibers with a rational tail
    directrix_cycles: Poly  # fibers that are a 2-cycle through the directrix
    two_section_genus: Poly  # genus of each marked 2-section
    ramification: Poly      # ramification points of a 2-section over the pencil
    irreducible_nodal: Poly  # irreducible nodal fibers


def family_invariants() -> FamilyInvariants:
    """Compute the invariants of the family divisor D = 3 zeta + (a-2) f1 - 2e.

    The Hodge degree comes out of Noether's formula
    12 chi(O_D) = K_D^2 + c2(T_D) with K_D^2 = (D + K_X)^2 . D and
    c2(T_D) = c2(T_X).D + (D + K_X).D^2, and independently from
    chi(O_X) - chi(O_X(-D)) by Riemann-Roch.  Fiber counts are triple
    products; the 2-section data comes from adjunction on F1.
    """
    data = chern_data()
    D = family_divisor()
    adjoint = D + data.k_x

    kd_squared = Poly.of(triple(adjoint, adjoint, D))
    c2_td = Poly.of(dot(data.c2_tx, D) + triple(adjoint, D, D))
    hodge_lambda = _exact_div(kd_squared + c2_td, 12, "K_D^2 + c2(T_D)")
    hodge_lambda_rr = Poly.of(
        chi_structure_sheaf(data.k_x, data.c2_tx) - chi_line_bundle(-1 * D, data)
    )

    rational_tails = Poly.of(triple(D, ZETA - E_SUM, F2))
    directrix_cycles = Poly.of(triple(D, SIGMA, F2))

    # the 2-sections have class 2l + (a-1)r on F1; adjunction with K = -2l - r
    two_section = (Poly.of(2), A - 1)
    f1_canonical = (-2, -1)
    genus_twice = (
        _hirzebruch_pair(two_section, two_section)
        + _hirzebruch_pair(two_section, f1_canonical)
    )
    two_section_genus = 1 + _exact_div(genus_twice, 2, "adjunction degree")
    # Riemann-Hurwitz for the induced double cover of the pencil base
    ramification = 2 * two_section_genus - 2 + 4

    irreducible_nodal = 12 * hodge_lambda - 2 * directrix_cycles
    return FamilyInvariants(
        kd_squared=kd_squared,
        c2_td=c2_td,
        hodge_lambda=hodge_lambda,
        hodge_lambda_rr=hodge_lambda_rr,
        rational_tails=rational_tails,
        directrix_cycles=directrix_cycles,
        two_section_genus=Poly.of(two_section_genus),
        ramification=Poly.of(ramification),
        irreducible_nodal=Poly.of(irreducible_nodal),
    )


# ---------------------------------------------------------------------------
# the displayed intersection table, recomputed


def _vanishes_against_everything(x: ChowDeg1, y: ChowDeg1) -> Scalar:
    """0 when x.y.g vanishes for every generator g, else the first offender."""
    return next((v for v in product(x, y).coeffs if v != 0), 0)


def intersection_table_check() -> List[Tuple[str, Scalar, Scalar]]:
    """Recompute every displayed intersection relation of the threefold from
    the derived top form, as ``(name, expected, actual)`` triples."""
    checks = []
    exceptional = (E1, E2, E3)
    for idx, f in ((1, F1), (2, F2)):
        checks.append((f"f{idx}^2", 0, _vanishes_against_everything(f, f)))
    for i, e in enumerate(exceptional, start=1):
        checks.append((f"f2.e{i}", 0, _vanishes_against_everything(F2, e)))
    checks.append(("Sigma.Pi", 0, _vanishes_against_everything(SIGMA, PI_SECTION)))
    for i, e in enumerate(exceptional, start=1):
        checks.append((f"Sigma.e{i}", 0, _vanishes_against_everything(SIGMA, e)))
    checks.append(("Pi^3", 4, triple(PI_SECTION, PI_SECTION, PI_SECTION)))
    checks.append(("Sigma^3", 4, triple(SIGMA, SIGMA, SIGMA)))
    for i, e in enumerate(exceptional, start=1):
        checks.append((f"e{i}^3", -1, triple(e, e, e)))
        checks.append((f"e{i}^2.f1", -1, triple(e, e, F1)))
        checks.append((f"e{i}^2.Pi", -1, triple(e, e, PI_SECTION)))
    checks.append(("Sigma^2.f1", -2, triple(SIGMA, SIGMA, F1)))
    checks.append(("Pi^2.f1", 2, triple(PI_SECTION, PI_SECTION, F1)))
    checks.append(("Sigma^2.f2", -1, triple(SIGMA, SIGMA, F2)))
    checks.append(("Pi^2.f2", 1, triple(PI_SECTION, PI_SECTION, F2)))
    checks.append(("Sigma.f1.f2", 1, triple(SIGMA, F1, F2)))
    checks.append(("Pi.f1.f2", 1, triple(PI_SECTION, F1, F2)))
    return checks
