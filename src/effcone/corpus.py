"""Named divisor classes, hand-entered pullback expansions, and test-curve
intersection profiles.

The two pullback expansions here are deliberately constructed term by term
from their displayed closed forms, independently of :mod:`.gluing`, so that
agreement between the two routes is a genuine cross-check and not a tautology.

Profiles record the intersection numbers of explicit one-parameter families
(pencils of plane cubics, pencils on a product surface, and a pencil of
genus-one fibrations with markings on three 2-sections).  They bake in the
base-change degrees that make the markings globally distinguishable along
the family: 2^3 for the three-pair family and (d-1)^(2d-2) for the d-gonal
family.  The geometric families themselves are not modeled; the numbers are
cited data.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations
from math import factorial

from .picard import CurveProfile, DivisorClassM1n, DivisorClassMg, _check_budget, _check_n, subset_mask
from .scalars import A


def bn_scale(d: int) -> Fraction:
    """Normalization constant of the degree-d Brill-Noether class:
    3*(2d-4)! / (d! (d-2)!)."""
    if d < 3:
        raise ValueError(f"Brill-Noether gonality classes need d >= 3, got {d}")
    return Fraction(3 * factorial(2 * d - 4), factorial(d) * factorial(d - 2))


def bn_class(d: int) -> DivisorClassMg:
    """Class of the Brill-Noether divisor of d-gonal curves on the moduli
    space of genus 2d-1 curves:

        c * ( (2d+2) lambda - (d/3) delta_irr - sum_i i(2d-1-i) delta_i )

    with c = bn_scale(d).  The coefficients are always integral.
    """
    c = bn_scale(d)
    g = 2 * d - 1
    return DivisorClassMg(
        g,
        c * (2 * d + 2),
        -c * Fraction(d, 3),
        tuple(-c * i * (2 * d - 1 - i) for i in range(1, d)),
    )


def gp_class() -> DivisorClassMg:
    """Class of the Gieseker-Petri divisor on the genus-4 moduli space
    (curves whose canonical model lies on a quadric cone):
    34 lambda - 4 delta_irr - 14 delta_1 - 18 delta_2."""
    return DivisorClassMg(4, 34, -4, (-14, -18))


def _glued_block_count(members, m: int):
    """Number of glued pairs making up a subset, or None when the subset is
    not a union of complete pairs {2k-1, 2k}."""
    members = set(members)
    blocks = 0
    for k in range(1, m + 1):
        odd, even = (2 * k - 1 in members), (2 * k in members)
        if odd != even:
            return None
        if odd:
            blocks += 1
    return blocks if blocks else None


def golden_pullback(name: str) -> DivisorClassM1n:
    """Hand-entered expansion of a pullback class, taken directly from its
    displayed formula.

    ``trigonal`` (8 markings, 4 glued pairs):
        4 lambda + sum over non-pair-union S of (|S|-1) delta_{0;S}
        + 4 delta_{0;full} - 2 sum over pairs - 2 sum over two-pair unions.

    ``gp`` (6 markings, 3 glued pairs):
        10 lambda + 4 sum over non-pair-union S of (|S|-1) delta_{0;S}
        + 10 delta_{0;full} - 6 sum over pairs - 2 sum over two-pair unions.
    """
    if name == "trigonal":
        n, m, lam, stray_scale = 8, 4, 4, 1
        by_blocks = {1: -2, 2: -2, 3: 0, 4: 4}
    elif name == "gp":
        n, m, lam, stray_scale = 6, 3, 10, 4
        by_blocks = {1: -6, 2: -2, 3: 10}
    else:
        raise ValueError(f"unknown pullback expansion {name!r}")

    boundary = {}
    for size in range(2, n + 1):
        for members in combinations(range(1, n + 1), size):
            blocks = _glued_block_count(members, m)
            coeff = stray_scale * (size - 1) if blocks is None else by_blocks[blocks]
            if coeff:
                boundary[subset_mask(members, n)] = coeff
    return DivisorClassM1n(n, lam, boundary)


def gonal_support(d: int) -> int:
    """Number of boundary entries of the d-gonal profile on 4d-4 markings,
    d * 4^(d-1) - 2d + 1, counted without building it.  Refuses a d with no
    such profile: d < 3, or more than 64 markings (d > 17)."""
    if d is None or d < 3:
        raise ValueError("gonal profiles need d >= 3")
    _check_n(4 * d - 4)
    return d * 4 ** (d - 1) - 2 * d + 1


def profile(name: str, d: int | None = None) -> CurveProfile:
    """Intersection profile of a named test family.

    * ``trig``: pencil of plane cubics through eight points on four
      concurrent lines (8 markings).
    * ``bnd``: pencil of plane cubics attached to a fixed 7-marked rational
      curve at a base point (8 markings); moves inside a boundary divisor.
    * ``gonal``: pencil of degree-d covers cut on a product of a genus-one
      curve and a line, after a base change of degree (d-1)^(2d-2)
      (4d-4 markings; requires ``d``).  Its d * 4^(d-1) - 2d + 1 entries are
      refused past EXPORT_BUDGET before the first is built, so d <= 9.  They
      are nonzero ints on subsets of two or more markings by construction,
      so ``CurveProfile._trusted`` takes them unchecked and uncopied; the
      hand-entered profiles go through the checked constructor.
    * ``gp``: pencil of genus-one fibrations marked on three 2-sections,
      after a base change of degree 8 (6 markings; values polynomial in a).
    """
    if name == "trig":
        n = 8
        boundary = {subset_mask((2 * k - 1, 2 * k), n): 1 for k in range(1, 5)}
        boundary[subset_mask((2, 4, 6, 8), n)] = 1
        return CurveProfile(n, 1, boundary)

    if name == "bnd":
        n = 8
        return CurveProfile(n, 1, {subset_mask(range(1, 8), n): -1})

    if name == "gonal":
        # d, and a support past the export budget, refused before any subset
        _check_budget(gonal_support(d), f"profile-gonal({d}) on {4 * d - 4} markings")
        # every entry is listed: pair k is bits 2k-2 (odd marking 2k-1) and
        # 2k-1 (even marking 2k); values are indexed by the number of even
        # markings in the subset
        n, m = 4 * d - 4, 2 * d - 2
        evens = sum(0b10 << (2 * j) for j in range(m))
        on_evens = [2 * (d - 2) ** (m - size) for size in range(m + 1)]
        on_odd_fiber = [(d - 1) * (d - 2) ** (m - 1 - size) for size in range(m)]
        boundary = {}
        # pair collisions p_{2k} = p_{2k-1}, weighted by the base change
        for j in range(m):
            boundary[0b11 << (2 * j)] = (d - 1) ** m
        # rational fibers through one of the two free base points: every
        # subset of the even markings with at least two of them
        sub = evens
        while sub:
            if sub & (sub - 1):
                boundary[sub] = on_evens[sub.bit_count()]
            sub = (sub - 1) & evens
        # rational fibers through a fixed marked point 2k-1: the odd marking
        # with a nonempty subset of the evens other than its partner
        for j in range(m):
            odd, rest = 1 << (2 * j), evens & ~(0b10 << (2 * j))
            sub = rest
            while sub:
                boundary[sub | odd] = on_odd_fiber[sub.bit_count()]
                sub = (sub - 1) & rest
        return CurveProfile._trusted(n, 0, boundary)

    if name == "gp":
        n = 6
        boundary = {}
        for i in (1, 2):
            for j in (3, 4):
                for k in (5, 6):
                    boundary[subset_mask((i, j, k), n)] = A + 1
        for k in (1, 2, 3):
            boundary[subset_mask((2 * k - 1, 2 * k), n)] = 8 * A
        return CurveProfile(n, 8 * (A - 1), boundary)

    raise ValueError(f"unknown profile {name!r}")
