"""Three independent routes to the pairing of the d-gonal pencil against
the glued Brill-Noether pullback, and the sign table over d.

The three routes are:

* ``pairing_direct``: contract every entry of the profile on 4d-4 markings
  against the pullback coefficient at that subset.  The pullback is a view
  that computes each coefficient on demand, so the cost is the profile
  support, d * 4^(d-1) - 2d + 1 entries (6,133 reads at d = 6), which still
  grows exponentially in d.  The export budget, checked by the profile's
  builder, is its only bound: d <= 9 (589,807 entries) runs, and past it the
  ``ResourceGuardError`` of :mod:`.picard`, re-exported here, is raised
  before any entry is built.
* ``pairing_binomial``: the binomial-sum expression obtained by grouping the
  profile support by subset size.
* ``pairing_closed``: the closed form
  c * (2/3) * ( d(d-2)^(2d-2) - 2(d-3)(d-1)^(2d-1) ).

All routes return the same exact rational, positive at d = 3 and negative
for every d >= 4.
"""

from __future__ import annotations

from fractions import Fraction
from typing import List, NamedTuple

from .corpus import bn_class, bn_scale, profile
from .gluing import glue_pullback
from .picard import ResourceGuardError, pair  # noqa: F401  (re-exported)
from .scalars import Rat, binom, canon


def pairing_direct(d: int) -> Rat:
    """Pairing by full enumeration of the profile support on 4d-4 markings,
    each entry read against the pullback coefficient at its subset; refused
    past the export budget (d >= 10) by the profile's builder."""
    if d < 3:
        raise ValueError(f"gonal pairings need d >= 3, got {d}")
    return canon(pair(profile("gonal", d), glue_pullback(bn_class(d), 2 * d - 2)))


def even_subset_sum(d: int) -> int:
    """The middle grouped sum: over s = 1 .. 2d-2 of
    2 (d-2)^(2d-2-s) (s-1) C(2d-2, s).

    Collapses to 2((d-1)^(2d-2) + (d-2)^(2d-2)); both forms are computed
    and compared here.
    """
    total = sum(
        2 * (d - 2) ** (2 * d - 2 - s) * (s - 1) * binom(2 * d - 2, s)
        for s in range(1, 2 * d - 1)
    )
    collapsed = 2 * ((d - 1) ** (2 * d - 2) + (d - 2) ** (2 * d - 2))
    if total != collapsed:
        raise ArithmeticError(
            f"grouped sum {total} disagrees with its collapsed form {collapsed} at d={d}"
        )
    return total


def pairing_binomial(d: int) -> Rat:
    """Pairing via the size-grouped binomial sums.

    Groups the profile support into the 2d-2 pair collisions, the all-even
    subsets, and the odd-augmented subsets; each group's coefficient in the
    pullback depends only on subset size.
    """
    if d < 3:
        raise ValueError(f"gonal pairings need d >= 3, got {d}")
    pairs_term = (2 - Fraction(4 * d, 3)) * 2 * (d - 1) ** (2 * d - 1)
    evens_term = Fraction(d, 3) * even_subset_sum(d)
    odd_term = (
        Fraction(d, 3)
        * (2 * d - 2)
        * sum(
            (d - 1) * (d - 2) ** (2 * d - 3 - s) * s * binom(2 * d - 3, s)
            for s in range(1, 2 * d - 2)
        )
    )
    return canon(bn_scale(d) * (pairs_term + evens_term + odd_term))


def pairing_closed(d: int) -> Rat:
    """Pairing via the closed form."""
    if d < 3:
        raise ValueError(f"gonal pairings need d >= 3, got {d}")
    core = d * (d - 2) ** (2 * d - 2) - 2 * (d - 3) * (d - 1) ** (2 * d - 1)
    return canon(bn_scale(d) * Fraction(2, 3) * core)


class GonalRow(NamedTuple):
    d: int
    value: Rat
    sign: str


def negativity_report(d_max: int) -> List[GonalRow]:
    """Signs of the closed-form pairing for d = 3 .. d_max."""
    if d_max < 3:
        raise ValueError(f"report range must reach at least d = 3, got {d_max}")
    rows = []
    for d in range(3, d_max + 1):
        value = pairing_closed(d)
        sign = "+" if value > 0 else ("-" if value < 0 else "0")
        rows.append(GonalRow(d, value, sign))
    return rows
