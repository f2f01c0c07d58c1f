"""Pullback of divisor classes along the gluing and forgetful maps.

The gluing map identifies markings 2k-1 and 2k of a 2m-marked genus-one
curve into m non-separating nodes, producing a stable curve of arithmetic
genus m+1.  Pulling back the genus-(m+1) Picard basis:

  * lambda pulls back to lambda;
  * the separating class delta_i pulls back to the sum of delta_{0;S} over
    S a union of i glued pairs, plus (for i below the middle index) the sum
    over S whose complement is a union of i-1 glued pairs, i.e. S a union
    of m-i+1 pairs.  When m is odd and i = (m+1)/2 the two conditions
    coincide, so that family is counted once;
  * the total boundary delta pulls back to (12-2m)*lambda minus
    (|S|-1)*delta_{0;S} summed over all |S| >= 2, each glued pair
    contributing minus the two cotangent classes at its markings;
  * delta_irr pulls back to the total-boundary pullback minus the
    separating pullbacks, since the bases determine it by elimination.

Together these give one rule per subset.  With w_irr the delta_irr
coefficient, the coefficient of delta_{0;S} is

    row[|S|] = (1 - |S|) * w_irr,  plus by_pairs[k] if S is a union of k pairs,

where by_pairs[k] folds delta_i - w_irr over the i whose family holds the
k-pair unions (i = k, and i = m-k+1 for the complements).  S is a union of
glued pairs iff ``S & odd == (S >> 1) & odd``, with ``odd`` the bits of the
odd markings 1, 3, ..., 2m-1.

The forgetful pullback from m to n markings sends lambda to lambda and
delta_{0;S} to the sum of delta_{0;T} over the subsets T of {1..n} whose
intersection with {1..m} is S, so its coefficient at T is the source
coefficient at ``T & low``, with ``low`` the mask of {1..m}.

Neither pullback is expanded.  Each returns a class whose boundary is a
read-only, zero-pruned mapping view that applies its rule to the subsets
asked for: a pairing reads the profile support and nothing else.  ``len``
is counted combinatorially.  Two glued views on one m compare, and glued
views on one m combine linearly, by their rule slots alone; any other
iteration of a view (equality with another mapping, relabeling, a linear
combination with another kind of boundary) lists its nonzero coefficients
in one pass, refused past EXPORT_BUDGET entries before the first, as
``runs`` below is.  A glued view also lists itself in boundary order for
export, one subset size at a time: the row value of the size, with the few
unions of pairs that differ from it spliced in at their ranks (``runs``),
so no entry is sorted.
"""

from __future__ import annotations

from collections.abc import Mapping
from itertools import combinations, islice
from typing import Dict, Iterator, List, Sequence, Tuple

from .picard import (
    CurveProfile,
    DivisorClassM1n,
    DivisorClassMg,
    SpaceMismatchError,
    _check_budget,
    _check_n,
    _lex_rank,
    full_mask,
)
from .scalars import Scalar, binom, canon


def lambda_family(i: int, m: int) -> Tuple[int, ...]:
    """The C(m, i) subsets of {1, ..., 2m} that are unions of exactly i glued
    pairs {2k-1, 2k}, as the ascending tuple of their masks (``(0,)``, the
    empty set, for i = 0); refused on more than 64 markings or past
    EXPORT_BUDGET sets before the first."""
    if m < 1:
        raise ValueError(f"pair count must be positive, got {m}")
    if not 0 <= i <= m:
        raise ValueError(f"pair index {i} not in 0..{m}")
    _check_n(2 * m)
    _check_budget(binom(m, i), f"the family of unions of {i} of {m} glued pairs")
    pair_masks = [0b11 << (2 * (k - 1)) for k in range(1, m + 1)]
    sets = []
    for chosen in combinations(pair_masks, i):
        mask = 0
        for p in chosen:
            mask |= p
        sets.append(mask)
    return tuple(sorted(sets))


class _CoefficientView(Mapping):
    """Read-only boundary mapping whose coefficients come from a rule.
    Subclasses give ``get`` (None for a zero coefficient), ``items`` (one
    pass over the nonzero coefficients, through which every listing goes,
    refused past EXPORT_BUDGET entries before the first) and ``__len__``.
    Equality is ``Mapping``'s, save between two glued views on one m,
    which compare their rules: it lists both sides through ``items``, so
    a side past EXPORT_BUDGET entries is refused there."""

    __slots__ = ()

    def __getitem__(self, mask: int) -> Scalar:
        value = self.get(mask)
        if value is None:
            raise KeyError(mask)
        return value

    def __iter__(self) -> Iterator[int]:
        return (mask for mask, _ in self.items())

    def __bool__(self) -> bool:  # len() refuses counts past sys.maxsize (64 markings)
        return self.__len__() > 0


def _pruned(values: Sequence[Scalar | None]) -> List[Scalar | None]:
    return [None if v is None or v == 0 else canon(v) for v in values]


class GluedBoundary(_CoefficientView):
    """Boundary of a gluing pullback on 2m markings: ``row[|S|]``, plus
    ``by_pairs[|S| / 2]`` when S is a union of glued pairs."""

    __slots__ = ("m", "n", "_odd", "_by_size", "_on_pairs")

    def __init__(self, m: int, row: Sequence[Scalar], by_pairs: Sequence[Scalar]):
        self._set(m, row, [row[2 * k] + by_pairs[k] for k in range(m + 1)])

    def _set(self, m: int, by_size: Sequence[Scalar | None], on_pairs: Sequence[Scalar | None]) -> None:
        """The rule from its slots, the value at each size and on the unions
        of k pairs; those no boundary index reads (sizes 0 and 1, k = 0)
        hold None whatever is given."""
        self.m, self.n = m, 2 * m
        self._odd = full_mask(2 * m) // 3  # 0b0101...01: markings 1, 3, ..., 2m-1
        self._by_size = [None, None] + _pruned(by_size[2:])
        self._on_pairs = [None] + _pruned(on_pairs[1:])

    def __eq__(self, other):
        """Two glued views on one m agree iff they agree on every slot a
        subset of two or more markings reads: ``_by_size`` for sizes
        2..2m-1 and ``_on_pairs`` for k >= 1 (the only subset of size 2m
        is a union of pairs).  Any other comparison is ``Mapping``'s."""
        if type(other) is not GluedBoundary or other.m != self.m:
            return super().__eq__(other)
        top = 2 * self.m
        return self._by_size[2:top] == other._by_size[2:top] and self._on_pairs[1:] == other._on_pairs[1:]

    def combined(self, terms: Sequence[Tuple[Scalar, Mapping]]) -> "GluedBoundary | None":
        """The sum of ``coeff * view`` over ``terms`` (canonical coefficients)
        as the glued view whose slots are the sums of ``coeff * slot``, when
        every view is glued on this view's m; None when some view is not."""
        m = self.m
        if any(type(view) is not GluedBoundary or view.m != m for _, view in terms):
            return None
        by_size: List[Scalar | None] = [None] * (2 * m + 1)
        on_pairs: List[Scalar | None] = [None] * (m + 1)
        for coeff, view in terms:
            if coeff == 0:
                continue
            for sums, slots in ((by_size, view._by_size), (on_pairs, view._on_pairs)):
                for i, value in enumerate(slots):
                    if value is not None:
                        old = sums[i]
                        sums[i] = coeff * value if old is None else old + coeff * value
        out = object.__new__(GluedBoundary)
        out._set(m, by_size, on_pairs)
        return out

    def get(self, mask: int, default=None):
        if mask >> self.n:
            return default
        odd = self._odd
        if mask & odd == (mask >> 1) & odd:
            value = self._on_pairs[mask.bit_count() >> 1]
        else:
            value = self._by_size[mask.bit_count()]
        return default if value is None else value

    def __len__(self) -> int:
        m, by_size, on_pairs = self.m, self._by_size, self._on_pairs
        count = sum(binom(2 * m, b) for b, value in enumerate(by_size) if value is not None)
        for k in range(1, m + 1):
            count += binom(m, k) * ((on_pairs[k] is not None) - (by_size[2 * k] is not None))
        return count

    def runs(self, labels: Sequence) -> Iterator[Tuple[Scalar, Iterator[tuple]]]:
        """The nonzero entries in boundary order, as runs ``(value, members)``
        of one coefficient: ``members`` iterates the subsets of the run once,
        as tuples of labels, ``labels[i]`` standing for marking i.  The row
        value of a size is walked with ``combinations``, which yields the
        subsets already in boundary order, and each union of pairs whose
        value differs is spliced in at its rank; unions listed by their pair
        indices come in the order of their members.  The runs of one size
        share the walk, so each must be drawn to its end before the next."""
        _check_budget(self.__len__(), "a GluedBoundary")
        m, n, by_size, on_pairs = self.m, self.n, self._by_size, self._on_pairs
        markings = labels[1:n + 1]
        for b in range(2, n + 1):
            default = by_size[b]
            special = on_pairs[b >> 1] if b % 2 == 0 else default
            if default is not None:
                walk = combinations(markings, b)
                done = 0
            if special != default:
                for pairs in combinations(range(1, m + 1), b >> 1):
                    members = tuple(i for k in pairs for i in (2 * k - 1, 2 * k))
                    if default is not None:
                        rank = _lex_rank(members, n)
                        yield default, islice(walk, rank - done)
                        next(walk)
                        done = rank + 1
                    if special is not None:
                        yield special, iter((tuple(map(labels.__getitem__, members)),))
            if default is not None:
                yield default, walk

    def items(self) -> Iterator[Tuple[int, Scalar]]:
        _check_budget(self.__len__(), "a GluedBoundary")
        odd, by_size, on_pairs = self._odd, self._by_size, self._on_pairs
        for mask in range(3, 1 << self.n):
            b = mask.bit_count()
            value = on_pairs[b >> 1] if mask & odd == (mask >> 1) & odd else by_size[b]
            if value is not None:
                yield mask, value


class ForgetfulBoundary(_CoefficientView):
    """Boundary of a forgetful pullback from m to n markings: the
    coefficient at T is the source coefficient at T intersect {1..m}."""

    __slots__ = ("base", "m", "n", "_low")

    def __init__(self, base: Mapping, m: int, n: int):
        self.base, self.m, self.n = base, m, n
        self._low = full_mask(m)

    def get(self, mask: int, default=None):
        if mask >> self.n:
            return default
        return self.base.get(mask & self._low, default)

    def __len__(self) -> int:
        return len(self.base) << (self.n - self.m)

    def items(self) -> Iterator[Tuple[int, Scalar]]:
        _check_budget(self.__len__(), "a ForgetfulBoundary")
        extensions = [t << self.m for t in range(1 << (self.n - self.m))]
        for s, value in self.base.items():
            for t in extensions:
                yield s | t, value


def glue_pullback(W: DivisorClassMg, m: int) -> DivisorClassM1n:
    """Pull a genus-(m+1) divisor class back to the 2m-marked genus-one
    space along the gluing map."""
    if m < 2:
        raise ValueError(f"need at least two glued pairs, got m={m}")
    _check_n(2 * m)
    if W.g != m + 1:
        raise SpaceMismatchError(f"class lives on genus {W.g}, gluing lands in genus {m + 1}")
    w_irr = W.delta_irr
    # w_irr * int: a Fraction multiplies on its forward path, building no Fraction(int)
    lam = canon(W.lam + w_irr * (12 - 2 * m))
    row = [0, 0] + [w_irr * (1 - b) for b in range(2, 2 * m + 1)]
    by_pairs: List[Scalar] = [0] * (m + 1)
    for i in range(1, (m + 1) // 2 + 1):
        adjust = W.delta[i - 1] - w_irr
        by_pairs[i] = adjust
        if 2 * i != m + 1:
            # complements of (i-1)-pair unions; at the odd-m middle index
            # they are the i-pair unions already counted.  Assigned: as
            # i <= (m+1)/2 <= m - i + 1, the indices of two i never collide
            by_pairs[m - i + 1] = adjust
    return DivisorClassM1n._trusted(2 * m, lam, GluedBoundary(m, row, by_pairs))


def forget_pullback(W: DivisorClassM1n, n: int) -> DivisorClassM1n:
    """Pull a class on m markings back along the map forgetting markings
    m+1, ..., n."""
    m = W.n
    if n < m:
        raise ValueError(f"cannot forget down from {m} to {n} markings")
    _check_n(n)
    if n == m:
        return W
    return DivisorClassM1n._trusted(n, W.lam, ForgetfulBoundary(W.boundary, m, n))


def pushforward_profile(profile: CurveProfile, m: int) -> CurveProfile:
    """Adjoint of the forgetful pullback on profiles: the value on S is the
    sum of the values on all T with T intersect {1..m} equal to S.  Defined
    whenever no mass lands on subsets meeting {1..m} in fewer than two
    markings."""
    if m > profile.n:
        raise ValueError(f"target marking count {m} exceeds {profile.n}")
    _check_n(m)
    low = full_mask(m)
    out: Dict[int, Scalar] = {}
    for t, value in profile.on_boundary.items():
        s = t & low if t > low else t  # a subset of 1..m is kept, not copied
        if s.bit_count() < 2:
            raise ValueError(
                f"profile mass on {t:b} meets the retained markings in fewer than two points"
            )
        old = out.get(s)
        out[s] = value if old is None else canon(old + value)
    for s in [s for s, value in out.items() if value == 0]:
        del out[s]
    # keys are subsets of 1..m with at least two markings, values canonical
    return CurveProfile._trusted(m, profile.on_lambda, out)
