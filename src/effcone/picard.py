"""Divisor classes and curve profiles on moduli spaces of curves.

Two rational Picard groups are modeled.  On the space of stable genus-one
curves with n ordered markings the basis is (lambda, delta_{0;S} for subsets
S of the markings with |S| >= 2).  On the space of stable unmarked genus-g
curves (g >= 3) the basis is (lambda, delta_irr, delta_1, ..., delta_{g//2}).

Boundary indices S are encoded as bit masks: bit i-1 is set iff marking i
belongs to S.  All coefficients are exact scalars from :mod:`.scalars`;
boundary mappings are sparse and zero-pruned, so equality of classes is
plain structural equality.  A class's ``boundary`` is either a dict or a
read-only, zero-pruned mapping view that computes each coefficient from a
rule (the pullbacks of :mod:`.gluing`); readers use ``get``, ``items`` and
``len`` and never mutate it.  Every listing of a view is refused past
EXPORT_BUDGET entries before its first entry, by :func:`_check_budget`, the
one budget guard; a point read never is.

Files and reprs list boundary entries by subset size, then by sorted
members, all as runs of one coefficient from :func:`_runs`: a view that
lists itself in that order (``runs``, the gluing pullback) is walked, never
sorted; any other mapping is sorted once and its equal neighbours grouped.
The writer (:mod:`effcone.writer`) streams the canonical JSON text from
those runs.  The file format itself, the writer's layout and the readers
of serialized documents, is :mod:`effcone.files`, which the
``X_from_json`` functions here import when called, so that a command that
reads and writes no file never compiles it.
"""

from __future__ import annotations

from itertools import chain, groupby, islice, repeat
from math import comb
from operator import and_, itemgetter, or_, rshift, sub
from typing import Dict, Iterable, Iterator, Mapping, Sequence, Tuple

from .scalars import Scalar, canon, scalar_from_json, scalar_to_json

MAX_MARKINGS = 64
# most boundary entries a listing of a view, a written file or a built
# profile may hold (a file read is not counted): a pullback to 2m markings
# has at most 2^20 - 21 of them at m = 10, and 2^22 - 23 at m = 11 when its
# delta_irr coefficient is nonzero
EXPORT_BUDGET = 1 << 21


class SpaceMismatchError(ValueError):
    """Operands live on different moduli spaces."""


class MarkingIndexError(ValueError):
    """A marking index lies outside {1, ..., n}."""


class ResourceGuardError(ValueError):
    """A listing or enumeration was asked to exceed its budget: ``asked``
    (entries, or a degree) against ``limit``, both ints."""

    def __init__(self, message: str, limit: int, asked: int):
        super().__init__(message)
        self.limit, self.asked = limit, asked


def _check_budget(entries: int, what: str) -> None:
    """Refuse ``entries`` boundary entries past EXPORT_BUDGET, counted before
    any is listed or built; ``what`` names what holds them."""
    if entries > EXPORT_BUDGET:
        raise ResourceGuardError(
            f"export budget is {EXPORT_BUDGET} boundary entries; {what} has {entries}",
            EXPORT_BUDGET, entries,
        )


# ---------------------------------------------------------------------------
# subset masks


def subset_mask(members: Iterable[int], n: int) -> int:
    """Bit mask of a subset of {1, ..., n}."""
    mask = 0
    for i in members:
        if not 1 <= i <= n:
            raise MarkingIndexError(f"marking {i} not in 1..{n}")
        mask |= 1 << (i - 1)
    return mask


def _byte_members() -> Tuple[Tuple[Tuple[int, ...], ...], ...]:
    """``tables[j][v]``: the sorted markings whose bits lie in byte j of a
    mask and read v there."""
    tables = []
    for start in range(1, MAX_MARKINGS + 1, 8):
        table = [()]
        for marking in range(start, start + 8):
            table += [t + (marking,) for t in table]
        tables.append(tuple(table))
    return tuple(tables)


_BYTE_MEMBERS = _byte_members()


def subset_members(mask: int) -> Tuple[int, ...]:
    """Sorted tuple of markings in a mask of at most MAX_MARKINGS bits."""
    out = ()
    j = 0
    while mask:
        out += _BYTE_MEMBERS[j][mask & 0xFF]
        mask >>= 8
        j += 1
    return out


def full_mask(n: int) -> int:
    return (1 << n) - 1


def _check_n(n: int) -> None:
    message = f"marking count must be in 2..{MAX_MARKINGS}, got {n}"
    if n > MAX_MARKINGS:  # a guard's refusal; below 2 the count is malformed
        raise ResourceGuardError(message, MAX_MARKINGS, n)
    if n < 2:
        raise ValueError(message)


def _checked_boundary(boundary, n: int) -> Dict[int, Scalar]:
    """A canonical, zero-pruned copy of a boundary mapping whose keys are
    subsets of 1..n with at least two markings, read one entry at a time
    (a view through its budget-guarded ``items``), raising the error of the
    first offending entry.  Data derived from a rule skips it by ``_trusted``."""
    out: Dict[int, Scalar] = {}
    if boundary is None:
        return out
    top = full_mask(n)
    for mask, value in boundary.items():
        if not isinstance(mask, int) or mask < 0 or mask & ~top:
            raise MarkingIndexError(f"subset {mask!r} not within 1..{n}")
        if mask.bit_count() < 2:
            raise ValueError(
                f"boundary index {subset_members(mask)} has fewer than two markings"
            )
        value = canon(value)
        if value != 0:
            out[mask] = value
    return out


def boundary_order(mask: int) -> Tuple[int, Tuple[int, ...]]:
    """Sort key listing subsets by size, then by sorted members."""
    return mask.bit_count(), subset_members(mask)


_REPR_ENTRIES = 6


def _sparse_repr(mapping: Mapping[int, Scalar]) -> str:
    """The first ``_REPR_ENTRIES`` entries of :func:`_entries`, which are not
    listed past EXPORT_BUDGET entries, and the count (``len()`` refuses 2^63
    and up)."""
    count = mapping.__len__()
    first = islice(_entries(mapping), _REPR_ENTRIES) if count <= EXPORT_BUDGET else ()
    parts = [f"d0;{set(members)}: {v}" for members, v in first]
    if count > _REPR_ENTRIES:
        parts.append(f"... ({count} terms)")
    return ", ".join(parts)


# ---------------------------------------------------------------------------
# classes and profiles


class DivisorClassM1n:
    """A divisor class on the n-marked genus-one moduli space, in the
    (lambda, delta_{0;S}) basis."""

    __slots__ = ("n", "lam", "boundary")

    def __init__(self, n: int, lam: Scalar = 0, boundary: Mapping[int, Scalar] | None = None):
        _check_n(n)
        self.n = n
        self.lam = canon(lam)
        self.boundary = _checked_boundary(boundary, n)

    @classmethod
    def _trusted(cls, n: int, lam: Scalar, boundary: Mapping[int, Scalar]) -> "DivisorClassM1n":
        """The class as given, unchecked and uncopied.  The caller derives
        it from a rule it holds: ``lam`` and every coefficient are canonical,
        no coefficient is zero, and every key is a subset of 1..n with two
        or more markings.  ``boundary`` may be a read-only view."""
        obj = object.__new__(cls)
        obj.n = n
        obj.lam = lam
        obj.boundary = boundary
        return obj

    def coeff(self, mask: int) -> Scalar:
        """Coefficient of delta_{0;S} for the given subset mask."""
        return self.boundary.get(mask, 0)

    def is_zero(self) -> bool:
        return self.lam == 0 and not self.boundary

    def __eq__(self, other):
        if not isinstance(other, DivisorClassM1n):
            return NotImplemented
        return self.n == other.n and self.lam == other.lam and self.boundary == other.boundary

    def __repr__(self):
        return f"<DivisorClassM1n n={self.n} lambda={self.lam} {_sparse_repr(self.boundary)}>"


class CurveProfile:
    """Intersection numbers of a one-parameter family of marked genus-one
    curves with the Picard basis: a linear functional given by its value on
    lambda and on each delta_{0;S} (finite support, unlisted indices are 0)."""

    __slots__ = ("n", "on_lambda", "on_boundary")

    def __init__(self, n: int, on_lambda: Scalar = 0, on_boundary: Mapping[int, Scalar] | None = None):
        _check_n(n)
        self.n = n
        self.on_lambda = canon(on_lambda)
        self.on_boundary = _checked_boundary(on_boundary, n)

    @classmethod
    def _trusted(cls, n: int, on_lambda: Scalar, on_boundary: Dict[int, Scalar]) -> "CurveProfile":
        """The profile as given, as :meth:`DivisorClassM1n._trusted`; the
        d-gonal profile of :func:`effcone.corpus.profile` comes this way."""
        obj = object.__new__(cls)
        obj.n = n
        obj.on_lambda = on_lambda
        obj.on_boundary = on_boundary
        return obj

    def value_on(self, mask: int) -> Scalar:
        return self.on_boundary.get(mask, 0)

    def __eq__(self, other):
        if not isinstance(other, CurveProfile):
            return NotImplemented
        return (
            self.n == other.n
            and self.on_lambda == other.on_lambda
            and self.on_boundary == other.on_boundary
        )

    def __repr__(self):
        return f"<CurveProfile n={self.n} lambda={self.on_lambda} {_sparse_repr(self.on_boundary)}>"


class DivisorClassMg:
    """A divisor class on the genus-g moduli space (g >= 3), in the basis
    (lambda, delta_irr, delta_1, ..., delta_{g//2})."""

    __slots__ = ("g", "lam", "delta_irr", "delta")

    def __init__(self, g: int, lam: Scalar = 0, delta_irr: Scalar = 0, delta: Sequence[Scalar] = ()):
        if g < 3:
            raise ValueError(f"genus must be >= 3, got {g}")
        delta = tuple(canon(c) for c in delta)
        if len(delta) != g // 2:
            raise ValueError(f"expected {g // 2} separating-node coefficients, got {len(delta)}")
        self.g = g
        self.lam = canon(lam)
        self.delta_irr = canon(delta_irr)
        self.delta = delta

    @classmethod
    def from_delta_form(
        cls, g: int, lam: Scalar, total_delta: Scalar, parts: Sequence[Scalar]
    ) -> "DivisorClassMg":
        """Build from the alternative expression lam*lambda + total_delta*delta
        + sum parts[i]*delta_{i+1}, using delta = delta_irr + sum delta_i."""
        parts = tuple(parts)
        if len(parts) != g // 2:
            raise ValueError(f"expected {g // 2} separating-node coefficients, got {len(parts)}")
        return cls(g, lam, total_delta, tuple(total_delta + p for p in parts))

    def delta_form(self):
        """The same class written against (lambda, delta, delta_1, ...)."""
        return (self.lam, self.delta_irr, tuple(canon(c - self.delta_irr) for c in self.delta))

    def __eq__(self, other):
        if not isinstance(other, DivisorClassMg):
            return NotImplemented
        return (
            self.g == other.g
            and self.lam == other.lam
            and self.delta_irr == other.delta_irr
            and self.delta == other.delta
        )

    def __repr__(self):
        ds = " ".join(f"d{i + 1}={c}" for i, c in enumerate(self.delta))
        return f"<DivisorClassMg g={self.g} lambda={self.lam} d_irr={self.delta_irr} {ds}>"


# ---------------------------------------------------------------------------
# operations


def linear_combine(terms: Sequence[Tuple[Scalar, DivisorClassM1n]]) -> DivisorClassM1n:
    """Exact linear combination of classes on one marked space.  The first
    term's boundary is asked to combine the boundaries by their rule
    (``combined``, which glued views on one m have); when it cannot, the
    terms are summed entry by entry, made canonical, and zeros dropped."""
    terms = [(canon(coeff), cls) for coeff, cls in terms]
    if not terms:
        raise ValueError("empty combination has no ambient space")
    n = terms[0][1].n
    lam: Scalar = 0
    for coeff, cls in terms:
        if cls.n != n:
            raise SpaceMismatchError(f"cannot combine classes on n={n} and n={cls.n}")
        if coeff != 0:
            lam = lam + coeff * cls.lam
    combined = getattr(terms[0][1].boundary, "combined", None)
    boundary = None if combined is None else combined([(coeff, cls.boundary) for coeff, cls in terms])
    if boundary is None:
        sums: Dict[int, Scalar] = {}
        for coeff, cls in terms:
            if coeff == 0:
                continue
            for mask, value in cls.boundary.items():
                old = sums.get(mask)
                sums[mask] = coeff * value if old is None else old + coeff * value
        canonical = zip(sums, map(canon, sums.values()))
        boundary = {mask: value for mask, value in canonical if value != 0}
    return DivisorClassM1n._trusted(n, canon(lam), boundary)


def _same_space(profile: CurveProfile, n: int) -> None:
    """Refuse to pair ``profile`` with a class on n markings of another space."""
    if profile.n != n:
        raise SpaceMismatchError(f"profile on n={profile.n}, class on n={n}")


def pair(profile: CurveProfile, cls: DivisorClassM1n) -> Scalar:
    """Intersection number of the family against the class:
    on_lambda * lambda-coefficient plus the sum over the profile support."""
    _same_space(profile, cls.n)
    total = profile.on_lambda * cls.lam
    boundary = cls.boundary
    for mask, value in profile.on_boundary.items():
        c = boundary.get(mask)
        if c is not None:
            total = total + value * c
    return total


def _check_permutation(sigma: Sequence[int], n: int) -> Tuple[int, ...]:
    sigma = tuple(sigma)
    if len(sigma) != n or sorted(sigma) != list(range(1, n + 1)):
        raise ValueError(f"not a permutation of 1..{n}: {sigma}")
    return sigma


def _permuted(mapping: Mapping[int, Scalar], sigma: Sequence[int]) -> Dict[int, Scalar]:
    """``mapping`` with each key S moved to sigma(S), through one lookup
    table per w-bit field of the mask: the table of the field at bit j sends
    v to the image of the subset whose bits there read v.  A table costs 2^w
    entries and a field one C-level ``map`` stage over the keys (shift, mask,
    look up, or the images together), so w is the key count's bit length,
    kept within 8..12.  No Python code runs per entry; a view is listed once."""
    if type(mapping) is not dict:
        mapping = dict(mapping.items())
    keys = mapping.keys()
    width = min(max(len(keys).bit_length(), 8), 12)
    moved = None
    for start in range(0, len(sigma), width):
        table = [0]
        for image in sigma[start:start + width]:
            bit = 1 << (image - 1)
            table += [t | bit for t in table]
        field = map(rshift, keys, repeat(start)) if start else keys
        if start + width < len(sigma):  # the top field needs no mask: keys lie below 2^n
            field = map(and_, field, repeat(len(table) - 1))
        part = map(table.__getitem__, field)
        moved = part if moved is None else map(or_, moved, part)
    return dict(zip(moved, mapping.values()))


def permute_markings(cls: DivisorClassM1n, sigma: Sequence[int]) -> DivisorClassM1n:
    """Relabel markings by ``sigma`` (a sequence of images of 1..n): lambda
    is fixed and each delta_{0;S} coefficient is carried to delta_{0;sigma(S)}."""
    sigma = _check_permutation(sigma, cls.n)
    return DivisorClassM1n._trusted(cls.n, cls.lam, _permuted(cls.boundary, sigma))


def permute_profile(profile: CurveProfile, sigma: Sequence[int]) -> CurveProfile:
    sigma = _check_permutation(sigma, profile.n)
    return CurveProfile._trusted(profile.n, profile.on_lambda, _permuted(profile.on_boundary, sigma))


# ---------------------------------------------------------------------------
# JSON formats


def _lex_rank(members: Tuple[int, ...], n: int) -> int:
    """Position of a sorted subset among the subsets of its size of
    {1, ..., n}, listed by sorted members: the C(n, k) subsets of its size k
    less itself and, for each i, the C(n - a_i, k - i + 1) that share its
    first i - 1 members and pass its i-th member a_i."""
    k = len(members)
    return comb(n, k) - 1 - sum(map(comb, map(sub, repeat(n), members), range(k, 0, -1)))


def _runs(mapping: Mapping[int, Scalar], labels: Sequence) -> Iterator[Tuple[Scalar, Iterator[tuple]]]:
    """The nonzero entries of a mapping in boundary order, as runs ``(value,
    members)`` of one coefficient: ``members`` iterates the subsets of the
    run once, as tuples of labels, ``labels[i]`` standing for marking i.  A
    view that has ``runs`` lists itself; any other mapping is sorted once,
    by members within each size, which keeps the sort keys flat tuples of
    ints, and neighbouring entries with equal values are grouped.  The runs
    share one walk, so each must be drawn to its end before the next."""
    if hasattr(mapping, "runs"):
        return mapping.runs(labels)
    by_size: Dict[int, list] = {}
    for mask, value in mapping.items():
        size, members = boundary_order(mask)
        by_size.setdefault(size, []).append((members, value))
    ordered = chain.from_iterable(sorted(by_size[size], key=itemgetter(0)) for size in sorted(by_size))
    label = repeat(labels.__getitem__)
    return (
        (value, map(tuple, map(map, label, map(itemgetter(0), run))))
        for value, run in groupby(ordered, itemgetter(1))
    )


def _entries(mapping: Mapping[int, Scalar]) -> Iterator[tuple]:
    """``(members, value)`` of each nonzero entry of a mapping, in boundary
    order, from :func:`_runs`, each marking standing for itself."""
    for value, members in _runs(mapping, range(MAX_MARKINGS + 1)):
        yield from zip(members, repeat(value))


def _boundary_to_json(mapping: Mapping[int, Scalar]) -> list:
    """The serialized entries of a mapping, in boundary order."""
    return [{"S": list(members), "coeff": scalar_to_json(value)} for members, value in _entries(mapping)]


def m1n_class_to_json(cls: DivisorClassM1n) -> dict:
    return {
        "space": {"type": "M1n", "n": cls.n},
        "lambda": scalar_to_json(cls.lam),
        "boundary": _boundary_to_json(cls.boundary),
    }


def m1n_class_from_json(obj) -> DivisorClassM1n:
    """The class of a serialized document; of a
    :class:`~effcone.files.Batched` array only the entries at its profile's
    support are kept, when it has one."""
    from .files import _m1n_fields

    return DivisorClassM1n._trusted(*_m1n_fields(obj, "lambda", "boundary", "class"))


def profile_to_json(profile: CurveProfile) -> dict:
    return {
        "space": {"type": "M1n", "n": profile.n},
        "on_lambda": scalar_to_json(profile.on_lambda),
        "on_boundary": _boundary_to_json(profile.on_boundary),
    }


def profile_from_json(obj) -> CurveProfile:
    from .files import _m1n_fields

    return CurveProfile._trusted(*_m1n_fields(obj, "on_lambda", "on_boundary", "profile"))


def mg_class_to_json(cls: DivisorClassMg) -> dict:
    return {
        "space": {"type": "Mg", "g": cls.g},
        "lambda": scalar_to_json(cls.lam),
        "delta_irr": scalar_to_json(cls.delta_irr),
        "delta": [scalar_to_json(c) for c in cls.delta],
    }


def mg_class_from_json(obj) -> DivisorClassMg:
    from .files import _array, _space

    return DivisorClassMg(
        _space(obj, "Mg", "g", "class"),
        scalar_from_json(obj["lambda"]),
        scalar_from_json(obj["delta_irr"]),
        [scalar_from_json(c) for c in _array(obj, "delta")],
    )
