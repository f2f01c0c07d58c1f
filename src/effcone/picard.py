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
One writer, :func:`write_json`, takes a class or profile and streams the
canonical indented, sorted-key JSON text from those runs a bounded piece at
a time, building no entry dict; :func:`json_text` is the same text as one
string.

Files are read as :class:`Tagged` documents: the command line decodes each
JSON integer k to the tag ``1 << k`` (``TAGS``), so a subset's mask is the
C-level ``sum`` of its tags shifted right once, and bit 0 stays free for a
``true`` to show.  :func:`_tagged_boundary` checks the entries the writer
writes over the whole list at once, through :func:`_checked_list` and
:func:`_in_range`.  Any other document, and any plain object passed
in-process, goes entry by entry through :func:`_boundary_entries`, the one
place that words an entry's error; a tagged one is first put back to plain
by :func:`_untagged`.

A class file to be paired with a profile may instead be read in batches:
:func:`batched_class` reads the tail of a regular file in the writer's
layout first, and :func:`m1n_class_from_json` then decodes its entries
about ``_BATCH_BYTES`` at a time, checks each batch with the same
:func:`_checked_list`, and keeps only the profile's support, so memory does
not grow with the file.  A file that turns out to be in another layout, or
that fails a check, raises :class:`NotCanonical`, and is read whole.
"""

from __future__ import annotations

import json
import os
import stat
from functools import reduce
from itertools import chain, compress, groupby, islice, repeat
from math import comb
from operator import and_, itemgetter, le, lt, neg, or_, rshift, xor
from typing import Callable, Dict, Iterable, Iterator, Mapping, NamedTuple, Sequence, Tuple

from .scalars import Scalar, canon, parse_rat, scalar_from_json, scalar_to_json

MAX_MARKINGS = 64
# most boundary entries a view may list or a file may hold: a pullback to 2m
# markings has at most 2^20 - 21 of them at m = 10, and 2^22 - 23 at m = 11
# when its delta_irr coefficient is nonzero
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
    subsets of 1..n with at least two markings.  The keys are checked over
    the whole mapping at once; when a check fails, :func:`_checked_entries`
    walks the entries to raise the error of the first offending one."""
    if boundary is None:
        boundary = {}
    elif type(boundary) is not dict:
        boundary = dict(boundary.items())  # dict(view) would read every key again
    keys = boundary.keys()
    if not (
        keys
        and set(map(type, keys)) == {int}
        and min(keys) >= 0
        and max(keys) <= full_mask(n)
        and min(map(int.bit_count, keys)) >= 2
    ):
        return _checked_entries(boundary, n)
    values = boundary.values()
    if set(map(type, values)) == {int} and 0 not in values:
        return dict(boundary)  # nonzero plain ints are canonical already
    return {mask: value for mask, value in zip(keys, map(canon, values)) if value != 0}


def _checked_entries(boundary: dict, n: int) -> Dict[int, Scalar]:
    out: Dict[int, Scalar] = {}
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
        # internal fast path: caller guarantees canonical, pruned, in-range
        # data; ``boundary`` may be a read-only view
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
        # internal fast path: caller guarantees canonical, pruned, in-range data
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
    """Exact linear combination of classes on one marked space.  Each sum
    is memoized by the identity of its operands (coefficient, value, and
    the sum before it or None), so each distinct triple is scaled, added
    and made canonical once and no value is hashed; a memo entry holds its
    operands, so that no id in a key is reused while the memo lives."""
    terms = list(terms)
    if not terms:
        raise ValueError("empty combination has no ambient space")
    n = terms[0][1].n
    lam: Scalar = 0
    boundary: Dict[int, Scalar] = {}
    memo: Dict[Tuple[int, int, int], tuple] = {}
    for coeff, cls in terms:
        if cls.n != n:
            raise SpaceMismatchError(f"cannot combine classes on n={n} and n={cls.n}")
        coeff = canon(coeff)
        if coeff == 0:
            continue
        lam = lam + coeff * cls.lam
        coeff_id = id(coeff)
        for mask, value in cls.boundary.items():
            old = boundary.get(mask)
            key = (coeff_id, id(value), id(old))
            hit = memo.get(key)
            if hit is None:
                total = coeff * value if old is None else old + coeff * value
                hit = memo[key] = (canon(total), coeff, value, old)
            boundary[mask] = hit[0]
    if any(hit[0] == 0 for hit in memo.values()):
        boundary = {m: v for m, v in boundary.items() if v != 0}
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


def permute_mask(mask: int, sigma: Sequence[int]) -> int:
    out = 0
    i = 1
    while mask:
        if mask & 1:
            out |= 1 << (sigma[i - 1] - 1)
        mask >>= 1
        i += 1
    return out


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
    {1, ..., n}, listed by sorted members."""
    rank, previous, left = 0, 0, len(members)
    for marking in members:
        left -= 1
        for skipped in range(previous + 1, marking):
            rank += comb(n - skipped, left)
        previous = marking
    return rank


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


# the tag each JSON integer of a class or profile file is decoded to:
# marking k is 1 << k, so that bit 0 stays free; any other integer, 0 and 65
# included, is a KeyError inside the decode
TAGS = {str(k): 1 << k for k in range(1, MAX_MARKINGS + 1)}


class Tagged(NamedTuple):
    """A JSON document decoded with ``parse_int=TAGS.__getitem__``: every
    integer k of the text is the tag ``1 << k`` in ``doc``.  A reader may
    put ``doc`` back to plain in place, so it is read once."""

    doc: object


def _untagged(doc):
    """The plain document a tagged one was decoded from: each tag ``t``
    back to ``t.bit_length() - 1`` in place, the only ints the decode
    made.  The tree is walked with a stack, since it may nest deeper
    than the recursion limit."""
    root = [doc]
    stack = [root]
    while stack:
        node = stack.pop()
        for key in node.keys() if type(node) is dict else range(len(node)):
            value = node[key]
            if type(value) is int:
                node[key] = value.bit_length() - 1
            elif type(value) is dict or type(value) is list:
                stack.append(value)
    return root[0]


def _checked_list(entries: list, parsed: dict) -> tuple | None:
    """``(sizes, sums, coeffs)`` of tagged entries whose coefficients
    are all nonzero rational strings, as the writer writes them, checked over
    the whole list at once through C-level ``map`` pipelines; None for any
    other list, or an exception.  A subset's tags sum to twice its mask when
    it holds distinct markings and nothing else: a ``false`` or a repeated
    marking leaves fewer bits than members, and a float, a string, a list or
    a null makes ``sum`` or the bit count raise.  What a list cannot show
    alone is left to its caller: the range and bit-0 checks of
    :func:`_in_range` on the OR of the sums, and the duplicates.  Each
    distinct coefficient string is parsed once into ``parsed``, which may
    be shared by the lists of one file."""
    lists = list(map(itemgetter("S"), entries))
    coeffs = list(map(itemgetter("coeff"), entries))
    new = set(coeffs).difference(parsed)
    parsed.update(zip(new, map(parse_rat, new)))
    sums = list(map(sum, lists))
    sizes = list(map(len, lists))
    if not (
        all(map(parsed.__getitem__, new))
        and min(sizes) >= 2
        and list(map(int.bit_count, sums)) == sizes
    ):
        return None
    return sizes, sums, coeffs


def _in_range(bits: int, n: int) -> bool:
    """Whether ``bits``, the OR of tagged subsets' sums, holds markings in
    1..n alone: no tag past ``1 << n``, and no ``true`` in bit 0."""
    return not bits >> (n + 1) and not bits & 1


def _tagged_boundary(entries: list, n: int) -> Dict[int, Scalar] | None:
    """Boundary coefficients of a whole list of tagged entries that
    :func:`_checked_list` and :func:`_in_range` pass and that holds no
    subset twice; None for any other list, or an exception."""
    if not entries:
        return {}
    parsed: dict = {}
    checked = _checked_list(entries, parsed)
    if checked is None:
        return None
    sums, coeffs = checked[1:]
    del checked
    if not _in_range(reduce(or_, sums), n):
        return None
    masks = list(map(rshift, sums, repeat(1)))
    del sums  # freed before the dict is built, the peak of a large read
    out = dict(zip(masks, map(parsed.__getitem__, coeffs)))
    return out if len(out) == len(masks) else None


def _boundary_entries(entries, n: int) -> Dict[int, Scalar]:
    """Boundary coefficients of serialized entries: integer markings in
    1..n, none repeated, at least two per subset and no subset twice, and
    zero coefficients dropped.  The entries are read one at a time, and the
    error raised is that of the first entry that breaks a rule; this is the
    one place those errors are worded."""
    out: Dict[int, Scalar] = {}
    values: Dict[str, Scalar] = {}
    zeros = []
    for entry in entries:
        members = entry["S"]
        mask = 0
        for i in members:
            if type(i) is not int:
                raise ValueError(f"markings must be integers, got {members!r}")
            if not 1 <= i <= n:
                raise MarkingIndexError(f"marking {i} not in 1..{n}")
            bit = 1 << (i - 1)
            if mask & bit:
                raise ValueError(f"marking {i} repeated in {members!r}")
            mask |= bit
        if mask in out:
            raise ValueError(f"duplicate boundary index {members}")
        if mask.bit_count() < 2:
            raise ValueError(f"boundary index {members} has fewer than two markings")
        coeff = entry["coeff"]
        if type(coeff) is str:
            value = values.get(coeff)
            if value is None:
                value = values[coeff] = parse_rat(coeff)
        else:
            value = scalar_from_json(coeff)
        out[mask] = value
        if not value:
            zeros.append(mask)
    for mask in zeros:
        del out[mask]
    return out


def _space(obj: dict, kind: str, key: str, what: str) -> int:
    """The size ``key`` (``n`` or ``g``) of the space of a serialized
    ``what``, which must live on a space of type ``kind``."""
    space = obj["space"]
    if type(space) is not dict:
        raise ValueError(f"space must be a JSON object, got {type(space).__name__}")
    if space.get("type") != kind:
        raise ValueError(f"expected an {kind} {what}, got space {space!r}")
    size = space[key]
    if type(size) is not int:
        raise ValueError(f"space {key} must be an integer, got {size!r}")
    return size


def _array(obj: dict, key: str):
    """``obj[key]``, which must be a JSON array."""
    value = obj[key]
    if type(value) is not list:
        raise ValueError(f"{key} must be a JSON array, got {type(value).__name__}")
    return value


def m1n_class_to_json(cls: DivisorClassM1n) -> dict:
    return {
        "space": {"type": "M1n", "n": cls.n},
        "lambda": scalar_to_json(cls.lam),
        "boundary": _boundary_to_json(cls.boundary),
    }


def _tagged_head(doc, lam_key: str) -> Tuple[int, Scalar]:
    """``(n, lambda value)`` of a tagged class or profile document whose
    space and lambda value are as the writer writes them, its lambda value
    under ``lam_key``; an exception for any other."""
    space, lam = doc["space"], doc[lam_key]
    tag = space["n"]
    # n = 1 (tag 2) is refused by _check_n
    if not (space["type"] == "M1n" and type(tag) is int and tag > 2 and type(lam) is str):
        raise ValueError("not as written")
    return tag.bit_length() - 1, parse_rat(lam)


def _m1n_fields(obj, lam_key: str, key: str, what: str) -> tuple:
    """``(n, lambda value, boundary)`` of a serialized class or profile
    ``what``, its lambda value under ``lam_key`` and its entries under
    ``key``.  A tagged document the writer could have written is read by
    :func:`_tagged_boundary`; any other document, and any exception on the
    way, is put back to plain and read entry by entry, so that every error
    is worded by the plain readers, as for a plain ``obj``."""
    if type(obj) is Tagged:
        doc = obj.doc
        try:
            # only a JSON object takes a string key
            n, lam = _tagged_head(doc, lam_key)
            entries = doc[key]
            if type(entries) is list:
                boundary = _tagged_boundary(entries, n)
                if boundary is not None:
                    return n, lam, boundary
        except (KeyError, TypeError, ValueError):
            pass  # the plain read below words the error
        obj = _untagged(doc)
    n = _space(obj, "M1n", "n", what)
    _check_n(n)
    return n, scalar_from_json(obj[lam_key]), _boundary_entries(_array(obj, key), n)


def m1n_class_from_json(obj) -> DivisorClassM1n:
    """The class of a serialized document: a plain object, a
    :class:`Tagged` one, or a :class:`Batched` class file, of which only
    the entries at its support are kept."""
    if type(obj) is Batched:
        return DivisorClassM1n._trusted(obj.n, obj.lam, _batched_boundary(obj))
    return DivisorClassM1n._trusted(*_m1n_fields(obj, "lambda", "boundary", "class"))


# ---------------------------------------------------------------------------
# class files read in batches

# the writer's layout of a class file: the text before its first boundary
# entry, between two entries, and between the last entry and the lambda value
_CLASS_HEAD = b'{\n  "boundary": [\n    {'
_BETWEEN = b"\n    },\n    {"
_CLASS_MID = b'\n    }\n  ],\n  "lambda": '
_BATCH_BYTES = 1 << 16
_TAIL_BYTES = 1 << 16  # the tail read first; a longer one is read whole


class NotCanonical(Exception):
    """A :class:`Batched` file is not in the writer's layout after all, or
    an entry fails a check: it is to be read whole, which words any error."""


class Batched(NamedTuple):
    """A class file in the writer's layout, made by :func:`batched_class`
    from its head and tail alone: space ``n`` and lambda value ``lam``, and
    its boundary entries up to byte offset ``end`` of ``path``, to be read
    in batches keeping the masks in ``support``."""

    path: str
    n: int
    lam: Scalar
    end: int
    support: Mapping[int, Scalar]


def batched_class(path: str, profile: CurveProfile) -> Batched | None:
    """The class file at ``path`` as a :class:`Batched` document keeping
    ``profile``'s support, when it is a regular file that starts with the
    writer's head and ends with the writer's tail, read first from its last
    ``_TAIL_BYTES``; None for any other file, or one that cannot be read.
    A class on another space than ``profile``'s is refused here, before
    any entry is decoded."""
    try:
        if not stat.S_ISREG(os.stat(path).st_mode):
            return None  # a pipe cannot be read twice
        with open(path, "rb") as fh:
            head = fh.read(len(_CLASS_HEAD))
            size = fh.seek(0, os.SEEK_END)
            fh.seek(max(size - _TAIL_BYTES, len(head)))
            tail = fh.read()
    except OSError:
        return None
    mid = tail.rfind(_CLASS_MID)
    if head != _CLASS_HEAD or mid < 0:
        return None
    end = size - len(tail) + mid
    try:
        doc = json.loads('{"lambda": ' + tail[mid + len(_CLASS_MID):].decode(), parse_int=TAGS.__getitem__)
        if doc.keys() != {"lambda", "space"}:  # JSON keeps the last of a key's values
            return None
        n, lam = _tagged_head(doc, "lambda")
    except (KeyError, TypeError, ValueError, RecursionError):
        return None
    _same_space(profile, n)
    return Batched(path, n, lam, end, profile.on_boundary)


def _batched_boundary(doc: Batched) -> Dict[int, Scalar]:
    """The coefficients of ``doc`` at its support.  Its entries are read a
    batch of about ``_BATCH_BYTES`` at a time, cut before an entry: a raw
    line break cannot occur inside a JSON string, so ``_BETWEEN`` only ever
    lies between two entries.  Every batch is checked by
    :func:`_checked_list`, and :func:`_in_range` checks the OR of all of
    them once the array ends.  The writer lists each subset once, in
    boundary order, so subsets that rise strictly in that order, from one
    batch to the next too, refuse a subset twice without holding every
    mask.  A file that fails any of this raises :class:`NotCanonical`."""
    keep = doc.support.__contains__
    out: Dict[int, Scalar] = {}
    parsed: dict = {}
    bits = size = top = 0  # size and sum of the last entry read
    try:
        with open(doc.path, "rb") as fh:
            fh.seek(len(_CLASS_HEAD))
            left = doc.end - len(_CLASS_HEAD)
            rest = b""
            while left > 0:
                read = fh.read(min(_BATCH_BYTES, left))
                if not read:
                    raise NotCanonical  # the file shrank since its tail was read
                left -= len(read)
                block = rest + read
                cut = block.rfind(_BETWEEN) if left else len(block)
                if cut < 0:
                    rest = block
                    continue
                rest = block[cut + len(_BETWEEN):]
                entries = json.loads("[{" + block[:cut].decode() + "}]", parse_int=TAGS.__getitem__)
                checked = _checked_list(entries, parsed)
                if checked is None:
                    raise NotCanonical
                sizes, sums, coeffs = checked
                # each entry against the one before: no size falls, and of
                # two subsets of one size the earlier holds the lowest
                # marking that lies in one of them alone
                z, s = [size, *sizes], [top, *sums]
                x = list(map(xor, s, sums))
                if not (
                    all(map(le, z, sizes))
                    and all(map(or_, map(lt, z, sizes), map(and_, map(and_, x, map(neg, x)), s)))
                ):
                    raise NotCanonical
                size, top = sizes[-1], sums[-1]
                bits |= reduce(or_, sums)
                masks = list(map(rshift, sums, repeat(1)))
                out.update(compress(zip(masks, map(parsed.__getitem__, coeffs)), map(keep, masks)))
    except (OSError, KeyError, TypeError, ValueError, RecursionError) as exc:
        raise NotCanonical from exc
    if not (size and _in_range(bits, doc.n)):  # no entry at all, or one out of range
        raise NotCanonical
    return out


def profile_to_json(profile: CurveProfile) -> dict:
    return {
        "space": {"type": "M1n", "n": profile.n},
        "on_lambda": scalar_to_json(profile.on_lambda),
        "on_boundary": _boundary_to_json(profile.on_boundary),
    }


def profile_from_json(obj) -> CurveProfile:
    return CurveProfile._trusted(*_m1n_fields(obj, "on_lambda", "on_boundary", "profile"))


def mg_class_to_json(cls: DivisorClassMg) -> dict:
    return {
        "space": {"type": "Mg", "g": cls.g},
        "lambda": scalar_to_json(cls.lam),
        "delta_irr": scalar_to_json(cls.delta_irr),
        "delta": [scalar_to_json(c) for c in cls.delta],
    }


def mg_class_from_json(obj) -> DivisorClassMg:
    if type(obj) is Tagged:
        obj = _untagged(obj.doc)
    return DivisorClassMg(
        _space(obj, "Mg", "g", "class"),
        scalar_from_json(obj["lambda"]),
        scalar_from_json(obj["delta_irr"]),
        [scalar_from_json(c) for c in _array(obj, "delta")],
    )


# marking lines and entry template of the text json.dumps(indent=2) gives a
# boundary entry; entries are written this many at a time
_MARKING_LINES = tuple(f"        {i}" for i in range(MAX_MARKINGS + 1))
_ENTRY = '    {\n      "S": [\n%s\n      ],\n      "coeff": %s\n    }'
_CHUNK_ENTRIES = 512


def _entry_pieces(mapping: Mapping[int, Scalar]) -> Iterator[str]:
    """The rendered boundary entries of a mapping in pieces of at most
    ``_CHUNK_ENTRIES`` entries, to be joined by ``",\\n"``, rendered a run of
    :func:`_runs` at a time: the entries of a run share their coefficient,
    so the text between two member lists is one constant and a piece is one
    ``join``.  Each distinct coefficient is encoded once."""
    head, middle, end = _ENTRY.split("%s")
    texts: dict = {}
    for value, members in _runs(mapping, _MARKING_LINES):
        text = texts.get(value)
        if text is None:
            # the coefficient's text, indented to its place inside an entry
            text = texts[value] = json.dumps(scalar_to_json(value), indent=2).replace("\n", "\n      ")
        tail = middle + text + end
        between = tail + ",\n" + head
        while piece := between.join(map(",\n".join, islice(members, _CHUNK_ENTRIES))):
            yield head + piece + tail


def write_json(item, write: Callable[[str], object]) -> None:
    """Write ``json.dumps(X_to_json(item), indent=2, sort_keys=True) + "\\n"``
    for a class or profile ``item``, X its kind, through ``write``, byte for
    byte, a piece of at most ``_CHUNK_ENTRIES`` boundary entries at a time,
    so that memory does not grow with the entry count.  ``indent`` makes
    ``json.dumps`` use its pure-Python encoder, so the boundary entries are
    rendered here from their runs instead.  The rest of the text is that of
    ``X_to_json`` on the item with an empty boundary, through ``json.dumps``;
    a genus-g class, which has no boundary entries, goes through it whole."""
    if type(item) is DivisorClassMg:
        write(json.dumps(mg_class_to_json(item), indent=2, sort_keys=True) + "\n")
        return
    if type(item) is CurveProfile:
        key, mapping = "on_boundary", item.on_boundary
        obj = profile_to_json(CurveProfile._trusted(item.n, item.on_lambda, {}))
    else:
        key, mapping = "boundary", item.boundary
        obj = m1n_class_to_json(DivisorClassM1n._trusted(item.n, item.lam, {}))
    text = json.dumps(obj, indent=2, sort_keys=True)
    pieces = _entry_pieces(mapping)
    first = next(pieces, None)  # drawn first: a refused listing writes nothing
    if first is None:
        write(text + "\n")
        return
    # a line break followed by two spaces and a quoted key only starts a
    # top-level key: strings never hold a raw line break
    marker = f'\n  "{key}": '
    head, _, tail = text.partition(marker + "[]")
    write(head + marker + "[\n")
    write(first)
    for piece in pieces:
        write(",\n")
        write(piece)
    write("\n  ]" + tail + "\n")


def json_text(item) -> str:
    """The text :func:`write_json` writes, as one string."""
    parts: list = []
    write_json(item, parts.append)
    return "".join(parts)
