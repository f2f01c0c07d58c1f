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
The writer (:mod:`effcone.writer`) streams the canonical indented,
sorted-key JSON text from those runs, in the frame given by
:data:`_LAYOUTS`, the one table of the file layout, which the batch reader
looks for too.

Files have one bulk path.  :func:`batched_class` reads the tail of a
regular class or profile file in the writer's layout first and gives the
document the whole read would give, but for a :class:`Batched` entry
array: one code path reads every document's space and lambda value, and a
file of the other kind is refused from its tail.  A ``Batched`` array is
read by the batch reader (:mod:`effcone.batches`), loaded only then;
entries that fail its checks or do not decode raise :class:`NotCanonical`,
its one refusal.  Such a file, and any other document (a pipe, another
layout, a genus-g class, a plain object passed in-process), is decoded by
plain ``json.loads`` and read entry by entry through
:func:`_boundary_entries`, the one place that words an entry's error.
"""

from __future__ import annotations

import json
import os
import stat
from itertools import chain, groupby, islice, repeat
from math import comb
from operator import and_, itemgetter, or_, rshift, sub
from typing import Dict, Iterable, Iterator, Mapping, NamedTuple, Sequence, Tuple

from .scalars import Scalar, canon, parse_rat, scalar_from_json, scalar_to_json

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


def _boundary_entries(entries, n: int) -> Dict[int, Scalar]:
    """Boundary coefficients of serialized entries: JSON objects whose
    ``S`` is a JSON array of integer markings in 1..n, none repeated, at
    least two per subset and no subset twice, and zero coefficients
    dropped.  The entries are read one at a time, and the
    error raised is that of the first entry that breaks a rule; this is the
    one place those errors are worded."""
    out: Dict[int, Scalar] = {}
    values: Dict[str, Scalar] = {}
    zeros = []
    for entry in entries:
        if type(entry) is not dict:
            raise ValueError(f"boundary entry must be a JSON object, got {type(entry).__name__}")
        members = entry["S"]
        if type(members) is not list:
            raise ValueError(f"S must be a JSON array, got {type(members).__name__}")
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
    ``what``, which must live on a space of type ``kind``.  This is the
    first read of every document, so it also refuses one that is not a JSON
    object."""
    if type(obj) is not dict:
        raise ValueError(f"a {what} must be a JSON object, got {type(obj).__name__}")
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


def _m1n_fields(obj: dict, lam_key: str, key: str, what: str) -> tuple:
    """``(n, lambda value, boundary)`` of a serialized class or profile
    ``what``, its lambda value under ``lam_key`` and its entries under
    ``key``: a :class:`Batched` array is read in batches, after the space
    check of its profile, and any other entry by entry, which words every
    error."""
    n = _space(obj, "M1n", "n", what)
    _check_n(n)
    lam = scalar_from_json(obj[lam_key])
    entries = obj[key]
    if type(entries) is not Batched:
        return n, lam, _boundary_entries(_array(obj, key), n)
    if entries.profile is not None:
        _same_space(entries.profile, n)  # before any entry is decoded
    from .batches import _batched_boundary

    return n, lam, _batched_boundary(entries, n)


def m1n_class_from_json(obj) -> DivisorClassM1n:
    """The class of a serialized document; of a :class:`Batched` array only
    the entries at its profile's support are kept, when it has one."""
    return DivisorClassM1n._trusted(*_m1n_fields(obj, "lambda", "boundary", "class"))


# ---------------------------------------------------------------------------
# files read in batches


class _Layout(NamedTuple):
    """The layout of a class or profile file that the writer writes and the
    batch reader looks for: the key of its boundary entries and of its
    lambda value, the text before its first entry's ``_FIRST``, and the
    text between its last entry's coefficient and its lambda value."""

    key: str
    lam_key: str
    head: str
    mid: str


# marking lines and entry template of the text json.dumps(indent=2) gives a
# boundary entry, for the writer and the batch reader: an entry is written
# from ``_FIRST`` to its coefficient, ``_BETWEEN`` lies between two pieces
# and ``_NEXT`` between two entries of one; a batch is cut at a ``_BETWEEN``
_MARKING_LINES = tuple(f"        {i}" for i in range(MAX_MARKINGS + 1))
_ENTRY = '    {\n      "S": [\n%s\n      ],\n      "coeff": %s\n    }'
_HEAD, _MIDDLE, _END = _ENTRY.split("%s")
_OPEN = _HEAD[:_HEAD.index("\n")]
_FIRST, _BETWEEN = _HEAD[len(_OPEN):], _END + ",\n" + _OPEN
_NEXT = _BETWEEN + _FIRST

_LAYOUTS = tuple(
    _Layout(key, lam_key, f'{{\n  "{key}": [\n{_OPEN}', f'{_END}\n  ],\n  "{lam_key}": ')
    for key, lam_key in (("boundary", "lambda"), ("on_boundary", "on_lambda"))
)
_TAIL_BYTES = 1 << 16  # the tail read first; a longer one is read whole


class NotCanonical(Exception):
    """The entries of a :class:`Batched` array fail a check, or the file
    shrank since its tail was read: the file is to be read whole, which
    words any error."""


class Batched(NamedTuple):
    """The boundary entries of a class or profile file in the writer's
    layout, bytes ``start`` to ``end`` of ``path``, to be read in batches
    by :func:`effcone.batches._batched_boundary`, keeping the masks in ``profile``'s
    support, or every mask when ``profile`` is None."""

    path: str
    start: int
    end: int
    profile: CurveProfile | None


def batched_class(path: str, profile: CurveProfile | None) -> dict | None:
    """The document of the class or profile file at ``path``, a regular
    file that starts with the head of a layout of :data:`_LAYOUTS` and ends
    with its tail, read first from its last ``_TAIL_BYTES``: the tail, by
    plain ``json.loads``, with a :class:`Batched` array keeping
    ``profile``'s support under the layout's key.  None for any other file,
    one that cannot be read, or a tail that the whole read's head code
    would refuse, so that the whole read words that error."""
    try:
        if not stat.S_ISREG(os.stat(path).st_mode):
            return None  # a pipe cannot be read twice
        with open(path, "rb") as fh:
            head = fh.read(max(len(layout.head) for layout in _LAYOUTS))
            layout = next((layout for layout in _LAYOUTS if head.startswith(layout.head.encode())), None)
            if layout is None:
                return None
            size = fh.seek(0, os.SEEK_END)
            fh.seek(max(size - _TAIL_BYTES, len(layout.head)))
            tail = fh.read()
    except OSError:
        return None
    mid = tail.rfind(layout.mid.encode())
    if mid < 0:
        return None
    lam_key = layout.lam_key
    try:
        doc = json.loads(f'{{"{lam_key}": ' + tail[mid + len(layout.mid):].decode())
        if doc.keys() != {lam_key, "space"}:  # JSON keeps the last of a key's values
            return None
        _check_n(_space(doc, "M1n", "n", "file"))
        scalar_from_json(doc[lam_key])
    except (KeyError, TypeError, ValueError, RecursionError):
        return None
    doc[layout.key] = Batched(path, len(layout.head), size - len(tail) + mid, profile)
    return doc


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
    return DivisorClassMg(
        _space(obj, "Mg", "g", "class"),
        scalar_from_json(obj["lambda"]),
        scalar_from_json(obj["delta_irr"]),
        [scalar_from_json(c) for c in _array(obj, "delta")],
    )
