"""The file format of classes and profiles, loaded only by the commands
that read or write a file: the writer's layout (:data:`_LAYOUTS` and the
entry text), which :mod:`effcone.writer` writes and :mod:`effcone.batches`
looks for, and the readers of serialized documents.

:func:`batched_class` reads the tail of a regular file in the writer's
layout first and gives the whole read's document, but for a
:class:`Batched` entry array, which the batch reader reads; its one
refusal is :class:`NotCanonical`.  Any other document is read entry by
entry by :func:`_boundary_entries`, the one place that words an entry's
error.  Both readers decode coefficients by ``scalar_from_json`` and drop
zeros by :func:`_nonzero`, the format's one coefficient rule.
"""

from __future__ import annotations

import json
import os
import stat
from typing import Dict, NamedTuple

from .picard import MAX_MARKINGS, CurveProfile, MarkingIndexError, _check_n, _same_space
from .scalars import Scalar, parse_rat, scalar_from_json


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


def _boundary_entries(entries, n: int) -> Dict[int, Scalar]:
    """Boundary coefficients of serialized entries: JSON objects whose
    ``S`` is a JSON array of integer markings in 1..n, none repeated, at
    least two per subset and no subset twice, and zero coefficients
    dropped.  The entries are read one at a time, and the
    error raised is that of the first entry that breaks a rule; this is the
    one place those errors are worded."""
    out: Dict[int, Scalar] = {}
    values: Dict[str, Scalar] = {}
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
    return _nonzero(out)


def _nonzero(out: Dict[int, Scalar]) -> Dict[int, Scalar]:
    """``out`` without its zero coefficients, dropped in place once every
    entry is read, so that a subset listed twice still gets its error."""
    for mask in [mask for mask, value in out.items() if not value]:
        del out[mask]
    return out


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


# ---------------------------------------------------------------------------
# files read in batches


class NotCanonical(Exception):
    """A batch of a :class:`Batched` array is not in the writer's structure
    or does not decode, or the file shrank since its tail was read: the
    file is to be read whole, which words any error."""


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
