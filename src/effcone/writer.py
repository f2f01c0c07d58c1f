"""The writer of class and profile files: :func:`write_json` streams the
canonical indented, sorted-key JSON text of a class or profile a bounded
piece at a time, building no entry dict, in the frame given by
``files._LAYOUTS`` (:mod:`effcone.files`), the one table of the file layout, which the batch
reader (:mod:`effcone.batches`) looks for too.  This module is loaded
only when a class or profile is written.  The ``X_to_json`` functions are
looked up on :mod:`effcone.picard` when called, so that a wrapper set there
(``bench/layers.py`` times them) is the one that runs.
"""

from __future__ import annotations

import json
from itertools import islice
from typing import Callable, Iterator, Mapping

from . import picard
from .files import _BETWEEN, _FIRST, _LAYOUTS, _MARKING_LINES, _MIDDLE, _NEXT
from .picard import CurveProfile, DivisorClassM1n, DivisorClassMg, _runs
from .scalars import Scalar, scalar_to_json

# boundary entries are written this many at a time
_CHUNK_ENTRIES = 512


def _entry_pieces(mapping: Mapping[int, Scalar]) -> Iterator[str]:
    """The rendered boundary entries of a mapping in pieces of at most
    ``_CHUNK_ENTRIES`` entries, each from ``_FIRST`` to its last coefficient,
    rendered a run of :func:`_runs` at a time: the entries of a run share
    their coefficient, so they are joined by one constant, ``_MIDDLE``, the
    coefficient's text and ``_NEXT``, and a piece is one ``join``.  Each
    distinct coefficient is encoded once."""
    texts: dict = {}
    for value, members in _runs(mapping, _MARKING_LINES):
        text = texts.get(value)
        if text is None:
            # the coefficient's text, indented to its place inside an entry
            text = texts[value] = json.dumps(scalar_to_json(value), indent=2).replace("\n", "\n      ")
        coeff = _MIDDLE + text
        between = coeff + _NEXT
        while piece := between.join(map(",\n".join, islice(members, _CHUNK_ENTRIES))):
            yield _FIRST + piece + coeff


def write_json(item, write: Callable[[str], object]) -> None:
    """Write ``json.dumps(X_to_json(item), indent=2, sort_keys=True) + "\\n"``
    for a class or profile ``item``, X its kind, through ``write``, byte for
    byte, a piece of at most ``_CHUNK_ENTRIES`` boundary entries at a time,
    so that memory does not grow with the entry count.  ``indent`` makes
    ``json.dumps`` use its pure-Python encoder, so the entries are rendered
    here from their runs instead, framed by the kind's layout in
    :data:`_LAYOUTS`: its ``head``, the pieces joined by ``_BETWEEN``, its
    ``mid``, and the text after the lambda key of ``X_to_json`` on the item
    with an empty boundary, which is the whole text when there is no entry.
    A genus-g class, which has no boundary entries, is dumped whole."""
    if type(item) is DivisorClassMg:
        write(json.dumps(picard.mg_class_to_json(item), indent=2, sort_keys=True) + "\n")
        return
    if type(item) is CurveProfile:
        layout, mapping = _LAYOUTS[1], item.on_boundary
        obj = picard.profile_to_json(CurveProfile._trusted(item.n, item.on_lambda, {}))
    else:
        layout, mapping = _LAYOUTS[0], item.boundary
        obj = picard.m1n_class_to_json(DivisorClassM1n._trusted(item.n, item.lam, {}))
    text = json.dumps(obj, indent=2, sort_keys=True)
    pieces = _entry_pieces(mapping)
    first = next(pieces, None)  # drawn first: a refused listing writes nothing
    if first is None:
        write(text + "\n")
        return
    write(layout.head)
    write(first)
    for piece in pieces:
        write(_BETWEEN)
        write(piece)
    # a line break followed by two spaces and a quoted key only starts a
    # top-level key: strings never hold a raw line break
    write(layout.mid + text.partition(f'\n  "{layout.lam_key}": ')[2] + "\n")
