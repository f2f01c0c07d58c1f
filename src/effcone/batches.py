"""The batch reader: the boundary entries of a class or profile file in
the writer's layout, read from a :class:`~effcone.files.Batched` array.

:func:`effcone.files.batched_class` finds the array in a file's frame, as
described by ``files._LAYOUTS``, and the whole read hands it to
:func:`_batched_boundary`, which is the one entry point here; this module
is loaded only then, so a command that reads no such file never compiles it.

The entries are read about ``_BATCH_BYTES`` at a time.  A class paired with
a profile keeps only the profile's support, so memory does not grow with the
file.  While such a class lists every subset in boundary order, as a
pullback file does, each batch is compared with the writer's text of the
next subsets a run of one coefficient at a time (:func:`_walked`), only the
coefficients are decoded, and the support is taken by its positions in the
walk.  Any other batch is cut by :func:`_split` at the writer's entry
separators into member texts and coefficient pieces, and each member's
marking lines are read as bits through a table of the file's own n lines,
so a marking past n is refused in its own batch.  Coefficients are decoded
as the whole read decodes them, and :func:`~effcone.files._nonzero` drops
the zeros.  Entries that fail a check or do not decode raise
:class:`~effcone.files.NotCanonical`, the batch reader's one refusal, and
the file is then read whole.
"""

from __future__ import annotations

import json
from array import array
from bisect import bisect_left
from itertools import accumulate, chain, combinations, compress, islice, repeat
from math import comb
from operator import and_, itemgetter, le, lt, neg, or_, sub, xor
from typing import Dict, Iterable, Iterator

from .files import _BETWEEN, _FIRST, _MARKING_LINES, _MIDDLE, _NEXT, Batched, NotCanonical, _nonzero
from .picard import _lex_rank, subset_members
from .scalars import Scalar, scalar_from_json

_BATCH_BYTES = 1 << 16


def _walk(n: int) -> Iterator[str]:
    """The member texts of the subsets of 1..n with two or more markings,
    in boundary order, drawn lazily."""
    lines = map(combinations, repeat(_MARKING_LINES[1:n + 1]), range(2, n + 1))
    return map(",\n".join, chain.from_iterable(lines))


def _walk_ranks(masks: Iterable[int], n: int) -> tuple:
    """``(ranks, masks)``: the position of each mask in :func:`_walk` of n
    markings, as machine integers, and the masks, both in walk order.  A
    mask's position counts the subsets of 1..n with two or more markings
    and fewer than its own, then adds its :func:`_lex_rank` among those of
    its size."""
    # before[k]: the subsets of two to k markings
    before = [count - n - 1 for count in accumulate(map(comb, repeat(n), range(n)))]
    ranked = sorted(
        (before[mask.bit_count() - 1] + _lex_rank(subset_members(mask), n), mask) for mask in masks
    )
    return array("Q", map(itemgetter(0), ranked)), list(map(itemgetter(1), ranked))


def _decoded(pieces, values: dict) -> None:
    """Decode each coefficient piece not yet in ``values`` once, by
    ``json.loads`` and ``scalar_from_json`` as the whole read does, into
    ``values``, which the batches of one file share; their errors are
    passed on.  Zeros are kept here, for :func:`_nonzero` to drop."""
    new = set(pieces).difference(values)
    values.update(zip(new, map(scalar_from_json, map(json.loads, new))))


def _split(text: str, values: dict) -> tuple:
    """``(members, coeffs)`` of a batch ``text`` of the writer's entries,
    cut at ``_MIDDLE`` and ``_NEXT``: each entry's member text, its marking
    lines joined by ``",\\n"``, and its coefficient piece, each distinct
    piece decoded by :func:`_decoded`.  Text that does not start with
    ``_FIRST`` or holds no coefficient raises :class:`NotCanonical`.  A raw
    line break cannot occur inside a JSON string, so these separators, like
    the batch cut ``_BETWEEN``, lie only between the parts of entries."""
    pieces = text.split(_MIDDLE)
    first = pieces[0]
    if len(pieces) < 2 or not first.startswith(_FIRST):
        raise NotCanonical
    parts = list(map(str.partition, pieces[1:-1], repeat(_NEXT)))
    coeffs = [*map(itemgetter(0), parts), pieces[-1]]
    members = [first[len(_FIRST):], *map(itemgetter(2), parts)]
    del pieces, parts  # freed before the members are compared or decoded
    _decoded(coeffs, values)
    return members, coeffs


def _walked(text: str, texts: list, walk: Iterator[str], values: dict) -> list | None:
    """The coefficient of each entry of a batch ``text`` of the writer's
    entries, in order, if their member texts are the next texts of the
    walk; None when the text differs from the one the writer gives those
    subsets.  ``texts`` holds the walk's texts drawn and not yet read; more
    are drawn from ``walk`` into it as the read needs them, and the caller
    drops those read.

    The text is read a run of one coefficient at a time, as
    :func:`_entry_pieces` writes it, to its end.  The run's first entry
    must hold the next member text and ``_MIDDLE``; its coefficient piece
    ``c`` runs from there to ``_NEXT`` and is decoded by :func:`_decoded`.
    With ``between`` the text ``_MIDDLE + c + _NEXT``, the run goes on over
    the most entries k such that the text goes on with ``between.join`` of
    the next k member texts, and ``between`` right after it.  k is found by
    doubling the span joined while it matches and halving it back, each
    step joining only the new span."""

    def drawn(count: int) -> bool:  # whether the walk holds ``count`` texts unread
        if len(texts) < count:
            texts.extend(islice(walk, count - len(texts)))
        return len(texts) >= count

    if not text.startswith(_FIRST):
        return None
    out: list = []
    at, i = len(_FIRST), 0
    while drawn(i + 1):
        head = texts[i] + _MIDDLE
        if not text.startswith(head, at):
            return None
        start = at + len(head)
        stop = text.find(_NEXT, start)
        piece = text[start:] if stop < 0 else text[start:stop]
        if piece not in values:
            _decoded((piece,), values)
        value = values[piece]
        if stop < 0:  # the batch's last entry
            out.append(value)
            return out
        between = _MIDDLE + piece + _NEXT
        first, at, i = i, stop + len(_NEXT), i + 1
        step, grow = 1, True
        while step:
            if drawn(i + step):
                joined = between.join(texts[i:i + step])
                if text.startswith(joined, at) and text.startswith(between, at + len(joined)):
                    at += len(joined) + len(between)
                    i += step
                    step = step * 2 if grow else step // 2
                    continue
            grow = False
            step //= 2
        out += [value] * (i - first)
    return None


def _line_masks(members: list, table: dict) -> list:
    """The mask of each member text, the sum of its marking lines' bits in
    ``table``; a line not in it raises ``KeyError``."""
    lines = map(str.split, members, repeat(",\n"))
    return list(map(sum, map(map, repeat(table.__getitem__), lines)))


def _batched_boundary(entries: Batched, n: int) -> Dict[int, Scalar]:
    """The coefficients of ``entries`` on n markings at its profile's support,
    or all of them.  Its entries are read a batch of about ``_BATCH_BYTES``
    at a time, cut before an entry at ``_BETWEEN``.  With a profile, the
    support is ranked once by :func:`_walk_ranks`, and while the file has
    listed every subset of 1..n in boundary order, a batch must be the
    writer's text of the next subsets of :func:`_walk`, which
    :func:`_walked` reads a run of one coefficient at a time; each batch
    keeps the support's ranks that it covers, so that no mask is built per
    entry.  Every other batch (with no profile, from the first batch that
    differs, which is read from its start, or once the walk runs out) is
    split by :func:`_split`, :func:`_line_masks` reads its masks, and their
    marking counts and bits are checked.  These masks and the last walked
    subset's are read through one table of the lines of 1..n, so a marking
    past n is a ``KeyError`` in its own batch.  The writer lists each
    subset once, in boundary order, so subsets that rise strictly in that
    order, from one batch to the next too, refuse a subset twice without
    holding every mask.  A file that fails any of this, or whose text or
    coefficients do not decode, raises :class:`NotCanonical`."""
    if entries.end <= entries.start:  # no entry at all
        raise NotCanonical
    table = {line: 1 << k for k, line in enumerate(_MARKING_LINES[1:n + 1])}
    profile = entries.profile
    if profile is None:
        keep = walk = None
    else:
        keep = profile.on_boundary.__contains__
        ranks, support = _walk_ranks(profile.on_boundary, n)
        walk, texts = _walk(n), []  # the walk's texts drawn and not yet read
    out: Dict[int, Scalar] = {}
    values: dict = {}
    done = kept = 0  # entries walked, and the support's ranks below that count
    size = top = 0  # size and mask of the last entry read
    between = _BETWEEN.encode()
    try:
        with open(entries.path, "rb") as fh:
            fh.seek(entries.start)
            left = entries.end - entries.start
            rest = b""
            while left > 0:
                read = fh.read(min(_BATCH_BYTES, left))
                if not read:
                    raise NotCanonical  # the file shrank since its tail was read
                left -= len(read)
                block = rest + read
                cut = block.rfind(between) if left else len(block)
                if cut < 0:
                    rest = block
                    continue
                rest = block[cut + len(between):]
                text = block[:cut].decode()
                if walk is not None:
                    walked = _walked(text, texts, walk, values)
                    if walked:
                        count = len(walked)
                        below = bisect_left(ranks, done + count, kept)
                        places = map(sub, ranks[kept:below], repeat(done))
                        out.update(zip(support[kept:below], map(walked.__getitem__, places)))
                        kept = below
                        done += count
                        top = sum(map(table.__getitem__, texts[count - 1].split(",\n")))
                        size = top.bit_count()
                        del texts[:count]
                        continue
                    walk = None
                members, coeffs = _split(text, values)
                masks = _line_masks(members, table)
                sizes = list(map((1).__add__, map(str.count, members, repeat(",\n"))))
                # each entry against the one before: no size falls, and of
                # two subsets of one size the earlier holds the lowest
                # marking that lies in one of them alone
                z, s = [size, *sizes], [top, *masks]
                x = list(map(xor, s, masks))
                if not (
                    min(sizes) >= 2
                    and list(map(int.bit_count, masks)) == sizes
                    and all(map(le, z, sizes))
                    and all(map(or_, map(lt, z, sizes), map(and_, map(and_, x, map(neg, x)), s)))
                ):
                    raise NotCanonical
                top = masks[-1]
                size = top.bit_count()
                pairs = zip(masks, map(values.__getitem__, coeffs))
                out.update(pairs if keep is None else compress(pairs, map(keep, masks)))
    except (OSError, KeyError, ValueError, RecursionError) as exc:
        raise NotCanonical from exc
    return _nonzero(out)
