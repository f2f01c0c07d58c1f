"""The class file writer: ``json_text(item)`` gives the same bytes as
``json.dumps(X_to_json(item), indent=2, sort_keys=True) + "\\n"``, which
stays here as the oracle, and the members table behind the boundary order.
The writer renders every mapping from its runs, streams a glued view with
flat memory, and a command writes the same bytes to stdout as to its
output file."""

import ast
import inspect
import json
import random
import sys
import tracemalloc
from fractions import Fraction
from itertools import combinations, islice

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import rationals
from effcone import batches, corpus, gluing, picard, writer
from effcone.cli import _EXPORTERS, main
from effcone.gluing import ForgetfulBoundary, GluedBoundary, forget_pullback, glue_pullback
from effcone.picard import (
    CurveProfile,
    DivisorClassM1n,
    DivisorClassMg,
    _lex_rank,
    _runs,
    boundary_order,
    m1n_class_to_json,
    m1n_class_from_json,
    mg_class_to_json,
    profile_to_json,
    subset_mask,
    subset_members,
)
from effcone.scalars import Poly, canon, parse_rat
from effcone.writer import write_json
from texts import json_text


def oracle(obj) -> str:
    return json.dumps(obj, indent=2, sort_keys=True) + "\n"


def members_by_bits(mask):
    return tuple(i + 1 for i in range(mask.bit_length()) if mask >> i & 1)


scalars = st.one_of(rationals, st.lists(rationals, min_size=1, max_size=4).map(Poly))


@st.composite
def boundaries(draw):
    n = draw(st.integers(min_value=2, max_value=picard.MAX_MARKINGS))
    masks = st.integers(min_value=0, max_value=(1 << n) - 1).filter(lambda m: m.bit_count() >= 2)
    return n, draw(st.dictionaries(masks, scalars, max_size=8))


class TestWriterMatchesOracle:
    @given(boundaries(), scalars)
    @settings(max_examples=75)
    def test_random_classes(self, nb, lam):
        n, boundary = nb
        cls = DivisorClassM1n(n, lam, boundary)
        assert json_text(cls) == oracle(m1n_class_to_json(cls))

    @given(boundaries(), scalars)
    @settings(max_examples=75)
    def test_random_profiles(self, nb, on_lambda):
        n, boundary = nb
        prof = CurveProfile(n, on_lambda, boundary)
        assert json_text(prof) == oracle(profile_to_json(prof))

    def test_empty_boundary(self):
        for cls in (DivisorClassM1n(5, 3), DivisorClassM1n(2, 0)):
            assert json_text(cls) == oracle(m1n_class_to_json(cls))
        prof = CurveProfile(5, Poly((1, 2)))
        assert json_text(prof) == oracle(profile_to_json(prof))

    def test_every_marking_up_to_64(self):
        full = (1 << 64) - 1
        boundary = {full: Poly((-1, 0, 3)), full ^ 1: 7, 3 << 62: -2, 1 | 1 << 63: Fraction(5, 3)}
        cls = DivisorClassM1n(64, -1, boundary)
        obj = m1n_class_to_json(cls)
        assert obj["boundary"][-1]["S"] == list(range(1, 65))
        assert json_text(cls) == oracle(obj)

    def test_genus_g_classes_go_through_json_dumps(self):
        cls = DivisorClassMg(9, 12, -1, [-4, -6, -8, -10])
        assert json_text(cls) == oracle(mg_class_to_json(cls))


class TestCommandsMatchOracle:
    NAMES = [*_EXPORTERS, "bn(3)", "bn(6)", "profile-gonal(3)", "profile-gonal(5)"]

    @pytest.mark.parametrize("name", NAMES)
    def test_export(self, tmp_path, name):
        out = tmp_path / "out.json"
        assert main(["export", "--name", name, "--output", str(out)]) == 0
        text = out.read_text()
        assert text == oracle(json.loads(text))

    @pytest.mark.parametrize("m", range(2, 9))
    def test_pullback(self, tmp_path, m):
        g = m + 1
        cls = DivisorClassMg(g, 6 * (g + 3), -(g + 1), [-6 * i * (g - i) for i in range(1, g // 2 + 1)])
        src, out = tmp_path / "cls.json", tmp_path / "pb.json"
        src.write_text(oracle(mg_class_to_json(cls)))
        assert main(["pullback", "--g", str(g), "--m", str(m), "--input", str(src), "--output", str(out)]) == 0
        text = out.read_text()
        obj = json.loads(text)
        assert text == oracle(obj)
        assert len(obj["boundary"]) == len(glue_pullback(cls, m).boundary)


class TestMembersTable:
    @given(st.integers(min_value=0, max_value=(1 << 64) - 1))
    @settings(max_examples=300)
    def test_random_masks_up_to_64_markings(self, mask):
        assert subset_members(mask) == members_by_bits(mask)
        assert boundary_order(mask) == (mask.bit_count(), members_by_bits(mask))

    @pytest.mark.parametrize("n", [8, 9, 16, 17, 33, 63, 64])
    def test_high_bits(self, n):
        for mask in (1 << (n - 1), (1 << n) - 1, (1 << (n - 1)) | 1, ((1 << n) - 1) ^ (1 << (n // 2))):
            assert subset_members(mask) == members_by_bits(mask)


COEFFICIENTS = (0, 0, 1, 1, -1, 2, Fraction(1, 2), Fraction(-3, 2))


def _random_genus_class(rng, g):
    """A genus-g class drawn from a few values, zeros and repeats included,
    so that pair-union coefficients often equal the row or vanish."""
    lam, delta_irr, *delta = (rng.choice(COEFFICIENTS) for _ in range(g // 2 + 2))
    return DivisorClassMg(g, lam, delta_irr, delta)


def _row_kind(view, b):
    """How the subsets of size b get their coefficients: one row value for
    all, the row with the unions of pairs set to another value or to zero,
    or the unions of pairs alone."""
    default = view._by_size[b]
    special = view._on_pairs[b // 2] if b % 2 == 0 else default
    if special == default:
        return "empty" if default is None else ("default only" if b % 2 else "equal")
    if default is None:
        return "exceptions only"
    return "zero exceptions" if special is None else "mixed"


def _listed(cls):
    """The same class with its boundary listed into a dict: the oracle's route."""
    return DivisorClassM1n(cls.n, cls.lam, dict(cls.boundary.items()))


class TestGluedViewWriter:
    @pytest.mark.parametrize("m", range(2, 7))
    def test_random_classes_match_the_listed_dict(self, m):
        """Classes are drawn until every kind of size row has been written,
        and at least eight of them."""
        rng = random.Random(8000 + m)
        wanted = {"default only", "exceptions only", "equal", "mixed", "zero exceptions"}
        kinds = set()
        for draw in range(200):
            cls = glue_pullback(_random_genus_class(rng, m + 1), m)
            kinds |= {_row_kind(cls.boundary, b) for b in range(2, 2 * m + 1)}
            listed = m1n_class_to_json(_listed(cls))
            obj = m1n_class_to_json(cls)
            assert json_text(cls) == oracle(listed)
            assert obj == listed
            assert m1n_class_from_json(obj) == cls
            if draw >= 7 and kinds >= wanted:
                break
        assert kinds >= wanted

    @pytest.mark.parametrize("delta_irr", [0, 1])
    def test_every_piece_boundary(self, monkeypatch, delta_irr):
        """Pieces of three entries split runs and exceptions everywhere."""
        monkeypatch.setattr(writer, "_CHUNK_ENTRIES", 3)
        cls = glue_pullback(DivisorClassMg(6, 2, delta_irr, [3, delta_irr, 5]), 5)
        listed = _listed(cls)
        pieces = []
        write_json(cls, pieces.append)
        assert "".join(pieces) == oracle(m1n_class_to_json(listed)) == json_text(listed)
        assert max(piece.count('"S"') for piece in pieces) <= 3

    def test_lex_rank_counts_the_subsets_before(self):
        for n in range(1, 9):
            for size in range(1, n + 1):
                for rank, members in enumerate(combinations(range(1, n + 1), size)):
                    assert _lex_rank(members, n) == rank


class TestRuns:
    """``GluedBoundary.runs`` against the ``items`` route, which reads the
    pair-union predicate on every mask: the two listings agree entry for
    entry in boundary order."""

    KINDS = {"default only", "exceptions only", "equal", "mixed", "zero exceptions", "empty"}

    @staticmethod
    def _random_view(rng, m):
        """Row values and pair-union values drawn independently from a few
        values, zeros and repeats included."""
        row = [0, 0] + [rng.choice(COEFFICIENTS) for _ in range(2, 2 * m + 1)]
        on_pairs = [rng.choice(COEFFICIENTS) for _ in range(m + 1)]
        return GluedBoundary(m, row, [canon(on_pairs[k] - row[2 * k]) for k in range(m + 1)])

    @pytest.mark.parametrize("m", range(1, 7))
    def test_runs_list_the_items_in_boundary_order(self, m):
        rng = random.Random(9000 + m)
        all_zero = GluedBoundary(m, [0] * (2 * m + 1), [0] * (m + 1))
        # a zero delta_irr coefficient: the unions of pairs alone
        pairs_only = GluedBoundary(m, [0] * (2 * m + 1), range(m + 1))
        views = [all_zero, pairs_only] + [self._random_view(rng, m) for _ in range(40)]
        kinds = set()
        for view in views:
            kinds |= {_row_kind(view, b) for b in range(2, 2 * m + 1)}
            listed = [(subset_mask(s, 2 * m), v) for v, ms in view.runs(range(65)) for s in ms]
            assert listed == sorted(view.items(), key=lambda kv: boundary_order(kv[0]))
        # one subset size, two markings: no size holds subsets other than unions
        assert kinds == (self.KINDS - {"default only"} if m == 1 else self.KINDS)

    def test_runs_read_neither_get_items_nor_the_predicate(self):
        """The writer tests compare ``runs`` with the ``items`` route, which
        means something only while ``runs`` never reads ``get``, ``items``
        or the odd-marking mask of the pair-union predicate."""
        tree = ast.parse(inspect.getsource(gluing))
        view = next(n for n in tree.body if isinstance(n, ast.ClassDef) and n.name == "GluedBoundary")
        runs = next(n for n in view.body if isinstance(n, ast.FunctionDef) and n.name == "runs")
        names = {n.attr for n in ast.walk(runs) if isinstance(n, ast.Attribute)}
        names |= {n.id for n in ast.walk(runs) if isinstance(n, ast.Name)}
        assert names.isdisjoint({"get", "items", "_odd"})
        assert {"_by_size", "_on_pairs"} <= names


# a few values, so that runs of one, two and many equal neighbours occur
POOL = (1, -2, Fraction(1, 2), Poly((1, 2)), Poly((0, -1, 3)))


@st.composite
def pooled_boundaries(draw):
    n = draw(st.integers(min_value=2, max_value=7))
    masks = st.integers(min_value=0, max_value=(1 << n) - 1).filter(lambda m: m.bit_count() >= 2)
    pool = draw(st.lists(st.sampled_from(POOL), min_size=1, max_size=3, unique_by=repr))
    return n, draw(st.dictionaries(masks, st.sampled_from(pool), max_size=40))


def _run_lengths(mapping):
    """The value and length of each run of ``_runs``, after checking that the
    runs list the entries in boundary order."""
    runs = [(value, list(members)) for value, members in _runs(mapping, range(65))]
    listed = [(subset_mask(s, 64), v) for v, ms in runs for s in ms]
    assert listed == sorted(mapping.items(), key=lambda kv: boundary_order(kv[0]))
    return [(value, len(members)) for value, members in runs]


class TestListingOfADict:
    """A dict, or a view without ``runs``, is sorted once and its equal
    neighbours grouped into runs: the same text as the oracle's route."""

    def test_a_dict_is_written_from_its_runs(self):
        boundary = {0b0111: Poly((1, 2)), 0b0011: Fraction(-1, 2), 0b0101: 3, 0b1001: 3, 0b0110: 1, 0b1010: 1, 0b1100: 1}
        cls = DivisorClassM1n(4, 0, boundary)
        assert json_text(cls) == oracle(m1n_class_to_json(cls))
        assert _run_lengths(boundary) == [(Fraction(-1, 2), 1), (3, 2), (1, 3), (Poly((1, 2)), 1)]

    @given(pooled_boundaries(), st.sampled_from(POOL))
    @settings(max_examples=150)
    def test_pooled_values(self, nb, lam):
        n, boundary = nb
        lengths = _run_lengths(boundary)
        # maximal runs: neighbouring runs differ in value
        assert all(a[0] != b[0] for a, b in zip(lengths, lengths[1:]))
        cls, prof = DivisorClassM1n(n, lam, boundary), CurveProfile(n, lam, boundary)
        assert json_text(cls) == oracle(m1n_class_to_json(cls))
        assert json_text(prof) == oracle(profile_to_json(prof))

    @pytest.mark.parametrize("kind", ["dict", "forgetful"])
    def test_every_piece_boundary(self, monkeypatch, kind):
        """Pieces of three entries split the runs of a sorted mapping."""
        monkeypatch.setattr(writer, "_CHUNK_ENTRIES", 3)
        base = DivisorClassM1n(4, 1, {0b0011: 2, 0b0110: 2, 0b1111: Poly((1, 2)), 0b0101: Fraction(1, 3)})
        cls = forget_pullback(base, 6)
        assert type(cls.boundary) is ForgetfulBoundary
        if kind == "dict":
            cls = _listed(cls)
        pieces = []
        write_json(cls, pieces.append)
        assert "".join(pieces) == oracle(m1n_class_to_json(cls))
        assert max(piece.count('"S"') for piece in pieces) <= 3
        assert sum(piece.count('"S"') for piece in pieces) == len(cls.boundary)


class TestOneTemplate:
    """The writer and the batch reader share one entry template: the text
    the writer gives a class or profile splits, at the reader's separators,
    into member texts and the coefficients' texts, and the member texts of
    a pullback that lists every subset are the walk's."""

    @staticmethod
    def _split(item, layout):
        """The member texts and the decoded coefficients of the entries the
        writer writes for ``item`` in ``layout``, one of each an entry."""
        text = json_text(item)
        body = text[len(layout.head):text.rindex(layout.mid)]
        values: dict = {}
        members, coeffs = batches._split(body, values)
        assert len(members) == body.count(picard._BETWEEN) + 1
        return members, [values[piece] for piece in coeffs]

    @staticmethod
    def _walk_masks(n):
        """The masks of the subsets of 1..n with two or more markings, in
        the order of ``batches._walk``."""
        return (sum(1 << (i - 1) for i in members) for k in range(2, n + 1) for members in combinations(range(1, n + 1), k))

    @pytest.mark.parametrize("m", [3, 4, 5])
    def test_a_pullback_splits_into_the_walk(self, m):
        cls = glue_pullback(DivisorClassMg(m + 1, Fraction(7, 2), -1, [Fraction(-3, 4)] * ((m + 1) // 2)), m)
        members, coeffs = self._split(cls, picard._LAYOUTS[0])
        assert members == list(batches._walk(cls.n))  # every subset was listed
        masks = list(self._walk_masks(cls.n))
        assert masks == sorted(cls.boundary, key=boundary_order)
        assert coeffs == [cls.boundary[mask] for mask in masks]

    @pytest.mark.parametrize("m", [3, 4, 5])
    def test_each_piece_of_a_pullback_is_a_run_of_the_walk(self, m):
        # the text the batch reader's run comparison expects: after
        # ``_FIRST``, the walk's next member texts joined by ``_MIDDLE + c +
        # _NEXT``, then ``_MIDDLE + c``, c the text of the coefficient that
        # the piece's entries share
        cls = glue_pullback(DivisorClassMg(m + 1, Fraction(7, 2), -1, [Fraction(-3, 4)] * ((m + 1) // 2)), m)
        texts, masks = batches._walk(cls.n), self._walk_masks(cls.n)
        for piece in writer._entry_pieces(cls.boundary):
            c = piece[piece.rindex(picard._MIDDLE) + len(picard._MIDDLE):]
            k = piece.count(picard._MIDDLE)
            between = picard._MIDDLE + c + picard._NEXT
            assert piece == picard._FIRST + between.join(islice(texts, k)) + picard._MIDDLE + c
            assert {cls.boundary[mask] for mask in islice(masks, k)} == {parse_rat(json.loads(c))}
        assert next(texts, None) is None

    def test_a_sparse_profile_splits_into_its_marking_lines(self):
        profile = corpus.profile("gonal", 4)
        members, coeffs = self._split(profile, picard._LAYOUTS[1])
        table = {line: 1 << k for k, line in enumerate(picard._MARKING_LINES[1:profile.n + 1])}
        masks = batches._line_masks(members, table)
        assert masks == sorted(profile.on_boundary, key=boundary_order)
        assert coeffs == [profile.on_boundary[mask] for mask in masks]


class TestSerializersAreCalled:
    """``bench/layers.py`` times ``picard.m1n_class_to_json`` and
    ``picard.profile_to_json`` by replacing them on the module, and its
    traced run fails when either gets no span: the writer must call them by
    their module names on the commands the bench runs."""

    def test_export_and_pullback(self, tmp_path, monkeypatch):
        calls = []

        def watched(name):
            serialize = getattr(picard, name)
            return lambda item: calls.append(name) or serialize(item)

        for name in ("m1n_class_to_json", "profile_to_json"):
            monkeypatch.setattr(picard, name, watched(name))
        out = tmp_path / "out.json"
        assert main(["export", "--name", "profile-gonal(3)", "--output", str(out)]) == 0
        assert calls == ["profile_to_json"]
        assert out.read_text() == oracle(json.loads(out.read_text()))
        calls.clear()
        pullback = ["pullback", "--g", "4", "--m", "3", "--input", _brill_noether_file(tmp_path, 3)]
        assert main([*pullback, "--output", str(out)]) == 0
        assert calls == ["m1n_class_to_json"]
        assert out.read_text() == oracle(json.loads(out.read_text()))


def _brill_noether_file(tmp_path, m):
    """Six times the Brill-Noether slope form on genus m + 1, nonzero on
    every row and on every union of pairs."""
    g = m + 1
    cls = DivisorClassMg(g, 6 * (g + 3), -(g + 1), [-6 * i * (g - i) for i in range(1, g // 2 + 1)])
    src = tmp_path / "cls.json"
    src.write_text(oracle(mg_class_to_json(cls)))
    return str(src)


class TestStreamedFile:
    M = 9  # 2^18 - 19 entries, about 39 MiB of text

    def pullback(self, tmp_path):
        return ["pullback", "--g", str(self.M + 1), "--m", str(self.M), "--input", _brill_noether_file(tmp_path, self.M)]

    def test_memory_stays_flat(self, tmp_path):
        out = tmp_path / "pb.json"
        args = self.pullback(tmp_path)
        tracemalloc.start()
        try:
            assert main([*args, "--output", str(out)]) == 0
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        size = out.stat().st_size
        assert size > 32 * 2**20
        assert peak < 8 * 2**20, f"traced peak {peak / 2**20:.1f} MiB for a {size / 2**20:.0f} MiB file"

    def test_stdout_matches_the_output_file(self, tmp_path, monkeypatch):
        args = self.pullback(tmp_path)
        out, printed = tmp_path / "pb.json", tmp_path / "stdout.json"
        assert main([*args, "--output", str(out)]) == 0
        with open(printed, "w", encoding="utf-8") as fh:
            monkeypatch.setattr(sys, "stdout", fh)
            assert main(args) == 0
        assert printed.read_bytes() == out.read_bytes()
