"""Command-line driver: verification suites, ad-hoc pullback and pairing
queries, and JSON export of the named corpus.

Each suite is a check table: it lists ``(check, expected, actual, citation)``
entries and hands them to ``_suite``, which names the module once and
serializes every scalar. ``SUITES`` registers the suites by that module name;
it supplies the ``verify`` choices, and ``verify all`` runs them all.

Every effcone module but ``picard`` and ``scalars`` is imported where it
is called, so that each command loads only the modules it runs: ``intersect`` none of them,
``pullback`` ``gluing``, ``export`` ``corpus``, and ``verify`` those of its
suites (``chow`` and ``certify`` only with the suites that call them).

Exit codes: 0 when every check passes, 1 on any failing row (an internal
error in a suite is one), 2 on usage or input errors and on a refused budget.
A refused budget is a ``picard.ResourceGuardError``. A builder raises it
before it builds anything, so ``export`` is refused before ``--output`` is
opened, and a view before it lists anything; ``pullback`` checks its view's
count before it opens ``--output``, and ``verify --direct-max-d`` before any
suite runs.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import random
import re
import stat
import sys
from fractions import Fraction
from itertools import permutations
from pathlib import Path
from typing import Callable, Dict, List, NamedTuple, Sequence, Tuple

from . import picard
from .picard import EXPORT_BUDGET  # noqa: F401  (the budget the commands are held to)
from .scalars import Poly, binom, poly_eval, scalar_to_json

DEFAULT_MAX_D = 12
DIRECT_ROUTE_DEFAULT_CAP = 6  # the default of verify --direct-max-d, not a guard
PROPERTY_SEED = 1729
PROPERTY_REPS = 100


class InputError(ValueError):
    """A file or argument the user supplied cannot be used."""


# ---------------------------------------------------------------------------
# check rows and reports


class CheckRow(NamedTuple):
    module: str
    check: str
    expected: object  # serialized scalar (str or list of str) or plain str
    actual: object
    citation: str

    @property
    def ok(self) -> bool:
        return self.expected == self.actual


def emit_report(rows: Sequence[CheckRow], fmt: str = "text") -> str:
    """Render check rows, ordered by module then check name."""
    rows = sorted(rows, key=lambda r: (r.module, r.check))
    failed = sum(1 for r in rows if not r.ok)
    if fmt == "json":
        payload = {
            "checks": [
                {
                    "module": r.module,
                    "check": r.check,
                    "status": "pass" if r.ok else "fail",
                    "expected": r.expected,
                    "actual": r.actual,
                    "citation": r.citation,
                }
                for r in rows
            ],
            "summary": {"checks": len(rows), "failed": failed},
        }
        return json.dumps(payload, indent=2, sort_keys=True) + "\n"
    def show(value):
        return value if isinstance(value, str) else json.dumps(value, separators=(",", ":"))

    lines = []
    for r in rows:
        status = "PASS" if r.ok else "FAIL"
        lines.append(
            f"{status}  {r.module}/{r.check}  expected={show(r.expected)} actual={show(r.actual)}  [{r.citation}]"
        )
    lines.append(f"{len(rows)} checks, {failed} failed")
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# suites: each builds its (check, expected, actual, citation) table


def _suite(module: str, entries: Sequence[tuple]) -> List[CheckRow]:
    """One row of ``module`` per ``(check, expected, actual, citation)``
    entry; scalars are serialized, plain strings are kept as they are."""

    def ser(v):
        return v if isinstance(v, str) else scalar_to_json(v)

    return [CheckRow(module, check, ser(exp), ser(act), cite) for check, exp, act, cite in entries]


def _golden_match(
    source: picard.DivisorClassMg, m: int, golden: str, expected: str
) -> Tuple[picard.DivisorClassM1n, tuple]:
    """The gluing pullback of ``source`` to 2m markings, and the entry that
    counts its basis coordinates matching the hand-entered expansion
    ``golden``. ``expected`` is entered by hand, never counted here."""
    from . import corpus, gluing

    computed = gluing.glue_pullback(source, m)
    reference = corpus.golden_pullback(golden)
    n = computed.n
    total = (1 << n) - n  # lambda and every subset with at least two markings
    mismatched = 0 if computed.lam == reference.lam else 1
    for key in computed.boundary.keys() | reference.boundary.keys():
        if computed.coeff(key) != reference.coeff(key):
            mismatched += 1
    match = f"{total - mismatched}/{total}"
    citation = "gluing-map pullback against the hand-entered expansion"
    return computed, ("pullback_golden_match", expected, match, citation)


def trigonal_suite() -> List[CheckRow]:
    from . import corpus

    computed, match = _golden_match(corpus.bn_class(3), 4, "trigonal", "248/248")
    three_pairs = picard.subset_mask((3, 4, 5, 6, 7, 8), 8)
    return _suite("trigonal", [
        match,
        ("three_pair_blocks_vanish", 0, computed.coeff(three_pairs),
         "three-pair unions receive coefficient zero"),
        ("B.pullback_BN13", -1, picard.pair(corpus.profile("trig"), computed),
         "pencil of plane cubics through eight points on concurrent lines"),
        ("C.pullback_BN13", -2, picard.pair(corpus.profile("bnd"), computed),
         "boundary pencil attached at a base point of a cubic pencil"),
    ])


def gonal_suite(max_d: int = DEFAULT_MAX_D, direct_max_d: int = DIRECT_ROUTE_DEFAULT_CAP) -> List[CheckRow]:
    from . import gonal

    entries = []
    for d in range(3, direct_max_d + 1):
        closed = gonal.pairing_closed(d)
        entries += [
            (f"route_direct.d={d:02d}", closed, gonal.pairing_direct(d),
             "full sparse enumeration of the pullback"),
            (f"route_binomial.d={d:02d}", closed, gonal.pairing_binomial(d),
             "size-grouped binomial sums"),
        ]
    entries += [
        ("value.d=03", 2, gonal.pairing_closed(3), "positive pairing of the trigonal pencil"),
        ("grouped_sum_collapse.d=04", 1586, gonal.even_subset_sum(4), "collapsed middle binomial sum"),
    ]
    entries += [
        (f"sign.d={r.d:02d}", "+" if r.d == 3 else "-", r.sign, "sign of the d-gonal pencil pairing")
        for r in gonal.negativity_report(max_d)
    ]
    return _suite("gonal", entries)


def gp_suite() -> List[CheckRow]:
    from . import corpus

    computed, match = _golden_match(corpus.gp_class(), 3, "gp", "58/58")
    pairing = picard.pair(corpus.profile("gp"), computed)
    degree = pairing.degree() if isinstance(pairing, Poly) else 0
    return _suite("gp", [
        match,
        ("T.pullback_GP", -16, pairing, "marked fibration pencil against the pullback class"),
        ("T.pullback_GP.degree", "0", str(max(degree, 0)), "the a-linear terms cancel identically"),
        ("T.pullback_GP.at_a=5", -16, poly_eval(pairing, 5), "specialization of the pairing"),
    ])


def chow_suite() -> List[CheckRow]:
    from . import chow

    entries = [
        (f"table.{name}", expected, actual, "derived top-intersection form")
        for name, expected, actual in chow.intersection_table_check()
    ]
    data = chow.chern_data()
    normalization = "characteristic-class normalization chi(O) = 1"
    entries += [
        ("c1c2.bundle", 24, chow.dot(data.c2_ty, -1 * data.k_y), normalization),
        ("c1c2.blowup", 24, chow.dot(data.c2_tx, -1 * data.k_x), normalization),
    ]
    inv = chow.family_invariants()
    noether, census = "Noether formula", "Euler number census of singular fibers"
    entries += [
        ("kd_squared", Poly((-1, -1)), inv.kd_squared, "fiberwise canonical self-intersection"),
        ("c2_TD", Poly((-11, 13)), inv.c2_td, "Euler number of the total surface"),
        ("twelve_lambda", Poly((-12, 12)), 12 * inv.hodge_lambda, noether),
        ("hodge_lambda", Poly((-1, 1)), inv.hodge_lambda, noether),
        ("hodge_lambda_rr", Poly((-1, 1)), inv.hodge_lambda_rr, "Riemann-Roch on the ambient threefold"),
        ("rational_tails", Poly((1, 1)), inv.rational_tails, "fibers meeting the complementary section"),
        ("directrix_cycles", Poly((-2, 1)), inv.directrix_cycles, "fibers through the directrix section"),
        ("two_section_genus", Poly((-1, 1)), inv.two_section_genus, "adjunction on the exceptional surface"),
        ("ramification", Poly((0, 2)), inv.ramification, "Riemann-Hurwitz for the 2-section double cover"),
        ("irreducible_nodal", Poly((-8, 10)), inv.irreducible_nodal, census),
        ("noether_identity", Poly(), 12 * inv.hodge_lambda_rr - inv.kd_squared - inv.c2_td, noether),
        ("lambda_two_routes", Poly(), inv.hodge_lambda - inv.hodge_lambda_rr, "two routes to the Hodge degree"),
        ("euler_census", Poly(),
         inv.irreducible_nodal + inv.rational_tails + 2 * inv.directrix_cycles - inv.c2_td, census),
    ]
    return _suite("chow", entries)


def certificate_suite(direct_max_d: int = DIRECT_ROUTE_DEFAULT_CAP) -> List[CheckRow]:
    from . import certify, corpus, gonal

    assertions = certify.REQUIRED_ASSERTIONS
    targets = [
        ("trigonal", corpus.bn_class(3), 4, corpus.profile("trig"), "trig", -1),
        ("gp", corpus.gp_class(), 3, corpus.profile("gp"), "gp", -16),
    ]
    for d in range(4, direct_max_d + 1):
        targets.append(
            (
                f"gonal.d={d}",
                corpus.bn_class(d),
                2 * d - 2,
                corpus.profile("gonal", d),
                f"gonal({d})",
                gonal.pairing_closed(d),
            )
        )
    entries = []
    for label, divisor, m, prof, prof_name, expected in targets:
        cert = certify.certify(divisor, m, prof, assertions, profile_name=prof_name)
        lifted = certify.lift(cert, cert.n + 2)
        entries += [
            (f"pairing.{label}", expected, cert.pairing, "negative constant pairing premise"),
            (f"lift_preserves.{label}", cert.pairing, lifted.pairing,
             "forgetful lift preserves the pairing"),
        ]
    try:
        certify.certify(corpus.bn_class(3), 4, corpus.profile("gonal", 3), assertions)
    except certify.CertificateRefused as exc:
        refusal = f"refused with pairing {exc.pairing}"
    else:
        refusal = "accepted"
    entries.append(
        ("refuses_positive.gonal.d=3", "refused with pairing 2", refusal,
         "nonnegative pairings yield no certificate")
    )
    return _suite("certify", entries)


# ---------------------------------------------------------------------------
# randomized property suite (fixed seed, deterministic)


def _random_rat(rng: random.Random) -> Fraction:
    return Fraction(rng.randint(-30, 30), rng.randint(1, 12))


def _random_element(rng: random.Random, n: int, kind):
    """A random class or profile (``kind``) on n markings, boundary first."""
    boundary = {}
    for _ in range(rng.randint(0, 6)):
        mask = rng.randint(0, (1 << n) - 1)
        if mask.bit_count() >= 2:
            boundary[mask] = _random_rat(rng)
    return kind(n, _random_rat(rng), boundary)


def _random_mg_class(rng: random.Random, g: int) -> picard.DivisorClassMg:
    return picard.DivisorClassMg(
        g,
        _random_rat(rng),
        _random_rat(rng),
        [_random_rat(rng) for _ in range(g // 2)],
    )


def pair_symmetry_permutation(rng: random.Random, m: int) -> tuple:
    """A random element of the group generated by in-pair swaps and
    permutations of the pair blocks."""
    blocks = list(range(1, m + 1))
    rng.shuffle(blocks)
    sigma = []
    for k in range(1, m + 1):
        target = blocks[k - 1]
        swap = rng.randrange(2)
        odd, even = 2 * target - 1, 2 * target
        sigma.extend((even, odd) if swap else (odd, even))
    return tuple(sigma)


def property_suite(reps: int = PROPERTY_REPS) -> List[CheckRow]:
    from . import corpus, gluing

    rng = random.Random(PROPERTY_SEED)
    failures = {
        "pair_bilinearity": 0,
        "pullback_linearity": 0,
        "pullback_pair_symmetry": 0,
        "lambda_family_sizes": 0,
        "binomial_identities": 0,
        "top_form_symmetry": 0,
    }

    for _ in range(reps):
        n = rng.randint(4, 6)
        p = _random_element(rng, n, picard.CurveProfile)
        x = _random_element(rng, n, picard.DivisorClassM1n)
        y = _random_element(rng, n, picard.DivisorClassM1n)
        s, t = _random_rat(rng), _random_rat(rng)
        combo = picard.linear_combine([(s, x), (t, y)])
        lhs = picard.pair(p, combo)
        rhs = s * picard.pair(p, x) + t * picard.pair(p, y)
        if lhs != rhs:
            failures["pair_bilinearity"] += 1

    for _ in range(reps):
        m = rng.choice((2, 3))
        w1, w2 = _random_mg_class(rng, m + 1), _random_mg_class(rng, m + 1)
        s, t = _random_rat(rng), _random_rat(rng)
        combined = picard.DivisorClassMg(
            m + 1,
            s * w1.lam + t * w2.lam,
            s * w1.delta_irr + t * w2.delta_irr,
            [s * c1 + t * c2 for c1, c2 in zip(w1.delta, w2.delta)],
        )
        lhs = gluing.glue_pullback(combined, m)
        rhs = picard.linear_combine(
            [(s, gluing.glue_pullback(w1, m)), (t, gluing.glue_pullback(w2, m))]
        )
        if lhs != rhs:
            failures["pullback_linearity"] += 1

    # each pullback is listed into a dict once, so that every rep compares
    # two dicts instead of walking a glued view twice
    pullbacks = [
        (m, picard.DivisorClassM1n(2 * m, cls.lam, dict(cls.boundary.items())))
        for m, cls in (
            (4, gluing.glue_pullback(corpus.bn_class(3), 4)),
            (3, gluing.glue_pullback(corpus.gp_class(), 3)),
            (6, gluing.glue_pullback(corpus.bn_class(4), 6)),
        )
    ]
    for _ in range(reps):
        m, cls = pullbacks[rng.randrange(len(pullbacks))]
        sigma = pair_symmetry_permutation(rng, m)
        if picard.permute_markings(cls, sigma) != cls:
            failures["pullback_pair_symmetry"] += 1
    # freed before the later checks, which would otherwise allocate on top of
    # them and raise the peak memory of `verify all`
    del pullbacks, cls

    # the pair-union predicate of the gluing rule, read through ``get`` of a
    # view that is nonzero exactly on the nonempty unions of pairs: the masks
    # it holds on, by size, are the lambda families (i pairs at size 2i), and
    # none has odd size
    for m in range(1, 7):
        view = gluing.GluedBoundary(m, [0] * (2 * m + 1), [0] + [1] * m)
        unions = [[] for _ in range(2 * m + 1)]
        for mask in range(1 << 2 * m):
            if view.get(mask) is not None:
                unions[mask.bit_count()].append(mask)
        for size, found in enumerate(unions[1:], 1):
            family = gluing.lambda_family(size >> 1, m) if size % 2 == 0 else ()
            if tuple(found) != family:
                failures["lambda_family_sizes"] += 1

    # both identities in x = p/q times q^cap, so checked exactly in integers
    for _ in range(reps):
        p, q = _random_rat(rng).as_integer_ratio()
        cap = rng.randint(1, 24)
        lhs = sum((s - 1) * binom(cap, s) * p ** (cap - s) * q ** s for s in range(1, cap + 1))
        rhs = cap * (p + q) ** (cap - 1) * q - (p + q) ** cap + p ** cap
        if lhs != rhs:
            failures["binomial_identities"] += 1
        lhs2 = sum(s * binom(cap, s) * p ** (cap - s) * q ** s for s in range(1, cap + 1))
        if lhs2 != cap * (p + q) ** (cap - 1) * q:
            failures["binomial_identities"] += 1

    from . import chow

    form = chow.top_form()
    for i in range(6):
        for j in range(6):
            for k in range(6):
                base = form[i][j][k]
                if any(form[a][b][c] != base for a, b, c in permutations((i, j, k))):
                    failures["top_form_symmetry"] += 1

    return _suite("properties", [
        (name, "0 failures", f"{count} failures", "randomized property check")
        for name, count in sorted(failures.items())
    ])


# Each entry looks its suite up by name when called, so that a suite
# replaced on this module (a test double, a timing wrapper) is the one run.
SUITES: Dict[str, Callable[[argparse.Namespace], List[CheckRow]]] = {
    "trigonal": lambda args: trigonal_suite(),
    "gonal": lambda args: gonal_suite(args.max_d, args.direct_max_d),
    "gp": lambda args: gp_suite(),
    "chow": lambda args: chow_suite(),
    "certify": lambda args: certificate_suite(args.direct_max_d),
    "properties": lambda args: property_suite(),
}


# ---------------------------------------------------------------------------
# file commands


def _text(path: str) -> str:
    try:
        return Path(path).read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise InputError(f"cannot read {path}: {exc}") from exc


def _decode(path: str, text: str):
    """The JSON document in ``text``, with its errors worded for ``path``."""
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise InputError(
            f"{path}: malformed JSON at line {exc.lineno} column {exc.colno}: {exc.msg}"
        ) from exc
    except ValueError as exc:  # an integer past Python's digit limit
        raise InputError(f"{path}: JSON value cannot be read: {exc}") from exc
    except RecursionError as exc:
        raise InputError(f"{path}: JSON nested too deeply to read: {exc}") from exc


def _replaced(output: str) -> bool:
    """Whether ``output`` is written through a new file beside it, which
    then replaces it: when it names a regular file or nothing yet.
    Anything else (a device such as /dev/full, a FIFO, a symbolic link
    such as /dev/stdout, a directory, a path with no file name or one
    that cannot be looked up) is opened and written in place, and ``open``
    words its error."""
    if not os.path.basename(output):
        return False
    try:
        return stat.S_ISREG(os.lstat(output).st_mode)
    except FileNotFoundError:
        return True
    except OSError:
        return False


def _write_replacing(item, output: str) -> None:
    """Write ``item`` to a new file in ``output``'s directory and rename it
    onto ``output`` after the last write, so that a failure at any point
    removes the new file and leaves ``output`` as it was.  The new file is
    created as ``open(output, "w")`` would create it, under the umask, and
    takes the mode of the file it replaces."""
    head, name = os.path.split(output)
    try:
        mode = stat.S_IMODE(os.stat(output).st_mode)
    except FileNotFoundError:
        mode = None
    attempt = 0
    while True:
        temp = os.path.join(head, f".{name}.{os.getpid()}-{attempt}.tmp")
        try:
            fd = os.open(temp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
            break
        except FileExistsError:
            attempt += 1
        except OSError as exc:  # worded for output, as open(output) would word it
            raise OSError(exc.errno, exc.strerror, output) from None
    try:
        with open(fd, "w", encoding="utf-8") as fh:
            if mode is not None:
                os.fchmod(fd, mode)
            picard.write_json(item, fh.write)
        os.replace(temp, output)
    except BaseException:
        os.unlink(temp)
        raise


def _dump_json(item, output: str | None) -> None:
    """Stream the canonical text of a class or profile into ``output``, or
    to stdout when it is omitted, a chunk of entries at a time.  Every
    refusal comes before this call.  A regular file, or a path with
    nothing there yet, is only replaced once the whole text is written
    (:func:`_write_replacing`); any other ``output`` is written in place.
    An empty ``output`` is a path like any other."""
    if output is None:
        picard.write_json(item, sys.stdout.write)
        return
    try:
        if _replaced(output):
            _write_replacing(item, output)
        else:
            with open(output, "w", encoding="utf-8") as fh:
                picard.write_json(item, fh.write)
    except OSError as exc:  # opening, a write, the flush at close, or the rename
        raise InputError(f"cannot write {output}: {exc}") from exc


def _read(path: str, parse, what: str, profile: picard.CurveProfile | None = None):
    """Parse the JSON file at ``path`` with ``parse``; a file that does not
    hold a ``what`` is an input error, worded here for either route.  A
    space mismatch with ``profile`` is passed on as it is.

    A regular file in the writer's layout is first given to ``parse`` as
    the document of ``picard.batched_class``, read in batches (see
    :mod:`effcone.picard`); a class read against ``profile`` keeps only its
    support, and only such a class is walked.
    A file of the other kind is refused from its tail.  Any other file, or
    one the batch reader refuses (``picard.NotCanonical``), is decoded
    whole and read entry by entry, which words every error.

    The text is freed as soon as it is decoded, before ``parse`` runs: on
    a large file it is as large as the parse's own working set.  The cycle
    collector is paused for the decode and the parse, and then put back
    as it was.  A decoded JSON value is a tree with no cycles, so a
    collection can find nothing in it, yet the allocations of a large file
    start collections that walk the whole young tree. A pause around the
    decode alone would only defer that walk to the first collection after
    it; by the end of the parse the tree is freed."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        obj = picard.batched_class(path, profile)
        try:
            if obj is not None:
                try:
                    return parse(obj)
                except picard.NotCanonical:
                    pass
            obj = _decode(path, _text(path))
            return parse(obj)
        except (InputError, picard.SpaceMismatchError):
            raise
        except (KeyError, TypeError, ValueError) as exc:
            raise InputError(f"{path}: not a {what} file: {exc}") from exc
    finally:
        if enabled:
            gc.enable()


def _check_pencil_markings(d: int) -> None:
    """Refuse a degree d >= 3 whose gonal pencil and gluing pullback land
    on 4d - 4 > 64 markings, before anything of degree d is built."""
    if d >= 3:
        picard._check_n(4 * d - 4)


def _cmd_pullback(args) -> int:
    from . import gluing

    cls = _read(args.input, picard.mg_class_from_json, "genus-g class")
    if cls.g != args.g:
        raise InputError(f"class lives on genus {cls.g}, but --g {args.g} was given")
    result = gluing.glue_pullback(cls, args.m)
    # the view counts its entries combinatorially; len() itself would refuse
    # a count past sys.maxsize (64 markings)
    picard._check_budget(result.boundary.__len__(), f"the pullback to {result.n} markings")
    _dump_json(result, args.output)
    return 0


def _cmd_intersect(args) -> int:
    prof = _read(args.profile, picard.profile_from_json, "profile")
    cls = _read(args.class_file, picard.m1n_class_from_json, "marked-space class", prof)
    out = scalar_to_json(picard.pair(prof, cls))
    print(out if isinstance(out, str) else json.dumps(out))
    return 0


# each builder is given the corpus module and looks its function up when
# called, so that a wrapped one (bench/layers.py times them) is the one that runs
_EXPORTERS = {
    "gp": lambda corpus: corpus.gp_class(),
    "pullback-trigonal": lambda corpus: corpus.golden_pullback("trigonal"),
    "pullback-gp": lambda corpus: corpus.golden_pullback("gp"),
    "profile-trig": lambda corpus: corpus.profile("trig"),
    "profile-bnd": lambda corpus: corpus.profile("bnd"),
    "profile-gp": lambda corpus: corpus.profile("gp"),
}


def _cmd_export(args) -> int:
    from . import corpus

    name = args.name
    if name in _EXPORTERS:
        item = _EXPORTERS[name](corpus)
    elif match := re.fullmatch(r"bn\(([0-9]+)\)", name):
        d = int(match.group(1))
        _check_pencil_markings(d)  # its gluing pullback lands on 4d - 4 markings
        item = corpus.bn_class(d)
    elif match := re.fullmatch(r"profile-gonal\(([0-9]+)\)", name):
        item = corpus.profile("gonal", int(match.group(1)))  # refused past the budget before it is built
    else:
        known = ", ".join(sorted(_EXPORTERS) + ["bn(d)", "profile-gonal(d)"])
        raise InputError(f"unknown corpus item {name!r}; known: {known}")
    _dump_json(item, args.output)
    return 0


def _cmd_verify(args) -> int:
    from . import corpus

    d = args.direct_max_d
    if d >= 3:
        # the direct route builds profile-gonal(d) whole; refused before any suite runs
        what = f"--direct-max-d {d} (profile-gonal({d}) on {4 * d - 4} markings)"
        picard._check_budget(corpus.gonal_support(d), what)
    # the sign sweep reads the d-gonal pencil for d = 3 .. --max-d; a range
    # below 3, or past 64 markings as for bn(d), is refused before any suite runs
    if args.max_d < 3:
        raise InputError(f"report range must reach at least d = 3, got {args.max_d}")
    _check_pencil_markings(args.max_d)
    names = SUITES if args.suite == "all" else (args.suite,)
    internal = (ArithmeticError,)
    if "certify" in names:  # certify is loaded only for its suite
        from .certify import CertificateRefused

        internal += (CertificateRefused,)
    rows = []
    for name in names:
        try:
            rows += SUITES[name](args)
        # an internal consistency check failed; the other suites still report
        except internal as exc:
            actual = f"{type(exc).__name__}: {exc}"
            rows += _suite(name, [("internal_error", "no error", actual, "internal consistency failure")])
    sys.stdout.write(emit_report(rows, "json" if args.json else "text"))
    return 0 if all(r.ok for r in rows) else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="effcone",
        description=(
            "Exact verification of divisor-class pullbacks, test-curve pairings, "
            "and extremality certificates on moduli of marked genus-one curves."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    verify = sub.add_parser("verify", help="run a verification suite")
    verify.set_defaults(run=_cmd_verify)
    verify.add_argument("suite", choices=("all", *SUITES))
    verify.add_argument("--max-d", type=int, default=DEFAULT_MAX_D, help="sign sweep bound")
    verify.add_argument(
        "--direct-max-d",
        type=int,
        default=DIRECT_ROUTE_DEFAULT_CAP,
        help="cap for the full-enumeration route",
    )
    verify.add_argument("--json", action="store_true", help="emit the JSON report")

    pullback = sub.add_parser("pullback", help="pull a genus-g class back along the gluing map")
    pullback.set_defaults(run=_cmd_pullback)
    pullback.add_argument("--g", type=int, required=True)
    pullback.add_argument("--m", type=int, required=True)
    pullback.add_argument("--input", required=True, help="genus-g class JSON file")
    pullback.add_argument("--output", help="destination file (stdout when omitted)")

    intersect = sub.add_parser("intersect", help="pair a profile against a class")
    intersect.set_defaults(run=_cmd_intersect)
    intersect.add_argument("--profile", required=True, help="profile JSON file")
    intersect.add_argument("--class", dest="class_file", required=True, help="class JSON file")

    export = sub.add_parser("export", help="write a named corpus item as JSON")
    export.set_defaults(run=_cmd_export)
    export.add_argument("--name", required=True, help="e.g. bn(3), gp, pullback-trigonal, profile-gonal(4)")
    export.add_argument("--output", help="destination file (stdout when omitted)")

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code in (0, None) else 2
    try:
        code = args.run(args)
        sys.stdout.flush()
        return code
    # InputError, MarkingIndexError, SpaceMismatchError, ResourceGuardError
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except BrokenPipeError:
        # the reader closed stdout early (``| head``): what is still buffered
        # goes to devnull, so that the flush at exit raises nothing
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1
    except OSError as exc:
        # stdout cannot take the output (a full disk); the rest goes to
        # devnull as above
        print(f"error: cannot write standard output: {exc}", file=sys.stderr)
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 2


if __name__ == "__main__":
    sys.exit(main())
