"""The verification suites of ``effcone verify``.

Each suite is a check table: it lists ``(check, expected, actual, citation)``
entries and hands them to ``_suite``, which names the module once and
serializes every scalar into a :class:`CheckRow`.  The command line
(:mod:`effcone.cli`) loads this module only when a suite runs, through its
``<name>_suite`` entry points, and renders the rows; ``gonal_suite`` and
``certificate_suite`` are given the ``verify`` options by those entry
points.

The property suite draws from one generator seeded with ``PROPERTY_SEED``,
``reps`` times for each linearity row: no finite evaluation proves that an
arbitrary map is linear.  Its other rows are proofs.  A mapping fixed by a
group's generators is fixed by the group, so ``pullback_pair_symmetry``
relabels its pullbacks (B_m for m = 3, 4, 6) by ``pair_generators`` alone.
Both sides of each binomial identity are homogeneous of degree cap in
(p, q), so agreeing at q = 1 and p = 0..cap proves it, for caps 1..24.

Every effcone module but ``picard`` and ``scalars`` is imported where it is
called, so that a suite loads only the modules it runs (``chow`` and
``certify`` only with the suites that call them).
"""

from __future__ import annotations

import random
from fractions import Fraction
from itertools import permutations
from typing import List, NamedTuple, Sequence, Tuple

from . import picard
from .scalars import Poly, binom, poly_eval, scalar_to_json

PROPERTY_SEED = 1729
PROPERTY_REPS = 100


# ---------------------------------------------------------------------------
# check rows


class CheckRow(NamedTuple):
    module: str
    check: str
    expected: object  # serialized scalar (str or list of str) or plain str
    actual: object
    citation: str

    @property
    def ok(self) -> bool:
        return self.expected == self.actual


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


def gonal_suite(max_d: int, direct_max_d: int) -> List[CheckRow]:
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


def certificate_suite(direct_max_d: int) -> List[CheckRow]:
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


def pair_generators(m: int) -> Tuple[tuple, ...]:
    """Generators of B_m on 2m markings (m >= 2): the swap within pair 1,
    the swap of pairs 1 and 2, and the cycle of the pairs."""
    rest = tuple(range(3, 2 * m + 1))
    return (2, 1, *rest), (3, 4, 1, 2, *rest[2:]), (*rest, 1, 2)


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

    # each pullback is listed into a dict once, so that each generator
    # compares two dicts instead of walking a glued view twice; the listing
    # of a zero-pruned view is canonical already, so it is not checked again
    pullbacks = [
        (m, picard.DivisorClassM1n._trusted(2 * m, cls.lam, dict(cls.boundary.items())))
        for m, cls in (
            (4, gluing.glue_pullback(corpus.bn_class(3), 4)),
            (3, gluing.glue_pullback(corpus.gp_class(), 3)),
            (6, gluing.glue_pullback(corpus.bn_class(4), 6)),
        )
    ]
    for m, cls in pullbacks:
        for sigma in pair_generators(m):
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

    # each identity in x = p/q times q^cap: cap + 1 ratios p/q prove it
    for cap in range(1, 25):
        row = [binom(cap, s) for s in range(cap + 1)]
        for p in range(cap + 1):
            lhs = sum((s - 1) * row[s] * p ** (cap - s) for s in range(1, cap + 1))
            if lhs != cap * (p + 1) ** (cap - 1) - (p + 1) ** cap + p ** cap:
                failures["binomial_identities"] += 1
            lhs2 = sum(s * row[s] * p ** (cap - s) for s in range(1, cap + 1))
            if lhs2 != cap * (p + 1) ** (cap - 1):
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
