"""The verification suites of ``effcone verify``.

Each suite is a check table: it lists ``(check, expected, actual, citation)``
entries and hands them to ``_suite``, which names the module once and
serializes every scalar into a :class:`CheckRow`.  The command line
(:mod:`effcone.cli`) loads this module only when a suite runs, through its
``<name>_suite`` entry points, and renders the rows; ``gonal_suite`` and
``certificate_suite`` are given the ``verify`` options by those entry
points.

The five tables here are deterministic.  The sampled property suite, with
its ``random`` stream, is :mod:`effcone.properties`, which builds its rows
through ``_suite`` too, so that the other suites neither compile it nor
import ``random``.

Every effcone module but ``picard`` and ``scalars`` is imported where it is
called, so that a suite loads only the modules it runs (``chow`` and
``certify`` only with the suites that call them).
"""

from __future__ import annotations

from typing import List, NamedTuple, Sequence, Tuple

from . import picard
from .scalars import Poly, poly_eval, scalar_to_json


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
