"""Acceptance criteria, one test per criterion.

Every comparison is exact (structural equality of canonical forms); the only
tolerances are the stated wall-clock budgets.  Each test prints one
PASS/FAIL line; run with ``pytest tests/test_acceptance.py -v -s`` to see
them inline.
"""

import functools
import time

import pytest

from effcone import certify as certify_mod
from effcone import chow, cli, corpus, gluing, gonal, picard
from effcone.picard import full_mask, pair, subset_mask
from effcone.scalars import A, Poly, poly_eval


def criterion(number, title):
    def decorate(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            try:
                fn(*args, **kwargs)
            except BaseException:
                print(f"ACCEPTANCE {number} ({title}): FAIL")
                raise
            print(f"ACCEPTANCE {number} ({title}): PASS")

        return wrapper

    return decorate


def assert_all_coordinates_equal(computed, golden):
    assert computed.n == golden.n
    n = computed.n
    assert computed.lam == golden.lam
    checked = 1
    for mask in range(1 << n):
        if mask.bit_count() >= 2:
            assert computed.coeff(mask) == golden.coeff(mask), picard.subset_members(mask)
            checked += 1
    return checked


@criterion(1, "trigonal pullback golden match")
def test_criterion_1_trigonal_golden_match():
    start = time.perf_counter()
    computed = gluing.glue_pullback(corpus.bn_class(3), 4)
    golden = corpus.golden_pullback("trigonal")
    coordinates = assert_all_coordinates_equal(computed, golden)
    elapsed = time.perf_counter() - start
    assert coordinates == 248
    assert elapsed < 1.0, f"took {elapsed:.3f}s"


@criterion(2, "GP pullback golden match")
def test_criterion_2_gp_golden_match():
    start = time.perf_counter()
    computed = gluing.glue_pullback(corpus.gp_class(), 3)
    golden = corpus.golden_pullback("gp")
    coordinates = assert_all_coordinates_equal(computed, golden)
    elapsed = time.perf_counter() - start
    assert coordinates == 58
    assert computed.lam == 10
    for k in (1, 2, 3):
        assert computed.coeff(subset_mask((2 * k - 1, 2 * k), 6)) == -6
    for members in ((1, 2, 3, 4), (1, 2, 5, 6), (3, 4, 5, 6)):
        assert computed.coeff(subset_mask(members, 6)) == -2
    assert computed.coeff(full_mask(6)) == 10
    assert elapsed < 1.0, f"took {elapsed:.3f}s"


@criterion(3, "trigonal pencil pairings")
def test_criterion_3_trigonal_pairings():
    pullback = gluing.glue_pullback(corpus.bn_class(3), 4)
    assert pair(corpus.profile("trig"), pullback) == -1
    boundary_pairing = pair(corpus.profile("bnd"), pullback)
    assert boundary_pairing == -2 and boundary_pairing < 0


@criterion(4, "gonal three-route agreement and signs")
def test_criterion_4_gonal_routes():
    start = time.perf_counter()
    for d in range(3, 7):
        direct = gonal.pairing_direct(d)
        assert direct == gonal.pairing_binomial(d) == gonal.pairing_closed(d), d
    assert gonal.pairing_closed(3) == 2
    rows = gonal.negativity_report(12)
    assert [row.sign for row in rows] == ["+"] + ["-"] * 9
    assert all(gonal.pairing_closed(d) < 0 for d in range(4, 65))
    elapsed = time.perf_counter() - start
    assert elapsed < 30.0, f"took {elapsed:.3f}s"


@criterion(5, "GP pairing is the constant -16")
def test_criterion_5_gp_pairing_identity():
    pairing = pair(corpus.profile("gp"), gluing.glue_pullback(corpus.gp_class(), 3))
    # the a-linear terms must cancel identically
    assert Poly.of(pairing).degree() <= 0
    assert pairing == -16
    assert poly_eval(pairing, 5) == -16


@criterion(6, "intersection-ring suite")
def test_criterion_6_chow_suite():
    start = time.perf_counter()
    table = chow.intersection_table_check()
    assert table and all(expected == actual for _, expected, actual in table)
    inv = chow.family_invariants()
    assert inv.c2_td == 13 * A - 11
    assert inv.kd_squared == -(A + 1)
    assert 12 * inv.hodge_lambda == 12 * A - 12
    assert inv.rational_tails == A + 1
    assert inv.two_section_genus == A - 1
    assert inv.ramification == 2 * A
    data = chow.chern_data()
    assert chow.dot(data.c2_ty, -1 * data.k_y) == 24
    assert chow.dot(data.c2_tx, -1 * data.k_x) == 24
    assert inv.hodge_lambda == inv.hodge_lambda_rr
    assert inv.irreducible_nodal + inv.rational_tails + 2 * inv.directrix_cycles == inv.c2_td
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0, f"took {elapsed:.3f}s"


@criterion(7, "certificates accept, refuse, and lift")
def test_criterion_7_certificates():
    assertions = certify_mod.REQUIRED_ASSERTIONS

    cert_trig = certify_mod.certify(
        corpus.bn_class(3), 4, corpus.profile("trig"), assertions, profile_name="trig"
    )
    assert cert_trig.pairing == -1

    cert_gp = certify_mod.certify(
        corpus.gp_class(), 3, corpus.profile("gp"), assertions, profile_name="gp"
    )
    assert cert_gp.pairing == -16

    certs = [cert_trig, cert_gp]
    for d in (4, 5, 6):
        cert = certify_mod.certify(
            corpus.bn_class(d),
            2 * d - 2,
            corpus.profile("gonal", d),
            assertions,
            profile_name=f"gonal({d})",
        )
        assert cert.pairing == gonal.pairing_closed(d) < 0
        certs.append(cert)

    with pytest.raises(certify_mod.CertificateRefused) as refusal:
        certify_mod.certify(corpus.bn_class(3), 4, corpus.profile("gonal", 3), assertions)
    assert refusal.value.pairing == 2

    for cert in certs:
        lifted = certify_mod.lift(cert, cert.n + 2)
        assert lifted.pairing == cert.pairing


@criterion(8, "randomized property suites")
def test_criterion_8_property_suites():
    rows = cli.property_suite(reps=100)
    failing = [row for row in rows if not row.ok]
    assert not failing, failing
    assert {row.check for row in rows} == {
        "pair_bilinearity",
        "pullback_linearity",
        "pullback_pair_symmetry",
        "lambda_family_sizes",
        "binomial_identities",
        "top_form_symmetry",
    }
