"""Certificates: acceptance, refusal, lifting, and determinism."""

import pytest

from effcone import certify as certify_module
from effcone.certify import (
    ASSERTION_STATUS,
    INFERENCE_RULE,
    REQUIRED_ASSERTIONS,
    CertificateRefused,
    IncompletePremiseError,
    certificate_to_json,
    certificate_to_json_str,
    certify,
    lift,
)
from effcone.corpus import bn_class, gp_class, profile
from effcone.picard import CurveProfile, SpaceMismatchError


def trigonal_certificate():
    return certify(bn_class(3), 4, profile("trig"), REQUIRED_ASSERTIONS, profile_name="trig")


def gp_certificate():
    return certify(gp_class(), 3, profile("gp"), REQUIRED_ASSERTIONS, profile_name="gp")


class TestCertify:
    def test_trigonal_certificate(self):
        cert = trigonal_certificate()
        assert cert.pairing == -1
        assert cert.n == 8 and cert.source_m == 4
        assert cert.assertions == REQUIRED_ASSERTIONS
        assert INFERENCE_RULE in cert.conclusion

    def test_gp_certificate_collapses_the_parameter(self):
        cert = gp_certificate()
        assert cert.pairing == -16
        assert not hasattr(cert.pairing, "degree")  # a plain rational, not a polynomial

    def test_gonal_certificates(self):
        from effcone.gonal import pairing_closed

        for d in (4, 5):
            cert = certify(
                bn_class(d),
                2 * d - 2,
                profile("gonal", d),
                REQUIRED_ASSERTIONS,
                profile_name=f"gonal({d})",
            )
            assert cert.pairing == pairing_closed(d) < 0

    def test_refuses_positive_pairing_and_carries_it(self):
        with pytest.raises(CertificateRefused) as excinfo:
            certify(bn_class(3), 4, profile("gonal", 3), REQUIRED_ASSERTIONS)
        assert excinfo.value.pairing == 2

    def test_refuses_zero_pairing(self):
        silent = CurveProfile(8)  # pairs to zero with everything
        with pytest.raises(CertificateRefused) as excinfo:
            certify(bn_class(3), 4, silent, REQUIRED_ASSERTIONS)
        assert excinfo.value.pairing == 0

    def test_refuses_nonconstant_pairing_with_degree_report(self):
        # keep only the triple entries of the fibration profile: the a-linear
        # terms no longer cancel
        full = profile("gp")
        partial = CurveProfile(
            6,
            full.on_lambda,
            {m: v for m, v in full.on_boundary.items() if m.bit_count() == 3},
        )
        with pytest.raises(CertificateRefused) as excinfo:
            certify(gp_class(), 3, partial, REQUIRED_ASSERTIONS)
        assert excinfo.value.degree == 1

    def test_missing_assertions_are_an_incomplete_premise(self):
        with pytest.raises(IncompletePremiseError):
            certify(bn_class(3), 4, profile("trig"), REQUIRED_ASSERTIONS[:1])
        with pytest.raises(IncompletePremiseError):
            certify(bn_class(3), 4, profile("trig"), ())

    def test_extra_assertions_are_kept(self):
        extra = REQUIRED_ASSERTIONS + ("main-component-is-irreducible",)
        cert = certify(bn_class(3), 4, profile("trig"), extra)
        assert cert.assertions == extra

    def test_profile_space_must_match(self):
        with pytest.raises(SpaceMismatchError):
            certify(bn_class(3), 4, profile("gp"), REQUIRED_ASSERTIONS)


class TestLift:
    def test_trigonal_lift_preserves_pairing(self):
        cert = trigonal_certificate()
        lifted = lift(cert, 10)
        assert lifted.pairing == -1
        assert lifted.n == 10
        assert lifted.profile.n == 10
        assert lifted.pullback.n == 10

    def test_lift_to_same_space_is_identity(self):
        cert = trigonal_certificate()
        assert lift(cert, cert.n) is cert

    def test_gp_lift(self):
        lifted = lift(gp_certificate(), 7)
        assert lifted.pairing == -16

    def test_cannot_lift_downward(self):
        with pytest.raises(ValueError):
            lift(trigonal_certificate(), 6)

    def test_lifted_profile_is_supported_on_the_original_markings(self):
        lifted = lift(trigonal_certificate(), 11)
        assert all(mask < (1 << 8) for mask in lifted.profile.on_boundary)

    def test_lift_checks_the_projection_formula(self, monkeypatch):
        """A pushforward that moves the lifted profile off the original
        makes the lift an internal consistency failure."""
        pushforward = certify_module.pushforward_profile

        def skewed(profile, m):
            out = pushforward(profile, m)
            return CurveProfile(m, out.on_lambda + 1, out.on_boundary)

        monkeypatch.setattr(certify_module, "pushforward_profile", skewed)
        with pytest.raises(ArithmeticError, match="does not push forward"):
            lift(trigonal_certificate(), 10)


class TestSerialization:
    def test_schema(self):
        obj = certificate_to_json(trigonal_certificate())
        assert set(obj) == {
            "space",
            "divisor",
            "m",
            "profile",
            "pairing",
            "assertions",
            "inference",
            "conclusion",
        }
        assert obj["m"] == 4
        assert obj["pairing"] == "-1"
        assert obj["inference"] == INFERENCE_RULE
        assert obj["divisor"]["g"] == 5
        assert all(a["status"] == ASSERTION_STATUS for a in obj["assertions"])

    def test_byte_determinism(self):
        first = certificate_to_json_str(trigonal_certificate())
        second = certificate_to_json_str(trigonal_certificate())
        assert first == second

    def test_insertion_order_does_not_leak(self):
        forward = profile("trig")
        backward = CurveProfile(
            8, forward.on_lambda, dict(reversed(list(forward.on_boundary.items())))
        )
        a = certify(bn_class(3), 4, forward, REQUIRED_ASSERTIONS, profile_name="trig")
        b = certify(bn_class(3), 4, backward, REQUIRED_ASSERTIONS, profile_name="trig")
        assert certificate_to_json_str(a) == certificate_to_json_str(b)
