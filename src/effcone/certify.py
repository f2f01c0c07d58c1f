"""Extremality certificates.

A certificate packages the arithmetic premise of the extremality argument:
a declared moving curve whose pairing against the pullback divisor class is
a negative constant.  Together with the cited cone criterion and the two
declared geometric facts (the curve moves in the main component and is not
contained in the boundary) this premise implies that the main component
spans an extremal, rigid ray of the pseudoeffective cone.  The geometric
facts are inputs, never inferred; every certificate marks them as declared.
"""

from __future__ import annotations

import json
from typing import NamedTuple, Sequence, Tuple

from .gluing import forget_pullback, glue_pullback, pushforward_profile
from .picard import (
    CurveProfile,
    DivisorClassM1n,
    DivisorClassMg,
    SpaceMismatchError,
    mg_class_to_json,
    pair,
)
from .scalars import Poly, Rat, Scalar, as_rat, canon, scalar_to_json

REQUIRED_ASSERTIONS = (
    "profile-is-moving-in-main-component",
    "profile-not-contained-in-boundary",
)
ASSERTION_STATUS = "declared, not machine-checked"
INFERENCE_RULE = "ChenCoskun Lemma 4.1"


class IncompletePremiseError(ValueError):
    """A required declared assertion is missing."""


class CertificateRefused(ValueError):
    """The arithmetic premise failed: the pairing is not a negative constant."""

    def __init__(self, message: str, pairing: Scalar | None = None, degree: int | None = None):
        super().__init__(message)
        self.pairing = pairing
        self.degree = degree


class Certificate(NamedTuple):
    n: int                      # markings of the certified space
    source: DivisorClassMg      # class pulled back along the gluing map
    source_m: int               # number of glued pairs
    pullback: DivisorClassM1n   # the certified class (gluing, then forgetful lifts)
    profile_name: str
    profile: CurveProfile
    pairing: Rat                # negative constant
    assertions: Tuple[str, ...]
    conclusion: str


def _constant_pairing(value: Scalar) -> Rat:
    if isinstance(value, Poly) and not value.is_constant():
        raise CertificateRefused(
            f"pairing {value} is not constant in a (degree {value.degree()})",
            pairing=value,
            degree=value.degree(),
        )
    return as_rat(value)


def certify(
    divisor: DivisorClassMg,
    m: int,
    profile: CurveProfile,
    assertions: Sequence[str],
    profile_name: str = "custom",
) -> Certificate:
    """Build a certificate for the pullback of ``divisor`` along the gluing
    map with ``m`` pairs, against the given declared-moving profile.

    Refuses unless the pairing is a negative constant; the two declarations
    in :data:`REQUIRED_ASSERTIONS` must both be supplied.
    """
    assertions = tuple(assertions)
    missing = [fact for fact in REQUIRED_ASSERTIONS if fact not in assertions]
    if missing:
        raise IncompletePremiseError(f"missing declared assertions: {missing}")
    if profile.n != 2 * m:
        raise SpaceMismatchError(f"profile lives on n={profile.n}, gluing with m={m} needs n={2 * m}")

    pullback = glue_pullback(divisor, m)
    value = _constant_pairing(pair(profile, pullback))
    if value >= 0:
        raise CertificateRefused(
            f"pairing {value} is nonnegative; no extremality certificate", pairing=value
        )
    conclusion = (
        f"pairing {value} < 0 of a declared moving curve with the pullback class; "
        f"since the curve is declared not contained in the boundary, the main component "
        f"also pairs negatively, and by {INFERENCE_RULE} it spans an extremal rigid ray"
    )
    return Certificate(
        n=2 * m,
        source=divisor,
        source_m=m,
        pullback=pullback,
        profile_name=profile_name,
        profile=profile,
        pairing=value,
        assertions=assertions,
        conclusion=conclusion,
    )


def lift(cert: Certificate, n: int) -> Certificate:
    """Lift a certificate along the map forgetting markings beyond cert.n.

    The divisor is replaced by its forgetful pullback and the profile by the
    canonical lift supported on subsets of the original markings.  The lift
    must push forward to the original profile (the projection formula), and
    the recomputed pairing must be preserved exactly; either failure raises
    ``ArithmeticError``.
    """
    if n < cert.n:
        raise ValueError(f"cannot lift a certificate on {cert.n} markings down to {n}")
    if n == cert.n:
        return cert
    pullback = forget_pullback(cert.pullback, n)
    # the original masks lie in 1..cert.n, so the checked mapping is shared
    profile = CurveProfile._trusted(n, cert.profile.on_lambda, cert.profile.on_boundary)
    if pushforward_profile(profile, cert.n) != cert.profile:
        raise ArithmeticError(
            f"lifted profile on {n} markings does not push forward to the original on {cert.n}"
        )
    value = _constant_pairing(pair(profile, pullback))
    if value != cert.pairing:
        raise ArithmeticError(
            f"lift changed the pairing: {cert.pairing} became {value}"
        )
    return cert._replace(n=n, pullback=pullback, profile=profile)


def certificate_to_json(cert: Certificate) -> dict:
    # the divisor is recorded by its description: the class pulled back from
    # the unmarked space, the pair count, and the marking count after lifts
    return {
        "space": {"type": "M1n", "n": cert.n},
        "divisor": {
            "source": mg_class_to_json(cert.source),
            "g": cert.source.g,
            "m": cert.source_m,
        },
        "m": cert.source_m,
        "profile": {"name": cert.profile_name, "n": cert.profile.n},
        "pairing": scalar_to_json(canon(cert.pairing)),
        "assertions": [
            {"fact": fact, "status": ASSERTION_STATUS} for fact in cert.assertions
        ],
        "inference": INFERENCE_RULE,
        "conclusion": cert.conclusion,
    }


def certificate_to_json_str(cert: Certificate) -> str:
    """Deterministic serialization: identical certificates give identical bytes."""
    return json.dumps(certificate_to_json(cert), sort_keys=True, separators=(",", ":"))
