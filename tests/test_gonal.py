"""The three pairing routes and the negativity threshold.

The frozen route values were computed independently by brute-force
enumeration over the profile support before being asserted here, and the
d = 3 value doubles as the hand-checkable positive case.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from effcone.cli import DIRECT_ROUTE_DEFAULT_CAP  # a verify default, so kept by the command line
from effcone.corpus import gonal_support
from effcone.gonal import (
    ResourceGuardError,
    even_subset_sum,
    negativity_report,
    pairing_binomial,
    pairing_closed,
    pairing_direct,
)
from effcone.picard import EXPORT_BUDGET
from effcone.scalars import binom

FROZEN_VALUES = {
    3: 2,
    4: -4118,
    5: -2031542,
    6: -1337827372,
}


class TestClosedRoute:
    def test_frozen_values(self):
        for d, expected in FROZEN_VALUES.items():
            assert pairing_closed(d) == expected

    def test_threshold_term_vanishes_at_three(self):
        # the (d-3) factor kills the negative term, leaving 2
        assert pairing_closed(3) == 2 > 0

    def test_negative_through_sixty_four(self):
        assert all(pairing_closed(d) < 0 for d in range(4, 65))

    def test_requires_d_at_least_three(self):
        with pytest.raises(ValueError):
            pairing_closed(2)


class TestBinomialRoute:
    def test_frozen_values(self):
        for d, expected in FROZEN_VALUES.items():
            assert pairing_binomial(d) == expected

    def test_grouped_sum_at_four(self):
        assert even_subset_sum(4) == 1586 == 2 * (3 ** 6 + 2 ** 6)

    def test_matches_closed_route_widely(self):
        for d in range(3, 13):
            assert pairing_binomial(d) == pairing_closed(d)


class TestDirectRoute:
    def test_frozen_values_under_default_cap(self):
        for d in range(3, DIRECT_ROUTE_DEFAULT_CAP + 1):
            assert pairing_direct(d) == FROZEN_VALUES[d]

    def test_cap_guard(self):
        # the profile's builder refuses past the export budget, d = 10 the first
        with pytest.raises(ResourceGuardError) as refused:
            pairing_direct(10)
        assert (refused.value.limit, refused.value.asked) == (EXPORT_BUDGET, gonal_support(10))

    def test_runs_past_the_old_cap(self):
        assert pairing_direct(7) == pairing_closed(7)

    def test_requires_d_at_least_three(self):
        with pytest.raises(ValueError):
            pairing_direct(2)


class TestRouteAgreement:
    def test_three_routes_agree_exactly(self):
        for d in range(3, DIRECT_ROUTE_DEFAULT_CAP + 1):
            direct = pairing_direct(d)
            assert direct == pairing_binomial(d) == pairing_closed(d)


class TestNegativityReport:
    def test_small_report(self):
        rows = negativity_report(4)
        assert [(r.d, r.sign) for r in rows] == [(3, "+"), (4, "-")]
        assert rows[0].value == 2

    def test_signs_through_twelve(self):
        rows = negativity_report(12)
        assert [r.sign for r in rows] == ["+"] + ["-"] * 9

    def test_requires_reach_to_three(self):
        with pytest.raises(ValueError):
            negativity_report(2)


class TestBinomialIdentities:
    def test_proof_identities_over_the_class_range(self):
        # sum_{s=1}^{N} (s-1) C(N,s) x^(N-s) = N(x+1)^(N-1) - (x+1)^N + x^N
        # sum_{s=1}^{N'} s C(N',s) x^(N'-s) = N'(x+1)^(N'-1)
        for d in range(3, 13):
            x = d - 2
            n1 = 2 * d - 2
            lhs = sum((s - 1) * binom(n1, s) * x ** (n1 - s) for s in range(1, n1 + 1))
            assert lhs == n1 * (x + 1) ** (n1 - 1) - (x + 1) ** n1 + x ** n1
            n2 = 2 * d - 3
            lhs2 = sum(s * binom(n2, s) * x ** (n2 - s) for s in range(1, n2 + 1))
            assert lhs2 == n2 * (x + 1) ** (n2 - 1)

    @given(
        x=st.fractions(min_value=-6, max_value=6, max_denominator=8),
        n=st.integers(min_value=1, max_value=24),
    )
    @settings(max_examples=100)
    def test_proof_identities_randomized(self, x, n):
        lhs = sum((s - 1) * binom(n, s) * x ** (n - s) for s in range(1, n + 1))
        assert lhs == n * (x + 1) ** (n - 1) - (x + 1) ** n + x ** n
        lhs2 = sum(s * binom(n, s) * x ** (n - s) for s in range(1, n + 1))
        assert lhs2 == n * (x + 1) ** (n - 1)
