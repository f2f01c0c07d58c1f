"""The sampled property suite of ``effcone verify`` (``verify
properties``), in its own module so that only ``verify properties`` and
``verify all`` compile it and import ``random``; the command line loads it
through its ``property_suite`` entry point, and its rows are built by
:func:`effcone.suites._suite`.

The suite draws from one generator seeded with ``PROPERTY_SEED``, ``reps``
times for each linearity row: no finite evaluation proves that an arbitrary
map is linear.  Its other rows are proofs.  A mapping fixed by a group's
generators is fixed by the group, so ``pullback_pair_symmetry`` relabels
its pullbacks (B_m for m = 3, 4, 6) by ``pair_generators`` alone.  Both
sides of each binomial identity are homogeneous of degree cap in (p, q), so
agreeing at q = 1 and p = 0..cap proves it, for caps 1..24.
"""

from __future__ import annotations

import random
from fractions import Fraction
from itertools import permutations
from typing import List, Tuple

from . import picard
from .scalars import binom
from .suites import CheckRow, _suite

PROPERTY_SEED = 1729
PROPERTY_REPS = 100


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
