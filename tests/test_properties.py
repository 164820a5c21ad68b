"""Cross-cutting laws checked on randomized batteries.

The acceptance battery runs the same laws at larger scale; these stay
small so the default suite is quick.
"""

import itertools
import random

import pytest

from gpfkit.arith import PolyRing
from gpfkit.fields import QQ
from gpfkit.gpf import FactorizationTarget, check_iff_criterion, gpf
from gpfkit.filtration import rpe_filtration
from gpfkit.modops import QuotientModule, module_scale
from gpfkit.primes import (
    PrimeIdeal,
    ass_enumerate,
    supp_contains,
)

from helpers import random_monomial_sub


def _ring3():
    return PolyRing(QQ, ("x", "y", "z"))


def _random_cases(count, nvars=3, seed=20260815):
    rng = random.Random(seed)
    ring = PolyRing(QQ, ("x", "y", "z")[:nvars])
    M = QuotientModule.of_ring(ring)
    for _ in range(count):
        yield rng, ring, M, random_monomial_sub(rng, M)


def test_gpf_is_tie_break_invariant():
    for rng, ring, M, N in _random_cases(25):
        lex = gpf(N, M, tie_break="lex")
        rev = gpf(N, M, tie_break="revlex")
        assert lex.equals(rev), str(N)
        assert lex.total() == rev.total()


def test_filtration_prime_set_is_ass():
    for rng, ring, M, N in _random_cases(20, seed=999):
        filt = rpe_filtration(N, M)
        got = sorted({p.token() for p in filt.primes()})
        want = sorted(p.token() for p in ass_enumerate(M.with_denominator(N)))
        assert got == want, str(N)


def test_each_segment_has_its_single_prime():
    for rng, ring, M, N in _random_cases(15, seed=7):
        filt = rpe_filtration(N, M)
        for step in filt.steps:
            seg = M.module_of(step.upper).with_denominator(step.lower)
            found = ass_enumerate(seg)
            assert len(found) == 1
            assert found.contains_prime(step.prime)


def test_ass_implies_supp():
    for rng, ring, M, N in _random_cases(15, seed=31):
        view = QuotientModule(M.full(), N)
        for p in ass_enumerate(M.with_denominator(N)):
            assert supp_contains(p, view)


def _random_targets(count, seed):
    rng = random.Random(seed)
    ring = _ring3()
    vars_ = list(range(ring.nvars))
    subsets = [
        tuple(s)
        for k in (1, 2, 3)
        for s in itertools.combinations(vars_, k)
    ]
    made = 0
    while made < count:
        picks = rng.sample(subsets, rng.randint(1, 3))
        pairs = [
            (PrimeIdeal(ring, [ring.gen(i) for i in s]), rng.randint(1, 2))
            for s in picks
        ]
        yield ring, FactorizationTarget.reordered(pairs)
        made += 1


def test_iff_verdict_matches_gpf_of_product():
    M_cache = {}
    for ring, target in _random_targets(15, seed=4242):
        M = M_cache.setdefault(ring.key, QuotientModule.of_ring(ring))
        report = check_iff_criterion(target, M)
        aM = module_scale(target.product_ideal(), M)
        same = gpf(aM, M).equals(target)
        assert report.verdict == same, str(target)
        if report.verdict:
            assert report.filtration is not None
            assert len(report.filtration.steps) == target.total()


def test_reordered_targets_respect_mode():
    for ring, target in _random_targets(15, seed=99):
        primes = target.primes()
        for i, a in enumerate(primes):
            for b in primes[i + 1 :]:
                assert not b.contains_ideal(a)
