"""Cross-cutting laws checked on randomized batteries.

The acceptance battery runs the same laws at larger scale; these stay
small so the default suite is quick.
"""

import itertools
import random

import pytest

from gpfkit.arith import PolyRing
from gpfkit.errors import HypothesisError
from gpfkit.fields import QQ
from gpfkit.gpf import (
    FactorizationTarget,
    PrimeMultiset,
    check_iff_criterion,
    construct_general,
    exists_incomparable,
    gpf,
)
from gpfkit.filtration import rpe_filtration
from gpfkit.modops import QuotientModule, module_scale, partial_products
from gpfkit.primes import (
    PrimeIdeal,
    PrimeSet,
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
    """The factorization is unique: filtrations built under the two
    tie-breaks carry the same prime multiset."""
    for rng, ring, M, N in _random_cases(25):
        lex, rev = (
            PrimeMultiset.from_primes(rpe_filtration(N, M, tie_break=tb).primes())
            for tb in ("lex", "revlex")
        )
        assert lex.equals(rev), str(N)
        assert lex.total() == rev.total()
        assert lex.equals(gpf(N, M)), str(N)


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


def _small_modules(ring):
    """R, R^2, R/(xy) and the direct sum R/(x) + R/(yz) over QQ[x,y,z]."""
    x, y, z = ring.gen(0), ring.gen(1), ring.gen(2)
    zero = ring.zero()
    return [
        QuotientModule.of_ring(ring),
        QuotientModule.free(ring, 2),
        QuotientModule.free(ring, 1, ((x * y,),)),
        QuotientModule.free(ring, 2, ((x, zero), (zero, y * z))),
    ]


def test_antichain_existence_is_support_and_construct_general_builds_it():
    """Localized at p_i the other primes of an antichain are units, so the
    product p_1...p_n is a factorization in M exactly when every p_i
    contains ann(M), and construct_general builds it.  Runs every antichain
    of variable primes in QQ[x,y,z], in a seeded order, in four modules."""
    rng = random.Random(20261019)
    ring = _ring3()
    subsets = [
        frozenset(s) for k in (1, 2, 3) for s in itertools.combinations(range(3), k)
    ]
    antichains = [
        list(family)
        for k in (1, 2, 3)
        for family in itertools.combinations(subsets, k)
        if all(not a <= b for a, b in itertools.permutations(family, 2))
    ]
    assert len(antichains) == 18
    built = refused = 0
    for M in _small_modules(ring):
        ann = M.ann().canonical_gens()
        for family in antichains:
            rng.shuffle(family)
            primes = [PrimeIdeal.from_variables(ring, sorted(S)) for S in family]
            want = all(p.contains(g) for p in primes for g in ann)
            report = exists_incomparable(primes, M)
            assert report.verdict == want, [str(p) for p in primes]
            target = FactorizationTarget([(p, 1) for p in primes])
            if want:
                N = construct_general(target, M)
                assert gpf(N, M).equals(target)
                assert report.witness.equals(N)
                built += 1
            else:
                with pytest.raises(HypothesisError, match="no submodule of M"):
                    construct_general(target, M)
                refused += 1
    assert (built, refused) == (67, 5)


def test_antichain_factorizations_meet_the_localized_condition():
    """When the primes of gpf(N, M) form an antichain, localizing at p_i
    leaves r_i steps by p_i, so p_i lies in Supp(p_i^{r_i - 1} M)."""
    rng = random.Random(4711)
    checked = 0
    for M in _small_modules(_ring3()):
        for _ in range(15):
            N = random_monomial_sub(rng, M)
            if M.with_denominator(N).is_zero():
                continue
            factors = gpf(N, M)
            if not PrimeSet(factors.primes()).is_antichain():
                continue
            for p, r in factors.entries():
                power = partial_products([(p, r - 1)])[-1]
                assert supp_contains(p, M.module_of(module_scale(power, M))), str(N)
                checked += r > 1
    assert checked >= 10
