"""Acceptance battery: nine behavioral criteria, one test each.

Every test prints a single `criterion N PASS/FAIL` line (visible with
`pytest -s`); under `pytest -v` the test names give the same one line
per criterion.  Timed criteria enforce their own wall-clock bounds.
"""

import functools
import itertools
import random
import time
from collections import Counter

import pytest

from gpfkit.arith import PolyRing
from gpfkit.errors import HypothesisError
from gpfkit.fields import GF, QQ
from gpfkit.filtration import interchange, rpe_filtration, verify_rpe
from gpfkit.gpf import (
    FactorizationTarget,
    PrimeMultiset,
    check_iff_criterion,
    check_supp_conditions,
    construct_general,
    construct_prime_power,
    exists_incomparable,
    gpf,
)
from gpfkit.modops import (
    QuotientModule,
    colon_module,
    module_scale,
)
from gpfkit.oracle import (
    FiniteModule,
    FiniteRing,
    ass_bruteforce,
    rpe_bruteforce,
    run_fixture_checks,
)
from gpfkit.primes import PrimeIdeal, ass_contains, incomparable

from helpers import (
    counterexample_module,
    ideal_sub,
    random_monomial_sub,
    twisted_setup,
    xy_ring,
)


def _criterion(num, label):
    def deco(fn):
        @functools.wraps(fn)
        def wrapper():
            t0 = time.monotonic()
            try:
                fn()
            except BaseException as exc:
                print("criterion %d FAIL (%s): %s" % (num, label, exc))
                raise
            print(
                "criterion %d PASS (%s) [%.2fs]"
                % (num, label, time.monotonic() - t0)
            )

        return wrapper

    return deco


@_criterion(1, "binomial quotient reference values")
def test_criterion_1_binomial_quotient_reference_values():
    t0 = time.monotonic()
    ring, p, m, registry = twisted_setup()
    x, y, z = ring.gen(0), ring.gen(1), ring.gen(2)
    M = QuotientModule.of_ring(ring)
    p2 = p.power(2)
    p_sub = M.span([(g,) for g in p.gens])
    p2_sub = M.span([(g,) for g in p2.gens])

    colon = colon_module(p2_sub, p, M)
    assert colon.equals(ideal_sub(ring, x, y, z))

    seg = M.module_of(p_sub).with_denominator(p2_sub)
    assert not ass_contains(p, seg)
    assert ass_contains(m, seg)

    target = FactorizationTarget([(p, 2)])
    report = check_iff_criterion(target, M, candidates=registry)
    assert report.verdict is False
    assert report.failed_index == 1

    with pytest.raises(HypothesisError) as err:
        construct_general(target, M, candidates=registry)
    assert err.value.index == 1
    assert "support condition" in str(err.value)
    assert time.monotonic() - t0 < 5.0


@_criterion(2, "module where the support conditions fail")
def test_criterion_2_counterexample_module():
    t0 = time.monotonic()
    ring, M, N = counterexample_module()
    x, y = ring.gen(0), ring.gen(1)
    m = PrimeIdeal(ring, [x, y])
    px = PrimeIdeal(ring, [x])

    got = gpf(N, M)
    assert got.equals(PrimeMultiset.from_primes([m, px]))

    report = check_supp_conditions(FactorizationTarget([(m, 1), (px, 1)]), M)
    assert not report.all_hold
    bad = report.first_failure()
    assert bad.index == 1
    assert bad.module_is_zero
    scaled = QuotientModule(module_scale(px, M), M.span(()), check=False)
    assert scaled.is_zero()
    assert time.monotonic() - t0 < 5.0


@_criterion(3, "monomial chain with oracle agreement")
def test_criterion_3_monomial_chain_with_oracle():
    ring, x, y = xy_ring()
    M = QuotientModule.of_ring(ring)
    N = M.span(((x * x,), (x * y,)))
    m = PrimeIdeal(ring, [x, y])
    px = PrimeIdeal(ring, [x])
    assert gpf(N, M).equals(PrimeMultiset.from_primes([m, px]))

    target = FactorizationTarget([(m, 1), (px, 1)])
    report = check_iff_criterion(target, M)
    assert report.verdict
    mods = report.filtration.modules()
    assert mods[0].equals(ideal_sub(ring, x * x, x * y))
    assert mods[1].equals(ideal_sub(ring, x))
    assert mods[2].equals(M.full())

    fin = FiniteRing(PolyRing(GF(2), ("x", "y")), 3)
    fmod = FiniteModule(fin, 1)
    fx, fy = fin.sym.gen(0), fin.sym.gen(1)
    fN = fmod.closure(
        [
            fmod.flatten([fin.from_poly(fx * fx)]),
            fmod.flatten([fin.from_poly(fx * fy)]),
        ]
    )
    assert ass_bruteforce(fN, fmod) == [(0,), (0, 1)]
    brute = Counter(rpe_bruteforce(fN, fmod))
    symb = Counter({(0, 1): 1, (0,): 1})
    assert brute == symb


_BATTERY = None
_BATTERY_SECS = None


def _random_battery():
    """100 random monomial submodules in 1..3 variables, rank 1..2, with
    their filtrations under both tie-break orders."""
    global _BATTERY, _BATTERY_SECS
    if _BATTERY is not None:
        return _BATTERY
    t0 = time.monotonic()
    rng = random.Random(24601)
    modules = {}
    cases = []
    for _ in range(100):
        nv = rng.randint(1, 3)
        rank = rng.randint(1, 2)
        key = (nv, rank)
        if key not in modules:
            ring = PolyRing(QQ, ("x", "y", "z")[:nv])
            modules[key] = QuotientModule.free(ring, rank)
        M = modules[key]
        N = random_monomial_sub(rng, M)
        lex = rpe_filtration(N, M, tie_break="lex")
        rev = rpe_filtration(N, M, tie_break="revlex")
        cases.append((M, N, lex, rev))
    _BATTERY_SECS = time.monotonic() - t0
    _BATTERY = cases
    return cases


@_criterion(4, "tie-break invariance over a random battery")
def test_criterion_4_tie_break_invariance():
    battery = _random_battery()
    assert len(battery) >= 100
    for M, N, lex, rev in battery:
        assert len(lex.steps) == len(rev.steps), str(N)
        a = PrimeMultiset.from_primes(lex.primes())
        b = PrimeMultiset.from_primes(rev.primes())
        assert a.equals(b), str(N)
    assert _BATTERY_SECS < 60.0


@_criterion(5, "interchange on every adjacent incomparable pair")
def test_criterion_5_interchange_battery():
    battery = _random_battery()
    exercised = 0
    for M, N, lex, rev in battery:
        for filt in (lex, rev):
            primes = filt.primes()
            before = [q.key() for q in primes]
            for i in range(1, len(primes)):
                if not incomparable(primes[i - 1], primes[i]):
                    continue
                swapped = interchange(filt, i)
                assert verify_rpe(swapped)["ok"], str(N)
                back = interchange(swapped, i)
                assert [q.key() for q in back.primes()] == before, str(N)
                exercised += 1
    assert exercised > 0


@_criterion(6, "iff criterion agrees with the factorization")
def test_criterion_6_iff_consistency():
    t0 = time.monotonic()
    rng = random.Random(31337)
    ring = PolyRing(QQ, ("x", "y", "z"))
    M = QuotientModule.of_ring(ring)
    subsets = [
        tuple(s)
        for k in (1, 2, 3)
        for s in itertools.combinations(range(3), k)
    ]
    for _ in range(50):
        picks = rng.sample(subsets, rng.randint(1, 3))
        pairs = [
            (PrimeIdeal.from_variables(ring, s), rng.randint(1, 2))
            for s in picks
        ]
        target = FactorizationTarget.reordered(pairs)
        report = check_iff_criterion(target, M)
        aM = module_scale(target.product_ideal(), M)
        same = gpf(aM, M).equals(target)
        assert report.verdict == same, str(target)
    assert time.monotonic() - t0 < 120.0


def _antichains_of_variable_primes(ring):
    nv = ring.nvars
    subsets = [
        frozenset(s)
        for k in range(1, nv + 1)
        for s in itertools.combinations(range(nv), k)
    ]
    out = []
    for size in (1, 2, 3):
        for combo in itertools.combinations(subsets, size):
            if all(
                not (a <= b or b <= a)
                for a, b in itertools.combinations(combo, 2)
            ):
                out.append(
                    [PrimeIdeal.from_variables(ring, sorted(s)) for s in combo]
                )
    return out


@_criterion(7, "existence of incomparable products")
def test_criterion_7_incomparable_existence():
    ring = PolyRing(QQ, ("x", "y", "z"))
    sets = _antichains_of_variable_primes(ring)
    positives = 0
    for rank in (1, 2):
        M = QuotientModule.free(ring, rank)
        for primes in sets:
            report = exists_incomparable(primes, M)
            assert report.verdict, "{%s}" % ", ".join(map(str, primes))
            recheck = gpf(report.witness, M)
            assert recheck.equals(PrimeMultiset.from_primes(primes))
            positives += 1
    assert positives >= 25

    # A prime outside the support must defeat the test.
    cring, CM, _ = counterexample_module()
    y = cring.gen(1)
    py = PrimeIdeal(cring, [y])
    px = PrimeIdeal(cring, [cring.gen(0)])
    for bad_set in ([py], [px, py]):
        report = exists_incomparable(bad_set, CM)
        assert not report.verdict
        assert report.witness is None


@_criterion(8, "prime power construction and its failure path")
def test_criterion_8_prime_power():
    ring, x, y = xy_ring()
    M = QuotientModule.of_ring(ring)
    m = PrimeIdeal(ring, [x, y])
    N = construct_prime_power(m, 2, M)
    assert N.equals(module_scale(m.power(2), M))
    assert N.equals(ideal_sub(ring, x * x, x * y, y * y))
    assert gpf(N, M).equals(PrimeMultiset([(m, 2)]))

    tring, p, tm, registry = twisted_setup()
    TM = QuotientModule.of_ring(tring)
    with pytest.raises(HypothesisError) as err:
        construct_prime_power(p, 2, TM, candidates=registry)
    assert "not associated" in str(err.value)


@_criterion(9, "oracle equivalence on the bundled fixtures")
def test_criterion_9_oracle_equivalence():
    t0 = time.monotonic()
    report = run_fixture_checks()
    assert report["ok"]
    for fixture in report["fixtures"]:
        assert fixture["ok"], fixture["name"]
        for check in fixture["checks"]:
            assert check["ok"], "%s: %s" % (fixture["name"], check["check"])
    assert len(report["fixtures"]) >= 6
    assert time.monotonic() - t0 < 60.0
