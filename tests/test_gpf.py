import sys

import pytest

from gpfkit import clear_caches
from gpfkit.arith import Polynomial
from gpfkit.errors import HypothesisError
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
    module_scale,
    partial_products,
)
from gpfkit.filtration import rpe_filtration
from gpfkit.primes import PrimeIdeal

from helpers import (
    counterexample_module,
    ideal_sub,
    twisted_setup,
    variable_prime,
    xy_ring,
    xyz_ring,
)


def _xy_primes():
    ring, x, y = xy_ring()
    return (
        ring,
        x,
        y,
        PrimeIdeal(ring, [x]),
        PrimeIdeal(ring, [y]),
        PrimeIdeal(ring, [x, y]),
    )


def test_multiset_merges_and_prints():
    ring, x, y, px, py, m = _xy_primes()
    ms = PrimeMultiset([(m, 1), (px, 1), (m, 1)])
    assert ms.multiplicity(m) == 2
    assert ms.multiplicity(px) == 1
    assert ms.multiplicity(py) == 0
    assert ms.total() == 3
    assert len(ms) == 2
    assert str(ms) == "(x) * (x, y)^2"
    assert ms.equals(PrimeMultiset([(px, 1), (m, 2)]))
    assert not ms.equals(PrimeMultiset.from_primes([px, m]))
    with pytest.raises(ValueError):
        PrimeMultiset([(px, 0)])


def test_target_validation():
    ring, x, y, px, py, m = _xy_primes()
    with pytest.raises(ValueError):
        FactorizationTarget([])
    with pytest.raises(ValueError):
        FactorizationTarget([(px, 0)])
    with pytest.raises(ValueError):
        FactorizationTarget([(px, 1), (px, 2)])
    with pytest.raises(ValueError):
        FactorizationTarget([(px, 1), (m, 1)])
    tgt = FactorizationTarget([(m, 1), (px, 1)])
    assert str(tgt) == "(x, y) * (x)"
    inc = FactorizationTarget([(px, 1), (py, 2)])
    assert str(inc) == "(x) * (y)^2"


def test_target_reordered_puts_large_primes_first():
    ring, x, y, px, py, m = _xy_primes()
    tgt = FactorizationTarget.reordered([(px, 2), (m, 1)])
    assert [str(p) for p in tgt.primes()] == ["(x, y)", "(x)"]
    assert str(tgt) == "(x, y) * (x)^2"
    ties = FactorizationTarget.reordered([(py, 1), (px, 1)])
    assert [str(p) for p in ties.primes()] == ["(x)", "(y)"]


def test_target_products():
    ring, x, y, px, py, m = _xy_primes()
    tgt = FactorizationTarget([(m, 1), (px, 1)])
    assert tgt.product_ideal().equals(
        ideal_sub(ring, x * x, x * y).as_ideal()
    )
    partials = partial_products(tgt.pairs)
    assert len(partials) == 3
    assert partials[0].contains(ring.one())
    assert [str(p) for p in tgt.expanded()] == ["(x, y)", "(x)"]
    assert tgt.equals(PrimeMultiset.from_primes([m, px]))


def test_gpf_monomial_chain_both_tie_breaks():
    """The filtration primes under either tie-break form the multiset
    gpf returns."""
    ring, x, y, px, py, m = _xy_primes()
    M = QuotientModule.of_ring(ring)
    N = M.span(((x * x,), (x * y,)))
    want = PrimeMultiset.from_primes([m, px])
    got = gpf(N, M)
    assert got.equals(want)
    assert str(got) == "(x) * (x, y)"
    for tb in ("lex", "revlex"):
        filt = rpe_filtration(N, M, tie_break=tb)
        assert PrimeMultiset.from_primes(filt.primes()).equals(want)


def test_gpf_counterexample_module():
    ring, M, N = counterexample_module()
    got = gpf(N, M)
    assert sorted(str(p) for p in got.primes()) == ["(x)", "(x, y)"]
    assert got.total() == 2


def test_supp_conditions_fail_on_counterexample():
    """In the counterexample module the first telescoping condition for
    (x, y) * (x) fails, because the scaled module (x) * M is zero, though
    N itself has that factorization: the condition is not necessary."""
    ring, M, N = counterexample_module()
    x, y = ring.gen(0), ring.gen(1)
    m = PrimeIdeal(ring, [x, y])
    px = PrimeIdeal(ring, [x])
    target = FactorizationTarget([(m, 1), (px, 1)])
    report = check_supp_conditions(target, M)
    assert not report.all_hold
    bad = report.first_failure()
    assert bad.index == 1
    assert bad.module_is_zero
    assert "scaled module is zero" in bad.describe()


def test_tail_first_chain_refuses_a_realized_target():
    """Without the support conditions the chain refuses too.  Over
    M = (R/(x))^2, N = ((y, 0)) factors as (x) * (x, y), but the smallest
    (x)-witness is (x) * M = 0, and (x, y) is not associated to the zero
    module it leaves.  The larger (x)-witness ((1, 0)) leads to N, so the
    smallest choice of the tail-first chain is not always the best."""
    ring, M, N = counterexample_module()
    x, y = ring.gen(0), ring.gen(1)
    m = PrimeIdeal(ring, [x, y])
    px = PrimeIdeal(ring, [x])
    assert gpf(N, M).equals(FactorizationTarget([(m, 1), (px, 1)]))
    tail = construct_prime_power(px, 1, M)
    assert tail.equals(M.span(()))
    with pytest.raises(HypothesisError, match="not associated"):
        construct_prime_power(m, 1, M.module_of(tail))
    larger = M.span(((ring.one(), ring.zero()),))
    assert gpf(larger, M).equals(PrimeMultiset([(px, 1)]))
    assert construct_prime_power(m, 1, M.module_of(larger)).equals(N)


def test_supp_conditions_hold_on_ring():
    ring, x, y, px, py, m = _xy_primes()
    M = QuotientModule.of_ring(ring)
    target = FactorizationTarget([(m, 2), (px, 1)])
    report = check_supp_conditions(target, M)
    assert report.all_hold
    assert [c.index for c in report.conditions] == [1, 2]


def test_exists_incomparable_true_with_witness():
    ring, x, y, px, py, m = _xy_primes()
    M = QuotientModule.of_ring(ring)
    report = exists_incomparable([px, py], M)
    assert report.verdict
    assert report.witness is not None
    assert report.witness.equals(ideal_sub(ring, x * y))
    assert report.factors.equals(PrimeMultiset.from_primes([px, py]))
    assert all(c.holds for c in report.conditions)


def test_exists_incomparable_false_outside_support():
    ring, M, N = counterexample_module()
    y = ring.gen(1)
    py = PrimeIdeal(ring, [y])
    report = exists_incomparable([py], M)
    assert not report.verdict
    assert report.witness is None
    assert not report.conditions[0].holds


def test_exists_incomparable_rejects_comparable_input():
    ring, x, y, px, py, m = _xy_primes()
    M = QuotientModule.of_ring(ring)
    with pytest.raises(ValueError):
        exists_incomparable([px, m], M)


def test_exists_incomparable_lets_a_refused_construction_propagate(monkeypatch):
    """Once every prime lies in Supp(M), a refusal by construct_general
    would contradict the localization argument, so exists_incomparable
    raises it rather than answer False."""
    ring, x, y, px, py, m = _xy_primes()
    M = QuotientModule.of_ring(ring)

    def refuse(target, M, candidates):
        raise HypothesisError("refused", index=1)

    monkeypatch.setattr(sys.modules["gpfkit.gpf"], "construct_general", refuse)
    with pytest.raises(HypothesisError, match="refused"):
        exists_incomparable([px, py], M)


def test_construct_prime_power_square_of_maximal():
    ring, x, y, px, py, m = _xy_primes()
    M = QuotientModule.of_ring(ring)
    N = construct_prime_power(m, 2, M)
    assert N.equals(ideal_sub(ring, x * x, x * y, y * y))
    assert gpf(N, M).equals(PrimeMultiset([(m, 2)]))
    with pytest.raises(ValueError):
        construct_prime_power(m, 0, M)


def test_construct_prime_power_needs_association():
    """In the twisted ring p = (x, z) is not associated to pM/p^2M, so
    the p^2 construction refuses with the failed hypothesis."""
    ring, p, m, registry = twisted_setup()
    M = QuotientModule.of_ring(ring)
    with pytest.raises(HypothesisError) as err:
        construct_prime_power(p, 2, M, candidates=registry)
    assert "not associated" in str(err.value)


def test_construct_general_descending_product():
    ring, x, y, px, py, m = _xy_primes()
    M = QuotientModule.of_ring(ring)
    target = FactorizationTarget([(m, 1), (px, 1)])
    N = construct_general(target, M)
    assert N.equals(ideal_sub(ring, x * x, x * y))
    assert gpf(N, M).equals(target)


def test_construct_general_fails_support_precheck():
    ring, p, m, registry = twisted_setup()
    M = QuotientModule.of_ring(ring)
    target = FactorizationTarget([(p, 2)])
    with pytest.raises(HypothesisError) as err:
        construct_general(target, M, candidates=registry)
    assert err.value.index == 1
    assert "support condition" in str(err.value)


def test_check_iff_true_on_monomial_product():
    ring, x, y, px, py, m = _xy_primes()
    M = QuotientModule.of_ring(ring)
    target = FactorizationTarget([(m, 1), (px, 1)])
    report = check_iff_criterion(target, M)
    assert report.verdict
    assert [s.ok for s in report.segments] == [True, True]
    assert report.filtration is not None
    mods = report.filtration.modules()
    assert mods[0].equals(ideal_sub(ring, x * x, x * y))
    assert mods[1].equals(ideal_sub(ring, x))
    assert mods[2].equals(M.full())
    assert gpf(mods[0], M).equals(target)


def test_target_equals_gpf_of_product_when_iff_holds():
    ring, x, y, px, py, m = _xy_primes()
    M = QuotientModule.of_ring(ring)
    target = FactorizationTarget([(m, 2), (px, 1)])
    assert check_iff_criterion(target, M).verdict
    got = gpf(module_scale(target.product_ideal(), M), M)
    assert target.equals(got) and got.equals(target)
    assert str(target) == "(x, y)^2 * (x)"
    assert str(got) == "(x) * (x, y)^2"


def test_check_iff_true_on_prime_square():
    ring, x, y, px, py, m = _xy_primes()
    M = QuotientModule.of_ring(ring)
    report = check_iff_criterion(FactorizationTarget([(m, 2)]), M)
    assert report.verdict
    assert len(report.segments) == 1
    assert len(report.filtration.steps) == 2


def test_check_iff_false_on_twisted_prime_square():
    """p^2 R is not a product of the p's: the first segment shows both
    p and the maximal ideal as associated primes."""
    ring, p, m, registry = twisted_setup()
    M = QuotientModule.of_ring(ring)
    report = check_iff_criterion(
        FactorizationTarget([(p, 2)]), M, candidates=registry
    )
    assert not report.verdict
    assert report.failed_index == 1
    found = sorted(str(q) for q in report.segments[0].found)
    assert found == ["(x, y, z)", "(x, z)"]
    assert report.filtration is None


def test_check_iff_matches_gpf_of_product():
    ring, x, y, px, py, m = _xy_primes()
    M = QuotientModule.of_ring(ring)
    for pairs in ([(m, 1), (px, 1)], [(px, 1), (py, 1)], [(m, 2)]):
        target = FactorizationTarget(pairs)
        report = check_iff_criterion(target, M)
        aM = module_scale(target.product_ideal(), M)
        same = gpf(aM, M).equals(target)
        assert report.verdict == same


def test_monomial_inverse_questions_multiply_no_polynomials(monkeypatch):
    """A guard on the work of the inverse questions over a plain ring,
    which no output test sees: on (x, y)^2 (z) in R^2 the exact criterion,
    the support conditions and the construction take every product, power
    and scaled module off exponents and colon one prime at a time, so no
    two polynomials are multiplied."""
    ring = xyz_ring()[0]
    M = QuotientModule.free(ring, 2)
    target = FactorizationTarget(
        [(variable_prime(ring, 0, 1), 2), (variable_prime(ring, 2), 1)]
    )
    calls = []
    real = Polynomial.__mul__

    def counted(self, other):
        calls.append(other)
        return real(self, other)

    monkeypatch.setattr(Polynomial, "__mul__", counted)
    clear_caches()
    assert check_iff_criterion(target, M).verdict
    assert check_supp_conditions(target, M).all_hold
    N = construct_general(target, M)
    assert calls == []
    monkeypatch.undo()
    assert gpf(N, M).equals(target)
