import pytest

from gpfkit.errors import (
    BudgetError,
    IncompleteRegistryError,
    RingMismatchError,
)
from gpfkit.modops import Ideal, QuotientModule
from gpfkit.primes import (
    ATTEST_ASSUMED,
    ATTEST_MONOMIAL,
    MONOMIAL,
    CandidateRegistry,
    PrimeIdeal,
    PrimeSet,
    ass_contains,
    ass_enumerate,
    ass_membership,
    incomparable,
    is_maximal_in,
    sort_primes,
    supp_contains,
)
from gpfkit.arith import PolyRing
from gpfkit.fields import QQ

from helpers import (
    counterexample_module,
    twisted_ring,
    twisted_setup,
    xy_ring,
    xyz_ring,
)


def test_attestation_monomial_over_plain_ring():
    ring, x, y = xy_ring()
    p = PrimeIdeal(ring, [x])
    assert p.attestation == ATTEST_MONOMIAL
    q = PrimeIdeal(ring, [x + y * y])
    assert q.attestation == ATTEST_ASSUMED


@pytest.mark.parametrize("ring_kind", ["xyz", "twisted"])
def test_prime_ideal_is_an_ideal(ring_kind):
    """A prime answers equals, contains_ideal and strictly_contains as the
    plain ideal of its generators does, on either side of the call."""
    ring = xyz_ring()[0] if ring_kind == "xyz" else twisted_ring()
    x, y, z = ring.gens()
    p = PrimeIdeal(ring, [x, z])
    twin = Ideal(ring, [z, x])
    assert isinstance(p, Ideal)
    assert p.ideal is p
    others = (
        Ideal(ring, [x, z]),
        Ideal(ring, [x]),
        Ideal(ring, [x, y, z]),
        Ideal(ring, [z * z, x * y]),
        PrimeIdeal(ring, [x]),
        PrimeIdeal(ring, [x, y, z]),
        PrimeIdeal(ring, [y]),
    )
    for other in others:
        assert p.equals(other) == other.equals(p) == twin.equals(other)
        assert p.contains_ideal(other) == twin.contains_ideal(other)
        assert other.contains_ideal(p) == other.contains_ideal(twin)
        assert p.strictly_contains(other) == twin.strictly_contains(other)
        assert other.strictly_contains(p) == other.strictly_contains(twin)
    assert p.equals(twin) and twin.equals(p)
    assert p.strictly_contains(PrimeIdeal(ring, [x]))
    assert PrimeIdeal(ring, [x, y, z]).strictly_contains(p)


def test_attestation_monomial_over_quotient():
    """Variable-generated ideals stay verified when every relation
    vanishes modulo the chosen variables."""
    ring, p, m, _ = twisted_setup()
    assert p.attestation == ATTEST_MONOMIAL
    assert m.attestation == ATTEST_MONOMIAL


def test_claimed_monomial_attestation_is_checked():
    ring, x, y = xy_ring()
    with pytest.raises(ValueError):
        PrimeIdeal(ring, [x * x], attestation=ATTEST_MONOMIAL)


def test_prime_ordering_and_containment():
    ring, x, y = xy_ring()
    px = PrimeIdeal(ring, [x])
    py = PrimeIdeal(ring, [y])
    m = PrimeIdeal(ring, [x, y])
    assert m.strictly_contains(px)
    assert not px.strictly_contains(m)
    assert incomparable(px, py)
    assert not incomparable(px, m)
    assert str(m) == "(x, y)"
    assert px.token() == ("x",)


def test_prime_set_dedup_and_extremes():
    ring, x, y = xy_ring()
    px = PrimeIdeal(ring, [x])
    px2 = PrimeIdeal(ring, [x, x * y])
    m = PrimeIdeal(ring, [x, y])
    s = PrimeSet([m, px, px2])
    assert len(list(s)) == 2
    assert [str(p) for p in s.maximal_elements()] == ["(x, y)"]
    assert [str(p) for p in s.minimal_elements()] == ["(x)"]
    assert not s.is_antichain()
    assert PrimeSet([px, PrimeIdeal(ring, [y])]).is_antichain()


def test_is_maximal_in_requires_membership():
    ring, x, y = xy_ring()
    px = PrimeIdeal(ring, [x])
    m = PrimeIdeal(ring, [x, y])
    s = PrimeSet([px, m])
    assert is_maximal_in(m, s)
    assert not is_maximal_in(px, s)
    with pytest.raises(ValueError):
        is_maximal_in(PrimeIdeal(ring, [y]), s)


def test_sort_primes_tie_breaks():
    ring, x, y = xy_ring()
    px = PrimeIdeal(ring, [x])
    py = PrimeIdeal(ring, [y])
    assert [str(p) for p in sort_primes([py, px], "lex")] == ["(x)", "(y)"]
    assert [str(p) for p in sort_primes([py, px], "revlex")] == ["(y)", "(x)"]
    with pytest.raises(ValueError):
        sort_primes([px], "random")


def test_ass_membership_monomial_chain():
    ring, x, y = xy_ring()
    M = QuotientModule.of_ring(ring)
    N = M.span(((x * x,), (x * y,)))
    Q = M.with_denominator(N)
    ev = ass_membership(PrimeIdeal(ring, [x]), Q)
    assert ev.member
    assert ev.ann is not None and not ev.colon.equals(Q.span(()))
    assert ass_membership(PrimeIdeal(ring, [x, y]), Q).member
    assert not ass_membership(PrimeIdeal(ring, [y]), Q).member


def test_ass_contains_on_twisted_segment():
    """In the twisted ring, p/p^2 has the maximal ideal associated but
    not p itself."""
    ring, p, m, registry = twisted_setup()
    M = QuotientModule.of_ring(ring)
    from gpfkit.modops import ideal_power

    p2 = ideal_power(p.ideal, 2)
    psub = M.span([(g,) for g in p.ideal.gens])
    Q = M.module_of(psub).with_denominator(M.span([(g,) for g in p2.gens]))
    assert ass_contains(m, Q)
    assert not ass_contains(p, Q)


def test_ass_enumerate_monomial_cases():
    ring, x, y = xy_ring()
    M = QuotientModule.of_ring(ring)
    N = M.span(((x * x,), (x * y,)))
    found = ass_enumerate(M.with_denominator(N))
    assert found.complete
    assert sorted(str(p) for p in found) == ["(x)", "(x, y)"]
    only = ass_enumerate(M.with_denominator(M.span(((x * y,),))))
    assert sorted(str(p) for p in only) == ["(x)", "(y)"]


def test_ass_enumerate_counterexample_module():
    ring, M, N = counterexample_module()
    found = ass_enumerate(M.with_denominator(N))
    assert sorted(str(p) for p in found) == ["(x)", "(x, y)"]


def test_ass_enumerate_needs_monomial_or_registry():
    ring, p, m, registry = twisted_setup()
    M = QuotientModule.of_ring(ring)
    from gpfkit.modops import ideal_power

    p2 = ideal_power(p.ideal, 2)
    Q = M.with_denominator(M.span([(g,) for g in p2.gens]))
    with pytest.raises(IncompleteRegistryError):
        ass_enumerate(Q)
    found = ass_enumerate(Q, source=registry)
    assert not found.complete
    assert sorted(str(q) for q in found) == ["(x, y, z)", "(x, z)"]


def test_registry_rejects_foreign_primes():
    ring, x, y = xy_ring()
    other = PolyRing(QQ, ("a", "b"))
    p = PrimeIdeal(ring, [x])
    q = PrimeIdeal(other, [other.gen(0)])
    with pytest.raises(RingMismatchError):
        CandidateRegistry([p, q])


def test_ass_enumerate_budget_guard():
    names = tuple("x%d" % i for i in range(15))
    ring = PolyRing(QQ, names)
    M = QuotientModule.of_ring(ring)
    N = M.span(((ring.gen(0),),))
    with pytest.raises(BudgetError):
        ass_enumerate(M.with_denominator(N))


def test_supp_contains_annihilator_test():
    ring, M, N = counterexample_module()
    x, y = ring.gen(0), ring.gen(1)
    view = QuotientModule(M.full(), M.span(()))
    assert supp_contains(PrimeIdeal(ring, [x]), view)
    assert supp_contains(PrimeIdeal(ring, [x, y]), view)
    assert not supp_contains(PrimeIdeal(ring, [y]), view)
