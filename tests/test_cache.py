"""The bounded memo tables in gpfkit.cache and what they may not change."""

import pytest
from hypothesis import given, settings, strategies as st

from gpfkit import cache, primes
from gpfkit.arith import PolyRing
from gpfkit.cache import LRU, clear_caches
from gpfkit.errors import IncompleteRegistryError, RingMismatchError
from gpfkit.fields import GF, QQ
from gpfkit.gpf import construct_prime_power
from gpfkit.groebner import buchberger
from gpfkit.modops import QuotientModule, module_scale
from gpfkit.primes import (
    ATTEST_LINEAR,
    PrimeIdeal,
    ass_contains,
    ass_enumerate,
)

from helpers import twisted_ring, twisted_setup, xy_ring


@pytest.fixture(autouse=True)
def cold_caches():
    clear_caches()
    yield
    clear_caches()


def _tables():
    return [v for v in vars(cache).values() if isinstance(v, LRU)]


def test_lru_evicts_the_least_recently_used(monkeypatch):
    monkeypatch.setattr(cache, "MAX_ENTRIES", 3)
    lru = LRU()
    for key in "abc":
        lru.put(key, key.upper())
    assert lru.get("a") == "A"  # a is now the most recent
    lru.put("d", "D")
    assert len(lru) == 3
    assert lru.get("b") is None
    assert [lru.get(k) for k in "acd"] == ["A", "C", "D"]
    lru.put("e", "E")  # a is the oldest again
    assert lru.get("a") is None
    assert (lru.hits, lru.misses) == (4, 2)


def test_lru_never_holds_more_than_the_bound(monkeypatch):
    monkeypatch.setattr(cache, "MAX_ENTRIES", 5)
    lru = LRU()
    for i in range(40):
        lru.put(i % 13, i)
        lru.get((i * 7) % 13)
        assert len(lru) <= 5
    assert len(lru) == 5


def test_clear_caches_empties_every_table():
    ring, x, y = xy_ring()
    M = QuotientModule.of_ring(ring)
    # a monomial enumeration builds variable primes, a registry one
    # stores verdicts
    ass_enumerate(M.with_denominator(M.span(((x * x,), (x * y,)))))
    twisted, p, m, registry = twisted_setup()
    T = QuotientModule.of_ring(twisted)
    ass_enumerate(T.with_denominator(T.span([(g,) for g in p.power(2).gens])), registry)
    buchberger([(x * x,)], ring=ring, rank=1)
    tables = _tables()
    assert cache.BASES in tables and cache.ASS_MEMBERS in tables
    assert all(len(t) for t in tables)
    clear_caches()
    assert all(len(t) == 0 and t.hits == t.misses == 0 for t in tables)


def test_each_membership_question_is_computed_once(monkeypatch):
    """Registry verdicts are computed once per (module, prime); monomial
    quotients compute none."""
    calls = []
    compute = primes.ass_membership

    def counting(p, Q):
        calls.append(p.token())
        return compute(p, Q)

    monkeypatch.setattr(primes, "ass_membership", counting)
    ring, p, m, registry = twisted_setup()
    x, y, z = ring.gens()

    def quotient():
        M = QuotientModule.of_ring(ring)
        return M.with_denominator(M.span([(g,) for g in p.power(2).gens]))

    first = [str(q) for q in ass_enumerate(quotient(), registry)]
    assert first == ["(x, y, z)", "(x, z)"]
    made = len(calls)
    assert made == len(registry)
    # a fresh presentation of the same module and primes asks again
    assert [str(q) for q in ass_enumerate(quotient(), registry)] == first
    assert ass_contains(PrimeIdeal(ring, [z, x]), quotient())
    assert len(calls) == made
    plain, x, y = xy_ring()
    M = QuotientModule.of_ring(plain)
    Q = M.with_denominator(M.span(((x * x,), (x * y,))))
    assert [str(q) for q in ass_enumerate(Q)] == ["(x)", "(x, y)"]
    assert ass_contains(PrimeIdeal(plain, [y, x]), Q)
    assert len(calls) == made


def test_prime_power_construction_reads_the_cached_verdict(monkeypatch):
    """construct_prime_power asks ass_contains whether m is associated to
    m^{r-1}M / m^r M; over the twisted ring a verdict already cached is not
    computed again."""
    ring, p, m, registry = twisted_setup()
    M = QuotientModule.of_ring(ring)
    Q = M.module_of(module_scale(m, M)).with_denominator(
        module_scale(m.power(2), M)
    )
    assert ass_contains(m, Q)
    compute = primes.ass_membership
    repeats = []

    def counting(q, quotient):
        if (q.key(), quotient.key()) == (m.key(), Q.key()):
            repeats.append(q.token())
        return compute(q, quotient)

    monkeypatch.setattr(primes, "ass_membership", counting)
    N = construct_prime_power(m, 2, M, candidates=registry)
    assert N.equals(module_scale(m.power(2), M))
    assert repeats == []


def _shape(found):
    return (
        [str(p) for p in found],
        [p.attestation for p in found],
        found.complete,
        found.key(),
    )


@st.composite
def monomial_cases(draw):
    """A monomial quotient over QQ or F_5 with no candidates."""
    field = draw(st.sampled_from([QQ, GF(5)]))
    nvars = draw(st.integers(2, 4))
    rank = draw(st.sampled_from([1, 2]))
    ring = PolyRing(field, ("x", "y", "z", "u")[:nvars])

    def vectors(lo, hi):
        out = []
        for _ in range(draw(st.integers(lo, hi))):
            exps = draw(st.tuples(*[st.integers(0, 2)] * nvars))
            vec = [ring.zero()] * rank
            vec[draw(st.integers(0, rank - 1))] = ring.monomial(exps)
            out.append(tuple(vec))
        return out

    M = QuotientModule.free(ring, rank, vectors(0, 2))
    if draw(st.booleans()):
        return M.with_denominator(M.span(vectors(1, 3))), None
    upper = M.span(vectors(1, 2))
    return M.module_of(upper).with_denominator(M.span(vectors(0, 2))), None


@st.composite
def registry_cases(draw):
    """A quotient of the binomial quotient ring with its candidate set."""
    ring, p, m, registry = twisted_setup()
    x, y, z = ring.gens()
    pool = [x * x, x * z, y * z, z * z, y * y, x * y + z * z, y]
    M = QuotientModule.of_ring(ring)
    gens = draw(st.lists(st.sampled_from(pool), min_size=1, max_size=3))
    return M.with_denominator(M.span([(g,) for g in gens])), registry


@settings(max_examples=25, deadline=None)
@given(st.lists(st.one_of(monomial_cases(), registry_cases()), min_size=1, max_size=3))
def test_warm_caches_give_the_cold_answer(cases):
    """Quotients enumerated one after another share the tables; each
    answer, first or repeated, is the one a cold start gives."""
    clear_caches()
    first = [ass_enumerate(Q, candidates) for Q, candidates in cases]
    misses = cache.ASS_MEMBERS.misses
    again = [ass_enumerate(Q, candidates) for Q, candidates in cases]
    assert cache.ASS_MEMBERS.misses == misses  # nothing computed again
    cold = []
    for Q, candidates in cases:
        clear_caches()
        cold.append(ass_enumerate(Q, candidates))
    want = [_shape(found) for found in cold]
    assert [_shape(found) for found in first] == want
    assert [_shape(found) for found in again] == want


def test_quotients_sharing_a_part_are_told_apart():
    """R/(x^2, xy), its submodules (x) and (y) over the same denominator,
    and R/(x^2): equal denominators or equal tops, different answers."""
    ring, x, y = xy_ring()
    M = QuotientModule.of_ring(ring)
    N = M.span(((x * x,), (x * y,)))
    quotients = [
        M.with_denominator(N),
        M.module_of(M.span(((x,),))).with_denominator(N),
        M.module_of(M.span(((y,),))).with_denominator(N),
        M.with_denominator(M.span(((x * x,),))),
    ]
    want = [["(x)", "(x, y)"], ["(x, y)"], ["(x)"], ["(x)"]]
    for _ in range(2):
        assert [[str(p) for p in ass_enumerate(Q)] for Q in quotients] == want


def test_registries_keep_their_own_primes():
    """Equal keys, different generators: the cache holds verdicts only,
    so each candidate sequence gets its own prime objects back."""
    ring, p, m, registry = twisted_setup()
    x, y, z = ring.gens()
    M = QuotientModule.of_ring(ring)
    Q = M.module_of(M.span([(x,), (z,)])).with_denominator(
        M.span([(g,) for g in p.power(2).gens])
    )
    mine = (PrimeIdeal(ring, [z, x]), PrimeIdeal(ring, [x + y, y, z]))
    first = ass_enumerate(Q, registry)
    misses = cache.ASS_MEMBERS.misses
    second = ass_enumerate(Q, mine)
    assert cache.ASS_MEMBERS.misses == misses  # answered from the cache
    assert [str(q) for q in first] == [str(q) for q in second] == ["(x, y, z)"]
    assert first.primes[0] is m
    assert second.primes[0] is mine[1]
    assert [str(g) for g in second.primes[0].gens] == ["x + y", "y", "z"]


def test_prime_over_another_ring_still_raises_after_a_hit():
    ring, x, y = xy_ring()
    M = QuotientModule.of_ring(ring)
    Q = M.with_denominator(M.span(((x * x,), (x * y,))))
    assert ass_contains(PrimeIdeal(ring, [x]), Q)
    other = PolyRing(GF(5), ("x", "y"))
    stranger = PrimeIdeal(other, [other.gen(0)])
    assert stranger.key() == PrimeIdeal(ring, [x]).key()
    with pytest.raises(RingMismatchError):
        ass_contains(stranger, Q)
    with pytest.raises(RingMismatchError):
        ass_contains(PrimeIdeal(twisted_ring(), [twisted_ring().gen(0)]), Q)


def test_non_monomial_presentation_still_needs_a_registry():
    ring, x, y = xy_ring()
    M = QuotientModule.of_ring(ring)
    monomial_q = M.with_denominator(M.span(((x * x,), (x * y,))))
    mixed_q = M.with_denominator(M.span(((x * x + x * y,), (x * y,))))
    assert mixed_q.key() == monomial_q.key()
    assert len(ass_enumerate(monomial_q)) == 2
    with pytest.raises(IncompleteRegistryError):
        ass_enumerate(mixed_q)


def test_variable_primes_are_built_once_per_ring_and_support(monkeypatch):
    """Monomial enumerations share one candidate prime per ring and
    variable support: another presentation of the same quotient builds
    none, another ring builds its own, and each candidate has the
    attestation and the basis a prime built from its variables has."""
    built = []
    init = PrimeIdeal.__init__

    def counting(self, *args, **kwargs):
        built.append(args[0])
        init(self, *args, **kwargs)

    monkeypatch.setattr(PrimeIdeal, "__init__", counting)

    def enumerate_over(ring, *gens):
        x, y = ring.gen(0), ring.gen(1)
        M = QuotientModule.of_ring(ring)
        Q = M.with_denominator(M.span([(g(x, y),) for g in gens]))
        return list(ass_enumerate(Q))

    ring = xy_ring()[0]
    first = enumerate_over(ring, lambda x, y: x * x, lambda x, y: x * y)
    made = len(built)
    assert made == 2 and len(cache.VARIABLE_PRIMES) == 2
    again = enumerate_over(ring, lambda x, y: x * y, lambda x, y: 3 * x * x)
    assert len(built) == made
    assert all(p is q for p, q in zip(first, again))
    other = PolyRing(GF(5), ("x", "y"))
    there = enumerate_over(other, lambda x, y: x * x, lambda x, y: x * y)
    assert built[made:] == [other, other]
    assert [p.ring for p in there] == [other, other]
    assert [str(p) for p in first] == [str(p) for p in there] == ["(x)", "(x, y)"]
    for p in first + there:
        ref = buchberger([(g,) for g in p.gens], ring=p.ring, rank=1)
        assert p.as_submodule().groebner().key() == ref.key()
        assert p.attestation == ATTEST_LINEAR
