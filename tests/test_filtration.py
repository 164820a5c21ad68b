import importlib
import random

import pytest
from hypothesis import given, settings, strategies as st

from gpfkit import clear_caches, filtration, modops, primes
from gpfkit.arith import PolyRing
from gpfkit.errors import BudgetError, HypothesisError, VerificationError
from gpfkit.filtration import (
    Filtration,
    PrimeExtensionStep,
    colon_chain,
    interchange,
    require_ok,
    rpe_filtration,
    verify_rpe,
    verify_step,
)
from gpfkit.fields import GF, QQ
from gpfkit.modops import QuotientModule, colon_module, module_scale, partial_products
from gpfkit.primes import PrimeIdeal, ass_enumerate

from helpers import (
    counterexample_module,
    ideal_sub,
    random_monomial_sub,
    twisted_setup,
    xy_ring,
)


def test_rpe_monomial_chain():
    ring, x, y = xy_ring()
    M = QuotientModule.of_ring(ring)
    N = M.span(((x * x,), (x * y,)))
    filt = rpe_filtration(N, M)
    assert [str(p) for p in filt.primes()] == ["(x, y)", "(x)"]
    assert len(filt.modules()) == 3
    assert filt.modules()[0].equals(N)
    assert filt.modules()[-1].equals(M.full())
    assert filt.modules()[1].equals(ideal_sub(ring, x))


def test_rpe_maximal_square():
    ring, x, y = xy_ring()
    M = QuotientModule.of_ring(ring)
    N = M.span(((x * x,), (x * y,), (y * y,)))
    filt = rpe_filtration(N, M)
    assert [str(p) for p in filt.primes()] == ["(x, y)", "(x, y)"]


def test_rpe_two_lines():
    ring, x, y = xy_ring()
    M = QuotientModule.of_ring(ring)
    N = M.span(((x * y,),))
    filt = rpe_filtration(N, M)
    assert sorted(str(p) for p in filt.primes()) == ["(x)", "(y)"]


def test_rpe_counterexample_module():
    ring, M, N = counterexample_module()
    filt = rpe_filtration(N, M)
    assert [str(p) for p in filt.primes()] == ["(x, y)", "(x)"]


def test_rpe_requires_proper_submodule():
    ring, x, y = xy_ring()
    M = QuotientModule.of_ring(ring)
    with pytest.raises(VerificationError):
        rpe_filtration(M.full(), M)


def test_verify_rpe_passes_on_construction():
    ring, x, y = xy_ring()
    M = QuotientModule.of_ring(ring)
    N = M.span(((x * x,), (x * y,)))
    filt = rpe_filtration(N, M)
    report = verify_rpe(filt)
    assert report["ok"] and report["problems"] == []
    assert [s["index"] for s in report["steps"]] == [1, 2]
    for step in report["steps"]:
        assert step["checked"] == ["prime_extension", "maximal", "regular"]


def test_colon_chain_matches_filtration():
    ring, x, y = xy_ring()
    M = QuotientModule.of_ring(ring)
    N = M.span(((x * x,), (x * y,)))
    filt = rpe_filtration(N, M)
    chain = colon_chain(N, filt.primes(), M)
    assert len(chain) == len(filt.modules())
    for ours, theirs in zip(chain, filt.modules()):
        assert ours.equals(theirs)


@st.composite
def colon_chain_inputs(draw):
    """(N, primes, M) over QQ[x,y,z], F_5[x,y,z] or the binomial quotient
    QQ[x,y,z]/(xy - z^2, x^2 - yz): M free of rank 1 or 2 modulo up to two
    monomial vectors, N spanned by one to three monomial vectors, and one
    to three primes, repeats allowed."""
    kind = draw(st.sampled_from(["QQ", "GF5", "twisted"]))
    if kind == "twisted":
        ring, p, m, _ = twisted_setup()
        pool = [p, m]
    else:
        ring = PolyRing(QQ if kind == "QQ" else GF(5), ("x", "y", "z"))
        pool = [PrimeIdeal.from_variables(ring, s) for s in ([0], [1, 2], [0, 1, 2])]
    rank = draw(st.integers(1, 2))
    exps = st.tuples(*[st.integers(0, 2)] * 3)

    def vectors(lo, hi):
        out = []
        for _ in range(draw(st.integers(lo, hi))):
            vec = [ring.zero()] * rank
            vec[draw(st.integers(0, rank - 1))] = ring.monomial(draw(exps))
            out.append(tuple(vec))
        return out

    M = QuotientModule.free(ring, rank, vectors(0, 2))
    primes = draw(st.lists(st.sampled_from(pool), min_size=1, max_size=3))
    return M.span(vectors(1, 3)), primes, M


@settings(max_examples=30, deadline=None)
@given(colon_chain_inputs())
def test_colon_chain_matches_the_partial_product_colons(case):
    """Coloning one prime at a time gives the colons by the partial
    products: (N : IJ) = ((N : I) : J)."""
    N, primes, M = case
    chain = colon_chain(N, primes, M)
    partials = partial_products([(p, 1) for p in primes])
    assert [c.key() for c in chain] == [colon_module(N, a, M).key() for a in partials]


def test_interchange_swaps_incomparable_neighbors():
    ring, x, y = xy_ring()
    M = QuotientModule.of_ring(ring)
    N = M.span(((x * y,),))
    filt = rpe_filtration(N, M)
    p1, p2 = filt.primes()
    swapped = interchange(filt, 1)
    assert [q.key() for q in swapped.primes()] == [p2.key(), p1.key()]
    assert verify_rpe(swapped)["ok"]
    assert swapped.modules()[0].equals(filt.modules()[0])
    assert swapped.modules()[-1].equals(filt.modules()[-1])
    back = interchange(swapped, 1)
    assert [q.key() for q in back.primes()] == [p1.key(), p2.key()]
    for ours, theirs in zip(back.modules(), filt.modules()):
        assert ours.equals(theirs)


def test_interchange_rejects_nested_pair():
    """The swap hypothesis is one-sided: the later prime must not sit
    inside the earlier one."""
    ring, x, y = xy_ring()
    M = QuotientModule.of_ring(ring)
    N = M.span(((x * x,), (x * y,)))
    filt = rpe_filtration(N, M)
    assert filt.primes()[1].strictly_contains(filt.primes()[0]) is False
    assert filt.primes()[0].strictly_contains(filt.primes()[1])
    with pytest.raises(HypothesisError):
        interchange(filt, 1)


def test_rpe_rejects_a_bad_tie_break_on_entry(monkeypatch):
    """An unknown tie-break is refused before Ass(M/N) is enumerated."""
    scans = []
    monkeypatch.setattr(filtration, "ass_enumerate", lambda *a, **k: scans.append(a))
    ring, x, y = xy_ring()
    M = QuotientModule.of_ring(ring)
    with pytest.raises(ValueError):
        rpe_filtration(M.span(((x * y,),)), M, tie_break="bogus")
    assert scans == []


def test_interchange_index_bounds():
    ring, x, y = xy_ring()
    M = QuotientModule.of_ring(ring)
    filt = rpe_filtration(M.span(((x * y,),)), M)
    with pytest.raises(ValueError):
        interchange(filt, 0)
    with pytest.raises(ValueError):
        interchange(filt, 2)


def test_verify_step_flags_a_non_maximal_prime():
    """Over N = (x^2, xy), Ass(R/N) = {(x), (x, y)}.  The full colon
    (N : (x)) = (x, y) is a maximal step, but (x) is not maximal in Ass(R/N)
    and (x, y)/N has both primes, so it fails the prime extension and
    regularity checks only; by (x, y) the step fails none, and a step from
    N to N is not proper."""
    ring, x, y = xy_ring()
    M = QuotientModule.of_ring(ring)
    N = M.span(((x * x,), (x * y,)))
    px = PrimeIdeal(ring, [x])
    m = PrimeIdeal(ring, [x, y])
    upper = colon_module(N, px, M)
    assert upper.equals(ideal_sub(ring, x, y))
    assert verify_step(N, upper, px, M) == [
        "Ass(upper/lower) is {(x), (x, y)}, not {(x)}",
        "prime is not maximal in Ass(M/lower) = {(x), (x, y)}",
    ]
    assert verify_step(N, colon_module(N, m, M), m, M) == []
    assert verify_step(N, N, m, M) == ["step is not proper"]


def test_require_ok_names_every_problem():
    """A chain that fails verify_rpe is refused with each problem in the
    message: here one step N < (x) by (y), which does not reach R."""
    ring, x, y = xy_ring()
    M = QuotientModule.of_ring(ring)
    N = M.span(((x * x,), (x * y,)))
    step = PrimeExtensionStep(N, M.span(((x,),)), PrimeIdeal(ring, [y]))
    report = verify_rpe(Filtration(M, N, (step,)))
    assert not report["ok"]
    with pytest.raises(VerificationError) as err:
        require_ok(report)
    assert str(err.value) == (
        "filtration failed verification: step 1: colon ideal of the step is "
        "(x, y), not (y); step 1: prime is not maximal in Ass(M/lower) = "
        "{(x), (x, y)}; chain does not reach the whole module"
    )
    assert require_ok(verify_rpe(rpe_filtration(N, M)))["ok"]


def test_verify_step_regularity_needs_an_associated_prime():
    """A prime outside Ass(M/lower) = {(x), (x, y)} is not regular, whether
    a member contains it, as (x, y) contains (y), or none does, as for
    (x, y - 1).  (x^2, xy) < (x) is the full colon by (y), and its colon
    ideal is (x, y), so it is a prime extension by neither."""
    ring, x, y = xy_ring()
    M = QuotientModule.of_ring(ring)
    N = M.span(((x * x,), (x * y,)))
    upper = M.span(((x,),))
    py = PrimeIdeal(ring, [y])
    assert upper.equals(colon_module(N, py, M))
    for prime in (py, PrimeIdeal(ring, [x, y - ring.one()])):
        maximal = [] if prime is py else [
            "upper is not the full colon (lower : prime) in M"
        ]
        assert verify_step(N, upper, prime, M) == [
            "colon ideal of the step is (x, y), not %s" % prime,
            *maximal,
            "prime is not maximal in Ass(M/lower) = {(x), (x, y)}",
        ]


def test_rpe_respects_step_budget(monkeypatch):
    """A filtration of n steps passes at MAX_STEPS = n and is refused,
    naming the bound, at n - 1."""
    ring, x, y = xy_ring()
    M = QuotientModule.of_ring(ring)
    N = M.span(((x * x * x,), (x * y,), (y * y * y,)))
    n = len(rpe_filtration(N, M))
    monkeypatch.setattr(filtration, "MAX_STEPS", n)
    filt = rpe_filtration(N, M)
    assert verify_rpe(filt)["ok"]
    monkeypatch.setattr(filtration, "MAX_STEPS", n - 1)
    with pytest.raises(BudgetError, match="within %d steps" % (n - 1)):
        rpe_filtration(N, M)


def test_filtration_primes_are_the_associated_primes():
    """The set (not multiset) of primes along the chain equals Ass(M/N)."""
    rng = random.Random(20260815)
    ring, x, y = xy_ring()
    M = QuotientModule.of_ring(ring)
    for _ in range(12):
        N = random_monomial_sub(rng, M)
        filt = rpe_filtration(N, M)
        chain_set = sorted({p.token() for p in filt.primes()})
        ass = ass_enumerate(M.with_denominator(N))
        assert chain_set == sorted(p.token() for p in ass)


def test_twisted_verify_with_registry():
    ring, p, m, registry = twisted_setup()
    M = QuotientModule.of_ring(ring)
    N = M.span([(g,) for g in p.gens])
    filt = rpe_filtration(N, M, candidates=registry)
    assert filt.candidates is registry
    report = verify_rpe(filt)
    assert report["ok"]


def test_monomial_filtration_work_is_pinned(monkeypatch):
    """A guard on the work of a criterion-6 filtration, (x, y)^2 (x) over
    QQ[x,y,z], which no output test sees: every associated prime is read
    off exponents, so no membership is tested, and building and then
    verifying the filtration make exactly these colons."""
    gpf_module = importlib.import_module("gpfkit.gpf")
    calls = dict.fromkeys(("colon_module", "colon_ideal", "ass_membership"), 0)
    for name in calls:
        for module in (modops, filtration, primes, gpf_module):
            real = getattr(module, name, None)
            if real is None:
                continue

            def counted(*args, _real=real, _name=name):
                calls[_name] += 1
                return _real(*args)

            monkeypatch.setattr(module, name, counted)
    ring = PolyRing(QQ, ("x", "y", "z"))
    x, y, z = ring.gens()
    M = QuotientModule.of_ring(ring)
    m = PrimeIdeal(ring, [x, y])
    aM = module_scale(m.power(2).product(PrimeIdeal(ring, [x])), M)
    clear_caches()
    filt = rpe_filtration(aM, M)
    assert [str(p) for p in filt.primes()] == ["(x, y)", "(x, y)", "(x)"]
    assert calls == {"colon_module": 3, "colon_ideal": 0, "ass_membership": 0}
    assert verify_rpe(filt)["ok"]
    assert calls == {"colon_module": 6, "colon_ideal": 3, "ass_membership": 0}
