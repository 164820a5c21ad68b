import itertools
import logging

import pytest
from hypothesis import example, given, settings, strategies as st

from gpfkit.errors import (
    BudgetError,
    IncompleteRegistryError,
    RingMismatchError,
)
from gpfkit import monomial, primes
from gpfkit.cache import clear_caches
from gpfkit.modops import Ideal, QuotientModule
from gpfkit.primes import (
    ATTEST_ASSUMED,
    ATTEST_LINEAR,
    PrimeIdeal,
    PrimeSet,
    ass_contains,
    ass_enumerate,
    ass_membership,
    incomparable,
    supp_contains,
)
from gpfkit.arith import PolyRing
from gpfkit.fields import GF, QQ

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
    assert p.attestation == ATTEST_LINEAR
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
    """(x, z) and (x, y, z) contain the twisted cubic's relations, so the
    basis of p + J is p's own: variables."""
    ring, p, m, _ = twisted_setup()
    assert p.attestation == ATTEST_LINEAR
    assert m.attestation == ATTEST_LINEAR


def _twisted(x, y, z):
    return (x * y - z * z, x * x - y * z)


# (id, variables, relations, generators, whether S/(p + J) is attested a
# domain), relations and generators as functions of the variables.
ATTESTATION_CASES = [
    ("affine-line", "xyz", None, lambda x, y, z: [x - 1, y - z], True),
    ("twisted-point", "xyz", _twisted, lambda x, y, z: [x - 1, y - 1, z - 1], True),
    ("xy-branch-point", "xy", lambda x, y: (x * y,), lambda x, y: [x - 1], True),
    # over QQ[x,y,z]/(x) the variable x is zero and drops out of the
    # canonical generators, yet every residue ring is a polynomial ring
    ("x-zero-(x)", "xyz", lambda x, y, z: (x,), lambda x, y, z: [x], True),
    ("x-zero-(x,y)", "xyz", lambda x, y, z: (x,), lambda x, y, z: [x, y], True),
    ("x-zero-(y)", "xyz", lambda x, y, z: (x,), lambda x, y, z: [y], True),
    ("x-zero-(y,z)", "xyz", lambda x, y, z: (x,), lambda x, y, z: [y, z], True),
    ("unit", "xy", None, lambda x, y: [x, y - 1, x + 1], False),
    ("xy-cusp", "xy", lambda x, y: (x * y,), lambda x, y: [x - y * y], False),
    ("xy-(x^2)", "xy", lambda x, y: (x * y,), lambda x, y: [x * x], False),
    ("xy-(xy)", "xy", lambda x, y: (x * y,), lambda x, y: [x * y], False),
    ("xy-(0)", "xy", lambda x, y: (x * y,), lambda x, y: [], False),
    # p + J is the unit ideal: (1, 2, 3) is not on the twisted cubic
    ("twisted-off-curve", "xyz", _twisted, lambda x, y, z: [x - 1, y - 2, z - 3], False),
    # a relation is left over modulo the variables
    ("x,yz-(0)", "xyz", lambda x, y, z: (x, y * z), lambda x, y, z: [], False),
    ("xy-(z)", "xyz", lambda x, y, z: (x * y,), lambda x, y, z: [z], False),
]


@pytest.mark.parametrize(
    "names, relations, gens, linear",
    [pytest.param(*case[1:], id=case[0]) for case in ATTESTATION_CASES],
)
def test_attestation_reads_the_basis_of_p_plus_relations(names, relations, gens, linear):
    """A prime is attested exactly when every entry of the reduced basis
    of p + J leads with a variable."""
    plain = PolyRing(QQ, tuple(names))
    rels = relations(*plain.gens()) if relations else ()
    ring = PolyRing(QQ, plain.names, relations=rels)
    gens = gens(*ring.gens())
    p = PrimeIdeal(ring, gens)
    assert p.attestation == (ATTEST_LINEAR if linear else ATTEST_ASSUMED)


@st.composite
def affine_images(draw):
    """A variable prime (x_i : i in S) and its image under a triangular
    affine automorphism x_i -> x_i + l_i(x_j : j > i) + c_i of k[x_1..x_m],
    over QQ or GF(5).  An automorphism maps primes to primes, so the image
    is prime whatever rule attests it."""
    field = draw(st.sampled_from([QQ, GF(5)]))
    m = draw(st.integers(1, 4))
    ring = PolyRing(field, ("x", "y", "z", "u")[:m])
    xs = ring.gens()
    coeff = st.integers(-3, 3)
    image = [
        xs[i] + sum((draw(coeff) * xs[j] for j in range(i + 1, m)), ring.zero())
        + draw(coeff)
        for i in range(m)
    ]
    support = draw(st.sets(st.integers(0, m - 1)))
    return ring, [image[i] for i in sorted(support)]


@settings(max_examples=60, deadline=None)
@given(affine_images())
def test_affine_images_of_variable_primes_are_attested(case):
    ring, gens = case
    p = PrimeIdeal(ring, gens)
    assert p.attestation == ATTEST_LINEAR
    assert len(p.canonical_gens()) == len(gens)


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
    antichain = PrimeSet([PrimeIdeal(ring, [y]), px])
    assert [str(p) for p in antichain.maximal_elements()] == ["(x)", "(y)"]


def test_ass_membership_monomial_chain():
    ring, x, y = xy_ring()
    M = QuotientModule.of_ring(ring)
    N = M.span(((x * x,), (x * y,)))
    Q = M.with_denominator(N)
    assert ass_membership(PrimeIdeal(ring, [x]), Q)
    assert ass_membership(PrimeIdeal(ring, [x, y]), Q)
    assert not ass_membership(PrimeIdeal(ring, [y]), Q)


def test_candidate_outside_the_support_needs_no_colon(monkeypatch):
    """Over the twisted ring R/(y) is QQ[x,z]/(x^2, z^2): (x, z) does
    not contain y, so it lies outside Supp(R/(y)) and is refused before
    any colon, while the maximal ideal is tested through one."""
    ring, p, m, registry = twisted_setup()
    M = QuotientModule.of_ring(ring)
    Q = M.with_denominator(M.span([(ring.gen(1),)]))
    colons = _count_calls(monkeypatch, primes, "colon_module")
    assert not supp_contains(p, Q)
    assert not ass_membership(p, Q)
    assert colons == []
    assert ass_membership(m, Q)
    assert len(colons) == 1


def test_ass_contains_on_twisted_segment():
    """In the twisted ring, p/p^2 has the maximal ideal associated but
    not p itself."""
    ring, p, m, registry = twisted_setup()
    M = QuotientModule.of_ring(ring)

    p2 = p.power(2)
    psub = M.span([(g,) for g in p.gens])
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

    p2 = p.power(2)
    Q = M.with_denominator(M.span([(g,) for g in p2.gens]))
    with pytest.raises(IncompleteRegistryError):
        ass_enumerate(Q)
    found = ass_enumerate(Q, candidates=registry)
    assert not found.complete
    assert sorted(str(q) for q in found) == ["(x, y, z)", "(x, z)"]


def test_registry_rejects_foreign_primes():
    ring, x, y = xy_ring()
    other = PolyRing(QQ, ("a", "b"))
    p = PrimeIdeal(ring, [x])
    q = PrimeIdeal(other, [other.gen(0)])
    M = QuotientModule.of_ring(ring)
    Q = M.with_denominator(M.span(((x * y,),)))
    with pytest.raises(RingMismatchError):
        ass_enumerate(Q, [p, q])


def test_ass_enumerate_budget_guard(monkeypatch):
    """The number of variables is no budget: R/(x_0) over 15 variables has
    one candidate.  The number of irreducible components is: (ad, be, cf)
    has 8, refused when the bound is 7."""
    names = tuple("x%d" % i for i in range(15))
    ring = PolyRing(QQ, names)
    M = QuotientModule.of_ring(ring)
    N = M.span(((ring.gen(0),),))
    assert [str(p) for p in ass_enumerate(M.with_denominator(N))] == ["(x0)"]
    ring = PolyRing(QQ, ("a", "b", "c", "d", "e", "f"))
    a, b, c, d, e, f = ring.gens()
    M = QuotientModule.of_ring(ring)
    Q = M.with_denominator(M.span(((a * d,), (b * e,), (c * f,))))
    assert len(ass_enumerate(Q)) == 8
    monkeypatch.setattr(monomial, "MAX_COMPONENTS", 7)
    # a lowered bound is another program: forget the answer computed
    # under the old one
    clear_caches()
    with pytest.raises(BudgetError, match="over the bound 7"):
        ass_enumerate(Q)


def test_supp_contains_annihilator_test():
    ring, M, N = counterexample_module()
    x, y = ring.gen(0), ring.gen(1)
    view = QuotientModule(M.full(), M.span(()))
    assert supp_contains(PrimeIdeal(ring, [x]), view)
    assert supp_contains(PrimeIdeal(ring, [x, y]), view)
    assert not supp_contains(PrimeIdeal(ring, [y]), view)


def _sweep_key(Q):
    """Ass(Q) by testing every variable subset with the colon definition
    (`ass_membership`), the exhaustive reference."""
    m = Q.ring.nvars
    found = []
    for size in range(m + 1):
        for combo in itertools.combinations(range(m), size):
            p = PrimeIdeal.from_variables(Q.ring, combo)
            if ass_membership(p, Q):
                found.append(p)
    return PrimeSet(found).key()


def _count_calls(monkeypatch, module, name):
    """The positional arguments of the calls made to module.<name> from
    now on."""
    calls = []
    real = getattr(module, name)

    def counting(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(module, name, counting)
    return calls


@st.composite
def monomial_quotients(draw):
    """A monomial quotient of R^k: the module itself, the module by a
    further denominator, or a check=False step quotient upper/lower."""
    nvars = draw(st.integers(2, 5))
    rank = draw(st.sampled_from([1, 2]))
    ring = PolyRing(QQ, ("x", "y", "z", "u", "v")[:nvars])

    def vectors(lo, hi):
        out = []
        for _ in range(draw(st.integers(lo, hi))):
            exps = draw(st.tuples(*[st.integers(0, 2)] * nvars))
            vec = [ring.zero()] * rank
            vec[draw(st.integers(0, rank - 1))] = ring.monomial(exps)
            out.append(tuple(vec))
        return out

    M = QuotientModule.free(ring, rank, vectors(0, 3))
    shape = draw(st.sampled_from(["module", "denominator", "step"]))
    if shape == "module":
        return M
    lower = M.span(vectors(0, 3))
    if shape == "denominator":
        return M.with_denominator(lower)
    upper = M.span(vectors(1, 3))
    return M.module_of(upper).with_denominator(lower)


def _xy_step(upper, lower):
    """The step quotient upper/lower of QQ[x,y], both given as functions
    of the variables returning generators."""
    ring, x, y = xy_ring()
    M = QuotientModule.of_ring(ring)
    top = M.span([(g,) for g in upper(x, y)])
    return M.module_of(top).with_denominator(M.span([(g,) for g in lower(x, y)]))


@settings(max_examples=40, deadline=None)
@given(monomial_quotients())
# (x, y)/(xy): each generator of the top gives its own prime
@example(_xy_step(lambda x, y: (x, y), lambda x, y: (x * y,)))
# (y)/(x^2, xy): (D : y) = (x), though D itself also has (x, y)
@example(_xy_step(lambda x, y: (y,), lambda x, y: (x * x, x * y)))
def test_ass_enumerate_matches_variable_subset_sweep(Q):
    found = ass_enumerate(Q)
    assert found.complete
    assert found.key() == _sweep_key(Q), str(Q)


def test_ass_enumerate_tests_only_component_supports(monkeypatch):
    """(x^2, xy) = (x) cap (x^2, y) over five variables: the primes are
    the supports of one decomposition, of (D : 1) = D, and neither
    `ass_enumerate` nor `ass_contains` tests a membership."""
    ring = PolyRing(QQ, ("x", "y", "z", "u", "v"))
    x, y = ring.gen(0), ring.gen(1)
    M = QuotientModule.of_ring(ring)
    Q = M.with_denominator(M.span(((x * x,), (x * y,))))
    tests = _count_calls(monkeypatch, primes, "ass_membership")
    decomposed = _count_calls(monkeypatch, monomial, "irreducible_components")
    found = ass_enumerate(Q)
    assert [str(p) for p in found] == ["(x)", "(x, y)"]
    assert tests == []
    assert [list(J) for J, in decomposed] == [[(1, 1, 0, 0, 0), (2, 0, 0, 0, 0)]]
    assert ass_contains(found.primes[1], Q) and tests == []


def test_ass_enumerate_free_summand_gives_zero_prime():
    ring, x, y = xy_ring()
    zero = ring.zero()
    Q = QuotientModule.free(ring, 2, ((x * y, zero),))
    assert [str(p) for p in ass_enumerate(Q)] == ["(0)", "(x)", "(y)"]


def test_ass_enumerate_unit_component_contributes_nothing(monkeypatch):
    """A component whose denominator is the unit ideal holds no generator
    outside it, so only the other component's (x) is decomposed."""
    ring, x, y = xy_ring()
    zero = ring.zero()
    calls = _count_calls(monkeypatch, monomial, "irreducible_components")
    Q = QuotientModule.free(ring, 2, ((ring.const(3), zero), (zero, x)))
    assert [str(p) for p in ass_enumerate(Q)] == ["(x)"]
    assert [list(J) for J, in calls] == [[(1, 0)]]
    del calls[:]
    M = QuotientModule.of_ring(ring)
    assert not ass_enumerate(M.with_denominator(M.span(((ring.one(),),))))
    assert calls == []


def test_ass_enumerate_logs_candidates(caplog):
    ring = PolyRing(QQ, ("x", "y", "z", "u", "v"))
    x, y = ring.gen(0), ring.gen(1)
    M = QuotientModule.of_ring(ring)
    Q = M.with_denominator(M.span(((x * x,), (x * y,))))
    with caplog.at_level(logging.DEBUG, logger="gpfkit"):
        ass_enumerate(Q)
    records = [r for r in caplog.records if "ass_enumerate" in r.getMessage()]
    assert [r.getMessage() for r in records] == [
        "ass_enumerate: 2 primes over 5 variables, decompositions: 1"
    ]
    assert all(r.name == "gpfkit" and r.levelno == logging.DEBUG for r in records)
