import random

import pytest
from hypothesis import given, settings, strategies as st

from gpfkit import clear_caches, groebner, modops, monomial, primes
from gpfkit.arith import PolyRing
from gpfkit.errors import BudgetError, RingMismatchError
from gpfkit.fields import GF, QQ
from gpfkit.filtration import rpe_filtration, verify_rpe
from gpfkit.gpf import FactorizationTarget
from gpfkit.groebner import buchberger, vector_key
from gpfkit.modops import (
    Ideal,
    QuotientModule,
    Submodule,
    colon_ideal,
    colon_module,
    ideal_intersection,
    intersect,
    module_scale,
    partial_products,
    saturate,
)
from gpfkit.primes import PrimeIdeal, supp_contains

from helpers import (
    counterexample_module,
    ideal_sub,
    random_monomial_sub,
    submodule_sum,
    twisted_ring,
    twisted_setup,
    xy_ring,
    xyz_ring,
)


def test_ideal_canonical_gens_sorted_and_reduced():
    ring, x, y = xy_ring()
    ideal = Ideal(ring, [y, x, x + y])
    assert [str(g) for g in ideal.canonical_gens()] == ["x", "y"]


def test_ideal_contains_and_equals():
    ring, x, y = xy_ring()
    a = Ideal(ring, [x * x, x * y])
    assert a.contains(x * x * y)
    assert not a.contains(x)
    b = Ideal(ring, [x * y, x * x, x * x + x * y])
    assert a.equals(b)


def test_colon_module_chain_values():
    ring, x, y = xy_ring()
    M = QuotientModule.of_ring(ring)
    N = M.span(((x * x,), (x * y,)))
    m = Ideal(ring, [x, y])
    K1 = colon_module(N, m, M)
    assert K1.equals(ideal_sub(ring, x))
    K2 = colon_module(K1, Ideal(ring, [x]), M)
    assert K2.equals(M.full())


def test_colon_module_two_lines():
    ring, x, y = xy_ring()
    M = QuotientModule.of_ring(ring)
    N = M.span(((x * y,),))
    assert colon_module(N, Ideal(ring, [x]), M).equals(ideal_sub(ring, y))
    assert colon_module(N, Ideal(ring, [y]), M).equals(ideal_sub(ring, x))


def test_colon_by_zero_ideal_gives_everything():
    ring, x, y = xy_ring()
    M = QuotientModule.of_ring(ring)
    N = M.span(((x,),))
    assert colon_module(N, Ideal(ring, []), M).equals(M.full())


def test_colon_ideal_values():
    ring, x, y = xy_ring()
    N = ideal_sub(ring, x * x, x * y)
    P = ideal_sub(ring, x)
    got = colon_ideal(N, P)
    assert got.equals(Ideal(ring, [x, y]))
    assert colon_ideal(N, N).equals(Ideal(ring, [ring.one()]))


def test_colon_ideal_unit_iff_equal():
    """Ann(A/B) is the unit ideal exactly when A/B is zero."""
    ring, x, y = xy_ring()
    rng = random.Random(3)
    M = QuotientModule.of_ring(ring)
    one = Ideal(ring, [ring.one()])
    for _ in range(25):
        B = random_monomial_sub(rng, M)
        A = submodule_sum(B, random_monomial_sub(rng, M))
        unit = colon_ideal(B, A).equals(one)
        assert unit == B.contains_module(A)


def test_twisted_colon_is_maximal_ideal():
    ring, p, m, _ = twisted_setup()
    M = QuotientModule.of_ring(ring)
    p2 = p.power(2)
    N = M.span([(g,) for g in p2.gens])
    got = colon_module(N, p, M)
    assert got.equals(M.span([(g,) for g in m.gens]))


def test_twisted_annihilator_of_prime():
    ring, p, m, _ = twisted_setup()
    x, y, z = ring.gen(0), ring.gen(1), ring.gen(2)
    zero = Submodule(ring, 1, [])
    psub = ideal_sub(ring, x, z)
    ann = colon_ideal(zero, psub)
    assert ann.equals(Ideal(ring, [y * y - x * z]))


def test_counterexample_first_colon():
    ring, M, N = counterexample_module()
    x, y = ring.gen(0), ring.gen(1)
    K1 = colon_module(N, Ideal(ring, [x, y]), M)
    want = M.span(((ring.one(), ring.zero()),))
    assert K1.equals(want)
    K2 = colon_module(K1, Ideal(ring, [x]), M)
    assert K2.equals(M.full())


def test_saturation_reaches_stable_colon():
    ring, x, y = xy_ring()
    M = QuotientModule.of_ring(ring)
    N = M.span(((x * x,), (x * y,)))
    sat = saturate(N, y, M)
    assert sat.equals(ideal_sub(ring, x))
    assert sat.contains_module(N)
    again = saturate(sat, y, M)
    assert again.equals(sat)


def _iterated_saturation(N, f, M):
    """The chain N : f, (N : f) : f, ... run until it stops growing."""
    ideal = Ideal(M.ring, [f])
    cur = colon_module(N, ideal, M)
    while True:
        nxt = colon_module(cur, ideal, M)
        if nxt.key() == cur.key():
            return nxt
        cur = nxt


def _saturation_ambient(name):
    if name == "xyz":
        return QuotientModule.of_ring(xyz_ring()[0])
    if name == "rank2":
        return QuotientModule.free(xy_ring()[0], 2)
    if name == "counterexample":
        return counterexample_module()[1]
    return QuotientModule.of_ring(twisted_ring())


@pytest.mark.parametrize("f_kind", ["monomial", "binomial"])
@pytest.mark.parametrize("ambient", ["xyz", "rank2", "counterexample", "twisted"])
def test_saturation_matches_iterated_colon(ambient, f_kind):
    M = _saturation_ambient(ambient)
    ring = M.ring
    xs = ring.gens()
    rng = random.Random("%s-%s" % (ambient, f_kind))
    for i in range(6):
        N = random_monomial_sub(rng, M, max_deg=2, max_gens=3)
        if i % 2:
            vec = [ring.zero()] * M.rank
            a, b, c = (rng.choice(xs) for _ in range(3))
            vec[rng.randrange(M.rank)] = a * b - c * c
            N = M.span(N.gens + (tuple(vec),))
        f = rng.choice(xs) * rng.choice(xs)
        if f_kind == "binomial":
            f = f - rng.choice(xs)
        want = _iterated_saturation(N, f, M)
        got = saturate(N, f, M)
        assert got.gens == want.gens
        assert got.contains_module(N)


def test_twisted_saturation_of_prime_square():
    """p^2 has an embedded (x, y, z) component; saturating it away by an
    element outside p leaves p = (x, z)."""
    ring, p, _, _ = twisted_setup()
    x, y = ring.gen(0), ring.gen(1)
    M = QuotientModule.of_ring(ring)
    N = M.span([(g,) for g in p.power(2).gens])
    for f in (y, y * y - x):
        got = saturate(N, f, M)
        assert got.gens == _iterated_saturation(N, f, M).gens
        assert got.equals(M.span([(g,) for g in p.gens]))


def test_intersection_and_sum():
    ring, x, y = xy_ring()
    A = ideal_sub(ring, x)
    B = ideal_sub(ring, y)
    assert intersect(A, B).equals(ideal_sub(ring, x * y))
    assert submodule_sum(A, B).equals(ideal_sub(ring, x, y))


def test_module_scale():
    ring, x, y = xy_ring()
    M = QuotientModule.of_ring(ring)
    m = Ideal(ring, [x, y])
    out = module_scale(m, M)
    assert out.equals(ideal_sub(ring, x, y))
    twice = module_scale(m, M.module_of(out))
    assert twice.equals(ideal_sub(ring, x * x, x * y, y * y))


def test_ideal_product_and_power():
    ring, x, y = xy_ring()
    a = Ideal(ring, [x])
    b = Ideal(ring, [x, y])
    ab = a.product(b)
    ba = b.product(a)
    assert ab.equals(ba)
    assert b.power(2).equals(b.product(b))
    sq = b.power(2)
    assert sq.contains(x * y) and not sq.contains(x)


def test_partial_products_accumulate():
    ring, x, y = xy_ring()
    a = Ideal(ring, [x, y])
    b = Ideal(ring, [x])
    prods = partial_products([(a, 1), (b, 1)])
    assert len(prods) == 3
    assert prods[0].equals(Ideal(ring, [ring.one()]))
    assert prods[1].equals(a)
    assert prods[2].equals(a.product(b))


def test_partial_products_refuse_a_predicted_blowup(monkeypatch):
    """(x, y)^3 (x, y, z) may have C(4, 3) * 3 = 12 generators: refused
    when the bound is 11, computed when it is 12."""
    ring, x, y, z = xyz_ring()
    a, b = Ideal(ring, [x, y]), Ideal(ring, [x, y, z])
    monkeypatch.setattr(modops, "MAX_PRODUCT_GENS", 11)
    with pytest.raises(BudgetError, match="up to 12 generators is over the bound 11"):
        partial_products([(a, 3), (b, 1)])
    monkeypatch.setattr(modops, "MAX_PRODUCT_GENS", 12)
    got = partial_products([(a, 3), (b, 1)])[-1]
    assert got.equals(a.power(3).product(b))


def test_partial_products_sum_the_exponents_of_a_repeated_ideal(monkeypatch):
    """m m m, given as one pair per copy, is predicted as m^3 with
    C(5, 3) = 10 generators, not 3^3 = 27."""
    ring, x, y, z = xyz_ring()
    m = Ideal(ring, [x, y, z])
    monkeypatch.setattr(modops, "MAX_PRODUCT_GENS", 10)
    got = partial_products([(m, 1)] * 3)[-1]
    assert got.equals(m.power(3))
    monkeypatch.setattr(modops, "MAX_PRODUCT_GENS", 9)
    with pytest.raises(BudgetError, match="up to 10 generators is over the bound 9"):
        partial_products([(m, 1)] * 3)


def test_colon_law_product_equals_iterated():
    """(N : IJ) = ((N : I) : J) on a random monomial battery."""
    ring, x, y = xy_ring()
    M = QuotientModule.of_ring(ring)
    rng = random.Random(11)
    for _ in range(20):
        N = random_monomial_sub(rng, M)
        I = random_monomial_sub(rng, M).as_ideal()
        J = random_monomial_sub(rng, M).as_ideal()
        direct = colon_module(N, I.product(J), M)
        stepwise = colon_module(colon_module(N, I, M), J, M)
        assert direct.equals(stepwise)


def test_colon_antitone_in_ideal():
    ring, x, y = xy_ring()
    M = QuotientModule.of_ring(ring)
    rng = random.Random(13)
    for _ in range(15):
        N = random_monomial_sub(rng, M)
        I = random_monomial_sub(rng, M).as_ideal()
        J = I.product(random_monomial_sub(rng, M).as_ideal())
        bigger = colon_module(N, J, M)
        smaller = colon_module(N, I, M)
        assert bigger.contains_module(smaller)


def test_quotient_module_basics():
    ring, M, N = counterexample_module()
    x, y = ring.gen(0), ring.gen(1)
    assert M.ann().equals(Ideal(ring, [x]))
    assert not M.is_zero()
    assert M.with_denominator(M.full()).is_zero()
    view = QuotientModule(M.full(), N)
    assert not view.is_zero()


def test_quotient_module_full_keeps_its_basis():
    """full() is one submodule per quotient, so what the first containment
    test computes serves every later call: the monomial split of a
    monomial quotient, the basis of any other."""
    ring, M, N = counterexample_module()
    full = M.full()
    assert M.full() is full
    assert M.contains_submodule(N)
    assert full._gb is None
    assert full._split == [[(0, 0)], [(0, 0)]]
    assert M.full().monomial_split() is full._split
    assert M.full().groebner() is full.groebner()
    ring = twisted_ring()
    x, z = ring.gen(0), ring.gen(2)
    T = QuotientModule.of_ring(ring)
    full = T.full()
    assert T.contains_submodule(T.span(((x * z,),)))
    assert full._split is None
    assert full._gb is not None
    assert T.full().groebner() is full._gb


@pytest.mark.parametrize("ambient", ["xyz", "rank2", "counterexample", "twisted"])
def test_results_keep_the_basis_of_their_generators(ambient):
    """Colon, transporter, intersection and saturation hand their result
    the basis they computed; it equals the basis computed afresh from the
    result's generators, on both paths and over the quotient rings."""
    M = _saturation_ambient(ambient)
    ring = M.ring
    xs = ring.gens()
    rng = random.Random("kept-%s" % ambient)
    for i in range(4):
        N = random_monomial_sub(rng, M, max_deg=2, max_gens=3)
        if i % 2:
            vec = [ring.zero()] * M.rank
            vec[rng.randrange(M.rank)] = xs[0] * xs[1] - xs[-1] * xs[-1]
            N = M.span(N.gens + (tuple(vec),))
        f = rng.choice(xs) - (rng.choice(xs) if i % 2 else ring.zero())
        ideal = Ideal(ring, [f, rng.choice(xs)])
        got = [
            colon_module(N, ideal, M),
            intersect(N, module_scale(ideal, M)),
            colon_ideal(N, M.full()).as_submodule(),
            saturate(N, f, M),
        ]
        for sub in got:
            gens = sub.gens + modops.relation_vectors(ring, sub.rank)
            fresh = buchberger(gens, ring=ring, rank=sub.rank)
            assert sub.groebner().vectors == fresh.vectors


@pytest.mark.parametrize("ambient", ["xyz", "rank2", "twisted"])
def test_quotient_module_ann_of_any_pair(ambient):
    """Without the containment check a QuotientModule presents
    (top + bottom)/bottom: its annihilator is the transporter of top + bottom
    into bottom, with the same generators, and the support test reads it."""
    M = _saturation_ambient(ambient)
    ring = M.ring
    primes = [PrimeIdeal.from_variables(ring, s) for s in ([0], [1], [0, 1])]
    rng = random.Random("ann-%s" % ambient)
    for _ in range(5):
        top = random_monomial_sub(rng, M, max_deg=2, max_gens=2)
        bottom = random_monomial_sub(rng, M, max_deg=2, max_gens=2)
        want = colon_ideal(bottom, submodule_sum(top, bottom))
        Q = QuotientModule(top, bottom, check=False)
        assert Q.ann().gens == want.gens
        assert Q.is_zero() == bottom.contains_module(top)
        for p in primes:
            assert supp_contains(p, Q) == p.contains_ideal(want)


def _vector_transporter(B, a):
    """{r : r a in B}, from the kernel of (a | 1) and (B | 0) in rank k + 1."""
    ring, k = B.ring, B.rank
    work = [tuple(a) + (ring.one(),)] + [tuple(b) + (ring.zero(),) for b in B.gens]
    work += modops.relation_vectors(ring, k + 1)
    gb = buchberger(work, ring=ring, rank=k + 1)
    return Ideal(ring, [v[k] for v in gb.vectors if all(p.is_zero() for p in v[:k])])


@pytest.mark.parametrize("ambient", ["xyz", "rank2", "twisted"])
def test_colon_ideal_matches_intersection_of_vector_transporters(ambient):
    """The one-basis transporter equals the intersection of the
    transporters of the single generators of A, with canonical generators."""
    M = _saturation_ambient(ambient)
    ring = M.ring
    xs = ring.gens()
    rng = random.Random("transporter-%s" % ambient)
    for i in range(6):
        B = random_monomial_sub(rng, M, max_deg=2, max_gens=2)
        extra = random_monomial_sub(rng, M, max_deg=1, max_gens=2).gens
        if i % 2:
            vec = [ring.zero()] * M.rank
            a, b, c = (rng.choice(xs) for _ in range(3))
            vec[rng.randrange(M.rank)] = a * b - c
            extra += (tuple(vec),)
        A = submodule_sum(B, Submodule(ring, M.rank, extra))
        want = None
        for a in A.gens:
            part = _vector_transporter(B, a)
            want = part if want is None else ideal_intersection(want, part)
        got = colon_ideal(B, A)
        assert got.equals(want)
        assert got.gens == want.canonical_gens()
    full = M.full()
    assert colon_ideal(full, full).gens == (ring.one(),)


@pytest.mark.parametrize("ring_kind", ["xyz", "twisted"])
def test_ideal_canonical_gens_match_rank1_submodule(ring_kind):
    ring = xyz_ring()[0] if ring_kind == "xyz" else twisted_ring()
    x, y, z = ring.gens()
    # x*y - z^2 is zero modulo the twisted relations.
    for gens in ([y, x, x + y], [x * y - z * z, x * x, y * z], [x * y - z * z]):
        ideal = Ideal(ring, gens)
        sub = ideal_sub(ring, *gens)
        assert ideal.canonical_gens() == tuple(v[0] for v in sub.canonical())
        assert ideal.as_submodule().key() == sub.key()
        assert ideal.is_zero() == sub.is_zero()
    assert Ideal(ring, [x * y - z * z]).is_zero() == (ring_kind == "twisted")


def test_rank_mismatch_rejected():
    ring, x, y = xy_ring()
    with pytest.raises(RingMismatchError):
        Submodule(ring, 2, [(x,)])


# ---------------------------------------------------------------------------
# the monomial fast path against the kernel path


def _general(op, *args):
    """op(*args) with colon, transporter and intersection forced onto the
    kernel-basis path.  It forces only that path: a split submodule still
    reads its own basis and containment off its exponents, which
    `test_split_submodule_matches_buchberger` checks against `buchberger`.
    The memo tables are emptied before and after, so no answer from the
    other path is read."""
    clear_caches()
    try:
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(modops, "_monomial_parts", lambda *groups: None)
            return op(*args)
    finally:
        clear_caches()


@st.composite
def monomial_colon_inputs(draw):
    """(M, N, ideal, X, Y): a monomial quotient M of R^k (free, with a
    denominator, or a check=False step quotient upper/lower), a submodule
    N of M made of monomial multiples of the top generators, with or
    without the denominator adjoined, a monomial
    ideal, and two monomial submodules X, Y of R^k.  Exponents reach 0 in
    every variable, so unit generators occur, and rank 2 leaves components
    empty."""
    nvars = draw(st.integers(2, 4))
    rank = draw(st.sampled_from([1, 2]))
    field = draw(st.sampled_from([QQ, GF(5)]))
    ring = PolyRing(field, ("x", "y", "z", "u")[:nvars])

    def monomial():
        exps = draw(st.tuples(*[st.integers(0, 2)] * nvars))
        return ring.monomial(exps, draw(st.sampled_from([1, 3])))

    def vectors(lo, hi):
        out = []
        for _ in range(draw(st.integers(lo, hi))):
            vec = [ring.zero()] * rank
            vec[draw(st.integers(0, rank - 1))] = monomial()
            out.append(tuple(vec))
        return out

    M = QuotientModule.free(ring, rank, vectors(0, 2))
    shape = draw(st.sampled_from(["module", "denominator", "step"]))
    if shape == "denominator":
        M = M.with_denominator(M.span(vectors(0, 2)))
    elif shape == "step":
        M = M.module_of(M.span(vectors(1, 3))).with_denominator(M.span(vectors(0, 2)))
    tops = M.top.gens
    multiples = []
    for _ in range(draw(st.integers(0, 3))):
        v = draw(st.sampled_from(tops))
        m = monomial()
        multiples.append(tuple(m * p for p in v))
    # colon_module adds the denominator to N itself, so N may omit it
    N = M.span(multiples) if draw(st.booleans()) else Submodule(ring, rank, multiples)
    ideal = Ideal(ring, [monomial() for _ in range(draw(st.integers(1, 2)))])
    X = Submodule(ring, rank, vectors(0, 3))
    Y = Submodule(ring, rank, vectors(0, 3))
    return M, N, ideal, X, Y


@settings(max_examples=40, deadline=None)
@given(monomial_colon_inputs())
def test_monomial_path_matches_elimination(case):
    """Same generators as the kernel path, and each fast-path result keeps
    the split its own generators give."""
    M, N, ideal, X, Y = case
    got = colon_module(N, ideal, M)
    pairs = [
        (got, _general(colon_module, N, ideal, M)),
        (colon_ideal(N, M.full()), _general(colon_ideal, N, M.full())),
        (colon_ideal(N, got), _general(colon_ideal, N, got)),
        (intersect(X, Y), _general(intersect, X, Y)),
    ]
    for fast, general in pairs:
        assert fast.gens == general.gens
        sub = fast if isinstance(fast, Submodule) else fast.as_submodule()
        assert sub.monomial_split() == monomial.split(sub.rank, sub.gens)


@st.composite
def monomial_product_inputs(draw):
    """(I, J, r, M): two monomial ideals over QQ or GF(5), with redundant
    generators (a multiple of another one) and unit generators among them,
    an exponent r from 0 to 3, and a monomial quotient M = T/D of rank 1
    or 2, its top free or a monomial submodule, its denominator possibly
    empty."""
    nvars = draw(st.integers(1, 3))
    rank = draw(st.sampled_from([1, 2]))
    field = draw(st.sampled_from([QQ, GF(5)]))
    ring = PolyRing(field, ("x", "y", "z")[:nvars])
    exps = st.tuples(*[st.integers(0, 2)] * nvars)

    def ideal():
        gens = [ring.monomial(draw(exps), draw(st.sampled_from([1, 3])))]
        for _ in range(draw(st.integers(0, 3))):
            kind = draw(st.sampled_from(["monomial", "multiple", "unit"]))
            if kind == "unit":
                gens.append(ring.const(draw(st.sampled_from([1, 2]))))
            elif kind == "multiple":
                gens.append(draw(st.sampled_from(gens)) * ring.monomial(draw(exps)))
            else:
                gens.append(ring.monomial(draw(exps), draw(st.sampled_from([1, 3]))))
        return Ideal(ring, gens)

    def vectors(lo, hi):
        out = []
        for _ in range(draw(st.integers(lo, hi))):
            vec = [ring.zero()] * rank
            vec[draw(st.integers(0, rank - 1))] = ring.monomial(draw(exps))
            out.append(tuple(vec))
        return out

    M = QuotientModule.free(ring, rank, vectors(0, 3))
    if draw(st.booleans()):
        M = M.module_of(M.span(vectors(1, 3)))
    return ideal(), ideal(), draw(st.integers(0, 3)), M


@settings(max_examples=60, deadline=None)
@given(monomial_product_inputs())
def test_monomial_products_match_the_polynomial_path(case):
    """Ideal products, powers, partial products and ideal * M of split
    inputs, read off exponents, have the canonical form of the polynomial
    path's generators under `buchberger`, and keep that form's split."""
    I, J, r, M = case
    ring = M.ring
    ops = [
        (lambda: I.product(J), 1),
        (lambda: I.power(r), 1),
        (lambda: partial_products([(I, r), (J, 1)])[-1], 1),
        (lambda: module_scale(I, M), M.rank),
    ]
    for op, rank in ops:
        fast = op()
        general = _general(op)
        fast = fast if isinstance(fast, Submodule) else fast.as_submodule()
        general = general if isinstance(general, Submodule) else general.as_submodule()
        assert fast.monomial_split() is not None
        ref = buchberger(general.gens, ring=ring, rank=rank)
        clear_caches()
        assert fast.key() == tuple(vector_key(v) for v in reversed(ref.vectors))
        assert fast.gens == fast.canonical() == tuple(reversed(ref.vectors))
        assert fast.monomial_split() == monomial.split(rank, fast.gens)


def _count_calls(monkeypatch, name):
    """The calls made to modops.<name> from now on, as (args, kwargs)."""
    calls = []
    real = getattr(modops, name)

    def counted(*args, **kwargs):
        calls.append((args, kwargs))
        return real(*args, **kwargs)

    monkeypatch.setattr(modops, name, counted)
    return calls


def test_monomial_inputs_skip_the_elimination(monkeypatch):
    """Monomial colon, transporter, intersection and saturation build no
    kernel and call no Buchberger at all: every basis and containment
    test, preconditions included, is read off exponents."""
    ring, x, y, z = xyz_ring()
    M = QuotientModule.of_ring(ring)
    N = M.span(((x * x,), (x * y,)))
    kernels = _count_calls(monkeypatch, "_kernel")
    bases = _count_calls(monkeypatch, "buchberger")
    assert colon_module(N, Ideal(ring, [x, y]), M).equals(ideal_sub(ring, x))
    assert intersect(N, ideal_sub(ring, y * z)).equals(ideal_sub(ring, x * y * z))
    assert colon_ideal(N, ideal_sub(ring, x)).equals(Ideal(ring, [x, y]))
    N2 = M.span(((x * x * y,), (x * y * y,)))
    assert saturate(N2, x, M).equals(ideal_sub(ring, y))
    assert not kernels
    assert not bases


@st.composite
def split_inputs(draw):
    """(sub, gens, probes): a split submodule of R^k, k from 1 to 3 over QQ
    or GF(5), from random monomial generators with coefficients 1 and 3,
    among them unit generators, zero vectors and duplicates, with empty
    components; and vectors to test for membership: monomial, binomial
    and mixed, many of them multiples of the generators."""
    nvars = draw(st.integers(1, 3))
    rank = draw(st.integers(1, 3))
    field = draw(st.sampled_from([QQ, GF(5)]))
    ring = PolyRing(field, ("x", "y", "z")[:nvars])
    exps = st.tuples(*[st.integers(0, 2)] * nvars)
    zero = ring.zero()
    gens = []
    for _ in range(draw(st.integers(0, 5))):
        kind = draw(st.sampled_from(["monomial", "monomial", "zero", "repeat"]))
        vec = [zero] * rank
        if kind == "repeat" and gens:
            vec = list(draw(st.sampled_from(gens)))
        elif kind != "zero":
            coeff = draw(st.sampled_from([1, 3]))
            vec[draw(st.integers(0, rank - 1))] = ring.monomial(draw(exps), coeff)
        gens.append(tuple(vec))

    def term():
        """A monomial, often a multiple of a generator's term."""
        m = draw(exps)
        tops = [v for v in gens if any(v)]
        if tops and draw(st.booleans()):
            v = draw(st.sampled_from(tops))
            c = next(i for i, p in enumerate(v) if p)
            return c, tuple(a + b for a, b in zip(next(iter(v[c].monomials())), m))
        return draw(st.integers(0, rank - 1)), m

    probes = []
    for _ in range(6):
        vec = [zero] * rank
        for _ in range(draw(st.integers(1, 3))):
            c, m = term()
            vec[c] = vec[c] + ring.monomial(m, draw(st.sampled_from([1, 2])))
        probes.append(tuple(vec))
    return Submodule(ring, rank, gens), gens, probes


@settings(max_examples=80, deadline=None)
@given(split_inputs())
def test_split_submodule_matches_buchberger(case):
    """The basis, key, canonical form, membership, containment and zero
    test a split submodule reads off its exponents are those of
    `buchberger` on its generators, for a submodule split from its
    generators and one built from its split alone (`of_split`), and agree
    with an unsplit submodule of the same span; a vector of the wrong rank
    or ring is still rejected."""
    sub, gens, probes = case
    ring, rank = sub.ring, sub.rank
    assert sub.monomial_split() is not None
    clear_caches()
    ref = buchberger(gens, ring=ring, rank=rank)
    gb = sub.groebner()
    assert gb._entries == ref._entries
    assert gb.vectors == ref.vectors
    assert sub.canonical() == tuple(reversed(ref.vectors))
    ref_key = tuple(vector_key(v) for v in reversed(ref.vectors))
    assert sub.key() == Submodule.of_basis(ref).key() == ref_key
    for v in probes:
        assert sub.contains(v) == ref.contains(v)
    # built from its split alone, then an unsplit one of the same span:
    # a nonzero generator times (1 + x) is a binomial vector in the span
    built = Submodule.of_split(ring, sub.monomial_split())
    assert built.key() == ref_key
    assert tuple(vector_key(v) for v in built.canonical()) == ref_key
    assert built.is_zero() == (not ref.vectors)
    tops = [v for v in gens if any(v)]
    binomial = [tuple(p * (ring.gen(0) + 1) for p in v) for v in tops[:1]]
    unsplit = Submodule(ring, rank, gens + binomial)
    assert unsplit.monomial_split() is None or not tops
    assert unsplit.key() == built.key()
    assert unsplit.is_zero() == built.is_zero()
    assert built.contains_module(unsplit) and unsplit.contains_module(built)
    assert built.contains_module(sub) and sub.contains_module(built)
    for v in probes:
        probe = Submodule(ring, rank, [v])
        assert built.contains_module(probe) == ref.contains(v)
        if probe.monomial_split() is not None:
            alone = buchberger([v], ring=ring, rank=rank)
            assert probe.contains_module(built) == all(map(alone.contains, ref.vectors))
    with pytest.raises(RingMismatchError):
        sub.contains(probes[0] + (ring.zero(),))
    other = PolyRing(GF(7), ring.names)
    with pytest.raises(RingMismatchError):
        sub.contains(tuple(other.one() for _ in range(rank)))


def test_non_monomial_inputs_take_the_elimination(monkeypatch):
    """A binomial generator anywhere, or a quotient ring even with monomial
    relations, falls through to one kernel, `groebner.kernel`, with rows
    of width s k + k for a colon by s generators in rank k, 2 k for an
    intersection and s k + 1 for a transporter over s generators; no
    `buchberger` call is wider than the operands' rank k."""
    ring, x, y, z = xyz_ring()
    rel_ring = PolyRing(QQ, ("x", "y", "z"), relations=(x * y,))
    cases = []
    M = QuotientModule.of_ring(ring)
    cases.append((M, M.span(((x * x - y * z,),)), Ideal(ring, [x])))
    cases.append((M, M.span(((x * x,),)), Ideal(ring, [x - y])))
    cases.append((M, M.span(((x * x,),)), Ideal(ring, [x - y, z])))
    R = QuotientModule.of_ring(rel_ring)
    xr, yr, zr = rel_ring.gens()
    cases.append((R, R.span(((xr * xr,), (zr,))), Ideal(rel_ring, [yr])))
    M2 = QuotientModule.free(ring, 2, [(x - y, ring.zero())])
    cases.append((M2, M2.span(((x * x, y), (z, z))), Ideal(ring, [x, y])))
    for M, N, ideal in cases:
        s, k = len(ideal.gens), M.rank
        kernels = _count_calls(monkeypatch, "_kernel")
        wide = _count_calls(monkeypatch, "kernel")
        bases = _count_calls(monkeypatch, "buchberger")

        def widths():
            got = [len(args[0][0]) for args, _ in wide]
            assert all(kw["rank"] <= k for _, kw in bases)
            kernels.clear()
            wide.clear()
            bases.clear()
            return got

        colon_module(N, ideal, M)
        assert [args[3:] for args, _ in kernels] == [(s, k)]
        assert widths() == [s * k + k]
        I = module_scale(ideal, M)
        intersect(N, I)
        assert [args[3:] for args, _ in kernels] == [(1, k)]
        assert widths() == [2 * k]
        A = submodule_sum(N, I)
        outside = [a for a in A.gens if not N.contains(a)]
        colon_ideal(N, A)
        assert [args[3:] for args, _ in kernels] == [(len(outside), k)]
        assert widths() == [len(outside) * k + 1]
        monkeypatch.undo()


@pytest.mark.parametrize(
    "picks",
    [
        [((0, 1), 2), ((0,), 1)],
        [((0, 2), 1), ((1,), 2), ((0, 1, 2), 1)],
    ],
)
def test_filtration_agrees_on_both_paths(picks, monkeypatch):
    """rpe_filtration and verify_rpe on criterion-6 inputs give the same
    steps, primes and verification problems, none, whichever path the
    module layer takes."""
    ring = xyz_ring()[0]
    M = QuotientModule.of_ring(ring)
    pairs = [(PrimeIdeal.from_variables(ring, s), r) for s, r in picks]
    aM = module_scale(FactorizationTarget.reordered(pairs).product_ideal(), M)
    tested = []
    compute = primes.ass_membership

    def counting(p, Q):
        tested.append(p)
        return compute(p, Q)

    monkeypatch.setattr(primes, "ass_membership", counting)

    def run():
        before = len(tested)
        filt = rpe_filtration(aM, M)
        report = verify_rpe(filt)
        steps = [(str(s.prime), s.upper.gens) for s in filt.steps]
        # monomial quotients read their primes off exponents
        return steps, report["ok"], report["problems"], len(tested) - before

    clear_caches()
    fast = run()
    assert fast[1:] == (True, [], 0)
    assert _general(run) == fast


# ---------------------------------------------------------------------------
# the seeded kernel against the unseeded construction


def _unseeded_kernel(ring, rows, bottom, s, k):
    """The kernel vectors built without seeding: the raw bottom generators
    in every block and the relations adjoined in every component, every
    pair formed; the basis vectors vanishing on the first s k components,
    those components dropped."""
    width, rank = s * k, len(rows[0])
    work = list(rows)
    for start in range(0, width, k):
        for b in bottom:
            vec = [ring.zero()] * rank
            vec[start : start + k] = b
            work.append(tuple(vec))
    work += modops.relation_vectors(ring, rank)
    gb = buchberger(work, ring=ring, rank=rank)
    return tuple(v[width:] for v in gb.vectors if not any(v[:width]))


def _cold(op, *args):
    """op(*args) from empty memo tables, so neither construction reads a
    basis the other one computed."""
    clear_caches()
    try:
        return op(*args)
    finally:
        clear_caches()


@st.composite
def kernel_inputs(draw):
    """(ring, rows, bottom, s, k) over QQ[x,y,z], F_5[x,y,z] or the
    binomial quotient QQ[x,y,z]/(xy - z^2, x^2 - yz): one or two rows of
    length s k + k and up to three bottom vectors of rank k (none is an
    empty bottom), entries of up to two terms of degree at most 2."""
    kind = draw(st.sampled_from(["QQ", "GF5", "twisted"]))
    if kind == "twisted":
        ring = twisted_ring()
    else:
        ring = PolyRing(QQ if kind == "QQ" else GF(5), ("x", "y", "z"))
    k = draw(st.integers(1, 2))
    s = draw(st.integers(1, 3))

    def poly():
        p = ring.zero()
        for _ in range(draw(st.integers(0, 2))):
            exps = draw(st.tuples(*[st.integers(0, 2)] * 3))
            p = p + ring.monomial(exps, draw(st.sampled_from([1, 2, -1])))
        return p

    def vector(length):
        return tuple(poly() for _ in range(length))

    rows = [vector(s * k + k) for _ in range(draw(st.integers(1, 2)))]
    bottom = [vector(k) for _ in range(draw(st.integers(0, 3)))]
    return ring, rows, bottom, s, k


@settings(max_examples=40, deadline=None)
@given(kernel_inputs())
def test_seeded_kernel_matches_the_unseeded_construction(case):
    """Seeding the blocks with the bottom's basis, skipping the pairs
    inside a block and adjoining the relations to the x block only give
    the same reduced basis as the plain construction."""
    assert _cold(modops._kernel, *case).vectors == _cold(_unseeded_kernel, *case)


def test_seeded_kernel_with_an_empty_bottom_keeps_the_relations():
    """With no bottom the seed is the relation basis times the unit
    vectors: dropping it would lose the relations from the blocks."""
    ring = twisted_ring()
    x, y, z = ring.gens()
    zero = ring.zero()
    for rows, s, k in [
        ([(x, z, y), (z, y, x * x)], 2, 1),
        ([(x, zero, y, x, z, zero)], 2, 2),
    ]:
        seeded = _cold(modops._kernel, ring, rows, [], s, k)
        assert seeded.vectors == _cold(_unseeded_kernel, ring, rows, [], s, k)
        assert seeded.vectors


def test_seeded_kernel_forms_fewer_pairs(monkeypatch):
    """A guard on the work, which no byte test sees: one binomial-quotient
    colon with two blocks forms strictly fewer S-pairs through `_kernel`
    than through the unseeded construction, both from empty tables, and
    none of them between two seed vectors of one block or two relation
    vectors of the x block."""
    ring = twisted_ring()
    x, y, z = ring.gens()
    zero = ring.zero()
    M = QuotientModule.of_ring(ring)
    N = M.span(((x,), (z * z * z,), (y * y * z,)))
    kernels = _count_calls(monkeypatch, "_kernel")
    colon_module(N, Ideal(ring, [x, z]), M)
    [(args, _)] = kernels
    assert args[3:] == (2, 1)

    pairs = []
    real = groebner._spair

    def counted(*entries):
        pairs.append(entries[:2])
        return real(*entries)

    monkeypatch.setattr(groebner, "_spair", counted)
    seeded = _cold(modops._kernel, *args)
    seeded_count = len(pairs)
    pairs.clear()
    unseeded = _cold(_unseeded_kernel, *args)
    assert seeded.vectors == unseeded
    assert 0 < seeded_count < len(pairs)

    # the pairs of the kernel-rank run alone, the seed's basis known, read
    # against the term map of each seed and x-block relation vector
    _, rows, bottom, s, k = args
    width, rank = s * k, len(rows[0])
    clear_caches()
    seed_gens = tuple(bottom) + modops.relation_vectors(ring, k)
    seed = buchberger(seed_gens, ring=ring, rank=k).vectors
    groups = [(start, b) for start in range(0, width, k) for b in seed]
    groups += [(width, r) for r in modops.relation_vectors(ring, rank - width)]
    block = {}
    for start, b in groups:
        vec = (zero,) * start + b + (zero,) * (rank - start - len(b))
        block[frozenset(groebner._flatten(vec).items())] = start
    pairs.clear()
    modops._kernel(*args)
    clear_caches()
    labels = [[block.get(frozenset(e[1].items())) for e in pair] for pair in pairs]
    assert labels
    assert not [b for b in labels if b[0] is not None and b[0] == b[1]]
