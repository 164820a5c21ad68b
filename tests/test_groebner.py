import random
from fractions import Fraction

import pytest

from gpfkit import clear_caches, groebner
from gpfkit.arith import PolyRing, Polynomial, mono_divides
from gpfkit.errors import BudgetError, RingMismatchError
from gpfkit.fields import GF, QQ
from gpfkit.groebner import buchberger, vector_key
from gpfkit.modops import Ideal, QuotientModule, Submodule, colon_module

from helpers import twisted_ring, xy_ring


def test_membership_classic():
    ring, x, y = xy_ring()
    gb = buchberger([(x - y,), (x * x,)], ring=ring, rank=1)
    assert gb.contains((y * y,))
    assert gb.contains((x * y,))
    assert not gb.contains((y,))


def test_normal_form_is_idempotent():
    ring, x, y = xy_ring()
    gb = buchberger([(x * x - y,), (x * y - x,)], ring=ring, rank=1)
    v = (x * x * x + y * y,)
    nf = gb.normal_form(v)
    assert gb.normal_form(nf) == nf


def test_basis_key_independent_of_generator_order():
    ring, x, y = xy_ring()
    gens = [(x * x - y,), (x * y,), (y * y - y,), (x * y + y * y,)]
    base = buchberger(gens, ring=ring, rank=1).vectors
    rng = random.Random(7)
    for _ in range(10):
        shuffled = gens[:]
        rng.shuffle(shuffled)
        assert buchberger(shuffled, ring=ring, rank=1).vectors == base
    # the cache key is the generator set: repeats and zero vectors hit too
    again = gens + [gens[0], (ring.zero(),)]
    assert buchberger(again, ring=ring, rank=1) is buchberger(gens, ring=ring, rank=1)


def _x_squared_ring():
    """QQ[x,y]/(x^2) with its x and y."""
    _, px, _ = xy_ring()
    ring = PolyRing(QQ, ("x", "y"), relations=(px * px,))
    return ring, ring.gen(0), ring.gen(1)


def test_quotient_relations_enter_the_basis():
    ring, x, y = _x_squared_ring()
    gb = Submodule(ring, 1, [(x * y,)]).groebner()
    assert gb.contains((x * x * y,))
    assert gb.contains((x * x,))


def test_buchberger_bases_exactly_its_generators():
    """Over QQ[x,y]/(x^2) `buchberger` adjoins no relation: x^2 lies in
    the basis of the submodule, which the module layer builds, and not in
    the basis of (xy) alone."""
    ring, x, y = _x_squared_ring()
    assert not buchberger([(x * y,)], ring=ring, rank=1).contains((x * x,))
    assert Submodule(ring, 1, [(x * y,)]).groebner().contains((x * x,))


def test_vector_membership_rank_two():
    ring, x, y = xy_ring()
    gb = buchberger([(x, ring.zero()), (ring.zero(), y)], ring=ring, rank=2)
    assert gb.contains((x * y, y * y))
    assert not gb.contains((y, ring.zero()))


def test_twisted_ring_membership():
    ring = twisted_ring()
    x, y, z = ring.gen(0), ring.gen(1), ring.gen(2)
    gb = Submodule(ring, 1, [(x * x,), (x * z,), (z * z,)]).groebner()
    assert gb.contains((x * y,))
    assert gb.contains((y * z,))
    assert not gb.contains((y * y,))


def test_buchberger_rejects_wrong_rank_and_ring():
    ring, x, y = xy_ring()
    gens = [(x * y,), (y * y,)]
    buchberger(gens, ring=ring, rank=1)  # cached before the bad calls
    with pytest.raises(RingMismatchError):
        buchberger(gens, ring=ring, rank=2)
    other = PolyRing(QQ, ("x", "y", "z"))
    with pytest.raises(RingMismatchError):
        buchberger(gens + [(other.gen(2),)], ring=ring, rank=1)


def test_quotient_reduce_is_the_relation_basis_normal_form():
    ring = twisted_ring()
    x, y, z = ring.gens()
    pure = PolyRing(QQ, ring.names)
    lifted = [(Polynomial(pure, dict(r.terms())),) for r in ring.relations]
    want = buchberger(lifted, ring=pure, rank=1).vectors
    got = ring.relation_basis()
    assert tuple((r.key(),) for r in got) == tuple(vector_key(v) for v in want)
    lts = [r.leading_term()[0] for r in ring.relation_basis()]
    for f in (x * x * y, y * z * z - x, x * x * x + z):
        nf = ring.reduce(f)
        assert not any(mono_divides(t, m) for t in lts for m in nf.monomials())
        assert ring.reduce(f - nf).is_zero()


def test_pair_budget_refuses_one_pair_more(monkeypatch):
    """A call that selects more than MAX_PAIRS pairs raises BudgetError
    and stores no basis; the smallest bound that admits the call, its
    own pair count, gives the same basis, and one pair less refuses it
    again."""
    ring, x, y = xy_ring()
    gens = [(x * x - y,), (x * y - 1,)]
    clear_caches()
    want = buchberger(gens, ring=ring, rank=1)
    for count in range(1, 100):
        monkeypatch.setattr(groebner, "MAX_PAIRS", count)
        clear_caches()
        try:
            got = buchberger(gens, ring=ring, rank=1)
        except BudgetError:
            continue
        break
    else:
        pytest.fail("no bound under 100 pairs admits the call")
    assert count > 1
    assert got.vectors == want.vectors
    monkeypatch.setattr(groebner, "MAX_PAIRS", count - 1)
    clear_caches()
    message = "Buchberger selected more than %d pairs" % (count - 1)
    with pytest.raises(BudgetError, match=message):
        buchberger(gens, ring=ring, rank=1)
    # nothing was stored, so the same call is refused again
    with pytest.raises(BudgetError, match=message):
        buchberger(gens, ring=ring, rank=1)
    clear_caches()


def test_kernel_keeps_the_field_coefficients():
    """A kernel's entries are shifted with their coefficients as they are,
    so a colon over a quotient ring holds `Fraction`s over QQ and ints
    over F_32003, the types the field's own arithmetic returns."""
    for field, kind in ((QQ, Fraction), (GF(32003), int)):
        ring = PolyRing(field, ("x", "y", "z"))
        x, y, z = ring.gens()
        ring = PolyRing(field, ring.names, relations=(x * y - z * z, x * x - y * z))
        x, y, z = ring.gens()
        M = QuotientModule.of_ring(ring)
        got = colon_module(M.span(((z * z * z - 2 * x,),)), Ideal(ring, [x, z]), M)
        coeffs = [c for (p,) in got.gens for _, c in p.terms()]
        assert coeffs and all(type(c) is kind for c in coeffs)
