import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from gpfkit.arith import (
    PolyRing,
    mono_degree,
    mono_div,
    mono_divides,
    mono_gcd,
    mono_key,
    mono_lcm,
    mono_mul,
)
from gpfkit.errors import RingMismatchError
from gpfkit.fields import GF, QQ

from helpers import twisted_ring, xy_ring


def test_monomial_helpers():
    a, b = (2, 1), (1, 3)
    assert mono_mul(a, b) == (3, 4)
    assert mono_lcm(a, b) == (2, 3)
    assert mono_gcd(a, b) == (1, 1)
    assert mono_degree(a) == 3
    assert mono_divides((1, 1), a)
    assert not mono_divides(b, a)
    assert mono_div((2, 3), (1, 1)) == (1, 2)


def test_poly_str_is_canonical():
    ring, x, y = xy_ring()
    f = x * x - x * y + ring.const(Fraction(1, 2)) * y
    assert str(f) == "x^2 - x*y + 1/2*y"


def test_leading_terms_differ_by_order():
    """Leading terms are grevlex, not lex, and mono_key sorts monomials
    as sympy's grevlex does."""
    ring, x, y = xy_ring()
    f = x + y * y
    assert f.leading_term()[0] == (0, 2)
    orderings = pytest.importorskip("sympy.polys.orderings")
    assert max(f.monomials(), key=orderings.lex) == (1, 0)
    rng = random.Random(0)
    for nvars in (1, 2, 3, 4):
        monos = [tuple(rng.randrange(4) for _ in range(nvars)) for _ in range(80)]
        assert sorted(monos, key=mono_key) == sorted(monos, key=orderings.grevlex)


def test_quotient_reduce_rewrites():
    ring = twisted_ring()
    x, y, z = ring.gen(0), ring.gen(1), ring.gen(2)
    assert ring.reduce(x * y - z * z).is_zero()
    assert ring.reduce(x * x - y * z).is_zero()
    assert not ring.reduce(x - y).is_zero()


def test_reduce_is_idempotent_on_samples():
    ring = twisted_ring()
    x, y, z = ring.gen(0), ring.gen(1), ring.gen(2)
    for f in (x * y * z, (x + y) * (x + z), x * x * x - y * y * z):
        once = ring.reduce(f)
        assert ring.reduce(once).key() == once.key()


def test_cross_ring_arithmetic_rejected():
    ring, x, _ = xy_ring()
    other = PolyRing(QQ, ("x", "y", "z"))
    with pytest.raises(RingMismatchError):
        x + other.gen(0)


def test_prime_field_order_check_at_its_edges():
    """Every order below 2^31 is decided exactly.  46337^2 is the composite
    below 2^31 whose least prime factor is largest, so a divisor range
    one short lets it through."""
    for q in (2, 3, 32003, 2 ** 31 - 1):
        assert GF(q).char == q
    for q in (0, 1, 4, 9, 2 ** 31, 46337 ** 2):
        with pytest.raises(ValueError):
            GF(q)


def _polys(ring, max_terms=3, max_deg=2, coeffs=(-2, -1, 1, 2, 3)):
    monos = st.tuples(
        *(st.integers(min_value=0, max_value=max_deg) for _ in range(ring.nvars))
    )
    def build(pairs):
        out = ring.zero()
        for mono, c in pairs:
            out = out + ring.monomial(mono, coeff=ring.field.from_int(c))
        return out

    return st.lists(
        st.tuples(monos, st.sampled_from(coeffs)),
        min_size=0,
        max_size=max_terms,
    ).map(build)


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_ring_axioms_over_qq(data):
    ring, _, _ = xy_ring()
    polys = _polys(ring)
    f, g, h = data.draw(polys), data.draw(polys), data.draw(polys)
    assert (f + g).key() == (g + f).key()
    assert ((f + g) + h).key() == (f + (g + h)).key()
    assert (f * g).key() == (g * f).key()
    assert ((f * g) * h).key() == (f * (g * h)).key()
    assert (f * (g + h)).key() == (f * g + f * h).key()
    assert (f - f).is_zero()
    assert (f * ring.one()).key() == f.key()
    assert (f * ring.zero()).is_zero()


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_ring_axioms_over_gf5(data):
    ring = PolyRing(GF(5), ("x", "y"))
    polys = _polys(ring)
    f, g, h = data.draw(polys), data.draw(polys), data.draw(polys)
    assert (f * (g + h)).key() == (f * g + f * h).key()
    assert ((f * g) * h).key() == (f * (g * h)).key()


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_quotient_reduce_respects_products(data):
    """Normal forms multiply consistently: nf(f*g) = nf(nf(f)*nf(g))."""
    ring = twisted_ring()
    polys = _polys(ring)
    f, g = data.draw(polys), data.draw(polys)
    lhs = ring.reduce(f * g)
    rhs = ring.reduce(ring.reduce(f) * ring.reduce(g))
    assert lhs.key() == rhs.key()
