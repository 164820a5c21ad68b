"""Intersections and colon checked against sympy's Groebner engine.

sympy is a test-only dependency; the module is skipped without it.
sympy runs the tag-variable elimination under lex with t first, and the
results are compared as reduced grevlex bases computed by sympy.  A
random case with a polynomial of several terms takes gpfkit's elimination
path; the fixed monomial case takes its exponent-arithmetic path.
"""

import random

import pytest

from gpfkit.arith import PolyRing
from gpfkit.fields import GF, QQ
from gpfkit.modops import (
    Ideal,
    QuotientModule,
    colon_module,
    ideal_intersection,
    intersect,
)

sympy = pytest.importorskip("sympy")

T, X, Y, Z = sympy.symbols("t x y z")
SYMS = (X, Y, Z)


def _to_sympy(p):
    out = sympy.Integer(0)
    for m, c in p.terms():
        term = sympy.Rational(c.numerator, c.denominator)
        for s, e in zip(SYMS, m):
            term *= s**e
        out += term
    return out


def _opts(modulus):
    return {"modulus": modulus} if modulus else {"domain": sympy.QQ}


def _canonical(exprs, modulus):
    basis = sympy.groebner(exprs, *SYMS, order="grevlex", **_opts(modulus))
    return set(basis.exprs)


def _eliminate(exprs, modulus):
    basis = sympy.groebner(exprs, T, *SYMS, order="lex", **_opts(modulus))
    return [g for g in basis.exprs if not g.has(T)]


def _sympy_intersect(a, b, modulus):
    return _eliminate([T * g for g in a] + [(1 - T) * g for g in b], modulus)


def _sympy_colon(a, f, modulus):
    out = []
    for g in _sympy_intersect(a, [f], modulus):
        q, r = sympy.div(g, f, *SYMS, **_opts(modulus))
        assert r == 0
        out.append(q)
    return out


def _random_poly(rng, ring):
    p = ring.zero()
    for _ in range(rng.randint(1, 3)):
        exps = tuple(rng.randint(0, 2) for _ in range(ring.nvars))
        p = p + ring.monomial(exps, rng.choice([1, 2, -1, 3]))
    return p if not p.is_zero() else ring.gen(rng.randrange(ring.nvars))


def _random_ideal(rng, ring):
    return [_random_poly(rng, ring) for _ in range(rng.randint(1, 2))]


@pytest.mark.parametrize("modulus", [None, 32003], ids=["QQ", "GF32003"])
def test_intersect_and_colon_match_sympy(modulus):
    ring = PolyRing(GF(modulus) if modulus else QQ, ("x", "y", "z"))
    M = QuotientModule.of_ring(ring)
    rng = random.Random(modulus or 0)
    cases = [
        (_random_ideal(rng, ring), _random_ideal(rng, ring), _random_poly(rng, ring))
        for _ in range(6)
    ]
    # monomial inputs take the module layer's exponent-arithmetic path
    x, y, z = ring.gens()
    cases.append(([x * x * y, 2 * y * z * z], [x * z, y * y], 3 * x * y))
    for a, b, f in cases:
        A = Ideal(ring, a).as_submodule()
        B = Ideal(ring, b).as_submodule()
        a_sp = [_to_sympy(g) for g in a]
        b_sp = [_to_sympy(g) for g in b]

        want = _canonical(_sympy_intersect(a_sp, b_sp, modulus), modulus)
        got = [_to_sympy(v[0]) for v in intersect(A, B).gens]
        assert _canonical(got, modulus) == want
        got = [_to_sympy(g) for g in ideal_intersection(Ideal(ring, a), Ideal(ring, b)).gens]
        assert _canonical(got, modulus) == want

        got = [_to_sympy(v[0]) for v in colon_module(A, Ideal(ring, [f]), M).gens]
        want = _sympy_colon(a_sp, _to_sympy(f), modulus)
        assert _canonical(got, modulus) == _canonical(want, modulus)
