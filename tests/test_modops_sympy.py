"""Intersection, colon and saturation checked against sympy's Groebner engine.

sympy is a test-only dependency; the module is skipped without it.  It
is the independent reference for the module layer, whose colon,
intersection and saturation all come from one kernel basis under
position over term.  sympy instead runs the Rabinowitsch tag-variable
elimination under lex with t first: (t A + (1 - t) B) for A intersect B,
the intersection with (f) divided by f for the colon A : f, and
A + (1 - t f) for the saturation by f.  Results are compared as reduced
grevlex bases computed by sympy, over a quotient ring with the relations
adjoined on both sides.  Random cases with polynomials of several terms
take gpfkit's kernel path; the fixed monomial case takes its
exponent-arithmetic path.  A rank-2 colon is compared as a module: R^2 is
encoded by tag variables e1, e2, and membership is tested both ways.
"""

import random
from fractions import Fraction

import pytest

from gpfkit.arith import PolyRing
from gpfkit.fields import GF, QQ
from gpfkit.modops import (
    Ideal,
    QuotientModule,
    colon_module,
    ideal_intersection,
    intersect,
    saturate,
)

from helpers import twisted_ring

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


def _sympy_saturate(a, f, modulus):
    return _eliminate(list(a) + [1 - T * f], modulus)


def _random_poly(rng, ring):
    p = ring.zero()
    for _ in range(rng.randint(1, 3)):
        exps = tuple(rng.randint(0, 2) for _ in range(ring.nvars))
        p = p + ring.monomial(exps, rng.choice([1, 2, -1, 3]))
    return p if not p.is_zero() else ring.gen(rng.randrange(ring.nvars))


def _random_ideal(rng, ring):
    return [_random_poly(rng, ring) for _ in range(rng.randint(1, 2))]


def _sympy_gens(sub):
    return [_to_sympy(v[0]) for v in sub.gens]


def _field_ring(modulus):
    return PolyRing(GF(modulus) if modulus else QQ, ("x", "y", "z"))


@pytest.mark.parametrize("modulus", [None, 32003], ids=["QQ", "GF32003"])
def test_intersect_and_colon_match_sympy(modulus):
    ring = _field_ring(modulus)
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
        assert _canonical(_sympy_gens(intersect(A, B)), modulus) == want
        got = [_to_sympy(g) for g in ideal_intersection(Ideal(ring, a), Ideal(ring, b)).gens]
        assert _canonical(got, modulus) == want

        got = _sympy_gens(colon_module(A, Ideal(ring, [f]), M))
        want = _sympy_colon(a_sp, _to_sympy(f), modulus)
        assert _canonical(got, modulus) == _canonical(want, modulus)


@pytest.mark.parametrize("modulus", [None, 32003], ids=["QQ", "GF32003"])
def test_saturate_and_two_generator_colon_match_sympy(modulus):
    """saturate against the Rabinowitsch elimination, and a colon by two
    generators (a kernel with two blocks) against the intersection of
    the two single colons."""
    ring = _field_ring(modulus)
    M = QuotientModule.of_ring(ring)
    rng = random.Random("saturate-%s" % modulus)
    x, y, z = ring.gens()
    # (x^2 (y - z), x (y - z)^2) saturates by x to (y - z) in two colons
    cases = [
        ([x * x * (y - z), x * (y - z) * (y - z)], x, y - z),
        ([x * x * y - z * z * z, x * y * z], x - y, z),
    ]
    cases += [
        (_random_ideal(rng, ring), _random_poly(rng, ring), _random_poly(rng, ring))
        for _ in range(4)
    ]
    for a, f, g in cases:
        A = Ideal(ring, a).as_submodule()
        a_sp = [_to_sympy(h) for h in a]
        f_sp, g_sp = _to_sympy(f), _to_sympy(g)

        want = _sympy_saturate(a_sp, f_sp, modulus)
        got = _sympy_gens(saturate(A, f, M))
        assert _canonical(got, modulus) == _canonical(want, modulus)

        want = _sympy_intersect(
            _sympy_colon(a_sp, f_sp, modulus), _sympy_colon(a_sp, g_sp, modulus), modulus
        )
        got = _sympy_gens(colon_module(A, Ideal(ring, [f, g]), M))
        assert _canonical(got, modulus) == _canonical(want, modulus)


def test_saturate_over_the_twisted_ring_matches_sympy():
    """Over QQ[x,y,z]/(xy - z^2, x^2 - yz) sympy saturates N + J, with the
    relation ideal J adjoined, and the results agree modulo J."""
    ring = twisted_ring()
    M = QuotientModule.of_ring(ring)
    rels = [_to_sympy(r) for r in ring.relations]
    rng = random.Random("twisted")
    x, y, z = ring.gens()
    cases = [([x * x, x * z, z * z], y), ([x * x, x * z, z * z], y * y - x)]
    cases += [(_random_ideal(rng, ring), _random_poly(rng, ring)) for _ in range(3)]
    for a, f in cases:
        got = _sympy_gens(saturate(Ideal(ring, a).as_submodule(), f, M))
        want = _sympy_saturate([_to_sympy(h) for h in a] + rels, _to_sympy(f), None)
        assert _canonical(got + rels, None) == _canonical(want + rels, None)


E = sympy.symbols("e1 e2")


def _tagged(v):
    """A vector of R^k as the e-degree-1 form sum v_c e_c."""
    return sum((_to_sympy(p) * e for p, e in zip(v, E)), sympy.Integer(0))


def _tag_eliminate(exprs):
    basis = sympy.groebner(exprs, T, *SYMS, *E, order="lex", domain=sympy.QQ)
    return [g for g in basis.exprs if not g.has(T)]


def _tag_colon(a, f):
    out = []
    for g in _tag_eliminate([T * h for h in a] + [(1 - T) * f]):
        q, r = sympy.div(g, f, *SYMS, *E, domain=sympy.QQ)
        assert r == 0
        out.append(q)
    return out


def _from_sympy(ring, expr):
    out = ring.zero()
    for exps, c in sympy.Poly(expr, *SYMS).terms():
        out = out + ring.monomial(exps, Fraction(int(c.p), int(c.q)))
    return out


def _degree_one_part(ring, gens):
    """R-module generators of the e-degree-1 part of the ideal with these
    e-homogeneous generators: each degree-1 generator as a vector, and
    each degree-0 generator times every unit vector."""
    zero = ring.zero()
    out = []
    for g in gens:
        parts = {}
        for (a, b), c in sympy.Poly(g, *E).terms():
            parts[(a, b)] = _from_sympy(ring, c)
        if (1, 0) in parts or (0, 1) in parts:
            out.append((parts.get((1, 0), zero), parts.get((0, 1), zero)))
        if (0, 0) in parts:
            g0 = parts[(0, 0)]
            out += [(g0, zero), (zero, g0)]
    return out


def test_rank_two_colon_over_the_twisted_ring_matches_sympy():
    """(N : p) for N in R^2 over QQ[x,y,z]/(xy - z^2, x^2 - yz) and the
    two-generator prime p = (x, z): a kernel with two seeded blocks.
    sympy has no position-over-term module order, so R^2 is encoded with
    tag variables e1, e2: N becomes the ideal I_N = (sum v_c e_c) +
    (e1, e2)^2 + J, and (N : p) is the e-degree-1 part of (I_N : p), the
    intersection of the colons (I_N : f) over the generators f of p.  The
    modules are compared by membership both ways."""
    ring = twisted_ring()
    x, y, z = ring.gens()
    zero = ring.zero()
    M = QuotientModule.free(ring, 2)
    N = M.span(((x * y, z), (z * z, zero), (zero, y * z - x), (x, x * z)))
    p = Ideal(ring, [x, z])
    got = colon_module(N, p, M)

    e1, e2 = E
    ideal = [_tagged(v) for v in N.gens] + [e1 * e1, e1 * e2, e2 * e2]
    ideal += [_to_sympy(r) for r in ring.relations]
    colons = [_tag_colon(ideal, _to_sympy(f)) for f in p.gens]
    for colon in colons:
        basis = sympy.groebner(colon, *SYMS, *E, order="grevlex", domain=sympy.QQ)
        assert all(basis.contains(_tagged(v)) for v in got.gens)
    both = _tag_eliminate([T * g for g in colons[0]] + [(1 - T) * g for g in colons[1]])
    want = _degree_one_part(ring, both)
    assert all(got.contains(v) for v in want)
    assert not N.contains_module(got)
    assert not got.contains_module(M.full())
