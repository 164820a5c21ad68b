"""Reduced bases checked against sympy's Groebner engine.

sympy is a test-only dependency; the module is skipped without it.  It
is the independent reference for `buchberger` itself, where
`test_modops_sympy.py` checks the operations built on it.  Random ideals
in two or three variables, over QQ and over F_p, are given to both
engines under grevlex; each sympy element is made monic by its grevlex
leading coefficient, and the two reduced bases must be the same set of
term maps.
"""

from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from gpfkit.arith import PolyRing
from gpfkit.fields import GF, QQ
from gpfkit.groebner import buchberger

sympy = pytest.importorskip("sympy")

SYMS = sympy.symbols("x y z")


@st.composite
def ideals(draw):
    """(modulus, nvars, generators): 0 stands for QQ, and each generator
    is a nonzero map from exponent tuples to int coefficients."""
    modulus = draw(st.sampled_from([0, 2, 3, 7, 32003]))
    nvars = draw(st.integers(2, 3))
    mono = st.tuples(*[st.integers(0, 3)] * nvars)
    coeff = st.integers(-3, 3).filter(lambda c: c % modulus if modulus else c)
    terms = st.dictionaries(mono, coeff, min_size=1, max_size=3)
    return modulus, nvars, draw(st.lists(terms, min_size=1, max_size=3))


def _gpfkit_basis(modulus, nvars, gens):
    field = GF(modulus) if modulus else QQ
    ring = PolyRing(field, ("x", "y", "z")[:nvars])
    vectors = [
        (sum((ring.monomial(m, c) for m, c in g.items()), ring.zero()),)
        for g in gens
    ]
    gb = buchberger(vectors, ring=ring, rank=1)
    return {frozenset(v[0].terms()) for v in gb.vectors}


def _sympy_basis(modulus, nvars, gens):
    syms = SYMS[:nvars]
    opts = {"modulus": modulus} if modulus else {"domain": sympy.QQ}
    exprs = [
        sum(c * sympy.prod(s**e for s, e in zip(syms, m)) for m, c in g.items())
        for g in gens
    ]
    out = set()
    for g in sympy.groebner(exprs, *syms, order="grevlex", **opts).exprs:
        terms = sympy.Poly(g, *syms, **opts).terms(order="grevlex")
        if modulus:
            inv = pow(int(terms[0][1]) % modulus, -1, modulus)
            out.add(frozenset((m, int(c) * inv % modulus) for m, c in terms))
        else:
            lead = Fraction(int(terms[0][1].p), int(terms[0][1].q))
            out.add(
                frozenset((m, Fraction(int(c.p), int(c.q)) / lead) for m, c in terms)
            )
    return out


@settings(max_examples=40, deadline=None)
@given(ideals())
def test_reduced_basis_matches_sympy(case):
    modulus, nvars, gens = case
    assert _gpfkit_basis(*case) == _sympy_basis(modulus, nvars, gens)
