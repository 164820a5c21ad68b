"""Monomial ideals as lists of exponent tuples.

Over a ring without relations, monomial vectors (one nonzero component
holding one term) generate a direct sum of monomial ideals I_c e_c, one
per component c, and on monomial ideals colon, intersection and
irreducible decomposition are exponent arithmetic (Miller & Sturmfels,
*Combinatorial Commutative Algebra*, ch. 1 and 5).  The zero ideal is
the empty list; the unit ideal holds the zero tuple.
"""

from __future__ import annotations

from operator import le

from .arith import mono_div, mono_gcd, mono_lcm
from .errors import BudgetError

# The bound on grown components: (x_1 y_1, ..., x_n y_n) has 2^n, and at
# n = 10 the quadratic redundancy filter takes 1.8 s on a 2-vCPU Xeon VM.
MAX_COMPONENTS = 1024


def split(rank, vectors):
    """The minimal generators of the monomial ideals, one per component,
    that the vectors of a rank-`rank` free module generate; None when some
    vector is not a monomial vector.  The caller checks that the ring has
    no relations."""
    out = [[] for _ in range(rank)]
    for v in vectors:
        if sum(len(p) for p in v) != 1:
            return None
        c = next(i for i, p in enumerate(v) if p)
        out[c].extend(v[c].monomials())
    return [minimal(gens) for gens in out]


def member(gens, m):
    """Whether x^m lies in the monomial ideal: some generator divides it."""
    return any(all(map(le, g, m)) for g in gens)


def minimal(gens):
    """The minimal generators: a divisor has no larger degree, so one pass
    in degree order keeps exactly the generators no other one divides."""
    out = []
    for g in sorted(set(gens), key=lambda g: (sum(g), g)):
        if not member(out, g):
            out.append(g)
    return out


def colon(gens, f):
    """(I : x^f) is generated by each generator divided by its gcd with
    x^f."""
    return minimal(mono_div(g, mono_gcd(g, f)) for g in gens)


def intersection(a, b):
    """I intersect J is generated by the lcms of pairs of generators."""
    return minimal(mono_lcm(g, h) for g in a for h in b)


def irreducible_components(monomials):
    """The irredundant irreducible decomposition of the monomial ideal the
    exponent tuples generate.

    A component is a dict {i: a} standing for the ideal (x_i^a : i).  The
    zero ideal is the single component {}; the unit ideal has none.  Each
    generator g adds itself to every component C it is not in: by
    distributivity C + (g) is the intersection of C + (x_i^g_i) over the
    support of g, and each of those is irreducible.  A component that
    contains another is redundant and dropped.  More than MAX_COMPONENTS
    grown components, counted before that filter, raise BudgetError.
    """
    comps = [{}]
    for g in monomials:
        support = [i for i, e in enumerate(g) if e]
        grown = {}
        for c in comps:
            if any(g[i] >= a for i, a in c.items()):
                parts = [c]
            else:
                parts = [{**c, i: g[i]} for i in support]
            for part in parts:
                grown.setdefault(frozenset(part.items()), part)
        if len(grown) > MAX_COMPONENTS:
            raise BudgetError(
                "irreducible decomposition grew %d components, over the "
                "bound %d" % (len(grown), MAX_COMPONENTS)
            )
        comps = [
            c
            for c in grown.values()
            if not any(
                d is not c and all(i in c and c[i] <= a for i, a in d.items())
                for d in grown.values()
            )
        ]
    return comps
