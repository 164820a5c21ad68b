"""Ideals, submodules of free modules, subquotients, and colon operations.

A `Submodule` is a generator list inside a fixed free module R^k, and the
only type that carries a basis.  An `Ideal` is the rank-1 submodule of R^1
its generators span, seen through polynomials; prime ideals
(`primes.PrimeIdeal`) are ideals.  A `QuotientModule` presents a
subquotient top/denominator of R^k; every submodule of it is represented
by generators in R^k with the denominator generators adjoined, and each
operation taking the quotient as context adds the denominator before
computing.  Over quotient rings the relation ideal is adjoined
automatically by the basis layer, except inside the tag variable
elimination where the relations are placed on both sides by hand.

Intersection, colon and saturation share one primitive, `_tag_eliminate`:
scale two generator lists by polynomials a(t), b(t) in a fresh tag
variable t, eliminate t, and keep the t-free part (the Rabinowitsch
trick).  Intersection uses (t, 1 - t).  Colon by an ideal runs generator
by generator, each f with (t, (1 - t) f) followed by exact division by f,
and intersects the results.  Saturation by f is a single elimination with
(1, 1 - t f), not an iterated colon.  The transporter ideal (B : A) is
read off one kernel basis in rank s k + 1 over the s generators of A
outside B; no intersection of ideals follows it.

Colon, transporter and intersection first try a monomial path, chosen
from the inputs alone: over a ring without relations, when every
generator involved is a monomial vector and every ideal generator a
monomial, the submodules split by component into monomial ideals and
the result is exponent arithmetic from `monomial`.  It passes through
the same canonical form, so its bytes equal the elimination's.
"""

from __future__ import annotations

import logging

from . import monomial
from .arith import GREVLEX
from .errors import RingMismatchError
from .groebner import (
    buchberger,
    eliminate,
    relation_vectors,
    tag_ring,
    vector_key,
)

log = logging.getLogger("gpfkit")


def _dedup_vectors(vectors):
    seen = set()
    out = []
    for v in vectors:
        if all(p.is_zero() for p in v):
            continue
        k = vector_key(v)
        if k not in seen:
            seen.add(k)
            out.append(tuple(v))
    return tuple(out)


def _sort_polys(polys):
    return tuple(
        sorted(
            polys,
            key=lambda p: (GREVLEX.mono_key(p.leading_term()[0]), p.key()),
            reverse=True,
        )
    )


class Ideal:
    """A finitely generated ideal of a polynomial or quotient ring.

    The ideal is the rank-1 submodule of ring^1 its generators span, held
    as a `Submodule`; bases, canonical forms, deduplication and the ring
    check all live there.  This class only speaks in polynomials.
    """

    def __init__(self, ring, gens):
        self.ring = ring
        self._sub = Submodule(ring, 1, [(g,) for g in gens])
        self.gens = tuple(v[0] for v in self._sub.gens)

    def as_submodule(self):
        return self._sub

    def canonical_gens(self):
        """Reduced basis elements that are nonzero modulo the relations."""
        return tuple(v[0] for v in self._sub.canonical())

    def key(self):
        return tuple(p.key() for p in self.canonical_gens())

    def contains(self, f):
        return self._sub.contains((f,))

    def contains_ideal(self, other):
        return self._sub.contains_module(other.as_submodule())

    def equals(self, other):
        return self.ring == other.ring and self.key() == other.key()

    def strictly_contains(self, other):
        return self.contains_ideal(other) and not other.contains_ideal(self)

    def is_zero(self):
        return self._sub.is_zero()

    def product(self, other):
        if self.ring != other.ring:
            raise RingMismatchError("ideal product across rings")
        gens = [a * b for a in self.gens for b in other.gens]
        return Ideal(self.ring, _sort_polys(gens))

    def power(self, r):
        if not isinstance(r, int) or r < 0:
            raise ValueError("ideal power wants a nonnegative int")
        out = unit_ideal(self.ring)
        for _ in range(r):
            out = out.product(self)
        return out

    def __str__(self):
        return str(self._sub)

    def __repr__(self):
        return "Ideal%s" % self


def unit_ideal(ring):
    return Ideal(ring, [ring.one()])


def ideal_product(a, b):
    return a.product(b)


def ideal_power(a, r):
    return a.power(r)


def partial_products(pairs):
    """[(1), a1^r1, a1^r1 a2^r2, ...] for a sequence of (ideal, exponent)
    pairs; the last entry is the ordered product."""
    if not pairs:
        raise ValueError("need at least one ideal")
    out = [unit_ideal(pairs[0][0].ring)]
    for a, r in pairs:
        out.append(out[-1].product(a.power(r)))
    return out


def ideal_intersection(a, b):
    if a.ring != b.ring:
        raise RingMismatchError("ideal intersection across rings")
    gens_a = [(g,) for g in a.gens]
    gens_b = [(g,) for g in b.gens]
    got = _tag_eliminate(a.ring, 1, gens_a, gens_b, (0, 1), (1, -1))
    return Ideal(a.ring, _sort_polys(v[0] for v in got))


class Submodule:
    """A generator list inside the free module ring^rank."""

    def __init__(self, ring, rank, gens):
        self.ring = ring
        self.rank = rank
        checked = []
        for v in gens:
            v = tuple(v)
            if len(v) != rank:
                raise RingMismatchError("generator of wrong rank")
            for p in v:
                if p.ring != ring:
                    raise RingMismatchError("generator over a different ring")
            checked.append(v)
        self.gens = _dedup_vectors(checked)
        self._gb = None
        self._canonical = None

    @classmethod
    def zero(cls, ring, rank):
        return cls(ring, rank, [])

    @classmethod
    def free(cls, ring, rank):
        zero = ring.zero()
        one = ring.one()
        gens = []
        for i in range(rank):
            v = [zero] * rank
            v[i] = one
            gens.append(tuple(v))
        return cls(ring, rank, gens)

    def groebner(self):
        if self._gb is None:
            self._gb = buchberger(self.gens, ring=self.ring, rank=self.rank)
        return self._gb

    def canonical(self):
        """Reduced basis vectors that are nonzero modulo the relations."""
        if self._canonical is None:
            vecs = []
            for v in reversed(self.groebner().vectors):
                if any(not self.ring.reduce(p).is_zero() for p in v):
                    vecs.append(v)
            self._canonical = tuple(vecs)
        return self._canonical

    def key(self):
        return tuple(vector_key(v) for v in self.canonical())

    def contains(self, v):
        return self.groebner().contains(tuple(v))

    def contains_module(self, other):
        self._compat(other)
        return all(self.contains(v) for v in other.gens)

    def equals(self, other):
        self._compat(other)
        return self.key() == other.key()

    def is_zero(self):
        return not self.canonical()

    def plus(self, other):
        self._compat(other)
        return Submodule(self.ring, self.rank, self.gens + other.gens)

    def _compat(self, other):
        if self.ring != other.ring or self.rank != other.rank:
            raise RingMismatchError("submodules in different ambients")

    def as_ideal(self):
        if self.rank != 1:
            raise ValueError("only rank 1 submodules are ideals")
        return Ideal(self.ring, [v[0] for v in self.gens])

    def __str__(self):
        if not self.gens:
            return "(0)"
        if self.rank == 1:
            return "(%s)" % ", ".join(str(v[0]) for v in self.gens)
        return "(%s)" % ", ".join(
            "(%s)" % ", ".join(str(p) for p in v) for v in self.gens
        )

    def __repr__(self):
        return "Submodule%s" % self


class QuotientModule:
    """A subquotient top/denominator of a free module R^k.

    With check=False the denominator need not sit inside top; the module
    is then (top + denominator)/denominator, which is how the support and
    annihilator of any pair of submodules are asked for.
    """

    def __init__(self, top, denom=None, check=True):
        if denom is None:
            denom = Submodule.zero(top.ring, top.rank)
        top._compat(denom)
        self.ring = top.ring
        self.rank = top.rank
        self.top = top
        self.denom = denom
        if check and not top.contains_module(denom):
            raise ValueError("denominator does not sit inside the top module")
        self._full = None
        self._ann = None

    @classmethod
    def of_ring(cls, ring):
        return cls(Submodule(ring, 1, [(ring.one(),)]))

    @classmethod
    def free(cls, ring, rank, denom_gens=()):
        top = Submodule.free(ring, rank)
        denom = Submodule(ring, rank, denom_gens)
        return cls(top, denom)

    def span(self, vectors):
        """The submodule of this quotient the vectors generate, as a
        generator list in the free ambient with the denominator adjoined."""
        return Submodule(self.ring, self.rank, tuple(vectors) + self.denom.gens)

    def full(self):
        if self._full is None:
            self._full = self.span(self.top.gens)
        return self._full

    def module_of(self, sub):
        """A submodule of this quotient viewed as a module in its own right."""
        return QuotientModule(sub, self.denom, check=False)

    def with_denominator(self, sub):
        """The quotient of this module by the given submodule."""
        return QuotientModule(self.top, sub, check=False)

    def contains_submodule(self, sub):
        return self.full().contains_module(sub)

    def is_zero(self):
        return self.denom.contains_module(self.top)

    def ann(self):
        if self._ann is None:
            self._ann = colon_ideal(self.denom, self.full())
        return self._ann

    def key(self):
        return (self.top.key(), self.denom.key())

    def __str__(self):
        if self.denom.gens:
            return "%s / %s" % (self.top, self.denom)
        return str(self.top)


# ---------------------------------------------------------------------------
# tag variable machinery


def _tag_eliminate(ring, rank, gens_a, gens_b, a, b):
    """The t-free part of a(t)(A + rel) + b(t)(B + rel), lowered to ring^rank.

    A tag polynomial is given by its coefficients in ascending powers of
    t, each an int or an element of ring.  The scalings (t, 1 - t) give
    (A + rel) intersect (B + rel); (t, (1 - t) f) gives f times the colon
    of A by f inside B; (1, 1 - t f) gives the saturation of A by f inside
    B.  This is the only elimination in the module layer.
    """
    ext, lift, lower = tag_ring(ring)
    rel = tuple(relation_vectors(ring, rank))
    work = []
    for gens, coeffs in ((gens_a, a), (gens_b, b)):
        scale = ext.zero()
        for tpow, c in enumerate(coeffs):
            if isinstance(c, int):
                c = ring.const(c)
            scale = scale + lift(c, tpow)
        for v in tuple(gens) + rel:
            work.append(tuple(scale * lift(p) for p in v))
    got = eliminate(
        work, range(1, ext.nvars), ring=ext, rank=rank, include_relations=False
    )
    return [tuple(lower(p) for p in v) for v in got]


def _monomial_parts(ring, rank, *groups):
    """Each group split by component into monomial ideals, or None (the
    general path) unless all are monomial vectors over a plain ring."""
    parts = [monomial.split(ring, rank, g) for g in groups]
    return None if None in parts else parts


# ---------------------------------------------------------------------------
# public operations


def module_scale(ideal, M):
    """The submodule ideal * M of the quotient M, with denominator adjoined."""
    if ideal.ring != M.ring:
        raise RingMismatchError("scaling by an ideal over a different ring")
    gens = []
    for g in ideal.gens:
        for v in M.top.gens:
            gens.append(tuple(g * p for p in v))
    return M.span(gens)


def colon_module(N, ideal, M):
    """The colon (N : ideal) inside the quotient module M.

    Returns the submodule {x in M : ideal * x in N}, with the denominator
    of M added to N before computing.  A zero ideal returns all of M and
    logs a diagnostic.
    """
    if N.ring != M.ring or N.rank != M.rank:
        raise RingMismatchError("colon arguments in different ambients")
    if not M.contains_submodule(N):
        raise ValueError("N is not a submodule of M")
    fs = []
    for g in ideal.gens:
        r = M.ring.reduce(g)
        if not r.is_zero():
            fs.append(r)
    seen = set()
    fs = [f for f in fs if not (f.key() in seen or seen.add(f.key()))]
    if not fs:
        log.debug("colon by the zero ideal returns the whole module")
        return Submodule(M.ring, M.rank, M.full().canonical())
    gens_n = tuple(N.gens) + tuple(M.denom.gens)
    gens_m = tuple(M.top.gens) + tuple(M.denom.gens)
    parts = _monomial_parts(M.ring, M.rank, gens_n, gens_m)
    f_parts = _monomial_parts(M.ring, 1, [(f,) for f in fs])
    if parts is not None and f_parts is not None:
        acc = []
        for n_c, m_c in zip(*parts):
            for f in f_parts[0][0]:  # one group of rank 1
                m_c = monomial.intersection(m_c, monomial.colon(n_c, f))
            acc.append(m_c)
        acc = monomial.vectors(M.ring, acc)
    else:
        acc = None
        for f in fs:
            got = _tag_eliminate(M.ring, M.rank, gens_n, gens_m, (0, 1), (f, -f))
            part = [tuple(p.exact_div(f) for p in v) for v in got]
            if acc is None:
                acc = part
            else:
                acc = _tag_eliminate(M.ring, M.rank, acc, part, (0, 1), (1, -1))
    return Submodule(M.ring, M.rank, Submodule(M.ring, M.rank, acc).canonical())


def colon_ideal(B, A):
    """The transporter ideal {r : r A <= B}, the annihilator of A/B.

    With a_1, ..., a_s the generators of A outside B, r lies in the ideal
    exactly when (0 | ... | 0 | r) lies in the submodule of R^(s k + 1)
    spanned by (a_1 | ... | a_s | 1) and by B placed in each of the s
    blocks.  Position over term puts the last component lowest, so the
    basis vectors that vanish elsewhere carry a basis of the ideal in
    their last entry (Cox, Little & O'Shea, *Ideals, Varieties, and
    Algorithms*).
    """
    B._compat(A)
    ring = B.ring
    if not A.contains_module(B):
        raise ValueError("transporter wants B inside A")
    bgb = B.groebner()
    outside = [a for a in A.gens if not bgb.contains(a)]
    if not outside:
        return unit_ideal(ring)
    k = B.rank
    parts = _monomial_parts(ring, k, B.gens, outside)
    if parts is not None:
        exps = [(0,) * ring.nvars]
        for b_c, a_c in zip(*parts):
            for a in a_c:
                exps = monomial.intersection(exps, monomial.colon(b_c, a))
        gens = [ring.monomial(g) for g in exps]
    else:
        width = len(outside) * k
        zero = ring.zero()
        work = [tuple(p for a in outside for p in a) + (ring.one(),)]
        for start in range(0, width, k):
            for b in B.gens:
                vec = [zero] * (width + 1)
                vec[start : start + k] = b
                work.append(tuple(vec))
        gb = buchberger(work, ring=ring, rank=width + 1)
        gens = [v[width] for v in gb.vectors if not any(v[:width])]
    return Ideal(ring, _sort_polys(Ideal(ring, gens).canonical_gens()))


def saturate(N, f, M):
    """The saturation {x in M : f^n x in N for some n}, inside the quotient M.

    This is the stable value of the chain N : f, (N : f) : f, ..., computed
    by one elimination: an x in M lies in N + (1 - t f) M over R[t] exactly
    when some f^n x lies in N (substitute t = 1/f), and every t-free vector
    there lies in N + M = M (set t = 0).  The denominator of M is added to
    N before computing.
    """
    f = M.ring.reduce(f)
    if f.is_zero():
        log.debug("saturation by zero returns the whole module")
        return Submodule(M.ring, M.rank, M.full().canonical())
    if not M.contains_submodule(N):
        raise ValueError("N is not a submodule of M")
    gens_n = tuple(N.gens) + tuple(M.denom.gens)
    gens_m = tuple(M.top.gens) + tuple(M.denom.gens)
    got = _tag_eliminate(M.ring, M.rank, gens_n, gens_m, (1,), (1, -f))
    return Submodule(M.ring, M.rank, Submodule(M.ring, M.rank, got).canonical())


def intersect(N1, N2):
    N1._compat(N2)
    parts = _monomial_parts(N1.ring, N1.rank, N1.gens, N2.gens)
    if parts is not None:
        got = [monomial.intersection(a, b) for a, b in zip(*parts)]
        got = monomial.vectors(N1.ring, got)
    else:
        got = _tag_eliminate(N1.ring, N1.rank, N1.gens, N2.gens, (0, 1), (1, -1))
    sub = Submodule(N1.ring, N1.rank, got)
    return Submodule(N1.ring, N1.rank, sub.canonical())


def module_sum(N1, N2):
    return N1.plus(N2)


def contains(N1, N2):
    """Whether N1 contains N2 (both taken modulo the ring relations)."""
    return N1.contains_module(N2)


def equals(N1, N2):
    return N1.equals(N2)
