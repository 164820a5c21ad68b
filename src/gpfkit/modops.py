"""Ideals, submodules of free modules, subquotients, and colon operations.

A `Submodule` is a generator list inside a fixed free module R^k, and the
only type that carries a basis.  An `Ideal` is the rank-1 submodule of R^1
its generators span, seen through polynomials; prime ideals
(`primes.PrimeIdeal`) are ideals.  A `QuotientModule` presents a
subquotient top/denominator of R^k; every submodule of it is represented
by generators in R^k with the denominator generators adjoined, and each
operation taking the quotient as context adds the denominator before
computing.  Over quotient rings the relation ideal is adjoined in every
component here, never by `groebner.buchberger`, which bases exactly the
generators it is given: `Submodule.groebner` adds the relation vectors
(`relation_vectors`) to the generators, a kernel's seed holds them, and
`_kernel` hands the relation basis to `groebner.kernel` for the x block.

Colon, transporter and intersection share one primitive, `_kernel`: the
x whose images in rows (image_1 | ... | image_s | x) all lie in a bottom
submodule (Greuel & Pfister, *A Singular Introduction to Commutative
Algebra*, 2.8): the seed, the cached basis of the bottom with the
relation vectors, then `groebner.kernel`, which stores no wide basis.
Colon by (f_1, ..., f_s) has rows (f_1 m | ... | f_s m | m),
intersection (n | n), the transporter (B : A) the one row (a_1 | ... |
a_s | 1).  Saturation repeats the colon until it stops growing.
Each result is built once, from its basis (`Submodule.of_basis`).

Over a ring without relations a submodule of monomial vectors splits
once by component into monomial ideals I_c (`Submodule.monomial_split`)
and never reaches Buchberger: its basis is the minimal generators
(`groebner.monomial_basis`) and membership is divisibility.  Colon,
transporter and intersection of split inputs read the splits and
compute by exponent arithmetic from `monomial`, and so do ideal
products, powers and the scaled module ideal * M: a product of monomial
ideals is generated by the sums of its factors' exponents (Miller &
Sturmfels, *Combinatorial Commutative Algebra*, ch. 1).  Such a result
holds only the exponent lists it was built from, as its split
(`Submodule.of_split`); its key, containment and zero test read them,
and its generators, basis and canonical vectors are built as
polynomials only when first read, in the same canonical form as the
kernel's, so its bytes equal the kernel's.

A filtration colons out one prime after another and its verification
and the inverse question ask the same questions again, so
`colon_module`, `colon_ideal` and `module_scale` of split inputs keep
their answers in the bounded `cache.RESULTS` table, keyed by the ring,
the rank and the operands' canonical keys.  Each answer is a reduced
basis or a split, so it depends only on those keys, and a hit returns
what the computation would.  The ring and rank checks run on every
call, the containment checks only when the answer is computed: a hit
means operands with the same keys passed them before.  `module_scale`
of inputs that do not split returns the generator products as given,
which print as given, so that answer is not kept.
"""

from __future__ import annotations

import logging
import math

from . import cache, monomial
from .arith import mono_key, mono_mul
from .errors import BudgetError, RingMismatchError
from .groebner import buchberger, check_vector, kernel, monomial_basis, vector_key

log = logging.getLogger("gpfkit")

_UNSPLIT = object()  # `Submodule._split` not yet computed; None: no split

# The bound on an ideal product's predicted generators.  (x, y, z)^n takes
# time growing as n^3: n = 43, 990 generators, takes 1.0 s on a 2-vCPU
# Xeon VM.
MAX_PRODUCT_GENS = 1000


def relation_vectors(ring, rank):
    """The relation ideal times each unit vector, as rank-length vectors;
    () over a ring without relations."""
    if not ring.is_quotient:
        return ()
    zero = ring.zero()
    return tuple(
        (zero,) * comp + (r,) + (zero,) * (rank - comp - 1)
        for r in ring.relation_basis()
        for comp in range(rank)
    )


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
            key=lambda p: (mono_key(p.leading_term()[0]), p.key()),
            reverse=True,
        )
    )


class Ideal:
    """A finitely generated ideal of a polynomial or quotient ring.

    The ideal is the rank-1 submodule of ring^1 its generators span, held
    as a `Submodule`; bases, canonical forms, deduplication and the ring
    check all live there.  This class only speaks in polynomials; gens
    may also be a rank-1 `Submodule`, which the ideal then wraps.
    """

    def __init__(self, ring, gens):
        self.ring = ring
        if isinstance(gens, Submodule):
            self._sub = gens
        else:
            self._sub = Submodule(ring, 1, [(g,) for g in gens])
        self._gens = None
        self._key = None

    @property
    def gens(self):
        """The generators of the submodule, as polynomials, built on first
        read."""
        if self._gens is None:
            self._gens = tuple(v[0] for v in self._sub.gens)
        return self._gens

    def as_submodule(self):
        return self._sub

    def canonical_gens(self):
        """Reduced basis elements that are nonzero modulo the relations."""
        return tuple(v[0] for v in self._sub.canonical())

    def key(self):
        if self._key is None:
            self._key = tuple(k for (k,) in self._sub.key())
        return self._key

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
        """The product ideal; of monomial ideals, the minimal pairwise
        exponent sums."""
        if self.ring != other.ring:
            raise RingMismatchError("ideal product across rings")
        parts = _monomial_parts(self._sub, other._sub)
        if parts is not None:
            (a,), (b,) = parts
            prod = monomial.minimal(mono_mul(f, g) for f in a for g in b)
            return Ideal(self.ring, Submodule.of_split(self.ring, [prod]))
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
    if ring.relations:
        return Ideal(ring, Submodule.free(ring, 1))
    return Ideal(ring, Submodule.of_split(ring, [[(0,) * ring.nvars]]))


def partial_products(pairs):
    """[(1), a1^r1, a1^r1 a2^r2, ...] for a sequence of (ideal, exponent)
    pairs; the last entry is the ordered product.

    a^r of an ideal with g generators has at most C(g + r - 1, r) of them,
    the monomials of degree r in g letters.  The exponents of a repeated
    ideal (one pair per copy of m) are summed first, so the prediction, the
    product of C(g + R - 1, R), bounds every entry; past MAX_PRODUCT_GENS
    it raises BudgetError before multiplying.
    """
    if not pairs:
        raise ValueError("need at least one ideal")
    exps = {}
    for a, r in pairs:
        exps[a.gens] = exps.get(a.gens, 0) + r
    # (0)^0 = (1) has one generator, though g + R - 1 = -1 there
    count = math.prod(math.comb(max(len(g) + R - 1, 0), R) for g, R in exps.items())
    if count > MAX_PRODUCT_GENS:
        raise BudgetError(
            "ideal product of up to %d generators is over the bound %d"
            % (count, MAX_PRODUCT_GENS)
        )
    out = [unit_ideal(pairs[0][0].ring)]
    for a, r in pairs:
        out.append(out[-1].product(a.power(r)))
    return out


def ideal_intersection(a, b):
    return intersect(a.as_submodule(), b.as_submodule()).as_ideal()


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
        self._gens = _dedup_vectors(checked)
        self._gb = None
        self._split = _UNSPLIT
        self._canonical = None
        self._key = None

    @classmethod
    def zero(cls, ring, rank):
        return cls(ring, rank, [])

    @classmethod
    def free(cls, ring, rank):
        """ring^rank, generated by the unit vectors.  Over a quotient ring
        whose relations leave 1 nonzero they are also its reduced basis
        (each relation vector r e_c reduces to zero by e_c), which is
        built off them with no Buchberger run; over a plain ring the
        split gives the same basis."""
        zero = ring.zero()
        one = ring.one()
        gens = []
        for i in range(rank):
            v = [zero] * rank
            v[i] = one
            gens.append(tuple(v))
        sub = cls(ring, rank, gens)
        if ring.is_quotient and ring.reduce(one):
            sub._gb = monomial_basis(ring, [[(0,) * ring.nvars]] * rank)
        return sub

    @property
    def gens(self):
        """The generators as given, without zero vectors and repeats; for
        a submodule made from a basis or a split, its canonical vectors,
        built on first read."""
        if self._gens is None:
            self._gens = self.canonical()
        return self._gens

    @classmethod
    def of_basis(cls, gb):
        """The submodule a reduced basis spans, generated by its canonical
        vectors.  A reduced basis is unique, so it is also the basis of
        those generators and is kept, not computed again."""
        sub = cls(gb.ring, gb.rank, ())
        sub._gb = gb
        sub._gens = None
        return sub

    @classmethod
    def of_split(cls, ring, ideals):
        """The sum of the I_c e_c, given by the minimal exponent tuples
        `monomial.split` would return, which are kept as its split; its
        basis and generators are read off them when first asked for."""
        sub = cls(ring, len(ideals), ())
        sub._split = ideals
        sub._gens = None
        return sub

    def monomial_split(self):
        """The minimal exponent tuples of each component ideal I_c, once
        computed, when the ring has no relations and every generator is a
        monomial vector (this is then the sum of the I_c e_c); else None."""
        if self._split is _UNSPLIT:
            self._split = (
                None if self.ring.relations else monomial.split(self.rank, self.gens)
            )
        return self._split

    def groebner(self):
        if self._gb is None:
            split = self.monomial_split()
            if split is None:
                gens = self.gens + relation_vectors(self.ring, self.rank)
                self._gb = buchberger(gens, ring=self.ring, rank=self.rank)
            else:
                self._gb = monomial_basis(self.ring, split)
        return self._gb

    def canonical(self):
        """Reduced basis vectors that are nonzero modulo the relations;
        none, with no basis computed, when no generator was given."""
        if self._canonical is None:
            vecs = []
            if self._gens != ():
                for v in reversed(self.groebner().vectors):
                    if any(not self.ring.reduce(p).is_zero() for p in v):
                        vecs.append(v)
            self._canonical = tuple(vecs)
        return self._canonical

    def key(self):
        """The `vector_key`s of the canonical vectors.  A split submodule
        builds them off its exponents in the canonical order: component 0
        first, each component's monomials in descending grevlex, each
        with the coefficient int 1, which equals and hashes as the
        field's one and is cheaper to hash than `Fraction(1)`."""
        if self._key is None:
            split = self.monomial_split()
            if split is None:
                self._key = tuple(vector_key(v) for v in self.canonical())
            else:
                blank = ((),) * self.rank
                self._key = tuple(
                    blank[:c] + (((m, 1),),) + blank[c + 1 :]
                    for c, gens in enumerate(split)
                    for m in sorted(gens, key=mono_key, reverse=True)
                )
        return self._key

    def contains(self, v):
        """Membership; on a split submodule every term of component c must
        be divisible by a generator of I_c."""
        v = tuple(v)
        split = self.monomial_split()
        if split is None:
            return self.groebner().contains(v)
        check_vector(v, self.ring, self.rank)
        return all(
            monomial.member(gens, m) for gens, p in zip(split, v) for m in p.monomials()
        )

    def contains_module(self, other):
        """Containment; of split submodules, every generator of the other's
        I_c lies in this one's."""
        self._compat(other)
        parts = _monomial_parts(self, other)
        if parts is None:
            return all(self.contains(v) for v in other.gens)
        return all(
            monomial.member(mine, m) for mine, theirs in zip(*parts) for m in theirs
        )

    def equals(self, other):
        self._compat(other)
        return self.key() == other.key()

    def is_zero(self):
        split = self.monomial_split()
        if split is None:
            return not self.canonical()
        return not any(split)

    def _compat(self, other):
        if self.ring != other.ring or self.rank != other.rank:
            raise RingMismatchError("submodules in different ambients")

    def as_ideal(self):
        if self.rank != 1:
            raise ValueError("only rank 1 submodules are ideals")
        return Ideal(self.ring, self)

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
        return cls(Submodule.free(ring, 1))

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
        """top + denominator; of split parts, the minimal generators of
        each T_c + D_c."""
        if self._full is None:
            parts = _monomial_parts(self.top, self.denom)
            if parts is None:
                self._full = self.span(self.top.gens)
            else:
                got = [monomial.minimal(t + d) for t, d in zip(*parts)]
                self._full = Submodule.of_split(self.ring, got)
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
# the kernel primitive


def _kernel(ring, rows, bottom, s, k):
    """`groebner.kernel` of the rows over the seed, the cached basis of the
    bottom and the relation vectors (these even for an empty bottom);
    images have rank k.  No rows give the zero submodule of R^k."""
    if not rows:
        return Submodule.zero(ring, k).groebner()
    seed = buchberger(tuple(bottom) + relation_vectors(ring, k), ring=ring, rank=k)
    return kernel(rows, seed, ring.relation_basis() if ring.is_quotient else (), s)


def _monomial_parts(*subs):
    """The cached monomial splits of the submodules, or None (the general
    path) unless every one of them splits."""
    parts = [s.monomial_split() for s in subs]
    return None if None in parts else parts


# ---------------------------------------------------------------------------
# public operations


def module_scale(ideal, M):
    """The submodule ideal * M of the quotient M, with denominator adjoined;
    of split inputs, per component c the minimal exponent sums of the
    ideal's and T_c's generators together with D_c, computed once per
    key.  Otherwise the products of the generators, which print as
    given, so that answer is not kept."""
    if ideal.ring != M.ring:
        raise RingMismatchError("scaling by an ideal over a different ring")
    if _monomial_parts(ideal.as_submodule(), M.top, M.denom) is not None:
        return _scale_split(ideal, M)
    gens = []
    for g in ideal.gens:
        for v in M.top.gens:
            gens.append(tuple(g * p for p in v))
    return M.span(gens)


@cache.memoized("module_scale")
def _scale_split(ideal, M):
    (f_exps,), tops, denoms = _monomial_parts(ideal.as_submodule(), M.top, M.denom)
    return Submodule.of_split(
        M.ring,
        [
            monomial.minimal([mono_mul(f, t) for f in f_exps for t in t_c] + d_c)
            for t_c, d_c in zip(tops, denoms)
        ],
    )


def colon_module(N, ideal, M):
    """The colon (N : ideal) inside the quotient module M.

    Returns the submodule {x in M : ideal * x in N}, with the denominator
    of M added to N before computing: one kernel with the rows (f_1 m |
    ... | f_s m | m) over the generators m of M and N as the bottom.  A
    zero ideal returns all of M and logs a diagnostic.
    """
    if N.ring != M.ring or ideal.ring != M.ring or N.rank != M.rank:
        raise RingMismatchError("colon arguments in different ambients")
    return _colon_module(N, ideal, M)


@cache.memoized("colon_module")
def _colon_module(N, ideal, M):
    if not M.contains_submodule(N):
        raise ValueError("N is not a submodule of M")
    parts = _monomial_parts(N, M.denom, M.full(), ideal.as_submodule())
    if parts is None:
        fs = {}
        for g in ideal.gens:
            r = M.ring.reduce(g)
            if r:
                fs.setdefault(r.key(), r)
        fs = list(fs.values())
    else:
        fs = parts[3][0]
    if not fs:
        log.debug("colon by the zero ideal returns the whole module")
        return Submodule.of_basis(M.full().groebner())
    if parts is not None:
        n_parts, d_parts, m_parts, (f_exps,) = parts
        acc = []
        for n_c, d_c, m_c in zip(n_parts, d_parts, m_parts):
            for f in f_exps:
                m_c = monomial.intersection(m_c, monomial.colon(n_c + d_c, f))
            acc.append(m_c)
        return Submodule.of_split(M.ring, acc)
    gens_n = N.gens + M.denom.gens
    gens_m = M.top.gens + M.denom.gens
    rows = [tuple(f * p for f in fs for p in m) + m for m in gens_m]
    return Submodule.of_basis(_kernel(M.ring, rows, gens_n, len(fs), M.rank))


def colon_ideal(B, A):
    """The transporter ideal {r : r A <= B}, the annihilator of A/B: one
    kernel with the single row (a_1 | ... | a_s | 1) over the generators
    a_i of A outside B, and B as the bottom."""
    B._compat(A)
    return _colon_ideal(B, A)


@cache.memoized("colon_ideal")
def _colon_ideal(B, A):
    ring = B.ring
    if not A.contains_module(B):
        raise ValueError("transporter wants B inside A")
    parts = _monomial_parts(B, A)
    if parts is not None:
        exps = [(0,) * ring.nvars]
        for b_c, a_c in zip(*parts):
            for a in a_c:
                exps = monomial.intersection(exps, monomial.colon(b_c, a))
        return Submodule.of_split(ring, [exps]).as_ideal()
    outside = [a for a in A.gens if not B.contains(a)]
    if not outside:
        return unit_ideal(ring)
    row = tuple(p for a in outside for p in a) + (ring.one(),)
    gb = _kernel(ring, [row], B.gens, len(outside), B.rank)
    return Submodule.of_basis(gb).as_ideal()


def saturate(N, f, M):
    """The saturation {x in M : f^n x in N for some n}, inside the quotient M.

    The chain N : f, (N : f) : f, ... ascends in a Noetherian module, so
    it stops, at the saturation.  The denominator of M is added to N, and
    f = 0 gives all of M, as the colon by the zero ideal does.
    """
    ideal = Ideal(M.ring, [f])
    cur = colon_module(N, ideal, M)
    while True:
        nxt = colon_module(cur, ideal, M)
        if nxt.key() == cur.key():
            return nxt
        cur = nxt


def intersect(N1, N2):
    """N1 intersected with N2: one kernel with rows (n | n) over the
    generators n of N1 and N2 as the bottom."""
    N1._compat(N2)
    parts = _monomial_parts(N1, N2)
    if parts is not None:
        got = [monomial.intersection(a, b) for a, b in zip(*parts)]
        return Submodule.of_split(N1.ring, got)
    rows = [n + n for n in N1.gens]
    return Submodule.of_basis(_kernel(N1.ring, rows, N2.gens, 1, N1.rank))
