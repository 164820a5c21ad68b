"""Buchberger computation of reduced bases for submodules of R^k.

Ideals are the k = 1 case.  Vectors are tuples of polynomials; internally a
vector is flattened to a map from (component, monomial) terms to
coefficients, and a basis is a list of monic entries (leading term, term
map, components); `_entry` makes one of any nonzero term map.  All
reductions run on those maps, through one reducer, `_nf`: inside
Buchberger, in `GroebnerBasis.normal_form` and `contains`, and in
quotient-ring reduction, which is the normal form modulo the ring's
relation basis.  `_nf` keeps the remainder's terms in a heap, each keyed
once as it enters, and skips a popped term that has cancelled (Monagan &
Pearce, "Polynomial division using dynamic arrays, heaps, and packed
exponent vectors", CASC 2007).
Pairs are selected by sugar, then lcm, then pair index, read off a heap
(Giovini, Mora, Niesi, Robbiano & Traverso, "One sugar cube, please",
ISSAC 1991): an input entry's sugar is the largest degree of its terms,
a pair's is the larger of s_i + deg L - deg lt_i over its two entries,
L the lcm of their leading terms, and a new entry takes its pair's
sugar.  On non-homogeneous input this keeps the degree of intermediate
entries from running ahead of the input's, where smallest lcm first
does not.  Pairs are discarded by the two classical criteria:

  * coprime leading monomials, applied only when both vectors are
    supported on the single shared component (the unrestricted form is
    not valid for module vectors);
  * the chain criterion, when a third leading term divides the pair lcm
    and both mixed pairs are no longer pending.

Every basis is computed under grevlex extended position over term
(`arith.term_key`), so the vectors of a basis that vanish on the leading
components form a basis of that kernel.  Colon, intersection and
transporter are read off such kernels, which `kernel` builds on term
maps: each image block and the relations form a labelled group, already
a reduced basis, inside which no pair is formed, and only the kernel's
entries are minimalized and reduced; the kernel is not stored.

Reduced bases are canonical for a given submodule, so the results of
`buchberger` are memoized in the bounded `cache.BASES` table, keyed by
ring, rank and the set of `vector_key`s of the nonzero generators; the
key is built before any flattening.  A call bases exactly the
generators it is given: over a quotient ring the module layer
(`modops`) adjoins the relation vectors it needs, and the relation
basis itself is computed from the relations alone.  The basis of a
direct sum of monomial ideals is its minimal generators, read off
exponents by `monomial_basis` with no Buchberger run and no
`cache.BASES` entry.  A run, `buchberger` or `kernel`, that selects
more than `MAX_PAIRS` pairs raises BudgetError.
"""

from __future__ import annotations

import heapq

from . import cache
from .arith import (
    Polynomial,
    mono_div,
    mono_divides,
    mono_gcd,
    mono_is_one,
    mono_lcm,
    mono_mul,
    term_key,
)
from .errors import BudgetError, RingMismatchError

# The bound on the pairs one Buchberger run selects, counted as they
# leave the heap, before either criterion; over 200 times the largest
# count measured.  Measured on a 2-vCPU Xeon VM with sugar selection and
# the heap-ordered remainder: 528 pairs in 13 ms (a rank-2 module script
# over QQ[x,y,z,w]/(xz - y^2, yw - z^2, xw - yz)) and, in the test suite,
# at most 663 pairs in 1.6 s and 1,055 pairs in 1.7 s (random kernels of
# the seeded-kernel property test at Hypothesis seeds 3 and 11; under
# smallest lcm first the seed-3 draw selected 10,567 pairs in 96 s).
# At those rates a call stopped at the bound has run for 6 s to 10 min.
MAX_PAIRS = 250_000


def vector_key(v):
    return tuple(p.key() for p in v)


def check_vector(v, ring, rank):
    if len(v) != rank:
        raise RingMismatchError("vector of length %d in rank %d" % (len(v), rank))
    for p in v:
        if p.ring != ring:
            raise RingMismatchError("vector component over a different ring")


def _flatten(v):
    return {(comp, m): c for comp, p in enumerate(v) for m, c in p.terms()}


def _unflatten(d, ring, rank):
    comps = [{} for _ in range(rank)]
    for (comp, m), c in d.items():
        comps[comp][m] = c
    return tuple(Polynomial(ring, t) for t in comps)


def _entry(d, field):
    """The monic basis entry (leading term, term map, components) of a
    nonzero term map."""
    lt = max(d, key=term_key)
    inv = field.invert(d[lt])
    dd = {t: field.mul(inv, c) for t, c in d.items()}
    return lt, dd, frozenset(c for c, _ in dd)


def _shift(entry, by):
    """A monic entry with every component moved by `by`, coefficients kept."""
    lt, d, comps = entry
    return (
        (lt[0] + by, lt[1]),
        {(c + by, m): co for (c, m), co in d.items()},
        frozenset(c + by for c in comps),
    )


def _heap_key(term):
    """`term_key` negated, so the heap's smallest is the largest term."""
    comp, m = term
    return comp, -sum(m), m[::-1]


def _nf(f, entries, field):
    """Full normal form of term-map f against monic (lt, map) entries."""
    zero = field.zero
    rem = dict(f)
    heap = [(_heap_key(t), t) for t in rem]
    heapq.heapify(heap)
    out = {}
    while heap:
        t = heapq.heappop(heap)[1]
        c = rem.pop(t, None)
        if c is None:  # cancelled after it was pushed
            continue
        hit = None
        for lt, g, _ in entries:
            if lt[0] == t[0] and mono_divides(lt[1], t[1]):
                hit = (lt, g)
                break
        if hit is None:
            out[t] = c
            continue
        shift = mono_div(t[1], hit[0][1])
        for (gc, gm), gco in hit[1].items():
            tt = (gc, mono_mul(gm, shift))
            if tt == t:
                continue
            old = rem.get(tt)
            s = field.sub(zero if old is None else old, field.mul(c, gco))
            if s == zero:
                rem.pop(tt, None)
            else:
                rem[tt] = s
                if old is None:
                    heapq.heappush(heap, (_heap_key(tt), tt))
    return out


def _spair(e1, e2, field):
    (comp, m1), f, _ = e1
    (_, m2), g, _ = e2
    L = mono_lcm(m1, m2)
    a = mono_div(L, m1)
    b = mono_div(L, m2)
    zero = field.zero
    out = {}
    for (c, m), co in f.items():
        out[(c, mono_mul(m, a))] = co
    for (c, m), co in g.items():
        t = (c, mono_mul(m, b))
        s = field.sub(out.get(t, zero), co)
        if s == zero:
            out.pop(t, None)
        else:
            out[t] = s
    return out


class GroebnerBasis:
    """A reduced basis with its ring and rank, held as the monic entries
    Buchberger produced; `vectors` are derived from them."""

    __slots__ = ("ring", "rank", "vectors", "_entries")

    def __init__(self, ring, rank, entries):
        self.ring = ring
        self.rank = rank
        self._entries = list(entries)
        self.vectors = tuple(_unflatten(e[1], ring, rank) for e in self._entries)

    def normal_form(self, v):
        check_vector(v, self.ring, self.rank)
        d = _nf(_flatten(v), self._entries, self.ring.field)
        return _unflatten(d, self.ring, self.rank)

    def contains(self, v):
        check_vector(v, self.ring, self.rank)
        return not _nf(_flatten(v), self._entries, self.ring.field)


def monomial_basis(ring, ideals):
    """The reduced basis of the direct sum of monomial ideals I_c e_c over
    a ring without relations, each given by its minimal exponent tuples:
    the monic terms themselves, as `buchberger` would return them.  With
    the zero tuple in every component these are the unit vectors, the
    reduced basis of the free module over any ring where 1 is not zero."""
    one = ring.field.one
    entries = [
        ((c, m), {(c, m): one}, frozenset((c,)))
        for c, gens in enumerate(ideals)
        for m in gens
    ]
    entries.sort(key=lambda e: term_key(e[0]))
    return GroebnerBasis(ring, len(ideals), entries)


def _distinct(vectors, ring, rank):
    """The nonzero vectors, each checked, by `vector_key`, first one kept."""
    out = {}
    for v in vectors:
        v = tuple(v)
        check_vector(v, ring, rank)
        if any(v):
            out.setdefault(vector_key(v), v)
    return out


def buchberger(gens, *, ring, rank):
    """Reduced basis of the submodule of ring^rank the vectors generate,
    exactly these vectors: no relation of a quotient ring is adjoined."""
    nonzero = _distinct(gens, ring, rank)
    ckey = (ring.key(), rank, frozenset(nonzero))
    hit = cache.BASES.get(ckey)
    if hit is not None:
        return hit
    entries = [_entry(_flatten(v), ring.field) for v in nonzero.values()]
    basis = _reduced(entries, [None] * len(entries), ring.field, 0)
    gb = GroebnerBasis(ring, rank, basis)
    cache.BASES.put(ckey, gb)
    return gb


def kernel(rows, seed, relations, s):
    """The reduced basis of the tails x of the combinations of the rows
    (image_1 | ... | image_s | x) whose images, of the seed's rank, lie in
    the submodule the seed bases (Cox, Little & O'Shea, *Using Algebraic
    Geometry*, ch. 5).  As Singular's `std(G, p)` extends a known basis G,
    the seed's entries fill each image block and the `relations`, ring
    elements in a reduced basis, each x component; nothing is stored."""
    ring, k = seed.ring, seed.rank
    field = ring.field
    width, rank = s * k, len(rows[0])
    entries = [_entry(_flatten(v), field) for v in _distinct(rows, ring, rank).values()]
    groups = [None] * len(entries)
    for start in range(0, width, k):
        entries += [_shift(e, start) for e in seed._entries]
        groups += [start] * len(seed._entries)
    for r in relations:
        e = _entry(_flatten((r,)), field)
        entries += [_shift(e, c) for c in range(width, rank)]
        groups += [width] * (rank - width)
    tail = _reduced(entries, groups, field, width)
    return GroebnerBasis(ring, rank - width, [_shift(e, -width) for e in tail])


def _reduced(entries, groups, field, width):
    """The entries of the reduced basis the monic entries generate whose
    leading component is `width` or more, the lists extended in place.
    Under position over term such an entry has no term below `width`, so
    no dropped entry divides or reduces it: the kept entries are the
    reduced basis of the vectors vanishing on the first `width`
    components.  A label other than None in `groups` marks its entries as
    a reduced basis already: no pair forms inside it."""
    sugars = [max(sum(m) for _, m in e[1]) for e in entries]

    # a heap of (sugar, lcm key, pair, lcm term); the chain criterion
    # reads `pending`
    heap = []
    pending = set()

    def add_pairs(j):
        ltj, gj = entries[j][0], groups[j]
        lift_j = sugars[j] - sum(ltj[1])
        for i in range(j):
            lti = entries[i][0]
            if lti[0] == ltj[0] and (gj is None or groups[i] != gj):
                t = (lti[0], mono_lcm(lti[1], ltj[1]))
                sugar = sum(t[1]) + max(sugars[i] - sum(lti[1]), lift_j)
                heapq.heappush(heap, (sugar, term_key(t), (i, j), t))
                pending.add((i, j))

    for j in range(len(entries)):
        add_pairs(j)

    selected = 0
    while heap:
        selected += 1
        if selected > MAX_PAIRS:
            raise BudgetError("Buchberger selected more than %d pairs" % MAX_PAIRS)
        sugar, _, (i, j), lcm_term = heapq.heappop(heap)
        pending.discard((i, j))
        ei, ej = entries[i], entries[j]
        # coprime criterion, safe only in the single-component case
        one_comp = len(ei[2]) == 1 and ei[2] == ej[2]
        if one_comp and mono_is_one(mono_gcd(ei[0][1], ej[0][1])):
            continue
        # chain criterion
        skip = False
        for k in range(len(entries)):
            if k in (i, j):
                continue
            ltk = entries[k][0]
            if ltk[0] == lcm_term[0] and mono_divides(ltk[1], lcm_term[1]):
                a = (min(i, k), max(i, k))
                b = (min(j, k), max(j, k))
                if a not in pending and b not in pending:
                    skip = True
                    break
        if skip:
            continue
        s = _spair(ei, ej, field)
        h = _nf(s, entries, field)
        if h:
            entries.append(_entry(h, field))
            groups.append(None)
            sugars.append(sugar)
            add_pairs(len(entries) - 1)

    # keep the entries from `width` on, then minimalize: drop entries
    # whose leading term another one divides
    tail = [e for e in entries if e[0][0] >= width]
    tail.sort(key=lambda e: term_key(e[0]))
    kept = []
    for e in tail:
        lt = e[0]
        if not any(k[0][0] == lt[0] and mono_divides(k[0][1], lt[1]) for k in kept):
            kept.append(e)
    # tail-reduce each survivor against the others
    final = []
    for idx, e in enumerate(kept):
        others = kept[:idx] + kept[idx + 1 :]
        final.append(_entry(_nf(e[1], others, field), field))
    final.sort(key=lambda e: term_key(e[0]))
    return final
