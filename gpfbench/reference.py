"""Exponent-vector reference for monomial modules.

Everything here works on exponent tuples and never imports gpfkit, so it
is an independent check of the library on monomial input.

A monomial is a tuple of exponents.  A monomial ideal is a frozenset of
minimal generators: the unit ideal is ``{(0, ..., 0)}`` and the zero ideal
is the empty set.  A prime generated by variables is a frozenset of
variable indices S, standing for P_S = (x_j : j in S); the empty set is
the zero prime.  A monomial quotient M/N of a free module whose
submodules are spanned by monomial vectors splits by component, so it is
given as a list of component ideals I_i with M/N = sum of R/I_i.
"""

from collections import Counter
from itertools import product


def divides(a, b):
    return all(x <= y for x, y in zip(a, b))


def minimalize(gens):
    """The minimal generators of the ideal the monomials generate."""
    out = []
    for g in sorted(set(gens), key=lambda m: (sum(m), m)):
        if not any(divides(h, g) for h in out):
            out.append(g)
    return frozenset(out)


def unit(nvars):
    return frozenset([(0,) * nvars])


def is_unit(ideal):
    return any(not any(g) for g in ideal)


def contains(ideal, mono):
    return any(divides(g, mono) for g in ideal)


def product_ideal(a, b):
    return minimalize(tuple(x + y for x, y in zip(g, h)) for g in a for h in b)


def power(a, r, nvars):
    out = unit(nvars)
    for _ in range(r):
        out = product_ideal(out, a)
    return out


def intersection(a, b):
    return minimalize(
        tuple(max(x, y) for x, y in zip(g, h)) for g in a for h in b
    )


def colon_mono(ideal, w):
    """(I : w) for a monomial w."""
    return minimalize(tuple(max(x - y, 0) for x, y in zip(g, w)) for g in ideal)


def colon_ideal(ideal, J, nvars):
    """(I : J) for a monomial ideal J; (I : 0) is the unit ideal."""
    out = unit(nvars)
    for g in J:
        out = intersection(out, colon_mono(ideal, g))
    return out


def prime_ideal(S, nvars):
    return frozenset(
        tuple(1 if j == i else 0 for j in range(nvars)) for i in sorted(S)
    )


def colon_prime(ideal, S, nvars):
    """(I : P_S), an intersection of colons by single variables."""
    return colon_ideal(ideal, prime_ideal(S, nvars), nvars)


def ass(ideal, nvars):
    """Ass(R/I): the primes P_S = (I : w) over witness monomials w not in I.

    Raising an exponent of w past the largest exponent of that variable
    among the generators leaves (I : w) unchanged, so the witnesses range
    over a finite box.
    """
    if is_unit(ideal):
        return set()
    if not ideal:
        return {frozenset()}
    tops = [max(g[j] for g in ideal) for j in range(nvars)]
    found = set()
    for w in product(*(range(t + 1) for t in tops)):
        if contains(ideal, w):
            continue
        quot = colon_mono(ideal, w)
        if all(sum(g) == 1 for g in quot):
            found.add(frozenset(g.index(1) for g in quot))
    return found


def ass_module(components, nvars):
    out = set()
    for ideal in components:
        out |= ass(ideal, nvars)
    return out


def maximal(primes):
    return [p for p in primes if not any(p < q for q in primes)]


def filtration_primes(components, nvars, pick=min):
    """The primes of a filtration by colons with maximal associated primes.

    ``pick`` chooses among the maximal primes of each step; the paper's
    uniqueness theorem says the resulting multiset does not depend on it.
    """
    cur = list(components)
    out = []
    while True:
        primes = ass_module(cur, nvars)
        if not primes:
            return out
        S = pick(maximal(primes), key=sorted)
        out.append(S)
        cur = [colon_prime(ideal, S, nvars) for ideal in cur]


def multiset(primes):
    """A canonical form of a prime multiset: sorted (indices, count) pairs."""
    counts = Counter(tuple(sorted(S)) for S in primes)
    return tuple(sorted(counts.items()))


def factorization(components, nvars):
    """The prime multiset of the filtration, checked to be choice-free."""
    first = multiset(filtration_primes(components, nvars, pick=min))
    last = multiset(filtration_primes(components, nvars, pick=max))
    if first != last:
        raise AssertionError(
            "filtration multiset depends on the choice: %r vs %r" % (first, last)
        )
    return first


def components_of(gens, denom, nvars):
    """Component ideals of M/N: N spanned by (component, monomial) pairs,
    M = R^k / D with D given as one ideal per component."""
    out = []
    for i, d in enumerate(denom):
        out.append(minimalize(list(d) + [m for c, m in gens if c == i]))
    return out


def annihilator(J, denom, nvars):
    """Ann(J M) for M = R^k / D: the intersection of the (D_i : J)."""
    out = unit(nvars)
    for d in denom:
        out = intersection(out, colon_ideal(d, J, nvars))
    return out


def in_prime(ideal, S):
    """Whether the monomial ideal lies in P_S: every generator involves S."""
    return all(any(g[j] for j in S) for g in ideal)


def supp_holds(S, J, denom, nvars):
    """Whether P_S lies in Supp(J M), that is Ann(J M) is inside P_S."""
    return in_prime(annihilator(J, denom, nvars), S)


def first_supp_failure(pairs, denom, nvars):
    """The first 1-based index i at which P_i is not in the support of
    p_i^(r_i - 1) p_(i+1)^r_(i+1) ... p_n^r_n M, or None."""
    for i, (S, r) in enumerate(pairs):
        J = power(prime_ideal(S, nvars), r - 1, nvars)
        for T, s in pairs[i + 1 :]:
            J = product_ideal(J, power(prime_ideal(T, nvars), s, nvars))
        if not supp_holds(S, J, denom, nvars):
            return i + 1
    return None


def product_of(pairs, nvars):
    out = unit(nvars)
    for S, r in pairs:
        out = product_ideal(out, power(prime_ideal(S, nvars), r, nvars))
    return out


def target_multiset(pairs):
    return multiset([frozenset(S) for S, r in pairs for _ in range(r)])
