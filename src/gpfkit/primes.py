"""Prime ideals with attestations, associated primes, and support tests.

Primality of an arbitrary ideal is not decided here.  A `PrimeIdeal` is
an `Ideal` (it inherits membership, containment, equality and products)
that carries an attestation, derived from its generators, of how its
primality is known:

* ``linear-verified``: every leading term of the reduced basis of p + J
  in the polynomial ring S, where J is the ring's relation ideal, is a
  single variable.  Grevlex is degree-compatible, so each entry is that
  variable minus an affine-linear form in the others, and in a reduced
  basis no leading variable occurs in another entry; S/(p + J) is then
  the polynomial ring in the remaining variables, a domain (Cox, Little
  & O'Shea, *Ideals, Varieties, and Algorithms*, ch. 2).  The unit
  ideal's basis {1} fails.  Checked structurally at construction.
* ``assumed``: every other prime, typically one the caller declares as
  a candidate.  Every result computed from assumed primes inherits the
  assumption and is flagged in output.

Membership of a prime p in Ass(M/N) is decided through the colon module
K = (N : p) inside M: p is associated exactly when the annihilator of
K/N lies inside p, which fails automatically when K = N.  Membership in
the support of a `QuotientModule` is the annihilator test alone.

Associated primes of quotients presented by monomial generators over a
plain polynomial ring are read off exponents, with no membership test.
Q = (T + D)/D splits by component into (T_c + D_c)/D_c.  Q is
Z^n-graded with every graded piece spanned by one monomial, so each
associated prime is (D_c : x^m) for a monomial x^m in T_c outside D_c;
writing x^m = x^t x^u with x^t a generator of T_c, (D_c : x^m) =
((D_c : x^t) : x^u), so the primes are exactly those of the
R/(D_c : x^t), and Ass(R/J) of a monomial ideal J is the set of supports
of J's irredundant irreducible components (Miller & Sturmfels,
*Combinatorial Commutative Algebra*, ch. 1 and 5; the colon and the
decomposition live in `monomial`).  The set is complete, so
`ass_contains` answers a monomial quotient by looking the prime up in it.
Anything else needs a sequence of candidate primes, each tested, and
the result is flagged as relative to those candidates.

Candidate membership depends only on the module and the prime, and both
are named by canonical reduced-basis keys, so `ass_contains` answers each
(module, prime) question once and keeps the verdict in `cache.RESULTS`;
a hit returns what the same exact computation would.  Only the boolean
is kept: candidates are the caller's own primes on every enumeration,
so the prime objects of a `PrimeSet` come from the caller, and
`ass_membership` always computes.  Primes read off exponents carry
nothing of the caller's: each is built once per ring and support
(`cache.VARIABLE_PRIMES`), and one `PrimeSet` per key of a monomial
quotient (`cache.RESULTS`) is shared by every caller.
`filtration.verify_rpe` still walks every step and compares what the
filtration recorded with the operations' answers; what it no longer
repeats is the computation behind a colon, a transporter, a membership
question or a monomial Ass already answered.
"""

from __future__ import annotations

import logging

from . import cache, monomial
from .errors import IncompleteRegistryError, RingMismatchError
from .modops import (
    Ideal,
    Submodule,
    colon_ideal,
    colon_module,
)

ATTEST_LINEAR = "linear-verified"
ATTEST_ASSUMED = "assumed"

log = logging.getLogger("gpfkit")


class PrimeIdeal(Ideal):
    """An ideal together with an attestation of primality."""

    def __init__(self, ring, gens):
        super().__init__(ring, gens)
        linear = all(
            sum(v[0].leading_term()[0]) == 1
            for v in self.as_submodule().groebner().vectors
        )
        self.attestation = ATTEST_LINEAR if linear else ATTEST_ASSUMED
        self._token = None

    @classmethod
    def from_variables(cls, ring, indices):
        gens = [ring.gen(i) for i in sorted(set(indices))]
        return cls(ring, gens)

    @property
    def ideal(self):
        """The prime itself.  A prime is an `Ideal`, so the library reads
        it directly; this stays only because `gpfbench/worker.py` reads
        it, and can go once the benchmark stops doing so."""
        return self

    def token(self):
        """Deterministic sort token: canonical generator strings, built
        once (a prime is never changed)."""
        if self._token is None:
            self._token = tuple(str(g) for g in self.canonical_gens())
        return self._token

    def __str__(self):
        return "(%s)" % (", ".join(self.token()) or "0")

    def __repr__(self):
        return "PrimeIdeal%s[%s]" % (self, self.attestation)


def incomparable(p, q):
    return not p.contains_ideal(q) and not q.contains_ideal(p)


class PrimeSet:
    """A finite set of primes, sorted canonically, with a completeness flag.

    ``complete`` is False when the set came from testing candidates,
    which can miss primes outside them.  A set is never changed, so the
    complete set of a monomial quotient is shared by every caller
    (`cache.RESULTS`) and finds its maximal elements once.
    """

    def __init__(self, primes, complete=True):
        seen = {}
        for p in primes:
            seen.setdefault(p.key(), p)
        self.primes = tuple(sorted(seen.values(), key=PrimeIdeal.token))
        self.complete = complete
        self._keys = frozenset(seen)
        self._maximal = None

    def __iter__(self):
        return iter(self.primes)

    def __len__(self):
        return len(self.primes)

    def __bool__(self):
        return bool(self.primes)

    def contains_prime(self, p):
        return p.key() in self._keys

    def key(self):
        return self._keys

    def maximal_elements(self):
        """The primes no other member strictly contains, in token order."""
        if self._maximal is None:
            self._maximal = tuple(
                p
                for p in self.primes
                if not any(q is not p and q.strictly_contains(p) for q in self.primes)
            )
        return self._maximal

    def __str__(self):
        return "{%s}" % ", ".join(str(p) for p in self.primes)


def supp_contains(p, Q):
    """Whether p lies in the support of the quotient module: Ann(Q) <= p."""
    if p.ring != Q.ring:
        raise RingMismatchError("prime over a different ring")
    return p.contains_ideal(Q.ann())


def ass_membership(p, Q):
    """Whether p is an associated prime of the quotient Q, computed.

    Q presents M/N with N as the denominator.  Computes K = (N : p) in M;
    p is associated exactly when K != N and Ann(K/N) <= p.
    """
    if p.ring != Q.ring:
        raise RingMismatchError("prime over a different ring")
    if not p.contains_ideal(Q.ann()):
        return False  # outside Supp(Q), which holds Ass(Q)
    N = Q.denom
    K = colon_module(N, p, Q)
    return not K.equals(N) and p.contains_ideal(colon_ideal(N, K))


def ass_contains(p, Q):
    """Whether p is an associated prime of the quotient Q.  A monomial
    quotient looks p up in its complete set of associated primes; any
    other computes once per (module, prime) and then reads the verdict
    from `cache.RESULTS`."""
    if p.ring != Q.ring:
        raise RingMismatchError("prime over a different ring")
    if monomial_eligible(Q):
        return _monomial_ass(Q)[0].contains_prime(p)
    return _verdict(p, Q)


@cache.memoized("ass_contains")
def _verdict(p, Q):
    return ass_membership(p, Q)


def monomial_eligible(Q):
    """Whether exhaustive monomial enumeration applies to the quotient:
    its top and denominator both split."""
    return None not in (Q.top.monomial_split(), Q.denom.monomial_split())


@cache.memoized("monomial_ass")
def _monomial_ass(Q):
    """The associated primes of the monomial quotient Q = (T + D)/D, as a
    complete `PrimeSet`, and the number of ideals decomposed:
    the supports of the irreducible components of (D_c : x^t) for each
    minimal generator x^t of T_c outside D_c.  Each prime is built once
    per ring and support, its basis read off the variables' exponents,
    and then kept in `cache.VARIABLE_PRIMES`; the answer is computed
    once per key of Q and kept in `cache.RESULTS`."""
    colons = set()
    for tops, gens in zip(Q.top.monomial_split(), Q.denom.monomial_split()):
        for t in tops:
            if not monomial.member(gens, t):
                colons.add(tuple(monomial.colon(gens, t)))
    supports = {
        tuple(sorted(comp))
        for J in colons
        for comp in monomial.irreducible_components(J)
    }
    ring, out = Q.ring, []
    for s in sorted(supports):
        p = cache.VARIABLE_PRIMES.get((ring.key(), s))
        if p is None:
            exps = [tuple(int(i == j) for j in range(ring.nvars)) for i in s]
            p = PrimeIdeal(ring, Submodule.of_split(ring, [monomial.minimal(exps)]))
            cache.VARIABLE_PRIMES.put((ring.key(), s), p)
        out.append(p)
    return PrimeSet(out), len(colons)


def ass_enumerate(Q, candidates=None):
    """The associated primes of the quotient module Q.

    Without candidates the generators must be monomial vectors over a
    plain polynomial ring; the primes are read off exponents (see the
    module docstring), no membership is tested, and the complete set is
    shared by every quotient with the same key.  A decomposition past
    `monomial.MAX_COMPONENTS` components raises BudgetError.  Given a
    sequence of candidate primes, each is tested by `ass_contains` and
    the result is flagged incomplete (relative to the candidates).
    """
    if candidates is not None:
        found = [p for p in candidates if ass_contains(p, Q)]
        log.debug(
            "ass_enumerate: %d candidates over %d variables, %d confirmed",
            len(candidates),
            Q.ring.nvars,
            len(found),
        )
        return PrimeSet(found, complete=False)
    if not monomial_eligible(Q):
        raise IncompleteRegistryError(
            "associated prime enumeration needs monomial generators over "
            "a plain polynomial ring; supply a candidate registry otherwise"
        )
    found, decomposed = _monomial_ass(Q)
    log.debug(
        "ass_enumerate: %d primes over %d variables, decompositions: %d",
        len(found),
        Q.ring.nvars,
        decomposed,
    )
    return found


def check_tie_break(tie_break):
    if tie_break not in ("lex", "revlex"):
        raise ValueError("tie_break must be 'lex' or 'revlex'")
