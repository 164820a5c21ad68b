"""Which products of primes arise as factorizations, and how to build them.

The factorization of N in M is the multiset of step primes of any regular
prime extension filtration of M over N; the multiset does not depend on
the filtration.  This module answers the inverse questions:

* a prime power p^r is a factorization exactly when p is associated to
  p^{r-1}M/p^rM; the witness is the p-primary part of p^rM, computed by
  saturating with a single element chosen inside every other associated
  prime of M/p^rM but outside p.
* for a general product a telescoping condition on supports is
  sufficient, and a witness is built tail-first.  Localizing at p_i
  (Matsumura, *Commutative Ring Theory*, Thm 6.2) turns every later prime
  not inside p_i into the unit ideal, so when no later prime lies inside
  p_i condition i reads p_i in Supp(p_i^{r_i-1}M), which every submodule
  with the target factorization satisfies.  When a later prime does lie
  inside p_i the condition is not necessary: over the direct sum of R/(x)
  and R/(x, y) the product (x, y)(x) fails it, yet N = 0 has that
  factorization.  Nor does the tail-first chain build every realized
  target: over (R/(x))^2, N = ((y, 0)) factors as (x, y)(x), but the
  chain's (x)-witness is the smallest one, (x)M = 0, and (x, y) is not
  associated to the zero module it leaves.
* for pairwise incomparable primes localization leaves only the test
  p_i in Supp(M), so the product p_1...p_n is a factorization of some
  submodule exactly when every p_i lies in Supp(M), and the general
  construction builds the witness.
* for the specific submodule aM there is an exact criterion: the colon
  chain (aM : a_i) by the partial products must have the single
  associated prime p_i at each stage.

A target is a `FactorizationTarget`: a `PrimeMultiset` in descending
order (no earlier prime contained in a later one), so it compares with a
computed factorization directly.

Every construction re-verifies its postcondition with an independent
filtration run; nothing is trusted blind.
"""

from __future__ import annotations

import itertools

from .errors import HypothesisError, VerificationError
from .modops import (
    QuotientModule,
    module_scale,
    partial_products,
    saturate,
)
from .primes import (
    PrimeSet,
    ass_contains,
    ass_enumerate,
    incomparable,
    supp_contains,
)
from .filtration import (
    Filtration,
    PrimeExtensionStep,
    colon_chain,
    require_ok,
    rpe_filtration,
    verify_rpe,
)
from .record import Record


class PrimeMultiset:
    """A multiset of primes with positive multiplicities, compared by
    canonical forms."""

    def __init__(self, pairs):
        entries = {}
        for p, r in pairs:
            r = int(r)
            if r < 1:
                raise ValueError("multiplicities must be positive")
            k = p.key()
            if k in entries:
                entries[k] = (entries[k][0], entries[k][1] + r)
            else:
                entries[k] = (p, r)
        self._entries = entries

    @classmethod
    def from_primes(cls, primes):
        return cls([(p, 1) for p in primes])

    def entries(self):
        """(prime, multiplicity) pairs sorted by canonical token."""
        return sorted(self._entries.values(), key=lambda e: e[0].token())

    def primes(self):
        return [p for p, _ in self.entries()]

    def multiplicity(self, p):
        hit = self._entries.get(p.key())
        return hit[1] if hit else 0

    def total(self):
        return sum(r for _, r in self._entries.values())

    def key(self):
        return frozenset((k, r) for k, (_, r) in self._entries.items())

    def equals(self, other):
        return self.key() == other.key()

    def __len__(self):
        return len(self._entries)

    def __str__(self):
        if not self._entries:
            return "(1)"
        parts = []
        for p, r in self.entries():
            parts.append(str(p) if r == 1 else "%s^%d" % (p, r))
        return " * ".join(parts)


class FactorizationTarget(PrimeMultiset):
    """A product of distinct primes with positive exponents in descending
    order: no earlier prime is contained in a later one, so each prime is
    maximal among itself and the primes after it.  Only `entries()` differs
    from the multiset of its pairs: it keeps the target order."""

    def __init__(self, pairs):
        pairs = list(pairs)
        super().__init__(pairs)
        if not pairs:
            raise ValueError("a factorization target needs at least one prime")
        repeated = [p for p, r in pairs if self.multiplicity(p) != int(r)]
        if repeated:
            raise ValueError("repeated prime %s in target" % repeated[0])
        self.pairs = tuple(self._entries.values())
        for i, (a, _) in enumerate(self.pairs):
            for b, _ in self.pairs[i + 1 :]:
                if b.contains_ideal(a):
                    raise ValueError(
                        "ordering violated: %s is contained in the later "
                        "prime %s" % (a, b)
                    )

    @classmethod
    def reordered(cls, pairs):
        """The pairs with repeated primes merged, largest primes first,
        breaking ties by canonical token."""
        remaining = PrimeMultiset(pairs).entries()
        ordered = []
        while remaining:
            pick = next(
                entry
                for entry in remaining
                if not any(
                    q.strictly_contains(entry[0])
                    for q, _ in remaining
                    if q is not entry[0]
                )
            )
            ordered.append(pick)
            remaining = [entry for entry in remaining if entry is not pick]
        return cls(ordered)

    def entries(self):
        """(prime, exponent) pairs in target order."""
        return self.pairs

    def expanded(self):
        """The primes with repetition, in target order."""
        out = []
        for p, r in self.pairs:
            out.extend([p] * r)
        return out

    def product_ideal(self):
        return partial_products(self.pairs)[-1]


def gpf(N, M, candidates=None):
    """The factorization of N in M: the multiset of filtration primes.

    The multiset does not depend on the filtration, so the tie-break
    between maximal primes is not a parameter here."""
    filt = rpe_filtration(N, M, candidates)
    return PrimeMultiset.from_primes(filt.primes())


class SuppCondition(Record):
    """One support test p in Supp(J M) with its evidence."""

    __slots__ = ("index", "prime", "holds", "module_is_zero", "ann_witness")

    _defaults = (None,)

    def describe(self):
        verdict = "holds" if self.holds else "fails"
        extra = ""
        if not self.holds and self.module_is_zero:
            extra = " (the scaled module is zero)"
        elif not self.holds and self.ann_witness is not None:
            extra = " (annihilator element %s lies outside the prime)" % (
                self.ann_witness,
            )
        return "condition %d for %s %s%s" % (
            self.index,
            self.prime,
            verdict,
            extra,
        )


def _supp_condition(index, p, scaled, M):
    Q = QuotientModule(scaled, M.span(()), check=False)
    zero = Q.is_zero()
    if supp_contains(p, Q):
        return SuppCondition(index, p, True, zero)
    witness = None
    for g in Q.ann().canonical_gens():
        if not p.contains(g):
            witness = g
            break
    return SuppCondition(index, p, False, zero, witness)


class SuppReport(Record):
    __slots__ = ("all_hold", "conditions")

    def first_failure(self):
        for c in self.conditions:
            if not c.holds:
                return c
        return None


def check_supp_conditions(target, M):
    """The telescoping support conditions sufficient for a witness.

    For each index i, numbered from 1, the module
    p_i^{r_i-1} p_{i+1}^{r_{i+1}} ... p_n^{r_n} M must have p_i in its
    support.  Needs no earlier prime contained in a later one, which the
    target's descending order guarantees.
    """
    pairs = target.pairs
    conditions = []
    for i, (p, r) in enumerate(pairs, start=1):
        J = partial_products([(p, r - 1), *pairs[i:]])[-1]
        conditions.append(_supp_condition(i, p, module_scale(J, M), M))
    return SuppReport(all(c.holds for c in conditions), conditions)


class ExistsReport(Record):
    """Verdict of the incomparable-product existence test."""

    __slots__ = ("verdict", "witness", "conditions", "factors")
    _defaults = (None,)


def exists_incomparable(primes, M, candidates=None):
    """Whether the product of pairwise incomparable primes arises as a
    factorization in M, with a verified witness when it does.

    The criterion is support membership: every prime must contain the
    annihilator of M.  Localized at p_i the other primes of an antichain
    are units, so this is exactly the telescoping condition, and
    `construct_general` builds the witness.  A refusal there after the
    test has passed contradicts that argument, so its `HypothesisError`
    propagates.
    """
    primes = list(primes)
    if not primes:
        raise ValueError("need at least one prime")
    if len({p.key() for p in primes}) != len(primes):
        raise ValueError("target primes must be distinct")
    for a, b in itertools.combinations(primes, 2):
        if not incomparable(a, b):
            raise ValueError("primes %s and %s are comparable" % (a, b))
    full = M.full()
    conditions = []
    for i, p in enumerate(primes, start=1):
        conditions.append(_supp_condition(i, p, full, M))
    if not all(c.holds for c in conditions):
        return ExistsReport(False, None, conditions)
    target = FactorizationTarget([(p, 1) for p in primes])
    K = construct_general(target, M, candidates)
    return ExistsReport(True, K, conditions, target)


def _verified(N, M, want, candidates):
    """N, once an independent filtration run in M factors it as want."""
    got = gpf(N, M, candidates)
    if not got.equals(want):
        raise VerificationError(
            "constructed submodule factors as %s, not %s" % (got, want)
        )
    return N


def construct_prime_power(p, r, M, candidates=None):
    """A submodule N of M with factorization p^r, when one exists.

    Requires p associated to p^{r-1}M / p^r M.  N is the saturation of
    p^r M by a single element f lying in every other associated prime of
    M / p^r M but outside p; when p is the only associated prime, N is
    p^r M itself.
    """
    r = int(r)
    if r < 1:
        raise ValueError("exponent must be >= 1")
    _, below, power = partial_products([(p, r - 1), (p, 1)])
    B = module_scale(power, M)
    A = module_scale(below, M)
    Q = M.module_of(A).with_denominator(B)
    if not ass_contains(p, Q):
        raise HypothesisError(
            "%s is not associated to p^%d M / p^%d M" % (p, r - 1, r)
        )
    others = [
        q
        for q in ass_enumerate(M.with_denominator(B), candidates)
        if q.key() != p.key()
    ]
    if not others:
        N = B
    else:
        f = M.ring.one()
        for q in others:
            pick = None
            for g in q.canonical_gens():
                if not p.contains(g):
                    pick = g
                    break
            if pick is None:
                raise VerificationError(
                    "no witness for saturation: every generator of %s lies "
                    "in %s" % (q, p)
                )
            f = f * pick
        if p.contains(f):
            raise VerificationError(
                "witness product %s unexpectedly lies in %s" % (f, p)
            )
        N = saturate(B, f, M)
    return _verified(N, M, PrimeMultiset([(p, r)]), candidates)


def construct_general(target, M, candidates=None):
    """A submodule with the target factorization, built tail-first.

    Checks the telescoping support conditions, and refuses at the first
    that fails.  The refusal says that no submodule has the target
    factorization when that is proved: when the prime lies outside
    Supp(M), or when no later target prime lies inside it, so that the
    localized condition is necessary.  Otherwise it says the question is
    open.  Then walks the target from the last prime to the first,
    replacing the working module by the verified prime-power witness
    inside it.  The result is re-verified by an independent filtration
    run in M.
    """
    report = check_supp_conditions(target, M)
    if not report.all_hold:
        bad = report.first_failure()
        message = "support condition fails at index %d: %s" % (
            bad.index,
            bad.describe(),
        )
        # Ass(M/N) lies in Supp(M).  Localized at p_i, steps whose prime is
        # not inside p_i vanish; earlier primes never are, so when no later
        # one is either, r_i steps by p_i remain and p_i^{r_i-1}M is nonzero
        # there, which is condition i.
        inside = [
            q for q, _ in target.pairs[bad.index :] if bad.prime.contains_ideal(q)
        ]
        if not supp_contains(bad.prime, M):
            message += (
                "; %s lies outside Supp(M), so no submodule of M has this "
                "factorization" % bad.prime
            )
        elif not inside:
            message += (
                "; no later target prime lies inside %s, so the condition is "
                "necessary and no submodule of M has this factorization"
                % bad.prime
            )
        else:
            message += (
                "; the later prime %s lies inside %s, so the condition is only "
                "sufficient and whether a submodule of M has this "
                "factorization is open" % (inside[0], bad.prime)
            )
        raise HypothesisError(message, index=bad.index)
    cur = M
    N = None
    for p, r in reversed(target.pairs):
        N = construct_prime_power(p, r, cur, candidates)
        cur = M.module_of(N)
    return _verified(N, M, target, candidates)


class IffSegment(Record):
    __slots__ = ("index", "prime", "found", "ok")


class IffReport(Record):
    """Exact criterion for the product ideal times M."""

    __slots__ = ("verdict", "segments", "filtration", "failed_index")
    _defaults = (None, None)


def check_iff_criterion(target, M, candidates=None):
    """Whether aM factors exactly as the target product a.

    With the primes in descending order and a_i the partial products,
    the criterion is that each subquotient (aM : a_i)/(aM : a_{i-1}) has
    the single associated prime p_i.  One colon chain by the expanded
    prime sequence serves both: the segments are read at the cumulative
    exponents, and on success the whole chain is returned as a regular
    filtration, once `verify_rpe` passes it.
    """
    aM = module_scale(target.product_ideal(), M)
    primes = target.expanded()
    chain = colon_chain(aM, primes, M)
    segments = []
    verdict = True
    failed = None
    at = 0
    for i, (p, r) in enumerate(target.pairs, start=1):
        lower, upper = chain[at], chain[at + r]
        at += r
        if upper.equals(lower):
            found = PrimeSet([])
        else:
            found = ass_enumerate(
                M.module_of(upper).with_denominator(lower), candidates
            )
        ok = len(found) == 1 and found.contains_prime(p)
        segments.append(IffSegment(i, p, found, ok))
        if not ok and verdict:
            verdict = False
            failed = i
    if not verdict:
        return IffReport(False, segments, failed_index=failed)
    filt = Filtration(
        ambient=M,
        base=chain[0],
        steps=tuple(map(PrimeExtensionStep, chain, chain[1:], primes)),
        ass_complete=candidates is None,
        candidates=candidates,
    )
    require_ok(verify_rpe(filt))
    return IffReport(True, segments, filtration=filt)
