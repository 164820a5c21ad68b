"""Which products of primes arise as factorizations, and how to build them.

The factorization of N in M is the multiset of step primes of any regular
prime extension filtration of M over N; the multiset does not depend on
the filtration.  This module answers the inverse questions:

* for pairwise incomparable primes, the product p_1...p_n is a
  factorization of some submodule exactly when every p_i lies in Supp(M);
  the witness is carved out of a filtration over (p_1...p_n)M by pushing
  one step per target prime to the tail with interchanges.
* a prime power p^r is a factorization exactly when p is associated to
  p^{r-1}M/p^rM; the witness is the p-primary part of p^rM, computed by
  saturating with a single element chosen inside every other associated
  prime of M/p^rM but outside p.
* for a general product a telescoping sufficient condition on supports
  yields a witness built tail-first; the same products reduced at one
  exponent give necessary conditions when every associated prime is
  minimal.
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
    MONOMIAL,
    PrimeIdeal,
    PrimeSet,
    ass_contains,
    ass_enumerate,
    ass_membership,
    incomparable,
    supp_contains,
)
from .filtration import (
    Filtration,
    PrimeExtensionStep,
    colon_chain,
    interchange,
    rpe_filtration,
    verify_step,
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

    def prime_set(self):
        return PrimeSet(self.primes())

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


def gpf(N, M, source=MONOMIAL, tie_break="lex"):
    """The factorization of N in M: the multiset of filtration primes."""
    filt = rpe_filtration(N, M, source=source, tie_break=tie_break)
    return PrimeMultiset.from_primes(filt.primes())


class SuppCondition(Record):
    """One support test p in Supp(J M) with its evidence."""

    __slots__ = (
        "index",
        "prime",
        "scaled",
        "holds",
        "module_is_zero",
        "ann_witness",
    )

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
        return SuppCondition(index, p, scaled, True, zero)
    witness = None
    for g in Q.ann().canonical_gens():
        if not p.contains(g):
            witness = g
            break
    return SuppCondition(index, p, scaled, False, zero, witness)


class SuppReport(Record):
    __slots__ = ("all_hold", "conditions")

    def first_failure(self):
        for c in self.conditions:
            if not c.holds:
                return c
        return None


def _supp_report(tests, M):
    """For each (p, r, others), numbered from 1, whether p lies in the
    support of p^{r-1} * others * M."""
    conditions = []
    for i, (p, r, others) in enumerate(tests, start=1):
        J = partial_products([(p, r - 1), *others])[-1]
        conditions.append(_supp_condition(i, p, module_scale(J, M), M))
    return SuppReport(all(c.holds for c in conditions), conditions)


def check_supp_conditions(target, M):
    """The telescoping support conditions sufficient for a witness.

    For each index i the module p_i^{r_i-1} p_{i+1}^{r_{i+1}} ... p_n^{r_n} M
    must have p_i in its support.  Needs no earlier prime contained in a
    later one, which the target's descending order guarantees.
    """
    pairs = target.pairs
    return _supp_report(
        [(p, r, pairs[i + 1 :]) for i, (p, r) in enumerate(pairs)], M
    )


def _distinct(primes):
    """The primes as a list, refused when empty or with a repeat."""
    primes = list(primes)
    if not primes:
        raise ValueError("need at least one prime")
    if len({p.key() for p in primes}) != len(primes):
        raise ValueError("target primes must be distinct")
    return primes


class ExistsReport(Record):
    """Verdict of the incomparable-product existence test."""

    __slots__ = ("verdict", "witness", "conditions", "factors")
    _defaults = (None,)


def exists_incomparable(primes, M, source=MONOMIAL, tie_break="lex"):
    """Whether the product of pairwise incomparable primes arises as a
    factorization in M, with a verified witness when it does.

    The criterion is support membership: every prime must contain the
    annihilator of M.  On success the witness is built over (p_1...p_n)M.
    """
    primes = _distinct(primes)
    for a, b in itertools.combinations(primes, 2):
        if not incomparable(a, b):
            raise ValueError("primes %s and %s are comparable" % (a, b))
    full = M.full()
    conditions = []
    for i, p in enumerate(primes, start=1):
        conditions.append(_supp_condition(i, p, full, M))
    if not all(c.holds for c in conditions):
        return ExistsReport(False, None, conditions)
    K = construct_incomparable(
        primes, M, source=source, tie_break=tie_break
    )
    # construct_incomparable has verified that K factors as exactly these
    return ExistsReport(True, K, conditions, PrimeMultiset.from_primes(primes))


def _verified(N, M, want, source, tie_break):
    """N, once an independent filtration run in M factors it as want."""
    got = gpf(N, M, source=source, tie_break=tie_break)
    if not got.equals(want):
        raise VerificationError(
            "constructed submodule factors as %s, not %s" % (got, want)
        )
    return N


def construct_incomparable(primes, M, N0=None, source=MONOMIAL, tie_break="lex"):
    """A submodule K with factorization exactly the given primes, each once.

    Builds a filtration of M over N0 (by default the product of the primes
    times M), then pushes one step per target prime to the tail with
    interchanges; K is the module the tail block starts at.  Each target
    must be minimal in Ass(M/N0).
    """
    primes = _distinct(primes)
    if N0 is None:
        N0 = module_scale(partial_products([(p, 1) for p in primes])[-1], M)
    filt = rpe_filtration(N0, M, source=source, tie_break=tie_break)
    found = PrimeSet(filt.primes())
    for p in primes:
        if not found.contains_prime(p):
            raise HypothesisError(
                "prime %s is not associated to M/N0" % p,
                evidence={"ass": str(found)},
            )
        if any(
            p.strictly_contains(q) for q in found if q.key() != p.key()
        ):
            raise HypothesisError(
                "prime %s is not minimal in Ass(M/N0)" % p,
                evidence={"ass": str(found)},
            )
    n = len(filt.steps)
    boundary = n
    for p in sorted(primes, key=PrimeIdeal.token, reverse=True):
        pos = None
        for j in range(boundary, 0, -1):
            if filt.steps[j - 1].prime.equals(p):
                pos = j
                break
        if pos is None:
            raise HypothesisError(
                "no unclaimed filtration step carries %s" % p,
                evidence={"primes": [str(q) for q in filt.primes()]},
            )
        while pos < boundary:
            if filt.steps[pos].prime.equals(p):
                pos += 1
                continue
            filt = interchange(filt, pos)
            pos += 1
        boundary -= 1
    K = filt.modules()[n - len(primes)]
    return _verified(K, M, PrimeMultiset.from_primes(primes), source, tie_break)


def construct_prime_power(p, r, M, source=MONOMIAL, tie_break="lex"):
    """A submodule N of M with factorization p^r, when one exists.

    Requires p associated to p^{r-1}M / p^r M.  N is the saturation of
    p^r M by a single element f lying in every other associated prime of
    M / p^r M but outside p; when p is the only associated prime, N is
    p^r M itself.
    """
    r = int(r)
    if r < 1:
        raise ValueError("exponent must be >= 1")
    _, below, power = partial_products([(p.ideal, r - 1), (p.ideal, 1)])
    B = module_scale(power, M)
    A = module_scale(below, M)
    Q = M.module_of(A).with_denominator(B)
    if not ass_contains(p, Q):
        ev = ass_membership(p, Q)
        raise HypothesisError(
            "%s is not associated to p^%d M / p^%d M" % (p, r - 1, r),
            evidence={"colon": ev.colon, "ann": ev.ann},
        )
    others = [
        q
        for q in ass_enumerate(M.with_denominator(B), source)
        if q.key() != p.key()
    ]
    if not others:
        N = B
    else:
        f = M.ring.one()
        for q in others:
            pick = None
            for g in q.ideal.canonical_gens():
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
    return _verified(N, M, PrimeMultiset([(p, r)]), source, tie_break)


def construct_general(target, M, source=MONOMIAL, tie_break="lex"):
    """A submodule with the target factorization, built tail-first.

    Checks the telescoping support conditions, and refuses when one fails,
    saying so when its prime lies outside Supp(M), which proves that no
    submodule has the target factorization.  Then walks the target from
    the last prime to the first, replacing the working module by the
    verified prime-power witness inside it.  The result is re-verified by
    an independent filtration run in M.
    """
    report = check_supp_conditions(target, M)
    if not report.all_hold:
        bad = report.first_failure()
        message = "support condition fails at index %d: %s" % (
            bad.index,
            bad.describe(),
        )
        # Ass(M/N) lies in Supp(M), so a prime outside it decides the
        # question, where a failed sufficient condition decides nothing.
        if not supp_contains(bad.prime, M):
            message += (
                "; %s lies outside Supp(M), so no submodule of M has this "
                "factorization" % bad.prime
            )
        raise HypothesisError(message, index=bad.index, evidence={"condition": bad})
    cur = M
    N = None
    for p, r in reversed(target.pairs):
        N = construct_prime_power(p, r, cur, source=source, tie_break=tie_break)
        cur = M.module_of(N)
    return _verified(N, M, target, source, tie_break)


class NecessaryReport(Record):
    """Necessary support conditions for an existing factorization."""

    __slots__ = ("applicable", "reason", "factors", "conditions", "all_hold")
    _defaults = ((), True)


def check_necessary_conditions(N, M, source=MONOMIAL, tie_break="lex"):
    """Support conditions every factorization must satisfy when all its
    primes are minimal in Ass(M/N).

    Computes the factorization, checks the primes are pairwise
    incomparable (otherwise the criterion does not apply), then tests for
    each i that p_i lies in the support of the full product with the i-th
    exponent reduced by one.
    """
    factors = gpf(N, M, source=source, tie_break=tie_break)
    pset = factors.prime_set()
    if not pset.is_antichain():
        return NecessaryReport(
            False,
            "not applicable: an associated prime is embedded, so the "
            "minimality hypothesis fails",
            factors,
        )
    entries = factors.entries()
    report = _supp_report(
        [(p, r, entries[:i] + entries[i + 1 :]) for i, (p, r) in enumerate(entries)],
        M,
    )
    return NecessaryReport(
        True, "all primes minimal", factors, report.conditions, report.all_hold
    )


class IffSegment(Record):
    __slots__ = ("index", "prime", "found", "ok")


class IffReport(Record):
    """Exact criterion for the product ideal times M."""

    __slots__ = ("verdict", "segments", "filtration", "failed_index")
    _defaults = (None, None)


def check_iff_criterion(target, M, source=MONOMIAL):
    """Whether aM factors exactly as the target product a.

    With the primes in descending order and a_i the partial products,
    the criterion is that each subquotient (aM : a_i)/(aM : a_{i-1}) has
    the single associated prime p_i.  One colon chain by the expanded
    prime sequence serves both: the segments are read at the cumulative
    exponents, and on success the whole chain is returned as a verified
    regular filtration.
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
                M.module_of(upper).with_denominator(lower), source
            )
        ok = len(found) == 1 and found.contains_prime(p)
        segments.append(IffSegment(i, p, found, ok))
        if not ok and verdict:
            verdict = False
            failed = i
    if not verdict:
        return IffReport(False, segments, failed_index=failed)
    filt = _refined_chain(primes, chain, M, source)
    return IffReport(True, segments, filtration=filt)


def _refined_chain(primes, chain, M, source):
    """The colon chain by the expanded prime sequence, assembled into a
    filtration with every step re-verified."""
    steps = []
    for p, lower, upper in zip(primes, chain, chain[1:]):
        flags, problems = verify_step(lower, upper, p, M, source)
        if not flags.all_verified():
            raise VerificationError(
                "refined chain failed verification", report=problems
            )
        steps.append(
            PrimeExtensionStep(lower=lower, upper=upper, prime=p, flags=flags)
        )
    if not M.with_denominator(chain[-1]).is_zero():
        raise VerificationError("refined chain does not reach the module")
    return Filtration(
        ambient=M,
        base=chain[0],
        steps=tuple(steps),
        ass_complete=source is MONOMIAL,
        source=source,
    )
