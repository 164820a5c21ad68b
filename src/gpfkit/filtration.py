"""Filtrations by successive colon modules.

A chain N = M_0 < M_1 < ... < M_n = M is built one step at a time; a step
M_{i-1} < M_i is a prime extension when Ass(M_i/M_{i-1}) is the single
prime p_i, it is maximal when M_i is the full colon (M_{i-1} : p_i) in M,
and it is regular when p_i is maximal among Ass(M/M_{i-1}).  Construction
always picks a maximal element of the freshly enumerated Ass(M/M_{i-1});
ties between incomparable maximal candidates are broken deterministically
by the canonical generator strings (lex order, or its reverse).

A step records its endpoints and prime, not what is known about it.
`verify_step` re-derives the three properties of one step and returns
the checks that failed; `verify_rpe` runs it on every step of a chain and
is the only loop over it.  `interchange` swaps two adjacent steps whose
primes are incomparable: the new middle module is the colon of the lower
endpoint by the later prime, computed inside the upper endpoint, and the
new chain passes `verify_rpe` before it is returned.
"""

from __future__ import annotations

from .errors import (
    BudgetError,
    HypothesisError,
    IncompleteRegistryError,
    VerificationError,
)
from .modops import colon_ideal, colon_module, unit_ideal
from .primes import ass_enumerate, check_tie_break, sort_primes
from .record import Record

# Steps one filtration may take before it is refused with BudgetError.
MAX_STEPS = 64


class PrimeExtensionStep(Record):
    """One step lower < upper with Ass(upper/lower) = {prime}."""

    __slots__ = ("lower", "upper", "prime")

    def describe(self):
        return "%s --%s--> %s" % (self.lower, self.prime, self.upper)


class Filtration(Record):
    """A chain of submodules of the ambient quotient module, from base up.

    ass_complete records whether the Ass enumerations behind the steps
    were exhaustive or relative to the candidate primes in `candidates`;
    `verify_rpe` re-derives every step.
    """

    __slots__ = ("ambient", "base", "steps", "ass_complete", "candidates")
    _defaults = (True, None)

    def modules(self):
        out = [self.base]
        for s in self.steps:
            out.append(s.upper)
        return out

    def primes(self):
        return [s.prime for s in self.steps]

    def __len__(self):
        return len(self.steps)


def verify_step(lower, upper, prime, ambient, candidates=None):
    """Re-derive the three step properties; returns the failed checks, so
    an empty list means a regular maximal prime extension."""
    if not upper.contains_module(lower):
        return ["upper does not contain lower"]
    if upper.equals(lower):
        return ["step is not proper"]
    if not ambient.contains_submodule(upper):
        return ["upper is not inside the ambient module"]
    problems = []

    # Prime extension: the colon ideal is exactly the prime and the
    # quotient has that single associated prime.
    ann = colon_ideal(lower, upper)
    ass = ass_enumerate(ambient.module_of(upper).with_denominator(lower), candidates)
    if not prime.equals(ann):
        problems.append(
            "colon ideal of the step is %s, not %s" % (ann, prime)
        )
    elif not (len(ass) == 1 and ass.contains_prime(prime)):
        problems.append(
            "Ass(upper/lower) is %s, not {%s}" % (ass, prime)
        )

    # Maximality: upper is the full colon of lower by the prime in M.
    if not colon_module(lower, prime, ambient).equals(upper):
        problems.append("upper is not the full colon (lower : prime) in M")

    # Regularity: the prime is a member of Ass(M/lower) that no other
    # member strictly contains.
    amb_ass = ass_enumerate(ambient.with_denominator(lower), candidates)
    if not amb_ass.contains_prime(prime) or any(
        q.key() != prime.key() and q.strictly_contains(prime) for q in amb_ass
    ):
        problems.append(
            "prime is not maximal in Ass(M/lower) = %s" % amb_ass
        )
    return problems


def rpe_filtration(N, M, candidates=None, tie_break="lex"):
    """A regular prime extension filtration from N up to M.

    Each step colons out a maximal element of the freshly enumerated
    Ass(M/current); the loop must exhaust the quotient within `MAX_STEPS`
    steps.

    No step is re-checked here.  For p maximal in a complete Ass(M/N),
    (N : p)/N has the single associated prime p, so each step is a
    regular maximal prime extension by construction; over candidate
    primes that rests on the candidates.  `verify_rpe` re-derives every
    step.
    """
    check_tie_break(tie_break)
    if not M.contains_submodule(N):
        raise VerificationError("base submodule is not inside the module")
    if N.contains_module(M.full()):
        raise VerificationError(
            "the base submodule already fills the module; a filtration "
            "needs a proper submodule"
        )
    steps = []
    cur = N
    complete = True
    while True:
        Q = M.with_denominator(cur)
        if Q.is_zero():
            break
        if len(steps) >= MAX_STEPS:
            raise BudgetError(
                "filtration did not terminate within %d steps" % MAX_STEPS
            )
        ass = ass_enumerate(Q, candidates)
        complete = complete and ass.complete
        if not ass:
            raise IncompleteRegistryError(
                "no associated prime found for a nonzero quotient; the "
                "candidate registry is missing a prime"
            )
        p = sort_primes(ass.maximal_elements(), tie_break)[0]
        K = colon_module(cur, p, M)
        if K.equals(cur):
            raise VerificationError(
                "colon by a reported associated prime did not grow the "
                "submodule"
            )
        steps.append(PrimeExtensionStep(lower=cur, upper=K, prime=p))
        cur = K
    return Filtration(
        ambient=M,
        base=N,
        steps=tuple(steps),
        ass_complete=complete,
        candidates=candidates,
    )


def interchange(filt, i):
    """Swap steps i and i+1 (1-based) of a regular filtration.

    Requires the later prime not to be contained in the earlier one (in a
    regular filtration the earlier prime is never strictly contained in
    the later one, so this makes the pair incomparable).  The new middle module
    is the colon of the lower endpoint by the later prime, computed inside
    the old upper endpoint.  The new chain is returned once `verify_rpe`
    passes it, so it is again a verified regular filtration.
    """
    if not 1 <= i < len(filt.steps):
        raise ValueError(
            "interchange index %d out of range 1..%d" % (i, len(filt.steps) - 1)
        )
    lo = filt.steps[i - 1]
    hi = filt.steps[i]
    p_low, p_high = lo.prime, hi.prime
    if p_low.contains_ideal(p_high):
        raise HypothesisError(
            "interchange needs the later prime not contained in the "
            "earlier one",
            index=i,
        )
    window = filt.ambient.module_of(hi.upper)
    mid = colon_module(lo.lower, p_high, window)
    if mid.equals(lo.lower) or mid.equals(hi.upper):
        raise VerificationError(
            "interchange produced a degenerate middle module"
        )
    steps = list(filt.steps)
    steps[i - 1] = PrimeExtensionStep(lo.lower, mid, p_high)
    steps[i] = PrimeExtensionStep(mid, hi.upper, p_low)
    out = Filtration(
        filt.ambient, filt.base, tuple(steps), filt.ass_complete, filt.candidates
    )
    require_ok(verify_rpe(out))
    return out


def verify_rpe(filt):
    """Re-derive every property of the filtration; returns a report dict.

    Checks, for each step: the chain is properly increasing; the colon
    ideal of the step is the recorded prime and the step quotient has
    exactly that associated prime; the upper module is the full colon in
    the ambient module; and the prime is maximal among the associated
    primes of M over the lower module.  Also checks the chain starts at
    the base and reaches the whole module.  Associated primes are
    enumerated as the filtration's own were, from `filt.candidates`.  The
    report is ok when it lists no problem.
    """
    problems = []
    steps = []
    M = filt.ambient
    prev = filt.base
    for idx, step in enumerate(filt.steps, start=1):
        if not step.lower.equals(prev):
            problems.append(
                "step %d does not start where step %d ended" % (idx, idx - 1)
            )
        problems.extend(
            "step %d: %s" % (idx, msg)
            for msg in verify_step(
                step.lower, step.upper, step.prime, M, filt.candidates
            )
        )
        steps.append(
            {
                "index": idx,
                "prime": str(step.prime),
                "checked": ["prime_extension", "maximal", "regular"],
            }
        )
        prev = step.upper
    if not M.contains_submodule(prev) or not M.with_denominator(prev).is_zero():
        problems.append("chain does not reach the whole module")
    return {"ok": not problems, "steps": steps, "problems": problems}


def require_ok(report):
    """A `verify_rpe` report that passed; raises VerificationError naming
    the problems of one that did not."""
    if not report["ok"]:
        raise VerificationError(
            "filtration failed verification: %s" % "; ".join(report["problems"])
        )
    return report


def colon_chain(N, primes, M):
    """The chain of colon modules (N : p_1 ... p_i) for i = 0..n.

    (N : IJ) = ((N : I) : J) (Greuel & Pfister, *A Singular Introduction
    to Commutative Algebra*, 2.8), so each module is the colon of the one
    before by the next prime, and no partial product is formed.
    """
    chain = [colon_module(N, unit_ideal(M.ring), M)]
    for p in primes:
        chain.append(colon_module(chain[-1], p, M))
    return chain
