"""Filtrations by successive colon modules.

A chain N = M_0 < M_1 < ... < M_n = M is built one step at a time; a step
M_{i-1} < M_i is a prime extension when Ass(M_i/M_{i-1}) is the single
prime p_i, it is maximal when M_i is the full colon (M_{i-1} : p_i) in M,
and it is regular when p_i is maximal among Ass(M/M_{i-1}).  Construction
always picks a maximal element of the freshly enumerated Ass(M/M_{i-1});
ties between incomparable maximal candidates are broken deterministically
by the canonical generator strings (lex order, or its reverse).

`interchange` swaps two adjacent steps whose primes are incomparable.  The
new middle module is the colon of the lower endpoint by the later prime,
computed inside the upper endpoint and then re-verified against the full
colon in the ambient module.  The interchanged chain is again a regular
filtration, but nothing here takes that on faith: both new steps are
re-verified from scratch.
"""

from __future__ import annotations

import os

from .errors import (
    BudgetError,
    HypothesisError,
    IncompleteRegistryError,
    VerificationError,
)
from .modops import colon_ideal, colon_module, unit_ideal
from .primes import (
    MONOMIAL,
    ass_enumerate,
    check_tie_break,
    is_maximal_in,
    sort_primes,
)
from .record import Record

DEFAULT_MAX_STEPS = 64


def max_steps_default():
    raw = os.environ.get("GPFKIT_MAX_STEPS")
    if raw is None:
        return DEFAULT_MAX_STEPS
    try:
        val = int(raw)
    except ValueError:
        raise BudgetError("GPFKIT_MAX_STEPS must be an integer, got %r" % raw)
    if val < 1:
        raise BudgetError("GPFKIT_MAX_STEPS must be positive, got %d" % val)
    return val


class StepFlags(Record):
    """What has actually been checked about a filtration step."""

    __slots__ = ("prime_extension_verified", "maximal_verified", "regular_verified")
    _defaults = (False, False, False)

    def __eq__(self, other):
        if not isinstance(other, StepFlags):
            return NotImplemented
        return all(getattr(self, n) == getattr(other, n) for n in self.__slots__)

    def all_verified(self):
        return (
            self.prime_extension_verified
            and self.maximal_verified
            and self.regular_verified
        )


class PrimeExtensionStep(Record):
    """One step lower < upper with Ass(upper/lower) = {prime}."""

    __slots__ = ("lower", "upper", "prime", "flags")

    def describe(self):
        return "%s --%s--> %s" % (self.lower, self.prime, self.upper)


class Filtration(Record):
    """A verified chain of submodules of the ambient quotient module.

    Every step was built (or re-verified) as a regular maximal prime
    extension.  ass_complete records whether the Ass enumerations behind
    the steps were exhaustive or relative to a candidate registry.
    """

    __slots__ = ("ambient", "base", "steps", "ass_complete", "source")
    _defaults = (True, MONOMIAL)

    def modules(self):
        out = [self.base]
        for s in self.steps:
            out.append(s.upper)
        return out

    def primes(self):
        return [s.prime for s in self.steps]

    def __len__(self):
        return len(self.steps)


def verify_step(lower, upper, prime, ambient, source=MONOMIAL):
    """Re-derive the three step properties; returns (StepFlags, report).

    The report lists the failed checks; flags are only set for checks
    that were run and passed.
    """
    flags = StepFlags()
    problems = []
    if not upper.contains_module(lower):
        return flags, ["upper does not contain lower"]
    if upper.equals(lower):
        return flags, ["step is not proper"]
    if not ambient.contains_submodule(upper):
        return flags, ["upper is not inside the ambient module"]

    # Prime extension: the colon ideal is exactly the prime and the
    # quotient has that single associated prime.
    ann = colon_ideal(lower, upper)
    ass = ass_enumerate(ambient.module_of(upper).with_denominator(lower), source)
    if not prime.equals(ann):
        problems.append(
            "colon ideal of the step is %s, not %s" % (ann, prime)
        )
    elif not (len(ass) == 1 and ass.contains_prime(prime)):
        problems.append(
            "Ass(upper/lower) is %s, not {%s}" % (ass, prime)
        )
    else:
        flags.prime_extension_verified = True

    # Maximality: upper is the full colon of lower by the prime in M.
    full = colon_module(lower, prime.ideal, ambient)
    if full.equals(upper):
        flags.maximal_verified = True
    else:
        problems.append("upper is not the full colon (lower : prime) in M")

    # Regularity: the prime is maximal among Ass(M/lower).
    amb_ass = ass_enumerate(ambient.with_denominator(lower), source)
    if amb_ass.contains_prime(prime) and is_maximal_in(prime, amb_ass):
        flags.regular_verified = True
    else:
        problems.append(
            "prime is not maximal in Ass(M/lower) = %s" % amb_ass
        )
    return flags, problems


def max_prime_extension(N, M, p, source=MONOMIAL):
    """The maximal prime extension of N by p inside M, fully verified.

    Requires p to be an associated prime of M/N; the extension is the
    colon module K = (N : p) in M, which then satisfies Ass(K/N) = {p}.
    """
    if not M.contains_submodule(N):
        raise VerificationError("base submodule is not inside the module")
    K = colon_module(N, p.ideal, M)
    if K.equals(N):
        raise HypothesisError(
            "the colon (N : p) equals N, so p is not associated to M/N",
            evidence={"colon": K},
        )
    ann = colon_ideal(N, K)
    if not p.equals(ann):
        raise HypothesisError(
            "p is not an associated prime of M/N: the extension has colon "
            "ideal %s" % ann,
            evidence={"colon": K, "ann": ann},
        )
    flags, problems = verify_step(N, K, p, M, source)
    if not flags.maximal_verified:
        raise VerificationError(
            "maximal prime extension failed verification", report=problems
        )
    # When p is maximal among Ass(M/N) the step quotient must have the
    # single associated prime p; for a non-maximal p extra primes can
    # appear and the flag honestly stays off.
    if flags.regular_verified and not flags.prime_extension_verified:
        raise VerificationError(
            "extension by a maximal associated prime is not a prime "
            "extension",
            report=problems,
        )
    return PrimeExtensionStep(lower=N, upper=K, prime=p, flags=flags)


def rpe_filtration(N, M, source=MONOMIAL, tie_break="lex", max_steps=None):
    """A regular prime extension filtration from N up to M.

    Each step colons out a maximal element of the freshly enumerated
    Ass(M/current); the loop must exhaust the quotient within max_steps.
    """
    check_tie_break(tie_break)
    if max_steps is None:
        max_steps = max_steps_default()
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
        if len(steps) >= max_steps:
            raise BudgetError(
                "filtration did not terminate within %d steps" % max_steps
            )
        ass = ass_enumerate(Q, source)
        complete = complete and ass.complete
        if not ass:
            raise IncompleteRegistryError(
                "no associated prime found for a nonzero quotient; the "
                "candidate registry is missing a prime"
            )
        p = sort_primes(ass.maximal_elements(), tie_break)[0]
        K = colon_module(cur, p.ideal, M)
        if K.equals(cur):
            raise VerificationError(
                "colon by a reported associated prime did not grow the "
                "submodule"
            )
        steps.append(
            PrimeExtensionStep(
                lower=cur,
                upper=K,
                prime=p,
                flags=StepFlags(
                    prime_extension_verified=True,
                    maximal_verified=True,
                    regular_verified=True,
                ),
            )
        )
        cur = K
    return Filtration(
        ambient=M,
        base=N,
        steps=tuple(steps),
        ass_complete=complete,
        source=source,
    )


def interchange(filt, i):
    """Swap steps i and i+1 (1-based) of a regular filtration.

    Requires the later prime not to be contained in the earlier one (in a
    regular filtration the earlier prime is never strictly contained in
    the later one, so this makes the pair incomparable).  The new middle module
    is the colon of the lower endpoint by the later prime, computed inside
    the old upper endpoint; both new steps are re-verified from scratch,
    so the result is again a fully verified regular filtration.
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
            evidence={"lower": str(p_low), "upper": str(p_high)},
        )
    window = filt.ambient.module_of(hi.upper)
    mid = colon_module(lo.lower, p_high.ideal, window)
    if mid.equals(lo.lower) or mid.equals(hi.upper):
        raise VerificationError(
            "interchange produced a degenerate middle module"
        )
    steps = list(filt.steps)
    new = ((i - 1, lo.lower, mid, p_high), (i, mid, hi.upper, p_low))
    for j, lower, upper, p in new:
        flags, problems = verify_step(lower, upper, p, filt.ambient, filt.source)
        if not flags.all_verified():
            raise VerificationError(
                "interchanged step failed re-verification", report=problems
            )
        steps[j] = PrimeExtensionStep(lower, upper, p, flags)
    return Filtration(
        filt.ambient, filt.base, tuple(steps), filt.ass_complete, filt.source
    )


def verify_rpe(filt, source=None):
    """Re-derive every property of the filtration; returns a report dict.

    Checks, for each step: the chain is properly increasing; the colon
    ideal of the step is the recorded prime and the step quotient has
    exactly that associated prime; the upper module is the full colon in
    the ambient module; and the prime is maximal among the associated
    primes of M over the lower module.  Also checks the chain starts at
    the base and reaches the whole module.
    """
    if source is None:
        source = filt.source
    report = {"ok": True, "steps": [], "problems": []}
    M = filt.ambient
    prev = filt.base
    for idx, step in enumerate(filt.steps, start=1):
        if not step.lower.equals(prev):
            report["problems"].append(
                "step %d does not start where step %d ended" % (idx, idx - 1)
            )
            report["ok"] = False
        flags, problems = verify_step(
            step.lower, step.upper, step.prime, M, source
        )
        if not flags.all_verified():
            report["ok"] = False
            report["problems"].extend(
                "step %d: %s" % (idx, msg) for msg in problems
            )
        report["steps"].append(
            {
                "index": idx,
                "prime": str(step.prime),
                "flags": flags,
                "checked": ["prime_extension", "maximal", "regular"],
            }
        )
        prev = step.upper
    if not M.contains_submodule(prev) or not M.with_denominator(prev).is_zero():
        report["problems"].append("chain does not reach the whole module")
        report["ok"] = False
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
