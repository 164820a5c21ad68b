"""The library's memo tables, all bounded by one entry count.

Three tables remember answers that depend only on canonical keys, so a
hit returns exactly what the computation would return again:

* `BASES`: reduced bases from `groebner.buchberger`, keyed by the ring
  key, the rank and the set of `vector_key`s of the nonzero generators,
  the relation vectors `modops` adjoins among them; monomial bases,
  read off exponents, and kernels (`groebner.kernel`) are never stored;
* `VARIABLE_PRIMES`: the variable primes Ass enumeration without
  candidates returns, keyed by the ring key and the variable indices;
* `RESULTS`: the answers of the operations that `memoized` marks:
  `modops.colon_module`, `modops.colon_ideal`, `modops.module_scale` of
  split inputs, the `primes.ass_contains` verdicts on quotients that
  need candidate primes, and the complete Ass `PrimeSet` of a monomial
  quotient (`primes._monomial_ass`), one object shared by every caller.
  The key is the operation's name, the ring key and rank of its last
  operand (the module it works in) and the `key()` of every operand
  (`Submodule.key()`, `Ideal.key()`, `PrimeIdeal.key()`,
  `QuotientModule.key()`).  Keys of equal submodules over different
  rings can compare equal, so the ring key is part of the key.

Each table keeps at most `MAX_ENTRIES` entries and drops the least
recently used one beyond that.  `clear_caches()` empties them all.
"""

from __future__ import annotations

import functools
from collections import OrderedDict

# Entries per table.  One pass of a bench corpus (gpfbench, seeds 1 and
# 11, 30 s corpora) peaks at 12 bases, none wider than rank 2 (one
# quotient-ring script; monomial corpora store none), 22 primes and 477
# results (a 36-item inverse-products pass; one quotient-ring script
# stores at most 32, verdicts included), so nothing is evicted there; a
# longer-lived process evicts instead of growing.
MAX_ENTRIES = 4096


class LRU:
    """A bounded least-recently-used map with hit and miss counts.
    Stored values are never None, so None from `get` means a miss."""

    __slots__ = ("hits", "misses", "_data")

    def __init__(self):
        self.hits = 0
        self.misses = 0
        self._data = OrderedDict()

    def __len__(self):
        return len(self._data)

    def get(self, key):
        """The value under key, now the most recently used, or None."""
        try:
            self._data.move_to_end(key)
        except KeyError:
            self.misses += 1
            return None
        self.hits += 1
        return self._data[key]

    def put(self, key, value):
        data = self._data
        data[key] = value
        data.move_to_end(key)
        while len(data) > MAX_ENTRIES:
            data.popitem(last=False)

    def clear(self):
        self._data.clear()
        self.hits = 0
        self.misses = 0


BASES = LRU()
VARIABLE_PRIMES = LRU()
RESULTS = LRU()


def memoized(name):
    """Decorate an operation on canonical operands so that each question
    is computed once and its answer kept in `RESULTS`.  The operands are
    positional, each with a canonical `key()`, and the last one carries
    the ring and rank; the caller has checked that every operand lies
    over that ring.  Answers are shared between callers, so they must
    not be changed; an exception is raised again on every call, never
    stored."""

    def wrap(fn):
        @functools.wraps(fn)
        def remembered(*operands):
            last = operands[-1]
            key = (name, last.ring.key(), last.rank) + tuple(
                op.key() for op in operands
            )
            value = RESULTS.get(key)
            if value is None:
                value = fn(*operands)
                RESULTS.put(key, value)
            return value

        return remembered

    return wrap


def clear_caches():
    """Empty every memo table and reset its counts."""
    for table in (BASES, VARIABLE_PRIMES, RESULTS):
        table.clear()
