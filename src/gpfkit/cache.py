"""The library's memo tables, all bounded by one entry count.

Three tables remember answers that depend only on canonical keys, so a
hit returns exactly what the computation would return again:

* `BASES`: reduced bases from `groebner.buchberger`, keyed by the ring
  key, the rank and the set of `vector_key`s of the nonzero generators
  (monomial bases are read off exponents and never stored);
* `ASS_MEMBERS`: the verdicts of `primes.ass_contains` on quotients
  that need candidate primes, keyed by the ring key, the rank, the
  quotient's key and the prime's key (monomial quotients read their
  primes off exponents and store none);
* `VARIABLE_PRIMES`: the variable primes Ass enumeration without
  candidates returns, keyed by the ring key and the variable indices.

Each table keeps at most `MAX_ENTRIES` entries and drops the least
recently used one beyond that.  `clear_caches()` empties them all.
"""

from __future__ import annotations

from collections import OrderedDict

# Entries per table.  One pass of a bench corpus (gpfbench, seeds 1 and
# 11) peaks at 32 bases and 10 verdicts (one quotient-ring script;
# monomial corpora store neither) and 22 primes, so nothing is evicted
# there; a longer-lived process evicts instead of growing.
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
ASS_MEMBERS = LRU()
VARIABLE_PRIMES = LRU()


def clear_caches():
    """Empty every memo table and reset its counts."""
    for table in (BASES, ASS_MEMBERS, VARIABLE_PRIMES):
        table.clear()
