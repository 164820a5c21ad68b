"""Exact coefficient fields: the rationals and prime fields F_q.

Rational elements are `fractions.Fraction` values (always in lowest terms
with positive denominator), prime field elements are plain ints in [0, q).
All coefficient arithmetic in the rest of the package goes through the
field object so the two representations never mix.
"""

from __future__ import annotations

from fractions import Fraction

_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


def is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin, exact for every n below 3.3e24."""
    if n < 2:
        return False
    for p in _MR_BASES:
        if n % p == 0:
            return n == p
    d = n - 1
    r = 0
    while d % 2 == 0:
        d //= 2
        r += 1
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(r - 1):
            x = (x * x) % n
            if x == n - 1:
                break
        else:
            return False
    return True


class RationalField:
    """The field of rational numbers."""

    char = 0
    zero = Fraction(0)
    one = Fraction(1)

    def from_int(self, n):
        return Fraction(n)

    def add(self, a, b):
        return a + b

    def sub(self, a, b):
        return a - b

    def mul(self, a, b):
        return a * b

    def neg(self, a):
        return -a

    def invert(self, a):
        if a == 0:
            raise ZeroDivisionError("inverse of zero")
        return 1 / Fraction(a)

    def coeff_str(self, a):
        return str(a)

    def __eq__(self, other):
        return isinstance(other, RationalField)

    def __hash__(self):
        return hash("QQ")

    def __repr__(self):
        return "QQ"


class PrimeField:
    """The finite field F_q for a prime q < 2**31."""

    zero = 0
    one = 1

    def __init__(self, q: int):
        if not isinstance(q, int) or q < 2 or q >= 2 ** 31:
            raise ValueError("prime field order must be an int in [2, 2^31)")
        if not is_prime(q):
            raise ValueError("%d is not prime" % q)
        self.q = q
        self.char = q

    def from_int(self, n):
        return n % self.q

    def add(self, a, b):
        return (a + b) % self.q

    def sub(self, a, b):
        return (a - b) % self.q

    def mul(self, a, b):
        return (a * b) % self.q

    def neg(self, a):
        return (-a) % self.q

    def invert(self, a):
        a %= self.q
        if a == 0:
            raise ZeroDivisionError("inverse of zero")
        return pow(a, self.q - 2, self.q)

    def coeff_str(self, a):
        return str(a % self.q)

    def __eq__(self, other):
        return isinstance(other, PrimeField) and other.q == self.q

    def __hash__(self):
        return hash(("F", self.q))

    def __repr__(self):
        return "F%d" % self.q


QQ = RationalField()

# Prime fields compare by their order, so GF(q) needs no interning table.
GF = PrimeField
