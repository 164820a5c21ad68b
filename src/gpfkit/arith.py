"""Multivariate polynomials over exact fields, the term order, and rings.

Monomials are exponent tuples, polynomials are immutable term maps attached
to a `PolyRing`.  A ring may carry quotient relations; the reduced basis of
the relation ideal is computed once on first use and kept on the ring,
and `PolyRing.reduce` puts an element into canonical representative form
by its normal form against that basis.

There is one term order: graded reverse lex (`mono_key`), extended to
terms of a free module position over term with component 0 taking the
highest precedence (`term_key`), which is the order the module layer's
kernels need.
"""

from __future__ import annotations

from .errors import RingMismatchError

# ---------------------------------------------------------------------------
# monomial helpers


def mono_mul(a, b):
    return tuple(x + y for x, y in zip(a, b))


def mono_divides(a, b):
    """True when a divides b."""
    return all(x <= y for x, y in zip(a, b))


def mono_div(b, a):
    """Exponent vector of b / a; caller guarantees divisibility."""
    return tuple(y - x for x, y in zip(a, b))


def mono_lcm(a, b):
    return tuple(max(x, y) for x, y in zip(a, b))


def mono_gcd(a, b):
    return tuple(min(x, y) for x, y in zip(a, b))


def mono_degree(a):
    return sum(a)


def mono_is_one(a):
    return not any(a)


# ---------------------------------------------------------------------------
# the term order


def mono_key(m):
    """Grevlex sort key of a monomial: degree first, then the smaller
    exponent in the last differing variable ranks higher."""
    return (sum(m), tuple(-e for e in reversed(m)))


def term_key(term):
    """Sort key of a module term (component, monomial): position over
    term, component 0 highest."""
    comp, m = term
    return (-comp, mono_key(m))


# ---------------------------------------------------------------------------
# rings and polynomials


class PolyRing:
    """k[x_1..x_m], optionally modulo a tuple of quotient relations.

    Relations are stored as polynomials of the ring itself; all generating
    sets handed to basis computations are extended by them, which is how
    every operation downstream works modulo the relation ideal.
    """

    def __init__(self, field, names, relations=()):
        names = tuple(names)
        if len(set(names)) != len(names):
            raise ValueError("duplicate variable names")
        if not names:
            raise ValueError("need at least one variable")
        self.field = field
        self.names = names
        self.relations = tuple(
            Polynomial(self, dict(r._terms) if isinstance(r, Polynomial) else dict(r))
            for r in relations
            if (r._terms if isinstance(r, Polynomial) else r)
        )
        self._key = (
            repr(field),
            names,
            tuple(sorted(p.key() for p in self.relations)),
        )
        self._gb = None

    @property
    def nvars(self):
        return len(self.names)

    @property
    def is_quotient(self):
        return bool(self.relations)

    def key(self):
        return self._key

    def __eq__(self, other):
        return isinstance(other, PolyRing) and other._key == self._key

    def __hash__(self):
        return hash(self._key)

    def __repr__(self):
        base = "%r[%s]" % (self.field, ",".join(self.names))
        if self.relations:
            return base + "/(%s)" % ", ".join(str(r) for r in self.relations)
        return base

    # construction helpers

    def zero(self):
        return Polynomial(self, {})

    def one(self):
        return self.const(self.field.one)

    def const(self, c):
        c = self.field.from_int(c) if isinstance(c, int) else c
        if c == self.field.zero:
            return Polynomial(self, {})
        return Polynomial(self, {(0,) * self.nvars: c})

    def gen(self, i):
        e = [0] * self.nvars
        e[i] = 1
        return Polynomial(self, {tuple(e): self.field.one})

    def gens(self):
        return tuple(self.gen(i) for i in range(self.nvars))

    def var(self, name):
        return self.gen(self.names.index(name))

    def monomial(self, exps, coeff=1):
        exps = tuple(exps)
        if len(exps) != self.nvars or any(e < 0 for e in exps):
            raise ValueError("bad exponent vector %r" % (exps,))
        c = self.field.from_int(coeff) if isinstance(coeff, int) else coeff
        if c == self.field.zero:
            return self.zero()
        return Polynomial(self, {exps: c})

    def _relation_gb(self):
        """The reduced basis of the relation ideal, computed once over
        this ring itself (rank 1, relations not adjoined again)."""
        if self._gb is None:
            from .groebner import buchberger

            self._gb = buchberger(
                [(r,) for r in self.relations],
                ring=self,
                rank=1,
                include_relations=False,
            )
        return self._gb

    def relation_basis(self):
        """Reduced basis of the relation ideal, as ring elements."""
        return tuple(v[0] for v in self._relation_gb().vectors)

    def reduce(self, f):
        """Canonical representative of f modulo the relation ideal."""
        if not self.is_quotient:
            return f
        return self._relation_gb().normal_form((f,))[0]

    def element_equal(self, f, g):
        return self.reduce(f - g).is_zero()


class Polynomial:
    """An immutable polynomial: a map from exponent tuples to coefficients.

    Zero coefficients are never stored.  Arithmetic stays inside one ring;
    mixing rings raises RingMismatchError.
    """

    __slots__ = ("ring", "_terms", "_key")

    def __init__(self, ring, terms):
        self.ring = ring
        zero = ring.field.zero
        self._terms = {m: c for m, c in terms.items() if c != zero}
        self._key = None

    # inspection

    def terms(self):
        return self._terms.items()

    def monomials(self):
        return self._terms.keys()

    def is_zero(self):
        return not self._terms

    def __bool__(self):
        return bool(self._terms)

    def __len__(self):
        return len(self._terms)

    def leading_term(self):
        """The grevlex-greatest (monomial, coefficient) pair."""
        if not self._terms:
            raise ValueError("zero polynomial has no leading term")
        m = max(self._terms, key=mono_key)
        return m, self._terms[m]

    def key(self):
        if self._key is None:
            self._key = tuple(sorted(self._terms.items(), key=lambda t: t[0]))
        return self._key

    # arithmetic

    def _check(self, other):
        if self.ring != other.ring:
            raise RingMismatchError(
                "polynomials over %r and %r" % (self.ring, other.ring)
            )

    def __add__(self, other):
        if isinstance(other, int):
            other = self.ring.const(other)
        self._check(other)
        field = self.ring.field
        out = dict(self._terms)
        for m, c in other._terms.items():
            s = field.add(out.get(m, field.zero), c)
            if s == field.zero:
                out.pop(m, None)
            else:
                out[m] = s
        return Polynomial(self.ring, out)

    __radd__ = __add__

    def __neg__(self):
        field = self.ring.field
        return Polynomial(self.ring, {m: field.neg(c) for m, c in self._terms.items()})

    def __sub__(self, other):
        if isinstance(other, int):
            other = self.ring.const(other)
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, int):
            return self.scale(self.ring.field.from_int(other))
        self._check(other)
        field = self.ring.field
        out = {}
        for m1, c1 in self._terms.items():
            for m2, c2 in other._terms.items():
                m = mono_mul(m1, m2)
                s = field.add(out.get(m, field.zero), field.mul(c1, c2))
                if s == field.zero:
                    out.pop(m, None)
                else:
                    out[m] = s
        return Polynomial(self.ring, out)

    def __rmul__(self, other):
        if isinstance(other, int):
            return self.scale(self.ring.field.from_int(other))
        return NotImplemented

    def __pow__(self, n):
        if not isinstance(n, int) or n < 0:
            raise ValueError("exponent must be a nonnegative int")
        out = self.ring.one()
        for _ in range(n):
            out = out * self
        return out

    def scale(self, c):
        field = self.ring.field
        if c == field.zero:
            return self.ring.zero()
        return Polynomial(self.ring, {m: field.mul(c, v) for m, v in self._terms.items()})

    # comparison / display

    def __eq__(self, other):
        if not isinstance(other, Polynomial):
            if isinstance(other, int):
                return self == self.ring.const(other)
            return NotImplemented
        return self.ring == other.ring and self._terms == other._terms

    def __hash__(self):
        return hash((self.ring._key, self.key()))

    def _mono_str(self, m):
        parts = []
        for name, e in zip(self.ring.names, m):
            if e == 1:
                parts.append(name)
            elif e > 1:
                parts.append("%s^%d" % (name, e))
        return "*".join(parts)

    def __str__(self):
        if not self._terms:
            return "0"
        field = self.ring.field
        one = field.one
        items = sorted(self._terms.items(), key=lambda t: mono_key(t[0]), reverse=True)
        chunks = []
        for i, (m, c) in enumerate(items):
            mono = self._mono_str(m)
            neg = False
            if field.char == 0 and c < 0:
                neg = True
                c = -c
            cs = field.coeff_str(c)
            if mono and c == one:
                body = mono
            elif mono:
                body = "%s*%s" % (cs, mono)
            else:
                body = cs
            if i == 0:
                chunks.append("-" + body if neg else body)
            else:
                chunks.append(("- " if neg else "+ ") + body)
        return " ".join(chunks)

    def __repr__(self):
        return "<%s>" % self
