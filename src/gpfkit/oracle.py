"""Brute-force ground truth on finite models over small prime fields.

A finite model truncates a polynomial (or graded quotient) ring by a power
of each variable, turning every module in play into a finite-dimensional
vector space over F_q.  Inside the model, membership is linear algebra,
and associated primes come from the definition: a prime is associated
when it is the annihilator of a single element.  Colons and annihilators
are kernels, found by elimination on the images of the trusted window's
basis; witnesses are enumerated; primality is an exhaustive product scan.
Each model ring remembers its prime spaces and their primality verdicts,
and each model module its associated-prime scans.

Truncation is only faithful below the truncation degree: a product u*v is
trusted when deg(u) + deg(v) stays under the least variable cap, because
the defining relations of the true ring are graded and the extra
truncation relations only touch higher degrees.  All scans here stay
inside that trusted window.  An element witnesses an associated prime p
when every generator of p multiplies it into N and no trusted ring
element outside p does; both tests use only trusted products, so they
agree with the true ring whenever the ideals involved are generated
inside the window.  Every bundled fixture is scanned with witnesses of
degree at most 1 (the default `z_max`), and is built so that everything
it compares is generated and detected inside its window.

Candidate primes are the nonzero variable-generated ideals, the only
primes that can be associated to monomial subquotients; each accepted
candidate is additionally confirmed prime by an exhaustive trusted-pair
product scan.  The zero ideal is never a candidate: in a truncated model
every element is torsion, so any witness for it is a truncation
artifact, and the scans refuse the one case (a free module over the
zero submodule) where the zero ideal would genuinely be associated.
"""

from __future__ import annotations

import itertools
from collections import Counter
from functools import partial

from .arith import Polynomial, PolyRing, mono_degree, mono_divides, mono_key
from .dsl import Env, Parser, tokenize
from .errors import BudgetError, VerificationError
from .fields import GF
from .modops import Ideal, QuotientModule, colon_ideal, colon_module
from .primes import ass_enumerate, check_tie_break
from .gpf import gpf
from .record import Record

DEFAULT_BUDGET = 4096
# Steps one oracle filtration may take before it is refused.
MAX_STEPS = 32


class Subspace:
    """An F_q subspace kept in reduced row echelon form."""

    def __init__(self, field, width):
        self.field = field
        self.width = width
        self.rows = []
        self.pivots = []

    def reduce(self, vec):
        F = self.field
        v = list(vec)
        for row, piv in zip(self.rows, self.pivots):
            c = v[piv]
            if c:
                v = [F.sub(a, F.mul(c, b)) for a, b in zip(v, row)]
        return tuple(v)

    def insert(self, vec):
        """Add a vector; returns True when the dimension grew."""
        F = self.field
        r = self.reduce(vec)
        piv = next((i for i, c in enumerate(r) if c), None)
        if piv is None:
            return False
        inv = F.invert(r[piv])
        r = tuple(F.mul(inv, c) for c in r)
        rows = []
        for row in self.rows:
            c = row[piv]
            if c:
                row = tuple(F.sub(a, F.mul(c, b)) for a, b in zip(row, r))
            rows.append(row)
        self.rows = rows
        at = next(
            (k for k, p in enumerate(self.pivots) if p > piv), len(self.pivots)
        )
        self.rows.insert(at, r)
        self.pivots.insert(at, piv)
        return True

    def contains(self, vec):
        return not any(self.reduce(vec))

    @property
    def dim(self):
        return len(self.rows)

    def key(self):
        return tuple(self.rows)

    def equals(self, other):
        return self.key() == other.key()


class FiniteRing:
    """A truncation of a graded ring to a finite F_q algebra.

    Built from a symbolic ring over a prime field (its relations must be
    homogeneous) and one cap for every variable; the model ring adds
    x_i^cap to the relations.  Elements are coefficient tuples over the
    standard monomial basis.  Products of elements whose degrees sum to
    less than the cap agree with the true ring.
    """

    def __init__(self, sym_ring, cap, budget=DEFAULT_BUDGET):
        if sym_ring.field.char == 0:
            raise ValueError("finite models need a finite coefficient field")
        for rel in sym_ring.relations:
            degs = {mono_degree(m) for m in rel.monomials()}
            if len(degs) > 1:
                raise ValueError(
                    "truncation is only degree-faithful for homogeneous "
                    "relations"
                )
        names = sym_ring.names
        self.caps = (cap,) * len(names)
        self.trusted_degree = cap
        self.sym = sym_ring
        self.field = sym_ring.field
        self.q = self.field.char
        self.budget = budget
        rels = [dict(r.terms()) for r in sym_ring.relations]
        for i, c in enumerate(self.caps):
            mono = tuple(c if j == i else 0 for j in range(len(names)))
            rels.append({mono: self.field.one})
        self.model = PolyRing(self.field, names, relations=tuple(rels))
        lts = [
            g.leading_term()[0]
            for g in self.model.relation_basis()
            if not g.is_zero()
        ]
        basis = []
        for exps in itertools.product(*(range(c) for c in self.caps)):
            if not any(mono_divides(lt, exps) for lt in lts):
                basis.append(exps)
        basis.sort(key=mono_key)
        self.basis = tuple(basis)
        self.dim = len(basis)
        self.index = {m: i for i, m in enumerate(basis)}
        self.cardinality = self.q ** self.dim
        self._table = {}
        self._windows = {}
        self._prime_spaces = {}
        self._primality = {}
        self._zero = (self.field.zero,) * self.dim
        self._one = self.from_poly(self.model.one())

    def from_poly(self, f):
        """The model element of a polynomial over the symbolic or model ring."""
        if isinstance(f, Polynomial):
            f = dict(f.terms())
        g = self.model.reduce(Polynomial(self.model, dict(f)))
        out = [self.field.zero] * self.dim
        for mono, c in g.terms():
            out[self.index[mono]] = c
        return tuple(out)

    def zero(self):
        return self._zero

    def one(self):
        return self._one

    def var(self, i):
        return self.from_poly(self.model.gen(i))

    def deg(self, u):
        out = -1
        for m, c in zip(self.basis, u):
            if c:
                out = max(out, mono_degree(m))
        return out

    def _pair(self, i, j):
        if i > j:
            i, j = j, i
        hit = self._table.get((i, j))
        if hit is None:
            prod = self.model.monomial(self.basis[i]) * self.model.monomial(
                self.basis[j]
            )
            hit = self.from_poly(prod)
            self._table[(i, j)] = hit
        return hit

    def mul(self, u, v):
        F = self.field
        out = [F.zero] * self.dim
        for i, a in enumerate(u):
            if not a:
                continue
            for j, b in enumerate(v):
                if not b:
                    continue
                c = F.mul(a, b)
                row = self._pair(i, j)
                for k, r in enumerate(row):
                    if r:
                        out[k] = F.add(out[k], F.mul(c, r))
        return tuple(out)

    def window_positions(self, max_deg, rank=1, noun="elements"):
        """The coordinates, in `rank` stacked copies of the ring, of the
        basis monomials of degree <= max_deg; refuses a window of more
        than `budget` vectors."""
        idxs = [
            i for i, m in enumerate(self.basis) if mono_degree(m) <= max_deg
        ]
        count = self.q ** (len(idxs) * rank)
        if count > self.budget:
            raise BudgetError(
                "degree window holds %d %s, over the budget %d"
                % (count, noun, self.budget)
            )
        return [c * self.dim + i for c in range(rank) for i in idxs]

    def window(self, max_deg):
        """Every element supported in total degree <= max_deg."""
        if max_deg not in self._windows:
            self._windows[max_deg] = _every_vector(
                self.field, self.dim, self.window_positions(max_deg)
            )
        return self._windows[max_deg]

    def window_basis(self, max_deg):
        """The basis monomials of degree <= max_deg, as elements."""
        return _unit_vectors(self.field, self.dim, self.window_positions(max_deg))

    def prime_space(self, varset):
        """The ideal generated by the variables of `varset`, as a space."""
        if varset not in self._prime_spaces:
            mod = FiniteModule(self, 1)
            self._prime_spaces[varset] = mod.closure(
                [mod.flatten([self.var(i)]) for i in varset]
            )
        return self._prime_spaces[varset]

    def is_prime_restricted(self, space):
        """Exhaustive trusted-window primality: no product of two trusted
        elements outside the ideal lands inside it, and 1 stays outside.
        Each space is scanned once per ring."""
        key = space.key()
        if key not in self._primality:
            self._primality[key] = self._primality_scan(space)
        return self._primality[key]

    def _primality_scan(self, space):
        if space.contains(self.one()):
            return False
        W = [w for w in self.window(self.trusted_degree - 1) if any(w)]
        outside = [(w, self.deg(w)) for w in W if not space.contains(w)]
        for a, da in outside:
            for b, db in outside:
                if da + db >= self.trusted_degree:
                    continue
                if space.contains(self.mul(a, b)):
                    return False
        return True


class FiniteModule:
    """The free module R^k over a finite model, modulo a denominator
    submodule; vectors are flattened coefficient tuples."""

    def __init__(self, ring, rank, denom=()):
        self.ring = ring
        self.rank = rank
        self.width = rank * ring.dim
        self.denom = self._close(denom, include_denom=False)
        free_dim = self.width - self.denom.dim
        self.cardinality = ring.q ** free_dim
        self._ass = {}

    def unit_vec(self, comp):
        parts = [self.ring.zero()] * self.rank
        parts[comp] = self.ring.one()
        return self.flatten(parts)

    def flatten(self, parts):
        out = []
        for p in parts:
            out.extend(p)
        return tuple(out)

    def components(self, vec):
        d = self.ring.dim
        return [tuple(vec[i * d : (i + 1) * d]) for i in range(self.rank)]

    def act(self, relem, vec):
        return self.flatten(
            [self.ring.mul(relem, c) for c in self.components(vec)]
        )

    def vdeg(self, vec):
        return max(self.ring.deg(c) for c in self.components(vec))

    def _close(self, vecs, include_denom=True):
        sp = Subspace(self.ring.field, self.width)
        queue = list(vecs)
        if include_denom:
            queue.extend(self.denom.rows)
        gens = [self.ring.var(i) for i in range(len(self.ring.model.names))]
        while queue:
            v = queue.pop()
            if sp.insert(v):
                for g in gens:
                    queue.append(self.act(g, v))
        return sp

    def closure(self, vecs):
        """The submodule the vectors generate, with the denominator inside."""
        return self._close(vecs)

    def full_space(self):
        return self._close([self.unit_vec(i) for i in range(self.rank)])

    def _positions(self, max_deg):
        return self.ring.window_positions(max_deg, self.rank, "vectors")

    def window(self, max_deg):
        """Every vector whose components live in degree <= max_deg."""
        return _every_vector(self.ring.field, self.width, self._positions(max_deg))

    def window_basis(self, max_deg):
        """The unit vectors spanning window(max_deg)."""
        return _unit_vectors(self.ring.field, self.width, self._positions(max_deg))


def _every_vector(field, width, positions):
    """Every vector supported on the given coordinates."""
    out = []
    for combo in itertools.product(range(field.char), repeat=len(positions)):
        vec = [field.zero] * width
        for p, c in zip(positions, combo):
            vec[p] = c
        out.append(tuple(vec))
    return out


def _unit_vectors(field, width, positions):
    zero = (field.zero,) * width
    return [zero[:p] + (field.one,) + zero[p + 1 :] for p in positions]


def _kernel(field, basis, image):
    """A basis of the span of `basis` sent to zero by the linear map
    `image`: the rows of the echelon form of the graph {(image(v), v)}
    whose pivot lies past the image part."""
    if not basis:
        return []
    graph = [image(v) + v for v in basis]
    cut = len(graph[0]) - len(basis[0])
    space = Subspace(field, len(graph[0]))
    for row in graph:
        space.insert(row)
    return [
        row[cut:] for row, piv in zip(space.rows, space.pivots) if piv >= cut
    ]


def colon_bruteforce(N, gens, M):
    """{x in M : g x in N for each g}, solved over the trusted window and
    closed up under the ring action."""
    ring = M.ring
    gens = [g for g in gens if any(g)]
    if not gens:
        return M.full_space()
    deg_bound = ring.trusted_degree - 1 - max(ring.deg(g) for g in gens)
    if deg_bound < 0:
        raise BudgetError(
            "colon generators exceed the trusted degree window"
        )

    def image(v):
        return tuple(c for g in gens for c in N.reduce(M.act(g, v)))

    return M.closure(_kernel(ring.field, M.window_basis(deg_bound), image))


def ass_bruteforce(N, M, z_max=1, budget=None, check_primality=True):
    """The variable-subset primes associated to M/N, by definition.

    A subset S is accepted when some trusted witness z outside N has
    every variable of S multiplying z into N while no trusted ring
    element outside (S) does.  Returns sorted tuples of variable indices;
    each submodule is scanned once per module and arguments.
    """
    ring = M.ring
    if budget is None:
        budget = ring.budget
    if M.cardinality > budget:
        raise BudgetError(
            "module holds %d elements, over the budget %d"
            % (M.cardinality, budget)
        )
    if z_max > ring.trusted_degree - 2:
        raise BudgetError(
            "witness degree %d leaves no trusted room for products" % z_max
        )
    if N.dim == 0:
        raise VerificationError(
            "the zero submodule of a free module has no monomial "
            "associated prime; the oracle cannot certify the zero ideal"
        )
    key = (N.key(), z_max, check_primality)
    if key not in M._ass:
        M._ass[key] = _ass_scan(N, M, z_max, check_primality)
    return list(M._ass[key])


def _ass_scan(N, M, z_max, check_primality):
    ring = M.ring
    nvars = len(ring.model.names)
    varelems = [ring.var(i) for i in range(nvars)]
    # each witness z outside N: the variables that multiply it into N,
    # and a basis of its annihilator inside the trusted window (whose
    # budget is checked for every z, needed or not)
    witnesses = []
    for z in M.window(z_max):
        if N.contains(z):
            continue
        basis = ring.window_basis(ring.trusted_degree - 1 - max(M.vdeg(z), 0))
        kills = {i for i, x in enumerate(varelems) if N.contains(M.act(x, z))}
        if kills:
            ann = _kernel(ring.field, basis, lambda a: N.reduce(M.act(a, z)))
            witnesses.append((kills, ann))
    found = []
    for size in range(1, nvars + 1):
        for S in itertools.combinations(range(nvars), size):
            pspace = ring.prime_space(S)
            if not any(
                kills.issuperset(S) and all(pspace.contains(a) for a in ann)
                for kills, ann in witnesses
            ):
                continue
            if check_primality and not ring.is_prime_restricted(pspace):
                continue
            found.append(S)
    return sorted(found)


def rpe_bruteforce(N, M, tie_break="lex"):
    """Filtration primes by repeated maximal-prime colon scans."""
    check_tie_break(tie_break)
    ring = M.ring
    names = ring.model.names
    full = M.full_space()
    cur = N
    out = []
    while not cur.equals(full):
        if len(out) >= MAX_STEPS:
            raise BudgetError("oracle filtration exceeded %d steps" % MAX_STEPS)
        ass = ass_bruteforce(cur, M)
        if not ass:
            raise VerificationError(
                "oracle found no associated prime for a proper submodule"
            )
        maximal = [
            S for S in ass if not any(set(S) < set(T) for T in ass)
        ]
        maximal.sort(key=lambda S: tuple(names[i] for i in S))
        if tie_break == "revlex":
            maximal.reverse()
        S = maximal[0]
        nxt = colon_bruteforce(cur, [ring.var(i) for i in S], M)
        if nxt.dim == cur.dim:
            raise VerificationError("oracle colon step did not grow")
        out.append(S)
        cur = nxt
    return out


# ---------------------------------------------------------------------------
# bundled fixtures
#
# Every fixture lives over F2.  Polynomials are written as in a script,
# such as "x*x + y*z", and a vector of rank 1 may be written as its single
# entry.


class Fixture(Record):
    __slots__ = ("name", "build", "checks")


class _Model(Record):
    """A fixture's symbolic module and submodule beside their images in
    the finite model."""

    __slots__ = ("sym", "module", "ambient", "Nsym", "Nspace")


def _poly(ring, text):
    env = Env()
    env.ring = ring
    return env.poly(Parser(tokenize(text)).poly())


def _vectors(ring, rows):
    return [
        tuple(_poly(ring, t) for t in (row if isinstance(row, tuple) else (row,)))
        for row in rows
    ]


def _image(ring, polys):
    """The flattened model vector of a vector of polynomials."""
    return tuple(c for p in polys for c in ring.from_poly(p))


def _closure(M, vectors):
    return M.closure([_image(M.ring, v) for v in vectors])


def _build(variables, cap, relations=(), rank=1, denom=(), N=(), *, rings):
    """A fixture's model.  Fixtures over the same (variables, cap,
    relations) share one `FiniteRing` through the `rings` dict of one
    battery run, and with it its products, windows and primality
    verdicts."""
    key = (variables, cap, relations)
    if key not in rings:
        plain = PolyRing(GF(2), variables)
        sym = PolyRing(
            GF(2), plain.names, relations=[_poly(plain, r) for r in relations]
        )
        rings[key] = FiniteRing(sym, cap)
    ring = rings[key]
    sym = ring.sym
    denom, N = _vectors(sym, denom), _vectors(sym, N)
    module = FiniteModule(ring, rank, [_image(ring, v) for v in denom])
    ambient = QuotientModule.free(sym, rank, denom)
    return _Model(sym, module, ambient, ambient.span(N), _closure(module, N))


def _varset_of(prime):
    """Variable indices of a monomial prime over its symbolic ring."""
    out = []
    for g in prime.canonical_gens():
        mono = next(iter(g.monomials()))
        (i,) = [k for k, e in enumerate(mono) if e]
        out.append(i)
    return tuple(sorted(out))


def _model_gens(ctx, gens):
    return [ctx.module.ring.from_poly(_poly(ctx.sym, g)) for g in gens]


# generic checks


def _membership(*samples):
    """Both engines agree on whether each sample lies in N."""

    def run(ctx):
        return all(
            ctx.Nsym.contains(v) == ctx.Nspace.contains(_image(ctx.module.ring, v))
            for v in _vectors(ctx.sym, samples)
        )

    return run


def _colon(gens, want):
    """The model colon (N : gens) is the span of the expected vectors."""

    def run(ctx):
        got = colon_bruteforce(ctx.Nspace, _model_gens(ctx, gens), ctx.module)
        return got.equals(_closure(ctx.module, _vectors(ctx.sym, want)))

    return run


def _ass_check(ctx):
    sym_ass = ass_enumerate(ctx.ambient.with_denominator(ctx.Nsym))
    want = sorted(_varset_of(p) for p in sym_ass)
    return ass_bruteforce(ctx.Nspace, ctx.module) == want


def _gpf_check(ctx):
    sym = {_varset_of(p): r for p, r in gpf(ctx.Nsym, ctx.ambient).entries()}
    lex = Counter(rpe_bruteforce(ctx.Nspace, ctx.module, tie_break="lex"))
    rev = Counter(rpe_bruteforce(ctx.Nspace, ctx.module, tie_break="revlex"))
    return sym == lex == rev


# bespoke checks


def _empty_ass(ctx):
    M = ctx.module
    return ass_bruteforce(M.full_space(), M) == []


def _colon_matches(ctx):
    """(N : (x, z)) by brute force, by the symbolic colon, and as (x, y, z)."""
    M = ctx.module
    got = colon_bruteforce(ctx.Nspace, _model_gens(ctx, ("x", "z")), M)
    x, _, z = ctx.sym.gens()
    sym_colon = colon_module(ctx.Nsym, Ideal(ctx.sym, [x, z]), ctx.ambient)
    if not got.equals(_closure(M, sym_colon.gens)):
        return False
    return got.equals(_closure(M, _vectors(ctx.sym, ("x", "y", "z"))))


def _ann_of_prime(ctx):
    """(0 : (x, z)) by brute force and by the symbolic transporter."""
    M = ctx.module
    got = colon_bruteforce(M.closure([]), _model_gens(ctx, ("x", "z")), M)
    ann = colon_ideal(
        ctx.ambient.span(()), ctx.ambient.span(_vectors(ctx.sym, ("x", "z")))
    )
    return got.equals(_closure(M, ann.as_submodule().gens))


_CHAIN = ("x*x", "x*y")

_FIXTURES = (
    # (x^2, xy) in F2[x,y] truncated at degree 3
    Fixture(
        "monomial-chain",
        partial(_build, ("x", "y"), 3, N=_CHAIN),
        (
            (
                "membership agrees on degree-2 samples",
                _membership("x*x", "x*y", "y*y", "y", "x*x + x*y", "x"),
            ),
            ("colon by the maximal ideal is (x)", _colon(("x", "y"), ("x",))),
            ("colon by (x) is the maximal ideal", _colon(("x",), ("x", "y"))),
            ("colon by the unit returns the submodule", _colon(("1",), _CHAIN)),
            ("associated primes are {(x), (x,y)}", _ass_check),
            ("filtration multiset matches under both tie-breaks", _gpf_check),
            ("no associated prime when the submodule is everything", _empty_ass),
        ),
    ),
    # the square of (x,y) in F2[x,y] truncated at degree 3
    Fixture(
        "maximal-square",
        partial(_build, ("x", "y"), 3, N=("x*x", "x*y", "y*y")),
        (
            (
                "membership agrees on degree-2 samples",
                _membership("x*x", "y*y", "x", "x*y + y*y"),
            ),
            (
                "colon by the maximal ideal is the maximal ideal",
                _colon(("x", "y"), ("x", "y")),
            ),
            ("the only associated prime is (x,y)", _ass_check),
            ("filtration multiset is (x,y) twice", _gpf_check),
        ),
    ),
    # (xy) in F2[x,y] truncated at degree 3
    Fixture(
        "two-lines",
        partial(_build, ("x", "y"), 3, N=("x*y",)),
        (
            ("colon by (x) is (y)", _colon(("x",), ("y",))),
            ("colon by (y) is (x)", _colon(("y",), ("x",))),
            ("associated primes are {(x), (y)}", _ass_check),
            ("filtration multiset is (x)(y) either way", _gpf_check),
        ),
    ),
    # the span of (y,0) in (F2[x,y]/(x))^2, truncated
    Fixture(
        "free-counterexample",
        partial(
            _build,
            ("x", "y"),
            3,
            rank=2,
            denom=(("x", "0"), ("0", "x")),
            N=(("y", "0"),),
        ),
        (
            (
                "membership agrees on low-degree samples",
                _membership(("y", "0"), ("0", "y"), ("x", "0"), ("1", "0")),
            ),
            (
                "colon by the maximal ideal adds the first unit vector",
                _colon(("x", "y"), (("1", "0"),)),
            ),
            ("associated primes are {(x), (x,y)}", _ass_check),
            ("filtration multiset matches the symbolic engine", _gpf_check),
        ),
    ),
    # the zero submodule of F2[x,y]/(x,y)
    Fixture(
        "residue-field",
        partial(_build, ("x", "y"), 3, denom=("x", "y")),
        (
            ("the maximal ideal is the only associated prime", _ass_check),
            ("filtration multiset is a single (x,y)", _gpf_check),
        ),
    ),
    # p = (x,z) in F2[x,y,z]/(xy+z^2, x^2+yz), truncated at 4
    Fixture(
        "binomial-quotient",
        partial(
            _build,
            ("x", "y", "z"),
            4,
            relations=("x*y + z*z", "x*x + y*z"),
            N=("x*x", "x*z", "z*z"),
        ),
        (
            (
                "membership agrees through the defining relations",
                _membership("x*x", "x*y", "y*z", "y*y", "y", "z"),
            ),
            ("(p^2 : p) is the maximal ideal, both engines", _colon_matches),
            ("the annihilator of p is principal, both engines", _ann_of_prime),
        ),
    ),
)


def bundled_fixtures():
    return list(_FIXTURES)


def run_fixture_checks(names=None):
    """Run every bundled fixture's checks; returns a nested report."""
    report = {"ok": True, "fixtures": []}
    fixtures = bundled_fixtures()
    rings = {}
    if names is not None:
        known = {fx.name for fx in fixtures}
        missing = [n for n in names if n not in known]
        if missing:
            raise ValueError("unknown fixtures: %s" % ", ".join(missing))
    for fx in fixtures:
        if names is not None and fx.name not in names:
            continue
        ctx = fx.build(rings=rings)
        entry = {"name": fx.name, "ok": True, "checks": []}
        for desc, fn in fx.checks:
            ok = bool(fn(ctx))
            entry["checks"].append({"check": desc, "ok": ok})
            if not ok:
                entry["ok"] = False
                report["ok"] = False
        report["fixtures"].append(entry)
    return report
