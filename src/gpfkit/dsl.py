"""The input language: declarations of rings, primes, ideals and modules,
followed by commands.

A script declares exactly one ring and any number of named primes,
ideals, modules and submodules over it, then runs commands against
them.  Commands may also take inline literals wherever a name is
allowed.  Example:

    ring R = QQ[x,y,z] / (x*y - z^2, x^2 - y*z);
    prime p = (x, z);
    ideal a = p^2;
    module M = free(2) / ((x,0),(0,x));
    submodule N in M = ((y,0));
    candidates = { p, (x,y,z) };
    gpf N in M;
    check-iff a in R;

Coefficient fields are QQ or F<q> for a prime q.  Exponents in ideal
expressions must be at least 1; polynomial exponents may be any
nonnegative integer up to MAX_EXPONENT.  `#` starts a comment.
"""

from __future__ import annotations

import re
from fractions import Fraction

from .arith import PolyRing
from .errors import BudgetError, ParseError
from .fields import GF, QQ
from .gpf import FactorizationTarget
from .modops import QuotientModule
from .primes import PrimeIdeal
from .record import Record

COMMANDS = (
    "gpf",
    "filtration",
    "ass",
    "colon",
    "exists",
    "construct",
    "check-iff",
    "verify",
)
DECLS = ("ring", "prime", "ideal", "module", "submodule", "candidates")


class Token(Record):
    __slots__ = ("kind", "value", "line", "col")


_WORD = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")
_NUM = re.compile(r"[0-9]+")
_PUNCT = "(){}[],;=^*+-/:"
# Parentheses inside one polynomial nest at most this deep; the parser
# and the evaluator recurse once per level.
MAX_NESTING = 100
# A polynomial power p^n is n multiplications; a larger n is refused
# before any of them runs.
MAX_EXPONENT = 1000


def tokenize(text):
    toks = []
    line, col, i = 1, 1, 0
    n = len(text)
    while i < n:
        ch = text[i]
        if ch == "\n":
            line += 1
            col = 1
            i += 1
            continue
        if ch in " \t\r":
            i += 1
            col += 1
            continue
        if ch == "#":
            j = text.find("\n", i)
            i = n if j < 0 else j
            continue
        m = _WORD.match(text, i)
        if m:
            word = m.group(0)
            if word == "check" and text[m.end() : m.end() + 4] == "-iff":
                word = "check-iff"
            toks.append(Token("name", word, line, col))
            i += len(word)
            col += len(word)
            continue
        m = _NUM.match(text, i)
        if m:
            try:
                value = int(m.group(0))
            except ValueError:  # beyond the interpreter's digit limit
                raise ParseError("number too long", line, col) from None
            toks.append(Token("int", value, line, col))
            i = m.end()
            col += len(m.group(0))
            continue
        if ch in _PUNCT:
            toks.append(Token(ch, ch, line, col))
            i += 1
            col += 1
            continue
        raise ParseError("unexpected character %r" % ch, line, col)
    toks.append(Token("end", "", line, col))
    return toks


# --- AST ------------------------------------------------------------------
# Polynomials are nested tuples evaluated later against the script's ring:
#   ("var", name, line, col) | ("const", Fraction, line, col)
#   | ("pow", node, n) | ("mul", [nodes]) | ("sum", [(sign, node)])


class Item(Record):
    """One entry of a generator list: a scalar or a vector of polynomials."""

    __slots__ = ("entries", "line", "col")


class IdealFactor(Record):
    # base is a name string or a list of poly nodes
    __slots__ = ("base", "exponent", "line", "col")


class RingDecl(Record):
    __slots__ = ("name", "fieldspec", "variables", "relations", "line", "col")


class PrimeDecl(Record):
    __slots__ = ("name", "gens", "line", "col")


class IdealDecl(Record):
    __slots__ = ("name", "factors", "line", "col")


class ModuleDecl(Record):
    __slots__ = ("name", "rank", "denom", "line", "col")


class SubmoduleDecl(Record):
    __slots__ = ("name", "module", "items", "line", "col")


class CandidatesDecl(Record):
    # entries are names or generator lists
    __slots__ = ("entries", "line", "col")


class Command(Record):
    __slots__ = ("op", "args", "line", "col")


class Script(Record):
    __slots__ = ("statements",)


class Parser:
    def __init__(self, tokens):
        self.tokens = tokens
        self.pos = 0
        self.depth = 0

    @property
    def cur(self):
        return self.tokens[self.pos]

    def advance(self):
        tok = self.cur
        self.pos += 1
        return tok

    def accept(self, kind):
        if self.cur.kind == kind:
            return self.advance()
        return None

    def expect(self, kind, what=None):
        tok = self.cur
        if tok.kind != kind:
            raise ParseError(
                "expected %s, found %r" % (what or repr(kind), str(tok.value)),
                tok.line,
                tok.col,
            )
        return self.advance()

    def name(self, what="a name"):
        return self.expect("name", what)

    def script(self):
        out = Script([])
        while self.cur.kind != "end":
            out.statements.append(self.statement())
        return out

    def statement(self):
        tok = self.cur
        if tok.kind != "name":
            raise ParseError(
                "expected a declaration or command, found %r"
                % str(tok.value),
                tok.line,
                tok.col,
            )
        word = tok.value
        if word in DECLS:
            stmt = getattr(self, "decl_" + word)()
        elif word in COMMANDS:
            stmt = self.command()
        else:
            raise ParseError(
                "unknown statement %r" % word, tok.line, tok.col
            )
        self.expect(";")
        return stmt

    # --- declarations ---

    def declared(self, what):
        """The keyword, the declared name and "="; returns the keyword
        token and the name."""
        tok = self.advance()
        name = self.name(what).value
        self.expect("=")
        return tok, name

    def decl_ring(self):
        tok, name = self.declared("a ring name")
        spec = self.name("a coefficient field (QQ or F<q>)")
        self.expect("[")
        variables = self.separated(lambda: self.name("a variable name").value)
        self.expect("]")
        relations = []
        if self.accept("/"):
            relations = self.poly_list()
        return RingDecl(
            name, spec.value, variables, relations, tok.line, tok.col
        )

    def decl_prime(self):
        tok, name = self.declared("a prime name")
        gens = self.poly_list()
        return PrimeDecl(name, gens, tok.line, tok.col)

    def decl_ideal(self):
        tok, name = self.declared("an ideal name")
        factors = self.ideal_expr()
        return IdealDecl(name, factors, tok.line, tok.col)

    def decl_module(self):
        tok, name = self.declared("a module name")
        self.keyword("free")
        self.expect("(")
        rank = self.expect("int", "a rank").value
        self.expect(")")
        if rank < 1:
            raise ParseError("rank must be >= 1", tok.line, tok.col)
        denom = []
        if self.accept("/"):
            denom = self.item_list()
        return ModuleDecl(name, rank, denom, tok.line, tok.col)

    def decl_submodule(self):
        tok = self.advance()
        name = self.name("a submodule name").value
        self.keyword("in")
        module = self.name("a module name").value
        self.expect("=")
        items = self.item_list()
        return SubmoduleDecl(name, module, items, tok.line, tok.col)

    def decl_candidates(self):
        tok = self.advance()
        self.expect("=")
        entries = self.prime_set()
        return CandidatesDecl(entries, tok.line, tok.col)

    def command(self):
        """One of COMMANDS: its operands, then "in" and a module name."""
        tok = self.advance()
        op = tok.value
        if op in ("gpf", "filtration", "ass", "verify"):
            args = {"sub": self.subref()}
        elif op == "colon":
            sub = self.subref()
            self.expect(":")
            args = {"sub": sub, "factors": self.ideal_expr()}
        elif op == "exists":
            args = {"entries": self.prime_set()}
        else:  # construct, check-iff
            args = {"factors": self.ideal_expr()}
        self.keyword("in")
        args["module"] = self.name("a module name").value
        return Command(op, args, tok.line, tok.col)

    def keyword(self, word):
        tok = self.cur
        if tok.kind != "name" or tok.value != word:
            raise ParseError(
                "expected %r, found %r" % (word, str(tok.value)),
                tok.line,
                tok.col,
            )
        return self.advance()

    # --- shared pieces ---

    def separated(self, element, sep=","):
        """One or more elements, parsed by `element`, between separators."""
        out = [element()]
        while self.accept(sep):
            out.append(element())
        return out

    def parenthesized(self, element):
        """A parenthesized, comma-separated list, possibly empty."""
        self.expect("(", "a generator list")
        out = [] if self.cur.kind == ")" else self.separated(element)
        self.expect(")")
        return out

    def name_or_list(self, what):
        """A declared name, or an inline generator list."""
        tok = self.cur
        if tok.kind == "name":
            return self.advance().value
        if tok.kind == "(":
            return self.poly_list()
        raise ParseError(
            "expected %s name or generator list" % what, tok.line, tok.col
        )

    def subref(self):
        if self.cur.kind == "name":
            return self.advance().value
        return self.item_list()

    def item_list(self):
        return self.parenthesized(self.item)

    def item(self):
        """A scalar, or a parenthesized vector of two or more entries; a
        parenthesized scalar followed by an operator is a polynomial."""
        tok = self.cur
        save = self.pos
        if self.accept("("):
            entries = self.separated(self.poly)
            self.expect(")")
            if len(entries) > 1 or self.cur.kind not in ("^", "*", "+", "-", "/"):
                return Item(entries, tok.line, tok.col)
            self.pos = save
        return Item([self.poly()], tok.line, tok.col)

    def poly_list(self):
        return self.parenthesized(self.poly)

    def prime_set(self):
        self.expect("{", "a prime set")
        entries = self.separated(lambda: self.name_or_list("a prime"))
        self.expect("}")
        return entries

    def ideal_expr(self):
        return self.separated(self.ideal_factor, "*")

    def ideal_factor(self):
        tok = self.cur
        base = self.name_or_list("an ideal")
        exponent = 1
        if self.accept("^"):
            etok = self.expect("int", "an exponent")
            exponent = etok.value
            if exponent < 1:
                raise ParseError(
                    "exponent must be >= 1", etok.line, etok.col
                )
        return IdealFactor(base, exponent, tok.line, tok.col)

    # --- polynomials ---

    def poly(self):
        terms = []
        sign = 1
        if self.accept("-"):
            sign = -1
        terms.append((sign, self.poly_term()))
        while self.cur.kind in ("+", "-"):
            op = self.advance()
            terms.append((1 if op.kind == "+" else -1, self.poly_term()))
        return ("sum", terms)

    def poly_term(self):
        return ("mul", self.separated(self.poly_factor, "*"))

    def poly_factor(self):
        node = self.poly_atom()
        if self.accept("^"):
            etok = self.expect("int", "an exponent")
            node = ("pow", node, etok.value)
        return node

    def poly_atom(self):
        tok = self.cur
        if tok.kind == "name":
            self.advance()
            return ("var", tok.value, tok.line, tok.col)
        if tok.kind == "int":
            self.advance()
            value = Fraction(tok.value)
            if self.accept("/"):
                dtok = self.expect("int", "a denominator")
                if dtok.value == 0:
                    raise ParseError(
                        "zero denominator", dtok.line, dtok.col
                    )
                value /= dtok.value
            return ("const", value, tok.line, tok.col)
        if tok.kind == "(":
            self.advance()
            self.depth += 1
            if self.depth > MAX_NESTING:
                raise ParseError("parentheses nested too deep", tok.line, tok.col)
            node = self.poly()
            self.expect(")")
            self.depth -= 1
            return node
        raise ParseError(
            "expected a polynomial, found %r" % str(tok.value),
            tok.line,
            tok.col,
        )


def parse(text):
    """Parse script text; raises ParseError with line and column."""
    return Parser(tokenize(text)).script()


# --- evaluation -----------------------------------------------------------


def parse_field(spec):
    """A coefficient field by name: QQ, F<q> or Fp:<q>; ValueError
    otherwise."""
    if spec == "QQ":
        return QQ
    m = re.fullmatch(r"(?:Fp:|F)([0-9]+)", spec)
    if m:
        return GF(int(m.group(1)))
    raise ValueError(
        "unknown coefficient field %r (expected QQ or F<q>)" % spec
    )


class Env:
    """Evaluates declarations and resolves command operands."""

    def __init__(self, field_override=None):
        self.field_override = field_override
        self.ring = None
        self.ring_name = None
        self.names = {}
        self.registry = None
        self._ring_module = None

    # -- declarations --

    def declare(self, stmt):
        if isinstance(stmt, RingDecl):
            self._declare_ring(stmt)
            return
        if self.ring is None:
            raise ParseError(
                "declare a ring before anything else", stmt.line, stmt.col
            )
        if isinstance(stmt, PrimeDecl):
            self._bind(
                stmt.name,
                ("prime", PrimeIdeal(self.ring, self.polys(stmt.gens))),
                stmt,
            )
        elif isinstance(stmt, IdealDecl):
            pairs = self.target_pairs(stmt.factors)
            self._bind(stmt.name, ("ideal", pairs), stmt)
        elif isinstance(stmt, ModuleDecl):
            denom = [
                self.vector(item, stmt.rank) for item in stmt.denom
            ]
            module = QuotientModule.free(self.ring, stmt.rank, denom)
            self._bind(stmt.name, ("module", module), stmt)
        elif isinstance(stmt, SubmoduleDecl):
            module = self.module(stmt.module, stmt.line, stmt.col)
            vectors = [
                self.vector(item, module.rank) for item in stmt.items
            ]
            self._bind(
                stmt.name, ("submodule", (module.span(vectors), stmt.module)), stmt
            )
        elif isinstance(stmt, CandidatesDecl):
            self.registry = tuple(
                self.prime_of(entry, stmt.line, stmt.col)
                for entry in stmt.entries
            )
        else:
            raise TypeError("not a declaration: %s" % type(stmt).__name__)

    def _declare_ring(self, stmt):
        if self.ring is not None:
            raise ParseError(
                "a script declares exactly one ring", stmt.line, stmt.col
            )
        field = self.field_override
        if field is None:
            try:
                field = parse_field(stmt.fieldspec)
            except ValueError as exc:
                raise ParseError(str(exc), stmt.line, stmt.col) from None
        seen = set()
        for v in stmt.variables:
            if v in seen:
                raise ParseError(
                    "duplicate variable %r" % v, stmt.line, stmt.col
                )
            seen.add(v)
        self.ring = PolyRing(field, tuple(stmt.variables))
        if stmt.relations:
            rels = tuple(self.polys(stmt.relations))
            self.ring = PolyRing(
                field, tuple(stmt.variables), relations=rels
            )
        self.ring_name = stmt.name

    def _bind(self, name, entry, stmt):
        if name in self.names or name == self.ring_name:
            raise ParseError(
                "name %r is already declared" % name, stmt.line, stmt.col
            )
        self.names[name] = entry

    # -- polynomial evaluation --

    def poly(self, node):
        kind = node[0]
        if kind == "var":
            _, name, line, col = node
            if name not in self.ring.names:
                raise ParseError("unknown variable %r" % name, line, col)
            return self.ring.var(name)
        if kind == "const":
            _, value, line, col = node
            return self.ring.const(self._coeff(value, line, col))
        if kind == "pow":
            if node[2] > MAX_EXPONENT:
                raise BudgetError(
                    "exponent %d is over the bound %d" % (node[2], MAX_EXPONENT)
                )
            return self.poly(node[1]) ** node[2]
        if kind == "mul":
            out = self.ring.one()
            for sub in node[1]:
                out = out * self.poly(sub)
            return out
        if kind == "sum":
            out = self.ring.zero()
            for sign, sub in node[1]:
                term = self.poly(sub)
                out = out + term if sign > 0 else out - term
            return out
        raise TypeError("bad polynomial node %r" % (node,))

    def _coeff(self, frac, line, col):
        field = self.ring.field
        if field is QQ:
            return frac
        num = field.from_int(frac.numerator)
        den = field.from_int(frac.denominator)
        if den == field.zero:
            raise ParseError(
                "denominator vanishes in %s" % field, line, col
            )
        return field.mul(num, field.invert(den))

    def polys(self, nodes):
        return [self.poly(n) for n in nodes]

    def vector(self, item, rank):
        polys = self.polys(item.entries)
        if len(polys) != rank:
            raise ParseError(
                "expected a vector of %d entries, got %d"
                % (rank, len(polys)),
                item.line,
                item.col,
            )
        return tuple(polys)

    # -- operand resolution --

    def _named(self, kind, name, line, col):
        """What `name` was declared as, if it was declared as a `kind`."""
        entry = self.names.get(name)
        if entry is None or entry[0] != kind:
            raise ParseError("unknown %s %r" % (kind, name), line, col)
        return entry[1]

    def module(self, name, line, col):
        if name == self.ring_name:
            if self._ring_module is None:
                self._ring_module = QuotientModule.of_ring(self.ring)
            return self._ring_module
        return self._named("module", name, line, col)

    def submodule(self, ref, module_name, line, col):
        """Resolve a command's submodule operand against a named module."""
        module = self.module(module_name, line, col)
        if isinstance(ref, str):
            if ref == module_name:
                return module.full()
            sub, home = self._named("submodule", ref, line, col)
            if home != module_name:
                raise ParseError(
                    "submodule %r was declared in %r" % (ref, home),
                    line,
                    col,
                )
            return sub
        vectors = [self.vector(item, module.rank) for item in ref]
        return module.span(vectors)

    def prime_of(self, ref, line, col):
        if isinstance(ref, str):
            return self._named("prime", ref, line, col)
        return PrimeIdeal(self.ring, self.polys(ref))

    def target_pairs(self, factors):
        """Flatten an ideal expression to (prime, exponent) pairs."""
        pairs = []
        for f in factors:
            if isinstance(f.base, str):
                entry = self.names.get(f.base)
                if entry is None:
                    raise ParseError(
                        "unknown name %r" % f.base, f.line, f.col
                    )
                if entry[0] == "prime":
                    pairs.append((entry[1], f.exponent))
                elif entry[0] == "ideal":
                    for p, e in entry[1]:
                        pairs.append((p, e * f.exponent))
                else:
                    raise ParseError(
                        "%r is not an ideal or prime" % f.base,
                        f.line,
                        f.col,
                    )
            else:
                prime = PrimeIdeal(self.ring, self.polys(f.base))
                pairs.append((prime, f.exponent))
        return pairs

    def target(self, factors, line, col):
        pairs = self.target_pairs(factors)
        try:
            return FactorizationTarget.reordered(pairs)
        except ValueError as exc:
            raise ParseError(str(exc), line, col)
