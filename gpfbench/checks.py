"""Correctness checks on the outputs of a run.

Each check returns a list of problems, empty when every output is right.
Outputs are compared with computations made apart from gpfkit (the
exponent-vector reference and sympy) or with properties the method must
have, never with stored output of an earlier run.
"""

import json

import corpus
import reference as ref


def _multiset(primes):
    return ref.multiset([frozenset(p) for p in primes])


def forward(items, outs):
    problems = []
    for i, (item, out) in enumerate(zip(items, outs)):
        lex, revlex = out["lex"], out["revlex"]
        for tie, got in (("lex", lex), ("revlex", revlex)):
            if not got["verified"]:
                problems.append("item %d: %s filtration failed verify_rpe" % (i, tie))
        want = ref.factorization(
            ref.components_of(item["gens"], [frozenset()] * item["rank"], item["nvars"]),
            item["nvars"],
        )
        if _multiset(lex["primes"]) != want:
            problems.append("item %d: multiset %r, reference %r" % (i, lex["primes"], want))
        if _multiset(lex["primes"]) != _multiset(revlex["primes"]):
            problems.append("item %d: lex and revlex multisets differ" % i)
    return problems


def _factors(gens, denom, nv):
    return ref.factorization(
        ref.components_of([(c, tuple(m)) for c, m in gens], denom, nv), nv
    )


def inverse(items, outs):
    problems = []
    for i, (item, out) in enumerate(zip(items, outs)):
        nv, rank, denom = corpus.MODULES[item["module"]]
        pairs = [(frozenset(S), r) for S, r in item["pairs"]]
        want = ref.target_multiset(pairs)
        a = ref.product_of(pairs, nv)
        aM = ref.components_of([(c, m) for c in range(rank) for m in a], denom, nv)
        if out["iff"] != (ref.factorization(aM, nv) == want):
            problems.append("item %d: check_iff_criterion verdict %r disagrees" % (i, out["iff"]))
        fail = ref.first_supp_failure(pairs, denom, nv)
        if out["supp_index"] != fail:
            problems.append(
                "item %d: support conditions fail at %r, reference %r"
                % (i, out["supp_index"], fail)
            )
        if fail is None:
            if out["witness"] is None:
                problems.append("item %d: no monomial witness was constructed" % i)
            elif _factors(out["witness"], denom, nv) != want:
                problems.append("item %d: the witness does not factor as the target" % i)
        elif out["refusal"] != fail:
            problems.append(
                "item %d: construct_general refused at %r, reference %r"
                % (i, out["refusal"], fail)
            )
        if item["antichain"]:
            ann = ref.annihilator(ref.unit(nv), denom, nv)
            expect = all(ref.in_prime(ann, S) for S, _ in pairs)
            if out["exists"] != expect:
                problems.append("item %d: exists_incomparable verdict %r" % (i, out["exists"]))
            elif expect and (
                out["exists_witness"] is None
                or _factors(out["exists_witness"], denom, nv)
                != ref.target_multiset([(S, 1) for S, _ in pairs])
            ):
                problems.append("item %d: the exists witness does not factor" % i)
    return problems


class SympyColon:
    """(N + J : I) in QQ[x,y,z] or F_q[x,y,z] computed with sympy, where J
    holds the relations of the binomial quotient."""

    def __init__(self):
        import sympy

        self.sp = sympy
        self.t, self.x, self.y, self.z = sympy.symbols("t x y z")
        x, y, z = self.x, self.y, self.z
        self.relations = [x * y - z**2, x**2 - y * z]

    def parse(self, text):
        """A gpfkit generator list such as ``(x^2, x*z)`` as expressions."""
        body = text.strip()[1:-1]
        return [self.sp.sympify(g.replace("^", "**")) for g in body.split(", ")]

    def _eliminate(self, gens, modulus):
        opts = {"order": "lex"}
        if modulus:
            opts["modulus"] = modulus
        basis = self.sp.groebner(gens, self.t, self.x, self.y, self.z, **opts)
        return [g for g in basis.exprs if not g.has(self.t)]

    def _intersect(self, a, b, modulus):
        t = self.t
        return self._eliminate([t * f for f in a] + [(1 - t) * g for g in b], modulus)

    def _quotient(self, gens, f, modulus):
        inter = self._intersect(gens, [f], modulus)
        opts = {"modulus": modulus} if modulus else {}
        gens_f = self.sp.Poly(f, self.x, self.y, self.z, **opts)
        out = []
        for g in inter:
            q, r = self.sp.Poly(g, self.x, self.y, self.z, **opts).div(gens_f)
            if not r.is_zero:
                raise ValueError("intersection element not divisible")
            out.append(q.as_expr())
        return out

    def basis(self, gens, modulus):
        opts = {"order": "grevlex"}
        if modulus:
            opts["modulus"] = modulus
        return tuple(
            self.sp.groebner(list(gens) + self.relations, self.x, self.y, self.z, **opts).exprs
        )

    def colon(self, n_gens, ideal_gens, modulus):
        base = list(n_gens) + self.relations
        acc = None
        for f in ideal_gens:
            part = self._quotient(base, f, modulus)
            acc = part if acc is None else self._intersect(acc, part, modulus)
        return self.basis(acc, modulus)


def _docs(text):
    return [json.loads(line) for line in text.splitlines() if line.strip()]


PRIMES = {"p": "(x, z)", "m": "(x, y, z)"}


def cli(scripts, passes, decl_outputs):
    """Checks on the quotient-cli outputs.

    ``passes`` holds, per pass, one (exit code, stdout, stderr) triple per
    invocation; ``decl_outputs`` holds the same for the declarations-only
    invocations.
    """
    problems = []
    first = passes[0]
    for n, run in enumerate(passes[1:], start=2):
        for i, (a, b) in enumerate(zip(first, run)):
            if a[1] != b[1]:
                problems.append("invocation %d: pass %d output differs from pass 1" % (i, n))
    for i, (code, out, err) in enumerate(decl_outputs):
        if code != 0 or out or err:
            problems.append("declarations of script %d: exit %d, output %r" % (i, code, out[:80]))
    sym = None
    cache = {}
    for i, (script, (code, out, err)) in enumerate(zip(scripts, first)):
        kind = script["kind"]
        if kind == "oracle":
            # A failing battery exits non-zero after printing its report,
            # so the report is read whatever the exit code.
            docs = _docs(out)
            if code != 0 or not docs or not docs[0].get("ok"):
                problems.append("invocation %d: the oracle battery failed" % i)
            continue
        if code != 0:  # counted as a failed operation
            continue
        docs = _docs(out)
        if kind == "chain":
            if docs[0]["result"]["factorization"] != "(x) * (x, y)":
                problems.append("invocation %d: README chain factors as %s" % (i, docs[0]["result"]))
            if docs[2]["result"]["verdict"] is not True:
                problems.append("invocation %d: README check-iff is not true" % i)
        elif kind == "module":
            ass, iff = docs
            if not set(ass["result"]["primes"]) <= set(PRIMES.values()):
                problems.append("invocation %d: Ass outside (x, z), (x, y, z)" % i)
            if iff["result"]["verdict"] and iff["verification"].get("steps") is not True:
                problems.append("invocation %d: check-iff chain unverified" % i)
        else:
            modulus = 32003 if "--field" in script["flags"] else None
            colon_p2, iff, colon_p, colon_m, ass, gpf = docs
            if colon_p2["result"]["module"] != "(x, y, z)":
                problems.append("invocation %d: (p^2 : p) = %s" % (i, colon_p2["result"]["module"]))
            if iff["result"]["verdict"] is not False or iff["result"].get("failed_index") != 1:
                problems.append("invocation %d: check-iff p^2 is not false at index 1" % i)
            if gpf["verification"]["steps"] is not True:
                problems.append("invocation %d: gpf filtration unverified" % i)
            if not set(ass["result"]["primes"]) <= set(PRIMES.values()):
                problems.append("invocation %d: Ass outside (x, z), (x, y, z)" % i)
            if sym is None:
                sym = SympyColon()
            n_gens = [corpus.mono_text(g) for g in script["params"]["gens"]]
            for doc, sub, prime in (
                (colon_p2, ["x^2", "x*z", "z^2"], "p"),
                (colon_p, n_gens, "p"),
                (colon_m, n_gens, "m"),
            ):
                key = (tuple(sub), prime, modulus)
                if key not in cache:
                    cache[key] = sym.colon(
                        sym.parse("(%s)" % ", ".join(sub)), sym.parse(PRIMES[prime]), modulus
                    )
                got = sym.basis(sym.parse(doc["result"]["module"]), modulus)
                if got != cache[key]:
                    problems.append(
                        "invocation %d: colon by %s is %s, sympy gives %s"
                        % (i, prime, doc["result"]["module"], cache[key])
                    )
    return problems
