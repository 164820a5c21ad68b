"""Seeded inputs for the three workloads.

The generators take the seed and return plain data; gpfkit only ever
sees the inputs they produce.  Each corpus is a cycle of fixed slots, and
the seed draws the inputs inside each slot, so every seed gives inputs of
the same shape and about the same cost.  Without the slots a few
expensive draws would decide the run time of a whole corpus.
"""

import random
from itertools import combinations

import reference as ref

VARS = "xyzuv"

# forward-monomial: (variables, rank, generators per component, largest
# exponent, filtration length).  The filtration length is read from the
# reference, and it sets most of the cost: every step enumerates the
# associated primes over all 2^m variable subsets.
FORWARD_SLOTS = (
    (3, 1, 3, 2, 3),
    (4, 1, 2, 2, 2),
    (3, 2, 2, 2, 3),
    (4, 2, 2, 1, 2),
    (5, 1, 2, 1, 2),
)

# inverse-products: each slot is a list of (size of the variable subset,
# exponent) with the relation between the subsets, the module the product
# is tested against and, for (R/(x))^2, which primes contain x.  Over
# (R/(x))^2 that decides whether and where the support conditions fail,
# and so the cost: a refused target costs a tenth of a constructed one.
# The "interchange" slot is drawn by _draw_interchange.
INVERSE_SLOTS = (
    ("single", ((2, 2),), "R", None),
    ("nested", ((2, 1), (1, 2)), "R2", None),
    ("incomparable", ((1, 1), (1, 1)), "Rx2", (False, False)),
    ("nested", ((3, 1), (2, 1), (1, 1)), "R", None),
    ("incomparable", ((2, 1), (2, 1)), "R2", None),
    ("incomparable", ((2, 2), (1, 1)), "Rx2", (True, False)),
    ("nested", ((2, 1), (1, 2)), "R", None),
    ("single", ((2, 2),), "Rx2", (True,)),
    ("incomparable", ((1, 1), (1, 1)), "R2", None),
    ("incomparable", ((2, 2), (1, 1)), "R", None),
    ("nested", ((3, 1), (2, 1), (1, 1)), "Rx2", (True, False, False)),
    ("interchange", ((2, 1), (2, 1), (1, 1)), "R4", None),
)

# The modules: variables, rank and one denominator ideal per component,
# as exponent vectors.  R4 is QQ[x,y,z,u]; the others are over QQ[x,y,z].
X = (1, 0, 0)
MODULES = {
    "R": (3, 1, (frozenset(),)),
    "R2": (3, 2, (frozenset(), frozenset())),
    "Rx2": (3, 2, (frozenset([X]), frozenset([X]))),
    "R4": (4, 1, (frozenset(),)),
}


def _draw_forward(rng, nvars, rank, ngens, maxdeg, steps):
    denom = [frozenset()] * rank
    for _ in range(10000):
        gens = []
        for comp in range(rank):
            for _ in range(ngens):
                exps = [rng.randint(0, maxdeg) for _ in range(nvars)]
                if not any(exps):
                    exps[rng.randrange(nvars)] = 1
                gens.append((comp, tuple(exps)))
        fac = ref.factorization(ref.components_of(gens, denom, nvars), nvars)
        if sum(n for _, n in fac) == steps:
            return {"nvars": nvars, "rank": rank, "gens": gens}
    raise RuntimeError("no input of the slot %r found" % ((nvars, rank, steps),))


def forward_items(seed, count):
    """Monomial submodules of free modules, as (component, exponents)
    generators."""
    rng = random.Random("forward-monomial:%d" % seed)
    return [
        _draw_forward(rng, *FORWARD_SLOTS[i % len(FORWARD_SLOTS)])
        for i in range(count)
    ]


def _draw_subsets(rng, kind, shape, xmask):
    subsets = {
        k: [frozenset(c) for c in combinations(range(3), k)] for k in (1, 2, 3)
    }
    while True:
        picked = [rng.choice(subsets[size]) for size, _ in shape]
        if len(set(picked)) != len(picked):
            continue
        if xmask is not None and any((0 in S) != want for S, want in zip(picked, xmask)):
            continue
        pairs = [(a, b) for a in picked for b in picked if a < b or b < a]
        if kind == "nested" and len(pairs) == len(picked) * (len(picked) - 1):
            return picked
        if kind != "nested" and not pairs:
            return picked


def _relabel(picked, turn, xmask):
    """Rotate x -> y -> z -> x ``turn`` times; where x is pinned, swap y
    and z on odd turns instead."""
    if xmask is None:
        perm = {v: (v + turn) % 3 for v in range(3)}
    else:
        perm = {0: 0, 1: 1 + turn % 2, 2: 2 - turn % 2}
    return [frozenset(perm[v] for v in S) for S in picked]


def _draw_interchange(rng):
    """Two primes (a, b), (b, c) and the prime (d) of the fourth variable,
    with d = x or u.  The product has the embedded prime (a, b, c), which
    the lex tie-break takes after (d) because the token of (d) sorts
    first; building the witness for the antichain then has to move (d)
    past it by an interchange."""
    d = rng.choice((0, 3))
    a, b, c = rng.sample([v for v in range(4) if v != d], 3)
    return [frozenset((a, b)), frozenset((b, c)), frozenset((d,))]


def inverse_items(seed, count):
    """Prime products p_1^r_1 ... p_n^r_n, larger primes first, with the
    module to test them in.

    The seed draws one pick of primes per slot; the k-th cycle of the
    corpus relabels it by the k-th rotation of the variables.  Every
    variable thus takes each role once per three cycles, which keeps the
    cost of a corpus from hanging on which variables a seed favours (x
    comes first in grevlex, and the cost of one pick can be half again
    that of another).
    """
    rng = random.Random("inverse-products:%d" % seed)
    base = {
        j: _draw_subsets(rng, kind, shape, xmask)
        for j, (kind, shape, _, xmask) in enumerate(INVERSE_SLOTS)
        if kind != "interchange"
    }
    out = []
    for i in range(count):
        kind, shape, module, xmask = INVERSE_SLOTS[i % len(INVERSE_SLOTS)]
        if kind == "interchange":
            picked = _draw_interchange(rng)
        else:
            picked = _relabel(base[i % len(INVERSE_SLOTS)], i // len(INVERSE_SLOTS), xmask)
        pairs = [(sorted(S), r) for S, (_, r) in zip(picked, shape)]
        out.append({"module": module, "pairs": pairs, "antichain": kind != "nested"})
    return out


BINOMIAL = "ring R = QQ[x,y,z] / (x*y - z^2, x^2 - y*z);"
# Candidate primes of the binomial quotient: (x, z), prime because both
# relations vanish modulo it, and the maximal ideal (x, y, z).
REGISTRY = """prime p = (x, z);
prime m = (x, y, z);
candidates = { p, m };"""

README_CHAIN = """ring R = QQ[x,y];
prime p = (x, y);
prime q = (x);
submodule N in R = (x^2, x*y);

gpf N in R;
filtration N in R;
check-iff p * q in R;
"""


def mono_text(exps):
    parts = []
    for name, e in zip("xyz", exps):
        if e == 1:
            parts.append(name)
        elif e > 1:
            parts.append("%s^%d" % (name, e))
    return "*".join(parts) or "1"


def _ideal_script(rng, a):
    """An ideal N of the binomial quotient with a power of x and of z
    among its homogeneous generators.  Every associated prime of R/N is
    then graded and contains (x, z), so it is (x, z) or (x, y, z), and the
    registry lists both."""
    gens = [(a, 0, 0), (0, 0, rng.randint(2, 3)), (rng.randint(0, 1), rng.randint(1, 2), 1)]
    decls = "%s\n%s\nsubmodule N in R = (%s);\nsubmodule P2 in R = (x^2, x*z, z^2);\n" % (
        BINOMIAL,
        REGISTRY,
        ", ".join(mono_text(g) for g in gens),
    )
    cmds = """colon P2 : p in R;
check-iff p^2 in R;
colon N : p in R;
colon N : m in R;
ass N in R;
gpf N in R;
"""
    return {"gens": gens}, decls, cmds


def _module_script(rng):
    """A rank-2 module with denominators over the binomial quotient.  Its
    annihilator holds a power of x and of z, so, as for the ideals, the
    associated primes are among the registry's."""
    b = rng.randint(1, 2)
    coeff = "%d/%d" % (rng.randint(1, 9), rng.randint(2, 9))
    decls = "%s\n%s\nmodule M = free(2) / ((x^2, 0), (0, z^%d));\n" % (
        BINOMIAL,
        REGISTRY,
        b + 1,
    )
    decls += "submodule N in M = ((z, 0), (0, x), (y^2, %s*y*z));\n" % coeff
    cmds = """ass N in M;
check-iff m in M;
"""
    return {"b": b, "coeff": coeff}, decls, cmds


FP = ("--field", "Fp:32003")

# One cycle of quotient-cli invocations: (script kind, ideal exponent of
# x, extra flags).
CLI_SLOTS = (
    ("ideal", 1, ()),
    ("ideal", 2, ()),
    ("module", None, ()),
    ("chain", None, ()),
    ("ideal", 1, FP),
    ("ideal", 2, FP),
    ("module", None, FP),
    ("oracle", None, ()),
)


def cli_scripts(seed, count):
    """The invocations of one quotient-cli pass.

    Each entry has the script text and its declarations-only form (both
    None for ``gpfkit --oracle``), the extra flags, and the seeded
    parameters.
    """
    rng = random.Random("quotient-cli:%d" % seed)
    out = []
    for i in range(count):
        kind, a, flags = CLI_SLOTS[i % len(CLI_SLOTS)]
        entry = {"kind": kind, "flags": list(flags), "text": None, "decls": None, "params": {}}
        if kind == "oracle":
            entry["flags"] = ["--oracle"]
        elif kind == "chain":
            entry["text"] = README_CHAIN
            entry["decls"] = "".join(
                line + "\n" for line in README_CHAIN.splitlines() if _is_decl(line)
            )
        else:
            if kind == "ideal":
                params, decls, cmds = _ideal_script(rng, a)
            else:
                params, decls, cmds = _module_script(rng)
            entry.update(text=decls + cmds, decls=decls, params=params)
        out.append(entry)
    return out


def _is_decl(line):
    word = line.strip().split(" ", 1)[0]
    return word in ("ring", "prime", "ideal", "module", "submodule", "candidates")
