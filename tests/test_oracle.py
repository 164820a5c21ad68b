import itertools
import math
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from gpfkit import oracle
from gpfkit.arith import PolyRing, mono_degree
from gpfkit.errors import BudgetError, VerificationError
from gpfkit.fields import QQ, GF
from gpfkit.oracle import (
    FiniteModule,
    FiniteRing,
    Subspace,
    ass_bruteforce,
    colon_bruteforce,
    rpe_bruteforce,
    run_fixture_checks,
)


def _f2xy(caps=3):
    sym = PolyRing(GF(2), ("x", "y"))
    return FiniteRing(sym, caps)


def test_truncated_ring_dimensions():
    ring = _f2xy(3)
    assert ring.dim == 9
    assert ring.trusted_degree == 3
    x = ring.var(0)
    assert ring.deg(x) == 1
    cube = ring.mul(ring.mul(x, x), x)
    assert cube == ring.zero()


def test_truncated_ring_rejects_bad_input():
    with pytest.raises(ValueError):
        FiniteRing(PolyRing(QQ, ("x",)), 3)
    sym = PolyRing(GF(2), ("x", "y"))
    pure = PolyRing(GF(2), ("x", "y"))
    inhom = PolyRing(
        GF(2), ("x", "y"), relations=(pure.gen(0) * pure.gen(1) + pure.one(),)
    )
    with pytest.raises(ValueError):
        FiniteRing(inhom, 3)


def test_subspace_echelon():
    field = GF(2)
    one, zero = field.one, field.zero
    s = Subspace(field, 3)
    assert s.insert((one, one, zero))
    assert s.insert((zero, one, one))
    assert not s.insert((one, zero, one))
    assert s.dim == 2
    assert s.contains((one, zero, one))
    assert not s.contains((one, zero, zero))
    t = Subspace(field, 3)
    t.insert((one, zero, one))
    t.insert((zero, one, one))
    assert s.equals(t)
    assert s.key() == t.key()


def test_colon_bruteforce_monomial_chain():
    ring = _f2xy(3)
    sym = ring.sym
    x, y = sym.gen(0), sym.gen(1)
    mod = FiniteModule(ring, 1)
    N = mod.closure(
        [mod.flatten([ring.from_poly(x * x)]), mod.flatten([ring.from_poly(x * y)])]
    )
    K = colon_bruteforce(N, [ring.from_poly(x), ring.from_poly(y)], mod)
    expect = mod.closure([mod.flatten([ring.from_poly(x)])])
    assert K.equals(expect)
    full = colon_bruteforce(N, [], mod)
    assert full.equals(mod.full_space())


def test_ass_bruteforce_monomial_chain():
    ring = _f2xy(3)
    sym = ring.sym
    x, y = sym.gen(0), sym.gen(1)
    mod = FiniteModule(ring, 1)
    N = mod.closure([mod.flatten([ring.from_poly(x * x)]), mod.flatten([ring.from_poly(x * y)])])
    assert ass_bruteforce(N, mod) == [(0,), (0, 1)]
    lines = mod.closure([mod.flatten([ring.from_poly(x * y)])])
    assert ass_bruteforce(lines, mod) == [(0,), (1,)]


def test_ass_bruteforce_refuses_zero_submodule():
    """Every element of a truncation is torsion, so the oracle cannot
    speak about the zero submodule of a free module."""
    ring = _f2xy(3)
    mod = FiniteModule(ring, 1)
    N = mod.closure([])
    with pytest.raises(VerificationError):
        ass_bruteforce(N, mod)


def test_ass_bruteforce_budget(monkeypatch):
    monkeypatch.setattr(oracle, "MAX_MODULE", 64)
    sym = PolyRing(GF(2), ("x", "y", "z"))
    ring = FiniteRing(sym, 4)
    mod = FiniteModule(ring, 1)
    N = mod.closure([mod.flatten([ring.from_poly(sym.gen(0))])])
    with pytest.raises(BudgetError):
        ass_bruteforce(N, mod)


def test_ass_bruteforce_needs_room_above_the_witness_degree():
    """Witnesses have degree 1, so a cap below 3 leaves no trusted
    product of a witness and a variable."""
    ring = _f2xy(2)
    mod = FiniteModule(ring, 1)
    N = mod.closure([ring.var(0)])
    with pytest.raises(BudgetError, match="witness degree 1 leaves no trusted room"):
        ass_bruteforce(N, mod)


def test_window_budget(monkeypatch):
    monkeypatch.setattr(oracle, "MAX_WINDOW", 16)
    sym = PolyRing(GF(2), ("x", "y", "z"))
    ring = FiniteRing(sym, 4)
    mod = FiniteModule(ring, 1)
    with pytest.raises(BudgetError):
        mod.window(3)


def test_colon_bruteforce_budget(monkeypatch):
    """The colon's kernel is solved on the window's basis, but a window
    over the budget is refused all the same."""
    monkeypatch.setattr(oracle, "MAX_WINDOW", 16)
    sym = PolyRing(GF(2), ("x", "y", "z"))
    ring = FiniteRing(sym, 4)
    mod = FiniteModule(ring, 1)
    with pytest.raises(BudgetError, match="holds 1024 vectors, over the budget 16"):
        colon_bruteforce(mod.closure([]), [ring.var(0)], mod)


def test_ass_bruteforce_annihilator_budget(monkeypatch):
    """A witness whose annihilator window is over the window budget is
    refused, though the witness window itself fits."""
    monkeypatch.setattr(oracle, "MAX_WINDOW", 16)
    ring = FiniteRing(PolyRing(GF(2), ("x", "y")), 3)
    mod = FiniteModule(ring, 1)
    N = mod.closure([ring.from_poly(ring.sym.gen(0) * ring.sym.gen(1))])
    with pytest.raises(BudgetError, match="holds 64 elements, over the budget 16"):
        ass_bruteforce(N, mod)


def test_is_prime_restricted():
    ring = _f2xy(3)
    sym = ring.sym
    x, y = sym.gen(0), sym.gen(1)
    mod = FiniteModule(ring, 1)
    px = mod.closure([mod.flatten([ring.from_poly(x)])])
    assert ring.is_prime_restricted(px)
    sq = mod.closure([mod.flatten([ring.from_poly(x * x)]), mod.flatten([ring.from_poly(x * y)])])
    assert not ring.is_prime_restricted(sq)


def test_rpe_bruteforce_matches_symbolic_order():
    ring = _f2xy(3)
    sym = ring.sym
    x, y = sym.gen(0), sym.gen(1)
    mod = FiniteModule(ring, 1)
    N = mod.closure([mod.flatten([ring.from_poly(x * x)]), mod.flatten([ring.from_poly(x * y)])])
    assert rpe_bruteforce(N, mod) == [(0, 1), (0,)]
    lines = mod.closure([mod.flatten([ring.from_poly(x * y)])])
    assert rpe_bruteforce(lines, mod, tie_break="lex") == [(0,), (1,)]
    assert rpe_bruteforce(lines, mod, tie_break="revlex") == [(1,), (0,)]


def test_rpe_bruteforce_rejects_a_bad_tie_break_on_entry(monkeypatch):
    """An unknown tie-break is refused before any associated-prime scan,
    also when there is nothing left to filter."""
    ring = _f2xy(3)
    mod = FiniteModule(ring, 1)
    scans = []
    monkeypatch.setattr(oracle, "ass_bruteforce", lambda *a, **k: scans.append(a))
    lines = mod.closure([ring.from_poly(ring.sym.gen(0) * ring.sym.gen(1))])
    for N in (mod.full_space(), lines):
        with pytest.raises(ValueError):
            rpe_bruteforce(N, mod, tie_break="bogus")
    assert scans == []


def test_ass_bruteforce_scans_each_submodule_once(monkeypatch):
    """Repeated questions about one submodule of a model, and primality
    questions about one prime of a ring, are each answered by one scan."""
    ring = _f2xy(3)
    mod = FiniteModule(ring, 1)
    N = mod.closure([ring.from_poly(ring.sym.gen(0) * ring.sym.gen(1))])
    scans, verdicts = [], []
    real_scan, real_verdict = oracle._ass_scan, FiniteRing._primality_scan
    monkeypatch.setattr(
        oracle, "_ass_scan", lambda *a: scans.append(a[0].key()) or real_scan(*a)
    )
    monkeypatch.setattr(
        FiniteRing,
        "_primality_scan",
        lambda self, space: verdicts.append(space.key()) or real_verdict(self, space),
    )
    first = ass_bruteforce(N, mod)
    first.append("a caller's edit")
    assert ass_bruteforce(N, mod) == [(0,), (1,)]
    assert scans == [N.key()]
    assert len(verdicts) == 2
    rpe_bruteforce(N, mod, tie_break="lex")
    rpe_bruteforce(N, mod, tie_break="revlex")
    assert len(scans) == 3 and len(verdicts) == 2


# The enumerations the kernels replace: every element of the window is
# multiplied out and reduced, with no linear algebra beyond membership.


def _scan_colon(N, gens, M):
    ring = M.ring
    bound = ring.trusted_degree - 1 - max(ring.deg(g) for g in gens)
    return M.closure(
        [v for v in M.window(bound) if all(N.contains(M.act(g, v)) for g in gens)]
    )


def _scan_ass(N, M):
    """The variable subsets witnessed in M/N, before the primality scan."""
    ring = M.ring
    nvars = len(ring.model.names)
    unit = FiniteModule(ring, 1)
    subsets = [
        S
        for size in range(1, nvars + 1)
        for S in itertools.combinations(range(nvars), size)
    ]
    primes = {S: unit.closure([ring.var(i) for i in S]) for S in subsets}
    found = set()
    for z in M.window(1):
        if N.contains(z):
            continue
        window = ring.window(ring.trusted_degree - 1 - max(M.vdeg(z), 0))
        kills = {i for i in range(nvars) if N.contains(M.act(ring.var(i), z))}
        if not kills:
            continue
        ann = [a for a in window if N.contains(M.act(a, z))]
        for S in subsets:
            if kills.issuperset(S) and all(primes[S].contains(a) for a in ann):
                found.add(S)
    return sorted(found)


def _outcome(fn):
    try:
        return ("value", fn())
    except BudgetError as exc:
        return ("budget", str(exc))


# One ring per shape for the whole test: its memos hold only facts of the
# ring, and enumerating its windows again for every example would
# dominate the run.
_MODEL_RINGS = {}


def _model_ring(q, nvars):
    if (q, nvars) not in _MODEL_RINGS:
        sym = PolyRing(GF(q), ("x", "y", "z")[:nvars])
        _MODEL_RINGS[q, nvars] = FiniteRing(sym, 3)
    return _MODEL_RINGS[q, nvars]


@st.composite
def model_inputs(draw):
    """A free or quotient module over F2 or F3 in two or three variables,
    a small submodule N of it and colon generators, all sparse."""
    q = draw(st.sampled_from([2, 3]))
    ring = _model_ring(q, draw(st.sampled_from([2, 3])))
    rank = draw(st.sampled_from([1, 2]))
    low = [i for i, m in enumerate(ring.basis) if 1 <= mono_degree(m) <= 2]

    def vector(width, slots):
        terms = draw(
            st.dictionaries(
                st.sampled_from(slots), st.integers(1, q - 1), min_size=1, max_size=3
            )
        )
        return tuple(terms.get(i, 0) for i in range(width))

    slots = [c * ring.dim + i for c in range(rank) for i in low]
    denom = [vector(rank * ring.dim, slots) for _ in range(draw(st.integers(0, 1)))]
    M = FiniteModule(ring, rank, denom)
    N = M.closure([vector(M.width, slots) for _ in range(draw(st.integers(1, 3)))])
    gens = [vector(ring.dim, low) for _ in range(draw(st.integers(1, 2)))]
    return M, N, gens


@settings(max_examples=30, deadline=None)
@given(model_inputs())
def test_kernels_by_elimination_match_the_window_scan(case):
    """Colons and annihilators solved by elimination on the window's basis
    agree with testing every window element, window budget refusals
    included (the module bound is lifted); over F3 the pivots are not all
    1.  The primality scan is one code on both sides, so the comparison
    stops before it: every candidate passes it here."""
    M, N, gens = case
    assert _outcome(lambda: colon_bruteforce(N, gens, M).key()) == _outcome(
        lambda: _scan_colon(N, gens, M).key()
    )
    with mock.patch.object(oracle, "MAX_MODULE", math.inf), mock.patch.object(
        FiniteRing, "is_prime_restricted", lambda self, space: True
    ):
        got = _outcome(lambda: ass_bruteforce(N, M))
    assert got == _outcome(lambda: _scan_ass(N, M))


# Every check of the battery, in order: dropping or renaming one fails.
BATTERY = [
    ("monomial-chain", "membership agrees on degree-2 samples"),
    ("monomial-chain", "colon by the maximal ideal is (x)"),
    ("monomial-chain", "colon by (x) is the maximal ideal"),
    ("monomial-chain", "colon by the unit returns the submodule"),
    ("monomial-chain", "associated primes are {(x), (x,y)}"),
    ("monomial-chain", "filtration multiset matches under both tie-breaks"),
    ("monomial-chain", "no associated prime when the submodule is everything"),
    ("maximal-square", "membership agrees on degree-2 samples"),
    ("maximal-square", "colon by the maximal ideal is the maximal ideal"),
    ("maximal-square", "the only associated prime is (x,y)"),
    ("maximal-square", "filtration multiset is (x,y) twice"),
    ("two-lines", "colon by (x) is (y)"),
    ("two-lines", "colon by (y) is (x)"),
    ("two-lines", "associated primes are {(x), (y)}"),
    ("two-lines", "filtration multiset is (x)(y) either way"),
    ("free-counterexample", "membership agrees on low-degree samples"),
    ("free-counterexample", "colon by the maximal ideal adds the first unit vector"),
    ("free-counterexample", "associated primes are {(x), (x,y)}"),
    ("free-counterexample", "filtration multiset matches the symbolic engine"),
    ("residue-field", "the maximal ideal is the only associated prime"),
    ("residue-field", "filtration multiset is a single (x,y)"),
    ("binomial-quotient", "membership agrees through the defining relations"),
    ("binomial-quotient", "(p^2 : p) is the maximal ideal, both engines"),
    ("binomial-quotient", "the annihilator of p is principal, both engines"),
]


def test_fixture_battery_is_green():
    report = run_fixture_checks()
    assert report["ok"]
    names = [f["name"] for f in report["fixtures"]]
    assert names == [f.name for f in oracle._FIXTURES]
    assert all(c["ok"] for f in report["fixtures"] for c in f["checks"])
    pairs = [(f["name"], c["check"]) for f in report["fixtures"] for c in f["checks"]]
    assert pairs == BATTERY


def _count_oracle_work(monkeypatch):
    """Ring products, subspace reductions and primality scans made by the
    fixture battery from now on."""
    counts = dict.fromkeys(("mul", "reduce", "_primality_scan"), 0)
    for owner, name in (
        (FiniteRing, "mul"),
        (Subspace, "reduce"),
        (FiniteRing, "_primality_scan"),
    ):
        real = getattr(owner, name)

        def counted(*args, _real=real, _name=name):
            counts[_name] += 1
            return _real(*args)

        monkeypatch.setattr(owner, name, counted)
    return counts


def test_fixture_battery_work(monkeypatch):
    """A guard on the work, which no byte test sees: the battery's ring
    products and reductions are at most a quarter of the 16,102 and 15,733
    that testing every window element took, fixtures over one model share
    its ring, so each of the 3 distinct (ring, prime) pairs is scanned
    once (3 scans, not 8 with a ring per fixture, nor 32), and the counts
    repeat exactly."""
    counts = _count_oracle_work(monkeypatch)
    assert run_fixture_checks()["ok"]
    first = dict(counts)
    assert first["mul"] * 4 <= 16102
    assert first["reduce"] * 4 <= 15733
    assert first["_primality_scan"] == 3
    for key in counts:
        counts[key] = 0
    run_fixture_checks()
    assert counts == first
