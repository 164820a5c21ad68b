import pytest

from gpfkit.arith import PolyRing
from gpfkit.errors import BudgetError, VerificationError
from gpfkit.fields import QQ, GF
from gpfkit.oracle import (
    FiniteModule,
    FiniteRing,
    Subspace,
    bundled_fixtures,
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
    assert ring.cardinality == 2 ** 9
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


def test_ass_bruteforce_budget():
    sym = PolyRing(GF(2), ("x", "y", "z"))
    ring = FiniteRing(sym, 4)
    mod = FiniteModule(ring, 1)
    N = mod.closure([mod.flatten([ring.from_poly(sym.gen(0))])])
    with pytest.raises(BudgetError):
        ass_bruteforce(N, mod, budget=64)


def test_window_budget():
    sym = PolyRing(GF(2), ("x", "y", "z"))
    ring = FiniteRing(sym, 4, budget=16)
    mod = FiniteModule(ring, 1)
    with pytest.raises(BudgetError):
        mod.window(3)


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
    assert names == [f.name for f in bundled_fixtures()]
    assert all(c["ok"] for f in report["fixtures"] for c in f["checks"])
    pairs = [(f["name"], c["check"]) for f in report["fixtures"] for c in f["checks"]]
    assert pairs == BATTERY


def test_fixture_selection_by_name():
    report = run_fixture_checks(["monomial-chain"])
    assert report["ok"]
    assert len(report["fixtures"]) == 1
    with pytest.raises(ValueError):
        run_fixture_checks(["no-such-fixture"])
