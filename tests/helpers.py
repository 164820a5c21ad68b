"""Shared builders for the test suite."""

from gpfkit.arith import PolyRing
from gpfkit.fields import QQ
from gpfkit.modops import Submodule, QuotientModule
from gpfkit.primes import PrimeIdeal


def xy_ring():
    ring = PolyRing(QQ, ("x", "y"))
    return ring, ring.gen(0), ring.gen(1)


def xyz_ring():
    ring = PolyRing(QQ, ("x", "y", "z"))
    return ring, ring.gen(0), ring.gen(1), ring.gen(2)


def twisted_ring():
    """QQ[x,y,z] modulo (xy - z^2, x^2 - yz)."""
    pure, x, y, z = xyz_ring()
    return PolyRing(
        QQ, ("x", "y", "z"), relations=(x * y - z * z, x * x - y * z)
    )


def twisted_setup():
    """The twisted ring with its prime p = (x, z) and a candidate set."""
    ring = twisted_ring()
    x, y, z = ring.gen(0), ring.gen(1), ring.gen(2)
    p = PrimeIdeal(ring, [x, z])
    m = PrimeIdeal(ring, [x, y, z])
    registry = (p, m, PrimeIdeal(ring, [x, y]), PrimeIdeal(ring, [y, z]))
    return ring, p, m, registry


def counterexample_module():
    """M = (QQ[x,y]/(x))^2 with N spanned by (y, 0)."""
    ring, x, y = xy_ring()
    zero = ring.zero()
    M = QuotientModule.free(ring, 2, ((x, zero), (zero, x)))
    N = M.span(((y, zero),))
    return ring, M, N


def ideal_sub(ring, *gens):
    """A rank-1 submodule from scalar generators."""
    return Submodule(ring, 1, [(g,) for g in gens])


def submodule_sum(A, B):
    """A + B for submodules of one ambient: both generator lists."""
    assert A.ring == B.ring and A.rank == B.rank
    return Submodule(A.ring, A.rank, A.gens + B.gens)


def total_multiplicity(ms):
    """The number of primes of a prime multiset, with multiplicity."""
    return sum(r for _, r in ms.entries())


def chain_modules(filt):
    """The modules of a filtration's chain, its base first."""
    return [filt.base] + [s.upper for s in filt.steps]


def random_monomial_sub(rng, module, max_deg=3, max_gens=4):
    """A proper nonzero monomial submodule of the given quotient module."""
    ring = module.ring
    nv = ring.nvars
    gens = []
    for _ in range(rng.randint(1, max_gens)):
        exps = [rng.randint(0, max_deg) for _ in range(nv)]
        if not any(exps):
            exps[rng.randrange(nv)] = 1
        vec = [ring.zero()] * module.rank
        vec[rng.randrange(module.rank)] = ring.monomial(tuple(exps))
        gens.append(tuple(vec))
    return module.span(gens)


def variable_prime(ring, *indices):
    return PrimeIdeal.from_variables(ring, indices)
