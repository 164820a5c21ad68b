"""Hand-derived cases for the exponent-vector reference.

Run with ``python3 -m pytest gpfbench/test_reference.py``.
"""

import random

import reference as ref

X, Y = (1, 0), (0, 1)


def ideal(*monos):
    return ref.minimalize(monos)


def test_chain_x_squared_xy():
    # (x^2, xy) < (x) < R: the primes are (x, y) and then (x).
    comps = [ideal((2, 0), (1, 1))]
    assert ref.ass(comps[0], 2) == {frozenset({0}), frozenset({0, 1})}
    assert ref.factorization(comps, 2) == (((0,), 1), ((0, 1), 1))


def test_maximal_square():
    comps = [ideal((2, 0), (1, 1), (0, 2))]
    assert ref.ass(comps[0], 2) == {frozenset({0, 1})}
    assert ref.factorization(comps, 2) == (((0, 1), 2),)


def test_colon_by_variable_primes():
    I = ideal((2, 0), (1, 1))
    assert ref.colon_prime(I, {0, 1}, 2) == ideal(X)
    assert ref.colon_prime(I, {0}, 2) == ideal(X, Y)
    assert ref.colon_prime(I, set(), 2) == ref.unit(2)


def test_counterexample_module():
    # M = (QQ[x,y]/(x))^2 and N spanned by (y, 0): M/N = R/(x,y) + R/(x).
    denom = [ideal(X), ideal(X)]
    comps = ref.components_of([(0, Y)], denom, 2)
    assert comps == [ideal(X, Y), ideal(X)]
    assert ref.factorization(comps, 2) == (((0,), 1), ((0, 1), 1))
    # Condition 1 for (x, y) * (x) asks for (x, y) in Supp((x) M), and
    # (x) M is the zero module, whose annihilator is the whole ring.
    pairs = [({0, 1}, 1), ({0}, 1)]
    assert ref.annihilator(ideal(X), denom, 2) == ref.unit(2)
    assert ref.first_supp_failure(pairs, denom, 2) == 1


def test_free_module_support_always_holds():
    denom = [frozenset(), frozenset()]
    pairs = [({0, 1}, 2), ({1}, 1)]
    assert ref.first_supp_failure(pairs, denom, 2) is None
    # the zero component of a free module contributes the zero prime
    comps = ref.components_of([(0, X)], denom, 2)
    assert ref.factorization(comps, 2) == (((), 1), ((0,), 1))


def test_multiset_is_choice_free_on_random_ideals():
    rng = random.Random(7)
    for _ in range(40):
        nv = rng.randint(2, 4)
        comps = [
            ideal(*(tuple(rng.randint(0, 2) for _ in range(nv)) for _ in range(3)))
            for _ in range(rng.randint(1, 2))
        ]
        first = ref.multiset(ref.filtration_primes(comps, nv, pick=min))
        last = ref.multiset(ref.filtration_primes(comps, nv, pick=max))
        assert first == last
