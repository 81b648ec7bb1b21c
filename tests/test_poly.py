import random
from fractions import Fraction

import pytest

from gtutte.poly import BiPoly, UniPoly, scale_variable, substitute_xy


def rand_uni(rng, deg=4, span=6):
    return UniPoly([rng.randint(-span, span) for _ in range(rng.randint(0, deg))])


def rand_bi(rng):
    return BiPoly({(rng.randint(0, 3), rng.randint(0, 3)): rng.randint(-5, 5)
                   for _ in range(rng.randint(0, 5))})


def test_uni_canonical_form():
    assert UniPoly([0, 0]).coeffs == ()
    assert UniPoly([1, 2, 0]).coeffs == (1, 2)
    assert not UniPoly()
    assert UniPoly().degree == -1


def test_uni_square_of_t_minus_one():
    p = UniPoly([-1, 1])
    assert (p * p).coeffs == (1, -2, 1)


def test_bi_expand_product():
    x1 = BiPoly({(1, 0): 1, (0, 0): -1})
    y1 = BiPoly({(0, 1): 1, (0, 0): -1})
    assert (x1 * y1).triples() == [[0, 0, 1], [0, 1, -1], [1, 0, -1], [1, 1, 1]]
    assert repr(BiPoly({(1, 0): 2})) == "BiPoly([[1, 0, 2]])"


def test_ring_axioms_random():
    rng = random.Random(2)
    for _ in range(120):
        a, b, c = (rand_uni(rng) for _ in range(3))
        assert (a + b) + c == a + (b + c)
        assert a * (b + c) == a * b + a * c
        assert (a * b) * c == a * (b * c)
        A, B, C = (rand_bi(rng) for _ in range(3))
        assert (A + B) + C == A + (B + C)
        assert A * (B + C) == A * B + A * C
        assert (A * B) * C == A * (B * C)


def test_eval_uni():
    f = UniPoly([1, -2, 1])
    assert f(5) == 16
    assert UniPoly([7, 3])(0) == 7
    assert UniPoly()(123) == 0
    assert f(Fraction(1, 2)) == Fraction(1, 4)


def test_substitute_xy():
    assert substitute_xy(BiPoly({(0, 0): 1})).coeffs == (1,)
    # x - 1 becomes -t
    assert substitute_xy(BiPoly({(1, 0): 1, (0, 0): -1})).coeffs == (0, -1)
    # (x-1)^2 + (x-1)(y-1) -> t^2 + t
    x1 = BiPoly({(1, 0): 1, (0, 0): -1})
    y1 = BiPoly({(0, 1): 1, (0, 0): -1})
    assert substitute_xy(x1 * x1 + x1 * y1).coeffs == (0, 1, 1)


def test_substitute_xy_kills_y_terms():
    rng = random.Random(9)
    for _ in range(50):
        t = rand_bi(rng)
        only_y = BiPoly({(i, j): c for (i, j), c in t.terms.items() if j > 0})
        assert substitute_xy(only_y).coeffs == ()


def test_substitute_xy_matches_products_and_values():
    # the binomial expansion against repeated products of 1 - t, and its
    # values against T(1 - v, 0) evaluated term by term
    rng = random.Random(4)
    for _ in range(100):
        t = BiPoly({(rng.randint(0, 9), rng.randint(0, 2)): rng.randint(-9, 9)
                    for _ in range(rng.randint(0, 6))})
        want = UniPoly()
        for (i, j), c in t.terms.items():
            if not j:
                power = UniPoly([c])
                for _ in range(i):
                    power = power * UniPoly([1, -1])
                want = want + power
        got = substitute_xy(t)
        assert got == want
        for v in (-3, 0, 2, Fraction(1, 3)):
            assert got(v) == sum(c * (1 - v) ** i
                                 for (i, j), c in t.terms.items() if not j)


def test_scale_variable_examples():
    assert scale_variable(UniPoly([2, -3, 1]), 2, 1).coeffs == (2, -6, 4)
    assert scale_variable(UniPoly([4, -5, 1]), 4, 1).coeffs == (4, -20, 16)
    p = UniPoly([5, 1, -2])
    assert scale_variable(p, 1, 1) == p


def test_scale_variable_matches_pointwise():
    rng = random.Random(4)
    for _ in range(60):
        p = rand_uni(rng)
        c, g = rng.randint(1, 4), rng.randint(1, 3)
        q = scale_variable(p, c, g)
        for t in range(-3, 4):
            assert q(t) == p(c * t**g)


def test_scale_variable_rejects_bad_args():
    with pytest.raises(ValueError):
        scale_variable(UniPoly([1]), 0, 1)
    with pytest.raises(ValueError):
        scale_variable(UniPoly([1]), 1, 0)


def test_bipoly_triples_sorted_and_stable():
    t = BiPoly({(2, 0): 1, (1, 1): 2, (1, 0): 3})
    assert t.triples() == [[1, 0, 3], [1, 1, 2], [2, 0, 1]]
