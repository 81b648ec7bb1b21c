"""Root-system fixtures past the brute-force oracle's reach.

The classical root systems have closed forms by the finite field method,
so they check answers at element counts where no hom enumeration can.
"""

import time
from itertools import combinations
from math import comb, factorial, gcd, lcm, perm, prod

import pytest

from gtutte import (Arrangement, FGAbelianGroup, GroupSpec, QuasiPolynomial,
                    UniPoly, arithmetic_tutte, chromatic_quasi, g_tutte,
                    minimal_period)
from gtutte.lie import enumerate_lie_layers
from gtutte.posets import layer_sum
from gtutte.toric import enumerate_toric_layers


def type_a(n: int) -> Arrangement:
    """A_{n-1} = {e_i - e_j : i < j} over Z^n."""
    pairs = list(combinations(range(n), 2))
    return Arrangement(FGAbelianGroup(n),
                       [[(k == i) - (k == j) for k in range(n)] for i, j in pairs],
                       name=f"A_{n - 1}")


def blocks(n: int, localization: int) -> frozenset:
    """The set partition of range(n) joined by the edges e_i - e_j whose
    kernel contains a layer, read off its localization mask."""
    parent = list(range(n))

    def find(v):
        while parent[v] != v:
            v = parent[v]
        return v

    for bit, (i, j) in enumerate(combinations(range(n), 2)):
        if localization >> bit & 1:
            parent[find(i)] = find(j)
    parts: dict = {}
    for v in range(n):
        parts.setdefault(find(v), []).append(v)
    return frozenset(frozenset(part) for part in parts.values())


def check_set_partitions(n: int, bell: int, budget_s: float):
    """A_{n-1} is unimodular, so its toric layers are its flats: the Bell(n)
    set partitions of n points, each with the Möbius value of the partition
    lattice's interval below it."""
    arr = type_a(n)
    assert arr.n == n * (n - 1) // 2
    t0 = time.perf_counter()
    poset = enumerate_toric_layers(arr)
    layer_sum(poset)  # checks the identity on the way
    elapsed = time.perf_counter() - t0
    assert poset.n == bell
    partitions = set()
    for i, lay in enumerate(poset.layers):
        part = blocks(n, lay.localization)
        partitions.add(part)
        assert lay.rank == n - len(part)
        assert poset.mobius[i] == prod((-1) ** (len(b) - 1) * factorial(len(b) - 1)
                                       for b in part), (i, lay.key)
    assert len(partitions) == bell
    assert elapsed < budget_s, f"{elapsed:.2f}s > {budget_s}s"


def test_a5_toric_layers_are_the_set_partitions():
    check_set_partitions(6, 203, 3.0)


def test_a6_toric_layers_are_the_set_partitions():
    # 21 elements of rank 6: under both layer caps
    check_set_partitions(7, 877, 5.0)


def test_a5_chromatic_polynomial_is_the_falling_factorial():
    qp = chromatic_quasi(type_a(6))
    assert qp.period == 1
    assert qp.constituent(1) == prod((UniPoly([-i, 1]) for i in range(6)),
                                     start=UniPoly([1]))


def signed_pairs(n: int) -> list:
    """e_i - e_j and e_i + e_j for i < j over Z^n."""
    return [[(k == i) + sign * (k == j) for k in range(n)]
            for i, j in combinations(range(n), 2) for sign in (-1, 1)]


def type_b(n: int) -> Arrangement:
    """B_n = {e_i, e_i +- e_j} over Z^n."""
    units = [[int(k == i) for k in range(n)] for i in range(n)]
    return Arrangement(FGAbelianGroup(n), units + signed_pairs(n), name=f"B_{n}")


def type_c(n: int) -> Arrangement:
    """C_n = {2e_i, e_i +- e_j} over Z^n."""
    doubles = [[2 * (k == i) for k in range(n)] for i in range(n)]
    return Arrangement(FGAbelianGroup(n), doubles + signed_pairs(n), name=f"C_{n}")


def type_d(n: int) -> Arrangement:
    """D_n = {e_i +- e_j} over Z^n."""
    return Arrangement(FGAbelianGroup(n), signed_pairs(n), name=f"D_{n}")


def linear(*roots) -> UniPoly:
    """prod (t - r) over the roots."""
    return prod((UniPoly([-r, 1]) for r in roots), start=UniPoly([1]))


def d_even(n: int) -> UniPoly:
    """D_n's even constituent: of the residues mod q, 0 and q/2 are their
    own negatives and the other q - 2 form m = (q - 2)/2 pairs {a, -a}.  A
    point off every hyperplane puts its coordinates in distinct classes, k
    of them on the two self-inverse ones, so it counts
    sum_k C(n, k) * (2)_k * (m)_(n-k) * 2^(n-k), and
    (m)_j * 2^j = (q - 2)(q - 4)...(q - 2j)."""
    return sum((UniPoly([comb(n, k) * perm(2, k)])
                * linear(*range(2, 2 * (n - k) + 1, 2)) for k in range(3)),
               UniPoly())


# name -> (arrangement, odd constituent, even constituent, toric layers,
# layers over R x Z/2); the constituents by the finite field method
ROOT_SYSTEMS = {
    "B_4": (type_b(4), linear(1, 3, 5, 7), linear(4, 2, 4, 6), 161, 548),
    "C_4": (type_c(4), linear(1, 3, 5, 7), linear(2, 4, 6, 8), 257, 832),
    "D_5": (type_d(5), linear(4, 1, 3, 5, 7), d_even(5), 599, 2726),
}


@pytest.mark.parametrize("name", ROOT_SYSTEMS)
def test_root_system_constituents_and_periods(name):
    arr, odd, even, _, _ = ROOT_SYSTEMS[name]
    t0 = time.perf_counter()
    qp = chromatic_quasi(arr)
    assert qp.period == 2 and minimal_period(qp) == 2
    for q in range(1, 13):
        assert qp.constituent(q) == (even if q % 2 == 0 else odd), q
    elapsed = time.perf_counter() - t0
    assert elapsed < 2.0, f"{elapsed:.2f}s > 2.0s"


@pytest.mark.parametrize("name", ROOT_SYSTEMS)
def test_root_system_layer_counts(name):
    arr, _, even, toric_count, line_count = ROOT_SYSTEMS[name]
    t0 = time.perf_counter()
    poset = enumerate_toric_layers(arr)
    assert poset.n == toric_count
    assert layer_sum(poset)[1] == even
    assert enumerate_lie_layers(arr, 1, (2,)).n == line_count
    elapsed = time.perf_counter() - t0
    assert elapsed < 5.0, f"{elapsed:.2f}s > 5.0s"


def test_a6_arithmetic_tutte_is_the_real_tutte():
    # A_6 is unimodular: every multiplicity is 1
    arr = type_a(7)
    t0 = time.perf_counter()
    assert arithmetic_tutte(arr) == g_tutte(arr, GroupSpec(reals=1))
    elapsed = time.perf_counter() - t0
    assert elapsed < 2.0, f"{elapsed:.2f}s > 2.0s"


def positive_roots(cartan) -> list:
    """Positive roots in simple-root coordinates, height by height, from the
    Cartan matrix cartan[i][j] = <alpha_i, alpha_j^vee>.  By the alpha_j
    string through a root beta, beta + alpha_j is a root exactly when
    p - <beta, alpha_j^vee> > 0, p the largest with beta - p alpha_j a root."""
    r = len(cartan)
    level = [tuple(int(i == j) for j in range(r)) for i in range(r)]
    roots = set(level)
    while level:
        above = []
        for beta in level:
            for j in range(r):
                p = 0
                while tuple(b - (p + 1) * (k == j)
                            for k, b in enumerate(beta)) in roots:
                    p += 1
                up = tuple(b + (k == j) for k, b in enumerate(beta))
                if p > sum(b * cartan[i][j] for i, b in enumerate(beta)) \
                        and up not in roots:
                    roots.add(up)
                    above.append(up)
        level = above
    return sorted(roots, key=lambda beta: (sum(beta), beta))


# name -> (Cartan matrix, number of positive roots, highest root, Coxeter
# exponents, toric layers).  The layer counts are this engine's own
# output, pinned as regression values only.
EXCEPTIONAL = {
    "G_2": ([[2, -1], [-3, 2]], 6, (3, 2), (1, 5), 13),
    "F_4": ([[2, -1, 0, 0], [-1, 2, -2, 0], [0, -1, 2, -1], [0, 0, -1, 2]],
            24, (2, 3, 4, 2), (1, 5, 7, 11), 441),
}


@pytest.mark.parametrize("name", EXCEPTIONAL)
def test_exceptional_root_systems(name):
    """At k prime to the period, the constituent factors over the Coxeter
    exponents (Orlik-Solomon, Terao); the minimal period is the lcm of the
    highest root's coefficients (Kamiya, Takemura and Terao)."""
    cartan, count, highest, exponents, toric_count = EXCEPTIONAL[name]
    roots = positive_roots(cartan)
    assert len(roots) == count and roots[-1] == highest
    arr = Arrangement(FGAbelianGroup(len(cartan)), roots, name=name)
    t0 = time.perf_counter()
    qp = chromatic_quasi(arr)
    period = lcm(*highest)
    assert qp.period == period and minimal_period(qp) == period
    for k in range(1, 2 * period):
        if gcd(k, period) == 1:
            assert qp.constituent(k) == linear(*exponents), k
    poset = enumerate_toric_layers(arr)
    layer_sum(poset)  # checks the identity on the way
    assert poset.n == toric_count
    elapsed = time.perf_counter() - t0
    assert elapsed < 3.0, f"{elapsed:.2f}s > 3.0s"


def alcove_count(highest, q: int) -> int:
    """l! * c_1 * ... * c_l * L(q), where the c_i are the highest root's
    coefficients and L(q) counts the positive integer solutions of
    x_0 + c_1 x_1 + ... + c_l x_l = q: the interior points of the q-th
    dilate of the fundamental alcove (Suter; Yoshinaga).  L(q) is a
    coin-change count of q - h, h = 1 + sum c_i, in coins 1, c_1, ..., c_l."""
    n = q - 1 - sum(highest)
    if n < 0:
        return 0
    ways = [1] + [0] * n
    for coin in (1, *highest):
        for s in range(coin, n + 1):
            ways[s] += ways[s - coin]
    return factorial(len(highest)) * prod(highest) * ways[n]


# name -> (Cartan matrix, number of positive roots, highest root); the
# classical types in Bourbaki's numbering, the short simple root of B_4 and
# the long one of C_4 last, D_5's fork at the third node
ALCOVES = {
    **{name: EXCEPTIONAL[name][:3] for name in EXCEPTIONAL},
    "B_4": ([[2, -1, 0, 0], [-1, 2, -1, 0], [0, -1, 2, -2], [0, 0, -1, 2]],
            16, (1, 2, 2, 2)),
    "C_4": ([[2, -1, 0, 0], [-1, 2, -1, 0], [0, -1, 2, -1], [0, 0, -2, 2]],
            16, (2, 2, 2, 1)),
    "D_5": ([[2, -1, 0, 0, 0], [-1, 2, -1, 0, 0], [0, -1, 2, -1, -1],
             [0, 0, -1, 2, 0], [0, 0, -1, 0, 2]], 20, (1, 2, 2, 1, 1)),
}


@pytest.mark.parametrize("name", ALCOVES)
def test_every_constituent_counts_the_alcove(name):
    """Over the root lattice, every constituent, at residues that share a
    factor with the period too: q <= (l + 1) * period gives each gcd class
    at least l + 1 values, which fix its constituent of degree l."""
    cartan, count, highest = ALCOVES[name]
    roots = positive_roots(cartan)
    assert len(roots) == count and roots[-1] == highest
    arr = Arrangement(FGAbelianGroup(len(cartan)), roots, name=name)
    qp = QuasiPolynomial(arr)
    assert qp.period == lcm(*highest)
    for q in range(1, (len(cartan) + 1) * qp.period + 1):
        assert qp.constituent(q)(q) == alcove_count(highest, q), q


def test_the_alcove_count_needs_the_root_lattice():
    # the C_4 fixture lies in Z^4, where the root lattice has index 2: the
    # count tells the two apart at even q past the Coxeter number 8
    qp = QuasiPolynomial(type_c(4))
    misses = [q for q in range(1, 5 * qp.period + 1)
              if qp.constituent(q)(q) != alcove_count(ALCOVES["C_4"][2], q)]
    assert misses == [8, 10]
