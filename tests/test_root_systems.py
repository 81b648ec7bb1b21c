"""Root-system fixtures past the brute-force oracle's reach.

The classical root systems have closed forms by the finite field method,
so they check answers at element counts where no hom enumeration can.
"""

import time
from itertools import combinations
from math import factorial, prod

from gtutte import Arrangement, FGAbelianGroup, UniPoly, chromatic_quasi
from gtutte.toric import enumerate_toric_layers, total_characteristic


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
    total_characteristic(arr, poset)  # checks the identity on the way
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
