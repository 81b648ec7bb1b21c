"""Metamorphic identities: invariants that two derived inputs must share.

Appending a copy of an element e, or of -e, adds no new intersection of
kernels, and permuting the elements only relabels them.  So neither changes
a characteristic polynomial, the toric layers' printed keys or their Möbius
values.  Each check compares the engine with itself on two inputs, not
with the brute-force oracle, so it holds at any size.
"""

import random
import time

from gtutte import Arrangement, FGAbelianGroup, GroupSpec, g_characteristic
from gtutte.toric import enumerate_toric_layers

TARGETS = (GroupSpec.circle(), GroupSpec.real(), GroupSpec.cyclic(4),
           GroupSpec(f_torsion=(2,), circles=1))
CHAINS = ((), (), (2,), (3,), (4,), (6,), (2, 2), (2, 6))


def random_instance(rng: random.Random) -> Arrangement:
    """Free rank 0-3 over a torsion chain from {2, 3, 4, 6}, 1-6 elements
    with entries in [-3, 3] (reduced mod the torsion)."""
    gamma = FGAbelianGroup(rng.randint(0, 3), rng.choice(CHAINS))
    return Arrangement(gamma, [[rng.randint(-3, 3) for _ in range(gamma.ngens)]
                               for _ in range(rng.randint(1, 6))])


def with_parallels(arr: Arrangement, rng: random.Random) -> Arrangement:
    """arr with one to three copies of e or -e appended, e among its
    elements."""
    extra = []
    for _ in range(rng.randint(1, 3)):
        sign = rng.choice((1, -1))
        extra.append([sign * x for x in rng.choice(arr.elements)])
    return Arrangement(arr.gamma, list(arr.elements) + extra)


def permuted(arr: Arrangement, rng: random.Random) -> Arrangement:
    elements = list(arr.elements)
    rng.shuffle(elements)
    return Arrangement(arr.gamma, elements)


def invariants(arr: Arrangement) -> list:
    """The characteristic polynomial over each target, then the toric
    layers' keys and Möbius values, both in the poset's own order."""
    poset = enumerate_toric_layers(arr)
    return [g_characteristic(arr, spec) for spec in TARGETS] + [
        tuple(lay.key for lay in poset.layers), poset.mobius]


def test_parallel_elements_and_permutations_change_nothing():
    rng = random.Random(3)
    checks = 0
    t0 = time.perf_counter()
    for _ in range(30):
        arr = random_instance(rng)
        expected = invariants(arr)
        for derived in (with_parallels(arr, rng), permuted(arr, rng)):
            found = invariants(derived)
            for i, (want, got) in enumerate(zip(expected, found)):
                assert got == want, (arr, derived.elements, i)
            checks += len(found)
    elapsed = time.perf_counter() - t0
    assert checks == 30 * 2 * (len(TARGETS) + 2)
    assert elapsed < 6.0, f"{elapsed:.2f}s > 6.0s"
