"""Metamorphic identities: invariants that two derived inputs must share.

Appending a copy of an element e, or of -e, adds no new intersection of
kernels, and permuting the elements only relabels them.  So neither changes
a characteristic polynomial, the toric layers' printed keys or their Möbius
values.  A change of basis of the free part is an automorphism of the
ambient, so it changes no invariant and leaves the layer posets
isomorphic, though their printed keys move.  A direct sum A1 + A2 in gamma1 + gamma2 has Hom(gamma1 + gamma2, G)
= Hom(gamma1, G) x Hom(gamma2, G), so its polynomials are products and its
layer poset is the product poset.  Deleting and contracting an element
that is neither torsion nor a coloop splits the G-Tutte polynomial into
two.  Each check compares the engine with itself on derived inputs, not
with the brute-force oracle, so it holds at any size.
"""

import random
import time
from collections import Counter
from math import lcm

from sympy import ZZ, Matrix
from sympy.matrices.normalforms import smith_normal_decomp

from gtutte import (Arrangement, FGAbelianGroup, GroupSpec, QuasiPolynomial,
                    g_characteristic, g_tutte)
from gtutte.intlinalg import IntMatrix, presentation_matrix
from gtutte.lie import enumerate_lie_layers
from gtutte.toric import enumerate_toric_layers

TARGETS = (GroupSpec.circle(), GroupSpec(reals=1), GroupSpec.cyclic(4),
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


def direct_sum(a1: Arrangement, a2: Arrangement) -> Arrangement:
    """A1 + A2 in gamma1 + gamma2, coordinates (free1, free2, torsion1,
    torsion2); the torsion chains must concatenate to a divisibility
    chain."""
    g1, g2 = a1.gamma, a2.gamma
    f1, f2 = g1.free_rank, g2.free_rank
    gamma = FGAbelianGroup(f1 + f2, g1.torsion + g2.torsion)
    pad1, pad2 = (0,) * len(g1.torsion), (0,) * len(g2.torsion)
    return Arrangement(gamma, [
        v[:f1] + (0,) * f2 + v[f1:] + pad2 for v in a1.elements] + [
        (0,) * f1 + v[:f2] + pad1 + v[f2:] for v in a2.elements])


def small_instance(rng: random.Random, torsion: tuple) -> Arrangement:
    gamma = FGAbelianGroup(rng.randint(0, 2), torsion)
    return Arrangement(gamma, [[rng.randint(-3, 3) for _ in range(gamma.ngens)]
                               for _ in range(rng.randint(0, 3))])


def test_direct_sums_multiply():
    rng = random.Random(5)
    checks = 0
    t0 = time.perf_counter()
    for _ in range(40):
        while True:
            t1, t2 = rng.choice(CHAINS), rng.choice(CHAINS)
            chain = t1 + t2
            if all(b % a == 0 for a, b in zip(chain, chain[1:])):
                break
        a1, a2 = small_instance(rng, t1), small_instance(rng, t2)
        both = direct_sum(a1, a2)
        for spec in TARGETS:
            assert g_characteristic(both, spec) == \
                g_characteristic(a1, spec) * g_characteristic(a2, spec), both
        spec = GroupSpec.circle()
        assert g_tutte(both, spec) == g_tutte(a1, spec) * g_tutte(a2, spec)
        period = both.lcm_period()
        assert period == lcm(a1.lcm_period(), a2.lcm_period()), both
        q, q1, q2 = QuasiPolynomial(both), QuasiPolynomial(a1), \
            QuasiPolynomial(a2)
        for k in range(1, 2 * period + 1):
            assert q.constituent(k) == q1.constituent(k) * q2.constituent(k)
        p, p1, p2 = (enumerate_toric_layers(a) for a in (both, a1, a2))
        assert p.n == p1.n * p2.n, both
        assert Counter(p.mobius) == Counter(
            m1 * m2 for m1 in p1.mobius for m2 in p2.mobius), both
        assert len(p.covers()) == \
            p1.n * len(p2.covers()) + len(p1.covers()) * p2.n, both
        checks += len(TARGETS) + 2 * period + 5
    elapsed = time.perf_counter() - t0
    assert checks >= 40 * (len(TARGETS) + 7)
    assert elapsed < 6.0, f"{elapsed:.2f}s > 6.0s"


def change_of_basis(arr: Arrangement, rng: random.Random) -> Arrangement:
    """arr under a seeded GL_f(Z) matrix on the free coordinates (three
    elementary column operations, then a sign), its elements permuted."""
    f = arr.gamma.free_rank
    rows = [list(vec) for vec in arr.elements]
    for _ in range(3 if f > 1 else 0):
        a, b = rng.sample(range(f), 2)
        c = rng.choice((-2, -1, 1, 2))
        for row in rows:
            row[b] += c * row[a]
    sign = rng.randrange(f)
    for row in rows:
        row[sign] = -row[sign]
    rng.shuffle(rows)
    return Arrangement(arr.gamma, rows)


def poset_shape(poset) -> tuple:
    """What an isomorphism keeps: layer count, cover count, Möbius
    multiset."""
    return poset.n, len(poset.covers()), sorted(poset.mobius)


def symmetric_invariants(arr: Arrangement) -> list:
    return [g_characteristic(arr, spec) for spec in TARGETS] + [
        arr.lcm_period(), poset_shape(enumerate_toric_layers(arr)),
        poset_shape(enumerate_lie_layers(arr, 1, (2,)))]


def test_a_change_of_basis_changes_nothing():
    rng = random.Random(7)
    checks = 0
    t0 = time.perf_counter()
    for _ in range(30):
        gamma = FGAbelianGroup(rng.randint(1, 3),
                               rng.choice(((), (2,), (2, 6), (4,))))
        arr = Arrangement(gamma, [
            [rng.randint(-3, 3) for _ in range(gamma.ngens)]
            for _ in range(rng.randint(1, 5))])
        derived = change_of_basis(arr, rng)
        expected, found = symmetric_invariants(arr), \
            symmetric_invariants(derived)
        for i, (want, got) in enumerate(zip(expected, found)):
            assert got == want, (arr, derived.elements, i)
        checks += len(found)
    elapsed = time.perf_counter() - t0
    assert checks == 30 * (len(TARGETS) + 3)
    assert elapsed < 6.0, f"{elapsed:.2f}s > 6.0s"


def contraction(arr: Arrangement, i: int) -> Arrangement:
    """A/e for e the i-th element: the other elements' images in gamma/<e>.

    With D = U M V sympy's Smith form of e's presentation M, v -> v V maps
    gamma/<e> onto Z^c/<rows of D>.  Its coordinates with diagonal entry 0
    are free and come first; those with an entry d > 1 are taken mod d, and
    those with an entry 1 are dropped."""
    gamma, e = arr.gamma, arr.elements[i]
    c = gamma.ngens
    m = presentation_matrix(IntMatrix.from_rows([e], c), gamma)
    d, _, V = smith_normal_decomp(Matrix(m.data), domain=ZZ)
    diag = [int(d[j, j]) for j in range(min(d.shape))]
    diag += [0] * (c - len(diag))
    order = [j for j in range(c) if diag[j] == 0] + \
        [j for j in range(c) if diag[j] > 1]
    images = [[int(sum(v[k] * V[k, j] for k in range(c))) for j in order]
              for t, v in enumerate(arr.elements) if t != i]
    quotient = FGAbelianGroup(diag.count(0),
                              tuple(d for d in diag if d > 1))
    return Arrangement(quotient, images)


def deletion_contraction_checks(seed: int, max_n: int) -> float:
    """Check T_A = T_(A\\e) + T_(A/e) 160 times, four targets on each of 40
    seeded instances of 3 to `max_n` elements; return the seconds taken."""
    rng = random.Random(seed)
    ambients = (FGAbelianGroup(2), FGAbelianGroup(3), FGAbelianGroup(2, (2,)),
                FGAbelianGroup(1, (4,)), FGAbelianGroup(2, (2, 6)))
    targets = (GroupSpec.circle(), GroupSpec(reals=1), GroupSpec.cyclic(6),
               GroupSpec(f_torsion=(2,), circles=1))
    checks = 0
    t0 = time.perf_counter()
    while checks < 160:
        gamma = ambients[checks // 4 % len(ambients)]
        f = gamma.free_rank
        arr = Arrangement(gamma, [
            [rng.randint(-4, 4) for _ in range(gamma.ngens)]
            for _ in range(rng.randint(3, max_n))])
        candidates = [i for i, v in enumerate(arr.elements) if any(v[:f])
                      and Arrangement(gamma, arr.elements[:i]
                                      + arr.elements[i + 1:]).rank == arr.rank]
        if not candidates:
            continue
        i = rng.choice(candidates)
        deleted = Arrangement(gamma, arr.elements[:i] + arr.elements[i + 1:])
        contracted = contraction(arr, i)
        assert contracted.rank == arr.rank - 1, (arr, i)
        for spec in targets:
            assert g_tutte(arr, spec) == \
                g_tutte(deleted, spec) + g_tutte(contracted, spec), (arr, i)
            checks += 1
    return time.perf_counter() - t0


def test_deletion_contraction():
    # for e neither torsion nor a coloop, a subset S without e keeps its
    # weight in A \ e, and one with e has Gamma/<S> = (Gamma/<e>)/<S - e>
    # and one rank more than S - e has in A/e: so T_A = T_(A\e) + T_(A/e).
    # A/e usually lives in a torsion ambient, whose quotients the kernel
    # reads at n up to 12
    elapsed = deletion_contraction_checks(13, 12)
    assert elapsed < 6.0, f"{elapsed:.2f}s > 6.0s"


def test_deletion_contraction_up_to_18_elements():
    # the same identities at n up to 18, past the brute-force oracle's reach
    elapsed = deletion_contraction_checks(19, 18)
    assert elapsed < 6.0, f"{elapsed:.2f}s > 6.0s"
