import random
import time
from functools import reduce
from itertools import combinations, product
from math import gcd
from operator import mul

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gtutte import intlinalg
from gtutte.intlinalg import (DimensionMismatch, FGAbelianGroup, IntMatrix,
                              cokernel, hermite_normal_form, hnf_insert,
                              hnf_invariant_factors, hnf_solve, hom_enumerate,
                              invariant_chain, kernel_mod, presentation_matrix,
                              saturation, xgcd)
from gtutte.invariants import arithmetic_tutte
from gtutte.model import (Arrangement, GroupSpec, LatticeTable, SubsetClass,
                          hom_count)
from gtutte.oracle import battery_instances
from gtutte.poly import BiPoly

Z2 = FGAbelianGroup(2)


def rows(*rs):
    return IntMatrix.from_rows(list(rs))


def test_xgcd_bezout():
    rng = random.Random(1)
    for _ in range(200):
        a, b = rng.randint(-50, 50), rng.randint(-50, 50)
        g, x, y = xgcd(a, b)
        assert g >= 0
        assert a * x + b * y == g
        if a or b:
            assert a % g == 0 and b % g == 0


# an upper-triangular HNF on which the elimination once ran past 100 s,
# its working entries passing 4,300 digits within 3 s
LARGE_ENTRY_HNF = ((354, 742, 297, 39, 523), (0, 938, 193, 42, 664),
                   (0, 0, 453, 84, 175), (0, 0, 0, 137, 829),
                   (0, 0, 0, 0, 880))


def test_large_entry_hnf_within_budget():
    from sympy import Matrix, ZZ
    from sympy.matrices.normalforms import smith_normal_form as sympy_snf
    m = IntMatrix.from_rows(LARGE_ENTRY_HNF)
    gamma = FGAbelianGroup(5)
    start = time.perf_counter()
    quot = cokernel(m, gamma)
    sat = saturation(m, gamma)
    homs = {t: hom_enumerate(m, gamma, t) for t in ((2,), (6,), (2, 4))}
    assert time.perf_counter() - start < 2.0
    d = sympy_snf(Matrix(LARGE_ENTRY_HNF), domain=ZZ)
    assert tuple(abs(int(d[i, i])) for i in range(5)) == \
        (1, 1, 1, 2, 9067290835680)
    assert hnf_invariant_factors(LARGE_ENTRY_HNF) == (2, 9067290835680)
    assert quot == FGAbelianGroup(0, (2, 9067290835680))
    # full rank: the saturation is all of Z^5
    assert sat == IntMatrix.identity(5)
    for target, found in homs.items():
        assert len(found) == len(set(found)) == hom_count(quot, target)
        for h in found:
            for rel in LARGE_ENTRY_HNF:
                assert not any(
                    sum(a * h[i][t] for i, a in enumerate(rel)) % target[t]
                    for t in range(len(target))), h


def test_hnf_identity_fixed_point():
    m = IntMatrix.identity(2)
    assert hermite_normal_form(m).data == m.data


def test_hnf_dependent_rows_collapse():
    assert hermite_normal_form(rows([0, 2], [0, 4])).data == ((0, 2),)


def test_hnf_canonical_convention():
    # positive pivots with entries above reduced into [0, pivot)
    h = hermite_normal_form(rows([-1, 1], [0, 2]))
    assert h.data == ((1, 1), (0, 2))


def test_hnf_idempotent_and_row_space_preserving():
    rng = random.Random(3)
    for _ in range(150):
        r = rng.randint(0, 4)
        c = rng.randint(1, 4)
        m = IntMatrix.from_rows(
            [[rng.randint(-9, 9) for _ in range(c)] for _ in range(r)], c)
        h = hermite_normal_form(m)
        assert hermite_normal_form(h).data == h.data
        for row in m.data:
            assert hnf_solve(h, row) is not None
        # each HNF row lies in the lattice of the original rows: stacking
        # them onto m leaves the (canonical) HNF of m unchanged
        stacked = IntMatrix.from_rows(list(m.data) + list(h.data), c)
        assert hermite_normal_form(stacked).data == h.data


def _random_unimodular_rows(rng, data, steps, bound):
    """The rows after `steps` random swaps, negations and row additions."""
    out = [list(r) for r in data]
    for _ in range(steps):
        if len(out) < 2:
            if out and rng.random() < 0.5:
                out[0] = [-x for x in out[0]]
            continue
        i, j = rng.sample(range(len(out)), 2)
        op = rng.randrange(3)
        if op == 0:
            out[i], out[j] = out[j], out[i]
        elif op == 1:
            out[i] = [-x for x in out[i]]
        else:
            k = rng.randint(-bound, bound)
            out[i] = [a + k * b for a, b in zip(out[i], out[j])]
    return out


def _assert_canonical_hnf(h):
    # echelon form, positive pivots, entries above each pivot in [0, pivot)
    last = -1
    for k, row in enumerate(h.data):
        assert any(row), h
        j = next(j for j, x in enumerate(row) if x)
        assert j > last and row[j] > 0, h
        last = j
        for above in h.data[:k]:
            assert 0 <= above[j] < row[j], h


def test_hnf_canonical_under_unimodular_row_operations():
    # the HNF is a function of the lattice alone: a unimodular transform of
    # the rows (square, tall, rank-deficient, large entries) gives the same
    # rows, whatever the order in which the fold meets them
    rng = random.Random(17)
    for trial in range(300):
        c = rng.randint(1, 5)
        tall, large = trial % 3 == 1, trial % 3 == 2
        r = rng.randint(c + 1, c + 4) if tall else rng.randint(0, c)
        bound = 1000 if large else 6
        base = [[rng.randint(-bound, bound) for _ in range(c)]
                for _ in range(r)]
        if r > 1 and rng.random() < 0.3:
            # a dependent row, so that rank < row count
            base[-1] = [2 * a - 3 * b for a, b in zip(base[0], base[1])]
        m = IntMatrix.from_rows(base, c)
        h = hermite_normal_form(m)
        _assert_canonical_hnf(h)
        moved = _random_unimodular_rows(rng, base, rng.randint(1, 12), 3)
        assert hermite_normal_form(IntMatrix.from_rows(moved, c)).data \
            == h.data, base
        # inserting one vector agrees with the HNF of all the rows
        v = tuple(rng.randint(-bound, bound) for _ in range(c))
        inserted = hnf_insert(h.data, v)
        assert inserted == hermite_normal_form(
            IntMatrix.from_rows(moved + [list(v)], c)).data, (base, v)
        _assert_canonical_hnf(IntMatrix(len(inserted), c, inserted))
        # a vector of the lattice changes nothing: the rows come back as is
        coeffs = [rng.randint(-3, 3) for _ in h.data]
        member = tuple(sum(k * row[j] for k, row in zip(coeffs, h.data))
                       for j in range(c))
        assert hnf_insert(h.data, member) is h.data


def _reference_hnf_insert(rows: tuple, vec) -> tuple:
    """The fold step as it was before it reduced in place: whole-row list
    comprehensions, every changed row rebuilt as a tuple."""
    out = list(rows)
    v = vec
    first = None
    i = 0
    for j in range(len(v)):
        a = v[j]
        if i < len(out) and out[i][j]:
            if a:
                row = out[i]
                p = row[j]
                if a % p:
                    g, x, y = xgcd(p, a)
                    b, d = a // g, p // g
                    out[i] = tuple([x * s + y * t for s, t in zip(row, v)])
                    v = [d * t - b * s for s, t in zip(row, v)]
                    if first is None:
                        first = i
                else:
                    q = a // p
                    v = [t - q * s for s, t in zip(row, v)]
            i += 1
        elif a:
            out.insert(i, tuple(v) if a > 0 else tuple([-t for t in v]))
            if first is None:
                first = i
            break
    if first is None:
        return rows
    for k in range(first, len(out)):
        pivot_row = out[k]
        j = k
        while not pivot_row[j]:
            j += 1
        p = pivot_row[j]
        for t in range(k):
            q = out[t][j] // p
            if q:
                out[t] = tuple([s - q * u for s, u in zip(out[t], pivot_row)])
    return tuple(out)


# small entries, and entries near +-1000
_ENTRIES = st.one_of(st.integers(-6, 6), st.integers(990, 1010),
                     st.integers(-1010, -990))


@st.composite
def _insertions(draw):
    """A canonical HNF parent, possibly holding torsion relation rows
    e * unit vector on trailing columns, and a vector to insert: a random
    one, the zero vector, a member of the lattice, or one whose leading
    entry, possibly negative, sits at a chosen column.  The widths run past
    the compiled kernels' cap, so both paths of `hnf_insert` are drawn."""
    c = draw(st.integers(1, intlinalg._KERNEL_WIDTH + 2))
    gens = draw(st.lists(st.lists(_ENTRIES, min_size=c, max_size=c),
                         max_size=c + 1))
    torsion = draw(st.lists(st.sampled_from((2, 3, 4, 6, 1000)), max_size=c))
    for t, e in enumerate(torsion):
        gens.append([0] * (c - len(torsion) + t) + [e] + [0] * (len(torsion) - 1 - t))
    rows = hermite_normal_form(IntMatrix.from_rows(gens, c)).data
    kind = draw(st.sampled_from(("random", "zero", "member", "lead")))
    if kind == "zero":
        vec = (0,) * c
    elif kind == "member":
        coeffs = draw(st.lists(st.integers(-3, 3), min_size=len(rows),
                               max_size=len(rows)))
        vec = tuple(sum(k * row[j] for k, row in zip(coeffs, rows))
                    for j in range(c))
    else:
        vec = draw(st.lists(_ENTRIES, min_size=c, max_size=c))
        if kind == "lead":
            j = draw(st.integers(0, c - 1))
            lead = draw(_ENTRIES.filter(bool))
            vec = [0] * j + [lead] + vec[j + 1:]
        vec = tuple(vec)
    return rows, vec


def _check_insert(rows, vec):
    """hnf_insert against the reference: equal canonical tuple rows, the
    parent itself exactly when vec lies in its lattice, the parent as it
    was."""
    before = [tuple(row) for row in rows]
    got = hnf_insert(rows, vec)
    want = _reference_hnf_insert(rows, vec)
    assert got == want, (rows, vec)
    assert list(rows) == before  # the parent's rows are left as they were
    assert type(got) is tuple and all(type(row) is tuple for row in got)
    assert (got is rows) == (want is rows)
    _assert_canonical_hnf(IntMatrix(len(got), len(vec), got))
    member = hnf_solve(IntMatrix(len(rows), len(vec), rows), vec) is not None
    assert (got is rows) == member, (rows, vec)


@settings(max_examples=600, derandomize=True, database=None, deadline=None)
@given(_insertions())
def test_hnf_insert_matches_the_reference(case):
    _check_insert(*case)


def test_wide_torsion_inserts_match_the_reference():
    # width 41 takes the loop: 40 torsion rows under a free column, and
    # vectors that add a new top row or meet a middle pivot with an xgcd,
    # so the rows from the last one written on are the parent's as they were
    rng = random.Random(47)
    c = 41
    diag = tuple((0,) * (1 + i) + (rng.choice((2, 4, 6)),) + (0,) * (39 - i)
                 for i in range(40))
    mixed = hermite_normal_form(IntMatrix.from_rows(
        [[0] + [rng.randint(-5, 5) for _ in range(40)]] + list(diag), c)).data
    for rows in (diag, mixed):
        assert len(rows) == 40
        tail = [rng.randint(-5, 5) for _ in range(c)]
        vecs = [tuple([lead] + tail[1:]) for lead in (1, -2, 3)]
        for j in (1, 2, 20, 39, 40):
            p = rows[j - 1][j]  # row j - 1 holds the pivot of column j
            assert p > 0
            if p > 1:  # p + 1 is no multiple of p: an xgcd step
                vecs.append(tuple([0] * j + [p + 1] + tail[j + 1:]))
            vecs.append(tuple([0] * j + [p] + tail[j + 1:]))
        vecs.append(tuple(sum(row[j] for row in rows) for j in range(c)))
        assert len(vecs) > 10
        for vec in vecs:
            _check_insert(rows, vec)


def _pivot_key(c: int, pivots) -> int:
    return 1 << c | sum(1 << j for j in pivots)


def test_every_compiled_kernel_matches_the_reference():
    # every width up to the cap and every set of pivot columns: a random
    # canonical HNF with those pivots, and the zero vector, lattice members,
    # a leading entry of either sign at each column, and random vectors
    rng = random.Random(34)
    for c in range(1, intlinalg._KERNEL_WIDTH + 1):
        for pivots in (p for n in range(c + 1)
                       for p in combinations(range(c), n)):
            bound = rng.choice((3, 6, 1000))
            gens = [[0] * j + [rng.choice((1, 2, 3, 5, 12, 997))]
                    + [rng.randint(-bound, bound) for _ in range(j + 1, c)]
                    for j in pivots]
            rows = hermite_normal_form(IntMatrix.from_rows(gens, c)).data
            assert len(rows) == len(pivots)
            vecs = [(0,) * c]
            for _ in range(3):
                coeffs = [rng.randint(-3, 3) for _ in rows]
                vecs.append(tuple(sum(k * row[j] for k, row in zip(coeffs, rows))
                                  for j in range(c)))
            for j in range(c):
                for lead in (rng.choice((1, 2, 3, 7, 1000)),
                             -rng.choice((1, 2, 3, 7, 1000))):
                    vecs.append(tuple([0] * j + [lead] + [rng.randint(-bound, bound)
                                                          for _ in range(j + 1, c)]))
            for _ in range(4):
                vecs.append(tuple(rng.randint(-bound, bound) for _ in range(c)))
            for vec in vecs:
                _check_insert(rows, vec)
            assert intlinalg._KERNELS[_pivot_key(c, pivots)] is not None


def test_kernel_cache_is_bounded():
    # a step at the cap compiles a kernel for its width and pivots; one
    # past the cap takes the loop and adds none; every slot holds the
    # kernel of its own (width, pivot columns), none wider than the cap
    cap = intlinalg._KERNEL_WIDTH
    for c in (cap, cap + 1):
        rows = hermite_normal_form(IntMatrix.from_rows(
            [[int(i == j) * 2 for j in range(c)] for i in range(c - 1)], c)).data
        before = sum(k is not None for k in intlinalg._KERNELS)
        assert hnf_insert(rows, (1,) * c) == _reference_hnf_insert(rows, (1,) * c)
        after = sum(k is not None for k in intlinalg._KERNELS)
        assert after - before <= (c <= cap)
    assert intlinalg._KERNELS[_pivot_key(cap, range(cap - 1))] is not None
    assert len(intlinalg._KERNELS) == 2 << cap
    for key, kernel in enumerate(intlinalg._KERNELS):
        if kernel is not None:
            c = key.bit_length() - 1
            pivots = tuple(j for j in range(c) if key >> j & 1)
            assert 1 <= c <= cap
            assert kernel.__code__.co_filename == \
                f"<hnf_insert kernel {c} {pivots}>"


def test_hnf_insert_edge_cases():
    # a new first pivot, under which every row is reduced again; an xgcd
    # step on a middle pivot, with a row above it to reduce; a full-rank
    # parent whose last pivot shrinks
    for rows, vec in ((((0, 2, 1), (0, 0, 3)), (1, 5, 7)),
                      (((1, 1, 5), (0, 4, 2)), (0, -6, 1)),
                      (((1, 1, 2), (0, 2, 1), (0, 0, 9)), (0, 0, 6))):
        got = hnf_insert(rows, vec)
        assert got == _reference_hnf_insert(rows, vec), (rows, vec)
        _assert_canonical_hnf(IntMatrix(len(got), 3, got))
    assert hnf_insert(((1, 1, 5), (0, 4, 2)), (0, -6, 1)) == \
        ((1, 1, 5), (0, 2, 5), (0, 0, 8))
    # a negative leading entry is negated into a positive pivot
    assert hnf_insert(((1, 0),), (0, -3)) == ((1, 0), (0, 3))
    empty = ()
    assert hnf_insert(empty, (0, 0, 0)) is empty
    assert hnf_insert(empty, (-2, 4, 0)) == ((2, -4, 0),)
    parent = ((2, 0), (0, 3))
    assert hnf_insert(parent, (4, -9)) is parent
    # the trivial ambient: width 0 takes the loop
    trivial = ()
    assert hnf_insert(trivial, ()) is trivial


def test_cokernel_examples():
    assert cokernel(IntMatrix.from_rows([], 2), Z2) == FGAbelianGroup(2)
    assert cokernel(rows([0, 4]), Z2) == FGAbelianGroup(1, (4,))
    assert cokernel(rows([-1, 1], [0, 2]), Z2) == FGAbelianGroup(0, (2,))


def test_cokernel_with_ambient_torsion():
    gamma = FGAbelianGroup(1, (2,))
    # quotient by the torsion generator leaves Z
    assert cokernel(rows([0, 1]), gamma) == FGAbelianGroup(1)
    # quotient by nothing keeps the presentation
    assert cokernel(IntMatrix.from_rows([], 2), gamma) == gamma


def test_cokernel_dimension_mismatch():
    with pytest.raises(DimensionMismatch):
        cokernel(rows([1, 2, 3]), Z2)


def test_saturation_examples():
    assert saturation(rows([0, 2]), Z2).data == ((0, 1),)
    assert saturation(IntMatrix.from_rows([], 2), Z2).data == ()
    assert saturation(rows([-1, 1], [0, 2]), Z2).data == ((1, 0), (0, 1))
    # rank 1: negative or not primitive rows are divided by their gcd
    assert saturation(rows([-4, 6]), Z2).data == ((2, -3),)
    assert saturation(rows([0, -3], [0, 6]), Z2).data == ((0, 1),)
    # full rank of index 6 is all of Z^2
    assert saturation(rows([2, 0], [0, 3]), Z2) == IntMatrix.identity(2)


def test_saturation_of_table_lattices_skips_the_reduction(monkeypatch):
    # a table lattice is a canonical HNF over Z^2 + Z/2; once the rows with
    # a zero free part are dropped, its free parts are one as well
    gamma = FGAbelianGroup(2, (2,))
    table = LatticeTable(gamma, "table")
    rank1 = table.add(0, (1, 1, 1), table.child.setdefault((1, 1, 1), {}))
    full = table.add(rank1, (0, 1, 0), table.child.setdefault((0, 1, 0), {}))
    inserted = []

    def counting(rows, vec):
        inserted.append(vec)
        return hnf_insert(rows, vec)

    monkeypatch.setattr(intlinalg, "hnf_insert", counting)
    spans = [saturation(table.lattices[lat], gamma).data
             for lat in (0, rank1, full)]
    assert spans == [(), ((1, 1),), ((1, 0), (0, 1))]
    assert not _smith_calls(monkeypatch, lambda: [
        saturation(table.lattices[lat], gamma) for lat in (0, rank1, full)])


def test_saturation_inserts_no_zero_column(monkeypatch):
    # ten 2e_i of Z^300: B has 290 zero columns, and none reaches H, so
    # the folds of B, H and X take ten inserts each
    calls = []
    real = intlinalg.hnf_insert

    def counting(rows, vec):
        calls.append(vec)
        return real(rows, vec)

    gens = IntMatrix.from_rows([[2 * (j == i) for j in range(300)]
                                for i in range(10)], 300)
    monkeypatch.setattr(intlinalg, "hnf_insert", counting)
    sat = saturation(gens, FGAbelianGroup(300))
    assert len(calls) <= 30
    assert sat.data == tuple(tuple(int(j == i) for j in range(300))
                             for i in range(10))


def test_table_lattices_are_canonical_by_construction():
    # a table lattice is built as a canonical HNF and never re-scanned, so
    # it must be the canonical HNF of a fresh copy of its rows, and
    # cokernel and saturation must not tell it from that copy
    rng = random.Random(21)
    chains = [(), (2,), (3,), (4,), (6,), (2, 2), (2, 4), (2, 6), (3, 3),
              (3, 6), (4, 4), (6, 6)]
    for _ in range(80):
        gamma = FGAbelianGroup(rng.randint(0, 4), rng.choice(chains))
        arr = Arrangement(gamma, [
            [rng.randint(-3, 3) for _ in range(gamma.ngens)]
            for _ in range(rng.randint(0, 7))])
        arr.lattice_counts()
        table = arr.lattice_table()
        free = FGAbelianGroup(gamma.ngens)
        for lat, lattice in enumerate(table.lattices):
            copy = IntMatrix.from_rows(lattice.data, gamma.ngens)
            assert hermite_normal_form(copy) == lattice, (arr, lattice)
            assert cokernel(lattice, gamma) == cokernel(copy, gamma)
            assert table.quotient(lat) == cokernel(copy, free), (arr, lattice)
            assert saturation(lattice, gamma) == saturation(copy, gamma)


def test_saturation_contains_rows_and_gives_free_quotient():
    # the three defining properties: holds every row, has the rows' rank
    # and leaves a free quotient group (the lattice plus all torsion)
    def check(gens, gamma):
        free, tors = gamma.free_rank, gamma.torsion
        sat = saturation(gens, gamma)
        for row in gens.data:
            assert hnf_solve(sat, row[:free]) is not None, gens
        rows_quot = cokernel(IntMatrix.from_rows(
            [row[:free] for row in gens.data], free), FGAbelianGroup(free))
        assert sat.rows == free - rows_quot.free_rank, gens
        lifted = [list(r) + [0] * len(tors) for r in sat.data]
        for i in range(len(tors)):
            unit = [0] * gamma.ngens
            unit[free + i] = 1
            lifted.append(unit)
        quot = cokernel(IntMatrix.from_rows(lifted, gamma.ngens), gamma)
        assert quot.torsion == (), gens
        return sat.rows

    # every rank 0..f: r scaled independent rows (negative and non-primitive
    # ones included) and a dependent combination of them
    rng = random.Random(3)
    for free in range(4):
        gamma = FGAbelianGroup(free, (2,))
        for rank in range(free + 1):
            basis = []
            while len(basis) < rank:
                vec = [rng.randint(-3, 3) for _ in range(free)]
                trial = IntMatrix.from_rows(basis + [vec], free)
                if hermite_normal_form(trial).rows > len(basis):
                    basis.append(vec)
            gens = [[rng.choice([-6, -2, 1, 3]) * x for x in vec]
                    for vec in basis]
            coeffs = [rng.randint(-2, 2) for _ in gens]
            if gens:
                gens.append([sum(c * vec[j] for c, vec in zip(coeffs, gens))
                             for j in range(free)])
            lifted = [vec + [rng.randint(0, 1)] for vec in gens]
            assert check(IntMatrix.from_rows(lifted, gamma.ngens),
                         gamma) == rank, (free, lifted)

    rng = random.Random(11)
    for _ in range(100):
        free = rng.randint(1, 3)
        tors = tuple(sorted(rng.choice([(), (2,), (3,), (2, 4)])))
        gamma = FGAbelianGroup(free, tors)
        n = rng.randint(0, 3)
        check(IntMatrix.from_rows(
            [[rng.randint(-4, 4) for _ in range(free)]
             + [rng.randint(0, e - 1) for e in tors] for _ in range(n)],
            gamma.ngens), gamma)
    # tall rows with entries to 1000 used to make the SNF transforms grow
    # without bound
    rng = random.Random(5)
    start = time.perf_counter()
    for _ in range(60):
        free = rng.randint(2, 4)
        gamma = FGAbelianGroup(free, rng.choice([(), (6,)]))
        check(IntMatrix.from_rows(
            [[rng.randint(-1000, 1000) for _ in range(gamma.ngens)]
             for _ in range(rng.randint(free + 1, 7))], gamma.ngens), gamma)
    assert time.perf_counter() - start < 2.0


def _smith_calls(monkeypatch, work) -> int:
    """How many times `work()` runs the Smith elimination."""
    calls = []
    real = intlinalg._monomial

    def counting(rows):
        calls.append(len(rows))
        return real(rows)

    monkeypatch.setattr(intlinalg, "_monomial", counting)
    work()
    return len(calls)


def test_saturation_runs_no_smith_elimination(monkeypatch):
    # every lattice of a free rank 4 table, those of rank strictly between
    # 1 and 4 included, is saturated as a kernel of a kernel
    rng = random.Random(8)
    gamma = FGAbelianGroup(4, (2,))
    arr = Arrangement(gamma, [[rng.randint(-3, 3) for _ in range(4)]
                              + [rng.randint(0, 1)] for _ in range(6)])
    arr.lattice_counts()
    table = arr.lattice_table()
    spans = []
    assert not _smith_calls(monkeypatch, lambda: spans.extend(
        saturation(lattice, gamma) for lattice in table.lattices))
    assert {span.rows for span in spans} == {0, 1, 2, 3, 4}


def _bordered_hnf(rows, c: int) -> tuple:
    """Canonical HNF of [rows transposed | identity], whose row lattice is
    {(rows . y, y) : y in Z^c}: its rows with a zero left part, cut to their
    right part, are the canonical HNF of the kernel {y : rows . y = 0}."""
    return reduce(hnf_insert, ([row[k] for row in rows]
                               + [int(j == k) for j in range(c)]
                               for k in range(c)), ())


def _kernel_of_kernel(rows, c: int) -> tuple:
    """The saturation of the rows of width c as the kernel of their kernel,
    each kernel read off a `_bordered_hnf`: a reference for `saturation`."""
    for _ in range(2):
        m = len(rows)
        rows = tuple(row[m:] for row in _bordered_hnf(rows, c)
                     if not any(row[:m]))
    return rows


def test_saturation_and_right_inverse_on_random_generators():
    # free rank 0-8 over torsion chains from {2, 3, 4, 6}; independent rows
    # with entries up to 1000, integer combinations of them and zero rows.
    # Then sparse rows of free rank 50 and 200, where a bordered HNF would
    # be quadratic in the free rank: holding the rows, their rank, a free
    # quotient and the canonical form pin the saturation there
    chains = [(), (2,), (3,), (4,), (6,), (2, 2), (2, 4), (2, 6), (3, 6),
              (6, 6)]
    rng = random.Random(23)
    start = time.perf_counter()
    for trial in range(540):
        wide = trial >= 500
        free = (50, 200)[trial % 2] if wide else trial % 9
        gamma = FGAbelianGroup(free, rng.choice(chains))
        bound = rng.choice((1, 3, 30, 1000))
        gens = []
        for _ in range(rng.randint(0, 6 if wide else free + 1)):
            vec = [0] * free
            for j in (rng.sample(range(free), rng.randint(1, 4)) if wide
                      else range(free)):
                vec[j] = rng.randint(-bound, bound)
            gens.append(vec)
        for _ in range(rng.randint(0, 2)):
            coeffs = [rng.randint(-3, 3) for _ in gens]
            gens.append([sum(c * vec[j] for c, vec in zip(coeffs, gens))
                         for j in range(free)])
        gens += [[0] * free for _ in range(rng.randint(0, 1))]
        rng.shuffle(gens)
        m = IntMatrix.from_rows(
            [vec + [rng.randint(0, e - 1) for e in gamma.torsion]
             for vec in gens], gamma.ngens)
        sat = saturation(m, gamma)
        assert sat.cols == free
        for row in m.data:
            assert hnf_solve(sat, row[:free]) is not None, m
        assert sat.rows == hermite_normal_form(
            IntMatrix.from_rows(gens, free)).rows, m
        assert cokernel(sat, FGAbelianGroup(free)).torsion == (), m
        assert hermite_normal_form(IntMatrix.from_rows(sat.data, free)) == sat
        if wide:
            continue
        assert sat.data == _kernel_of_kernel(tuple(map(tuple, gens)), free), m
        # the bordered HNF of a saturated span starts with [e_i | u_i]
        r = sat.rows
        h = _bordered_hnf(sat.data, free)
        assert all(row[:r] == tuple(int(i == j) for j in range(r))
                   for i, row in enumerate(h[:r])), m
        inverse = [row[r:] for row in h[:r]]
        assert [[sum(a * b for a, b in zip(s, u)) for u in inverse]
                for s in sat.data] == [list(e) for e in IntMatrix.identity(r).data], m
    assert time.perf_counter() - start < 10.0


def test_hom_count_examples():
    assert hom_count(FGAbelianGroup(0), (4,)) == 1
    assert hom_count(FGAbelianGroup(0, (4,)), (4,)) == 4
    assert hom_count(FGAbelianGroup(0, (2,)), (4,)) == 2
    with pytest.raises(ValueError):
        hom_count(FGAbelianGroup(1), (2,))


def test_hom_enumerate_examples():
    trivial = hom_enumerate(IntMatrix.from_rows([], 0), FGAbelianGroup(0), (4,))
    assert trivial == [()]
    z2_to_z4 = hom_enumerate(IntMatrix.from_rows([], 1),
                             FGAbelianGroup(0, (2,)), (4,))
    assert sorted(h[0][0] for h in z2_to_z4) == [0, 2]
    z4_to_z2 = hom_enumerate(IntMatrix.from_rows([], 1),
                             FGAbelianGroup(0, (4,)), (2,))
    assert sorted(h[0][0] for h in z4_to_z2) == [0, 1]


def test_hom_enumerate_relations_map_to_zero():
    rng = random.Random(5)
    for _ in range(60):
        free = rng.randint(0, 2)
        tors = rng.choice([(), (2,), (4,), (2, 6)])
        gamma = FGAbelianGroup(free, tors)
        n = rng.randint(0, 2)
        gens = IntMatrix.from_rows(
            [[rng.randint(-3, 3) for _ in range(free)]
             + [rng.randint(0, e - 1) for e in tors] for _ in range(n)],
            gamma.ngens)
        target = rng.choice([(2,), (3,), (4,), (2, 2)])
        homs = hom_enumerate(gens, gamma, target)
        assert len(homs) == len(set(homs))  # duplicate-free
        rels = presentation_matrix(gens, gamma)
        for h in homs:
            for rel in rels.data:
                img = [sum(a * h[i][t] for i, a in enumerate(rel)) % target[t]
                       for t in range(len(target))]
                assert not any(img)


def test_hom_enumerate_large_entry_relations():
    # tall large-entry relations used to reach the SNF unreduced; the
    # transforms then grew so fast that one of these inputs ran for over
    # nine minutes
    rng = random.Random(22)
    gamma = FGAbelianGroup(3)
    start = time.perf_counter()
    for _ in range(40):
        gens = IntMatrix.from_rows(
            [[rng.randint(-1000, 1000) for _ in range(3)] for _ in range(4)], 3)
        target = rng.choice([(2,), (3,), (4,), (2, 6), (12,)])
        homs = hom_enumerate(gens, gamma, target)
        assert len(homs) == hom_count(cokernel(gens, gamma), target), gens
        for h in homs:
            for rel in gens.data:
                img = [sum(a * h[i][t] for i, a in enumerate(rel)) % target[t]
                       for t in range(len(target))]
                assert not any(img), (gens, h)
    assert time.perf_counter() - start < 2.0


def test_hom_count_matches_enumeration_small_groups():
    sources = [(), (2,), (3,), (4,), (6,), (2, 2), (2, 4), (3, 3)]
    targets = [(2,), (3,), (4,), (6,), (2, 2), (8,), (2, 4)]
    for s in sources:
        for t in targets:
            src = FGAbelianGroup(0, s)
            if src.order() > 64:
                continue
            homs = hom_enumerate(IntMatrix.from_rows([], len(s)), src, t)
            assert len(homs) == hom_count(src, t)


def _brute_homs(gens, gamma, target):
    """Every x in the product of (Z/f_j)^n that kills the relations."""
    rels = presentation_matrix(gens, gamma).data
    images = list(product(*(range(f) for f in target)))
    return {x for x in product(images, repeat=gamma.ngens)
            if all(not sum(a * img[t] for a, img in zip(rel, x)) % f
                   for rel in rels for t, f in enumerate(target))}


def test_hom_enumerate_matches_brute_force():
    cases = [
        # zero-row relations: every x, free and torsion ambients
        (FGAbelianGroup(2), [], (2, 6)),
        (FGAbelianGroup(1, (2, 4)), [], (4,)),
        # non-square HNFs: one and two rows over three columns
        (FGAbelianGroup(3), [[2, 4, 6]], (2, 6)),
        (FGAbelianGroup(3), [[2, 1, 3], [0, 4, 2]], (2, 2)),
        (FGAbelianGroup(2, (6,)), [[3, 0, 2], [0, 2, 3]], (6,)),
        # target factor 1 and an empty target
        (FGAbelianGroup(2, (2,)), [[1, 3, 1]], (1,)),
        (FGAbelianGroup(1, (2,)), [[2, 1]], (1, 2)),
        (FGAbelianGroup(2, (2,)), [[1, 3, 1]], ()),
        (FGAbelianGroup(0), [], ()),
        (FGAbelianGroup(0), [], (2, 2)),
    ]
    rng = random.Random(13)
    for _ in range(60):
        free = rng.randint(0, 3)
        tors = rng.choice([(), (2,), (4,), (2, 6)])
        gamma = FGAbelianGroup(free, tors)
        if gamma.ngens > 3:
            continue
        gens = [[rng.randint(-4, 4) for _ in range(free)]
                + [rng.randint(0, e - 1) for e in tors]
                for _ in range(rng.randint(0, 3))]
        cases.append((gamma, gens, rng.choice(
            [(), (1,), (2,), (3,), (4,), (2, 2), (2, 6)])))
    for gamma, gens, target in cases:
        gens = IntMatrix.from_rows(gens, gamma.ngens)
        homs = hom_enumerate(gens, gamma, target)
        assert len(homs) == len(set(homs)), (gens, gamma, target)
        assert set(homs) == _brute_homs(gens, gamma, target), \
            (gens, gamma, target)


def test_kernel_mod_matches_hom_images_and_brute_force():
    # echelon rows that are not a canonical HNF: entries above the pivots
    # left unreduced, negative or past the pivot, and columns skipped
    rng = random.Random(33)
    moduli = list(range(1, 13)) + [10080]
    cases = [((), 0, m) for m in moduli]
    while len(cases) < 13 + 400:
        n = rng.randint(1, 4)
        cols = sorted(rng.sample(range(n), rng.randint(0, n)))
        rows = tuple(tuple(0 if k < j else rng.randint(1, 6) if k == j
                           else rng.randint(-20, 20) for k in range(n))
                     for j in cols)
        m = rng.choice(moduli)
        bound = m ** (n - len(cols))  # solutions: at most this times the gcds
        for row, j in zip(rows, cols):
            bound *= gcd(row[j], m)
        if bound <= 20_000:
            cases.append((rows, n, m))
    unreduced = brute_checked = 0
    for rows, n, m in cases:
        sols = kernel_mod(rows, n, m)
        lattice = IntMatrix.from_rows(rows, n)
        assert sols == [tuple(img[0] for img in h) for h in hom_enumerate(
            lattice, FGAbelianGroup(n), (m,))], (rows, n, m)
        unreduced += rows != hermite_normal_form(lattice).data
        if m ** n <= 2_000:
            brute = [x for x in product(range(m), repeat=n)
                     if all(not sum(map(mul, row, x)) % m for row in rows)]
            assert sols == sorted(brute, key=lambda x: x[::-1]), (rows, n, m)
            brute_checked += 1
    assert unreduced > 100 and brute_checked > 100
    assert {m for _, n, m in cases if n} == set(moduli)


def test_group_validation():
    with pytest.raises(ValueError):
        FGAbelianGroup(-1)
    with pytest.raises(ValueError):
        FGAbelianGroup(0, (1,))
    with pytest.raises(ValueError):
        FGAbelianGroup(0, (4, 2))
    with pytest.raises(ValueError):
        FGAbelianGroup(0, (2, 3))  # not a chain; chains only here
    assert FGAbelianGroup(0, (2, 4)).exponent() == 4
    assert FGAbelianGroup(1).exponent() == 1


def test_cokernel_matches_sympy_smith_form():
    # sympy's Smith normal form is an independent oracle for the invariant
    # factors; tall large-entry inputs used to blow up the SNF transforms
    from sympy import Matrix, ZZ
    from sympy.matrices.normalforms import smith_normal_form as sympy_snf
    rng = random.Random(11)
    ambients = [FGAbelianGroup(3), FGAbelianGroup(2), FGAbelianGroup(1, (4,)),
                FGAbelianGroup(2, (2, 6))]
    for trial in range(120):
        gamma = rng.choice(ambients)
        # odd trials are tall (more generators than columns), entries to 1000
        bound, n = (1000, rng.randint(gamma.ngens + 1, 7)) if trial % 2 \
            else (6, rng.randint(0, 5))
        gens = IntMatrix.from_rows(
            [[rng.randint(-bound, bound) for _ in range(gamma.ngens)]
             for _ in range(n)], gamma.ngens)
        rel = presentation_matrix(gens, gamma)
        if rel.rows:
            d = sympy_snf(Matrix(rel.data), domain=ZZ)
            nonzero = [abs(int(d[i, i])) for i in range(min(d.shape)) if d[i, i]]
        else:
            nonzero = []
        quot = cokernel(gens, gamma)
        assert quot.free_rank == gamma.ngens - len(nonzero), gens
        assert quot.torsion == tuple(x for x in nonzero if x > 1), gens


def test_cokernel_result_is_a_valid_group():
    # cokernel builds its group without re-checking the divisibility chain;
    # the checking constructor must accept it and give an equal group
    rng = random.Random(13)
    ambients = [FGAbelianGroup(3), FGAbelianGroup(1, (4,)),
                FGAbelianGroup(2, (2, 6)), FGAbelianGroup(0, (2, 2, 12))]
    for trial in range(300):
        gamma = rng.choice(ambients)
        bound = 1000 if trial % 2 else 6
        gens = IntMatrix.from_rows(
            [[rng.randint(-bound, bound) for _ in range(gamma.ngens)]
             for _ in range(rng.randint(0, 6))], gamma.ngens)
        quot = cokernel(gens, gamma)
        checked = FGAbelianGroup(quot.free_rank, quot.torsion)
        assert quot == checked and hash(quot) == hash(checked), gens
        assert type(quot.torsion) is tuple, gens
        assert all(type(e) is int for e in quot.torsion), gens


def test_cokernel_diagonal_matches_smith_form(example, mixed_torsion):
    # cokernel diagonalizes without transforms; sympy's Smith form is the
    # oracle.  Both must give the same invariant factors on every lattice
    # the subset fold meets, and so must the lattice table's own quotient.
    from sympy import Matrix, ZZ
    from sympy.matrices.normalforms import smith_normal_form as sympy_snf
    for arr in battery_instances(0, 40) + [example, mixed_torsion]:
        gamma = arr.gamma
        arr.lattice_counts()
        table = arr.lattice_table()
        for lat, lattice in enumerate(table.lattices):
            rel = presentation_matrix(lattice, gamma)
            factors = []
            if rel.rows:
                d = sympy_snf(Matrix(rel.data), domain=ZZ)
                factors = [abs(int(d[i, i])) for i in range(min(d.shape))
                           if d[i, i]]
            expected = FGAbelianGroup(gamma.ngens - len(factors),
                                      tuple(d for d in factors if d > 1))
            assert cokernel(lattice, gamma) == expected, (arr, lattice)
            assert table.quotient(lat) == expected, (arr, lattice)


def _random_canonical_hnf(rng, r, c, bound, unit_share):
    """Canonical HNF rows with r pivots among c columns: positive pivots, a
    share of them 1, entries above each pivot in [0, pivot) and entries of
    the non-pivot columns in [-bound, bound]."""
    cols = sorted(rng.sample(range(c), r))
    pivots = {j: 1 if rng.random() < unit_share else rng.randint(2, bound)
              for j in cols}
    out = []
    for j0 in cols:
        row = [0] * c
        row[j0] = pivots[j0]
        for j in range(j0 + 1, c):
            row[j] = rng.randrange(pivots[j]) if j in pivots \
                else rng.randint(-bound, bound)
        out.append(tuple(row))
    return tuple(out)


def _thinned(rng, rows, share):
    """Canonical HNF rows with each entry right of a pivot kept with
    probability `share` and zero otherwise: canonical still."""
    out = []
    for row in rows:
        p = next(j for j, x in enumerate(row) if x)
        out.append(row[:p + 1] + tuple(x if rng.random() < share else 0
                                       for x in row[p + 1:]))
    return tuple(out)


def test_hnf_invariant_factors_matches_smith_forms():
    # the kernel reads the invariant factors straight off a canonical HNF;
    # sympy's Smith form is its oracle.
    # Every third input is a full-rank 3x3 HNF without unit pivots, the
    # shape read off its determinantal divisors; the others have every
    # shape up to 5x5, from no rows to full rank, with unit pivots (which
    # split off) and non-pivot columns.  The last 100 are two rows without
    # unit pivots, 3 to 40 wide with most entries zero, whose D2 is read off
    # the 2x2 minors on the columns where either row is nonzero
    from sympy import Matrix, ZZ
    from sympy.matrices.normalforms import smith_normal_form as sympy_snf
    rng = random.Random(29)
    for trial in range(1000):
        bound = 1000 if trial % 2 else 6
        if trial >= 900:
            c = rng.randint(3, 40)
            rows = _thinned(rng, _random_canonical_hnf(rng, 2, c, bound, 0.0),
                            0.15)
        elif trial % 3 == 0:
            rows = _random_canonical_hnf(rng, 3, 3, bound, 0.0)
            c = 3
        else:
            c = rng.randint(1, 5)
            rows = _random_canonical_hnf(rng, rng.randint(0, c), c, bound, 0.3)
        m = IntMatrix(len(rows), c, rows)
        assert hermite_normal_form(m).data == rows  # the input is canonical
        factors = hnf_invariant_factors(rows)
        if rows:
            d = sympy_snf(Matrix(rows), domain=ZZ)
            nonzero = [abs(int(d[i, i])) for i in range(min(d.shape)) if d[i, i]]
            assert len(nonzero) == len(rows), rows
            assert factors == tuple(x for x in nonzero if x > 1), rows
        else:
            assert factors == ()
        assert cokernel(m, FGAbelianGroup(c)) == \
            FGAbelianGroup(c - len(rows), factors), rows


def _core_size(rows) -> int:
    """Non-unit pivots of a canonical HNF: the rows left once the unit
    pivots split off."""
    return sum(next(x for x in row if x) != 1 for row in rows)


def test_square_cores_match_smith_forms():
    # a full-rank HNF leaves a square upper-triangular core on its non-unit
    # pivots; cores of size 1 to 4 are read off closed forms and larger
    # ones go to `_monomial`.  sympy's Smith form is the oracle, on every
    # core size 0-5
    from sympy import Matrix, ZZ
    from sympy.matrices.normalforms import smith_normal_form as sympy_snf
    rng = random.Random(31)
    sizes = set()
    for trial in range(600):
        c = trial % 5 + 1
        share = 0.3 if trial % 2 else 0.0
        bound = 1000 if trial // 2 % 2 else 6
        rows = _random_canonical_hnf(rng, c, c, bound, share)
        m = IntMatrix(c, c, rows)
        assert hermite_normal_form(m).data == rows  # the input is canonical
        sizes.add(_core_size(rows))
        factors = hnf_invariant_factors(rows)
        d = sympy_snf(Matrix(rows), domain=ZZ)
        assert factors == tuple(x for x in (abs(int(d[i, i]))
                                            for i in range(c)) if x > 1), rows
        assert cokernel(m, FGAbelianGroup(c)) == FGAbelianGroup(0, factors)
    assert sizes == {0, 1, 2, 3, 4, 5}


def test_square_cores_up_to_4_run_no_smith_elimination(monkeypatch):
    # full-rank HNFs of width up to 6 whose non-unit core has at most 4
    # rows, and the full-rank lattices of a 10-element table over
    # Z^2 + Z/2 + Z/6, are read off closed forms: no `_monomial` call
    rng = random.Random(37)
    inputs = []
    while len(inputs) < 400:
        c = rng.randint(1, 6)
        rows = _random_canonical_hnf(rng, c, c, rng.choice((6, 1000)),
                                     rng.choice((0.0, 0.3, 0.6)))
        if _core_size(rows) <= 4:
            inputs.append(rows)
    assert {_core_size(rows) for rows in inputs} == {0, 1, 2, 3, 4}
    assert not _smith_calls(monkeypatch, lambda: [
        hnf_invariant_factors(rows) for rows in inputs])

    gamma = FGAbelianGroup(2, (2, 6))
    arr = Arrangement(gamma, [
        [-2, -2, 0, 1], [2, 2, 0, 2], [-2, -2, 1, 0], [0, -1, 1, 3],
        [1, -2, 0, 4], [-1, 2, 0, 1], [2, 2, 0, 0], [-1, 2, 0, 3],
        [-2, 0, 1, 2], [1, 0, 1, 5]])
    arr.lattice_counts()
    table = arr.lattice_table()
    full = [lat for lat, lattice in enumerate(table.lattices)
            if lattice.rows == gamma.ngens]
    sizes = [_core_size(table.lattices[lat].data) for lat in full]
    assert (sizes.count(3), sizes.count(4)) == (44, 6)
    assert not _smith_calls(monkeypatch, lambda: [
        table.quotient(lat) for lat in full])


def test_a_monomial_hnf_is_read_as_it_is(monkeypatch):
    # 50 diagonal rows of 2s under a zero column reach `_monomial`, which
    # reads their factors with no transpose and no insert
    rows = tuple((0,) * (1 + i) + (2,) + (0,) * (49 - i) for i in range(50))
    calls = []
    real = intlinalg.hnf_insert

    def counting(rows, vec):
        calls.append(vec)
        return real(rows, vec)

    monkeypatch.setattr(intlinalg, "hnf_insert", counting)
    found = []
    assert _smith_calls(monkeypatch, lambda: found.append(
        hnf_invariant_factors(rows))) == 1
    assert found == [(2,) * 50] and calls == []


def test_monomial_shapes_match_sympy_smith_forms(monkeypatch):
    # the shapes that reach `_monomial`: full-rank cores of size 5-12 with
    # no unit pivot, and 3x4 to 4x6 rows below full rank with three or more
    # non-unit pivots.  sympy's Smith form is the oracle for the kernel's
    # invariant factors
    from sympy import Matrix, ZZ
    from sympy.matrices.normalforms import smith_normal_form as sympy_snf
    rng = random.Random(41)
    inputs = [_random_canonical_hnf(rng, k, k, bound, 0.0)
              for k in range(5, 13) for bound in (6, 1000, 6, 1000)]
    for r, c in ((3, 4), (3, 5), (3, 6), (4, 5), (4, 6)):
        shaped = []
        while len(shaped) < 12:
            rows = _random_canonical_hnf(rng, r, c, rng.choice((6, 1000)),
                                         rng.choice((0.0, 0.3)))
            if _core_size(rows) >= 3:
                shaped.append(rows)
        inputs += shaped
    found = []
    assert _smith_calls(monkeypatch, lambda: found.extend(
        hnf_invariant_factors(rows) for rows in inputs)) == len(inputs)
    for rows, factors in zip(inputs, found):
        d = sympy_snf(Matrix(rows), domain=ZZ)
        nonzero = tuple(abs(int(d[i, i])) for i in range(min(d.shape)))
        assert factors == tuple(x for x in nonzero if x > 1), rows


def test_invariant_chain_matches_sympy_smith_forms():
    # the invariant factors > 1 of a direct sum of cyclic groups, 1s
    # included, are those of the diagonal matrix of their orders
    from sympy import ZZ, diag
    from sympy.matrices.normalforms import smith_normal_form as sympy_snf
    rng = random.Random(43)
    orders = (1, 1, 2, 3, 4, 5, 6, 8, 9, 12, 25, 36, 49, 60)
    for _ in range(2000):
        fs = [rng.choice(orders) for _ in range(rng.randint(0, 7))]
        expected = ()
        if fs:
            d = sympy_snf(diag(*fs), domain=ZZ)
            expected = tuple(x for x in (abs(int(d[i, i]))
                                         for i in range(len(fs))) if x > 1)
        assert invariant_chain(fs) == expected, fs


def test_long_diagonals_of_twos_within_budget():
    # 800 target factors Z/2 once took 11 s to canonicalize, and the
    # arithmetic Tutte polynomial over Z + (Z/2)^400 over 4 s: both are
    # diagonals of 2s, at most 401 wide
    start = time.perf_counter()
    spec = GroupSpec(f_torsion=(2,) * 800)
    assert time.perf_counter() - start < 1.0
    assert spec.f_torsion == (2,) * 800
    arr = Arrangement(FGAbelianGroup(1, (2,) * 400),
                      [[1] + [1] * 400, [2] + [0] * 400])
    start = time.perf_counter()
    tutte = arithmetic_tutte(arr)
    assert time.perf_counter() - start < 2.0
    # the quotients have torsion (Z/2)^400, (Z/2)^400, (Z/2)^401, (Z/2)^400
    assert tutte == BiPoly({(1, 0): 2**400, (0, 1): 2**400, (0, 0): 2**400})
    # the same two elements over Z + (Z/2)^2000: the table's start lattice
    # is built as it stands, and each insert reduces only the rows it wrote
    arr = Arrangement(FGAbelianGroup(1, (2,) * 2000),
                      [[1] + [1] * 2000, [2] + [0] * 2000])
    start = time.perf_counter()
    tutte = arithmetic_tutte(arr)
    assert time.perf_counter() - start < 1.5
    assert tutte == BiPoly({(1, 0): 2**2000, (0, 1): 2**2000, (0, 0): 2**2000})
    # no element at all over Z + (Z/2)^4000: lattice 0 is read as it is
    arr = Arrangement(FGAbelianGroup(1, (2,) * 4000), [])
    start = time.perf_counter()
    counts = arr.class_counts()
    assert time.perf_counter() - start < 2.0
    assert counts == {SubsetClass(0, 0, (2,) * 4000): 1}


@pytest.mark.parametrize("call, error, message", [
    (lambda: IntMatrix(2, 1, ((1,),)), DimensionMismatch,
     "row count does not match data"),
    (lambda: IntMatrix(2, 2, ((1, 2), (3,))), DimensionMismatch,
     "ragged row in matrix data"),
    (lambda: IntMatrix.from_rows([]), DimensionMismatch,
     "cols required for a 0-row matrix"),
    (lambda: hnf_solve(IntMatrix.identity(2), (1, 2, 3)), DimensionMismatch,
     "vector length does not match matrix columns"),
    (lambda: FGAbelianGroup(1, (2,)).order(), ValueError, "group is infinite"),
    (lambda: saturation(IntMatrix.from_rows([[1, 2]]), FGAbelianGroup(3)),
     DimensionMismatch, "generators have 2 coordinates, ambient needs 3"),
    (lambda: hom_enumerate(IntMatrix.from_rows([], 1), FGAbelianGroup(0, (2,)),
                           (3, 0)), ValueError,
     "target factors must be positive"),
], ids=["row count", "ragged row", "0 rows without cols", "solve length",
        "order of an infinite group", "saturation columns",
        "nonpositive target factor"])
def test_malformed_input_is_refused(call, error, message):
    with pytest.raises(error, match=f"^{message}$"):
        call()
