import random
import time
from collections import Counter

import pytest

from gtutte import Arrangement, FGAbelianGroup, GroupSpec, model, multiplicity
from gtutte.intlinalg import (hermite_normal_form, hnf_insert, insert_step,
                              presentation_matrix, saturation)
from gtutte.model import CapExceeded, MAX_ELEMENTS
from gtutte.toric import enumerate_toric_layers
from gtutte.oracle import battery_instances, brute_hom_count


def test_element_validation_and_reduction():
    gamma = FGAbelianGroup(1, (2,))
    arr = Arrangement(gamma, [[0, 3]])
    assert arr.elements == ((0, 1),)
    with pytest.raises(ValueError):
        Arrangement(gamma, [[1]])


def test_duplicates_are_kept_in_order():
    arr = Arrangement(FGAbelianGroup(2), [[1, 0], [1, 0], [0, 1]])
    assert arr.n == 3
    assert arr.elements[0] == arr.elements[1]


def test_element_cap():
    # an arrangement without a name is named by its ambient and its count
    n = MAX_ELEMENTS + 1
    with pytest.raises(CapExceeded, match=rf"^Arrangement\(Z\^1, {n} elements\): "
                       f"{n} elements; the subset sweep is capped at {MAX_ELEMENTS}"):
        Arrangement(FGAbelianGroup(1), [[1]] * n)
    with pytest.raises(CapExceeded, match=rf"^Arrangement\(Z\^2\+Z/2\+Z/6, {n} "
                       rf"elements\): {n} elements; the subset sweep"):
        Arrangement(FGAbelianGroup(2, (2, 6)), [[1, 0, 1, 5]] * n)
    with pytest.raises(CapExceeded, match=f"^ones: {n} elements; the subset "
                       f"sweep is capped at {MAX_ELEMENTS}"):
        Arrangement(FGAbelianGroup(1), [[1]] * n, name="ones")


def test_element_cap_is_reachable():
    # the histogram sweep costs one step per distinct (lattice, #S) state;
    # 2^24 subsets of this input meet about a thousand distinct lattices
    from gtutte import g_tutte
    rng = random.Random(24)
    arr = Arrangement(FGAbelianGroup(3), [[rng.randint(-4, 4) for _ in range(3)]
                                          for _ in range(MAX_ELEMENTS)])
    budget_s = 3.0
    t0 = time.perf_counter()
    g_tutte(arr, GroupSpec.circle())
    elapsed = time.perf_counter() - t0
    assert sum(arr.histogram().values()) == 2 ** MAX_ELEMENTS
    assert arr.rank == 3
    assert elapsed < budget_s, f"{elapsed:.2f}s > {budget_s}s"


def test_lattice_states_match_per_mask_hnfs(mixed_torsion):
    # the fold keys its states by lat * (n + 1) + #S; the states it returns,
    # the lattice each mask reads off `child` and every child edge must
    # agree with the canonical HNF of <S> plus the torsion relations,
    # computed mask by mask.  Rows 8 wide, past the compiled kernels, take
    # the loop step, and the battery has width 0
    rng = random.Random(9)
    quasi_like = Arrangement(FGAbelianGroup(2, (2, 6)), [
        [rng.randint(-4, 4), rng.randint(-4, 4), rng.randrange(2),
         rng.randrange(6)] for _ in range(8)])
    width8 = Arrangement(FGAbelianGroup(6, (2, 6)), [
        [rng.randint(-2, 2) for _ in range(6)] + [rng.randrange(2),
                                                   rng.randrange(6)]
        for _ in range(6)])
    for arr in [mixed_torsion, quasi_like, width8] + battery_instances(0, 60):
        states = arr.lattice_states()
        table = arr.lattice_table()
        ids = {lattice.data: lat for lat, lattice in enumerate(table.lattices)}
        assert len(ids) == len(table.lattices), arr  # no lattice twice
        want = Counter()
        for mask in arr.masks():
            rows = hermite_normal_form(
                presentation_matrix(arr.subset_matrix(mask), arr.gamma)).data
            assert arr.subset_lattice(mask) == ids[rows], (arr, mask)
            want[ids[rows], bin(mask).count("1")] += 1
        assert states == dict(want), arr
        for vec, kids in table.child.items():
            for lat, c in kids.items():
                assert table.lattices[c].data == hnf_insert(
                    table.lattices[lat].data, vec), (arr, vec, lat)


def test_each_lattice_finds_its_fold_step_once(monkeypatch):
    # the table asks `insert_step` once per lattice, on its first child
    # edge: never again for that lattice, and never for a leaf, so the
    # lattice states and then the layer engine's localization fold over
    # the same table ask once per lattice with a child edge
    steps = []

    def counting(rows, c):
        steps.append(rows)
        return insert_step(rows, c)

    monkeypatch.setattr(model, "insert_step", counting)
    rng = random.Random(36)
    for gamma in (FGAbelianGroup(3), FGAbelianGroup(2, (2, 6))):
        steps.clear()
        arr = Arrangement(gamma, [[rng.randint(-3, 3) for _ in range(gamma.ngens)]
                                  for _ in range(7)])
        arr.lattice_states()
        enumerate_toric_layers(arr)
        table = arr.lattice_table()
        parents = {lat for kids in table.child.values() for lat in kids}
        assert len(steps) == len(parents) < len(table.lattices), arr
        assert sorted(steps) == sorted(table.lattices[lat].data
                                       for lat in parents), arr


def test_lattice_cap(monkeypatch):
    def example():  # 6 lattices
        return Arrangement(FGAbelianGroup(2), [[-1, 1], [0, 2], [0, 4]],
                           name="example")
    monkeypatch.setattr(model, "MAX_LATTICES", 5)
    message = "^example: lattice fold: 6 lattices exceed the cap 5$"
    with pytest.raises(CapExceeded, match=message):
        example().histogram()
    # the layer engine folds over the same table, under the same cap
    with pytest.raises(CapExceeded, match=message):
        enumerate_toric_layers(example())
    monkeypatch.setattr(model, "MAX_LATTICES", 6)
    arr = example()
    assert sum(arr.histogram().values()) == 8
    assert len(arr.lattice_table().lattices) == 6
    assert enumerate_toric_layers(example()).n > 0


def test_subset_data_example(example):
    empty = example.subset_data(0)
    assert empty.rank == 0 and empty.torsion_factors == ()
    gamma_only = example.subset_data(0b100)
    assert gamma_only.rank == 1 and gamma_only.torsion_factors == (4,)
    full = example.subset_data(0b111)
    assert full.rank == 2 and full.torsion_factors == (2,)


def test_subset_data_empty_set_matches_ambient_torsion():
    arr = Arrangement(FGAbelianGroup(1, (2, 4)), [])
    assert arr.subset_data(0).torsion_factors == (2, 4)


def test_rank_monotone_under_inclusion(example):
    for mask in example.masks():
        for sub in range(mask + 1):
            if sub & mask == sub:
                assert example.subset_data(sub).rank <= example.subset_data(mask).rank


def test_multiplicity_examples(example):
    gamma_only = example.subset_data(0b100)
    assert multiplicity(gamma_only, GroupSpec(reals=1)) == 1
    assert multiplicity(gamma_only, GroupSpec.cyclic(4)) == 4
    assert multiplicity(gamma_only, GroupSpec.circle()) == 4


def test_multiplicity_circle_is_torsion_order(example):
    for mask in example.masks():
        data = example.subset_data(mask)
        order = 1
        for d in data.torsion_factors:
            order *= d
        assert multiplicity(data, GroupSpec.circle()) == order


def test_multiplicity_matches_brute_hom_count():
    from gtutte.model import SubsetData
    rng = random.Random(6)
    for _ in range(80):
        factors = rng.choice([(), (2,), (3,), (4,), (2, 2), (2, 6), (3, 6)])
        data_factors = rng.choice([(), (2,), (4,), (6,), (2, 4)])
        data = SubsetData(0, 0, data_factors)
        spec = GroupSpec(f_torsion=factors)
        assert multiplicity(data, spec) == brute_hom_count(
            FGAbelianGroup(0, data_factors), spec.f_torsion)


def test_multiplicity_depends_only_on_residue(example):
    period = example.lcm_period()
    for mask in example.masks():
        data = example.subset_data(mask)
        for k in range(1, 2 * period + 1):
            k2 = k + period
            assert multiplicity(data, GroupSpec.cyclic(k)) == \
                multiplicity(data, GroupSpec.cyclic(k2))


def test_torsion_sublist():
    assert Arrangement(FGAbelianGroup(2), [[1, 1], [0, 2]]).torsion_mask() == 0
    arr = Arrangement(FGAbelianGroup(1, (2,)), [[1, 0], [0, 1]])
    assert arr.torsion_mask() == 0b10
    assert Arrangement(FGAbelianGroup(0, (6,)), [[2], [3]]).torsion_mask() == 0b11


def test_lcm_period_examples(example):
    assert Arrangement(FGAbelianGroup(2), []).lcm_period() == 1
    assert example.lcm_period() == 4
    arr = Arrangement(FGAbelianGroup(2), [[2, 0], [0, 3]])
    assert arr.lcm_period() == 6


def test_largest_factor_divides_period(example):
    period = example.lcm_period()
    for mask in example.masks():
        factors = example.subset_data(mask).torsion_factors
        if factors:
            assert period % factors[-1] == 0


def test_group_spec_canonicalizes_factors():
    assert GroupSpec(f_torsion=(2, 3)).f_torsion == (6,)
    assert GroupSpec(f_torsion=(1, 4, 1)).f_torsion == (4,)
    assert GroupSpec(f_torsion=(4, 2)).f_torsion == (2, 4)
    assert GroupSpec(f_torsion=(6, 4)).f_torsion == (2, 12)
    assert GroupSpec.cyclic(1) == GroupSpec()
    assert GroupSpec(f_torsion=(2, 3)).f_order == 6


def test_without_torsion():
    arr = Arrangement(FGAbelianGroup(1, (2,)), [[1, 0], [0, 1]])
    stripped = arr.without_torsion()
    assert stripped.elements == ((1, 0),)
    assert stripped.gamma == arr.gamma


def test_group_spec_rejects_nonpositive_factors():
    for factors in ((0,), (-4,), (2, 0), (3, -1)):
        bad = next(f for f in factors if f < 1)
        with pytest.raises(ValueError, match=str(bad)):
            GroupSpec(f_torsion=factors)
    assert GroupSpec(f_torsion=(1,)) == GroupSpec()


def test_without_torsion_of_free_arrangement_is_itself(example):
    assert example.without_torsion() is example


def test_without_torsion_is_made_once(mixed_torsion):
    stripped = mixed_torsion.without_torsion()
    assert mixed_torsion.without_torsion() is stripped
    assert stripped.lattice_table() is mixed_torsion.lattice_table()


def test_without_torsion_shares_the_lattice_table(mixed_torsion):
    for arr in [mixed_torsion] + list(battery_instances(0, 40)):
        stripped = arr.without_torsion()
        tmask = arr.torsion_mask()
        kept = [v for i, v in enumerate(arr.elements) if not tmask >> i & 1]
        assert stripped.elements == tuple(kept)
        fresh = Arrangement(arr.gamma, kept)
        assert stripped.histogram() == fresh.histogram()

        def lattices(a):
            return [a.lattice_table().lattices[a.subset_lattice(mask)]
                    for mask in a.masks()]
        assert lattices(stripped) == lattices(fresh)


def test_table_spans_equal_the_saturation(example, mixed_torsion,
                                          torsion_only):
    # the table reads rank 0 and full rank off the quotient; every span
    # must still be the saturation of its lattice
    ranks = set()
    for arr in [example, mixed_torsion, torsion_only,
                Arrangement(FGAbelianGroup(2, (2, 4)),
                            [[2, 0, 1, 3], [0, 3, 0, 2], [1, 1, 1, 0]])]:
        arr.lattice_states()
        table = arr.lattice_table()
        f = arr.gamma.free_rank
        for lat, lattice in enumerate(table.lattices):
            assert table.span(lat) == saturation(lattice, arr.gamma), (arr, lat)
            rank = table.span(lat).rows
            ranks.add("zero" if rank == 0 else "full" if rank == f else "part")
    assert ranks == {"zero", "full", "part"}


@pytest.mark.parametrize("counts", [{"circles": -1}, {"reals": -1},
                                    {"circles": 1, "reals": -2}])
def test_negative_factor_counts_are_refused(counts):
    with pytest.raises(ValueError, match="^factor counts must be nonnegative$"):
        GroupSpec(**counts)
