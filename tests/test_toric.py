import random

import pytest

from gtutte import Arrangement, FGAbelianGroup, GroupSpec, chromatic_quasi, posets
from gtutte.intlinalg import IntMatrix
from gtutte.invariants import IdentityCheckError
from gtutte.lie import enumerate_lie_layers
from gtutte.model import CapExceeded, LatticeTable, multiplicity
from gtutte.oracle import (brute_mobius, downs_from_covers, mobius_all,
                           poset_leq_matrix)
from gtutte.poly import UniPoly
from gtutte.posets import export_hasse, hasse_records, layer_sum
from gtutte.toric import (enumerate_toric_layers, k_partial_characteristic,
                          k_total_subposet, partial_subposet)


@pytest.fixture
def example_poset(example):
    return enumerate_toric_layers(example)


def test_single_primitive_element():
    arr = Arrangement(FGAbelianGroup(1), [[1]])
    poset = enumerate_toric_layers(arr)
    assert poset.n == 2
    dims = sorted(lay.dim for lay in poset.layers)
    assert dims == [0, 1]
    point = next(i for i, lay in enumerate(poset.layers) if lay.dim == 0)
    assert poset.mobius[point] == -1


def test_empty_arrangement_single_layer():
    poset = enumerate_toric_layers(Arrangement(FGAbelianGroup(2), []))
    assert poset.n == 1
    assert poset.layers[0].dim == 2


def test_example_subset_component_counts(example, example_poset):
    # one kernel is connected, the order-2 one has 2 components, the
    # order-4 one has 4, and their intersection has 2
    sizes = {mask: len(example_poset.subset_components[mask])
             for mask in example.masks()}
    assert sizes[0b001] == 1
    assert sizes[0b010] == 2
    assert sizes[0b100] == 4
    assert sizes[0b110] == 2
    for mask in example.masks():
        assert sizes[mask] == multiplicity(example.subset_data(mask),
                                           GroupSpec.circle())


def test_example_layer_and_cover_counts(example, example_poset):
    assert example_poset.n == 10
    expected = {1: (4, 4), 2: (6, 7), 4: (10, 13)}
    for k, (nodes, covers) in expected.items():
        sub = [i for i in k_total_subposet(example_poset, k)
               if example_poset.layers[i].in_partial]
        assert len(sub) == nodes
        assert len(example_poset.covers(sub)) == covers


def test_example_k_partial_polynomials(example, example_poset):
    want = {1: (1, -2, 1), 2: (2, -3, 1), 4: (4, -5, 1)}
    for k, coeffs in want.items():
        assert k_partial_characteristic(example, k, example_poset).coeffs == coeffs


def test_k_partial_matches_constituent_beyond_period(example, example_poset):
    qp = chromatic_quasi(example)
    for k in range(1, 3 * qp.period + 1):
        got = k_partial_characteristic(example, k, example_poset, check=False)
        assert got == qp.constituent(k)


def test_component_counts_in_k_subposet(example, example_poset):
    # per subset and torsion level, components with a k-torsion point
    period = example.lcm_period()
    for mask in example.masks():
        data = example.subset_data(mask)
        for k in range(1, 2 * period + 1):
            got = sum(1 for i in example_poset.subset_components[mask]
                      if k % example_poset.layers[i].order == 0)
            assert got == multiplicity(data, GroupSpec.cyclic(k))


def test_k_subposets_nest_along_divisibility(example_poset):
    for a in (1, 2, 4):
        for b in (2, 4, 8, 12):
            if b % a == 0:
                sa = set(k_total_subposet(example_poset, a))
                sb = set(k_total_subposet(example_poset, b))
                assert sa <= sb


def test_partial_is_everything_when_ambient_free(example, example_poset):
    assert partial_subposet(example_poset) == example_poset.all_indices()
    assert layer_sum(example_poset, partial=True)[1].coeffs == (4, -5, 1)
    assert layer_sum(example_poset)[1].coeffs == (4, -5, 1)


def test_partial_with_ambient_torsion(mixed_torsion):
    poset = enumerate_toric_layers(mixed_torsion)
    # components: two torsion characters; only the nonzero one survives
    assert len(poset.minimal) == 2
    partial = partial_subposet(poset)
    roots = {poset.component_of[i] for i in partial}
    assert len(roots) == 1


def test_k_total_equals_stripped_constituent(mixed_torsion):
    poset = enumerate_toric_layers(mixed_torsion)
    stripped = mixed_torsion.without_torsion()
    qp = chromatic_quasi(stripped)
    for k in range(1, 7):
        got = layer_sum(poset, k)[1]
        assert got == qp.constituent(k)


def test_zero_element_empties_partial_subposet():
    arr = Arrangement(FGAbelianGroup(2), [[0, 0], [1, 1]])
    poset = enumerate_toric_layers(arr)
    assert partial_subposet(poset) == ()
    assert layer_sum(poset, partial=True)[1].coeffs == ()


def test_torsion_only_group(torsion_only):
    poset = enumerate_toric_layers(torsion_only)
    assert all(lay.dim == 0 for lay in poset.layers)
    assert poset.n == 6  # the six characters of Z/6
    qp = chromatic_quasi(torsion_only)
    for k in range(1, 13):
        assert k_partial_characteristic(torsion_only, k, poset) == qp.constituent(k)


def test_localization_and_incidence_consistency(example, example_poset):
    # the subsets a layer is a component of must be exactly the full-rank
    # subsets of its localization
    for i, lay in enumerate(example_poset.layers):
        loc = lay.localization
        loc_rank = example.subset_data(loc).rank
        assert loc_rank == lay.rank
        expected = [mask for mask in example.masks()
                    if mask & loc == mask
                    and example.subset_data(mask).rank == loc_rank]
        assert [mask for mask in example.masks()
                if i in example_poset.subset_components[mask]] == expected


def test_mobius_against_textbook_recursion(example_poset, mixed_torsion):
    for poset in (example_poset, enumerate_toric_layers(mixed_torsion)):
        mu = brute_mobius(poset_leq_matrix(poset))
        for j in range(poset.n):
            assert poset.mobius[j] == mu[poset.component_of[j]][j]


def test_k_must_be_positive(example_poset):
    with pytest.raises(ValueError):
        k_total_subposet(example_poset, 0)
    with pytest.raises(ValueError):
        k_total_subposet(example_poset, -2)


def test_a_rank_f_span_off_the_identity_is_checked(example, monkeypatch):
    # span Z^f is told by its rows, not its rank: a rank-2 span that is not
    # saturated still reaches the saturation check of the order lookup
    span = LatticeTable.span

    def unsaturated(self, lat):
        got = span(self, lat)
        return IntMatrix.from_rows(((1, 0), (0, 2))) if got.rows == 2 else got

    monkeypatch.setattr(LatticeTable, "span", unsaturated)
    with pytest.raises(IdentityCheckError, match=r"^example: span "
                       r"\[\(1, 0\), \(0, 2\)\] is not saturated$"):
        enumerate_toric_layers(example)


def test_a_layer_through_zero_builds_no_bordered_hnf(monkeypatch):
    # every lattice of the unit vectors is saturated, so each layer's circle
    # values are zero and so are its values on every lower span: no span
    # pair needs its coefficients, so `hnf_solve` is never called.  No code
    # builds a bordered HNF either: `saturation` folds no row wider than
    # the free rank
    calls = []
    solve = posets.hnf_solve

    def counting(h, vector):
        calls.append(vector)
        return solve(h, vector)

    monkeypatch.setattr(posets, "hnf_solve", counting)
    arr = Arrangement(FGAbelianGroup(6),
                      [[int(i == j) for j in range(6)] for i in range(6)])
    poset = enumerate_toric_layers(arr)
    assert poset.n == 64 and not calls


def test_a_dropped_circle_value_fails_the_component_count(example,
                                                          monkeypatch):
    solve = posets.kernel_mod
    monkeypatch.setattr(posets, "kernel_mod", lambda *args: solve(*args)[:-1])
    with pytest.raises(IdentityCheckError, match=r"^example: lattice "
                       r"\[\(0, 2\)\] has 1 components, expected 2$"):
        enumerate_toric_layers(example)


def test_layer_cap(monkeypatch):
    monkeypatch.setattr(posets, "MAX_COMPONENTS", 5)
    with pytest.raises(CapExceeded, match="at least 13 components exceed the cap 5$"):
        enumerate_toric_layers(Arrangement(FGAbelianGroup(1), [[12]]))
    monkeypatch.setattr(posets, "MAX_COMPONENTS", 13)
    assert enumerate_toric_layers(Arrangement(FGAbelianGroup(1), [[12]])).n == 13
    # the cap counts components over distinct lattices, not elements: 13
    # copies of a generator span two lattices with one component each
    monkeypatch.undo()
    assert enumerate_toric_layers(
        Arrangement(FGAbelianGroup(1), [[1]] * 13)).n == 2


def test_layer_cap_refuses_before_any_hom(monkeypatch):
    # 66,543 components in all; the fold over the lattices stops at the
    # first one that takes the count past the cap
    rng = random.Random(3)
    arr = Arrangement(FGAbelianGroup(3), [[rng.randint(-20, 20) for _ in range(3)]
                                          for _ in range(5)], name="wide")

    def no_homs(*args):
        raise AssertionError("a homomorphism was enumerated")

    monkeypatch.setattr(posets, "hom_enumerate", no_homs)
    monkeypatch.setattr(posets, "kernel_mod", no_homs)
    with pytest.raises(CapExceeded, match=r"^wide: layer enumeration: at least "
                       r"50979 components exceed the cap 50000$"):
        enumerate_toric_layers(arr)


def test_order_cap_counts_each_component_by_two_to_its_rank(monkeypatch):
    # [[1, 0], [0, 1]] spans four lattices with one component each, of ranks
    # 0, 1, 1, 2: 1 + 2 + 2 + 4 = 9, the pairs X <= Y of its Boolean poset
    arr = Arrangement(FGAbelianGroup(2), [[1, 0], [0, 1]])
    monkeypatch.setattr(posets, "MAX_ORDER_PAIRS", 8)
    with pytest.raises(CapExceeded, match=r"at least 9 pairs \(components "
                       r"times 2\^rank\) exceed the cap 8$"):
        enumerate_toric_layers(arr)
    monkeypatch.setattr(posets, "MAX_ORDER_PAIRS", 9)
    poset = enumerate_toric_layers(arr)
    assert sum(len(downs) + 1 for downs in downs_from_covers(poset)) == 9


def test_order_cap_refuses_high_rank_before_any_hom(monkeypatch):
    # the unit vectors of Z^14 span 2^14 lattices with one component each,
    # under the component cap, but a rank-r layer lies over 2^r layers:
    # 3^14 order pairs, and the order and its down-sets grow with them.
    # The fold stops at the first lattice that takes the count past the cap.
    arr = Arrangement(FGAbelianGroup(14),
                      [[int(i == j) for j in range(14)] for i in range(14)],
                      name="B14")

    def no_homs(*args):
        raise AssertionError("a homomorphism was enumerated")

    monkeypatch.setattr(posets, "hom_enumerate", no_homs)
    monkeypatch.setattr(posets, "kernel_mod", no_homs)
    message = (r"^B14: layer order: at least 2000053 pairs \(components "
               r"times 2\^rank\) exceed the cap 2000000$")
    with pytest.raises(CapExceeded, match=message):
        enumerate_toric_layers(arr)
    with pytest.raises(CapExceeded, match=message):
        enumerate_lie_layers(arr, 1, ())


def test_export_formats(example, example_poset):
    sub2 = [i for i in k_total_subposet(example_poset, 2)
            if example_poset.layers[i].in_partial]
    dot = export_hasse(hasse_records(example_poset, sub2))
    assert dot.count("[label=") == 6
    assert dot.count("->") == 7
    records = hasse_records(example_poset, sub2)
    assert len(records) == 6
    assert {r["dim"] for r in records} == {0, 1, 2}
    empty = export_hasse(hasse_records(example_poset, []))
    assert "label" not in empty and "->" not in empty


def test_export_diamond(example):
    poset = enumerate_toric_layers(example)
    sub1 = [i for i in k_total_subposet(poset, 1)]
    dot = export_hasse(hasse_records(poset, sub1))
    assert dot.count("[label=") == 4
    assert dot.count("->") == 4


def test_dot_output_is_stable(example):
    a = export_hasse(hasse_records(enumerate_toric_layers(example)))
    b = export_hasse(hasse_records(enumerate_toric_layers(example)))
    assert a == b


def test_q_partial_value_equals_complement_count(example, mixed_torsion):
    from gtutte.oracle import brute_complement_count
    for arr in (example, mixed_torsion):
        poset = enumerate_toric_layers(arr)
        for q in range(1, 13):
            poly = k_partial_characteristic(arr, q, poset, check=False)
            assert poly(q) == brute_complement_count(arr, q)


def test_poset_side_beta_monotonicity(example, example_poset):
    # rebuild the unsigned coefficients from the subposets directly
    r = example.gamma.free_rank

    def poset_betas(k):
        partial = set(partial_subposet(example_poset))
        sub = [i for i in k_total_subposet(example_poset, k) if i in partial]
        poly = example_poset.characteristic(sub)
        return [(-1) ** (r - j) * poly.coefficient(j) for j in range(r + 1)]

    for a, b in ((1, 2), (2, 4), (1, 4), (3, 6)):
        beta_a, beta_b = poset_betas(a), poset_betas(b)
        assert all(0 <= x <= y for x, y in zip(beta_a, beta_b))


def test_mobius_all_recompute(example_poset):
    assert mobius_all(example_poset) is example_poset


@pytest.mark.parametrize("call", [
    lambda arr, poset: k_partial_characteristic(arr, 2, poset),
    lambda arr, poset: layer_sum(poset, 2),
    lambda arr, poset: layer_sum(poset),
    lambda arr, poset: layer_sum(poset, partial=True),
], ids=["k_partial_characteristic-args0", "k_total_characteristic-args1",
        "total_characteristic-args2", "partial_characteristic-args3"])
def test_identity_check_failure_raises(example, example_poset, monkeypatch,
                                       call):
    # a wrong independent polynomial must make every layer sum raise
    monkeypatch.setattr(posets, "g_characteristic",
                        lambda arr, spec: UniPoly([7]))
    with pytest.raises(IdentityCheckError):
        call(example, example_poset)


def test_k_partial_unchecked_skips_identity(example, example_poset,
                                            monkeypatch):
    monkeypatch.setattr(posets, "g_characteristic",
                        lambda arr, spec: UniPoly([7]))
    got = k_partial_characteristic(example, 2, example_poset, check=False)
    assert got.coeffs == (2, -3, 1)
