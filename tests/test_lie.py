from math import gcd

import pytest

from gtutte import (Arrangement, FGAbelianGroup, GroupSpec, chromatic_quasi,
                    g_characteristic, leading_part, scale_variable)
from gtutte.lie import (constituent_via_lie, enumerate_lie_layers,
                        key_lie_sums, partial_characteristic, partial_subposet,
                        scc, total_characteristic)
from gtutte.model import CapExceeded
from gtutte.oracle import (battery_instances, brute_complement_count,
                           brute_mobius, poset_leq_matrix)
from gtutte.posets import component_shapes


DIAMOND = (4, (0, 1, 1, 2))  # (layer count, rank multiset) of a diamond
CHAIN = (2, (0, 1))


def shape_counts(poset):
    return {(s[0], s[1]): c for s, c in component_shapes(poset)}


def test_trivial_finite_part_is_single_diamond(example):
    poset = enumerate_lie_layers(example, 1, ())
    assert len(poset.minimal) == 1
    assert shape_counts(poset) == {DIAMOND: 1}
    assert total_characteristic(example, 1, (), poset).coeffs == (1, -2, 1)


def test_order_two_finite_part(example):
    poset = enumerate_lie_layers(example, 1, (2,))
    assert len(poset.minimal) == 4
    assert shape_counts(poset) == {DIAMOND: 2, CHAIN: 2}
    assert total_characteristic(example, 1, (2,), poset).coeffs == (2, -6, 4)


def test_order_four_finite_part(example):
    poset = enumerate_lie_layers(example, 1, (4,))
    assert len(poset.minimal) == 16
    assert shape_counts(poset) == {DIAMOND: 4, CHAIN: 12}
    assert total_characteristic(example, 1, (4,), poset).coeffs == (4, -20, 16)
    # order of the hom into Z/4: 1 for zero, 2 for the 3 of order 2, else 4
    orders = [lay.order for lay in poset.layers if lay.rank == 0]
    assert sorted(orders) == [1] + [2] * 3 + [4] * 12


def test_partial_equals_total_without_torsion_elements(example):
    for fs in ((), (2,), (3,)):
        poset = enumerate_lie_layers(example, 1, fs)
        assert partial_subposet(poset) == poset.all_indices()
        assert partial_characteristic(example, 1, fs, poset) == \
            total_characteristic(example, 1, fs, poset)


def test_rescaling_identity_various_targets(example, mixed_torsion,
                                            torsion_only):
    for arr in (example, mixed_torsion, torsion_only):
        for g in (1, 2):
            for fs in ((), (2,), (3,), (4,)):
                spec = GroupSpec(f_torsion=fs, reals=g)
                got = partial_characteristic(arr, g, fs)
                want = scale_variable(g_characteristic(arr, spec),
                                      spec.f_order, g)
                assert got == want


def test_total_is_partial_of_stripped(mixed_torsion):
    for fs in ((), (2,), (3,)):
        total = total_characteristic(mixed_torsion, 1, fs)
        stripped = partial_characteristic(mixed_torsion.without_torsion(), 1, fs)
        assert total == stripped


def test_scc_with_ambient_torsion():
    arr = Arrangement(FGAbelianGroup(1, (2,)), [[0, 1]])
    poset = enumerate_lie_layers(arr, 1, (2,))
    assert len(poset.minimal) == 4
    assert len(scc(poset)) == 2  # the torsion character must not vanish
    assert len(partial_subposet(poset)) == 2  # no layer sits above them


def test_scc_empty_when_trivial_finite_part_has_torsion(mixed_torsion):
    poset = enumerate_lie_layers(mixed_torsion, 1, ())
    assert scc(poset) == ()
    assert partial_characteristic(mixed_torsion, 1, (), poset).coeffs == ()


def test_scc_count_matches_leading_part(example, mixed_torsion, torsion_only):
    # the zero-dimensional-target count: top coefficient times #F^rank
    for arr in (example, mixed_torsion, torsion_only):
        for fs in ((), (2,), (4,)):
            poset = enumerate_lie_layers(arr, 1, fs)
            assert len(scc(poset)) == leading_part(arr, GroupSpec(f_torsion=fs))


def test_key_lie_sums(example, mixed_torsion):
    for arr in (example, mixed_torsion):
        for fs in ((), (2,), (3,)):
            rows = key_lie_sums(enumerate_lie_layers(arr, 1, fs))
            assert all(r["ok"] for r in rows)


def test_key_lie_sums_minimal_layers(mixed_torsion):
    poset = enumerate_lie_layers(mixed_torsion, 1, (2,))
    rows = key_lie_sums(poset)
    for i in poset.minimal:
        if poset.layers[i].in_partial:
            assert rows[i]["sum"] == 1  # only the empty subset defines it
        else:
            assert rows[i]["sum"] == 0


def test_constituent_via_lie_example(example):
    qp = chromatic_quasi(example)
    for k, g in [(1, 1), (2, 1), (4, 1), (2, 2), (3, 2)]:
        poly, splits = constituent_via_lie(example, k, g)
        assert poly == scale_variable(qp.constituent(k), k, g)
        assert len(splits) == leading_part(
            example, GroupSpec(f_torsion=(k,) if k > 1 else ()))
        total = splits[0]
        for s in splits[1:]:
            total = total + s
        assert total == poly


def test_constituent_via_lie_value_identity(example):
    # chi^par at t=q equals the residue-k constituent at q^(g+1); this only
    # matches the quasi-polynomial itself when gcd(q^(g+1), period) ==
    # gcd(q, period)
    qp = chromatic_quasi(example)
    period = qp.period
    for g in (1, 2):
        for q in range(1, 7):
            poly, _ = constituent_via_lie(example, q, g)
            want = qp.constituent(q)(q ** (g + 1))
            assert poly(q) == want
            if gcd(q ** (g + 1), period) == gcd(q, period):
                assert poly(q) == qp(q ** (g + 1))
    # the guard is real: at g=1, q=2 the two sides differ (6 vs 0)
    poly, _ = constituent_via_lie(example, 2, 1)
    assert poly(2) == 6
    assert qp(4) == 0


def test_value_identity_on_battery():
    for arr in battery_instances(5, 6):
        qp = chromatic_quasi(arr)
        for g in (1, 2):
            for q in range(1, 5):
                poly, _ = constituent_via_lie(arr, q, g)
                assert poly(q) == qp.constituent(q)(q ** (g + 1))
                if gcd(q ** (g + 1), qp.period) == gcd(q, qp.period):
                    assert poly(q) == brute_complement_count(arr, q ** (g + 1))


def test_mobius_against_textbook_recursion(example):
    poset = enumerate_lie_layers(example, 1, (2,))
    mu = brute_mobius(poset_leq_matrix(poset))
    for j in range(poset.n):
        assert poset.mobius[j] == mu[poset.component_of[j]][j]


def test_g_zero_and_caps(example):
    with pytest.raises(ValueError):
        enumerate_lie_layers(example, 0, (2,))
    with pytest.raises(CapExceeded):
        enumerate_lie_layers(example, 1, (6,), max_layers=10)
    with pytest.raises(CapExceeded):
        enumerate_lie_layers(
            Arrangement(FGAbelianGroup(1), [[1]] * 13), 1, ())


def test_empty_arrangement_components_only():
    arr = Arrangement(FGAbelianGroup(2), [])
    poset = enumerate_lie_layers(arr, 2, (3,))
    assert poset.n == 9
    assert total_characteristic(arr, 2, (3,), poset).coeffs == \
        (0, 0, 0, 0, 9)  # 9 * t^(2*2)


def test_first_constituent_matches_trivial_finite_part(example):
    # the k=1 constituent is the line-target partial polynomial
    from gtutte import first_constituent
    assert partial_characteristic(example, 1, ()) == first_constituent(example)
