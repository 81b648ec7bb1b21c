from math import gcd

import pytest

from gtutte import (Arrangement, FGAbelianGroup, GroupSpec, QuasiPolynomial,
                    chromatic_quasi, g_characteristic, leading_part, lie,
                    posets, scale_variable)
from gtutte.invariants import IdentityCheckError
from gtutte.lie import (constituent_via_lie, enumerate_lie_layers,
                        key_lie_sums, partial_subposet, scc,
                        total_characteristic)
from gtutte.model import CapExceeded
from gtutte.oracle import (battery_instances, brute_complement_count,
                           brute_mobius, poset_leq_matrix)
from gtutte.poly import UniPoly
from gtutte.posets import component_shapes, layer_sum


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
        assert layer_sum(poset, partial=True)[1] == \
            total_characteristic(example, 1, fs, poset)


def test_rescaling_identity_various_targets(example, mixed_torsion,
                                            torsion_only):
    for arr in (example, mixed_torsion, torsion_only):
        for g in (1, 2):
            for fs in ((), (2,), (3,), (4,)):
                spec = GroupSpec(f_torsion=fs, reals=g)
                got = layer_sum(enumerate_lie_layers(arr, g, fs),
                                partial=True)[1]
                want = scale_variable(g_characteristic(arr, spec),
                                      spec.f_order, g)
                assert got == want


def test_total_is_partial_of_stripped(mixed_torsion):
    for fs in ((), (2,), (3,)):
        total = total_characteristic(mixed_torsion, 1, fs)
        stripped = layer_sum(enumerate_lie_layers(
            mixed_torsion.without_torsion(), 1, fs), partial=True)[1]
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
    assert layer_sum(poset, partial=True)[1].coeffs == ()


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


def test_constituent_via_lie_example(example, monkeypatch):
    qp = chromatic_quasi(example)
    calls = []
    count = posets._surviving_component_count
    monkeypatch.setattr(posets, "_surviving_component_count",
                        lambda arr, spec: calls.append(spec) or count(arr, spec))
    # every checked sum evaluates its characteristic polynomial through
    # posets' g_characteristic: layer_sum's is the only one
    evaluated = []
    real = posets.g_characteristic
    monkeypatch.setattr(posets, "g_characteristic",
                        lambda arr, spec: evaluated.append(spec) or real(arr, spec))
    for k, g in [(1, 1), (2, 1), (4, 1), (2, 2), (3, 2)]:
        calls.clear()
        evaluated.clear()
        poly, splits = constituent_via_lie(example, k, g)
        assert len(calls) == 1  # the partial subposet is checked once
        assert evaluated == [GroupSpec(f_torsion=(k,) if k > 1 else (),
                                       reals=g)]
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


def test_g_zero_and_caps(example, monkeypatch):
    with pytest.raises(ValueError, match="^example: g must be >= 1"):
        enumerate_lie_layers(example, 0, (2,))
    with monkeypatch.context() as patch:
        # 70 components: the fold stops at the first lattice past the cap
        patch.setattr(posets, "MAX_COMPONENTS", 10)
        with pytest.raises(CapExceeded, match="^example: layer enumeration: "
                           "at least 36 components exceed the cap 10$"):
            enumerate_lie_layers(example, 1, (6,))
        patch.setattr(posets, "MAX_COMPONENTS", 69)
        with pytest.raises(CapExceeded, match="at least 70 components exceed "
                           "the cap 69$"):
            enumerate_lie_layers(example, 1, (6,))
        patch.setattr(posets, "MAX_COMPONENTS", 70)
        enumerate_lie_layers(example, 1, (6,))
    # 13 copies of a generator span two lattices: with F = Z/2 the zero
    # lattice has 2 components and the whole group 1
    assert enumerate_lie_layers(
        Arrangement(FGAbelianGroup(1), [[1]] * 13), 1, (2,)).n == 3


def test_empty_arrangement_components_only():
    arr = Arrangement(FGAbelianGroup(2), [])
    poset = enumerate_lie_layers(arr, 2, (3,))
    assert poset.n == 9
    assert total_characteristic(arr, 2, (3,), poset).coeffs == \
        (0, 0, 0, 0, 9)  # 9 * t^(2*2)


def test_first_constituent_matches_trivial_finite_part(example):
    # the k=1 constituent is the line-target partial polynomial
    assert layer_sum(enumerate_lie_layers(example, 1, ()), partial=True)[1] == \
        QuasiPolynomial(example).constituent(1)


@pytest.mark.parametrize("call", [
    lambda arr: layer_sum(enumerate_lie_layers(arr, 1, (2,)), partial=True),
    lambda arr: total_characteristic(arr, 1, (2,)),
    lambda arr: total_characteristic(arr, 1, (2,),
                                     enumerate_lie_layers(arr, 1, (2,))),
    lambda arr: constituent_via_lie(arr, 2, 1),
], ids=["partial", "total", "total-poset", "constituent"])
def test_identity_check_failure_raises(example, monkeypatch, call):
    # a wrong independent polynomial must make every checked sum raise
    monkeypatch.setattr(posets, "g_characteristic",
                        lambda arr, spec: UniPoly([7]))
    with pytest.raises(IdentityCheckError):
        call(example)


def test_constituent_via_lie_split_check_raises(example, monkeypatch):
    # dropping every surviving component breaks the split-sums-to-whole check
    real = lie.layer_sum
    monkeypatch.setattr(lie, "layer_sum", lambda poset, partial: (
        (), real(poset, partial=partial)[1]))
    with pytest.raises(IdentityCheckError, match="split"):
        constituent_via_lie(example, 2, 1)


@pytest.mark.parametrize("k", [0, -2])
def test_a_nonpositive_k_is_refused_by_name(example, k):
    with pytest.raises(ValueError, match="^example: k must be positive$"):
        constituent_via_lie(example, k, 1)
