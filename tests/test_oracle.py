import pytest

from gtutte import Arrangement, FGAbelianGroup, chromatic_quasi
from gtutte import model
from gtutte.lie import enumerate_lie_layers
from gtutte.model import CapExceeded
from gtutte.oracle import (battery_instances, brute_complement_count,
                           brute_hom_count, brute_mobius, randomized_battery,
                           reference_strict_downs, run_identity_suite,
                           shrink_failing)
from gtutte.toric import enumerate_toric_layers


def test_brute_complement_example(example):
    assert brute_complement_count(example, 5) == 16
    assert brute_complement_count(example, 2) == 0
    assert brute_complement_count(example, 1) == 0
    assert brute_complement_count(Arrangement(FGAbelianGroup(2), []), 1) == 1


def test_brute_complement_with_torsion(mixed_torsion):
    # values: q * gcd(2, q) total homs, survivors computed symbolically too
    qp = chromatic_quasi(mixed_torsion)
    for q in range(1, 13):
        assert brute_complement_count(mixed_torsion, q) == qp(q)


def test_brute_complement_cap():
    arr = Arrangement(FGAbelianGroup(3), [])
    with pytest.raises(CapExceeded):
        brute_complement_count(arr, 1000, cap=10**6)
    with pytest.raises(ValueError):
        brute_complement_count(arr, 0)


def test_brute_hom_count_examples():
    assert brute_hom_count(FGAbelianGroup(0, (4,)), (6,)) == 2
    assert brute_hom_count(FGAbelianGroup(0), (6, 6)) == 1
    assert brute_hom_count(FGAbelianGroup(0, (2, 2)), (2,)) == 4


def chain_leq(n):
    return [[i <= j for j in range(n)] for i in range(n)]


def test_brute_mobius_chain():
    mu = brute_mobius(chain_leq(4))
    assert mu[0][0] == 1 and mu[0][1] == -1
    assert mu[0][2] == 0 and mu[0][3] == 0


def test_brute_mobius_diamond():
    # bottom 0, two middles, top 3
    leq = [[True, True, True, True],
           [False, True, False, True],
           [False, False, True, True],
           [False, False, False, True]]
    mu = brute_mobius(leq)
    assert mu[0][1] == mu[0][2] == -1
    assert mu[0][3] == 1


def test_brute_mobius_boolean_lattice():
    subsets = list(range(8))  # bitmask subsets of a 3-set
    leq = [[(a & b) == a for b in subsets] for a in subsets]
    mu = brute_mobius(leq)
    for b in subsets:
        assert mu[0][b] == (-1) ** bin(b).count("1")
    assert mu[0][7] == -1


def test_identity_suite_on_fixtures(example, mixed_torsion, torsion_only):
    for arr in (example, mixed_torsion, torsion_only):
        entries = run_identity_suite(arr, "fixture")
        assert entries and all(e.passed for e in entries)


def test_layer_order_matches_pairwise_containment(example, mixed_torsion,
                                                 torsion_only):
    for arr in [example, mixed_torsion, torsion_only] + battery_instances(0, 40):
        posets = [enumerate_toric_layers(arr)] + [
            enumerate_lie_layers(arr, 1, fs)
            for fs in ((), (2,), (4,), (2, 2), (6,))]
        for poset in posets:
            assert poset.strict_downs == reference_strict_downs(poset), arr


def test_battery_counts_and_determinism():
    empty = randomized_battery(seed=0, count=0)
    assert empty.passed and empty.entries == []
    a = randomized_battery(seed=3, count=4)
    b = randomized_battery(seed=3, count=4)
    assert a.passed
    assert a.to_records() == b.to_records()
    assert [e.instance for e in a.entries] == [e.instance for e in b.entries]


def test_battery_instance_distribution():
    for arr in battery_instances(17, 40):
        assert arr.gamma.free_rank <= 3
        assert len(arr.gamma.torsion) <= 2
        assert all(e <= 6 for e in arr.gamma.torsion)
        assert arr.n <= 5
        f = arr.gamma.free_rank
        for vec in arr.elements:
            assert all(-4 <= x <= 4 for x in vec[:f])


def test_report_serialization():
    report = randomized_battery(seed=1, count=2)
    text = report.to_text()
    assert text.splitlines()[-1].startswith("total ")
    records = report.to_records()
    assert all(set(r) == {"instance", "check", "param", "expected",
                          "computed", "passed"} for r in records)


def test_corrupted_multiplicity_is_caught(monkeypatch):
    real = model.multiplicity

    def corrupted(data, spec):
        return real(data, spec) + 1

    monkeypatch.setattr(model, "multiplicity", corrupted)
    report = randomized_battery(seed=0, count=2)
    assert not report.passed
    first = report.first_failure
    assert first is not None
    # the report pinpoints the disagreeing (instance, parameter) pair
    assert first.instance.startswith("#0")
    assert first.param
    failing_checks = {e.check for e in report.entries if not e.passed}
    assert "quasi_vs_brute" in failing_checks or \
        "k_component_count" in failing_checks


def test_shrink_failing_minimizes():
    arr = Arrangement(FGAbelianGroup(2), [[3, 1], [0, 2], [2, 2]])

    def fails(candidate):
        return any(any(v) for v in candidate.elements)

    small = shrink_failing(arr, fails)
    assert small.n == 1
    assert sorted(abs(x) for x in small.elements[0]) in ([0, 1], [1, 1])
