import random
from itertools import product
from math import gcd, prod
from operator import mul

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gtutte import (Arrangement, FGAbelianGroup, GroupSpec, chromatic_quasi,
                    g_characteristic, g_tutte)
from gtutte import model, oracle, posets
from gtutte.lie import enumerate_lie_layers
from gtutte.model import CapExceeded
from gtutte.oracle import (_desk_sized, battery_instances, brute_complement_count,
                           brute_hom_count, brute_mobius, downs_from_covers,
                           random_arrangement, randomized_battery,
                           reference_g_tutte,
                           reference_strict_downs, reference_subset_components,
                           run_identity_suite, shrink_failing)
from gtutte.poly import UniPoly, substitute_xy
from gtutte.posets import hasse_records
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


def test_brute_complement_cap(monkeypatch):
    arr = Arrangement(FGAbelianGroup(3), [], name="cube")
    monkeypatch.setattr(oracle, "ENUM_CAP", 10**6)
    with pytest.raises(CapExceeded, match=r"^cube: brute complement count at "
                       r"q=1000: 1000000000 homomorphisms exceed the cap 1000000$"):
        brute_complement_count(arr, 1000)
    with pytest.raises(ValueError):
        brute_complement_count(arr, 0)


def _plain_complement_count(arr, q):
    """The complement count one hom at a time: the reference for the
    head/tail split."""
    ranges = [range(q)] * arr.gamma.free_rank
    ranges += [range(0, q, q // gcd(e, q)) for e in arr.gamma.torsion]
    return sum(all(sum(map(mul, vec, phi)) % q for vec in arr.elements)
               for phi in product(*ranges))


def test_split_complement_count_matches_plain_loop():
    for arr in battery_instances(0, 60):
        for q in range(1, 13):
            assert brute_complement_count(arr, q) == \
                _plain_complement_count(arr, q), (arr, q)


@st.composite
def _small_arrangements(draw):
    torsion = draw(st.lists(st.sampled_from((2, 3, 4, 6)), max_size=2))
    if len(torsion) == 2 and torsion[1] % torsion[0]:
        torsion = torsion[:1]
    gamma = FGAbelianGroup(draw(st.integers(0, 3)), tuple(torsion))
    vector = st.lists(st.integers(-5, 5), min_size=gamma.ngens,
                      max_size=gamma.ngens)
    return Arrangement(gamma, draw(st.lists(vector, max_size=5)))


@settings(max_examples=200, derandomize=True, database=None, deadline=None)
@given(_small_arrangements(), st.integers(1, 12))
def test_split_complement_count_sweep(arr, q):
    assert brute_complement_count(arr, q) == _plain_complement_count(arr, q)


@pytest.mark.parametrize("arr, q", [
    (Arrangement(FGAbelianGroup(0), []), 5),
    (Arrangement(FGAbelianGroup(0), [[]]), 5),
    (Arrangement(FGAbelianGroup(2, (2,)), [[1, 2, 1], [0, 0, 0]]), 6),
    # gcd(3, 4) = 1: the torsion coordinate maps to 0 only
    (Arrangement(FGAbelianGroup(2, (3,)), [[1, 1, 1], [2, 0, 2]]), 4),
    # Z^1: the one coordinate is longer than isqrt(total), the tail empty
    (Arrangement(FGAbelianGroup(1), [[2], [3]]), 30),
    # Z + Z/6 at q = 60: the free coordinate heads a 6-hom tail
    (Arrangement(FGAbelianGroup(1, (6,)), [[5, 1], [0, 3], [2, 0]]), 60),
])
def test_split_complement_count_edge_cases(arr, q):
    assert brute_complement_count(arr, q) == _plain_complement_count(arr, q)


def test_brute_complement_allocates_nothing_sized_by_q():
    # Z/2 has two homs at any even q
    arr = Arrangement(FGAbelianGroup(0, (2,)), [[1]])
    assert brute_complement_count(arr, 10**12) == 1


def test_brute_hom_count_examples():
    assert brute_hom_count(FGAbelianGroup(0, (4,)), (6,)) == 2
    assert brute_hom_count(FGAbelianGroup(0), (6, 6)) == 1
    assert brute_hom_count(FGAbelianGroup(0, (2, 2)), (2,)) == 4


def test_brute_hom_count_cap_names_the_source(monkeypatch):
    monkeypatch.setattr(oracle, "ENUM_CAP", 1000)
    with pytest.raises(CapExceeded, match=r"torsion=\(2, 2, 2\)\): brute hom "
                       r"count into \(6, 6\): 46656 candidate maps exceed "
                       r"the cap 1000$"):
        brute_hom_count(FGAbelianGroup(0, (2, 2, 2)), (6, 6))


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


def _layer_posets(example, mixed_torsion, torsion_only):
    """The toric poset and five line-target posets of the fixtures and of
    40 battery instances."""
    for arr in [example, mixed_torsion, torsion_only] + battery_instances(0, 40):
        yield enumerate_toric_layers(arr)
        for fs in ((), (2,), (4,), (2, 2), (6,)):
            yield enumerate_lie_layers(arr, 1, fs)


def test_layer_order_matches_pairwise_containment(example, mixed_torsion,
                                                 torsion_only):
    for poset in _layer_posets(example, mixed_torsion, torsion_only):
        assert downs_from_covers(poset) == reference_strict_downs(poset), \
            poset.arr


def test_layer_components_match_per_mask_reference(example, mixed_torsion,
                                                   torsion_only):
    # the engine enumerates once per distinct spanned lattice; the
    # reference enumerates every subset on its own elements
    for poset in _layer_posets(example, mixed_torsion, torsion_only):
        components, localizations = reference_subset_components(poset)
        assert poset.subset_components == components, poset.arr
        assert tuple(lay.localization for lay in poset.layers) == \
            localizations, poset.arr
        # the per-lattice alternating sums against the per-mask ones
        sums = [0] * poset.n
        for mask, found in components.items():
            for i in found:
                sums[i] += (-1) ** mask.bit_count()
        assert [row["sum"] for row in poset.alternating_subset_sums()] == \
            sums, poset.arr


def test_layer_engine_reads_no_subset_alone(example, monkeypatch):
    # the engine works from the packed lattice counts; only the per-subset
    # view of a poset walks masks, so all else runs with those paths broken
    def refuse(*args):
        raise AssertionError("per-subset path taken")

    monkeypatch.setattr(Arrangement, "subset_data", refuse)
    monkeypatch.setattr(Arrangement, "subset_lattice", refuse)
    for poset in (enumerate_toric_layers(example),
                  enumerate_lie_layers(example, 1, (2,))):
        assert poset.characteristic()
        assert all(row["ok"] for row in poset.alternating_subset_sums())
        assert [r["id"] for r in hasse_records(poset)] == list(range(poset.n))
        with pytest.raises(AssertionError, match="per-subset"):
            poset.subset_components


def _histogram_cases(example, mixed_torsion, torsion_only):
    """Fixtures, battery instances, the empty arrangement and seeded inputs
    with duplicate and zero elements in four ambients."""
    rng = random.Random(7)
    cases = [example, mixed_torsion, torsion_only] + battery_instances(0, 40)
    for gamma in (FGAbelianGroup(3), FGAbelianGroup(2, (2, 6)),
                  FGAbelianGroup(1, (4,)), FGAbelianGroup(0, (2, 4))):
        cases.append(Arrangement(gamma, []))
        f = gamma.free_rank
        for n in (3, 6):
            vecs = [[rng.randint(-3, 3) for _ in range(f)]
                    + [rng.randrange(e) for e in gamma.torsion] for _ in range(n)]
            vecs += [vecs[0], [0] * gamma.ngens]
            cases.append(Arrangement(gamma, vecs))
    return cases


def test_histogram_matches_per_mask_tally(example, mixed_torsion, torsion_only):
    for arr in _histogram_cases(example, mixed_torsion, torsion_only):
        tally: dict = {}
        for mask in arr.masks():
            data = arr.subset_data(mask)
            key = (data.rank, mask.bit_count(), data.torsion_factors)
            tally[key] = tally.get(key, 0) + 1
        assert arr.histogram() == tally, arr


def test_g_tutte_matches_plain_subset_sum(example, mixed_torsion, torsion_only):
    specs = (GroupSpec(reals=1), GroupSpec.circle(), GroupSpec.cyclic(6),
             GroupSpec(f_torsion=(2, 4), circles=1))
    for arr in _histogram_cases(example, mixed_torsion, torsion_only):
        f, r = arr.gamma.free_rank, arr.rank
        for spec in specs:
            assert g_tutte(arr, spec) == reference_g_tutte(arr, spec), (arr, spec)
            # the characteristic polynomial is the Tutte specialization
            assert g_characteristic(arr, spec) == UniPoly.monomial(
                f - r, (-1) ** r) * substitute_xy(g_tutte(arr, spec)), (arr, spec)


def _per_mask_desk_sized(arr: Arrangement) -> bool:
    """The battery size filter as plain per-mask subset sums."""
    if arr.lcm_period() > 360:
        return False
    f = arr.gamma.free_rank
    toric = sum(prod(arr.subset_data(m).torsion_factors) for m in arr.masks())
    lines = [sum(model.multiplicity(arr.subset_data(m), GroupSpec.cyclic(e))
                 * e ** (f - arr.subset_data(m).rank) for m in arr.masks())
             for e in (2, 3, 4)]
    return toric <= 2500 and max(lines) <= 12000


def test_desk_sized_matches_per_mask_sums():
    # five zero vectors over Z^3 + Z/4 + Z/4 pass the period and toric caps
    # but not the line-target cap, which no random candidate below reaches
    cases = [Arrangement(FGAbelianGroup(3, (4, 4)), [[0] * 5] * 5)]
    for seed in (0, 1, 2):
        rng = random.Random(seed)
        cases += [random_arrangement(rng) for _ in range(300)]
    sized_out = 0
    for arr in cases:
        keep = _desk_sized(arr)
        assert keep == _per_mask_desk_sized(arr), arr
        sized_out += not keep and arr.lcm_period() <= 360
    assert sized_out >= 2


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
    first = next(e for e in report.entries if not e.passed)
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


@pytest.mark.parametrize("source", [FGAbelianGroup(1), FGAbelianGroup(2, (2,))])
def test_brute_hom_count_refuses_an_infinite_source(source):
    with pytest.raises(ValueError, match="^source must be finite$"):
        brute_hom_count(source, (2,))


def test_a_shifted_character_fails_the_k_component_count(monkeypatch):
    """Shifting every `kernel_mod` solution's first residue by one keeps
    each component count, the order and the Möbius values, and on this
    instance every check of `enumerate_toric_layers`.  `k_component_count`
    catches it: it reads each layer's order, off its character, against
    the multiplicity of each subset's torsion factors over Z/k, which
    `kernel_mod` does not compute."""
    real = posets.kernel_mod
    monkeypatch.setattr(posets, "kernel_mod", lambda pivots, n, m: [
        ((x[0] + 1) % m,) + x[1:] for x in real(pivots, n, m)])
    arr = list(battery_instances(5, 30))[18]
    assert arr.describe() == "Arrangement(Z^0+Z/4, [(2,), (3,), (2,), (2,)])"
    failed = {e.check for e in run_identity_suite(arr, "shifted")
              if not e.passed}
    assert failed == {"constituent_vs_k_partial", "k_component_count"}
