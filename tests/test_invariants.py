import random
import time
from math import gcd

import pytest

from gtutte import (Arrangement, FGAbelianGroup, GroupSpec, QuasiPolynomial,
                    arithmetic_tutte, beta_coefficients, chen_wang_compare,
                    chromatic_quasi, g_characteristic, g_tutte, leading_part,
                    minimal_period, reciprocity_eval, toric_characteristic)
from gtutte.intlinalg import IntMatrix, hom_enumerate
from gtutte.invariants import MAX_PERIOD, HypothesisError
from gtutte.model import CapExceeded
from gtutte.poly import UniPoly


def test_g_tutte_empty_arrangement_free_group():
    arr = Arrangement(FGAbelianGroup(2), [])
    assert g_tutte(arr, GroupSpec.circle()).triples() == [[0, 0, 1]]


def test_g_tutte_real_target_is_classical(example):
    # all multiplicities collapse to 1: two parallel elements plus one more
    assert g_tutte(example, GroupSpec(reals=1)).triples() == [[1, 1, 1], [2, 0, 1]]


def test_real_target_matches_any_torsion_free_spec(example):
    base = g_tutte(example, GroupSpec(reals=1))
    assert g_tutte(example, GroupSpec(reals=3)) == base
    assert g_tutte(example, GroupSpec()) == base


def test_arithmetic_tutte_example(example):
    assert arithmetic_tutte(example).triples() == [[1, 0, 3], [1, 1, 2], [2, 0, 1]]


def test_arithmetic_tutte_single_even_element():
    arr = Arrangement(FGAbelianGroup(1), [[2]])
    assert arithmetic_tutte(arr).triples() == [[0, 0, 1], [1, 0, 1]]
    assert arithmetic_tutte(Arrangement(FGAbelianGroup(1), [])).triples() == \
        [[0, 0, 1]]


def test_characteristic_from_substitution_matches_direct_sum(example):
    # independent route: the alternating subset sum with t^(corank) weights
    from gtutte.model import multiplicity
    for spec in (GroupSpec.cyclic(2), GroupSpec.circle(),
                 GroupSpec(f_torsion=(2,), reals=1)):
        direct = UniPoly()
        for mask in example.masks():
            data = example.subset_data(mask)
            m = multiplicity(data, spec)
            sign = -1 if mask.bit_count() % 2 else 1
            direct = direct + UniPoly.monomial(
                example.gamma.free_rank - data.rank, sign * m)
        assert g_characteristic(example, spec) == direct


def test_characteristic_example_constituents(example):
    assert g_characteristic(example, GroupSpec.cyclic(1)).coeffs == (1, -2, 1)
    assert g_characteristic(example, GroupSpec.cyclic(2)).coeffs == (2, -3, 1)
    assert g_characteristic(example, GroupSpec.cyclic(4)).coeffs == (4, -5, 1)


def test_chromatic_quasi_example(example):
    qp = chromatic_quasi(example)
    assert qp.period == 4
    assert [c.coeffs for c in qp.constituents] == \
        [(1, -2, 1), (2, -3, 1), (1, -2, 1), (4, -5, 1)]
    assert minimal_period(qp) == 4


def _divisors_evaluated(monkeypatch):
    """Spy on the specs that reach `model.multiplicity`: returns a callable
    giving the sorted targets that `qp` evaluated so far, once each is
    checked to have taken one multiplicity per term of the gcd form."""
    from collections import Counter

    from gtutte import model
    calls = []
    real = model.multiplicity
    monkeypatch.setattr(model, "multiplicity",
                        lambda key, spec: calls.append(spec) or real(key, spec))

    def evaluated(qp):
        per_target = Counter(spec.f_order for spec in calls)
        assert set(per_target.values()) <= {len(qp.arr.signed_classes())}
        return sorted(per_target)
    return evaluated


def test_constituents_computed_once_per_divisor(monkeypatch):
    arr = Arrangement(FGAbelianGroup(1), [[12], [4], [3]])
    direct = [g_characteristic(arr, GroupSpec.cyclic(k)) for k in range(1, 13)]
    evaluated = _divisors_evaluated(monkeypatch)
    qp = chromatic_quasi(arr)
    assert qp.period == 12
    assert list(qp.constituents) == direct
    assert evaluated(qp) == [1, 2, 3, 4, 6, 12]


def test_chromatic_quasi_empty_arrangement():
    arr = Arrangement(FGAbelianGroup(3), [])
    qp = chromatic_quasi(arr)
    assert qp.period == 1
    assert qp.constituents[0].coeffs == (0, 0, 0, 1)


def test_first_constituent_zero_with_torsion_element(mixed_torsion):
    assert QuasiPolynomial(mixed_torsion).constituent(1).coeffs == ()
    assert chromatic_quasi(mixed_torsion).constituent(1).coeffs == ()


def test_first_constituent_example(example):
    assert QuasiPolynomial(example).constituent(1).coeffs == (1, -2, 1)
    empty = Arrangement(FGAbelianGroup(2), [])
    assert QuasiPolynomial(empty).constituent(1).coeffs == (0, 0, 1)


def test_constituents_depend_on_gcd_with_period(example):
    from math import gcd
    qp = chromatic_quasi(example)
    for k in range(1, qp.period + 1):
        for k2 in range(1, qp.period + 1):
            if gcd(k, qp.period) == gcd(k2, qp.period):
                assert qp.constituent(k) == qp.constituent(k2)


def test_toric_characteristic_examples(example):
    assert toric_characteristic(example).coeffs == (4, -5, 1)
    assert toric_characteristic(
        Arrangement(FGAbelianGroup(1), [[2]])).coeffs == (-2, 1)
    assert toric_characteristic(
        Arrangement(FGAbelianGroup(1), [[1]])).coeffs == (-1, 1)


def test_toric_characteristic_is_one_evaluation(example, monkeypatch):
    # every quotient torsion factor divides the lcm period P, so the S^1
    # sum is the constituent at P term by term: one evaluation, no compare
    from gtutte import invariants
    from gtutte.oracle import battery_instances
    for arr in battery_instances(0, 60) + [example]:
        if arr.gamma.torsion or (0,) * arr.gamma.ngens in arr.elements:
            continue
        assert toric_characteristic(arr) == \
            QuasiPolynomial(arr).constituent(arr.lcm_period()), arr
    specs = []
    real = invariants.g_characteristic
    monkeypatch.setattr(invariants, "g_characteristic",
                        lambda arr, spec: specs.append(spec) or real(arr, spec))
    assert toric_characteristic(example).coeffs == (4, -5, 1)
    assert specs == [GroupSpec.circle()]


def test_toric_characteristic_refuses_bad_hypotheses():
    with pytest.raises(HypothesisError):
        toric_characteristic(Arrangement(FGAbelianGroup(1, (2,)), [[1, 0]]))
    with pytest.raises(HypothesisError):
        toric_characteristic(Arrangement(FGAbelianGroup(2), [[0, 0]]))


def test_zero_element_kills_every_constituent():
    arr = Arrangement(FGAbelianGroup(2), [[0, 0], [1, 1]])
    qp = chromatic_quasi(arr)
    assert all(c.coeffs == () for c in qp.constituents)


def test_beta_examples(example):
    assert beta_coefficients(example, 1) == [1, 2, 1]
    assert beta_coefficients(example, 2) == [2, 3, 1]
    assert beta_coefficients(example, 4) == [4, 5, 1]


def test_chen_wang_example(example):
    rows = chen_wang_compare(example, 1, 2)
    assert [(r["beta_a"], r["beta_b"], r["ok"]) for r in rows] == \
        [(1, 2, True), (2, 3, True), (1, 1, True)]
    assert all(r["ok"] for r in chen_wang_compare(example, 2, 4))
    eq = chen_wang_compare(example, 3, 3)
    assert all(r["beta_a"] == r["beta_b"] for r in eq)
    with pytest.raises(ValueError):
        chen_wang_compare(example, 2, 3)


def test_reciprocity_examples(example):
    for q in range(1, 13):
        assert reciprocity_eval(example, 1, q) == (q + 1) ** 2
    assert reciprocity_eval(example, 4, 4) == 40
    arr = Arrangement(FGAbelianGroup(3), [])
    assert reciprocity_eval(arr, 1, 5) == 125


def test_reciprocity_nonnegative_for_all_residues(example):
    qp = chromatic_quasi(example)
    for k in range(1, qp.period + 1):
        for q in range(1, 13):
            assert reciprocity_eval(example, k, q, qp) >= 0


def test_leading_part_examples(example):
    assert leading_part(example, GroupSpec(f_torsion=(2,))) == 4
    assert leading_part(example, GroupSpec(f_torsion=(4,))) == 16
    assert leading_part(example, GroupSpec()) == 1


def test_leading_coefficient_is_surviving_torsion_hom_count():
    # enumerate torsion characters directly and keep those killing no
    # torsion element; compare with the top-degree coefficient
    cases = [
        Arrangement(FGAbelianGroup(1, (2,)), [[0, 1]]),
        Arrangement(FGAbelianGroup(1, (2,)), [[1, 0], [0, 1]]),
        Arrangement(FGAbelianGroup(2, (2, 4)), [[1, 0, 1, 2], [0, 0, 1, 0]]),
        Arrangement(FGAbelianGroup(0, (6,)), [[2], [3]]),
    ]
    specs = [GroupSpec.cyclic(k) for k in (1, 2, 3, 4, 6)] + \
        [GroupSpec(f_torsion=(2,), reals=1), GroupSpec(f_torsion=(2, 4))]
    for arr in cases:
        gamma = arr.gamma
        f = gamma.free_rank
        tor = FGAbelianGroup(0, gamma.torsion)
        torsion_vecs = [v[f:] for i, v in enumerate(arr.elements)
                        if arr.torsion_mask() >> i & 1]
        for spec in specs:
            # characters of the torsion part into F x circles, via a finite stand-in
            stand_in = spec.f_torsion + (gamma.exponent(),) * spec.circles
            homs = hom_enumerate(IntMatrix.from_rows([], tor.ngens), tor,
                                 stand_in or (1,))
            survivors = 0
            for h in homs:
                ok = True
                for vec in torsion_vecs:
                    img = [sum(int(a) * h[i][t] for i, a in enumerate(vec))
                           % (stand_in or (1,))[t]
                           for t in range(len(stand_in or (1,)))]
                    if not any(img):
                        ok = False
                        break
                if ok:
                    survivors += 1
            lead = g_characteristic(arr, spec).coefficient(gamma.free_rank)
            assert lead == survivors


def _divisor_scan(qp):
    """The least divisor p of the period with constituent(d) ==
    constituent(gcd(d, p)) for every divisor d, read off the dense view (by
    the Chinese remainder theorem, some j = d mod p has gcd(j, period) =
    gcd(d, p)); p = period always passes."""
    dense = qp.constituents
    divisors = [d for d in range(1, qp.period + 1) if qp.period % d == 0]
    return next(p for p in divisors
                if all(dense[d - 1] == dense[gcd(d, p) - 1] for d in divisors))


def test_minimal_period_collapses_duplicates(example):
    qp = chromatic_quasi(example)
    assert minimal_period(qp) == 4
    constant = chromatic_quasi(Arrangement(FGAbelianGroup(1), [[1]]))
    assert constant.period == 1 and minimal_period(constant) == 1
    # duplicated elements change nothing
    dup = Arrangement(example.gamma, list(example.elements) + [[0, 2]])
    assert minimal_period(chromatic_quasi(dup)) == 4
    # the gcd-form expansion against the dense scan over every residue and
    # against the divisor scan
    from gtutte.oracle import battery_instances
    zero = Arrangement(FGAbelianGroup(1), [[0], [2], [6]])
    # no class cancels, but the coefficients of [2 | k] do: 3 - 3 * 1
    cancel = Arrangement(FGAbelianGroup(0, (2, 2)), [[1, 1], [1, 0], [0, 1]])
    collapsed = 0
    for arr in battery_instances(0, 300) + battery_instances(7, 300) + [
            zero, cancel]:
        qp = chromatic_quasi(arr)
        dense = next(p for p in range(1, qp.period + 1) if qp.period % p == 0
                     and all(qp.constituents[k] == qp.constituents[k % p]
                             for k in range(qp.period)))
        assert minimal_period(qp) == dense == _divisor_scan(qp), arr
        collapsed += dense < qp.period
    assert collapsed == 53
    for arr, period in ((zero, 6), (cancel, 2)):
        qp = chromatic_quasi(arr)
        assert qp.period == period and minimal_period(qp) == 1


def test_period_collapse_on_free_ambients():
    # Higashitani, Tran and Yoshinaga: on a free ambient with no zero
    # element the minimal period is the lcm period
    from gtutte.oracle import battery_instances
    rng = random.Random(0)
    free = [arr for arr in battery_instances(0, 300) + battery_instances(7, 300)
            if not arr.gamma.torsion and (0,) * arr.gamma.ngens not in arr.elements]
    near_cap = Arrangement(FGAbelianGroup(3), [
        [16, -4, 3], [-16, 14, 3], [-7, -7, -10], [-14, -13, -13],
        [-12, -10, 4], [12, -6, -12]])
    huge = Arrangement(FGAbelianGroup(3), [
        [rng.randint(-1000, 1000) for _ in range(3)] for _ in range(6)])
    assert len(free) > 100
    assert (len(str(near_cap.lcm_period())), len(str(huge.lcm_period()))) == \
        (38, 160)
    for arr in free + [near_cap, huge]:
        qp = QuasiPolynomial(arr)
        start = time.perf_counter()
        assert minimal_period(qp) == qp.period, arr
        assert time.perf_counter() - start < 1, arr


def test_quasi_polynomial_past_the_dense_cap(monkeypatch):
    P = 10**12
    arr = Arrangement(FGAbelianGroup(2), [[P, 0], [0, 1], [1, 1]])
    qp = QuasiPolynomial(arr)
    assert qp.period == P
    ks = (1, 2, 3, 10**6, 2 * P + 2, 5 * 10**11)
    expected = {k: g_characteristic(arr, GroupSpec.cyclic(gcd(k, P))) for k in ks}
    evaluated = _divisors_evaluated(monkeypatch)
    assert all(qp.constituent(k) == expected[k] for k in ks)
    assert evaluated(qp) == [1, 2, 10**6, 5 * 10**11]
    # the minimal period reads the gcd form, with no dense view
    start = time.perf_counter()
    assert minimal_period(QuasiPolynomial(arr)) == P
    assert time.perf_counter() - start < 1
    # the dense view and everything built on it refuse at once
    for refused in (lambda: chromatic_quasi(arr), lambda: qp.constituents,
                    qp.serialize):
        start = time.perf_counter()
        with pytest.raises(CapExceeded, match=f"exceeds the cap {MAX_PERIOD}"):
            refused()
        assert time.perf_counter() - start < 1


def test_gcd_form_matches_the_characteristic_sum():
    from gtutte.oracle import battery_instances
    for arr in battery_instances(31, 40):
        qp = QuasiPolynomial(arr)
        for k in range(1, 2 * qp.period + 1):
            assert qp.constituent(k) == \
                g_characteristic(arr, GroupSpec.cyclic(k)), (arr, k)
    P = 10**12
    arr = Arrangement(FGAbelianGroup(2), [[P, 0], [0, 1], [1, 1]])
    qp = QuasiPolynomial(arr)
    rng = random.Random(2008)
    for k in (rng.randrange(1, 10**200) for _ in range(20)):
        assert qp.constituent(k) == g_characteristic(arr, GroupSpec.cyclic(k)), k


def test_signed_classes_match_the_per_mask_sum():
    # the reference runs `cokernel` on each subset's own rows, sharing no
    # code with the lattice fold that fills the histogram
    from gtutte.model import SubsetClass
    from gtutte.oracle import battery_instances
    torsion10 = Arrangement(FGAbelianGroup(2, (2, 6)), [
        [-2, -2, 0, 1], [2, 2, 0, 2], [-2, -2, 1, 0], [0, -1, 1, 3],
        [1, -2, 0, 4], [-1, 2, 0, 1], [2, 2, 0, 0], [-1, 2, 0, 3],
        [-2, 0, 1, 2], [1, 0, 1, 5]])
    for arr in battery_instances(35, 40) + [torsion10]:
        reference: dict = {}
        for mask in arr.masks():
            data = arr.subset_data(mask)
            key = SubsetClass(data.rank, 0, data.torsion_factors)
            reference[key] = reference.get(key, 0) + \
                (-1) ** bin(mask).count("1")
        assert arr.signed_classes() == \
            {key: count for key, count in reference.items() if count}, arr


def test_gcd_form_refuses_where_the_characteristic_sum_does():
    from gtutte.invariants import MAX_DEGREE
    example = Arrangement(FGAbelianGroup(2), [[-1, 1], [0, 2], [0, 4]])
    with pytest.raises(ValueError, match="must be positive"):
        QuasiPolynomial(example).constituent(0)
    with pytest.raises(ValueError, match="must be positive"):
        g_characteristic(example, GroupSpec.cyclic(0))
    wide = Arrangement(FGAbelianGroup(MAX_DEGREE + 1), [])
    # m(S) = gcd(10^4400, k) passes the int-to-string limit at k = 10^4400
    deep = Arrangement(FGAbelianGroup(1), [[10**4400]], name="deep")
    # unnamed, the same arrangement is named by its ambient and element count
    unnamed = Arrangement(FGAbelianGroup(1), [[10**4400]])
    for arr, k, cause in ((wide, 1, f"degree {MAX_DEGREE + 1} exceeds the cap"),
                          (deep, 10**4400, "coefficients may reach 4401 digits"),
                          (unnamed, 10**4400, "Arrangement(Z^1, 1 elements): "
                           "finite target: coefficients may reach 4401 digits")):
        refusals = []
        for path in (lambda: QuasiPolynomial(arr).constituent(k),
                     lambda: g_characteristic(arr, GroupSpec.cyclic(k))):
            with pytest.raises(CapExceeded) as exc:
                path()
            refusals.append(str(exc.value))
        assert refusals[0] == refusals[1] and cause in refusals[0], refusals
    for arr in (deep, unnamed):
        assert QuasiPolynomial(arr).constituent(10**4000) == \
            g_characteristic(arr, GroupSpec.cyclic(10**4000))


def test_duplicate_element_invariance():
    rng = random.Random(13)
    from gtutte.oracle import battery_instances
    for arr in battery_instances(99, 6):
        if arr.n == 0:
            continue
        i = rng.randrange(arr.n)
        dup = Arrangement(arr.gamma,
                          list(arr.elements) + [list(arr.elements[i])])
        qa, qb = chromatic_quasi(arr), chromatic_quasi(dup)
        assert qa.period == qb.period
        assert qa.constituents == qb.constituents


def test_tutte_coefficients_are_nonnegative_over_the_circle_and_the_line():
    # D'Adderio and Moci (Adv. Math. 2013): the arithmetic Tutte polynomial
    # (the circle target) of a list in a finitely generated abelian group
    # has nonnegative coefficients; over R this is Tutte positivity.  Only
    # these two proved targets are pinned
    rng = random.Random(17)
    chains = ((), (), (2,), (3,), (6,), (2, 4))
    t0 = time.perf_counter()
    for _ in range(200):
        gamma = FGAbelianGroup(rng.randint(1, 4), rng.choice(chains))
        arr = Arrangement(gamma, [
            [rng.randint(-3, 3) for _ in range(gamma.ngens)]
            for _ in range(rng.randint(0, 16))])
        for spec in (GroupSpec.circle(), GroupSpec(reals=1)):
            negative = [t for t in g_tutte(arr, spec).triples() if t[2] < 0]
            assert not negative, (arr, spec, negative)
    elapsed = time.perf_counter() - t0
    assert elapsed < 6.0, f"{elapsed:.2f}s > 6.0s"


@pytest.mark.parametrize("q", [0, -3])
def test_reciprocity_refuses_a_nonpositive_q(example, q):
    with pytest.raises(ValueError, match="^example: q must be positive$"):
        reciprocity_eval(example, 1, q)
