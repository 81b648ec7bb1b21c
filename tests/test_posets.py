import json
import random
import re
from math import gcd, lcm

import pytest
from test_cli import run
from test_oracle import _layer_posets
from test_root_systems import type_a

from gtutte import (Arrangement, FGAbelianGroup, GroupSpec, model, oracle,
                    posets)
from gtutte.invariants import HypothesisError, IdentityCheckError
from gtutte.lie import enumerate_lie_layers
from gtutte.model import multiplicity
from gtutte.oracle import (battery_instances, brute_mobius, downs_from_covers,
                           mobius_all, poset_leq_matrix, recursion_mobius,
                           reference_strict_downs, reference_subset_components,
                           run_identity_suite)
from gtutte.intlinalg import IntMatrix
from gtutte.poly import UniPoly
from gtutte.posets import (checked_sum, enumerate_layers, k_total_subposet,
                           layer_sum, partial_subposet)
from gtutte.toric import enumerate_toric_layers

MIXED = (GroupSpec(f_torsion=(2,), circles=1),
         GroupSpec(f_torsion=(2, 2), circles=1),
         GroupSpec(circles=1, reals=1))


def _layer_instances(arr, spec):
    """Layer instances summed over all subsets, off the histogram:
    multiplicity(S) * #F^(free rank - rank S) per subset."""
    f = arr.gamma.free_rank
    return sum(count * multiplicity(key, spec) * spec.f_order ** (f - key.rank)
               for key, count in arr.histogram().items())


def _mixed_posets(count=10):
    """Posets of the first `count` nonempty battery instances whose layer
    instances stay under 500 for every mixed target."""
    found = []
    for arr in battery_instances(0, 60):
        if arr.n and all(_layer_instances(arr, spec) <= 500 for spec in MIXED):
            found.append([(arr, enumerate_layers(arr, spec)) for spec in MIXED])
        if len(found) == count:
            return [pair for pairs in found for pair in pairs]
    raise AssertionError("too few small battery instances")


def test_mixed_targets_match_identities_and_oracle():
    for arr, poset in _mixed_posets():
        spec = poset.spec
        checked_sum(poset, partial_subposet(poset), arr, spec, "partial")
        checked_sum(poset, None, arr.without_torsion(), spec, "total")
        mobius_all(poset)
        mu = brute_mobius(poset_leq_matrix(poset))
        assert [mu[poset.component_of[i]][i] for i in range(poset.n)] == \
            list(poset.mobius), (arr, spec)
        assert downs_from_covers(poset) == reference_strict_downs(poset), \
            (arr, spec)
        components, localizations = reference_subset_components(poset)
        assert poset.subset_components == components, (arr, spec)
        assert tuple(lay.localization for lay in poset.layers) == \
            localizations, (arr, spec)


def test_layer_sum_matches_the_explicit_target_on_mixed_targets():
    for arr, poset in _mixed_posets():
        for partial in (False, True):
            indices, poly = layer_sum(poset, partial=partial)
            assert indices == (partial_subposet(poset) if partial
                               else poset.all_indices()), (arr, poset.spec)
            assert poly == checked_sum(
                poset, indices, arr if partial else arr.without_torsion(),
                poset.spec, "explicit target"), (arr, poset.spec, partial)


def test_layer_sum_refuses_k_off_the_circle(example):
    # the k-torsion identity is proved only over S^1
    for spec in MIXED + (GroupSpec(reals=1), GroupSpec(f_torsion=(2,), reals=1)):
        poset = enumerate_layers(example, spec)
        with pytest.raises(HypothesisError, match="^example: k-torsion"):
            layer_sum(poset, 2)


def _pairwise_covers(downs, indices):
    """Cover pairs by the definition: i below j in the selection, with no
    selected layer in between."""
    selected = set(indices)
    pairs = []
    for j in selected:
        below = downs[j] & selected
        pairs += [(i, j) for i in below
                  if not any(i in downs[m] for m in below)]
    return sorted(pairs)


def test_covers_match_the_definition_on_any_selection():
    # the selections layer_sum makes: all layers, the partial subposet, and
    # the k-torsion subposet for every k dividing the lcm of the layer
    # orders, each also cut to partial
    for arr, poset in _mixed_posets():
        downs = reference_strict_downs(poset)
        partial = set(partial_subposet(poset))
        period = lcm(*(lay.order for lay in poset.layers))
        selections = [poset.all_indices()] + [
            k_total_subposet(poset, k)
            for k in range(1, period + 1) if period % k == 0]
        selections += [[i for i in sel if i in partial] for sel in selections]
        for sel in selections:
            assert poset.covers(sel) == _pairwise_covers(downs, sel), \
                (arr, poset.spec, sel)


def test_order_tests_only_adjacent_ranks_with_nested_localizations(example):
    # the root of a component lies below all of it, and every longer
    # relation passes through a layer one rank up, so leq_fn is only asked
    # about pairs one rank apart whose localizations nest
    mixed = Arrangement(FGAbelianGroup(2, (2,)),
                        [[1, 0, 1], [0, 2, 0], [1, 1, 0], [1, -1, 1]])
    built = [enumerate_toric_layers(example),
             enumerate_toric_layers(mixed),
             enumerate_lie_layers(example, 1, (2, 2)),
             enumerate_lie_layers(mixed, 2, (2,))]
    for poset in built:
        reference = reference_strict_downs(poset)
        index = {id(lay): i for i, lay in enumerate(poset.layers)}
        asked = []

        def leq(x, y):
            # the layer with x's span that lies below y
            asked.append((x, y))
            found = [poset.layers[i] for i in reference[index[id(y)]]
                     if poset.layers[i].span.data == x.span.data]
            assert len(found) == 1, (x.key, y.key)
            return found[0]

        rebuilt = posets.LayerPoset(poset.arr, poset.layers,
                                    poset.lattice_components, leq)
        assert downs_from_covers(rebuilt) == reference, poset.arr
        assert asked, poset.arr
        for x, y in asked:
            assert y.rank == x.rank + 1, (x.key, y.key)
            assert not x.localization & ~y.localization, (x.key, y.key)
            assert x.component == y.component, (x.key, y.key)
        pairs = [(id(y), x.span.data) for x, y in asked]
        assert len(set(pairs)) == len(pairs), poset.arr


def _order_calls(monkeypatch):
    """Wrap the fourth argument of every LayerPoset built from now on in a
    pass-through that records (x, y, answer), as the benchmark's tracer
    wraps it; the unwrapped functions are kept too."""
    calls, functions = [], []
    real = posets.LayerPoset.__init__

    def init(self, arr, layers, lattice_components, cover_fn):
        functions.append(cover_fn)

        def counted(x, y):
            found = cover_fn(x, y)
            calls.append((x, y, found))
            return found

        real(self, arr, layers, lattice_components, counted)

    monkeypatch.setattr(posets.LayerPoset, "__init__", init)
    return calls, functions


@pytest.mark.parametrize("gamma, vectors, spec, covers_above_rank_1", [
    # the benchmark's large_period base: 97,477 nested candidates
    (FGAbelianGroup(3),
     [[-2, -3, 1], [9, -3, -1], [-7, 3, 9], [-1, -3, 3], [0, 5, 5],
      [0, -6, 4]], GroupSpec.circle(), 10_550),
    (FGAbelianGroup(2, (2,)),
     [[1, 0, 1], [0, 2, 0], [1, 1, 0], [1, -1, 1], [2, 1, 1]],
     GroupSpec(f_torsion=(2,), circles=1), 166),
])
def test_every_order_call_finds_a_cover(gamma, vectors, spec,
                                        covers_above_rank_1, monkeypatch):
    calls, _ = _order_calls(monkeypatch)
    poset = enumerate_layers(Arrangement(gamma, vectors), spec)
    index = {id(lay): i for i, lay in enumerate(poset.layers)}
    above = [(i, j) for i, j in poset.covers() if poset.layers[j].rank > 1]
    assert len(calls) == len(above) == covers_above_rank_1
    assert sorted((index[id(found)], index[id(y)])
                  for _, y, found in calls) == above


def test_an_order_lookup_miss_names_the_instance(monkeypatch):
    # [0,1](0) does not nest in [1,1](1/2): the row (0, 1) is no integer
    # combination of (1, 1), so span(x) does not lie in span(y), as the
    # span of a real cover does
    _, functions = _order_calls(monkeypatch)
    arr = Arrangement(FGAbelianGroup(2), [[2, 2], [1, 0], [0, 1]], name="miss")
    poset = enumerate_toric_layers(arr)
    by_key = {lay.key: lay for lay in poset.layers}
    x, y = by_key["[0,1](0)"], by_key["[1,1](1/2)"]
    assert x.localization & ~y.localization
    with pytest.raises(IdentityCheckError,
                       match=r"^miss: layer order: .*\[\(0, 1\)\]"):
        functions[0](x, y)


@pytest.mark.parametrize("upper_key", ["[1,0;0,1](1/2,0)", "[1,0;0,1](0,0)"])
def test_an_order_index_miss_names_the_instance(upper_key, monkeypatch):
    # the index keys components by identity: an equal copy of y's shared
    # component tuple finds no layer, whether or not y contains 0
    _, functions = _order_calls(monkeypatch)
    arr = Arrangement(FGAbelianGroup(2), [[2, 0], [1, 0], [0, 1]], name="miss")
    poset = enumerate_toric_layers(arr)
    by_key = {lay.key: lay for lay in poset.layers}
    x, y = by_key["[0,1](0)"], by_key[upper_key]
    assert functions[0](x, y) in poset.layers
    copy = y._replace(component=tuple(list(y.component)))
    assert copy.component == y.component and copy.component is not y.component
    with pytest.raises(IdentityCheckError, match=r"^miss: layer order: no "
                       r"layer of span \[\(0, 1\)\] contains "
                       + re.escape(upper_key) + "$"):
        functions[0](x, copy)


def test_each_span_pair_is_solved_once_and_never_through_zero(monkeypatch):
    # the CI's torsion6.json: the order solves each row of a lower span
    # over an upper span once per pair, and nothing for an upper layer
    # through 0, whose values on every lower span are 0
    solves = _counted(monkeypatch, posets, "hnf_solve")
    seen, lookups, through_zero = set(), 0, 0
    real = posets.LayerPoset.__init__

    def init(self, arr, layers, lattice_components, cover_fn):
        def watched(x, y):
            nonlocal lookups, through_zero
            before = len(solves)
            found = cover_fn(x, y)
            lookups += 1
            for span, row in solves[before:]:
                assert span is y.span and row in x.span.data
                assert (id(span), id(x.span), row) not in seen, (span, row)
                seen.add((id(span), id(x.span), row))
            if not any(y.chi[0][:y.span.rows]):
                through_zero += 1
                assert len(solves) == before, y.key
            return found

        real(self, arr, layers, lattice_components, watched)

    monkeypatch.setattr(posets.LayerPoset, "__init__", init)
    arr = Arrangement(FGAbelianGroup(2, (2, 6)),
                      [[1, 0, 1, 0], [0, 1, 0, 3], [1, 1, 1, 2], [2, -1, 0, 1],
                       [1, -2, 0, 5], [3, 1, 1, 4]], name="torsion6")
    poset = enumerate_toric_layers(arr)
    assert poset.n == 355
    assert seen and through_zero and len(seen) < lookups - through_zero


def test_two_circles_are_refused(example):
    with pytest.raises(HypothesisError, match="example"):
        enumerate_layers(example, GroupSpec(circles=2))


def test_identity_errors_name_the_instance(example, monkeypatch):
    poset = enumerate_toric_layers(example)
    poset.mobius = (0,) + poset.mobius[1:]
    with pytest.raises(IdentityCheckError, match="^example: stored Möbius"):
        mobius_all(poset)
    # a root outside the 1-torsion subposet, below layers inside it
    poset = enumerate_toric_layers(example)
    root = poset.minimal[0]
    poset.layers = tuple(lay._replace(order=5) if i == root else lay
                         for i, lay in enumerate(poset.layers))
    with pytest.raises(IdentityCheckError, match="^example: k-torsion "
                       "subposet at k=1 is not downward closed"):
        k_total_subposet(poset, 1)
    monkeypatch.setattr(posets, "g_characteristic",
                        lambda arr, spec: UniPoly([7]))
    with pytest.raises(IdentityCheckError, match="^example: total polynomial"):
        layer_sum(enumerate_toric_layers(example))


def test_a_dropped_cover_fails_the_recursion_not_the_fold(example,
                                                         monkeypatch):
    # the fold's Möbius values and their signs do not read the covers; the
    # oracle's recursion on the order they generate does
    poset = enumerate_toric_layers(example)
    drop = max(pair for pair in poset.cover_pairs
               if poset.layers[pair[1]].rank > 1)
    poset.cover_pairs = tuple(p for p in poset.cover_pairs if p != drop)
    poset._check_sign_alternation()
    mu = brute_mobius(poset_leq_matrix(poset))
    assert list(poset.mobius) == [mu[poset.component_of[i]][i]
                                  for i in range(poset.n)]
    assert recursion_mobius(poset) != list(poset.mobius)
    with pytest.raises(IdentityCheckError, match="^example: stored Möbius"):
        mobius_all(poset)
    monkeypatch.setattr(oracle, "enumerate_toric_layers", lambda arr: poset)
    failed = [(e.check, e.param) for e in run_identity_suite(example, "example")
              if not e.passed]
    assert failed == [("mobius_sign", "toric")]


def _reference_key_and_order(poset, lay):
    """A layer's printed key and order, each formatted from its own span
    and character with no shared pieces."""
    spec, (circle, hom) = poset.spec, lay.chi
    period = poset.arr.lcm_period() if spec.circles else 1
    order = lcm(*(m // gcd(m, *(img[t] for img in hom))
                  for t, m in enumerate(spec.f_torsion)))
    texts = []
    if spec.circles:
        order = lcm(order, period // gcd(period, *circle))
        texts.append(",".join(
            f"{v // gcd(v, period)}/{period // gcd(v, period)}" if v else "0"
            for v in circle))
    if spec.f_torsion or not spec.circles:
        texts.append(",".join("+".join(str(x) for x in img) or "0"
                              for img in hom))
    rows = ";".join(",".join(str(x) for x in row) for row in lay.span.data)
    return f"[{rows}]({'|'.join(texts)})", order


def test_keys_and_orders_match_the_per_layer_formulas(example, mixed_torsion,
                                                      torsion_only):
    # the engine formats each span, F-hom and circle value once and shares
    # the text between layers
    built = list(_layer_posets(example, mixed_torsion, torsion_only))
    built.append(enumerate_toric_layers(type_a(6)))
    for poset in built:
        for lay in poset.layers:
            assert (lay.key, lay.order) == \
                _reference_key_and_order(poset, lay), (poset.arr, poset.spec)


def _counted(monkeypatch, module, name):
    """Count the calls of module.name, which still runs."""
    calls = []
    real = getattr(module, name)

    def counting(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(module, name, counting)
    return calls


@pytest.mark.parametrize("group, vectors, layer_count, solves", [
    # every lattice of the unit vectors of Z^5 is saturated
    ({"free_rank": 5, "torsion": []},
     [[int(i == j) for j in range(5)] for i in range(5)], 32, False),
    # a finite ambient: every quotient is finite, every span Z^0, and the
    # 12 points of Hom(Z/2 + Z/6, S^1) are the layers
    ({"free_rank": 0, "torsion": [2, 6]}, [[1, 3], [0, 2], [1, 0]], 12, False),
    # the paper example: <(0, 2)> has quotient Z + Z/2, so it is solved
    ({"free_rank": 2, "torsion": []}, [[-1, 1], [0, 2], [0, 4]], 10, True),
])
def test_finite_and_torsion_free_quotients_settle_spans_and_characters(
        group, vectors, layer_count, solves, tmp_path, capsys, monkeypatch):
    saturations = _counted(monkeypatch, model, "saturation")
    solved = _counted(monkeypatch, posets, "hnf_solve")
    path = tmp_path / "input.json"
    path.write_text(json.dumps({"group": group, "vectors": vectors}))
    code, out, err = run(capsys, "toric-layers", str(path))
    assert code == 0, err
    assert json.loads(out)["layer_count"] == layer_count
    assert bool(saturations) == bool(solved) == solves, (saturations, solved)


def _quotient_case(quot) -> str:
    return ("torsion-free" if not quot.torsion
            else "finite" if not quot.free_rank else "neither")


def test_spans_and_characters_off_the_quotient_match_the_per_mask_reference():
    # the engine reads the span and the circle characters of a lattice with
    # a finite or torsion-free quotient off that quotient; the reference
    # saturates and solves every subset on its own elements
    rng = random.Random(22)
    chains = [(2,), (3,), (4,), (6,), (2, 2), (2, 4), (2, 6), (3, 6)]
    seen = set()
    for i in range(40):
        torsion = rng.choice(chains) if i % 2 else ()
        gamma = FGAbelianGroup(rng.randint(0, 4), torsion)
        arr = Arrangement(gamma, [
            [rng.randint(-2, 2) for _ in range(gamma.ngens)]
            for _ in range(rng.randint(1, 5))])
        poset = enumerate_toric_layers(arr)
        table = arr.lattice_table()
        seen |= {(bool(torsion), _quotient_case(table.quotient(lat)))
                 for lat in poset.lattice_components}
        assert downs_from_covers(poset) == reference_strict_downs(poset), arr
        components, localizations = reference_subset_components(poset)
        assert poset.subset_components == components, arr
        assert tuple(lay.localization for lay in poset.layers) == \
            localizations, arr
    # each case occurs in free and in torsion ambients
    assert seen == {(torsion, case) for torsion in (False, True)
                    for case in ("finite", "torsion-free", "neither")}


def test_a_row_outside_its_saturation_is_caught(example, monkeypatch):
    """The circle values of a lattice with torsion are solved on its rows in
    span coordinates.  The check solves each row, as the fold built it,
    over the span that `LatticeTable.span` saturates apart from the fold:
    here the span (1, 0) given for the rank-1 lattices <(0, 2)> and
    <(0, 4)>, which holds neither."""
    real = model.LatticeTable.span

    def wrong_span(table, lat):
        quot = table.quotient(lat)
        if quot.torsion and table.gamma.free_rank - quot.free_rank == 1:
            return IntMatrix.from_rows([[1, 0]], 2)
        return real(table, lat)
    monkeypatch.setattr(model.LatticeTable, "span", wrong_span)
    with pytest.raises(IdentityCheckError, match="^example: lattice row "
                       "escaped its own saturation$"):
        enumerate_toric_layers(example)


def test_a_component_without_one_root_is_caught(monkeypatch):
    """Each component holds exactly one rank-0 layer.  The check groups the
    layers by component, the part of each character that `kernel_mod`
    solves on the torsion generators, and counts the layers of rank 0,
    read off the spans: here every solution's first residue is shifted by
    one, which leaves a component of Z + Z/4 with no rank-0 layer."""
    real = posets.kernel_mod
    monkeypatch.setattr(posets, "kernel_mod", lambda pivots, n, m: [
        ((x[0] + 1) % m,) + x[1:] for x in real(pivots, n, m)])
    arr = Arrangement(FGAbelianGroup(1, (4,)), [[2, 1]], name="shifted")
    with pytest.raises(IdentityCheckError, match="^shifted: component has "
                       "0 rank-0 layers, expected 1$"):
        enumerate_toric_layers(arr)


def test_a_wrong_moebius_sign_is_caught(example, monkeypatch):
    """mu(C, X) has the sign (-1)^rank(X).  The check reads each layer's
    rank, off its span, against the signed subset counts of the lattice
    states: here every count negated."""
    real = posets.LayerPoset._signed_sums
    monkeypatch.setattr(posets.LayerPoset, "_signed_sums",
                        lambda poset, arr: [-x for x in real(poset, arr)])
    with pytest.raises(IdentityCheckError, match="^example: Moebius sign "
                       "fails at layer 0: rank 0, mu -1$"):
        enumerate_toric_layers(example)


def test_a_partial_subposet_open_above_is_caught():
    """The partial subposet is upward closed.  The check reads each
    layer's `in_partial` flag, off its localization, along the cover pairs,
    which the lookup found: here the upper layer of one cover inside the
    partial subposet is marked outside it."""
    arr = Arrangement(FGAbelianGroup(1, (2,)), [[1, 0], [0, 1], [2, 1]],
                      name="open")
    poset = enumerate_toric_layers(arr)
    layers = poset.layers
    j = next(j for i, j in poset.cover_pairs
             if layers[i].in_partial and layers[j].in_partial)
    poset.layers = tuple(lay._replace(in_partial=False) if t == j else lay
                         for t, lay in enumerate(layers))
    with pytest.raises(IdentityCheckError, match="^open: partial subposet "
                       "is not upward closed$"):
        partial_subposet(poset)


def test_a_wrong_surviving_component_count_is_caught(example, monkeypatch):
    """The partial subposet has one minimal layer per surviving component.
    The check reads the rank-0 layers inside it against
    `_surviving_component_count`, a direct enumeration of the homs of the
    ambient torsion: here that count plus one."""
    real = posets._surviving_component_count
    monkeypatch.setattr(posets, "_surviving_component_count",
                        lambda arr, spec: real(arr, spec) + 1)
    poset = enumerate_toric_layers(example)
    with pytest.raises(IdentityCheckError, match="^example: 1 surviving "
                       "components, expected 2$"):
        partial_subposet(poset)
