"""The layer engine shared by the circle-target and line-target posets.

A layer is a connected component of an intersection of kernels in
Hom(gamma, target).  It is pinned down by a canonical pair: the saturated
span of the elements whose kernels contain it (an HNF lattice in the free
quotient) and an integer character `chi` in the front end's coordinates
(toric.py: residues mod the lcm period on the span rows and the torsion
generators; lie.py: the image of every ambient generator in F).
`enumerate_layers` runs every element subset through the front end's
component enumeration, deduplicates on (span, chi) and records each
layer's localization, the set of elements whose kernel contains it: the
union of the subsets it is a component of.

The order is reverse inclusion.  X contains Y exactly when loc(X) lies in
loc(Y), so that span(X) lies in span(Y), and Y's character restricted to
span(X) is X's: one bit test plus one residue check.  Each layer lies over
a unique minimal element (the connected component of the total group
containing it), and the interval used everywhere is [component, layer], so
a single bottom-up sweep computes every Möbius value mu(component(C), C).
"""

from __future__ import annotations

import json
from bisect import bisect_left
from dataclasses import dataclass

from . import model
from .intlinalg import FGAbelianGroup, IntMatrix, hom_enumerate
from .invariants import IdentityCheckError
from .model import Arrangement, CapExceeded, GroupSpec
from .poly import UniPoly

MAX_LAYER_ELEMENTS = 12


@dataclass(frozen=True)
class Layer:
    """One connected component: (saturated span, character) with derived data."""

    span: IntMatrix          # HNF rows in the free quotient
    chi: tuple               # integer character, in the front end's coordinates
    rank: int
    dim: int
    in_partial: bool         # the localization holds no torsion element
    localization: int        # mask of elements whose kernel contains this layer
    component: tuple         # the part of chi fixing the component of
                             # Hom(gamma, target) that holds the layer
    order: int               # least k such that the layer has a k-torsion point
    key: str                 # printed form of (span, chi)


def enumerate_layers(arr: Arrangement, spec: GroupSpec, homs, restrict,
                     describe, max_layers: int) -> "LayerPoset":
    """Enumerate all layers over all element subsets and build the poset.

    The front end supplies homs(mask, span, data), the components of one
    subset as characters; restrict(x, y), y's character restricted to the
    span of x, for layers with loc(x) inside loc(y); and describe(span, chi),
    which gives (component, order, printed chi).  The predicted number of
    instances, the sum over subsets S of
    multiplicity(S) * #F^(free rank - rank S), is checked against
    max_layers before any homomorphism is enumerated, and each subset's
    component count is checked against its term on the way.  The poset
    keeps the target as its `spec`.
    """
    if arr.n > MAX_LAYER_ELEMENTS:
        raise CapExceeded(
            f"{arr.n} elements; layer enumeration is capped at {MAX_LAYER_ELEMENTS}")
    f = arr.gamma.free_rank

    def expected(data):
        return model.multiplicity(data, spec) * spec.f_order ** (f - data.rank)

    predicted = sum(expected(arr.subset_data(mask)) for mask in arr.masks())
    if predicted > max_layers:
        raise CapExceeded(
            f"about {predicted} layer instances exceed the cap {max_layers}")

    seen: dict = {}
    raw: list = []  # [span, chi, rank, localization] per distinct layer
    subset_members: dict = {}
    for mask in arr.masks():
        data = arr.subset_data(mask)
        span = arr.saturation_matrix(mask)
        chis = homs(mask, span, data)
        if len(chis) != expected(data):
            raise IdentityCheckError(f"subset {mask:b}: {len(chis)} components, "
                                     f"expected {expected(data)}")
        members = []
        for chi in chis:
            key = (span.data, chi)
            idx = seen.get(key)
            if idx is None:
                idx = seen[key] = len(raw)
                raw.append([span, chi, data.rank, 0])
            raw[idx][3] |= mask
            members.append(idx)
        subset_members[mask] = members

    tmask = arr.torsion_mask()
    layers = []
    for span, chi, rank, loc in raw:
        component, order, chi_text = describe(span, chi)
        rows = ";".join(",".join(str(x) for x in row) for row in span.data)
        layers.append(Layer(span, chi, rank, spec.dim * (f - rank),
                            not loc & tmask, loc, component, order,
                            f"[{rows}]({chi_text})"))

    # canonical order, then remap the per-subset membership lists
    perm = sorted(range(len(layers)), key=lambda i: (
        layers[i].rank, layers[i].span.data, layers[i].component, layers[i].chi))
    inv = {old: new for new, old in enumerate(perm)}
    layers = [layers[i] for i in perm]
    subset_components = {mask: tuple(sorted(inv[i] for i in members))
                         for mask, members in subset_members.items()}

    def leq(x, y):
        """x <= y in the poset: x contains y."""
        return not x.localization & ~y.localization and restrict(x, y) == x.chi

    poset = LayerPoset(arr, layers, subset_components, leq)
    poset.spec = spec
    return poset


class LayerPoset:
    """Finite poset of layers with per-layer combinatorial data.

    layers[i] is a Layer; leq_fn(x, y) says whether x contains y.  The
    poset adds the order (strict_downs), Möbius values, the component map
    and the subset-to-components incidence.
    """

    def __init__(self, arr, layers, subset_components, leq_fn):
        self.arr = arr
        self.layers = tuple(layers)
        n = len(self.layers)
        self.subset_components = dict(subset_components)

        incidence = [[] for _ in range(n)]
        for mask in sorted(self.subset_components):
            for idx in self.subset_components[mask]:
                incidence[idx].append(mask)
        self.incidence = tuple(tuple(ms) for ms in incidence)

        groups: dict = {}
        for i, lay in enumerate(self.layers):
            groups.setdefault(lay.component, []).append(i)

        downs = [frozenset()] * n
        component_of = [None] * n
        for idxs in groups.values():
            idxs.sort(key=lambda i: self.layers[i].rank)
            roots = [i for i in idxs if self.layers[i].rank == 0]
            if len(roots) != 1:
                raise IdentityCheckError(
                    f"component has {len(roots)} rank-0 layers, expected 1")
            root = roots[0]
            ranks = [self.layers[i].rank for i in idxs]
            for pos, j in enumerate(idxs):
                component_of[j] = root
                lower = idxs[:bisect_left(ranks, ranks[pos])]
                downs[j] = frozenset(i for i in lower
                                     if leq_fn(self.layers[i], self.layers[j]))
        self.strict_downs = tuple(downs)
        self.component_of = tuple(component_of)
        self.minimal = tuple(sorted(i for i in range(n) if not downs[i]))

        mobius = [0] * n
        for j in sorted(range(n), key=lambda i: self.layers[i].rank):
            if not downs[j]:
                mobius[j] = 1
            else:
                mobius[j] = -sum(mobius[i] for i in downs[j])
        self.mobius = tuple(mobius)
        self._check_sign_alternation()

    def _check_sign_alternation(self):
        for i, lay in enumerate(self.layers):
            if (-1) ** lay.rank * self.mobius[i] <= 0:
                raise IdentityCheckError(
                    f"Moebius sign fails at layer {i}: rank {lay.rank}, "
                    f"mu {self.mobius[i]}")

    @property
    def n(self) -> int:
        return len(self.layers)

    def all_indices(self) -> tuple:
        return tuple(range(self.n))

    def characteristic(self, indices=None) -> UniPoly:
        """Sum of mu(component(C), C) * t^dim(C) over the selected layers."""
        if indices is None:
            indices = self.all_indices()
        coeffs: dict = {}
        for i in indices:
            d = self.layers[i].dim
            coeffs[d] = coeffs.get(d, 0) + self.mobius[i]
        if not coeffs:
            return UniPoly()
        out = [0] * (max(coeffs) + 1)
        for d, c in coeffs.items():
            out[d] = c
        return UniPoly(out)

    def covers(self, indices=None) -> list:
        """Induced Hasse cover pairs (lower, upper) within the selection."""
        if indices is None:
            indices = self.all_indices()
        selected = set(indices)
        pairs = []
        for j in sorted(selected):
            below = self.strict_downs[j] & selected
            for i in below:
                if not any(i in self.strict_downs[m] for m in below):
                    pairs.append((i, j))
        return sorted(pairs)

    def alternating_subset_sums(self) -> list:
        """Per layer: sum over the defining subsets S of (-1)^#S, with the
        Möbius value (inside the partial poset) or 0 (outside) it must equal."""
        out = []
        for i, lay in enumerate(self.layers):
            total = sum((-1) ** mask.bit_count() for mask in self.incidence[i])
            want = self.mobius[i] if lay.in_partial else 0
            out.append({"layer": i, "sum": total, "expected": want,
                        "ok": total == want})
        return out


def partial_subposet(poset: LayerPoset) -> tuple:
    """Layers whose component kills no torsion element of the arrangement.

    Checked: the selection is upward closed, and the number of its minimal
    elements matches the direct count of surviving components.
    """
    chosen = tuple(i for i, lay in enumerate(poset.layers) if lay.in_partial)
    inside = set(chosen)
    for j in range(poset.n):
        if j not in inside and poset.strict_downs[j] & inside:
            raise IdentityCheckError("partial subposet is not upward closed")
    minimal_count = sum(1 for i in chosen if poset.layers[i].rank == 0)
    expected = _surviving_component_count(poset.arr, poset.spec)
    if minimal_count != expected:
        raise IdentityCheckError(
            f"{minimal_count} surviving components, expected {expected}")
    return chosen


def _surviving_component_count(arr: Arrangement, spec: GroupSpec) -> int:
    """Components of Hom(gamma, target) that kill no torsion element.

    Counted by direct enumeration of the homomorphisms of the ambient
    torsion into the finite part of the target (a circle stands in as the
    cyclic group of the ambient exponent), times the #F^(free rank)
    components that the free part contributes.
    """
    gamma = arr.gamma
    f = gamma.free_rank
    target = spec.f_torsion + (gamma.exponent(),) * spec.circles
    tor = FGAbelianGroup(0, gamma.torsion)
    homs = hom_enumerate(IntMatrix.from_rows([], tor.ngens), tor, target)
    tmask = arr.torsion_mask()
    torsion_vecs = [vec[f:] for i, vec in enumerate(arr.elements)
                    if tmask >> i & 1]
    count = 0
    for h in homs:
        if all(any(sum(a * img[t] for a, img in zip(vec, h)) % m
                   for t, m in enumerate(target))
               for vec in torsion_vecs):
            count += 1
    return count * spec.f_order ** f


def mobius_all(poset: LayerPoset) -> LayerPoset:
    """Recompute every Möbius value from the interval recursion and verify
    the stored values and the strict sign alternation.  Idempotent; returns
    the poset for chaining."""
    fresh = [0] * poset.n
    for j in sorted(range(poset.n), key=lambda i: poset.layers[i].rank):
        if not poset.strict_downs[j]:
            fresh[j] = 1
        else:
            fresh[j] = -sum(fresh[i] for i in poset.strict_downs[j])
    if tuple(fresh) != poset.mobius:
        raise IdentityCheckError("stored Möbius values are stale")
    poset._check_sign_alternation()
    return poset


def component_shapes(poset: LayerPoset, indices=None) -> list:
    """Group components by the shape of their induced subposet.

    The shape signature is (layer count, sorted rank multiset, sorted dim
    multiset, cover count): coarse, but it separates the small diagrams that
    occur at desk scale (chains, diamonds, ...).  Returns (shape, count)
    pairs with a deterministic order.
    """
    if indices is None:
        indices = poset.all_indices()
    members: dict = {}
    for i in indices:
        members.setdefault(poset.component_of[i], []).append(i)
    shapes: dict = {}
    for root in sorted(members):
        idxs = members[root]
        sig = (
            len(idxs),
            tuple(sorted(poset.layers[i].rank for i in idxs)),
            tuple(sorted(poset.layers[i].dim for i in idxs)),
            len(poset.covers(idxs)),
        )
        shapes[sig] = shapes.get(sig, 0) + 1
    return sorted(shapes.items())


def export_hasse(poset: LayerPoset, indices=None, fmt: str = "dot") -> str:
    """Render the (induced) Hasse diagram; formats: dot, records."""
    if indices is None:
        indices = poset.all_indices()
    indices = sorted(set(indices))
    pairs = poset.covers(indices)
    if fmt == "dot":
        lines = ["digraph layers {", "  rankdir=BT;"]
        for i in indices:
            lay = poset.layers[i]
            label = f"dim={lay.dim} mu={poset.mobius[i]} {lay.key}"
            lines.append(f'  L{i} [label="{label}"];')
        for i, j in pairs:
            lines.append(f"  L{i} -> L{j};")
        lines.append("}")
        return "\n".join(lines) + "\n"
    if fmt == "records":
        covered: dict = {j: [] for j in indices}
        for i, j in pairs:
            covered[j].append(i)
        records = [{
            "id": i,
            "key": poset.layers[i].key,
            "dim": poset.layers[i].dim,
            "rank": poset.layers[i].rank,
            "mobius": poset.mobius[i],
            "component": poset.component_of[i],
            "covers": sorted(covered[i]),
        } for i in indices]
        return json.dumps(records, indent=1, sort_keys=True) + "\n"
    raise ValueError(f"unknown export format: {fmt!r}")
