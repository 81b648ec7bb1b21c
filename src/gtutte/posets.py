"""The layer engine shared by the circle-target and line-target posets.

A layer is a connected component of an intersection of kernels in
Hom(gamma, target).  It is pinned down by a canonical pair: the saturated
span of the elements whose kernels contain it (an HNF lattice in the free
quotient) and an integer character `chi` in the front end's coordinates
(toric.py: residues mod the lcm period on the span rows and the torsion
generators; lie.py: the image of every ambient generator in F).
`enumerate_layers` runs every lattice of the (lattice, #S) states through
the front end's component enumeration, once for all the subsets that span
it, deduplicates on (span, chi) and records each layer's localization, the
set of elements whose kernel contains it: the union of the subsets it is a
component of.  Subsets are visited one by one only if `subset_components`
is read.

The order is reverse inclusion.  X contains Y exactly when loc(X) lies in
loc(Y), so that span(X) lies in span(Y), and Y's character restricted to
span(X) is X's: one bit test plus one residue check.  Each layer lies over
a unique minimal element (the connected component of the total group
containing it), and the interval used everywhere is [component, layer], so
a single bottom-up sweep computes every Möbius value mu(component(C), C).
"""

from __future__ import annotations

from bisect import bisect_left
from collections import Counter
from dataclasses import dataclass
from functools import cached_property

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

    A subset's components depend on it only through its lattice <S> plus
    the ambient torsion, so the work runs once per distinct lattice of
    `arr.lattice_states()`.  The front end supplies homs(lattice, span),
    the components of every subset spanning the lattice, as characters;
    restrict(x, y), y's character restricted to the span of x, for layers
    with loc(x) inside loc(y); and describe(span, chi), which gives
    (component, order, printed chi).  The predicted number of
    instances, the sum over subsets S of
    multiplicity(S) * #F^(free rank - rank S), is checked against
    max_layers before any homomorphism is enumerated, and each lattice's
    component count is checked against its term on the way.  The poset
    keeps the target as its `spec`.
    """
    if arr.n > MAX_LAYER_ELEMENTS:
        raise CapExceeded(
            f"{arr.n} elements; layer enumeration is capped at {MAX_LAYER_ELEMENTS}")
    f = arr.gamma.free_rank
    table = arr.lattice_table()
    expected: dict = {}  # lattice id -> components of each subset spanning it
    predicted = 0
    for (lat, _), count in arr.lattice_states().items():
        if lat not in expected:
            quot = table.quotient(lat)
            cls = model.SubsetClass(f - quot.free_rank, 0, quot.torsion)
            expected[lat] = (model.multiplicity(cls, spec)
                             * spec.f_order ** quot.free_rank)
        predicted += expected[lat] * count
    if predicted > max_layers:
        raise CapExceeded(
            f"about {predicted} layer instances exceed the cap {max_layers}")

    # each lattice's localization, the union of the subsets spanning it:
    # the fold of lattice_states replayed on lattice ids alone.  A lattice
    # updated at element i contains it, so it is its own child there.
    child = table.child
    locs = {0: 0}
    for i, vec in enumerate(arr.elements):
        for lat in list(locs):
            c = child[lat, vec]
            locs[c] = locs.get(c, 0) | locs[lat] | 1 << i

    raw: dict = {}  # (span rows, chi) -> [span, chi, rank, localization]
    lattice_keys: dict = {}  # lattice id -> its components' (span rows, chi)
    for lat in expected:
        span = table.span(lat)
        rank = f - table.quotient(lat).free_rank
        chis = homs(table.lattices[lat], span)
        if len(chis) != expected[lat]:
            raise IdentityCheckError(
                f"{arr.describe()}: lattice {list(table.lattices[lat].data)} "
                f"has {len(chis)} components, expected {expected[lat]}")
        for chi in chis:
            entry = raw.setdefault((span.data, chi), [span, chi, rank, 0])
            entry[3] |= locs[lat]
        lattice_keys[lat] = [(span.data, chi) for chi in chis]

    tmask = arr.torsion_mask()
    layers = []
    for span, chi, rank, loc in raw.values():
        component, order, chi_text = describe(span, chi)
        rows = ";".join(",".join(str(x) for x in row) for row in span.data)
        layers.append(Layer(span, chi, rank, spec.dim * (f - rank),
                            not loc & tmask, loc, component, order,
                            f"[{rows}]({chi_text})"))
    layers.sort(key=lambda lay: (lay.rank, lay.span.data, lay.component, lay.chi))
    index = {(lay.span.data, lay.chi): i for i, lay in enumerate(layers)}
    components = {lat: tuple(sorted(index[key] for key in keys))
                  for lat, keys in lattice_keys.items()}

    def leq(x, y):
        """x <= y in the poset: x contains y."""
        return not x.localization & ~y.localization and restrict(x, y) == x.chi

    poset = LayerPoset(arr, layers, components, leq)
    poset.spec = spec
    return poset


class LayerPoset:
    """Finite poset of layers with per-layer combinatorial data.

    layers[i] is a Layer; lattice_components maps each lattice id of the
    arrangement's states to its subsets' sorted component indices; and
    leq_fn(x, y) says whether x contains y.  The poset adds the order
    (strict_downs), Möbius values and the component map.
    """

    def __init__(self, arr, layers, lattice_components, leq_fn):
        self.arr = arr
        self.layers = tuple(layers)
        n = len(self.layers)
        self.lattice_components = dict(lattice_components)

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

    @cached_property
    def subset_components(self) -> dict:
        """{mask: sorted component indices of the subset}, built on first
        read from each mask's lattice."""
        return {mask: self.lattice_components[self.arr.subset_lattice(mask)]
                for mask in self.arr.masks()}

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
        totals = [0] * self.n
        for (lat, size), count in self.arr.lattice_states().items():
            for i in self.lattice_components[lat]:
                totals[i] += (-1) ** size * count
        out = []
        for i, lay in enumerate(self.layers):
            want = self.mobius[i] if lay.in_partial else 0
            out.append({"layer": i, "sum": totals[i], "expected": want,
                        "ok": totals[i] == want})
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


def component_shapes(poset: LayerPoset, indices=None, pairs=None) -> list:
    """Group components by the shape of their induced subposet.

    The shape signature is (layer count, sorted rank multiset, sorted dim
    multiset, cover count): coarse, but it separates the small diagrams that
    occur at desk scale (chains, diamonds, ...).  The cover pairs are those
    induced on the whole selection, if already known: no pair crosses two
    components, since strict_downs stays inside one.  Returns (shape, count)
    pairs with a deterministic order.
    """
    if indices is None:
        indices = poset.all_indices()
    if pairs is None:
        pairs = poset.covers(indices)
    members: dict = {}
    for i in indices:
        members.setdefault(poset.component_of[i], []).append(i)
    cover_counts = Counter(poset.component_of[j] for _, j in pairs)
    shapes: dict = {}
    for root in sorted(members):
        idxs = members[root]
        sig = (
            len(idxs),
            tuple(sorted(poset.layers[i].rank for i in idxs)),
            tuple(sorted(poset.layers[i].dim for i in idxs)),
            cover_counts[root],
        )
        shapes[sig] = shapes.get(sig, 0) + 1
    return sorted(shapes.items())


def hasse_records(poset: LayerPoset, indices=None, pairs=None) -> list:
    """One record per selected layer (id, key, dim, rank, mobius,
    component, covers), from the induced cover pairs if already known."""
    if indices is None:
        indices = poset.all_indices()
    indices = sorted(set(indices))
    if pairs is None:
        pairs = poset.covers(indices)
    covered: dict = {j: [] for j in indices}
    for i, j in pairs:
        covered[j].append(i)
    return [{
        "id": i,
        "key": poset.layers[i].key,
        "dim": poset.layers[i].dim,
        "rank": poset.layers[i].rank,
        "mobius": poset.mobius[i],
        "component": poset.component_of[i],
        "covers": sorted(covered[i]),
    } for i in indices]


def export_hasse(records: list) -> str:
    """Render the Hasse diagram of `hasse_records` as DOT."""
    lines = ["digraph layers {", "  rankdir=BT;"]
    for r in records:
        label = f"dim={r['dim']} mu={r['mobius']} {r['key']}"
        lines.append(f'  L{r["id"]} [label="{label}"];')
    for i, j in sorted((i, r["id"]) for r in records for i in r["covers"]):
        lines.append(f"  L{i} -> L{j};")
    lines.append("}")
    return "\n".join(lines) + "\n"
