"""The layer engine for targets (S^1)^p x R^q x F with p <= 1, F finite.

A layer is a connected component of an intersection of kernels in
Hom(gamma, target).  It is pinned down by a canonical pair: the saturated
span of the elements whose kernels contain it (an HNF lattice in the free
quotient) and a character `chi` = (circle values, F-hom).  The circle
values are residues mod the lcm period P on the span rows and the torsion
generators, `()` without a circle; the F-hom is one homomorphism of the
whole ambient group into F, the zero hom `((),) * ngens` when F is trivial.
The real factors only add connectivity, so they need no coordinates.
`enumerate_layers` runs every distinct lattice <S> through the component
enumeration, once for all the subsets that span it, deduplicates on
(span, chi) and records each layer's localization, the set of elements
whose kernel contains it: the union of the subsets it is a component of.
Subsets are visited one by one only if `subset_components` is read.
A lattice whose quotient has no torsion is saturated: its span is its own
rows and its one character zero.  Any other is solved by `kernel_mod` on
its rows in span coordinates (the rows themselves at span Z^f), no HNF.
Many layers share a span, an F-hom or a circle value, so each layer's
printed key and order are put together from pieces formatted once per
engine run: the rows of each span, the text and order of each F-hom, and
the reduced fraction v/P of each circle value.

Two caps are counted on each lattice as it is found, before any hom is
enumerated: `MAX_COMPONENTS` on the components, and with them the layers,
and `MAX_ORDER_PAIRS` on the components weighted by 2^rank, which bounds
the cover lookups and the printed covers.  A rank-r layer lies over at
least 2^r layers, itself included (the subsets of r independent elements
of its localization give distinct layers), so the weight grows with the
order: the unit vectors of Z^n have 2^n components and weight 3^n, the
number of their order pairs.

The order is reverse inclusion: X contains Y exactly when loc(X) lies in
loc(Y) and Y takes X's circle values on the rows of span(X).  Each layer
lies over the rank-0 root of its component (the connected component of
the total group containing it), which every rank-1 layer of the component
covers.  Above rank 1 the covers are found by lookup.  Bitsets over the
layers one rank below, one per element, give the candidates: the layers X
of Y's component whose localization nests in loc(Y).  The component of
the intersection of loc(X)'s kernels that holds Y is the layer of span(X)
in Y's component containing Y, and it covers Y.  Layers of one span and
one component are disjoint, so Y has exactly one cover per distinct
candidate span, and the lookup runs once per such span: without a circle
it is the candidate itself (a span then carries one layer per component);
with one it reads Y's values on the span's rows and an index on
(component, span, those circle values), built once per run.  The span
lies in span(Y), which is saturated, so each of its rows is an integer
combination of span(Y)'s rows, solved once per pair of spans, and Y takes
on it that combination of Y's circle values; a Y through 0 takes 0 on
every row, with nothing solved.  A miss raises IdentityCheckError.  These
covers generate the order: if X < Y with ranks at least 2 apart, joining
loc(X) with one element of loc(Y) outside span(X) gives a layer Z of
rank(X) + 1 with X < Z < Y.

The Möbius value mu(C, X), C the root of X's component, is a signed
subset count (the cross-cut formula): a torsion element vanishes on all
of C or nowhere on it, and [C, X] is the lattice of flats of the other
elements of loc(X), so mu(C, X) sums (-1)^#S over the sets S of
non-torsion elements with X a component of their intersection.  That is
one signed count per lattice of the torsion-stripped arrangement's
`lattice_counts`, read off its packed int by `signed_count`.
The oracle checks it by the textbook recursion on the order.
"""

from __future__ import annotations

from collections import Counter
from functools import cached_property
from math import gcd, lcm
from operator import mul
from typing import NamedTuple

from . import model
from .intlinalg import (FGAbelianGroup, IntMatrix, hnf_invariant_factors,
                        hnf_solve, hom_enumerate, kernel_mod)
from .invariants import (HypothesisError, IdentityCheckError, check_degree,
                         checked, g_characteristic)
from .model import Arrangement, CapExceeded, GroupSpec
from .poly import UniPoly, scale_variable

MAX_COMPONENTS = 50_000  # components per layer job, summed over distinct lattices
MAX_ORDER_PAIRS = 2_000_000  # the same components, each weighted by 2^rank


class Layer(NamedTuple):
    """One connected component: (saturated span, character) with derived
    data.  A named tuple, which is cheap to build: an engine run makes one
    per layer."""

    span: IntMatrix          # HNF rows in the free quotient
    chi: tuple               # (circle values mod P, F-hom of the ambient)
    rank: int
    dim: int
    in_partial: bool         # the localization holds no torsion element
    localization: int        # mask of elements whose kernel contains this layer
    component: tuple         # the part of chi fixing the component of
                             # Hom(gamma, target) that holds the layer
    order: int               # least k such that the layer has a k-torsion point
    key: str                 # printed form of (span, chi)


def enumerate_layers(arr: Arrangement, spec: GroupSpec) -> "LayerPoset":
    """Enumerate all layers over all element subsets and build the poset.

    A subset's components depend on it only through its lattice <S> plus
    the ambient torsion, so the work runs once per distinct lattice of the
    fold behind `arr.lattice_counts()`: its circle values are the
    characters of the finite quotient (saturation mod lattice) into Z/P,
    and its F-homs those of the quotient by the lattice.  Each lattice's
    component count, multiplicity(<S>) * #F^(free rank of the quotient), is
    read off its quotient as the fold finds it; the running sums are checked
    against MAX_COMPONENTS and MAX_ORDER_PAIRS there, before any
    homomorphism is enumerated, and each count is checked again against
    the enumeration.  The poset keeps the target as its `spec`.
    """
    if spec.circles > 1:
        raise HypothesisError(
            f"{arr.describe()}: {spec.circles} circle factors; layer posets "
            "take at most one")
    gamma = arr.gamma
    f = gamma.free_rank
    check_degree(arr, spec.dim * f, "layer polynomial")
    fs = spec.f_torsion
    table = arr.lattice_table()
    child = table.child
    expected: dict = {}  # lattice id -> components of each subset spanning it
    total = weight = 0   # weight: each component counted 2^rank times

    def count(lat):
        nonlocal total, weight
        quot = table.quotient(lat)
        cls = model.SubsetClass(f - quot.free_rank, 0, quot.torsion)
        expected[lat] = (model.multiplicity(cls, spec)
                         * spec.f_order ** quot.free_rank)
        total += expected[lat]
        weight += expected[lat] << f - quot.free_rank
        if total > MAX_COMPONENTS:
            raise CapExceeded(
                f"{arr.describe()}: layer enumeration: at least {total} "
                f"components exceed the cap {MAX_COMPONENTS}")
        if weight > MAX_ORDER_PAIRS:
            raise CapExceeded(
                f"{arr.describe()}: layer order: at least {weight} pairs "
                f"(components times 2^rank) exceed the cap {MAX_ORDER_PAIRS}")

    # each lattice's localization, the union of the subsets spanning it:
    # the fold of lattice_counts on lattice ids alone.  A lattice updated at
    # element i contains it, so it is its own child there.  Each lattice is
    # counted as it is found, and both counts only grow, so the fold stops
    # at the first one past its cap.
    count(0)
    locs = {0: 0}
    for i, vec in enumerate(arr.elements):
        kids = child.setdefault(vec, {})
        for lat in list(locs):
            c = kids.get(lat)
            if c is None:
                c = table.add(lat, vec, kids)
            if c not in locs:
                count(c)
            locs[c] = locs.get(c, 0) | locs[lat] | 1 << i

    period = arr.lcm_period() if spec.circles else 1
    # the lattice holds the torsion relations, so it presents its quotient
    # of the free group on gamma's generators
    free = FGAbelianGroup(gamma.ngens)
    # (span rows, chi) -> [span, chi, rank, localization, first-seen order]
    raw: dict = {}
    lattice_entries: dict = {}  # lattice id -> its components' raw entries
    for lat in expected:
        lattice, quot = table.lattices[lat], table.quotient(lat)
        span, rank = table.span(lat), f - quot.free_rank
        values = [()]
        if spec.circles and not quot.torsion:  # saturated: the zero character
            values = [(0,) * (span.rows + len(gamma.torsion))]
        elif spec.circles:
            gens = lattice.data  # span Z^f: the rows are their own coordinates
            if rank < f:
                gens = []
                for row in lattice.data:
                    coeffs = hnf_solve(span, row[:f])
                    if coeffs is None:
                        raise IdentityCheckError(f"{arr.describe()}: lattice "
                                                 "row escaped its own saturation")
                    gens.append(coeffs + row[f:])
            # gens presents the quotient on the span and torsion generators
            # (the torsion relations are lattice rows).  The lattice's HNF
            # and its span's share their pivot columns, so the coefficients
            # are upper triangular with a positive diagonal, above the
            # torsion rows: echelon rows, on which `kernel_mod` gives the
            # same list in the same order as on their HNF, so none is taken
            values = kernel_mod(gens, len(gens[0]), period)
        homs = hom_enumerate(lattice, free, fs) if fs else [((),) * gamma.ngens]
        chis = [(v, h) for v in values for h in homs]
        if len(chis) != expected[lat]:
            raise IdentityCheckError(
                f"{arr.describe()}: lattice {list(lattice.data)} "
                f"has {len(chis)} components, expected {expected[lat]}")
        entries = lattice_entries[lat] = [
            raw.setdefault((span.data, chi), [span, chi, rank, 0, len(raw)])
            for chi in chis]
        for entry in entries:
            entry[3] |= locs[lat]

    tmask = arr.torsion_mask()
    # the pieces of keys and orders, each formatted once.  Equal spans, and
    # with a circle equal components, are shared objects, which the order
    # looks up by identity
    span_texts: dict = {}  # span rows -> (shared span, "[rows](")
    hom_parts: dict = {}   # F-hom -> (printed form, order of the hom)
    fractions: dict = {}   # circle value -> reduced fraction mod P
    shared: dict = {}      # component -> the shared component
    layers = []
    for span, (circle, hom), rank, loc, _ in raw.values():
        entry = span_texts.get(span.data)
        if entry is None:
            entry = span_texts[span.data] = (span, "[" + ";".join(
                ",".join(map(str, row)) for row in span.data) + "](")
        span, head = entry
        part = hom_parts.get(hom)
        if part is None:
            text = ""
            if fs or not spec.circles:  # the trivial F-hom only without a circle
                text = ",".join("+".join(map(str, img)) or "0" for img in hom)
            part = hom_parts[hom] = (text, lcm(*(
                m // gcd(m, *(img[t] for img in hom)) for t, m in enumerate(fs))))
        text, order = part
        component = (circle[span.rows:], hom)
        if spec.circles:
            for v in circle:
                if v not in fractions:
                    g = gcd(v, period)
                    fractions[v] = f"{v // g}/{period // g}" if v else "0"
            order = lcm(order, period // gcd(period, *circle))
            circle_text = ",".join([fractions[v] for v in circle])
            text = circle_text + "|" + text if fs else circle_text
            component = shared.setdefault(component, component)
        layers.append(Layer(span, (circle, hom), rank, spec.dim * (f - rank),
                            not loc & tmask, loc, component, order,
                            head + text + ")"))
    ranked = sorted(range(len(layers)), key=lambda t: (
        layers[t].rank, layers[t].span.data, layers[t].component, layers[t].chi))
    layers = [layers[t] for t in ranked]
    index = [0] * len(ranked)  # first-seen order -> sorted index
    for i, t in enumerate(ranked):
        index[t] = i
    components = {lat: tuple(sorted(index[entry[4]] for entry in entries))
                  for lat, entries in lattice_entries.items()}

    if not spec.circles:
        def restrict(x, y):
            """Without a circle a span carries one layer per component, so
            the candidate x is the layer of its span that contains y."""
            return x
    else:
        # (component, span, circle values on the span rows) -> the layer,
        # the first two by identity
        found = {(id(lay.component), id(lay.span), lay.chi[0][:lay.span.rows]):
                 lay for lay in layers}
        # id of an upper span, once checked saturated -> {id of a lower
        # span: the lower span rows' coefficients over the upper span rows}
        solved: dict = {}

        def restrict(x, y):
            """The layer with x's span, in y's component, that contains y:
            the one with y's circle values on x's span rows, each row's
            coefficients over y's span times y's values there.  Asked only
            about x one rank below y, in y's component, with loc(x) in
            loc(y) (see `LayerPoset`): span(x) lies in the saturated
            span(y), and that layer exists, so a row that does not solve
            or a miss is a fault."""
            lower, upper = x.span, y.span
            circle = y.chi[0][:upper.rows]
            if not any(circle):  # y contains 0
                values = (0,) * lower.rows
            else:
                by_lower = solved.get(id(upper))
                if by_lower is None:
                    if hnf_invariant_factors(upper.data):
                        raise IdentityCheckError(
                            f"{arr.describe()}: span {list(upper.data)} is "
                            "not saturated")
                    by_lower = solved[id(upper)] = {}
                coeffs = by_lower.get(id(lower))
                if coeffs is None:
                    coeffs = [hnf_solve(upper, row) for row in lower.data]
                    if None in coeffs:
                        raise IdentityCheckError(
                            f"{arr.describe()}: layer order: span "
                            f"{list(lower.data)} does not lie in "
                            f"{list(upper.data)}")
                    by_lower[id(lower)] = coeffs
                values = tuple([sum(map(mul, c, circle)) % period
                                for c in coeffs])
            z = found.get((id(y.component), id(lower), values))
            if z is None:
                raise IdentityCheckError(
                    f"{arr.describe()}: layer order: no layer of span "
                    f"{list(lower.data)} contains {y.key}")
            return z

    poset = LayerPoset(arr, layers, components, restrict)
    poset.spec = spec
    return poset


def checked_sum(poset: "LayerPoset", indices, arr: Arrangement,
                target: GroupSpec, what: str) -> UniPoly:
    """The Möbius-weighted dimension sum over `indices` (all layers if
    None), once it equals the characteristic polynomial of `arr` over
    `target` evaluated at #F * t^dim, F and dim those of the poset's target.
    """
    spec = poset.spec
    return checked(poset.characteristic(indices),
                   scale_variable(g_characteristic(arr, target),
                                  spec.f_order, spec.dim),
                   f"{poset.arr.describe()}: {what}")


class LayerPoset:
    """Finite poset of layers with per-layer combinatorial data.

    layers[i] is a Layer; lattice_components maps each lattice id of the
    arrangement's lattice table to its subsets' sorted component indices;
    and cover_fn(x, y), asked only about a candidate x of y (one rank below y
    and above rank 0, in y's component, with loc(x) in loc(y)), returns
    the layer of x's span, in y's component, that contains y: an element
    of `layers`, and a cover of y.  It is asked once per upper layer and
    distinct span among its candidates, spans compared by identity, so
    equal spans should be one object.  Its answers and the roots below
    the rank-1 layers are `cover_pairs`; see the module docstring.
    """

    def __init__(self, arr, layers, lattice_components, cover_fn):
        self.arr = arr
        self.layers = tuple(layers)
        n = len(self.layers)
        self.lattice_components = dict(lattice_components)

        layers = self.layers
        position = {id(lay): i for i, lay in enumerate(layers)}
        groups: dict = {}
        for i, lay in enumerate(layers):
            groups.setdefault(lay.component, []).append(i)

        pairs = []
        component_of = [None] * n
        for idxs in groups.values():
            by_rank: dict = {}
            for i in idxs:
                by_rank.setdefault(layers[i].rank, []).append(i)
            roots = by_rank.get(0, ())
            if len(roots) != 1:
                raise IdentityCheckError(
                    f"{arr.describe()}: component has {len(roots)} rank-0 "
                    "layers, expected 1")
            root = roots[0]
            for i in idxs:
                component_of[i] = root
            pairs += [(root, j) for j in by_rank.get(1, ())]
            for r in range(2, max(by_rank) + 1):
                lower = by_rank.get(r - 1, ())
                # bit k of holding[bit]: the element of mask `bit` lies in
                # the localization of lower[k].  The layers whose
                # localization nests in loc(Y) are those in no holding[bit]
                # with the element outside loc(Y).  same_span[k]: the
                # layers of lower[k]'s span, which is asked about once.
                holding: dict = {}
                by_span: dict = {}
                for k, i in enumerate(lower):
                    lay = layers[i]
                    by_span[id(lay.span)] = by_span.get(id(lay.span), 0) | 1 << k
                    loc = lay.localization
                    while loc:
                        bit = loc & -loc
                        holding[bit] = holding.get(bit, 0) | 1 << k
                        loc ^= bit
                same_span = [by_span[id(layers[i].span)] for i in lower]
                everyone = (1 << len(lower)) - 1
                for j in by_rank.get(r, ()):
                    y = layers[j]
                    nested = everyone
                    for bit, held in holding.items():
                        if not y.localization & bit:
                            nested &= ~held
                    while nested:
                        k = nested.bit_length() - 1
                        nested &= ~same_span[k]
                        z = cover_fn(layers[lower[k]], y)
                        pairs.append((position[id(z)], j))
        pairs.sort()
        self.cover_pairs = tuple(pairs)
        self.component_of = tuple(component_of)
        self.minimal = tuple(i for i in range(n) if not layers[i].rank)
        self.mobius = tuple(self._signed_sums(arr.without_torsion()))
        self._check_sign_alternation()

    @cached_property
    def subset_components(self) -> dict:
        """{mask: sorted component indices of the subset}, built on first
        read from each mask's lattice."""
        return {mask: self.lattice_components[self.arr.subset_lattice(mask)]
                for mask in self.arr.masks()}

    def _signed_sums(self, arr) -> list:
        """Per layer: sum of (-1)^#S over the subsets S of `arr`, which shares
        this poset's lattice table, that it is a component of."""
        totals = [0] * self.n
        for lat, packed in arr.lattice_counts().items():
            if signed := arr.signed_count(packed):
                for i in self.lattice_components[lat]:
                    totals[i] += signed
        return totals

    def _check_sign_alternation(self):
        for i, lay in enumerate(self.layers):
            if (-1) ** lay.rank * self.mobius[i] <= 0:
                raise IdentityCheckError(
                    f"{self.arr.describe()}: Moebius sign fails at layer {i}: "
                    f"rank {lay.rank}, mu {self.mobius[i]}")

    @property
    def n(self) -> int:
        return len(self.layers)

    def all_indices(self) -> tuple:
        return tuple(range(self.n))

    def characteristic(self, indices=None) -> UniPoly:
        """Sum of mu(component(C), C) * t^dim(C) over the selected layers."""
        if indices is None:
            indices = self.all_indices()
        coeffs = [0] * (1 + max((self.layers[i].dim for i in indices),
                                default=-1))
        for i in indices:
            coeffs[self.layers[i].dim] += self.mobius[i]
        return UniPoly(coeffs)

    def covers(self, indices=None) -> list:
        """Sorted Hasse cover pairs (lower, upper) within the selection:
        the cover pairs with both ends selected.  Exact on a convex
        selection, which holds every layer between two of its own, as every
        selection of `layer_sum` does: all layers, the k-torsion subposet
        (downward closed), the partial one (upward closed), or both."""
        if indices is None:
            return list(self.cover_pairs)
        selected = set(indices)
        return [(i, j) for i, j in self.cover_pairs
                if i in selected and j in selected]

    def alternating_subset_sums(self) -> list:
        """Per layer: sum over the defining subsets S of (-1)^#S, with the
        Möbius value (inside the partial poset) or 0 (outside) it must equal."""
        totals = self._signed_sums(self.arr)
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
    layers = poset.layers
    chosen = tuple(i for i, lay in enumerate(layers) if lay.in_partial)
    if any(layers[i].in_partial and not layers[j].in_partial
           for i, j in poset.cover_pairs):
        raise IdentityCheckError(
            f"{poset.arr.describe()}: partial subposet is not upward closed")
    minimal_count = sum(1 for i in chosen if poset.layers[i].rank == 0)
    expected = _surviving_component_count(poset.arr, poset.spec)
    if minimal_count != expected:
        raise IdentityCheckError(
            f"{poset.arr.describe()}: {minimal_count} surviving components, "
            f"expected {expected}")
    return chosen


def check_k(arr: Arrangement, k: int):
    """Refuse a nonpositive k, which has no k-torsion subposet."""
    if k < 1:
        raise ValueError(f"{arr.describe()}: k must be positive "
                         f"(nonpositive k is undefined here)")


def k_total_subposet(poset: LayerPoset, k: int) -> tuple:
    """Layers containing a k-torsion point: character order divides k.

    The result is an order ideal (downward closed), checked on the covers.
    """
    check_k(poset.arr, k)
    layers = poset.layers
    chosen = tuple(i for i, lay in enumerate(layers) if k % lay.order == 0)
    for i, j in poset.cover_pairs:
        if k % layers[j].order == 0 and k % layers[i].order:
            raise IdentityCheckError(
                f"{poset.arr.describe()}: k-torsion subposet at k={k} is not "
                f"downward closed at layer {j}")
    return chosen


def layer_sum(poset: LayerPoset, k: int | None = None,
              partial: bool = False) -> tuple:
    """(indices, polynomial): the selected layers and their Möbius-weighted
    dimension sum, checked against the characteristic polynomial.

    The selection is every layer, or with `k` the k-torsion subposet, which
    only the circle target has, cut to the partial subposet with `partial`.
    The check is over Z/k with `k` and over the poset's target without it,
    on the arrangement with `partial` and on its torsion-stripped part
    without it.
    """
    arr, spec = poset.arr, poset.spec
    if k is not None and spec != GroupSpec.circle():
        raise HypothesisError(
            f"{arr.describe()}: k-torsion subposet over {spec}; its identity "
            "holds only over the circle")
    indices = poset.all_indices() if k is None else k_total_subposet(poset, k)
    if partial:
        inside = set(partial_subposet(poset))
        indices = tuple(i for i in indices if i in inside)
    return indices, checked_sum(
        poset, indices, arr if partial else arr.without_torsion(),
        spec if k is None else GroupSpec.cyclic(k),
        ("partial" if partial else "total") + " polynomial vs characteristic"
        + ("" if k is None else f" at k={k}"))


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


def component_shapes(poset: LayerPoset, indices=None, pairs=None) -> list:
    """Group components by the shape of their induced subposet.

    The shape signature is (layer count, sorted rank multiset, sorted dim
    multiset, cover count): coarse, but it separates the small diagrams that
    occur at desk scale (chains, diamonds, ...).  The cover pairs are those
    induced on the whole selection, if already known: no cover pair
    crosses two components.  Returns (shape, count) pairs with a
    deterministic order.
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
