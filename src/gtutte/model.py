"""The central data model: an ambient group with a finite multiset of elements.

An arrangement is (gamma, elements) where gamma is a finitely generated
abelian group presented by free rank and torsion invariant factors, and each
element is an integer coordinate vector (free coordinates first, then one
residue per torsion factor).  Duplicates are legal and order-stable: the
element list is a multiset.

Every subset-sum invariant in this package depends on a subset S only
through the lattice <S> it spans.  `Arrangement.lattice_states` counts the
subsets by (lattice, #S) in one pass over the distinct spanned lattices of
a `LatticeTable`; `Arrangement.histogram` reduces those states to classes
(rank S, #S, invariant factors of the torsion of gamma/<S>), and layer
enumeration reads them directly.  `Arrangement.signed_classes` regroups the
histogram once by (rank, torsion factors) into signed counts, the gcd form
that every characteristic polynomial and quasi-polynomial constituent sums
over.  The per-subset data is also available mask by mask, for the oracle.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import gcd, lcm
from typing import NamedTuple

from .intlinalg import (FGAbelianGroup, IntMatrix, cokernel, hermite_normal_form,
                        insert_step, invariant_chain, presentation_matrix,
                        saturation)

MAX_ELEMENTS = 24  # the subset histogram may meet up to 2^n distinct lattices
MAX_LATTICES = 100_000  # distinct lattices in one lattice table


class CapExceeded(ValueError):
    """Input is beyond the documented desk-scale limits."""


@dataclass(frozen=True)
class GroupSpec:
    """Target group F x (S^1)^circles x R^reals, F finite abelian.

    The finite part is stored as an invariant-factor chain; arbitrary cyclic
    factor lists are canonicalized on construction.
    """

    f_torsion: tuple = ()
    circles: int = 0
    reals: int = 0

    def __post_init__(self):
        fs = [int(f) for f in self.f_torsion]
        for f in fs:
            if f < 1:
                raise ValueError(f"finite factor {f} must be positive")
        object.__setattr__(self, "f_torsion", invariant_chain(fs))
        if self.circles < 0 or self.reals < 0:
            raise ValueError("factor counts must be nonnegative")

    @staticmethod
    def cyclic(k: int) -> "GroupSpec":
        if k < 1:
            raise ValueError("cyclic order must be positive")
        return GroupSpec(f_torsion=(k,) if k > 1 else ())

    @staticmethod
    def circle() -> "GroupSpec":
        return GroupSpec(circles=1)

    @property
    def dim(self) -> int:
        return self.circles + self.reals

    @property
    def f_order(self) -> int:
        n = 1
        for f in self.f_torsion:
            n *= f
        return n


@dataclass(frozen=True)
class SubsetData:
    """Per-subset summary: rank of <S> and torsion factors of gamma/<S>."""

    mask: int
    rank: int
    torsion_factors: tuple


class SubsetClass(NamedTuple):
    """Histogram key: rank of <S>, #S and torsion factors of gamma/<S>."""

    rank: int
    size: int
    torsion_factors: tuple


def multiplicity(data: SubsetData | SubsetClass, spec: GroupSpec) -> int:
    """Number of homomorphisms from the quotient torsion into the target.

    Each torsion factor d contributes d per circle factor and gcd(d, f) per
    finite cyclic factor; real factors admit no nonzero map from a finite
    group, so they contribute nothing.
    """
    n = 1
    for d in data.torsion_factors:
        n *= d**spec.circles
        for f in spec.f_torsion:
            n *= gcd(d, f)
    return n


def hom_count(source: FGAbelianGroup, target_torsion) -> int:
    """#Hom(source, + Z/f_j) for a finite source: prod gcd(d_i, f_j)."""
    if not source.is_finite:
        raise ValueError("hom_count needs a finite source group")
    return multiplicity(SubsetClass(0, 0, source.torsion),
                        GroupSpec(f_torsion=target_torsion))


class LatticeTable:
    """The distinct lattices <S> + ambient torsion relations of one ambient.

    Lattices are canonical HNF matrices, numbered in order of discovery;
    id 0 holds the torsion relations alone.  `child` is
    {vector: {lattice id: child id}}, the lattice that the vector joins:
    a fold looks its vector's dict up once and then steps on lattice ids
    alone (`Arrangement.lattice_states` on int states lat * (n + 1) + #S).
    `add` reduces the vector into the parent's HNF rows with the parent's
    fold step (what `hnf_insert` runs), looks the rows up and records the
    edge in that dict.  Each lattice asks `insert_step` for its step on its
    first child edge and keeps it, so later edges skip the pivot scan and a
    leaf lattice compiles no kernel.  A new lattice's matrix is built once,
    canonical by construction (`IntMatrix._from_hnf`), and refused past
    `MAX_LATTICES`: the table bounds the work and memory of every fold over
    it, as the fold runs.  `instance` names the arrangement in that
    refusal.  `cokernel` takes each lattice's rows as they are, once per
    lattice, and `saturation` those `span` needs.
    """

    def __init__(self, gamma: FGAbelianGroup, instance: str):
        self.gamma = gamma
        self.instance = instance
        start = hermite_normal_form(
            presentation_matrix(IntMatrix.from_rows([], gamma.ngens), gamma))
        self._free = FGAbelianGroup(gamma.ngens)
        self.lattices = [start]
        self._steps = [None]  # lattice id -> its fold step, once it has a child
        self._ids = {start.data: 0}
        self.child: dict = {}   # vector -> {lattice id: child id}
        self._quotients: dict = {}
        self._spans: dict = {}
        self._unit = None  # Z^f, built by `span` on first use

    def add(self, lat: int, vec: tuple, kids: dict) -> int:
        """Id of lattice `lat` joined by `vec`, recorded in `child[vec]`,
        which the fold passes as `kids`."""
        rows = self.lattices[lat].data
        step = self._steps[lat]
        if step is None:
            step = self._steps[lat] = insert_step(rows, len(vec))
        rows = step(rows, vec)
        c = self._ids.get(rows)
        if c is None:
            c = len(self.lattices)
            if c >= MAX_LATTICES:
                raise CapExceeded(
                    f"{self.instance}: lattice fold: {c + 1} lattices "
                    f"exceed the cap {MAX_LATTICES}")
            self._ids[rows] = c
            self.lattices.append(IntMatrix._from_hnf(len(vec), rows))
            self._steps.append(None)
        kids[lat] = c
        return c

    def quotient(self, lat: int) -> FGAbelianGroup:
        """gamma modulo the lattice (memoized).  The lattice holds the
        torsion relations, so its rows present it over a free group."""
        quot = self._quotients.get(lat)
        if quot is None:
            quot = self._quotients[lat] = cokernel(self.lattices[lat], self._free)
        return quot

    def span(self, lat: int) -> IntMatrix:
        """HNF basis of the lattice's saturated span in the free quotient,
        memoized.  A quotient without torsion means a saturated lattice,
        whose leading rows cut to the free columns are its span (the lattice
        itself in a free ambient).  That slice is canonical: a canonical HNF
        lists first its rows with a nonzero free part, f minus the
        quotient's free rank of them, and cut to the free columns these keep
        their pivots and their reduced entries above them.  A finite
        quotient means Z^f, one identity per table; any other, `saturation`."""
        span = self._spans.get(lat)
        if span is None:
            quot, lattice = self.quotient(lat), self.lattices[lat]
            f = self.gamma.free_rank
            if not quot.torsion:
                span = lattice if f == lattice.cols else IntMatrix._from_hnf(
                    f, tuple(row[:f] for row in lattice.data[:f - quot.free_rank]))
            elif quot.free_rank:
                span = saturation(lattice, self.gamma)
            else:
                span = self._unit = self._unit or IntMatrix.identity(f)
            self._spans[lat] = span
        return span


class Arrangement:
    """Immutable (group, element multiset) pair with its lattice table,
    lattice states, histogram and signed classes memoized."""

    def __init__(self, gamma: FGAbelianGroup, elements, name: str | None = None):
        if (n := len(elements)) > MAX_ELEMENTS:
            raise CapExceeded(
                f"{name or _unnamed(gamma, f'{n} elements')}: {n} elements; the "
                f"subset sweep is capped at {MAX_ELEMENTS} (cost grows as 2^n)")
        f = gamma.free_rank
        reduced = []
        for idx, vec in enumerate(elements):
            vec = [int(x) for x in vec]
            if len(vec) != gamma.ngens:
                raise ValueError(
                    f"element {idx} has {len(vec)} coordinates, expected {gamma.ngens}")
            for i, e in enumerate(gamma.torsion):
                vec[f + i] %= e
            reduced.append(tuple(vec))
        self.gamma = gamma
        self.elements = tuple(reduced)
        self.name = name
        self._lattice_table: LatticeTable | None = None
        self._lattice_states: dict | None = None
        self._histogram: dict[SubsetClass, int] | None = None
        self._signed_classes: dict[SubsetClass, int] | None = None
        self._without_torsion: Arrangement | None = None

    @property
    def n(self) -> int:
        return len(self.elements)

    def masks(self):
        return range(1 << self.n)

    def mask_elements(self, mask: int):
        return [self.elements[i] for i in range(self.n) if mask >> i & 1]

    def subset_matrix(self, mask: int) -> IntMatrix:
        return IntMatrix.from_rows(self.mask_elements(mask), self.gamma.ngens)

    def subset_data(self, mask: int) -> SubsetData:
        """Rank and quotient torsion factors of the masked subset."""
        quot = cokernel(self.subset_matrix(mask), self.gamma)
        return SubsetData(mask, self.gamma.free_rank - quot.free_rank,
                          quot.torsion)

    def lattice_table(self) -> LatticeTable:
        """The lattice table that `lattice_states` numbers lattices in."""
        if self._lattice_table is None:
            # a string, not the bound method: a table holding its
            # arrangement would make a cycle that only the collector frees
            self._lattice_table = LatticeTable(self.gamma, self.describe())
        return self._lattice_table

    def lattice_states(self) -> dict:
        """{(lattice id, #S): number of subsets S}, ids in `lattice_table`.

        The elements are folded in one at a time over states (lattice, #S),
        where the lattice is the canonical HNF of <S> plus the ambient
        torsion relations; each state skips or adds the element, and equal
        states merge their counts.  While folding, a state is the int
        lat * (n + 1) + #S, and adding an element moves it by
        (child - lat) * (n + 1) + 1.  A child lattice is computed once per
        (lattice, element vector), so the cost is 2^n steps only when every
        lattice differs.
        """
        if self._lattice_states is None:
            table = self.lattice_table()
            width = self.n + 1  # #S lies in [0, n]
            states = {0: 1}
            for vec in self.elements:
                kids = table.child.setdefault(vec, {})
                folded = dict(states)
                for key, count in states.items():
                    lat = key // width
                    c = kids.get(lat)
                    if c is None:
                        c = table.add(lat, vec, kids)
                    key += (c - lat) * width + 1
                    folded[key] = folded.get(key, 0) + count
                states = folded
            self._lattice_states = {divmod(key, width): count
                                    for key, count in states.items()}
        return self._lattice_states

    def subset_lattice(self, mask: int) -> int:
        """Lattice id of the masked subset, read off `child` along its
        elements: the fold of `lattice_states` has joined every prefix."""
        self.lattice_states()
        child = self.lattice_table().child
        lat = 0
        for vec in self.mask_elements(mask):
            lat = child[vec][lat]
        return lat

    def histogram(self) -> dict:
        """{SubsetClass(rank, #S, torsion factors): number of subsets S},
        reduced from `lattice_states` with one quotient and one (rank,
        torsion factors) pair per distinct lattice, and one `SubsetClass`
        per class."""
        if self._histogram is None:
            table = self.lattice_table()
            f = self.gamma.free_rank
            classes: dict = {}  # lattice id -> (rank, torsion factors)
            hist: dict = {}     # (rank, #S, torsion factors) -> count
            for (lat, size), count in self.lattice_states().items():
                cls = classes.get(lat)
                if cls is None:
                    quot = table.quotient(lat)
                    cls = classes[lat] = (f - quot.free_rank, quot.torsion)
                key = (cls[0], size, cls[1])
                hist[key] = hist.get(key, 0) + count
            self._histogram = {SubsetClass(*key): count
                               for key, count in hist.items()}
        return self._histogram

    def signed_classes(self) -> dict:
        """{SubsetClass(rank, 0, torsion factors): sum of (-1)^#S * count}
        over the histogram classes, zero sums dropped.  A characteristic
        polynomial weights (-1)^#S by m(S), which reads only the torsion
        factors, so it is one sum over these classes."""
        if self._signed_classes is None:
            signed: dict = {}  # (rank, torsion factors) -> signed count
            for (rank, size, torsion), count in self.histogram().items():
                signed[rank, torsion] = signed.get((rank, torsion), 0) + \
                    (-count if size % 2 else count)
            self._signed_classes = {SubsetClass(rank, 0, torsion): count
                                    for (rank, torsion), count in signed.items()
                                    if count}
        return self._signed_classes

    @property
    def rank(self) -> int:
        """Rank of the subgroup spanned by all elements."""
        return max(key.rank for key in self.histogram())

    def torsion_mask(self) -> int:
        """Mask of the elements whose free coordinates all vanish."""
        f = self.gamma.free_rank
        mask = 0
        for i, vec in enumerate(self.elements):
            if not any(vec[:f]):
                mask |= 1 << i
        return mask

    def lcm_period(self) -> int:
        """lcm over all subsets of the largest quotient torsion factor."""
        return lcm(*(key.torsion_factors[-1] for key in self.histogram()
                     if key.torsion_factors))

    def without_torsion(self) -> "Arrangement":
        """The arrangement with all torsion elements dropped; itself when it
        has none.  The copy is made once, and it shares the lattice table,
        which depends only on the ambient group."""
        tmask = self.torsion_mask()
        if tmask and self._without_torsion is None:
            kept = [v for i, v in enumerate(self.elements) if not tmask >> i & 1]
            self._without_torsion = Arrangement(self.gamma, kept, name=self.name)
            self._without_torsion._lattice_table = self.lattice_table()
        return self._without_torsion if tmask else self

    def __repr__(self):
        return _unnamed(self.gamma, list(self.elements))

    def describe(self) -> str:
        return self.name or repr(self)


def _unnamed(gamma: FGAbelianGroup, elements) -> str:
    """An arrangement without a name, by its ambient and its elements, or
    by their count when an entry is past Python's int-to-string limit."""
    try:
        shown = str(elements)
    except ValueError:
        shown = f"{len(elements)} elements"
    return (f"Arrangement(Z^{gamma.free_rank}"
            + "".join(f"+Z/{e}" for e in gamma.torsion) + f", {shown})")
