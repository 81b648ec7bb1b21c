"""The central data model: an ambient group with a finite multiset of elements.

An arrangement is (gamma, elements) where gamma is a finitely generated
abelian group presented by free rank and torsion invariant factors, and each
element is an integer coordinate vector (free coordinates first, then one
residue per torsion factor).  Duplicates are legal and order-stable: the
element list is a multiset.

Every subset-sum invariant in this package depends on a subset S only
through the lattice <S> it spans.  `Arrangement.lattice_counts` counts the
subsets by lattice and size in one pass over the distinct spanned lattices
of a `LatticeTable`, one packed int per lattice whose slot s counts the
size-s subsets; `Arrangement.class_counts` sums those ints once by class
(rank S, invariant factors of the torsion of gamma/<S>).  The signed
classes, the gcd form that every characteristic polynomial and
quasi-polynomial constituent sums over, read one signed count off each
class's int (`Arrangement.signed_count`) without decoding a size;
`Arrangement.histogram` decodes the sizes, (rank S, #S, torsion factors),
for the Tutte polynomials.  The per-subset data is also available mask by
mask, for the oracle.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import gcd, lcm
from typing import NamedTuple

from .intlinalg import (FGAbelianGroup, IntMatrix, cokernel, hermite_normal_form,
                        insert_step, invariant_chain, presentation_matrix)

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
    alone (`Arrangement.lattice_counts`, keyed by lattice id).
    `add` reduces the vector into the parent's HNF rows with the parent's
    fold step (what `hnf_insert` runs), looks the rows up and records the
    edge in that dict.  Each lattice asks `insert_step` for its step on its
    first child edge and keeps it, so later edges skip the pivot scan and a
    leaf lattice compiles no kernel.  A new lattice's matrix is built once,
    canonical by construction (`IntMatrix._from_hnf`), and refused past
    `MAX_LATTICES`: the table bounds the work and memory of every fold over
    it, as the fold runs.  `instance` names the arrangement in that
    refusal.  `cokernel` takes each lattice's rows as they are, once per
    lattice; the layer engine (`posets.enumerate_layers`) picks each
    lattice's span from that quotient itself.
    """

    def __init__(self, gamma: FGAbelianGroup, instance: str):
        self.gamma = gamma
        self.instance = instance
        start = hermite_normal_form(
            presentation_matrix(IntMatrix.from_rows([], gamma.ngens), gamma))
        self.free = FGAbelianGroup(gamma.ngens)
        self.lattices = [start]
        self._steps = [None]  # lattice id -> its fold step, once it has a child
        self._ids = {start.data: 0}
        self.child: dict = {}   # vector -> {lattice id: child id}
        self._quotients: dict = {}

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
            quot = self._quotients[lat] = cokernel(self.lattices[lat], self.free)
        return quot


class Arrangement:
    """Immutable (group, element multiset) pair with its lattice table,
    packed lattice and class counts, histogram and signed classes memoized."""

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
        self._lattice_counts: dict | None = None
        self._class_counts: dict | None = None
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
        """The lattice table that `lattice_counts` numbers lattices in."""
        if self._lattice_table is None:
            # a string, not the bound method: a table holding its
            # arrangement would make a cycle that only the collector frees
            self._lattice_table = LatticeTable(self.gamma, self.describe())
        return self._lattice_table

    def lattice_counts(self) -> dict:
        """{lattice id: packed count}, ids in `lattice_table`.  Slot s of a
        packed count, bits s * (n + 1) up to (s + 1) * (n + 1), holds the
        number of size-s subsets S spanning the lattice, at most
        C(n, s) <= 2^n, so no slot carries into the next.

        The elements are folded in one at a time over the lattices, each
        the canonical HNF of <S> plus the ambient torsion relations; each
        lattice skips the element, keeping its count, or adds it, which
        shifts its count up one slot and merges it into the child's.  A
        child lattice is computed once per (lattice, element vector), so
        the cost is one step per child edge, and 2^n steps only when every
        subset spans its own lattice.
        """
        if self._lattice_counts is None:
            table = self.lattice_table()
            width = self.n + 1  # the slot width: #S lies in [0, n]
            counts = {0: 1}
            for vec in self.elements:
                kids = table.child.setdefault(vec, {})
                folded = dict(counts)
                for lat, packed in counts.items():
                    c = kids.get(lat)
                    if c is None:
                        c = table.add(lat, vec, kids)
                    folded[c] = folded.get(c, 0) + (packed << width)
                counts = folded
            self._lattice_counts = counts
        return self._lattice_counts

    def signed_count(self, packed: int) -> int:
        """Sum of (-1)^s times slot s of a packed count: the count modulo
        2^(n+1) + 1, centered, since 2^(n+1) is -1 there.  The sum lies in
        [-2^n, 2^n], so the centered residue is exact."""
        modulus = (1 << self.n + 1) + 1
        signed = packed % modulus
        return signed - modulus if signed > modulus >> 1 else signed

    def subset_lattice(self, mask: int) -> int:
        """Lattice id of the masked subset, read off `child` along its
        elements: the fold of `lattice_counts` has joined every prefix."""
        self.lattice_counts()
        child = self.lattice_table().child
        lat = 0
        for vec in self.mask_elements(mask):
            lat = child[vec][lat]
        return lat

    def class_counts(self) -> dict:
        """{SubsetClass(rank, 0, torsion factors): packed count}: the
        `lattice_counts` summed over the lattices of each class, with one
        quotient per distinct lattice.  The size-s subsets are split among
        the lattices, so the summed slots stay below 2^(n+1) too."""
        if self._class_counts is None:
            table = self.lattice_table()
            f = self.gamma.free_rank
            counts: dict = {}  # (rank, torsion factors) -> packed count
            for lat, packed in self.lattice_counts().items():
                quot = table.quotient(lat)
                key = (f - quot.free_rank, quot.torsion)
                counts[key] = counts.get(key, 0) + packed
            self._class_counts = {SubsetClass(rank, 0, torsion): packed
                                  for (rank, torsion), packed in counts.items()}
        return self._class_counts

    def histogram(self) -> dict:
        """{SubsetClass(rank, #S, torsion factors): number of subsets S},
        decoded slot by slot from `class_counts`, empty slots dropped."""
        if self._histogram is None:
            width = self.n + 1
            low = (1 << width) - 1
            hist: dict = {}
            for (rank, _, torsion), packed in self.class_counts().items():
                size = 0
                while packed:
                    if count := packed & low:
                        hist[SubsetClass(rank, size, torsion)] = count
                    packed >>= width
                    size += 1
            self._histogram = hist
        return self._histogram

    def signed_classes(self) -> dict:
        """{SubsetClass(rank, 0, torsion factors): sum of (-1)^#S * count}
        over the classes, zero sums dropped, read off `class_counts` with
        one `signed_count` each.  A characteristic polynomial weights
        (-1)^#S by m(S), which reads only the torsion factors, so it is one
        sum over these classes."""
        if self._signed_classes is None:
            self._signed_classes = {
                key: signed for key, packed in self.class_counts().items()
                if (signed := self.signed_count(packed))}
        return self._signed_classes

    @property
    def rank(self) -> int:
        """Rank of the subgroup spanned by all elements."""
        return max(key.rank for key in self.class_counts())

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
        return lcm(*(key.torsion_factors[-1] for key in self.class_counts()
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
