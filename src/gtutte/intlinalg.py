"""Exact integer linear algebra over finitely generated abelian groups.

Everything works with arbitrary-precision Python integers; there is no
floating point and no overflow anywhere.  One routine combines rows:
`hnf_insert` reduces a vector into a canonical row-style Hermite normal
form (positive pivots, entries above each pivot in [0, pivot)), the
canonical key for sublattices, and every other form is a fold of it.
`hermite_normal_form` folds a matrix's rows; a matrix built by
`IntMatrix._from_hnf` is canonical by construction, never re-scanned.  A
kernel is read off the canonical HNF of a bordered matrix, and
`saturation` is the kernel of a kernel.  Smith forms alternate row and
column HNFs (Kannan and Bachem): `_monomial` runs them until one nonzero
entry is left in each row and column, and `invariant_chain` turns those
entries, or any list of cyclic orders, into the divisibility chain.

Matrices are tiny, and the hot path is the lattice fold of
`model.LatticeTable`, on plain row tuples.  `hnf_invariant_factors` reads
a quotient's invariant factors off the canonical HNF of its relations, so
`cokernel` tracks no transforms: unit pivots split off, closed forms read
the small shapes, and only the rest reaches `_monomial`.  `kernel_mod`
solves echelon rows mod m by back-substitution, the same list on any
echelon rows of one lattice; `hom_images` runs it per factor on an HNF.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass
from functools import reduce
from itertools import combinations, product
from math import gcd, lcm
from operator import itemgetter


class DimensionMismatch(ValueError):
    """Vector length does not match the ambient presentation."""


def xgcd(a: int, b: int) -> tuple[int, int, int]:
    """Return (g, x, y) with g = gcd(a, b) >= 0 and g = a*x + b*y."""
    x, nx = 1, 0
    y, ny = 0, 1
    g, ng = a, b
    while ng:
        q = g // ng
        x, nx = nx, x - q * nx
        y, ny = ny, y - q * ny
        g, ng = ng, g - q * ng
    if g < 0:
        g, x, y = -g, -x, -y
    return g, x, y


@dataclass(frozen=True)
class IntMatrix:
    """Immutable integer matrix, entries row-major as nested tuples.

    rows/cols are kept explicitly so 0-row and 0-column matrices stay
    well-defined.
    """

    rows: int
    cols: int
    data: tuple
    _canonical = False  # not a field: set only by `_from_hnf`

    def __post_init__(self):
        if len(self.data) != self.rows:
            raise DimensionMismatch("row count does not match data")
        for row in self.data:
            if len(row) != self.cols:
                raise DimensionMismatch("ragged row in matrix data")

    @staticmethod
    def from_rows(rows, cols: int | None = None) -> "IntMatrix":
        rows = [tuple(int(x) for x in r) for r in rows]
        if cols is None:
            if not rows:
                raise DimensionMismatch("cols required for a 0-row matrix")
            cols = len(rows[0])
        return IntMatrix(len(rows), cols, tuple(rows))

    @classmethod
    def _from_hnf(cls, cols: int, rows: tuple) -> IntMatrix:
        """Tuple rows that are a canonical HNF by construction, unchecked and
        marked so that `hermite_normal_form` returns the matrix as it is."""
        m = object.__new__(cls)
        m.__dict__.update(rows=len(rows), cols=cols, data=rows, _canonical=True)
        return m

    @staticmethod
    def identity(n: int) -> "IntMatrix":
        return IntMatrix(n, n, tuple(tuple(int(i == j) for j in range(n)) for i in range(n)))


def hnf_insert(rows: tuple, vec) -> tuple:
    """Canonical HNF rows of the lattice of the canonical HNF `rows` and `vec`.

    A list copy of `vec` is reduced down the pivot rows in place: an xgcd
    step replaces a pivot row only where vec's entry is not a multiple of
    the pivot, and a nonzero remainder with no pivot in its leading column
    becomes a new row in place.  Entries above the pivots are then reduced
    into [0, pivot) from the first changed row down.  Left of a pivot both
    rows are zero, so each step touches only the columns from the pivot
    on.  The parent's row tuples are never written: a row is copied to a
    list only when it changes.  When vec already lies in the lattice,
    `rows` itself is returned.
    """
    c = len(vec)
    v = list(vec)
    out = list(rows)
    n = len(out)
    first = None  # index of the first changed row
    i = 0
    for j in range(c):
        a = v[j]
        if i < n and out[i][j]:
            # row i's pivot is in column j
            if a:
                row = out[i]
                p = row[j]
                if a % p:
                    g, x, y = xgcd(p, a)
                    b, d = a // g, p // g
                    out[i] = new = list(row)
                    for k in range(j, c):
                        s, t = row[k], v[k]
                        new[k] = x * s + y * t
                        v[k] = d * t - b * s
                    if first is None:
                        first = i
                else:
                    q = a // p
                    for k in range(j, c):
                        v[k] -= q * row[k]
            i += 1
        elif a:
            if a < 0:
                for k in range(j, c):
                    v[k] = -v[k]
            out.insert(i, v)
            if first is None:
                first = i
            break
    if first is None:
        return rows
    for k in range(first, len(out)):
        pivot_row = out[k]
        j = k
        while not pivot_row[j]:
            j += 1
        p = pivot_row[j]
        for t in range(k):
            row = out[t]
            q = row[j] // p  # floor division leaves the entry in [0, p)
            if q:
                if type(row) is tuple:  # a parent row: copy before writing
                    row = out[t] = list(row)
                for m in range(j, c):
                    row[m] -= q * pivot_row[m]
    return tuple(map(tuple, out))


def hermite_normal_form(m: IntMatrix) -> IntMatrix:
    """Canonical row-style Hermite normal form of the row lattice.

    Pivots are positive, entries above each pivot lie in [0, pivot), and
    all-zero rows are dropped, so equal lattices give byte-equal results.
    A matrix built by `IntMatrix._from_hnf` comes back as it is; any other
    is folded in row by row with `hnf_insert`."""
    if m._canonical:
        return m
    return IntMatrix._from_hnf(m.cols, reduce(hnf_insert, m.data, ()))


def invariant_chain(factors) -> tuple:
    """Invariant factors > 1 of the direct sum of the Z/d, d in `factors`.

    Z/a + Z/b = Z/gcd(a, b) + Z/lcm(a, b), so each d is paired down an
    ascending chain: the top entry c of each run of equal entries becomes
    lcm(c, d), and d goes on as gcd(c, d), which divides the rest of the
    run.  A d > 1 past the bottom goes first.  So d costs one pairing per
    distinct value of the chain.
    """
    chain = []
    for d in factors:
        i = len(chain)
        while d > 1 and i:
            i -= 1
            c = chain[i]
            chain[i], d = lcm(c, d), gcd(c, d)
            i = bisect_left(chain, c, 0, i)  # skip the rest of c's run
        if d > 1:
            chain.insert(0, d)
    return tuple(chain)


def _monomial(rows) -> list:
    """The nonzero entries of a monomial matrix (one nonzero entry in each
    row and column) equivalent to `rows`, independent canonical HNF rows.

    Column and row HNFs alternate, each a fold of the last one's transpose.
    The first drops the zero columns, which leaves a square matrix of full
    rank.  It ends: after each HNF the leading pivot is the gcd of its
    column (or row), a positive integer that shrinks to a proper divisor
    until it divides the rest of its row and column, which the next HNF
    clears; then it stays, and the rest goes on as a smaller matrix.
    Entries cannot grow: at full rank every column of a row HNF holds a
    pivot, and the HNF reduces the entries above it modulo the pivot.
    """
    while True:
        rows = reduce(hnf_insert, zip(*rows), ())
        if all(row.count(0) == len(row) - 1 for row in rows):
            return [max(row) for row in rows]


def hnf_invariant_factors(rows: tuple) -> tuple:
    """Invariant factors > 1 of Z^n / <rows>, for canonical HNF `rows`.

    They are read off the determinantal divisors D1 = gcd of the entries,
    D2 = gcd of the 2x2 minors, ..., as D1, D2/D1, D3/D2, ...  A unit
    pivot is alone in its column: the entries above it lie in [0, 1) and
    those below it are 0.  So column operations clear the rest of its row,
    and it splits off a trivial factor with its row, which is dropped.
    At full rank (a finite quotient) every column holds a pivot, so a unit
    pivot splits off with its column too: cut to the non-unit pivot
    columns, the rows left keep all their nonzero entries and form a
    square upper-triangular core, whose diagonal is the non-unit pivots
    and whose last divisor is their product.

    One row left gives the gcd of its entries (at full rank, its pivot).
    A core of size 2 to 4 is read off closed forms in its nonzero minors,
    and two rows below full rank give D1 and D2 from all their minors.
    Any other shape, a core of size 5 or more or three rows or more below
    full rank, goes to `_monomial` (the zero columns of the unit pivots
    drop out), whose entries `invariant_chain` turns into the chain.
    """
    kept = []
    pivots = []
    col = 0
    for row in rows:
        while not row[col]:  # the pivots move right
            col += 1
        if row[col] != 1:
            kept.append(row)
            pivots.append(col)
    k = len(kept)
    if k <= 1:
        d = gcd(*kept[0]) if kept else 1
        return (d,) if d > 1 else ()
    n = len(rows[0])
    if k > 4 or k > 2 and len(rows) < n:
        return invariant_chain(_monomial(kept))
    if len(rows) < n:
        r, s = kept
        d1 = gcd(*r, *s)
        d2 = gcd(*(r[i] * s[j] - r[j] * s[i]
                   for i, j in combinations(range(n), 2)))
        return tuple([d for d in (d1, d2 // d1) if d > 1])
    core = list(map(itemgetter(*pivots), kept))  # full rank: the square core
    if k == 2:
        (a, b), (_, d) = core
        d1 = gcd(a, b, d)
        factors = (d1, a * d // d1)
    elif k == 3:
        (a, b, c), (_, d, e), (_, _, g) = core
        d1 = gcd(a, b, c, d, e, g)
        d2 = gcd(a * d, a * e, b * e - c * d, a * g, b * g, d * g)
        factors = (d1, d2 // d1, a * d * g // d2)
    else:
        (a, b, c, d), (_, e, f, g), (_, _, h, i), (_, _, _, j) = core
        fi_gh = f * i - g * h
        d1 = gcd(a, b, c, d, e, f, g, h, i, j)
        d2 = gcd(a * e, a * f, a * g, b * f - c * e, b * g - d * e,
                 c * g - d * f, a * h, a * i, b * h, b * i, c * i - d * h,
                 a * j, b * j, c * j, e * h, e * i, fi_gh, e * j, f * j,
                 h * j)
        d3 = gcd(e * h * j, a * h * j, a * e * j, a * e * h, b * h * j,
                 a * f * j, a * e * i, j * (b * f - c * e), a * fi_gh,
                 b * fi_gh - c * e * i + d * e * h)
        factors = (d1, d2 // d1, d3 // d2, a * e * h * j // d3)
    return tuple([d for d in factors if d > 1])


def hnf_solve(h: IntMatrix, vector) -> tuple | None:
    """Integer coefficients expressing `vector` over the HNF rows, or None."""
    v = [int(x) for x in vector]
    if len(v) != h.cols:
        raise DimensionMismatch("vector length does not match matrix columns")
    coeffs = []
    for i in range(h.rows):
        row = h.data[i]
        j = next(k for k, x in enumerate(row) if x)
        if v[j] % row[j]:
            return None
        q = v[j] // row[j]
        coeffs.append(q)
        if q:
            v = [a - q * b for a, b in zip(v, row)]
    if any(v):
        return None
    return tuple(coeffs)


@dataclass(frozen=True)
class FGAbelianGroup:
    """Z^free_rank + Z/e_1 + ... + Z/e_s with 1 < e_1 | e_2 | ... | e_s."""

    free_rank: int
    torsion: tuple = ()

    def __post_init__(self):
        object.__setattr__(self, "torsion", tuple(int(e) for e in self.torsion))
        if self.free_rank < 0:
            raise ValueError("free rank must be nonnegative")
        prev = None
        for e in self.torsion:
            if e <= 1:
                raise ValueError("torsion invariant factors must exceed 1")
            if prev is not None and e % prev:
                raise ValueError("torsion factors must form a divisibility chain")
            prev = e

    @classmethod
    def _from_chain(cls, free_rank: int, torsion: tuple) -> FGAbelianGroup:
        """The group of a tuple already known to be a divisibility chain of
        ints > 1 (a Smith form's), built without `__post_init__`'s checks."""
        group = object.__new__(cls)
        object.__setattr__(group, "free_rank", free_rank)
        object.__setattr__(group, "torsion", torsion)
        return group

    @property
    def ngens(self) -> int:
        return self.free_rank + len(self.torsion)

    @property
    def is_finite(self) -> bool:
        return self.free_rank == 0

    def order(self) -> int:
        if not self.is_finite:
            raise ValueError("group is infinite")
        n = 1
        for e in self.torsion:
            n *= e
        return n

    def exponent(self) -> int:
        """Exponent of the torsion part (1 when torsion-free)."""
        return self.torsion[-1] if self.torsion else 1


def presentation_matrix(generators: IntMatrix, ambient: FGAbelianGroup) -> IntMatrix:
    """Relation matrix presenting ambient/<rows>: the generator rows stacked
    over the ambient torsion relations diag(0,...,0,e_1,...,e_s), or the
    generators themselves when the ambient is free."""
    n = ambient.ngens
    if generators.cols != n:
        raise DimensionMismatch(
            f"generators have {generators.cols} coordinates, ambient needs {n}")
    if not ambient.torsion:
        return generators
    f = ambient.free_rank
    relations = [[e if j == f + i else 0 for j in range(n)]
                 for i, e in enumerate(ambient.torsion)]
    return IntMatrix.from_rows(list(generators.data) + relations, n)


def cokernel(generators: IntMatrix, ambient: FGAbelianGroup) -> FGAbelianGroup:
    """Invariant-factor presentation of ambient/<generator rows>.

    The relations are first reduced to their HNF, at most one row per
    column, whose invariant factors `hnf_invariant_factors` reads.
    """
    rel = hermite_normal_form(presentation_matrix(generators, ambient))
    return FGAbelianGroup._from_chain(rel.cols - rel.rows,
                                      hnf_invariant_factors(rel.data))


def _bordered_hnf(rows: tuple, c: int) -> tuple:
    """Canonical HNF of [rows transposed | identity], whose row lattice is
    {(rows . y, y) : y in Z^c}.  Its rows with a zero left part come last,
    and cut to their right part they are a canonical HNF of the kernel
    {y : rows . y = 0}.  If the columns of `rows` generate Z^m (m rows, a
    saturated span), its first m rows are [e_i | u_i], rows . u_i = e_i."""
    return reduce(hnf_insert, ([row[k] for row in rows]
                               + [int(j == k) for j in range(c)]
                               for k in range(c)), ())


def saturation(generators: IntMatrix, ambient: FGAbelianGroup) -> IntMatrix:
    """Canonical HNF basis of the saturation of <rows> + torsion.

    The result lives in the free quotient (columns = ambient.free_rank); the
    full subgroup is this lattice together with all of the ambient torsion,
    which is exactly the smallest subgroup containing the rows with free
    quotient group.  In Z^f it is the kernel of the kernel of the rows'
    free parts, each read off a `_bordered_hnf`: canonical by construction.
    """
    n = ambient.ngens
    if generators.cols != n:
        raise DimensionMismatch(
            f"generators have {generators.cols} coordinates, ambient needs {n}")
    f = ambient.free_rank
    rows = tuple(row[:f] for row in generators.data)
    for _ in range(2):
        m = len(rows)
        rows = tuple(row[m:] for row in _bordered_hnf(rows, f) if not any(row[:m]))
    return IntMatrix._from_hnf(f, rows)


def pivot_map(rows) -> dict:
    """{pivot column: (pivot, the rest of its row)} of echelon rows."""
    pivots = {}
    j = 0
    for row in rows:
        while not row[j]:  # the pivots move right
            j += 1
        pivots[j] = (row[j], row[j + 1:])
    return pivots


def kernel_mod(pivots: dict, n: int, m: int) -> list:
    """Every x in (Z/m)^n with row . x = 0 mod m for the echelon rows whose
    `pivot_map` is `pivots`, as flat residue tuples sorted on the reversed
    tuples: any echelon rows of one lattice give the same list.

    Back-substitution from the last column to the first: a column without
    a pivot takes every residue, and a pivot p, with the later columns
    fixed at a sum s over the rest of its row, takes the gcd(p, m)
    residues x with p*x = -s mod m, in increasing order, or none when
    gcd(p, m) does not divide s.  The solutions so far form a group and s
    mod gcd(p, m) a homomorphism on it, so a pivot keeps at least
    1/gcd(p, m) of them and gcd(p, m) residues each: no intermediate list
    outgrows the result.
    """
    tails = [()]  # solutions (x_j+1, ..., x_n-1) on the columns after j
    for j in range(n - 1, -1, -1):
        if j not in pivots:
            tails = [(x,) + t for t in tails for x in range(m)]
            continue
        p, rest = pivots[j]
        g = gcd(p, m)
        step = m // g
        inv = pow(p // g, -1, step)
        grown = []
        for t in tails:
            s = sum([a * x for a, x in zip(rest, t)])
            if not s % g:
                x0 = -s // g * inv % step
                grown.extend([(x,) + t for x in range(x0, m, step)])
        tails = grown
    return tails


def hom_images(relations: IntMatrix, target_torsion) -> list:
    """All homomorphisms from Z^n/<relation rows> into + Z/f_j, in a fixed
    order, as tuples of generator images, each a residue tuple: the product
    of the factors' `kernel_mod` solutions of the relations' canonical HNF.
    """
    fs = tuple(int(f) for f in target_torsion)
    if any(f < 1 for f in fs):
        raise ValueError("target factors must be positive")
    n = relations.cols
    if not fs:  # one hom, onto the trivial group
        return [((),) * n]
    pivots = pivot_map(hermite_normal_form(relations).data)
    per_factor = [kernel_mod(pivots, n, m) for m in fs]
    return [tuple(zip(*sols)) for sols in product(*per_factor)]


def hom_enumerate(generators: IntMatrix, ambient: FGAbelianGroup,
                  target_torsion) -> list:
    """All homomorphisms ambient/<rows> -> + Z/f_j, as generator-image tuples.

    Every relation of the presentation maps to zero by construction; the
    length equals hom_count whenever the source is finite.
    """
    return hom_images(presentation_matrix(generators, ambient), target_torsion)
