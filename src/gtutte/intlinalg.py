"""Exact integer linear algebra over finitely generated abelian groups.

Everything works with arbitrary-precision Python integers; there is no
floating point and no overflow anywhere.  Two normal forms do all the work:

* Smith normal form with unimodular transforms, which presents quotient
  groups by invariant factors and solves homomorphism equations.
* Row-style Hermite normal form (positive pivots, entries above each pivot
  reduced into [0, pivot)), whose uniqueness makes it the canonical key for
  sublattices.

Matrices are tiny (a handful of rows/columns), so the classical pivoting
algorithms are used without any fast-path tricks.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product
from math import gcd


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

    @staticmethod
    def identity(n: int) -> "IntMatrix":
        return IntMatrix(n, n, tuple(tuple(int(i == j) for j in range(n)) for i in range(n)))

    @staticmethod
    def zero(rows: int, cols: int) -> "IntMatrix":
        return IntMatrix(rows, cols, tuple((0,) * cols for _ in range(rows)))

    def row(self, i: int) -> tuple:
        return self.data[i]

    def __matmul__(self, other: "IntMatrix") -> "IntMatrix":
        if self.cols != other.rows:
            raise DimensionMismatch("inner dimensions differ")
        out = []
        for i in range(self.rows):
            a = self.data[i]
            out.append(tuple(
                sum(a[k] * other.data[k][j] for k in range(self.cols))
                for j in range(other.cols)))
        return IntMatrix(self.rows, other.cols, tuple(out))

    def diagonal(self) -> tuple:
        return tuple(self.data[i][i] for i in range(min(self.rows, self.cols)))


@dataclass(frozen=True)
class SmithDecomposition:
    """U @ M @ V == D with U, V unimodular and D diagonal, d_1 | d_2 | ...

    Diagonal entries are nonnegative and zeros come last.
    """

    U: IntMatrix
    D: IntMatrix
    V: IntMatrix

    @property
    def invariant_factors(self) -> tuple:
        """Nonzero diagonal entries; unit factors are the leading 1s."""
        return tuple(d for d in self.D.diagonal() if d != 0)

    @property
    def torsion_factors(self) -> tuple:
        """Invariant factors > 1 (the ones that present actual torsion)."""
        return tuple(d for d in self.D.diagonal() if d > 1)


def _snf_worker(m: IntMatrix):
    """Diagonalize m, tracking U, V and V^-1.  Returns (U, D, V, Vinv) as lists."""
    r, c = m.rows, m.cols
    A = [list(row) for row in m.data]
    U = [[int(i == j) for j in range(r)] for i in range(r)]
    V = [[int(i == j) for j in range(c)] for i in range(c)]
    Vinv = [[int(i == j) for j in range(c)] for i in range(c)]

    def row_swap(i, j):
        A[i], A[j] = A[j], A[i]
        U[i], U[j] = U[j], U[i]

    def row_add(i, j, k):
        # row_i += k * row_j
        Ai, Aj = A[i], A[j]
        for p in range(c):
            Ai[p] += k * Aj[p]
        Ui, Uj = U[i], U[j]
        for p in range(r):
            Ui[p] += k * Uj[p]

    def row_neg(i):
        A[i] = [-x for x in A[i]]
        U[i] = [-x for x in U[i]]

    def col_swap(i, j):
        for row in A:
            row[i], row[j] = row[j], row[i]
        for row in V:
            row[i], row[j] = row[j], row[i]
        Vinv[i], Vinv[j] = Vinv[j], Vinv[i]

    def col_add(i, j, k):
        # col_i += k * col_j; inverse transform subtracts on Vinv rows
        for row in A:
            row[i] += k * row[j]
        for row in V:
            row[i] += k * row[j]
        Vi, Vj = Vinv[i], Vinv[j]
        for p in range(c):
            Vj[p] -= k * Vi[p]

    t = 0
    while t < min(r, c):
        # smallest-magnitude nonzero pivot in the trailing submatrix
        best = None
        for i in range(t, r):
            for j in range(t, c):
                v = A[i][j]
                if v and (best is None or abs(v) < abs(A[best[0]][best[1]])):
                    best = (i, j)
        if best is None:
            break
        if best[0] != t:
            row_swap(t, best[0])
        if best[1] != t:
            col_swap(t, best[1])

        while True:
            # euclidean sweeps; swaps strictly shrink |pivot|, so this halts
            for i in range(t + 1, r):
                if A[i][t]:
                    q = A[i][t] // A[t][t]
                    row_add(i, t, -q)
                    if A[i][t]:
                        row_swap(i, t)
            for j in range(t + 1, c):
                if A[t][j]:
                    q = A[t][j] // A[t][t]
                    col_add(j, t, -q)
                    if A[t][j]:
                        col_swap(j, t)
            if not any(A[i][t] for i in range(t + 1, r)) and \
               not any(A[t][j] for j in range(t + 1, c)):
                break

        # divisibility fix-up: pivot must divide the whole trailing block
        offender = None
        for i in range(t + 1, r):
            for j in range(t + 1, c):
                if A[i][j] % A[t][t]:
                    offender = i
                    break
            if offender is not None:
                break
        if offender is not None:
            row_add(t, offender, 1)
            continue

        if A[t][t] < 0:
            row_neg(t)
        t += 1

    return U, A, V, Vinv


def smith_normal_form(m: IntMatrix) -> SmithDecomposition:
    """Smith normal form with transforms: U @ m @ V == D exactly."""
    U, D, V, _ = _snf_worker(m)
    return SmithDecomposition(
        IntMatrix.from_rows(U, m.rows),
        IntMatrix.from_rows(D, m.cols),
        IntMatrix.from_rows(V, m.cols),
    )


def hermite_normal_form(m: IntMatrix) -> IntMatrix:
    """Canonical row-style Hermite normal form of the row lattice.

    Pivots are positive, entries above each pivot lie in [0, pivot), and
    all-zero rows are dropped, so equal lattices give byte-equal results.
    """
    A = [list(row) for row in m.data]
    nrows = len(A)
    pr = 0  # next pivot row
    for j in range(m.cols):
        # fold all rows >= pr with a nonzero in column j into one
        piv = None
        for i in range(pr, nrows):
            if A[i][j]:
                piv = i
                break
        if piv is None:
            continue
        A[pr], A[piv] = A[piv], A[pr]
        for i in range(pr + 1, nrows):
            if not A[i][j]:
                continue
            a, b = A[pr][j], A[i][j]
            g, x, y = xgcd(a, b)
            ra, rb = A[pr], A[i]
            A[pr] = [x * p + y * q for p, q in zip(ra, rb)]
            A[i] = [(-(b // g)) * p + (a // g) * q for p, q in zip(ra, rb)]
        if A[pr][j] < 0:
            A[pr] = [-x for x in A[pr]]
        for i in range(pr):
            q = A[i][j] // A[pr][j]  # floor division leaves A[i][j] in [0, pivot)
            if q:
                A[i] = [p - q * s for p, s in zip(A[i], A[pr])]
        pr += 1
    return IntMatrix.from_rows([r for r in A[:pr]], m.cols)


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


def determinant(m: IntMatrix) -> int:
    """Exact determinant by fraction-free (Bareiss) elimination."""
    if m.rows != m.cols:
        raise DimensionMismatch("determinant needs a square matrix")
    n = m.rows
    if n == 0:
        return 1
    A = [list(row) for row in m.data]
    sign = 1
    prev = 1
    for k in range(n - 1):
        if A[k][k] == 0:
            for i in range(k + 1, n):
                if A[i][k]:
                    A[k], A[i] = A[i], A[k]
                    sign = -sign
                    break
            else:
                return 0
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                A[i][j] = (A[i][j] * A[k][k] - A[i][k] * A[k][j]) // prev
            A[i][k] = 0
        prev = A[k][k]
    return sign * A[n - 1][n - 1]


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
    over the ambient torsion relations diag(0,...,0,e_1,...,e_s)."""
    n = ambient.ngens
    if generators.cols != n:
        raise DimensionMismatch(
            f"generators have {generators.cols} coordinates, ambient needs {n}")
    rows = [list(r) for r in generators.data]
    f = ambient.free_rank
    for i, e in enumerate(ambient.torsion):
        rel = [0] * n
        rel[f + i] = e
        rows.append(rel)
    return IntMatrix.from_rows(rows, n)


def cokernel(generators: IntMatrix, ambient: FGAbelianGroup) -> FGAbelianGroup:
    """Invariant-factor presentation of ambient/<generator rows>."""
    rel = presentation_matrix(generators, ambient)
    dec = smith_normal_form(rel)
    nonzero = dec.invariant_factors
    return FGAbelianGroup(ambient.ngens - len(nonzero),
                          tuple(d for d in nonzero if d > 1))


def saturation(generators: IntMatrix, ambient: FGAbelianGroup) -> IntMatrix:
    """Canonical HNF basis of the saturation of <rows> + torsion.

    The result lives in the free quotient (columns = ambient.free_rank); the
    full subgroup is this lattice together with all of the ambient torsion,
    which is exactly the smallest subgroup containing the rows with free
    quotient group.
    """
    n = ambient.ngens
    if generators.cols != n:
        raise DimensionMismatch(
            f"generators have {generators.cols} coordinates, ambient needs {n}")
    f = ambient.free_rank
    free_rows = [row[:f] for row in generators.data]
    B = IntMatrix.from_rows(free_rows, f)
    _, D, _, Vinv = _snf_worker(B)
    rank = sum(1 for i in range(min(B.rows, B.cols)) if D[i][i])
    # V^-1 rows form a basis of Z^f; the first `rank` of them span the
    # rational row space of B, hence their Z-span is the saturation.
    return hermite_normal_form(IntMatrix.from_rows(Vinv[:rank], f))


def hom_count(source: FGAbelianGroup, target_torsion) -> int:
    """#Hom(source, + Z/f_j) for a finite source: prod gcd(d_i, f_j)."""
    if not source.is_finite:
        raise ValueError("hom_count needs a finite source group")
    n = 1
    for d in source.torsion:
        for f in target_torsion:
            n *= gcd(d, int(f))
    return n


def _annihilator_values(d: int, f: int) -> range:
    """Elements x of Z/f with d*x = 0: multiples of f/gcd(f, d)."""
    g = gcd(f, d) if d else f
    return range(0, f, f // g)


def hom_images(relations: IntMatrix, target_torsion) -> list:
    """All homomorphisms from Z^n/<relation rows> into + Z/f_j.

    Returned as tuples of generator images, each image a residue tuple; the
    list is complete, duplicate-free, and deterministically ordered.
    """
    fs = tuple(int(f) for f in target_torsion)
    if any(f < 1 for f in fs):
        raise ValueError("target factors must be positive")
    n = relations.cols
    m = relations.rows
    _, D, V, _ = _snf_worker(relations)
    # x solves R x = 0 iff x = V y with d_i y_i = 0 per coordinate
    diag = [D[i][i] if i < m else 0 for i in range(n)]
    per_coord = [list(product(*(_annihilator_values(d, f) for f in fs))) for d in diag]
    out = []
    for y in product(*per_coord):
        x = []
        for k in range(n):
            Vk = V[k]
            img = tuple(
                sum(Vk[i] * y[i][c] for i in range(n)) % fs[c]
                for c in range(len(fs)))
            x.append(img)
        out.append(tuple(x))
    return out


def hom_enumerate(generators: IntMatrix, ambient: FGAbelianGroup,
                  target_torsion) -> list:
    """All homomorphisms ambient/<rows> -> + Z/f_j, as generator-image tuples.

    Every relation of the presentation maps to zero by construction; the
    length equals hom_count whenever the source is finite.
    """
    return hom_images(presentation_matrix(generators, ambient), target_torsion)
