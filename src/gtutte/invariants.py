"""Closed-form invariants computed by exact subset sums.

The bivariate subset sum over all 2^n element subsets, taken class by class
over the subset histogram with weights given by the homomorphism-count
multiplicity, specializes to everything else here:
the classical Tutte polynomial (real target), the arithmetic Tutte
polynomial (circle target), the characteristic polynomial of the target
group, and the chromatic quasi-polynomial (cyclic targets, one constituent
per residue class mod the lcm period).

Constituents are produced symbolically from gcds with a residue
representative, never by interpolating point counts; the brute-force counts
live in the oracle module and stay an independent cross-check.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import comb, gcd

from . import model
from .model import Arrangement, GroupSpec
from .poly import BiPoly, UniPoly, substitute_xy


# `chromatic_quasi` holds one constituent per residue: at this period, `quasi`
# takes about 0.4 s and prints 1.4 MB on a rank-2 input (2-core x86)
MAX_PERIOD = 50_000


class HypothesisError(ValueError):
    """A stated hypothesis of the requested identity is violated."""


class IdentityCheckError(AssertionError):
    """A built-in cross-check identity failed (this signals a bug)."""


def checked(value: UniPoly, expected: UniPoly, what: str) -> UniPoly:
    """`value`, once it equals the independently computed `expected`."""
    if value != expected:
        raise IdentityCheckError(f"{what}: {value} != {expected}")
    return value


def g_tutte(arr: Arrangement, spec: GroupSpec) -> BiPoly:
    """Subset sum of m(S) * (x-1)^(rank(A)-rank(S)) * (y-1)^(#S-rank(S)),
    taken over the classes of the subset histogram."""
    r_full = arr.rank
    weights: dict = {}  # (rank(A)-rank(S), #S-rank(S)) -> summed m(S)
    for key, count in arr.histogram().items():
        ab = (r_full - key.rank, key.size - key.rank)
        weights[ab] = weights.get(ab, 0) + count * model.multiplicity(key, spec)
    terms: dict = {}
    for (a, b), m in weights.items():
        for i in range(a + 1):
            ci = m * comb(a, i) * (-1) ** (a - i)
            for j in range(b + 1):
                key = (i, j)
                terms[key] = terms.get(key, 0) + ci * comb(b, j) * (-1) ** (b - j)
    return BiPoly(terms)


def arithmetic_tutte(arr: Arrangement) -> BiPoly:
    """The circle-target specialization: weights are the quotient torsion orders."""
    return g_tutte(arr, GroupSpec.circle())


def g_characteristic(arr: Arrangement, spec: GroupSpec) -> UniPoly:
    """(-1)^rank(A) * t^(rank(gamma)-rank(A)) * T(1-t, 0), exactly."""
    r_full = arr.rank
    u = substitute_xy(g_tutte(arr, spec))
    sign = -1 if r_full % 2 else 1
    return UniPoly.monomial(arr.gamma.free_rank - r_full, sign) * u


@dataclass(frozen=True)
class QuasiPolynomial:
    """Period plus one exact integer polynomial per residue class.

    constituents[k-1] is the polynomial giving the value at arguments
    congruent to k mod period, for k = 1..period.
    """

    period: int
    constituents: tuple

    def constituent(self, k: int) -> UniPoly:
        if k < 1:
            raise ValueError("residue representative must be positive")
        return self.constituents[(k - 1) % self.period]

    def __call__(self, q: int) -> int:
        return self.constituent(q)(q)

    def serialize(self) -> dict:
        return {"period": self.period,
                "constituents": [p.serialize() for p in self.constituents]}


def chromatic_quasi(arr: Arrangement) -> QuasiPolynomial:
    """All constituents of the cyclic-target characteristic polynomial.

    The k-th constituent is the characteristic polynomial for the cyclic
    target of order k; it only depends on gcds of k with the quotient
    torsion factors, all of which divide the lcm period, so it is that of
    the target of order gcd(k, period) and is computed once per divisor.
    A period above `MAX_PERIOD` is refused with `CapExceeded` before any
    constituent is built.
    """
    period = arr.lcm_period()
    if period > MAX_PERIOD:
        raise model.CapExceeded(
            f"{arr.describe()}: lcm period {period} exceeds the cap "
            f"{MAX_PERIOD} (one constituent is held per residue)")
    by_divisor = {d: g_characteristic(arr, GroupSpec.cyclic(d))
                  for d in _divisors(period)}
    constituents = tuple(by_divisor[gcd(k, period)] for k in range(1, period + 1))
    return QuasiPolynomial(period, constituents)


def constituent(arr: Arrangement, k: int) -> UniPoly:
    """The k-th constituent alone, as `chromatic_quasi(arr).constituent(k)`
    gives it, without building the other residues."""
    if k < 1:
        raise ValueError("residue representative must be positive")
    return g_characteristic(arr, GroupSpec.cyclic(gcd(k, arr.lcm_period())))


def first_constituent(arr: Arrangement) -> UniPoly:
    """Constituent 1: zero when a torsion element is present, else the
    characteristic polynomial of the real-target arrangement."""
    return g_characteristic(arr, GroupSpec.cyclic(1))


def toric_characteristic(arr: Arrangement) -> UniPoly:
    """Characteristic polynomial of the layer poset over the circle target.

    Requires a free ambient group and no zero element; outside those
    hypotheses the identity with the arithmetic Tutte specialization has no
    contract, so this refuses instead of extrapolating.
    """
    if arr.gamma.torsion:
        raise HypothesisError("ambient group must be free (torsion present)")
    zero = (0,) * arr.gamma.ngens
    if zero in arr.elements:
        raise HypothesisError("the zero element is not allowed here")
    return checked(g_characteristic(arr, GroupSpec.cyclic(arr.lcm_period())),
                   g_characteristic(arr, GroupSpec.circle()),
                   "last constituent vs arithmetic Tutte specialization")


def beta_coefficients(arr: Arrangement, q: int,
                      qp: QuasiPolynomial | None = None) -> list:
    """Unsigned coefficients of the constituent at q's residue class.

    beta_j(q) = (-1)^(rank(gamma)-j) * [t^j] constituent; all are checked
    nonnegative.  Indexed j = 0..rank(gamma).
    """
    if q < 1:
        raise ValueError("q must be positive")
    c = constituent(arr, q) if qp is None else qp.constituent(q)
    r = arr.gamma.free_rank
    betas = []
    for j in range(r + 1):
        b = (-1) ** (r - j) * c.coefficient(j)
        if b < 0:
            raise IdentityCheckError(
                f"beta_{j}({q}) = {b} < 0 on {arr.describe()}")
        betas.append(b)
    return betas


def chen_wang_compare(arr: Arrangement, a: int, b: int) -> list:
    """Coefficientwise comparison beta_j(a) <= beta_j(b) for a | b."""
    if a < 1 or b < 1 or b % a:
        raise ValueError("need positive a dividing b")
    beta_a = beta_coefficients(arr, a)
    beta_b = beta_coefficients(arr, b)
    return [{"j": j, "beta_a": x, "beta_b": y, "ok": x <= y}
            for j, (x, y) in enumerate(zip(beta_a, beta_b))]


def reciprocity_eval(arr: Arrangement, k: int, q: int,
                     qp: QuasiPolynomial | None = None) -> int:
    """(-1)^rank(gamma) * constituent_k(-q); nonnegative for every k, q >= 1,
    since it equals sum_j beta_j(k) * q^j."""
    if q < 1:
        raise ValueError("q must be positive")
    c = constituent(arr, k) if qp is None else qp.constituent(k)
    val = (-1) ** arr.gamma.free_rank * c(-q)
    if val < 0:
        raise IdentityCheckError(
            f"reciprocity value {val} < 0 at k={k}, q={q} on {arr.describe()}")
    return val


def leading_part(arr: Arrangement, spec: GroupSpec) -> int:
    """Top-degree coefficient of the characteristic polynomial times
    (#F)^rank(gamma): the zero-dimensional-target count of surviving
    components."""
    lead = g_characteristic(arr, spec).coefficient(arr.gamma.free_rank)
    return lead * spec.f_order ** arr.gamma.free_rank


def _divisors(n: int) -> list:
    return [d for d in range(1, n + 1) if n % d == 0]


def minimal_period(qp: QuasiPolynomial) -> int:
    """Smallest divisor of the period under which the constituents repeat."""
    for p in _divisors(qp.period):
        if all(qp.constituents[k] == qp.constituents[k % p]
               for k in range(qp.period)):
            return p
    return qp.period
