"""Closed-form invariants computed by exact subset sums.

Each invariant is a sum over the classes of the subset histogram, weighted
by the homomorphism-count multiplicity m(S).  The bivariate sum is the
G-Tutte polynomial; its real and circle targets give the classical and
arithmetic Tutte polynomials.  The characteristic polynomial is the signed
class sum of (-1)^#S * m(S) * t^(rank(gamma)-rank(S)) over the
arrangement's signed classes (the subset counts grouped by rank and torsion
factors); the tests check it against the Tutte specialization.  The
constituent at k is that polynomial for the cyclic target Z/gcd(k, period),
and the minimal period is read off the same classes.

Constituents are produced symbolically, never by interpolating point
counts; the brute-force counts live in the oracle module and stay an
independent cross-check.
"""

from __future__ import annotations

import sys
from functools import cached_property
from math import comb, floor, gcd, lcm, log10, prod

from . import model
from .model import Arrangement, GroupSpec
from .poly import BiPoly, UniPoly


# the dense view holds one constituent per residue: at this period, `quasi`
# takes about 0.4 s and prints 1.4 MB on a rank-2 input (2-core x86)
MAX_PERIOD = 50_000
# Miller-Rabin rounds, trial divisions and expansion terms: 0.1 s (2-core x86)
MAX_PERIOD_STEPS = 10**6
# a dense polynomial holds one coefficient per degree, and a few bytes of
# input name any free rank: at this degree `char` takes about 0.14 s and
# 17 MB on an empty arrangement (2-core x86)
MAX_DEGREE = 10_000


class HypothesisError(ValueError):
    """A stated hypothesis of the requested identity is violated."""


class IdentityCheckError(AssertionError):
    """A built-in cross-check identity failed (this signals a bug)."""


def check_degree(arr: Arrangement, degree: int, what: str):
    """Refuse a degree past `MAX_DEGREE` before the work it sizes: that of
    a dense polynomial, or the circle count p, which raises each torsion
    factor d of m(S) to d^p."""
    if degree > MAX_DEGREE:
        raise model.CapExceeded(
            f"{arr.describe()}: {what}: degree {degree} exceeds the cap "
            f"{MAX_DEGREE}")


def _digit_limit() -> int:
    """Python's int-to-string limit, 0 where it has none."""
    return getattr(sys, "get_int_max_str_digits", lambda: 0)()


def check_digits(arr: Arrangement, what: str, digits: int):
    """Refuse a result of up to `digits` digits past Python's int-to-string
    limit, which printing it would hit."""
    limit = _digit_limit()
    if limit and digits > limit:
        raise model.CapExceeded(f"{arr.describe()}: {what} may reach {digits} "
                                f"digits, past the cap {limit}")


def check_circles(arr: Arrangement, spec: GroupSpec):
    """`check_degree` on the circle count p, then `check_digits` on a bound
    of every coefficient, 8^n times the largest m(S).  m(S) is T^p, T the
    quotient torsion order, times a product of gcds with F, at most #F^g
    for g the generators of gamma; once that bound could pass the limit,
    the largest m(S) itself is taken."""
    check_degree(arr, spec.circles, "circle count")
    spread = log10(8) * arr.n
    bound = 1 + arr.gamma.ngens * log10(spec.f_order) + spread
    if spec.circles:
        bound += spec.circles * log10(
            max(prod(key.torsion_factors) for key in arr.class_counts()))
    if 0 < _digit_limit() < bound:
        top = max(model.multiplicity(key, spec) for key in arr.class_counts())
        check_digits(arr, ("circle count" if spec.circles else "finite target")
                     + ": coefficients", 1 + floor(log10(top) + spread))


def checked(value: UniPoly, expected: UniPoly, what: str) -> UniPoly:
    """`value`, once it equals the independently computed `expected`."""
    if value != expected:
        raise IdentityCheckError(f"{what}: {value} != {expected}")
    return value


def g_tutte(arr: Arrangement, spec: GroupSpec) -> BiPoly:
    """Subset sum of m(S) * (x-1)^(rank(A)-rank(S)) * (y-1)^(#S-rank(S)),
    taken over the classes of the subset histogram."""
    check_circles(arr, spec)
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
    """Subset sum of (-1)^#S * m(S) * t^(rank(gamma)-rank(S)), taken over
    `arr.signed_classes()`."""
    f = arr.gamma.free_rank
    check_degree(arr, f, "characteristic polynomial")
    check_circles(arr, spec)
    coeffs = [0] * (f + 1)
    for key, count in arr.signed_classes().items():
        coeffs[f - key.rank] += count * model.multiplicity(key, spec)
    return UniPoly(coeffs)


class QuasiPolynomial:
    """The chromatic quasi-polynomial of an arrangement, held as its gcd form.

    The constituent at k is the characteristic polynomial for the cyclic
    target Z/k, whose signed classes (`arr.signed_classes()`) are weighted
    by m(S) = prod gcd(d_i, k) over the quotient torsion factors d_i.  It
    depends on k only through gcd(k, period), so it is `g_characteristic`
    for Z/gcd(k, period), evaluated once per divisor on first use.
    `constituents` is the dense view, k = 1..period; `minimal_period` skips it.
    """

    def __init__(self, arr: Arrangement):
        self.arr = arr
        self.period = arr.lcm_period()
        self._by_divisor: dict = {}

    def constituent(self, k: int) -> UniPoly:
        if k < 1:
            raise ValueError(f"{self.arr.describe()}: k must be positive")
        d = gcd(k, self.period)
        if d not in self._by_divisor:
            self._by_divisor[d] = g_characteristic(self.arr, GroupSpec.cyclic(d))
        return self._by_divisor[d]

    @cached_property
    def constituents(self) -> tuple:
        """One constituent per residue; a period above `MAX_PERIOD` is
        refused with `CapExceeded` before any constituent is built."""
        if self.period > MAX_PERIOD:
            check_digits(self.arr, "lcm period", 2 + floor(log10(self.period)))
            raise model.CapExceeded(
                f"{self.arr.describe()}: lcm period {self.period} exceeds the "
                f"cap {MAX_PERIOD} (one constituent is held per residue)")
        return tuple(self.constituent(k) for k in range(1, self.period + 1))

    def __call__(self, q: int) -> int:
        return self.constituent(q)(q)

    def serialize(self) -> dict:
        return {"period": self.period,
                "constituents": [p.serialize() for p in self.constituents]}


def chromatic_quasi(arr: Arrangement) -> QuasiPolynomial:
    """The quasi-polynomial with its dense view built, so a period above
    `MAX_PERIOD` is refused here; `minimal_period` needs no dense view."""
    qp = QuasiPolynomial(arr)
    qp.constituents  # built now, inside this call
    return qp


def toric_characteristic(arr: Arrangement) -> UniPoly:
    """Characteristic polynomial of the layer poset over the circle target:
    `g_characteristic` over S^1, which is also the constituent at the lcm
    period P, since every quotient torsion factor divides P.

    Requires a free ambient group and no zero element; outside those
    hypotheses the identity with the arithmetic Tutte specialization has no
    contract, so this refuses instead of extrapolating.
    """
    if arr.gamma.torsion:
        raise HypothesisError("ambient group must be free (torsion present)")
    zero = (0,) * arr.gamma.ngens
    if zero in arr.elements:
        raise HypothesisError("the zero element is not allowed here")
    return g_characteristic(arr, GroupSpec.circle())


def beta_coefficients(arr: Arrangement, q: int,
                      qp: QuasiPolynomial | None = None) -> list:
    """Unsigned coefficients of the constituent at q's residue class.

    beta_j(q) = (-1)^(rank(gamma)-j) * [t^j] constituent; all are checked
    nonnegative.  Indexed j = 0..rank(gamma).
    """
    if q < 1:
        raise ValueError(f"{arr.describe()}: q must be positive")
    c = (QuasiPolynomial(arr) if qp is None else qp).constituent(q)
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
        raise ValueError(f"{arr.describe()}: need positive a dividing b")
    qp = QuasiPolynomial(arr)
    beta_a = beta_coefficients(arr, a, qp)
    beta_b = beta_coefficients(arr, b, qp)
    return [{"j": j, "beta_a": x, "beta_b": y, "ok": x <= y}
            for j, (x, y) in enumerate(zip(beta_a, beta_b))]


def reciprocity_eval(arr: Arrangement, k: int, q: int,
                     qp: QuasiPolynomial | None = None) -> int:
    """(-1)^rank(gamma) * constituent_k(-q); nonnegative for every k, q >= 1,
    since it equals sum_j beta_j(k) * q^j <= sum_j |c_j| * q^rank(gamma), c_j
    the coefficients: a bound that goes through `check_digits` first."""
    if q < 1:
        raise ValueError(f"{arr.describe()}: q must be positive")
    c = (QuasiPolynomial(arr) if qp is None else qp).constituent(k)
    check_digits(arr, "reciprocity: the value", 2 + floor(log10(
        max(1, sum(map(abs, c.coeffs)))) + arr.gamma.free_rank * log10(q)))
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


def _is_prime(n: int) -> bool:
    """Miller-Rabin to the prime bases up to 37, exact below their least strong
    pseudoprime (Sorenson and Webster, Math. Comp. 2017) and False from it on."""
    bases = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)
    s = ((n - 1) & (1 - n)).bit_length() - 1  # n - 1 = d * 2^s with d odd
    return n in bases or 37 < n < 318_665_857_834_031_151_167_461 and all(
        pow(a, (n - 1) >> s, n) == 1 or any(pow(a, (n - 1) >> s << i, n) == n - 1
                                            for i in range(s)) for a in bases)


def minimal_period(qp: QuasiPolynomial) -> int:
    """lcm{e : [e | k] has a nonzero coefficient in the gcd form}, once the
    period passes `check_digits`; a class with torsion factors d_1 | ... | d_s
    weights k by prod gcd(d_i, k) = sum_(e | d_s) a_e [e | k], a_e
    multiplicative, a_(p^j) = prod gcd(d_i, p^j) - prod gcd(d_i, p^(j-1))."""
    arr, steps, factored, coeff = qp.arr, 0, {}, {}
    check_digits(arr, "lcm period", 2 + floor(log10(qp.period)))
    for (rank, _, d), count in arr.signed_classes().items():
        if (top := max(d, default=1)) not in factored:
            m, p, factors, tested = top, 2, factored.setdefault(top, {}), 1
            while m > 1 and steps <= MAX_PERIOD_STEPS:
                if m != tested:  # a new cofactor: 12 Miller-Rabin rounds first
                    tested, steps, p = m, steps + 12, m if _is_prime(m) else p
                while m % p == 0:
                    m, factors[p] = m // p, factors.get(p, 0) + 1
                # past the square root of m, m is prime
                p, steps = (p + 1 if p * p < m else m), steps + 1
        steps += prod(v + 1 for v in factored[top].values())
        if steps > MAX_PERIOD_STEPS:
            raise model.CapExceeded(f"{arr.describe()}: minimal period: {steps} "
                                    f"steps exceed the cap {MAX_PERIOD_STEPS}")
        terms = {1: count}
        for p, v in factored[top].items():
            g = [0] + [prod(gcd(x, p**j) for x in d) for j in range(v + 1)]
            terms = {e * p**j: c * (g[j + 1] - g[j])
                     for e, c in terms.items() for j in range(v + 1)}
        for e, c in terms.items():
            coeff[e, rank] = coeff.get((e, rank), 0) + c
    return lcm(*(e for (e, _), c in coeff.items() if c))
