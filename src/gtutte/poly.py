"""Exact polynomial arithmetic with integer coefficients.

Univariate polynomials are dense (degrees stay below the ambient rank);
bivariate ones are sparse maps (i, j) -> coefficient.  Coefficients are
Python ints throughout; evaluation also accepts Fractions.  The one
specialization of a bivariate polynomial, T(1 - t, 0), expands each power
of 1 - t by binomial coefficients, so no polynomial is raised to a power.
"""

from __future__ import annotations

from math import comb


class UniPoly:
    """Univariate polynomial, coefficients ascending, no trailing zeros."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs=()):
        c = [int(x) for x in coeffs]
        while c and c[-1] == 0:
            c.pop()
        object.__setattr__(self, "coeffs", tuple(c))

    @staticmethod
    def monomial(power: int, coeff: int = 1) -> "UniPoly":
        return UniPoly([0] * power + [coeff])

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1  # -1 for the zero polynomial

    def coefficient(self, k: int) -> int:
        return self.coeffs[k] if 0 <= k < len(self.coeffs) else 0

    def __bool__(self):
        return bool(self.coeffs)

    def __eq__(self, other):
        return isinstance(other, UniPoly) and self.coeffs == other.coeffs

    def __add__(self, other: "UniPoly") -> "UniPoly":
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, x in enumerate(b):
            out[i] += x
        return UniPoly(out)

    def __mul__(self, other: "UniPoly") -> "UniPoly":
        a, b = self.coeffs, other.coeffs
        if not a or not b:
            return UniPoly()
        out = [0] * (len(a) + len(b) - 1)
        for i, x in enumerate(a):
            if x:
                for j, y in enumerate(b):
                    out[i + j] += x * y
        return UniPoly(out)

    def __call__(self, value):
        """Exact evaluation at an int or Fraction (Horner)."""
        acc = 0
        for c in reversed(self.coeffs):
            acc = acc * value + c
        return acc

    def __repr__(self):
        return f"UniPoly({list(self.coeffs)})"

    def serialize(self) -> list:
        return list(self.coeffs)


def scale_variable(p: UniPoly, c: int, g: int) -> UniPoly:
    """p(c * t^g): monomial substitution, no cross terms."""
    if c < 1 or g < 1:
        raise ValueError("scale and exponent must be positive")
    out = [0] * (g * p.degree + 1 if p else 0)
    ck = 1
    for i, a in enumerate(p.coeffs):
        out[g * i] += a * ck
        ck *= c
    return UniPoly(out)


class BiPoly:
    """Sparse bivariate polynomial {(i, j): coeff}, zero coefficients dropped."""

    __slots__ = ("terms",)

    def __init__(self, terms: dict):
        d = {}
        for (i, j), c in terms.items():
            c = int(c)
            if c:
                d[(int(i), int(j))] = d.get((int(i), int(j)), 0) + c
        object.__setattr__(self, "terms", {k: v for k, v in d.items() if v})

    def __eq__(self, other):
        return isinstance(other, BiPoly) and self.terms == other.terms

    def __add__(self, other: "BiPoly") -> "BiPoly":
        d = dict(self.terms)
        for k, c in other.terms.items():
            d[k] = d.get(k, 0) + c
        return BiPoly(d)

    def __mul__(self, other: "BiPoly") -> "BiPoly":
        d = {}
        for (i1, j1), c1 in self.terms.items():
            for (i2, j2), c2 in other.terms.items():
                k = (i1 + i2, j1 + j2)
                d[k] = d.get(k, 0) + c1 * c2
        return BiPoly(d)

    def __repr__(self):
        return f"BiPoly({self.triples()})"

    def triples(self) -> list:
        """Lexicographically sorted [i, j, coefficient] triples."""
        return [[i, j, c] for (i, j), c in sorted(self.terms.items())]


def substitute_xy(t: BiPoly) -> UniPoly:
    """t(x, y) with x := 1 - t and y := 0; terms with a y power vanish, and
    each term c * x^i adds c * C(i, k) * (-1)^k to the coefficient of t^k."""
    coeffs = [0] * (1 + max((i for i, j in t.terms if not j), default=-1))
    for (i, j), c in t.terms.items():
        if not j:
            for k in range(i + 1):
                coeffs[k] += c * comb(i, k) * (-1) ** k
    return UniPoly(coeffs)
