"""Exact invariants of arrangements over finitely generated abelian groups.

Given a finite multiset of elements in a finitely generated abelian group,
this package computes, in exact integer arithmetic: Tutte-style bivariate
polynomials weighted by homomorphism counts, characteristic polynomials for
targets built from finite, circle and real factors, the chromatic
quasi-polynomial with all of its constituents, and the posets of layers of
the circle-target and line-target arrangements, together with independent
brute-force oracles for everything.
"""

from .intlinalg import (FGAbelianGroup, IntMatrix, cokernel,
                        hermite_normal_form, hom_enumerate, saturation)
from .invariants import (QuasiPolynomial, arithmetic_tutte, beta_coefficients,
                         chen_wang_compare, chromatic_quasi, g_characteristic,
                         g_tutte, leading_part, minimal_period,
                         reciprocity_eval, toric_characteristic)
from .model import Arrangement, GroupSpec, SubsetData, hom_count, multiplicity
from .poly import BiPoly, UniPoly, scale_variable, substitute_xy

__all__ = [
    "Arrangement", "BiPoly", "FGAbelianGroup", "GroupSpec", "IntMatrix",
    "QuasiPolynomial", "SubsetData", "UniPoly", "arithmetic_tutte",
    "beta_coefficients", "chen_wang_compare", "chromatic_quasi",
    "cokernel", "g_characteristic", "g_tutte", "hermite_normal_form",
    "hom_count", "hom_enumerate", "leading_part", "minimal_period",
    "multiplicity", "reciprocity_eval", "saturation", "scale_variable",
    "substitute_xy", "toric_characteristic",
]

__version__ = "0.1.0"
