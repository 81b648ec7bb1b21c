"""Layer poset of the circle-target arrangement: the front end of the
layer engine in posets.py.

Every intersection of circle-target kernels is a disjoint union of torsion
translates of a subtorus, so a layer is pinned down exactly by a canonical
pair: the saturated subgroup on which its points are constant (an HNF
lattice in the free quotient, with all ambient torsion implicitly included)
and the common character value on that subgroup's generators.  The values
are integer residues mod the lcm period P of the arrangement: every
per-subset exponent E divides P, so a character into Z/E is scaled by P/E,
and it is printed as the reduced fraction of P.  Membership of a layer in
the k-torsion subposet is a divisibility test on the character's order.
"""

from __future__ import annotations

from math import gcd

from .intlinalg import FGAbelianGroup, IntMatrix, hnf_solve, hom_enumerate
from .invariants import IdentityCheckError, g_characteristic
from .model import Arrangement, GroupSpec
from .posets import LayerPoset, enumerate_layers, partial_subposet

MAX_LAYERS = 10_000


def enumerate_toric_layers(arr: Arrangement, max_layers: int = MAX_LAYERS) -> LayerPoset:
    """Enumerate all layers over all element subsets and build the poset.

    Per subset, the components are the characters of the finite quotient
    (saturation mod span), produced by homomorphism enumeration into a
    cyclic group of exponent order.  max_layers caps the predicted number
    of layer instances, the sum over subsets of the quotient torsion order.
    """
    gamma = arr.gamma
    f = gamma.free_rank
    coefficients: dict = {}  # (span X, span Y) -> span X rows over span Y

    def characters(mask, span, data):
        exponent = data.torsion_factors[-1] if data.torsion_factors else 1
        gens = []
        for vec in arr.mask_elements(mask):
            coeffs = hnf_solve(span, vec[:f])
            if coeffs is None:
                raise IdentityCheckError("element escaped its own saturation")
            gens.append(coeffs + vec[f:])
        gens_m = IntMatrix.from_rows(gens, span.rows + len(gamma.torsion))
        homs = hom_enumerate(gens_m, FGAbelianGroup(span.rows, gamma.torsion),
                             (exponent,))
        scale = arr.lcm_period() // exponent
        return [tuple(img[0] * scale for img in h) for h in homs]

    def restrict(x, y):
        pair = (x.span.data, y.span.data)
        rows = coefficients.get(pair)
        if rows is None:
            rows = coefficients[pair] = [hnf_solve(y.span, row)
                                         for row in x.span.data]
        period = arr.lcm_period()
        free = y.chi[:y.rank]
        return tuple(sum(c * v for c, v in zip(row, free)) % period
                     for row in rows) + y.chi[y.rank:]

    def describe(span, chi):
        period = arr.lcm_period()
        text = ",".join(f"{v // gcd(v, period)}/{period // gcd(v, period)}"
                        if v else "0" for v in chi)
        return chi[span.rows:], period // gcd(period, *chi), text

    return enumerate_layers(arr, GroupSpec.circle(), characters, restrict,
                            describe, max_layers)


def k_total_subposet(poset: LayerPoset, k: int) -> tuple:
    """Layers containing a k-torsion point: character order divides k.

    The result is an order ideal (downward closed), which is checked.
    """
    if k < 1:
        raise ValueError("k must be positive (nonpositive k is undefined here)")
    chosen = tuple(i for i, lay in enumerate(poset.layers) if k % lay.order == 0)
    inside = set(chosen)
    for j in chosen:
        if not poset.strict_downs[j] <= inside:
            raise IdentityCheckError(f"k-torsion subposet not downward closed at {j}")
    return chosen


def k_partial_characteristic(arr: Arrangement, k: int,
                             poset: LayerPoset | None = None,
                             check: bool = True):
    """Möbius-weighted dimension sum over the k-torsion partial subposet.

    Equals the k-th constituent of the chromatic quasi-polynomial; the
    identity is verified against the independent subset-sum computation
    unless check is disabled.
    """
    if poset is None:
        poset = enumerate_toric_layers(arr)
    indices = [i for i in k_total_subposet(poset, k)
               if poset.layers[i].in_partial]
    out = poset.characteristic(indices)
    if check:
        expected = g_characteristic(arr, GroupSpec.cyclic(k))
        if out != expected:
            raise IdentityCheckError(
                f"k-partial polynomial {out} != constituent {expected} (k={k})")
    return out


def k_total_characteristic(arr: Arrangement, k: int,
                           poset: LayerPoset | None = None,
                           check: bool = True):
    """Möbius-weighted dimension sum over the k-torsion subposet.

    Equals the k-th constituent of the arrangement with its torsion elements
    removed; verified unless check is disabled.
    """
    if poset is None:
        poset = enumerate_toric_layers(arr)
    indices = k_total_subposet(poset, k)
    out = poset.characteristic(indices)
    if check:
        stripped = arr.without_torsion()
        expected = g_characteristic(stripped, GroupSpec.cyclic(k))
        if out != expected:
            raise IdentityCheckError(
                f"k-total polynomial {out} != stripped constituent {expected} (k={k})")
    return out


def total_characteristic(arr: Arrangement, poset: LayerPoset | None = None,
                         check: bool = True):
    """Full Möbius-weighted dimension sum; equals the circle-target
    characteristic polynomial of the torsion-stripped arrangement."""
    if poset is None:
        poset = enumerate_toric_layers(arr)
    out = poset.characteristic()
    if check:
        expected = g_characteristic(arr.without_torsion(), GroupSpec.circle())
        if out != expected:
            raise IdentityCheckError(
                f"total polynomial {out} != circle characteristic {expected}")
    return out


def partial_characteristic(arr: Arrangement, poset: LayerPoset | None = None,
                           check: bool = True):
    """Möbius-weighted dimension sum over the partial subposet; equals the
    circle-target characteristic polynomial of the full arrangement."""
    if poset is None:
        poset = enumerate_toric_layers(arr)
    out = poset.characteristic(partial_subposet(poset))
    if check:
        expected = g_characteristic(arr, GroupSpec.circle())
        if out != expected:
            raise IdentityCheckError(
                f"partial polynomial {out} != circle characteristic {expected}")
    return out
