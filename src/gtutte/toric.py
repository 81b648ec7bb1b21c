"""Layer poset of the circle-target arrangement and its identities.

The layers come from the engine in posets.py with the target S^1.  A
layer's circle values are residues mod the lcm period P, printed as reduced
fractions of P, and its membership in the k-torsion subposet is a
divisibility test on the character's order.  The Möbius-weighted dimension
sums over the k-torsion, partial and whole posets equal the constituents
and the circle characteristic polynomials of the arrangement, with or
without its torsion elements; each wrapper checks its identity.  The size
of a job is capped in one place, by the engine's two counts.
"""

from __future__ import annotations

from .invariants import IdentityCheckError
from .model import Arrangement, GroupSpec
from .posets import LayerPoset, checked_sum, enumerate_layers, partial_subposet


def enumerate_toric_layers(arr: Arrangement) -> LayerPoset:
    """Enumerate all layers over all element subsets and build the poset,
    under the engine's caps, `posets.MAX_COMPONENTS` and
    `posets.MAX_ORDER_PAIRS`."""
    return enumerate_layers(arr, GroupSpec.circle())


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


def k_partial_characteristic(arr: Arrangement, k: int, poset: LayerPoset,
                             check: bool = True):
    """Möbius-weighted dimension sum over the k-torsion partial subposet.

    Equals the k-th constituent of the chromatic quasi-polynomial; the
    identity is verified against the independent subset-sum computation
    unless check is disabled.
    """
    indices = [i for i in k_total_subposet(poset, k) if poset.layers[i].in_partial]
    if not check:
        return poset.characteristic(indices)
    return checked_sum(poset, indices, arr, GroupSpec.cyclic(k),
                       f"k-partial polynomial vs constituent (k={k})")


def k_total_characteristic(arr: Arrangement, k: int, poset: LayerPoset):
    """Möbius-weighted dimension sum over the k-torsion subposet; equals the
    k-th constituent of the arrangement with its torsion elements removed."""
    return checked_sum(poset, k_total_subposet(poset, k), arr.without_torsion(),
                       GroupSpec.cyclic(k),
                       f"k-total polynomial vs stripped constituent (k={k})")


def total_characteristic(arr: Arrangement, poset: LayerPoset):
    """Full Möbius-weighted dimension sum; equals the circle-target
    characteristic polynomial of the torsion-stripped arrangement."""
    return checked_sum(poset, None, arr.without_torsion(), GroupSpec.circle(),
                       "total polynomial vs stripped circle characteristic")


def partial_characteristic(arr: Arrangement, poset: LayerPoset):
    """Möbius-weighted dimension sum over the partial subposet; equals the
    circle-target characteristic polynomial of the full arrangement."""
    return checked_sum(poset, partial_subposet(poset), arr, GroupSpec.circle(),
                       "partial polynomial vs circle characteristic")
