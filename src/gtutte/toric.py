"""Layer poset of the circle-target arrangement and its identities.

The layers come from the engine in posets.py with the target S^1.  A
layer's circle values are residues mod the lcm period P, printed as reduced
fractions of P, and its membership in the k-torsion subposet is a
divisibility test on the character's order.  `posets.layer_sum` selects
the k-torsion, partial or whole poset and checks its Möbius-weighted
dimension sum (Möbius values from one signed count per lattice of the
packed lattice counts) against the constituent or the circle characteristic
polynomial of the arrangement, with or without its torsion elements;
`k_total_subposet` and `partial_subposet` are re-exported from there.  The
size of a job is capped in one place, by the engine's two counts.
"""

from __future__ import annotations

from .model import Arrangement, GroupSpec
from .posets import (LayerPoset, enumerate_layers, k_total_subposet,
                     layer_sum, partial_subposet)


def enumerate_toric_layers(arr: Arrangement) -> LayerPoset:
    """Enumerate all layers over all element subsets and build the poset,
    under the engine's caps, `posets.MAX_COMPONENTS` and
    `posets.MAX_ORDER_PAIRS`."""
    return enumerate_layers(arr, GroupSpec.circle())


def k_partial_characteristic(arr: Arrangement, k: int, poset: LayerPoset,
                             check: bool = True):
    """Möbius-weighted dimension sum over the k-torsion partial subposet.

    Equals the k-th constituent of the chromatic quasi-polynomial of the
    poset's arrangement: `layer_sum(poset, k, partial=True)`, or, when
    check is disabled, the same sum with no partial-subposet or identity
    check.
    """
    if not check:
        return poset.characteristic([i for i in k_total_subposet(poset, k)
                                     if poset.layers[i].in_partial])
    return layer_sum(poset, k, partial=True)[1]
