"""Layer posets over targets of the form (lines)^g x F, g >= 1, F finite,
and their identities.

The layers come from the engine in posets.py with no circle: a layer is
its saturated span and one homomorphism of the whole ambient group into F.
`posets.layer_sum` checks the Möbius-weighted dimension sums (Möbius
values from the engine's signed pass over the lattice states) over the
partial and whole posets against the target's characteristic polynomial,
of the arrangement and of its torsion-stripped part, evaluated at
#F * t^g.  With F = Z/k the partial sum is the k-th constituent at
k * t^g: `constituent_via_lie` reads it off `layer_sum` and splits it over
the surviving components.  The size of a job is capped in one place, by
the engine's two counts.

The zero-dimensional case g = 0 degenerates to component counting and is
served by invariants.leading_part, not by this module.
"""

from __future__ import annotations

from .invariants import checked
from .model import Arrangement, GroupSpec
from .poly import UniPoly
from .posets import LayerPoset, enumerate_layers, layer_sum, partial_subposet


def enumerate_lie_layers(arr: Arrangement, g: int, f_torsion=()) -> LayerPoset:
    """Enumerate the layers of the (lines)^g x F arrangement.

    Each lattice's components number multiplicity(<S>) * #F^(free corank);
    their sum over the distinct lattices is capped by
    `posets.MAX_COMPONENTS`, and the same sum with each component weighted
    by 2^rank by `posets.MAX_ORDER_PAIRS`; each count is checked on
    enumeration.
    """
    if g < 1:
        raise ValueError(f"{arr.describe()}: g must be >= 1; use leading_part "
                         "for g = 0")
    return enumerate_layers(arr, GroupSpec(f_torsion=f_torsion, reals=g))


def scc(poset: LayerPoset) -> tuple:
    """Minimal elements whose localization contains no torsion element.

    partial_subposet checks their number against the direct count: the
    torsion homs into F killing no torsion element, times #F^(free rank).
    """
    return tuple(i for i in partial_subposet(poset) if poset.layers[i].rank == 0)


def total_characteristic(arr: Arrangement, g: int, f_torsion=(),
                         poset: LayerPoset | None = None) -> UniPoly:
    """Möbius-weighted dimension sum over the whole poset, built when none
    is given; equals the rescaled characteristic polynomial of the
    torsion-stripped arrangement (`posets.layer_sum`)."""
    if poset is None:
        poset = enumerate_lie_layers(arr, g, f_torsion)
    return layer_sum(poset)[1]


def key_lie_sums(poset: LayerPoset) -> list:
    """Per-layer alternating sums over the defining subsets, compared with
    the Möbius value (inside the partial poset) or zero (outside)."""
    return poset.alternating_subset_sums()


def constituent_via_lie(arr: Arrangement, k: int, g: int):
    """The k-th constituent recovered from the (lines)^g x Z/k layer poset.

    Returns (polynomial, per-component split).  The polynomial is the
    partial sum of `layer_sum`, checked there against the characteristic
    polynomial over the target: m(S) reads no real factor, so that is
    constituent_k(k * t^g).  The split lists the Möbius-weighted sum over
    each surviving component, rooted at a rank-0 layer of the partial
    subposet, and is checked to add up to the polynomial.
    """
    if k < 1:
        raise ValueError(f"{arr.describe()}: k must be positive")
    poset = enumerate_lie_layers(arr, g, (k,) if k > 1 else ())
    indices, out = layer_sum(poset, partial=True)
    splits = [poset.characteristic([i for i in range(poset.n)
                                    if poset.component_of[i] == root])
              for root in indices if poset.layers[root].rank == 0]
    return checked(sum(splits, UniPoly()), out, "per-component split vs whole"), splits
