"""Layer posets over targets of the form (lines)^g x F, g >= 1, F finite:
the front end of the layer engine in posets.py.

The real factors only contribute connectivity (a finite group has no
nonzero map into a real vector group), so a layer needs no real
coordinates: it is pinned down by the saturated span of its defining subset
and a single homomorphism from the whole ambient group into F.  Layers are
comparable exactly when the spans are nested and the homomorphism is the
same one.

The zero-dimensional case g = 0 degenerates to component counting and is
served by invariants.leading_part, not by this module.
"""

from __future__ import annotations

from math import gcd, lcm

from .intlinalg import FGAbelianGroup, hom_enumerate
from .invariants import checked, g_characteristic
from .model import Arrangement, GroupSpec
from .poly import UniPoly, scale_variable
from .posets import LayerPoset, enumerate_layers, partial_subposet

MAX_LAYERS = 50_000


def enumerate_lie_layers(arr: Arrangement, g: int, f_torsion=(),
                         max_layers: int = MAX_LAYERS) -> LayerPoset:
    """Enumerate the layers of the (lines)^g x F arrangement.

    Per subset S the components are the homomorphisms of the quotient by S
    into F, pushed forward to homs on the whole ambient group, enumerated
    once per distinct lattice <S> + torsion; the count is checked against
    multiplicity(S) * #F^(free corank) lattice by lattice, and max_layers
    caps the sum of those counts over all subsets.
    """
    if g < 1:
        raise ValueError("g must be >= 1; use leading_part for g = 0")
    spec = GroupSpec(f_torsion=f_torsion, reals=g)
    fs = spec.f_torsion
    # the lattice holds the torsion relations, so it presents its quotient
    # of the free group on gamma's generators
    free = FGAbelianGroup(arr.gamma.ngens)

    def homs(lattice, span):
        return hom_enumerate(lattice, free, fs)

    def describe(span, chi):
        order = lcm(*(m // gcd(m, *(img[t] for img in chi))
                      for t, m in enumerate(fs)))
        return chi, order, ",".join("+".join(str(x) for x in img) or "0"
                                    for img in chi)

    return enumerate_layers(arr, spec, homs, lambda x, y: y.chi, describe,
                            max_layers)


def scc(poset: LayerPoset) -> tuple:
    """Minimal elements whose localization contains no torsion element.

    partial_subposet checks their number against the direct count: the
    torsion homs into F killing no torsion element, times #F^(free rank).
    """
    return tuple(i for i in partial_subposet(poset) if poset.layers[i].rank == 0)


def partial_characteristic(arr: Arrangement, g: int, f_torsion=(),
                           poset: LayerPoset | None = None) -> UniPoly:
    """Möbius-weighted dimension sum over the partial poset; equals the
    target-group characteristic polynomial evaluated at #F * t^g."""
    spec = GroupSpec(f_torsion=f_torsion, reals=g)
    if poset is None:
        poset = enumerate_lie_layers(arr, g, spec.f_torsion)
    return checked(poset.characteristic(partial_subposet(poset)),
                   scale_variable(g_characteristic(arr, spec), spec.f_order, g),
                   "partial polynomial vs rescaled characteristic")


def total_characteristic(arr: Arrangement, g: int, f_torsion=(),
                         poset: LayerPoset | None = None) -> UniPoly:
    """Möbius-weighted dimension sum over the whole poset; equals the
    rescaled characteristic polynomial of the torsion-stripped arrangement."""
    spec = GroupSpec(f_torsion=f_torsion, reals=g)
    if poset is None:
        poset = enumerate_lie_layers(arr, g, spec.f_torsion)
    return checked(poset.characteristic(),
                   scale_variable(g_characteristic(arr.without_torsion(), spec),
                                  spec.f_order, g),
                   "total polynomial vs rescaled stripped characteristic")


def key_lie_sums(poset: LayerPoset) -> list:
    """Per-layer alternating sums over the defining subsets, compared with
    the Möbius value (inside the partial poset) or zero (outside)."""
    return poset.alternating_subset_sums()


def constituent_via_lie(arr: Arrangement, k: int, g: int):
    """The k-th constituent recovered from the (lines)^g x Z/k layer poset.

    Returns (polynomial, per-component split): the polynomial is the partial
    characteristic polynomial, which equals constituent_k(k * t^g); the
    split lists the Möbius-weighted sum over each surviving component.
    """
    if k < 1:
        raise ValueError("k must be positive")
    if g < 1:
        raise ValueError("g must be >= 1")
    poset = enumerate_lie_layers(arr, g, (k,) if k > 1 else ())
    roots = scc(poset)  # checks the partial subposet: the in_partial layers
    out = poset.characteristic([i for i, lay in enumerate(poset.layers)
                                if lay.in_partial])
    splits = [poset.characteristic([i for i in range(poset.n)
                                    if poset.component_of[i] == root])
              for root in roots]
    checked(sum(splits, UniPoly()), out, "per-component split vs whole")
    expected = scale_variable(g_characteristic(arr, GroupSpec.cyclic(k)), k, g)
    return checked(out, expected, "lie-side vs rescaled constituent"), splits
