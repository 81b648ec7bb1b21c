"""Property-based sweep: the fast paths against the oracle's references on
generated arrangements, zero elements and duplicates included."""

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from gtutte import Arrangement, FGAbelianGroup, GroupSpec, chromatic_quasi
from gtutte.invariants import g_tutte
from gtutte.lie import enumerate_lie_layers
from gtutte.model import CapExceeded
from gtutte.oracle import (brute_complement_count, downs_from_covers,
                           reference_g_tutte, reference_strict_downs)
from gtutte.toric import enumerate_toric_layers

FACTORS = (2, 3, 4, 6)
TARGETS = (GroupSpec.circle(), GroupSpec(reals=1), GroupSpec.cyclic(4),
           GroupSpec(f_torsion=(2,), circles=1))


@st.composite
def arrangements(draw):
    free_rank = draw(st.integers(0, 4))
    torsion = []
    if draw(st.booleans()):
        torsion.append(draw(st.sampled_from(FACTORS)))
        if draw(st.booleans()):
            torsion.append(draw(st.sampled_from(
                [e for e in FACTORS if e % torsion[0] == 0])))
    gamma = FGAbelianGroup(free_rank, tuple(torsion))
    vector = st.lists(st.integers(-3, 3), min_size=gamma.ngens,
                      max_size=gamma.ngens)
    # elements drawn from a small pool make duplicates and zeros common
    pool = draw(st.lists(vector, min_size=1, max_size=4))
    pool.append([0] * gamma.ngens)
    n = draw(st.sampled_from((5, 4, 3, 2, 1, 0)))  # the larger first
    return Arrangement(gamma, draw(st.lists(st.sampled_from(pool),
                                            min_size=n, max_size=n)))


def _posets(arr):
    for build in (lambda: enumerate_toric_layers(arr),
                  lambda: enumerate_lie_layers(arr, 1, ()),
                  lambda: enumerate_lie_layers(arr, 1, (2,))):
        try:
            yield build()
        except CapExceeded:
            pass


@settings(max_examples=150, derandomize=True, database=None, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(arrangements())
def test_fast_paths_match_the_oracle(arr):
    for spec in TARGETS:
        assert g_tutte(arr, spec) == reference_g_tutte(arr, spec), spec
    for poset in _posets(arr):
        assert downs_from_covers(poset) == reference_strict_downs(poset), \
            poset.spec
    if arr.lcm_period() <= 200:
        qp = chromatic_quasi(arr)
        for q in range(1, 7):
            assert qp(q) == brute_complement_count(arr, q), q
