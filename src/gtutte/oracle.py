"""Independent brute-force ground truth for every identity in the package.

Everything here is deliberately naive: full enumerations of homomorphism
groups, complement counting that examines every hom (the coordinates
split into a head and a tail, each element's tail homs read as bitmasks
out of a residue table: no subset sum, no lattice), the plain sum over
all 2^n element subsets, the textbook Möbius recursion (on any leq
matrix, and on a layer poset's cover pairs), pairwise containment tests
between layers and per-subset layer components.  The only code shared
with the symbolic path is the Arrangement data type and the exact integer
linear algebra, so agreement between the two sides is meaningful
differential evidence.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from itertools import product
from math import comb, gcd, isqrt, lcm, prod
from operator import mul

from . import model
from .intlinalg import (FGAbelianGroup, IntMatrix, hnf_solve, hom_enumerate,
                        saturation)
from .invariants import (IdentityCheckError, beta_coefficients,
                         chromatic_quasi, g_characteristic)
from .lie import enumerate_lie_layers, key_lie_sums
from .model import Arrangement, CapExceeded, GroupSpec
from .poly import BiPoly, UniPoly, scale_variable
from .posets import partial_subposet
from .toric import enumerate_toric_layers

ENUM_CAP = 10_000_000


def brute_complement_count(arr: Arrangement, q: int) -> int:
    """Count homs into Z/q that kill no element, by full enumeration.

    A free generator maps anywhere; a torsion generator of order e maps to
    the multiples of q // gcd(e, q).  The coordinates split into a head and
    a tail, the longest suffix with at most isqrt(total) homs.  Each
    element's tail homs are evaluated once into `kills`, a table from the
    residue a head value must have to kill a tail hom to the bitmask of
    those tail homs; each head hom then ORs one lookup per element, an
    element zero on the head included, and counts the bits left clear.
    Every hom is examined, with no subset sum and no lattice.
    """
    if q < 1:
        raise ValueError("q must be positive")
    gamma = arr.gamma
    ranges = [range(q)] * gamma.free_rank
    ranges += [range(0, q, q // gcd(e, q)) for e in gamma.torsion]
    total = prod(map(len, ranges))
    if total > ENUM_CAP:
        raise CapExceeded(
            f"{arr.describe()}: brute complement count at q={q}: {total} "
            f"homomorphisms exceed the cap {ENUM_CAP}")
    split, width, root = len(ranges), 1, isqrt(total)
    while split and width * len(ranges[split - 1]) <= root:
        split -= 1
        width *= len(ranges[split])
    tail = list(product(*ranges[split:]))
    lookups = []
    for vec in arr.elements:
        head, rest = vec[:split], vec[split:]
        kills: dict = {}
        for j, t in enumerate(tail):
            r = -sum(map(mul, rest, t)) % q
            kills[r] = kills.get(r, 0) | 1 << j
        lookups.append((head, kills))
    count = 0
    for phi in product(*ranges[:split]):
        killed = 0
        for head, kills in lookups:
            killed |= kills.get(sum(map(mul, head, phi)) % q, 0)
        count += width - killed.bit_count()
    return count


def brute_hom_count(source: FGAbelianGroup, target_torsion) -> int:
    """Count homs from a finite group into a finite group by trying every
    tuple of images and checking the defining relations."""
    if not source.is_finite:
        raise ValueError("source must be finite")
    fs = tuple(int(f) for f in target_torsion)
    total = prod(fs) ** len(source.torsion)
    if total > ENUM_CAP:
        raise CapExceeded(
            f"{source}: brute hom count into {fs}: {total} candidate maps "
            f"exceed the cap {ENUM_CAP}")
    target_elems = list(product(*(range(f) for f in fs)))
    count = 0
    for images in product(target_elems, repeat=len(source.torsion)):
        ok = True
        for d, img in zip(source.torsion, images):
            if any((d * x) % f for x, f in zip(img, fs)):
                ok = False
                break
        if ok:
            count += 1
    return count


def reference_g_tutte(arr: Arrangement, spec: GroupSpec) -> BiPoly:
    """The G-Tutte subset sum taken mask by mask over all 2^n subsets,
    with per-subset data and no histogram."""
    r_full = arr.subset_data((1 << arr.n) - 1).rank
    terms: dict = {}
    for mask in arr.masks():
        data = arr.subset_data(mask)
        m = model.multiplicity(data, spec)
        a = r_full - data.rank
        b = mask.bit_count() - data.rank
        for i in range(a + 1):
            ci = m * comb(a, i) * (-1) ** (a - i)
            for j in range(b + 1):
                key = (i, j)
                terms[key] = terms.get(key, 0) + ci * comb(b, j) * (-1) ** (b - j)
    return BiPoly(terms)


def brute_mobius(leq) -> list:
    """Full Möbius table of a finite poset given as a boolean leq matrix.

    mu[a][b] is 0 unless a <= b; the textbook recursion is applied pair by
    pair.  Intended for posets of at most a few hundred elements.
    """
    n = len(leq)
    mu = [[0] * n for _ in range(n)]
    order = sorted(range(n), key=lambda j: sum(leq[i][j] for i in range(n)))
    for a in range(n):
        for b in order:
            if a == b:
                mu[a][b] = 1
            elif leq[a][b]:
                s = 0
                for c in range(n):
                    if leq[a][c] and leq[c][b] and c != b:
                        s += mu[a][c]
                mu[a][b] = -s
    return mu


def reference_strict_downs(poset) -> tuple:
    """The strict down-sets of a layer poset by pairwise containment tests,
    without localization masks, ranks or component grouping.

    X contains Y when every span row of X solves over the span of Y, Y's
    F-hom is X's and, with a circle, Y's circle values take X's values on
    those rows and on the torsion generators.  Only pairs that agree on the
    part of that test read off `chi` alone (equal F-homs and equal values
    on the torsion generators) are tested further.
    """
    period = poset.arr.lcm_period()
    circle = poset.spec.circles

    def key(layer):
        values, hom = layer.chi
        return values[layer.span.rows:], hom

    def contains(big, small):
        for i, row in enumerate(big.span.data):
            coeffs = hnf_solve(small.span, row)
            if coeffs is None:
                return False
            if circle and sum(c * v for c, v in zip(coeffs, small.chi[0])) \
                    % period != big.chi[0][i]:
                return False
        return True

    layers = poset.layers
    agreeing = {}
    for i, layer in enumerate(layers):
        agreeing.setdefault(key(layer), []).append(i)
    return tuple({i for i in agreeing[key(small)]
                  if i != j and contains(layers[i], small)}
                 for j, small in enumerate(layers))


def reference_subset_components(poset) -> tuple:
    """(subset_components, localizations) of a layer poset rebuilt mask by
    mask, from each subset's own elements and per-subset data.

    A subset's span is the saturation of its own rows.  Its components are
    the pairs (circle values, F-hom).  With a circle, the values are the
    characters of the saturation modulo the subset, into the cyclic group
    of the quotient exponent, scaled to residues mod the lcm of all the
    exponents; without one they are ().  The F-homs are the homs of the
    quotient by the subset into F.  A layer's localization is the union of
    the subsets it is a component of; a component missing from the poset
    is index -1.
    """
    arr, spec = poset.arr, poset.spec
    gamma = arr.gamma
    f = gamma.free_rank
    index = {(lay.span.data, lay.chi): i for i, lay in enumerate(poset.layers)}
    exponents = [(arr.subset_data(mask).torsion_factors or (1,))[-1]
                 for mask in arr.masks()]
    period = lcm(*exponents)
    components = {}
    localizations = [0] * poset.n
    for mask in arr.masks():
        span = saturation(arr.subset_matrix(mask), gamma)
        values = [()]
        if spec.circles:
            gens = [hnf_solve(span, vec[:f]) + vec[f:]
                    for vec in arr.mask_elements(mask)]
            homs = hom_enumerate(
                IntMatrix.from_rows(gens, span.rows + len(gamma.torsion)),
                FGAbelianGroup(span.rows, gamma.torsion), (exponents[mask],))
            scale = period // exponents[mask]
            values = [tuple(img[0] * scale for img in h) for h in homs]
        f_homs = hom_enumerate(arr.subset_matrix(mask), gamma, spec.f_torsion)
        found = [index.get((span.data, (v, h)), -1)
                 for v in values for h in f_homs]
        for i in found:
            if i >= 0:
                localizations[i] |= mask
        components[mask] = tuple(sorted(found))
    return components, tuple(localizations)


def poset_leq_matrix(poset) -> list:
    """Reflexive leq matrix of a layer poset, for the brute recursion, from
    the pairwise containment tests of `reference_strict_downs`."""
    n = poset.n
    leq = [[False] * n for _ in range(n)]
    for j, downs in enumerate(reference_strict_downs(poset)):
        leq[j][j] = True
        for i in downs:
            leq[i][j] = True
    return leq


def downs_from_covers(poset) -> tuple:
    """The strict down-sets of a layer poset: the transitive closure of its
    cover pairs, taken upward by the rank of the upper layer."""
    downs = [set() for _ in range(poset.n)]
    for i, j in sorted(poset.covers(), key=lambda p: poset.layers[p[1]].rank):
        downs[j] |= downs[i] | {i}
    return tuple(downs)


def recursion_mobius(poset) -> list:
    """mu(component(C), C) of every layer by the textbook recursion on the
    down-sets of `downs_from_covers`."""
    downs, mu = downs_from_covers(poset), [1] * poset.n
    for j in sorted(range(poset.n), key=lambda i: poset.layers[i].rank):
        if downs[j]:
            mu[j] = -sum(mu[i] for i in downs[j])
    return mu


def mobius_all(poset):
    """Check the stored Möbius values against the recursion, and their
    strict sign alternation.  Returns the poset for chaining."""
    if recursion_mobius(poset) != list(poset.mobius):
        raise IdentityCheckError(
            f"{poset.arr.describe()}: stored Möbius values are stale")
    poset._check_sign_alternation()
    return poset


def _mobius_faults(poset, mu) -> list:
    """Layers whose recursion value in `mu` has the wrong sign or is not
    the stored Möbius value."""
    return [i for i, lay in enumerate(poset.layers)
            if (-1) ** lay.rank * mu[i] <= 0 or mu[i] != poset.mobius[i]]


@dataclass
class CheckEntry:
    instance: str
    check: str
    param: str
    expected: object
    computed: object
    passed: bool

    def line(self) -> str:
        flag = "pass" if self.passed else "FAIL"
        return (f"{flag}  {self.check:<24} {self.param:<18} "
                f"expected={self.expected!r} computed={self.computed!r}  "
                f"[{self.instance}]")


@dataclass
class OracleReport:
    entries: list

    @property
    def passed(self) -> bool:
        return all(e.passed for e in self.entries)

    def to_records(self) -> list:
        return [{"instance": e.instance, "check": e.check, "param": e.param,
                 "expected": repr(e.expected), "computed": repr(e.computed),
                 "passed": e.passed} for e in self.entries]

    def to_text(self) -> str:
        lines = [e.line() for e in self.entries]
        n_fail = sum(1 for e in self.entries if not e.passed)
        lines.append(f"total {len(self.entries)} checks, {n_fail} failures")
        return "\n".join(lines)


def random_arrangement(rng: random.Random) -> Arrangement:
    """One random desk-scale arrangement: rank <= 3, at most two torsion
    factors <= 6, at most 5 elements with entries in [-4, 4]."""
    free = rng.randint(0, 3)
    torsion = []
    for _ in range(rng.randint(0, 2)):
        if not torsion:
            torsion.append(rng.choice([2, 3, 4, 6]))
        else:
            mults = [m for m in range(torsion[-1], 7, torsion[-1])]
            torsion.append(rng.choice(mults))
    gamma = FGAbelianGroup(free, tuple(torsion))
    n = rng.randint(0, 5)
    elements = []
    for _ in range(n):
        vec = [rng.randint(-4, 4) for _ in range(free)]
        vec += [rng.randint(0, e - 1) for e in torsion]
        elements.append(vec)
    return Arrangement(gamma, elements)


def _desk_sized(arr: Arrangement) -> bool:
    """The battery's own size filter: bounds on the period and on the
    toric and line-target layer instances, sized off the histogram.  They
    fix the battery's draw, and are not the layer engine's cap."""
    if arr.lcm_period() > 360:
        return False
    hist = arr.histogram().items()
    circle = GroupSpec.circle()
    lines = {e: GroupSpec.cyclic(e) for e in (2, 3, 4)}
    toric = sum(c * model.multiplicity(k, circle) for k, c in hist)
    f = arr.gamma.free_rank
    return toric <= 2500 and all(
        sum(c * model.multiplicity(k, spec) * e ** (f - k.rank)
            for k, c in hist) <= 12000 for e, spec in lines.items())


def battery_instances(seed: int, count: int) -> list:
    """Deterministic list of random arrangements (rejection-sampled to stay
    inside the documented desk-scale caps)."""
    rng = random.Random(seed)
    out = []
    while len(out) < count:
        arr = random_arrangement(rng)
        if _desk_sized(arr):
            out.append(arr)
    return out


def _check(entries, instance, check, param, expected, computed):
    entries.append(CheckEntry(instance, check, param, expected, computed,
                              expected == computed))


def run_identity_suite(arr: Arrangement, label: str, qmax: int = 12,
                       entries: list | None = None) -> list:
    """Run the full differential identity suite on one arrangement.  A
    `CapExceeded` propagates: a refused size is no failed identity."""
    if entries is None:
        entries = []
    try:
        _run_identity_suite(arr, label, qmax, entries)
    except CapExceeded:
        raise
    except Exception as exc:  # a crash is a failure, not an abort
        entries.append(CheckEntry(label, "exception", type(exc).__name__,
                                  None, str(exc), False))
    return entries


def _run_identity_suite(arr, label, qmax, entries):
    qp = chromatic_quasi(arr)
    period = qp.period

    # quasi-polynomial evaluations against elementwise complement counts
    for q in range(1, qmax + 1):
        _check(entries, label, "quasi_vs_brute", f"q={q}",
               brute_complement_count(arr, q), qp(q))

    toric_poset = enumerate_toric_layers(arr)

    # every constituent against the k-torsion partial subposet, summed from
    # the Möbius values of the partial layers by (character order, dim)
    table: dict = {}
    for lay, mu in zip(toric_poset.layers, toric_poset.mobius):
        if lay.in_partial:
            table[lay.order, lay.dim] = table.get((lay.order, lay.dim), 0) + mu
    for k in range(1, period + 1):
        coeffs = [0] * (arr.gamma.free_rank + 1)
        for (order, dim), mu in table.items():
            if k % order == 0:
                coeffs[dim] += mu
        _check(entries, label, "constituent_vs_k_partial", f"k={k}",
               qp.constituent(k).coeffs, UniPoly(coeffs).coeffs)

    # per-subset component counts in the k-torsion subposet, all k <= 2*period;
    # the comparison depends on a mask only through its component orders and
    # its torsion factors, so it runs once per distinct pair of them
    specs = [GroupSpec.cyclic(k) for k in range(1, 2 * period + 1)]
    compared: dict = {}  # (orders, torsion factors) -> mismatches
    for mask in arr.masks():
        orders: dict = {}
        for idx in toric_poset.subset_components[mask]:
            o = toric_poset.layers[idx].order
            orders[o] = orders.get(o, 0) + 1
        data = arr.subset_data(mask)
        pair = (tuple(sorted(orders.items())), data.torsion_factors)
        bad = compared.get(pair)
        if bad is None:
            bad = compared[pair] = []
            for k, spec in enumerate(specs, start=1):
                got = sum(c for o, c in orders.items() if k % o == 0)
                want = model.multiplicity(data, spec)
                if got != want:
                    bad.append((k, want, got))
        _check(entries, label, "k_component_count",
               f"S={mask:b},k<={2 * period}", [], bad)

    # rescaling identity and per-layer alternating sums on line-target
    # posets; every Möbius value against the recursion on the covers' order
    for fs in ((), (2,), (3,)):
        spec = GroupSpec(f_torsion=fs, reals=1)
        lie_poset = enumerate_lie_layers(arr, 1, fs)
        computed = lie_poset.characteristic(partial_subposet(lie_poset))
        expected = scale_variable(g_characteristic(arr, spec),
                                  spec.f_order, 1)
        _check(entries, label, "partial_vs_rescaled", f"F={fs}",
               expected.coeffs, computed.coeffs)
        mu = recursion_mobius(lie_poset)
        bad = [row for row, lay, m in zip(key_lie_sums(lie_poset),
                                          lie_poset.layers, mu)
               if row["sum"] != (m if lay.in_partial else 0)]
        _check(entries, label, "alternating_subset_sums", f"F={fs}", [], bad)
        _check(entries, label, "mobius_sign", f"F={fs}", [],
               _mobius_faults(lie_poset, mu))

    _check(entries, label, "mobius_sign", "toric", [],
           _mobius_faults(toric_poset, recursion_mobius(toric_poset)))

    # coefficientwise monotonicity along divisibility
    for a, b in ((1, 2), (2, 4), (1, 3), (3, 6)):
        beta_a = beta_coefficients(arr, a, qp)
        beta_b = beta_coefficients(arr, b, qp)
        bad = [j for j, (x, y) in enumerate(zip(beta_a, beta_b)) if x > y]
        _check(entries, label, "beta_monotonicity", f"a={a},b={b}", [], bad)


def shrink_failing(arr: Arrangement, still_fails) -> Arrangement:
    """Greedy shrink: drop elements while the failure persists, then move
    entries toward zero."""
    current = arr
    changed = True
    while changed:
        changed = False
        for i in range(current.n):
            candidate = Arrangement(
                current.gamma,
                [v for j, v in enumerate(current.elements) if j != i])
            if still_fails(candidate):
                current = candidate
                changed = True
                break
    changed = True
    while changed:
        changed = False
        for i, vec in enumerate(current.elements):
            for c, x in enumerate(vec):
                if x == 0:
                    continue
                smaller = list(vec)
                smaller[c] = x - 1 if x > 0 else x + 1
                elems = list(current.elements)
                elems[i] = smaller
                candidate = Arrangement(current.gamma, elems)
                if still_fails(candidate):
                    current = candidate
                    changed = True
                    break
            if changed:
                break
    return current


def randomized_battery(seed: int = 0, count: int = 25,
                       qmax: int = 12) -> OracleReport:
    """Seed-deterministic differential battery over random arrangements."""
    if count < 0:
        raise ValueError(f"--count must be nonnegative, got {count}")
    if qmax < 1:
        raise ValueError(f"--qmax must be positive, got {qmax}")
    entries: list = []
    for idx, arr in enumerate(battery_instances(seed, count)):
        label = f"#{idx} {arr!r}"
        before = len(entries)
        run_identity_suite(arr, label, qmax, entries)
        failed = [e for e in entries[before:] if not e.passed]
        if failed:
            def still_fails(candidate):
                sub = run_identity_suite(candidate, "shrink", qmax, [])
                return any(not e.passed for e in sub)

            small = shrink_failing(arr, still_fails)
            entries.append(CheckEntry(label, "shrunk_witness", "",
                                      None, repr(small), False))
    return OracleReport(entries)
