"""Independent brute-force ground truth for every identity in the package.

Everything here is deliberately naive: full enumerations of homomorphism
groups, elementwise complement counting, the textbook Möbius recursion and
pairwise containment tests between layers.  The only code shared with the
symbolic path is the Arrangement data type and the exact lattice solver,
so agreement between the two sides is meaningful differential evidence.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from itertools import product
from math import gcd

from . import model
from .intlinalg import FGAbelianGroup, hnf_solve
from .invariants import (beta_coefficients, chromatic_quasi, g_characteristic)
from .lie import enumerate_lie_layers, key_lie_sums, partial_characteristic
from .model import Arrangement, CapExceeded, GroupSpec
from .poly import UniPoly, scale_variable
from .toric import enumerate_toric_layers

ENUM_CAP = 10_000_000


def brute_complement_count(arr: Arrangement, q: int, cap: int = ENUM_CAP) -> int:
    """Count homs into Z/q that kill no element, by full enumeration.

    A free generator maps anywhere; a torsion generator of order e maps to
    the multiples of q // gcd(e, q).
    """
    if q < 1:
        raise ValueError("q must be positive")
    gamma = arr.gamma
    f = gamma.free_rank
    total = q ** f
    for e in gamma.torsion:
        total *= gcd(e, q)
    if total > cap:
        raise CapExceeded(f"{total} homomorphisms exceed the cap {cap}")
    ranges = [range(q)] * f
    for e in gamma.torsion:
        g = gcd(e, q)
        ranges.append(range(0, q, q // g))
    count = 0
    for phi in product(*ranges):
        ok = True
        for vec in arr.elements:
            if sum(a * x for a, x in zip(vec, phi)) % q == 0:
                ok = False
                break
        if ok:
            count += 1
    return count


def brute_hom_count(source: FGAbelianGroup, target_torsion,
                    cap: int = ENUM_CAP) -> int:
    """Count homs from a finite group into a finite group by trying every
    tuple of images and checking the defining relations."""
    if not source.is_finite:
        raise ValueError("source must be finite")
    fs = tuple(int(f) for f in target_torsion)
    target_elems = list(product(*(range(f) for f in fs)))
    total = len(target_elems) ** len(source.torsion)
    if total > cap:
        raise CapExceeded(f"{total} candidate maps exceed the cap {cap}")
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
    """strict_downs of a layer poset rebuilt by pairwise containment tests,
    without localization masks, ranks or component grouping.

    Circle target: X contains Y when every span row of X solves over the
    span of Y and Y's character takes X's values there and on the torsion
    generators.  Line targets: the spans nest and the homs into F agree.
    """
    period = poset.arr.lcm_period()

    def contains(big, small):
        if not poset.spec.circles:
            return big.chi == small.chi and all(
                hnf_solve(small.span, row) is not None for row in big.span.data)
        r = small.span.rows
        if big.chi[big.span.rows:] != small.chi[r:]:
            return False
        for row, want in zip(big.span.data, big.chi):
            coeffs = hnf_solve(small.span, row)
            if coeffs is None or \
                    sum(c * v for c, v in zip(coeffs, small.chi[:r])) % period != want:
                return False
        return True

    return tuple(frozenset(i for i, big in enumerate(poset.layers)
                           if i != j and contains(big, small))
                 for j, small in enumerate(poset.layers))


def poset_leq_matrix(poset) -> list:
    """Reflexive leq matrix of a layer poset, for the brute recursion."""
    n = poset.n
    leq = [[False] * n for _ in range(n)]
    for j in range(n):
        leq[j][j] = True
        for i in poset.strict_downs[j]:
            leq[i][j] = True
    return leq


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

    @property
    def first_failure(self) -> CheckEntry | None:
        for e in self.entries:
            if not e.passed:
                return e
        return None

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
    """Keep battery instances inside the layer modules' documented caps."""
    if arr.lcm_period() > 360:
        return False
    toric_size = 0
    for mask in arr.masks():
        prod = 1
        for d in arr.subset_data(mask).torsion_factors:
            prod *= d
        toric_size += prod
    if toric_size > 2500:
        return False
    f = arr.gamma.free_rank
    for fs in ((2,), (3,), (4,)):
        spec = GroupSpec(f_torsion=fs)
        size = sum(
            model.multiplicity(arr.subset_data(mask), spec)
            * spec.f_order ** (f - arr.subset_data(mask).rank)
            for mask in arr.masks())
        if size > 12000:
            return False
    return True


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
    """Run the full differential identity suite on one arrangement."""
    if entries is None:
        entries = []
    try:
        _run_identity_suite(arr, label, qmax, entries)
    except Exception as exc:  # a crash is a failure, not an abort
        entries.append(CheckEntry(label, "exception", type(exc).__name__,
                                  None, str(exc), False))
    return entries


def _order_dim_table(poset) -> list:
    """Collapse a toric poset to ((char order, dim, partial flag), mu sum)
    rows; enough to assemble every k-torsion characteristic polynomial."""
    table: dict = {}
    for i, lay in enumerate(poset.layers):
        key = (lay.order, lay.dim, lay.in_partial)
        table[key] = table.get(key, 0) + poset.mobius[i]
    return sorted(table.items())


def _table_poly(table, k, partial_only):
    coeffs: dict = {}
    for (order, dim, partial), mu in table:
        if k % order == 0 and (partial or not partial_only):
            coeffs[dim] = coeffs.get(dim, 0) + mu
    out = [0] * (max(coeffs) + 1 if coeffs else 0)
    for d, c in coeffs.items():
        out[d] = c
    return UniPoly(out)


def _run_identity_suite(arr, label, qmax, entries):
    qp = chromatic_quasi(arr)
    period = qp.period

    # quasi-polynomial evaluations against elementwise complement counts
    for q in range(1, qmax + 1):
        _check(entries, label, "quasi_vs_brute", f"q={q}",
               brute_complement_count(arr, q), qp(q))

    toric_poset = enumerate_toric_layers(arr)

    # every constituent against the k-torsion partial subposet
    table = _order_dim_table(toric_poset)
    for k in range(1, period + 1):
        computed = _table_poly(table, k, partial_only=True)
        _check(entries, label, "constituent_vs_k_partial", f"k={k}",
               qp.constituent(k).coeffs, computed.coeffs)

    # per-subset component counts in the k-torsion subposet, all k <= 2*period
    for mask in arr.masks():
        orders: dict = {}
        for idx in toric_poset.subset_components[mask]:
            o = toric_poset.layers[idx].order
            orders[o] = orders.get(o, 0) + 1
        data = arr.subset_data(mask)
        bad = []
        for k in range(1, 2 * period + 1):
            got = sum(c for o, c in orders.items() if k % o == 0)
            want = model.multiplicity(data, GroupSpec.cyclic(k))
            if got != want:
                bad.append((k, want, got))
        _check(entries, label, "k_component_count",
               f"S={mask:b},k<={2 * period}", [], bad)

    # rescaling identity and per-layer alternating sums on line-target posets
    for fs in ((), (2,), (3,)):
        spec = GroupSpec(f_torsion=fs, reals=1)
        lie_poset = enumerate_lie_layers(arr, 1, fs)
        computed = partial_characteristic(arr, 1, fs, poset=lie_poset,
                                          check=False)
        expected = scale_variable(g_characteristic(arr, spec),
                                  spec.f_order, 1)
        _check(entries, label, "partial_vs_rescaled", f"F={fs}",
               expected.coeffs, computed.coeffs)
        bad = [row for row in key_lie_sums(lie_poset) if not row["ok"]]
        _check(entries, label, "alternating_subset_sums", f"F={fs}", [], bad)
        bad_sign = [i for i, lay in enumerate(lie_poset.layers)
                    if (-1) ** lay.rank * lie_poset.mobius[i] <= 0]
        _check(entries, label, "mobius_sign", f"F={fs}", [], bad_sign)

    bad_sign = [i for i, lay in enumerate(toric_poset.layers)
                if (-1) ** lay.rank * toric_poset.mobius[i] <= 0]
    _check(entries, label, "mobius_sign", "toric", [], bad_sign)

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
