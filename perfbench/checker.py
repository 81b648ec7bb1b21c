"""Output checker for benchmark ops, run outside the timed region.

Every judgement rests on something the fast paths do not compute:

* `gtutte.oracle.brute_complement_count`, the elementwise complement count
  (chromatic values at small q, the `char` values at t = k, the k-torsion
  toric polynomials at t = k);
* determinantal divisors (gcds of minors) of independent subsets, for the
  Tutte evaluations T(1,1) and T(2,1) of `tutte` and `arith-tutte`;
* `gtutte.oracle.brute_mobius` on the order printed by the layer commands;
* for `quasi` and `layers`, the outputs recorded with each base arrangement
  in `bases.json`, which the generator's transforms leave unchanged and
  which are themselves checked against the brute counts here.

`Checker.check(op, stdout)` returns None when the output is right and a
one-line reason otherwise.
"""

from __future__ import annotations

import json
from itertools import combinations, permutations
from math import gcd

BRUTE_Q = 6                 # brute counts at q = 1..BRUTE_Q per base arrangement
MOBIUS_COMPONENT_CAP = 150  # brute Möbius only on components this small


def _poly_eval(coeffs, t):
    return sum(c * t**i for i, c in enumerate(coeffs))


def _det(rows):
    n = len(rows)
    if n == 0:
        return 1
    total = 0
    for perm in permutations(range(n)):
        sign = 1
        for i in range(n):
            for j in range(i + 1, n):
                if perm[i] > perm[j]:
                    sign = -sign
        term = sign
        for i, p in enumerate(perm):
            term *= rows[i][p]
        total += term
    return total


def invariant_factors(rows, cols):
    """Invariant factors of the row lattice of an s x cols integer matrix of
    rank s, from determinantal divisors; None when the rows are dependent."""
    divisors = [1]
    for j in range(1, len(rows) + 1):
        g = 0
        for rsel in combinations(rows, j):
            for csel in combinations(range(cols), j):
                g = gcd(g, _det([[r[c] for c in csel] for r in rsel]))
        if g == 0:
            return None
        divisors.append(g)
    return [divisors[j] // divisors[j - 1] for j in range(1, len(divisors))]


def tutte_reference(vectors, cols, circles, torsion):
    """(T(1,1), T(2,1)) of the subset sum for a free ambient Z^cols.

    T(1,1) sums the multiplicity over bases and T(2,1) over independent
    subsets; both need only the subsets of size <= cols."""
    indep = {}
    for size in range(cols + 1):
        for sub in combinations(range(len(vectors)), size):
            factors = invariant_factors([vectors[i] for i in sub], cols)
            if factors is None:
                continue
            m = 1
            for d in factors:
                m *= d**circles
                for f in torsion:
                    m *= gcd(d, f)
            indep[sub] = m
    rank = max(len(s) for s in indep)
    t11 = sum(m for s, m in indep.items() if len(s) == rank)
    return t11, sum(indep.values())


def _leq_from_covers(ids, covers):
    """Reflexive order on `ids` from the printed cover relation."""
    index = {v: i for i, v in enumerate(ids)}
    n = len(ids)
    up = [set() for _ in range(n)]
    for upper, lowers in covers.items():
        for lower in lowers:
            up[index[lower]].add(index[upper])
    leq = [[False] * n for _ in range(n)]
    for a in range(n):
        stack = [a]
        while stack:
            x = stack.pop()
            if leq[a][x]:
                continue
            leq[a][x] = True
            stack.extend(up[x])
    return leq


class Checker:
    def __init__(self, bases: dict):
        from gtutte import oracle
        from gtutte.intlinalg import FGAbelianGroup
        from gtutte.model import Arrangement

        self.bases = bases
        self.oracle = oracle
        self._arrangement = lambda doc: Arrangement(
            FGAbelianGroup(doc["group"]["free_rank"], tuple(doc["group"]["torsion"])),
            doc["vectors"])
        self._brute_done: set = set()

    def brute(self, doc, q):
        return self.oracle.brute_complement_count(self._arrangement(doc), q)

    def check(self, op, stdout: str) -> str | None:
        try:
            payload = json.loads(stdout)
        except ValueError:
            return "stdout is not one JSON document"
        c = op.check
        if "paper" in c:
            got = payload.get("coefficients", payload.get("polynomial"))
            if got != c["paper"]:
                return f"paper example: constituent 4 is {got}, want {c['paper']}"
        handler = getattr(self, "_" + op.kind.replace("-", "_"))
        try:
            return handler(c, payload)
        except _Wrong as exc:
            return str(exc)
        except (KeyError, TypeError, IndexError) as exc:
            return f"malformed output ({type(exc).__name__}: {exc})"

    # -- sweep --------------------------------------------------------------

    def _char(self, c, payload):
        got = _poly_eval(payload["coefficients"], c["k"])
        want = self.brute(c["doc"], c["k"])
        if got != want:
            return f"char at t={c['k']} is {got}, brute count {want}"
        return None

    def _tutte(self, c, payload):
        spec = payload.get("spec", {"f_torsion": c["torsion"], "p": 1, "q": 0})
        if spec != {"f_torsion": c["torsion"], "p": c["circles"], "q": 0}:
            return f"spec echoed as {spec}"
        t11 = sum(coef for _, _, coef in payload["triples"])
        t21 = sum(coef * 2**i for i, _, coef in payload["triples"])
        want = tutte_reference(c["doc"]["vectors"], c["doc"]["group"]["free_rank"],
                               c["circles"], c["torsion"])
        if (t11, t21) != want:
            return f"(T(1,1), T(2,1)) = {(t11, t21)}, reference {want}"
        return None

    _arith_tutte = _tutte

    # -- quasi --------------------------------------------------------------

    def _constituents(self, c):
        """Golden constituent lookup, after checking the base's golden list
        against brute counts on this transformed instance once per base."""
        base = self.bases["quasi"].get(c["base"])
        doc = c["doc"]
        if c["base"] not in self._brute_done:
            self._brute_done.add(c["base"])
            if base is not None:
                period, table = base["period"], base["constituents"]
                for q in range(1, BRUTE_Q + 1):
                    got = _poly_eval(table[(q - 1) % period], q)
                    want = self.brute(doc, q)
                    if got != want:
                        raise _Wrong(f"base {c['base']}: recorded constituent at "
                                     f"q={q} gives {got}, brute count {want}")
        if base is None:
            return None
        return lambda k: base["constituents"][(k - 1) % base["period"]]

    def _oracle_at(self, c, coeffs, q):
        if q <= BRUTE_Q:
            want = self.brute(c["doc"], q)
            if _poly_eval(coeffs, q) != want:
                raise _Wrong(f"value at q={q} is {_poly_eval(coeffs, q)}, "
                             f"brute count {want}")

    def _quasi(self, c, payload):
        self._constituents(c)  # checks the base's recorded table once
        period = payload["period"]
        table = payload["constituents"]
        if len(table) != period:
            return f"{len(table)} constituents for period {period}"
        for q in range(1, min(period, BRUTE_Q) + 1):
            self._oracle_at(c, table[q - 1], q)
        base = self.bases["quasi"].get(c["base"])
        if base is not None and (period, table) != (base["period"], base["constituents"]):
            return "quasi-polynomial differs from the base's"
        return None

    def _info(self, c, payload):
        doc = c["doc"]
        f = doc["group"]["free_rank"]
        torsion_elems = [i for i, v in enumerate(doc["vectors"]) if not any(v[:f])]
        if payload["element_count"] != len(doc["vectors"]) or \
                payload["torsion_elements"] != torsion_elems or \
                payload["group"] != doc["group"] or payload["name"] != doc["name"]:
            return "info header does not describe the input"
        if payload["lcm_period"] != c["period"]:
            return f"lcm_period {payload['lcm_period']}, want {c['period']}"
        base = self.bases["quasi"].get(c["base"])
        if base is not None and (payload["minimal_period"] != base["minimal_period"]
                                 or payload["rank"] != base["rank"]):
            return "minimal_period or rank differs from the base's"
        return None

    def _constituent(self, c, payload):
        constituent = self._constituents(c)
        coeffs = payload["coefficients"]
        if payload["k"] != c["k"]:
            return f"k echoed as {payload['k']}"
        if constituent is not None and coeffs != constituent(c["k"]):
            return f"constituent {c['k']} is {coeffs}, want {constituent(c['k'])}"
        self._oracle_at(c, coeffs, (c["k"] - 1) % c["period"] + 1)
        return None

    def _beta(self, c, payload):
        constituent = self._constituents(c)
        betas = payload["betas"]
        if any(b < 0 for b in betas):
            return f"negative beta in {betas}"
        poly = _betas_poly(betas, c["doc"]["group"]["free_rank"])
        if constituent is not None and _trim(poly) != _trim(constituent(c["q"])):
            return f"betas {betas} disagree with constituent {c['q']}"
        self._oracle_at(c, poly, c["q"])
        return None

    def _compare(self, c, payload):
        constituent = self._constituents(c)
        f = c["doc"]["group"]["free_rank"]
        rows = payload["rows"]
        if [r["j"] for r in rows] != list(range(f + 1)) or \
                any(r["ok"] != (r["beta_a"] <= r["beta_b"]) for r in rows) or \
                payload["ok"] != all(r["ok"] for r in rows):
            return "compare rows are inconsistent"
        for k, key in ((c["a"], "beta_a"), (c["b"], "beta_b")):
            poly = _betas_poly([r[key] for r in rows], f)
            if constituent is not None and _trim(poly) != _trim(constituent(k)):
                return f"betas at {k} disagree with constituent {k}"
            self._oracle_at(c, poly, k)
        return None

    def _reciprocity(self, c, payload):
        constituent = self._constituents(c)
        value = payload["value"]
        if value < 0 or payload["nonnegative"] is not True:
            return f"reciprocity value {value} is negative"
        if constituent is not None:
            f = c["doc"]["group"]["free_rank"]
            want = (-1) ** f * _poly_eval(constituent(c["k"]), -c["q"])
            if value != want:
                return f"reciprocity value {value}, want {want}"
        return None

    # -- layers -------------------------------------------------------------

    def _layers_common(self, c, payload):
        records = payload["layers"]
        if len(records) != payload["layer_count"]:
            return f"{len(records)} records for layer_count {payload['layer_count']}"
        base = self.bases["layers"].get(c.get("base"))
        if base is not None:
            golden = base["golden"][c["variant"]]
            for key, want in golden.items():
                if payload[key] != want:
                    return f"{key} is {payload[key]!r}, base has {want!r}"
        return self._mobius(records)

    def _mobius(self, records):
        by_component: dict = {}
        for r in records:
            by_component.setdefault(r["component"], []).append(r)
        for root, members in by_component.items():
            ids = sorted(r["id"] for r in members)
            if root not in ids or len(ids) > MOBIUS_COMPONENT_CAP:
                continue
            covers = {r["id"]: r["covers"] for r in members}
            leq = _leq_from_covers(ids, covers)
            mu = self.oracle.brute_mobius(leq)
            r0 = ids.index(root)
            for r in members:
                want = mu[r0][ids.index(r["id"])]
                if r["mobius"] != want:
                    return f"layer {r['id']}: mobius {r['mobius']}, brute {want}"
        return None

    def _toric(self, c, payload):
        reason = self._layers_common(c, payload)
        if reason is None and c.get("k") and not c["doc"]["group"]["torsion"]:
            got = _poly_eval(payload["polynomial"], c["k"])
            want = self.brute(c["doc"], c["k"])
            if got != want:
                reason = f"k={c['k']} polynomial at t=k is {got}, brute count {want}"
        if reason is None and sum(len(r["covers"]) for r in payload["layers"]) \
                != payload["cover_count"]:
            reason = "cover_count disagrees with the records"
        return reason

    def _lie(self, c, payload):
        reason = self._layers_common(c, payload)
        if reason is None and payload["minimal_count"] != \
                sum(1 for r in payload["layers"] if r["rank"] == 0):
            reason = "minimal_count disagrees with the records"
        return reason

    # -- battery ------------------------------------------------------------

    def _verify(self, c, payload):
        checks = payload["checks"]
        if payload["passed"] is not True or not all(e["passed"] for e in checks):
            return "battery reports a failed check"
        instances = self.oracle.battery_instances(c["seed"], c["count"])
        labels = {e["instance"].split(" ", 1)[0] for e in checks}
        if labels != {f"#{i}" for i in range(len(instances))}:
            return f"battery covered {sorted(labels)}, want {len(instances)} instances"
        for e in checks:
            if e["check"] != "quasi_vs_brute":
                continue
            q = int(e["param"][2:])
            if q > 3:
                continue
            idx = int(e["instance"].split(" ", 1)[0][1:])
            want = self.oracle.brute_complement_count(instances[idx], q)
            if e["expected"] != repr(want) or e["computed"] != repr(want):
                return f"{e['instance']}: q={q} reported {e['computed']}, brute {want}"
        return None


class _Wrong(Exception):
    pass


def _betas_poly(betas, free_rank):
    """Constituent coefficients from the unsigned betas."""
    return [(-1) ** (free_rank - j) * b for j, b in enumerate(betas)]


def _trim(coeffs):
    coeffs = list(coeffs)
    while coeffs and coeffs[-1] == 0:
        coeffs.pop()
    return coeffs
