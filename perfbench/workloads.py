"""Seeded instance generator for the four benchmark workloads.

`build(workload, seed, workdir)` writes one JSON file per arrangement in
the CLI input format and returns a Plan: the closed-loop op list of whole
rounds (a run repeats it), one warm-up op and, for `quasi`, the
large-period probe ops.  Each op carries the argv passed to
`gtutte.cli.main` and what the checker needs to judge its output.  The same (workload, seed) always gives the same plan and the
same file bytes.

`quasi` and `layers` draw from fixed base arrangements in `bases.json` and
apply a seeded automorphism of the ambient group, a seeded element
permutation and seeded element negations.  Every invariant the CLI prints
for these commands is unchanged by such a transform, so per-op cost is the
base's cost and the expected outputs recorded with the base stay valid.
`bases.json` is rebuilt by `python3 perfbench/workloads.py --find-bases`
(a few minutes; it searches with a fixed seed and records the outputs of
the program it runs against).
"""

from __future__ import annotations

import json
import math
import os
import random
import sys
from dataclasses import dataclass, field

HERE = os.path.dirname(os.path.abspath(__file__))
BASES_PATH = os.path.join(HERE, "bases.json")

WORKLOADS = ("sweep", "quasi", "layers", "battery")

# The worked example of the paper: constituent 4 is t^2 - 5t + 4.
PAPER = {"group": {"free_rank": 2, "torsion": []},
         "vectors": [[-1, 1], [0, 2], [0, 4]], "name": "paper-example"}
PAPER_K4 = [4, -5, 1]

TORSION_HEAVY = {"free_rank": 2, "torsion": [2, 6]}  # Z^2 + Z/2 + Z/6

# sweep: n -> ops per round, big rungs first.  A run of 2 rounds has 6 ops
# above n=11, so the 11th slowest op is an n=11 op, and the median op sits
# near the 80th percentile of the n=10 ops (see README.md, "Why the mixes
# look like this").  The n=14 op also sets peak_rss_mb.  Each round has
# fresh arrangements, so the tail is not set by a handful of instances.
SWEEP_ROUND = ((14, 1), (13, 1), (12, 1), (11, 8), (10, 20))
SWEEP_ROUNDS = 6         # written per plan; a run wraps around if it needs more
SWEEP_KINDS = ("arith-tutte", "tutte", "char")

QUASI_KINDS = ("quasi", "info", "constituent", "beta", "compare", "reciprocity")
QUASI_ROUND = 24
QUASI_CHEAP_SLOTS = 14   # per round; the rest use the costly bases
COMPARE_PAIRS = ((1, 2), (2, 4), (1, 3), (3, 6), (2, 6), (4, 8), (1, 6))
PROBE_SHARE = 10         # one large-period probe per this many quasi ops

TORIC_VARIANTS = ((None, False), (None, True), (2, False), (3, True),
                  (4, True), (6, False))
LIE_VARIANTS = tuple((g, fs, partial) for g in (1, 2) for partial in (False, True)
                     for fs in ("4", "2,2", "6"))
# A round holds 9 toric ops (each variant, the first three twice, on other
# bases) and each line-target variant once; the line-target ops take each
# base with each F.  A toric op costs about three line-target ops, and 3 of
# the 12 line-target variants cost a third more than the other 9, so with
# 21 ops the median is the middle one of those 3 and the tail, the 11th
# slowest of 2 rounds, a toric op in the middle of the toric ones.
LAYERS_ROUND = ("toric", "lie", "toric", "lie", "toric", "lie", "lie") * 3

BATTERY_COUNT = 3
BATTERY_POOL_SHARE = 0.9  # the cheapest 90% of the pool; see README.md
BATTERY_STRATA = 64      # one verify seed per cost stratum per round

# Seconds one round takes at the reference speed (speed.py) on a 2-core
# x86 machine.  A run is the fewest whole rounds that fill --seconds at
# that pace, a number fixed per workload, so the median and the tail of
# every run come from the same number of samples.
ROUND_S = {"sweep": 12.0, "quasi": 6.8, "layers": 12.0, "battery": 5.0}


def rounds_for(workload: str, seconds: float) -> int:
    return max(1, math.ceil(seconds / ROUND_S[workload]))


@dataclass
class Op:
    argv: list
    kind: str
    check: dict = field(default_factory=dict)


@dataclass
class Plan:
    ops: list        # whole rounds; runs repeat them and stop after a round
    round_len: int   # the i-th op of every round has the same kind and size
    warmup: Op
    probes: list
    paper_path: str


def load_bases() -> dict:
    with open(BASES_PATH, encoding="utf-8") as fh:
        return json.load(fh)


def write_doc(path: str, doc: dict) -> str:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, sort_keys=True)
        fh.write("\n")
    return path


# -- transforms that preserve every printed invariant --------------------

def transform(doc: dict, rng: random.Random, name: str) -> dict:
    """Apply a seeded automorphism of the ambient group, then permute and
    negate elements.  Free coordinates are only permuted and negated, so
    entry bounds are kept.  For Z^f + Z/2 + Z/6 the torsion part also gets
    a unit scaling of Z/6, the shears (a, b) -> (a, b + 3a) and
    (a, b) -> (a + b, b), and a seeded image of each free generator."""
    f = doc["group"]["free_rank"]
    torsion = list(doc["group"]["torsion"])
    perm = list(range(f))
    rng.shuffle(perm)
    signs = [rng.choice((1, -1)) for _ in range(f)]
    shear = [[rng.randrange(e) for e in torsion] for _ in range(f)]
    unit = rng.choice((1, 5)) if torsion == [2, 6] else 1
    up, down = (rng.randrange(2), rng.randrange(2)) if torsion == [2, 6] else (0, 0)
    out = []
    for vec in doc["vectors"]:
        x = [signs[i] * vec[perm[i]] for i in range(f)]
        tau = list(vec[f:])
        for i in range(f):
            for j in range(len(torsion)):
                tau[j] += x[i] * shear[i][j]
        if torsion == [2, 6]:
            a, b = tau
            b = unit * b + 3 * up * a
            a = a + down * b
            tau = [a, b]
        tau = [t % e for t, e in zip(tau, torsion)]
        v = x + tau
        if rng.random() < 0.5:
            v = [-c for c in x] + [(-t) % e for t, e in zip(tau, torsion)]
        out.append(v)
    rng.shuffle(out)
    return {"group": {"free_rank": f, "torsion": torsion}, "vectors": out,
            "name": name}


# -- plans ----------------------------------------------------------------

def _sweep(rng, workdir, plan_ops):
    rungs = [n for n, count in SWEEP_ROUND for _ in range(count)]
    small = rungs[3:]
    random.Random(0).shuffle(small)
    order = rungs[:3] + small
    for idx in range(SWEEP_ROUNDS * len(order)):
        n = order[idx % len(order)]
        vecs = [[rng.randint(-4, 4) for _ in range(3)] for _ in range(n)]
        doc = {"group": {"free_rank": 3, "torsion": []}, "vectors": vecs,
               "name": f"sweep-{idx}"}
        path = write_doc(os.path.join(workdir, f"sweep-{idx}.json"), doc)
        kind = SWEEP_KINDS[idx % len(order) % len(SWEEP_KINDS)]
        k = rng.randint(2, 6)
        if kind == "arith-tutte":
            argv, spec = ["arith-tutte", path], {"torsion": [], "circles": 1}
        elif kind == "tutte":
            argv = ["tutte", path, "--p", "1", "--torsion", str(k)]
            spec = {"torsion": [k], "circles": 1}
        else:
            argv, spec = ["char", path, "--torsion", str(k)], {"k": k}
        plan_ops.append(Op(argv, kind, {"doc": doc, "n": n, **spec}))


def _quasi_op(kind, path, doc, base_key, period, rng) -> Op:
    check = {"doc": doc, "base": base_key, "period": period}
    if kind in ("quasi", "info"):
        argv = [kind, path]
    elif kind == "constituent":
        r = rng.randint(1, 8)
        k = r + period * rng.randint(0, 3)
        argv, check["k"] = ["constituent", path, str(k)], k
    elif kind == "beta":
        q = rng.randint(1, 8)
        argv, check["q"] = ["beta", path, "--q", str(q)], q
    elif kind == "compare":
        a, b = COMPARE_PAIRS[rng.randrange(len(COMPARE_PAIRS))]
        argv = ["compare", path, "--a", str(a), "--b", str(b)]
        check.update(a=a, b=b)
    else:
        k = rng.randint(1, 2 * period)
        q = rng.randint(1, 5)
        argv = ["reciprocity", path, "--k", str(k), "--q", str(q)]
        check.update(k=k, q=q)
    return Op(argv, kind, check)


def _quasi(rng, workdir, plan_ops, probes, bases):
    cheap = [k for k, b in bases["quasi"].items() if b["class"] == "cheap"]
    costly = [k for k, b in bases["quasi"].items() if b["class"] == "costly"]
    cheap.sort()
    costly.sort()
    slots = ["cheap"] * QUASI_CHEAP_SLOTS + ["costly"] * (QUASI_ROUND - QUASI_CHEAP_SLOTS)
    random.Random(1).shuffle(slots)
    used = {"cheap": 0, "costly": 0}
    for idx, slot in enumerate(slots):
        pool = cheap if slot == "cheap" else costly
        key = pool[used[slot] % len(pool)]
        used[slot] += 1
        base = bases["quasi"][key]
        doc = transform(base["doc"], rng, f"quasi-{idx}")
        path = write_doc(os.path.join(workdir, f"quasi-{idx}.json"), doc)
        kind = QUASI_KINDS[idx % len(QUASI_KINDS)]
        plan_ops.append(_quasi_op(kind, path, doc, key, base["period"], rng))
    big = bases["large_period"]
    path = write_doc(os.path.join(workdir, "large-period.json"), big["doc"])
    for i in range(len(plan_ops) // PROBE_SHARE):
        kind = QUASI_KINDS[i % len(QUASI_KINDS)]
        probes.append(_quasi_op(kind, path, big["doc"], "large_period",
                                big["period"], rng))


def _layers(rng, workdir, plan_ops, bases):
    keys = sorted(bases["layers"])
    toric_i = lie_i = 0
    for idx, kind in enumerate(LAYERS_ROUND):
        turn = toric_i + toric_i // len(TORIC_VARIANTS) if kind == "toric" else lie_i // 3
        key = keys[turn % len(keys)]
        doc = transform(bases["layers"][key]["doc"], rng, f"layers-{idx}")
        path = write_doc(os.path.join(workdir, f"layers-{idx}.json"), doc)
        if kind == "toric":
            k, partial = TORIC_VARIANTS[toric_i % len(TORIC_VARIANTS)]
            toric_i += 1
            argv = ["toric-layers", path]
            if k is not None:
                argv += ["--k", str(k)]
            if partial:
                argv.append("--partial")
            variant = f"toric k={k} partial={partial}"
        else:
            g, fs, partial = LIE_VARIANTS[lie_i % len(LIE_VARIANTS)]
            lie_i += 1
            argv = ["lie-layers", path, "--g", str(g), "--torsion", fs]
            if partial:
                argv.append("--partial")
            variant = f"lie g={g} torsion={fs} partial={partial}"
            k = None
        plan_ops.append(Op(argv, kind, {"doc": doc, "base": key,
                                        "variant": variant, "k": k}))


def _battery_strata(bases):
    pool = sorted(bases["battery_pool"], key=lambda e: (e["cost"], e["seed"]))
    pool = pool[:int(len(pool) * BATTERY_POOL_SHARE)]
    size = len(pool) // BATTERY_STRATA
    return [pool[i * size:(i + 1) * size] for i in range(BATTERY_STRATA)]


def _battery(rng, plan_ops, bases):
    strata = _battery_strata(bases)
    size = len(strata[0])
    order = list(range(BATTERY_STRATA))
    rng.shuffle(order)
    for s in order:
        entry = strata[s][rng.randrange(size)]
        argv = ["verify", "--seed", str(entry["seed"]), "--count", str(BATTERY_COUNT)]
        plan_ops.append(Op(argv, "verify", {"seed": entry["seed"], "count": BATTERY_COUNT}))


def build(workload: str, seed: int, workdir: str, bases: dict | None = None) -> Plan:
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}")
    if bases is None:
        bases = load_bases()
    os.makedirs(workdir, exist_ok=True)
    rng = random.Random(f"{workload}:{seed}")
    paper = write_doc(os.path.join(workdir, "paper.json"), PAPER)
    ops: list = []
    probes: list = []
    if workload == "sweep":
        _sweep(rng, workdir, ops)
        warmup = Op(["char", paper, "--torsion", "4"], "char",
                    {"doc": PAPER, "k": 4, "paper": PAPER_K4})
    elif workload == "quasi":
        _quasi(rng, workdir, ops, probes, bases)
        warmup = Op(["constituent", paper, "4"], "constituent",
                    {"doc": PAPER, "k": 4, "paper": PAPER_K4, "base": None,
                     "period": 4})
    elif workload == "layers":
        _layers(rng, workdir, ops, bases)
        warmup = Op(["toric-layers", paper, "--k", "4", "--partial"], "toric",
                    {"doc": PAPER, "k": 4, "paper": PAPER_K4})
    else:
        _battery(rng, ops, bases)
        cheapest = _battery_strata(bases)[0][0]["seed"]
        warmup = Op(["verify", "--seed", str(cheapest), "--count", "1"], "verify",
                    {"seed": cheapest, "count": 1})
    round_len = sum(c for _, c in SWEEP_ROUND) if workload == "sweep" else len(ops)
    return Plan(ops, round_len, warmup, probes, paper)


# -- one-off search for bases.json ---------------------------------------

def _find_bases(src: str) -> dict:  # pragma: no cover - maintenance tool
    import contextlib
    import io
    import statistics
    import time

    sys.path.insert(0, src)
    from gtutte import cli
    from gtutte.intlinalg import FGAbelianGroup
    from gtutte.model import Arrangement

    def run(argv):
        out = io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            rc = cli.main(argv)
        if rc != 0:
            raise RuntimeError(f"{argv} exited {rc}")
        return json.loads(out.getvalue())

    rng = random.Random(20181805)
    tmp = os.path.join(HERE, "out", "find-bases")
    os.makedirs(tmp, exist_ok=True)

    def arrangement(doc):
        g = doc["group"]
        return Arrangement(FGAbelianGroup(g["free_rank"], tuple(g["torsion"])),
                           doc["vectors"])

    def free_doc(n, lo, hi):
        return {"group": {"free_rank": 3, "torsion": []},
                "vectors": [[rng.randint(lo, hi) for _ in range(3)] for _ in range(n)]}

    def tor_doc(n, lo, hi):
        return {"group": dict(TORSION_HEAVY),
                "vectors": [[rng.randint(lo, hi) for _ in range(2)]
                            + [rng.randrange(2), rng.randrange(6)] for _ in range(n)]}

    def search(make, want_period, count):
        found = []
        while len(found) < count:
            doc = make()
            arr = arrangement(doc)
            if arr.rank == arr.gamma.free_rank and arr.lcm_period() == want_period:
                found.append(doc)
        return found

    quasi = {}
    plan = (("cheap", "free", lambda: free_doc(9, -1, 2), 24, 2),
            ("cheap", "tor", lambda: tor_doc(9, -2, 2), 24, 2),
            ("costly", "free", lambda: free_doc(10, -1, 2), 120, 1),
            ("costly", "tor", lambda: tor_doc(10, -2, 2), 72, 1))
    for cls, amb, make, period, count in plan:
        for i, doc in enumerate(search(make, period, count)):
            key = f"{cls}-{amb}-{i}"
            doc["name"] = key
            path = write_doc(os.path.join(tmp, f"{key}.json"), doc)
            t = time.perf_counter()
            q = run(["quasi", path])
            cost = time.perf_counter() - t
            info = run(["info", path])
            quasi[key] = {"class": cls, "doc": doc, "period": q["period"],
                          "minimal_period": info["minimal_period"],
                          "rank": info["rank"], "constituents": q["constituents"],
                          "quasi_s": round(cost, 3)}
            print(key, q["period"], round(cost, 3), file=sys.stderr)

    layers = {}
    while len(layers) < 3:
        doc = free_doc(9, -3, 3)
        arr = arrangement(doc)
        if arr.rank != 3 or (0, 0, 0) in arr.elements:
            continue
        instances = 0
        for mask in arr.masks():
            prod = 1
            for d in arr.subset_data(mask).torsion_factors:
                prod *= d
            instances += prod
        if not 1000 <= instances <= 1450:
            continue
        key = f"layers-{len(layers)}"
        doc["name"] = key
        path = write_doc(os.path.join(tmp, f"{key}.json"), doc)
        t = time.perf_counter()
        base = run(["toric-layers", path])
        cost = time.perf_counter() - t
        print("candidate", instances, base["layer_count"], round(cost, 3), file=sys.stderr)
        if not 250 <= base["layer_count"] <= 450:
            continue
        golden = {}
        for k, partial in TORIC_VARIANTS:
            argv = ["toric-layers", path] + (["--k", str(k)] if k else []) \
                + (["--partial"] if partial else [])
            out = run(argv)
            golden[f"toric k={k} partial={partial}"] = {
                "layer_count": out["layer_count"], "cover_count": out["cover_count"],
                "polynomial": out["polynomial"]}
        for g, fs, partial in LIE_VARIANTS:
            argv = ["lie-layers", path, "--g", str(g), "--torsion", fs] \
                + (["--partial"] if partial else [])
            out = run(argv)
            golden[f"lie g={g} torsion={fs} partial={partial}"] = {
                "layer_count": out["layer_count"],
                "minimal_count": out["minimal_count"],
                "polynomial": out["polynomial"],
                "component_shapes": out["component_shapes"]}
        layers[key] = {"doc": doc, "toric_s": round(cost, 3), "golden": golden}
        print(key, base["layer_count"], round(cost, 3), file=sys.stderr)

    while True:
        doc = free_doc(6, -9, 9)
        arr = arrangement(doc)
        if arr.rank == 3 and 10**9 < arr.lcm_period() < 10**11:
            break
    doc["name"] = "large-period"
    large = {"doc": doc, "period": arr.lcm_period()}

    from speed import REF_NOMINAL_S, reference_seconds

    pool = []
    for _ in range(800):
        s = rng.randrange(10**6)
        costs = []
        for _ in range(3):  # median cost at the reference speed, see speed.py
            before = reference_seconds()
            t = time.perf_counter()
            run(["verify", "--seed", str(s), "--count", str(BATTERY_COUNT)])
            cost = time.perf_counter() - t
            costs.append(cost * 2 * REF_NOMINAL_S / (before + reference_seconds()))
        pool.append({"seed": s, "cost": round(statistics.median(costs), 4)})

    return {"quasi": quasi, "layers": layers, "large_period": large,
            "battery_pool": pool}


if __name__ == "__main__":  # pragma: no cover
    if sys.argv[1:] != ["--find-bases"]:
        sys.exit("usage: python3 perfbench/workloads.py --find-bases")
    data = _find_bases(os.path.join(os.path.dirname(HERE), "src"))
    with open(BASES_PATH, "w", encoding="utf-8") as fh:
        json.dump(data, fh, sort_keys=True)
        fh.write("\n")
