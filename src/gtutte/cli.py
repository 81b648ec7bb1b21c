"""Command-line front end.

Input files are self-describing JSON documents:

    {"group": {"free_rank": 2, "torsion": []},
     "vectors": [[-1, 1], [0, 2], [0, 4]],
     "name": "example"}

Machine-readable results go to stdout as JSON with sorted keys; the human
summary goes to stderr.  All numbers are exact integers.  The exit code is
0 only when every requested check passed.
"""

from __future__ import annotations

import argparse
import json
import sys

from . import invariants, lie, oracle, toric
from .intlinalg import FGAbelianGroup
from .model import Arrangement, GroupSpec
from .poly import UniPoly
from .posets import component_shapes, export_hasse


class InputError(ValueError):
    pass


def load_arrangement(path: str) -> Arrangement:
    """Parse an arrangement file, with field-level diagnostics."""
    try:
        with open(path, encoding="utf-8") as fh:
            doc = json.load(fh)
    except json.JSONDecodeError as exc:
        raise InputError(f"{path}: not valid JSON (line {exc.lineno}: {exc.msg})")
    return arrangement_from_document(doc, origin=path)


def _is_int(x) -> bool:
    """JSON integer: true and false decode to Python bools, which are ints."""
    return isinstance(x, int) and not isinstance(x, bool)


def arrangement_from_document(doc, origin: str = "<input>") -> Arrangement:
    if not isinstance(doc, dict):
        raise InputError(f"{origin}: top level must be an object")
    group = doc.get("group")
    if not isinstance(group, dict):
        raise InputError(f"{origin}: missing or malformed 'group' object")
    free_rank = group.get("free_rank")
    torsion = group.get("torsion", [])
    if not _is_int(free_rank) or free_rank < 0:
        raise InputError(f"{origin}: group.free_rank must be a nonnegative integer")
    if not isinstance(torsion, list) or any(not _is_int(e) for e in torsion):
        raise InputError(f"{origin}: group.torsion must be a list of integers")
    try:
        gamma = FGAbelianGroup(free_rank, tuple(torsion))
    except ValueError as exc:
        raise InputError(f"{origin}: group.torsion: {exc}")
    vectors = doc.get("vectors")
    if not isinstance(vectors, list):
        raise InputError(f"{origin}: missing or malformed 'vectors' list")
    for i, vec in enumerate(vectors):
        if not isinstance(vec, list) or any(not _is_int(x) for x in vec):
            raise InputError(f"{origin}: vectors[{i}] must be a list of integers")
        if len(vec) != gamma.ngens:
            raise InputError(
                f"{origin}: vectors[{i}] has length {len(vec)}, expected {gamma.ngens}")
        for j, e in enumerate(gamma.torsion):
            x = vec[free_rank + j]
            if not 0 <= x < e:
                print(f"warning: vectors[{i}][{free_rank + j}] = {x} reduced "
                      f"mod {e}", file=sys.stderr)
    name = doc.get("name")
    if name is not None and not isinstance(name, str):
        raise InputError(f"{origin}: 'name' must be a string")
    try:
        return Arrangement(gamma, vectors, name=name)
    except ValueError as exc:
        raise InputError(f"{origin}: {exc}")


def emit_arrangement(arr: Arrangement) -> dict:
    """Canonical document; parse(emit(parse(x))) == parse(x)."""
    doc = {
        "group": {"free_rank": arr.gamma.free_rank,
                  "torsion": list(arr.gamma.torsion)},
        "vectors": [list(v) for v in arr.elements],
    }
    if arr.name is not None:
        doc["name"] = arr.name
    return doc


def poly_str(p: UniPoly) -> str:
    if not p:
        return "0"
    parts = []
    for i in range(p.degree, -1, -1):
        c = p.coefficient(i)
        if not c:
            continue
        mono = "1" if i == 0 else ("t" if i == 1 else f"t^{i}")
        body = mono if abs(c) == 1 and i > 0 else \
            (str(abs(c)) if i == 0 else f"{abs(c)}{mono}")
        parts.append(("- " if c < 0 else "+ ") + body)
    out = " ".join(parts)
    return out[2:] if out.startswith("+ ") else "-" + out[2:]


def _parse_torsion(text: str | None) -> tuple:
    if not text:
        return ()
    try:
        return tuple(int(x) for x in text.split(","))
    except ValueError:
        raise InputError(f"bad torsion list: {text!r}")


def _spec_from_args(args) -> GroupSpec:
    return GroupSpec(f_torsion=_parse_torsion(args.torsion),
                     circles=args.p, reals=args.q)


def _emit(payload: dict):
    print(json.dumps(payload, sort_keys=True, indent=1))


def cmd_info(args) -> int:
    arr = load_arrangement(args.file)
    qp = invariants.chromatic_quasi(arr)
    tmask = arr.torsion_mask()
    payload = {
        "name": arr.name,
        "group": {"free_rank": arr.gamma.free_rank,
                  "torsion": list(arr.gamma.torsion)},
        "element_count": arr.n,
        "rank": arr.rank,
        "torsion_elements": [i for i in range(arr.n) if tmask >> i & 1],
        "lcm_period": arr.lcm_period(),
        "minimal_period": invariants.minimal_period(qp),
    }
    _emit(payload)
    print(f"{arr.describe()}: {arr.n} elements, rank {arr.rank}, "
          f"period {payload['lcm_period']} (minimal {payload['minimal_period']})",
          file=sys.stderr)
    return 0


def cmd_tutte(args) -> int:
    arr = load_arrangement(args.file)
    spec = _spec_from_args(args)
    t = invariants.g_tutte(arr, spec)
    _emit({"triples": t.triples(),
           "spec": {"f_torsion": list(spec.f_torsion), "p": spec.circles,
                    "q": spec.reals}})
    print(f"{len(t.triples())} terms", file=sys.stderr)
    return 0


def cmd_arith_tutte(args) -> int:
    arr = load_arrangement(args.file)
    t = invariants.arithmetic_tutte(arr)
    _emit({"triples": t.triples()})
    print(f"{len(t.triples())} terms", file=sys.stderr)
    return 0


def cmd_char(args) -> int:
    arr = load_arrangement(args.file)
    spec = _spec_from_args(args)
    p = invariants.g_characteristic(arr, spec)
    _emit({"coefficients": p.serialize()})
    print(poly_str(p), file=sys.stderr)
    return 0


def cmd_quasi(args) -> int:
    arr = load_arrangement(args.file)
    qp = invariants.chromatic_quasi(arr)
    _emit(qp.serialize())
    print(f"period {qp.period}", file=sys.stderr)
    for k, c in enumerate(qp.constituents, start=1):
        print(f"  k={k}: {poly_str(c)}", file=sys.stderr)
    return 0


def cmd_constituent(args) -> int:
    arr = load_arrangement(args.file)
    if args.k < 1:
        raise InputError("K must be positive")
    qp = invariants.chromatic_quasi(arr)
    c = qp.constituent(args.k)
    _emit({"k": args.k, "coefficients": c.serialize()})
    print(poly_str(c), file=sys.stderr)
    if args.k % qp.period == 0:
        # the last constituent should be the toric characteristic polynomial
        try:
            invariants.toric_characteristic(arr)
        except invariants.HypothesisError as exc:
            print(f"note: toric cross-check skipped: {exc}", file=sys.stderr)
    return 0


def cmd_toric_layers(args) -> int:
    arr = load_arrangement(args.file)
    poset = toric.enumerate_toric_layers(arr)
    indices = list(poset.all_indices())
    if args.k is not None:
        indices = [i for i in toric.k_total_subposet(poset, args.k)]
    if args.partial:
        partial = set(toric.partial_subposet(poset))
        indices = [i for i in indices if i in partial]
    if args.k is not None and args.partial:
        p = toric.k_partial_characteristic(arr, args.k, poset)
    elif args.k is not None:
        p = toric.k_total_characteristic(arr, args.k, poset)
    elif args.partial:
        p = toric.partial_characteristic(arr, poset)
    else:
        p = toric.total_characteristic(arr, poset)
    payload = {
        "layer_count": len(indices),
        "cover_count": len(poset.covers(indices)),
        "polynomial": p.serialize(),
        "layers": json.loads(export_hasse(poset, indices, "records")),
    }
    _emit(payload)
    if args.dot:
        with open(args.dot, "w", encoding="utf-8") as fh:
            fh.write(export_hasse(poset, indices, "dot"))
    print(f"{len(indices)} layers selected of {poset.n}; {poly_str(p)}",
          file=sys.stderr)
    return 0


def cmd_lie_layers(args) -> int:
    arr = load_arrangement(args.file)
    fs = _parse_torsion(args.torsion)
    poset = lie.enumerate_lie_layers(arr, args.g, fs)
    if args.partial:
        indices = list(lie.partial_subposet(poset))
        p = lie.partial_characteristic(arr, args.g, fs, poset)
    else:
        indices = list(poset.all_indices())
        p = lie.total_characteristic(arr, args.g, fs, poset)
    shapes = component_shapes(poset, indices)
    payload = {
        "layer_count": len(indices),
        "minimal_count": sum(1 for i in indices if poset.layers[i].rank == 0),
        "polynomial": p.serialize(),
        "component_shapes": [
            {"layers": s[0], "ranks": list(s[1]), "dims": list(s[2]),
             "covers": s[3], "count": c} for s, c in shapes],
        "layers": json.loads(export_hasse(poset, indices, "records")),
    }
    _emit(payload)
    if args.dot:
        with open(args.dot, "w", encoding="utf-8") as fh:
            fh.write(export_hasse(poset, indices, "dot"))
    print(f"{len(indices)} layers; {poly_str(p)}; component shapes "
          + ", ".join(f"{c} x ({s[0]} layers, {s[3]} covers)"
                      for s, c in shapes),
          file=sys.stderr)
    return 0


def cmd_verify(args) -> int:
    report = oracle.randomized_battery(seed=args.seed, count=args.count,
                                       qmax=args.qmax)
    _emit({"passed": report.passed, "checks": report.to_records()})
    print(report.to_text(), file=sys.stderr)
    return 0 if report.passed else 1


def cmd_reciprocity(args) -> int:
    arr = load_arrangement(args.file)
    value = invariants.reciprocity_eval(arr, args.k, args.q)
    _emit({"k": args.k, "q": args.q, "value": value,
           "nonnegative": value >= 0})
    print(f"(-1)^rank * f_{args.k}(-{args.q}) = {value}", file=sys.stderr)
    return 0


def cmd_beta(args) -> int:
    arr = load_arrangement(args.file)
    betas = invariants.beta_coefficients(arr, args.q)
    _emit({"q": args.q, "betas": betas})
    print(" ".join(f"beta_{j}={b}" for j, b in enumerate(betas)),
          file=sys.stderr)
    return 0


def cmd_compare(args) -> int:
    arr = load_arrangement(args.file)
    rows = invariants.chen_wang_compare(arr, args.a, args.b)
    ok = all(r["ok"] for r in rows)
    _emit({"a": args.a, "b": args.b, "rows": rows, "ok": ok})
    for r in rows:
        print(f"j={r['j']}: beta({args.a})={r['beta_a']} "
              f"<= beta({args.b})={r['beta_b']}: {r['ok']}", file=sys.stderr)
    return 0 if ok else 1


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="gtutte",
        description="Exact invariants of arrangements over finitely "
                    "generated abelian groups")
    sub = ap.add_subparsers(dest="command", required=True)

    def add(name, fn, needs_file=True):
        p = sub.add_parser(name)
        if needs_file:
            p.add_argument("file", help="arrangement JSON file")
        p.set_defaults(fn=fn)
        return p

    add("info", cmd_info)

    p = add("tutte", cmd_tutte)
    p.add_argument("--p", type=int, default=0, help="number of circle factors")
    p.add_argument("--q", type=int, default=0, help="number of real factors")
    p.add_argument("--torsion", default="", help="finite part, e.g. 2,4")

    add("arith-tutte", cmd_arith_tutte)

    p = add("char", cmd_char)
    p.add_argument("--p", type=int, default=0)
    p.add_argument("--q", type=int, default=0)
    p.add_argument("--torsion", default="")

    add("quasi", cmd_quasi)

    p = add("constituent", cmd_constituent)
    p.add_argument("k", type=int)

    p = add("toric-layers", cmd_toric_layers)
    p.add_argument("--k", type=int, default=None)
    p.add_argument("--partial", action="store_true")
    p.add_argument("--dot", default=None, help="write a DOT Hasse diagram here")

    p = add("lie-layers", cmd_lie_layers)
    p.add_argument("--g", type=int, required=True, help="number of real factors")
    p.add_argument("--torsion", default="", help="finite part, e.g. 2,4")
    p.add_argument("--partial", action="store_true")
    p.add_argument("--dot", default=None)

    p = add("verify", cmd_verify, needs_file=False)
    p.add_argument("--qmax", type=int, default=12)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--count", type=int, default=25)

    p = add("reciprocity", cmd_reciprocity)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--q", type=int, required=True)

    p = add("beta", cmd_beta)
    p.add_argument("--q", type=int, required=True)

    p = add("compare", cmd_compare)
    p.add_argument("--a", type=int, required=True)
    p.add_argument("--b", type=int, required=True)

    return ap


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except (InputError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except AssertionError as exc:
        print(f"identity check failed: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
