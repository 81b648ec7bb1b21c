"""Command-line front end.

Input files are self-describing JSON documents:

    {"group": {"free_rank": 2, "torsion": []},
     "vectors": [[-1, 1], [0, 2], [0, 4]],
     "name": "example"}

Machine-readable results go to stdout as JSON with sorted keys; the human
summary goes to stderr.  All numbers are exact integers.  The exit code is
0 only when every requested check passed.  `main` prints both, once the
command has returned: a command that raises prints no result.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
import warnings
from json.encoder import encode_basestring_ascii

from . import invariants, lie, oracle, toric
from .intlinalg import FGAbelianGroup
from .model import Arrangement, GroupSpec
from .poly import UniPoly
from .posets import (check_k, component_shapes, export_hasse, hasse_records,
                     layer_sum)


class InputError(ValueError):
    pass


class _Unhandled(Exception):
    """A value that `dumps` leaves to `json.dumps`."""


def dumps(payload) -> str:
    """`json.dumps(payload, sort_keys=True, indent=1)`, byte for byte.

    With `indent`, `json` runs its pure-Python encoder.  Here a list of
    dicts that share one key set sorts and encodes its keys once and
    renders each record with one join, and strings go through the C
    function `json` itself calls.  A float, a non-str dict key or any type
    but dict, list, tuple, str, int, bool and None hands the whole payload
    to `json.dumps`.
    """
    try:
        return _render(payload, "\n")
    except _Unhandled:
        return json.dumps(payload, sort_keys=True, indent=1)


def _render(obj, nl: str) -> str:
    """`obj` as `json` prints it at the indent that ends `nl`."""
    t = type(obj)
    if t is str:
        return encode_basestring_ascii(obj)
    if t is int:
        return int.__repr__(obj)
    if obj is None:
        return "null"
    if obj is True:
        return "true"
    if obj is False:
        return "false"
    if t is dict:
        return _records([obj], nl)[0] if obj else "{}"
    if t is not list and t is not tuple:
        raise _Unhandled
    if not obj:
        return "[]"
    inner = nl + " "
    if type(obj[0]) is dict and obj[0]:
        items = _records(obj, inner)
    else:
        items = [int.__repr__(x) if type(x) is int else _render(x, inner)
                 for x in obj]
    return "[" + inner + ("," + inner).join(items) + nl + "]"


def _records(rows, nl: str) -> list:
    """The items of a list whose first item is a nonempty dict, at the
    indent that ends `nl`: each dict with the first one's keys in one
    join, any other item on its own."""
    keys = rows[0].keys()
    if any(type(k) is not str for k in keys):
        raise _Unhandled
    inner = nl + " "
    names = sorted(keys)
    heads = ["," + inner + encode_basestring_ascii(k) + ": " for k in names]
    heads[0] = "{" + heads[0][1:]
    fields = list(zip(heads, names))
    close = nl + "}"
    out = []
    for row in rows:
        if type(row) is not dict or row.keys() != keys:
            out.append(_render(row, nl))
            continue
        parts = []
        for head, name in fields:
            v = row[name]
            t = type(v)
            parts.append(head)
            parts.append(int.__repr__(v) if t is int else
                         encode_basestring_ascii(v) if t is str else
                         _render(v, inner))
        parts.append(close)
        out.append("".join(parts))
    return out


class ReducedEntryWarning(UserWarning):
    """An out-of-range torsion entry of the input was reduced."""


def load_arrangement(path: str) -> Arrangement:
    """Parse an arrangement file, with field-level diagnostics."""
    try:
        with open(path, encoding="utf-8") as fh:
            doc = json.load(fh)
    except json.JSONDecodeError as exc:
        raise InputError(f"{path}: not valid JSON (line {exc.lineno}: {exc.msg})")
    except ValueError as exc:
        # a number past Python's int-to-string limit, or bytes not UTF-8
        raise InputError(f"{path}: {exc}")
    except RecursionError:
        raise InputError(f"{path}: JSON nested too deeply to parse")
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
                warnings.warn(f"vectors[{i}][{free_rank + j}] = {x} reduced "
                              f"mod {e}", ReducedEntryWarning, stacklevel=2)
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


def cmd_info(arr, args):
    qp = invariants.QuasiPolynomial(arr)
    invariants.check_degree(arr, arr.gamma.free_rank, "characteristic polynomial")
    tmask = arr.torsion_mask()
    payload = {
        "name": arr.name,
        "group": emit_arrangement(arr)["group"],
        "element_count": arr.n,
        "rank": arr.rank,
        "torsion_elements": [i for i in range(arr.n) if tmask >> i & 1],
        "lcm_period": qp.period,
        "minimal_period": invariants.minimal_period(qp),
    }
    return payload, (f"{arr.describe()}: {arr.n} elements, rank {arr.rank}, "
                     f"period {payload['lcm_period']} "
                     f"(minimal {payload['minimal_period']})"), 0


def cmd_tutte(arr, args):
    spec = _spec_from_args(args)
    triples = invariants.g_tutte(arr, spec).triples()
    return {"triples": triples,
            "spec": {"f_torsion": list(spec.f_torsion), "p": spec.circles,
                     "q": spec.reals}}, f"{len(triples)} terms", 0


def cmd_arith_tutte(arr, args):
    triples = invariants.arithmetic_tutte(arr).triples()
    return {"triples": triples}, f"{len(triples)} terms", 0


def cmd_char(arr, args):
    p = invariants.g_characteristic(arr, _spec_from_args(args))
    return {"coefficients": p.serialize()}, poly_str(p), 0


def cmd_quasi(arr, args):
    qp = invariants.chromatic_quasi(arr)
    lines = [f"period {qp.period}"] + [
        f"  k={k}: {poly_str(c)}" for k, c in enumerate(qp.constituents, start=1)]
    return qp.serialize(), "\n".join(lines), 0


def cmd_constituent(arr, args):
    if args.k < 1:
        raise InputError(f"{arr.describe()}: k must be positive")
    c = invariants.QuasiPolynomial(arr).constituent(args.k)
    return {"k": args.k, "coefficients": c.serialize()}, poly_str(c), 0


def _layers_payload(poset, indices, pairs, p, dot, **fields) -> dict:
    """The payload fields both layer commands share; writes the DOT Hasse
    diagram to `dot` when one is given."""
    records = hasse_records(poset, indices, pairs)
    if dot:
        with open(dot, "w", encoding="utf-8") as fh:
            fh.write(export_hasse(records))
    return {"layer_count": len(indices), "polynomial": p.serialize(),
            "layers": records, **fields}


def cmd_toric_layers(arr, args):
    if args.k is not None:
        check_k(arr, args.k)  # before the poset is built
    poset = toric.enumerate_toric_layers(arr)
    indices, p = layer_sum(poset, args.k, args.partial)
    pairs = poset.covers(indices)
    payload = _layers_payload(poset, indices, pairs, p, args.dot,
                              cover_count=len(pairs))
    return payload, (f"{len(indices)} layers selected of {poset.n}; "
                     f"{poly_str(p)}"), 0


def cmd_lie_layers(arr, args):
    poset = lie.enumerate_lie_layers(arr, args.g, _parse_torsion(args.torsion))
    indices, p = layer_sum(poset, partial=args.partial)
    pairs = poset.covers(indices)
    shapes = component_shapes(poset, indices, pairs)
    payload = _layers_payload(
        poset, indices, pairs, p, args.dot,
        minimal_count=sum(1 for i in indices if poset.layers[i].rank == 0),
        component_shapes=[
            {"layers": s[0], "ranks": list(s[1]), "dims": list(s[2]),
             "covers": s[3], "count": c} for s, c in shapes])
    return payload, (f"{len(indices)} layers; {poly_str(p)}; component shapes "
                     + ", ".join(f"{c} x ({s[0]} layers, {s[3]} covers)"
                                 for s, c in shapes)), 0


def cmd_verify(arr, args):
    report = oracle.randomized_battery(seed=args.seed, count=args.count,
                                       qmax=args.qmax)
    return ({"passed": report.passed, "checks": report.to_records()},
            report.to_text(), 0 if report.passed else 1)


def cmd_reciprocity(arr, args):
    value = invariants.reciprocity_eval(arr, args.k, args.q)
    return ({"k": args.k, "q": args.q, "value": value,
             "nonnegative": value >= 0},
            f"(-1)^rank * f_{args.k}(-{args.q}) = {value}", 0)


def cmd_beta(arr, args):
    betas = invariants.beta_coefficients(arr, args.q)
    return ({"q": args.q, "betas": betas},
            " ".join(f"beta_{j}={b}" for j, b in enumerate(betas)), 0)


def cmd_compare(arr, args):
    rows = invariants.chen_wang_compare(arr, args.a, args.b)
    ok = all(r["ok"] for r in rows)
    return ({"a": args.a, "b": args.b, "rows": rows, "ok": ok},
            "\n".join(f"j={r['j']}: beta({args.a})={r['beta_a']} "
                      f"<= beta({args.b})={r['beta_b']}: {r['ok']}"
                      for r in rows), 0 if ok else 1)


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built on first use and then shared.

    It depends on nothing but this module: each `parse_args` returns a
    fresh namespace, so `main` can reuse one parser for every call.
    """
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
    """Run one `cmd_*(arrangement or None, args)`, which returns (payload,
    summary, exit code) and prints nothing; print both, return the code."""
    args = build_parser().parse_args(argv)
    try:
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always", ReducedEntryWarning)
            try:
                arr = load_arrangement(args.file) if "file" in args else None
            finally:
                for w in caught:
                    print(f"warning: {w.message}", file=sys.stderr)
        payload, summary, code = args.fn(arr, args)
        print(dumps(payload))
        print(summary, file=sys.stderr)
    except (InputError, ValueError, OSError) as exc:
        # OSError: an input or --dot path that cannot be opened; its message
        # names the path
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except AssertionError as exc:
        print(f"identity check failed: {exc}", file=sys.stderr)
        return 1
    return code


if __name__ == "__main__":
    sys.exit(main())
