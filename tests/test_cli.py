import hashlib
import json
import os
import random
import re
import subprocess
import sys
import time
import warnings
from collections import Counter
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import gtutte
from gtutte import cli, invariants, oracle, posets, toric
from gtutte.oracle import brute_complement_count


@pytest.fixture
def example_file(tmp_path):
    doc = {"group": {"free_rank": 2, "torsion": []},
           "vectors": [[-1, 1], [0, 2], [0, 4]],
           "name": "example"}
    path = tmp_path / "example.json"
    path.write_text(json.dumps(doc))
    return str(path)


def run(capsys, *argv):
    try:
        code = cli.main(list(argv))
    except SystemExit as exc:  # argparse refuses the arguments
        code = exc.code
    out, err = capsys.readouterr()
    return code, out, err


def test_info(example_file, capsys, monkeypatch):
    # `info` reads the gcd form and never the dense view
    def fail(qp):
        raise AssertionError("dense view built")

    monkeypatch.setattr(invariants.QuasiPolynomial, "constituents",
                        property(fail))
    code, out, err = run(capsys, "info", example_file)
    assert code == 0
    payload = json.loads(out)
    assert payload["rank"] == 2
    assert payload["lcm_period"] == 4
    assert payload["minimal_period"] == 4
    assert payload["torsion_elements"] == []
    assert "period 4" in err
    code, _, err = run(capsys, "quasi", example_file)
    assert code == 1 and "dense view built" in err


def test_quasi(example_file, capsys):
    code, out, _ = run(capsys, "quasi", example_file)
    assert code == 0
    payload = json.loads(out)
    assert payload["period"] == 4
    assert payload["constituents"] == \
        [[1, -2, 1], [2, -3, 1], [1, -2, 1], [4, -5, 1]]


def test_constituent(example_file, capsys):
    code, out, _ = run(capsys, "constituent", example_file, "4")
    assert code == 0
    assert json.loads(out)["coefficients"] == [4, -5, 1]


def test_char_and_tutte(example_file, capsys):
    code, out, _ = run(capsys, "char", example_file, "--torsion", "2")
    assert code == 0
    assert json.loads(out)["coefficients"] == [2, -3, 1]
    code, out, _ = run(capsys, "arith-tutte", example_file)
    assert code == 0
    assert json.loads(out)["triples"] == [[1, 0, 3], [1, 1, 2], [2, 0, 1]]
    code, out, _ = run(capsys, "tutte", example_file, "--p", "1")
    assert json.loads(out)["triples"] == [[1, 0, 3], [1, 1, 2], [2, 0, 1]]
    code, out, _ = run(capsys, "tutte", example_file, "--q", "1")
    assert json.loads(out)["triples"] == [[1, 1, 1], [2, 0, 1]]


def test_toric_layers(example_file, capsys, tmp_path):
    dot = tmp_path / "out.dot"
    code, out, _ = run(capsys, "toric-layers", example_file, "--k", "2",
                       "--partial", "--dot", str(dot))
    assert code == 0
    payload = json.loads(out)
    assert payload["layer_count"] == 6
    assert payload["cover_count"] == 7
    assert payload["polynomial"] == [2, -3, 1]
    text = dot.read_text()
    assert text.count("->") == 7


def test_toric_layers_default_and_partial(example_file, capsys):
    code, out, _ = run(capsys, "toric-layers", example_file)
    assert code == 0
    payload = json.loads(out)
    assert payload["layer_count"] == 10
    assert payload["polynomial"] == [4, -5, 1]
    code, out, _ = run(capsys, "toric-layers", example_file, "--partial")
    assert json.loads(out)["layer_count"] == 10  # no torsion elements here
    code, out, _ = run(capsys, "toric-layers", example_file, "--k", "4")
    assert json.loads(out)["polynomial"] == [4, -5, 1]


def _record_rows(payload):
    return [(r["id"], r["key"], r["covers"], r["mobius"], r["component"],
             r["dim"], r["rank"]) for r in payload["layers"]]


def test_toric_layers_golden_records(example_file, capsys):
    # ids, keys (reduced fractions of the character) and covers, pinned
    code, out, _ = run(capsys, "toric-layers", example_file, "--k", "2",
                       "--partial")
    assert code == 0
    assert _record_rows(json.loads(out)) == [
        (0, "[]()", [], 1, 0, 2, 0),
        (1, "[0,1](0)", [0], -1, 0, 1, 1),
        (3, "[0,1](1/2)", [0], -1, 0, 1, 1),
        (5, "[1,-1](0)", [0], -1, 0, 1, 1),
        (6, "[1,0;0,1](0,0)", [1, 5], 1, 0, 0, 2),
        (8, "[1,0;0,1](1/2,1/2)", [3, 5], 1, 0, 0, 2),
    ]


def test_lie_layers_golden_records(example_file, capsys):
    code, out, _ = run(capsys, "lie-layers", example_file, "--g", "1",
                       "--torsion", "4")
    assert code == 0
    rows = _record_rows(json.loads(out))
    # the 16 homs into Z/4 are the components, numbered in lexicographic order
    minimal = [(i, f"[]({i // 4},{i % 4})", [], 1, i, 2, 0) for i in range(16)]
    lines = [(16 + i, f"[0,1]({i // 4},{i % 4})", [i], -1, i, 1, 1)
             for i in range(16)]
    assert rows == minimal + lines + [
        (32, "[1,-1](0,0)", [0], -1, 0, 1, 1),
        (33, "[1,-1](1,1)", [5], -1, 5, 1, 1),
        (34, "[1,-1](2,2)", [10], -1, 10, 1, 1),
        (35, "[1,-1](3,3)", [15], -1, 15, 1, 1),
        (36, "[1,0;0,1](0,0)", [16, 32], 1, 0, 0, 2),
        (37, "[1,0;0,1](1,1)", [21, 33], 1, 5, 0, 2),
        (38, "[1,0;0,1](2,2)", [26, 34], 1, 10, 0, 2),
        (39, "[1,0;0,1](3,3)", [31, 35], 1, 15, 0, 2),
    ]


def test_lie_layers_partial(example_file, capsys):
    code, out, _ = run(capsys, "lie-layers", example_file, "--g", "1",
                       "--partial")
    assert code == 0
    payload = json.loads(out)
    assert payload["polynomial"] == [1, -2, 1]
    assert payload["layer_count"] == 4


def test_lie_layers(example_file, capsys):
    code, out, err = run(capsys, "lie-layers", example_file, "--g", "1",
                         "--torsion", "4")
    assert code == 0
    payload = json.loads(out)
    assert payload["minimal_count"] == 16
    assert payload["polynomial"] == [4, -20, 16]
    shapes = {(s["layers"], s["covers"]): s["count"]
              for s in payload["component_shapes"]}
    assert shapes == {(4, 4): 4, (2, 1): 12}


def test_one_parser_serves_every_call(example_file, capsys):
    calls = [("tutte", example_file, "--p", "1", "--torsion", "2"),
             ("lie-layers", example_file, "--g", "1", "--torsion", "2,2"),
             ("char", example_file),
             ("tutte", example_file, "--p", "not-a-number"),
             ("verify", "--seed", "0", "--count", "2"),
             ("tutte", example_file, "--p", "1", "--torsion", "2")]
    fresh = []
    for argv in calls:
        cli.build_parser.cache_clear()
        fresh.append(run(capsys, *argv))
    assert [code for code, _, _ in fresh] == [0, 0, 0, 2, 0, 0]
    assert "invalid int value" in fresh[3][2]
    cli.build_parser.cache_clear()
    shared = [run(capsys, *argv) for argv in calls]
    assert shared == fresh
    assert cli.build_parser.cache_info().misses == 1


def test_importing_does_not_build_the_parser():
    env = dict(os.environ,
               PYTHONPATH=os.path.dirname(os.path.dirname(gtutte.__file__)))
    proc = subprocess.run(
        [sys.executable, "-c", "import gtutte.cli as c; "
         "print(c.build_parser.cache_info().misses)"],
        capture_output=True, text=True, env=env, timeout=30)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "0"


def test_unreadable_paths_exit_2(example_file, tmp_path, capsys):
    missing = str(tmp_path / "missing.json")
    for argv, path in ((("info", missing), missing),
                       (("quasi", str(tmp_path)), str(tmp_path))):
        code, out, err = run(capsys, *argv)
        assert code == 2 and out == "", argv
        assert err.startswith("error: ") and path in err, argv
    dot = str(tmp_path / "no-such-dir" / "out.dot")
    for argv in (("toric-layers", example_file, "--dot", dot),
                 ("lie-layers", example_file, "--g", "1", "--dot", dot)):
        code, out, err = run(capsys, *argv)
        assert code == 2 and out == "", argv
        assert err.startswith("error: ") and dot in err, argv


def test_verify(capsys):
    code, out, err = run(capsys, "verify", "--count", "0")
    assert code == 0
    assert json.loads(out)["passed"] is True
    code, out, err = run(capsys, "verify", "--count", "2", "--qmax", "6")
    assert code == 0
    assert json.loads(out)["passed"] is True
    assert "total" in err


@pytest.mark.parametrize("flag, value", [("--count", "-1"), ("--qmax", "0"),
                                         ("--qmax", "-3")])
def test_verify_refuses_vacuous_arguments(capsys, flag, value):
    # a negative count or a q range with no q would pass with no checks
    code, out, err = run(capsys, "verify", "--count", "2", flag, value)
    assert code == 2 and out == ""
    assert err.startswith("error: ") and flag in err and value in err


def test_verify_refuses_past_the_oracle_cap(capsys):
    # at q = 172 the first instance has over 10^7 homs to count: the oracle
    # refuses the size, which is no failed identity and nothing to shrink
    t0 = time.perf_counter()
    code, out, err = run(capsys, "verify", "--count", "2", "--qmax", "300")
    elapsed = time.perf_counter() - t0
    assert code == 2 and out == "", err
    assert err.startswith("error: ") and "q=172" in err
    assert f"exceed the cap {oracle.ENUM_CAP}" in err
    assert elapsed < 10.0, f"{elapsed:.2f}s > 10.0s"


def test_reciprocity_beta_compare(example_file, capsys):
    code, out, _ = run(capsys, "reciprocity", example_file, "--k", "1",
                       "--q", "3")
    assert code == 0
    assert json.loads(out)["value"] == 16
    code, out, _ = run(capsys, "beta", example_file, "--q", "2")
    assert json.loads(out)["betas"] == [2, 3, 1]
    code, out, _ = run(capsys, "compare", example_file, "--a", "1", "--b", "4")
    assert code == 0
    assert json.loads(out)["ok"] is True


def test_round_trip(example_file):
    arr = cli.load_arrangement(example_file)
    doc = cli.emit_arrangement(arr)
    again = cli.arrangement_from_document(doc)
    assert again.gamma == arr.gamma
    assert again.elements == arr.elements
    assert again.name == arr.name
    assert cli.emit_arrangement(again) == doc


def test_byte_stable_output(example_file, capsys):
    _, out1, _ = run(capsys, "quasi", example_file)
    _, out2, _ = run(capsys, "quasi", example_file)
    assert out1 == out2


def test_schema_errors(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    code, _, err = run(capsys, "info", str(bad))
    assert code == 2 and "not valid JSON" in err

    bad.write_text(json.dumps({"group": {"free_rank": 2, "torsion": []},
                               "vectors": [[1, 2, 3]]}))
    code, _, err = run(capsys, "info", str(bad))
    assert code == 2 and "vectors[0]" in err

    bad.write_text(json.dumps({"group": {"free_rank": 1, "torsion": [4, 2]},
                               "vectors": []}))
    code, _, err = run(capsys, "info", str(bad))
    assert code == 2 and "torsion" in err

    # JSON true/false decode to Python bools, which are ints: still refused
    for doc, message in (
            ({"group": {"free_rank": True, "torsion": []}, "vectors": []},
             "group.free_rank must be a nonnegative integer"),
            ({"group": {"free_rank": 1, "torsion": [True]}, "vectors": []},
             "group.torsion must be a list of integers"),
            ({"group": {"free_rank": 1, "torsion": []},
              "vectors": [[True], [False]]},
             "vectors[0] must be a list of integers")):
        bad.write_text(json.dumps(doc))
        code, out, err = run(capsys, "info", str(bad))
        assert code == 2 and message in err and out == ""


def test_out_of_range_torsion_entry_warns(tmp_path, capsys):
    doc = {"group": {"free_rank": 1, "torsion": [2]}, "vectors": [[0, 3]]}
    path = tmp_path / "warn.json"
    path.write_text(json.dumps(doc))
    code, out, err = run(capsys, "info", str(path))
    assert code == 0
    assert "warning: vectors[0][1] = 3 reduced mod 2\n" in err
    # the library warns through `warnings` and writes nothing itself
    with pytest.warns(cli.ReducedEntryWarning, match="reduced mod 2"):
        arr = cli.load_arrangement(str(path))
    assert arr.elements == ((0, 1),)
    assert capsys.readouterr().err == ""


def test_verify_failure_exit_code(capsys, monkeypatch):
    from gtutte import model
    real = model.multiplicity
    monkeypatch.setattr(model, "multiplicity",
                        lambda data, spec: real(data, spec) + 1)
    code, out, err = run(capsys, "verify", "--count", "1", "--qmax", "3")
    assert code == 1
    assert json.loads(out)["passed"] is False


def test_large_entries_finish_within_budget(tmp_path):
    # tall relation matrices with entries in [-1000, 1000] used to blow up
    # the SNF transforms: each command ran past 30 s on this input
    rng = random.Random(2)
    doc = {"group": {"free_rank": 3, "torsion": []},
           "vectors": [[rng.randint(-1000, 1000) for _ in range(3)]
                       for _ in range(7)]}
    path = tmp_path / "large.json"
    path.write_text(json.dumps(doc))
    env = dict(os.environ,
               PYTHONPATH=os.path.dirname(os.path.dirname(gtutte.__file__)))
    budget_s = 10

    def gtutte_cli(*argv):
        return subprocess.run([sys.executable, "-m", "gtutte.cli", *argv],
                              capture_output=True, text=True, env=env,
                              timeout=budget_s)

    char = gtutte_cli("char", "--torsion", "4", str(path))
    assert char.returncode == 0, char.stderr
    coeffs = json.loads(char.stdout)["coefficients"]
    arr = cli.load_arrangement(str(path))
    assert sum(c * 4**i for i, c in enumerate(coeffs)) == \
        brute_complement_count(arr, 4)
    layers = gtutte_cli("toric-layers", str(path))
    assert layers.returncode == 2
    assert re.search(r"layer enumeration: at least \d+ components exceed the "
                     r"cap 50000", layers.stderr), layers.stderr
    lines = gtutte_cli("lie-layers", "--g", "1", "--torsion", "2", str(path))
    assert lines.returncode == 0, lines.stderr


def test_single_constituent_commands_skip_the_period(tmp_path):
    # the lcm period of this input has 160 digits: the commands that read
    # one or two constituents must not build one per residue
    rng = random.Random(0)
    doc = {"group": {"free_rank": 3, "torsion": []},
           "vectors": [[rng.randint(-1000, 1000) for _ in range(3)]
                       for _ in range(6)]}
    path = str(tmp_path / "huge_period.json")
    with open(path, "w") as fh:
        json.dump(doc, fh)
    arr = cli.load_arrangement(path)
    assert len(str(arr.lcm_period())) == 160
    env = dict(os.environ,
               PYTHONPATH=os.path.dirname(os.path.dirname(gtutte.__file__)))
    for argv in (["constituent", path, "2"], ["constituent", path, "3"],
                 ["constituent", path, "4"], ["beta", path, "--q", "3"],
                 ["reciprocity", path, "--k", "2", "--q", "3"],
                 ["compare", path, "--a", "2", "--b", "4"], ["info", path]):
        proc = subprocess.run([sys.executable, "-m", "gtutte.cli", *argv],
                              capture_output=True, text=True, env=env,
                              timeout=10)
        assert proc.returncode == 0, (argv, proc.stderr)
        if argv[0] == "constituent":
            k = int(argv[2])
            coeffs = json.loads(proc.stdout)["coefficients"]
            assert sum(c * k**i for i, c in enumerate(coeffs)) == \
                brute_complement_count(arr, k)
        if argv[0] == "info":
            payload = json.loads(proc.stdout)
            assert payload["minimal_period"] == payload["lcm_period"] == \
                arr.lcm_period()


def test_nonpositive_finite_factors_are_refused(example_file, capsys):
    for argv in (("char", example_file, "--torsion", "0"),
                 ("char", example_file, "--torsion", "-4"),
                 ("lie-layers", example_file, "--g", "1", "--torsion", "0")):
        code, out, err = run(capsys, *argv)
        assert code == 2 and out == ""
        assert argv[-1] in err
    code, out, _ = run(capsys, "char", example_file, "--torsion", "1")
    assert code == 0
    assert json.loads(out)["coefficients"] == [1, -2, 1]


def test_rank_five_large_entry_lie_layers_finish_within_budget(tmp_path):
    # the rows of an upper-triangular 5x5 HNF with entries near 1000, on
    # which the Smith elimination behind hom enumeration once ran past 60 s
    doc = {"group": {"free_rank": 5, "torsion": []},
           "vectors": [[354, 742, 297, 39, 523], [0, 938, 193, 42, 664],
                       [0, 0, 453, 84, 175], [0, 0, 0, 137, 829],
                       [0, 0, 0, 0, 880]]}
    path = tmp_path / "rank5.json"
    path.write_text(json.dumps(doc))
    env = dict(os.environ,
               PYTHONPATH=os.path.dirname(os.path.dirname(gtutte.__file__)))
    for argv, layers in ((["--g", "1"], 32),
                         (["--g", "1", "--torsion", "2"], 336)):
        proc = subprocess.run(
            [sys.executable, "-m", "gtutte.cli", "lie-layers", *argv,
             str(path)], capture_output=True, text=True, env=env, timeout=10)
        assert proc.returncode == 0, (argv, proc.stderr)
        assert json.loads(proc.stdout)["layer_count"] == layers, argv


def test_hom_order_is_not_an_output(example_file, tmp_path, capsys,
                                    monkeypatch):
    # the layer engine sorts what it emits: homs met in reverse order give
    # the same stdout and DOT bytes
    from gtutte import posets
    mixed = tmp_path / "mixed.json"
    mixed.write_text(json.dumps({"group": {"free_rank": 1, "torsion": [2]},
                                 "vectors": [[1, 0], [0, 1]]}))
    variants = [["toric-layers"], ["toric-layers", "--k", "2", "--partial"],
                ["lie-layers", "--g", "1", "--torsion", "4"],
                ["lie-layers", "--g", "2", "--torsion", "2,2", "--partial"]]

    def outputs():
        seen = []
        for path in (example_file, str(mixed)):
            for argv in variants:
                dot = tmp_path / "out.dot"
                code, out, _ = run(capsys, *argv, path, "--dot", str(dot))
                assert code == 0, argv
                seen.append((out, dot.read_text()))
        return seen

    before = outputs()
    forward = posets.hom_enumerate
    monkeypatch.setattr(posets, "hom_enumerate",
                        lambda *args: forward(*args)[::-1])
    # the circle values too
    solve = posets.kernel_mod
    monkeypatch.setattr(posets, "kernel_mod", lambda *args: solve(*args)[::-1])
    assert outputs() == before


# The I/O contract: stdout, stderr and exit code of every subcommand, with
# the option variants the benchmark workloads run, on an input with a free
# ambient and one with torsion.  Constituent 12 is a multiple of both
# periods (4 and 6), and it prints the constituent alone.
TORSION_DOC = {"group": {"free_rank": 2, "torsion": [2, 6]},
               "vectors": [[1, 0, 1, 0], [0, 1, 0, 3], [1, 1, 1, 2],
                           [2, -1, 0, 1]],
               "name": "torsion"}
CONTRACT_VARIANTS = (
    ("info",), ("quasi",), ("constituent", "4"), ("constituent", "12"),
    ("arith-tutte",), ("tutte", "--p", "1", "--torsion", "2"),
    ("tutte", "--q", "1"), ("char", "--torsion", "4"), ("char", "--p", "1"),
    ("beta", "--q", "3"), ("compare", "--a", "2", "--b", "4"),
    ("reciprocity", "--k", "2", "--q", "3"),
    ("toric-layers",), ("toric-layers", "--partial"),
    ("toric-layers", "--k", "2"), ("toric-layers", "--k", "3", "--partial"),
    ("lie-layers", "--g", "1", "--torsion", "4"),
    ("lie-layers", "--g", "2", "--torsion", "2,2", "--partial"),
    ("lie-layers", "--g", "1", "--torsion", "6", "--partial"),
    ("lie-layers", "--g", "1"))
CONTRACT_CASES = [(name, argv) for name in ("example", "torsion")
                  for argv in CONTRACT_VARIANTS] + \
    [(None, ("verify", "--seed", "1", "--count", "3"))]


def _case_id(case):
    name, argv = case
    return " ".join(([name] if name else []) + list(argv))


def _sha(text):
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def contract_run(capsys, tmp_path, example_file, name, argv):
    """(exit code, stdout digest, stderr digest, DOT digest or None)."""
    argv = list(argv)
    if name is not None:
        path = example_file
        if name == "torsion":
            path = str(tmp_path / "torsion.json")
            with open(path, "w") as fh:
                json.dump(TORSION_DOC, fh)
        argv.insert(1, path)
    dot = None
    if argv[0].endswith("-layers"):
        dot = tmp_path / "out.dot"
        argv += ["--dot", str(dot)]
    code, out, err = run(capsys, *argv)
    return code, _sha(out), _sha(err), dot and _sha(dot.read_text())


# (exit code, sha256 prefixes of stdout, stderr and the DOT file)
CONTRACT_DIGESTS = {
    "example info":
        (0, "9327c7177c156998", "7b7c030d844efa09", None),
    "example quasi":
        (0, "4f19bc9f1e2fb715", "f34a5e7bce362359", None),
    "example constituent 4":
        (0, "03e953f5a5ca255f", "8bc696c4820a4e5e", None),
    "example constituent 12":
        (0, "1a97c300f953de8a", "8bc696c4820a4e5e", None),
    "example arith-tutte":
        (0, "c9cd78c70244d41b", "a0125c35054d5611", None),
    "example tutte --p 1 --torsion 2":
        (0, "9cef1716603b7ad9", "a0125c35054d5611", None),
    "example tutte --q 1":
        (0, "f6e2b644e1ecd330", "b569bdf2438038b2", None),
    "example char --torsion 4":
        (0, "b09a8148ce9845e7", "8bc696c4820a4e5e", None),
    "example char --p 1":
        (0, "b09a8148ce9845e7", "8bc696c4820a4e5e", None),
    "example beta --q 3":
        (0, "a9e336b8aa0b6d3e", "e0d23035a74c1b6e", None),
    "example compare --a 2 --b 4":
        (0, "e8c1fef4d2386ba9", "79a1040e12323f7c", None),
    "example reciprocity --k 2 --q 3":
        (0, "d80d5fc52cd66869", "f5568424b9b36aed", None),
    "example toric-layers":
        (0, "08b07ead9ad5ac4c", "91c4233c2205355b", "e6b2622b4bf7a68c"),
    "example toric-layers --partial":
        (0, "08b07ead9ad5ac4c", "91c4233c2205355b", "e6b2622b4bf7a68c"),
    "example toric-layers --k 2":
        (0, "45398e9c44bfe554", "0ab00e2e6e0e673d", "37e3ac1caab2468d"),
    "example toric-layers --k 3 --partial":
        (0, "ae463045c9c93ca7", "e429e9c91d08c505", "03ebd7d0666367d1"),
    "example lie-layers --g 1 --torsion 4":
        (0, "87b5ee9c6f491d86", "667a1e904adc9399", "37ef4d6627dfe009"),
    "example lie-layers --g 2 --torsion 2,2 --partial":
        (0, "aa5de32d152c4c14", "7676a2487171dc3b", "03ab6d3254c6d699"),
    "example lie-layers --g 1 --torsion 6 --partial":
        (0, "8c53dab013b25c3d", "0398296bf45ab673", "9ef9747f05cd8135"),
    "example lie-layers --g 1":
        (0, "c985b5b63acc7f60", "ce2769dac49c4e8b", "e44ae839c2fce1d4"),
    "torsion info":
        (0, "e8865a33bc0d143e", "fa3f9582f17b404c", None),
    "torsion quasi":
        (0, "c8efc1c2f54f1a6a", "1296dfcd74f7ddd8", None),
    "torsion constituent 4":
        (0, "7b981315c82321ad", "87c4196aee7a098c", None),
    "torsion constituent 12":
        (0, "0e4fb8648b4875a6", "974342c56e9c1c82", None),
    "torsion arith-tutte":
        (0, "0194ddebbed00c70", "3f6e39c2434d671e", None),
    "torsion tutte --p 1 --torsion 2":
        (0, "b0cc39e0eca24021", "3f6e39c2434d671e", None),
    "torsion tutte --q 1":
        (0, "70ce4a4d143b9b30", "1e35854adf7350b3", None),
    "torsion char --torsion 4":
        (0, "cfedea13243df438", "87c4196aee7a098c", None),
    "torsion char --p 1":
        (0, "627593e9ec7e1b69", "974342c56e9c1c82", None),
    "torsion beta --q 3":
        (0, "afc315d6fde1be37", "29de8470a00783aa", None),
    "torsion compare --a 2 --b 4":
        (0, "bb439ba6f4ec8ce3", "ef064e38a5756137", None),
    "torsion reciprocity --k 2 --q 3":
        (0, "bfd8b230371f523d", "6fec943da1172fbb", None),
    "torsion toric-layers":
        (0, "e2fa1b5af11bf265", "226c1ece911a9c16", "73b3703ee871658b"),
    "torsion toric-layers --partial":
        (0, "e2fa1b5af11bf265", "226c1ece911a9c16", "73b3703ee871658b"),
    "torsion toric-layers --k 2":
        (0, "7e96430778c1896b", "41541787202bf797", "1b5b77587ff7a1c5"),
    "torsion toric-layers --k 3 --partial":
        (0, "8377597160b600a4", "86d7c833ca837465", "ff9475674f0543f1"),
    "torsion lie-layers --g 1 --torsion 4":
        (0, "ea5ed9973e81553e", "e6cb1ddf95db8782", "385ddc445f959bd6"),
    "torsion lie-layers --g 2 --torsion 2,2 --partial":
        (0, "a454fc109ba840b8", "a29025c28f45e2d8", "b4785d78f065eb16"),
    "torsion lie-layers --g 1 --torsion 6 --partial":
        (0, "277755ed04772591", "8d7c7cac67939bc1", "78a2736cdfdefa1c"),
    "torsion lie-layers --g 1":
        (0, "bec3c95c2a3a1f65", "f312d2752358264e", "5d0a466de82cf786"),
    "verify --seed 1 --count 3":
        (0, "535bd65e1add91f4", "c767a956db9473ca", None),
}


@pytest.mark.parametrize("case", CONTRACT_CASES, ids=_case_id)
def test_io_contract(case, capsys, tmp_path, example_file):
    assert contract_run(capsys, tmp_path, example_file, *case) == \
        CONTRACT_DIGESTS[_case_id(case)]


def _period_file(tmp_path, period):
    """An input on Z^2 whose lcm period is `period`."""
    path = tmp_path / f"period-{period}.json"
    path.write_text(json.dumps({"group": {"free_rank": 2, "torsion": []},
                                "vectors": [[period, 0], [0, 1], [1, 1]]}))
    return str(path)


@pytest.mark.parametrize("argv, message", [
    (("info", "{tmp}/missing.json"), "{tmp}/missing.json"),
    (("quasi", "{tmp}/bad.json"), "not valid JSON"),
    (("constituent", "{example}", "0"), "example: k must be positive"),
    (("toric-layers", "{example}", "--dot", "{tmp}/no-dir/out.dot"),
     "{tmp}/no-dir/out.dot"),
    (("quasi", "{over_cap}"), f"exceeds the cap {invariants.MAX_PERIOD}"),
    (("info", "{tmp}/deep.json"), "{tmp}/deep.json"),
    (("toric-layers", "{example}", "--k", "0"), "example: k must be positive"),
    (("char", "{tmp}/huge.json"), "{tmp}/huge.json: Exceeds the limit"),
    (("reciprocity", "{example}", "--k", "0", "--q", "1"),
     "example: k must be positive"),
    (("beta", "{example}", "--q", "0"), "example: q must be positive"),
    (("compare", "{example}", "--a", "3", "--b", "4"),
     "example: need positive a dividing b"),
    (("tutte", "{example}", "--torsion", "2,x"), "bad torsion list: '2,x'"),
    (("info", "{tmp}/long.json"),
     f"{{tmp}}/long.json: Arrangement(Z^1, {gtutte.model.MAX_ELEMENTS + 1} "
     f"elements): {gtutte.model.MAX_ELEMENTS + 1} elements; the subset sweep "
     f"is capped at {gtutte.model.MAX_ELEMENTS}"),
    (("constituent", "{example}", "-3"), "example: k must be positive"),
    (("lie-layers", "{example}", "--g", "0"), "example: g must be >= 1"),
    (("lie-layers", "{example}", "--g", "-1", "--torsion", "2"),
     "example: g must be >= 1"),
], ids=["missing file", "bad JSON", "K = 0", "--dot into a missing directory",
        "period cap", "deeply nested JSON", "--k 0",
        "number past the int-to-string limit", "reciprocity --k 0",
        "beta --q 0", "compare --a 3 --b 4", "bad torsion list",
        "one element past the element cap", "K = -3", "lie-layers --g 0",
        "lie-layers --g -1"])
def test_error_paths_print_no_result(argv, message, example_file, tmp_path,
                                     capsys):
    (tmp_path / "bad.json").write_text("{not json")
    (tmp_path / "long.json").write_text(json.dumps({
        "group": {"free_rank": 1, "torsion": []},
        "vectors": [[1]] * (gtutte.model.MAX_ELEMENTS + 1)}))
    (tmp_path / "deep.json").write_text("[" * 100_000 + "]" * 100_000)
    (tmp_path / "huge.json").write_text(
        '{"group": {"free_rank": 1, "torsion": []}, "vectors": [[1%s]]}'
        % ("0" * 4999))
    names = {"tmp": str(tmp_path), "example": example_file,
             "over_cap": _period_file(tmp_path, invariants.MAX_PERIOD + 1)}
    code, out, err = run(capsys, *(a.format(**names) for a in argv))
    assert code == 2 and out == ""
    assert err.startswith("error: ") and message.format(**names) in err


def test_nonpositive_k_is_refused_before_any_layer(example_file, capsys,
                                                   monkeypatch):
    # a nonpositive k has no k-torsion subposet, so `toric-layers` refuses
    # it before the layers, which take seconds on large inputs, are built
    def enumerate_nothing(arr):
        raise AssertionError("layers enumerated")

    monkeypatch.setattr(toric, "enumerate_toric_layers", enumerate_nothing)
    for k in ("0", "-2"):
        code, out, err = run(capsys, "toric-layers", example_file, "--k", k)
        assert code == 2 and out == ""
        assert err == ("error: example: k must be positive (nonpositive k "
                       "is undefined here)\n"), err
    code, _, err = run(capsys, "toric-layers", example_file, "--k", "2")
    assert code == 1 and "layers enumerated" in err


def test_verify_stdout_digest(capsys):
    code, out, _ = run(capsys, "verify", "--seed", "0", "--count", "25")
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == \
        "04dde836bf93901e6645e509654cd00186b769be54ff56faecf93dbd73296492"


def test_a_raising_handler_prints_no_result(example_file, capsys,
                                            monkeypatch):
    def fail(qp, k):
        raise invariants.IdentityCheckError("injected")

    monkeypatch.setattr(invariants.QuasiPolynomial, "constituent", fail)
    code, out, err = run(capsys, "constituent", example_file, "4")
    assert code == 1 and out == ""
    assert err == "identity check failed: injected\n"


def test_wrong_signs_fail_the_beta_and_reciprocity_checks(example_file, capsys,
                                                          monkeypatch):
    # -(t + 1)^2 over a rank-2 ambient: beta_0 = -1, and (-1)^2 * f(-3) = -4
    monkeypatch.setattr(invariants.QuasiPolynomial, "constituent",
                        lambda self, k: gtutte.UniPoly([-1, -2, -1]))
    for argv, what in ((("beta", "--q", "4"), "beta_0(4) = -1 < 0"),
                       (("reciprocity", "--k", "4", "--q", "3"),
                        "reciprocity value -4 < 0")):
        code, out, err = run(capsys, argv[0], example_file, *argv[1:])
        assert code == 1 and out == ""
        assert err.startswith("identity check failed: ") and what in err


def test_dense_periods_are_refused_past_the_cap(tmp_path, capsys):
    cap = invariants.MAX_PERIOD
    at_cap = _period_file(tmp_path, cap)
    code, out, _ = run(capsys, "quasi", at_cap)
    assert code == 0 and json.loads(out)["period"] == cap
    code, out, _ = run(capsys, "info", at_cap)
    assert code == 0 and json.loads(out)["lcm_period"] == cap
    # one above the cap, and a period of 160 digits: `quasi` refuses, while
    # `info` reads the minimal period off the gcd form
    rng = random.Random(0)
    huge = tmp_path / "huge_period.json"
    huge.write_text(json.dumps(
        {"group": {"free_rank": 3, "torsion": []},
         "vectors": [[rng.randint(-1000, 1000) for _ in range(3)]
                     for _ in range(6)]}))
    env = dict(os.environ,
               PYTHONPATH=os.path.dirname(os.path.dirname(gtutte.__file__)))
    for path in (_period_file(tmp_path, cap + 1), str(huge)):
        period = cli.load_arrangement(path).lcm_period()
        assert period > cap
        for command in ("info", "quasi"):
            proc = subprocess.run(
                [sys.executable, "-m", "gtutte.cli", command, path],
                capture_output=True, text=True, env=env, timeout=2)
            if command == "info":
                assert proc.returncode == 0, proc.stderr
                payload = json.loads(proc.stdout)
                assert payload["lcm_period"] == payload["minimal_period"] == \
                    period
                continue
            assert proc.returncode == 2 and proc.stdout == "", command
            assert f"exceeds the cap {cap}" in proc.stderr, command


def _free_doc(seed, rank, count, bound):
    """`count` seeded vectors of Z^rank with entries in [-bound, bound]."""
    rng = random.Random(seed)
    return {"group": {"free_rank": rank, "torsion": []},
            "vectors": [[rng.randint(-bound, bound) for _ in range(rank)]
                        for _ in range(count)]}


@pytest.mark.parametrize("doc, commands, cap", [
    # a period of over 4,300 digits: past the int-to-string limit
    (_free_doc(1, 4, 20, 50), ("info", "quasi"), "past the cap 4300"),
    # a top factor with no prime below 10^6 takes 10^6 trial divisions
    ({"group": {"free_rank": 2, "torsion": []},
      "vectors": [[1000003 * 1000033, 0], [0, 1], [1, 1]]},
     ("info",), f"exceed the cap {invariants.MAX_PERIOD_STEPS}")],
    ids=["period past the digit limit", "factoring cap"])
def test_periods_are_refused_at_a_cap_within_budget(doc, commands, cap,
                                                    tmp_path, capsys):
    path = tmp_path / "period.json"
    path.write_text(json.dumps(doc))
    instance = cli.load_arrangement(str(path)).describe()
    for command in commands:
        t0 = time.perf_counter()
        code, out, err = run(capsys, command, str(path))
        elapsed = time.perf_counter() - t0
        assert code == 2 and out == "", err
        assert err.startswith(f"error: {instance}: ") and cap in err, err
        assert elapsed < 3.0, f"{command}: {elapsed:.2f}s > 3.0s"


@pytest.mark.parametrize("n, seed", [(13, 1), (16, 1), (20, 1), (24, 2)])
def test_layer_commands_past_twelve_elements(n, seed, tmp_path, capsys):
    # the layer cap counts components over distinct lattices, and a rank-3
    # input with small entries spans few lattices however many elements it has
    rng = random.Random(seed)
    path = tmp_path / "many.json"
    path.write_text(json.dumps(
        {"group": {"free_rank": 3, "torsion": []},
         "vectors": [[rng.randint(-2, 2) for _ in range(3)] for _ in range(n)]}))
    budget_s = 5.0
    t0 = time.perf_counter()
    for argv in (["toric-layers"], ["toric-layers", "--k", "2", "--partial"],
                 ["lie-layers", "--g", "1", "--torsion", "2"]):
        code, out, err = run(capsys, *argv, str(path))
        assert code == 0, (argv, err)  # each identity check passed
        assert json.loads(out)["layer_count"] > 0
    elapsed = time.perf_counter() - t0
    assert elapsed < budget_s, f"{elapsed:.2f}s > {budget_s}s"


def test_high_rank_layer_jobs_are_refused_within_budget(tmp_path, capsys):
    # the 15 unit vectors of Z^15 span 32,768 lattices with one component
    # each, under the component cap, but 3^15 order pairs; with F = Z/2 they
    # have 3^15 components.  Each is refused as soon as the fold over the
    # lattices passes a cap, before any hom is enumerated
    path = tmp_path / "b15.json"
    path.write_text(json.dumps(
        {"group": {"free_rank": 15, "torsion": []},
         "vectors": [[int(i == j) for j in range(15)] for i in range(15)]}))
    budget_s = 10.0
    t0 = time.perf_counter()
    for argv, what in ((["toric-layers"], "layer order: at least"),
                       (["lie-layers", "--g", "1"], "layer order: at least"),
                       (["lie-layers", "--g", "1", "--torsion", "2"],
                        "layer enumeration: at least")):
        code, out, err = run(capsys, *argv, str(path))
        assert code == 2, (argv, err)
        assert what in err and "exceed the cap" in err, (argv, err)
    elapsed = time.perf_counter() - t0
    assert elapsed < budget_s, f"{elapsed:.2f}s > {budget_s}s"


def test_lattice_fold_is_refused_within_budget(tmp_path, capsys):
    # 24 vectors of {-1, 0, 1}^8 span more than 10^5 distinct lattices: the
    # histogram fold behind `char` stops at the lattice cap as it runs
    rng = random.Random(4)
    path = tmp_path / "cube8.json"
    path.write_text(json.dumps(
        {"group": {"free_rank": 8, "torsion": []},
         "vectors": [[rng.randint(-1, 1) for _ in range(8)]
                     for _ in range(24)]}))
    budget_s = 10.0
    t0 = time.perf_counter()
    code, out, err = run(capsys, "char", str(path), "--torsion", "2")
    elapsed = time.perf_counter() - t0
    assert code == 2 and out == "", err
    assert re.search(r": lattice fold: 100001 lattices exceed the cap 100000$",
                     err.strip()), err
    assert elapsed < budget_s, f"{elapsed:.2f}s > {budget_s}s"


PAPER_EXAMPLE = {"group": {"free_rank": 2, "torsion": []},
                 "vectors": [[-1, 1], [0, 2], [0, 4]]}


def test_dense_polynomials_are_refused_past_the_degree_cap(tmp_path, capsys):
    # a free rank or a line count of a few bytes would name a polynomial of
    # any degree; each is refused before one coefficient is allocated
    huge = tmp_path / "huge_rank.json"
    huge.write_text(json.dumps({"group": {"free_rank": 10 ** 9, "torsion": []},
                                "vectors": []}))
    paper = tmp_path / "paper.json"
    paper.write_text(json.dumps(PAPER_EXAMPLE))
    cap = invariants.MAX_DEGREE
    for argv, degree in ((["char", str(huge)], 10 ** 9),
                         (["lie-layers", str(paper), "--g", "3000000"],
                          6_000_000)):
        t0 = time.perf_counter()
        code, out, err = run(capsys, *argv)
        elapsed = time.perf_counter() - t0
        assert code == 2 and out == "", argv
        assert f"degree {degree} exceeds the cap {cap}" in err, err
        assert elapsed < 2.0, f"{argv}: {elapsed:.2f}s > 2.0s"
    # the cap is on the degree, not on the free rank: tutte and char over
    # R^N build no polynomial of degree N
    code, out, _ = run(capsys, "tutte", str(huge))
    assert code == 0 and json.loads(out)["triples"] == [[0, 0, 1]]
    code, out, _ = run(capsys, "char", str(paper), "--q", "3000000")
    assert code == 0 and json.loads(out)["coefficients"] == [1, -2, 1]
    for rank in (cap, cap + 1):
        path = tmp_path / f"rank-{rank}.json"
        path.write_text(json.dumps({"group": {"free_rank": rank, "torsion": []},
                                    "vectors": []}))
        code, out, _ = run(capsys, "char", str(path))
        if rank == cap:
            assert code == 0 and json.loads(out)["coefficients"] == [0] * cap + [1]
        else:
            assert code == 2 and out == ""


def test_circle_counts_are_refused_past_the_degree_cap(example_file, capsys):
    # m(S) raises each torsion factor d to d^p: a circle count of 10^8 is
    # refused before any multiplicity is computed
    cap = invariants.MAX_DEGREE
    for command in ("tutte", "char"):
        t0 = time.perf_counter()
        code, out, err = run(capsys, command, example_file, "--p", "100000000")
        elapsed = time.perf_counter() - t0
        assert code == 2 and out == "", command
        assert (f"example: circle count: degree 100000000 exceeds the cap "
                f"{cap}") in err, err
        assert elapsed < 2.0, f"{command}: {elapsed:.2f}s > 2.0s"


def test_circle_counts_are_refused_past_the_digit_limit(example_file, capsys):
    # the paper example's characteristic polynomial over (S^1)^p is
    # t^2 - (4^p + 1) t + 4^p, and 4^10000 has 6,021 digits: past the
    # interpreter's int-to-string limit, refused before it is computed
    old = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(4300)
    try:
        for command in ("tutte", "char"):
            code, out, err = run(capsys, command, example_file, "--p", "10000")
            assert code == 2 and out == "", command
            assert re.search(r"^error: example: circle count: coefficients "
                             r"may reach \d+ digits, past the cap 4300$",
                             err, re.M), err
        code, out, _ = run(capsys, "char", example_file, "--p", "5000")
        assert code == 0
        assert json.loads(out)["coefficients"] == [4**5000, -4**5000 - 1, 1]
    finally:
        sys.set_int_max_str_digits(old)


def test_finite_targets_are_refused_past_the_digit_limit(example_file,
                                                       tmp_path, capsys):
    # over (Z/2)^15000 the paper example's quotient Z + Z/4 gives m(S) =
    # 2^15000, of 4,516 digits: past the interpreter's int-to-string limit,
    # refused before any sum.  An arrangement whose quotients are all
    # torsion-free has m(S) = 1 and prints its polynomial over the same F
    twos = ",".join(["2"] * 15000)
    free = tmp_path / "free.json"
    free.write_text(json.dumps({"group": {"free_rank": 2, "torsion": []},
                                "vectors": [[1, 0], [0, 1], [1, 1]]}))
    old = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(4300)
    try:
        for command in ("tutte", "char"):
            t0 = time.perf_counter()
            code, out, err = run(capsys, command, example_file,
                                 "--torsion", twos)
            elapsed = time.perf_counter() - t0
            assert code == 2 and out == "", command
            assert re.search(r"^error: example: finite target: coefficients "
                             r"may reach \d+ digits, past the cap 4300$",
                             err, re.M), err
            assert elapsed < 2.0, f"{command}: {elapsed:.2f}s > 2.0s"
        code, out, _ = run(capsys, "char", str(free), "--torsion", twos)
        assert code == 0
        assert json.loads(out)["coefficients"] == [2, -3, 1]
    finally:
        sys.set_int_max_str_digits(old)


def test_circles_over_a_finite_target_are_bounded_by_the_largest_m(
        example_file, capsys):
    # over S^1 x (Z/2)^7200 the paper example's largest m(S) is 4 * 2^7200,
    # of 2,169 digits, and its polynomial is printed, though the cheap
    # bound T^p #F^g (g = 2 generators) passes 4,300 digits.  Over
    # S^1 x (Z/2)^14400 the largest m(S), 4 * 2^14400, has 4,336 digits:
    # refused before any sum
    old = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(4300)
    try:
        code, out, _ = run(capsys, "char", example_file, "--p", "1",
                           "--torsion", ",".join(["2"] * 7200))
        assert code == 0
        top = 4 * 2**7200
        assert json.loads(out)["coefficients"] == [top, -top - 1, 1]
        code, out, err = run(capsys, "char", example_file, "--p", "1",
                             "--torsion", ",".join(["2"] * 14400))
        assert code == 2 and out == ""
        assert re.search(r"^error: example: circle count: coefficients "
                         r"may reach \d+ digits, past the cap 4300$",
                         err, re.M), err
    finally:
        sys.set_int_max_str_digits(old)


def test_reciprocity_is_refused_past_the_digit_limit(example_file, capsys):
    # the paper example's value at k = 1 is (q + 1)^2: at q = 10^2200 it has
    # 4,401 digits, refused before the evaluation; at 10^2140 it is printed
    old = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(4300)
    try:
        t0 = time.perf_counter()
        code, out, err = run(capsys, "reciprocity", example_file, "--k", "1",
                             "--q", str(10**2200))
        elapsed = time.perf_counter() - t0
        assert code == 2 and out == ""
        assert re.search(r"^error: example: reciprocity: the value may reach "
                         r"\d+ digits, past the cap 4300$", err, re.M), err
        assert elapsed < 2.0, f"{elapsed:.2f}s > 2.0s"
        q = 10**2140
        code, out, _ = run(capsys, "reciprocity", example_file, "--k", "1",
                           "--q", str(q))
        assert code == 0 and json.loads(out)["value"] == (q + 1) ** 2
    finally:
        sys.set_int_max_str_digits(old)


# (surviving component counts, k-torsion subposets) each command computes
SELECTIONS = [
    (["toric-layers"], (0, 0)),
    (["toric-layers", "--partial"], (1, 0)),
    (["toric-layers", "--k", "2"], (0, 1)),
    (["toric-layers", "--k", "2", "--partial"], (1, 1)),
    (["lie-layers", "--g", "1", "--torsion", "2"], (0, 0)),
    (["lie-layers", "--g", "1", "--torsion", "2", "--partial"], (1, 0))]


@pytest.mark.parametrize("argv, calls", SELECTIONS,
                         ids=[" ".join(argv) for argv, _ in SELECTIONS])
def test_layer_commands_check_each_selection_once(argv, calls, example_file,
                                                  capsys, monkeypatch):
    seen = Counter()

    def counting(name):
        fn = getattr(posets, name)

        def wrapper(*args):
            seen[name] += 1
            return fn(*args)
        return wrapper

    for name in ("_surviving_component_count", "k_total_subposet"):
        monkeypatch.setattr(posets, name, counting(name))
    code, _, _ = run(capsys, argv[0], example_file, *argv[1:])
    assert code == 0
    assert (seen["_surviving_component_count"],
            seen["k_total_subposet"]) == calls


REFUSAL_INPUTS = {
    "empty": {"group": {"free_rank": 2, "torsion": []}, "vectors": []},
    "zero vector": {"group": {"free_rank": 2, "torsion": []},
                    "vectors": [[0, 0], [1, 2]]},
    "torsion only": {"group": {"free_rank": 1, "torsion": [2, 4]},
                     "vectors": [[0, 1, 2], [0, 0, 3]]},
    "free rank 10^9": {"group": {"free_rank": 10 ** 9, "torsion": []},
                       "vectors": []},
    "period over the cap": {
        "group": {"free_rank": 2, "torsion": []},
        "vectors": [[invariants.MAX_PERIOD + 1, 0], [0, 1], [1, 1]]},
    "unit vectors of Z^15": {
        "group": {"free_rank": 15, "torsion": []},
        "vectors": [[int(i == j) for j in range(15)] for i in range(15)]},
    # few elements of a large free rank: every saturation is linear in it
    "ten vectors 2e_i of Z^200": {
        "group": {"free_rank": 200, "torsion": []},
        "vectors": [[2 * int(i == j) for j in range(200)] for i in range(10)]},
    "e_1 and 2e_2 in Z^6000": {
        "group": {"free_rank": 6000, "torsion": []},
        "vectors": [[int(j == 0) for j in range(6000)],
                    [2 * int(j == 1) for j in range(6000)]]},
}
# every subcommand that reads a file, with small options; the paper example
# runs with 3,000,000 lines or real factors instead, and verify reads no file
REFUSAL_COMMANDS = [
    ["info"], ["tutte", "--p", "1"], ["arith-tutte"],
    ["char", "--torsion", "2"], ["quasi"], ["constituent", "3"],
    ["toric-layers"], ["lie-layers", "--g", "1"],
    ["lie-layers", "--g", "1", "--torsion", "2"],
    ["reciprocity", "--k", "2", "--q", "3"], ["beta", "--q", "2"],
    ["compare", "--a", "1", "--b", "2"]]
REFUSAL_CASES = [(name, [cmd[0], "{file}", *cmd[1:]])
                 for name in REFUSAL_INPUTS for cmd in REFUSAL_COMMANDS] + [
    ("paper example", ["lie-layers", "{file}", "--g", "3000000"]),
    ("paper example", ["char", "{file}", "--q", "3000000"]),
    ("paper example", ["tutte", "{file}", "--q", "3000000"]),
    ("no file", ["verify", "--count", "1", "--qmax", "2"])]


@pytest.mark.parametrize("name, argv", REFUSAL_CASES,
                         ids=[f"{name}: {' '.join(argv[:1] + argv[2:])}"
                              for name, argv in REFUSAL_CASES])
def test_every_command_answers_or_refuses(name, argv, tmp_path, capsys):
    # exit 0, or exit 2 with a message and no result; never a traceback or
    # an identity failure, and within a budget per call
    path = tmp_path / "input.json"
    path.write_text(json.dumps(REFUSAL_INPUTS.get(name, PAPER_EXAMPLE)))
    t0 = time.perf_counter()
    code, out, err = run(capsys, *(a.format(file=path) for a in argv))
    elapsed = time.perf_counter() - t0
    assert code in (0, 2), err
    assert "Traceback" not in err
    if code == 2:
        assert out == "" and err.startswith("error: "), err
    else:
        json.loads(out)
    assert elapsed < 3.0, f"{elapsed:.2f}s > 3.0s"


JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=4),
    lambda children: st.lists(children, max_size=4)
    | st.dictionaries(st.text(max_size=4), children, max_size=4),
    max_leaves=12)


def _mostly(valid):
    """`valid` three times in four, any JSON value otherwise."""
    return st.integers(0, 3).flatmap(lambda i: valid if i else JSON_VALUES)


# documents close to valid ones, so that each check of the loader is reached
DOCUMENTS = st.fixed_dictionaries({
    "group": _mostly(st.fixed_dictionaries({
        "free_rank": _mostly(st.integers(-1, 2)),
        "torsion": _mostly(st.lists(_mostly(st.integers(-1, 6)), max_size=2))})),
    "vectors": _mostly(st.lists(_mostly(st.lists(
        _mostly(st.integers(-3, 7)), min_size=1, max_size=3)), max_size=3)),
}, optional={"name": _mostly(st.text(max_size=3))})


@settings(max_examples=300, derandomize=True, database=None, deadline=None)
@given(_mostly(DOCUMENTS))
def test_loader_returns_an_arrangement_or_an_input_error(doc):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", cli.ReducedEntryWarning)
        try:
            arr = cli.arrangement_from_document(doc)
        except cli.InputError:
            return
    assert isinstance(arr, gtutte.Arrangement)


# -- the stdout printer -------------------------------------------------------

TEXT = st.one_of(st.text(max_size=6), st.sampled_from(
    ['"', "\\", "\n", "\x00", "\x1f", "\x7f", "é", " ", "\U0001f600", ""]))
SCALARS = st.one_of(st.none(), st.booleans(), st.integers(),
                    st.integers(-2 ** 1000, 2 ** 1000), TEXT)


def _containers(children):
    keyed = st.dictionaries(TEXT, children, max_size=4)
    records = st.lists(TEXT, min_size=1, max_size=4, unique=True).flatmap(
        lambda keys: st.lists(st.fixed_dictionaries(
            {k: st.one_of(SCALARS, st.lists(st.integers(), max_size=3),
                          children) for k in keys}), min_size=1, max_size=4))
    return st.one_of(
        st.lists(children, max_size=4),
        st.lists(children, max_size=4).map(tuple),
        keyed,
        records,
        st.lists(keyed, min_size=2, max_size=4),
        st.lists(st.one_of(keyed, SCALARS), min_size=1, max_size=4))


# floats and int keys, which the printer hands to json, in half the payloads
PAYLOADS = st.recursive(SCALARS, _containers, max_leaves=24) | st.recursive(
    SCALARS | st.floats(), lambda children: _containers(children)
    | st.dictionaries(st.integers(), children, min_size=1, max_size=3),
    max_leaves=12)


def _needs_json(x) -> bool:
    """Whether x holds a float or a non-str dict key."""
    if isinstance(x, float):
        return True
    if isinstance(x, dict):
        return (any(type(k) is not str for k in x)
                or any(map(_needs_json, x.values())))
    if isinstance(x, (list, tuple)):
        return any(map(_needs_json, x))
    return False


@settings(max_examples=300, derandomize=True, database=None, deadline=None)
@given(PAYLOADS)
def test_printer_is_json_dumps_byte_for_byte(payload):
    expected = json.dumps(payload, sort_keys=True, indent=1)
    handed = []
    with mock.patch.object(cli.json, "dumps",
                           lambda *a, **k: handed.append(a) or expected):
        printed = cli.dumps(payload)
    assert printed == expected
    # every type but float and non-str keys is printed without json
    assert bool(handed) == _needs_json(payload)
