import json
import os
import random
import subprocess
import sys

import pytest

import gtutte
from gtutte import cli
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


def test_info(example_file, capsys):
    code, out, err = run(capsys, "info", example_file)
    assert code == 0
    payload = json.loads(out)
    assert payload["rank"] == 2
    assert payload["lcm_period"] == 4
    assert payload["minimal_period"] == 4
    assert payload["torsion_elements"] == []
    assert "period 4" in err


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
    assert "reduced" in err
    arr = cli.load_arrangement(str(path))
    assert arr.elements == ((0, 1),)


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
    assert "exceed the cap 10000" in layers.stderr
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
                 ["compare", path, "--a", "2", "--b", "4"]):
        proc = subprocess.run([sys.executable, "-m", "gtutte.cli", *argv],
                              capture_output=True, text=True, env=env,
                              timeout=10)
        assert proc.returncode == 0, (argv, proc.stderr)
        if argv[0] == "constituent":
            k = int(argv[2])
            coeffs = json.loads(proc.stdout)["coefficients"]
            assert sum(c * k**i for i, c in enumerate(coeffs)) == \
                brute_complement_count(arr, k)


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
    from gtutte import lie, toric
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
    for module in (toric, lie):
        forward = module.hom_enumerate
        monkeypatch.setattr(
            module, "hom_enumerate",
            lambda *args, forward=forward: forward(*args)[::-1])
    assert outputs() == before
