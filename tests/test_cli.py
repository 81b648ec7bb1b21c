import json

import pytest

from gtutte import cli


@pytest.fixture
def example_file(tmp_path):
    doc = {"group": {"free_rank": 2, "torsion": []},
           "vectors": [[-1, 1], [0, 2], [0, 4]],
           "name": "example"}
    path = tmp_path / "example.json"
    path.write_text(json.dumps(doc))
    return str(path)


def run(capsys, *argv):
    code = cli.main(list(argv))
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
