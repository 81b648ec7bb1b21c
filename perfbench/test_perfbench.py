"""Tests of the benchmark itself (not of gtutte).

    python3 -m pytest -q perfbench/test_perfbench.py
"""

from __future__ import annotations

import copy
import json
import os
import shutil
import subprocess
import sys

import signal

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

import checker  # noqa: E402
import run  # noqa: E402
import speed  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
import gtutte.cli  # noqa: E402,F401  (loaded for _run)
from gtutte import invariants  # noqa: E402
from gtutte.intlinalg import FGAbelianGroup  # noqa: E402
from gtutte.model import Arrangement  # noqa: E402

BASES = workloads.load_bases()
signal.signal(signal.SIGALRM, run._on_alarm)


def _plan_signature(plan, workdir):
    files = {}
    for name in sorted(os.listdir(workdir)):
        with open(os.path.join(workdir, name), "rb") as fh:
            files[name] = fh.read()
    ops = [[a.replace(workdir, "$W") for a in op.argv] for op in plan.ops]
    probes = [[a.replace(workdir, "$W") for a in op.argv] for op in plan.probes]
    return ops, probes, files


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_generator_is_deterministic_per_seed(workload, tmp_path):
    sigs = []
    for label, seed in (("a", 7), ("b", 7), ("c", 8)):
        d = str(tmp_path / label)
        plan = workloads.build(workload, seed, d, BASES)
        sigs.append(_plan_signature(plan, d))
    assert sigs[0] == sigs[1]
    assert sigs[0] != sigs[2]


def _arr(doc):
    g = doc["group"]
    return Arrangement(FGAbelianGroup(g["free_rank"], tuple(g["torsion"])), doc["vectors"])


def test_transform_keeps_the_quasi_polynomial():
    import random
    for key in ("cheap-free-0", "cheap-tor-0"):
        base = BASES["quasi"][key]
        doc = workloads.transform(base["doc"], random.Random(key), "t")
        assert doc["vectors"] != base["doc"]["vectors"]
        qp = invariants.chromatic_quasi(_arr(doc))
        assert qp.period == base["period"]
        assert [c.serialize() for c in qp.constituents] == base["constituents"]


def test_large_period_instance_is_large():
    big = BASES["large_period"]
    assert len(big["doc"]["vectors"]) == 6
    assert big["period"] > 10**9
    assert _arr(big["doc"]).lcm_period() == big["period"]


def _run(op):
    return run.run_op(sys.modules["gtutte.cli"], op, 60.0)


def _first(plan, kind):
    return next(op for op in plan.ops if op.kind == kind)


@pytest.fixture(scope="module")
def plans(tmp_path_factory):
    d = tmp_path_factory.mktemp("plans")
    return {w: workloads.build(w, 3, str(d / w), BASES) for w in workloads.WORKLOADS}


def _corrupt_first_int(text):
    """Change the first integer in key order (filling the first empty list)."""
    doc = json.loads(text)

    def walk(x):
        if isinstance(x, bool):
            return x, False
        if isinstance(x, int):
            return x + 1, True
        if isinstance(x, list):
            if not x:
                return [1], True
            for i, v in enumerate(x):
                nv, done = walk(v)
                if done:
                    x[i] = nv
                    return x, True
        if isinstance(x, dict):
            for k in sorted(x):
                if k in ("k", "q", "a", "b", "j", "id", "index"):
                    continue
                nv, done = walk(x[k])
                if done:
                    x[k] = nv
                    return x, True
        return x, False

    changed, done = walk(copy.deepcopy(doc))
    assert done
    return json.dumps(changed)


@pytest.mark.parametrize("workload,kind", [
    ("sweep", "char"), ("sweep", "tutte"), ("sweep", "arith-tutte"),
    ("quasi", "constituent"), ("quasi", "beta"), ("quasi", "reciprocity"),
    ("quasi", "info"), ("layers", "lie"), ("battery", "verify"),
])
def test_checker_accepts_real_output_and_catches_corruption(plans, workload, kind):
    judge = checker.Checker(BASES)
    if workload == "sweep":
        op = next(op for op in plans[workload].ops if op.kind == kind and op.check["n"] == 10)
    else:
        op = _first(plans[workload], kind)
    r = _run(op)
    assert r["status"] == "ok"
    assert judge.check(op, r["stdout"]) is None
    if kind == "verify":
        payload = json.loads(r["stdout"])
        payload["checks"][0]["computed"] = "-1"
        corrupted = json.dumps(payload)
    else:
        corrupted = _corrupt_first_int(r["stdout"])
    assert judge.check(op, corrupted) is not None
    assert judge.check(op, r["stdout"][:-3]) is not None


def test_checker_catches_a_wrong_paper_example(plans):
    judge = checker.Checker(BASES)
    op = plans["layers"].warmup
    r = _run(op)
    assert judge.check(op, r["stdout"]) is None
    payload = json.loads(r["stdout"])
    payload["polynomial"] = [4, -4, 1]
    assert "paper example" in judge.check(op, json.dumps(payload))


def test_checker_catches_a_wrong_mobius_value(plans):
    judge = checker.Checker(BASES)
    op = next(op for op in plans["layers"].ops
              if op.kind == "toric" and op.check["k"] is not None)
    r = _run(op)
    assert judge.check(op, r["stdout"]) is None
    payload = json.loads(r["stdout"])
    top = max(payload["layers"], key=lambda rec: rec["rank"])
    top["mobius"] += 1
    assert judge.check(op, json.dumps(payload)) is not None


def test_tutte_reference_matches_a_hand_count():
    # Z^1 with elements 2 and 3: bases {2}, {3}; T(1,1) = 2 + 3 for the
    # circle target; independent sets add the empty set: T(2,1) = 6.
    assert checker.tutte_reference([[2], [3]], 1, 1, []) == (5, 6)


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_traced_and_untraced_stdout_digests_agree(plans, workload):
    ops = plans[workload].ops[:2] if workload != "sweep" else \
        [op for op in plans[workload].ops if op.check["n"] == 10][:2]
    plain = [_run(op)["sha256"] for op in ops]
    originals = {name: getattr(sys.modules[mod], name)
                 for mod, name, _ in tracing.TARGETS if "." not in name}
    tracer = tracing.Tracer()
    tracer.install()
    try:
        traced = []
        for i, op in enumerate(ops):
            tracer.begin_op(i)
            traced.append(_run(op)["sha256"])
            tracer.end_op()
    finally:
        tracer.uninstall()
    assert traced == plain
    assert tracer.calls["cli"] == len(ops)
    assert all(getattr(sys.modules[mod], name) is originals[name]
               for mod, name, _ in tracing.TARGETS if "." not in name)
    metrics = tracer.layer_metrics(len(ops), 1)
    assert metrics["cli.self_s"] > 0


def test_self_times_partition_the_op(plans):
    tracer = tracing.Tracer()
    tracer.install()
    try:
        tracer.begin_op(0)
        _run(_first(plans["quasi"], "info"))
        tracer.end_op()
    finally:
        tracer.uninstall()
    assert tracer.calls["cli"] == 1
    assert tracer.calls["intlinalg.cokernel"] > 0
    total = sum(tracer.self_time.values())
    assert abs(total - tracer.inclusive["cli"]) < 1e-6 * max(1.0, total)


def test_times_are_scaled_by_the_reference_around_them():
    nominal = speed.REF_NOMINAL_S
    refs = [(float(t), nominal) for t in range(4)] + \
        [(float(t), 2 * nominal) for t in range(10, 14)]
    fast = {"start": 0.5, "seconds": 1.0}
    slow = {"start": 11.0, "seconds": 1.0}
    speed.at_reference_speed([fast, slow], refs)
    assert fast["norm"] == pytest.approx(1.0)
    assert slow["norm"] == pytest.approx(0.5 ** speed.REF_ELASTICITY)


def test_a_repeat_is_checked_again_only_if_its_bytes_differ():
    class Judge:
        calls = 0

        def check(self, op, text):
            self.calls += 1
            return None if text == "good" else "wrong value"

    judge, passed, op = Judge(), {}, object()
    outputs = ["good", "good", "bad"]
    results = [{"status": "ok", "op": op, "stdout": text, "sha256": text}
               for text in outputs]
    for r in results:
        run.judge_result(judge, r, passed)
    assert judge.calls == 2
    assert [r["status"] for r in results] == ["ok", "ok", "wrong: wrong value"]


def test_every_run_of_a_workload_holds_the_same_rounds():
    assert {w: workloads.rounds_for(w, 20) for w in workloads.WORKLOADS} == \
        {"sweep": 2, "quasi": 3, "layers": 2, "battery": 4}
    assert all(workloads.rounds_for(w, 1) == 1 for w in workloads.WORKLOADS)


@pytest.mark.parametrize("trace", ["0", "1"])
def test_short_run_prints_every_metric(capsys, trace):
    assert run.main(["--workload", "battery", "--seed", "1", "--seconds", "1",
                     "--trace", trace]) == 0
    result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    spec = json.load(open(os.path.join(ROOT, "BENCHMARK.json")))
    names = [m["name"] for m in spec["per_layer" if trace == "1" else "end_to_end"]]
    assert sorted(result) == ["attempted", "correct", "failed", "metrics"]
    assert result["correct"] is True and result["failed"] == 0
    assert result["attempted"] >= 1
    assert sorted(result["metrics"]) == sorted(names)


def test_refuses_without_sources(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "battery", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
