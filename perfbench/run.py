"""gtutte end-to-end benchmark.

    python3 perfbench/run.py --workload sweep --seed 1 --seconds 20 --trace 0

Run from the root of a source checkout; the program under test is imported
from `src/`.  Each workload is a closed loop with one client in one
process and one thread: an op is one in-process `gtutte.cli.main([...])`
call on a generated JSON file, and the next op starts when it returns.
Ops run in whole rounds of a fixed mix (the same ops again each round,
or for `sweep` fresh arrangements of the same sizes), as many rounds as
it takes to fill `--seconds` at the reference speed (workloads.py,
ROUND_S), so every run of a workload holds the same number of samples.
Throughput and the median come from each round position's median time,
and every time is scaled to a reference speed (speed.py), so the host's
slow spells move them little.
Each output is checked between ops, outside the timed region, and the
sha256 of every op's stdout is written to `perfbench/out/digests/`.

`--trace 0` prints the end-to-end metrics; `--trace 1` runs one round
untraced and then traced (see tracing.py), checks that both
passes print identical bytes, and prints the per-layer metrics.  The last
stdout line is one JSON object: correct, attempted, failed, metrics.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import importlib
import io
import json
import os
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")
sys.path.insert(0, HERE)

import checker  # noqa: E402  (the benchmark's own modules, next to this file)
import workloads  # noqa: E402
from speed import at_reference_speed, reference_seconds, scaled  # noqa: E402

# Per-op deadline (s), at least 3x the slowest completing op of the workload
# on a 2-core x86 machine; traced ops get TRACE_DEADLINE_FACTOR times more.
DEADLINE_S = {"sweep": 20.0, "quasi": 3.0, "layers": 6.0, "battery": 8.0}
TRACE_DEADLINE_FACTOR = 3
SETUPS = 5              # set-ups per untraced run; setup_s is their median
MAX_PROBES = 2          # large-period probes per traced quasi run
COLD_STARTS = 3


class DeadlineMissed(BaseException):
    """Raised from SIGALRM; a BaseException so no `except Exception` in
    the program swallows it."""


_armed = False


def _on_alarm(signum, frame):
    if _armed:
        raise DeadlineMissed()


def run_op(cli, op, deadline: float) -> dict:
    """One closed-loop op with an in-process deadline (no threads)."""
    global _armed
    out, err = io.StringIO(), io.StringIO()
    status, rc = "ok", None
    start = time.perf_counter()
    _armed = True
    signal.setitimer(signal.ITIMER_REAL, deadline)
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = cli.main(op.argv)
            _armed = False
    except DeadlineMissed:
        status = "deadline"
    except SystemExit as exc:  # argparse rejects the arguments
        status, rc = "exit", exc.code
    except Exception as exc:  # the op raised; record it and go on
        status = f"exception {type(exc).__name__}: {exc}"
    finally:
        _armed = False
        signal.setitimer(signal.ITIMER_REAL, 0)
    elapsed = time.perf_counter() - start
    if status == "ok" and rc != 0:
        status = f"exit {rc}"
    text = out.getvalue()
    data = text.encode()
    return {"status": status, "start": start, "seconds": elapsed, "stdout": text,
            "bytes": len(data), "sha256": hashlib.sha256(data).hexdigest()}


def purge_program():
    for name in list(sys.modules):
        if name == "gtutte" or name.startswith("gtutte."):
            del sys.modules[name]


def setup(workload: str, seed: int, workdir: str, bases: dict):
    """Import the program, generate and write the instances, run the warm-up
    op.  Returns (seconds, cli module, plan, warm-up result)."""
    start = time.perf_counter()
    purge_program()
    cli = importlib.import_module("gtutte.cli")
    if not os.path.abspath(cli.__file__).startswith(SRC + os.sep):
        raise RuntimeError(f"imported gtutte from {cli.__file__}, not {SRC}")
    shutil.rmtree(workdir, ignore_errors=True)
    plan = workloads.build(workload, seed, workdir, bases)
    warm = run_op(cli, plan.warmup, DEADLINE_S[workload])
    warm.update(op=plan.warmup, index=-1)
    return time.perf_counter() - start, cli, plan, warm


def judge_result(judge, r, passed=None):
    """Check a completed op's stdout, then drop it so that kept outputs do
    not add to the process's peak RSS.  `passed` maps an op to the digest
    of an output of it that passed; a repeat that prints the same bytes is
    not checked again."""
    text = r.pop("stdout")
    if judge is None or r["status"] != "ok":
        return
    key = id(r["op"]) if passed is not None else None
    if key is not None and passed.get(key) == r["sha256"]:
        return
    reason = judge.check(r["op"], text)
    if reason is not None:
        r["status"] = f"wrong: {reason}"
    elif key is not None:
        passed[key] = r["sha256"]


def closed_loop(cli, ops, count, deadline, judge=None, tracer=None, round_len=None):
    """Start `count` ops in order, wrapping around `ops`.  Each output is
    checked between ops, outside the timed region, and the speed reference
    is timed before each op and after the last one.  Returns (results,
    measured op seconds)."""
    round_len = round_len or len(ops)
    results = []
    refs = []
    passed: dict = {}
    busy = 0.0
    for i in range(count):
        op = ops[i % len(ops)]
        refs.append((time.perf_counter(), reference_seconds()))
        if tracer is not None:
            tracer.begin_op(i)
        r = run_op(cli, op, deadline)
        if tracer is not None:
            tracer.end_op()
        r.update(op=op, index=i, slot=i % round_len)
        busy += r["seconds"]
        judge_result(judge, r, passed)
        results.append(r)
    refs.append((time.perf_counter(), reference_seconds()))
    at_reference_speed(results, refs)
    return results, busy


def op_medians(results):
    """Each op of the round: its median time at the reference speed over
    the run's rounds, over every round and over the completed ops."""
    times, done = {}, {}
    for r in results:
        times.setdefault(r["slot"], []).append(r["norm"])
        if r["status"] == "ok":
            done.setdefault(r["slot"], []).append(r["norm"])
    return ([statistics.median(times[s]) for s in sorted(times)],
            [statistics.median(done[s]) for s in sorted(done)])


def tail(latencies):
    """Highest percentile with at least 10 samples beyond it:
    (value, percentile, sample count)."""
    xs = sorted(latencies)
    n = len(xs)
    if n <= 10:
        return xs[-1], 100.0, n
    return xs[n - 11], 100.0 * (n - 10) / n, n


def write_digests(workload, seed, workdir, results, suffix=""):
    os.makedirs(os.path.join(OUT, "digests"), exist_ok=True)
    rows = [{"index": r["index"],
             "argv": [a.replace(workdir, "$WORK") for a in r["op"].argv],
             "status": r["status"], "seconds": round(r["seconds"], 6),
             "at_reference_speed": round(r["norm"], 6), "sha256": r["sha256"]}
            for r in results]
    path = os.path.join(OUT, "digests", f"{workload}-seed{seed}{suffix}.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump({"workload": workload, "seed": seed, "ops": rows}, fh, indent=1)


def print_failures(results):
    for r in results:
        if r["status"] != "ok":
            print(f"  op {r['index']} {' '.join(r['op'].argv)}: {r['status']}",
                  file=sys.stderr)


def untraced(args, bases, workdir) -> dict:
    setup_times = []
    for _ in range(SETUPS):  # keep only the last set-up's objects alive
        before = reference_seconds()
        seconds, cli, plan, warm = setup(args.workload, args.seed, workdir, bases)
        setup_times.append(scaled(seconds, (before + reference_seconds()) / 2))
    judge = checker.Checker(bases)
    judge_result(judge, warm)
    rounds = workloads.rounds_for(args.workload, args.seconds)
    results, busy = closed_loop(cli, plan.ops, rounds * plan.round_len,
                                DEADLINE_S[args.workload], judge, round_len=plan.round_len)
    write_digests(args.workload, args.seed, workdir, results)
    print_failures([warm] + results)
    wrong = sum(1 for r in [warm] + results if r["status"].startswith("wrong"))

    done = [r["norm"] for r in results if r["status"] == "ok"]
    failed = len(results) - len(done)
    value, pct, n = tail(done) if done else (0.0, 0.0, 0)
    every, completed = op_medians(results)
    metrics = {
        # completed ops per second of a round run at each op's median time
        "throughput_ops_per_s": (len(done) / len(results) * len(every) / sum(every),
                                 "ops/s"),
        "latency_p50_s": (statistics.median(completed) if completed else 0.0, "s"),
        "latency_tail_s": (value, "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        "setup_s": (statistics.median(setup_times), "s"),
    }
    print(f"{args.workload} seed {args.seed}: {len(results)} ops attempted in "
          f"{busy:.2f} s ({rounds} rounds of {plan.round_len}, {sum(every):.2f} s each at "
          f"the reference speed), {failed} failed "
          f"(fail_rate {failed / max(len(results), 1):.4f}); {len(done) / busy:.4f} "
          f"completed ops per measured second; measured op time is "
          f"{busy / sum(r['norm'] for r in results):.3f}x the time at the reference "
          f"speed (speed.py)")
    for name, (v, unit) in metrics.items():
        note = ""
        if name in ("throughput_ops_per_s", "latency_p50_s"):
            note = f"  (from each op's median over {rounds} rounds)"
        elif name == "latency_tail_s":
            note = f"  (p{pct:.1f}: 10 of {n} samples beyond it)"
        elif name == "setup_s":
            note = f"  (median of {SETUPS} set-ups)"
        print(f"  {name:<22} {v:>12.6f} {unit}{note}")
    return {"correct": wrong == 0 and warm["status"] == "ok",
            "attempted": len(results), "failed": failed,
            "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}}


def cold_start(paper_path: str) -> float:
    """Median wall time of a fresh `python -m gtutte.cli` process."""
    env = dict(os.environ, PYTHONPATH=SRC)
    times = []
    for _ in range(COLD_STARTS):
        start = time.perf_counter()
        proc = subprocess.run(
            [sys.executable, "-m", "gtutte.cli", "char", paper_path, "--torsion", "4"],
            capture_output=True, text=True, env=env, cwd=ROOT, timeout=60)
        times.append(time.perf_counter() - start)
        if proc.returncode != 0 or json.loads(proc.stdout)["coefficients"] != \
                workloads.PAPER_K4:
            raise RuntimeError(f"cold start run failed: {proc.stderr.strip()}")
    return statistics.median(times)


def traced(args, bases, workdir) -> dict:
    from tracing import Tracer

    _, cli, plan, warm = setup(args.workload, args.seed, workdir, bases)
    judge = checker.Checker(bases)
    judge_result(judge, warm)
    deadline = DEADLINE_S[args.workload]
    ran = plan.ops[:plan.round_len]
    base_results, base_busy = closed_loop(cli, ran, len(ran), deadline, judge)

    tracer = Tracer()
    tracer.install()
    try:
        trace_results, trace_busy = closed_loop(
            cli, ran, len(ran), deadline * TRACE_DEADLINE_FACTOR, tracer=tracer)
    finally:
        tracer.uninstall()
    mismatched = sum(1 for a, b in zip(base_results, trace_results)
                     if a["sha256"] != b["sha256"])

    probes = plan.probes[:MAX_PROBES]
    probe_results, _ = closed_loop(cli, probes, len(probes), deadline, judge)
    misses = sum(1 for r in probe_results if r["status"] == "deadline")
    wrong = sum(1 for r in [warm] + base_results + probe_results
                if r["status"].startswith("wrong"))
    for r in probe_results:
        print(f"  probe {' '.join(r['op'].argv[:1] + r['op'].argv[2:])}: "
              f"{r['status']} after {r['seconds']:.2f} s", file=sys.stderr)

    write_digests(args.workload, args.seed, workdir, base_results, "-untraced")
    write_digests(args.workload, args.seed, workdir, trace_results, "-traced")
    os.makedirs(OUT, exist_ok=True)
    tracer.write_spans(os.path.join(OUT, f"spans-{args.workload}.json"))
    print_failures([warm] + base_results + trace_results)

    stdout_bytes = sum(r["bytes"] for r in trace_results)
    metrics = tracer.layer_metrics(len(trace_results), stdout_bytes)
    metrics["invariants.chromatic_quasi.large_period_misses"] = float(misses)
    metrics["cli.cold_start_s"] = cold_start(plan.paper_path)
    metrics["trace.overhead_ratio"] = trace_busy / base_busy
    units = {m["name"]: m["unit"] for m in _benchmark_spec()["per_layer"]}
    failed = sum(1 for r in base_results + trace_results if r["status"] != "ok") \
        + mismatched
    print(f"{args.workload} seed {args.seed}: {len(ran)} ops untraced in "
          f"{base_busy:.2f} s, traced in {trace_busy:.2f} s; "
          f"{mismatched} stdout digests differ; {len(tracer.spans)} spans kept, "
          f"{tracer.dropped} dropped")
    for name in units:
        print(f"  {name:<46} {metrics[name]:>14.6f} {units[name]}")
    return {"correct": wrong == 0 and mismatched == 0 and warm["status"] == "ok",
            "attempted": len(base_results) + len(trace_results), "failed": failed,
            "metrics": {name: {"value": metrics[name], "unit": unit}
                        for name, unit in units.items()}}


def _benchmark_spec() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "gtutte", "cli.py")):
        print(f"error: no gtutte sources under {SRC}; run from a source checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    signal.signal(signal.SIGALRM, _on_alarm)
    bases = workloads.load_bases()
    workdir = os.path.join(OUT, "work", f"{args.workload}-{args.seed}")
    try:
        result = (traced if args.trace else untraced)(args, bases, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
