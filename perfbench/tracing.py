"""Runtime tracing of gtutte's public functions from outside the package.

`Tracer.install()` rebinds each traced function in every loaded gtutte
module that holds it (so both `gtutte.toric.hnf_solve` and
`gtutte.intlinalg.hnf_solve` go through one wrapper) and wraps methods on
their class.  `uninstall()` puts the originals back.  Nothing under `src/`
is edited.

Each call records a span (name, start, end, parent span, op index) in
memory; the first `span_cap` spans are kept for `write_spans`, and every
call, kept or not, feeds the per-name call count, inclusive time and self
time (duration minus the time covered by traced children).  Ratios come
from return values: distinct cokernels, subset-cache misses (a
`subset_data` call with a `cokernel` child), hom instances per layer,
order tests answered True.
"""

from __future__ import annotations

import functools
import json
import sys
from collections import Counter, defaultdict
from time import perf_counter

# (module, attribute path, span name)
TARGETS = (
    ("gtutte.intlinalg", "cokernel", "intlinalg.cokernel"),
    ("gtutte.intlinalg", "saturation", "intlinalg.saturation"),
    ("gtutte.intlinalg", "hermite_normal_form", "intlinalg.hermite_normal_form"),
    ("gtutte.intlinalg", "hnf_solve", "intlinalg.hnf_solve"),
    ("gtutte.intlinalg", "hom_enumerate", "intlinalg.hom_enumerate"),
    ("gtutte.model", "Arrangement.subset_data", "model.subset_data"),
    ("gtutte.model", "multiplicity", "model.multiplicity"),
    ("gtutte.invariants", "g_tutte", "invariants.g_tutte"),
    ("gtutte.invariants", "g_characteristic", "invariants.g_characteristic"),
    ("gtutte.invariants", "chromatic_quasi", "invariants.chromatic_quasi"),
    ("gtutte.invariants", "minimal_period", "invariants.minimal_period"),
    ("gtutte.poly", "substitute_xy", "poly.substitute_xy"),
    ("gtutte.toric", "enumerate_toric_layers", "toric.enumerate_toric_layers"),
    ("gtutte.lie", "enumerate_lie_layers", "lie.enumerate_lie_layers"),
    ("gtutte.posets", "LayerPoset.__init__", "posets.LayerPoset"),
    ("gtutte.posets", "LayerPoset.covers", "posets.covers"),
    ("gtutte.posets", "export_hasse", "posets.export_hasse"),
    ("gtutte.oracle", "brute_complement_count", "oracle.brute_complement_count"),
    ("gtutte.oracle", "run_identity_suite", "oracle.run_identity_suite"),
    ("gtutte.oracle", "randomized_battery", "oracle.randomized_battery"),
    ("gtutte.cli", "load_arrangement", "cli.load_arrangement"),
    ("gtutte.cli", "main", "cli"),
)


class Tracer:
    def __init__(self, span_cap: int = 100_000):
        self.span_cap = span_cap
        self.spans: list = []       # [name, start, end, parent span id, op]
        self.dropped = 0
        self.stack: list = []       # frames: [name, span id, child time, had child]
        self.calls: Counter = Counter()
        self.inclusive: defaultdict = defaultdict(float)
        self.self_time: defaultdict = defaultdict(float)
        self.counts: defaultdict = defaultdict(float)
        self.op = -1
        self._op_cokernels: set = set()
        self._op_keys: set = set()
        self._patches: list = []

    # -- ops ------------------------------------------------------------------

    def begin_op(self, index: int):
        self.op = index
        self._op_cokernels = set()
        self._op_keys = set()

    def end_op(self):
        self.counts["cokernel.distinct"] += len(self._op_cokernels)
        if self._op_keys:
            self.counts["histogram.keys"] += len(self._op_keys)
            self.counts["histogram.ops"] += 1

    # -- wrapping -------------------------------------------------------------

    def _wrap(self, name, fn):
        tracer = self
        after = _AFTER.get(name)
        before = _BEFORE.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = tracer.stack
            parent = stack[-1] if stack else None
            if before is not None:
                args = before(tracer, args)
            sid = len(tracer.spans)
            if sid < tracer.span_cap:
                span = [name, 0.0, 0.0, parent[1] if parent else -1, tracer.op]
                tracer.spans.append(span)
            else:
                span, sid = None, -1
                tracer.dropped += 1
            frame = [name, sid, 0.0, False]
            if parent is not None:
                parent[3] = True
            stack.append(frame)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                dur = end - start
                tracer.calls[name] += 1
                tracer.inclusive[name] += dur
                tracer.self_time[name] += dur - frame[2]
                if parent is not None:
                    parent[2] += dur
                if span is not None:
                    span[1], span[2] = start, end
            if after is not None:
                after(tracer, result, frame, parent, dur)
            return result

        return wrapper

    def install(self):
        modules = [m for n, m in sorted(sys.modules.items())
                   if n == "gtutte" or n.startswith("gtutte.")]
        for modname, path, name in TARGETS:
            owner = sys.modules[modname]
            if "." in path:
                cls_name, attr = path.split(".")
                cls = getattr(owner, cls_name)
                original = cls.__dict__[attr]
                self._patches.append((cls, attr, original))
                setattr(cls, attr, self._wrap(name, original))
                continue
            original = getattr(owner, path)
            wrapper = self._wrap(name, original)
            for mod in modules:
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        self._patches.append((mod, attr, original))
                        setattr(mod, attr, wrapper)

    def uninstall(self):
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches = []

    # -- output ---------------------------------------------------------------

    def write_spans(self, path: str):
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"fields": ["name", "start", "end", "parent", "op"],
                       "dropped": self.dropped, "spans": self.spans}, fh)

    def layer_metrics(self, n_ops: int, stdout_bytes: int) -> dict:
        """Per-layer metrics over n_ops traced ops: calls and self time per
        op, and ratios from return values (0 where a layer was not used)."""
        per = 1.0 / max(n_ops, 1)
        calls, self_s, cnt = self.calls, self.self_time, self.counts

        def ratio(a, b):
            return a / b if b else 0.0

        m = {}
        for short in ("cokernel", "saturation", "hnf_solve", "hom_enumerate"):
            m[f"intlinalg.{short}.calls"] = calls[f"intlinalg.{short}"] * per
            m[f"intlinalg.{short}.self_s"] = self_s[f"intlinalg.{short}"] * per
        m["intlinalg.cokernel.distinct_ratio"] = ratio(
            cnt["cokernel.distinct"], calls["intlinalg.cokernel"])
        m["intlinalg.hermite_normal_form.calls"] = \
            calls["intlinalg.hermite_normal_form"] * per
        m["intlinalg.hom_enumerate.homs"] = cnt["homs"] * per
        sd = calls["model.subset_data"]
        m["model.subset_data.calls"] = sd * per
        m["model.subset_data.hit_ratio"] = ratio(sd - cnt["subset.misses"], sd)
        m["model.subset_data.us_per_miss"] = 1e6 * ratio(
            cnt["subset.miss_s"], cnt["subset.misses"])
        m["model.multiplicity.calls"] = calls["model.multiplicity"] * per
        m["model.multiplicity.self_s"] = self_s["model.multiplicity"] * per
        m["model.histogram_keys"] = ratio(cnt["histogram.keys"], cnt["histogram.ops"])
        m["invariants.g_tutte.calls"] = calls["invariants.g_tutte"] * per
        m["invariants.g_tutte.self_s"] = self_s["invariants.g_tutte"] * per
        m["invariants.g_characteristic.calls"] = \
            calls["invariants.g_characteristic"] * per
        m["invariants.chromatic_quasi.self_s"] = \
            self_s["invariants.chromatic_quasi"] * per
        m["invariants.chromatic_quasi.constituents"] = ratio(
            cnt["constituents"], calls["invariants.chromatic_quasi"])
        m["invariants.minimal_period.self_s"] = \
            self_s["invariants.minimal_period"] * per
        m["poly.substitute_xy.self_s"] = self_s["poly.substitute_xy"] * per
        for mod, fn in (("toric", "enumerate_toric_layers"),
                        ("lie", "enumerate_lie_layers")):
            name = f"{mod}.{fn}"
            m[f"{name}.self_s"] = self_s[name] * per
            m[f"{mod}.layers"] = ratio(cnt[f"{mod}.layers"], calls[name])
            m[f"{mod}.dedup_ratio"] = ratio(cnt[f"{mod}.layers"],
                                            cnt[f"{mod}.instances"])
        m["posets.LayerPoset.self_s"] = self_s["posets.LayerPoset"] * per
        m["posets.order_tests"] = cnt["order.tests"] * per
        m["posets.order_true_ratio"] = ratio(cnt["order.true"], cnt["order.tests"])
        m["posets.covers.self_s"] = self_s["posets.covers"] * per
        m["posets.export_hasse.self_s"] = self_s["posets.export_hasse"] * per
        m["oracle.brute_complement_count.calls"] = \
            calls["oracle.brute_complement_count"] * per
        m["oracle.brute_complement_count.self_s"] = \
            self_s["oracle.brute_complement_count"] * per
        m["oracle.run_identity_suite.self_s"] = self_s["oracle.run_identity_suite"] * per
        m["oracle.randomized_battery.checks"] = ratio(
            cnt["battery.checks"], calls["oracle.randomized_battery"])
        m["cli.load_arrangement.self_s"] = self_s["cli.load_arrangement"] * per
        m["cli.self_s"] = self_s["cli"] * per
        m["cli.stdout_bytes"] = stdout_bytes * per
        return m


# -- per-function hooks -------------------------------------------------------

def _after_cokernel(tracer, result, frame, parent, dur):
    tracer._op_cokernels.add(result)


def _after_subset_data(tracer, result, frame, parent, dur):
    if frame[3]:  # a cokernel ran underneath: a cache miss
        tracer.counts["subset.misses"] += 1
        tracer.counts["subset.miss_s"] += dur
    tracer._op_keys.add((result.rank, result.mask.bit_count(), result.torsion_factors))


def _after_hom_enumerate(tracer, result, frame, parent, dur):
    tracer.counts["homs"] += len(result)
    if parent is not None and parent[0] == "toric.enumerate_toric_layers":
        tracer.counts["toric.instances"] += len(result)
    elif parent is not None and parent[0] == "lie.enumerate_lie_layers":
        tracer.counts["lie.instances"] += len(result)


def _after_toric(tracer, result, frame, parent, dur):
    tracer.counts["toric.layers"] += result.n


def _after_lie(tracer, result, frame, parent, dur):
    tracer.counts["lie.layers"] += result.n


def _after_quasi(tracer, result, frame, parent, dur):
    tracer.counts["constituents"] += len(result.constituents)


def _after_battery(tracer, result, frame, parent, dur):
    tracer.counts["battery.checks"] += len(result.entries)


def _before_layer_poset(tracer, args):
    """Swap the leq_fn argument of LayerPoset.__init__ for a counting one."""
    self_, arr, layers, subset_components, leq_fn = args
    counts = tracer.counts

    def counted_leq(a, b):
        result = leq_fn(a, b)
        counts["order.tests"] += 1
        if result:
            counts["order.true"] += 1
        return result

    return (self_, arr, layers, subset_components, counted_leq)


_AFTER = {
    "intlinalg.cokernel": _after_cokernel,
    "model.subset_data": _after_subset_data,
    "intlinalg.hom_enumerate": _after_hom_enumerate,
    "toric.enumerate_toric_layers": _after_toric,
    "lie.enumerate_lie_layers": _after_lie,
    "invariants.chromatic_quasi": _after_quasi,
    "oracle.randomized_battery": _after_battery,
}
_BEFORE = {"posets.LayerPoset": _before_layer_poset}
