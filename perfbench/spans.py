"""Span recording from outside the icvmd package, and the per-layer metrics.

A span is one call into a public icvmd function: name, start, end, parent
span and a small info record.  Spans are recorded by rebinding module
attributes: every module (inside icvmd or in this benchmark) that holds a
traced function under some name gets a wrapper in its place, so callers that
look the function up through their module go through it.  No package code
changes, and ``Tracer.installed`` puts the originals back.

Layers are named after modules; a span name is ``<layer>.<call>``.
"""
from __future__ import annotations

import sys
import time
from collections import defaultdict
from contextlib import contextmanager

import numpy as np


def _side_info(args, kwargs, result):
    return result.mode_set.iterations


def _conv_forward_info(args, kwargs, result):
    x, layer = args[0], args[1]
    b, c_in, t = x.shape
    c_out, _, width = layer.weights.shape
    padded = t + (width - 1) * layer.dilation
    return {"flop": 2 * b * c_out * c_in * width * t, "cache_bytes": b * c_in * padded * x.itemsize}


def _conv_backward_info(args, kwargs, result):
    dx, dw, _ = result
    b, c_in, t = dx.shape
    c_out, _, width = dw.shape
    # Two products of the forward's size: the weight gradient and the input gradient.
    return {"flop": 4 * b * c_out * c_in * width * t}


def _forward_info(args, kwargs, result):
    main_x = np.asarray(args[1])
    return main_x.shape[0] if main_x.ndim == 3 else 1


LOSS = "nn.model.cross_entropy"

# (defining module, function, span name, info extractor or None)
LAYER_TARGETS = (
    ("icvmd.dataset", "generate_dataset", "dataset.generate", None),
    ("icvmd.dataset", "synthesize_one", "dataset.synthesize", None),
    ("icvmd.iqfile", "write_iqf32", "iqfile.write", None),
    ("icvmd.iqfile", "read_iqf32", "iqfile.read", None),
    ("icvmd.analytic", "analytic_split", "analytic.split", None),
    ("icvmd.analytic", "combine_analytic", "analytic.combine", None),
    ("icvmd.vmd", "vmd_decompose", "vmd.side", _side_info),
    ("icvmd.decompose", "icvmd_decompose", "decompose.icvmd", None),
    ("icvmd.decompose", "reconstruct", "decompose.reconstruct", None),
    ("icvmd.features", "extract_features", "features.extract", None),
    ("icvmd.features", "raw_cumulant_features", "features.raw_cumulant", None),
    ("icvmd.fewshot", "sat_inputs", "fewshot.sat_inputs", None),
    ("icvmd.classify", "fit_nearest_centroid", "classify.fit", None),
    ("icvmd.classify", "classify", "classify.classify", None),
    ("icvmd.classify", "evaluate", "classify.evaluate", None),
    ("icvmd.nn.layers", "conv_forward", "nn.layers.conv_forward", _conv_forward_info),
    ("icvmd.nn.layers", "conv_backward", "nn.layers.conv_backward", _conv_backward_info),
    ("icvmd.nn.model", "model_forward", "nn.model.forward", _forward_info),
    ("icvmd.nn.model", "model_backward", "nn.model.backward", None),
    ("icvmd.nn.model", "cross_entropy", LOSS, None),
    ("icvmd.nn.train", "train", "nn.train.train", None),
    ("icvmd.nn.train", "sat_transfer", "nn.train.sat_transfer", None),
)


class Span:
    __slots__ = ("name", "t0", "t1", "parent", "info")

    def __init__(self, name: str, parent: int):
        self.name = name
        self.parent = parent
        self.t0 = self.t1 = 0.0
        self.info = None


class Tracer:
    """Records spans for the calls named in ``targets`` while installed."""

    def __init__(self, targets):
        self.targets = targets
        self.spans: list = []
        self._stack: list = []
        self._paused = False

    def _wrap(self, fn, name, info):
        def traced(*args, **kwargs):
            if self._paused:
                return fn(*args, **kwargs)
            span = Span(name, self._stack[-1] if self._stack else -1)
            self._stack.append(len(self.spans))
            self.spans.append(span)
            span.t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span.t1 = time.perf_counter()
                self._stack.pop()
            if info is not None:
                span.info = info(args, kwargs, result)
            return result

        return traced

    @contextmanager
    def installed(self, extra_modules=()):
        """Rebind every icvmd module attribute (and those of ``extra_modules``)
        that holds a target function; restore them on exit."""
        modules = [
            m
            for name, m in list(sys.modules.items())
            if name == "icvmd" or name.startswith("icvmd.")
        ] + list(extra_modules)
        restore = []
        for mod_name, attr, span_name, info in self.targets:
            original = getattr(sys.modules[mod_name], attr)
            wrapper = self._wrap(original, span_name, info)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, key, wrapper)
                        restore.append((mod, key, original))
        try:
            yield self
        finally:
            for mod, key, original in restore:
                setattr(mod, key, original)

    @contextmanager
    def paused(self):
        """Calls made inside record no spans (used for the correctness checks)."""
        self._paused = True
        try:
            yield
        finally:
            self._paused = False

    def dump(self) -> list:
        return [[s.name, s.t0, s.t1, s.parent] for s in self.spans]


def epoch_seconds(tracer: Tracer, first_span: int, n_samples: int, batch_size: int) -> list:
    """Epoch durations of one train() call whose spans start at ``first_span``:
    the time between the first loss of consecutive epochs (complete epochs only)."""
    per_epoch = -(-n_samples // batch_size)
    losses = [s.t0 for s in tracer.spans[first_span:] if s.name == LOSS]
    return np.diff(losses[::per_epoch]).tolist()


def percentile(values, q: float) -> float:
    return float(np.percentile(values, q)) if len(values) else 0.0


def solver_counters(sides: list) -> dict:
    """Sweep-count distribution and unconverged share over the solved sides,
    each side a (sweeps, converged, final_delta) tuple.  Exact per seed."""
    sweeps = [s[0] for s in sides]
    return {
        "vmd.sweeps_per_side.p50": (percentile(sweeps, 50), "count"),
        "vmd.sweeps_per_side.p95": (percentile(sweeps, 95), "count"),
        "vmd.sweeps_per_side.mean": (float(np.mean(sweeps)) if sweeps else 0.0, "count"),
        "vmd.unconverged_share": (
            sum(not s[1] for s in sides) / len(sides) if sides else 0.0, "share"),
    }


def layer_of(span_name: str) -> str:
    return span_name.rsplit(".", 1)[0]


class SpanTree:
    """Durations, self times and ancestry of a tracer's spans."""

    def __init__(self, spans: list):
        self.spans = spans
        self.dur = np.array([s.t1 - s.t0 for s in spans])
        child_time = np.zeros(len(spans))
        self.children = defaultdict(list)
        self.by_name = defaultdict(list)
        for i, s in enumerate(spans):
            self.by_name[s.name].append(i)
            if s.parent >= 0:
                child_time[s.parent] += self.dur[i]
                self.children[s.parent].append(i)
        self.self_time = self.dur - child_time

    def under(self, i: int, name: str) -> bool:
        p = self.spans[i].parent
        while p >= 0:
            if self.spans[p].name == name:
                return True
            p = self.spans[p].parent
        return False

    def total(self, name: str, own: bool = False) -> float:
        times = self.self_time if own else self.dur
        return float(sum(times[i] for i in self.by_name[name]))

    def mean_ms(self, name: str, own: bool = False) -> float:
        n = len(self.by_name[name])
        return 1e3 * self.total(name, own) / n if n else 0.0

    def layer_self(self, layer: str) -> float:
        own = [self.self_time[i] for i, s in enumerate(self.spans) if layer_of(s.name) == layer]
        return float(sum(own))

    def top_level(self) -> float:
        return float(sum(self.dur[i] for i, s in enumerate(self.spans) if s.parent < 0))


def _training_steps(tree: SpanTree) -> tuple:
    """(step, update) seconds per optimiser step.  Inside train() every step is a
    forward, a loss and a backward; the step runs from one forward's start to the
    next (or to the end of train()), and the update is what the three leave."""
    steps, updates = [], []
    for t in tree.by_name["nn.train.train"]:
        kids = sorted(tree.children[t], key=lambda i: tree.spans[i].t0)
        fwd = [i for i in kids if tree.spans[i].name == "nn.model.forward"]
        ends = [tree.spans[i].t0 for i in fwd[1:]] + [tree.spans[t].t1]
        busy = defaultdict(float)
        k = -1
        for i in kids:
            if tree.spans[i].name == "nn.model.forward":
                k += 1
            busy[k] += tree.dur[i]
        for k, (i, end) in enumerate(zip(fwd, ends)):
            step = end - tree.spans[i].t0
            steps.append(step)
            updates.append(step - busy[k])
    return steps, updates


def per_layer_metrics(setup: Tracer, pipeline: Tracer, sides: list, epochs: list,
                      traced_wall: float, untraced_wall: float) -> dict:
    """Every per-layer metric as name -> (value, unit).  A layer the workload
    never calls reports 0."""
    st, pt = SpanTree(setup.spans), SpanTree(pipeline.spans)
    m = {}
    m["dataset.synthesize_ms"] = (st.mean_ms("dataset.synthesize"), "ms")
    m["iqfile.write_ms"] = (st.mean_ms("iqfile.write"), "ms")
    m["iqfile.read_ms"] = (pt.mean_ms("iqfile.read"), "ms")
    m["analytic.split_ms"] = (pt.mean_ms("analytic.split"), "ms")
    m["analytic.combine_ms"] = (pt.mean_ms("analytic.combine"), "ms")

    side_ms = [1e3 * pt.dur[i] for i in pt.by_name["vmd.side"]]
    total_sweeps = sum(pt.spans[i].info for i in pt.by_name["vmd.side"])
    m["vmd.side_ms.p50"] = (percentile(side_ms, 50), "ms")
    m["vmd.side_ms.p95"] = (percentile(side_ms, 95), "ms")
    m.update(solver_counters(sides))
    m["vmd.sweep_us"] = (1e6 * pt.total("vmd.side") / total_sweeps if total_sweeps else 0.0, "us")
    m["vmd.share"] = (pt.layer_self("vmd") / traced_wall, "share")

    n_captures = len(pt.by_name["decompose.icvmd"])
    m["decompose.self_ms"] = (pt.mean_ms("decompose.icvmd", own=True), "ms")
    m["decompose.reconstruct_ms"] = (
        1e3 * pt.total("decompose.reconstruct", own=True) / n_captures if n_captures else 0.0, "ms")
    m["features.extract_ms"] = (pt.mean_ms("features.extract", own=True), "ms")
    m["features.raw_cumulant_ms"] = (pt.mean_ms("features.raw_cumulant"), "ms")
    m["fewshot.sat_inputs_ms"] = (pt.mean_ms("fewshot.sat_inputs", own=True), "ms")
    m["classify.fit_ms"] = (pt.mean_ms("classify.fit"), "ms")
    m["classify.classify_ms"] = (pt.mean_ms("classify.classify"), "ms")
    m["classify.evaluate_ms"] = (pt.mean_ms("classify.evaluate"), "ms")

    fwd, bwd = pt.by_name["nn.layers.conv_forward"], pt.by_name["nn.layers.conv_backward"]
    fwd_s, bwd_s = pt.total("nn.layers.conv_forward"), pt.total("nn.layers.conv_backward")
    m["nn.layers.conv_forward_ms"] = (1e3 * fwd_s, "ms")
    m["nn.layers.conv_backward_ms"] = (1e3 * bwd_s, "ms")
    m["nn.layers.conv_forward.gflop_s"] = (
        sum(pt.spans[i].info["flop"] for i in fwd) / fwd_s / 1e9 if fwd else 0.0, "GFLOP/s")
    m["nn.layers.conv_backward.gflop_s"] = (
        sum(pt.spans[i].info["flop"] for i in bwd) / bwd_s / 1e9 if bwd else 0.0, "GFLOP/s")
    train_fwd = [i for i in pt.by_name["nn.model.forward"] if pt.under(i, "nn.train.train")]
    infer_fwd = [i for i in pt.by_name["nn.model.forward"] if not pt.under(i, "nn.train.train")]
    cache = [
        sum(pt.spans[c].info["cache_bytes"] for c in pt.children[i]
            if pt.spans[c].name == "nn.layers.conv_forward")
        for i in train_fwd
    ]
    m["nn.layers.conv_cache_mb"] = (max(cache) / 1e6 if cache else 0.0, "MB")
    train_s = pt.total("nn.train.train")
    conv_in_train = sum(pt.dur[i] for i in fwd + bwd if pt.under(i, "nn.train.train"))
    m["nn.layers.epoch_share"] = (conv_in_train / train_s if train_s else 0.0, "share")
    m["nn.layers.share"] = (pt.layer_self("nn.layers") / traced_wall, "share")

    def mean_ms(idx):
        return 1e3 * float(np.mean(pt.dur[idx])) if idx else 0.0

    infer_samples = sum(pt.spans[i].info for i in infer_fwd)
    infer_s = float(sum(pt.dur[i] for i in infer_fwd))
    m["nn.model.forward_ms"] = (mean_ms(train_fwd), "ms")
    m["nn.model.backward_ms"] = (pt.mean_ms("nn.model.backward"), "ms")
    m["nn.model.infer_ms"] = (
        1e3 * infer_s / infer_samples if infer_samples else 0.0, "ms")
    steps, updates = _training_steps(pt)
    m["nn.train.step_ms"] = (1e3 * float(np.mean(steps)) if steps else 0.0, "ms")
    m["nn.train.update_ms"] = (1e3 * float(np.mean(updates)) if updates else 0.0, "ms")
    m["nn.train.epoch_s.p50"] = (percentile(epochs, 50), "s")

    m["trace.overhead_s"] = (traced_wall - untraced_wall, "s")
    m["trace.overhead_share"] = ((traced_wall - untraced_wall) / untraced_wall, "share")
    m["trace.unattributed_share"] = ((traced_wall - pt.top_level()) / traced_wall, "share")
    return m


def layer_shares(tracer: Tracer, wall: float) -> dict:
    """Self time of every layer as a share of the traced wall time."""
    tree = SpanTree(tracer.spans)
    layers = sorted({layer_of(s.name) for s in tracer.spans})
    return {layer: tree.layer_self(layer) / wall for layer in layers}
