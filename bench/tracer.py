"""Span tracer installed from the benchmark's files around glovekit's layers.

``Tracer.install`` replaces every public function of the nine layer modules,
in every glovekit namespace that holds it (so the names ``glovekit.cli``
imported are covered too), plus ``StreamParser.feed`` and
``ExtremaBuilder.observe``, with a wrapper that records a span. The object
``open_transport`` yields is wrapped in a proxy that records its reads and
writes. ``uninstall`` puts every original back; untraced passes run the
unmodified program.

A span is (step id, name, start, end, parent). Spans of one CLI step share
the step id. A span opened on a helper thread (``record``'s reader thread)
takes as parent the span open on the stepping thread at that moment. A
span's self time is its duration minus the part of it covered by its
children; it includes the tracer's own cost for those children's wrappers.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import inspect
import os
import threading
from array import array
from dataclasses import dataclass
from time import perf_counter

import numpy as np

LAYERS = ("emulator", "transports", "wire", "pipeline", "calibration", "controlsim",
          "model", "formats", "cli")
METHODS = (("wire", "StreamParser", "feed"), ("calibration", "ExtremaBuilder", "observe"))
FORMATS_CALLED = ("load_emulator_config", "load_profile", "save_profile", "load_coupling",
                  "save_demo", "load_demo", "save_model", "load_model", "save_tracking_csv",
                  "save_bands_csv")


def _saved_bytes(args, kwargs, result, before):
    path = next(a for a in (*args, *kwargs.values()) if isinstance(a, (str, os.PathLike)))
    return os.path.getsize(path)


def _feed_counts(args, kwargs, result, before):
    return len(args[1]), len(result), args[0].bytes_skipped - before


def _frames_interpolated(args, kwargs, result, before):
    raw, stats = args[0], args[1]
    return max(stats.nominal_frames - raw.shape[0], 0)


def _tracking_steps(args, kwargs, result, before):
    return result.executed.shape[0] - 1


def _basis_shape(args, kwargs, result, before):
    return result.shape


# per-span quantities recorded next to the span, keyed by span name;
# ``before`` is what the optional pre-call hook returned
PROBES = {
    "emulator.run_emulator": (None, lambda a, k, r, b: r),
    "wire.StreamParser.feed": (lambda a, k: a[0].bytes_skipped, _feed_counts),
    "pipeline.frames_to_demo": (None, _frames_interpolated),
    "controlsim.simulate_tracking": (None, _tracking_steps),
    "model.design_matrix": (None, _basis_shape),
    "transports.read": (None, lambda a, k, r, b: len(r)),
    "transports.write": (None, lambda a, k, r, b: len(a[0])),
    **{f"formats.{f}": (None, _saved_bytes) for f in FORMATS_CALLED if f.startswith("save_")},
}


class Tracer:
    def __init__(self):
        self.labels: list[str] = []
        self._ids: dict[str, int] = {}
        self._lock = threading.Lock()
        self._local = threading.local()
        self._main: list[int] = []
        self._patches: list[tuple[object, str, object]] = []
        self.step_id = 0
        self._clear()

    def _clear(self):
        self._step = array("i")
        self._name = array("i")
        self._parent = array("i")
        self._start = array("d")
        self._end = array("d")
        self._attrs: dict[int, object] = {}

    def _label_id(self, label: str) -> int:
        if label not in self._ids:
            self._ids[label] = len(self.labels)
            self.labels.append(label)
        return self._ids[label]

    # ------------------------------------------------------------ spans

    def _begin(self, nid: int):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        if stack:
            parent = stack[-1]
        else:
            try:
                parent = self._main[-1]
            except IndexError:
                parent = -1
        with self._lock:
            idx = len(self._start)
            self._step.append(self.step_id)
            self._name.append(nid)
            self._parent.append(parent)
            self._start.append(0.0)
            self._end.append(0.0)
        stack.append(idx)
        self._start[idx] = perf_counter()
        return idx, stack

    def _finish(self, idx: int, stack: list[int]) -> None:
        self._end[idx] = perf_counter()
        stack.pop()

    def wrap(self, label: str, fn):
        nid = self._label_id(label)
        pre, probe = PROBES.get(label, (None, None))

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            before = pre(args, kwargs) if pre else None
            idx, stack = self._begin(nid)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._finish(idx, stack)
            if probe:
                self._attrs[idx] = probe(args, kwargs, result, before)
            return result

        return traced

    # ------------------------------------------------- install/uninstall

    def _patch(self, owner, name: str, value) -> None:
        self._patches.append((owner, name, getattr(owner, name)))
        setattr(owner, name, value)

    def install(self) -> None:
        """Wrap the layers; the calling thread becomes the stepping thread."""
        import glovekit

        modules = {m: importlib.import_module(f"glovekit.{m}") for m in LAYERS}
        namespaces = [glovekit, *modules.values()]
        for layer, module in modules.items():
            for name, fn in list(vars(module).items()):
                if name.startswith("_") or not inspect.isfunction(fn) or fn.__module__ != module.__name__:
                    continue
                if layer == "transports" and name == "open_transport":
                    wrapper = self._traced_open(fn)
                else:
                    wrapper = self.wrap(f"{layer}.{name}", fn)
                for ns in namespaces:
                    if vars(ns).get(name) is fn:
                        self._patch(ns, name, wrapper)
        for layer, cls_name, method in METHODS:
            cls = getattr(modules[layer], cls_name)
            self._patch(cls, method, self.wrap(f"{layer}.{cls_name}.{method}", vars(cls)[method]))
        self._main = self._local.stack = []

    def uninstall(self) -> None:
        for owner, name, original in reversed(self._patches):
            setattr(owner, name, original)
        self._patches.clear()

    def _traced_open(self, open_transport):
        opened = self._label_id("transports.open_transport")
        tracer = self

        @contextlib.contextmanager
        @functools.wraps(open_transport)
        def traced_open(*args, **kwargs):
            with contextlib.ExitStack() as stack:
                idx, spans = tracer._begin(opened)
                try:
                    stream = stack.enter_context(open_transport(*args, **kwargs))
                finally:
                    tracer._finish(idx, spans)
                yield _TimedStream(tracer, stream)

        return traced_open

    # ----------------------------------------------------------- output

    def take(self) -> "Spans":
        """Return the spans recorded since the last call and forget them."""
        spans = Spans(
            np.frombuffer(self._step, dtype=np.int32).copy(),
            np.frombuffer(self._name, dtype=np.int32).copy(),
            np.frombuffer(self._parent, dtype=np.int32).copy(),
            np.frombuffer(self._start, dtype=np.float64).copy(),
            np.frombuffer(self._end, dtype=np.float64).copy(),
            self._attrs,
        )
        self._clear()
        return spans


class _TimedStream:
    """Proxy for the stream ``open_transport`` yields: times read/write/flush."""

    def __init__(self, tracer: Tracer, stream):
        self._stream = stream
        self.read = tracer.wrap("transports.read", stream.read)
        self.write = tracer.wrap("transports.write", stream.write)
        self.flush = tracer.wrap("transports.flush", stream.flush)

    def __getattr__(self, name):
        return getattr(self._stream, name)


@dataclass
class Spans:
    step: np.ndarray
    name: np.ndarray
    parent: np.ndarray
    start: np.ndarray
    end: np.ndarray
    attrs: dict


class PassView:
    """Per-name sums over the spans of one traced pass."""

    def __init__(self, spans: Spans, labels: list[str], scale: float):
        """``scale`` converts wall seconds to the seconds reported."""
        self.spans = spans
        self.labels = labels
        self.ids = {label: i for i, label in enumerate(labels)}
        self.duration = (spans.end - spans.start) * scale
        self.self_s = self.duration - _covered(spans) * scale

    def _mask(self, names) -> np.ndarray:
        ids = [self.ids[n] for n in names if n in self.ids]
        return np.isin(self.spans.name, ids)

    def time(self, *names: str) -> float:
        """Busy seconds in the named spans, outermost ones only, so a span
        nested in another of the same names is not counted twice."""
        inside = self._mask(names)
        parent = self.spans.parent
        nested = np.zeros_like(inside)
        has_parent = parent >= 0
        nested[has_parent] = inside[parent[has_parent]]
        return float(self.duration[inside & ~nested].sum())

    def self_time(self, *names: str) -> float:
        return float(self.self_s[self._mask(names)].sum())

    def layer_self_time(self, layer: str) -> float:
        return self.self_time(*(n for n in self.labels if n.startswith(layer + ".")))

    def calls(self, name: str) -> int:
        return int(self._mask([name]).sum())

    def attrs(self, name: str) -> list:
        idx = np.flatnonzero(self._mask([name]))
        return [self.spans.attrs[i] for i in idx.tolist() if i in self.spans.attrs]

    def total(self, name: str, field: int | None = None) -> float:
        values = self.attrs(name)
        return float(sum(v if field is None else v[field] for v in values))


def _covered(spans: Spans) -> np.ndarray:
    """Seconds of each span covered by the union of its children's spans."""
    covered = np.zeros(spans.start.size)
    order = np.lexsort((spans.start, spans.parent))
    start, end, parent = spans.start.tolist(), spans.end.tolist(), spans.parent.tolist()
    current, reach = -1, 0.0
    for i in order.tolist():
        p = parent[i]
        if p < 0:
            continue
        if p != current:
            current, reach = p, start[p]
        lo = max(start[i], reach)
        hi = min(end[i], end[p])
        if hi > lo:
            covered[p] += hi - lo
            reach = hi
    return covered


def _rate(count: float, seconds: float) -> float:
    return count / seconds if seconds > 0 else 0.0


# (name, unit, value from one traced pass); every workload reports all of
# them, a layer the workload's chain never calls reads 0
LAYER_METRICS = [
    ("emulator.run_s", "s", lambda v: v.time("emulator.run_emulator")),
    ("emulator.self_s", "s", lambda v: v.layer_self_time("emulator")),
    ("emulator.frames", "count", lambda v: v.total("emulator.run_emulator")),
    ("emulator.frames_per_s", "1/s",
     lambda v: _rate(v.total("emulator.run_emulator"), v.time("emulator.run_emulator"))),
    ("transports.read_s", "s", lambda v: v.time("transports.read")),
    ("transports.bytes_read", "bytes", lambda v: v.total("transports.read")),
    ("transports.write_s", "s", lambda v: v.time("transports.write", "transports.flush")),
    ("transports.bytes_written", "bytes", lambda v: v.total("transports.write")),
    ("transports.self_s", "s", lambda v: v.layer_self_time("transports")),
    ("wire.feed_s", "s", lambda v: v.time("wire.StreamParser.feed")),
    ("wire.frames_decoded", "count", lambda v: v.total("wire.StreamParser.feed", 1)),
    ("wire.bytes_skipped", "bytes", lambda v: v.total("wire.StreamParser.feed", 2)),
    ("wire.skip_ratio", "ratio",
     lambda v: _rate(v.total("wire.StreamParser.feed", 2), v.total("wire.StreamParser.feed", 0))),
    ("wire.frames_per_s", "1/s",
     lambda v: _rate(v.total("wire.StreamParser.feed", 1), v.time("wire.StreamParser.feed"))),
    ("wire.self_s", "s", lambda v: v.layer_self_time("wire")),
    ("pipeline.read_raw_frames_s", "s", lambda v: v.time("pipeline.read_raw_frames")),
    ("pipeline.read_raw_frames_self_s", "s", lambda v: v.self_time("pipeline.read_raw_frames")),
    ("pipeline.frames_to_demo_s", "s", lambda v: v.time("pipeline.frames_to_demo")),
    ("pipeline.frames_interpolated", "count", lambda v: v.total("pipeline.frames_to_demo")),
    ("pipeline.evaluate_s", "s", lambda v: v.time("pipeline.evaluate")),
    ("pipeline.reproduce_s", "s", lambda v: v.time("pipeline.reproduce")),
    ("pipeline.residual_summary_s", "s", lambda v: v.time("pipeline.residual_summary")),
    ("pipeline.self_s", "s", lambda v: v.layer_self_time("pipeline")),
    ("calibration.observe_s", "s", lambda v: v.time("calibration.ExtremaBuilder.observe")),
    ("calibration.observe_calls", "count", lambda v: v.calls("calibration.ExtremaBuilder.observe")),
    ("calibration.raw_to_angle_s", "s", lambda v: v.time("calibration.raw_to_angle")),
    ("calibration.apply_coupling_s", "s", lambda v: v.time("calibration.apply_coupling")),
    ("calibration.self_s", "s", lambda v: v.layer_self_time("calibration")),
    ("controlsim.simulate_tracking_s", "s", lambda v: v.time("controlsim.simulate_tracking")),
    ("controlsim.steps", "count", lambda v: v.total("controlsim.simulate_tracking")),
    ("controlsim.resample_linear_s", "s", lambda v: v.time("controlsim.resample_linear")),
    ("controlsim.self_s", "s", lambda v: v.layer_self_time("controlsim")),
    ("model.train_model_s", "s", lambda v: v.time("model.train_model")),
    ("model.fit_weights_s", "s", lambda v: v.time("model.fit_weights")),
    ("model.estimate_noise_s", "s", lambda v: v.time("model.estimate_noise")),
    ("model.mean_trajectory_s", "s", lambda v: v.time("model.mean_trajectory")),
    ("model.marginal_std_s", "s", lambda v: v.time("model.marginal_std")),
    ("model.log_likelihood_s", "s",
     lambda v: v.time("model.log_likelihood", "model.log_likelihood_per_joint")),
    ("model.design_matrix_calls", "count", lambda v: v.calls("model.design_matrix")),
    ("model.design_matrix_distinct", "count", lambda v: len(set(v.attrs("model.design_matrix")))),
    ("model.self_s", "s", lambda v: v.layer_self_time("model")),
    *[(f"formats.{f}_s", "s", (lambda f: lambda v: v.time(f"formats.{f}"))(f)) for f in FORMATS_CALLED],
    ("formats.bytes_written", "bytes",
     lambda v: sum(v.total(f"formats.{f}") for f in FORMATS_CALLED if f.startswith("save_"))),
    ("formats.self_s", "s", lambda v: v.layer_self_time("formats")),
    ("cli.self_s", "s", lambda v: v.layer_self_time("cli")),
]
