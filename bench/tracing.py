"""Per-layer tracing from outside the program.

:func:`installed` monkeypatches the *public* entry points of each layer
(``ServeEngine.step``, ``FallDetector.push_block``,
``OnlineSosFilter.process``, ``ForkingPickler.dumps``, ...) with
wrappers that open one :class:`repro.obs.trace.Span` per call; nothing
under ``src/`` changes.  Each span carries two attributes: the round id
and an item count (rows, windows or bytes, depending on the call).

The spans go to a :class:`~repro.obs.trace.TraceCollector` of the
benchmark's own rather than the process default.  Turning the default
on would also make ``FleetFront`` ship worker spans back through
``close()``, and that path loses them: it hands ``TraceCollector.adopt``
one record at a time, which raises (and logs) for every span, and one
record at a time would cut every parent link anyway.  Instead, fleet
workers are forked with the wrappers in place, each exports its spans
with ``export_jsonl`` when it exits, and :func:`collect` adopts each
worker's file as one batch, which keeps the parent links.  The
collector's epoch is inherited through the fork, so worker spans share
the driver's time base.

Layers are named after the modules: serve, detector, signal, infer,
obs, alerts, fleet and ipc (the fleet hop's pickling and pipe calls).
"""

from __future__ import annotations

import inspect
import os
from contextlib import contextmanager
from dataclasses import dataclass
from multiprocessing import util as mp_util
from multiprocessing.connection import Connection
from multiprocessing.reduction import ForkingPickler
from pathlib import Path

import numpy as np

from repro.obs.trace import TraceCollector, load_jsonl

LAYERS = ("serve", "detector", "signal", "infer", "obs", "alerts", "fleet",
          "ipc")
#: Calls that block waiting for another process rather than doing work:
#: the driver's polls for shard replies.  A worker's ``ipc.recv`` is its
#: idle wait for the next round and is treated the same way.
WAIT = "ipc.wait"


class Tracer:
    """A benchmark-owned collector and the round id its spans carry.

    The driver sets :attr:`round` as it feeds; a forked worker counts
    its own rounds (one per ``ServeEngine.step``).  Without a dump
    directory the collector is off and hands out its shared no-op span.
    """

    def __init__(self, dump_dir: Path | None = None):
        self.collector = TraceCollector(enabled=dump_dir is not None)
        #: Where forked workers export their spans.
        self.dump_dir = dump_dir
        self.round = -1
        self.worker = False
        self.active = False

    def span(self, name: str, items: int = 1):
        return self.collector.span(name, round=self.round, items=items)

    def _after_fork(self) -> None:
        if not self.active:
            return
        self.collector.clear()
        self.worker = True
        self.round = -1
        mp_util.Finalize(None, self._dump, exitpriority=10)

    def _dump(self) -> None:
        self.collector.export_jsonl(
            self.dump_dir / f"spans-{os.getpid()}.jsonl")


#: What untraced passes feed through: every span is the no-op one.
UNTRACED = Tracer()


def _rows(arg) -> int:
    shape = np.shape(arg)
    return int(shape[0]) if len(shape) == 2 else 1


def _targets():
    """``(class, attribute, span name, items(args, result), starts_round)``
    for every wrapped entry point.  A callable name picks the span name
    per call."""
    from repro.alerts import AlertManager
    from repro.core.detector import FallDetector
    from repro.fleet.front import FleetFront
    from repro.nn.model import Model
    from repro.obs import FlightRecorder, SLOTracker, StageTimer
    from repro.quant.qmodel import QuantizedModel
    from repro.serve.engine import ServeEngine
    from repro.serve.session import StreamSession
    from repro.signal.filters import OnlineSosFilter
    from repro.signal.orientation import ComplementaryFilter

    def push_block_name(args):
        # A recorder forces push_block onto its per-sample loop.
        return ("detector.push_block_loop" if args[0].recorder is not None
                else "detector.push_block")

    def rows_arg1(args, result):
        return _rows(args[1])

    def len_arg1(args, result):
        return len(args[1])

    return [
        (ServeEngine, "step", "serve.step", None, True),
        (StreamSession, "drain_block", "serve.drain",
         lambda args, result: len(result[0]), False),
        (FallDetector, "push_block", push_block_name, len_arg1, False),
        (FallDetector, "push", "detector.push", None, False),
        (FallDetector, "complete", "detector.complete", None, False),
        (OnlineSosFilter, "process", "signal.sos", rows_arg1, False),
        (ComplementaryFilter, "update", "signal.fusion", None, False),
        (ComplementaryFilter, "update_block", "signal.fusion", len_arg1,
         False),
        (Model, "predict", "infer.predict", len_arg1, False),
        (QuantizedModel, "predict", "infer.predict", len_arg1, False),
        (StageTimer, "flush", "obs.stage", None, False),
        (StageTimer, "add_ms", "obs.stage", None, False),
        (SLOTracker, "record", "obs.slo", None, False),
        (SLOTracker, "evaluate", "obs.slo", None, False),
        (FlightRecorder, "record_sample", "obs.flight", None, False),
        (FlightRecorder, "record_window", "obs.flight", None, False),
        (FlightRecorder, "record_decision", "obs.flight", None, False),
        (FlightRecorder, "record_health", "obs.flight", None, False),
        (AlertManager, "observe", "alerts.observe", None, False),
        (AlertManager, "tick", "alerts.tick", None, False),
        (FleetFront, "pump", "fleet.pump", None, False),
        (FleetFront, "close", "fleet.close", None, False),
        (ForkingPickler, "dumps", "ipc.serialize",
         lambda args, result: len(result), False),
        (ForkingPickler, "loads", "ipc.deserialize",
         lambda args, result: len(args[0]), False),
        (Connection, "send", "ipc.send", None, False),
        (Connection, "recv", "ipc.recv", None, False),
        (Connection, "poll", WAIT, None, False),
    ]


def _wrap(tracer: Tracer, fn, name, items, starts_round):
    span = tracer.collector.span

    def traced(*args, **kwargs):
        if starts_round and tracer.worker:
            tracer.round += 1
        with span(name if isinstance(name, str) else name(args),
                  round=tracer.round) as sp:
            result = fn(*args, **kwargs)
            if items is not None:
                sp.set("items", items(args, result))
            return result

    return traced


@contextmanager
def installed(tracer: Tracer):
    """Wrap every target for the duration of the block; workers forked
    inside it export their spans to ``tracer.dump_dir``."""
    tracer.dump_dir.mkdir(parents=True, exist_ok=True)
    saved = []
    for cls, attr, name, items, starts_round in _targets():
        original = cls.__dict__.get(attr)
        fn = getattr(cls, attr)
        traced = _wrap(tracer, fn, name, items, starts_round)
        if original is not None and not inspect.isfunction(original):
            # A classmethod or a builtin stored on the class (the pickler's
            # dumps/loads): ``fn`` needs no instance, so neither may the
            # wrapper.
            traced = staticmethod(traced)
        saved.append((cls, attr, original))
        setattr(cls, attr, traced)
    mp_util.register_after_fork(tracer, Tracer._after_fork)
    tracer.active = True
    try:
        yield tracer
    finally:
        tracer.active = False
        for cls, attr, original in reversed(saved):
            if original is None:
                delattr(cls, attr)   # the attribute was inherited
            else:
                setattr(cls, attr, original)


def collect(tracer: Tracer) -> TraceCollector:
    """One collector holding the driver's spans and every worker's
    export (each file deleted once read), adopted one process at a time
    so parent links hold; each span's ``proc`` attribute is 0 for the
    driver."""
    merged = TraceCollector()
    merged.epoch = tracer.collector.epoch
    parts = [tracer.collector.records()]
    for path in sorted(tracer.dump_dir.glob("spans-*.jsonl")):
        parts.append(load_jsonl(path))
        path.unlink()
    for proc, records in enumerate(parts):
        for record in records:
            record.attrs["proc"] = proc
        merged.adopt(records)
    return merged


# ----------------------------------------------------------------------
# span table
# ----------------------------------------------------------------------
@dataclass
class Spans:
    """Every span of a traced pass as parallel arrays, on the
    ``perf_counter`` clock."""

    names: list
    name: np.ndarray
    proc: np.ndarray
    parent: np.ndarray
    round: np.ndarray
    items: np.ndarray
    start: np.ndarray
    end: np.ndarray

    @classmethod
    def from_collector(cls, collector: TraceCollector) -> "Spans":
        records = collector.records()
        row = {record.span_id: i for i, record in enumerate(records)}
        names = sorted({record.name for record in records})
        index = {name: i for i, name in enumerate(names)}
        start = np.array([r.start_s for r in records]) + collector.epoch
        return cls(
            names=names,
            name=np.array([index[r.name] for r in records], dtype=np.int64),
            proc=np.array([r.attrs["proc"] for r in records], dtype=np.int64),
            parent=np.array([row.get(r.parent_id, -1) for r in records],
                            dtype=np.int64),
            round=np.array([r.attrs["round"] for r in records],
                           dtype=np.int64),
            items=np.array([r.attrs.get("items", 1) for r in records],
                           dtype=np.int64),
            start=start,
            end=start + np.array([r.duration_s for r in records]),
        )

    def __post_init__(self):
        self.self_s = self_times(self.start, self.end, self.parent)
        self.layer = np.array([n.split(".")[0] for n in self.names],
                              dtype=object)[self.name]

    def __len__(self) -> int:
        return len(self.start)

    def mask(self, *names) -> np.ndarray:
        ids = [self.names.index(n) for n in names if n in self.names]
        return np.isin(self.name, ids)


def self_times(start, end, parent) -> np.ndarray:
    """Each span's duration minus the part of its interval its children
    cover (the union of the children's intervals, clipped to it)."""
    start = np.asarray(start, dtype=float)
    end = np.asarray(end, dtype=float)
    parent = np.asarray(parent, dtype=np.int64)
    covered = np.zeros(len(start))
    kids = np.flatnonzero(parent >= 0)
    order = kids[np.lexsort((start[kids], parent[kids]))]
    s, e, p = start.tolist(), end.tolist(), parent.tolist()
    current, lo, hi = -1, 0.0, 0.0
    for c in order.tolist():
        owner = p[c]
        a, b = max(s[c], s[owner]), min(e[c], e[owner])
        if b <= a:
            continue
        if owner != current:
            if current >= 0:
                covered[current] += hi - lo
            current, lo, hi = owner, a, b
        elif a > hi:
            covered[owner] += hi - lo
            lo, hi = a, b
        else:
            hi = max(hi, b)
    if current >= 0:
        covered[current] += hi - lo
    return (end - start) - covered


# ----------------------------------------------------------------------
# per-layer metrics
# ----------------------------------------------------------------------
def _mean(values) -> float:
    return float(np.mean(values)) if len(values) else 0.0


def _pct(values, q) -> float:
    return float(np.percentile(values, q)) if len(values) else 0.0


def _ratio(a, b) -> float:
    return float(a) / float(b) if b else 0.0


def layer_metrics(spans: Spans, traced, untraced) -> tuple[dict, dict]:
    """``(per_layer, detail)`` for one traced pass.

    ``per_layer`` holds the metrics every workload exercises (plus
    counts and fractions that read 0 where a layer is absent);
    ``detail`` adds per-call times of layers only some workloads use.
    Counts, stage means, lateness and refusals come from the untraced
    pass of the same run, so wrapper overhead does not skew them.
    """
    inside = (spans.start >= traced.started) & (spans.end <= traced.ended)
    front = spans.proc == 0
    idle = spans.mask(WAIT) | (~front & spans.mask("ipc.recv"))
    wall = traced.wall_s
    dur = spans.end - spans.start
    own = spans.self_s
    samples = traced.accepted or 1
    windows = traced.windows or 1
    rounds = traced.rounds or 1

    def pick(*names, where=None):
        m = spans.mask(*names) & inside
        return m if where is None else m & where

    per_layer = {}
    for layer in LAYERS:
        m = inside & (spans.layer == layer) & ~idle
        per_layer[f"share.{layer}"] = float(own[m].sum()) / wall
    per_layer["share.wait"] = float(own[inside & front & idle].sum()) / wall
    # The driver's time outside its rounds: open-loop sleep, or the
    # generator's gap between closed-loop rounds.
    per_layer["share.idle"] = 1.0 - traced.busy_s / wall
    per_layer["share.untraced"] = (traced.busy_s - float(
        own[inside & front].sum())) / wall

    ingest = pick("detector.push", "detector.push_block",
                  "detector.push_block_loop")
    blocks = pick("detector.push_block", "detector.push_block_loop")
    per_layer["detector.ingest_us_per_sample"] = 1e6 * _ratio(
        own[ingest].sum(), spans.items[ingest].sum())
    per_layer["detector.rows_per_block"] = _ratio(
        spans.items[ingest].sum(), ingest.sum())
    per_layer["detector.loop_fallback_frac"] = _ratio(
        pick("detector.push_block_loop").sum(), blocks.sum())
    for stage, ms in sorted(untraced.info["stages_ms"].items()):
        per_layer[f"detector.stage.{stage}_us"] = 1000.0 * ms
    for short, name in (("sos", "signal.sos"), ("fusion", "signal.fusion")):
        m = pick(name)
        per_layer[f"signal.{short}_us"] = 1e6 * _mean(dur[m])
        per_layer[f"signal.{short}_rows_per_call"] = _ratio(
            spans.items[m].sum(), m.sum())
    predict = pick("infer.predict")
    batched = predict & (spans.items > 0)
    per_layer["infer.predict_ms"] = 1000.0 * _mean(dur[batched])
    per_layer["infer.us_per_window"] = 1e6 * _ratio(
        dur[predict].sum(), spans.items[predict].sum())
    per_layer["infer.windows_per_call"] = _ratio(
        spans.items[batched].sum(), batched.sum())
    per_layer["obs.stage_us_per_window"] = 1e6 * float(
        own[pick("obs.stage")].sum()) / windows
    per_layer["obs.flight_events"] = float(pick("obs.flight").sum())
    per_layer["alerts.raised"] = float(untraced.info["alerts_raised"])
    per_layer["serve.empty_round_frac"] = _ratio(untraced.empty_rounds,
                                                untraced.rounds)
    per_layer["fleet.bytes_per_sample"] = _ratio(
        spans.items[pick("ipc.serialize", where=front)].sum(), samples)
    per_layer["fleet.redelivered"] = float(untraced.info["redelivered"])
    per_layer["fleet.shed"] = float(untraced.info["shed"])
    per_layer["verdict_ms_p99"] = _pct(untraced.latency_ms(), 99)
    per_layer["budget_miss_frac"] = untraced.budget_miss_frac
    per_layer["refused_frac"] = untraced.refused_frac
    per_layer["late_ms_p99"] = 1000.0 * _pct(untraced.late, 99)
    per_layer["trace_overhead_frac"] = _ratio(
        traced.busy_s * traced.box_speed,
        untraced.busy_s * untraced.box_speed) - 1.0

    step = pick("serve.step")
    pump = pick("fleet.pump")
    worker = ~front
    detail = {
        "serve.submit_us": 1e6 * _ratio(dur[pick("serve.submit")].sum(),
                                        samples),
        "serve.drain_us": 1e6 * _mean(dur[pick("serve.drain")]),
        "serve.step_ms_p50": 1000.0 * _pct(dur[step], 50),
        "serve.step_ms_p99": 1000.0 * _pct(dur[step], 99),
        "serve.step_self_ms": 1000.0 * _mean(own[step]),
        "detector.push_block_us": 1e6 * _mean(own[blocks]),
        "detector.push_us_p50": 1e6 * _pct(dur[pick("detector.push")], 50),
        "detector.push_us_p99": 1e6 * _pct(dur[pick("detector.push")], 99),
        "detector.complete_us": 1e6 * _mean(dur[pick("detector.complete")]),
        "obs.slo_ms": 1000.0 * _mean(dur[pick("obs.slo")]),
        "obs.flight_us_per_sample": 1e6 * _ratio(
            dur[pick("obs.flight")].sum(), samples),
        "alerts.observe_ms": 1000.0 * _mean(dur[pick("alerts.observe")]),
        "alerts.tick_ms": 1000.0 * _mean(dur[pick("alerts.tick")]),
        "fleet.submit_us": 1e6 * _ratio(dur[pick("fleet.submit")].sum(),
                                        samples),
        "fleet.pump_ms_p50": 1000.0 * _pct(dur[pump], 50),
        "fleet.pump_ms_p99": 1000.0 * _pct(dur[pump], 99),
        "fleet.merge_ms": 1000.0 * float(
            dur[spans.mask("fleet.close")].sum()),
        "fleet.serialize_ms": 1000.0 * float(
            dur[pick("ipc.serialize", where=front)].sum()) / rounds,
        "fleet.deserialize_ms": 1000.0 * float(
            dur[pick("ipc.deserialize", where=front)].sum()) / rounds,
        "fleet.reply_wait_ms": 1000.0 * float(
            own[pick(WAIT, "ipc.recv", where=front)].sum()) / rounds,
        "fleet.worker_step_ms": 1000.0 * _mean(
            dur[pick("serve.step", where=worker)]),
        "spans": int(len(spans)),
        "spans_in_window": int(inside.sum()),
    }
    return per_layer, detail
