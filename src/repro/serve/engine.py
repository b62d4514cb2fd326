"""Micro-batched multi-stream inference engine.

The single-stream :class:`~repro.core.detector.FallDetector` costs one
batch-of-1 ``Model.predict`` per due window — N concurrent wearables cost
N full forwards.  :class:`ServeEngine` amortises that: it accepts
interleaved ``(stream_id, accel, gyro, t)`` samples (or whole blocks of
one stream's samples) into bounded per-stream queues, advances every
session's filter/ring-buffer state, and collects *all* windows that come
due across sessions into **one** batched ``Model.predict`` call per
inference round.

Samples come in through :class:`~repro.serve.session.FrontDoor`, the
front door :class:`~repro.fleet.FleetFront` shares: the engine supplies
only its two hooks, admission (a new stream gets a session unless it
is quarantined or beyond ``max_streams``) and shed accounting (a full
queue's oldest rows count in ``dropped_samples``).

Correctness contract
--------------------
* **Isolation** — every stream owns its full detector state; a stream
  feeding NaNs, gaps or garbage degrades only itself.  A model exception
  on a batch is retried per window so one poisoned window cannot take
  detections away from healthy streams, and a session whose detector
  breaks its never-raises promise is quarantined, not propagated.
* **Bitwise reproducibility** — batched forwards run under
  :func:`repro.nn.batch_invariant`, so a stream's probabilities (and
  therefore its detections) are byte-identical no matter which other
  streams share its batches; a solo run of the same stream through an
  engine reproduces them exactly.
* **Deadline pressure** — every window is charged the wall-clock of the
  whole batch it rode in (its result is not available any earlier).
  Sustained violations trip the per-stream detector's load shedding
  exactly like the single-stream path: that stream's CNN is shed and its
  :class:`~repro.core.detector.MagnitudeFallback` becomes authoritative
  until the retry probe succeeds, while other streams keep the CNN.

Throughput, batch-size/latency histograms, queue depths and per-stream
deadline violations are exported through :mod:`repro.obs`.
"""

from __future__ import annotations

import time
from collections import deque, namedtuple
from dataclasses import dataclass, field
from itertools import chain
from operator import itemgetter

import numpy as np

from ..alerts import AlertConfig, AlertManager
from ..core.detector import (
    Detection,
    DetectorConfig,
    LaneBank,
    WindowRequest,
    complete_clean,
    ingest_lanes,
    ingest_round,
)
from ..nn.config import batch_invariant
from ..obs import (
    FlightConfig,
    Histogram,
    SLOConfig,
    SLOTracker,
    StageTimer,
    get_logger,
    get_registry,
    stage_attribution,
)
from .session import FrontDoor, StreamSession

__all__ = ["ServeConfig", "ServeEngine"]

_logger = get_logger(__name__)

#: Batch-size histogram edges: exact buckets for the small batches that
#: dominate, then powers of two up to 4096 windows.
_BATCH_BUCKETS = (0, 1, 2, 4, 8, 16, 32, 64, 128, 256, 512, 1024, 2048, 4096)
_LATENCY_BUCKETS_MS = tuple(0.01 * 2 ** i for i in range(23))

#: One round's ingest: the due sessions, in session order, and their
#: detectors; the windows the clean lanes staged, as arrays (a
#: ``repro.core.detector._Staged``, or ``None``); and every other lane's
#: staged windows as ``(lane, request)`` pairs, in lane order.
_Round = namedtuple("_Round", "sessions dets staged slow")


@dataclass(frozen=True)
class ServeConfig:
    """Engine-level knobs; per-stream behaviour lives in ``detector``."""

    detector: DetectorConfig = field(default_factory=DetectorConfig)
    #: Numeric backend for the window model: ``"float32"`` serves the
    #: float graph as-is; ``"int8"`` converts it once at engine
    #: construction (post-training quantization, needs ``calibration``
    #: windows unless the model is already a
    #: :class:`~repro.quant.QuantizedModel`) and routes every forward —
    #: batched rounds and the per-window retry path alike — through the
    #: batched integer kernels.
    backend: str = "float32"
    #: Bounded per-stream queue; when full the *oldest* sample is shed
    #: (freshest data wins — a pre-impact detector must not fall behind).
    queue_capacity: int = 512
    #: Hard cap on concurrent sessions; submits for new streams beyond it
    #: are rejected (and counted) instead of growing without bound.
    max_streams: int = 4096
    metric_prefix: str = "serve"
    #: Give each stream its own metric namespace
    #: (``<prefix>/stream/<id>/...``).  Disable to share one namespace
    #: when stream cardinality would flood the registry.
    per_stream_metrics: bool = True
    #: Attach a :class:`repro.obs.FlightRecorder` with this config to
    #: every session, so incidents (detections, shedding, health flips,
    #: quarantines) freeze the stream's recent history to disk.  ``None``
    #: serves without flight recording.
    flight: FlightConfig | None = None
    #: Attach an :class:`repro.alerts.AlertManager` with this config:
    #: every detection feeds the per-stream escalation machines, alerts
    #: are deduped fleet-wide, demoted on bad stream health, persisted
    #: to the configured event store and exported as ``alerts/*``
    #: metrics.  ``None`` serves without the alert pipeline.
    alerts: AlertConfig | None = None
    #: SLO objectives + burn-rate policy (:class:`repro.obs.SLOConfig`).
    #: Armed by default — the tracker is a few counters per round; every
    #: window completion feeds the error budgets, and burn-rate alerts
    #: ride the attached :class:`~repro.alerts.AlertManager` (no-op
    #: without one).  ``None`` disables SLO tracking.
    slo: SLOConfig | None = field(default_factory=SLOConfig)

    def __post_init__(self):
        if self.queue_capacity < 1:
            raise ValueError("queue_capacity must be >= 1")
        if self.max_streams < 1:
            raise ValueError("max_streams must be >= 1")
        if self.backend not in ("float32", "int8"):
            raise ValueError(
                f"backend must be 'float32' or 'int8', got {self.backend!r}"
            )


class ServeEngine(FrontDoor):
    """Cross-stream micro-batching scheduler around one window model.

    Usage::

        engine = ServeEngine(model)
        for sample in telemetry:               # interleaved streams
            engine.submit(sample.stream_id, sample.accel, sample.gyro,
                          t=sample.t)
        for packet in packets:                 # or whole (n, 3) blocks
            engine.submit_block(packet.stream_id, packet.accel,
                                packet.gyro, t=packet.t)
        for stream_id, detection in engine.step():   # drain + infer
            fire_airbag(stream_id, detection)
    """

    def __init__(self, model, config: ServeConfig | None = None, *,
                 registry=None, latency_clock=None, stage_clock=None,
                 calibration=None):
        if model is None:
            raise ValueError(
                "ServeEngine needs a window model; a fallback-only "
                "deployment does not benefit from batching"
            )
        self.config = cfg = config or ServeConfig()
        # The queue of every stream in service is in ``_queues`` (a
        # quarantined stream leaves it): one lookup finds where a submit
        # goes.
        super().__init__(cfg.queue_capacity)
        self.registry = registry if registry is not None else get_registry()
        self._sessions: dict[str, StreamSession] = {}
        # Every stream's detector state lives in one row of this bank
        # (each session's detector is built into it), so a round's
        # stacked ingest indexes it instead of gathering.  Its one stage
        # timer (7 histograms however many streams) keeps each stream's
        # pending costs in that stream's row, and each round's completed
        # windows flush in one call (_infer_batch).  `stage_clock` is
        # injectable for deterministic tests.
        self._bank = LaneBank(cfg.detector, stage_clock=stage_clock,
                              round_flush=True)
        window_n = cfg.detector.window_samples
        self.model = self._resolve_backend(model, calibration, window_n)
        self._empty_batch = np.empty((0, window_n, 9))
        prefix = cfg.metric_prefix
        self.registry.gauge(f"{prefix}/backend_int8").set(
            1.0 if cfg.backend == "int8" else 0.0)
        self._batch_size_hist = self.registry.histogram(
            f"{prefix}/batch_size", buckets=_BATCH_BUCKETS)
        self._batch_latency_hist = self.registry.histogram(
            f"{prefix}/batch_latency_ms", buckets=_LATENCY_BUCKETS_MS)
        self._queue_depth_gauge = self.registry.gauge(f"{prefix}/queue_depth")
        self._active_gauge = self.registry.gauge(f"{prefix}/active_streams")
        # Hot-path totals accumulate as plain ints and sync to registry
        # counters once per step — per-sample lock traffic would tax the
        # very throughput this engine exists to buy.
        self.rejected_streams = 0
        self.windows_inferred = 0
        self.batches = 0
        self.batch_errors = 0
        self.stream_errors = 0
        self.detections = 0
        self._synced: dict[str, int] = {}
        self._inference_s = 0.0
        #: Fleet alert pipeline (``None`` unless ``config.alerts``).
        self.alerts = (AlertManager(cfg.alerts, registry=self.registry)
                       if cfg.alerts is not None else None)
        # Injectable: `latency_clock` times the batched forward (swap in
        # a synthetic clock to drive overload scenarios and burn-rate
        # tests deterministically).
        self._clock = (latency_clock if latency_clock is not None
                       else time.perf_counter)
        #: SLO tracker (``None`` when ``config.slo`` is).  Driven on
        #: stream time, so burn-rate behaviour is deterministic.
        self.slo = (SLOTracker(cfg.slo, registry=self.registry,
                               alerts=self.alerts)
                    if cfg.slo is not None else None)
        self.rounds = 0
        #: Stream time of the latest completed step — the liveness stamp
        #: ``/healthz`` reports so "serving" and "stuck" look different.
        self.last_round_t: float | None = None

    # ------------------------------------------------------------------
    # backend
    # ------------------------------------------------------------------
    @property
    def backend(self) -> str:
        """Numeric backend serving this engine's forwards."""
        return self.config.backend

    def _resolve_backend(self, model, calibration, window_n: int):
        """Materialize the configured backend's model, converting once.

        ``backend="int8"`` accepts either a float model plus
        ``calibration`` windows (converted here, post-training) or an
        already-converted :class:`~repro.quant.QuantizedModel` (so a
        pruned+quantized model can be served directly).  The integer
        kernels are batch-invariant by construction — no float matmul is
        involved — and this asserts it on a probe batch rather than
        trusting the construction.
        """
        if self.config.backend == "float32":
            return model
        from ..quant.qmodel import QuantizedModel

        if isinstance(model, QuantizedModel):
            quantized = model
        else:
            if calibration is None:
                raise ValueError(
                    "backend='int8' needs `calibration` windows to "
                    "convert the float model (or pass an already-"
                    "converted QuantizedModel)"
                )
            quantized = QuantizedModel.convert(
                model, np.asarray(calibration, dtype=np.float32))
        self._assert_batch_invariant(quantized, window_n)
        return quantized

    @staticmethod
    def _assert_batch_invariant(quantized, window_n: int) -> None:
        """Probe: batched int8 predictions must be bitwise equal to the
        same windows predicted one at a time."""
        rng = np.random.default_rng(0)
        probe = rng.normal(0.0, 1.0, size=(2, window_n, 9))
        together = quantized.predict(probe)
        singly = np.concatenate(
            [quantized.predict(probe[i : i + 1]) for i in range(len(probe))]
        )
        if not np.array_equal(together, singly):
            raise AssertionError(
                "int8 backend is not batch-invariant: batched probe "
                "predictions differ bitwise from solo predictions"
            )

    # ------------------------------------------------------------------
    # ingestion
    # ------------------------------------------------------------------
    def session(self, stream_id: str) -> StreamSession:
        """Get or create the session for ``stream_id``."""
        session = self._sessions.get(stream_id)
        if session is None:
            if len(self._sessions) >= self.config.max_streams:
                raise KeyError(
                    f"stream limit reached ({self.config.max_streams}); "
                    f"cannot admit {stream_id!r}"
                )
            session = StreamSession(
                stream_id,
                self.model,
                self.config.detector,
                registry=self.registry,
                metric_prefix=f"{self.config.metric_prefix}/stream",
                per_stream_metrics=self.config.per_stream_metrics,
                flight=self.config.flight,
                queue_capacity=self._capacity,
                bank=self._bank,
            )
            self._sessions[stream_id] = session
            self._queues[stream_id] = session.queue
        return session

    def _admit(self, stream_id: str, n: int) -> deque | None:
        """The front door's admit hook: a new stream's queue, or ``None``
        for a quarantined stream (its rows counted as dropped) or one
        beyond ``max_streams`` (counted as rejected)."""
        if stream_id in self._sessions:             # quarantined
            self.dropped_samples += n
            return None
        try:
            return self.session(stream_id).queue
        except KeyError:
            self.rejected_streams += n
            return None

    def _shed(self, stream_id: str, n: int) -> None:
        """The front door's shed hook: a full queue's dropped rows count
        in the engine's and the stream's ``dropped_samples``."""
        self._sessions[stream_id].dropped_samples += n
        self.dropped_samples += n

    # ------------------------------------------------------------------
    # scheduling
    # ------------------------------------------------------------------
    def step(self) -> list[tuple[str, Detection]]:
        """Run one round: drain every queue, then infer the due windows
        in one micro-batch.

        Every due session's queue is drained in one pass over all of
        them, into one ``(rows, 7)`` array, and the round goes through
        one :func:`~repro.core.detector.ingest_round` call (the
        detectors' one ingest path): same-length blocks fuse, filter,
        window and run their clean-block checks as one lane-stacked
        pass, a clean lane's decisions replay as array operations, and a
        session whose lane raises is quarantined alone.  Then one
        batched forward runs for all staged windows across streams (an
        empty one when none came due), and the clean lanes' windows
        complete in one vectorized pass unless the batch missed its
        deadline.  Nothing enqueues during a step, so every queue is
        empty after it.  The queue-depth gauge is set once, from the
        queue lengths the drain reads, to the deepest any stream's queue
        got since the previous step (burst peaks included), and keeps
        that reading until the next step, so the exposition and the
        dashboard see a burst between rounds.  Returns ``(stream_id,
        detection)`` pairs in processing order.
        """
        detections: list[tuple[str, Detection]] = []
        self._infer_batch(self._advance_round(detections), detections)
        self.rounds += 1
        now = self._stream_now
        if now is not None:
            self.last_round_t = now
        if self.slo is not None:
            # Evaluate burn rates on stream time (falls back to the
            # tracker's own clock when no sample ever carried one).
            self.slo.evaluate(now=now)
        if self.alerts is not None:
            self._feed_alerts(detections)
        self._sync_metrics()
        return detections

    def _advance_round(self, detections) -> _Round:
        """Drain every due session's queue with one ``np.fromiter`` over
        all of them and ingest the round in one
        :func:`~repro.core.detector.ingest_round` call; returns the
        round's sessions and the windows they staged."""
        due, lengths = [], []
        for session in self._sessions.values():
            if session.queue:
                if session.quarantined:
                    session.queue.clear()
                    continue
                due.append(session)
                lengths.append(len(session.queue))
        # Queues only grow between steps, so their depth now is the
        # deepest any got since the previous step.
        self._queue_depth_gauge.set(float(max(lengths, default=0)))
        if not due:
            return _Round(due, [], None, [])
        try:
            block = np.fromiter(
                chain.from_iterable(chain.from_iterable(
                    session.queue for session in due)),
                float, 7 * sum(lengths))
        except Exception:
            # Submits queue only well-formed rows; should a malformed one
            # reach a queue anyway, drain session by session, so that
            # stream alone is quarantined.
            return self._advance_lanes(due, detections)
        for session in due:
            session.queue.clear()
        dets = [session.detector for session in due]
        results, staged = ingest_round(dets, block.reshape(-1, 7), lengths)
        return _Round(due, dets, staged,
                      self._take(due, sorted(results.items()), detections))

    def _advance_lanes(self, due, detections) -> _Round:
        """The round session by session: each queue stacked on its own
        (:meth:`StreamSession.drain_block`, whose failure quarantines
        the stream), then one :func:`~repro.core.detector.ingest_lanes`
        call."""
        drained, blocks = [], []
        for session in due:
            try:
                accel, gyro, t = session.drain_block()
            except Exception as exc:
                self._quarantine(session, exc)
                continue
            drained.append(session)
            blocks.append((session.detector, accel, gyro, t))
        return _Round(drained, [session.detector for session in drained],
                      None, self._take(drained, enumerate(
                          ingest_lanes(blocks)), detections))

    def _take(self, sessions, results, detections) -> list:
        """Quarantine each lane of ``results`` (``(lane, result)`` in
        lane order) that raised and take the others' fallback
        detections; returns the windows they staged as ``(lane,
        request)`` pairs, in order."""
        slow = []
        for i, result in results:
            session = sessions[i]
            if isinstance(result, Exception):
                self._quarantine(session, result)
                continue
            hits, requests = result
            for hit in hits:
                self._fire(session, hit, detections)
            slow.extend([(i, request) for request in requests])
        return slow

    def _infer_batch(self, round_: _Round, detections) -> None:
        """One batched forward for every staged window, one stage-timer
        flush for all of them, then fan-out (:meth:`_fan_out`)."""
        batch, where, rows = self._assemble(round_)
        k = len(batch)
        t0 = self._clock()
        try:
            with batch_invariant():
                out = np.asarray(self.model.predict(batch))
            # (k, 1) sigmoid outputs -> (k,).  reshape(-1) on the empty
            # batch relies on predict keeping the model's output shape
            # for zero-row input (reshape(0, -1) would be ambiguous).
            probs = out.reshape(k, -1)[:, 0] if k else out.reshape(-1)
        except Exception:
            self.batch_errors += 1
            _logger.exception(
                "batched inference raised for %d windows; retrying "
                "per window", k,
            )
            self._infer_singly(self._pairs(round_, batch, where),
                               detections)
            return
        latency_ms = 1000.0 * (self._clock() - t0)
        self._inference_s += latency_ms / 1000.0
        self.batches += 1
        self.windows_inferred += k
        self._batch_size_hist.observe(k)
        if k:
            self._batch_latency_hist.observe(latency_ms)
            if self._bank.stages is not None:
                self._bank.stages.flush(rows, latency_ms)
            self._fan_out(round_, batch, where, probs, latency_ms,
                          detections)
            if self.slo is not None:
                self._record_slo(latency_ms, k)

    def _assemble(self, round_: _Round) -> tuple:
        """The round's batch in session order, then row order within a
        stream; returns ``(batch, where, rows)``: ``where`` maps each
        window — the clean lanes' staged ones, then the other lanes' —
        to its batch position (``None`` when that is their order), and
        ``rows`` holds each batch window's stage-timer row."""
        staged, slow, dets = round_.staged, round_.slow, round_.dets
        if staged is None:
            if not slow:
                return self._empty_batch, None, []
            return (np.stack([request.window for _, request in slow]), None,
                    [dets[i].stage_row for i, _ in slow])
        if not slow and (staged.lane[1:] >= staged.lane[:-1]).all():
            # The usual round: one stacked group of clean lanes, its
            # windows taken in batch order.
            return staged.windows, None, staged.row.tolist()
        kc = len(staged.lane)
        lanes = np.concatenate([staged.lane, [i for i, _ in slow]])
        where = np.empty(len(lanes), dtype=np.intp)
        where[np.argsort(lanes, kind="stable")] = np.arange(len(lanes))
        batch = np.empty((len(lanes),) + self._empty_batch.shape[1:])
        batch[where[:kc]] = staged.windows
        rows = np.empty(len(lanes), dtype=np.intp)
        rows[where[:kc]] = staged.row
        for p, (i, request) in zip(where[kc:].tolist(), slow):
            batch[p] = request.window
            rows[p] = dets[i].stage_row
        return batch, where, rows.tolist()

    def _pairs(self, round_: _Round, batch, where) -> list:
        """Every window of the batch as a ``(session, request)`` pair, in
        batch order: a clean lane's window gets its request here."""
        staged, sessions = round_.staged, round_.sessions
        pairs = []
        if staged is not None:
            spots = (range(len(staged.lane)) if where is None
                     else where.tolist())
            pairs = [(sessions[lane],
                      WindowRequest(batch[p], index, time_s, hit))
                     for p, lane, index, time_s, hit in zip(
                         spots, staged.lane.tolist(),
                         staged.sample_index.tolist(),
                         staged.time_s.tolist(),
                         staged.fallback_hit.tolist())]
        pairs += [(sessions[i], request) for i, request in round_.slow]
        if where is None:
            return pairs
        return [pairs[j] for j in np.argsort(where).tolist()]

    def _fan_out(self, round_: _Round, batch, where, probs, latency_ms,
                 detections) -> None:
        """Complete every window of the batch, detections in batch
        order.  The clean lanes' windows complete in one
        :func:`~repro.core.detector.complete_clean` call and the others
        one at a time; a batch that missed the deadline, or a clean
        window whose probability is not finite, completes every window
        one at a time (those may shed the CNN)."""
        staged, sessions = round_.staged, round_.sessions
        if staged is not None:
            kc = len(staged.lane)
            spots = range(len(probs)) if where is None else where.tolist()
            clean = probs[:kc] if where is None else probs[where[:kc]]
            if (not latency_ms > self.config.detector.effective_deadline_ms
                    and np.isfinite(clean).all()):
                lanes = staged.lane.tolist()
                fired = [(spots[j], sessions[lanes[j]], hit)
                         for j, hit in complete_clean(round_.dets, staged,
                                                      clean, latency_ms)]
                for p, (i, request) in zip(spots[kc:], round_.slow):
                    hit = self._complete(sessions[i], request, probs[p],
                                         latency_ms, False)
                    if hit is not None:
                        fired.append((p, sessions[i], hit))
                fired.sort(key=itemgetter(0))
                for _, session, hit in fired:
                    self._fire(session, hit, detections)
                return
        for (session, request), prob in zip(
                self._pairs(round_, batch, where), probs):
            hit = self._complete(session, request, prob, latency_ms, False)
            if hit is not None:
                self._fire(session, hit, detections)

    def _infer_singly(self, pairs, detections) -> None:
        """Batch failed: isolate the poison by retrying one window at a
        time, so healthy streams still get their CNN verdicts."""
        stages = self._bank.stages
        for session, request in pairs:
            row = [session.detector.stage_row]
            t0 = self._clock()
            try:
                with batch_invariant():
                    prob = float(np.asarray(
                        self.model.predict(request.window[None])
                    ).reshape(-1)[0])
            except Exception:
                if stages is not None:
                    stages.flush(row)
                prob, latency_ms, failed = None, 0.0, True
            else:
                latency_ms = 1000.0 * (self._clock() - t0)
                if stages is not None:
                    stages.flush(row, latency_ms)
                self._inference_s += latency_ms / 1000.0
                self.windows_inferred += 1
                failed = False
            hit = self._complete(session, request, prob, latency_ms, failed)
            if hit is not None:
                self._fire(session, hit, detections)
            if self.slo is not None and not failed:
                self._record_slo(latency_ms, 1)

    def _record_slo(self, latency_ms: float, n: int) -> None:
        """Charge ``n`` completed windows to the error budgets.

        Every rider of a batch is charged the batch's wall-clock, exactly
        as the detector's deadline accounting does; ``now`` is stream
        time so burn-rate windows advance deterministically.
        """
        self.slo.record(
            latency_ms=latency_ms,
            deadline_miss=(latency_ms
                           > self.config.detector.effective_deadline_ms),
            n=n,
            now=self._stream_now,
        )

    def _complete(self, session, request, prob, latency_ms,
                  failed) -> Detection | None:
        """One window through :meth:`FallDetector.complete`; a detector
        that raises is quarantined."""
        try:
            return session.detector.complete(
                request, prob, latency_ms=latency_ms, failed=failed,
            )
        except Exception:
            self._quarantine(session)
            return None

    def _fire(self, session, hit, detections) -> None:
        session.detections += 1
        self.detections += 1
        detections.append((session.stream_id, hit))

    def _feed_alerts(self, detections) -> None:
        """Escalate this round's detections and advance alert timers.

        The manager's entry points are fail-safe (they contain their own
        exceptions), so alerting can never stall or poison the serve
        path — the same containment story as the AirbagController.
        """
        for stream_id, detection in detections:
            session = self._sessions.get(stream_id)
            self.alerts.observe(
                stream_id,
                t=detection.time_s,
                probability=detection.probability,
                source=detection.source,
                health=session.health if session is not None else "healthy",
                recorder=session.recorder if session is not None else None,
            )
        now = self._stream_now
        if now is not None:
            self.alerts.tick(now)

    def _quarantine(self, session, exc=None) -> None:
        session.errors += 1
        session.quarantined = True
        self._queues.pop(session.stream_id, None)
        session.queue.clear()
        self.stream_errors += 1
        if session.recorder is not None:
            # The most valuable capture of all: what the stream looked
            # like right before its detector broke the no-raise promise.
            session.recorder.mark("quarantined")
            session.recorder.flush()
        _logger.error(
            "detector for stream %r raised; quarantining the session",
            session.stream_id, exc_info=exc if exc is not None else True,
        )

    # ------------------------------------------------------------------
    # reporting
    # ------------------------------------------------------------------
    def _sync_metrics(self) -> None:
        self._active_gauge.set(float(len(self._sessions)))
        prefix = self.config.metric_prefix
        for name in ("samples_in", "dropped_samples", "rejected_streams",
                     "windows_inferred", "batches", "batch_errors",
                     "stream_errors", "detections"):
            total = getattr(self, name)
            delta = total - self._synced.get(name, 0)
            if delta:
                self.registry.counter(  # metric-name: dynamic
                    f"{prefix}/{name}").inc(delta)
                self._synced[name] = total

    @property
    def inference_seconds(self) -> float:
        """Cumulative wall-clock spent inside ``Model.predict``."""
        return self._inference_s

    @property
    def stream_ids(self) -> list[str]:
        return list(self._sessions)

    def stream_report(self) -> dict:
        """Per-stream health/counter view (see ``StreamSession.report``)."""
        return {sid: session.report()
                for sid, session in self._sessions.items()}

    def stream_health(self, stream_id: str) -> str:
        """Health state of one stream (``healthy`` for unknown streams)."""
        session = self._sessions.get(stream_id)
        return session.health if session is not None else "healthy"

    def fleet_latency(self) -> Histogram:
        """Every stream's per-window latency merged into one histogram.

        The per-stream histograms live on the detectors (identical bucket
        edges), so the fleet view is an exact merge, not an estimate.
        Returns a fresh histogram; pass it to
        :func:`repro.obs.render_exposition` via ``extra=`` — merging into
        the registry would double-count the per-stream series.
        """
        fleet = Histogram(buckets=_LATENCY_BUCKETS_MS)
        for session in self._sessions.values():
            fleet.merge(session.detector.latency)
        return fleet

    def fleet_stages(self) -> StageTimer | None:
        """Every stream's per-stage attribution: the engine's one stage
        timer.

        Each stream's detector charges its row of it, and every round
        flushes the round's completed windows in one call, so its
        histograms (off-registry, see :class:`repro.obs.StageTimer`) hold
        every stream's flushed windows — the live timer, not a copy.
        ``None`` when stage timing is disabled.
        """
        return self._bank.stages

    def slo_report(self) -> dict | None:
        """SLO + budget-attribution view: error-budget status per
        objective, burn-rate state per rule, and the per-stage latency
        attribution against the airbag budget.  ``None`` when SLO
        tracking is disabled."""
        if self.slo is None:
            return None
        report = self.slo.report(now=self._stream_now)
        fleet = self.fleet_stages()
        if fleet is not None:
            stage_report = fleet.report()
            report["stages"] = stage_report
            report["attribution"] = stage_attribution(
                stage_report, self.config.slo.latency_budget_ms)
        return report

    def incident_paths(self) -> list[str]:
        """Incident files written by every stream's flight recorder."""
        return [path for session in self._sessions.values()
                if session.recorder is not None
                for path in session.recorder.incident_paths]

    def flush_incidents(self) -> int:
        """Freeze any pending captures (shutdown / end of bench); returns
        how many incidents were flushed."""
        flushed = 0
        for session in self._sessions.values():
            if (session.recorder is not None
                    and session.recorder.flush() is not None):
                flushed += 1
        return flushed

    def report(self) -> dict:
        """Engine-level serving summary."""
        out = self._base_report()
        if self.alerts is not None:
            out["alerts"] = self.alerts.report()
        if self.slo is not None:
            out["slo"] = self.slo_report()
        return out

    def _base_report(self) -> dict:
        return {
            "backend": self.config.backend,
            "streams": len(self._sessions),
            "rounds": self.rounds,
            "last_round_t": self.last_round_t,
            "samples_in": self.samples_in,
            "dropped_samples": self.dropped_samples,
            "rejected_streams": self.rejected_streams,
            "windows_inferred": self.windows_inferred,
            "batches": self.batches,
            "batch_errors": self.batch_errors,
            "stream_errors": self.stream_errors,
            "detections": self.detections,
            "inference_seconds": self._inference_s,
            "batch_size": self._batch_size_hist.summary(),
            "batch_latency_ms": self._batch_latency_hist.summary(),
        }
