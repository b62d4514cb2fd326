"""Per-stream serving state: one hardened detector plus a bounded queue.

A :class:`StreamSession` is the unit the multi-stream engine schedules:
it owns the per-stream filter / ring-buffer / health state (a full
:class:`~repro.core.detector.FallDetector` driven in deferred-inference
mode), a bounded queue of flat ``(ax, ay, az, gx, gy, gz, t)`` float
rows (a ``submit`` appends one, a ``submit_block`` extends it by a
block's ``tolist()``; at capacity the oldest rows fall off), and the
per-stream accounting the engine reports.  Sessions neither ingest nor
run the model themselves: each round the engine drains every due
session into one block, ingests all of them in one lane-stacked
:func:`~repro.core.detector.ingest_lanes` call, and micro-batches the
staged :class:`~repro.core.detector.WindowRequest` objects across
streams.
"""

from __future__ import annotations

import math
from collections import deque
from itertools import chain

import numpy as np

from ..core.detector import DetectorConfig, FallDetector
from ..obs import FlightRecorder

__all__ = [
    "StreamSession",
    "block_length",
    "latest_timestamp",
    "sample_block",
    "sample_row",
]


def sample_row(accel_g, gyro_dps, t) -> tuple | None:
    """One queued sample as a flat ``(ax, ay, az, gx, gy, gz, t)`` tuple
    of floats that shares nothing with the caller (``t`` NaN when
    missing), or ``None`` when the sample is malformed — not three
    numbers per sensor, or a non-numeric timestamp — which both front
    doors refuse at submit.

    The one definition of a well-formed sample: any array-like holding
    three numbers per sensor, in any shape, is one.  Both front doors,
    :meth:`ServeEngine.submit <repro.serve.ServeEngine.submit>` and
    :meth:`FleetFront.submit <repro.fleet.FleetFront.submit>`, fall back
    to it whenever their fast path does not apply."""
    try:
        ax, ay, az = np.asarray(accel_g, dtype=float).reshape(3).tolist()
        gx, gy, gz = np.asarray(gyro_dps, dtype=float).reshape(3).tolist()
        return (ax, ay, az, gx, gy, gz, math.nan if t is None else float(t))
    except (TypeError, ValueError):
        return None


def sample_block(accel_g, gyro_dps, t=None) -> np.ndarray | None:
    """``n`` samples of one stream as a fresh ``(n, 7)`` float64 array of
    ``(ax, ay, az, gx, gy, gz, t)`` rows (``t`` NaN where missing), or
    ``None`` when the block is malformed: readings that are not ``(n,
    3)`` numbers per sensor, sensors of different lengths, or ``t``
    neither ``None`` nor ``n`` numbers.

    The one definition of a well-formed block, for both block front
    doors, :meth:`ServeEngine.submit_block
    <repro.serve.ServeEngine.submit_block>` and
    :meth:`FleetFront.submit_block <repro.fleet.FleetFront.submit_block>`.
    A ``None`` entry of ``t`` is a missing timestamp, like NaN."""
    try:
        accel = np.asarray(accel_g, dtype=float)
        gyro = np.asarray(gyro_dps, dtype=float)
        n = len(accel)
        t = np.full(n, math.nan) if t is None else np.asarray(t, dtype=float)
        if accel.shape != (n, 3) or gyro.shape != (n, 3) or t.shape != (n,):
            return None
        return np.concatenate((accel, gyro, t[:, None]), axis=1)
    except (TypeError, ValueError):
        return None


def latest_timestamp(rows) -> float:
    """The latest finite timestamp (``row[6]``) among flat sample rows,
    NaN when none has one.  A Python pass: for packet-sized blocks it
    costs less than a NumPy reduction's call overhead."""
    inf = math.inf
    latest = -inf
    for row in rows:
        if inf > row[6] > latest:
            latest = row[6]
    return latest if latest > -inf else math.nan


def block_length(accel_g) -> int:
    """Rows a block offers, as a refused one counts them: the length of
    its accelerometer readings, at least 1."""
    try:
        return max(len(accel_g), 1)
    except TypeError:
        return 1


class StreamSession:
    """One wearable stream inside a :class:`~repro.serve.ServeEngine`.

    ``queue`` holds the stream's submitted samples as flat float rows,
    bounded at ``queue_capacity`` (the engine's) so a full queue drops
    its oldest row; :meth:`drain_block` stacks them into one detector
    block each round.

    ``quarantined`` is the engine's outermost containment: the hardened
    detector promises never to raise, but if that promise is ever broken
    the engine flips this flag, drops the stream's queue and keeps serving
    everyone else — one faulty stream can never stall another.
    """

    __slots__ = (
        "stream_id",
        "detector",
        "recorder",
        "queue",
        "staged",
        "dropped_samples",
        "detections",
        "errors",
        "quarantined",
    )

    def __init__(
        self,
        stream_id: str,
        model,
        config: DetectorConfig,
        *,
        registry=None,
        metric_prefix: str = "serve/stream",
        per_stream_metrics: bool = True,
        flight=None,
        queue_capacity: int | None = None,
    ):
        prefix = (f"{metric_prefix}/{stream_id}" if per_stream_metrics
                  else metric_prefix)
        self.stream_id = stream_id
        #: Per-stream flight recorder (``None`` unless the engine config
        #: carries a :class:`repro.obs.FlightConfig`).
        self.recorder = (FlightRecorder(flight, stream_id=stream_id)
                         if flight is not None else None)
        self.detector = FallDetector(
            model, config, registry=registry, metric_prefix=prefix,
            recorder=self.recorder,
        )
        #: Queued rows, oldest first; appending to a full queue drops
        #: the oldest (the engine counts it as shed).
        self.queue: deque = deque(maxlen=queue_capacity)
        #: Requests staged by the stream's last ingest and not yet
        #: completed; the engine drains this every inference round.
        self.staged: list = []
        self.dropped_samples = 0
        self.detections = 0
        self.errors = 0
        self.quarantined = False

    def drain_block(self):
        """Pop every queued sample, stacked as one detector block.

        Returns ``(accel (n, 3), gyro (n, 3), t)`` where ``t`` is ``None``
        when no queued sample carried a timestamp, else a float array with
        NaN marking the untimestamped entries.  Submits queue only
        well-formed rows; should a malformed one ever reach the queue,
        the stacking raises and the engine's quarantine containment
        takes the stream out of service.
        """
        queue = self.queue
        n = len(queue)
        try:
            block = np.fromiter(chain.from_iterable(queue), float, 7 * n)
        finally:
            queue.clear()
        block = block.reshape(n, 7)
        t = block[:, 6]
        return (block[:, :3], block[:, 3:6],
                None if np.isnan(t).all() else t)

    @property
    def health(self) -> str:
        """The stream's health, folding in engine-level quarantine."""
        return "quarantined" if self.quarantined else self.detector.health

    def report(self) -> dict:
        """Per-stream serving view: health, queue and detector counters."""
        return {
            "health": self.health,
            "backend": getattr(self.detector, "backend", "float32"),
            "queue_depth": len(self.queue),
            "dropped_samples": self.dropped_samples,
            "detections": self.detections,
            "errors": self.errors,
            "deadline_violations": self.detector.deadline_violations,
            "fallback_detections": self.detector.fallback_detections,
            "cnn_shed": self.detector.health_report()["cnn_shed"],
            "incidents": (len(self.recorder.incidents)
                          if self.recorder is not None else 0),
        }
