"""The serving front door and per-stream serving state.

:class:`FrontDoor` is the one way samples enter the serve stack.  Its
``submit`` and ``submit_block`` copy well-formed samples
(:func:`sample_row`, :func:`sample_block`) into bounded per-stream
queues through one enqueue step, for both topologies:
:class:`~repro.serve.ServeEngine` and
:class:`~repro.fleet.FleetFront` subclass it and differ only in two
hooks — ``_admit``, which homes a stream seen for the first time (or
refuses it), and ``_shed``, which counts the oldest rows a full queue
drops — so the two doors accept exactly the same samples.

A :class:`StreamSession` is the unit the multi-stream engine schedules:
it owns the per-stream filter / ring-buffer / health state (a full
:class:`~repro.core.detector.FallDetector` driven in deferred-inference
mode, whose state is one row of the engine's
:class:`~repro.core.detector.LaneBank`), a bounded queue of flat
``(ax, ay, az, gx, gy, gz, t)`` float rows (a ``submit`` appends one, a
``submit_block`` extends it by a block's ``tolist()``; at capacity the
oldest rows fall off), and the per-stream accounting the engine
reports.  Sessions neither ingest nor run the model themselves: each
round the engine drains every due session's queue with one
``np.fromiter`` over all of them, ingests the round in one
:func:`~repro.core.detector.ingest_round` call, and micro-batches the
staged windows across streams — a clean lane's as one take from the
bank's window rings, any other lane's as
:class:`~repro.core.detector.WindowRequest` objects.
:meth:`StreamSession.drain_block` stacks one session's queue alone: the
round falls back to it when the one drain fails (a malformed row), so
only that stream is quarantined.
"""

from __future__ import annotations

import math
from collections import deque
from itertools import chain

import numpy as np

from ..core.detector import DetectorConfig, FallDetector
from ..obs import FlightRecorder

__all__ = [
    "FrontDoor",
    "StreamSession",
    "block_length",
    "latest_timestamp",
    "sample_block",
    "sample_row",
]

_F64 = np.dtype(np.float64)
_NAN = math.nan
_INF = math.inf


def sample_row(accel_g, gyro_dps, t) -> tuple | None:
    """One queued sample as a flat ``(ax, ay, az, gx, gy, gz, t)`` tuple
    of floats that shares nothing with the caller (``t`` NaN when
    missing), or ``None`` when the sample is malformed — not three
    numbers per sensor, or a non-numeric timestamp — which both front
    doors refuse at submit.

    The one definition of a well-formed sample: any array-like holding
    three numbers per sensor, in any shape, is one.
    :meth:`FrontDoor.submit` falls back to it whenever its fast path
    (two ``(3,)`` float64 arrays) does not apply."""
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

    The one definition of a well-formed block, for
    :meth:`FrontDoor.submit_block`.  A ``None`` entry of ``t`` is a
    missing timestamp, like NaN."""
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


class FrontDoor:
    """Bounded per-stream queues of flat ``(ax, ay, az, gx, gy, gz, t)``
    float rows, and the one rule for what gets into them.

    ``_queues`` maps every stream in service to its queue, each bounded
    at ``capacity`` rows: a full queue sheds its *oldest* rows (freshest
    data wins — a pre-impact detector must not fall behind).  A
    subclass supplies the two hooks that differ between topologies:
    ``_admit(stream_id, n)`` returns the queue of a stream not in
    ``_queues`` (having put it there), or ``None`` after counting its
    ``n`` refused rows; ``_shed(stream_id, n)`` counts ``n`` rows the
    stream's full queue is about to shed.

    ``samples_in`` counts queued rows, ``dropped_samples`` malformed
    ones (and whatever the hooks add), and the stream clock is the
    latest finite timestamp submitted (:attr:`_stream_now`).
    """

    def __init__(self, capacity: int):
        self._queues: dict[str, deque] = {}
        self._capacity = capacity               # read once per submit
        self.samples_in = 0
        self.dropped_samples = 0
        # Latest finite timestamp any sample carried (-inf before one
        # does): one chained comparison per sample keeps it current.
        self._latest_t = -_INF

    def submit(self, stream_id: str, accel_g, gyro_dps,
               t: float | None = None) -> bool:
        """Enqueue one sample; True when it is queued, False when it is
        refused.

        Never raises into the caller.  A malformed sample (not three
        numeric readings per sensor, or a non-numeric timestamp) is
        refused and counted in ``dropped_samples``, and the stream keeps
        serving; a stream ``_admit`` will not home is refused as that
        hook counts it.  A full queue sheds its *oldest* sample to make
        room (the new one is still queued).  The sample is copied into
        the queue, so a caller may reuse its buffers at once.
        """
        # Copy the readings into one flat row of floats: ``tolist`` on
        # the (3,) float64 ndarrays callers pass is the cheap path; any
        # other dtype, shape or type goes through sample_row, which
        # turns a malformed sample into None, refused here.  The dtype
        # test is an identity test, and an equality test only when that
        # misses (an unpickled array's float64 dtype is an equal copy;
        # a byte-swapped one is not equal).  ``tolist`` nests a list per
        # row for an array of two or more dimensions, and testing the
        # first reading for one is cheaper than ``ndim``.
        try:
            a_type, g_type = accel_g.dtype, gyro_dps.dtype
            if ((a_type is not _F64 and a_type != _F64)
                    or (g_type is not _F64 and g_type != _F64)):
                raise TypeError("not float64 readings")
            ax, ay, az = accel_g.tolist()
            gx, gy, gz = gyro_dps.tolist()
            if ax.__class__ is list or gx.__class__ is list:
                raise ValueError("not a (3,) reading")
            t = _NAN if t is None else float(t)
            row = (ax, ay, az, gx, gy, gz, t)
        except Exception:
            row = sample_row(accel_g, gyro_dps, t)
            if row is None:
                self.dropped_samples += 1
                return False
            t = row[6]
        queue = self._queue_for(stream_id, 1, t)
        if queue is None:
            return False
        queue.append(row)
        return True

    def submit_block(self, stream_id: str, accel_g, gyro_dps,
                     t=None) -> int:
        """Enqueue ``n`` samples of one stream (``accel_g`` and
        ``gyro_dps`` shaped ``(n, 3)``, ``t`` shaped ``(n,)`` or ``None``,
        NaN or ``None`` marking a missing timestamp); returns how many of
        them are queued.

        The block twin of :meth:`submit`, through the same enqueue step:
        any split of a stream into blocks yields the detections that
        per-sample submits of the same samples do.  Never raises: a
        block longer than the queue bound keeps its freshest rows (and
        sheds everything queued before it); a malformed block (see
        :func:`sample_block`) is refused whole, every row counted in
        ``dropped_samples``, and a block of a stream ``_admit`` refuses
        as that hook counts it.
        """
        block = sample_block(accel_g, gyro_dps, t)
        if block is None:
            self.dropped_samples += block_length(accel_g)
            return 0
        rows = block.tolist()
        n = len(rows)
        queue = self._queue_for(stream_id, n, latest_timestamp(rows))
        if queue is None:
            return 0
        queue.extend(rows)
        return min(n, self._capacity)

    def _queue_for(self, stream_id: str, n: int, t: float) -> deque | None:
        """Both submits' one enqueue step: the queue ``n`` new rows of
        ``stream_id`` go into, or ``None`` when ``_admit`` refuses them.

        Counts the rows in ``samples_in``, has ``_shed`` count the
        oldest rows the bounded queue will drop to make room for them,
        and advances the stream clock to ``t`` (the rows' latest
        timestamp) when it is finite; the caller then appends the rows.
        Queues only grow between rounds, so a round reads their peak
        depth off them and nothing here tracks it.
        """
        try:
            queue = self._queues[stream_id]
        except KeyError:
            queue = self._admit(stream_id, n)
            if queue is None:
                return None
        if len(queue) + n > self._capacity:
            self._shed(stream_id, len(queue) + n - self._capacity)
        self.samples_in += n
        if _INF > t > self._latest_t:
            # The stream clock drives alert expiry and SLO windows even
            # on rounds with no detections.  A non-finite timestamp is
            # "missing" and never advances it (NaN and inf fail the
            # comparison).
            self._latest_t = t
        return queue

    @property
    def _stream_now(self) -> float | None:
        """The stream clock: the latest finite timestamp submitted, or
        ``None`` before any sample carried one."""
        return self._latest_t if self._latest_t > -_INF else None

    def _admit(self, stream_id: str, n: int) -> deque | None:
        raise NotImplementedError

    def _shed(self, stream_id: str, n: int) -> None:
        raise NotImplementedError


class StreamSession:
    """One wearable stream inside a :class:`~repro.serve.ServeEngine`.

    ``queue`` holds the stream's submitted samples as flat float rows,
    bounded at ``queue_capacity`` (the engine's) so a full queue drops
    its oldest row; the engine drains every due queue at once each
    round, or each with :meth:`drain_block` when that fails.  ``bank``
    is the engine's :class:`~repro.core.detector.LaneBank`, which the
    detector joins from the start (``None``: a bank of its own).

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
        bank=None,
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
            recorder=self.recorder, _bank=bank,
        )
        #: Queued rows, oldest first; appending to a full queue drops
        #: the oldest (the engine counts it as shed).
        self.queue: deque = deque(maxlen=queue_capacity)
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
