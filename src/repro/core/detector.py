"""Streaming real-time fall detector and airbag controller.

This is the deployment-side view of the method: samples arrive one at a
time (100 Hz), the firmware fuses Euler angles, low-pass filters the
9-channel stream *causally* (zero-phase filtering needs the future, so
real time uses the forward-only Butterworth — same coefficients), keeps a
ring buffer one window long and runs the CNN every hop.

Unlike the offline pipeline, the live path cannot assume a perfect
stream.  The one ingest path — :func:`ingest_lanes`, which takes many
streams' blocks at once; :meth:`FallDetector.push_block` is its
one-lane call, and ``push`` runs it with a single row —
therefore validates and repairs every sample (NaN/Inf → hold-last, rail
clamping, exact-repeat streaks for stuck channels and dead sensors),
bridges short timestamp gaps by interpolation, resets and re-primes its
streaming state after long ones, and tracks a three-state health
machine.  ``push`` ingests a hop at a time: a row that provably changes
nothing a caller can see (a healthy detector past warm-up, a clean
reading on the clean next tick, no window due, no stuck/dead limit
within reach) is held, and the held rows go in as one block on the row
before the next window row, or as soon as anything could see them.
The state its stacked kernels consume — filter sections, fusion angles,
the fallback smoother, the repeat streaks and the last readings — lives
in a :class:`LaneBank` as ``(streams, ...)`` arrays; each detector is
one row, and the serving engine keeps all its streams in one bank, so a
round's phases index the bank instead of gathering per-detector state.
Health states:

``healthy``
    Clean stream, CNN path nominal.
``degraded``
    Recoverable trouble — repaired samples, filled gaps, a warm-up after
    a long-gap reset, stuck channels, or a deadline-violation streak.
    The CNN remains authoritative; the fallback shadows it.
``fault``
    The CNN path is unusable — no model, inference raised or returned
    non-finite, the deadline was missed ``shed_after_violations`` times in
    a row (load shedding), or the gyroscope is dead.  The cheap
    accelerometer-magnitude fallback becomes authoritative so the airbag
    is never left unguarded.

Transitions: any anomaly lifts ``healthy`` to ``degraded``; a standing
fault condition forces ``fault``; once the condition clears the state
steps down one level, reaching ``healthy`` after ``recovery_samples``
consecutive clean samples.  Counters and the current state are exported
through the :mod:`repro.obs` metrics registry.

:class:`AirbagController` adds the actuation logic: a single trigger
commits to inflation, which takes 150 ms to complete — the reason the
paper withholds the last 150 ms of the falling phase from training.  The
controller is *fail-safe*: a misbehaving detector can never disarm it (an
exception from ``push`` is contained and counted), and fallback-sourced
detections fire the bag exactly like CNN ones.
"""

from __future__ import annotations

import math
import time
import weakref
from bisect import bisect_left
from collections import namedtuple
from dataclasses import asdict, dataclass
from functools import lru_cache
from itertools import accumulate
from operator import attrgetter

import numpy as np

from ..obs import STAGES, Histogram, StageTimer, get_logger, get_registry
from ..signal.filters import OnlineSosFilter, butter_lowpass_sos
from ..signal.orientation import ComplementaryFilter

__all__ = [
    "DetectorConfig",
    "Detection",
    "WindowRequest",
    "FallDetector",
    "MagnitudeFallback",
    "LaneBank",
    "ingest_lanes",
    "AirbagController",
    "HEALTHY",
    "DEGRADED",
    "FAULT",
    "HEALTH_STATES",
]

_logger = get_logger(__name__)

#: Histogram edges tuned for inference latency in milliseconds: 10 µs
#: resolution at the bottom, covering up to ~84 s in the overflow tail.
_LATENCY_BUCKETS_MS = tuple(0.01 * 2 ** i for i in range(23))

#: Columns of a stage timer's pending costs (:data:`repro.obs.STAGES`).
_INGEST, _FUSION, _FILTER, _WINDOW, _DECISION = (
    STAGES.index(stage)
    for stage in ("ingest", "fusion", "filter", "window", "decision"))

#: Detector health states, in increasing order of severity.
HEALTHY = "healthy"
DEGRADED = "degraded"
FAULT = "fault"
HEALTH_STATES = (HEALTHY, DEGRADED, FAULT)
_HEALTH_LEVEL = {HEALTHY: 0, DEGRADED: 1, FAULT: 2}

#: Bootstrap for hold-last repair before any finite sample was seen:
#: 1 g gravity on z for the accelerometer, zero rates for the gyro.
_REPAIR_DEFAULTS = np.array([0.0, 0.0, 1.0, 0.0, 0.0, 0.0])
_REPAIR_DEFAULTS.setflags(write=False)


@lru_cache(maxsize=None)
def _design(config: "DetectorConfig") -> "_Design":
    """One :class:`_Design` per distinct config, shared by every detector
    built with it: lanes stack only with lanes whose design is the same
    object."""
    return _Design(config)


def _running_streak(cond: np.ndarray, start: np.ndarray) -> np.ndarray:
    """Per-column lengths of consecutive True runs down the rows of
    ``cond`` ``(..., n, columns)``, seeded by ``start`` ``(...,
    columns)`` — one block ``(n, columns)``, or many lanes' blocks
    ``(lanes, n, columns)`` with one carried start per lane.

    Row ``i`` holds what ``s = np.where(cond[..., i, :], s + 1, 0)``
    applied row by row would: within the block a streak is (1-based row)
    minus the last False row, and runs unbroken since row 0 continue the
    carried ``start``.  Exact integer arithmetic — bit-identity is
    trivial.
    """
    start = start[..., None, :]
    if cond.shape[-2] == 1:
        return np.where(cond, start + 1, 0)
    idx = np.arange(1, cond.shape[-2] + 1)[:, None]
    last_false = np.maximum.accumulate(np.where(cond, 0, idx), axis=-2)
    streak = idx - last_false
    return np.where(last_false == 0, streak + start, streak)


@dataclass(frozen=True)
class DetectorConfig:
    """Runtime configuration of the streaming detector (paper defaults)."""

    window_ms: float = 400.0
    overlap: float = 0.5
    fs: float = 100.0
    threshold: float = 0.5
    filter_cutoff_hz: float = 5.0
    filter_order: int = 4
    #: Must match the training-time ``PreprocessConfig.channel_scales``.
    channel_scales: tuple = (1.0, 1.0, 1.0, 100.0, 100.0, 100.0,
                             45.0, 45.0, 45.0)
    #: Debounce: require this many *consecutive* above-threshold windows
    #: before emitting a detection.  1 = trigger on the first hit (the
    #: paper's event rule); 2 trades ~hop_ms of latency for fewer false
    #: activations (see the ablation benchmark).
    consecutive_required: int = 1
    #: Real-time deadline for one window inference, in milliseconds.
    #: ``None`` uses the hop interval — inference slower than the hop
    #: cannot keep up with the 100 Hz stream.  The deadline monitor counts
    #: every violation and keeps a latency histogram.
    deadline_ms: float | None = None
    #: Sensor rails: readings outside these ranges are clamped and counted
    #: as saturation anomalies (a ±16 g / ±2000 dps IMU, the usual wearable
    #: part).
    accel_range_g: float = 16.0
    gyro_range_dps: float = 2000.0
    #: Longest timestamp gap bridged by interpolated fill samples; anything
    #: longer resets the streaming state (filter, fusion, ring buffer) and
    #: re-primes from the next sample.
    max_gap_ms: float = 200.0
    #: Consecutive deadline violations that mark the stream ``degraded``.
    degraded_after_violations: int = 3
    #: Consecutive deadline violations that shed the CNN (``fault``); the
    #: fallback takes over and the CNN is retried after
    #: ``shed_retry_hops`` hops.
    shed_after_violations: int = 8
    shed_retry_hops: int = 25
    #: Clean samples required to step health back toward ``healthy``.
    recovery_samples: int = 50
    #: A channel repeating the same value this many samples is stuck (real
    #: IMU noise never repeats exactly); a sensor with all three channels
    #: stuck (or non-finite) this long is dead.
    stuck_channel_samples: int = 25
    dead_sensor_samples: int = 100
    #: Arm the accelerometer-magnitude fallback detector.  When the CNN
    #: path is unavailable (``fault``, or its window still warming up) the
    #: fallback's triggers are emitted so the airbag stays guarded.
    fallback: bool = True
    #: Per-stage latency attribution (:class:`repro.obs.StageTimer`):
    #: clock reads at each pipeline phase's boundaries, charged to the
    #: stream's row of its lane bank's timer and flushed into
    #: off-registry histograms as windows complete.  The clock reads
    #: cannot perturb the data path, so ``push_block`` stays bit-identical
    #: to the per-sample oracle with timing enabled; the overhead is a
    #: handful of ``perf_counter`` calls per block.
    stage_timing: bool = True

    def __post_init__(self):
        if self.consecutive_required < 1:
            raise ValueError(
                f"consecutive_required must be >= 1, got "
                f"{self.consecutive_required}"
            )
        if self.deadline_ms is not None and self.deadline_ms < 0:
            raise ValueError(
                f"deadline_ms must be non-negative, got {self.deadline_ms}"
            )
        if self.accel_range_g <= 0 or self.gyro_range_dps <= 0:
            raise ValueError("sensor ranges must be positive")
        if self.max_gap_ms < 0:
            raise ValueError("max_gap_ms must be non-negative")
        if self.stuck_channel_samples < 1 or self.dead_sensor_samples < 1:
            raise ValueError(
                "stuck_channel_samples and dead_sensor_samples must be >= 1"
            )
        if not (1 <= self.degraded_after_violations
                <= self.shed_after_violations):
            raise ValueError(
                "need 1 <= degraded_after_violations <= shed_after_violations"
            )

    @property
    def window_samples(self) -> int:
        return int(round(self.window_ms * self.fs / 1000.0))

    @property
    def hop_samples(self) -> int:
        return max(1, int(round(self.window_samples * (1.0 - self.overlap))))

    @property
    def effective_deadline_ms(self) -> float:
        """The configured deadline, defaulting to the hop interval."""
        if self.deadline_ms is not None:
            return self.deadline_ms
        return 1000.0 * self.hop_samples / self.fs


@dataclass(frozen=True)
class Detection:
    """One detector firing.  ``source`` is ``"cnn"`` for the model path,
    ``"fallback"`` for the magnitude threshold path."""

    sample_index: int
    time_s: float
    probability: float
    source: str = "cnn"


@dataclass(frozen=True)
class WindowRequest:
    """One CNN window inference staged by :meth:`FallDetector.push_block`.

    Captures everything the deferred decision needs at staging time: a
    *copy* of the filtered/scaled window (the ring buffer keeps moving),
    the sample index and timestamp the eventual :class:`Detection` must
    carry, and whether the magnitude fallback fired on that sample (so a
    failed inference can still fall back on that evidence).  Pass it
    back to :meth:`FallDetector.complete` with the model's probability.
    """

    window: np.ndarray
    sample_index: int
    time_s: float
    fallback_hit: bool


class MagnitudeFallback:
    """Streaming accelerometer-magnitude detector (PIPTO-style, accel only).

    The fail-safe twin of the CNN: a trailing-average magnitude dip below
    ``low_g`` arms a watch window; if the raw magnitude range inside the
    next ``horizon_ms`` exceeds ``range_g`` (the growing agitation of an
    uncontrolled descent) it triggers.  Needs nothing but the repaired
    accelerometer stream, so it survives every gyro/fusion/CNN failure.

    Tuned slightly hotter than the offline
    :class:`~repro.core.thresholds.AccelerationWindowDetector` — a backup
    guarding an airbag should prefer a spurious inflation to an
    unprotected impact.
    """

    def __init__(
        self,
        fs: float = 100.0,
        low_g: float = 0.90,
        range_g: float = 0.12,
        smooth_ms: float = 60.0,
        horizon_ms: float = 350.0,
    ):
        self.fs = float(fs)
        self.low_g = float(low_g)
        self.range_g = float(range_g)
        self._k = max(1, int(round(smooth_ms * fs / 1000.0)))
        self._horizon = max(2, int(round(horizon_ms * fs / 1000.0)))
        self.reset()

    def reset(self) -> None:
        self._state = self.initial_state()

    def initial_state(self) -> list:
        """A fresh stream's state row (see :meth:`push_lanes`)."""
        return [0.0] * self._k + [0.0, np.inf, -np.inf]

    def push(self, accel_g) -> bool:
        """Feed one repaired accel sample; True when the dip+range fires."""
        return self._steps(self._state, [accel_g])[0]

    def push_lanes(self, state: np.ndarray, accel_g) -> np.ndarray:
        """:meth:`push` over many streams' blocks at once, their state
        held by the caller.

        ``state`` holds one row per stream, advanced in place: the last
        ``k - 1`` magnitudes (oldest first, zero-padded on the left), the
        smoother's fill, then the dip watch's countdown, minimum and
        maximum.  ``accel_g`` stacks one repaired block per stream as
        ``(lanes, n, 3)``.  Magnitudes and trailing means are array ops
        over every row of every lane — the padding 0.0 is exact to add to
        a magnitude and the means divide by the true fill — summing
        oldest first like :meth:`push`; the dip watch, sequential but
        idle off a dip, then runs per lane only where a lane dips or is
        already watching.  Returns the per-row hits, ``(lanes, n)``
        bools.
        """
        k = self._k
        lanes, n = accel_g.shape[:2]
        x, y, z = accel_g[:, :, 0], accel_g[:, :, 1], accel_g[:, :, 2]
        mag = np.sqrt(x * x + y * y + z * z)
        history = np.concatenate([state[:, :k - 1], mag], axis=1)
        total = history[:, :n].copy()
        for j in range(1, k):
            total += history[:, j:j + n]
        fill = state[:, k - 1:k]
        smooth = total / np.minimum(k, fill + np.arange(1, n + 1))
        dips = smooth < self.low_g
        hits = np.zeros((lanes, n), dtype=bool)
        for lane in np.flatnonzero(dips.any(axis=1)
                                   | (state[:, k] > 0)).tolist():
            watch = state[lane, k:].tolist()
            hits[lane] = self._watch(watch, mag[lane].tolist(),
                                     dips[lane].tolist())
            state[lane, k:] = watch
        state[:, :k - 1] = history[:, n:]
        np.minimum(fill + n, k, out=fill)
        return hits

    def _steps(self, state: list, rows) -> list[bool]:
        """:meth:`push` for each ``(x, y, z)`` of ``rows`` on one stream's
        state row held as a list (:meth:`push_lanes`' layout), advanced
        in place: a trailing-mean smoother summed oldest first, then the
        dip watch.  Scalar steps on a list, so a lane alone pays no array
        conversion per row."""
        k = self._k
        history = state[:k - 1]
        fill = state[k - 1]
        low_g = self.low_g
        mags, dips = [], []
        for x, y, z in rows:
            # math.sqrt over an explicit sum matches np.linalg.norm
            # bitwise on a 3-vector (same left-to-right accumulation) at
            # a fraction of the per-call cost.
            mag = math.sqrt(x * x + y * y + z * z)
            history.append(mag)
            total = 0.0
            for value in history[-k:]:
                total += value
            if fill < k:
                fill += 1.0
            mags.append(mag)
            dips.append(total / fill < low_g)
        del history[:len(mags)]
        history.append(fill)
        state[:k] = history
        if state[k] > 0 or True in dips:
            watch = state[k:]
            hits = self._watch(watch, mags, dips)
            state[k:] = watch
        else:
            hits = [False] * len(mags)
        return hits

    def _watch(self, watch: list, mags, dips) -> list[bool]:
        """The dip watch over precomputed magnitudes and dip flags, one
        hit per row; ``watch`` is ``[countdown, minimum, maximum]``,
        advanced in place."""
        hits = []
        watch_left, lo, hi = watch
        horizon = self._horizon
        range_g = self.range_g
        for mag, dip in zip(mags, dips):
            if dip:
                if watch_left <= 0:        # new episode: reset the extremes
                    lo = hi = mag
                watch_left = horizon
            hit = False
            if watch_left > 0:
                watch_left -= 1
                lo = min(lo, mag)
                hi = max(hi, mag)
                if hi - lo >= range_g:
                    watch_left = 0         # re-arm via the next dip
                    hit = True
            hits.append(hit)
        watch[:] = (watch_left, lo, hi)
        return hits


#: One detector's row of a :class:`LaneBank`, or a group's gathered rows:
#: the state the stacked kernels consume, each ``(lanes, ...)``.
_BankRows = namedtuple(
    "_BankRows", "sos angles fb_state streaks raw ring filled since")

#: The fields a long-gap reset starts over: filter, fusion and the
#: window ring with its cadence counters.
_STREAM_FIELDS = ("sos", "angles", "ring", "filled", "since")

#: The windows a stacked group staged for its clean lanes, as arrays in
#: lane order, then row order: each window's lane (its index in the
#: group's or round's lane list), bank row, sample index, timestamp and
#: whether the fallback fired on its row (:class:`WindowRequest`'s
#: fields), and the windows themselves ``(k, window_n, 9)``.
_Staged = namedtuple("_Staged",
                     "lane row sample_index time_s fallback_hit windows")


class _Design:
    """What a detector derives from its config once: the stream kernels
    (one SOS design, fusion and fallback tunings) and the constants the
    ingest phases read."""

    def __init__(self, cfg: DetectorConfig):
        self.config = cfg
        self.filter = OnlineSosFilter(
            butter_lowpass_sos(cfg.filter_order, cfg.filter_cutoff_hz,
                               cfg.fs), channels=9)
        self.fusion = ComplementaryFilter(fs=cfg.fs)
        self.fallback = MagnitudeFallback(fs=cfg.fs) if cfg.fallback else None
        self.window_n = cfg.window_samples
        self.hop_n = cfg.hop_samples
        self.dt_nom = 1.0 / cfg.fs
        self.max_gap_ms = cfg.max_gap_ms
        self.scales = np.asarray(cfg.channel_scales, dtype=float)
        self.rails = np.array([cfg.accel_range_g] * 3
                              + [cfg.gyro_range_dps] * 3)
        self.limits = np.array([cfg.stuck_channel_samples] * 6
                               + [cfg.dead_sensor_samples] * 2)
        fb = self.fallback.initial_state() if self.fallback else []
        #: Per bank field: row shape, dtype and a fresh row.
        self.layout = _BankRows(
            sos=((9,) + self.filter._zi_template.shape, float, np.nan),
            angles=((3,), float, np.nan),
            fb_state=((len(fb),), float, fb),
            streaks=((8,), np.intp, [-1] * 6 + [0, 0]),
            raw=((2, 6), float, [[np.nan] * 6, _REPAIR_DEFAULTS]),
            ring=((self.window_n, 9), float, 0.0),
            filled=((), np.intp, 0),
            since=((), np.intp, 0),
        )


class LaneBank:
    """The state the stacked ingest kernels consume, for detectors
    sharing one config, held as ``(streams, ...)`` arrays — the kernels'
    own layout.

    Row ``r`` of each array is one detector's state:

    * ``sos`` — its Butterworth sections as the compiled kernel filters
      them in place, and ``angles`` its complementary filter (both NaN:
      unprimed; these two are what a long-gap reset clears);
    * ``fb_state`` — the magnitude fallback's smoother and dip watch
      (:meth:`MagnitudeFallback.push_lanes`);
    * ``streaks`` — the six stuck-channel and two dead-sensor run lengths
      (a channel's is -1 before the stream's first sample, which has
      nothing to repeat), and ``raw`` the last exact reading (NaN
      before any) over the last repaired one: hold-last repair's carry
      and gap interpolation's start;
    * ``ring`` — the last ``window_n`` filtered, scaled rows (oldest
      first), ``filled`` how many of them are real (the warm-up) and
      ``since`` the rows since the last due window: window assembly's
      state (:func:`_window`), so a group's due windows are one take.

    Each detector holds views of its row (``_views``, each ``(1, ...)``
    — a group of one), which the bank re-points whenever it reallocates.
    A standalone detector is a bank of one; the serving engine builds
    every stream's detector into its bank (:meth:`add`, or
    :meth:`attach` for one built elsewhere), so a round's stacked phases
    gather and scatter each field of all their lanes with one index
    operation.  A lane alone advances its row in place through those
    views, so the row is always the detector's whole stream state but
    its clock, which stays on the detector.

    With ``config.stage_timing`` the bank holds one
    :class:`~repro.obs.StageTimer` (``stages``) for all its detectors:
    row ``r`` of its pending costs is row ``r``'s stream, so a stacked
    pass charges its rows with one vectorized add.  ``round_flush`` says
    who closes out completed windows: each detector's
    :meth:`FallDetector.complete` (false, a standalone detector), or the
    bank's owner once per inference round (true, the serving engine).
    """

    def __init__(self, config: DetectorConfig, *, stage_clock=None,
                 round_flush: bool = False):
        self.design = _design(config)
        self.stages = (StageTimer(clock=stage_clock)
                       if config.stage_timing else None)
        self.round_flush = round_flush
        self._members = weakref.WeakSet()
        self.size = 0
        self.capacity = 0
        self._grow(1)

    def _grow(self, capacity: int) -> None:
        for name, (shape, dtype, _) in zip(_BankRows._fields,
                                           self.design.layout):
            arr = np.empty((capacity,) + shape, dtype=dtype)
            if self.size:
                arr[:self.size] = getattr(self, name)[:self.size]
            setattr(self, name, arr)
        if self.stages is not None:
            self.stages.reserve(capacity)
        self.capacity = capacity
        for det in self._members:
            det._views = self.gather(slice(det._row, det._row + 1))

    def add(self, detector: "FallDetector") -> None:
        """Give ``detector`` a fresh row (the bank doubles when full)."""
        if self.size == self.capacity:
            self._grow(2 * self.capacity)
        row = self.size
        self.size += 1
        detector._bank, detector._row = self, row
        detector._views = self.gather(slice(row, row + 1))
        self._members.add(detector)
        self.reset(row)

    def reset(self, row: int, *, stream_only: bool = False) -> None:
        """Make ``row`` fresh: the filter, fusion and window state, and
        with ``stream_only`` false every field and its pending stage
        costs."""
        for name, (_, _, fresh) in zip(_BankRows._fields,
                                       self.design.layout):
            if not stream_only or name in _STREAM_FIELDS:
                getattr(self, name)[row] = fresh
        if not stream_only and self.stages is not None:
            self.stages.discard_pending(row)

    def attach(self, detector: "FallDetector") -> None:
        """Move ``detector``'s state, pending stage costs included, into
        a new row of this bank (and so onto this bank's stage timer)."""
        old = detector._bank
        if old is self:
            return
        if old.design.config != self.design.config:
            raise ValueError("a bank holds detectors of one config")
        detector._flush_held()
        values = detector._views
        old_row = detector._row
        self.add(detector)
        self.scatter(slice(detector._row, detector._row + 1), values)
        if self.stages is not None:
            self.stages.pending[detector._row] = old.stages.pending[old_row]
        old._members.discard(detector)

    def gather(self, rows) -> _BankRows:
        """Every field at ``rows``: views for a slice, copies for an index
        array."""
        return _BankRows(self.sos[rows], self.angles[rows],
                         self.fb_state[rows], self.streaks[rows],
                         self.raw[rows], self.ring[rows], self.filled[rows],
                         self.since[rows])

    def scatter(self, rows, state: _BankRows) -> None:
        for name, value in zip(_BankRows._fields, state):
            getattr(self, name)[rows] = value


class FallDetector:
    """Sample-by-sample detector around any trained window model.

    ``model`` is anything with ``predict(x)`` accepting ``(1, window, 9)``
    and returning a sigmoid probability — a float :class:`repro.nn.Model`
    or a quantized :class:`repro.quant.QuantizedModel`.  ``model=None``
    disables the CNN branch entirely: the detector runs fallback-only and
    reports ``fault`` health (the primary path is unavailable).

    ``push`` never raises on bad *data* (non-finite readings, saturated
    rails, missing samples, a dead sensor) and never emits a non-finite
    probability; see the module docstring for the health state machine.
    The state the stacked ingest kernels consume is this detector's row
    of a :class:`LaneBank` — its own bank of one until
    :meth:`LaneBank.attach` moves it into a shared one.

    ``registry`` / ``metric_prefix`` namespace the exported metrics per
    instance.  The defaults (the process-wide registry, prefix
    ``"detector"``) keep the historical single-detector metric names;
    anything running several detectors in one process — tests, the
    multi-stream serving engine — must pass a distinct prefix (or its own
    registry) per instance, otherwise all instances write the same
    ``detector/health`` gauge and share one set of counters.
    """

    def __init__(
        self,
        model,
        config: DetectorConfig | None = None,
        *,
        registry=None,
        metric_prefix: str = "detector",
        recorder=None,
        stage_clock=None,
        _bank: LaneBank | None = None,
    ):
        self.model = model
        self.config = config or DetectorConfig()
        #: Optional :class:`repro.obs.FlightRecorder` riding along; the
        #: detector feeds it every sample/window/decision/health event.
        self.recorder = recorder
        cfg = self.config
        # The streaming state, stage timer included: this detector's row
        # of a bank of one until a LaneBank.attach moves it into a shared
        # one, or from the start a row of `_bank` (the serving engine's,
        # so a new stream builds no bank or stage timer of its own).
        # `stage_clock` is injectable for deterministic tests.
        if _bank is None:
            _bank = LaneBank(cfg, stage_clock=stage_clock)
        elif _bank.design.config != cfg:
            raise ValueError("a bank holds detectors of one config")
        _bank.add(self)
        self._window_n = cfg.window_samples
        self._deadline = cfg.effective_deadline_ms
        # Deadline monitor: one latency sample per window inference.  A
        # perf_counter pair per hop (every ~200 ms of stream) is noise next
        # to the CNN forward pass, so this is always on.
        self.latency = Histogram(buckets=_LATENCY_BUCKETS_MS)
        self._deadline_violations = 0
        self._metrics = registry if registry is not None else get_registry()
        self._metric_prefix = str(metric_prefix)
        self._health_gauge = self._metrics.gauge(
            f"{self._metric_prefix}/health"
        )
        self._init_stream_state()
        self._init_health_state()
        if recorder is not None:
            recorder.bind(
                config=asdict(cfg),
                has_model=model is not None,
                snapshot_fn=lambda: {
                    "health": self.health_report(),
                    "latency": self.latency_report(),
                },
            )

    def _counter(self, name: str):
        """A registry counter under this instance's metric namespace."""
        return self._metrics.counter(  # metric-name: dynamic
            f"{self._metric_prefix}/{name}")

    # ------------------------------------------------------------------
    # state management
    # ------------------------------------------------------------------
    def _init_stream_state(self) -> None:
        self._bank.reset(self._row, stream_only=True)
        # Rows push holds back (see _hold): readings, timestamps, and how
        # many more may join before the held block must go in.
        self._held = np.empty((self._bank.design.hop_n, 6))
        self._held_t: list = []
        self._held_room = 0

    def _init_health_state(self) -> None:
        self._bank.reset(self._row)
        self._last_t: float | None = None
        self._sample_index = -1
        self._hit_streak = 0
        self._health = HEALTHY
        self._health_gauge.set(0.0)
        self._transitions: list[tuple[int, str, str]] = []
        self._clean_streak = 0
        self._consecutive_violations = 0
        self._cnn_shed = False
        self._shed_hops_left = 0
        # push_block pins the dead-sensor flags to each row's epoch while
        # replaying decisions (the streaks already hold end-of-block state
        # by then); None outside the block control loop.
        self._dead_override: tuple[bool, bool] | None = None
        # The block's sample rows not yet handed to the recorder (see
        # _record_rows); None outside the block control loop.
        self._rows: tuple | None = None
        self._rows_done = 0
        self.repaired_samples = 0
        self.saturated_samples = 0
        self.gap_filled_samples = 0
        self.stream_resets = 0
        self.clock_anomalies = 0
        self.inference_errors = 0
        self.fallback_detections = 0
        if self._standing_fault():      # e.g. constructed without a model
            self._health = FAULT
            self._health_gauge.set(float(_HEALTH_LEVEL[FAULT]))

    def reset(self, *, preserve_latency_stats: bool = False) -> None:
        """Forget all streaming state — a reset detector is
        indistinguishable from a freshly constructed one.

        That includes the debounce streak, the health machine, the
        deadline monitor and the stage timer (only this stream's pending
        costs when it shares its bank's timer).  Pass
        ``preserve_latency_stats=True`` to keep the latency histogram,
        violation counter and flushed stage statistics across trials when
        the statistics should describe the deployment rather than one
        stream (e.g. ``repro profile``).
        """
        self._init_stream_state()
        self._init_health_state()       # drops the pending stage costs
        if not preserve_latency_stats:
            self.latency.reset()
            self._deadline_violations = 0
            if self.stages is not None and not self._bank.round_flush:
                # A timer of its own starts over too; an engine's keeps
                # every stream's statistics, whatever its stream count.
                self.stages.reset()
        if self.recorder is not None:
            self.recorder.note_reset()

    def note_interruption(self, last_t: float | None = None) -> None:
        """Mark this detector as taking over an interrupted stream.

        Fleet failover rebuilds a crashed worker's sessions from recorded
        config; the rebuilt detector must not pretend the stream was
        continuous.  Seeding the timestamp tracker with the stream's last
        seen ``last_t`` routes the next sample through the normal gap
        machinery (an outage longer than ``max_gap_ms`` resets and
        re-primes exactly like a mid-stream dropout), and the takeover is
        recorded as an anomaly so health reads ``degraded`` until
        ``recovery_samples`` clean samples pass — degraded-then-healthy,
        never silently healthy.
        """
        self._flush_held()
        if last_t is not None and math.isfinite(last_t):
            self._last_t = float(last_t)
        self._update_health(anomaly=True)

    # ------------------------------------------------------------------
    # reporting
    # ------------------------------------------------------------------
    @property
    def stages(self) -> StageTimer | None:
        """The stage timer charged for this detector (its lane bank's:
        shared by every stream of a serving engine), or ``None`` when
        ``config.stage_timing`` is off."""
        return self._bank.stages

    @property
    def stage_row(self) -> int:
        """This detector's row of :attr:`stages`' pending costs."""
        return self._row

    @property
    def deadline_violations(self) -> int:
        """Window inferences that exceeded ``config.effective_deadline_ms``."""
        return self._deadline_violations

    @property
    def health(self) -> str:
        """Current health state: healthy / degraded / fault."""
        return self._health

    @property
    def backend(self) -> str:
        """Numeric backend of the window model: ``"int8"`` when serving
        a :class:`~repro.quant.QuantizedModel`, ``"float32"`` for a
        float graph, ``"none"`` for fallback-only deployments."""
        if self.model is None:
            return "none"
        from ..quant.qmodel import QuantizedModel

        return ("int8" if isinstance(self.model, QuantizedModel)
                else "float32")

    @property
    def health_transitions(self) -> list[tuple[int, str, str]]:
        """``(sample_index, from_state, to_state)`` transition log."""
        return list(self._transitions)

    def health_report(self) -> dict:
        """Stream-hygiene view: health state plus every anomaly counter."""
        return {
            "health": self._health,
            "backend": self.backend,
            "transitions": len(self._transitions),
            "states_seen": sorted(
                {self._health} | {t[2] for t in self._transitions}
                | {t[1] for t in self._transitions},
                key=_HEALTH_LEVEL.get,
            ),
            "repaired_samples": self.repaired_samples,
            "saturated_samples": self.saturated_samples,
            "gap_filled_samples": self.gap_filled_samples,
            "stream_resets": self.stream_resets,
            "clock_anomalies": self.clock_anomalies,
            "inference_errors": self.inference_errors,
            "fallback_detections": self.fallback_detections,
            "cnn_shed": self._cnn_shed,
            "deadline_violations": self._deadline_violations,
        }

    def latency_report(self) -> dict:
        """Per-window inference latency summary against the deadline."""
        stats = self.latency.summary()
        count = stats["count"]
        return {
            "inferences": count,
            "deadline_ms": self.config.effective_deadline_ms,
            "violations": self._deadline_violations,
            "violation_rate": self._deadline_violations / count if count else 0.0,
            "mean_ms": stats["mean"],
            "p50_ms": stats["p50"],
            "p95_ms": stats["p95"],
            "p99_ms": stats["p99"],
            "max_ms": stats["max"],
        }

    def stage_report(self) -> dict | None:
        """Per-stage latency attribution (see :class:`repro.obs.StageTimer`)
        of every stream sharing :attr:`stages`, or ``None`` when
        ``config.stage_timing`` is off."""
        if self.stages is None:
            return None
        return self.stages.report()

    @property
    def samples_seen(self) -> int:
        self._flush_held()
        return self._sample_index + 1

    # ------------------------------------------------------------------
    # hardening internals
    # ------------------------------------------------------------------
    @property
    def accel_dead(self) -> bool:
        if self._dead_override is not None:
            return self._dead_override[0]
        return bool(self._views.streaks[0, 6]
                    >= self.config.dead_sensor_samples)

    @property
    def gyro_dead(self) -> bool:
        if self._dead_override is not None:
            return self._dead_override[1]
        return bool(self._views.streaks[0, 7]
                    >= self.config.dead_sensor_samples)

    @property
    def _buffer(self) -> np.ndarray:
        """The window ring: the last ``window_samples`` filtered, scaled
        rows, oldest first (a view of this detector's bank row)."""
        return self._views.ring[0]

    @property
    def _filled(self) -> int:
        """Rows of the ring that are real (the window warm-up)."""
        return int(self._views.filled[0])

    @property
    def _since_last_inference(self) -> int:
        """Rows ingested since the last due window."""
        return int(self._views.since[0])

    @property
    def _last_raw(self) -> np.ndarray:
        """The last repaired sample (this detector's bank row)."""
        return self._views.raw[0, 1]

    @property
    def _cnn_available(self) -> bool:
        return (
            self.model is not None
            and not self._cnn_shed
            and not self.gyro_dead
        )

    def _standing_fault(self) -> bool:
        return (
            self.model is None
            or self._cnn_shed
            or self.gyro_dead
            or self.accel_dead
        )

    def _update_health(self, anomaly: bool) -> None:
        if anomaly:
            self._clean_streak = 0
        else:
            self._clean_streak += 1
        current = self._health
        if self._standing_fault():
            new = FAULT
        elif current == FAULT:
            new = DEGRADED          # condition cleared: step down one level
        elif anomaly:
            new = DEGRADED
        elif (current == DEGRADED
              and self._clean_streak >= self.config.recovery_samples):
            new = HEALTHY
        else:
            new = current
        if new != current:
            self._transitions.append((self._sample_index, current, new))
            self._counter("health_transitions").inc()
            self._health_gauge.set(float(_HEALTH_LEVEL[new]))
            _logger.debug(
                "health %s -> %s at sample %d", current, new,
                self._sample_index,
            )
            self._health = new
            if self.recorder is not None:
                self._record_rows(self._sample_index)
                self.recorder.record_health(self._sample_index, current, new)

    def _record_rows(self, before: int | None = None) -> None:
        """Hand the recorder the block's unrecorded sample rows whose
        sample index is below ``before`` (all of them when ``None``).

        Health and decision events call this first, so every event lands
        after the samples that precede it and ahead of its own sample —
        the order a one-sample-at-a-time pipeline records.
        """
        if self._rows is None:
            return
        index, t, accel, gyro, repaired, anomaly, health = self._rows
        k0 = self._rows_done
        k1 = len(index) if before is None else bisect_left(index, before, k0)
        if k1 > k0:
            self.recorder.record_sample(
                index[k0:k1], t[k0:k1], accel[k0:k1], gyro[k0:k1],
                repaired[k0:k1], anomaly[k0:k1], health[k0:k1])
            self._rows_done = k1

    def _shed_cnn(self) -> None:
        self._cnn_shed = True
        self._shed_hops_left = self.config.shed_retry_hops
        self._hit_streak = 0

    def _fallback_decide(self, fallback_hit: bool, time_s: float,
                         sample_index: int,
                         window_ready: bool) -> Detection | None:
        """The fallback guards the airbag whenever the CNN cannot —
        shed / no model / dead gyro, or a window still warming up."""
        if fallback_hit and (not self._cnn_available or not window_ready):
            self.fallback_detections += 1
            self._counter("fallback_detections").inc()
            detection = Detection(
                sample_index=sample_index,
                time_s=time_s,
                probability=1.0,
                source="fallback",
            )
            if self.recorder is not None:
                self._record_rows(sample_index)
                self.recorder.record_decision(detection)
            return detection
        return None

    def complete(
        self,
        request: WindowRequest,
        probability,
        *,
        latency_ms: float | None = None,
        failed: bool = False,
    ) -> Detection | None:
        """Post-inference half of a decision for a staged request.

        ``probability`` is the model output for ``request.window``;
        ``latency_ms`` feeds the deadline monitor (the micro-batching
        engine charges every window the wall-clock of its whole batch —
        the result is not available any earlier).  ``failed=True`` reports
        that the model raised: the CNN is shed, and the staged fallback
        evidence still guards the sample.  Never raises.
        """
        bank = self._bank
        if bank.stages is not None and not bank.round_flush:
            # One completed window closes out one attribution sample: the
            # charged inference latency joins the stage costs accumulated
            # since the previous complete, and the flushed sum *is* the
            # recorded end-to-end latency (attribution sums exactly).  An
            # engine flushes its round's windows itself.
            bank.stages.flush(
                (self._row,),
                latency_ms if latency_ms is not None and not failed else 0.0)
        if failed:
            if self.recorder is not None:
                self.recorder.record_window(
                    request.sample_index, None, None,
                    violation=False, failed=True, window=request.window,
                )
            self.inference_errors += 1
            self._counter("inference_errors").inc()
            _logger.exception("model inference raised; shedding CNN path")
            self._shed_cnn()
            return self._fallback_decide(
                request.fallback_hit, request.time_s,
                request.sample_index, window_ready=True,
            )
        cfg = self.config
        violation = latency_ms is not None and latency_ms > self._deadline
        if self.recorder is not None:
            self.recorder.record_window(
                request.sample_index, float(probability), latency_ms,
                violation=violation, failed=False, window=request.window,
            )
        if latency_ms is not None:
            self.latency.observe(latency_ms)
            if violation:
                self._deadline_violations += 1
                self._consecutive_violations += 1
                _logger.debug(
                    "deadline violation: inference took %.3f ms "
                    "(deadline %.3f ms)", latency_ms, self._deadline,
                )
                if self._consecutive_violations >= cfg.shed_after_violations:
                    _logger.warning(
                        "%d consecutive deadline violations; shedding CNN "
                        "path", self._consecutive_violations,
                    )
                    self._shed_cnn()
            else:
                self._consecutive_violations = 0
        prob = float(probability)
        if not np.isfinite(prob):
            self.inference_errors += 1
            self._counter("inference_errors").inc()
            _logger.warning("model returned non-finite probability; shedding")
            self._shed_cnn()
            return self._fallback_decide(
                request.fallback_hit, request.time_s,
                request.sample_index, window_ready=True,
            )
        if prob >= cfg.threshold:
            self._hit_streak += 1
            if self._hit_streak >= cfg.consecutive_required:
                detection = Detection(
                    sample_index=request.sample_index,
                    time_s=request.time_s,
                    probability=prob,
                    source="cnn",
                )
                if self.recorder is not None:
                    self.recorder.record_decision(detection)
                return detection
        else:
            self._hit_streak = 0
        return None

    def _run_model(self, request: WindowRequest) -> Detection | None:
        """Inline inference for one staged request: guarded forward pass,
        then :meth:`complete` with the measured latency."""
        t0 = time.perf_counter()
        try:
            prob = float(
                np.asarray(
                    self.model.predict(request.window[None, :, :])
                ).reshape(-1)[0]
            )
        except Exception:
            return self.complete(request, None, failed=True)
        latency_ms = 1000.0 * (time.perf_counter() - t0)
        return self.complete(request, prob, latency_ms=latency_ms)

    def _decide(self, window: np.ndarray | None, fallback_hit: bool,
                time_s: float, window_ready: bool,
                requests: list) -> Detection | None:
        """Turn one row's evidence into (at most) one detection.

        ``window`` is the full window when a CNN inference is due on this
        row (``None`` otherwise).  The pre-inference half of the decision
        stages a :class:`WindowRequest` holding a copy of it into
        ``requests`` — the caller runs the model and feeds the result to
        :meth:`complete` — and the fallback decides every row the CNN
        does not take.
        """
        hit = None
        if window is not None and self._cnn_shed:
            # Load shedding: skip the CNN for shed_retry_hops hops, then
            # give it one probe inference to prove it recovered.
            self._shed_hops_left -= 1
            if self._shed_hops_left <= 0:
                self._cnn_shed = False
                self._consecutive_violations = 0
        if window is not None and self._cnn_available:
            requests.append(WindowRequest(
                window=window.copy(),
                sample_index=self._sample_index,
                time_s=time_s,
                fallback_hit=fallback_hit,
            ))
        else:
            hit = self._fallback_decide(fallback_hit, time_s,
                                        self._sample_index, window_ready)
        return hit

    # ------------------------------------------------------------------
    # streaming API
    # ------------------------------------------------------------------
    def push(self, accel_g, gyro_dps, t: float | None = None) -> Detection | None:
        """Feed one sample; returns a :class:`Detection` when a path fires.

        A one-row :meth:`push_block` whose staged windows then run inline,
        in order, through the model (:meth:`complete` with the measured
        latency); returns the earliest detection by sample index.  The
        inference cadence matches the offline segmentation: the first
        window is evaluated once full, then every ``hop_samples``.  ``t``
        is the sample timestamp in seconds; when provided, missing samples
        are detected from the inter-arrival time — short gaps (≤
        ``max_gap_ms``) are bridged with linearly interpolated fill
        samples, longer ones reset the streaming state.  Without
        timestamps (or with a non-finite one) the sample is taken at the
        nominal rate.

        Both orderings are the deferred ones the serving engine uses:

        * a window's flight-recorder event and its CNN decision are
          recorded after this sample's ``sample`` event, so post-trigger
          context counts from the next sample;
        * every window due inside one gap fill is staged before any of
          them runs, so a completion that sheds the CNN takes effect after
          the fill (the arriving sample still sees the CNN available).
          With the default config a push holds at most one due window.

        A hop goes in as one block.  While the detector is ``healthy``
        with a model, an unshed CNN, a window that has filled once and no
        recorder, a push whose row is six finite readings inside the
        rails on the clean next tick (a finite ``t`` at least half a
        period and at most one period, rounded, after the stream clock;
        ``t=None`` only in a stream that never had one) only holds the
        row, unless it is the row that completes the next window.  The
        held rows are ingested as one block on the row just before that
        window row, so the window row runs as a one-row push with its
        inference inline.  The held block also stays shorter than the
        nearest stuck/dead limit: a streak grows by at most one a row, so
        no limit is crossed inside it.  Such a row cannot return a
        detection (the fallback decides only when the CNN cannot), move a
        counter or the health gauge, or record a transition, so holding
        it changes nothing a caller sees.  The held rows go in before
        anything else — a push that fails the test, ``push_block``,
        :func:`ingest_lanes`, :meth:`LaneBank.attach`,
        :attr:`samples_seen`, :meth:`note_interruption` — and
        :meth:`reset` drops them.
        """
        if self._hold(accel_g, gyro_dps, t):
            return None
        detections, requests = self._push_lane(
            accel_g, gyro_dps, None if t is None else (t,))
        for request in requests:
            hit = self._run_model(request)
            if hit is not None:
                detections.append(hit)
        if not detections:
            return None
        return min(detections, key=attrgetter("sample_index"))

    def push_block(
        self, accel_g, gyro_dps, t=None,
    ) -> tuple[list[Detection], list[WindowRequest]]:
        """Feed a block of samples — the detector's one ingest path.

        ``accel_g`` / ``gyro_dps`` are ``(n, 3)`` arrays (a ``(3,)``
        sample is one row); ``t`` is ``None`` (fully untimestamped block)
        or a length-``n`` sequence of timestamps where ``None`` or a
        non-finite value marks an untimestamped sample.

        Semantics are **bit-identical** to the per-sample reference
        pipeline — validate, bridge gaps, fuse, filter, window and decide
        one sample at a time — fed the same samples, with every staged
        :class:`WindowRequest` completed after the block: same staged
        windows, detections, health transitions, anomaly counters and
        flight-recorder events, order included.  ``tests/detector_oracle.py``
        keeps that pipeline as the oracle, and
        ``tests/test_detector_block.py`` holds this to bit-for-bit
        equality across every builtin fault scenario, random block splits
        and one-row calls, with and without a recorder.

        This is the one-lane call of :func:`ingest_lanes`: the same
        phases on this detector's bank row alone, then the decision
        replay, which hands the recorder runs of sample rows.

        Returns ``(detections, requests)``: fallback-path detections (at
        most one per *incoming* sample) and every staged CNN window, in
        order.  Complete the requests, in order, before the next push on
        this detector.
        """
        return self._push_lane(accel_g, gyro_dps, t)

    # ------------------------------------------------------------------
    # the decision replay (the phases before it: see ingest_lanes)
    # ------------------------------------------------------------------
    def _push_lane(self, accel_g, gyro_dps, t):
        """One block through :func:`ingest_lanes`' phases as a lane alone
        (:func:`_ingest_one`), the decision replay included."""
        self._flush_held()
        exact, t_list = _parse(accel_g, gyro_dps, t)
        if exact.shape[0] == 0:
            return [], []
        return _ingest_one(self, exact, t_list)

    def _hold(self, accel_g, gyro_dps, t) -> bool:
        """Hold one pushed row back when it provably changes nothing a
        caller can see (the test :meth:`push` describes); True when held.
        The row that fills the held block to its room ingests it."""
        d = self._bank.design
        n = len(self._held_t)
        if n:
            clock = self._held_t[-1]
        else:
            # The detector's side of the test, once per held block.
            if (self._health is not HEALTHY or self.model is None
                    or self._cnn_shed or self.recorder is not None
                    or self._filled < self._window_n):
                return False
            self._held_room = min(
                d.hop_n - self._since_last_inference - 1,
                int((d.limits - 1 - self._views.streaks[0]).min()))
            if self._held_room <= 0:
                return False
            clock = self._last_t
        # The row's side: the clean next tick (_plan's test), then six
        # finite readings inside the rails.  Input a one-row push would
        # reject fails the test too, and that push raises as before.
        row = self._held[n]
        try:
            if t is not None:
                t = float(t)
                if not math.isfinite(t):
                    return False
                if clock is not None:
                    dt = t - clock
                    if dt < 0.5 * d.dt_nom or round(dt / d.dt_nom) > 1:
                        return False
            elif clock is not None:
                return False
            if len(accel_g) != 3 or len(gyro_dps) != 3:
                return False
            row[:3] = accel_g
            row[3:] = gyro_dps
        except (TypeError, ValueError, OverflowError):
            return False
        a0, a1, a2, g0, g1, g2 = row.tolist()
        ra, rg = self.config.accel_range_g, self.config.gyro_range_dps
        if not (abs(a0) <= ra and abs(a1) <= ra and abs(a2) <= ra
                and abs(g0) <= rg and abs(g1) <= rg and abs(g2) <= rg):
            return False
        self._held_t.append(t)
        if n + 1 == self._held_room:
            self._flush_held()
        return True

    def _flush_held(self) -> None:
        """Ingest the rows :meth:`_hold` held back, as one block through
        the lane path (not ``push_block``, whose traced span must not
        contain a push's)."""
        t_list = self._held_t
        if t_list:
            self._held_t = []
            detections, requests = _ingest_one(
                self, self._held[:len(t_list)], t_list)
            assert not detections and not requests, "a held row decided"

    def _decide_rows(self, accel, gyro, repaired, data_anom, dead, ts_anom,
                     real_t, expansion, windows, ready, fb_hits):
        """Replay the per-sample decision/health sequence over one
        block's rows; returns ``(detections, requests)``.

        ``expansion`` is ``None`` when row r is incoming sample r, else
        ``(rows, owner, is_real, fill_time)`` for a block with gap fills:
        the incoming sample each row belongs to (fills belong to the
        sample whose arrival revealed the gap), which rows are incoming
        and the fill rows' times.  Rows with no evidence (not due, no
        fallback hit) leave ``_decide``'s state untouched, so with clean
        health they are skipped.
        """
        n = len(ts_anom)
        if expansion is None:
            m, owner, is_real, fill_time = n, None, None, None
        else:
            m, owner, is_real, fill_time = expansion
        base = self._sample_index
        fs = self.config.fs
        use_override = dead is not None and np.count_nonzero(dead) > 0
        real_anom = (ts_anom if data_anom is None
                     or not np.count_nonzero(data_anom) else
                     [d or s for d, s in zip(data_anom.tolist(), ts_anom)])
        fast_health = (
            self._health == HEALTHY
            and not any(real_anom)
            and not use_override
            and self.model is not None
            and not self._cnn_shed
        )
        if (fast_health and not windows and True not in fb_hits
                and self.recorder is None):
            # Nothing to decide or record: a held block, or a clean push.
            self._clean_streak += n
            self._sample_index = base + m
            return [], []
        if self.recorder is not None:
            # Sample rows for the recorder, handed over lazily by
            # _record_rows; health fills in as the loop replays each row.
            index = (list(range(base + 1, base + n + 1)) if is_real is None
                     else (base + 1 + np.flatnonzero(is_real)).tolist())
            health = [self._health] * n
            self._rows = (index, real_t, accel, gyro, repaired, real_anom,
                          health)
            self._rows_done = 0
        else:
            health = None
        detections: list[Detection] = []
        requests: list[WindowRequest] = []
        if fast_health:
            hot = [r for r in range(m) if fb_hits[r] or r in windows]
        else:
            hot = range(m)
        dead_l = dead.tolist() if use_override else None
        last_owner = -1
        try:
            for r in hot:
                own = owner[r] if owner is not None else r
                self._sample_index = base + r + 1
                if use_override:
                    self._dead_override = dead_l[own]
                real = is_real is None or is_real[r]
                if real and not fast_health:
                    self._update_health(real_anom[own])
                    if health is not None:
                        health[own] = self._health
                fb = fb_hits[r]
                window = windows.get(r)
                if window is not None or fb:
                    if real:
                        tv = real_t[own]
                        time_s = tv if tv is not None else (base + r + 1) / fs
                    else:
                        time_s = fill_time[r]
                    hit = self._decide(window, fb, time_s, ready[r],
                                       requests)
                    # At most one detection per incoming sample: the first
                    # among its fills and the sample itself.
                    if hit is not None and own != last_owner:
                        last_owner = own
                        detections.append(hit)
            self._record_rows()
        finally:
            self._dead_override = None
            self._rows = None
        if fast_health:
            self._clean_streak += n
        self._sample_index = base + m
        return detections, requests

    def run(
        self,
        accel_g: np.ndarray,
        gyro_dps: np.ndarray,
        t: np.ndarray | None = None,
    ) -> list[Detection]:
        """Convenience: stream whole arrays; returns every detection."""
        accel_g = np.asarray(accel_g, dtype=float)
        gyro_dps = np.asarray(gyro_dps, dtype=float)
        detections = []
        for i in range(accel_g.shape[0]):
            hit = self.push(
                accel_g[i], gyro_dps[i],
                t=None if t is None else float(t[i]),
            )
            if hit is not None:
                detections.append(hit)
        return detections


# ----------------------------------------------------------------------
# the ingest path
# ----------------------------------------------------------------------
#: Lanes of one length (and one config) from which :func:`ingest_lanes`
#: runs them as one stacked group instead of lane by lane.  A stacked
#: group pays a fixed ~100 numpy calls (the fusion time loop adds ~4 a
#: row, whatever the lane count), which a few lanes' scalar fusion and
#: fallback passes undercut.  Re-measured with the lane bank on a 2-core
#: x86 VM (Python 3.11, numpy 2.4), one ingest round, stacked /
#: lane-by-lane time for 1-, 4- and 20-row blocks: 1 lane 2.63x, 2.02x,
#: 1.42x; 3 lanes 1.33x, 1.17x, 1.07x; 4 lanes 1.09x, 0.98x, 0.88x; 5
#: lanes 0.97x, 0.87x, 0.82x; 8 lanes 0.74x, 0.68x, 0.62x; 16 lanes
#: 0.54x, 0.51x, 0.48x.  So groups stack from 5 lanes, and a lane alone
#: keeps its own pass (:func:`_ingest_one`, on the scalar fusion,
#: fallback and window steps).  Run as a stacked group of one instead,
#: per-sample ``push`` (the edge path; same box, seed 0, 5 interleaved
#: A/B pairs) lost 46.6% of its samples/s and its verdict p50 rose
#: 65.6%; with views for the gathers and the scalar steps kept, still
#: 16.8% and 13.7%.
_STACK_MIN_LANES = 5


def ingest_lanes(blocks) -> list:
    """Ingest many streams' blocks in one pass — the detectors' one
    ingest path (:meth:`FallDetector.push_block` is its one-lane call).

    ``blocks`` is a sequence of ``(detector, accel_g, gyro_dps, t)``, one
    *lane* per stream, each shaped as for ``push_block``.  Returns one
    entry per lane, in order: ``(detections, requests)`` exactly as
    ``push_block`` on that lane alone would return them — bit for bit,
    state and recorder events included — or the exception the lane
    raised (the caller contains it; no other lane is affected).

    The lanes of each config go through :func:`ingest_round` as one
    block of rows.  Lanes sharing a block length and config form a
    group.  A group of at least ``_STACK_MIN_LANES`` lanes is moved into
    one :class:`LaneBank` (the serving engine's streams already share
    one) and runs as one stacked pass (:func:`_ingest`) that gathers its rows
    of every bank field with one index operation and works on ``(lanes,
    n, ...)`` arrays: validation (:func:`_validate`: repair, clamping and
    the stuck/dead streak tracker, advanced in closed form from each
    lane's carried streaks, so the exact repeats quantized readings
    produce all the time never take a lane out of the pass), the
    all-clean timestamp test, the complementary-filter recurrence
    (:meth:`ComplementaryFilter.update_lanes
    <repro.signal.orientation.ComplementaryFilter.update_lanes>`), the
    Butterworth as one kernel call (:meth:`OnlineSosFilter.process_lanes
    <repro.signal.filters.OnlineSosFilter.process_lanes>`), channel
    scaling, the fallback smoother (:meth:`MagnitudeFallback.push_lanes`),
    window assembly (:func:`_window`) and, for every *clean* lane, the
    decision replay.  Per lane stay the timestamp plan of a lane that
    fails the clean test and the health/decision replay of a lane that
    is not clean, with the recorder hand-over.  A lane whose block holds
    gap fills or long-gap resets leaves its group and runs alone after
    it.  The group scatters its rows back only once every phase has
    succeeded; if it raises, its lanes rerun one at a time, so only a
    lane that raises on its own is lost.  Smaller groups run lane by
    lane.  A lane alone runs :func:`_ingest_one`: the same phases on
    the lane's bank row, which it advances in place.

    Stage timing: a stacked group times each phase once, its decision
    replay included, and charges its rows of the bank's stage timer an
    even share each with one vectorized add; a lane alone charges its
    own row once per pass.
    """
    results: list = [None] * len(blocks)
    designs: dict = {}
    for i, (det, accel_g, gyro_dps, t) in enumerate(blocks):
        try:
            det._flush_held()
            exact, t_list = _parse(accel_g, gyro_dps, t)
        except Exception as exc:
            results[i] = exc
            continue
        n = exact.shape[0]
        if n == 0:
            results[i] = ([], [])
            continue
        # A missing timestamp (None, or a lane without any) is NaN.
        t = np.array([math.nan] * n if t_list is None else t_list,
                     dtype=float)
        designs.setdefault(det._bank.design, []).append(
            (i, det, np.concatenate([exact, t[:, None]], axis=1)))
    for members in designs.values():
        out, staged = ingest_round([det for _, det, _ in members],
                                   np.concatenate([b for _, _, b in members]),
                                   [len(b) for _, _, b in members])
        requests = _requests(staged, len(members))
        for k, (i, _, _) in enumerate(members):
            results[i] = out.get(k) or ([], requests[k])
    return results


def ingest_round(dets, block: np.ndarray, lengths) -> tuple:
    """The serving engine's round: :func:`ingest_lanes` for rows drained
    from every due stream's queue at once.

    ``dets`` share one config; ``block`` holds their rows
    ``(sum(lengths), 7)`` — ``(ax, ay, az, gx, gy, gz, t)``, ``t`` NaN
    where missing — lane after lane, ``lengths[i] > 0`` rows (a list of
    ints) for ``dets[i]``.  Lanes of one length form a group, cut from ``block``
    with one index (a reshape when every lane shares the length); a
    group of at least ``_STACK_MIN_LANES`` lanes joins its first lane's
    :class:`LaneBank` (the engine's lanes all share one) and runs
    stacked (:func:`_ingest`), the others lane by lane
    (:func:`_ingest_alone`), as :func:`ingest_lanes` describes.

    Returns ``(results, staged)``: ``results`` maps the index of every
    lane that is not clean to its ``(detections, requests)`` or the
    exception it raised, and ``staged`` (``None`` when no clean lane
    came due) holds every clean lane's windows as arrays, their lanes
    indexing ``dets``: a clean lane returns no detections, and its
    windows complete through :func:`complete_clean` (or, one at a time,
    through :meth:`FallDetector.complete`).
    """
    if lengths.count(lengths[0]) == len(lengths):
        groups = {lengths[0]: range(len(dets))}
    else:
        groups = {}
        for i, n in enumerate(lengths):
            groups.setdefault(n, []).append(i)
    offsets = None
    results: dict = {}
    parts = []
    for n, members in groups.items():
        group = [dets[i] for i in members]
        if len(group) >= _STACK_MIN_LANES:
            if len(group) == len(dets):
                rows = block.reshape(len(dets), n, 7)
            else:
                if offsets is None:
                    offsets = [0, *accumulate(lengths)]
                rows = block[np.asarray(offsets)[members][:, None]
                             + np.arange(n)]
            bank = group[0]._bank
            try:
                for det in group:
                    if det._bank is not bank:
                        bank.attach(det)
                out, staged = _ingest(bank, group, rows)
            except Exception:
                _logger.exception(
                    "stacked ingest raised for %d lanes; rerunning them "
                    "one at a time", len(group))
            else:
                for k, result in out.items():
                    results[members[k]] = result
                if staged is not None:
                    parts.append(staged._replace(
                        lane=np.asarray(members)[staged.lane]))
                continue
        if offsets is None:
            offsets = [0, *accumulate(lengths)]
        for i, det in zip(members, group):
            results[i] = _ingest_alone(det, block[offsets[i]:offsets[i] + n])
    if len(parts) > 1:
        return results, _Staged(*map(np.concatenate, zip(*parts)))
    return results, parts[0] if parts else None


def _requests(staged: _Staged | None, lanes: int) -> list:
    """Each of ``lanes`` lanes' :class:`WindowRequest` list for the
    windows ``staged`` holds."""
    requests: list = [[] for _ in range(lanes)]
    if staged is not None:
        for lane, index, time_s, hit, window in zip(
                staged.lane.tolist(), staged.sample_index.tolist(),
                staged.time_s.tolist(), staged.fallback_hit.tolist(),
                staged.windows):
            requests[lane].append(WindowRequest(window, index, time_s, hit))
    return requests


def complete_clean(dets, staged: _Staged, probs, latency_ms: float) -> list:
    """:meth:`FallDetector.complete` for every window of ``staged`` at
    once; returns ``(window, detection)`` for each window that fires, in
    ``staged`` order.

    The caller vouches for what makes this the per-window result: the
    windows' lanes (``dets[staged.lane]``) were clean when they staged
    them, share one bank whose owner flushes stage costs per round,
    ``probs`` are all finite and ``latency_ms`` is within the deadline.
    So, per lane and in row order, each window observes ``latency_ms``
    on the lane's deadline histogram and clears its violation streak,
    and the threshold and the hit streak run in closed form over the
    windows, seeded by each lane's carried streak; a
    :class:`Detection` is built only for a window that fires.
    """
    cfg = dets[int(staged.lane[0])].config
    lane = staged.lane
    k = lane.size
    probs = np.asarray(probs, dtype=float)
    opens = np.empty(k, dtype=bool)
    opens[0] = True
    np.not_equal(lane[1:], lane[:-1], out=opens[1:])
    heads = np.flatnonzero(opens)           # each lane's first window
    tails = np.append(heads[1:], k) - 1     # and its last
    segment = np.cumsum(opens) - 1
    head = heads[segment]
    seg_lanes = lane[heads].tolist()
    carried = np.array([dets[i]._hit_streak for i in seg_lanes])
    # A miss resets the streak: each window's is its distance from the
    # lane's latest miss, plus the carried streak while none occurred.
    hit = probs >= cfg.threshold
    index = np.arange(k)
    last_miss = np.maximum.accumulate(np.where(hit, head - 1, index))
    streak = index - last_miss + np.where(last_miss < head,
                                          carried[segment], 0)
    for i, final, windows in zip(seg_lanes, streak[tails].tolist(),
                                 (tails - heads + 1).tolist()):
        det = dets[i]
        det._hit_streak = final
        det._consecutive_violations = 0
        for _ in range(windows):
            det.latency.observe(latency_ms)
    fire = np.flatnonzero(hit & (streak >= cfg.consecutive_required))
    return [(j, Detection(sample_index=sample, time_s=time_s,
                          probability=prob, source="cnn"))
            for j, sample, time_s, prob in zip(
                fire.tolist(), staged.sample_index[fire].tolist(),
                staged.time_s[fire].tolist(), probs[fire].tolist())]


def _parse(accel_g, gyro_dps, t):
    """One block as ``(readings (n, 6), timestamps or None)``."""
    accel = np.asarray(accel_g, dtype=float).reshape(-1, 3)
    gyro = np.asarray(gyro_dps, dtype=float).reshape(-1, 3)
    n = accel.shape[0]
    if gyro.shape[0] != n:
        raise ValueError(
            f"accel and gyro disagree on block length: {n} vs "
            f"{gyro.shape[0]}"
        )
    exact = np.concatenate([accel, gyro], axis=1)
    if t is None:
        return exact, None
    if isinstance(t, np.ndarray):
        t_list = t.astype(float).reshape(-1).tolist()
    else:
        t_list = [None if v is None else float(v) for v in t]
    if len(t_list) != n:
        raise ValueError(
            f"t must have one entry per sample: got {len(t_list)} for {n}"
        )
    return exact, t_list


def _ingest_alone(det, block) -> tuple | Exception:
    """:func:`_ingest_one` for one lane's rows ``block (n, 7)`` — ``(ax,
    ay, az, gx, gy, gz, t)``, ``t`` NaN where missing — after the rows
    its detector held; returns ``(detections, requests)``, or the
    exception the lane raised, which stays that lane's result."""
    try:
        det._flush_held()
        return _ingest_one(det, block[:, :6], block[:, 6].tolist())
    except Exception as exc:
        return exc


def _ingest_one(det, exact, t_list) -> tuple:
    """Every phase for a lane alone — its readings ``exact (n, 6)`` and
    timestamps ``t_list`` (``None``, or one per row: ``None`` or NaN
    where missing) — the decision replay included; returns its
    ``(detections, requests)``.  The lane's bank row advances in place
    through the detector's views, and the pass's stage costs go to its
    stage-timer row once, at the end."""
    d = det._bank.design
    state = det._views
    st = det._bank.stages
    clk = None if st is None else st.clock
    spent = None
    if clk is not None:
        spent = [0.0] * len(STAGES)
        t0 = clk()
    counts: dict = {}
    plan, clock, anomalies = _plan_clock(d, t_list, exact.shape[0],
                                         det._last_t)
    if anomalies:
        counts["clock_anomalies"] = [anomalies]
    gaps = plan[2]
    if gaps is not None:
        # Gap interpolation starts from the carried last repaired sample,
        # if the stream ever had one.
        anchor = (state.raw[0, 1].copy() if state.streaks[0, 0] >= 0
                  else None)
    repaired, data_anom, dead = _validate(d, state, exact[None], counts)
    ex6, expansion, segments = repaired, None, None
    if gaps is not None:
        ex6, expansion, segments = _expand(d, repaired[0], gaps, anchor,
                                           counts)
        ex6 = ex6[None]
    if clk is not None:
        spent[_INGEST] += clk() - t0
    cuts, hits = _stream_pass(d, state, ex6, segments, clk, spent)
    det._last_t = clock
    if counts:
        _add_counts((det,), counts)
    if clk is not None:
        t0 = clk()
    result = det._decide_rows(exact[:, :3], exact[:, 3:], repaired[0],
                              None if data_anom is None else data_anom[0],
                              None if dead is None else dead[0], plan[0],
                              plan[1], expansion,
                              *_evidence(d, cuts, 0, ex6.shape[1]), hits[0])
    if clk is not None:
        spent[_DECISION] += clk() - t0
        st.pending[det._row] += spent
    return result


def _add_counts(dets, counts: dict) -> None:
    """Add each lane's anomaly counts to its detector and registry."""
    for name, per_lane in counts.items():
        for det, count in zip(dets, per_lane):
            if count:
                setattr(det, name, getattr(det, name) + count)
                det._counter(name).inc(count)


def _ingest(bank: LaneBank, dets, block) -> tuple:
    """:func:`_ingest_one` for a stacked group — ``dets`` sharing one
    bank, their blocks as ``block (lanes, n, 7)`` (as
    :func:`ingest_round` takes them) — as one pass over ``(lanes, n,
    ...)`` arrays; returns ``(results, staged)`` as :func:`ingest_round`
    does, lanes indexing ``dets``.

    A lane whose block holds gap fills or long-gap resets (its timestamp
    plan says so) leaves the group before any phase runs; the others
    stack, planned afresh so each clock anomaly counts once, and the
    gapped lanes then run alone (:func:`_ingest_alone`).  If fewer than
    ``_STACK_MIN_LANES`` lanes would be left, every lane runs alone.
    The stacked lanes work on a gathered copy of their bank rows,
    scattered back — with every lane's clock and counters — only once
    every phase has succeeded, so a group that raises has changed no
    lane and its caller can rerun it lane by lane.  Then the decisions.
    A lane is *clean* when it is ``healthy`` with a model, an unshed
    CNN and no recorder, and its block has no data or clock anomaly, no
    dead-sensor row and no fallback hit on a row before its window first
    fills — exactly when :meth:`FallDetector._decide_rows` would take
    its fast path and decide nothing but to stage each due window as a
    request (the fallback decides only rows the CNN cannot take).  Clean
    lanes advance their sample and clean-streak counters, and their due
    windows are one take from the group's window history, with their
    sample indices, times and fallback hits as arrays; every other lane
    replays its decisions one by one.
    """
    d = bank.design
    for det in dets:
        if det._held_t:
            det._flush_held()
    exact, t = block[:, :, :6], block[:, :, 6]
    st = bank.stages
    clk = None if st is None else st.clock
    spent = None if st is None else [0.0] * len(STAGES)
    if clk is not None:
        t0 = clk()
    counts: dict = {}
    plans, clocks = _plan(d, dets, t, counts)
    gapped = [k for k, plan in plans.items() if plan[2] is not None]
    if gapped:
        kept = np.delete(np.arange(len(dets)), gapped)
        results, staged = {}, None
        if kept.size < _STACK_MIN_LANES:
            gapped = range(len(dets))
        else:
            out, staged = _ingest(bank, [dets[k] for k in kept.tolist()],
                                  block[kept])
            results = {int(kept[k]): result for k, result in out.items()}
            if staged is not None:
                staged = staged._replace(lane=kept[staged.lane])
        for k in gapped:
            results[k] = _ingest_alone(dets[k], block[k])
        return results, staged
    rows = np.array([det._row for det in dets])
    state = bank.gather(rows)
    lanes, n = exact.shape[:2]
    repaired, data_anom, dead = _validate(d, state, exact, counts)
    if clk is not None:
        spent[_INGEST] += clk() - t0
    (cut,), hits = _stream_pass(d, state, repaired, None, clk, spent)
    if clk is not None:
        t0 = clk()
    clean = np.array([det._health == HEALTHY and det.model is not None
                      and not det._cnn_shed and det.recorder is None
                      for det in dets])
    clean[list(plans)] = False
    if data_anom is not None:
        clean &= ~data_anom.any(axis=1)
    if dead is not None:
        clean &= ~dead.any(axis=(1, 2))
    # A fallback hit decides only a row whose window never filled.
    _, _, _, first, _, warm = cut
    cold = warm[:, None] & (np.arange(n) < first[:, None])
    clean &= ~(hits & cold).any(axis=1)
    quiet = np.flatnonzero(clean).tolist()
    staged = bases = None
    if quiet:
        bases = [dets[k]._sample_index for k in quiet]
        staged = _stage(d, cut, hits, np.array(quiet), bases, rows, t)
    bank.scatter(rows, state)
    for det, clock in zip(dets, clocks):
        det._last_t = clock
    _add_counts(dets, counts)
    if quiet:
        for k, base in zip(quiet, bases):
            det = dets[k]
            det._sample_index = base + n
            det._clean_streak += n
    results = {}
    if len(quiet) < lanes:
        no_anom = [False] * n
        for k in np.flatnonzero(~clean).tolist():
            plan = plans.get(k)
            if plan is None:        # the clean plan: no anomaly, no gap
                plan = (no_anom, [None] * n if np.isnan(t[k, 0])
                        else t[k].tolist(), None)
            try:
                results[k] = dets[k]._decide_rows(
                    exact[k, :, :3], exact[k, :, 3:], repaired[k],
                    None if data_anom is None else data_anom[k],
                    None if dead is None else dead[k], plan[0], plan[1],
                    None, *_evidence(d, (cut,), k, n), hits[k].tolist())
            except Exception as exc:
                results[k] = exc
    if clk is not None:
        spent[_DECISION] += clk() - t0
        # The lanes share a block length: each bears an even share.
        st.pending[rows] += np.divide(spent, lanes)
    return results, staged


def _stage(d, cut, hits, quiet, bases, rows, t) -> _Staged | None:
    """The due windows of the clean lanes ``quiet`` (indices into the
    group, whose sample indices were ``bases`` before the block) as a
    :class:`_Staged`, from ``cut`` and ``hits``, the group's one
    reset-free stretch and fallback hits: one take from its window
    history, in lane order, then row order.  ``None`` when none of them
    came due."""
    _, _, hist, first, count, _ = cut
    per_lane = count[quiet]
    if not per_lane.any():
        return None
    lane = np.repeat(quiet, per_lane)
    nth = np.arange(lane.size) - np.repeat(np.cumsum(per_lane) - per_lane,
                                           per_lane)
    r = first[lane] + nth * d.hop_n
    index = np.repeat(bases, per_lane) + r + 1
    # A timed lane's window carries its sample's timestamp, an untimed
    # one's the nominal time of its sample index.
    stamp = t[lane, r]
    time_s = np.where(np.isnan(stamp), index / d.config.fs, stamp)
    span = hist.shape[1]
    windows = np.take(hist.reshape(-1, hist.shape[2]),
                      (lane * span + r)[:, None]
                      + np.arange(1, d.window_n + 1), axis=0)
    return _Staged(lane, rows[lane], index, time_s, hits[lane, r], windows)


def _validate(d, state: _BankRows, exact, counts: dict):
    """Repair non-finite readings, clamp to the sensor rails and track
    stuck channels / dead sensors for a group's blocks of readings
    ``exact (lanes, n, 6)`` (accel, then gyro) in vectorized passes,
    advancing ``state``'s trackers in place.

    Non-finite entries hold the last repaired value of their channel
    (bootstrap: 1 g gravity for accel, zero rate for gyro); out-of-range
    entries clip.  Stuck-at tracking runs on the *exact* incoming values:
    genuine IMU noise never repeats bit-identically, so an exact-repeat
    streak marks a frozen channel, and a non-finite reading also counts
    against its channel (±inf == ±inf, but it is bad anyway).  The six
    channel streaks and the accel/gyro "every channel stuck or bad" runs
    advance in one :func:`_running_streak` pass from each lane's carried
    streaks, so the exact repeats quantized sensors produce all the time
    cost nothing extra while no streak reaches its limit.

    Returns ``repaired (lanes, n, 6)``, ``data_anom (lanes, n)`` and
    ``dead (lanes, n, 2)`` — each *row's* view of the dead-sensor
    trackers (decisions consult them between every sample).  When every
    reading is finite, in range and no repeat, both flag arrays are
    ``None``: no streak survives the block's first row.  Anomaly counts
    go to ``counts``.
    """
    lanes, n = exact.shape[:2]
    raw = state.raw
    # NaN never compares equal, so neither a NaN reading nor the first
    # sample ever (NaN stand-in predecessor) repeats.
    same = exact == (raw[:, :1] if n == 1 else np.concatenate(
        [raw[:, :1], exact[:, :-1]], axis=1))
    rails = d.rails
    in_range = np.abs(exact) <= rails       # False for NaN/±inf too
    if (np.count_nonzero(in_range) == in_range.size
            and not np.count_nonzero(same)):
        # Every reading finite and in range, none a repeat: every streak
        # breaks on the first row, so no row is stuck or dead (the limits
        # are >= 1).  Both stores are the one-row push's whole bank
        # write, so they take the cheapest forms.
        state.streaks.fill(0)
        raw[:] = exact if n == 1 else exact[:, -1:]
        return exact, None, None
    finite = np.isfinite(exact)
    flagged = []
    if np.count_nonzero(finite) == finite.size:
        bad = None
        repaired = exact
        over = ~in_range
    else:
        bad = ~finite
        bad_rows = bad.any(axis=2)
        repaired = np.where(finite, exact, np.nan)
        # Saturation check before the hold: a held value was clipped when
        # it was repaired, and NaN placeholders compare False.
        over = np.abs(repaired) > rails
    clip_rows = None
    if np.count_nonzero(over):
        clip_rows = over.any(axis=2)
        flagged.append(("saturated_samples", clip_rows))
        repaired = np.clip(repaired, -rails, rails)
    if bad is not None:
        # Vectorized hold-last: each non-finite entry takes the most
        # recent finite value in its column, falling back to the lane's
        # carried last-repaired sample (or the gravity bootstrap).
        src = np.where(finite, np.arange(n)[:, None], -1)
        np.maximum.accumulate(src, axis=1, out=src)
        held = np.take_along_axis(repaired, np.maximum(src, 0), axis=1)
        repaired = np.where(src >= 0, held, raw[:, 1:])
        flagged.append(("repaired_samples", bad_rows))
    cond = np.empty((lanes, n, 8), dtype=bool)
    cond[:, :, :6] = same if bad is None else same | bad
    np.logical_and.reduce(cond[:, :, :6].reshape(lanes, n, 2, 3), axis=3,
                          out=cond[:, :, 6:])
    # A channel's carried streak is -1 before the stream's first sample,
    # so that sample's own streak is 0 whatever it reads.
    streaks = _running_streak(cond, state.streaks)
    over_limit = streaks >= d.limits
    data_anom = over_limit[:, :, :6].any(axis=2)
    if bad is not None:
        data_anom |= bad_rows
    if clip_rows is not None:
        data_anom |= clip_rows
    for name, flags in flagged:
        counts[name] = np.count_nonzero(flags, axis=1).tolist()
    state.streaks[:] = streaks[:, -1]
    raw[:, 0] = exact[:, -1]
    raw[:, 1] = repaired[:, -1]
    return repaired, data_anom, over_limit[:, :, 6:]


def _plan(d, dets, t, counts: dict):
    """Classify every lane's timestamps ``t (lanes, n)`` (NaN: missing);
    returns ``(plans, clocks)``: ``plans`` maps each lane that fails the
    stacked clean test to its plan ``(ts_anom, real_t, gaps)`` — per
    incoming sample the clock/gap anomaly flag and the timestamp
    (``None`` when missing or non-finite), and ``gaps`` ``(fills,
    resets, fill_base, n_resets)``, or ``None`` when the block needs
    neither fills nor resets — and ``clocks`` holds each lane's clock
    after the block.

    The clean test, stacked: a lane whose block is fully timestamped at
    a period that needs no fill (or untimestamped, with no clock yet)
    plans no fills, resets or anomalies, and its clock ends at its last
    timestamp (or stays ``None``).  The others take
    :func:`_plan_clock`.
    """
    clocks = [det._last_t for det in dets]
    n = t.shape[1]
    prev = np.array([math.nan if c is None else c for c in clocks])
    dt_nom = d.dt_nom
    dt = np.diff(t, axis=1, prepend=prev[:, None])
    # The scalar plan's tests, elementwise: no early/duplicate sample (dt
    # < half a period) and no missing one (round(dt / period) >= 2;
    # np.rint rounds half to even like round()).
    ok = (dt >= 0.5 * dt_nom) & (np.rint(dt / dt_nom) <= 1.0)
    ok[:, 0] |= np.isnan(prev)
    timed = ok.all(axis=1) & np.isfinite(t).all(axis=1)
    fresh = np.isnan(prev) & np.isnan(t).all(axis=1)
    plans: dict = {}
    if timed.any():
        last = t[:, -1].tolist()
        for k in np.flatnonzero(timed).tolist():
            clocks[k] = last[k]
    scalar = np.flatnonzero(~(timed | fresh)).tolist()
    if scalar:
        anomalies = [0] * len(dets)
        for k in scalar:
            plans[k], clocks[k], anomalies[k] = _plan_clock(
                d, t[k].tolist(), n, clocks[k])
        if any(anomalies):
            counts["clock_anomalies"] = anomalies
    return plans, clocks


def _plan_clock(d, t_list, n: int, last_t):
    """Classify every inter-sample interval of one block up front and
    carry the stream clock ``last_t`` past it; returns ``((ts_anom,
    real_t, gaps), clock, clock anomalies)`` as :func:`_plan` describes.

    A timestamp closer than half a period to the previous one (early,
    duplicate or backwards) is a clock anomaly; a gap of ``missing``
    periods is bridged with that many fill rows, or resets the stream
    when longer than ``max_gap_ms``.  A missing or non-finite timestamp
    inside a timestamped stream is a clock anomaly too: its evidence is
    gone, so the clock advances one nominal period (keeping the checks
    armed for the next sample).
    """
    dt_nom = d.dt_nom
    half = 0.5 * dt_nom
    max_gap_ms = d.max_gap_ms
    fills = [0] * n
    resets = [False] * n
    ts_anom = [False] * n
    fill_base = [0.0] * n
    real_t: list[float | None] = [None] * n
    n_clock = 0
    n_resets = 0
    for i in range(n):
        ti = t_list[i] if t_list is not None else None
        if ti is None or not math.isfinite(ti):
            if last_t is not None:
                n_clock += 1
                ts_anom[i] = True
                last_t = last_t + dt_nom
            continue
        real_t[i] = ti
        if last_t is not None:
            dt = ti - last_t
            if dt < half:
                n_clock += 1
                ts_anom[i] = True
            else:
                missing = int(round(dt / dt_nom)) - 1
                if missing > 0:
                    ts_anom[i] = True
                    if dt * 1000.0 > max_gap_ms:
                        resets[i] = True
                        n_resets += 1
                    else:
                        fills[i] = missing
                        fill_base[i] = last_t
        last_t = ti
    gaps = None
    if n_resets or any(fills):
        gaps = (fills, resets, fill_base, n_resets)
    return (ts_anom, real_t, gaps), last_t, n_clock


def _expand(d, repaired, gaps, anchor, counts: dict):
    """Expand one lane's gaps into synthesized fill rows (linear
    interpolation from the previous repaired sample, ``anchor`` for the
    block's first) and cut its block at long-gap resets; returns ``(ex6
    (m, 6), expansion, segments)`` — :meth:`FallDetector._decide_rows`'
    ``expansion`` and the reset-delimited ``(start, stop, is_reset)``
    stretches."""
    fills, resets, fill_base, n_resets = gaps
    n = len(fills)
    if fills[0] and anchor is None:
        # note_interruption seeds the clock before any sample: the gap
        # is flagged (ts_anom stays) but nothing can be interpolated.
        fills[0] = 0
    total_fill = sum(fills)
    dt_nom = d.dt_nom
    m = n + total_fill
    ex6 = np.empty((m, 6))
    owner = np.empty(m, dtype=np.intp)
    is_real = np.zeros(m, dtype=bool)
    fill_time = np.zeros(m)
    reset_rows = []
    pos = 0
    for i in range(n):
        fill = fills[i]
        if fill:
            prev = repaired[i - 1] if i else anchor
            delta = repaired[i] - prev
            j = np.arange(1, fill + 1)
            ex6[pos:pos + fill] = prev + (j / (fill + 1))[:, None] * delta
            fill_time[pos:pos + fill] = fill_base[i] + j * dt_nom
            owner[pos:pos + fill] = i
            pos += fill
        if resets[i]:
            reset_rows.append(pos)
        ex6[pos] = repaired[i]
        owner[pos] = i
        is_real[pos] = True
        pos += 1
    cuts = [0] + [r for r in reset_rows if r] + [m]
    segments = [(a, b, a in reset_rows) for a, b in zip(cuts, cuts[1:])]
    for name, count in (("gap_filled_samples", total_fill),
                        ("stream_resets", n_resets)):
        if count:
            counts[name] = [count]
    expansion = (m, owner, is_real, fill_time) if total_fill else None
    return ex6, expansion, segments


def _stream_pass(d, state: _BankRows, ex6, segments, clk, spent) -> tuple:
    """Fusion, the SOS filter, scaling, window assembly and the fallback
    over ``ex6 (lanes, m, 6)``, advancing ``state`` — window ring and
    cadence counters included — in place.  ``segments`` cuts a lane's
    rows at its long-gap resets, where filter, fusion and window start
    over (``None``: one reset-free stretch).  Phase times (seconds) add
    to the ``spent`` list, one entry per stage, when ``clk`` is given.

    Returns ``(cuts, hits)``: per reset-free stretch ``(offset, rows)
    + _window(...)`` (see :func:`_window` and :func:`_evidence`), and
    each lane's fallback hit per row — a ``(lanes, m)`` bool array, or a
    lane alone's list."""
    lanes, m = ex6.shape[:2]
    cuts = []
    if clk is not None:
        lap = clk()
    for a, b, is_reset in segments or ((0, m, False),):
        if is_reset:
            # The CNN stays silent until its window refills; the
            # fallback keeps guarding throughout.
            for name in _STREAM_FIELDS:
                getattr(state, name)[:] = getattr(d.layout, name)[2]
        seg = ex6 if b - a == m else ex6[:, a:b]
        if lanes == 1:
            euler = d.fusion.advance(state.angles[0], seg[0, :, :3],
                                     seg[0, :, 3:])[None]
        else:
            euler = d.fusion.update_lanes(state.angles, seg[:, :, :3],
                                          seg[:, :, 3:])
        if clk is not None:
            now = clk()
            spent[_FUSION] += now - lap
            lap = now
        scaled = d.filter.process_lanes(
            state.sos, np.concatenate([seg, euler], axis=2)) / d.scales
        if clk is not None:
            now = clk()
            spent[_FILTER] += now - lap
            lap = now
        cuts.append((a, b - a) + _window(d, state, scaled))
        if clk is not None:
            now = clk()
            spent[_WINDOW] += now - lap
            lap = now
    if d.fallback is None:
        hits = np.zeros((lanes, m), dtype=bool)
    elif lanes == 1:
        # A lane alone steps its fallback on scalars, its row as a list.
        fb = state.fb_state[0].tolist()
        hits = [d.fallback._steps(fb, ex6[0, :, :3].tolist())]
        state.fb_state[0] = fb
    else:
        hits = d.fallback.push_lanes(state.fb_state, ex6[:, :, :3])
    if clk is not None:
        spent[_DECISION] += clk() - lap
    return cuts, hits


def _window(d, state: _BankRows, scaled) -> tuple:
    """Window assembly for a reset-free stretch of every lane of
    ``state``: appends ``scaled (lanes, m, 9)`` to each lane's ring and
    advances ``filled`` and ``since`` in closed form.  Returns ``(hist,
    first, count, warm)``: the grown history ``(lanes, window_n + m,
    9)``, and per lane the first due row, how many rows are due (one
    every ``hop_n`` from the first; row ``r``'s full window is ``hist[
    lane, r + 1:r + 1 + window_n]``) and whether the ring was still
    warming up (rows before the first then have no full window)."""
    window_n, hop_n = d.window_n, d.hop_n
    m = scaled.shape[1]
    hist = np.concatenate([state.ring, scaled], axis=1)
    filled, since = state.filled, state.since
    state.ring[:] = hist[:, m:]
    if len(scaled) == 1:
        # A lane alone: the same closed form on Python ints, which spares
        # a one-row push a dozen array calls.
        have, gone = int(filled[0]), int(since[0])
        warm = have < window_n
        first = window_n - 1 - have if warm else hop_n - 1 - gone
        count = max((m - 1 - first) // hop_n + 1, 0)
        if count:
            since[0] = m - 1 - first - (count - 1) * hop_n
        elif not warm:
            since[0] = gone + m
        filled[0] = min(have + m, window_n)
        return hist, (first,), (count,), (warm,)
    warm = filled < window_n
    # The first due row completes the warm-up (or the pending hop), then
    # one comes due every hop_n rows.
    first = np.where(warm, window_n - 1 - filled, hop_n - 1 - since)
    count = np.maximum((m - 1 - first) // hop_n + 1, 0)
    since[:] = np.where(count > 0, m - 1 - first - (count - 1) * hop_n,
                        np.where(warm, since, since + m))
    np.minimum(filled + m, window_n, out=filled)
    return hist, first, count, warm


def _evidence(d, cuts, lane: int, m: int) -> tuple:
    """One lane's ``(windows, ready)`` for
    :meth:`FallDetector._decide_rows` from :func:`_stream_pass`' ``cuts``
    (``lane`` indexing their arrays): each due row's full window (a view
    of the history) and, per row of ``m``, whether its window had
    filled."""
    hop_n, window_n = d.hop_n, d.window_n
    windows: dict = {}
    ready = [True] * m
    for offset, rows, hist, first, count, warm in cuts:
        r0 = int(first[lane])
        if warm[lane] and r0 > 0:
            cold = min(r0, rows)
            ready[offset:offset + cold] = [False] * cold
        for r in range(r0, r0 + hop_n * int(count[lane]), hop_n):
            windows[offset + r] = hist[lane, r + 1:r + 1 + window_n]
    return windows, ready


class AirbagController:
    """Actuation state machine driven by a :class:`FallDetector`.

    States: ``armed`` → (trigger) → ``inflating`` → (+inflation time) →
    ``deployed``.  Once triggered it never re-arms within a trial — a real
    airbag is single-shot.

    Fail-safe contract: detector trouble can never disarm the bag.  An
    exception escaping ``detector.push`` (which the hardened detector
    itself should prevent) is contained and counted rather than
    propagated, and fallback-sourced detections latch the trigger exactly
    like CNN ones.
    """

    def __init__(self, detector: FallDetector, inflation_ms: float = 150.0):
        if inflation_ms < 0:
            raise ValueError("inflation_ms must be non-negative")
        self.detector = detector
        self.inflation_ms = float(inflation_ms)
        self.trigger: Detection | None = None
        self.detector_errors = 0

    @property
    def state(self) -> str:
        return "armed" if self.trigger is None else "triggered"

    @property
    def detector_health(self) -> str:
        """The detector's health state (see :mod:`repro.core.detector`)."""
        return self.detector.health

    @property
    def deployed_at_s(self) -> float | None:
        """Time the bag reaches full extension, or None if never fired."""
        if self.trigger is None:
            return None
        return self.trigger.time_s + self.inflation_ms / 1000.0

    def push(self, accel_g, gyro_dps, t: float | None = None) -> Detection | None:
        """Feed one sample; latches the first detection."""
        try:
            hit = self.detector.push(accel_g, gyro_dps, t=t)
        except Exception:
            # Fail-safe: a buggy detector must not take the controller
            # down mid-trial; stay armed and keep feeding samples.
            self.detector_errors += 1
            get_registry().counter("airbag/detector_errors").inc()
            _logger.exception("detector raised inside AirbagController.push")
            return None
        if hit is not None and self.trigger is None:
            self.trigger = hit
            return hit
        return None

    def protects(self, impact_time_s: float) -> bool:
        """Was the airbag fully inflated by the moment of impact?"""
        deployed = self.deployed_at_s
        return deployed is not None and deployed <= impact_time_s

    def margin_ms(self, impact_time_s: float) -> float | None:
        """Milliseconds between full inflation and impact (negative = late).

        ``None`` if the airbag never fired.
        """
        deployed = self.deployed_at_s
        if deployed is None:
            return None
        return 1000.0 * (impact_time_s - deployed)

    def margin_report(self) -> dict:
        """Airbag-budget view of the detector's latency statistics.

        The paper's chain is: detector fires → inflation takes 150 ms →
        the bag must be full before impact.  Every millisecond of window
        inference latency is added to that reaction time, so the report
        combines the inflation budget with the measured latency tail:
        ``reaction_p99_ms`` is inflation + p99 inference latency, and
        ``budget_headroom_ms`` is how much of the deadline the p99
        inference leaves unused.
        """
        latency = self.detector.latency_report()
        deadline = latency["deadline_ms"]
        return {
            "inflation_budget_ms": self.inflation_ms,
            "inference_p50_ms": latency["p50_ms"],
            "inference_p99_ms": latency["p99_ms"],
            "reaction_p50_ms": self.inflation_ms + latency["p50_ms"],
            "reaction_p99_ms": self.inflation_ms + latency["p99_ms"],
            "deadline_ms": deadline,
            "budget_headroom_ms": deadline - latency["p99_ms"],
            "deadline_violations": latency["violations"],
            "violation_rate": latency["violation_rate"],
            "inferences": latency["inferences"],
        }
