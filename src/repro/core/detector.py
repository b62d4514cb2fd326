"""Streaming real-time fall detector and airbag controller.

This is the deployment-side view of the method: samples arrive one at a
time (100 Hz), the firmware fuses Euler angles, low-pass filters the
9-channel stream *causally* (zero-phase filtering needs the future, so
real time uses the forward-only Butterworth — same coefficients), keeps a
ring buffer one window long and runs the CNN every hop.

Unlike the offline pipeline, the live path cannot assume a perfect
stream.  The one ingest path — :func:`ingest_lanes`, which takes many
streams' blocks at once; :meth:`FallDetector.push_block` is its
one-lane call, and ``push``/``push_collect`` run it with a single row —
therefore validates and repairs every sample (NaN/Inf → hold-last, rail clamping), bridges
short timestamp gaps by interpolation, resets and re-primes its streaming
state after long ones, and tracks a three-state health machine:

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
from bisect import bisect_left
from collections import deque
from dataclasses import asdict, dataclass
from functools import lru_cache
from operator import attrgetter

import numpy as np

from ..obs import Histogram, StageTimer, get_logger, get_registry
from ..signal.filters import OnlineSosFilter, butter_lowpass_sos
from ..signal.orientation import ComplementaryFilter

__all__ = [
    "DetectorConfig",
    "Detection",
    "WindowRequest",
    "FallDetector",
    "MagnitudeFallback",
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
#: Stand-in predecessor of the first sample ever: NaN equals nothing.
_NAN_ROW = np.full((1, 6), np.nan)
_NAN_ROW.setflags(write=False)
#: Every streak broken (a clean block's end state).
_NO_STREAKS = np.zeros(8, dtype=int)
_NO_STREAKS.setflags(write=False)


@lru_cache(maxsize=None)
def _lowpass_design(order: int, cutoff_hz: float, fs: float) -> np.ndarray:
    """One SOS array per design, shared by every detector built with
    it, so :func:`ingest_lanes` sees lanes' filters agree by identity."""
    return butter_lowpass_sos(order, cutoff_hz, fs)


@lru_cache(maxsize=64)
def _stack_key(config: "DetectorConfig") -> object:
    """A token shared by the detectors built with equal configs: lanes
    stack only with lanes whose every config-derived constant agrees."""
    return object()


def _running_streak(cond: np.ndarray, start: np.ndarray) -> np.ndarray:
    """Per-column lengths of consecutive True runs, seeded by ``start``.

    Row ``i`` holds what ``s = np.where(cond[i], s + 1, 0)`` applied row
    by row would: within the block a streak is (1-based row) minus the
    last False row, and runs unbroken since row 0 continue the carried
    ``start``.  Exact integer arithmetic — bit-identity is trivial.
    """
    if cond.shape[0] == 1:
        return np.where(cond, start + 1, 0)
    idx = np.arange(1, cond.shape[0] + 1)[:, None]
    last_false = np.maximum.accumulate(np.where(cond, 0, idx), axis=0)
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
    #: paired clock reads around each pipeline stage, flushed into
    #: off-registry histograms on every completed window.  The clock
    #: reads cannot perturb the data path, so ``push_block`` stays
    #: bit-identical to the per-sample oracle with timing enabled; the
    #: overhead is a handful of ``perf_counter`` calls per block.
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
        # Trailing magnitudes for the smoother; deque pops are O(1).
        self._window = deque(maxlen=self._k)
        self._watch_left = 0
        self._mag_min = np.inf
        self._mag_max = -np.inf

    def push(self, accel_g) -> bool:
        """Feed one repaired accel sample; True when the dip+range fires."""
        # math.sqrt over an explicit sum matches np.linalg.norm bitwise on
        # a 3-vector (same left-to-right accumulation) at a fraction of
        # the per-call dispatch cost — this runs once per sample.
        x, y, z = accel_g
        mag = math.sqrt(x * x + y * y + z * z)
        window = self._window
        window.append(mag)
        # Explicit left-to-right accumulation, oldest first: push_lanes
        # sums the same way (builtin sum compensates from Python 3.12).
        total = 0.0
        for value in window:
            total += value
        smooth = total / len(window)
        if smooth < self.low_g:
            if self._watch_left <= 0:      # new episode: reset the extremes
                self._mag_min = mag
                self._mag_max = mag
            self._watch_left = self._horizon
        if self._watch_left > 0:
            self._watch_left -= 1
            self._mag_min = min(self._mag_min, mag)
            self._mag_max = max(self._mag_max, mag)
            if self._mag_max - self._mag_min >= self.range_g:
                self._watch_left = 0       # re-arm via the next dip
                return True
        return False

    @staticmethod
    def push_lanes(fallbacks, accel_g) -> list[list[bool]]:
        """:meth:`push` over many streams' blocks at once.

        ``fallbacks`` share one tuning; ``accel_g`` stacks one repaired
        block per fallback as ``(lanes, n, 3)``.  Magnitudes and trailing
        means are computed for every row of every lane as array ops — the
        carried window left-pads each lane's history, absent entries are
        0.0 (exact to add to a magnitude) and the means divide by the
        true fill — summing oldest first like :meth:`push`.  The dip
        watch, sequential but idle off a dip, then runs per lane only
        where a lane dips or is already watching.  Returns each lane's
        per-row hits; the state left behind equals ``n`` :meth:`push`
        calls per lane.
        """
        first = fallbacks[0]
        k = first._k
        for fb in fallbacks:
            if (fb._k, fb._horizon, fb.low_g, fb.range_g) != (
                    k, first._horizon, first.low_g, first.range_g):
                raise ValueError("push_lanes needs fallbacks sharing a tuning")
        lanes, n = accel_g.shape[:2]
        x, y, z = accel_g[:, :, 0], accel_g[:, :, 1], accel_g[:, :, 2]
        mag = np.sqrt(x * x + y * y + z * z)
        history = np.zeros((lanes, k - 1 + n))
        history[:, k - 1:] = mag
        carried = np.empty((lanes, 1))
        for lane, fb in enumerate(fallbacks):
            window = fb._window
            carried[lane] = len(window)
            if k > 1 and window:
                tail = list(window)[1 - k:]
                history[lane, k - 1 - len(tail):k - 1] = tail
        total = history[:, :n].copy()
        for j in range(1, k):
            total += history[:, j:j + n]
        smooth = total / np.minimum(k, carried + np.arange(1, n + 1))
        dips = smooth < first.low_g
        dipping = dips.any(axis=1).tolist()
        mags = mag.tolist()
        hits = []
        for lane, fb in enumerate(fallbacks):
            if dipping[lane] or fb._watch_left > 0:
                hits.append(fb._watch(mags[lane], dips[lane].tolist()))
            else:
                hits.append([False] * n)
            fb._window.extend(mags[lane])
        return hits

    def _watch(self, mags, dips) -> list[bool]:
        """:meth:`push`'s dip watch over precomputed magnitudes and dip
        flags, one hit per row (the smoother's window is the caller's to
        advance).  ``push`` keeps its own inline copy: it runs once per
        sample, where a call into this loop would cost it ~1 us."""
        hits = []
        watch_left = self._watch_left
        lo, hi = self._mag_min, self._mag_max
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
        self._watch_left = watch_left
        self._mag_min, self._mag_max = lo, hi
        return hits


class _Lane:
    """One stream's block inside :func:`ingest_lanes`: its detector, its
    input and the intermediates each phase hands the next."""

    __slots__ = (
        "det", "index", "error", "accel", "gyro", "t_list", "n",
        "repaired", "data_anom", "dead", "plan", "ts_anom", "real_t",
        "m", "ex6", "owner", "is_real", "fill_time", "reset_rows",
        "segments", "euler", "scaled", "windows", "ready", "fb_hits",
    )


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
    ):
        self.model = model
        self.config = config or DetectorConfig()
        #: Optional :class:`repro.obs.FlightRecorder` riding along; the
        #: detector feeds it every sample/window/decision/health event.
        self.recorder = recorder
        cfg = self.config
        sos = _lowpass_design(cfg.filter_order, cfg.filter_cutoff_hz, cfg.fs)
        self._filter = OnlineSosFilter(sos, channels=9)
        self._stack_key = _stack_key(cfg)
        self._fusion = ComplementaryFilter(fs=cfg.fs)
        # Hot-path constants: push_block() runs per call (often one
        # sample), so resolve the config-derived values once.
        self._window_n = cfg.window_samples
        self._hop_n = cfg.hop_samples
        self._deadline = cfg.effective_deadline_ms
        self._dt_nom = 1.0 / cfg.fs
        self._buffer = np.zeros((self._window_n, 9))
        self._scales = np.asarray(cfg.channel_scales, dtype=float)
        self._rails = np.array([cfg.accel_range_g] * 3
                               + [cfg.gyro_range_dps] * 3)
        self._streak_limits = np.array([cfg.stuck_channel_samples] * 6
                                       + [cfg.dead_sensor_samples] * 2)
        self._fallback = MagnitudeFallback(fs=cfg.fs) if cfg.fallback else None
        # Deadline monitor: one latency sample per window inference.  A
        # perf_counter pair per hop (every ~200 ms of stream) is noise next
        # to the CNN forward pass, so this is always on.
        self.latency = Histogram(buckets=_LATENCY_BUCKETS_MS)
        # Stage-level budget attribution.  Off-registry, like `latency`:
        # the block bit-identity suite compares registry snapshots, and
        # wall-clock stage costs are legitimately different between the
        # two arms.  `stage_clock` is injectable for deterministic tests.
        self.stages = (StageTimer(clock=stage_clock)
                       if cfg.stage_timing else None)
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
        self._filter.reset()
        self._fusion.reset()
        self._buffer[:] = 0.0
        self._filled = 0
        self._since_last_inference = 0

    def _init_health_state(self) -> None:
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
        self._last_t: float | None = None
        self._last_raw: np.ndarray | None = None   # last repaired 6-vector
        self._prev_fill_anchor: np.ndarray | None = None
        self._prev_raw_exact: np.ndarray | None = None
        # Exact-repeat (or non-finite) run lengths: six channels, then the
        # accel and gyro "every channel stuck or bad" runs.
        self._streaks = np.zeros(8, dtype=int)
        self.repaired_samples = 0
        self.saturated_samples = 0
        self.gap_filled_samples = 0
        self.stream_resets = 0
        self.clock_anomalies = 0
        self.inference_errors = 0
        self.fallback_detections = 0
        if self._fallback is not None:
            self._fallback.reset()
        if self._standing_fault():      # e.g. constructed without a model
            self._health = FAULT
            self._health_gauge.set(float(_HEALTH_LEVEL[FAULT]))

    def reset(self, *, preserve_latency_stats: bool = False) -> None:
        """Forget all streaming state — a reset detector is
        indistinguishable from a freshly constructed one.

        That includes the debounce streak, the health machine and the
        deadline monitor.  Pass ``preserve_latency_stats=True`` to keep the
        latency histogram and violation counter across trials when the
        statistics should describe the deployment rather than one stream
        (e.g. ``repro profile``).
        """
        self._init_stream_state()
        self._init_health_state()
        if self.stages is not None:
            if preserve_latency_stats:
                self.stages.discard_pending()
            else:
                self.stages = StageTimer(clock=self.stages.clock)
        if not preserve_latency_stats:
            self.latency.reset()
            self._deadline_violations = 0
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
        if last_t is not None and math.isfinite(last_t):
            self._last_t = float(last_t)
        self._update_health(anomaly=True)

    # ------------------------------------------------------------------
    # reporting
    # ------------------------------------------------------------------
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
        """Per-stage latency attribution (see :class:`repro.obs.StageTimer`),
        or ``None`` when ``config.stage_timing`` is off."""
        if self.stages is None:
            return None
        return self.stages.report()

    @property
    def samples_seen(self) -> int:
        return self._sample_index + 1

    # ------------------------------------------------------------------
    # hardening internals
    # ------------------------------------------------------------------
    @property
    def accel_dead(self) -> bool:
        if self._dead_override is not None:
            return self._dead_override[0]
        return bool(self._streaks[6] >= self.config.dead_sensor_samples)

    @property
    def gyro_dead(self) -> bool:
        if self._dead_override is not None:
            return self._dead_override[1]
        return bool(self._streaks[7] >= self.config.dead_sensor_samples)

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
        if self.stages is not None:
            # One completed window closes out one attribution sample: the
            # charged inference latency joins the stage costs accumulated
            # since the previous complete, and the flushed sum *is* the
            # recorded end-to-end latency (attribution sums exactly).
            if latency_ms is not None and not failed:
                self.stages.add_ms("inference", latency_ms)
            self.stages.flush()
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
        st = self.stages
        clk = st.clock if st is not None else None
        if clk is not None:
            t0 = clk()
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
        if clk is not None:
            st.add("decision", clk() - t0)
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
        """
        detections, requests = self._push_lane(
            accel_g, gyro_dps, None if t is None else (t,))
        for request in requests:
            hit = self._run_model(request)
            if hit is not None:
                detections.append(hit)
        if not detections:
            return None
        return min(detections, key=attrgetter("sample_index"))

    def push_collect(
        self, accel_g, gyro_dps, t: float | None = None,
    ) -> tuple[Detection | None, list[WindowRequest]]:
        """:meth:`push` with deferred CNN inference (micro-batching hook):
        a one-row :meth:`push_block`.

        Every due window is returned as a staged :class:`WindowRequest` —
        the caller batches requests across streams, runs one
        ``model.predict``, and feeds each result to :meth:`complete`,
        which finishes the decision (deadline accounting, shedding,
        debounce).  Complete each returned request, in order, before the
        next push/``reset`` on this detector.  Detections that need no
        model — the fallback path — are returned directly (the first one,
        when a gap fill holds several).  Recorder events and shedding
        follow the orderings described under :meth:`push`.
        """
        detections, requests = self._push_lane(
            accel_g, gyro_dps, None if t is None else (t,))
        return (detections[0] if detections else None), requests

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

        This is the one-lane call of :func:`ingest_lanes` (the same
        phases, minus the wrapping into a list of one), which the serving
        engine calls with every due stream's block at once.  One lane
        never stacks: repair/clamp/stuck tracking, gap synthesis,
        SOS filtering (one carried-state :meth:`OnlineSosFilter.process
        <repro.signal.filters.OnlineSosFilter.process>` call — a single
        compiled-kernel pass — per reset-delimited segment), channel
        scaling and window assembly (windows are views into one grown
        history instead of n ring-buffer rolls) run as numpy ops over the
        block; the fusion recurrence runs in one tight scalar pass
        (:meth:`ComplementaryFilter.update_block
        <repro.signal.orientation.ComplementaryFilter.update_block>`),
        and the recorder receives runs of sample rows.

        Returns ``(detections, requests)``: fallback-path detections (at
        most one per *incoming* sample) and every staged CNN window, in
        order.  Complete the requests, in order, before the next push on
        this detector.
        """
        return self._push_lane(accel_g, gyro_dps, t)

    # ------------------------------------------------------------------
    # the ingest phases, one lane (see ingest_lanes)
    # ------------------------------------------------------------------
    def _push_lane(self, accel_g, gyro_dps, t):
        """One block through every phase, one lane wide, each timed into
        its own stage."""
        lane = self._lane(accel_g, gyro_dps, t)
        if lane.n == 0:
            return [], []
        st = self.stages
        clk = st.clock if st is not None else None
        if clk is not None:
            t0 = clk()
        self._lane_validate(lane)
        self._lane_plan(lane)
        self._lane_expand(lane)
        if clk is not None:
            t1 = clk()
            st.add("ingest", t1 - t0)
        self._lane_fuse(lane)
        if clk is not None:
            t2 = clk()
            st.add("fusion", t2 - t1)
        self._lane_filter(lane)
        if clk is not None:
            t3 = clk()
            st.add("filter", t3 - t2)
        self._lane_window(lane)
        if clk is None:
            self._lane_fallback(lane)
            return self._lane_decide(lane)
        t4 = clk()
        st.add("window", t4 - t3)
        dec0 = st.pending_ms("decision")
        self._lane_fallback(lane)
        result = self._lane_decide(lane)
        self._charge_decision(t4, dec0)
        return result

    def _charge_decision(self, t0: float, dec0: float) -> None:
        """Charge the decision stage the wall time since ``t0`` minus the
        spans ``_decide`` attributed to itself meanwhile (pending
        decision ms were ``dec0`` at ``t0``)."""
        st = self.stages
        wall_ms = 1000.0 * (st.clock() - t0)
        inner_ms = st.pending_ms("decision") - dec0
        st.add_ms("decision", max(0.0, wall_ms - inner_ms))

    def _lane(self, accel_g, gyro_dps, t) -> _Lane:
        """Phase 0 — parse one block into a lane."""
        accel = np.asarray(accel_g, dtype=float).reshape(-1, 3)
        gyro = np.asarray(gyro_dps, dtype=float).reshape(-1, 3)
        n = accel.shape[0]
        if gyro.shape[0] != n:
            raise ValueError(
                f"accel and gyro disagree on block length: {n} vs "
                f"{gyro.shape[0]}"
            )
        if t is None:
            t_list = None
        elif isinstance(t, np.ndarray):
            t_list = t.astype(float).reshape(-1).tolist()
        else:
            t_list = [None if v is None else float(v) for v in t]
        if t_list is not None and len(t_list) != n:
            raise ValueError(
                f"t must have one entry per sample: got {len(t_list)} "
                f"for {n}"
            )
        lane = _Lane()
        lane.det = self
        lane.accel = accel
        lane.gyro = gyro
        lane.t_list = t_list
        lane.n = n
        lane.error = None
        return lane

    def _lane_validate(self, lane: _Lane) -> None:
        """Phase 1 — repair/clamp/stuck tracking, vectorized over the
        block."""
        lane.repaired, lane.data_anom, lane.dead = self._validate_block(
            lane.accel, lane.gyro)

    def _lane_plan(self, lane: _Lane) -> None:
        """Phase 2 — timestamp classification (cheap scalar loop: the
        carried clock is inherently sequential)."""
        (fills, resets, lane.ts_anom, fill_base, lane.real_t,
         n_resets) = self._plan_timestamps_block(lane.t_list, lane.n)
        lane.plan = (fills, resets, fill_base, n_resets)

    def _lane_expand(self, lane: _Lane) -> None:
        """Phase 3 — expand gaps into synthesized fill rows.

        Row metadata: owner[r] = incoming sample a row belongs to (fills
        belong to the sample whose arrival revealed the gap), is_real
        marks incoming rows, and segments are the reset-delimited
        contiguous stretches.  ``lane.plan`` is ``None`` for a block
        whose clock needs neither fills nor resets.
        """
        n = lane.n
        repaired = lane.repaired
        total_fill = n_resets = 0
        if lane.plan is not None:
            fills, resets, fill_base, n_resets = lane.plan
            anchor = self._prev_fill_anchor
            if fills[0] and anchor is None:
                # note_interruption seeds _last_t without an anchor: the
                # gap is flagged (ts_anom stays) but nothing can be
                # interpolated.
                fills[0] = 0
            total_fill = sum(fills)
        if total_fill == 0 and n_resets == 0:
            lane.m = n
            lane.ex6 = repaired
            lane.owner = None       # identity: row r is incoming sample r
            lane.is_real = None     # every row is real
            lane.fill_time = None
            lane.reset_rows = []
            lane.segments = [(0, n, False)]
        else:
            dt_nom = self._dt_nom
            m = n + total_fill
            ex6 = np.empty((m, 6))
            owner = np.empty(m, dtype=np.intp)
            is_real = np.zeros(m, dtype=bool)
            fill_time = np.zeros(m)
            reset_rows = []
            pos = 0
            for i in range(n):
                k = fills[i]
                if k:
                    prev = repaired[i - 1] if i else anchor
                    delta = repaired[i] - prev
                    j = np.arange(1, k + 1)
                    ex6[pos:pos + k] = prev + (j / (k + 1))[:, None] * delta
                    fill_time[pos:pos + k] = fill_base[i] + j * dt_nom
                    owner[pos:pos + k] = i
                    pos += k
                if resets[i]:
                    reset_rows.append(pos)
                ex6[pos] = repaired[i]
                owner[pos] = i
                is_real[pos] = True
                pos += 1
            cuts = [0] + [r for r in reset_rows if r] + [m]
            lane.m = m
            lane.ex6 = ex6
            lane.owner = owner
            lane.is_real = is_real
            lane.fill_time = fill_time
            lane.reset_rows = reset_rows
            lane.segments = [(a, b, a in reset_rows)
                             for a, b in zip(cuts, cuts[1:])]
        if total_fill:
            self.gap_filled_samples += total_fill
            self._counter("gap_filled_samples").inc(total_fill)
        if n_resets:
            self.stream_resets += n_resets
            self._counter("stream_resets").inc(n_resets)
        # The next gap interpolates from the last repaired sample.
        self._prev_fill_anchor = repaired[-1]

    def _lane_fuse(self, lane: _Lane) -> None:
        """Phase 4 — orientation fusion (sequential recurrence, one
        pass; long-gap resets fold into it)."""
        ex6 = lane.ex6
        lane.euler = self._fusion.update_block(
            ex6[:, :3], ex6[:, 3:], reset_rows=lane.reset_rows or None)

    def _lane_filter(self, lane: _Lane) -> None:
        """Phase 5 — SOS filter + channel scaling, one kernel pass per
        reset-delimited segment (a long gap re-primes the filter)."""
        raw9 = np.concatenate([lane.ex6, lane.euler], axis=1)
        scaled = []
        for a, b, is_reset in lane.segments:
            if is_reset:
                self._filter.reset()
            scaled.append(self._filter.process(raw9[a:b]) / self._scales)
        lane.scaled = scaled

    def _lane_window(self, lane: _Lane) -> None:
        """Phase 6 — window assembly per segment: ``windows[r]`` is the
        full window a due row r stages, and ``ready[r]`` whether row r's
        ring buffer had filled."""
        window_n = self._window_n
        hop_n = self._hop_n
        ready = [True] * lane.m
        windows: dict[int, np.ndarray] = {}
        for (a, b, is_reset), scaled in zip(lane.segments, lane.scaled):
            if is_reset:
                # Long gap: drop the window state too.  The CNN stays
                # silent until its window refills; the fallback keeps
                # guarding throughout.
                self._buffer[:] = 0.0
                self._filled = 0
                self._since_last_inference = 0
            seg_len = b - a
            hist = np.concatenate([self._buffer, scaled], axis=0)
            filled0 = self._filled
            # The cadence counters in closed form: the first due row
            # completes the warm-up (or the pending hop), then one due
            # every hop_n rows.
            if filled0 < window_n:
                first_due = window_n - filled0 - 1
                ready[a:a + min(first_due, seg_len)] = (
                    [False] * min(first_due, seg_len))
            else:
                first_due = hop_n - self._since_last_inference - 1
            last_due = None
            for r in range(first_due, seg_len, hop_n):
                # After ingesting local row r the ring buffer holds
                # exactly these window_n rows; _decide copies the view.
                windows[a + r] = hist[r + 1:r + 1 + window_n]
                last_due = r
            if last_due is not None:
                self._since_last_inference = seg_len - 1 - last_due
            elif filled0 >= window_n:
                self._since_last_inference += seg_len
            self._filled = min(window_n, filled0 + seg_len)
            self._buffer = hist[seg_len:].copy()
        lane.ready = ready
        lane.windows = windows

    def _lane_fallback(self, lane: _Lane) -> None:
        """Phase 7 — magnitude fallback: a sequential deque smoother
        (order-dependent trailing mean), one scalar step per row."""
        if self._fallback is not None:
            push_fb = self._fallback.push
            lane.fb_hits = [push_fb(row) for row in lane.ex6[:, :3].tolist()]
        else:
            lane.fb_hits = [False] * lane.m

    def _lane_decide(self, lane: _Lane):
        """Phase 8 — replay the per-sample decision/health sequence;
        returns ``(detections, requests)``.

        Rows with no evidence (not due, no fallback hit) leave
        ``_decide``'s state untouched, so with clean health they are
        skipped.
        """
        n, m = lane.n, lane.m
        owner, is_real = lane.owner, lane.is_real
        windows, ready, fb_hits = lane.windows, lane.ready, lane.fb_hits
        real_t, fill_time = lane.real_t, lane.fill_time
        data_anom, ts_anom, dead = lane.data_anom, lane.ts_anom, lane.dead
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
        if self.recorder is not None:
            # Sample rows for the recorder, handed over lazily by
            # _record_rows; health fills in as the loop replays each row.
            index = (list(range(base + 1, base + n + 1)) if is_real is None
                     else (base + 1 + np.flatnonzero(is_real)).tolist())
            health = [self._health] * n
            self._rows = (index, real_t, lane.accel, lane.gyro,
                          lane.repaired, real_anom, health)
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

    def _validate_block(self, accel: np.ndarray, gyro: np.ndarray):
        """Repair non-finite readings, clamp to the sensor rails and track
        stuck channels / dead sensors, in vectorized passes over the block.

        Non-finite entries hold the last repaired value of their channel
        (bootstrap: 1 g gravity for accel, zero rate for gyro);
        out-of-range entries clip.  Returns ``(repaired (n, 6),
        data_anomaly (n,), dead (n, 2))``; ``dead`` gives each *row's*
        view of the accel/gyro dead-sensor trackers (decisions consult
        them between every sample).  A clean block — nothing repaired,
        clipped, stuck or dead — returns ``None`` for both flag arrays.
        """
        n = accel.shape[0]
        exact = np.concatenate([accel, gyro], axis=1)
        prev = self._prev_raw_exact
        # NaN never compares equal, so neither a NaN reading nor the first
        # sample ever (NaN stand-in predecessor) repeats.
        same = exact == (
            (_NAN_ROW if prev is None else prev) if n == 1
            else np.concatenate(
                [_NAN_ROW if prev is None else prev[None, :], exact[:-1]]))
        rails = self._rails
        in_range = np.abs(exact) <= rails       # False for NaN/±inf too
        # count_nonzero: cheap whole-array tests, since one-row calls are
        # the per-sample push.  The common case — every reading finite
        # and in range, none a repeat — breaks every streak on its first
        # row, so no row is stuck or dead (the limits are >= 1).
        if (np.count_nonzero(in_range) == in_range.size
                and not np.count_nonzero(same)):
            self._streaks = _NO_STREAKS
            self._prev_raw_exact = self._last_raw = exact[-1]
            return exact, None, None
        finite = np.isfinite(exact)
        if np.count_nonzero(finite) == finite.size:
            bad = None
            repaired = exact
        else:
            bad = ~finite
            bad_rows = bad.any(axis=1)
            repaired = np.where(finite, exact, np.nan)
        # Saturation check before the hold: a held value was clipped when
        # it was repaired, and NaN placeholders compare False.
        over = np.abs(repaired) > rails
        clip_rows = None
        if np.count_nonzero(over):
            clip_rows = over.any(axis=1)
            n_clip = int(np.count_nonzero(clip_rows))
            repaired = np.clip(repaired, -rails, rails)
            self.saturated_samples += n_clip
            self._counter("saturated_samples").inc(n_clip)
        if bad is not None:
            # Vectorized hold-last: each non-finite entry takes the most
            # recent finite value in its column, falling back to the
            # carried last-repaired sample (or the gravity bootstrap).
            carry = (self._last_raw if self._last_raw is not None
                     else _REPAIR_DEFAULTS)
            src = np.where(finite, np.arange(n)[:, None], -1)
            np.maximum.accumulate(src, axis=0, out=src)
            held = repaired[np.maximum(src, 0), np.arange(6)]
            repaired = np.where(src >= 0, held, carry)
            n_bad = int(np.count_nonzero(bad_rows))
            self.repaired_samples += n_bad
            self._counter("repaired_samples").inc(n_bad)
        # Stuck-at tracking on the *exact* incoming values: genuine IMU
        # noise never repeats bit-identically, so an exact-repeat streak
        # marks a frozen channel, and a non-finite reading also counts
        # against its channel (±inf == ±inf, but it is in bad anyway).
        # Columns 6/7 are the accel/gyro "every channel stuck or bad"
        # flags; all eight streaks advance in one _running_streak pass.
        cond = np.empty((n, 8), dtype=bool)
        cond[:, :6] = same if bad is None else same | bad
        np.logical_and.reduce(cond[:, :6].reshape(n, 2, 3), axis=2,
                              out=cond[:, 6:])
        if prev is None:
            # The first sample ever has no predecessor: its channel
            # streaks stay at the carried zero.
            cond[0, :6] = False
        streaks = _running_streak(cond, self._streaks)
        # Stuck channels (columns 0-5) and dead sensors (6-7).
        over_limit = streaks >= self._streak_limits
        data_anom = over_limit[:, :6].any(axis=1)
        if bad is not None:
            data_anom |= bad_rows
        if clip_rows is not None:
            data_anom |= clip_rows
        self._streaks = streaks[-1]
        self._prev_raw_exact = exact[-1]
        self._last_raw = repaired[-1]
        return repaired, data_anom, over_limit[:, 6:]

    def _plan_timestamps_block(self, t_list, n: int):
        """Classify every inter-sample interval of the block up front and
        carry the stream clock past it.

        A timestamp closer than half a period to the previous one (early,
        duplicate or backwards) is a clock anomaly; a gap of ``missing``
        periods is bridged with that many fill rows, or resets the stream
        when longer than ``max_gap_ms``.  A missing or non-finite
        timestamp inside a timestamped stream is a clock anomaly too: its
        evidence is gone, so the clock advances one nominal period
        (keeping the checks armed for the next sample).

        Returns ``(fills, resets, ts_anom, fill_base, real_t, n_resets)``
        — per incoming sample: fill count, long-gap reset flag, clock/gap
        anomaly flag, the fill interpolation base time, and the timestamp
        (``None`` when missing or non-finite).
        """
        dt_nom = self._dt_nom
        half = 0.5 * dt_nom
        max_gap_ms = self.config.max_gap_ms
        fills = [0] * n
        resets = [False] * n
        ts_anom = [False] * n
        fill_base = [0.0] * n
        real_t: list[float | None] = [None] * n
        n_clock = 0
        n_resets = 0
        last_t = self._last_t
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
        if n_clock:
            self.clock_anomalies += n_clock
            self._counter("clock_anomalies").inc(n_clock)
        self._last_t = last_t
        return fills, resets, ts_anom, fill_base, real_t, n_resets

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
# cross-stream ingest
# ----------------------------------------------------------------------
#: Lanes of one length (and one config) from which a phase runs as one
#: stacked pass instead of lane by lane.  A stacked round pays a fixed
#: ~100 numpy calls (the fusion time loop adds ~4 a row, whatever the
#: lane count), which a few lanes' scalar passes undercut.  Measured on
#: a 2-core x86 VM (Python 3.11, numpy 2.4), one ingest round, stacked
#: vs lane by lane: even at 8 lanes for 1-row blocks (336 vs 339 us),
#: 8% faster at 4 rows, 25% faster at 20 rows; 8 lanes of 20 rows break
#: even at ~5.
_STACK_MIN_LANES = 8


def ingest_lanes(blocks) -> list:
    """Ingest many streams' blocks in one pass — the detectors' one
    ingest path (:meth:`FallDetector.push_block` is its one-lane call).

    ``blocks`` is a sequence of ``(detector, accel_g, gyro_dps, t)``, one
    *lane* per stream, each shaped as for ``push_block``.  Returns one
    entry per lane, in order: ``(detections, requests)`` exactly as
    ``push_block`` on that lane alone would return them — bit for bit,
    state and recorder events included — or the exception the lane
    raised (the caller contains it; no other lane is affected).

    The sequential parts stay per lane: timestamp planning, gap fills
    and resets, window assembly, the health/decision replay and the
    recorder hand-over.  Everything else runs once per group of lanes
    with the same row count and config, when the group holds at least
    ``_STACK_MIN_LANES`` lanes: the clean-block validation and all-clean
    timestamp tests (a lane that fails either takes the per-lane path
    for that phase), the complementary-filter recurrence
    (:meth:`ComplementaryFilter.update_lanes
    <repro.signal.orientation.ComplementaryFilter.update_lanes>`), the
    Butterworth as one kernel call (:meth:`OnlineSosFilter.process_lanes
    <repro.signal.filters.OnlineSosFilter.process_lanes>`, lanes with a
    single reset-free segment), channel scaling and the fallback
    smoother (:meth:`MagnitudeFallback.push_lanes`).  Smaller groups,
    and a one-lane call, run each phase lane by lane.  A stacked phase
    writes no lane state until it has succeeded; if it raises, the
    group reruns that phase one lane at a time, so only a lane that
    raises on its own is lost.

    Stage timing: a lane's per-lane phases are timed as in
    ``push_block``; a stacked round charges each lane a share of every
    phase's wall time in proportion to its rows.
    """
    if len(blocks) < _STACK_MIN_LANES:
        results = []
        for det, accel_g, gyro_dps, t in blocks:
            try:
                results.append(det._push_lane(accel_g, gyro_dps, t))
            except Exception as exc:
                results.append(exc)
        return results
    return _ingest_stacked(blocks)


def _ingest_stacked(blocks) -> list:
    results: list = [None] * len(blocks)
    lanes = []
    for i, (det, accel_g, gyro_dps, t) in enumerate(blocks):
        try:
            lane = det._lane(accel_g, gyro_dps, t)
        except Exception as exc:
            results[i] = exc
            continue
        if lane.n == 0:
            results[i] = ([], [])
            continue
        lane.index = i
        lanes.append(lane)
    clk = next((lane.det.stages.clock for lane in lanes
                if lane.det.stages is not None), None)
    if clk is not None:
        t0 = clk()
    _phase(_groups(lanes, "n"), _validate_lanes, FallDetector._lane_validate)
    _phase(_groups(lanes, "n"), _plan_lanes, FallDetector._lane_plan)
    _phase([_Group(lanes)], None, FallDetector._lane_expand)
    if clk is not None:
        t1 = clk()
        _charge(lanes, "ingest", t1 - t0, "n")
    groups = _groups(lanes, "m")
    _phase(groups, _fuse_lanes, FallDetector._lane_fuse)
    if clk is not None:
        t2 = clk()
        _charge(lanes, "fusion", t2 - t1, "m")
    _phase(groups, _filter_lanes, FallDetector._lane_filter)
    if clk is not None:
        t3 = clk()
        _charge(lanes, "filter", t3 - t2, "m")
    _phase([_Group(lanes)], None, FallDetector._lane_window)
    if clk is not None:
        t4 = clk()
        _charge(lanes, "window", t4 - t3, "m")
    _phase(groups, _fallback_lanes, FallDetector._lane_fallback)
    if clk is not None:
        _charge(lanes, "decision", clk() - t4, "m")
    for lane in lanes:
        det = lane.det
        if lane.error is None:
            try:
                if det.stages is None:
                    results[lane.index] = det._lane_decide(lane)
                else:
                    t5 = det.stages.clock()
                    dec0 = det.stages.pending_ms("decision")
                    results[lane.index] = det._lane_decide(lane)
                    det._charge_decision(t5, dec0)
            except Exception as exc:
                lane.error = exc
        if lane.error is not None:
            results[lane.index] = lane.error
    return results


class _Group(list):
    """Lanes sharing a row count and a config."""

    _ex6 = None

    @property
    def ex6(self) -> np.ndarray:
        """The lanes' expanded rows stacked ``(lanes, m, 6)``, built
        once per group."""
        if self._ex6 is None:
            self._ex6 = np.stack([lane.ex6 for lane in self])
        return self._ex6


def _groups(lanes, rows: str) -> list[_Group]:
    """The live lanes grouped by ``rows`` (``"n"`` before expansion,
    ``"m"`` after) and config."""
    groups: dict = {}
    for lane in lanes:
        if lane.error is None:
            key = (getattr(lane, rows), lane.det._stack_key)
            groups.setdefault(key, _Group()).append(lane)
    return list(groups.values())


def _phase(groups, stacked, solo) -> None:
    """Run one phase: ``stacked(group)`` on each group of at least
    ``_STACK_MIN_LANES`` live lanes (it returns the lanes it leaves to
    the per-lane step; if it raises, the whole group reruns one lane at
    a time), then ``solo(detector, lane)`` per remaining lane, each lane
    contained."""
    for group in groups:
        if any(lane.error is not None for lane in group):
            group[:] = [lane for lane in group if lane.error is None]
            group._ex6 = None
        rest = group
        if stacked is not None and len(group) >= _STACK_MIN_LANES:
            try:
                rest = stacked(group)
            except Exception:
                _logger.exception(
                    "stacked %s raised for %d lanes; rerunning them one "
                    "at a time", stacked.__name__, len(group))
                rest = group
        for lane in rest:
            try:
                solo(lane.det, lane)
            except Exception as exc:
                lane.error = exc


def _charge(lanes, stage: str, elapsed_s: float, rows: str) -> None:
    """Split one stacked phase's wall time over the timed live lanes, in
    proportion to their rows."""
    live = [lane for lane in lanes if lane.error is None]
    total = sum(getattr(lane, rows) for lane in live)
    if not total:
        return
    per_row = elapsed_s / total
    for lane in live:
        if lane.det.stages is not None:
            lane.det.stages.add(stage, per_row * getattr(lane, rows))


def _validate_lanes(group) -> list:
    """Stacked clean-block test: every reading finite and in range, none
    an exact repeat.  A clean lane's block needs no repair and breaks
    every streak on its first row, so it takes ``_validate_block``'s
    fast-path result here; the others are left to it."""
    det0 = group[0].det
    exact = np.concatenate([np.stack([lane.accel for lane in group]),
                            np.stack([lane.gyro for lane in group])],
                           axis=2)
    prev = np.stack([_NAN_ROW[0] if lane.det._prev_raw_exact is None
                     else lane.det._prev_raw_exact for lane in group])
    same = exact == np.concatenate([prev[:, None], exact[:, :-1]], axis=1)
    lanes, n = exact.shape[:2]
    in_range = np.abs(exact) <= det0._rails
    clean = ((np.count_nonzero(in_range.reshape(lanes, -1), axis=1)
              == n * 6)
             & (np.count_nonzero(same.reshape(lanes, -1), axis=1) == 0))
    rest = []
    for lane, ok, block in zip(group, clean.tolist(), exact):
        if not ok:
            rest.append(lane)
            continue
        det = lane.det
        det._streaks = _NO_STREAKS
        det._prev_raw_exact = det._last_raw = block[-1]
        lane.repaired = block
        lane.data_anom = lane.dead = None
    return rest


def _plan_lanes(group) -> list:
    """Stacked all-clean timestamp test: a lane whose block is fully
    timestamped at a period that needs no fill (or is untimestamped
    with no clock yet) plans no fills, resets or anomalies, and its
    clock ends at its last timestamp.  The others are left to
    ``_plan_timestamps_block``."""
    det0 = group[0].det
    dt_nom = det0._dt_nom
    n = group[0].n
    timed = [lane for lane in group if lane.t_list is not None]
    clean = []
    rest = [lane for lane in group
            if lane.t_list is None and lane.det._last_t is not None]
    clean_untimed = [lane for lane in group
                     if lane.t_list is None and lane.det._last_t is None]
    if timed:
        t = np.array([lane.t_list for lane in timed], dtype=float)
        last = np.array([np.nan if lane.det._last_t is None
                         else lane.det._last_t for lane in timed])
        dt = np.diff(t, axis=1, prepend=last[:, None])
        # The scalar plan's tests, elementwise: no early/duplicate
        # sample (dt < half a period) and no missing one (round(dt /
        # period) >= 2; np.rint rounds half to even like round()).
        ok = (dt >= 0.5 * dt_nom) & (np.rint(dt / dt_nom) <= 1.0)
        ok[:, 0] |= np.isnan(last)
        good = ok.all(axis=1) & np.isfinite(t).all(axis=1)
        for lane, is_clean in zip(timed, good.tolist()):
            (clean if is_clean else rest).append(lane)
    no_anom = [False] * n
    untimed = [None] * n
    for lane in clean:
        lane.det._last_t = lane.t_list[-1]
        lane.plan = None
        lane.ts_anom = no_anom
        lane.real_t = lane.t_list
    for lane in clean_untimed:
        lane.plan = None
        lane.ts_anom = no_anom
        lane.real_t = untimed
    return rest


def _fuse_lanes(group) -> list:
    ex6 = group.ex6
    euler = ComplementaryFilter.update_lanes(
        [lane.det._fusion for lane in group], ex6[:, :, :3], ex6[:, :, 3:],
        [lane.reset_rows for lane in group])
    for lane, angles in zip(group, euler):
        lane.euler = angles
    return []


def _filter_lanes(group) -> list:
    """One kernel call for the group's single-segment lanes, then
    channel scaling over the whole stack; multi-segment lanes are left
    to ``_lane_filter``."""
    single = [i for i, lane in enumerate(group) if len(lane.segments) == 1]
    if not single:
        return group
    stack = group if len(single) == len(group) else [group[i] for i in single]
    raw9 = np.concatenate(
        [group.ex6[single], np.stack([lane.euler for lane in stack])],
        axis=2)
    for lane in stack:
        if lane.segments[0][2]:         # reset on row 0: re-prime
            lane.det._filter.reset()
    scaled = OnlineSosFilter.process_lanes(
        [lane.det._filter for lane in stack], raw9) / group[0].det._scales
    for lane, block in zip(stack, scaled):
        lane.scaled = [block]
    return [lane for lane in group if len(lane.segments) != 1]


def _fallback_lanes(group) -> list:
    if group[0].det._fallback is None:
        return group
    hits = MagnitudeFallback.push_lanes(
        [lane.det._fallback for lane in group], group.ex6[:, :, :3])
    for lane, lane_hits in zip(group, hits):
        lane.fb_hits = lane_hits
    return []


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
