"""Hardened-detector behaviour under sensor faults.

The contract under test: ``FallDetector.push`` never raises on bad data,
never emits a non-finite probability, walks the documented
healthy/degraded/fault state machine, and the magnitude fallback keeps
the airbag guarded whenever the CNN path is unavailable.
"""

from __future__ import annotations

import time

import numpy as np
import pytest

from repro.core.detector import (
    DEGRADED,
    FAULT,
    HEALTH_STATES,
    HEALTHY,
    AirbagController,
    DetectorConfig,
    FallDetector,
    MagnitudeFallback,
)
from repro.datasets.subjects import make_subjects
from repro.datasets.synthesis.generator import synthesize_recording
from repro.datasets.tasks import TASKS, fall_ids
from repro.faults import builtin_scenarios


class _ConstantModel:
    def __init__(self, probability=0.1):
        self.probability = probability

    def predict(self, x):
        return np.full((len(x), 1), self.probability)


class _SleepyModel(_ConstantModel):
    """Blows the deadline on every inference."""

    def __init__(self, sleep_s=0.002):
        super().__init__(0.1)
        self.sleep_s = sleep_s

    def predict(self, x):
        time.sleep(self.sleep_s)
        return super().predict(x)


class _RaisingModel:
    def predict(self, x):
        raise RuntimeError("firmware bug")


class _NanModel:
    def predict(self, x):
        return np.full((len(x), 1), np.nan)


def _fall_recording(task_id=30, seed=4):
    subject = make_subjects("HD", 1, seed=1)[0]
    return synthesize_recording(TASKS[task_id], subject, base_seed=seed)


GRAVITY = np.array([0.0, 0.0, 1.0])


class TestNeverRaisesUnderFaults:
    @pytest.mark.parametrize("name", sorted(builtin_scenarios()))
    def test_every_builtin_scenario_streams_clean(self, name):
        rec = _fall_recording()
        scenario = builtin_scenarios(seed=7)[name]
        t, accel, gyro = scenario.apply(rec)
        detector = FallDetector(_ConstantModel(0.6), DetectorConfig())
        hits = detector.run(accel, gyro, t=t)   # must not raise
        assert all(np.isfinite(h.probability) for h in hits)
        assert detector.health in HEALTH_STATES
        report = detector.health_report()
        assert set(report["states_seen"]) <= set(HEALTH_STATES)
        # The ring buffer never absorbed a non-finite value.
        assert np.isfinite(detector._buffer).all()

    def test_scenarios_are_actually_detected_as_anomalies(self):
        rec = _fall_recording()
        scenarios = builtin_scenarios(seed=7)
        expectations = {    # scenario -> counter that must move
            "dropout": "gap_filled_samples",
            "burst_gap": "stream_resets",
            "nan_burst": "repaired_samples",
            "clock_jitter": "clock_anomalies",
        }
        for name, counter in expectations.items():
            detector = FallDetector(_ConstantModel(), DetectorConfig())
            t, accel, gyro = scenarios[name].apply(rec)
            detector.run(accel, gyro, t=t)
            assert detector.health_report()[counter] > 0, name

    def test_gyro_dead_forces_fault_state(self):
        rec = _fall_recording()
        t, accel, gyro = builtin_scenarios(seed=7)["gyro_dead"].apply(rec)
        detector = FallDetector(_ConstantModel(), DetectorConfig())
        detector.run(accel, gyro, t=t)
        assert detector.gyro_dead
        assert detector.health == FAULT
        assert not detector.accel_dead


class TestValidationAndRepair:
    def test_nan_sample_is_repaired_and_degrades_health(self):
        detector = FallDetector(_ConstantModel(), DetectorConfig())
        for _ in range(5):
            detector.push(GRAVITY, np.zeros(3))
        assert detector.health == HEALTHY
        detector.push(np.array([np.nan, 0.0, 1.0]), np.zeros(3))
        assert detector.repaired_samples == 1
        assert detector.health == DEGRADED
        assert np.isfinite(detector._buffer).all()

    def test_health_recovers_after_clean_streak(self):
        cfg = DetectorConfig(recovery_samples=20)
        detector = FallDetector(_ConstantModel(), cfg)
        detector.push(np.array([np.inf, 0.0, 1.0]), np.zeros(3))
        assert detector.health == DEGRADED
        for _ in range(cfg.recovery_samples + 1):
            detector.push(GRAVITY, np.zeros(3))
        assert detector.health == HEALTHY
        transitions = detector.health_transitions
        assert [(f, to) for _, f, to in transitions] == [
            (HEALTHY, DEGRADED), (DEGRADED, HEALTHY)
        ]

    def test_saturated_readings_are_clamped(self):
        cfg = DetectorConfig(accel_range_g=4.0, gyro_range_dps=500.0)
        detector = FallDetector(_ConstantModel(), cfg)
        detector.push(np.array([100.0, 0.0, 1.0]), np.array([0.0, 9000.0, 0.0]))
        assert detector.saturated_samples == 1
        assert np.abs(detector._last_raw[:3]).max() <= 4.0
        assert np.abs(detector._last_raw[3:]).max() <= 500.0

    def test_first_sample_nan_bootstraps_to_gravity(self):
        detector = FallDetector(_ConstantModel(), DetectorConfig())
        detector.push(np.full(3, np.nan), np.full(3, np.nan))
        np.testing.assert_allclose(detector._last_raw[:3], GRAVITY)
        np.testing.assert_allclose(detector._last_raw[3:], np.zeros(3))


class TestTimestampHandling:
    def _push_range(self, detector, times, rng):
        for t in times:
            accel = GRAVITY + rng.normal(0, 1e-4, 3)
            detector.push(accel, rng.normal(0, 1e-3, 3), t=float(t))

    def test_short_gap_is_interpolated(self):
        detector = FallDetector(_ConstantModel(), DetectorConfig())
        rng = np.random.default_rng(0)
        self._push_range(detector, np.arange(50) / 100.0, rng)
        # 3 samples missing (t jumps 0.49 -> 0.53): within max_gap_ms=200.
        self._push_range(detector, [0.53], rng)
        assert detector.gap_filled_samples == 3
        assert detector.stream_resets == 0
        assert detector.samples_seen == 54
        assert detector.health == DEGRADED

    def test_long_gap_resets_stream_state(self):
        cfg = DetectorConfig(window_ms=200)
        detector = FallDetector(_ConstantModel(), cfg)
        rng = np.random.default_rng(1)
        self._push_range(detector, np.arange(30) / 100.0, rng)
        assert detector._filled == cfg.window_samples
        self._push_range(detector, [5.0], rng)   # 4.7 s outage
        assert detector.stream_resets == 1
        assert detector.gap_filled_samples == 0
        assert detector._filled == 1              # window warming up again

    def test_backwards_timestamp_counts_clock_anomaly(self):
        detector = FallDetector(_ConstantModel(), DetectorConfig())
        rng = np.random.default_rng(2)
        self._push_range(detector, [0.00, 0.01, 0.005], rng)
        assert detector.clock_anomalies == 1
        assert detector.samples_seen == 3

    def test_missing_timestamp_mid_stream_keeps_gap_checks_armed(self):
        """A None t after timestamped samples must not null ``_last_t``.

        Regression: ``_push`` used to store ``self._last_t = t``
        unconditionally, so one untimestamped sample silently disarmed
        gap/backwards detection for the rest of the stream.  Now the
        nominal clock keeps advancing (counted as a clock anomaly) and a
        later long gap still resets the stream.
        """
        detector = FallDetector(_ConstantModel(), DetectorConfig())
        rng = np.random.default_rng(3)
        self._push_range(detector, np.arange(30) / 100.0, rng)
        detector.push(GRAVITY + rng.normal(0, 1e-4, 3),
                      rng.normal(0, 1e-3, 3), t=None)
        assert detector.clock_anomalies == 1
        assert detector._last_t == pytest.approx(0.30)  # advanced by dt_nom
        # Gap machinery is still armed: a 5 s jump resets the stream.
        self._push_range(detector, [5.3], rng)
        assert detector.stream_resets == 1

    def test_non_finite_interruption_clock_is_ignored(self):
        """Failover seeds ``note_interruption`` with the stream's last
        timestamp; a non-finite one leaves the clock unseeded."""
        detector = FallDetector(_ConstantModel(), DetectorConfig())
        detector.note_interruption(last_t=np.nan)
        assert detector.health == DEGRADED
        detector.push(GRAVITY, np.ones(3), t=1.0)
        assert detector.samples_seen == 1
        assert detector.clock_anomalies == 0

    @pytest.mark.parametrize("bad_t", [np.nan, np.inf, -np.inf])
    def test_non_finite_timestamp_is_a_missing_one(self, bad_t):
        """A NaN/±inf timestamp is treated like ``t=None``: one clock
        anomaly, the clock advances one nominal period, and the gap
        checks stay armed — on ``push`` and on ``push_block``."""
        rng = np.random.default_rng(4)
        accel = GRAVITY + rng.normal(0, 1e-4, (33, 3))
        gyro = rng.normal(0, 1e-3, (33, 3))
        t = np.arange(33) / 100.0
        t[30] = bad_t
        t[32] = 5.0                                # long gap afterwards
        arms = []
        for feed in ("push", "push_block", "missing"):
            detector = FallDetector(_ConstantModel(), DetectorConfig())
            if feed == "push_block":
                detector.push_block(accel[:31], gyro[:31], t[:31])
            else:
                for i in range(31):
                    ti = None if feed == "missing" and i == 30 else t[i]
                    detector.push(accel[i], gyro[i], t=ti)
            assert detector.clock_anomalies == 1
            assert detector._last_t == pytest.approx(0.30)
            detector.push_block(accel[31:], gyro[31:], t[31:])
            assert detector.stream_resets == 1
            arms.append(detector.health_report())
        assert arms[0] == arms[1] == arms[2]


class TestCnnSheddingAndFallback:
    def test_deadline_streak_sheds_cnn_to_fault(self):
        cfg = DetectorConfig(
            window_ms=200, deadline_ms=0.001,
            degraded_after_violations=1, shed_after_violations=3,
            shed_retry_hops=2,
        )
        detector = FallDetector(_SleepyModel(), cfg)
        for _ in range(cfg.window_samples + 3 * cfg.hop_samples):
            detector.push(GRAVITY, np.zeros(3))
        assert detector.deadline_violations >= 3
        assert detector.health_report()["cnn_shed"]
        assert detector.health == FAULT

    def test_shed_cnn_is_retried_after_backoff(self):
        cfg = DetectorConfig(
            window_ms=200, deadline_ms=0.001,
            degraded_after_violations=1, shed_after_violations=1,
            shed_retry_hops=2,
        )
        detector = FallDetector(_SleepyModel(), cfg)
        shed_seen = recovered_probe = False
        for _ in range(cfg.window_samples + 12 * cfg.hop_samples):
            detector.push(GRAVITY, np.zeros(3))
            if detector.health_report()["cnn_shed"]:
                shed_seen = True
            elif shed_seen:
                recovered_probe = True
        assert shed_seen and recovered_probe

    def test_model_exception_sheds_and_never_escapes(self):
        detector = FallDetector(_RaisingModel(), DetectorConfig(window_ms=200))
        for _ in range(60):
            detector.push(GRAVITY, np.zeros(3))   # must not raise
        assert detector.inference_errors >= 1
        assert detector.health == FAULT

    def test_nan_probability_sheds_instead_of_emitting(self):
        detector = FallDetector(_NanModel(), DetectorConfig(window_ms=200))
        hits = [detector.push(GRAVITY, np.zeros(3)) for _ in range(60)]
        hits = [h for h in hits if h]
        assert all(np.isfinite(h.probability) for h in hits)
        assert detector.inference_errors >= 1

    def test_fallback_detection_carries_source(self):
        rec = _fall_recording()
        detector = FallDetector(None, DetectorConfig())
        assert detector.health == FAULT    # no CNN: primary path unusable
        hits = detector.run(rec.accel, rec.gyro)
        assert hits
        assert all(h.source == "fallback" for h in hits)
        assert detector.fallback_detections == len(hits)

    def test_cnn_detection_carries_source(self):
        detector = FallDetector(_ConstantModel(0.9),
                                DetectorConfig(window_ms=200))
        hits = [detector.push(GRAVITY, np.zeros(3)) for _ in range(30)]
        hits = [h for h in hits if h]
        assert hits and all(h.source == "cnn" for h in hits)

    def test_fallback_shadows_quietly_while_cnn_healthy(self):
        rec = _fall_recording()
        detector = FallDetector(_ConstantModel(0.0), DetectorConfig())
        hits = detector.run(rec.accel, rec.gyro)
        # CNN is available and says "no fall"; the fallback must not
        # second-guess it (only the pre-window warm-up may emit).
        cfg = detector.config
        assert all(h.sample_index < cfg.window_samples for h in hits)


class TestFallbackSensitivity:
    def test_fallback_only_detector_catches_most_synthetic_falls(self):
        """Acceptance: >= 80 % of synthetic falls with the CNN disabled."""
        subject = make_subjects("FB", 1, seed=5)[0]
        detector = FallDetector(None, DetectorConfig())
        detected = 0
        falls = fall_ids()
        for tid in falls:
            rec = synthesize_recording(TASKS[tid], subject, base_seed=9)
            detector.reset()
            hits = detector.run(rec.accel, rec.gyro)
            lo = rec.fall_onset / rec.fs - 0.2
            hi = rec.impact / rec.fs - 0.150
            detected += any(lo <= h.time_s <= hi for h in hits)
        assert detected / len(falls) >= 0.80

    def test_magnitude_fallback_ignores_quiet_standing(self):
        fallback = MagnitudeFallback()
        rng = np.random.default_rng(3)
        fired = [fallback.push(GRAVITY + rng.normal(0, 0.01, 3))
                 for _ in range(500)]
        assert not any(fired)


class TestAirbagFailSafe:
    class _ExplodingDetector:
        """Deliberately violates FallDetector's never-raise contract."""

        health = FAULT

        def push(self, accel, gyro, t=None):
            raise RuntimeError("detector crashed")

    def test_detector_exception_is_contained(self):
        controller = AirbagController(self._ExplodingDetector())
        for _ in range(10):
            assert controller.push(GRAVITY, np.zeros(3)) is None
        assert controller.detector_errors == 10
        assert controller.state == "armed"

    def test_fallback_trigger_latches_like_cnn(self):
        rec = _fall_recording()
        controller = AirbagController(FallDetector(None, DetectorConfig()))
        for i in range(rec.n_samples):
            controller.push(rec.accel[i], rec.gyro[i])
        assert controller.state == "triggered"
        assert controller.trigger.source == "fallback"
        assert controller.detector_health == FAULT


class TestMetricNamespacing:
    """Regression: two live detectors used to share one global metric
    namespace, so instance B's faults inflated instance A's counters."""

    def test_two_detectors_report_independent_counters(self):
        from repro.obs.metrics import MetricsRegistry

        registry = MetricsRegistry()
        cfg = DetectorConfig(window_ms=200.0, overlap=0.5)
        a = FallDetector(_ConstantModel(), cfg, registry=registry,
                         metric_prefix="detector/a")
        b = FallDetector(_ConstantModel(), cfg, registry=registry,
                         metric_prefix="detector/b")
        rng = np.random.default_rng(0)
        for i in range(30):
            # jitter so a's perfectly healthy stream never looks stuck
            accel = np.array([0.0, 0.0, 1.0]) + rng.normal(0, 0.01, 3)
            gyro = rng.normal(0, 1.0, 3)
            a.push(accel, gyro, i / 100.0)
            # b's accelerometer is broken: every sample needs repair.
            b.push(np.full(3, np.nan), gyro, i / 100.0)
        assert a.health == HEALTHY
        assert b.health != HEALTHY
        assert registry.counter("detector/b/repaired_samples").value == 30
        assert registry.counter("detector/a/repaired_samples").value == 0
        assert registry.gauge("detector/a/health").value == 0.0
        assert registry.gauge("detector/b/health").value > 0.0
        # Instance counters mirror the registry, per instance.
        assert a.repaired_samples == 0
        assert b.repaired_samples == 30

    def test_default_prefix_preserves_historical_names(self):
        from repro.obs.metrics import MetricsRegistry

        registry = MetricsRegistry()
        detector = FallDetector(_ConstantModel(),
                                DetectorConfig(window_ms=200.0),
                                registry=registry)
        detector.push(np.full(3, np.nan), np.zeros(3), 0.0)
        # Pre-namespacing dashboards watched detector/<counter>; the
        # default prefix keeps those names working.
        assert registry.counter("detector/repaired_samples").value == 1
        assert registry.gauge("detector/health").value >= 0.0
