"""Multi-stream serving engine: batching, isolation and shedding.

The contracts under test:

* the engine's micro-batched detections for a stream are identical to
  serving that stream alone — even when another stream in the batch is
  feeding NaNs and timestamp gaps;
* one broken stream (a detector breaking its never-raises promise) is
  quarantined without stalling the others;
* bounded queues shed oldest-first and account for every drop;
* batch wall-clock feeds each stream's deadline machinery, so sustained
  pressure sheds the CNN per stream and the magnitude fallback takes
  over.
"""

from __future__ import annotations

import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.detector import DetectorConfig
from repro.experiments import MagnitudeProbeModel
from repro.faults import synth_stream
from repro.obs.metrics import MetricsRegistry
from repro.serve import ServeConfig, ServeEngine

CFG = DetectorConfig(window_ms=200.0, overlap=0.5, threshold=0.4,
                     consecutive_required=1)


class _ConstantModel:
    def __init__(self, probability=0.1):
        self.probability = probability

    def predict(self, x):
        return np.full((len(x), 1), self.probability)


class _SleepyModel(_ConstantModel):
    def __init__(self, sleep_s=0.002):
        super().__init__(0.1)
        self.sleep_s = sleep_s

    def predict(self, x):
        time.sleep(self.sleep_s)
        return super().predict(x)


class _PoisonBatchModel(_ConstantModel):
    """Raises whenever a saturated-at-the-rails window is in the batch."""

    def __init__(self):
        super().__init__(0.7)

    def predict(self, x):
        if np.any(np.abs(x) > 10.0):
            raise RuntimeError("poison window")
        return super().predict(x)


def _engine(model, detector_cfg=CFG, **kwargs):
    cfg = ServeConfig(detector=detector_cfg, **kwargs)
    return ServeEngine(model, cfg, registry=MetricsRegistry())


def _feed(engine, streams, step_every=10):
    """Round-robin interleave streams into the engine; collect per-stream."""
    detections = {stream_id: [] for stream_id in streams}
    n = max(len(t) for _, _, t in streams.values())
    for i in range(n):
        for stream_id, (accel, gyro, t) in streams.items():
            if i < len(t):
                engine.submit(stream_id, accel[i], gyro[i], t[i])
        if (i + 1) % step_every == 0:
            for stream_id, hit in engine.step():
                detections[stream_id].append(hit)
    for stream_id, hit in engine.step():
        detections[stream_id].append(hit)
    return detections


def _bench_streams(indices, duration_s=2.0):
    return {f"s{i}": synth_stream(i, duration_s=duration_s) for i in indices}


def _faulted_stream(index):
    """A stream with a NaN burst and a long timestamp gap."""
    accel, gyro, t = _bench_streams([index])[f"s{index}"]
    accel = accel.copy()
    t = t.copy()
    accel[50:70] = np.nan
    t[120:] += 1.5
    return accel, gyro, t


def test_batched_matches_solo_with_faulty_neighbour():
    """A NaN/gap-faulted stream must not change healthy streams' output."""
    model = _ConstantModel(0.6)
    healthy = _bench_streams([0, 1, 2])
    solo = {}
    for stream_id, stream in healthy.items():
        solo.update(_feed(_engine(model), {stream_id: stream}))
    mixed = dict(healthy)
    mixed["bad"] = _faulted_stream(9)
    together = _feed(_engine(model), mixed)
    for stream_id in healthy:
        assert together[stream_id] == solo[stream_id]


def test_faulty_stream_degrades_only_itself():
    model = _ConstantModel(0.2)
    engine = _engine(model)
    streams = _bench_streams([0])
    streams["bad"] = _faulted_stream(9)
    _feed(engine, streams)
    report = engine.stream_report()
    assert report["bad"]["health"] != "healthy" or \
        engine.session("bad").detector.health_report()["repaired_samples"] > 0
    assert report["s0"]["health"] == "healthy"
    assert engine.session("s0").detector.health_report()["repaired_samples"] == 0


def test_quarantine_contains_raising_detector():
    model = _ConstantModel(0.2)
    engine = _engine(model)
    streams = _bench_streams([0, 1])
    _feed(engine, streams, step_every=50)

    class _Broken:
        health = "healthy"
        deadline_violations = 0
        fallback_detections = 0

        def health_report(self):
            return {"cnn_shed": False}

        def push_block(self, *a, **k):
            raise RuntimeError("detector bug")

    engine.session("s1").detector = _Broken()
    detections = _feed(engine, streams, step_every=50)
    report = engine.stream_report()
    assert report["s1"]["health"] == "quarantined"
    assert report["s0"]["health"] == "healthy"
    assert engine.stream_errors == 1
    # Quarantined stream stops accepting work; healthy one keeps flowing.
    accel, gyro, t = streams["s1"]
    assert engine.submit("s1", accel[0], gyro[0], None) is False
    assert detections["s0"] or engine.session("s0").detector.samples_seen > 0


def test_poisoned_batch_retries_per_window():
    """A window that crashes the model only hurts its own stream."""
    model = _PoisonBatchModel()
    engine = _engine(model)
    streams = _bench_streams([1, 2])  # quiet ADL streams (no fall event)
    accel, gyro, t = _bench_streams([4])["s4"]
    accel = accel.copy()
    accel[:] = 16.0  # pinned at the accelerometer rail: valid but extreme
    streams["poison"] = (accel, gyro, t)
    detections = _feed(engine, streams)
    assert engine.batch_errors > 0
    # Healthy streams still got CNN verdicts above threshold.
    assert detections["s1"] and detections["s2"]
    assert all(h.source == "cnn" for h in detections["s1"])
    poison = engine.session("poison").detector
    assert poison.health_report()["inference_errors"] > 0


def test_queue_overflow_sheds_oldest_and_counts():
    engine = _engine(_ConstantModel(), queue_capacity=4)
    accel = np.array([0.0, 0.0, 1.0])
    gyro = np.zeros(3)
    for i in range(10):
        assert engine.submit("s0", accel, gyro, i / 100.0)
    session = engine.session("s0")
    assert len(session.queue) == 4
    assert session.dropped_samples == 6
    assert engine.dropped_samples == 6
    # The freshest samples survived (a queued row is [*accel, *gyro, t]).
    assert session.queue[0][-1] == pytest.approx(0.06)


def test_submit_copies_the_sample_so_callers_may_reuse_buffers():
    """A caller that writes one buffer, submits it and repeats must get
    exactly what it would by submitting copies: the queue holds values,
    not the caller's arrays (were it to hold the arrays, every queued
    sample would read back as the last write and look stuck)."""
    accel, gyro, t = _bench_streams([1])["s1"]
    engines = {}
    for reuse in (True, False):
        engine = _engine(_ConstantModel())
        a_buf, g_buf = np.empty(3), np.empty(3)
        for i in range(60):
            if reuse:
                a_buf[:] = accel[i]
                g_buf[:] = gyro[i]
                engine.submit("s", a_buf, g_buf, t[i])
            else:
                engine.submit("s", accel[i].copy(), gyro[i].copy(), t[i])
        engine.step()
        engines[reuse] = engine.session("s").detector
    reused, copied = engines[True], engines[False]
    assert reused.health == copied.health == "healthy"
    assert reused.health_transitions == copied.health_transitions == []
    assert reused.health_report() == copied.health_report()
    np.testing.assert_array_equal(reused._buffer, copied._buffer)


@pytest.mark.parametrize("accel", [None, (0.0, 1.0), ("x", 0.0, 1.0),
                                   np.zeros((2, 3)),
                                   np.array([0.0, "x", 1.0], dtype=object)])
def test_malformed_sample_is_refused_at_submit_and_counted(accel):
    """``submit`` never raises on a malformed sample: it refuses it and
    counts it as dropped, and the stream keeps serving its good ones."""
    engine = _engine(_ConstantModel())
    ok_accel, ok_gyro, ok_t = _bench_streams([0, 1])["s0"]
    assert engine.submit("bad", accel, np.zeros(3), 0.0) is False
    assert engine.dropped_samples == 1
    assert engine.samples_in == 0
    for i in range(20):
        for sid in ("bad", "s0"):
            engine.submit(sid, ok_accel[i], ok_gyro[i], ok_t[i])
    engine.step()
    report = engine.stream_report()
    assert report["bad"]["health"] == report["s0"]["health"] == "healthy"
    assert engine.stream_errors == 0
    for sid in ("bad", "s0"):
        assert engine.session(sid).detector.samples_seen == 20


def test_queue_depth_gauge_reports_burst_peak_then_steady_state():
    """Between steps the registry gauge reads the last round's pre-drain
    peak (a burst shows on /metrics and the dashboard), and a round with
    nothing queued brings it back to 0."""
    engine = _engine(_ConstantModel())
    gauge = engine.registry.gauge("serve/queue_depth")
    accel = np.array([0.0, 0.0, 1.0])
    gyro = np.zeros(3)
    for i in range(10):
        engine.submit("s0", accel, gyro, i / 100.0)
    for i in range(3):
        engine.submit("s1", accel, gyro, i / 100.0)
    engine.step()
    assert gauge.value == 10.0
    engine.submit("s1", accel, gyro, 0.1)
    engine.step()
    assert gauge.value == 1.0
    engine.step()
    assert gauge.value == 0.0


def test_max_streams_rejects_new_streams():
    engine = _engine(_ConstantModel(), max_streams=2)
    accel = np.array([0.0, 0.0, 1.0])
    gyro = np.zeros(3)
    assert engine.submit("a", accel, gyro, 0.0)
    assert engine.submit("b", accel, gyro, 0.0)
    assert engine.submit("c", accel, gyro, 0.0) is False
    assert engine.rejected_streams == 1
    assert sorted(engine.stream_ids) == ["a", "b"]


def test_deadline_pressure_sheds_to_fallback_per_stream():
    """Slow batches trip per-stream shedding; fallback stays armed."""
    cfg = DetectorConfig(window_ms=200.0, overlap=0.5, threshold=0.4,
                         deadline_ms=0.05, degraded_after_violations=1,
                         shed_after_violations=2, consecutive_required=1)
    engine = _engine(_SleepyModel(0.002), cfg)
    streams = _bench_streams([0, 3])  # stream 0 has a fall event
    detections = _feed(engine, streams)
    report = engine.stream_report()
    for stream_id in streams:
        assert report[stream_id]["deadline_violations"] > 0
        assert report[stream_id]["cnn_shed"]
    # The fall stream still fires via the magnitude fallback.
    fallback_hits = [h for h in detections["s0"] if h.source == "fallback"]
    assert fallback_hits


@pytest.mark.parametrize("bad_t", [np.nan, np.inf])
def test_non_finite_timestamps_never_stall_the_engine(bad_t):
    """A non-finite timestamp — mid-stream or as the engine's very first
    — is a missing one to the detector and never becomes the engine
    clock the SLO windows are evaluated at; every later step runs and
    the stream stays in service."""
    engine = _engine(_ConstantModel())
    engine.submit("first", (0.0, 0.0, 1.0), (0.0, 0.0, 0.0), t=bad_t)
    engine.step()
    streams = _bench_streams([0])
    accel, gyro, t = streams["s0"]
    for i in range(len(t)):
        engine.submit("s0", accel[i], gyro[i], bad_t if i == 50 else t[i])
        if (i + 1) % 10 == 0:
            engine.step()
    engine.step()
    assert engine.last_round_t == pytest.approx(float(t[-1]))
    assert engine.stream_errors == 0
    report = engine.stream_report()
    assert report["s0"]["health"] != "quarantined"
    assert report["first"]["health"] != "quarantined"
    assert engine.session("s0").detector.clock_anomalies == 1


def test_empty_step_is_safe_and_counts_a_batch():
    engine = _engine(_ConstantModel())
    assert engine.step() == []
    assert engine.batches == 1
    assert engine.windows_inferred == 0


def test_engine_requires_model():
    with pytest.raises(ValueError):
        ServeEngine(None, ServeConfig(), registry=MetricsRegistry())


def test_serve_config_validation():
    with pytest.raises(ValueError):
        ServeConfig(queue_capacity=0)
    with pytest.raises(ValueError):
        ServeConfig(max_streams=0)


def test_engine_report_shape():
    engine = _engine(_ConstantModel())
    _feed(engine, _bench_streams([0]))
    report = engine.report()
    assert report["streams"] == 1
    assert report["samples_in"] == 200
    assert report["windows_inferred"] > 0
    assert report["batch_size"]["count"] == report["batches"]


# ----------------------------------------------------------------------
# submit_block: the block front door
# ----------------------------------------------------------------------
def _block_streams():
    """Two synthetic streams (stream 0 carries a fall) and one with a NaN
    burst and a timestamp gap, so repair and gap handling cross the
    block door too."""
    streams = _bench_streams([0, 3])
    streams["bad"] = _faulted_stream(9)
    return streams


def _serve_rounds(engine, streams, cuts, *, blocks, untimed):
    """Feed each stream's rounds (``cuts[sid]`` are its row boundaries)
    round-robin, one ``step`` per round.  ``blocks`` submits a round's
    rows as one ``submit_block``, else row by row through ``submit``;
    the rows in ``untimed`` carry no timestamp (``None``).  Returns the
    detections, per-stream health reports and the engine counters."""
    detections = {sid: [] for sid in streams}
    for r in range(max(len(c) for c in cuts.values()) - 1):
        for sid, (accel, gyro, t) in streams.items():
            if r + 1 >= len(cuts[sid]):
                continue
            lo, hi = cuts[sid][r], cuts[sid][r + 1]
            ts = [None if i in untimed else float(t[i])
                  for i in range(lo, hi)]
            if blocks:
                assert engine.submit_block(sid, accel[lo:hi], gyro[lo:hi],
                                           ts) == hi - lo
            else:
                for i, ti in zip(range(lo, hi), ts):
                    assert engine.submit(sid, accel[i], gyro[i], ti)
        for sid, hit in engine.step():
            detections[sid].append(hit)
    health = {sid: engine.session(sid).detector.health_report()
              for sid in streams}
    counters = (engine.samples_in, engine.dropped_samples,
                engine.last_round_t)
    return detections, health, counters


@st.composite
def _splits(draw):
    """Per-stream row boundaries of a 200-sample stream (empty blocks
    included) and a set of untimed rows."""
    cuts = {}
    for sid in ("s0", "s3", "bad"):
        inner = draw(st.lists(st.integers(0, 200), max_size=12))
        cuts[sid] = [0, *sorted(inner), 200]
    untimed = draw(st.sets(st.integers(0, 199), max_size=8))
    return cuts, untimed


@settings(max_examples=15, deadline=None)
@given(_splits())
def test_block_splits_match_per_sample_submits(split):
    """Any split of the streams into ``submit_block`` calls yields what
    the same samples submitted one by one do, byte for byte: detections,
    detector health and the engine's counters and clock."""
    cuts, untimed = split
    streams = _block_streams()
    model = MagnitudeProbeModel()
    by_sample = _serve_rounds(_engine(model), streams, cuts, blocks=False,
                              untimed=untimed)
    by_block = _serve_rounds(_engine(model), streams, cuts, blocks=True,
                             untimed=untimed)
    assert by_block == by_sample
    assert any(by_sample[0].values())


#: Malformed blocks, each with the rows its refusal counts: the length
#: of its accelerometer readings, at least 1.
MALFORMED_BLOCKS = {
    "accel (4, 2)": (np.zeros((4, 2)), np.zeros((4, 3)), None, 4),
    "accel (3,)": (np.zeros(3), np.zeros(3), None, 3),
    "lengths differ": (np.zeros((4, 3)), np.zeros((5, 3)), None, 4),
    "t too short": (np.zeros((4, 3)), np.zeros((4, 3)), np.zeros(3), 4),
    "non-numeric": ([["x", 0, 1]] * 4, np.zeros((4, 3)), None, 4),
    "non-numeric t": (np.zeros((4, 3)), np.zeros((4, 3)), ["a"] * 4, 4),
    "ragged": ([[0, 0, 1], [0, 1]], np.zeros((2, 3)), None, 2),
    "no readings": (None, np.zeros((4, 3)), None, 1),
}


@pytest.mark.parametrize("form", list(MALFORMED_BLOCKS))
def test_malformed_block_is_refused_whole_and_counted(form):
    """A malformed block never raises and queues nothing: it is dropped
    whole (each row it offers counted) and the stream keeps serving."""
    accel, gyro, t, rows = MALFORMED_BLOCKS[form]
    engine = _engine(_ConstantModel())
    assert engine.submit_block("s", accel, gyro, t) == 0
    assert engine.dropped_samples == rows
    assert engine.samples_in == 0
    good_accel, good_gyro, good_t = _bench_streams([0])["s0"]
    assert engine.submit_block("s", good_accel[:20], good_gyro[:20],
                               good_t[:20]) == 20
    engine.step()
    assert engine.stream_report()["s"]["health"] == "healthy"
    assert engine.session("s").detector.samples_seen == 20


def test_block_longer_than_capacity_keeps_its_freshest_rows():
    engine = _engine(_ConstantModel(), queue_capacity=4)
    accel = np.tile([0.0, 0.0, 1.0], (10, 1))
    gyro = np.zeros((10, 3))
    t = np.arange(10) / 100.0
    assert engine.submit("s0", accel[0], gyro[0], 0.5) is True
    assert engine.submit_block("s0", accel, gyro, t) == 4
    session = engine.session("s0")
    assert [row[6] for row in session.queue] == pytest.approx(t[6:])
    # The row queued before the block and the block's 6 oldest are shed.
    assert session.dropped_samples == engine.dropped_samples == 7
    assert engine.samples_in == 11


@pytest.mark.parametrize("missing", [np.nan, None])
def test_missing_block_timestamps_never_advance_the_clock(missing):
    """NaN or ``None`` timestamps are missing ones: a block of them
    leaves the stream clock alone, and a mixed block moves it to its
    latest finite timestamp, wherever that sits in the block (and
    whatever infinite one it holds too)."""
    engine = _engine(_ConstantModel())
    accel = np.tile([0.0, 0.0, 1.0], (3, 1))
    gyro = np.zeros((3, 3))
    assert engine.submit_block("s", accel, gyro, [missing] * 3) == 3
    assert engine.submit_block("s", accel, gyro, None) == 3
    engine.step()
    assert engine.last_round_t is None
    assert engine.submit_block("s", accel, gyro,
                               [0.25, missing, np.inf]) == 3
    engine.step()
    assert engine.last_round_t == 0.25
    assert engine.submit_block("s", accel, gyro, [missing, 0.1, 0.2]) == 3
    engine.step()
    assert engine.last_round_t == 0.25
    # The clock is the latest timestamp seen, not the block's last one.
    assert engine.submit_block("s", accel, gyro, [0.5, 0.3, missing]) == 3
    engine.step()
    assert engine.last_round_t == 0.5
