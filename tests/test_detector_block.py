"""``push_block`` ≡ the per-sample oracle — the bit-identity property suite.

``FallDetector.push_block`` is the detector's one ingest path (``push``
calls it with one row, or with a hop of rows it held back).  It promises
*bit-identical* results to the per-sample reference pipeline in
``tests/detector_oracle.py`` with every staged request completed at the
block boundary.  These tests drive both over every builtin fault
scenario, random block splits and one-row calls and compare everything
observable: staged windows byte for byte, detections, health
transitions, metric counters, the ring buffer, the sample clock and —
with a flight recorder attached — the recorded event stream, order
included.  ``make check`` runs this via ``make test``: it is the
identity gate for the ingest path.
"""

from __future__ import annotations

import json
import time
import zlib

import numpy as np
import pytest
from detector_oracle import ScalarDetector, feed
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.core.detector as detector_module
from repro.core.detector import DetectorConfig, FallDetector
from repro.faults import builtin_scenarios, synth_stream
from repro.obs import FlightConfig, FlightRecorder
from repro.obs.metrics import MetricsRegistry

CFG = DetectorConfig(window_ms=200.0, overlap=0.5, threshold=0.4,
                     consecutive_required=1)


class _TanhModel:
    """Deterministic CNN stand-in: a pure function of the window bytes."""

    def predict(self, x):
        x = np.asarray(x)
        return (0.5 + 0.5 * np.tanh(4.0 * x.mean(axis=(1, 2))))[:, None]


def _base_stream(index=0, duration_s=4.0):
    return synth_stream(index, duration_s=duration_s)


def _scenario_stream(name, duration_s=4.0):
    accel, gyro, t = _base_stream(0, duration_s)
    scenario = builtin_scenarios(seed=7)[name]
    return scenario.apply_arrays(t, accel, gyro)


def _random_splits(n, rng, n_blocks=12):
    """Random interior cut points giving ~``n_blocks`` uneven blocks."""
    if n < 2:
        return []
    cuts = rng.choice(np.arange(1, n), size=min(n_blocks, n - 1),
                      replace=False)
    return sorted(int(c) for c in cuts)


def _mixed_splits(n, rng):
    """Random blocks with runs of one-row calls between them."""
    splits = set(_random_splits(n, rng))
    for start in rng.choice(np.arange(1, n - 30), size=4, replace=False):
        splits.update(range(int(start), int(start) + 25))
    return sorted(splits)


def _events_json(recorder):
    """The recorded stream as written to disk (NaN-safe to compare)."""
    return json.dumps(recorder.events())


def _incidents(recorder):
    return [(i.meta["trigger"], i.meta["trigger_index"],
             i.meta["extra_triggers"], json.dumps(i.events))
            for i in recorder.incidents]


def _assert_identical(accel, gyro, t, splits, *, cfg=CFG, with_model=True,
                      latency_ms=0.5, recorder=False):
    arms = {}
    for cls in (ScalarDetector, FallDetector):
        model = _TanhModel() if with_model else None
        registry = MetricsRegistry()
        rec = (FlightRecorder(FlightConfig(capacity=1 << 16,
                                           post_trigger_samples=25))
               if recorder else None)
        detector = cls(model, cfg, registry=registry, recorder=rec)
        trace = feed(detector, model, accel, gyro, t, splits,
                     latency_ms=latency_ms)
        arms[cls] = (trace, detector, registry, rec)
    trace_loop, det_loop, reg_loop, rec_loop = arms[ScalarDetector]
    trace_block, det_block, reg_block, rec_block = arms[FallDetector]
    assert trace_block == trace_loop
    assert det_block.samples_seen == det_loop.samples_seen
    assert det_block.health_report() == det_loop.health_report()
    assert det_block.health_transitions == det_loop.health_transitions
    np.testing.assert_array_equal(det_block._buffer, det_loop._buffer)
    assert reg_block.snapshot() == reg_loop.snapshot()
    if recorder:
        assert _events_json(rec_block) == _events_json(rec_loop)
        assert _incidents(rec_block) == _incidents(rec_loop)
    return trace_block


@pytest.mark.parametrize("name", sorted(builtin_scenarios()))
def test_block_matches_loop_on_every_builtin_scenario(name):
    t, accel, gyro = _scenario_stream(name)
    rng = np.random.default_rng(zlib.crc32(name.encode()))
    for trial in range(3):
        splits = _random_splits(len(accel), rng)
        _assert_identical(accel, gyro, t, splits)


@pytest.mark.parametrize("name", sorted(builtin_scenarios()))
def test_block_matches_oracle_with_recorder(name):
    """The recorder arm: the event stream, order included, and every
    frozen incident match the oracle over random splits mixed with runs
    of one-row calls."""
    t, accel, gyro = _scenario_stream(name)
    rng = np.random.default_rng(zlib.crc32(name.encode()) + 1)
    _assert_identical(accel, gyro, t, _random_splits(len(accel), rng),
                      recorder=True)
    _assert_identical(accel, gyro, t, _mixed_splits(len(accel), rng),
                      recorder=True)


def test_block_matches_loop_single_sample_blocks():
    """Degenerate split: every block holds exactly one sample."""
    accel, gyro, t = _base_stream(0, duration_s=2.0)
    splits = list(range(1, len(accel)))
    trace = _assert_identical(accel, gyro, t, splits)
    assert any(kind == "detection" for kind, *_ in trace)
    _assert_identical(accel, gyro, t, splits, recorder=True)


def test_block_matches_loop_when_stuck_runs_resume():
    """Stuck and dead runs that stop, give way to clean rows and start
    again: the streaks a clean block breaks must not carry over."""
    accel, gyro, t = _base_stream(0, duration_s=3.0)
    accel, gyro = accel.copy(), gyro.copy()
    for start, stop in ((20, 60), (63, 90), (150, 270), (272, 280)):
        accel[start:stop, 1] = accel[start, 1]      # one axis stuck
    gyro[150:270] = gyro[150]                       # whole sensor stuck
    gyro[272:290] = gyro[272]
    rng = np.random.default_rng(15)
    _assert_identical(accel, gyro, t, _random_splits(len(accel), rng))
    _assert_identical(accel, gyro, t, _mixed_splits(len(accel), rng),
                      recorder=True)


def test_block_matches_loop_with_empty_blocks():
    """Repeated cut points make zero-length blocks; both arms no-op."""
    accel, gyro, t = _base_stream(0, duration_s=2.0)
    splits = [40, 40, 40, 95, 95, 180]
    _assert_identical(accel, gyro, t, splits)


def test_block_matches_loop_with_mixed_missing_timestamps():
    """NaN and ±inf timestamps are all "untimestamped" in both arms."""
    accel, gyro, t = _base_stream(0)
    t = t.copy()
    t[::7] = np.nan
    t[3::11] = np.inf
    t[5::13] = -np.inf
    rng = np.random.default_rng(11)
    splits = _random_splits(len(accel), rng)
    _assert_identical(accel, gyro, t, splits)
    _assert_identical(accel, gyro, t, splits, recorder=True)


def test_block_matches_loop_without_timestamps():
    accel, gyro, _ = _base_stream(3)
    rng = np.random.default_rng(12)
    splits = _random_splits(len(accel), rng)
    _assert_identical(accel, gyro, None, splits)


def test_block_matches_loop_without_model_fallback_only():
    accel, gyro, t = _base_stream(0)
    rng = np.random.default_rng(13)
    splits = _random_splits(len(accel), rng)
    trace = _assert_identical(accel, gyro, t, splits, with_model=False)
    assert all(kind != "request" for kind, *_ in trace)
    _assert_identical(accel, gyro, t, splits, with_model=False,
                      recorder=True)


def test_block_matches_loop_under_deadline_shedding():
    """Slow completes shed the CNN identically in both arms."""
    cfg = DetectorConfig(window_ms=200.0, overlap=0.5, threshold=0.4,
                         deadline_ms=1.0, degraded_after_violations=1,
                         shed_after_violations=2, consecutive_required=1)
    accel, gyro, t = _base_stream(0)
    rng = np.random.default_rng(14)
    splits = _random_splits(len(accel), rng)
    trace = _assert_identical(accel, gyro, t, splits, cfg=cfg,
                              latency_ms=50.0)
    assert any(kind == "detection" and rest[-1] == "fallback"
               for kind, *rest in trace)
    _assert_identical(accel, gyro, t, splits, cfg=cfg, latency_ms=50.0,
                      recorder=True)


# ----------------------------------------------------------------------
# inline push: the oracle's inline decisions, in the deferred order
# ----------------------------------------------------------------------
def _detections(detector, accel, gyro, t):
    out = []
    for i in range(len(accel)):
        hit = detector.push(accel[i], gyro[i], None if t is None else t[i])
        if hit is not None:
            out.append((hit.sample_index, float(hit.time_s),
                        float(hit.probability), hit.source))
    return out


@pytest.mark.parametrize("name", sorted(builtin_scenarios()))
def test_push_matches_oracle_inline_push(name):
    """Default config: per-sample ``push`` makes the oracle's inline
    decisions, detection for detection."""
    t, accel, gyro = _scenario_stream(name)
    accel = accel.copy()
    accel[150:170, 2] -= 0.9              # a fall-like dip for the fallback
    results = []
    for cls in (ScalarDetector, FallDetector):
        detector = cls(_TanhModel(), DetectorConfig(),
                       registry=MetricsRegistry())
        results.append((_detections(detector, accel, gyro, t),
                        detector.health_transitions,
                        detector.health_report()))
    assert results[1] == results[0]
    assert results[1][0], f"{name}: nothing fired"


def test_inline_push_records_window_after_its_sample():
    """Ordering change 1: a window's event and its CNN decision come
    after that sample's ``sample`` event, so post-trigger context counts
    from the next sample."""
    class _Hot:
        def predict(self, x):
            return np.full((np.asarray(x).shape[0], 1), 0.9)

    post = 5
    rec = FlightRecorder(FlightConfig(post_trigger_samples=post,
                                      triggers=("detection",)))
    detector = FallDetector(_Hot(), DetectorConfig(),
                            registry=MetricsRegistry(), recorder=rec)
    accel, gyro, t = _base_stream(0, duration_s=1.0)
    for i in range(len(accel)):
        detector.push(accel[i], gyro[i], t[i])
    events = rec.events()
    kinds = [e["kind"] for e in events]
    w = kinds.index("window")
    assert events[w - 1]["kind"] == "sample"
    assert events[w - 1]["i"] == events[w]["i"]
    assert kinds[w + 1] == "decision"
    incident = rec.incidents[0].events
    d = [e["kind"] for e in incident].index("decision")
    trigger = incident[d]["i"]
    after = [e for e in incident[d + 1:] if e["kind"] == "sample"]
    assert len(after) == post
    assert after[0]["i"] == trigger + 1


def test_inline_push_defers_shed_to_after_the_fill():
    """Ordering change 2: with a hop shorter than ``max_gap_ms`` one gap
    fill spans two due windows; a completion that sheds the CNN takes
    effect after the fill, so both windows run (the oracle's inline push
    sheds after the first and runs one)."""
    cfg = DetectorConfig(window_ms=200.0, overlap=0.5, deadline_ms=1.0,
                         degraded_after_violations=1,
                         shed_after_violations=1)
    assert cfg.hop_samples * 1000.0 / cfg.fs < cfg.max_gap_ms

    class _SlowWhenArmed:
        armed = False
        calls = 0

        def predict(self, x):
            if self.armed:
                self.calls += 1
                time.sleep(0.003)            # over the 1 ms deadline
            return np.full((np.asarray(x).shape[0], 1), 0.1)

    accel, gyro, t = _base_stream(0, duration_s=1.0)
    # Windows are due at samples 19, 29, 39, ...; after sample 44 a
    # 200 ms gap (19 fills + the sample) holds due rows 49 and 59, both
    # fills.
    calls = {}
    for cls in (ScalarDetector, FallDetector):
        model = _SlowWhenArmed()
        detector = cls(model, cfg, registry=MetricsRegistry())
        for i in range(45):
            detector.push(accel[i], gyro[i], t[i])
        assert not detector.health_report()["cnn_shed"]
        model.armed = True
        detector.push(accel[45], gyro[45], t[44] + 0.2)
        assert detector.gap_filled_samples == 19
        assert detector.health_report()["cnn_shed"]
        calls[cls] = model.calls
    assert calls == {ScalarDetector: 1, FallDetector: 2}


# ----------------------------------------------------------------------
# the held push: rows held back a hop at a time, seen by no caller
# ----------------------------------------------------------------------
def _observed(detector, registry, hit):
    """What a caller sees after one push without ingesting held rows
    (reading ``samples_seen`` would)."""
    return (hit, detector.health_report(), detector.health_transitions,
            registry.snapshot())


@pytest.mark.parametrize("name", sorted(builtin_scenarios()))
def test_push_matches_oracle_push_by_push(name):
    """Per push, not only per stream: the return value, the health
    report, the transition log and every metric equal the oracle's
    after each push, so no held row changes what a caller sees; the
    sample clock agrees every 37 pushes."""
    t, accel, gyro = _scenario_stream(name)
    accel = accel.copy()
    accel[150:170, 2] -= 0.9              # a fall-like dip for the fallback
    arms = []
    for cls in (ScalarDetector, FallDetector):
        registry = MetricsRegistry()
        arms.append((cls(_TanhModel(), DetectorConfig(), registry=registry),
                     registry))
    for i in range(len(accel)):
        seen = [_observed(det, reg, det.push(accel[i], gyro[i], t[i]))
                for det, reg in arms]
        assert seen[1] == seen[0], i
        if i % 37 == 0:
            assert arms[1][0].samples_seen == arms[0][0].samples_seen


def test_clean_pushes_ingest_a_hop_in_two_passes(monkeypatch):
    """Past warm-up a clean hop costs two stream passes: the held rows
    as one block on the row before the window row, then the window row
    alone with its inference."""
    calls = []
    stream_pass = detector_module._stream_pass
    monkeypatch.setattr(detector_module, "_stream_pass",
                        lambda d, state, ex6, *rest: (
                            calls.append(ex6.shape[1]),
                            stream_pass(d, state, ex6, *rest))[1])
    cfg = DetectorConfig()
    window, hop = cfg.window_samples, cfg.hop_samples
    accel, gyro, t = _base_stream(0, duration_s=4.0)
    detector = FallDetector(_TanhModel(), cfg, registry=MetricsRegistry())
    for i in range(window):                 # warm-up: the first window
        detector.push(accel[i], gyro[i], t[i])
    calls.clear()
    hops = (len(accel) - window) // hop
    inferences = detector.latency.count
    for i in range(window, window + hops * hop):
        detector.push(accel[i], gyro[i], t[i])
    assert calls == [hop - 1, 1] * hops
    assert detector.latency.count - inferences == hops


_CLEAN_STEP = 0.01


def _drawn_row(kind, rng, t, last):
    """One pushed row of ``kind``: ``(accel, gyro, t passed, stream t)``."""
    accel = np.array([0.0, 0.0, 1.0]) + rng.normal(0.0, 0.02, 3)
    gyro = rng.normal(0.0, 5.0, 3)
    step = _CLEAN_STEP
    if kind == "repeat" and last is not None:
        accel, gyro = last[0].copy(), last[1].copy()
    elif kind == "nan":
        accel[int(rng.integers(3))] = np.nan
    elif kind == "over":
        gyro[int(rng.integers(3))] = 2500.0
    elif kind == "dip":
        accel *= rng.uniform(0.1, 1.6)
    elif kind == "jitter":
        step += rng.uniform(-0.007, 0.007)
    elif kind == "gap":
        step = float(rng.choice([0.03, 0.05, 0.5]))
    elif kind == "backwards":
        step = -0.005
    t += step
    return accel, gyro, (None if kind == "untimed" else t), t


_PUSH_KINDS = ("clean", "clean", "clean", "repeat", "nan", "over", "dip",
               "jitter", "gap", "backwards", "untimed")
_STEPS = st.lists(st.tuples(
    st.sampled_from(_PUSH_KINDS + ("read", "interrupt", "reset", "block")),
    st.integers(1, 25)), min_size=1, max_size=20)


@settings(max_examples=60, deadline=None)
@given(steps=_STEPS, stuck=st.sampled_from([3, 25]),
       seed=st.integers(0, 2 ** 16))
def test_held_push_matches_oracle_under_interleavings(steps, stuck, seed):
    """Runs of pushes drawn clean, non-finite, over the rails, exact
    repeats, dips, jittered, gapped, backwards or untimestamped,
    interleaved with reads, ``note_interruption``, ``reset`` and
    ``push_block``: after every step the production detector shows what
    the per-sample oracle does — return values, health report,
    transitions and metrics, the sample clock at every read.  A stuck
    limit of 3 makes the streak budget, not the hop, end most held
    blocks."""
    cfg = DetectorConfig(window_ms=200.0, overlap=0.5,
                         stuck_channel_samples=stuck,
                         dead_sensor_samples=2 * stuck,
                         recovery_samples=10, deadline_ms=60_000.0)
    model = _TanhModel()
    arms = []
    for cls in (ScalarDetector, FallDetector):
        registry = MetricsRegistry()
        arms.append((cls(model, cfg, registry=registry), registry))
    rng = np.random.default_rng(seed)
    t, last = 0.0, None
    # Past warm-up first, so the steps start on a held-row stretch.
    for kind, count in [("clean", cfg.window_samples + 3)] + steps:
        for _ in range(count if kind in _PUSH_KINDS else 1):
            if kind in _PUSH_KINDS:
                accel, gyro, t_in, t = _drawn_row(kind, rng, t, last)
                last = (accel, gyro)
                seen = [_observed(det, reg, det.push(accel, gyro, t_in))
                        for det, reg in arms]
            elif kind == "block":
                rows = [_drawn_row("clean", rng, t + _CLEAN_STEP * j, None)
                        for j in range(count)]
                t = rows[-1][3]
                accel = np.array([r[0] for r in rows])
                gyro = np.array([r[1] for r in rows])
                times = np.array([r[2] for r in rows])
                seen = [_observed(det, reg,
                                  feed(det, model, accel, gyro, times, []))
                        for det, reg in arms]
            elif kind == "read":
                seen = [_observed(det, reg, det.samples_seen)
                        for det, reg in arms]
            elif kind == "interrupt":
                for det, _ in arms:
                    det.note_interruption(last_t=t)
                seen = [_observed(det, reg, None) for det, reg in arms]
            else:
                for det, _ in arms:
                    det.reset()
                seen = [_observed(det, reg, None) for det, reg in arms]
            assert seen[1] == seen[0], kind
    assert arms[1][0].samples_seen == arms[0][0].samples_seen
    np.testing.assert_array_equal(arms[1][0]._buffer, arms[0][0]._buffer)
