"""Lane-stacked ingest ≡ per-lane ``push_block`` ≡ the per-sample oracle.

:func:`repro.core.detector.ingest_lanes` takes many streams' blocks at
once (the serving engine's round) and runs fusion, the Butterworth,
channel scaling, the clean-block checks and the fallback smoother as one
stacked pass per group of same-length lanes.  It promises every lane
exactly what that lane's own ``push_block`` would have produced.  The
property here drives ragged rounds of faulted, recorded and timed lanes
through all three arms and compares everything observable per lane;
the remaining tests pin the containment story and that a clean round
really is one kernel call.
"""

from __future__ import annotations

import json
from unittest import mock

import numpy as np
import pytest
import scipy.signal._sosfilt as sosfilt_module
from detector_oracle import ScalarDetector
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.core.detector as detector_module
from repro.core.detector import DetectorConfig, FallDetector, ingest_lanes
from repro.faults import builtin_scenarios, synth_stream
from repro.obs import FlightConfig, FlightRecorder
from repro.obs.metrics import MetricsRegistry
from repro.serve import ServeConfig, ServeEngine
from repro.signal.filters import OnlineSosFilter
from repro.signal.orientation import ComplementaryFilter

SCENARIOS = sorted(builtin_scenarios())
_STREAM_S = 6.0
_STREAMS: dict = {}


def _cfg(stage_timing=True):
    return DetectorConfig(window_ms=200.0, overlap=0.5, threshold=0.4,
                          consecutive_required=1, stage_timing=stage_timing)


class _TanhModel:
    """Deterministic CNN stand-in: a pure function of the window bytes."""

    def predict(self, x):
        x = np.asarray(x)
        return (0.5 + 0.5 * np.tanh(4.0 * x.mean(axis=(1, 2))))[:, None]


def _stream(index, scenario):
    """Stream ``index`` (every third holds a fall), faulted by
    ``scenario`` unless it is ``None`` or ``"quantized"`` (see
    :func:`_quantize`); ``(accel, gyro, t)``."""
    key = (index, scenario)
    if key not in _STREAMS:
        accel, gyro, t = synth_stream(index, duration_s=_STREAM_S)
        if scenario == "quantized":
            accel, gyro = _quantize(index, accel, gyro)
        elif scenario is not None:
            t, accel, gyro = builtin_scenarios(seed=7)[scenario].apply_arrays(
                t, accel, gyro)
        _STREAMS[key] = (accel, gyro, t)
    return _STREAMS[key]


def _quantize(index, accel, gyro):
    """Readings as an ADC delivers them: accel in 1/1024 g steps and gyro
    in 1/16 dps steps, so exact repeats occur far below the stuck limit.
    Every 40th row a 6-row repeat on accel x straddles a 20-row block
    boundary, and on odd streams gyro x freezes for 40 rows from row 50
    — past ``stuck_channel_samples``, starting mid-block."""
    accel = np.round(accel * 1024.0) / 1024.0
    gyro = np.round(gyro * 16.0) / 16.0
    for b in range(40, len(accel), 40):
        accel[b - 3:b + 3, 0] = accel[b - 3, 0]
    if index % 2:
        gyro[50:90, 0] = gyro[50, 0]
    return accel, gyro


class _Arm:
    """One lane's detector plus everything it has produced."""

    def __init__(self, cls, cfg, recorder):
        self.model = _TanhModel()
        self.registry = MetricsRegistry()
        self.recorder = (FlightRecorder(FlightConfig(
            capacity=1 << 16, post_trigger_samples=25))
            if recorder else None)
        self.detector = cls(self.model, cfg, registry=self.registry,
                            recorder=self.recorder)
        self.trace = []

    def finish(self, result):
        """Complete one block's staged requests; log everything."""
        hits, requests = result
        hits = list(hits)
        for req in requests:
            self.trace.append(("request", req.sample_index, req.time_s,
                               req.fallback_hit, req.window.tobytes()))
            prob = float(np.asarray(
                self.model.predict(req.window[None])).reshape(-1)[0])
            hit = self.detector.complete(req, prob, latency_ms=0.5)
            if hit is not None:
                hits.append(hit)
        self.trace.extend(("detection", h.sample_index, h.time_s,
                           h.probability, h.source) for h in hits)

    def observed(self):
        det = self.detector
        return (self.trace, det.health_transitions, det.health_report(),
                det.samples_seen, self.registry.snapshot(),
                det._buffer.tobytes(),
                None if self.recorder is None
                else json.dumps(self.recorder.events()))


def _run(lanes, rounds, cfg, *, stacked, cls=FallDetector):
    """Feed every lane its blocks, round by round: through one
    ``ingest_lanes`` call per round (``stacked``) or lane by lane through
    ``push_block``."""
    arms = [_Arm(cls, cfg, recorder) for _, _, recorder in lanes]
    pos = [0] * len(lanes)
    for lengths in rounds:
        blocks = []
        for i, ((index, scenario, _), k) in enumerate(zip(lanes, lengths)):
            accel, gyro, t = _stream(index, scenario)
            sl = slice(pos[i], min(pos[i] + k, len(t)))
            pos[i] = sl.stop
            blocks.append((arms[i].detector, accel[sl], gyro[sl], t[sl]))
        if stacked:
            results = ingest_lanes(blocks)
        else:
            results = [det.push_block(a, g, t) for det, a, g, t in blocks]
        for arm, result in zip(arms, results):
            assert not isinstance(result, Exception), result
            arm.finish(result)
    return [arm.observed() for arm in arms]


@st.composite
def _lanes_and_rounds(draw):
    n_lanes = draw(st.integers(1, 12))
    lanes = [(draw(st.integers(0, 8)),
              draw(st.sampled_from([None, "quantized"] + SCENARIOS)),
              draw(st.booleans()))
             for _ in range(n_lanes)]
    rounds = []
    for _ in range(draw(st.integers(1, 24))):
        # A few lengths per round, so lanes often share one and stack.
        lengths = draw(st.lists(st.integers(0, 25), min_size=1, max_size=3))
        rounds.append([draw(st.sampled_from(lengths))
                       for _ in range(n_lanes)])
    return lanes, rounds


@settings(max_examples=30, deadline=None)
@given(_lanes_and_rounds(), st.booleans(),
       st.sampled_from([1, 3, detector_module._STACK_MIN_LANES]))
def test_lanes_match_per_lane_push_block_and_the_oracle(drawn, timing,
                                                        min_lanes):
    """Per lane: staged window bytes, detections, health transitions,
    counters, the sample clock, the ring buffer and the recorder's
    events equal the lane run alone through ``push_block`` and through
    the per-sample oracle.  The stacking threshold is drawn too (the
    shipped one, or low enough that nearly every group stacks): it may
    only move time, never results."""
    lanes, rounds = drawn
    cfg = _cfg(stage_timing=timing)
    with mock.patch.object(detector_module, "_STACK_MIN_LANES", min_lanes):
        stacked = _run(lanes, rounds, cfg, stacked=True)
    assert stacked == _run(lanes, rounds, cfg, stacked=False)
    assert stacked == _run(lanes, rounds, cfg, stacked=False,
                           cls=ScalarDetector)


#: Block lengths cycling through mostly one-row rounds, so a fault's
#: first sample often opens a block (burst_gap's long gap at sample 210
#: does, so its reset lands on a stacked lane's first row).
_PATTERN = [1, 1, 1, 13, 1, 25, 2, 1, 7, 6, 18]


@pytest.mark.parametrize("scenario", SCENARIOS)
def test_faulted_lanes_stack_and_match_per_lane(scenario):
    """Lanes faulted alike and fed aligned, so every fault — long-gap
    resets on a block's first row included — lands in a stacked group."""
    lanes = [(i, scenario, i % 2 == 0)
             for i in range(detector_module._STACK_MIN_LANES)]
    rounds = [[k] * len(lanes) for k in _PATTERN * 8]
    cfg = _cfg()
    assert (_run(lanes, rounds, cfg, stacked=True)
            == _run(lanes, rounds, cfg, stacked=False))


def _count_calls(monkeypatch, owner, name):
    calls = []
    original = getattr(owner, name)

    def counting(*args, **kwargs):
        calls.append(name)
        return original(*args, **kwargs)

    if isinstance(owner, type) and isinstance(owner.__dict__[name],
                                              staticmethod):
        counting = staticmethod(counting)
    monkeypatch.setattr(owner, name, counting)
    return calls


def _engine(flight=None):
    return ServeEngine(_TanhModel(),
                       ServeConfig(detector=_cfg(), flight=flight),
                       registry=MetricsRegistry())


def _submit(engine, sids, lo, hi):
    for sid in sids:
        accel, gyro, t = _stream(sid, None)
        for i in range(lo, hi):
            engine.submit(sid, accel[i], gyro[i], t[i])


@pytest.mark.parametrize("flight", [None, FlightConfig(capacity=4096)])
def test_clean_round_is_one_kernel_call_and_one_fusion_pass(monkeypatch,
                                                            flight):
    """16 clean, aligned lanes: the round makes exactly one ``_sosfilt``
    call and one stream-parallel fusion pass, and no per-lane filter or
    fusion call (a lane fusing alone runs ``ComplementaryFilter.advance``)
    — also with a flight recorder on every lane (an instrument must not
    switch code paths)."""
    engine = _engine(flight)
    sids = list(range(16))
    _submit(engine, sids, 0, 40)
    engine.step()                       # prime, so round two is steady
    kernel = _count_calls(monkeypatch, sosfilt_module, "_sosfilt")
    lanes = _count_calls(monkeypatch, ComplementaryFilter, "update_lanes")
    solo = (_count_calls(monkeypatch, ComplementaryFilter, "update_block")
            + _count_calls(monkeypatch, ComplementaryFilter, "advance")
            + _count_calls(monkeypatch, OnlineSosFilter, "process"))
    _submit(engine, sids, 40, 60)
    engine.step()
    assert (len(kernel), len(lanes), solo) == (1, 1, [])
    assert engine.stream_errors == 0
    if flight is not None:
        assert all(engine.session(sid).recorder.events() for sid in sids)


#: An angle no fusion state ever holds: marks the lane whose fusion breaks.
_LOST = -1234.5


def _break_fusion(monkeypatch):
    """Fusion raises for any lane whose state holds ``_LOST`` — in the
    stacked pass and again in the lane's own scalar pass."""
    for name in ("update_lanes", "advance"):
        original = getattr(ComplementaryFilter, name)

        def broken(self, angles, *args, _original=original):
            if (angles == _LOST).any():
                raise RuntimeError("fusion state lost")
            return _original(self, angles, *args)

        monkeypatch.setattr(ComplementaryFilter, name, broken)


def _serve(sids, rounds, broken=None):
    engine = _engine()
    for r in range(rounds):
        _submit(engine, sids, 20 * r, 20 * (r + 1))
        if r == 0 and broken is not None:
            det = engine.session(broken).detector
            det._bank.angles[det._row] = _LOST
        hits = engine.step()
        yield engine, hits


def test_lane_raising_in_a_stacked_phase_is_quarantined_alone(monkeypatch):
    """The stacked fusion pass raises; the group reruns it lane by lane,
    so only the offending stream is quarantined and every other stream's
    detections equal a run without it."""
    _break_fusion(monkeypatch)
    stacked = _count_calls(monkeypatch, ComplementaryFilter, "update_lanes")
    sids = list(range(detector_module._STACK_MIN_LANES + 1))
    hits, engine = [], None
    for engine, round_hits in _serve(sids, 15, broken=2):
        hits.extend(round_hits)
    report = engine.stream_report()
    assert [sid for sid in sids
            if report[sid]["health"] == "quarantined"] == [2]
    assert engine.stream_errors == 1
    assert len(stacked) == 15           # every round stacked its lanes
    others = [sid for sid in sids if sid != 2]
    alone = []
    for _, round_hits in _serve(others, 15):
        alone.extend(round_hits)
    assert alone, "nothing fired"
    assert [(sid, d) for sid, d in hits if sid != 2] == alone


def test_lane_raising_on_its_own_is_quarantined_alone(monkeypatch):
    """A malformed block fails its own lane at parse time; the rest of
    the round still stacks and matches per-lane ``push_block``."""
    stacked = _count_calls(monkeypatch, ComplementaryFilter, "update_lanes")
    cfg = _cfg()
    k = detector_module._STACK_MIN_LANES + 1
    dets = [FallDetector(_TanhModel(), cfg, registry=MetricsRegistry())
            for _ in range(k)]
    twins = [FallDetector(_TanhModel(), cfg, registry=MetricsRegistry())
             for _ in range(k)]
    blocks = []
    for i, det in enumerate(dets):
        accel, gyro, t = _stream(i, None)
        blocks.append((det, accel[:20], gyro[:19 if i == 3 else 20],
                       t[:20]))
    results = ingest_lanes(blocks)
    assert isinstance(results[3], ValueError)
    assert len(stacked) == 1
    for i, (twin, (_, accel, gyro, t)) in enumerate(zip(twins, blocks)):
        if i == 3:
            continue
        hits, requests = twin.push_block(accel, gyro, t)
        assert results[i][0] == hits
        assert ([r.window.tobytes() for r in results[i][1]]
                == [r.window.tobytes() for r in requests])


def test_quantized_lanes_stack_and_match_per_lane_and_the_oracle():
    """Quantized lanes — repeats below the stuck limit, repeat runs across
    block boundaries, a channel frozen past the limit mid-block — fed
    aligned, so they share stacked groups: stacked ≡ per-lane
    ``push_block`` ≡ the per-sample oracle."""
    lanes = [(i, "quantized", i % 3 == 0)
             for i in range(detector_module._STACK_MIN_LANES + 2)]
    rounds = [[20] * len(lanes)] * 15 + [[7] * len(lanes)] * 12
    cfg = _cfg()
    stacked = _run(lanes, rounds, cfg, stacked=True)
    assert stacked == _run(lanes, rounds, cfg, stacked=False)
    assert stacked == _run(lanes, rounds, cfg, stacked=False,
                           cls=ScalarDetector)
    # The frozen channel (odd streams) was caught: health left healthy.
    assert all(transitions for _, transitions, *_ in stacked[1::2])


def test_steady_quantized_round_validates_every_lane_stacked(monkeypatch):
    """16 aligned quantized lanes whose blocks hold exact repeats, none at
    a limit: each round validates all 16 lanes in one stacked pass, and
    no lane is validated on its own."""
    engine = _engine()
    sids = list(range(0, 32, 2))        # even: no frozen channel

    def submit(lo, hi, repeats=False):
        for sid in sids:
            accel, gyro, t = _stream(sid, "quantized")
            for i in range(lo, hi):
                engine.submit(sid, accel[i], gyro[i], t[i])
            assert not repeats or (accel[lo + 1:hi] == accel[lo:hi - 1]).any()

    for lo in range(0, 100, 20):        # prime past the warm-up
        submit(lo, lo + 20)
        engine.step()
    validated = []
    original = detector_module._validate

    def counting(design, state, accel, *args):
        validated.append(accel.shape[0])
        return original(design, state, accel, *args)

    monkeypatch.setattr(detector_module, "_validate", counting)
    for lo in (100, 120):
        submit(lo, lo + 20, repeats=True)
        engine.step()
    assert validated == [len(sids)] * 2
    assert engine.stream_errors == 0


def test_engine_lifecycle_keeps_every_surviving_stream_exact():
    """Streams join mid-run (a round grows from 4 lanes past the stacking
    threshold to 20, and the engine's lane bank reallocates past its
    capacity), one is quarantined by a malformed queued row and one is
    adopted through the fleet's adopt path after an outage: every
    surviving stream's detections and detector state equal its own
    ``push_block`` run, so no detector kept a stale view of its row, and
    the early streams' fallback state, carried while they ran alone,
    reached the bank when they first stacked."""
    from repro.fleet.worker import _adopt

    engine = _engine()
    early, late, adopted, broken = list(range(4)), list(range(4, 19)), 19, 1
    start = {sid: 0 for sid in early + late}
    start[adopted] = 100
    outage_t = _stream(adopted, "quantized")[2][90]
    joined = []
    hits = []
    for r in range(12):
        if r == 0:
            joined += early
        if r == 3:
            joined += late
        if r == 5:
            _adopt(engine, {adopted: outage_t})
            joined.append(adopted)
        if r == 4:
            # Submits refuse malformed samples; plant one in the queue
            # to reach the drain's quarantine containment.
            engine.session(broken).queue.append(None)
        for sid in joined:
            accel, gyro, t = _stream(sid, "quantized")
            for i in range(start[sid], start[sid] + 20):
                engine.submit(sid, accel[i], gyro[i], t[i])
            start[sid] += 20
        hits.extend(engine.step())
        if r == 0:
            capacity = engine._bank.capacity
    assert engine._bank.capacity > capacity
    report = engine.stream_report()
    assert report[broken]["health"] == "quarantined"
    assert engine.stream_errors == 1
    for sid in joined:
        if sid == broken:
            continue
        twin = FallDetector(_TanhModel(), _cfg(), registry=MetricsRegistry())
        first = 100 if sid == adopted else 0
        if sid == adopted:
            twin.note_interruption(outage_t)
        accel, gyro, t = _stream(sid, "quantized")
        found = []
        for lo in range(first, start[sid], 20):
            staged, requests = twin.push_block(
                accel[lo:lo + 20], gyro[lo:lo + 20], t[lo:lo + 20])
            found.extend(staged)
            for req in requests:
                prob = float(np.asarray(twin.model.predict(
                    req.window[None])).reshape(-1)[0])
                hit = twin.complete(req, prob, latency_ms=0.5)
                if hit is not None:
                    found.append(hit)
        det = engine.session(sid).detector
        assert sorted((d.sample_index, d.source) for s, d in hits
                      if s == sid) == sorted(
            (d.sample_index, d.source) for d in found), sid
        assert det.samples_seen == twin.samples_seen
        assert det.health_transitions == twin.health_transitions
        assert det._buffer.tobytes() == twin._buffer.tobytes()
        assert _fallback_state(det) == _fallback_state(twin)


def _fallback_state(det):
    """The detector's fallback smoother and watch, wherever it is held."""
    det._flush_fallback()
    return det._views.fb_state.tobytes()


def test_engine_takes_sessions_built_after_the_design_cache_cleared():
    """A session's detector built after its config's design left the
    cache gets an equal config but a new design object: the engine's
    lane bank still takes it, and serving is unchanged."""
    sids = list(range(detector_module._STACK_MIN_LANES + 1))

    def serve(clear):
        engine = _engine()
        if clear:
            detector_module._design.cache_clear()
        hits = []
        for r in range(6):
            _submit(engine, sids, 20 * r, 20 * (r + 1))
            hits.extend(engine.step())
        return engine, hits

    engine, hits = serve(clear=True)
    assert engine.stream_errors == 0
    assert all(engine.session(sid).detector._bank is engine._bank
               for sid in sids)
    assert hits == serve(clear=False)[1]


def test_reset_drops_the_fallback_state_a_lane_alone_carried():
    """A detector that ran alone holds its fallback state as a list
    between passes; ``reset`` leaves it indistinguishable from a fresh
    detector, that state included."""
    accel, gyro, t = _stream(0, None)
    det = FallDetector(_TanhModel(), _cfg(), registry=MetricsRegistry())
    det.push_block(accel[:60], gyro[:60], t[:60])
    fresh = FallDetector(_TanhModel(), _cfg(), registry=MetricsRegistry())
    assert _fallback_state(det) != _fallback_state(fresh)
    det.push_block(accel[60:80], gyro[60:80], t[60:80])
    det.reset()
    assert _fallback_state(det) == _fallback_state(fresh)
