"""An engine round ≡ per-lane ``push_block`` + ``complete`` ≡ the oracle.

``ServeEngine.step`` drains every due queue with one ``np.fromiter``,
ingests the round through one :func:`repro.core.detector.ingest_round`
call — a clean lane's decisions replayed as array operations, its due
windows one take from the group's window history — and completes the
clean lanes' windows with one :func:`repro.core.detector.complete_clean`
call.  Every other lane, and every window of a round that missed its
deadline or scored a non-finite probability, goes the per-lane way.
The identity test mixes all of it in one engine and holds detections,
health, batches and the deadline monitor to per-lane ``push_block`` +
``complete`` and to the per-sample oracle; the others pin that a clean
round makes no per-lane call and that admitting a stream builds no
lane bank or stage timer of its own.
"""

from __future__ import annotations

import json

import numpy as np
from detector_oracle import ScalarDetector

import repro.core.detector as detector_module
import repro.serve.engine as engine_module
from repro.core.detector import DetectorConfig, FallDetector
from repro.faults import builtin_scenarios, synth_stream
from repro.obs import FlightConfig, FlightRecorder, StageTimer
from repro.obs.metrics import MetricsRegistry
from repro.serve import ServeConfig, ServeEngine
from repro.serve.session import StreamSession

#: 200 ms windows every 100 ms, so a 20-row packet holds two due
#: windows, and two hits in a row fire.
CFG = DetectorConfig(window_ms=200.0, overlap=0.5, threshold=0.4,
                     consecutive_required=2)
FLIGHT = FlightConfig(capacity=1 << 15, post_trigger_samples=20)
#: Batch latency per round (seconds on the synthetic clock): rounds 9
#: and 10 miss the 100 ms deadline.
_SLOW = {9: 0.5, 10: 0.5}
_FAST = 0.0005
_ROUNDS = 30
_BROKEN_AT = 14


class _MarkedModel:
    """A pure function of the window bytes: the tanh stand-in CNN, NaN
    for a window whose mean x acceleration exceeds 2.5 g (only the
    stream offset by +4 g has one).  Keeps every batch's bytes."""

    def __init__(self):
        self.batches = []

    def predict(self, x):
        x = np.asarray(x)
        self.batches.append(x.tobytes())
        prob = 0.5 + 0.5 * np.tanh(4.0 * x.mean(axis=(1, 2)))
        prob[x[:, :, 0].mean(axis=1) > 2.5] = np.nan
        return prob[:, None]


class _Clock:
    """The engine reads the clock twice per batch; batch ``r`` takes
    ``_SLOW.get(r, _FAST)`` seconds."""

    def __init__(self):
        self.calls = 0

    def __call__(self):
        r, end = divmod(self.calls, 2)
        self.calls += 1
        return float(r) + (_SLOW.get(r, _FAST) if end else 0.0)


def _latency_ms(r):
    return 1000.0 * ((float(r) + _SLOW.get(r, _FAST)) - float(r))


def _lanes():
    """``sid -> (accel, gyro, t, packet lengths cycle)``, in admission
    order: a stacked group of 20-row lanes (clean ones, a recorder lane,
    the NaN lane, faulted, gap-fill and long-gap lanes, the lane whose
    queue gets a malformed row, and one whose stream starts inside a
    fall, so the fallback fires before its first window fills and
    decides), a stacked group of 13/7-row
    lanes admitted between them, so the two groups' windows interleave
    in the batch, and a 3-row lane that runs alone."""
    scenarios = builtin_scenarios(seed=7)
    lanes = {}

    def add(sid, index, lengths, scenario=None, offset=0.0, start=0):
        accel, gyro, t = (x[start:] for x in synth_stream(index,
                                                           duration_s=8.0))
        if scenario is not None:
            t, accel, gyro = scenarios[scenario].apply_arrays(t, accel,
                                                              gyro)
        accel = accel.copy()
        accel[:, 0] += offset
        lanes[sid] = (accel, gyro, t, lengths)

    group_a = [("clean-0", 0, None), ("clean-1", 1, None),
               ("clean-2", 2, None), ("clean-3", 3, None),
               ("rec", 4, None), ("nan", 5, None), ("dropout", 6, "dropout"),
               ("stuck", 7, "stuck_axis"), ("gap", 8, "burst_gap"),
               ("broken", 9, None), ("dead", 12, "gyro_dead")]
    for k, (sid, index, scenario) in enumerate(group_a):
        add(sid, index, [20], scenario, offset=4.0 if sid == "nan" else 0.0)
        if k < 5:
            add(f"b-{k}", 20 + k, [13, 7])
    add("late", 18, [20], start=450)
    add("lone", 30, [3])
    return lanes


def _packets(lanes):
    """Per round, ``sid -> (accel, gyro, t)`` for every lane with rows
    left."""
    pos = dict.fromkeys(lanes, 0)
    rounds = []
    for r in range(_ROUNDS):
        packets = {}
        for sid, (accel, gyro, t, lengths) in lanes.items():
            lo = pos[sid]
            hi = min(lo + lengths[r % len(lengths)], len(t))
            if hi > lo:
                packets[sid] = (accel[lo:hi], gyro[lo:hi], t[lo:hi])
            pos[sid] = hi
        rounds.append(packets)
    return rounds


def _serve(lanes, rounds, spy):
    model = _MarkedModel()
    engine = ServeEngine(model, ServeConfig(detector=CFG, flight=FLIGHT),
                         registry=MetricsRegistry(), latency_clock=_Clock())
    for sid in lanes:
        session = engine.session(sid)
        if sid != "rec":                # one recorder lane among clean ones
            session.recorder = session.detector.recorder = None
    out = []
    for r, packets in enumerate(rounds):
        for sid, (accel, gyro, t) in packets.items():
            engine.submit_block(sid, accel, gyro, t)
        if r == _BROKEN_AT:
            # Submits refuse malformed rows; plant one to reach the
            # round's per-session drain and the quarantine.
            engine.session("broken").queue.append(None)
        spy.clear()
        out.append((engine.step(), dict(spy)))
    return engine, model, out


def _twins(lanes, rounds, cls):
    """Each lane alone, fed round by round through ``push_block``, its
    requests completed in session order as one engine batch would be
    (same latency); returns per-round detections and batches and the
    twins."""
    model = _MarkedModel()
    twins = {sid: cls(model, CFG, registry=MetricsRegistry(),
                      recorder=FlightRecorder(FLIGHT, stream_id=sid)
                      if sid == "rec" else None)
             for sid in lanes}
    out, batches = [], []
    for r, packets in enumerate(rounds):
        hits, pending = [], []
        for sid, (accel, gyro, t) in packets.items():
            if sid == "broken" and r >= _BROKEN_AT:
                continue
            found, requests = twins[sid].push_block(accel, gyro, t)
            hits += [(sid, hit) for hit in found]
            pending += [(sid, request) for request in requests]
        windows = [request.window for _, request in pending]
        batches.append(np.stack(windows).tobytes() if windows else b"")
        for sid, request in pending:
            prob = float(np.asarray(model.predict(
                request.window[None])).reshape(-1)[0])
            hit = twins[sid].complete(request, prob,
                                      latency_ms=_latency_ms(r))
            if hit is not None:
                hits.append((sid, hit))
        out.append(hits)
    return twins, out, batches


def _state(det):
    return (det.health_transitions, det.health_report(), det.samples_seen,
            det.latency.count, det.latency.sum, det.deadline_violations,
            det._buffer.tobytes(),
            None if det.recorder is None
            else json.dumps(det.recorder.events()))


def _count(monkeypatch, owner, name, calls):
    original = getattr(owner, name)

    def counting(*args, **kwargs):
        calls[name] = calls.get(name, 0) + 1
        return original(*args, **kwargs)

    monkeypatch.setattr(owner, name, counting)


def test_mixed_rounds_match_per_lane_push_block_and_the_oracle(
        monkeypatch):
    """Clean lanes (two windows each per 20-row round, two hits in a row
    to fire), a recorder lane, the NaN-scoring lane whose CNN is shed,
    faulted, gap-fill and long-gap lanes in one stacked group; a second
    stacked group interleaved with it in session order; a lane alone;
    two rounds over the deadline; a malformed row planted in a queue.
    Round by round the engine returns the detections, in order, that
    per-lane ``push_block`` + ``complete`` find, and feeds the model the
    same batch bytes; at the end every stream's health, transitions,
    deadline monitor, ring and recorder events are identical, and so is
    the per-sample oracle's."""
    spy: dict = {}
    _count(monkeypatch, engine_module, "complete_clean", spy)
    _count(monkeypatch, FallDetector, "complete", spy)
    _count(monkeypatch, ServeEngine, "_advance_lanes", spy)
    lanes = _lanes()
    rounds = _packets(lanes)
    engine, model, served = _serve(lanes, rounds, spy)
    twins, expected, batches = _twins(lanes, rounds, FallDetector)
    oracles, oracle_hits, oracle_batches = _twins(lanes, rounds,
                                                  ScalarDetector)
    assert [hits for hits, _ in served] == expected == oracle_hits
    assert model.batches == batches == oracle_batches
    for sid in lanes:
        det = engine.session(sid).detector
        if sid == "broken":
            assert engine.session(sid).health == "quarantined"
            continue
        assert _state(det) == _state(twins[sid]) == _state(oracles[sid]), sid
    # Every path really ran: vectorized and per-window completions, the
    # per-session drain, the non-finite shed and the missed deadlines.
    calls = [spy for _, spy in served]
    assert sum(c.get("complete_clean", 0) for c in calls) > 10
    assert all(c.get("complete", 0) for c in (calls[9], calls[10]))
    assert [r for r, c in enumerate(calls)
            if c.get("_advance_lanes")] == [_BROKEN_AT]
    assert engine.session("nan").detector.inference_errors > 0
    assert ("late", "fallback") in {(sid, d.source) for sid, d in served[0][0]}
    # Two windows in each of the two slow rounds.
    assert engine.session("clean-0").detector.deadline_violations == 4
    assert any(d.source == "cnn" for hits in expected for _, d in hits)
    assert any(d.source == "fallback" for hits in expected for _, d in hits)
    assert engine.stream_errors == 1


def test_clean_round_makes_no_per_lane_call(monkeypatch):
    """16 clean, aligned lanes past warm-up: the round drains, ingests,
    decides and completes without one per-lane call — no
    ``drain_block``, ``_parse``, ``_ingest_one``, per-lane window
    evidence (``_evidence``), ``_decide_rows`` or ``complete`` — and
    window assembly (``_window``) runs once, for the whole group."""
    engine = ServeEngine(_MarkedModel(), ServeConfig(detector=CFG),
                         registry=MetricsRegistry())
    # Streams without a fall event (every third has one), so no lane's
    # fallback fires.
    streams = {sid: synth_stream(sid, duration_s=2.0)
               for sid in range(24) if sid % 3}

    def submit(lo, hi):
        for sid, (accel, gyro, t) in streams.items():
            engine.submit_block(sid, accel[lo:hi], gyro[lo:hi], t[lo:hi])

    submit(0, 40)
    engine.step()                       # prime, so the next is steady
    calls: dict = {}
    _count(monkeypatch, StreamSession, "drain_block", calls)
    _count(monkeypatch, FallDetector, "_decide_rows", calls)
    _count(monkeypatch, FallDetector, "complete", calls)
    for name in ("_parse", "_ingest_one", "_evidence", "_window"):
        _count(monkeypatch, detector_module, name, calls)
    _count(monkeypatch, engine_module, "complete_clean", calls)
    submit(40, 60)
    hits = engine.step()
    assert calls == {"_window": 1, "complete_clean": 1}
    assert engine.windows_inferred == 16 * 2 + 16 * 3
    assert engine.stream_errors == 0
    assert hits == [] or all(d.source == "cnn" for _, d in hits)


def test_admitting_a_stream_builds_no_bank_or_stage_timer(monkeypatch):
    """A session's detector is built straight into the engine's lane
    bank: admitting streams constructs no ``StageTimer`` (and no bank)
    of their own, and their stage rows are the bank rows in admission
    order, as when each detector was built alone and then attached."""
    engine = ServeEngine(_MarkedModel(), ServeConfig(detector=CFG),
                         registry=MetricsRegistry())
    built = []
    original = StageTimer.__init__

    def counting(self, *args, **kwargs):
        built.append(self)
        original(self, *args, **kwargs)

    monkeypatch.setattr(StageTimer, "__init__", counting)
    sessions = [engine.session(f"s{i}") for i in range(5)]
    assert built == []
    assert [s.detector.stage_row for s in sessions] == list(range(5))
    assert all(s.detector._bank is engine._bank for s in sessions)
    assert all(s.detector.stages is engine.fleet_stages() for s in sessions)
