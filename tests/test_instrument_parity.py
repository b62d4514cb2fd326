"""Instruments neither perturb results nor switch code paths.

Turning on the flight recorder, the alert pipeline, SLO tracking and
stage timing must leave every detection, every staged window and every
health transition byte-identical, and must not move the detector off
its one vectorized ingest path.
"""

from __future__ import annotations

from dataclasses import replace

import numpy as np
import pytest

from repro.alerts import AlertConfig
from repro.core.detector import DetectorConfig, FallDetector
from repro.experiments import MagnitudeProbeModel
from repro.faults import builtin_scenarios, synth_stream
from repro.obs import FlightConfig, FlightRecorder, SLOConfig
from repro.obs.metrics import MetricsRegistry
from repro.serve import ServeConfig, ServeEngine
from repro.signal.orientation import ComplementaryFilter

CFG = DetectorConfig(window_ms=200.0, overlap=0.5, threshold=0.4,
                     consecutive_required=1)


class _RecordingModel(MagnitudeProbeModel):
    """The probe scorer, keeping the bytes of every batch it scores."""

    def __init__(self):
        super().__init__()
        self.batches = []

    def predict(self, x):
        self.batches.append(np.asarray(x).tobytes())
        return super().predict(x)


def _fault_streams():
    """One stream per builtin fault scenario, falls on every third."""
    streams = {}
    for i, (name, scenario) in enumerate(
            sorted(builtin_scenarios(seed=7).items())):
        accel, gyro, t = synth_stream(i, duration_s=4.0)
        t, accel, gyro = scenario.apply_arrays(t, accel, gyro)
        streams[name] = (accel, gyro, t)
    return streams


def _serve(streams, instrumented):
    model = _RecordingModel()
    config = ServeConfig(
        detector=replace(CFG, stage_timing=instrumented),
        flight=FlightConfig(post_trigger_samples=20) if instrumented else None,
        alerts=AlertConfig() if instrumented else None,
        slo=SLOConfig() if instrumented else None,
    )
    engine = ServeEngine(model, config, registry=MetricsRegistry())
    detections = []
    n = max(len(t) for _, _, t in streams.values())
    for i in range(n):
        for sid, (accel, gyro, t) in streams.items():
            if i < len(t):
                engine.submit(sid, accel[i], gyro[i], float(t[i]))
        if (i + 1) % 4 == 0:                       # 40 ms packets
            detections += engine.step()
    detections += engine.step()
    return engine, model, [
        (sid, d.sample_index, float(d.time_s), float(d.probability),
         d.source) for sid, d in detections]


def test_instruments_leave_serving_byte_identical():
    streams = _fault_streams()
    plain, plain_model, plain_hits = _serve(streams, instrumented=False)
    inst, inst_model, inst_hits = _serve(streams, instrumented=True)
    assert inst_hits == plain_hits
    assert inst_model.batches == plain_model.batches
    for sid in streams:
        assert (inst.session(sid).detector.health_transitions
                == plain.session(sid).detector.health_transitions), sid
    # The instruments really were on, and the run really exercised them.
    assert plain_hits and plain_model.batches
    assert any(s.recorder.incidents for s in map(inst.session, streams))
    assert inst.slo is not None and inst.alerts is not None
    assert any(inst.session(sid).detector.health_transitions
               for sid in streams)


@pytest.fixture
def no_per_sample_fusion(monkeypatch):
    def update(self, accel_g, gyro_dps):
        raise AssertionError("per-sample ComplementaryFilter.update ran")

    monkeypatch.setattr(ComplementaryFilter, "update", update)


def test_recorder_never_runs_the_per_sample_fusion(no_per_sample_fusion):
    """A recorder attached to the detector keeps it on the block path:
    ``push`` and ``push_block`` (whole blocks and one-row calls) all
    fuse a block at a time (``ComplementaryFilter.advance``), and so
    does a flight-recording engine (``update_lanes`` for a stacked
    group, ``advance`` for a lane alone)."""
    streams = _fault_streams()
    accel, gyro, t = streams["nan_burst"]
    detector = FallDetector(MagnitudeProbeModel(), CFG,
                            registry=MetricsRegistry(),
                            recorder=FlightRecorder())
    detector.push_block(accel[:100], gyro[:100], t[:100])
    for i in range(100, 150):
        detector.push(accel[i], gyro[i], t[i])
        detector.push_block(accel[i], gyro[i], [t[i] + 0.005])
    engine, _, _ = _serve(streams, instrumented=True)
    assert engine.stream_errors == 0
    assert detector.recorder.events()
