"""Serve-path scaling gate: micro-batched engine vs sequential detectors.

Replays 32 synthetic streams (8 s each, seed 7) two ways: 32 independent
:class:`~repro.core.detector.FallDetector` instances, each running its
own batch-of-1 forward per due window, and one
:class:`~repro.serve.ServeEngine` batching every stream's due windows
into shared forwards.  The engine must be at least 2x faster on the
inference path and 1.6x end to end.  That batching changes no stream's
detections is proven in ``tests/test_serve_engine.py``.
"""

from __future__ import annotations

import time

from repro.core.architecture import build_lightweight_cnn
from repro.core.detector import DetectorConfig, FallDetector
from repro.faults import synth_stream
from repro.obs.metrics import MetricsRegistry


def test_bench_serve_scaling(replay):
    config = DetectorConfig()
    model = build_lightweight_cnn(config.window_samples)
    streams = {f"s{i:03d}": synth_stream(i, duration_s=8.0, seed=7)
               for i in range(32)}

    seq_infer_s = 0.0
    t0 = time.perf_counter()
    for accel, gyro, t in streams.values():
        detector = FallDetector(model, config, registry=MetricsRegistry())
        detector.run(accel, gyro, t)
        stats = detector.latency.summary()
        seq_infer_s += stats["count"] * stats["mean"] / 1000.0
    seq_wall_s = time.perf_counter() - t0
    engine, wall_s = replay(model, streams)

    inference_speedup = seq_infer_s / engine.inference_seconds
    wall_speedup = seq_wall_s / wall_s
    report = engine.report()
    print(f"\nserve: inference {seq_infer_s:.3f} s -> "
          f"{engine.inference_seconds:.3f} s ({inference_speedup:.2f}x), "
          f"wall {seq_wall_s:.3f} s -> {wall_s:.3f} s "
          f"({wall_speedup:.2f}x), {report['windows_inferred']} windows "
          f"in {report['batches']} batches")
    # The engine exists to amortise per-window forwards; require the
    # headline >= 2x win on the inference path.
    assert inference_speedup >= 2.0
    # The vectorized block-ingest path closed most of the Amdahl gap
    # between the inference win and end-to-end wall-clock: gate the
    # whole-pipeline speedup too so the fast path cannot silently rot.
    assert wall_speedup >= 1.6
    assert report["windows_inferred"] > 0
    assert report["batches"] < report["windows_inferred"]
