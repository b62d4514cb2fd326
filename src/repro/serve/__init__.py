"""``repro.serve`` — micro-batched multi-stream serving.

The paper's detector runs one stream on one wearable; a fleet backend
sees many streams at once.  This package schedules K concurrent streams
over a single window model: each :class:`StreamSession` keeps its own
filter / ring-buffer / health state (a hardened
:class:`~repro.core.detector.FallDetector` driven in deferred-inference
mode) while :class:`ServeEngine` collects due windows across sessions
into one batched ``Model.predict`` per round — batched under
:func:`repro.nn.batch_invariant` so every stream's detections are
byte-identical to a solo run regardless of batch composition.

The serve stack's throughput and latency are measured from outside the
package by the ``bench/`` benchmark; ``benchmarks/test_bench_serve.py``
gates the batching speedup over sequential per-stream detectors.
"""

from .dashboard import TailConfig, render_dashboard, run_tail, sparkline
from .engine import ServeConfig, ServeEngine
from .session import StreamSession

__all__ = [
    "ServeConfig",
    "ServeEngine",
    "StreamSession",
    "TailConfig",
    "render_dashboard",
    "run_tail",
    "sparkline",
]
