"""Shard worker: one :class:`~repro.serve.ServeEngine` per process.

The front (:mod:`repro.fleet.front`) hash-assigns streams onto N worker
processes; each worker owns one engine on its **own** metrics registry
and drives it through a synchronous message loop over a duplex pipe:

``("round", seq, run_sids, run_lens, block)``
    ``block`` is the round's samples as one ``(rows, 7)`` float64 array
    of ``(ax, ay, az, gx, gy, gz, t)`` rows (``t`` NaN when missing),
    one run per stream, each no longer than the engine's
    ``queue_capacity`` (the front buffers every stream under that
    bound): run ``i`` is the next ``run_lens[i]`` rows, of stream
    ``run_sids[i]``.  Hand each run's slice to ``engine.submit_block``,
    run one ``engine.step()``,
    reply ``("ok", seq, results)`` where
    ``results`` is ``[(stream_id, Detection, health), ...]`` —
    detections are frozen dataclasses of floats, so they pickle back to
    the front bit-exactly.
``("ping", seq)``
    Liveness probe; replies ``("pong", seq)`` without touching the
    engine (the supervisor's heartbeat when a shard has no traffic).
``("adopt", streams)``
    Re-home streams evacuated from a failed sibling shard: build each
    session up front and mark its detector interrupted (no reply).
``("hang", seconds)``
    Test-only chaos: sleep without replying, so the front's reply
    timeout fires and the supervisor treats the shard as hung.
``("stop", seq)``
    Graceful shutdown: replies ``("stopped", seq, entries, report,
    stream_report, spans)`` — the worker registry's metric entries and
    trace spans ship back for the front to merge, the same ship-back
    contract as :mod:`repro.parallel`.

Workers follow the :mod:`repro.parallel` fork-child discipline: the
nested-pool guard env var is set, the inherited global collector is
cleared, and the global NumPy RNG is seeded from ``task_seed(base_seed,
shard_index)`` so any stochastic code inside a shard is deterministic
per shard regardless of spawn order.
"""

from __future__ import annotations

import os
import time

import numpy as np

from ..obs import get_collector, get_logger, tracing_enabled
from ..obs.metrics import MetricsRegistry
from ..parallel import task_seed
from ..serve.engine import ServeEngine

__all__ = ["shard_main"]

_logger = get_logger(__name__)

#: Same guard the parallel pool sets: a worker must never fork pools.
_WORKER_ENV = "REPRO_PARALLEL_WORKER"


def _adopt(engine: ServeEngine, streams: dict) -> None:
    """Rebuild sessions for re-homed streams before any traffic arrives.

    Building eagerly (rather than on first sample) is what makes the
    zero-streams-lost guarantee unconditional: a re-homed stream that
    never sends another sample still has a live, reporting session.
    """
    for stream_id, last_t in streams.items():
        try:
            session = engine.session(stream_id)
            session.detector.note_interruption(last_t)
        except Exception:
            _logger.exception("could not adopt stream %r", stream_id)


def shard_main(conn, shard_index: int, model, serve_config, base_seed: int,
               stream_init: dict, ship_trace: bool = False) -> None:
    """Worker process entry point (module-level: picklable under spawn)."""
    os.environ[_WORKER_ENV] = "1"
    # A fork child inherits the parent's collector contents; shipping
    # those back would double-count, exactly as in repro.parallel.
    collector = get_collector()
    collector.clear()
    collector.enabled = bool(ship_trace) and tracing_enabled()
    np.random.seed(task_seed(base_seed, shard_index))
    registry = MetricsRegistry()
    engine = ServeEngine(model, serve_config, registry=registry)
    registry.gauge("fleet/shard_index").set(float(shard_index))
    _adopt(engine, stream_init or {})
    while True:
        try:
            message = conn.recv()
        except (EOFError, OSError):
            break  # front is gone; nothing left to serve
        kind = message[0]
        if kind == "round":
            _, seq, run_sids, run_lens, block = message
            results = []
            lo = 0
            for stream_id, n in zip(run_sids, run_lens):
                rows = block[lo:lo + n]
                lo += n
                # submit_block never raises on load; anything else is a
                # bug we contain so the shard stays up.
                try:
                    engine.submit_block(stream_id, rows[:, :3], rows[:, 3:6],
                                        rows[:, 6])
                except Exception:
                    _logger.exception("submit failed for %r", stream_id)
            try:
                for stream_id, detection in engine.step():
                    results.append((stream_id, detection,
                                    engine.stream_health(stream_id)))
            except Exception:
                _logger.exception("engine.step raised in shard %d",
                                  shard_index)
            try:
                conn.send(("ok", seq, results))
            except (OSError, ValueError):
                break
        elif kind == "ping":
            _, seq = message
            try:
                conn.send(("pong", seq))
            except (OSError, ValueError):
                break
        elif kind == "adopt":
            _adopt(engine, message[1])
        elif kind == "hang":
            # Chaos injection: a worker stuck in a long syscall/compute.
            time.sleep(float(message[1]))
        elif kind == "stop":
            _, seq = message
            # Per-window latency lives on the detectors, outside the
            # registry; fold the shard's exact merge in under a fleet
            # name so the front's merge_entries aggregates it across
            # shards (identical bucket edges everywhere).
            latency = engine.fleet_latency()
            registry.histogram(
                "fleet/window_latency_ms", buckets=latency.edges,
            ).merge(latency)
            # Same ship-back for the per-stage attribution timers; the
            # stage set is static (repro.obs.STAGES) so cardinality is
            # bounded.  SLO event counters already live in the registry
            # and roll up by plain counter addition.
            stages = engine.fleet_stages()
            if stages is not None:
                for stage, hist in stages.histograms.items():
                    registry.histogram(  # metric-name: dynamic
                        f"fleet/stage/{stage}/latency_ms",
                        buckets=hist.edges,
                    ).merge(hist)
            spans = ([record.to_json() for record in collector.records()]
                     if collector.enabled else [])
            try:
                conn.send((
                    "stopped", seq, registry.entries(), engine.report(),
                    engine.stream_report(), spans,
                ))
            except (OSError, ValueError):
                pass
            break
        else:
            _logger.warning("shard %d ignoring unknown message %r",
                            shard_index, kind)
    conn.close()
