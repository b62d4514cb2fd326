"""``repro.fleet`` — sharded, supervised serving at fleet scale.

One :class:`~repro.serve.ServeEngine` serves many streams in one
process; the ROADMAP's north star needs many processes.  This package
adds the layer above the engine:

* :mod:`repro.fleet.front` — :class:`FleetFront` hash-assigns stream
  ids onto N worker processes, buffers ingest behind bounded per-shard
  queues (oldest-first shedding, never raising), supervises the workers
  (heartbeats, hang timeouts, crash detection), restarts failures on a
  bounded deterministic backoff and re-homes their streams with the
  detector health machine reporting degraded-then-healthy;
* :mod:`repro.fleet.worker` — the per-shard process: one engine on its
  own registry, driven by a synchronous round protocol that ships
  detections (bit-exact), stream health, metrics and spans back to the
  front — the same ship-back contract as :mod:`repro.parallel`.

``tests/test_fleet.py`` proves an N-shard fleet byte-identical to a
single engine (faulted streams included) and loses zero streams across
a mid-run worker kill; ``bench/`` measures the fleet hop.
"""

from .front import FleetConfig, FleetFront

__all__ = [
    "FleetConfig",
    "FleetFront",
]
