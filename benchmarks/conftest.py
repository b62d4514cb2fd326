"""Shared benchmark fixtures.

Benchmarks regenerate the paper's tables/figures at the ``REPRO_SCALE``
experiment scale (default: ``bench``).  Each bench renders a
paper-vs-measured table, prints it, and archives it under
``benchmarks/results/`` so EXPERIMENTS.md can quote it.
"""

from __future__ import annotations

import pathlib
import time

import pytest

from repro.experiments import get_scale

RESULTS_DIR = pathlib.Path(__file__).parent / "results"


@pytest.fixture(scope="session")
def scale():
    """The experiment scale every benchmark runs at."""
    return get_scale()


@pytest.fixture(scope="session")
def save_report():
    """Callable persisting a rendered report and echoing it to stdout.

    Each archived file ends with the wall-clock durations the experiment
    runners recorded, so every table carries its own reproduction cost.
    """
    RESULTS_DIR.mkdir(exist_ok=True)

    def _save(name: str, text: str) -> None:
        from repro.experiments import (
            experiment_durations,
            experiment_pool_stats,
        )
        from repro.obs import get_registry

        durations = experiment_durations()
        if durations:
            text += "\n\nexperiment wall-clock: " + "  ".join(
                f"{k}={v:.1f}s" for k, v in sorted(durations.items())
            )
        # Durations above are meaningless without the pool/cache context
        # they ran under: a 4-worker, cache-warm number must never be
        # mistaken for a serial cold one.
        pool = experiment_pool_stats()
        if pool:
            text += "\npool: " + "  ".join(
                f"{k}(n_jobs={v['n_jobs']} wall={v['wall_s']:.1f}s "
                f"busy={v['busy_s']:.1f}s retried={v['retried_serial']})"
                for k, v in sorted(pool.items())
            )
        cache_counts = {
            entry["name"]: entry["value"]
            for entry in get_registry().entries()
            if entry["name"].startswith("cache/")
        }
        if cache_counts:
            text += "\ncache: " + "  ".join(
                f"{name.split('/', 1)[1]}={value}"
                for name, value in sorted(cache_counts.items())
            )
        path = RESULTS_DIR / f"{name}.txt"
        path.write_text(text + "\n", encoding="utf-8")
        print(f"\n{text}\n[saved to {path}]")

    return _save


@pytest.fixture(scope="session")
def replay():
    """Callable serving streams through one engine, timed.

    ``replay(model, streams, backend="float32")`` submits the
    ``{stream_id: (accel, gyro, t)}`` samples round-robin across streams
    and steps once per detector hop, like a live fleet.  Returns
    ``(engine, wall_s)``; ``engine.inference_seconds`` is the time spent
    inside the batched forwards.
    """
    from repro.obs.metrics import MetricsRegistry
    from repro.serve import ServeConfig, ServeEngine

    def _replay(model, streams, backend="float32"):
        engine = ServeEngine(model, ServeConfig(backend=backend),
                             registry=MetricsRegistry())
        hop = engine.config.detector.hop_samples
        n = max(len(t) for _, _, t in streams.values())
        t0 = time.perf_counter()
        for i in range(n):
            for stream_id, (accel, gyro, t) in streams.items():
                if i < len(t):
                    engine.submit(stream_id, accel[i], gyro[i], t[i])
            if (i + 1) % hop == 0:
                engine.step()
        engine.step()
        return engine, time.perf_counter() - t0

    return _replay
