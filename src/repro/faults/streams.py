"""Synthetic wearable streams: the clean input the fault scenarios corrupt.

:func:`synth_stream` is the one seeded stream generator the serving
demos, the alert and SLO evaluations and the streaming tests share.
Apply a :class:`~repro.faults.FaultScenario` to its arrays with
``scenario.apply_arrays(t, accel, gyro)`` for a degraded copy.
"""

from __future__ import annotations

import numpy as np

__all__ = ["synth_stream"]


def synth_stream(stream_index: int, *, duration_s: float = 8.0,
                 seed: int = 7, fs: float = 100.0):
    """One synthetic wearable recording: ``(accel_g, gyro_dps, t)``.

    Quiet activities-of-daily-living motion (gravity plus sway and sensor
    noise) with, on every third stream, one fall-like event: a free-fall
    dip toward 0 g followed by an impact spike and a rotation burst.
    ``duration_s * fs`` samples, deterministic in ``(seed, stream_index)``.
    """
    if duration_s <= 0:
        raise ValueError("duration_s must be positive")
    n = int(round(duration_s * fs))
    rng = np.random.default_rng(seed * 7919 + stream_index)
    t = np.arange(n) / fs
    sway = 0.05 * np.sin(2.0 * np.pi * (0.4 + 0.05 * stream_index) * t)
    accel = rng.normal(0.0, 0.02, size=(n, 3))
    accel[:, 2] += 1.0 + sway          # gravity on z, in g
    accel[:, 0] += 0.5 * sway
    gyro = rng.normal(0.0, 2.0, size=(n, 3))
    if stream_index % 3 == 0 and n > int(fs):
        onset = int(n * (0.35 + 0.3 * rng.random()))
        dip = slice(onset, min(n, onset + int(0.3 * fs)))
        impact = slice(dip.stop, min(n, dip.stop + int(0.1 * fs)))
        accel[dip, 2] -= 0.85          # free fall: |a| -> ~0.15 g
        accel[impact] += rng.normal(0.0, 1.5, size=(impact.stop - impact.start, 3))
        accel[impact, 2] += 4.0        # impact spike
        gyro[dip] += rng.normal(0.0, 120.0, size=(dip.stop - dip.start, 3))
    return accel, gyro, t
