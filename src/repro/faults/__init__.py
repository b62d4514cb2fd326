"""``repro.faults`` — sensor fault models for the streaming detector.

The paper's deployment target is a wearable airbag fed by a live 100 Hz
IMU stream; real streams drop samples, saturate, freeze and die.  This
package provides deterministic, seeded fault injectors and a scheduling
layer (:class:`FaultScenario`) that replays those failures against any
recording, so the hardened :class:`~repro.core.detector.FallDetector` can
be evaluated under exactly reproducible degraded conditions.

Quick tour::

    from repro.faults import builtin_scenarios

    scenario = builtin_scenarios(seed=7)["gyro_dead"]
    t, accel, gyro = scenario.apply(recording)   # faulted stream
    # ... feed (t, accel, gyro) sample-by-sample into FallDetector.push

:func:`synth_stream` generates the seeded clean streams the serving
demos, evaluations and tests corrupt.  ``repro faults`` (the CLI
subcommand) runs the full clean-vs-faulted event-level comparison.
"""

from .injectors import (
    ClockJitter,
    FaultInjector,
    Gap,
    NonFinite,
    SampleDropout,
    Saturation,
    SensorDead,
    SpikeNoise,
    StuckChannel,
)
from .scenario import FaultScenario, FaultWindow, builtin_scenarios
from .streams import synth_stream

__all__ = [
    "FaultInjector",
    "SampleDropout",
    "Gap",
    "NonFinite",
    "Saturation",
    "StuckChannel",
    "SpikeNoise",
    "ClockJitter",
    "SensorDead",
    "FaultWindow",
    "FaultScenario",
    "builtin_scenarios",
    "synth_stream",
]
