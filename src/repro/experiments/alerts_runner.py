"""Scenario-driven evaluation of the fleet alert pipeline.

``repro faults`` measures how *detections* degrade under sensor faults;
this runner measures what the layer above does with them: for each
fault scenario a small synthetic fleet is served through a
:class:`~repro.serve.ServeEngine` with the alert pipeline armed, and
the run reports how detections became (or correctly failed to become)
operator-facing alerts — raised / deduped / demoted-to-suspect /
expired / auto-resolved — plus what landed in the persistent event
store.

The fleet per scenario (all streams use quiet ADL bases — the
:func:`~repro.faults.synth_stream` indices that carry built-in fall
events are skipped so every event below is injected deliberately):

* stream 0 carries two synthetic high-g *fall pulses* — the true
  positive every scenario should escalate at ``critical``, with the
  second pulse landing inside the dedup horizon so it collapses into
  a repeat instead of a second page;
* streams 1..``faulted_streams`` carry the scenario's fault, and
  stream 1 *also* carries a fall pulse — a fall seen through a
  degraded sensor should page at ``suspect``, not ``critical``, and a
  fault that starves the detector of windows (dead gyro) should
  suppress the page entirely;
* spike-type scenarios produce the false-positive bursts that real
  ADL-dominated deployments suffer ("Watch Your Step", arXiv
  2509.11789) on the faulted-but-quiet streams — those ride the
  confirm window and dedup rather than paging per spike;
* the remainder stay clean and quiet and should stay silent.

Inference uses a deterministic :class:`MagnitudeProbeModel` rather than
a freshly trained CNN so the eval isolates the *alerting* behaviour
from training noise and stays bit-reproducible run to run.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field

import numpy as np

from ..alerts import AlertConfig, EscalationConfig, EventStoreConfig
from ..core.detector import DetectorConfig
from ..faults import builtin_scenarios, synth_stream
from ..obs import get_logger
from ..obs.metrics import MetricsRegistry
from ..serve import ServeConfig, ServeEngine

__all__ = ["AlertEvalConfig", "MagnitudeProbeModel", "run_alert_eval"]

_logger = get_logger(__name__)


class MagnitudeProbeModel:
    """Deterministic window scorer: peak accel magnitude → probability.

    Maps the window's peak acceleration-magnitude (channels 0–2 of the
    staged window are accel in g) linearly onto [0, 1] between ``lo_g``
    and ``hi_g``.  The defaults are calibrated against the *staged*
    (filtered) windows of :func:`~repro.faults.synth_stream` streams:
    quiet ADL stages at ~1.06 g peak (scores 0), injected spike faults
    survive filtering at ~2.1 g (score ≈0.6 — a detection), and fall
    pulses stage at ~4 g (score 1.0) — the exact regime the alert layer
    has to tell apart.
    """

    def __init__(self, lo_g: float = 1.3, hi_g: float = 2.6):
        if hi_g <= lo_g:
            raise ValueError(f"need hi_g > lo_g, got {lo_g}..{hi_g}")
        self.lo_g = float(lo_g)
        self.hi_g = float(hi_g)

    def predict(self, x):
        x = np.asarray(x)
        if x.shape[0] == 0:
            return np.zeros((0, 1))
        magnitude = np.sqrt((x[:, :, :3] ** 2).sum(axis=2))
        peak = magnitude.max(axis=1)
        prob = (peak - self.lo_g) / (self.hi_g - self.lo_g)
        return np.clip(prob, 0.0, 1.0)[:, None]


@dataclass(frozen=True)
class AlertEvalConfig:
    """Fleet shape and alert policy for :func:`run_alert_eval`."""

    n_streams: int = 4
    #: Streams 1..faulted_streams carry the fault scenario.
    faulted_streams: int = 2
    duration_s: float = 8.0
    seed: int = 13
    detector: DetectorConfig = field(default_factory=DetectorConfig)
    #: Tight demo policy: one confirming window escalates, short
    #: auto-resolve so a single run exercises the full lifecycle.
    alerts: AlertConfig = field(default_factory=lambda: AlertConfig(
        escalation=EscalationConfig(confirm_window_s=1.5,
                                    confirm_detections=1,
                                    auto_resolve_s=2.0),
        dedup_horizon_s=4.0,
    ))
    #: Root directory for per-scenario event stores; ``None`` keeps the
    #: stores in memory (no persistence assertions possible).
    store_dir: str | None = None
    #: Fall-pulse shape injected into streams 0 and 1.
    fall_t_s: float = 3.0
    fall_duration_s: float = 0.4
    fall_peak_g: float = 4.0
    #: Second fall pulse on stream 0, inside the dedup horizon of the
    #: first so it collapses into a repeat; ``None`` disables it.
    second_fall_t_s: float | None = 5.5

    def __post_init__(self):
        if self.n_streams < 1:
            raise ValueError("n_streams must be >= 1")
        if not 0 <= self.faulted_streams < self.n_streams + 1:
            raise ValueError("faulted_streams must fit in the fleet")
        if self.duration_s <= 0:
            raise ValueError("duration_s must be positive")


def _inject_fall(accel, t, config: AlertEvalConfig, at_s: float):
    """Superimpose a smooth high-g pulse (impact-like) onto one stream."""
    accel = accel.copy()
    envelope = np.exp(
        -0.5 * ((t - at_s) / (config.fall_duration_s / 4.0)) ** 2
    )
    accel[:, 2] += (config.fall_peak_g - 1.0) * envelope
    return accel


def _quiet_synth_index(position: int) -> int:
    """:func:`~repro.faults.synth_stream` index for fleet ``position``,
    skipping the indices (multiples of 3) whose synthetic trace carries a
    built-in fall event — the eval injects its own events deliberately."""
    return position + position // 2 + 1


def _fleet_for(scenario, config: AlertEvalConfig) -> dict:
    streams = {}
    for idx in range(config.n_streams):
        accel, gyro, t = synth_stream(
            _quiet_synth_index(idx), duration_s=config.duration_s,
            seed=config.seed, fs=config.detector.fs)
        if idx <= 1:
            accel = _inject_fall(accel, t, config, config.fall_t_s)
        if idx == 0 and config.second_fall_t_s is not None:
            accel = _inject_fall(accel, t, config, config.second_fall_t_s)
        if scenario is not None and 1 <= idx <= config.faulted_streams:
            t, accel, gyro = scenario.apply_arrays(t, accel, gyro)
        streams[f"s{idx:03d}"] = (accel, gyro, t)
    return streams


def _run_condition(name: str, scenario, config: AlertEvalConfig) -> dict:
    alerts_cfg = config.alerts
    if config.store_dir is not None:
        alerts_cfg = AlertConfig(
            escalation=alerts_cfg.escalation,
            dedup_horizon_s=alerts_cfg.dedup_horizon_s,
            store=EventStoreConfig(
                root=os.path.join(config.store_dir, name)),
            max_alerts=alerts_cfg.max_alerts,
            per_stream_metrics=alerts_cfg.per_stream_metrics,
        )
    registry = MetricsRegistry()
    engine = ServeEngine(
        MagnitudeProbeModel(),
        ServeConfig(detector=config.detector, alerts=alerts_cfg),
        registry=registry,
    )
    streams = _fleet_for(scenario, config)
    hop = config.detector.hop_samples
    n = max(len(t) for _, _, t in streams.values())
    for i in range(n):
        for stream_id, (accel, gyro, t) in streams.items():
            if i < len(t):
                engine.submit(stream_id, accel[i], gyro[i], t[i])
        if (i + 1) % hop == 0:
            engine.step()
    engine.step()
    report = engine.report()
    alerts = report["alerts"]
    manager = engine.alerts
    severities = {"critical": 0, "suspect": 0}
    for alert in manager.alerts:
        severities[alert.severity] = severities.get(alert.severity, 0) + 1
    alert_streams = sorted({a.stream for a in manager.alerts})
    return {
        "detections": report["detections"],
        "raised": alerts["raised"],
        "critical": severities["critical"],
        "suspect": severities["suspect"],
        "deduped": alerts["deduped"],
        "expired": alerts["expired"],
        "resolved": alerts["resolved"],
        "transitions": alerts["transitions"],
        "errors": alerts["errors"],
        "alert_streams": alert_streams,
        "store_events": (alerts["store"]["events"]
                         if alerts["store"] is not None else None),
        "worst_healths": sorted({
            s["health"] for s in engine.stream_report().values()
        }),
    }


def run_alert_eval(config: AlertEvalConfig | None = None,
                   scenarios=None) -> dict:
    """Per-scenario alert-pipeline behaviour (see module docstring).

    ``scenarios`` is ``None`` for the full built-in suite, a list of
    built-in names, or a dict ``{name: FaultScenario}``; the clean
    condition always runs first as the baseline.
    """
    config = config or AlertEvalConfig()
    if scenarios is None:
        scenarios = builtin_scenarios(seed=config.seed)
    elif not isinstance(scenarios, dict):
        available = builtin_scenarios(seed=config.seed)
        unknown = [n for n in scenarios if n not in available]
        if unknown:
            raise ValueError(f"unknown scenario(s) {unknown}; "
                             f"available: {sorted(available)}")
        scenarios = {n: available[n] for n in scenarios}
    _logger.info("alert eval: %d streams, %d scenario(s)",
                 config.n_streams, len(scenarios))
    results = {
        "n_streams": config.n_streams,
        "faulted_streams": config.faulted_streams,
        "duration_s": config.duration_s,
        "policy": {
            "confirm_window_s": config.alerts.escalation.confirm_window_s,
            "confirm_detections": config.alerts.escalation.confirm_detections,
            "auto_resolve_s": config.alerts.escalation.auto_resolve_s,
            "dedup_horizon_s": config.alerts.dedup_horizon_s,
        },
        "clean": _run_condition("clean", None, config),
        "scenarios": {
            name: _run_condition(name, scenario, config)
            for name, scenario in sorted(scenarios.items())
        },
    }
    return results
