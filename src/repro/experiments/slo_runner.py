"""Scenario-driven evaluation of the SLO engine and budget attribution.

``repro profile`` measures raw latency; this runner measures the layer
that turns latency into *operability*: for each condition a small
synthetic fleet is served through a :class:`~repro.serve.ServeEngine`
with SLO tracking and the alert pipeline armed, and the run reports

* the **budget attribution** — how the paper's 150 ms inflation budget
  splits across the pipeline stages (ingest, fusion, filter, window,
  inference, decision), exact by construction (the end-to-end histogram
  observes the sum of the flushed stages);
* the **error-budget status** per objective (p99 window latency and
  deadline-miss ratio) — events, bad fraction, budget remaining;
* the **burn-rate alerts** that rode the :class:`~repro.alerts.AlertManager`.

Conditions are the clean fleet, each requested fault scenario, and a
synthetic **overload**: a fake latency clock is injected into the
engine so every batched forward is *charged* more than the latency
budget without anyone sleeping — deterministically driving the
fast-burn rule over its threshold and raising a ``critical`` alert
(resolution stays with the tracker, not the escalation machinery).

Burn-rate windows are shrunk to demo scale (seconds of *stream* time,
not wall time) — the tracker is driven on stream timestamps, so the
whole eval is bit-reproducible and sleep-free.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..alerts import AlertConfig, EscalationConfig
from ..core.detector import DetectorConfig
from ..faults import builtin_scenarios, synth_stream
from ..obs import BurnRateRule, SLOConfig, get_logger
from ..obs.metrics import MetricsRegistry
from ..serve import ServeConfig, ServeEngine
from ..signal.filters import sosfilt_kernel
from .alerts_runner import MagnitudeProbeModel

__all__ = ["SLOEvalConfig", "run_slo_eval"]

_logger = get_logger(__name__)

#: Default fault conditions (subset of the built-in suite — the point
#: here is SLO behaviour under degradation, not fault coverage).
_DEFAULT_SCENARIOS = ("nan_burst", "spikes")


def _demo_slo() -> SLOConfig:
    """The paper's objectives with burn windows shrunk to stream-seconds
    so one short run exercises raise and budget accounting."""
    return SLOConfig(
        fast_burn=BurnRateRule(name="fast_burn", short_window_s=1.0,
                               long_window_s=3.0, threshold=14.4,
                               severity="critical"),
        slow_burn=BurnRateRule(name="slow_burn", short_window_s=2.0,
                               long_window_s=5.0, threshold=6.0,
                               severity="suspect"),
        budget_window_s=30.0,
        bucket_s=0.25,
    )


class _SyntheticLatencyClock:
    """``perf_counter`` stand-in: consecutive reads differ by ``step_s``.

    The engine brackets each batched forward with two clock reads, so
    injecting this charges every window exactly ``step_s`` seconds of
    latency — the overload condition without any sleeping.
    """

    def __init__(self, step_s: float):
        self.step_s = float(step_s)
        self._now = 0.0

    def __call__(self) -> float:
        self._now += self.step_s
        return self._now


@dataclass(frozen=True)
class SLOEvalConfig:
    """Fleet shape, SLO policy and overload level for :func:`run_slo_eval`."""

    n_streams: int = 4
    #: Streams 1..faulted_streams carry the fault scenario.
    faulted_streams: int = 2
    duration_s: float = 6.0
    seed: int = 17
    detector: DetectorConfig = field(default_factory=DetectorConfig)
    #: Demo-scale burn windows (see :func:`_demo_slo`).
    slo: SLOConfig = field(default_factory=_demo_slo)
    #: Alert policy behind the burn-rate alerts (tight, like the other
    #: demo runners, though SLO alerts bypass the escalation machines).
    alerts: AlertConfig = field(default_factory=lambda: AlertConfig(
        escalation=EscalationConfig(confirm_window_s=1.5,
                                    confirm_detections=1,
                                    auto_resolve_s=2.0),
        dedup_horizon_s=4.0,
    ))
    #: Synthetic per-batch latency charged in the overload condition;
    #: must exceed ``slo.latency_budget_ms`` to burn the budget.
    overload_latency_ms: float = 180.0

    def __post_init__(self):
        if self.n_streams < 1:
            raise ValueError("n_streams must be >= 1")
        if not 0 <= self.faulted_streams < self.n_streams + 1:
            raise ValueError("faulted_streams must fit in the fleet")
        if self.duration_s <= 0:
            raise ValueError("duration_s must be positive")
        if self.overload_latency_ms <= 0:
            raise ValueError("overload_latency_ms must be positive")


def _fleet_for(scenario, config: SLOEvalConfig) -> dict:
    streams = {}
    for idx in range(config.n_streams):
        accel, gyro, t = synth_stream(
            idx, duration_s=config.duration_s, seed=config.seed,
            fs=config.detector.fs)
        if scenario is not None and 1 <= idx <= config.faulted_streams:
            t, accel, gyro = scenario.apply_arrays(t, accel, gyro)
        streams[f"s{idx:03d}"] = (accel, gyro, t)
    return streams


def _run_condition(scenario, config: SLOEvalConfig, *,
                   overload: bool = False) -> dict:
    registry = MetricsRegistry()
    latency_clock = (_SyntheticLatencyClock(config.overload_latency_ms
                                            / 1000.0)
                     if overload else None)
    engine = ServeEngine(
        MagnitudeProbeModel(),
        ServeConfig(detector=config.detector, alerts=config.alerts,
                    slo=config.slo),
        registry=registry,
        latency_clock=latency_clock,
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
    slo = engine.slo_report()
    manager = engine.alerts
    slo_alerts = sorted(
        {alert.stream for alert in manager.alerts if alert.source == "slo"})
    burning = {
        f"{objective}/{rule}"
        for objective, obj in slo["objectives"].items()
        for rule, state in obj["burn_rates"].items() if state["burning"]
    }
    return {
        "windows": slo["stages"]["windows"] if "stages" in slo else 0,
        "detections": engine.detections,
        "stage_report": slo.get("stages"),
        "attribution": slo.get("attribution"),
        "objectives": slo["objectives"],
        "alerts_raised": slo["alerts_raised"],
        "alerts_resolved": slo["alerts_resolved"],
        "alert_subjects": slo_alerts,
        "burning": sorted(burning),
        "fast_burn_alert": any("fast_burn" in subject
                               for subject in slo_alerts),
        "overload": overload,
    }


def run_slo_eval(config: SLOEvalConfig | None = None,
                 scenarios=None) -> dict:
    """Per-condition SLO behaviour (see module docstring).

    ``scenarios`` is ``None`` for the default subset, a list of built-in
    fault-scenario names, or a dict ``{name: FaultScenario}``.  The
    clean condition always runs first; the synthetic overload condition
    always runs last.
    """
    config = config or SLOEvalConfig()
    if scenarios is None:
        available = builtin_scenarios(seed=config.seed)
        scenarios = {n: available[n] for n in _DEFAULT_SCENARIOS}
    elif not isinstance(scenarios, dict):
        available = builtin_scenarios(seed=config.seed)
        unknown = [n for n in scenarios if n not in available]
        if unknown:
            raise ValueError(f"unknown scenario(s) {unknown}; "
                             f"available: {sorted(available)}")
        scenarios = {n: available[n] for n in scenarios}
    _logger.info("slo eval: %d streams, %d scenario(s) + overload",
                 config.n_streams, len(scenarios))
    # The Butterworth filter loads scipy's kernel on its first call;
    # load it here, untimed, so that one-time cost is not charged to
    # the clean condition's first window as filter time.
    sosfilt_kernel()
    conditions = {"clean": _run_condition(None, config)}
    for name, scenario in sorted(scenarios.items()):
        conditions[name] = _run_condition(scenario, config)
    conditions["overload"] = _run_condition(None, config, overload=True)
    return {
        "n_streams": config.n_streams,
        "faulted_streams": config.faulted_streams,
        "duration_s": config.duration_s,
        "latency_budget_ms": config.slo.latency_budget_ms,
        "overload_latency_ms": config.overload_latency_ms,
        "rules": {
            rule.name: {
                "short_window_s": rule.short_window_s,
                "long_window_s": rule.long_window_s,
                "threshold": rule.threshold,
                "severity": rule.severity,
            }
            for rule in config.slo.rules
        },
        "conditions": conditions,
    }
