"""Terminal dashboard over a running :class:`~repro.serve.ServeEngine`.

``repro tail`` renders this: a fleet header (streams, throughput,
batches, detections), a sparkline of batch-latency p95 over time fed by a
:class:`~repro.obs.MetricsSampler`, the fleet-aggregated window-latency
histogram (exact merge of every stream's histogram — see
``ServeEngine.fleet_latency``), and a per-stream table sorted
worst-health-first.  Everything renders to a plain string, so the same
frame goes to a refreshing terminal, a test assertion, or ``make
tail-demo`` output unchanged.

:func:`run_tail` drives :func:`repro.faults.synth_stream` streams
through an engine with flight recording armed and faults injected on a
couple of streams — a self-contained demo of the whole observability
story: the dashboard shows the degradation live, the recorders freeze
the incidents.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..alerts import AlertConfig
from ..core.detector import DetectorConfig
from ..faults import builtin_scenarios, synth_stream
from ..obs import FlightConfig, MetricsSampler, render_exposition
from ..obs.metrics import MetricsRegistry
from .engine import ServeConfig, ServeEngine

__all__ = ["TailConfig", "render_dashboard", "run_tail", "sparkline"]

_SPARK = "▁▂▃▄▅▆▇█"

#: Health states ordered worst-first for the stream table sort.
_HEALTH_ORDER = {"quarantined": 0, "fault": 1, "degraded": 2, "healthy": 3}


@dataclass(frozen=True)
class TailConfig:
    """Workload and rendering knobs for :func:`run_tail`."""

    n_streams: int = 8
    duration_s: float = 6.0
    seed: int = 11
    detector: DetectorConfig = field(default_factory=DetectorConfig)
    #: Metrics sampling cadence in *stream* seconds (the sampler is driven
    #: on stream time, so frames are deterministic for a given workload).
    interval_s: float = 0.5
    #: Max rows in the per-stream table (worst health first).
    max_rows: int = 12
    #: Directory incident files land in; ``None`` keeps them in memory.
    incident_dir: str | None = None
    #: Inject faults (NaN burst / dead gyro) into two streams so the
    #: dashboard shows degradation and the recorders capture incidents.
    inject_faults: bool = True
    #: Arm the fleet alert pipeline on the engine; ``None`` runs the
    #: historical tail workload without alerting.
    alerts: AlertConfig | None = None

    def __post_init__(self):
        if self.n_streams < 1:
            raise ValueError("n_streams must be >= 1")
        if self.duration_s <= 0:
            raise ValueError("duration_s must be positive")
        if self.interval_s <= 0:
            raise ValueError("interval_s must be positive")


def sparkline(values, width: int = 32) -> str:
    """Down-sampled unicode sparkline of a numeric series."""
    values = [float(v) for v in values]
    if not values:
        return "(no samples yet)"
    if len(values) > width:
        # Keep the most recent `width` points — a tail view, not a mean.
        values = values[-width:]
    lo, hi = min(values), max(values)
    span = hi - lo
    if span <= 0:
        return _SPARK[0] * len(values)
    return "".join(
        _SPARK[min(len(_SPARK) - 1, int((v - lo) / span * len(_SPARK)))]
        for v in values
    )


def _fmt_ms(value) -> str:
    return "--" if value is None else f"{value:.2f}"


#: Alert rows shown in the dashboard pane (most recent first).
_MAX_ALERT_ROWS = 4


def _alert_pane(manager) -> list[str]:
    """Alert summary + most recent alert lines for the dashboard."""
    report = manager.report()
    by_sev = report["active_by_severity"]
    lines = [
        f"alerts       : {report['active']:>8} active "
        f"(crit {by_sev.get('critical', 0)}, "
        f"susp {by_sev.get('suspect', 0)})   "
        f"raised {report['raised']}  deduped {report['deduped']}  "
        f"resolved {report['resolved']}"
    ]
    recent = sorted(manager.alerts, key=lambda a: a.last_t,
                    reverse=True)[:_MAX_ALERT_ROWS]
    for alert in recent:
        lines.append(
            f"  {alert.id}  {alert.stream:<9} {alert.severity:<8} "
            f"{alert.state:<8} t={alert.last_t:7.2f}s "
            f"det={alert.detections} rep={alert.repeats}"
        )
    return lines


def _slo_pane(engine) -> list[str]:
    """Error-budget status and budget attribution for the dashboard."""
    report = engine.slo_report()
    if report is None:
        return []
    lines = []
    for name, obj in report["objectives"].items():
        burning = [rule for rule, state in obj["burn_rates"].items()
                   if state["burning"]]
        status = (f"BURNING ({', '.join(burning)})" if burning
                  else "within budget")
        lines.append(
            f"slo          : {name:<19} bad {obj['bad_fraction']:.3%} "
            f"(allowed {obj['objective_bad_fraction']:.3%}, "
            f"budget left {obj['budget_remaining']:+.0%})  {status}"
        )
    attribution = report.get("attribution")
    if attribution:
        shares = ", ".join(f"{row['stage']} {row['share_of_budget']:.2%}"
                           for row in attribution)
        lines.append(
            f"{report['latency_budget_ms']:g} ms budget : {shares}")
    return lines


def render_dashboard(engine: ServeEngine, sampler: MetricsSampler | None = None,
                     *, title: str = "repro tail", max_rows: int = 12) -> str:
    """One dashboard frame as a plain string."""
    report = engine.report()
    streams = engine.stream_report()
    fleet = engine.fleet_latency().summary()
    quarantined = sum(s["health"] == "quarantined" for s in streams.values())
    lines = [
        f"{title} — {report['streams']} streams",
        "=" * 64,
        f"samples in   : {report['samples_in']:>8}    "
        f"dropped      : {report['dropped_samples']}",
        f"windows      : {report['windows_inferred']:>8}    "
        f"batches      : {report['batches']} "
        f"(mean {report['batch_size']['mean']:.1f})",
        f"detections   : {report['detections']:>8}    "
        f"quarantined  : {quarantined}",
        f"batch p95    : {_fmt_ms(report['batch_latency_ms']['p95']):>8} ms "
        f"  errors     : batch {report['batch_errors']}, "
        f"stream {report['stream_errors']}",
    ]
    if sampler is not None:
        p95 = [v for _, v in sampler.series("serve/batch_latency_ms", "p95")
               if v is not None]
        lines.append(f"p95 trend    : {sparkline(p95)}")
    lines.append(
        f"fleet window : p50 {_fmt_ms(fleet['p50'])} ms, "
        f"p95 {_fmt_ms(fleet['p95'])} ms, "
        f"p99 {_fmt_ms(fleet['p99'])} ms "
        f"({fleet['count']} windows)"
    )
    if engine.slo is not None:
        lines += _slo_pane(engine)
    if engine.alerts is not None:
        lines += _alert_pane(engine.alerts)
    lines.append("")
    lines.append("stream    health       queue  viol  fback  det  incid")
    lines.append("-" * 54)
    ordered = sorted(
        streams.items(),
        key=lambda kv: (_HEALTH_ORDER.get(kv[1]["health"], 9), kv[0]),
    )
    shown = ordered[:max_rows]
    for stream_id, s in shown:
        lines.append(
            f"{stream_id:<9} {s['health']:<12} {s['queue_depth']:>5} "
            f"{s['deadline_violations']:>5} {s['fallback_detections']:>6} "
            f"{s['detections']:>4} {s['incidents']:>6}"
        )
    hidden = len(ordered) - len(shown)
    if hidden > 0:
        lines.append(f"... {hidden} more healthy streams not shown")
    return "\n".join(lines)


def _tail_streams(config: TailConfig) -> dict:
    """Synthetic fleet for the demo; two streams degraded when enabled."""
    streams = {}
    scenarios = (builtin_scenarios(seed=config.seed)
                 if config.inject_faults else {})
    for idx in range(config.n_streams):
        accel, gyro, t = synth_stream(
            idx, duration_s=config.duration_s, seed=config.seed,
            fs=config.detector.fs)
        if config.inject_faults and config.n_streams > 2:
            if idx == 1:
                t, accel, gyro = scenarios["nan_burst"].apply_arrays(
                    t, accel, gyro)
            elif idx == 2:
                t, accel, gyro = scenarios["gyro_dead"].apply_arrays(
                    t, accel, gyro)
        streams[f"s{idx:03d}"] = (accel, gyro, t)
    return streams


def run_tail(model, config: TailConfig | None = None, *,
             on_frame=None, should_stop=None) -> dict:
    """Run the tail workload; calls ``on_frame(frame_str)`` per interval.

    Drives the synthetic fleet through a flight-recording
    :class:`ServeEngine` on a dedicated registry, sampling metrics on
    stream time so the frame sequence is deterministic.  Returns the
    engine, registry, sampler, incident paths, the final rendered frame
    and the closing Prometheus exposition (with the fleet-merged latency
    histogram attached).

    ``should_stop`` is polled once per sample round; when it returns
    true the feed stops early but the shutdown path still runs — the
    trailing step, incident flush, final frame and exposition — so a
    SIGTERM'd ``repro tail`` leaves complete artifacts behind (the
    result carries ``interrupted=True``).
    """
    config = config or TailConfig()
    streams = _tail_streams(config)
    registry = MetricsRegistry()
    serve_cfg = ServeConfig(
        detector=config.detector,
        flight=FlightConfig(out_dir=config.incident_dir,
                            post_trigger_samples=25),
        alerts=config.alerts,
    )
    engine = ServeEngine(model, serve_cfg, registry=registry)
    sampler = MetricsSampler(registry, interval_s=config.interval_s,
                             capacity=4096)
    hop = config.detector.hop_samples
    fs = config.detector.fs
    n = max(len(t) for _, _, t in streams.values())
    frames = 0
    interrupted = False
    next_frame_t = config.interval_s
    for i in range(n):
        if should_stop is not None and should_stop():
            interrupted = True
            break
        for stream_id, (accel, gyro, t) in streams.items():
            if i < len(t):
                engine.submit(stream_id, accel[i], gyro[i], t[i])
        if (i + 1) % hop == 0:
            engine.step()
        stream_t = (i + 1) / fs
        sampler.maybe_sample(now=stream_t)
        if on_frame is not None and stream_t >= next_frame_t:
            on_frame(render_dashboard(engine, sampler,
                                      max_rows=config.max_rows))
            frames += 1
            next_frame_t += config.interval_s
    engine.step()
    engine.flush_incidents()
    sampler.sample(now=n / fs)
    final_frame = render_dashboard(engine, sampler,
                                   max_rows=config.max_rows)
    extra = {"serve/fleet/window_latency_ms": engine.fleet_latency()}
    fleet_stages = engine.fleet_stages()
    if fleet_stages is not None:
        for stage, hist in fleet_stages.histograms.items():
            # Folded to one family with a `stage` label on exposition.
            extra[f"serve/stage/{stage}/latency_ms"] = hist
    exposition = render_exposition(registry, extra=extra)
    return {
        "engine": engine,
        "registry": registry,
        "sampler": sampler,
        "frames": frames,
        "interrupted": interrupted,
        "final_frame": final_frame,
        "exposition": exposition,
        "incident_paths": engine.incident_paths(),
        "stream_report": engine.stream_report(),
    }
