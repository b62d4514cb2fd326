"""Command-line interface: regenerate any table or figure of the paper.

Usage::

    python -m repro table3 --scale quick
    python -m repro table4
    python -m repro edge
    python -m repro sweep --scale bench
    python -m repro ablations
    python -m repro thresholds
    python -m repro figure1 --task 39
    python -m repro figure2
    python -m repro dataset --out corpus.npz --subjects 4
    python -m repro profile --scale quick --trace-out trace.jsonl
    python -m repro faults --scenarios dropout gyro_dead
    python -m repro alerts --scenarios spikes nan_burst
    python -m repro slo --scenarios nan_burst spikes
    python -m repro serve-http --port 8787 --serve-for 60
    python -m repro replay benchmarks/results/incidents/incident-....jsonl
    python -m repro tail --streams 8 --duration 6 --once
    python -m repro --jobs 4 sweep --scale bench
    python -m repro cache --prune-mb 500

Every command prints the same paper-vs-measured report the benchmark
harness archives.  ``--verbose`` (repeatable) turns on the library's
logging at INFO / DEBUG.
"""

from __future__ import annotations

import argparse
import logging
import os
import sys

from .eval.reports import (
    format_table,
    render_alert_report,
    render_edge_report,
    render_faults_report,
    render_profile_report,
    render_slo_report,
    render_table3,
    render_table4,
)
from .experiments import get_scale
from .obs import configure_logging

__all__ = ["main", "build_parser"]


def _install_stop_handler():
    """SIGTERM/SIGINT -> a ``threading.Event`` instead of an abrupt exit.

    The long-running commands (``serve-http``, ``tail``) poll the event
    so a signal triggers the same graceful path as a finished workload:
    seal the event store, flush pending incidents, stop the HTTP server.
    Returns the event; installation is a no-op off the main thread.
    """
    import signal
    import threading

    stop = threading.Event()
    if threading.current_thread() is not threading.main_thread():
        return stop

    def _handle(signum, frame):
        stop.set()

    for signum in (signal.SIGTERM, signal.SIGINT):
        try:
            signal.signal(signum, _handle)
        except (ValueError, OSError):  # pragma: no cover - exotic host
            pass
    return stop


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Reproduce tables/figures of 'A Lightweight CNN for "
                    "Real-Time Pre-Impact Fall Detection' (DATE 2025).",
    )
    parser.add_argument(
        "--scale", default=None, choices=["quick", "bench", "paper"],
        help="experiment scale (default: $REPRO_SCALE or 'bench')",
    )
    parser.add_argument(
        "-v", "--verbose", action="count", default=0,
        help="log progress to stderr (-v: INFO, -vv: DEBUG)",
    )
    parser.add_argument(
        "-j", "--jobs", type=int, default=None,
        help="worker processes for fold/grid execution (default: "
             "$REPRO_JOBS or serial; 0 = all cores); results are "
             "bit-identical for any value",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    sub.add_parser("table1", help="threshold-detector baselines (Table I)")
    table3 = sub.add_parser("table3", help="model comparison (Table III)")
    table3.add_argument("--windows", type=float, nargs="+",
                        default=[200.0, 300.0, 400.0])
    sub.add_parser("table4", help="event-level analysis (Table IV)")
    sub.add_parser("edge", help="quantization + deployment (Section IV-C)")
    sub.add_parser("sweep", help="window/overlap design sweep (Section III-A)")
    sub.add_parser("ablations", help="design-choice ablations")
    figure1 = sub.add_parser("figure1", help="fall-stage anatomy (Figure 1)")
    figure1.add_argument("--task", type=int, default=30)
    figure1.add_argument("--seed", type=int, default=42)
    sub.add_parser("figure2", help="pipeline trace (Figure 2)")
    dataset = sub.add_parser("dataset",
                             help="generate + save a synthetic corpus")
    dataset.add_argument("--out", required=True)
    dataset.add_argument("--subjects", type=int, default=4)
    dataset.add_argument("--trials", type=int, default=1)
    dataset.add_argument("--duration-scale", type=float, default=0.5)
    dataset.add_argument("--seed", type=int, default=7)
    profile = sub.add_parser(
        "profile",
        help="trace a pipeline+train+detector workload; print the span "
             "tree, latency histogram and airbag margins",
    )
    profile.add_argument("--deadline-ms", type=float, default=None,
                         help="real-time deadline per window inference "
                              "(default: the hop interval)")
    profile.add_argument("--epochs", type=int, default=4,
                         help="cap on training epochs for the workload")
    profile.add_argument("--layer-timing", action="store_true",
                         help="also record per-layer forward timings")
    profile.add_argument("--trace-out", default=None,
                         help="write the collected spans to this JSONL file")
    faults = sub.add_parser(
        "faults",
        help="fault-injection robustness: stream held-out recordings "
             "through the detector clean and under each fault scenario",
    )
    faults.add_argument("--scenarios", nargs="+", default=None,
                        help="subset of built-in scenario names "
                             "(default: all)")
    faults.add_argument("--epochs", type=int, default=4,
                        help="cap on training epochs for the detector CNN")
    faults.add_argument("--fallback-only", action="store_true",
                        help="disable the CNN branch: evaluate the "
                             "magnitude fallback detector alone")
    faults.add_argument("--deadline-ms", type=float, default=None,
                        help="real-time deadline per window inference "
                             "(default: the hop interval)")
    faults.add_argument("--incident-dir", default=None,
                        help="arm a flight recorder on the evaluation "
                             "detector and write incident files here")
    faults.add_argument("--max-incidents", type=int, default=None,
                        help="cap on incident files kept in --incident-dir "
                             "(oldest pruned first; default: unbounded)")
    replay = sub.add_parser(
        "replay",
        help="deterministically re-run a flight-recorder incident file "
             "and diff probabilities/decisions against the record",
    )
    replay.add_argument("incident", help="incident .jsonl file to replay")
    replay.add_argument("--weights", default=None,
                        help="rebuild the CNN from this weights file and "
                             "recompute probabilities live (default: "
                             "replay the recorded probabilities)")
    tail = sub.add_parser(
        "tail",
        help="live terminal dashboard over a flight-recording serve "
             "engine fed synthetic streams (two with injected faults)",
    )
    tail.add_argument("--streams", type=int, default=8,
                      help="number of concurrent synthetic streams")
    tail.add_argument("--duration", type=float, default=6.0,
                      help="seconds of signal per stream")
    tail.add_argument("--seed", type=int, default=11,
                      help="workload generator seed")
    tail.add_argument("--once", action="store_true",
                      help="render one final frame instead of refreshing")
    tail.add_argument("--metrics-out", default=None,
                      help="write the closing Prometheus exposition here")
    tail.add_argument("--incident-dir", default=None,
                      help="write per-stream incident files here")
    alerts = sub.add_parser(
        "alerts",
        help="alert-pipeline evaluation: serve a synthetic fleet under "
             "each fault scenario and report raised/deduped/demoted "
             "alerts and event-store contents",
    )
    alerts.add_argument("--scenarios", nargs="+", default=None,
                        help="subset of built-in scenario names "
                             "(default: all)")
    alerts.add_argument("--streams", type=int, default=4,
                        help="fleet size per condition")
    alerts.add_argument("--faulted", type=int, default=2,
                        help="streams carrying the fault scenario")
    alerts.add_argument("--duration", type=float, default=8.0,
                        help="seconds of signal per stream")
    alerts.add_argument("--seed", type=int, default=13,
                        help="workload generator seed")
    alerts.add_argument("--store-dir", default=None,
                        help="write per-scenario alert event stores "
                             "under this directory")
    slo = sub.add_parser(
        "slo",
        help="SLO engine evaluation: per-stage latency-budget attribution "
             "plus error-budget / burn-rate status per condition (clean, "
             "fault scenarios, synthetic overload)",
    )
    slo.add_argument("--scenarios", nargs="+", default=None,
                     help="fault-scenario names to include as conditions "
                          "(default: nan_burst spikes)")
    slo.add_argument("--streams", type=int, default=4,
                     help="fleet size per condition")
    slo.add_argument("--duration", type=float, default=6.0,
                     help="seconds of signal per stream")
    slo.add_argument("--seed", type=int, default=17,
                     help="workload generator seed")
    slo.add_argument("--overload-ms", type=float, default=180.0,
                     help="synthetic latency charged per batch in the "
                          "overload condition (must exceed the 150 ms "
                          "budget to burn)")
    serve_http = sub.add_parser(
        "serve-http",
        help="run the alerting fleet once, then expose /metrics /healthz "
             "/alerts /slo /dashboard over HTTP until Ctrl-C "
             "(or --serve-for)",
    )
    serve_http.add_argument("--streams", type=int, default=8,
                            help="number of concurrent synthetic streams")
    serve_http.add_argument("--duration", type=float, default=6.0,
                            help="seconds of signal per stream")
    serve_http.add_argument("--seed", type=int, default=11,
                            help="workload generator seed")
    serve_http.add_argument("--host", default="127.0.0.1",
                            help="bind address")
    serve_http.add_argument("--port", type=int, default=8787,
                            help="bind port (0 = ephemeral)")
    serve_http.add_argument("--store-dir", default=None,
                            help="persist the alert event store here")
    serve_http.add_argument("--serve-for", type=float, default=None,
                            help="seconds to keep serving "
                                 "(default: until Ctrl-C)")
    cache = sub.add_parser(
        "cache",
        help="inspect or manage the on-disk artifact cache "
             "(datasets/segments; see $REPRO_CACHE_DIR)",
    )
    cache.add_argument("--clear", action="store_true",
                       help="delete every cached artifact")
    cache.add_argument("--prune-mb", type=float, default=None,
                       help="evict oldest entries until the cache is "
                            "under this many megabytes")
    return parser


def _cmd_table1(scale):
    from .experiments import run_table1_thresholds

    results = run_table1_thresholds(scale)
    rows = [
        [name, f"{100 * r['accuracy']:.2f}", f"{100 * r['f1']:.2f}",
         f"tp={r['tp']} fp={r['fp']} tn={r['tn']} fn={r['fn']}"]
        for name, r in results.items()
    ]
    return format_table(["Detector", "Acc %", "F1 %", "Confusion"], rows,
                        title="Threshold baselines (event level)")


def _cmd_table3(scale, windows):
    from .experiments import run_table3

    return render_table3(run_table3(scale, windows=tuple(windows)),
                         title="Table III (measured / paper)")


def _cmd_table4(scale):
    from .experiments import run_table4

    return render_table4(run_table4(scale)["report"],
                         title="Table IV (measured / paper)")


def _cmd_edge(scale):
    from .experiments import run_edge_experiment

    result = run_edge_experiment(scale)
    lines = [render_edge_report(result["report"])]
    lines.append(
        f"decision agreement float vs int8: "
        f"{100 * result['decision_agreement']:.2f} %  "
        f"(F1 drop {result['f1_drop_points']:.2f} points)"
    )
    return "\n".join(lines)


def _cmd_sweep(scale):
    from .experiments import run_window_sweep

    grid = run_window_sweep(scale)
    rows = [
        [f"{w} ms", f"{o:.0%}", f"{m['f1']:6.2f}"]
        for (w, o), m in sorted(grid.items())
    ]
    return format_table(["Window", "Overlap", "F1 %"], rows,
                        title="Window/overlap sweep (proposed CNN)")


def _cmd_ablations(scale):
    from .experiments import run_ablations

    results = run_ablations(scale)
    rows = [
        [name, f"{r['metrics']['f1']:6.2f}", f"{r['fall_miss_rate']:6.2f}",
         f"{r['adl_false_positive_rate']:6.2f}"]
        for name, r in results.items()
    ]
    return format_table(["Variant", "F1 %", "Fall miss %", "ADL FP %"], rows,
                        title="Design-choice ablations")


def _cmd_figure1(task, seed):
    from .experiments import run_figure1

    anatomy = run_figure1(task_id=task, seed=seed)
    rows = [
        [stage, f"{stats.get('duration_ms', 0):8.0f}",
         f"{stats.get('accel_mag_min', float('nan')):8.3f}",
         f"{stats.get('accel_mag_max', float('nan')):8.3f}"]
        for stage, stats in anatomy["stages"].items()
    ]
    return format_table(["Stage", "dur ms", "|a| min", "|a| max"], rows,
                        title=f"Figure 1 anatomy: {anatomy['task']}")


def _cmd_figure2(scale):
    from .experiments import run_figure2_pipeline

    trace = run_figure2_pipeline(scale)
    rows = [
        [stage, ", ".join(f"{k}={v:.4g}" if isinstance(v, float)
                          else f"{k}={v}" for k, v in summary.items())]
        for stage, summary in trace.items()
    ]
    return format_table(["Stage", "Summary"], rows, title="Figure 2 trace")


def _cmd_profile(scale, args):
    from .experiments import run_profile_workload

    result = run_profile_workload(
        scale,
        deadline_ms=args.deadline_ms,
        max_epochs=args.epochs,
        layer_timing=args.layer_timing,
    )
    report = render_profile_report(result)
    if args.layer_timing and result["layer_timings"]:
        rows = [
            [name, f"{s['count']}", f"{s['p50']:8.4f}", f"{s['p99']:8.4f}"]
            for name, s in sorted(result["layer_timings"].items())
        ]
        report += "\n\n" + format_table(
            ["Layer", "calls", "p50 ms", "p99 ms"], rows,
            title="Per-layer forward/backward timing",
        )
    if args.trace_out:
        import json

        with open(args.trace_out, "w", encoding="utf-8") as fh:
            for record in result["records"]:
                fh.write(json.dumps(record.to_json()) + "\n")
        report += f"\n[trace written to {args.trace_out}]"
    return report


def _cmd_faults(scale, args):
    from .experiments import run_fault_scenarios

    result = run_fault_scenarios(
        scale,
        scenarios=args.scenarios,
        model=None if args.fallback_only else "train",
        max_epochs=args.epochs,
        deadline_ms=args.deadline_ms,
        incident_dir=args.incident_dir,
        max_incidents=args.max_incidents,
    )
    report = render_faults_report(result)
    if args.incident_dir is not None:
        paths = result.get("incident_paths", [])
        report += (f"\n[{len(paths)} incident file(s) in "
                   f"{args.incident_dir}; replay any with "
                   f"'repro replay <file>']")
    return report


def _cmd_replay(args):
    from .obs import load_incident, render_replay_report, replay_incident

    incident = load_incident(args.incident)
    if args.weights is not None:
        from .core.architecture import build_lightweight_cnn
        from .core.detector import DetectorConfig
        from .nn.serialization import load_weights

        config = DetectorConfig(**{
            **incident.meta["config"],
            "channel_scales": tuple(
                incident.meta["config"]["channel_scales"]),
        })
        model = build_lightweight_cnn(config.window_samples)
        load_weights(model, args.weights)
    else:
        model = "recorded"
    result = replay_incident(incident, model=model)
    report = render_replay_report(result)
    # A diverging replay is a failed regression test: non-zero exit so
    # scripts (and CI) can gate on it.
    return report, 0 if result["identical"] else 1


def _cmd_tail(args):
    from .core.architecture import build_lightweight_cnn
    from .serve import TailConfig, run_tail

    config = TailConfig(
        n_streams=args.streams,
        duration_s=args.duration,
        seed=args.seed,
        incident_dir=args.incident_dir,
    )
    model = build_lightweight_cnn(config.detector.window_samples)
    on_frame = None
    if not args.once:
        def on_frame(frame):
            # ANSI home+clear per frame: a refreshing dashboard on any
            # VT100 terminal, harmless noise when piped to a file.
            print("\x1b[H\x1b[2J" + frame, flush=True)
    stop = _install_stop_handler()
    result = run_tail(model, config, on_frame=on_frame,
                      should_stop=stop.is_set)
    output = result["final_frame"]
    if result["interrupted"]:
        output += "\n[interrupted: incidents flushed, artifacts complete]"
    if args.metrics_out:
        with open(args.metrics_out, "w", encoding="utf-8") as fh:
            fh.write(result["exposition"])
        output += f"\n[exposition written to {args.metrics_out}]"
    if args.incident_dir is not None:
        output += (f"\n[{len(result['incident_paths'])} incident file(s) "
                   f"in {args.incident_dir}]")
    return output


def _cmd_alerts(args):
    from .core.detector import DetectorConfig
    from .experiments import AlertEvalConfig, run_alert_eval

    config = AlertEvalConfig(
        n_streams=args.streams,
        faulted_streams=args.faulted,
        duration_s=args.duration,
        seed=args.seed,
        detector=DetectorConfig(),
        store_dir=args.store_dir,
    )
    report = render_alert_report(run_alert_eval(config, args.scenarios))
    if args.store_dir is not None:
        report += f"\n[per-scenario event stores under {args.store_dir}]"
    return report


def _cmd_slo(args):
    from .core.detector import DetectorConfig
    from .experiments import SLOEvalConfig, run_slo_eval

    config = SLOEvalConfig(
        n_streams=args.streams,
        duration_s=args.duration,
        seed=args.seed,
        detector=DetectorConfig(),
        overload_latency_ms=args.overload_ms,
    )
    return render_slo_report(run_slo_eval(config, args.scenarios))


def _cmd_serve_http(args):
    from .alerts import (
        AlertConfig,
        EscalationConfig,
        EventStoreConfig,
        ObservabilityServer,
    )
    from .experiments import MagnitudeProbeModel
    from .serve import TailConfig, render_dashboard, run_tail

    store = (EventStoreConfig(root=args.store_dir)
             if args.store_dir is not None else None)
    config = TailConfig(
        n_streams=args.streams,
        duration_s=args.duration,
        seed=args.seed,
        # Demo-tight policy (one confirming window, short auto-resolve)
        # so a single run leaves a populated store behind the endpoint.
        alerts=AlertConfig(
            escalation=EscalationConfig(confirm_window_s=1.5,
                                        confirm_detections=1,
                                        auto_resolve_s=2.0),
            dedup_horizon_s=4.0,
            store=store,
        ),
    )
    # The deterministic probe model (not a freshly trained CNN) so the
    # endpoint demo always has alerts to show.
    stop = _install_stop_handler()
    result = run_tail(MagnitudeProbeModel(), config,
                      should_stop=stop.is_set)
    engine, sampler = result["engine"], result["sampler"]
    def _extra_metrics():
        extra = {"serve/fleet/window_latency_ms": engine.fleet_latency()}
        stages = engine.fleet_stages()
        if stages is not None:
            for stage, hist in stages.histograms.items():
                extra[f"serve/stage/{stage}/latency_ms"] = hist
        return extra

    def _health():
        # rounds/last_round_t let a prober tell "serving" from "stuck":
        # a live engine keeps advancing both with traffic.
        return {
            "streams": engine.report()["streams"],
            "rounds": engine.rounds,
            "last_round_t": engine.last_round_t,
        }

    server = ObservabilityServer(
        registry=result["registry"],
        extra_metrics=_extra_metrics,
        manager=engine.alerts,
        dashboard=lambda: render_dashboard(engine, sampler),
        health=_health,
        slo=engine.slo_report,
        host=args.host, port=args.port,
    )
    server.start()
    print(f"observability endpoint at {server.url}", flush=True)
    print(f"  curl {server.url}/metrics")
    print(f"  curl '{server.url}/alerts?severity=critical&limit=5'")
    print(f"  curl {server.url}/slo")
    print(f"  curl {server.url}/dashboard", flush=True)
    try:
        # A signal wakes the wait immediately; both the timed and the
        # open-ended variants share the same graceful teardown below.
        stop.wait(args.serve_for)
    except KeyboardInterrupt:  # pragma: no cover - interactive path
        pass
    finally:
        server.stop()
        engine.flush_incidents()
        sealed = False
        if engine.alerts is not None and engine.alerts.store is not None:
            sealed = engine.alerts.store.seal()
    shutdown = "sealed store, " if sealed else ""
    return (f"served {server.requests} request(s), "
            f"{server.errors} error(s) [{shutdown}stopped cleanly]")


def _cmd_dataset(args):
    from .core.pipeline import build_merged_dataset
    from .datasets import save_dataset

    dataset = build_merged_dataset(
        kfall_subjects=args.subjects,
        selfcollected_subjects=args.subjects,
        trials_per_task=args.trials,
        duration_scale=args.duration_scale,
        seed=args.seed,
    )
    save_dataset(dataset, args.out)
    summary = dataset.summary()
    return (f"wrote {args.out}: {summary['recordings']} recordings, "
            f"{summary['subjects']} subjects, {summary['falls']} falls")


def _cmd_cache(args):
    from .parallel import default_cache

    cache = default_cache()
    if args.clear:
        removed = cache.clear()
        return f"cleared {removed} cached artifact(s) from {cache.root}"
    if args.prune_mb is not None:
        removed = cache.prune(max_bytes=int(args.prune_mb * 1e6))
        stats = cache.stats()
        return (f"evicted {removed} artifact(s); {stats['entries']} left "
                f"({stats['bytes'] / 1e6:.1f} MB) in {cache.root}")
    stats = cache.stats()
    lines = [
        f"artifact cache at {stats['root']} "
        f"({'enabled' if stats['enabled'] else 'DISABLED via REPRO_CACHE=0'})",
        f"  {stats['entries']} entr{'y' if stats['entries'] == 1 else 'ies'}, "
        f"{stats['bytes'] / 1e6:.1f} MB total",
    ]
    for kind, bucket in sorted(stats["by_kind"].items()):
        lines.append(f"  {kind}: {bucket['entries']} entr"
                     f"{'y' if bucket['entries'] == 1 else 'ies'}, "
                     f"{bucket['bytes'] / 1e6:.1f} MB")
    return "\n".join(lines)


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    if args.verbose:
        configure_logging(logging.DEBUG if args.verbose > 1 else logging.INFO)
    if args.jobs is not None:
        # Env rather than threading a parameter through every runner call:
        # resolve_n_jobs reads it wherever a pool is about to start.
        os.environ["REPRO_JOBS"] = str(args.jobs)
    scale = get_scale(args.scale)
    if args.command == "table1":
        output = _cmd_table1(scale)
    elif args.command == "table3":
        output = _cmd_table3(scale, args.windows)
    elif args.command == "table4":
        output = _cmd_table4(scale)
    elif args.command == "edge":
        output = _cmd_edge(scale)
    elif args.command == "sweep":
        output = _cmd_sweep(scale)
    elif args.command == "ablations":
        output = _cmd_ablations(scale)
    elif args.command == "figure1":
        output = _cmd_figure1(args.task, args.seed)
    elif args.command == "figure2":
        output = _cmd_figure2(scale)
    elif args.command == "dataset":
        output = _cmd_dataset(args)
    elif args.command == "profile":
        output = _cmd_profile(scale, args)
    elif args.command == "faults":
        output = _cmd_faults(scale, args)
    elif args.command == "replay":
        output, code = _cmd_replay(args)
        print(output)
        return code
    elif args.command == "tail":
        output = _cmd_tail(args)
    elif args.command == "alerts":
        output = _cmd_alerts(args)
    elif args.command == "slo":
        output = _cmd_slo(args)
    elif args.command == "serve-http":
        output = _cmd_serve_http(args)
    elif args.command == "cache":
        output = _cmd_cache(args)
    else:  # pragma: no cover - argparse enforces choices
        raise SystemExit(2)
    print(output)
    return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
