"""Serve-stack benchmark entry point.

``python bench/run.py [--seed N] [--reps 3] [--out DIR]``
    Train the cached weights if needed, run every workload
    ``--reps`` times (interleaved A B C D, A B C D, ..., each run in a
    fresh process), then one traced run per workload.  Prints every
    metric with its unit, median, quartiles and sample counts, writes
    ``DIR/results.json`` and exits non-zero on any failed check.
    ``--only W1,W2`` runs a subset of the workloads.

``python bench/run.py --ab BASE_ROOT [--reps 10] [--out DIR]``
    A/B: the same, but every rep of every workload runs twice back to
    back, once against the program under ``BASE_ROOT/src`` and once
    against this checkout's, the first side switching from pair to pair.
    Writes ``DIR/ab.json`` for ``bench/diff.py`` and prints the
    comparison; only interleaved results can claim a gain.

``python bench/run.py --workload W --seed N --seconds S --trace 0|1``
    One run of one workload in this process.  The last line of stdout is
    one JSON object with ``correct``, ``attempted`` (windows verdicted),
    ``failed`` (failed inferences plus refused samples) and ``metrics``:
    the end-to-end metrics of ``BENCHMARK.json``, or with ``--trace 1``
    its per-layer ones.

``python bench/run.py --prepare``
    Train the cached weights (run on demand).

``--program ROOT`` measures the program under ``ROOT/src`` instead of
this checkout's, with this checkout's benchmark.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import subprocess
import sys
import time
from dataclasses import replace
from pathlib import Path

# One BLAS thread per process, set before numpy loads here or in any
# child: the fleet's workers and the driver share the box's few cores.
THREAD_ENV = {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1",
              "MKL_NUM_THREADS": "1"}
os.environ.update(THREAD_ENV)

ROOT = Path(__file__).resolve().parent.parent
#: Set-ups timed per run before the measured passes (each pass adds its
#: own); set-up time is the median.
EXTRA_SETUPS = 8
#: Verdicted windows per measurement chunk (~0.1-1.5 s of a run).
CHUNK_WINDOWS = 250


def _spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def _record_path(out: Path, workload: str, seed: int, trace: int) -> Path:
    return out / f"run-{workload}-seed{seed}-trace{trace}.json"


def environment(seed: int) -> dict:
    import platform

    import numpy
    import scipy

    return {
        "cores": os.cpu_count(),
        "usable_cores": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas_env": {k: os.environ.get(k) for k in THREAD_ENV},
        "platform": platform.platform(),
        "seed": seed,
    }


# ----------------------------------------------------------------------
# one run of one workload
# ----------------------------------------------------------------------
def _e2e(passes, setups) -> dict:
    """Throughput, median verdict latency and busy share, each the median
    over fixed-size chunks of every pass measured at nominal box speed
    (see ``PassResult.chunks``), so a stall of the box moves a chunk, not
    the run's number."""
    import numpy as np

    chunks = [c for p in passes for c in p.chunks(CHUNK_WINDOWS)]
    out = {key: float(np.median([c[key] for c in chunks]))
           for key in chunks[0]}
    out["setup_s"] = float(np.median(setups))
    out["peak_rss_mb"] = resource.getrusage(
        resource.RUSAGE_SELF).ru_maxrss / 1024.0
    return out


def run_one(args) -> int:
    from bench import prepare, tracing
    from bench import workloads as wl

    spec = _spec()
    workload = wl.WORKLOADS[args.workload]
    if args.streams:
        workload = replace(workload, streams=args.streams)
    if args.duration:
        workload = replace(workload, duration_s=args.duration)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    artifacts = prepare.ensure(args.program)
    meta = prepare.load_meta(artifacts)

    t0 = time.perf_counter()
    streams = wl.make_streams(args.seed, workload)
    ticks = wl.make_ticks(streams, workload, args.seed)
    generate_s = time.perf_counter() - t0
    # The inputs live for the whole run; keep them out of the collector's
    # scans so its pauses track the program's garbage, not ours.
    gc.collect()
    gc.freeze()
    setups = wl.extra_setups(workload, artifacts, streams, ticks,
                             EXTRA_SETUPS)

    per_layer = detail = None
    if args.trace:
        passes = [wl.run_pass(workload, artifacts, streams, ticks)]
        tracer = tracing.Tracer(out / f"spans-{workload.name}")
        with tracing.installed(tracer):
            traced = wl.run_pass(workload, artifacts, streams, ticks, tracer)
        merged = tracing.collect(tracer)
        tracer.dump_dir.rmdir()
        merged.export_jsonl(out / f"trace-{workload.name}.jsonl")
        per_layer, detail = tracing.layer_metrics(
            tracing.Spans.from_collector(merged), traced, passes[0])
        digested = passes + [traced]
    else:
        passes = []
        started = time.perf_counter()
        while True:
            passes.append(wl.run_pass(workload, artifacts, streams, ticks))
            elapsed = time.perf_counter() - started
            # Start another pass only if it should end inside --seconds.
            if elapsed * (len(passes) + 1) / len(passes) > args.seconds:
                break
        digested = passes
    setups += [p.setup_s for p in passes]

    digests = [wl.digest(p.hits) for p in digested]
    oracle, oracle_sids = wl.oracle_digest(workload, artifacts, streams)
    checks = {
        "weights_sha": prepare.weights_sha(prepare.load_model(artifacts))
        == meta["weights_sha"],
        "int8_fast_equals_reference": wl.int8_probe(artifacts),
        "digest_stable_across_passes": len(set(digests)) == 1,
        "oracle_agrees": oracle == wl.digest(passes[0].hits,
                                             set(oracle_sids)),
        "windows_verdicted": all(p.windows > 0 for p in digested),
    }
    if workload.kind == "fleet":
        checks["fleet_window_count"] = all(
            p.info["windows_served"] == p.info["windows_counted"]
            for p in digested)
    correct = all(checks.values())
    failed = sum(p.info["failures"] + p.offered - p.accepted
                 + p.info["refused"] + p.info["shed"] for p in passes)
    attempted = sum(p.windows for p in passes)
    e2e = _e2e(passes, setups)

    key = "per_layer" if args.trace else "end_to_end"
    values = per_layer if args.trace else e2e
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
               for m in spec[key]}
    hits = passes[0].hits
    record = {
        "workload": workload.name,
        "shape": {"streams": workload.streams,
                  "duration_s": workload.duration_s},
        "seed": args.seed,
        "trace": args.trace,
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "checks": checks,
        "digest": digests[0],
        "weights_sha": meta["weights_sha"],
        "train_s": meta["train_s"],
        "e2e": e2e,
        "per_layer": per_layer,
        "detail": detail,
        "passes": len(passes),
        "samples": sum(p.accepted for p in passes),
        "windows": passes[0].windows,
        "rounds": passes[0].rounds,
        "detections": {"cnn": sum(d.source == "cnn" for _, d in hits),
                       "fallback": sum(d.source != "cnn" for _, d in hits)},
        "setups_s": setups,
        "generate_s": generate_s,
    }
    _record_path(out, workload.name, args.seed, args.trace).write_text(
        json.dumps(record, indent=1))

    print(f"{workload.name} seed={args.seed} trace={args.trace}: "
          f"{len(passes)} pass(es), {record['samples']} samples, "
          f"{attempted} windows, {record['detections']['cnn']} cnn + "
          f"{record['detections']['fallback']} fallback detections per "
          f"pass, digest {digests[0][:12]}")
    for name, entry in metrics.items():
        print(f"  {name:<32} {entry['value']:>14.6g} {entry['unit']}")
    for name, ok in checks.items():
        print(f"  check {name}: {'ok' if ok else 'FAILED'}")
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0 if correct else 1


# ----------------------------------------------------------------------
# all workloads, interleaved reps, one traced run each
# ----------------------------------------------------------------------
def _child(args, spec: dict, workload: str, trace: int, seconds: int,
           program: Path, out: Path) -> dict:
    command = [sys.executable, str(ROOT / "bench" / "run.py"),
               "--workload", workload, "--seed", str(args.seed),
               "--seconds", str(seconds), "--trace", str(trace),
               "--out", str(out), "--program", str(program)]
    if args.streams:
        command += ["--streams", str(args.streams)]
    if args.duration:
        command += ["--duration", str(args.duration)]
    proc = subprocess.run(command, cwd=ROOT, capture_output=True, text=True,
                          timeout=900)
    lines = proc.stdout.strip().splitlines()
    print(lines[0] if lines else f"{workload}: no output", flush=True)
    path = _record_path(out, workload, args.seed, trace)
    if proc.returncode not in (0, 1) or not path.exists():
        sys.stderr.write(proc.stderr)
        raise RuntimeError(f"{workload} run crashed "
                           f"(exit {proc.returncode})")
    record = json.loads(path.read_text())
    record["exit_code"] = proc.returncode
    record["line_ok"] = _line_ok(lines[-1], spec["per_layer" if trace
                                                else "end_to_end"])
    return record


def _line_ok(line: str, metrics: list) -> bool:
    """The result line carries exactly the contract's keys, and every
    listed metric as a finite number with its unit."""
    import math

    result = json.loads(line)
    emitted = result.get("metrics", {})
    return (set(result) == {"correct", "attempted", "failed", "metrics"}
            and isinstance(result["correct"], bool)
            and isinstance(result["attempted"], int)
            and result["attempted"] >= 1
            and isinstance(result["failed"], int)
            and set(emitted) == {m["name"] for m in metrics}
            and all(emitted[m["name"]]["unit"] == m["unit"]
                    and isinstance(emitted[m["name"]]["value"], (int, float))
                    and math.isfinite(emitted[m["name"]]["value"])
                    for m in metrics))


def orchestrate(args, names: list) -> int:
    """Every workload ``--reps`` times, interleaved, then one traced run
    each; writes ``results.json``."""
    from bench import prepare

    spec = _spec()
    seconds = args.seconds or spec["run_seconds"]
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    prepare.ensure(args.program)
    runs = {name: [] for name in names}
    for _ in range(args.reps):
        for name in names:
            runs[name].append(_child(args, spec, name, 0, seconds,
                                     args.program, out))
    traced = {name: _child(args, spec, name, 1, seconds, args.program, out)
              for name in names}
    results = _summarize(args, spec, runs, traced, seconds)
    (out / "results.json").write_text(json.dumps(results, indent=1))
    print(results["table"])
    print(f"[results written to {out / 'results.json'}]")
    return 0 if all(c["ok"] for c in results["checks"]) else 1


def orchestrate_ab(args, names: list) -> int:
    """A/B: the program under ``--ab`` (base) and this one (new), each
    measured by this benchmark, run for run.  Every rep of every
    workload is one pair of back-to-back runs, and the side that goes
    first switches from pair to pair, so box drift lands on both sides
    alike.  Writes ``ab.json`` (both results and the run order) and
    prints ``bench/diff.py``'s comparison."""
    from bench import diff, prepare

    spec = _spec()
    seconds = args.seconds or spec["run_seconds"]
    out = Path(args.out)
    programs = {"base": Path(args.ab).resolve(), "new": args.program}
    for program in programs.values():
        prepare.ensure(program)
    runs = {side: {name: [] for name in names} for side in programs}
    order = []
    for _ in range(args.reps):
        for name in names:
            pair = len(order) // 2
            for side in (("base", "new") if pair % 2 == 0
                         else ("new", "base")):
                runs[side][name].append(_child(
                    args, spec, name, 0, seconds, programs[side], out / side))
                order.append([name, side])
    ab = {"interleaved": True, "order": order}
    for side, program in programs.items():
        traced = {name: _child(args, spec, name, 1, seconds, program,
                               out / side) for name in names}
        ab[side] = _summarize(args, spec, runs[side], traced, seconds)
    (out / "ab.json").write_text(json.dumps(ab, indent=1))
    rows, problems = diff.compare(ab["base"], ab["new"], spec,
                                  interleaved=True)
    print(diff.render(rows, problems))
    print(f"[results written to {out / 'ab.json'}]")
    return 0 if all(c["ok"] for side in programs
                    for c in ab[side]["checks"]) else 1


def _summarize(args, spec: dict, runs: dict, traced: dict,
               seconds: int) -> dict:
    """The results of one program: per-workload runs and summaries, the
    traced per-layer split, the cross-run checks and the rendered
    table."""
    from bench import report

    names = list(runs)
    units = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    results = {
        "schema": 1,
        "env": environment(args.seed),
        "seed": args.seed,
        "reps": args.reps,
        "seconds": seconds,
        "weights_sha": runs[names[0]][0]["weights_sha"],
        "train_s": runs[names[0]][0]["train_s"],
        "workloads": {},
        "checks": [],
    }
    checks = results["checks"]
    for name in names:
        records = runs[name]
        results["workloads"][name] = {
            "runs": [{"metrics": r["e2e"], "digest": r["digest"],
                      "passes": r["passes"], "windows": r["windows"],
                      "rounds": r["rounds"], "correct": r["correct"],
                      "attempted": r["attempted"], "failed": r["failed"]}
                     for r in records],
            "summary": {metric: report.summarize(
                [r["e2e"][metric] for r in records], unit)
                for metric, unit in units.items()},
            "shape": records[0]["shape"],
            "digest": records[0]["digest"],
            "windows": records[0]["windows"],
            "rounds": records[0]["rounds"],
            "detections": records[0]["detections"],
            "trace": {"per_layer": traced[name]["per_layer"],
                      "detail": traced[name]["detail"],
                      "digest": traced[name]["digest"]},
        }
        failed = [f"rep {i}" for i, r in enumerate(records)
                  if not (r["correct"] and r["line_ok"])]
        if not (traced[name]["correct"] and traced[name]["line_ok"]):
            failed.append("traced")
        checks.append({"name": f"{name}: every run correct, result line "
                               f"matches BENCHMARK.json",
                       "ok": not failed,
                       "detail": ", ".join(failed) or
                       f"{len(records) + 1} runs"})
        digests = {r["digest"] for r in records} | {traced[name]["digest"]}
        checks.append({"name": f"{name}: digest identical across reps and "
                               f"traced run",
                       "ok": len(digests) == 1,
                       "detail": ", ".join(sorted(d[:12] for d in digests))})
    if {"fleet-staggered", "replay-aligned"} <= set(names):
        fleet = results["workloads"]["fleet-staggered"]["digest"]
        single = results["workloads"]["replay-aligned"]["digest"]
        checks.append({"name": "fleet-staggered digest equals "
                               "replay-aligned (fleet = single engine)",
                       "ok": fleet == single,
                       "detail": f"{fleet[:12]} vs {single[:12]}"})
    shas = {r["weights_sha"] for rs in runs.values() for r in rs}
    shas |= {r["weights_sha"] for r in traced.values()}
    checks.append({"name": "trained-weights sha identical across runs",
                   "ok": len(shas) == 1,
                   "detail": ", ".join(s[:16] for s in sorted(shas))})
    results["table"] = report.render(results, spec)
    return results


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description="Serve-stack benchmark (see bench/README.md)")
    parser.add_argument("--workload", help="run one workload in-process")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=int, default=None,
                        help="measurement time per run "
                             "(default: BENCHMARK.json run_seconds)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--reps", type=int, default=3)
    parser.add_argument("--out", default=str(ROOT / ".bench_out"))
    parser.add_argument("--streams", type=int, default=None,
                        help="override every workload's stream count")
    parser.add_argument("--duration", type=float, default=None,
                        help="override every workload's stream seconds")
    parser.add_argument("--prepare", action="store_true",
                        help="train the cached weights")
    parser.add_argument("--program", type=Path, default=ROOT,
                        help="root of the source tree whose src/repro is "
                             "measured (default: this checkout)")
    parser.add_argument("--ab", type=Path, default=None,
                        help="A/B: also measure the source tree rooted "
                             "here as the base, run for run")
    parser.add_argument("--only", default=None,
                        help="comma-separated workloads to run "
                             "(default: all)")
    args = parser.parse_args(argv)
    args.program = args.program.resolve()
    for program in (args.program, args.ab):
        if program is not None and not (program / "src" / "repro").is_dir():
            print(f"bench: no program to measure under {program / 'src'}",
                  file=sys.stderr)
            return 2
    sys.path[:0] = [str(args.program / "src"), str(ROOT)]
    if args.prepare:
        from bench import prepare

        print(json.dumps(prepare.build(args.program)))
        return 0
    if args.workload:
        if args.seconds is None:
            args.seconds = _spec()["run_seconds"]
        return run_one(args)
    from bench.workloads import WORKLOADS

    names = args.only.split(",") if args.only else list(WORKLOADS)
    unknown = sorted(set(names) - set(WORKLOADS))
    if unknown:
        parser.error(f"unknown workload(s): {', '.join(unknown)}")
    if args.ab is not None:
        return orchestrate_ab(args, names)
    return orchestrate(args, names)


if __name__ == "__main__":
    sys.exit(main())
