"""Compare two benchmark results, pair by pair.

    python bench/diff.py BASE NEW [--save BASELINE]
    python bench/diff.py AB

``BASE`` and ``NEW`` are ``results.json`` files written by
``bench/run.py``; a baseline holding several sets of runs (``"sets"``)
has its runs pooled.  ``AB`` is the ``ab.json`` of ``bench/run.py --ab``,
whose two sides ran interleaved, run for run.

Every (end-to-end metric, workload) pair in :data:`GATED` gets one
verdict, judged against the metric's bound in ``BENCHMARK.json``, in
this order:

``regression``
    NEW's median is worse than BASE's by more than the bound (a share
    of BASE's median), however noisy either side is.
``unresolved``
    The run-to-run spread (interquartile range over median) of either
    side exceeds the bound, so "unchanged" cannot be claimed; not
    reported when every NEW run beats every BASE run.
``gain``
    Interleaved results only, as box speed drifts between two separate
    sets of runs: NEW wins at least 9 of every 10 alternating pairs
    (ties count for neither side), the medians differ by more than
    BASE's interquartile range, and NEW failed no more operations.
``ok``
    None of the above.

The other pairs are shown as ``info``: they carry no information of
their own (``busy_frac`` is ~1 in a closed loop by construction, the
open loop's throughput is its schedule, and a closed loop's median
verdict latency is its round time, i.e. throughput again).

The detection digests (same seed and shape on both sides) and the
trained-weights sha must be identical.  Exit status 1 on any regression
or digest change.  ``--save`` writes BASE and NEW and the comparison as
a two-set baseline (``bench/results/baseline.json`` is one).
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

if __package__ in (None, ""):
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent))

from bench.report import quartiles  # noqa: E402

CLAIM_WIN_SHARE = 0.9
#: The end-to-end metrics each workload is judged on.
GATED = {
    "replay-aligned": ("samples_per_s", "setup_s", "peak_rss_mb"),
    "fleet-staggered": ("samples_per_s", "setup_s", "peak_rss_mb"),
    "edge-push": ("samples_per_s", "verdict_ms_p50", "setup_s",
                  "peak_rss_mb"),
    "live-instrumented": ("verdict_ms_p50", "busy_frac", "setup_s",
                          "peak_rss_mb"),
}


def _pooled(data: dict) -> dict:
    """A results dict; the runs of a multi-set baseline are pooled."""
    if "sets" not in data:
        return data
    first = data["sets"][0]
    merged = dict(first, workloads={})
    for name, entry in first["workloads"].items():
        runs = [run for part in data["sets"]
                for run in part["workloads"][name]["runs"]]
        merged["workloads"][name] = dict(entry, runs=runs)
    return merged


def load(base_path, new_path=None) -> tuple[dict, dict, bool]:
    """``(base, new, interleaved)`` from two results files or one A/B
    file."""
    if new_path is None:
        data = json.loads(Path(base_path).read_text())
        return data["base"], data["new"], True
    return (_pooled(json.loads(Path(base_path).read_text())),
            _pooled(json.loads(Path(new_path).read_text())), False)


def _better(a: float, b: float, direction: str) -> bool:
    """``a`` is strictly better than ``b``."""
    return a > b if direction == "higher" else a < b


def judge(base: list, new: list, better: str, bound: float,
          interleaved: bool = False) -> dict:
    """Verdict for one pair from its per-run values; with
    ``interleaved``, ``base[i]`` and ``new[i]`` ran back to back."""
    bq1, bmed, bq3 = quartiles(base)
    nq1, nmed, nq3 = quartiles(new)
    spread = max((bq3 - bq1) / bmed if bmed else 0.0,
                 (nq3 - nq1) / nmed if nmed else 0.0)
    worse = ((bmed - nmed) if better == "higher" else (nmed - bmed))
    worse_share = worse / abs(bmed) if bmed else 0.0
    pairs = list(zip(base, new)) if interleaved else []
    wins = sum(_better(n, b, better) for b, n in pairs)
    dominates = all(_better(n, b, better) for b in base for n in new)
    if worse_share > bound:
        verdict = "regression"
    elif spread > bound and not dominates:
        verdict = "unresolved"
    elif (pairs and wins >= CLAIM_WIN_SHARE * len(pairs)
          and _better(nmed, bmed, better)
          and abs(nmed - bmed) > bq3 - bq1):
        verdict = "gain"
    else:
        verdict = "ok"
    return {"base": bmed, "new": nmed, "worse_share": worse_share,
            "spread": spread, "wins": wins, "pairs": len(pairs),
            "verdict": verdict}


def compare(base: dict, new: dict, spec: dict,
            interleaved: bool = False) -> tuple[list, list]:
    """``(rows, problems)``: one row per pair, and every digest or sha
    mismatch."""
    rows, problems = [], []
    for name, entry in base["workloads"].items():
        other = new["workloads"].get(name)
        if other is None:
            problems.append(f"{name}: missing from NEW")
            continue
        # A gain does not count when NEW failed more operations.
        failed_more = (sum(r.get("failed", 0) for r in other["runs"])
                       > sum(r.get("failed", 0) for r in entry["runs"]))
        for metric in spec["end_to_end"]:
            key = metric["name"]
            row = judge([r["metrics"][key] for r in entry["runs"]],
                        [r["metrics"][key] for r in other["runs"]],
                        metric["better"], metric["bound"], interleaved)
            if key not in GATED.get(name, ()):
                row["verdict"] = "info"
            elif row["verdict"] == "gain" and failed_more:
                row["verdict"] = "ok"
            rows.append(dict(row, workload=name, metric=key,
                             bound=metric["bound"]))
        comparable = (base["seed"] == new["seed"]
                      and entry.get("shape") == other.get("shape"))
        if comparable and entry["digest"] != other["digest"]:
            problems.append(f"{name}: detection digest changed "
                            f"{entry['digest'][:12]} -> "
                            f"{other['digest'][:12]}")
    if base["weights_sha"] != new["weights_sha"]:
        problems.append(f"trained-weights sha changed "
                        f"{base['weights_sha'][:16]} -> "
                        f"{new['weights_sha'][:16]}")
    return rows, problems


def render(rows: list, problems: list) -> str:
    lines = [f"{'workload':<19}{'metric':<16}{'base':>12}{'new':>12}"
             f"{'worse':>9}{'spread':>8}{'bound':>7}{'wins':>7}  verdict"]
    for r in rows:
        wins = f"{r['wins']:>4}/{r['pairs']:<2}" if r["pairs"] else f"{'-':>7}"
        lines.append(
            f"{r['workload']:<19}{r['metric']:<16}{r['base']:>12.5g}"
            f"{r['new']:>12.5g}{100 * r['worse_share']:>8.1f}%"
            f"{100 * r['spread']:>7.1f}%{100 * r['bound']:>6.0f}%"
            f"{wins}  {r['verdict']}")
    counts = {}
    for r in rows:
        counts[r["verdict"]] = counts.get(r["verdict"], 0) + 1
    lines.append("")
    lines.append(", ".join(f"{n} {v}" for v, n in sorted(counts.items())))
    lines += [f"DIGEST: {p}" for p in problems]
    return "\n".join(lines)


def failed(rows: list, problems: list) -> bool:
    return bool(problems) or any(r["verdict"] == "regression" for r in rows)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="Compare two results")
    parser.add_argument("base", help="results.json, or an A/B ab.json")
    parser.add_argument("new", nargs="?", help="results.json")
    parser.add_argument("--save", help="write both as a two-set baseline")
    args = parser.parse_args(argv)
    root = Path(__file__).resolve().parent.parent
    spec = json.loads((root / "BENCHMARK.json").read_text())
    base, new, interleaved = load(args.base, args.new)
    rows, problems = compare(base, new, spec, interleaved)
    text = render(rows, problems)
    print(text)
    if args.save and args.new:
        sets = [json.loads(Path(p).read_text()) for p in (args.base,
                                                            args.new)]
        Path(args.save).write_text(json.dumps({"sets": sets, "diff": text},
                                              indent=1))
    return 1 if failed(rows, problems) else 0


if __name__ == "__main__":
    sys.exit(main())
