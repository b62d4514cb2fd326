"""A tiny end-to-end run of every workload (2 streams x 2 s, 1 rep)."""

import json
import math
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from bench.workloads import WORKLOADS

ROOT = Path(__file__).resolve().parents[2]
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


@pytest.fixture(scope="module")
def tiny(tmp_path_factory):
    out = tmp_path_factory.mktemp("bench-out")
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--reps", "1", "--streams", "2",
         "--duration", "2", "--seconds", "1", "--out", str(out)],
        cwd=ROOT, capture_output=True, text=True, timeout=900,
    )
    results = json.loads((out / "results.json").read_text())
    return proc, results


def test_tiny_run_passes_every_check(tiny):
    proc, results = tiny
    failed = [c for c in results["checks"] if not c["ok"]]
    assert proc.returncode == 0 and not failed, (failed, proc.stderr[-2000:])


@pytest.mark.parametrize("workload", list(WORKLOADS))
def test_every_benchmark_metric_is_emitted_with_its_unit(tiny, workload):
    _, results = tiny
    entry = results["workloads"][workload]
    for metric in SPEC["end_to_end"]:
        summary = entry["summary"][metric["name"]]
        assert summary["unit"] == metric["unit"]
        assert math.isfinite(summary["median"]) and summary["n"] == 1
    for metric in SPEC["per_layer"]:
        assert math.isfinite(entry["trace"]["per_layer"][metric["name"]])
    # The orchestrator validated each child's result line (exact keys,
    # every metric with its unit) as part of this check.
    check = next(c for c in results["checks"]
                 if c["name"].startswith(f"{workload}: every run"))
    assert check["ok"], check


def test_ab_runs_alternate_and_record_their_pairing(tmp_path):
    from bench import diff

    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--ab", str(ROOT), "--only",
         "edge-push", "--reps", "2", "--streams", "2", "--duration", "2",
         "--seconds", "1", "--out", str(tmp_path)],
        cwd=ROOT, capture_output=True, text=True, timeout=900,
    )
    assert proc.returncode == 0, proc.stderr[-2000:]
    ab = json.loads((tmp_path / "ab.json").read_text())
    assert ab["interleaved"]
    assert ab["order"] == [["edge-push", side]
                           for side in ("base", "new", "new", "base")]
    for side in ("base", "new"):
        assert list(ab[side]["workloads"]) == ["edge-push"]
        assert len(ab[side]["workloads"]["edge-push"]["runs"]) == 2
        assert all(c["ok"] for c in ab[side]["checks"])
    base, new, interleaved = diff.load(tmp_path / "ab.json")
    rows, problems = diff.compare(base, new, SPEC, interleaved)
    assert not problems
    assert {r["pairs"] for r in rows} == {2}


def test_probing_every_core_restores_the_affinity():
    from bench.workloads import probe

    cores = os.sched_getaffinity(0)
    for every_core in (False, True):
        speed = probe(every_core).speed
        assert math.isfinite(speed) and speed > 0
    assert os.sched_getaffinity(0) == cores


def test_box_speed_takes_out_the_stolen_share():
    from bench.workloads import Probe, speed_over

    probes = [Probe(0.0, 0.5, 10, 100), Probe(1.0, 0.7, 15, 140),
              Probe(2.0, 0.9, 30, 200), Probe(3.0, 0.2, 90, 300)]
    # Probes inside [0.5, 2.5]: 0.7 and 0.9; bracketed by the probes at
    # 0 and 3, between which 80 of 200 wanted ticks were stolen.
    assert speed_over(probes, 0.5, 2.5) == pytest.approx(0.8 * (1 - 0.4))
    # No probe inside: the nearest one's speed, and no ticks between the
    # bracketing probes means no steal.
    assert speed_over(probes[:1], 0.1, 0.2) == 0.5


def test_workload_names_match_benchmark_json():
    assert [w["name"] for w in SPEC["workloads"]] == list(WORKLOADS)
    assert all(w["why"] == WORKLOADS[w["name"]].why
               for w in SPEC["workloads"])


def test_run_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "bench", tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__", "results"))
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "replay-aligned",
         "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180,
    )
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
