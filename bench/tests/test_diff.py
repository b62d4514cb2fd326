"""bench/diff.py verdicts on synthetic result files."""

import json
from pathlib import Path

import pytest

from bench import diff

SPEC = json.loads((Path(__file__).resolve().parents[2]
                   / "BENCHMARK.json").read_text())
JITTER = [1.0, 1.004, 0.997, 1.002, 0.999, 1.003, 0.998, 1.001, 1.0, 0.996]


def _results(scale=None, digest="d" * 64, sha="s" * 64, jitter=JITTER):
    scale = scale or {}
    workloads = {}
    for name in ("replay-aligned", "edge-push"):
        runs = [{"metrics": {m["name"]: 100.0 * j * scale.get(m["name"], 1.0)
                             for m in SPEC["end_to_end"]}}
                for j in jitter]
        workloads[name] = {"runs": runs, "digest": digest,
                           "shape": {"streams": 64, "duration_s": 30.0}}
    return {"seed": 0, "weights_sha": sha, "workloads": workloads}


def _write(tmp_path, name, results):
    path = tmp_path / name
    path.write_text(json.dumps(results))
    return str(path)


def _gated(rows):
    return [r for r in rows if r["metric"] in diff.GATED[r["workload"]]]


def test_identical_inputs_pass(tmp_path):
    base = _write(tmp_path, "a.json", _results())
    assert diff.main([base, base]) == 0
    rows, problems = diff.compare(_results(), _results(), SPEC)
    assert not problems
    assert {r["verdict"] for r in _gated(rows)} == {"ok"}
    assert {r["verdict"] for r in rows} == {"ok", "info"}


def test_every_gated_pair_names_a_workload_and_metric():
    metrics = {m["name"] for m in SPEC["end_to_end"]}
    assert set(diff.GATED) == {w["name"] for w in SPEC["workloads"]}
    assert all(set(names) <= metrics for names in diff.GATED.values())


def test_a_twenty_percent_throughput_drop_is_a_regression(tmp_path):
    base = _write(tmp_path, "a.json", _results())
    slow = _write(tmp_path, "b.json", _results({"samples_per_s": 0.8}))
    assert diff.main([base, slow]) == 1
    rows, _ = diff.compare(*diff.load(base, slow)[:2], SPEC)
    flagged = {(r["workload"], r["metric"]) for r in rows
               if r["verdict"] == "regression"}
    assert flagged == {("replay-aligned", "samples_per_s"),
                       ("edge-push", "samples_per_s")}


def test_a_digest_or_weights_change_fails(tmp_path):
    base = _write(tmp_path, "a.json", _results())
    assert diff.main([base, _write(tmp_path, "b.json",
                                   _results(digest="e" * 64))]) == 1
    assert diff.main([base, _write(tmp_path, "c.json",
                                   _results(sha="t" * 64))]) == 1


def test_digests_of_other_seeds_are_not_compared():
    other = _results(digest="e" * 64)
    other["seed"] = 1
    _, problems = diff.compare(_results(), other, SPEC)
    assert problems == []


def test_spread_beyond_the_bound_is_unresolved_not_unchanged():
    noisy = [1.0, 1.5, 0.6, 1.4, 0.7, 1.3, 0.8, 1.2, 0.9, 1.1]
    rows, _ = diff.compare(_results(), _results(jitter=noisy), SPEC)
    assert {r["verdict"] for r in _gated(rows)} == {"unresolved"}


def test_a_large_regression_fails_however_noisy_the_runs(tmp_path):
    # Every NEW run is worse than every BASE run and the median is 40%
    # worse, but NEW's spread (0.67) is far beyond the 0.18 bound.
    row = diff.judge([100.0, 101.0, 102.0], [40.0, 60.0, 80.0], "higher",
                     0.18)
    assert row["spread"] > 0.18 and row["verdict"] == "regression"
    noisy = [0.4, 0.6, 0.8, 0.5, 0.7, 0.45, 0.65, 0.75, 0.55, 0.6]
    base = _write(tmp_path, "a.json", _results())
    slow = _results()
    for entry in slow["workloads"].values():
        for run, j in zip(entry["runs"], noisy):
            run["metrics"]["samples_per_s"] *= j
    assert diff.main([base, _write(tmp_path, "b.json", slow)]) == 1


def test_claim_rule_needs_nine_in_ten_wins_and_a_gap_beyond_the_iqr():
    base = [100.0 + j for j in range(10)]
    row = diff.judge(base, [120.0 + j for j in range(10)], "higher", 0.25,
                     interleaved=True)
    assert row["verdict"] == "gain" and row["wins"] == 10
    # Medians 2 apart inside a base IQR of ~5: no claim.
    row = diff.judge(base, [102.0 + j for j in range(10)], "higher", 0.25,
                     interleaved=True)
    assert row["verdict"] == "ok"
    # 8 wins in 10 alternating pairs: no claim.
    new = [120.0 + j for j in range(8)] + [90.0, 91.0]
    row = diff.judge(base, new, "higher", 0.25, interleaved=True)
    assert row["wins"] == 8 and row["verdict"] == "ok"


def test_only_interleaved_runs_can_claim_a_gain(tmp_path):
    fast = _results({"samples_per_s": 1.3})
    rows, _ = diff.compare(_results(), fast, SPEC)
    assert "gain" not in {r["verdict"] for r in rows}
    ab = _write(tmp_path, "ab.json", {"base": _results(), "new": fast})
    base, new, interleaved = diff.load(ab)
    assert interleaved
    rows, _ = diff.compare(base, new, SPEC, interleaved)
    assert {(r["workload"], r["metric"]) for r in rows
            if r["verdict"] == "gain"} == {("replay-aligned", "samples_per_s"),
                                           ("edge-push", "samples_per_s")}
    assert diff.main([ab]) == 0
    # ... unless NEW failed more operations than BASE.
    new["workloads"]["edge-push"]["runs"][0]["failed"] = 1
    rows, _ = diff.compare(base, new, SPEC, interleaved)
    assert {r["workload"] for r in rows if r["verdict"] == "gain"} == {
        "replay-aligned"}


def test_a_baseline_pools_the_runs_of_its_sets(tmp_path):
    one = _results()
    baseline = {"sets": [one, _results()]}
    path = _write(tmp_path, "base.json", baseline)
    merged, _, interleaved = diff.load(path, path)
    assert not interleaved
    assert len(merged["workloads"]["edge-push"]["runs"]) == 2 * len(JITTER)


@pytest.mark.parametrize("better", ["higher", "lower"])
def test_worse_share_has_the_metrics_direction(better):
    worse = 90.0 if better == "higher" else 110.0
    row = diff.judge([100.0] * 4, [worse] * 4, better, 0.05)
    assert row["worse_share"] == pytest.approx(0.1)
    assert row["verdict"] == "regression"
