"""Summary statistics and the rendered text table of a results file."""

from __future__ import annotations

import statistics


def quartiles(values) -> tuple[float, float, float]:
    """``(q1, median, q3)`` as ``statistics.quantiles(values, n=4)``
    gives them (a single value is its own quartiles)."""
    values = [float(v) for v in values]
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4)
    return q1, median, q3


def summarize(values, unit: str) -> dict:
    q1, median, q3 = quartiles(values)
    return {"median": median, "q1": q1, "q3": q3, "n": len(values),
            "unit": unit}


def _fmt(value: float) -> str:
    if value == 0:
        return "0"
    magnitude = abs(value)
    if magnitude >= 1000:
        return f"{value:.0f}"
    if magnitude >= 1:
        return f"{value:.3f}"
    return f"{value:.4g}"


def render(results: dict, spec: dict) -> str:
    """End-to-end medians with quartiles and sample counts per workload,
    then the traced per-layer split and the correctness checks."""
    env = results["env"]
    names = list(results["workloads"])
    lines = [
        f"serve-stack benchmark: seed {results['seed']}, "
        f"{results['reps']} rep(s) x {len(names)} workloads, "
        f"{results['seconds']} s runs, {env['cores']} cores, "
        f"python {env['python']}, numpy {env['numpy']}, "
        f"scipy {env['scipy']}",
        f"weights sha {results['weights_sha'][:16]}, "
        f"trained in {results['train_s']:.2f} s (not gated)",
        "",
        "end-to-end: median [q1, q3] over runs; windows and rounds "
        "per run (median)",
        f"{'workload':<19}{'metric':<16}{'unit':<11}{'median':>11}"
        f"{'q1':>11}{'q3':>11}{'runs':>6}{'windows':>9}{'rounds':>8}",
    ]
    for name in names:
        entry = results["workloads"][name]
        for metric in spec["end_to_end"]:
            s = entry["summary"][metric["name"]]
            lines.append(
                f"{name:<19}{metric['name']:<16}{metric['unit']:<11}"
                f"{_fmt(s['median']):>11}{_fmt(s['q1']):>11}"
                f"{_fmt(s['q3']):>11}{s['n']:>6}"
                f"{entry['windows']:>9}{entry['rounds']:>8}"
            )
    lines += ["", "per-layer (one traced run per workload)",
              f"{'metric':<32}{'unit':<10}"
              + "".join(f"{n[:16]:>17}" for n in names)]
    rows = [(m["name"], m["unit"]) for m in spec["per_layer"]]
    detail = sorted(results["workloads"][names[0]]["trace"]["detail"])
    rows += [(key, "") for key in detail]
    for key, unit in rows:
        cells = []
        for name in names:
            trace = results["workloads"][name]["trace"]
            value = trace["per_layer"].get(key, trace["detail"].get(key))
            cells.append(f"{_fmt(value):>17}")
        lines.append(f"{key:<32}{unit:<10}" + "".join(cells))
    lines += ["", "checks:"]
    for check in results["checks"]:
        mark = "ok  " if check["ok"] else "FAIL"
        lines.append(f"  {mark} {check['name']}: {check['detail']}")
    return "\n".join(lines)
