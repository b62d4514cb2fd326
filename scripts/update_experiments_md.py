#!/usr/bin/env python3
"""Refresh the measured tables in EXPERIMENTS.md from benchmarks/results/.

Each ``<!-- NAME -->`` placeholder (or a previously inserted block fenced
by ``<!-- NAME --> ... <!-- /NAME -->``) is replaced with the matching
archived report, so the document can be regenerated after every benchmark
run:

    pytest benchmarks/ --benchmark-only
    python scripts/update_experiments_md.py
"""

from __future__ import annotations

import pathlib
import re
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent
RESULTS = ROOT / "benchmarks" / "results"
TARGET = ROOT / "EXPERIMENTS.md"

#: placeholder -> results file.
MAPPING = {
    "TABLE3": "table3_models.txt",
    "TABLE4": "table4_events.txt",
    "EDGE": "edge_deployment.txt",
    "TABLE1": "table1_thresholds.txt",
    "SWEEP": "window_sweep.txt",
    "ABLATIONS": "ablations.txt",
    "RELATED": "related_work.txt",
    "CROSS": "cross_dataset.txt",
    "FIGURE1": "figure1_phases.txt",
    "FIGURE2": "figure2_pipeline.txt",
    "DISTILL": "distillation.txt",
    "PARALLEL": "parallel_scaling.txt",
    "ALERTS": "alert_pipeline.txt",
    "SLO": "slo_report.txt",
}


def main() -> int:
    text = TARGET.read_text(encoding="utf-8")
    missing = []
    for key, filename in MAPPING.items():
        path = RESULTS / filename
        if not path.exists():
            missing.append(filename)
            continue
        block = (f"<!-- {key} -->\n```\n"
                 + path.read_text(encoding="utf-8").strip()
                 + f"\n```\n<!-- /{key} -->")
        pattern = re.compile(
            rf"<!-- {key} -->(?:.*?<!-- /{key} -->)?", re.DOTALL
        )
        if not pattern.search(text):
            print(f"warning: no placeholder for {key}", file=sys.stderr)
            continue
        text = pattern.sub(lambda _m: block, text, count=1)
    TARGET.write_text(text, encoding="utf-8")
    if missing:
        print("missing results (bench not run?): " + ", ".join(missing),
              file=sys.stderr)
    print(f"updated {TARGET}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
