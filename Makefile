# Developer entry points. `make test` is the tier-1 gate; `make lint`
# enforces the no-print and metric-name rules in library code; `make
# check` runs lints + tests + the bench/ smoke tests.

PYTHON ?= python
export PYTHONPATH := src

.PHONY: test lint check http-smoke bench profile faults parallel-bench \
	tail-demo alerts-demo slo-demo bench-smoke bench-ab

# tests/test_detector_block.py (the bit-identity gate of push_block,
# the detector's one ingest path, against the per-sample oracle in
# tests/detector_oracle.py), tests/test_detector_lanes.py (stacked
# ingest_lanes rounds against per-lane push_block and the same oracle,
# plus the kernel- and validation-call counts) and
# tests/test_engine_round.py (mixed ServeEngine rounds — clean lanes
# decided and completed as arrays beside recorded, faulted, shed and
# lone lanes — against per-lane push_block + complete and the oracle,
# plus the per-lane call count of a clean round: none) ride along here,
# so `make check` always re-proves all three identities.
test:
	$(PYTHON) -m pytest -x -q

lint:
	$(PYTHON) scripts/check_no_print.py
	$(PYTHON) scripts/check_metric_names.py

# End-to-end smoke of the observability endpoint: serve a small alerting
# fleet on an ephemeral port, hit every route, lint the /metrics body.
http-smoke:
	$(PYTHON) scripts/http_smoke.py

check: lint test bench-smoke http-smoke slo-demo

# The serve-stack benchmark's own tests (a tiny orchestrated run of every
# workload, the A/B pairing, the diff verdicts and the tracing wrappers).
# The tier-1 suite collects only tests/, yet bench/tests instruments
# program entry points such as OnlineSosFilter.process, so a change to
# those must keep it green too.
bench-smoke:
	$(PYTHON) -m pytest bench -q

# A/B of this checkout against a base revision on the serve-stack
# benchmark: `make bench-ab BASE=<rev> [ONLY=<w1,w2>] [REPS=10] [SEED=0]`.
# The base is exported with `git archive` into a temporary directory (a
# plain copy, not a worktree) that is removed afterwards; results land in
# .bench_out/ab and bench/diff.py prints the verdicts.  A full run takes
# ~35 min on 2 cores, so it stays out of `make check`.
REPS ?= 10
SEED ?= 0
bench-ab:
	@test -n "$(BASE)" || { echo "usage: make bench-ab BASE=<rev> [ONLY=<workloads>] [REPS=10] [SEED=0]"; exit 2; }
	tmp=$$(mktemp -d) && trap 'rm -rf "$$tmp"' EXIT && \
	git archive $(BASE) | tar -x -C "$$tmp" && \
	$(PYTHON) bench/run.py --ab "$$tmp" --reps $(REPS) --seed $(SEED) \
		$(if $(ONLY),--only $(ONLY)) --out .bench_out/ab && \
	$(PYTHON) bench/diff.py .bench_out/ab/ab.json

bench:
	$(PYTHON) -m pytest benchmarks -q

profile:
	$(PYTHON) -m repro --scale quick profile

faults:
	$(PYTHON) -m pytest tests -q -k "faults" && \
	$(PYTHON) -m repro --scale quick faults --incident-dir benchmarks/results/incidents

# Parallel fold/grid scaling + cache warm-start numbers, archived to
# benchmarks/results/parallel_scaling.txt.
parallel-bench:
	$(PYTHON) -m pytest benchmarks/test_bench_parallel.py -q

# Quick serve workload with the dashboard rendered once to stdout, then
# the exposition linted — exercises the whole export path end to end.
tail-demo:
	mkdir -p benchmarks/results
	$(PYTHON) -m repro tail --once --streams 8 --duration 4 \
		--metrics-out benchmarks/results/serve_exposition.prom
	$(PYTHON) scripts/check_metric_names.py --exposition \
		benchmarks/results/serve_exposition.prom

# Scenario-driven alert-pipeline evaluation with persistent event stores
# under benchmarks/results/alert_stores/; the report is archived for
# scripts/update_experiments_md.py (ALERTS placeholder).
alerts-demo:
	mkdir -p benchmarks/results
	$(PYTHON) -m repro alerts --duration 6 \
		--store-dir benchmarks/results/alert_stores \
		| tee benchmarks/results/alert_pipeline.txt

# SLO engine end to end: budget attribution, error-budget accounting and
# the synthetic-overload fast-burn alert, archived for
# scripts/update_experiments_md.py (SLO placeholder). Sleep-free — burn
# windows run on stream time — so it is cheap enough for `make check`.
slo-demo:
	mkdir -p benchmarks/results
	$(PYTHON) -m repro slo | tee benchmarks/results/slo_report.txt
