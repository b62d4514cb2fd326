"""SLOs: per-stage latency-budget attribution and burn-rate alerting.

The paper's whole contract is a hard real-time budget — the airbag takes
150 ms to inflate, so every millisecond a window spends in the pipeline
is subtracted from the reaction margin.  Plain latency histograms say
*that* a deadline was missed; this module says *which stage spent the
budget* and *whether the fleet is trending toward violation* before a
user feels it:

:class:`StageTimer`
    Wall-clock attribution across the streaming pipeline's stages
    (:data:`STAGES`): ingest/repair, orientation fusion, SOS filtering,
    window assembly, CNN inference, fallback+decision.  One timer per
    :class:`~repro.core.detector.LaneBank`: a serving engine owns one for
    all its streams (seven histograms whatever the stream count), a
    standalone detector one of its own.  Each stream's stage costs
    accumulate in its row of the timer's pending array between window
    inferences — a stacked ingest pass charges all its rows with one
    vectorized add — and flush into the per-stage histograms with one
    :meth:`~repro.obs.metrics.Histogram.observe_many` per stage: once per
    inference round for the engine's completed windows, once per window
    through :meth:`~repro.core.detector.FallDetector.complete` for a
    standalone detector.  The end-to-end histogram records the *sum* of
    each window's flushed stages — attribution sums to the recorded
    end-to-end latency exactly, by construction.  All histograms live
    off-registry (plain attributes, like ``FallDetector.latency``) so
    enabling timing cannot perturb the ``push_block`` ≡ per-sample oracle
    bit-identity suite, which compares registry snapshots.

:class:`SLOConfig` / :class:`SLOTracker`
    Counting SLOs over the window stream.  A percentile objective is
    expressed as a bad-event ratio ("p99 window latency ≤ 150 ms" ⟺
    "fraction of windows slower than 150 ms ≤ 1 %"), which makes error
    budgets and burn rates additive across a fleet.  The tracker keeps
    time-bucketed good/bad counts, evaluates Google-SRE-style
    multi-window **burn rates** (a fast-burn rule over a short+long
    window pair pages at ``critical``; a slow-burn rule tickets at
    ``suspect``) and raises/resolves the alerts through an
    :class:`~repro.alerts.AlertManager`.  Clocks are injectable and
    every ``record``/``evaluate`` accepts an explicit ``now`` — the
    serving engine drives the tracker on *stream* time, so burn-rate
    behaviour is deterministic and testable without sleeping.

Event totals are also counted into the metrics registry
(``slo/<objective>/events`` and ``slo/<objective>/bad``), so fleet
workers ship them back with the rest of their registry and the front's
``merge_entries`` rolls them up by plain addition.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

from .metrics import Histogram

__all__ = [
    "STAGES",
    "StageTimer",
    "BurnRateRule",
    "SLOObjective",
    "SLOConfig",
    "SLOTracker",
    "stage_attribution",
]

#: Pipeline stages, in stream order.  ``ingest`` is repair/clamp/stuck
#: tracking plus timestamp/gap handling; ``fusion`` the complementary
#: orientation filter; ``filter`` the causal SOS low-pass; ``window``
#: channel scaling and window assembly; ``inference`` the CNN forward
#: pass (charged by ``complete``); ``decision`` the magnitude fallback,
#: health replay, staging and debounce logic.
STAGES = ("ingest", "fusion", "filter", "window", "inference", "decision")
_STAGE_INDEX = {stage: i for i, stage in enumerate(STAGES)}
_INFERENCE = _STAGE_INDEX["inference"]

#: Stage costs are microseconds-to-milliseconds per window; reuse the
#: detector's latency edges (10 µs resolution, ~84 s overflow tail).
_STAGE_BUCKETS_MS = tuple(0.01 * 2 ** i for i in range(23))


class StageTimer:
    """Pending-and-flush per-stage wall-clock attribution for many streams.

    One timer serves every stream of a :class:`~repro.core.detector.LaneBank`
    — a serving engine's whole fleet, or a standalone detector alone — so
    it holds :data:`STAGES` histograms plus the end-to-end one however
    many streams it times.  Each stream is one row of :attr:`pending`:
    the stage costs (seconds) charged to it since its last completed
    window.  A stacked ingest pass charges all its rows with one
    vectorized add; :meth:`add` / :meth:`add_ms` charge one stage of one
    row.  :meth:`flush` closes out the windows completed at a set of rows:
    once per window for a standalone detector, once per inference round
    for the engine.  ``clock`` is injectable for deterministic tests; the
    default is ``time.perf_counter``.
    """

    def __init__(self, clock=None):
        self.clock = clock if clock is not None else time.perf_counter
        self.histograms = {
            stage: Histogram(buckets=_STAGE_BUCKETS_MS) for stage in STAGES
        }
        self.e2e = Histogram(buckets=_STAGE_BUCKETS_MS)
        #: ``(rows, len(STAGES))`` unflushed stage costs in seconds, in
        #: :data:`STAGES` order; :meth:`reserve` grows it.
        self.pending = np.zeros((1, len(STAGES)))

    def reserve(self, rows: int) -> None:
        """Make room for ``rows`` rows; new rows start with nothing
        pending."""
        if rows > len(self.pending):
            grown = np.zeros((rows, len(STAGES)))
            grown[:len(self.pending)] = self.pending
            self.pending = grown

    def add(self, stage: str, elapsed_s: float, row: int = 0) -> None:
        """Charge ``elapsed_s`` seconds (a paired-clock difference)."""
        self.pending[row, _STAGE_INDEX[stage]] += elapsed_s

    def add_ms(self, stage: str, ms: float, row: int = 0) -> None:
        """Charge an externally measured cost in milliseconds."""
        self.pending[row, _STAGE_INDEX[stage]] += float(ms) / 1000.0

    def pending_ms(self, stage: str, row: int = 0) -> float:
        """Milliseconds charged to ``stage`` of ``row`` since its last
        flush."""
        return 1000.0 * float(self.pending[row, _STAGE_INDEX[stage]])

    def discard_pending(self, row: int | None = None) -> None:
        """Drop ``row``'s unflushed costs (every row's when ``None``): a
        stream reset mid-window."""
        if row is None:
            self.pending[:] = 0.0
        else:
            self.pending[row] = 0.0

    def flush(self, rows=(0,), inference_ms: float = 0.0) -> np.ndarray:
        """Close out one window per entry of ``rows``, in order.

        Each window's stage costs are its row's pending costs plus
        ``inference_ms`` (the batch latency every window of a round is
        charged) for ``inference``; a row listed twice had everything
        pending charged to its first window, so its later ones carry the
        inference cost only.  Every stage histogram observes its column
        with one :meth:`~repro.obs.metrics.Histogram.observe_many`, the
        end-to-end histogram observes each window's row summed left to
        right — attribution sums to the recorded end-to-end latency
        exactly — and the flushed rows start over.  Returns the windows'
        end-to-end milliseconds.
        """
        rows = list(rows)
        if len(rows) == 1:
            # A standalone detector's window: a row view costs a fraction
            # of the gather and scatter below.
            pending = self.pending[rows[0]]
            windows = [(1000.0 * pending).tolist()]
            pending.fill(0.0)
        else:
            windows = (1000.0 * self.pending[rows]).tolist()
            self.pending[rows] = 0.0
        if len(set(rows)) < len(rows):
            seen = set()
            for costs, row in zip(windows, rows):
                if row in seen:
                    costs[:] = [0.0] * len(STAGES)
                seen.add(row)
        e2e = []
        for costs in windows:
            costs[_INFERENCE] += inference_ms
            total = 0.0
            for ms in costs:
                total += ms
            e2e.append(total)
        for stage, column in zip(STAGES, zip(*windows)):
            self.histograms[stage].observe_many(column)
        self.e2e.observe_many(e2e)
        return np.array(e2e)

    @property
    def windows(self) -> int:
        """Completed windows flushed through this timer."""
        return self.e2e.count

    @property
    def totals_ms(self) -> dict:
        """Cumulative flushed milliseconds per stage (the attribution
        totals)."""
        return {stage: hist.sum for stage, hist in self.histograms.items()}

    def reset(self) -> None:
        """Forget every flushed statistic and every pending cost."""
        for hist in self.histograms.values():
            hist.reset()
        self.e2e.reset()
        self.discard_pending()

    def merge(self, other: "StageTimer") -> "StageTimer":
        """Fold another timer's *flushed* statistics in (fleet rollup)."""
        for stage in STAGES:
            self.histograms[stage].merge(other.histograms[stage])
        self.e2e.merge(other.e2e)
        return self

    def report(self) -> dict:
        """Stage summaries plus end-to-end, for ``/slo`` and the CLI."""
        return {
            "windows": self.e2e.count,
            "e2e": self.e2e.summary(),
            "stages": {
                stage: dict(hist.summary(), total_ms=hist.sum)
                for stage, hist in self.histograms.items()
            },
        }


def stage_attribution(report: dict, budget_ms: float) -> list[dict]:
    """Rows of a budget-attribution table from a :meth:`StageTimer.report`.

    One row per stage with its mean per-window cost, share of the
    measured end-to-end mean, and share of ``budget_ms`` — the "150 ms
    budget: filter 11 %, inference 52 %, …" view.
    """
    e2e_mean = report["e2e"]["mean"]
    rows = []
    for stage in STAGES:
        stats = report["stages"][stage]
        rows.append({
            "stage": stage,
            "mean_ms": stats["mean"],
            "p99_ms": stats["p99"],
            "total_ms": stats["total_ms"],
            "share_of_e2e": stats["mean"] / e2e_mean if e2e_mean else 0.0,
            "share_of_budget": stats["mean"] / budget_ms if budget_ms else 0.0,
        })
    return rows


@dataclass(frozen=True)
class BurnRateRule:
    """One Google-SRE multi-window burn-rate alerting rule.

    The rule fires when the burn rate — observed bad fraction divided by
    the objective's allowed bad fraction — exceeds ``threshold`` over
    *both* the short and the long window.  The short window makes the
    alert resolve quickly once the burn stops; the long window keeps a
    brief blip from paging.
    """

    name: str
    short_window_s: float
    long_window_s: float
    threshold: float
    severity: str = "critical"

    def __post_init__(self):
        if not 0 < self.short_window_s <= self.long_window_s:
            raise ValueError("need 0 < short_window_s <= long_window_s")
        if self.threshold <= 0:
            raise ValueError("threshold must be positive")


@dataclass(frozen=True)
class SLOObjective:
    """One counting SLO: at most ``bad_fraction`` of events may be bad."""

    name: str
    description: str
    #: Allowed bad-event fraction, e.g. 0.01 for "p99 ≤ threshold".
    bad_fraction: float
    #: For latency objectives: the per-window threshold in milliseconds;
    #: ``None`` for event objectives fed a boolean (deadline misses).
    threshold_ms: float | None = None

    def __post_init__(self):
        if not 0 < self.bad_fraction < 1:
            raise ValueError("bad_fraction must be in (0, 1)")


@dataclass(frozen=True)
class SLOConfig:
    """Objectives, burn-rate rules and bookkeeping for a tracker.

    Defaults encode the paper's contract: the p99 of end-to-end window
    latency must stay under the 150 ms inflation budget (≤ 1 % of
    windows may exceed it), and at most 0.1 % of windows may miss the
    real-time inference deadline.  The default rules are the classic SRE
    pairs scaled to streaming time: a fast burn (14.4×, 1 min / 10 min)
    pages at ``critical``; a slow burn (6×, 5 min / 1 h) tickets at
    ``suspect``.  Demos and tests shrink the windows rather than sleep.
    """

    latency_budget_ms: float = 150.0
    latency_bad_fraction: float = 0.01
    deadline_bad_fraction: float = 0.001
    fast_burn: BurnRateRule = field(default_factory=lambda: BurnRateRule(
        name="fast_burn", short_window_s=60.0, long_window_s=600.0,
        threshold=14.4, severity="critical"))
    slow_burn: BurnRateRule = field(default_factory=lambda: BurnRateRule(
        name="slow_burn", short_window_s=300.0, long_window_s=3600.0,
        threshold=6.0, severity="suspect"))
    #: Error budgets are accounted over this horizon.
    budget_window_s: float = 3600.0
    #: Good/bad counts are bucketed at this resolution; the deques hold
    #: at most ``horizon / bucket_s`` entries.
    bucket_s: float = 1.0
    #: Fewer total events than this in a rule's long window keeps the
    #: rule silent — burn rates over a handful of windows are noise.
    min_events: int = 10

    def __post_init__(self):
        if self.latency_budget_ms <= 0:
            raise ValueError("latency_budget_ms must be positive")
        if self.bucket_s <= 0:
            raise ValueError("bucket_s must be positive")
        if self.budget_window_s <= 0:
            raise ValueError("budget_window_s must be positive")

    @property
    def objectives(self) -> tuple[SLOObjective, ...]:
        return (
            SLOObjective(
                name="window_latency_p99",
                description=(f"p99 end-to-end window latency <= "
                             f"{self.latency_budget_ms:g} ms"),
                bad_fraction=self.latency_bad_fraction,
                threshold_ms=self.latency_budget_ms,
            ),
            SLOObjective(
                name="deadline_miss",
                description="window inference deadline-miss ratio",
                bad_fraction=self.deadline_bad_fraction,
            ),
        )

    @property
    def rules(self) -> tuple[BurnRateRule, ...]:
        return (self.fast_burn, self.slow_burn)


class _ObjectiveState:
    """Time-bucketed good/bad counts for one objective."""

    def __init__(self, objective: SLOObjective, horizon_s: float,
                 bucket_s: float):
        self.objective = objective
        self.bucket_s = bucket_s
        self.horizon_s = horizon_s
        #: ``[bucket_index, total, bad]`` triples, oldest first.
        self._buckets: list[list] = []
        self.events = 0
        self.bad = 0
        #: rule name -> True while that rule's alert is standing.
        self.burning: dict[str, bool] = {}

    def record(self, bad: bool, n: int, now: float) -> None:
        index = int(now // self.bucket_s)
        if self._buckets and self._buckets[-1][0] == index:
            slot = self._buckets[-1]
        else:
            slot = [index, 0, 0]
            self._buckets.append(slot)
        slot[1] += n
        self.events += n
        if bad:
            slot[2] += n
            self.bad += n
        self._prune(now)

    def _prune(self, now: float) -> None:
        cutoff = int((now - self.horizon_s) // self.bucket_s)
        while self._buckets and self._buckets[0][0] < cutoff:
            self._buckets.pop(0)

    def window_counts(self, window_s: float, now: float) -> tuple[int, int]:
        """``(total, bad)`` over the trailing ``window_s`` seconds."""
        cutoff = int((now - window_s) // self.bucket_s)
        total = bad = 0
        for index, n, b in reversed(self._buckets):
            if index < cutoff:
                break
            total += n
            bad += b
        return total, bad

    def burn_rate(self, window_s: float, now: float) -> float:
        total, bad = self.window_counts(window_s, now)
        if total == 0:
            return 0.0
        return (bad / total) / self.objective.bad_fraction


class SLOTracker:
    """Maintain objectives, error budgets and burn-rate alerts.

    ``record(...)`` feeds one batch of window completions; ``evaluate``
    re-checks every burn-rate rule and, when an :class:`AlertManager` is
    attached, raises (and later resolves) one alert per standing
    ``(objective, rule)`` pair under the subject
    ``slo/<objective>/<rule>``.  Both methods take an explicit ``now``
    (the serving engine passes stream time); without one the injectable
    ``clock`` is read.  Never raises out of ``record``/``evaluate`` —
    the manager's own ``_contain`` guards the alert path.
    """

    def __init__(self, config: SLOConfig | None = None, *,
                 registry=None, alerts=None, clock=None):
        self.config = config or SLOConfig()
        self.alerts = alerts
        self.clock = clock if clock is not None else time.monotonic
        self._registry = registry
        horizon = max(
            [self.config.budget_window_s]
            + [rule.long_window_s for rule in self.config.rules]
        )
        self._states = {
            obj.name: _ObjectiveState(obj, horizon, self.config.bucket_s)
            for obj in self.config.objectives
        }
        self.alerts_raised = 0
        self.alerts_resolved = 0

    def _count(self, objective: str, n: int, bad: bool) -> None:
        if self._registry is None:
            return
        self._registry.counter(f"slo/{objective}/events").inc(n)
        if bad:
            self._registry.counter(f"slo/{objective}/bad").inc(n)

    def record(self, *, latency_ms: float, deadline_miss: bool,
               n: int = 1, now: float | None = None) -> None:
        """Record ``n`` window completions sharing one measured latency.

        The micro-batching engine charges every window in a round the
        wall-clock of the whole batch, so one ``record`` per round with
        ``n = len(batch)`` is exact.
        """
        if n <= 0:
            return
        if now is None:
            now = self.clock()
        cfg = self.config
        latency_bad = latency_ms > cfg.latency_budget_ms
        self._states["window_latency_p99"].record(latency_bad, n, now)
        self._count("window_latency_p99", n, latency_bad)
        self._states["deadline_miss"].record(bool(deadline_miss), n, now)
        self._count("deadline_miss", n, bool(deadline_miss))

    def evaluate(self, now: float | None = None) -> list[dict]:
        """Re-check every burn-rate rule; returns state transitions.

        Each transition is ``{"subject", "severity", "burning"}``; alerts
        ride through the attached manager when one is present.
        """
        if now is None:
            now = self.clock()
        transitions = []
        for state in self._states.values():
            for rule in self.config.rules:
                total_long, _ = state.window_counts(rule.long_window_s, now)
                burning = (
                    total_long >= self.config.min_events
                    and state.burn_rate(rule.short_window_s, now)
                    > rule.threshold
                    and state.burn_rate(rule.long_window_s, now)
                    > rule.threshold
                )
                was = state.burning.get(rule.name, False)
                if burning == was:
                    continue
                state.burning[rule.name] = burning
                subject = f"slo/{state.objective.name}/{rule.name}"
                transitions.append({
                    "subject": subject,
                    "severity": rule.severity,
                    "burning": burning,
                })
                if self.alerts is None:
                    continue
                if burning:
                    self.alerts_raised += 1
                    self.alerts.raise_direct(
                        subject, t=now, severity=rule.severity,
                        source="slo",
                        message=(
                            f"{state.objective.description}: burn rate > "
                            f"{rule.threshold:g}x over "
                            f"{rule.short_window_s:g}s and "
                            f"{rule.long_window_s:g}s"
                        ),
                    )
                else:
                    self.alerts_resolved += 1
                    self.alerts.resolve_direct(subject, t=now)
        return transitions

    def report(self, now: float | None = None) -> dict:
        """Error-budget and burn-rate status per objective."""
        if now is None:
            now = self.clock()
        cfg = self.config
        objectives = {}
        for state in self._states.values():
            obj = state.objective
            total, bad = state.window_counts(cfg.budget_window_s, now)
            allowed = total * obj.bad_fraction
            remaining = 1.0 - (bad / allowed) if allowed > 0 else 1.0
            objectives[obj.name] = {
                "description": obj.description,
                "objective_bad_fraction": obj.bad_fraction,
                "events": total,
                "bad": bad,
                "bad_fraction": bad / total if total else 0.0,
                "budget_remaining": remaining,
                "burn_rates": {
                    rule.name: {
                        "short": state.burn_rate(rule.short_window_s, now),
                        "long": state.burn_rate(rule.long_window_s, now),
                        "threshold": rule.threshold,
                        "severity": rule.severity,
                        "burning": state.burning.get(rule.name, False),
                    }
                    for rule in cfg.rules
                },
            }
        return {
            "budget_window_s": cfg.budget_window_s,
            "latency_budget_ms": cfg.latency_budget_ms,
            "alerts_raised": self.alerts_raised,
            "alerts_resolved": self.alerts_resolved,
            "objectives": objectives,
        }
