"""The four workloads: seeded inputs, timed drivers and reference oracles.

Every input is generated here from ``--seed`` before any timing starts,
and the program only ever sees ``submit``/``push`` calls.  One driver
process generates all load; the fleet adds its own two worker processes.

A *pass* is one complete replay of a workload's feed through a freshly
set-up server.  Passes are deterministic: the detection digest of every
pass of one seed must be identical, and must agree with a reference
oracle that feeds a subset of the same streams through another path.
"""

from __future__ import annotations

import gc
import hashlib
import os
import time
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from repro.alerts import AlertConfig
from repro.core.detector import DetectorConfig, FallDetector
from repro.datasets import make_subjects, synthesize_recording
from repro.datasets.tasks import adl_ids, fall_ids, get_task
from repro.faults import builtin_scenarios
from repro.fleet.front import FleetConfig, FleetFront
from repro.obs import FlightConfig, StageTimer
from repro.obs.metrics import MetricsRegistry
from repro.quant.qmodel import QuantizedModel
from repro.serve.engine import ServeConfig, ServeEngine

from . import prepare
from .tracing import UNTRACED, Tracer

DETECTOR = DetectorConfig()
FS = DETECTOR.fs
HOP = DETECTOR.hop_samples
WINDOW = DETECTOR.window_samples
#: The airbag's inflation budget: a later verdict is a budget miss.
BUDGET_MS = 150.0
#: Scenarios carried by the live workload's faulted streams (the builtin
#: NaN-burst, sample-dropout, clock-jitter and spike-noise scenarios of
#: ``repro.faults``), round-robin.
FAULTS = ("nan_burst", "dropout", "clock_jitter", "spikes")
#: Open loop: the first packet is due this long after the generator
#: starts, so set-up work never makes it late.
LEAD_S = 0.05
#: Streams each reference oracle replays.  Per-stream detections do not
#: depend on which streams share a batch, so a subset is a full check.
ORACLE_STREAMS = 8
#: The engine oracle's packet size: a block split no workload uses.
ORACLE_PACKET = 7
FLEET_SHARDS = 2


@dataclass(frozen=True)
class Workload:
    """One traffic shape.  ``packet`` and ``tick`` are in samples."""

    name: str
    why: str
    kind: str                 # "engine", "fleet" or "edge"
    streams: int
    duration_s: float
    packet: int = HOP
    tick: int = HOP
    stagger: str = "none"     # "none", "random" or "grid" phase offsets
    open_loop: bool = False
    faulted: int = 0
    instrumented: bool = False
    #: The program's time is taken to scale as the box speed to this
    #: power (see ``speed_over``).
    elasticity: float = 1.0


WORKLOADS = {w.name: w for w in (
    Workload(
        "replay-aligned",
        "64 streams, one aligned 200 ms packet each per round into one "
        "int8 ServeEngine: long blocks, so per-stream DSP (filter, "
        "ingest, fusion) dominates",
        kind="engine", streams=64, duration_s=30.0,
    ),
    Workload(
        "fleet-staggered",
        "the same streams in 40 ms packets at random phases through a "
        "2-shard FleetFront: small blocks, so per-call overhead and the "
        "fleet hop (pickle, pipe, merge) dominate",
        kind="fleet", streams=64, duration_s=30.0, packet=4, tick=4,
        stagger="random", elasticity=0.8,
    ),
    Workload(
        "edge-push",
        "16 streams one after another through per-sample "
        "FallDetector.push with float32 batch-of-1 inference: bypasses "
        "batching and push_block",
        kind="edge", streams=16, duration_s=30.0, packet=0, tick=0,
    ),
    Workload(
        "live-instrumented",
        "16 streams in real time at 100 Hz, staggered 40 ms packets, 4 "
        "faulted, flight recorder + alerts + SLO on: production "
        "config at ~15% load, so a 3x-slowed box keeps up",
        kind="engine", streams=16, duration_s=20.0, packet=4, tick=1,
        stagger="grid", open_loop=True, faulted=4, instrumented=True,
        elasticity=0.8,
    ),
)}


# ----------------------------------------------------------------------
# inputs
# ----------------------------------------------------------------------
@dataclass
class Stream:
    sid: str
    accel: np.ndarray
    gyro: np.ndarray
    t: np.ndarray


def make_streams(seed: int, workload: Workload) -> list[Stream]:
    """Stream ``i`` concatenates synthetic trials drawn by ``(seed, i)`` —
    one fall for every two ADLs, as in the fleet simulator's population —
    starting part-way into the first, cut to the workload's duration.
    The first ``workload.faulted`` streams then carry a fault scenario.
    Streams of one seed and duration are the same in every workload."""
    n = int(round(workload.duration_s * FS))
    subjects = make_subjects("BN", 16, seed)
    adl, falls = adl_ids(), fall_ids()
    scenarios = builtin_scenarios(seed=seed) if workload.faulted else {}
    streams = []
    for i in range(workload.streams):
        rng = np.random.default_rng([seed, i])
        accel_parts, gyro_parts, have = [], [], 0
        while have < n:
            tasks = falls if rng.random() < 1 / 3 else adl
            recording = synthesize_recording(
                get_task(int(rng.choice(tasks))),
                subjects[int(rng.integers(len(subjects)))],
                trial=1000 * i + len(accel_parts), base_seed=seed,
            )
            accel = np.asarray(recording.accel, dtype=float)
            gyro = np.asarray(recording.gyro, dtype=float)
            if not accel_parts:
                cut = int(rng.integers(len(accel) // 2))
                accel, gyro = accel[cut:], gyro[cut:]
            accel_parts.append(accel)
            gyro_parts.append(gyro)
            have += len(accel)
        accel = np.concatenate(accel_parts)[:n]
        gyro = np.concatenate(gyro_parts)[:n]
        t = np.arange(n) / FS
        if i < workload.faulted:
            scenario = scenarios[FAULTS[i % len(FAULTS)]]
            t, accel, gyro = scenario.apply_arrays(t, accel, gyro)
        streams.append(Stream(f"s{i:03d}", accel, gyro, t))
    return streams


@dataclass
class Tick:
    """Packets the generator hands over at one instant (closed loop: one
    round; open loop: ``due_s`` after the schedule starts)."""

    due_s: float
    packets: list = field(default_factory=list)  # (sid, accel, gyro, t) rows
    #: Windows these packets complete on a clean stream — the fleet's
    #: per-round window count, checked against the shards' totals.
    windows: int = 0


def _due_before(n: int) -> int:
    """Windows that come due within the first ``n`` samples of a clean
    stream: the first full window, then one every hop."""
    return 0 if n < WINDOW else (n - WINDOW) // HOP + 1


def make_ticks(streams: list[Stream], workload: Workload,
               seed: int) -> list[Tick]:
    """Cut every stream into packets and group them by hand-over tick.

    A packet holds the samples whose nominal index ``rint(t * fs)`` plus
    the stream's phase offset falls in one ``packet``-sample period; it
    is handed over when its last sample exists.  The edge workload
    pushes each stream whole, one tick per stream.
    """
    if workload.kind == "edge":
        return [Tick(0.0, [(s.sid, list(s.accel), list(s.gyro),
                            s.t.tolist())])
                for s in streams]
    size = workload.packet
    rng = np.random.default_rng([seed, size, workload.tick])
    ticks: dict[int, Tick] = {}
    for i, s in enumerate(streams):
        if workload.stagger == "random":
            offset = int(rng.integers(size))
        elif workload.stagger == "grid":
            offset = i % size
        else:
            offset = 0
        index = np.maximum.accumulate(np.rint(s.t * FS).astype(np.int64))
        period = (index + offset) // size
        cuts = np.flatnonzero(np.diff(period)) + 1
        bounds = [0, *cuts.tolist(), len(period)]
        accel, gyro, t = list(s.accel), list(s.gyro), s.t.tolist()
        for lo, hi in zip(bounds[:-1], bounds[1:]):
            end = (int(period[lo]) + 1) * size - offset
            key = (end - 1) // workload.tick
            tick = ticks.get(key)
            if tick is None:
                tick = ticks[key] = Tick((key + 1) * workload.tick / FS)
            tick.packets.append((s.sid, accel[lo:hi], gyro[lo:hi], t[lo:hi]))
            tick.windows += _due_before(hi) - _due_before(lo)
    return [ticks[key] for key in sorted(ticks)]


# ----------------------------------------------------------------------
# servers: the program behind one driver interface
# ----------------------------------------------------------------------
def _stage_means(timer: StageTimer | None) -> dict:
    if timer is None:
        return {}
    return {stage: stats["mean"]
            for stage, stats in timer.report()["stages"].items()}


class _EngineServer:
    submit_span = "serve.submit"
    every_core = False          # one process: probe the core it runs on

    def __init__(self, engine: ServeEngine):
        self.engine = engine
        self.submit = engine.submit
        self.round = engine.step

    def windows_done(self, tick) -> int:
        return self.engine.windows_inferred

    def finish(self) -> dict:
        report = self.engine.report()
        return {
            "refused": report["dropped_samples"] + report["rejected_streams"],
            "failures": report["batch_errors"] + report["stream_errors"],
            "stages_ms": _stage_means(self.engine.fleet_stages()),
            "alerts_raised": report.get("alerts", {}).get("raised", 0),
            "shed": 0,
            "redelivered": 0,
        }


class _FleetServer:
    submit_span = "fleet.submit"
    every_core = True           # the workers run on every core

    def __init__(self, front: FleetFront):
        self.front = front
        self.submit = front.submit
        self.round = front.pump
        self._windows = 0

    def windows_done(self, tick) -> int:
        # Replies carry detections, not window counts; the count per
        # round is the clean-stream cadence, which finish() checks
        # against the shards' own totals.
        if tick is not None:
            self._windows += tick.windows
        return self._windows

    def finish(self) -> dict:
        report = self.front.close()
        shards = self.front.shard_reports().values()
        served = sum(r["windows_inferred"] for r in shards)
        stages = {stage: hist.mean for stage, hist
                  in self.front.fleet_stage_latency().items()}
        return {
            "refused": (report["dropped_samples"]
                        + sum(r["dropped_samples"] for r in shards)),
            "failures": (report["worker_crashes"] + report["worker_timeouts"]
                         + sum(r["batch_errors"] + r["stream_errors"]
                               for r in shards)),
            "stages_ms": stages,
            "alerts_raised": 0,
            "shed": report["shed_samples"],
            "redelivered": report["redelivered_samples"],
            "windows_served": served,
            "windows_counted": self._windows,
        }


class _EdgeServer:
    def __init__(self, detectors: dict):
        self.detectors = detectors

    def finish(self) -> dict:
        timer = StageTimer()
        for detector in self.detectors.values():
            timer.merge(detector.stages)
        return {
            "refused": 0,
            "failures": sum(d.inference_errors
                            for d in self.detectors.values()),
            "stages_ms": _stage_means(timer),
            "alerts_raised": 0,
            "shed": 0,
            "redelivered": 0,
        }


# ----------------------------------------------------------------------
# box speed
# ----------------------------------------------------------------------
#: The reference box's cores change speed by up to 2.4x for seconds to
#: minutes at a time, each core on its own, and at times the host takes
#: a quarter of the box's CPU time away (steal), so timings are scaled to
#: a nominal box speed.  The speed is measured by a probe run between
#: rounds: fixed benchmark-owned work with the program's instruction mix
#: (a Python loop over small numpy operations), ~1 ms on the reference
#: box, with the garbage collector paused so the program's heap does not
#: slow it.  A one-process workload is probed on the core it is running
#: on; the fleet, whose processes use every core, on each core in turn.
#: Steal, which a 1 ms probe mostly misses, is read from ``/proc/stat``.
PROBE_ITERATIONS = 400
#: Probe iterations per second of the reference box when it is quiet.
NOMINAL_PROBE_RATE = 4.0e5
#: Each workload's time is taken to scale as the box speed to the power
#: ``Workload.elasticity``.  Fitted over ~3000 chunks and 48 runs of 20 s
#: on the reference box, spanning probe speeds 0.4-1.0: one process
#: computing flat out (replay-aligned, edge-push) follows the box one for
#: one; where part of the time is waiting on other processes (the
#: fleet's driver) or waking from sleep (the open loop), 0.8 gave the
#: smaller run-to-run spread.
#: Probe at most this often: ~2% of a closed loop's time.
PROBE_INTERVAL_S = 0.05
#: Open loop: probe only when the next packet is due at least this far
#: ahead, so the probe never makes it late.
PROBE_SLACK_S = 0.003
_PROBE_ROWS = np.random.default_rng(0).random((16, 9))


def _probe_seconds() -> float:
    rows = _PROBE_ROWS
    collecting = gc.isenabled()
    gc.disable()
    try:
        t0 = time.perf_counter()
        total = 0.0
        for i in range(PROBE_ITERATIONS):
            total += float((rows[i & 15] * 1.5 + 0.25).sum())
        return time.perf_counter() - t0
    finally:
        if collecting:
            gc.enable()


class Probe(NamedTuple):
    when: float      # perf_counter at the probe's end
    speed: float     # 1 at nominal speed, below 1 on a slowed box
    stolen: int      # the box's CPU time taken by the host so far, in ticks
    wanted: int      # the box's busy plus stolen CPU time so far, in ticks


def _cpu_ticks() -> tuple[int, int]:
    """``(stolen, wanted)`` clock ticks of the whole box so far, or
    zeros where ``/proc/stat`` does not exist."""
    try:
        with open("/proc/stat") as fh:
            ticks = [int(x) for x in fh.readline().split()[1:9]]
    except (OSError, ValueError):
        return 0, 0
    user, nice, system, _idle, _iowait, irq, softirq, steal = ticks
    return steal, user + nice + system + irq + softirq + steal


def probe(every_core: bool = False) -> Probe:
    """Probe the box's speed now.  With ``every_core`` the speed is the
    geometric mean over the usable cores, each probed in turn."""
    if every_core:
        cores = os.sched_getaffinity(0)
        seconds = []
        try:
            for core in sorted(cores):
                os.sched_setaffinity(0, {core})
                seconds.append(_probe_seconds())
        finally:
            os.sched_setaffinity(0, cores)
        seconds = float(np.exp(np.mean(np.log(seconds))))
    else:
        seconds = _probe_seconds()
    rate = PROBE_ITERATIONS / seconds
    return Probe(time.perf_counter(), rate / NOMINAL_PROBE_RATE,
                 *_cpu_ticks())


def speed_over(probes: list[Probe], begin: float, end: float) -> float:
    """The box's speed over ``[begin, end]``: the median probe speed inside
    it (else the nearest probe's), times the share of the CPU time the
    box wanted that the host did not take away between the probes that
    bracket it."""
    inside = [p.speed for p in probes if begin <= p.when <= end]
    if inside:
        speed = float(np.median(inside))
    else:
        middle = (begin + end) / 2
        speed = min(probes, key=lambda p: abs(p.when - middle)).speed
    first = max((p for p in probes if p.when <= begin),
                key=lambda p: p.when, default=probes[0])
    last = min((p for p in probes if p.when >= end),
               key=lambda p: p.when, default=probes[-1])
    wanted = last.wanted - first.wanted
    if wanted > 0:
        speed *= 1.0 - (last.stolen - first.stolen) / wanted
    return speed


def set_up(workload: Workload, artifacts, streams: list[Stream]):
    """From loading the saved weights to ready-to-submit; returns
    ``(server, seconds at nominal box speed)``.  Includes the int8
    conversion, the engine's batch-invariance probe and, for the fleet,
    forking the workers and waiting until both answer."""
    speed = probe(every_core=workload.kind == "fleet").speed
    t0 = time.perf_counter()
    model = prepare.load_model(artifacts)
    calibration = np.load(artifacts / "calibration.npy")
    if workload.kind == "edge":
        server = _EdgeServer({
            s.sid: FallDetector(model, DETECTOR, registry=MetricsRegistry())
            for s in streams
        })
    elif workload.kind == "fleet":
        front = FleetFront(
            QuantizedModel.convert(model, calibration),
            FleetConfig(n_shards=FLEET_SHARDS,
                        serve=ServeConfig(backend="int8",
                                          per_stream_metrics=False)),
            registry=MetricsRegistry(),
        )
        if front.heartbeat():
            front.close()
            raise RuntimeError("a fleet worker did not come up")
        server = _FleetServer(front)
    else:
        config = ServeConfig(
            backend="int8",
            flight=FlightConfig() if workload.instrumented else None,
            alerts=AlertConfig() if workload.instrumented else None,
        )
        server = _EngineServer(ServeEngine(
            model, config, registry=MetricsRegistry(),
            calibration=calibration))
    return server, (time.perf_counter() - t0) * speed ** workload.elasticity


# ----------------------------------------------------------------------
# drivers
# ----------------------------------------------------------------------
@dataclass
class PassResult:
    """What one timed pass measured, round by round, in perf_counter
    seconds.  A round's wall time runs from ``ready`` (the previous
    round's return, or the end of a speed probe in a closed loop) to
    ``returned``; every window it completes shares its verdict time
    ``returned - due``.  An edge-push "round" is one push."""

    setup_s: float
    open_loop: bool
    ready: list
    due: list          # verdict-latency origin of each round
    arrived: list      # when the round's first packet went in
    returned: list     # when the round's verdict call returned
    late: list         # how late the round's packets started
    samples: list      # samples accepted in the round
    windows_per_round: list
    probes: list       # every box-speed Probe
    elasticity: float  # the workload's, see ``Workload.elasticity``
    offered: int
    hits: list
    info: dict = field(default_factory=dict)

    @property
    def started(self) -> float:
        return self.ready[0]

    @property
    def ended(self) -> float:
        return self.returned[-1]

    @property
    def wall_s(self) -> float:
        return float(np.sum(np.subtract(self.returned, self.ready)))

    @property
    def busy_s(self) -> float:
        return float(np.sum(np.subtract(self.returned, self.arrived)))

    @property
    def accepted(self) -> int:
        return sum(self.samples)

    @property
    def windows(self) -> int:
        return sum(self.windows_per_round)

    @property
    def rounds(self) -> int:
        return len(self.returned)

    @property
    def empty_rounds(self) -> int:
        return self.windows_per_round.count(0)

    @property
    def box_speed(self) -> float:
        """Median probed box speed over the pass, raised to the
        workload's elasticity."""
        return float(np.median([p.speed for p in self.probes])
                     ** self.elasticity)

    @property
    def budget_miss_frac(self) -> float:
        """Windows verdicted later than the airbag budget, or whose
        inference failed, per window."""
        late = int((self.latency_ms() > BUDGET_MS).sum())
        return (late + self.info["failures"]) / max(self.windows, 1)

    @property
    def refused_frac(self) -> float:
        """Offered samples refused by ``submit`` or shed/dropped inside."""
        refused = (self.offered - self.accepted + self.info["refused"]
                   + self.info["shed"])
        return refused / max(self.offered, 1)

    def latency_ms(self, lo: int = 0, hi: int | None = None) -> np.ndarray:
        """Raw verdict latency of every window of rounds ``lo:hi``."""
        returned = np.asarray(self.returned[lo:hi])
        due = np.asarray(self.due[lo:hi])
        return np.repeat(1000.0 * (returned - due),
                         self.windows_per_round[lo:hi])

    def chunks(self, min_windows: int) -> list[dict]:
        """Split the pass into runs of consecutive rounds holding at least
        ``min_windows`` windows (a short remainder joins the last chunk)
        and measure each at nominal box speed: the program's time
        (latency, busy time, and a closed loop's wall) is multiplied by
        the box speed probed during the chunk, raised to the workload's
        elasticity; an open loop's wall is its schedule and stays as it
        is."""
        cuts, count = [], 0
        for r, w in enumerate(self.windows_per_round):
            count += w
            if count >= min_windows:
                cuts.append(r + 1)
                count = 0
        if not cuts:
            cuts = [self.rounds]
        cuts[-1] = self.rounds
        wall = np.subtract(self.returned, self.ready)
        busy = np.subtract(self.returned, self.arrived)
        out, lo = [], 0
        for hi in cuts:
            speed = speed_over(self.probes, self.ready[lo],
                               self.returned[hi - 1]) ** self.elasticity
            seconds = float(wall[lo:hi].sum())
            if not self.open_loop:
                seconds *= speed
            latency = speed * self.latency_ms(lo, hi)
            out.append({
                "samples_per_s": sum(self.samples[lo:hi]) / seconds,
                "verdict_ms_p50": (float(np.median(latency))
                                   if len(latency) else float("nan")),
                "busy_frac": speed * float(busy[lo:hi].sum()) / seconds,
                "box_speed": speed,
            })
            lo = hi
        return out


def _feed(server, ticks: list[Tick], open_loop: bool,
          tracer: Tracer = UNTRACED) -> dict:
    """Closed loop: each round's packets go in as soon as the previous
    round returned.  Open loop: each tick's packets go in at their due
    time, however far behind the server is."""
    clock = time.perf_counter
    submit, step = server.submit, server.round
    every_core = server.every_core
    probes = [probe(every_core)]
    readies, dues, arrivals, returns, lates, samples, windows, hits = (
        [], [], [], [], [], [], [], [])
    offered = 0
    done = server.windows_done(None)
    origin = clock() + (LEAD_S if open_loop else 0.0)
    ready = origin
    for r, tick in enumerate(ticks):
        if open_loop:
            due = origin + tick.due_s
            if (due - clock() > PROBE_SLACK_S
                    and clock() - probes[-1].when >= PROBE_INTERVAL_S):
                probes.append(probe(every_core))
            wait = due - clock()
            if wait > 0:
                time.sleep(wait)
        elif clock() - probes[-1].when >= PROBE_INTERVAL_S:
            probes.append(probe(every_core))
            ready = probes[-1].when
        arrived = clock()
        tracer.round = r
        accepted = 0
        for sid, accel, gyro, ts in tick.packets:
            with tracer.span(server.submit_span, len(ts)):
                for a, g, t in zip(accel, gyro, ts):
                    accepted += submit(sid, a, g, t)
            offered += len(ts)
        hits.extend(step())
        end = clock()
        total = server.windows_done(tick)
        readies.append(ready)
        dues.append(due if open_loop else arrived)
        arrivals.append(arrived)
        returns.append(end)
        lates.append(arrived - (due if open_loop else ready))
        samples.append(accepted)
        windows.append(total - done)
        done = total
        ready = end
    return dict(open_loop=open_loop, ready=readies, due=dues,
                arrived=arrivals, returned=returns, late=lates,
                samples=samples, windows_per_round=windows, probes=probes,
                offered=offered, hits=hits)


def _feed_edge(server: _EdgeServer, ticks: list[Tick],
               tracer: Tracer = UNTRACED) -> dict:
    """Per-sample pushes, streams one after another; a window's verdict
    time is the duration of the push that ran its inference."""
    clock = time.perf_counter
    probes = [probe()]
    readies, arrivals, returns, lates, windows, hits = [], [], [], [], [], []
    offered = 0
    ready = clock()
    for r, tick in enumerate(ticks):
        tracer.round = r
        for sid, accel, gyro, ts in tick.packets:
            detector = server.detectors[sid]
            push, inferences = detector.push, detector.latency
            for a, g, t in zip(accel, gyro, ts):
                if ready - probes[-1].when >= PROBE_INTERVAL_S:
                    probes.append(probe())
                    ready = probes[-1].when
                before = inferences.count
                t0 = clock()
                hit = push(a, g, t)
                t1 = clock()
                if hit is not None:
                    hits.append((sid, hit))
                readies.append(ready)
                arrivals.append(t0)
                returns.append(t1)
                lates.append(t0 - ready)
                windows.append(inferences.count - before)
                ready = t1
            offered += len(ts)
    return dict(open_loop=False, ready=readies, due=arrivals,
                arrived=arrivals, returned=returns, late=lates,
                samples=[1] * offered, windows_per_round=windows,
                probes=probes, offered=offered, hits=hits)


def run_pass(workload: Workload, artifacts, streams, ticks,
             tracer: Tracer = UNTRACED) -> PassResult:
    """Set up a fresh server, feed every tick, tear down."""
    server, setup_s = set_up(workload, artifacts, streams)
    if workload.kind == "edge":
        fed = _feed_edge(server, ticks, tracer)
    else:
        fed = _feed(server, ticks, workload.open_loop, tracer)
    return PassResult(setup_s=setup_s, elasticity=workload.elasticity,
                      info=server.finish(), **fed)


def extra_setups(workload: Workload, artifacts, streams, ticks,
                 count: int, warm_ticks: int = 10) -> list[float]:
    """Set up ``count`` throwaway servers and return their set-up times;
    the first also runs a few ticks untimed so lazy first-call costs are
    paid before any pass is measured."""
    times = []
    for i in range(count):
        server, seconds = set_up(workload, artifacts, streams)
        times.append(seconds)
        if i == 0:
            if workload.kind == "edge":
                head = ticks[0].packets[0]
                warm = [Tick(0.0, [tuple(head[:1]) + tuple(
                    part[:warm_ticks * HOP] for part in head[1:])])]
                _feed_edge(server, warm)
            else:
                _feed(server, ticks[:warm_ticks], open_loop=False)
        server.finish()
    return times


# ----------------------------------------------------------------------
# correctness
# ----------------------------------------------------------------------
def digest(hits, sids=None) -> str:
    """sha256 over sorted ``stream|time|probability|source`` lines with
    exact (hex) floats; ``sids`` restricts it to those streams."""
    lines = sorted(
        f"{sid}|{float(d.time_s).hex()}|{float(d.probability).hex()}|"
        f"{d.source}"
        for sid, d in hits if sids is None or sid in sids
    )
    return hashlib.sha256("\n".join(lines).encode()).hexdigest()


def oracle_digest(workload: Workload, artifacts, streams) -> tuple:
    """Detections of the first ``ORACLE_STREAMS`` streams through another
    path; returns ``(digest, stream ids)``.

    Engine and fleet workloads: a plain int8 ``ServeEngine`` (no flight
    recorder, no alerts) fed ``ORACLE_PACKET``-sample blocks, so the
    fleet ≡ single engine, block splits and observability-does-not-
    perturb contracts are all checked.  Edge: ``push_block`` with each
    window completed by an inline batch-of-1 float32 predict, the block
    ≡ per-sample contract.
    """
    subset = streams[:ORACLE_STREAMS]
    model = prepare.load_model(artifacts)
    hits = []
    if workload.kind == "edge":
        for s in subset:
            detector = FallDetector(model, DETECTOR,
                                    registry=MetricsRegistry())
            for lo in range(0, len(s.t), 50):
                found, requests = detector.push_block(
                    s.accel[lo:lo + 50], s.gyro[lo:lo + 50], s.t[lo:lo + 50])
                hits.extend((s.sid, d) for d in found)
                for request in requests:
                    prob = float(np.asarray(
                        model.predict(request.window[None])).reshape(-1)[0])
                    hit = detector.complete(request, prob, latency_ms=0.0)
                    if hit is not None:
                        hits.append((s.sid, hit))
    else:
        engine = ServeEngine(
            model, ServeConfig(backend="int8"), registry=MetricsRegistry(),
            calibration=np.load(artifacts / "calibration.npy"))
        longest = max(len(s.t) for s in subset)
        for lo in range(0, longest, ORACLE_PACKET):
            for s in subset:
                for i in range(lo, min(lo + ORACLE_PACKET, len(s.t))):
                    engine.submit(s.sid, s.accel[i], s.gyro[i], float(s.t[i]))
            hits.extend(engine.step())
    sids = [s.sid for s in subset]
    return digest(hits, set(sids)), sids


def int8_probe(artifacts, windows: int = 32) -> bool:
    """The int8 fast path equals the reference lowering, bit for bit, on
    real (calibration) windows."""
    model = prepare.load_model(artifacts)
    calibration = np.load(artifacts / "calibration.npy")
    quantized = QuantizedModel.convert(model, calibration)
    probe = calibration[:windows]
    return bool(np.array_equal(quantized.predict(probe),
                               quantized.predict_reference(probe)))
