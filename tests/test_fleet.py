"""Sharded fleet front: routing, backpressure, supervision, failover."""

import logging
import pathlib
import pickle
import sys
import time
import zlib

import numpy as np
import pytest

from repro.alerts import AlertConfig, EscalationConfig
from repro.core.detector import HEALTH_STATES, Detection, DetectorConfig
from repro.experiments import MagnitudeProbeModel
from repro.faults import builtin_scenarios
from repro.fleet import FleetConfig, FleetFront
from repro.obs import (
    clear_trace,
    disable_tracing,
    enable_tracing,
    get_collector,
    render_exposition,
    span,
)
from repro.obs.metrics import MetricsRegistry
from repro.serve.engine import ServeConfig, ServeEngine

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent.parent
                       / "scripts"))
from check_metric_names import check_exposition  # noqa: E402

DET = DetectorConfig()
HOP = DET.hop_samples


def _serve_config(**kwargs):
    return ServeConfig(detector=DET, per_stream_metrics=False, **kwargs)


def _streams(n_streams=4, n_samples=400, pulse_t=2.5, seed=0):
    """Tiny deterministic population with one high-g pulse per stream."""
    rng = np.random.default_rng(seed)
    streams = {}
    for i in range(n_streams):
        accel = rng.normal(0, 0.02, (n_samples, 3)) + [0.0, 0.0, 1.0]
        t = np.arange(n_samples) / DET.fs
        accel[:, 2] += 3.0 * np.exp(-0.5 * ((t - pulse_t) / 0.1) ** 2)
        gyro = rng.normal(0, 1.0, (n_samples, 3))
        streams[f"s{i:03d}"] = (accel, gyro, t)
    return streams


def _feed(front_or_engine, streams, pump, *, kill_at=None, on_kill=None):
    n = max(len(t) for _, _, t in streams.values())
    out = {sid: [] for sid in streams}
    for i in range(n):
        for sid, (accel, gyro, t) in streams.items():
            if i < len(t):
                front_or_engine.submit(sid, accel[i], gyro[i], t[i])
        if kill_at is not None and (i + 1) / DET.fs >= kill_at:
            on_kill()
            kill_at = None
        if (i + 1) % HOP == 0:
            for sid, det in pump():
                out[sid].append(det)
    return out


@pytest.fixture
def front():
    registry = MetricsRegistry()
    front = FleetFront(
        MagnitudeProbeModel(),
        FleetConfig(n_shards=2, serve=_serve_config(),
                    worker_timeout_s=5.0, restart_initial_s=0.02),
        registry=registry,
    )
    yield front
    front.close()


class TestRouting:
    def test_non_finite_timestamps_never_reach_the_fleet_clock(self, front):
        """NaN/inf timestamps are missing ones: the fleet's stream clock
        (and each stream's failover clock) skips them."""
        for t in (np.inf, 0.5, np.nan):
            front.submit("s0", (0.0, 0.0, 1.0), (0.0, 0.0, 0.0), t=t)
        front.pump()
        assert front.last_round_t == 0.5

    def test_crc32_assignment_is_deterministic(self, front):
        for sid in ("a", "b", "walker-7", "s042"):
            expected = zlib.crc32(sid.encode()) % 2
            assert front.shard_for(sid) == expected
            assert front.shard_for(sid) == expected  # stable on re-ask

    def test_streams_spread_over_shards(self, front):
        homes = {front.shard_for(f"s{i:03d}") for i in range(32)}
        assert homes == {0, 1}


class TestBackpressure:
    def test_overflow_sheds_oldest_and_never_raises(self):
        registry = MetricsRegistry()
        front = FleetFront(
            MagnitudeProbeModel(),
            FleetConfig(n_shards=1, serve=_serve_config(queue_capacity=10)),
            registry=registry,
        )
        try:
            for i in range(25):
                # True means "this sample is queued": shedding an older
                # one to make room still queues the new one.
                accepted = front.submit("only", (0, 0, 1), (0, 0, 0),
                                        t=i / DET.fs)
                assert accepted is True
            buffer = front._shards[0].queues["only"]
            assert len(buffer) == 10
            # Oldest-first: the surviving samples are the 15 freshest
            # (a buffered row is ``(ax, ay, az, gx, gy, gz, t)``).
            surviving_t = [row[6] for row in buffer]
            assert surviving_t == [i / DET.fs for i in range(15, 25)]
            assert front.shed_samples == 15
            front.pump()
            assert registry.counter("fleet/shed_samples").value == 15
        finally:
            front.close()

    def test_malformed_sample_is_refused_and_counted(self):
        """``submit`` never raises into the caller: a sample that is not
        three numbers per sensor (or has a non-numeric timestamp) is
        refused and counted as dropped, and the stream keeps serving."""
        front = FleetFront(
            MagnitudeProbeModel(),
            FleetConfig(n_shards=1, serve=_serve_config()),
            registry=MetricsRegistry(),
        )
        try:
            bad = [((0.0, 1.0), (0.0, 0.0, 0.0), 0.0),
                   (("x", 0.0, 1.0), (0.0, 0.0, 0.0), 0.0),
                   (None, (0.0, 0.0, 0.0), 0.0),
                   ((0.0, 0.0, 1.0), (0.0, 0.0, 0.0), "later")]
            for accel, gyro, t in bad:
                assert front.submit("s0", accel, gyro, t=t) is False
            assert front.dropped_samples == len(bad)
            assert front.samples_in == 0
            assert front.submit("s0", (0.0, 0.0, 1.0), (0.0, 0.0, 0.0),
                                t=0.01) is True
            front.drain()
            front.close()
            assert front.stream_report()["s0"]["health"] == "healthy"
        finally:
            front.close()

    def test_block_longer_than_capacity_keeps_its_freshest_rows(self):
        front = FleetFront(
            MagnitudeProbeModel(),
            FleetConfig(n_shards=1, serve=_serve_config(queue_capacity=10)),
            registry=MetricsRegistry(),
        )
        try:
            accel = np.tile([0.0, 0.0, 1.0], (25, 1))
            t = np.arange(25) / DET.fs
            assert front.submit("only", accel[0], np.zeros(3), -1.0)
            assert front.submit_block("only", accel, np.zeros((25, 3)),
                                      t) == 10
            buffer = front._shards[0].queues["only"]
            assert [row[6] for row in buffer] == t[15:].tolist()
            assert front.shed_samples == 16
            assert front.samples_in == 26
            assert front.last_round_t is None
            front.pump()
            assert front.last_round_t == t[-1]
        finally:
            front.close()

    def test_malformed_block_is_refused_whole_and_counted(self):
        """``submit_block`` never raises: a block that is not ``(n, 3)``
        numbers per sensor with ``n`` timestamps is refused whole, each
        of its rows counted as dropped, and the stream keeps serving."""
        front = FleetFront(
            MagnitudeProbeModel(),
            FleetConfig(n_shards=1, serve=_serve_config()),
            registry=MetricsRegistry(),
        )
        try:
            good = np.tile([0.0, 0.0, 1.0], (4, 1))
            bad = [(np.zeros((4, 2)), np.zeros((4, 3)), None),
                   (good, np.zeros((5, 3)), None),
                   (good, np.zeros((4, 3)), np.zeros(3)),
                   ([["x", 0, 1]] * 4, np.zeros((4, 3)), None),
                   (good, np.zeros((4, 3)), ["later"] * 4)]
            for accel, gyro, t in bad:
                assert front.submit_block("s0", accel, gyro, t) == 0
            assert front.dropped_samples == 4 * len(bad)
            assert front.samples_in == 0
            assert not front._shards[0].queues      # not even admitted
            accel, gyro, t = _streams(n_streams=1, n_samples=20)["s000"]
            assert front.submit_block("s0", accel, gyro, t) == 20
            front.drain()
            front.close()
            assert front.stream_report()["s0"]["health"] == "healthy"
            assert front.shard_reports()[0]["samples_in"] == 20
        finally:
            front.close()

    def test_bursting_stream_sheds_only_its_own_rows(self):
        """Noisy neighbour: with default capacities, a stream bursting
        past 4096 rows between pumps sheds only its own oldest rows; the
        quiet stream on the same shard keeps every row it sent."""
        front = FleetFront(MagnitudeProbeModel(),
                           FleetConfig(n_shards=1, serve=_serve_config()),
                           registry=MetricsRegistry())
        capacity = front.config.serve.queue_capacity
        try:
            for i in range(5):
                assert front.submit("quiet", (0.0, 0.0, 1.0),
                                    (0.0, 0.0, 0.0), t=i / DET.fs)
            n = 5000
            accel = np.tile([0.0, 0.0, 1.0], (n, 1))
            queued = front.submit_block("loud", accel, np.zeros((n, 3)),
                                        np.arange(n) / DET.fs)
            front.drain()
            front.close()
        finally:
            front.close()
        assert set(front.stream_report()) == {"quiet", "loud"}
        report = front.shard_reports()[0]
        # Every buffered row reached the worker, and none shed there.
        assert report["samples_in"] == 5 + capacity
        assert report["dropped_samples"] == 0
        assert queued == front.max_queue_depth == capacity
        assert front.shed_samples == n - capacity

    def test_shard_admits_at_most_max_streams(self):
        """A shard's front buffers admit the streams its engine would:
        beyond ``serve.max_streams`` a new stream's rows are refused at
        the front, counted, and never buffered."""
        front = FleetFront(
            MagnitudeProbeModel(),
            FleetConfig(n_shards=1, serve=_serve_config(max_streams=2)),
            registry=MetricsRegistry(),
        )
        try:
            for sid in ("a", "b"):
                assert front.submit(sid, (0.0, 0.0, 1.0), (0.0, 0.0, 0.0),
                                    t=0.0)
            assert front.submit("c", (0.0, 0.0, 1.0), (0.0, 0.0, 0.0),
                                t=0.0) is False
            assert front.submit_block("c", np.zeros((4, 3)),
                                      np.zeros((4, 3))) == 0
            assert front.shard_for("c") is None
            assert front.dropped_samples == 5
            assert front.samples_in == 2
            assert set(front._shards[0].queues) == {"a", "b"}
            assert front.stream_ids == ["a", "b"]
            front.drain()
            front.close()
        finally:
            front.close()
        report = front.shard_reports()[0]
        assert report["streams"] == 2
        assert report["samples_in"] == 2
        assert report["rejected_streams"] == 0

    def test_no_surviving_shard_drops_instead_of_raising(self):
        # max_restarts=1 with crashes recurring before any healthy round
        # (a healthy round resets the backoff by design), so the shard
        # fails permanently and later submits drop instead of raising.
        registry = MetricsRegistry()
        front = FleetFront(
            MagnitudeProbeModel(),
            FleetConfig(n_shards=1, serve=_serve_config(),
                        worker_timeout_s=0.5, restart_initial_s=0.01,
                        max_restarts=1),
            registry=registry,
        )
        try:
            front.kill_worker(0)
            front._shards[0].process.join(timeout=5.0)
            assert front.heartbeat() == [0]     # crash detected
            deadline = time.monotonic() + 20.0
            while front.worker_restarts == 0 and time.monotonic() < deadline:
                front._restart_due(time.monotonic())
                time.sleep(0.005)
            assert front.worker_restarts == 1   # the only allowed restart
            front.kill_worker(0)
            front._shards[0].process.join(timeout=5.0)
            assert front.heartbeat() == [0]     # second crash: exhausted
            assert front._shards[0].failed
            assert front.worker_failures == 1
            assert front.submit("x", (0, 0, 1), (0, 0, 0), t=0.1) is False
            assert front.dropped_samples >= 1
        finally:
            front.close()


class TestBitIdentity:
    def test_fleet_matches_single_engine(self):
        streams = _streams(n_streams=5, n_samples=400)
        # Two streams carry sensor faults: NaN readings and dropped
        # samples must cross the pipe and the shard boundary unchanged.
        scenarios = builtin_scenarios(seed=0)
        for sid, name in (("s001", "nan_burst"), ("s003", "dropout")):
            accel, gyro, t = streams[sid]
            t, accel, gyro = scenarios[name].apply_arrays(t, accel, gyro)
            streams[sid] = (accel, gyro, t)
        single_engine = ServeEngine(MagnitudeProbeModel(), _serve_config(),
                                    registry=MetricsRegistry())
        single = _feed(single_engine, streams,
                       lambda: single_engine.step())
        for sid, det in single_engine.step():
            single[sid].append(det)

        front = FleetFront(
            MagnitudeProbeModel(),
            FleetConfig(n_shards=3, serve=_serve_config()),
            registry=MetricsRegistry(),
        )
        try:
            fleet = _feed(front, streams, front.pump)
            for sid, det in front.drain():
                fleet[sid].append(det)
        finally:
            front.close()
        assert all(len(v) > 0 for v in single.values())
        assert fleet == single  # frozen float dataclasses: bitwise equality


    def test_fleet_block_ingress_matches_single_engine(self):
        """Streams submitted to the fleet as blocks of random sizes (some
        untimed) give the detections per-sample submits to one engine
        give: the round's float64 block and its runs carry every row
        across the pipe unchanged."""
        streams = _streams(n_streams=5, n_samples=400)
        scenarios = builtin_scenarios(seed=0)
        accel, gyro, t = streams["s001"]
        t, accel, gyro = scenarios["nan_burst"].apply_arrays(t, accel, gyro)
        streams["s001"] = (accel, gyro, t)
        single_engine = ServeEngine(MagnitudeProbeModel(), _serve_config(),
                                    registry=MetricsRegistry())
        single = _feed(single_engine, streams,
                       lambda: single_engine.step())
        for sid, det in single_engine.step():
            single[sid].append(det)

        rng = np.random.default_rng(1)
        front = FleetFront(
            MagnitudeProbeModel(),
            FleetConfig(n_shards=3, serve=_serve_config()),
            registry=MetricsRegistry(),
        )
        fleet = {sid: [] for sid in streams}
        try:
            for lo in range(0, 400, HOP):
                for sid, (accel, gyro, t) in streams.items():
                    # Each stream's next HOP rows in 1-3 blocks; stream
                    # s002 sends its timestamps as None.
                    cuts = sorted({lo, lo + HOP,
                                   *rng.integers(lo, lo + HOP, 2).tolist()})
                    for a, b in zip(cuts, cuts[1:]):
                        ts = None if sid == "s002" else t[a:b]
                        assert front.submit_block(sid, accel[a:b],
                                                  gyro[a:b], ts) == b - a
                for sid, det in front.pump():
                    fleet[sid].append(det)
            for sid, det in front.drain():
                fleet[sid].append(det)
        finally:
            front.close()
        untimed = ServeEngine(MagnitudeProbeModel(), _serve_config(),
                              registry=MetricsRegistry())
        accel, gyro, _ = streams["s002"]
        single["s002"] = _feed(untimed, {"s002": (accel, gyro,
                                                  [None] * 400)},
                               lambda: untimed.step())["s002"]
        single["s002"] += [det for _, det in untimed.step()]
        assert all(len(v) > 0 for v in single.values())
        assert fleet == single

    def test_fleet_matches_single_engine_under_overload(self):
        """A stream bursting past ``serve.queue_capacity`` while pumps
        stall: the fleet sheds exactly the rows a single engine sheds on
        the same submit/step cadence, so detections stay byte-identical
        (a shard-wide bound would shed the other streams' older rows,
        their pulses among them)."""
        stall = range(300, 599)             # no pump/step in here
        burst = range(400, 4900)            # s000's rows sent in one go
        streams = _streams(n_streams=3, n_samples=5000, pulse_t=3.5)
        streams["s000"] = _streams(n_streams=1, n_samples=5000,
                                   pulse_t=49.0)["s000"]

        def feed(server, pump):
            out = {sid: [] for sid in streams}
            for i in range(5000):
                for sid, (accel, gyro, t) in streams.items():
                    rows = (i,)
                    if sid == "s000" and i in burst:
                        rows = burst if i == burst[0] else ()
                    for j in rows:
                        server.submit(sid, accel[j], gyro[j], t[j])
                if (i + 1) % HOP == 0 and i not in stall:
                    for sid, det in pump():
                        out[sid].append(det)
            return out

        engine = ServeEngine(MagnitudeProbeModel(), _serve_config(),
                             registry=MetricsRegistry())
        single = feed(engine, engine.step)
        for sid, det in engine.step():
            single[sid].append(det)
        front = FleetFront(MagnitudeProbeModel(),
                           FleetConfig(n_shards=1, serve=_serve_config()),
                           registry=MetricsRegistry())
        try:
            fleet = feed(front, front.pump)
            for sid, det in front.drain():
                fleet[sid].append(det)
        finally:
            front.close()
        assert all(len(v) > 0 for v in single.values())
        assert fleet == single
        assert engine.dropped_samples > 0
        assert front.shed_samples == engine.dropped_samples
        assert front.shard_reports()[0]["dropped_samples"] == 0



#: Forms a caller may pass one sensor reading in.  Each holds three
#: numbers, so both front doors must serve it like a (3,) float array.
WELL_FORMED = {
    "float(3,)": lambda r: r,
    "float(1,3)": lambda r: r.reshape(1, 3),
    "float(3,1)": lambda r: r.reshape(3, 1),
    "int(3,)": lambda r: np.rint(r).astype(int),
    "list": lambda r: r.tolist(),
    "tuple": lambda r: tuple(r.tolist()),
    "object(3,)": lambda r: np.array(r.tolist(), dtype=object),
    "pickled float(3,)": lambda r: pickle.loads(pickle.dumps(r)),
    "big-endian float(3,)": lambda r: r.astype(">f8"),
}
#: Readings that are not three numbers: served by neither front door.
MALFORMED = {
    "float(2,)": lambda r: r[:2],
    "float(2,2)": lambda r: np.resize(r, (2, 2)),
    "non-numeric": lambda r: [r[0], "x", r[2]],
    "object non-numeric": lambda r: np.array([r[0], "x", r[2]], dtype=object),
}


@pytest.fixture(scope="module")
def served_forms():
    """One stream per reading form through one engine and one 1-shard
    fleet (a stream's detections do not depend on its neighbours):
    ``(engine detections, fleet detections, engine health, refused)``,
    each keyed by form, ``refused`` counting each front door's refusals
    as ``(engine, fleet)``."""
    accel, gyro, t = _streams(n_streams=1)["s000"]
    forms = {**WELL_FORMED, **MALFORMED}
    engine = ServeEngine(MagnitudeProbeModel(), _serve_config(),
                         registry=MetricsRegistry())
    front = FleetFront(MagnitudeProbeModel(),
                       FleetConfig(n_shards=1, serve=_serve_config()),
                       registry=MetricsRegistry())
    refused = {name: [0, 0] for name in forms}
    try:
        for i in range(len(t)):
            for name, form in forms.items():
                for door, server in enumerate((engine, front)):
                    if not server.submit(name, form(accel[i]),
                                         form(gyro[i]), t[i]):
                        refused[name][door] += 1
        single = {name: [] for name in forms}
        for sid, det in engine.step():
            single[sid].append(det)
        fleet = {name: [] for name in forms}
        for sid, det in front.drain():
            fleet[sid].append(det)
    finally:
        front.close()
    health = {name: engine.stream_health(name) for name in forms}
    return single, fleet, health, refused


class TestSampleForms:
    @pytest.mark.parametrize("form", list(WELL_FORMED))
    def test_well_formed_sample_is_served_alike(self, served_forms, form):
        single, fleet, health, refused = served_forms
        assert health[form] != "quarantined"
        assert refused[form] == [0, 0]
        assert single[form] and fleet[form] == single[form]
        if form != "int(3,)":
            assert single[form] == single["float(3,)"]

    def test_pickled_float64_reading_takes_the_fast_path(self, monkeypatch):
        """An unpickled float64 array carries an equal copy of the dtype,
        not numpy's singleton: both doors still queue it without
        ``sample_row``.  A byte-swapped reading is not float64 and goes
        through ``sample_row`` (and is served alike, above)."""
        import repro.serve.session as session_module

        calls = []
        sample_row = session_module.sample_row
        monkeypatch.setattr(session_module, "sample_row",
                            lambda *args: (calls.append(args),
                                           sample_row(*args))[1])
        reading = np.array([0.0, 0.0, 1.0])
        pickled = pickle.loads(pickle.dumps(reading))
        assert pickled.dtype is not reading.dtype
        engine = ServeEngine(MagnitudeProbeModel(), _serve_config(),
                             registry=MetricsRegistry())
        front = FleetFront(MagnitudeProbeModel(),
                           FleetConfig(n_shards=1, serve=_serve_config()),
                           registry=MetricsRegistry())
        try:
            for door in (engine, front):
                assert door.submit("s", pickled, pickled, 0.0)
                assert not calls
                assert door.submit("s", reading.astype(">f8"), reading, 0.01)
                assert len(calls) == 1
                calls.clear()
                assert door.samples_in == 2
        finally:
            front.close()

    @pytest.mark.parametrize("form", list(MALFORMED))
    def test_malformed_sample_is_served_by_neither(self, served_forms, form):
        single, fleet, health, refused = served_forms
        # Refused at submit by both doors; the stream is not quarantined.
        assert refused[form] == [400, 400]
        assert health[form] != "quarantined"
        assert single[form] == fleet[form] == []


class TestFailover:
    def test_worker_kill_loses_no_streams_and_resumes(self):
        streams = _streams(n_streams=6, n_samples=500, pulse_t=3.5)
        registry = MetricsRegistry()
        front = FleetFront(
            MagnitudeProbeModel(),
            # worker_timeout_s is deliberately huge: on a loaded 1-core
            # box a legitimate round can take seconds, and a spurious
            # hang-timeout would kill shard 1 before the explicit SIGKILL
            # does, breaking the crashes==1 accounting. Crash detection
            # goes through the dead-process short-circuit, not the
            # timeout, so the large value costs nothing here.
            FleetConfig(n_shards=2, serve=_serve_config(),
                        worker_timeout_s=120.0, restart_initial_s=0.02,
                        alerts=AlertConfig(
                            escalation=EscalationConfig(
                                confirm_window_s=1.5, confirm_detections=1,
                                auto_resolve_s=3.0),
                            dedup_horizon_s=4.0, per_stream_metrics=False)),
            registry=registry,
        )
        try:
            out = _feed(front, streams, front.pump, kill_at=2.0,
                        on_kill=lambda: front.kill_worker(1))
            for sid, det in front.drain():
                out[sid].append(det)
            report = front.close()
        finally:
            front.close()
        assert report["worker_crashes"] == 1
        assert report["worker_restarts"] >= 1
        # Every stream homed on the killed shard was re-homed.
        killed = [sid for sid in streams if zlib.crc32(sid.encode()) % 2 == 1]
        assert killed and report["rehomed_streams"] >= len(killed)
        assert report["worker_failures"] == 0
        # Zero streams lost: every session reports after the kill.
        assert set(front.stream_report()) == set(streams)
        # Detections resumed: every stream caught the post-kill pulse.
        for sid, dets in out.items():
            assert any(d.time_s >= 3.0 for d in dets), sid
        # Alerts still page after the failover.
        assert report["alerts"]["raised"] > 0
        # The restart outage backlogs without shedding, and redelivery
        # covers the lost round.
        assert report["shed_samples"] == 0
        assert report["redelivered_samples"] > 0
        assert report["max_queue_depth"] <= front.config.serve.queue_capacity
        assert registry.counter("fleet/worker_restarts").value >= 1
        # Recovery shows in the merged exposition, which passes the lint.
        exposition = render_exposition(registry)
        assert (f"repro_fleet_worker_restarts {report['worker_restarts']}"
                in exposition)
        assert "repro_fleet_worker_crashes 1" in exposition
        assert "repro_fleet_window_latency_ms_bucket" in exposition
        assert "repro_fleet_round_ms_bucket" in exposition
        assert check_exposition(exposition) == []

    def test_killed_workers_block_round_is_redelivered(self):
        """A worker SIGKILLed with a block round in flight never answers
        it: the round's rows go back to the head of the shard's buffer
        in order, and the restarted worker serves them."""
        accel, gyro, t = _streams(n_streams=1, n_samples=400)["s000"]
        front = FleetFront(
            MagnitudeProbeModel(),
            FleetConfig(n_shards=1, serve=_serve_config(),
                        worker_timeout_s=120.0, restart_initial_s=0.02),
            registry=MetricsRegistry(),
        )
        try:
            assert front.submit_block("s000", accel[:200], gyro[:200],
                                      t[:200]) == 200
            shard = front._shards[0]
            send = shard.conn.send
            sent = []

            def kill_then_send(message):
                shard.process.kill()
                shard.process.join(timeout=5.0)
                sent.append(message)
                send(message)

            shard.conn.send = kill_then_send
            assert front.pump() == []
            assert sent[0][0] == "round" and sent[0][4].shape == (200, 7)
            assert front.worker_crashes == 1
            assert front.redelivered_samples == 200
            assert ([row[6] for row in shard.queues["s000"]]
                    == t[:200].tolist())
            front.submit_block("s000", accel[200:], gyro[200:], t[200:])
            detections = front.drain()
            report = front.close()
        finally:
            front.close()
        assert report["worker_restarts"] == 1
        assert front.shard_reports()[0]["samples_in"] == 400
        assert set(front.stream_report()) == {"s000"}
        assert any(d.time_s >= 2.0 for _, d in detections)

    def test_failover_resumes_the_acknowledged_clock(self):
        """A worker SIGKILLed with its second round in flight: the
        rebuilt sessions resume at the last timestamp a worker
        acknowledged, so the redelivered rows continue each stream's
        clock and no clean stream reads a backwards one."""
        streams = _streams(n_streams=3, n_samples=400)
        registry = MetricsRegistry()
        front = FleetFront(
            MagnitudeProbeModel(),
            FleetConfig(n_shards=1,
                        serve=ServeConfig(detector=DET,
                                          per_stream_metrics=True),
                        worker_timeout_s=120.0, restart_initial_s=0.02),
            registry=registry,
        )
        try:
            for lo, hi in ((0, 100), (100, 200)):
                for sid, (accel, gyro, t) in streams.items():
                    front.submit_block(sid, accel[lo:hi], gyro[lo:hi],
                                       t[lo:hi])
                if lo:
                    shard = front._shards[0]
                    send = shard.conn.send

                    def kill_then_send(message):
                        shard.process.kill()
                        shard.process.join(timeout=5.0)
                        send(message)

                    shard.conn.send = kill_then_send
                front.pump()
            assert front.worker_crashes == 1
            assert front.redelivered_samples == 300
            for sid, (accel, gyro, t) in streams.items():
                front.submit_block(sid, accel[200:], gyro[200:], t[200:])
            front.drain()
            report = front.close()
        finally:
            front.close()
        assert report["worker_restarts"] == 1
        assert set(front.stream_report()) == set(streams)
        for sid in streams:
            assert registry.counter(
                f"serve/stream/{sid}/clock_anomalies").value == 0, sid

    def test_rehomed_detector_reports_interruption_then_recovers(self):
        # The unit-level core of degraded-then-healthy: a rebuilt session
        # seeded with note_interruption starts degraded and recovers
        # after the configured clean streak, like any mid-stream fault.
        from detector_oracle import ScalarDetector

        from repro.core.detector import FallDetector

        rng = np.random.default_rng(3)
        n = DET.recovery_samples + 2
        # Plausible idle telemetry: gravity plus noise (exact zeros on the
        # gyro would trip the gyro-dead standing fault).
        accel = np.array([0.0, 0.0, 1.0]) + rng.normal(0, 0.01, (n, 3))
        gyro = rng.normal(0, 1.0, (n, 3))
        t = 1.5 + np.arange(n) / DET.fs
        transitions = []
        for cls in (ScalarDetector, FallDetector):
            detector = cls(MagnitudeProbeModel(), DET,
                           registry=MetricsRegistry())
            detector.note_interruption(last_t=1.0)
            assert detector.health == "degraded"
            for i in range(n):
                detector.push_block(accel[i:i + 1], gyro[i:i + 1],
                                    t[i:i + 1])
            assert detector.health == "healthy"
            transitions.append(detector.health_transitions)
        assert transitions[1] == transitions[0]

    def test_hang_detection_times_out_and_restarts(self):
        registry = MetricsRegistry()
        front = FleetFront(
            MagnitudeProbeModel(),
            FleetConfig(n_shards=1, serve=_serve_config(),
                        worker_timeout_s=0.3, restart_initial_s=0.02),
            registry=registry,
        )
        try:
            front.submit("h0", (0, 0, 1), (0, 0, 0), t=0.0)
            assert front.hang_worker(0, seconds=30.0)
            front.pump()                       # round times out
            assert front.worker_timeouts == 1
            assert front.redelivered_samples == 1
            deadline = time.monotonic() + 20.0
            while front.worker_restarts == 0 and time.monotonic() < deadline:
                front.pump()
                time.sleep(0.005)
            assert front.worker_restarts == 1
            assert front.live_shards == [0]
        finally:
            front.close()

    def test_evacuation_onto_a_restarting_shard_waits_for_its_restart(self):
        """A shard fails permanently while its only survivor is down
        awaiting restart: its streams and buffered rows move onto the
        survivor's roster, and the survivor's restart adopts them,
        counting each rebuilt session once."""
        front = FleetFront(
            MagnitudeProbeModel(),
            FleetConfig(n_shards=2, serve=_serve_config(),
                        worker_timeout_s=120.0, restart_initial_s=0.01,
                        max_restarts=1),
            registry=MetricsRegistry(),
        )

        def crash(index):
            front.kill_worker(index)
            front._shards[index].process.join(timeout=5.0)
            assert front.heartbeat() == [index]

        try:
            sids = [f"s{i:03d}" for i in range(8)]
            crash(1)
            deadline = time.monotonic() + 20.0
            while not front._shards[1].up and time.monotonic() < deadline:
                front._restart_due(time.monotonic())
                time.sleep(0.005)
            for sid in sids:
                assert front.submit(sid, (0.0, 0.0, 1.0), (0.0, 0.0, 0.0),
                                    t=0.0)
            rehomed = front.rehomed_streams
            crash(0)                        # down, restart scheduled
            crash(1)                        # restart budget spent
            assert front._shards[1].failed
            assert sorted(front.stream_ids) == sids
            assert set(front._shards[0].queues) == set(sids)
            front.drain()
            front.close()
        finally:
            front.close()
        assert front.dropped_samples == 0
        assert set(front.stream_report()) == set(sids)
        assert front.shard_reports()[0]["samples_in"] == len(sids)
        # Shard 0's restart rebuilt all 8 sessions, the evacuated ones
        # among them; nothing else was re-homed.
        assert front.rehomed_streams - rehomed == len(sids)

    def test_heartbeat_detects_dead_worker(self, front):
        assert front.heartbeat() == []
        front._shards[1].process.kill()
        front._shards[1].process.join(timeout=5.0)
        assert front.heartbeat() == [1]
        assert front.worker_crashes == 1


class TestPipeFormat:
    def test_round_is_one_float64_block_plus_runs(self, front):
        """Regression guard on the fleet hop: a round carries its samples
        as one ``(rows, 7)`` float64 array and one ``(stream, length)``
        run per stream, never one Python object per sample."""
        sent = []
        for shard in front._shards:
            def spy(message, send=shard.conn.send):
                sent.append(message)
                send(message)
            shard.conn.send = spy
        streams = _streams(n_streams=6, n_samples=4 * HOP)
        for sid, (accel, gyro, t) in streams.items():
            if sid == "s005":
                front.submit_block(sid, accel, gyro, None)
                continue
            for i in range(len(t)):
                front.submit(sid, accel[i], gyro[i], t[i] if i % 3 else None)
        front.pump()
        rounds = [m for m in sent if m[0] == "round"]
        assert len(rounds) == 2
        served = {}
        for message in rounds:
            assert len(message) == 5
            _, _, run_sids, run_lens, block = message
            assert type(block) is np.ndarray
            assert block.dtype == np.float64 and block.ndim == 2
            assert block.shape[1] == 7 and block.flags.c_contiguous
            # One run per stream: its rows went in back to back.
            assert sorted(run_sids) == sorted(set(run_sids))
            assert all(type(sid) is str for sid in run_sids)
            assert all(type(n) is int for n in run_lens)
            assert sum(run_lens) == len(block)
            # The raw buffer is 56 bytes a row; the runs and the framing
            # add a few bytes per stream, not per sample.
            assert (len(pickle.dumps(message))
                    <= 56 * len(block) + 16 * len(run_sids) + 256)
            for sid, lo, n in zip(run_sids, np.cumsum([0, *run_lens]),
                                  run_lens):
                served[sid] = block[lo:lo + n]
        assert sorted(served) == sorted(streams)
        for sid, (accel, gyro, t) in streams.items():
            rows = served[sid]
            np.testing.assert_array_equal(rows[:, :3], accel)
            np.testing.assert_array_equal(rows[:, 3:6], gyro)
            missing = (np.ones(len(t), bool) if sid == "s005"
                       else np.arange(len(t)) % 3 == 0)
            assert np.isnan(rows[missing, 6]).all()
            np.testing.assert_array_equal(rows[~missing, 6], t[~missing])

    def test_round_robin_submits_give_one_run_per_stream(self, front):
        """Per-sample submits interleaved across streams still ship one
        run per stream per round, in the order the shard admitted them."""
        sent = []
        for shard in front._shards:
            def spy(message, send=shard.conn.send):
                sent.append(message)
                send(message)
            shard.conn.send = spy
        streams = _streams(n_streams=6, n_samples=2 * HOP)
        for lo in (0, HOP):
            for i in range(lo, lo + HOP):
                for sid, (accel, gyro, t) in streams.items():
                    front.submit(sid, accel[i], gyro[i], t[i])
            front.pump()
        rounds = [m for m in sent if m[0] == "round"]
        assert len(rounds) == 4
        for _, _, run_sids, run_lens, block in rounds:
            homed = [sid for sid in streams
                     if front.shard_for(sid) == front.shard_for(run_sids[0])]
            assert run_sids == homed
            assert run_lens == [HOP] * len(homed)
            assert len(block) == HOP * len(homed)

    def test_round_reply_is_ok_seq_results(self, front):
        """A shard answers a round with ``("ok", seq, results)`` and
        nothing else: the detections with each stream's health."""
        replies = []
        recv = front._recv

        def spy(shard):
            reply, timed_out = recv(shard)
            replies.append(reply)
            return reply, timed_out
        front._recv = spy
        streams = _streams(n_streams=6)
        for sid, (accel, gyro, t) in streams.items():
            front.submit_block(sid, accel, gyro, t)
        front.pump()
        rounds = [r for r in replies if r[0] == "ok"]
        assert len(rounds) == 2
        found = []
        for reply in rounds:
            assert len(reply) == 3
            _, seq, results = reply
            assert type(seq) is int and type(results) is list
            for stream_id, detection, health in results:
                assert stream_id in streams and health in HEALTH_STATES
                found.append(detection)
        assert found and all(type(d) is Detection for d in found)


class _SpanningProbe(MagnitudeProbeModel):
    """Probe model that records a parent/child span pair per predict,
    so shipped-back worker spans carry in-batch parent links."""

    def predict(self, x):
        with span("probe/predict"):
            with span("probe/score"):
                return super().predict(x)


class TestShipBack:
    def test_close_merges_worker_metrics_and_latency(self):
        streams = _streams(n_streams=4, n_samples=300)
        registry = MetricsRegistry()
        front = FleetFront(
            MagnitudeProbeModel(),
            FleetConfig(n_shards=2, serve=_serve_config()),
            registry=registry,
        )
        try:
            _feed(front, streams, front.pump)
            front.drain()
        finally:
            report = front.close()
        names = {e["name"] for e in registry.entries()}
        # Worker-side engine metrics arrived via merge_entries ...
        assert "serve/windows_inferred" in names
        assert "fleet/window_latency_ms" in names
        # ... and the merged latency equals the sum of shard reports.
        windows = sum(r["windows_inferred"]
                      for r in front.shard_reports().values())
        assert front.fleet_latency().summary()["count"] == windows
        assert windows > 0
        assert report["rounds"] > 0
        assert len(front.shard_reports()) == 2

    def test_close_adopts_worker_spans_with_parent_links(self, caplog):
        streams = _streams(n_streams=4, n_samples=300)
        enable_tracing()
        clear_trace()
        try:
            front = FleetFront(
                _SpanningProbe(),
                FleetConfig(n_shards=2, serve=_serve_config()),
                registry=MetricsRegistry(),
            )
            try:
                _feed(front, streams, front.pump)
                front.drain()
            finally:
                with caplog.at_level(logging.DEBUG, logger="repro"):
                    front.close()
            records = get_collector().records()
        finally:
            disable_tracing()
            clear_trace()
        assert not caplog.records
        by_id = {r.span_id: r for r in records}
        assert len(by_id) == len(records)
        outer = [r for r in records if r.name == "probe/predict"]
        inner = [r for r in records if r.name == "probe/score"]
        assert outer and len(inner) == len(outer)
        for record in inner:
            assert by_id[record.parent_id].name == "probe/predict"
