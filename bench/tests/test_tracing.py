"""Self-time arithmetic and the monkeypatch wrappers."""

import numpy as np
import pytest

from bench.tracing import Spans, Tracer, collect, installed, self_times


def test_self_time_subtracts_nested_children():
    # root [0, 10] holds [1, 3] and [4, 8]; [4, 8] holds [5, 6].
    start = [0.0, 1.0, 4.0, 5.0]
    end = [10.0, 3.0, 8.0, 6.0]
    parent = [-1, 0, 0, 2]
    assert self_times(start, end, parent).tolist() == [4.0, 2.0, 3.0, 1.0]


def test_overlapping_children_count_once_and_clip_to_their_parent():
    # [1, 5] and [3, 7] overlap (union 6); [9, 12] pokes out of [0, 10]
    # and covers only 1 of it.
    start = [0.0, 1.0, 3.0, 9.0]
    end = [10.0, 5.0, 7.0, 12.0]
    parent = [-1, 0, 0, 0]
    assert self_times(start, end, parent).tolist() == [3.0, 4.0, 4.0, 3.0]


def test_self_times_sum_to_the_roots_durations(tmp_path):
    rng = np.random.default_rng(0)
    tracer = Tracer(tmp_path)

    def nest(depth):
        with tracer.span("abc"[depth % 3]):
            for _ in range(int(rng.integers(0, 3)) if depth < 4 else 0):
                nest(depth + 1)

    for _ in range(5):
        nest(0)
    spans = Spans.from_collector(collect(tracer))
    roots = spans.parent == -1
    assert len(spans) > 5 and roots.sum() == 5
    assert (spans.self_s >= 0).all()
    assert spans.self_s.sum() == pytest.approx(
        (spans.end - spans.start)[roots].sum(), rel=1e-9)


def test_worker_spans_are_adopted_with_their_parent_links(tmp_path):
    driver, worker = Tracer(tmp_path), Tracer(tmp_path)
    with driver.span("serve.step"):
        pass
    with worker.span("serve.step"):
        with worker.span("signal.sos", items=7):
            pass
    worker.collector.export_jsonl(tmp_path / "spans-1.jsonl")
    spans = Spans.from_collector(collect(driver))
    assert spans.proc.tolist() == [0, 1, 1]
    child = spans.mask("signal.sos")
    assert spans.items[child].tolist() == [7]
    # The worker's inner span points at the worker's own outer span.
    assert spans.proc[spans.parent[child]].tolist() == [1]
    assert not list(tmp_path.glob("spans-*"))


def test_installed_records_public_calls_and_restores_the_classes(tmp_path):
    from multiprocessing.connection import Connection
    from multiprocessing.reduction import ForkingPickler

    from repro.signal.filters import OnlineSosFilter, butter_lowpass_sos

    before = (OnlineSosFilter.__dict__["process"],
              ForkingPickler.__dict__["dumps"],
              ForkingPickler.__dict__["loads"],
              "send" in Connection.__dict__)
    tracer = Tracer(tmp_path)
    with installed(tracer):
        sos_filter = OnlineSosFilter(butter_lowpass_sos(4, 5.0, 100.0), 9)
        sos_filter.process(np.zeros((5, 9)))
        payload = ForkingPickler.dumps({"x": 1})
        assert ForkingPickler.loads(payload) == {"x": 1}
    assert (OnlineSosFilter.__dict__["process"],
            ForkingPickler.__dict__["dumps"],
            ForkingPickler.__dict__["loads"],
            "send" in Connection.__dict__) == before
    spans = Spans.from_collector(collect(tracer))
    named = {spans.names[n]: int(i) for n, i in zip(spans.name, spans.items)}
    assert named["signal.sos"] == 5
    assert named["ipc.serialize"] == len(payload)
    assert named["ipc.deserialize"] == len(payload)
