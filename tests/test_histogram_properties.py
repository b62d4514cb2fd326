"""Property tests for ``Histogram.merge``, ``Histogram.observe`` and
``Histogram.observe_many``.

The fleet front's exactness claim — per-shard histograms shipped back at
stop and merged at the front equal one histogram observing everything —
rests on merge being an element-wise bucket sum.  These tests pin the
algebra down: associative, commutative, identity, and agreement with
single-registry observation.  Observations use exactly representable
(dyadic) floats so the ``sum`` comparisons are ``==``, not approx.
"""

import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.obs.metrics import _BISECT_MAX, Histogram, MetricsRegistry

EDGES = (0.5, 1.0, 2.0, 4.0, 8.0)


def _dyadic_values(seed: int, n: int) -> list[float]:
    """Exactly representable observations (k / 16) spanning every bucket
    including overflow; a deterministic shuffle per seed."""
    rng = random.Random(seed)
    return [rng.randrange(0, 16 * 12) / 16.0 for _ in range(n)]


def _observe_all(values) -> Histogram:
    hist = Histogram(buckets=EDGES)
    for value in values:
        hist.observe(value)
    return hist


def _equal(a: Histogram, b: Histogram) -> bool:
    return a.snapshot() == b.snapshot()


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_merge_is_commutative(seed):
    left = _dyadic_values(seed, 40)
    right = _dyadic_values(seed + 100, 25)
    ab = _observe_all(left)
    ab.merge(_observe_all(right))
    ba = _observe_all(right)
    ba.merge(_observe_all(left))
    assert _equal(ab, ba)


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_merge_is_associative(seed):
    parts = [_dyadic_values(seed + i, 20 + 7 * i) for i in range(3)]
    left = _observe_all(parts[0])
    left.merge(_observe_all(parts[1]))
    left.merge(_observe_all(parts[2]))       # (a + b) + c
    bc = _observe_all(parts[1])
    bc.merge(_observe_all(parts[2]))
    right = _observe_all(parts[0])
    right.merge(bc)                          # a + (b + c)
    assert _equal(left, right)


def test_empty_histogram_is_the_identity():
    values = _dyadic_values(7, 30)
    merged = _observe_all(values)
    merged.merge(Histogram(buckets=EDGES))
    assert _equal(merged, _observe_all(values))
    onto_empty = Histogram(buckets=EDGES)
    onto_empty.merge(_observe_all(values))
    assert _equal(onto_empty, _observe_all(values))


@pytest.mark.parametrize("n_shards", [2, 3, 5])
def test_sharded_merge_agrees_with_single_registry(n_shards):
    # The fleet invariant: observe a stream of values round-robin across
    # N per-shard registries, merge, and get byte-for-byte the histogram
    # a single registry observing everything would hold.
    values = _dyadic_values(n_shards, 120)
    single = MetricsRegistry()
    for value in values:
        single.histogram("w/lat", buckets=EDGES).observe(value)

    shards = [MetricsRegistry() for _ in range(n_shards)]
    for i, value in enumerate(values):
        shards[i % n_shards].histogram("w/lat", buckets=EDGES).observe(value)
    front = MetricsRegistry()
    for shard in shards:
        front.merge_entries(shard.entries())

    merged = front.histogram("w/lat", buckets=EDGES)
    reference = single.histogram("w/lat", buckets=EDGES)
    assert merged.snapshot() == reference.snapshot()
    assert merged.summary() == reference.summary()


def test_merge_requires_identical_edges():
    a = Histogram(buckets=EDGES)
    b = Histogram(buckets=(1.0, 2.0))
    with pytest.raises(ValueError):
        a.merge(b)


def _linear_reference(values):
    """What ``observe`` computed before it bisected: the first edge the
    value does not exceed, else the overflow bucket."""
    counts = [0] * (len(EDGES) + 1)
    lo, hi, total = float("inf"), float("-inf"), 0.0
    for value in values:
        total += value
        lo, hi = min(lo, value), max(hi, value)
        for i, edge in enumerate(EDGES):
            if value <= edge:
                counts[i] += 1
                break
        else:
            counts[-1] += 1
    return counts, len(values), total, lo, hi


def _same(a, b) -> bool:
    return a == b or (isinstance(a, float) and math.isnan(a)
                      and math.isnan(b))


_SPECIAL = st.sampled_from(
    list(EDGES) + [(a + b) / 2 for a, b in zip(EDGES, EDGES[1:])]
    + [0.0, -0.0, -1.0, -8.0, 9.0, math.inf, -math.inf, math.nan,
       math.nextafter(EDGES[0], 0.0), math.nextafter(EDGES[-1], 99.0)])


@settings(max_examples=200, deadline=None)
@given(st.lists(st.one_of(_SPECIAL, st.floats(allow_nan=True)),
                max_size=30))
def test_observe_buckets_like_a_linear_scan(values):
    """Edge values, values between edges, 0, negatives, ±inf and NaN: the
    bucket counts, count, sum, min and max equal the linear scan's, and
    NaN lands in the overflow bucket."""
    hist = _observe_all(values)
    counts, count, total, lo, hi = _linear_reference(values)
    assert hist._counts == counts
    assert hist.count == count
    assert _same(hist._sum, total)
    assert _same(hist._min, lo) and _same(hist._max, hi)


def test_nan_lands_in_the_overflow_bucket():
    hist = _observe_all([math.nan, EDGES[0], -math.inf])
    assert hist._counts == [2, 0, 0, 0, 0, 1]


def _strict(hist: Histogram) -> str:
    """The snapshot, compared to the bit: ``repr`` tells NaN and -0.0
    apart, where ``==`` would not."""
    return repr(hist.snapshot())


#: Exactly summable in any order: dyadic values (edges among them), ±0,
#: ±inf and NaN.
_DYADIC = st.one_of(
    st.integers(-32 * 16, 32 * 16).map(lambda k: k / 16.0),
    st.sampled_from(list(EDGES) + [0.0, -0.0, math.inf, -math.inf,
                                   math.nan]))


@settings(max_examples=300, deadline=None)
@given(st.lists(st.one_of(_SPECIAL, _DYADIC, st.floats(allow_nan=True)),
                max_size=3 * _BISECT_MAX),
       st.integers(0, 3 * _BISECT_MAX))
def test_observe_many_equals_observe_one_at_a_time(values, cut):
    """Any list — empty, short enough to bisect, long enough for the
    numpy binning, split into two calls anywhere — leaves the snapshot
    ``observe`` one value at a time leaves: buckets (NaN in overflow),
    count, min, max and the left-to-right sum."""
    many = Histogram(buckets=EDGES)
    many.observe_many(values[:cut])
    many.observe_many(values[cut:])
    assert _strict(many) == _strict(_observe_all(values))
    whole = Histogram(buckets=EDGES)
    whole.observe_many(values)
    assert _strict(whole) == _strict(many)


@settings(max_examples=200, deadline=None)
@given(st.lists(_DYADIC, max_size=2 * _BISECT_MAX),
       st.lists(_DYADIC, max_size=2 * _BISECT_MAX))
def test_observe_many_histograms_merge_like_one(left, right):
    """Merging two ``observe_many`` histograms equals one histogram
    observing both lists (dyadic values, so the sums are exact)."""
    merged = Histogram(buckets=EDGES)
    merged.observe_many(left)
    other = Histogram(buckets=EDGES)
    other.observe_many(right)
    merged.merge(other)
    one = Histogram(buckets=EDGES)
    one.observe_many(left + right)
    assert _strict(merged) == _strict(one)
