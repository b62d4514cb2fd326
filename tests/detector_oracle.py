"""The per-sample reference pipeline: the bit-identity oracle for ingest.

:class:`ScalarDetector` is a :class:`~repro.core.detector.FallDetector`
whose ``push``/``push_collect``/``push_block`` run the original
one-sample-at-a-time chain — validate, classify the timestamp, bridge
gaps, fuse, filter, shift the ring buffer, decide — instead of the
vectorized ``push_block``.  Everything downstream of staging
(``complete``, the health machine, the fallback decision) is the
production code, so a test that drives both classes over the same
samples checks exactly the ingest path: staged window bytes,
detections, health transitions, counters, the sample clock and the
flight-recorder event stream.

The oracle's ``push_block`` is the per-sample ``push_collect`` loop with
the staged requests returned for completion after the block — the
contract the production ``push_block`` is specified against.  Its
inline ``push`` runs each due window through the model before the next
sample, so window and CNN-decision events land ahead of that sample's
``sample`` event, and a completion that sheds the CNN mid-fill takes
effect at once; the production ``push`` defers both to the end of its
one-row block.
"""

from __future__ import annotations

import math

import numpy as np

from repro.core.detector import (
    _REPAIR_DEFAULTS,
    FallDetector,
    MagnitudeFallback,
)
from repro.signal.filters import OnlineSosFilter
from repro.signal.orientation import ComplementaryFilter

__all__ = ["ScalarDetector", "feed"]


class ScalarDetector(FallDetector):
    """:class:`FallDetector` with the per-sample reference ingest."""

    # The reference chain keeps its streaming state in plain attributes,
    # not in a lane-bank row: these shadow the bank-reading properties.
    _last_raw = None
    _buffer = None
    _filled = None
    _since_last_inference = None

    def _init_stream_state(self) -> None:
        super()._init_stream_state()
        self._buffer = np.zeros((self._window_n, 9))
        self._filled = 0
        self._since_last_inference = 0
        self._filter = OnlineSosFilter(self._bank.design.filter.sos,
                                       channels=9)
        self._fusion = ComplementaryFilter(fs=self.config.fs)

    def _init_health_state(self) -> None:
        self._dead_override = None
        self._last_raw = None           # last repaired 6-vector
        self._prev_fill_anchor = None
        self._prev_raw_exact = None
        # Exact-repeat (or non-finite) run lengths: six channels, then the
        # accel and gyro "every channel stuck or bad" runs.
        self._streaks = np.zeros(8, dtype=int)
        self._fallback = (MagnitudeFallback(fs=self.config.fs)
                          if self.config.fallback else None)
        super()._init_health_state()

    @property
    def accel_dead(self) -> bool:
        if self._dead_override is not None:
            return self._dead_override[0]
        return bool(self._streaks[6] >= self.config.dead_sensor_samples)

    @property
    def gyro_dead(self) -> bool:
        if self._dead_override is not None:
            return self._dead_override[1]
        return bool(self._streaks[7] >= self.config.dead_sensor_samples)


    # -- streaming API ----------------------------------------------------
    def push(self, accel_g, gyro_dps, t=None):
        detection, _ = self._push(accel_g, gyro_dps, t, collect=None)
        return detection

    def push_collect(self, accel_g, gyro_dps, t=None):
        return self._push(accel_g, gyro_dps, t, collect=[])

    def push_block(self, accel_g, gyro_dps, t=None):
        accel = np.asarray(accel_g, dtype=float).reshape(-1, 3)
        gyro = np.asarray(gyro_dps, dtype=float).reshape(-1, 3)
        detections, requests = [], []
        for i in range(accel.shape[0]):
            ti = None if t is None else t[i]
            hit, staged = self._push(accel[i], gyro[i], ti, collect=[])
            if hit is not None:
                detections.append(hit)
            requests.extend(staged)
        return detections, requests

    # -- the scalar chain --------------------------------------------------
    def _validate(self, accel: np.ndarray, gyro: np.ndarray):
        """Repair non-finite readings and clamp to the sensor rails.

        Returns ``(accel, gyro, anomaly)`` and feeds the stuck-channel and
        dead-sensor trackers.
        """
        cfg = self.config
        raw = np.concatenate([accel, gyro])
        exact = raw.copy()
        bad = ~np.isfinite(raw)
        anomaly = False
        if bad.any():
            if self._last_raw is not None:
                raw[bad] = self._last_raw[bad]
            else:
                raw[bad] = _REPAIR_DEFAULTS[bad]
            self.repaired_samples += 1
            self._counter("repaired_samples").inc()
            anomaly = True
        rails = self._bank.design.rails
        clipped = np.abs(raw) > rails
        if clipped.any():
            raw = np.clip(raw, -rails, rails)
            self.saturated_samples += 1
            self._counter("saturated_samples").inc()
            anomaly = True
        streaks = self._streaks.copy()
        if self._prev_raw_exact is not None:
            same = np.zeros(6, dtype=bool)
            both_finite = np.isfinite(exact) & np.isfinite(self._prev_raw_exact)
            same[both_finite] = (
                exact[both_finite] == self._prev_raw_exact[both_finite]
            )
            streaks[:6] = np.where(same | bad, streaks[:6] + 1, 0)
        self._prev_raw_exact = exact
        for s, sl in enumerate((slice(0, 3), slice(3, 6))):
            if (streaks[sl] >= 1).all() or bad[sl].all():
                streaks[6 + s] += 1
            else:
                streaks[6 + s] = 0
        self._streaks = streaks
        if (streaks[:6] >= cfg.stuck_channel_samples).any():
            anomaly = True
        self._last_raw = raw
        return raw[:3], raw[3:], anomaly

    def _handle_timestamp(self, t):
        """Classify the inter-sample interval: ``(n_fill, long_gap,
        anomaly)``.  A missing or non-finite timestamp is a clock anomaly
        (the caller advances the clock one nominal period)."""
        if self._last_t is None:
            return 0, False, False
        if t is None:
            self.clock_anomalies += 1
            self._counter("clock_anomalies").inc()
            return 0, False, True
        dt_nom = self._bank.design.dt_nom
        dt = t - self._last_t
        if dt < 0.5 * dt_nom:
            self.clock_anomalies += 1
            self._counter("clock_anomalies").inc()
            return 0, False, True
        missing = int(round(dt / dt_nom)) - 1
        if missing <= 0:
            return 0, False, False
        if dt * 1000.0 > self.config.max_gap_ms:
            return 0, True, True
        return missing, False, True

    def _reset_stream_state(self) -> None:
        self._init_stream_state()
        self.stream_resets += 1
        self._counter("stream_resets").inc()

    def _ingest(self, accel: np.ndarray, gyro: np.ndarray) -> bool:
        """Fuse, filter, scale and buffer one sample; True when a window
        inference is due (first full window, then every hop)."""
        st = self.stages
        clk = st.clock if st is not None else None
        if clk is not None:
            t0 = clk()
        euler = self._fusion.update(accel, gyro)
        if clk is not None:
            t1 = clk()
            st.add("fusion", t1 - t0)
        raw = np.concatenate([accel, gyro, euler])
        filtered = self._filter.process(raw[None, :])[0]
        if clk is not None:
            t2 = clk()
            st.add("filter", t2 - t1)
        filtered = filtered / self._bank.design.scales
        self._buffer[:-1] = self._buffer[1:]
        self._buffer[-1] = filtered
        if self._filled < self._window_n:
            self._filled += 1
            if self._filled < self._window_n:
                due = False
            else:
                self._since_last_inference = 0  # first full window
                due = True
        else:
            self._since_last_inference += 1
            if self._since_last_inference < self._bank.design.hop_n:
                due = False
            else:
                self._since_last_inference = 0
                due = True
        if clk is not None:
            st.add("window", clk() - t2)
        return due

    def _decide_sample(self, due: bool, fallback_hit: bool, time_s: float,
                       collect: list | None):
        """One sample's decision on the live ring buffer; with ``collect``
        ``None`` a staged window runs through the model inline."""
        staged = []
        st = self.stages
        if st is not None:
            t0 = st.clock()
        hit = self._decide(self._buffer if due else None, fallback_hit,
                           time_s, self._filled >= self._window_n, staged)
        if st is not None:
            st.add("decision", st.clock() - t0)
        if collect is not None:
            collect.extend(staged)
            return hit
        for request in staged:
            hit = self._run_model(request)
        return hit

    def _push(self, accel_g, gyro_dps, t, collect):
        if t is not None and not math.isfinite(t):
            t = None                    # non-finite: treated as missing
        st = self.stages
        clk = st.clock if st is not None else None
        if clk is not None:
            t0 = clk()
        accel_g = np.asarray(accel_g, dtype=float).reshape(3)
        gyro_dps = np.asarray(gyro_dps, dtype=float).reshape(3)
        n_fill, long_gap, clock_anomaly = self._handle_timestamp(t)
        accel, gyro, data_anomaly = self._validate(accel_g, gyro_dps)
        if clk is not None:
            st.add("ingest", clk() - t0)
        anomaly = data_anomaly or clock_anomaly
        detection = None
        dt_nom = self._bank.design.dt_nom
        cur = np.concatenate([accel, gyro])
        if long_gap:
            self._reset_stream_state()
            anomaly = True
        elif (n_fill and self._prev_fill_anchor is not None
              and self._last_t is not None):
            # Bridge the gap: causal interpolation between the last good
            # sample and the one that just arrived.
            prev = self._prev_fill_anchor
            delta = cur - prev
            for j in range(1, n_fill + 1):
                filler = prev + (j / (n_fill + 1)) * delta
                fill_t = self._last_t + j * dt_nom
                self._sample_index += 1
                fb = (self._fallback.push(filler[:3])
                      if self._fallback is not None else False)
                due = self._ingest(filler[:3], filler[3:])
                hit = self._decide_sample(due, fb, fill_t, collect)
                detection = detection or hit
            self.gap_filled_samples += n_fill
            self._counter("gap_filled_samples").inc(n_fill)
            anomaly = True
        self._sample_index += 1
        time_s = t if t is not None else self._sample_index / self.config.fs
        if t is not None:
            self._last_t = t
        elif self._last_t is not None:
            self._last_t = self._last_t + dt_nom
        self._prev_fill_anchor = cur
        fallback_hit = (self._fallback.push(accel)
                        if self._fallback is not None else False)
        window_due = self._ingest(accel, gyro)
        self._update_health(anomaly)
        hit = self._decide_sample(window_due, fallback_hit, time_s, collect)
        if self.recorder is not None:
            # Recorded raw values are the *incoming* ones, pre-repair, so
            # replay re-feeds exactly what the device saw.
            self.recorder.record_sample(
                [self._sample_index], [t], accel_g[None], gyro_dps[None],
                self._last_raw[None], [anomaly], [self._health],
            )
        return detection or hit, collect if collect is not None else []


def feed(detector, model, accel, gyro, t, splits, *, latency_ms=0.5):
    """Drive ``detector`` block by block (cut at ``splits``) and complete
    every staged request after its block; returns the observable trace:
    each staged window (index, time, fallback evidence, bytes), then the
    block's detections.  ``model=None`` leaves requests uncompleted."""
    trace = []
    start = 0
    for stop in list(splits) + [len(accel)]:
        tb = None if t is None else t[start:stop]
        hits, requests = detector.push_block(
            accel[start:stop], gyro[start:stop], tb)
        for req in requests:
            trace.append(("request", req.sample_index, float(req.time_s),
                          bool(req.fallback_hit), req.window.tobytes()))
            if model is not None:
                prob = float(np.asarray(
                    model.predict(req.window[None, :, :])).reshape(-1)[0])
                hit = detector.complete(req, prob, latency_ms=latency_ms)
                if hit is not None:
                    hits.append(hit)
        for h in hits:
            trace.append(("detection", h.sample_index, float(h.time_s),
                          float(h.probability), h.source))
        start = stop
    return trace
