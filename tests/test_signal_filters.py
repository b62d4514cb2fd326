"""Butterworth design and filtering, validated against scipy.signal."""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import signal as scipy_signal

from repro.signal.filters import (
    OnlineSosFilter,
    butter_lowpass_sos,
    lowpass_filter,
    sosfilt,
    sosfilt_zi,
    sosfiltfilt,
)
from repro.signal.orientation import ComplementaryFilter, accel_inclination


class TestDesign:
    @pytest.mark.parametrize("order", [1, 2, 3, 4, 5, 6, 8])
    def test_frequency_response_matches_scipy(self, order):
        ours = butter_lowpass_sos(order, 5.0, 100.0)
        reference = scipy_signal.butter(order, 5.0, fs=100.0, output="sos")
        w, h_ours = scipy_signal.sosfreqz(ours, 512, fs=100.0)
        _, h_ref = scipy_signal.sosfreqz(reference, 512, fs=100.0)
        np.testing.assert_allclose(np.abs(h_ours), np.abs(h_ref), atol=1e-12)

    def test_dc_gain_is_exactly_one(self):
        sos = butter_lowpass_sos(4, 5.0, 100.0)
        for row in sos:
            assert row[:3].sum() == pytest.approx(row[3:].sum(), abs=1e-14)

    def test_cutoff_is_minus_3db(self):
        sos = butter_lowpass_sos(4, 5.0, 100.0)
        w, h = scipy_signal.sosfreqz(sos, worN=[5.0], fs=100.0)
        assert 20 * np.log10(abs(h[0])) == pytest.approx(-3.0103, abs=0.01)

    def test_invalid_parameters_rejected(self):
        with pytest.raises(ValueError):
            butter_lowpass_sos(0, 5.0, 100.0)
        with pytest.raises(ValueError):
            butter_lowpass_sos(4, 60.0, 100.0)  # above Nyquist
        with pytest.raises(ValueError):
            butter_lowpass_sos(4, 0.0, 100.0)


def _scipy_pass(sos, x, zi=None):
    """One public ``scipy.signal.sosfilt`` pass along axis 0 -> (y, zf)."""
    if zi is None:
        zi = np.zeros((sos.shape[0], 2, x.shape[1]))
    return scipy_signal.sosfilt(sos, x, axis=0, zi=zi)


class TestSosfilt:
    def test_matches_scipy_exactly(self):
        rng = np.random.default_rng(0)
        x = rng.normal(size=(400, 3)) + 2.0
        sos = butter_lowpass_sos(4, 5.0, 100.0)
        ours, ours_zf = sosfilt(sos, x)
        theirs, theirs_zf = _scipy_pass(sos, x)
        assert np.array_equal(ours, theirs)
        assert np.array_equal(ours_zf, theirs_zf)

    def test_state_continuation_equals_one_shot(self):
        rng = np.random.default_rng(1)
        x = rng.normal(size=(300, 2))
        sos = butter_lowpass_sos(4, 5.0, 100.0)
        first, state = sosfilt(sos, x[:120])
        second, zf = sosfilt(sos, x[120:], state)
        full, full_zf = _scipy_pass(sos, x)
        assert np.array_equal(np.concatenate([first, second]), full)
        assert np.array_equal(zf, full_zf)

    def test_caller_state_is_not_modified(self):
        sos = butter_lowpass_sos(4, 5.0, 100.0)
        zi = sosfilt_zi(sos)[:, :, None] * np.array([1.0])
        before = zi.copy()
        sosfilt(sos, np.ones((10, 1)) * 3.0, zi)
        assert np.array_equal(zi, before)

    def test_zi_matches_scipy(self):
        sos = butter_lowpass_sos(4, 5.0, 100.0)
        np.testing.assert_allclose(sosfilt_zi(sos),
                                   scipy_signal.sosfilt_zi(sos), atol=1e-12)

    def test_steady_state_passes_constant_unchanged(self):
        sos = butter_lowpass_sos(4, 5.0, 100.0)
        x = np.full((100, 1), 3.7)
        zi = sosfilt_zi(sos)[:, :, None] * x[0]
        y, _ = sosfilt(sos, x, zi)
        np.testing.assert_allclose(y, x, atol=1e-10)

    def test_1d_input_round_trip(self):
        x = np.random.default_rng(2).normal(size=200)
        sos = butter_lowpass_sos(2, 5.0, 100.0)
        y, _ = sosfilt(sos, x)
        assert y.shape == x.shape

    def test_bad_state_shape_rejected(self):
        sos = butter_lowpass_sos(4, 5.0, 100.0)
        with pytest.raises(ValueError, match="zi"):
            sosfilt(sos, np.zeros((10, 2)), np.zeros((1, 2, 2)))

    def test_bad_sos_shape_rejected(self):
        with pytest.raises(ValueError, match="sos"):
            sosfilt(np.ones((2, 5)), np.zeros((10, 2)))
        with pytest.raises(ValueError, match="sos"):
            OnlineSosFilter(np.ones(6), channels=2)


class TestFiltfilt:
    @pytest.mark.parametrize("order", [2, 4])
    def test_matches_scipy(self, order):
        rng = np.random.default_rng(3)
        x = rng.normal(size=(500, 2)) + 5.0
        sos = butter_lowpass_sos(order, 5.0, 100.0)
        ours = sosfiltfilt(sos, x)
        theirs = scipy_signal.sosfiltfilt(sos, x, axis=0)
        np.testing.assert_allclose(ours, theirs, atol=1e-9)

    def test_zero_phase_preserves_slow_sine_position(self):
        fs = 100.0
        t = np.arange(600) / fs
        x = np.sin(2 * np.pi * 1.0 * t)
        y = lowpass_filter(x, fs)
        # Peak position must not shift (zero phase); inspect one period so
        # equal-height peaks cannot alias the argmax.
        assert abs(int(np.argmax(y[100:200])) - int(np.argmax(x[100:200]))) <= 2

    def test_attenuates_high_frequency(self):
        fs = 100.0
        t = np.arange(1000) / fs
        slow = np.sin(2 * np.pi * 1.0 * t)
        fast = np.sin(2 * np.pi * 25.0 * t)
        y = lowpass_filter(slow + fast, fs)
        residual = y - slow
        # 25 Hz through a 4th-order 5 Hz low-pass: > 50 dB down.
        assert np.abs(residual[100:-100]).max() < 0.02

    def test_too_short_signal_rejected(self):
        sos = butter_lowpass_sos(4, 5.0, 100.0)
        with pytest.raises(ValueError, match="too short"):
            sosfiltfilt(sos, np.zeros(5))

    @given(offset=st.floats(-10, 10))
    @settings(max_examples=20, deadline=None)
    def test_dc_offset_preserved(self, offset):
        x = np.full(200, offset)
        y = lowpass_filter(x, 100.0)
        np.testing.assert_allclose(y, x, atol=1e-8)


class TestOnlineFilter:
    def test_streaming_equals_batch_causal(self):
        rng = np.random.default_rng(4)
        x = rng.normal(size=(250, 9)) + 1.0
        sos = butter_lowpass_sos(4, 5.0, 100.0)
        online = OnlineSosFilter(sos, channels=9)
        streamed = np.vstack([online.process(x[i]) for i in range(len(x))])
        # Reference: causal filtering with first-sample steady-state init.
        zi = sosfilt_zi(sos)[:, :, None] * x[0]
        reference, reference_zf = _scipy_pass(sos, x, zi)
        assert np.array_equal(streamed, reference)
        assert np.array_equal(online._state.transpose(1, 2, 0), reference_zf)

    def test_no_startup_transient_on_constant(self):
        sos = butter_lowpass_sos(4, 5.0, 100.0)
        online = OnlineSosFilter(sos, channels=3)
        sample = np.array([0.0, 0.0, 1.0])
        for _ in range(10):
            y = online.process(sample)
        np.testing.assert_allclose(y[0], sample, atol=1e-10)

    def test_reset_forgets_state(self):
        sos = butter_lowpass_sos(4, 5.0, 100.0)
        online = OnlineSosFilter(sos, channels=1)
        online.process(np.array([5.0]))
        online.reset()
        y = online.process(np.array([1.0]))
        np.testing.assert_allclose(y[0], [1.0], atol=1e-10)

    def test_channel_mismatch_rejected(self):
        online = OnlineSosFilter(butter_lowpass_sos(2, 5.0, 100.0), channels=3)
        with pytest.raises(ValueError, match="channels"):
            online.process(np.zeros((4, 2)))


class TestWarmUp:
    """Steady-state priming: the filter must start (and restart after a
    stream reset) transient-free on DC-offset signals like gravity."""

    def _filter(self, channels=3):
        return OnlineSosFilter(butter_lowpass_sos(4, 5.0, 100.0),
                               channels=channels)

    def test_primed_tracks_state_lifecycle(self):
        online = self._filter()
        assert not online.primed
        online.process(np.ones(3))
        assert online.primed
        online.reset()
        assert not online.primed
        online.reprime(np.ones(3))
        assert online.primed

    def test_reset_then_constant_passes_transient_free(self):
        online = self._filter(channels=1)
        rng = np.random.default_rng(0)
        online.process(rng.normal(size=(100, 1)))   # a noisy first life
        online.reset()
        y = online.process(np.full((30, 1), 2.5))
        np.testing.assert_allclose(y, 2.5, atol=1e-10)

    def test_reprime_skips_the_post_gap_transient(self):
        online = self._filter(channels=1)
        online.process(np.full((50, 1), 5.0))       # settled at 5
        # After a long gap the stream resumes at a very different level;
        # without re-priming the old state would ring for many samples.
        online.reprime(np.array([1.0]))
        y = online.process(np.full((20, 1), 1.0))
        np.testing.assert_allclose(y, 1.0, atol=1e-10)

    def test_nonfinite_state_self_heals(self):
        online = self._filter(channels=1)
        online.process(np.array([np.nan]))          # poisons the IIR state
        assert not np.isfinite(online._state).all()
        y = online.process(np.full((10, 1), 1.5))
        np.testing.assert_allclose(y, 1.5, atol=1e-10)

    @given(seed=st.integers(0, 2**32 - 1))
    @settings(max_examples=25, deadline=None)
    def test_priming_is_transient_free_for_any_dc_level(self, seed):
        rng = np.random.default_rng(seed)
        level = rng.uniform(-20.0, 20.0, size=9)
        online = self._filter(channels=9)
        y = online.process(np.tile(level, (15, 1)))
        np.testing.assert_allclose(y, np.tile(level, (15, 1)), atol=1e-8)


_STREAM_OP = st.one_of(
    # (op, rows, NaN row index — outside the block means no NaN)
    st.tuples(st.just("process"), st.integers(1, 30), st.integers(-1, 40)),
    st.tuples(st.just("reset"), st.just(0), st.just(-1)),
    st.tuples(st.just("reprime"), st.just(0), st.just(-1)),
)


class TestOnlineMatchesScipy:
    """``OnlineSosFilter`` against public ``scipy.signal.sosfilt``: each
    primed segment of a stream — from a first sample, a ``reprime`` or a
    non-finite self-heal up to the next restart — equals one scipy pass
    over that segment bit for bit, in output and in state.  Also pins the
    private compiled kernel the filter calls to the public API."""

    @given(seed=st.integers(0, 2**32 - 1),
           ops=st.lists(_STREAM_OP, min_size=1, max_size=25))
    @settings(max_examples=60, deadline=None)
    def test_every_primed_segment_is_one_scipy_pass(self, seed, ops):
        rng = np.random.default_rng(seed)
        channels = 9
        sos = butter_lowpass_sos(4, 5.0, 100.0)
        template = sosfilt_zi(sos)[:, :, None]
        online = OnlineSosFilter(sos, channels=channels)
        zi = None       # the expected segment's initial state
        rows = []       # the expected segment's input so far
        for op, n, nan_row in ops:
            if op == "reset":
                online.reset()
                zi, rows = None, []
                continue
            if op == "reprime":
                sample = rng.normal(size=channels) * 5.0
                online.reprime(sample)
                zi, rows = template * sample, []
                continue
            block = rng.normal(size=(n, channels)) * 5.0 + 9.81
            if nan_row < n:
                block[nan_row, rng.integers(0, channels)] = np.nan
            if zi is not None and rows:
                _, zf = _scipy_pass(sos, np.vstack(rows), zi)
                if not np.isfinite(zf).all():
                    zi = None   # poisoned: the filter must self-heal
            if zi is None:
                zi, rows = template * block[0], []
            rows.append(block)
            y = online.process(block)
            expected, zf = _scipy_pass(sos, np.vstack(rows), zi)
            assert np.array_equal(y, expected[-n:], equal_nan=True)
            assert np.array_equal(online._state.transpose(1, 2, 0), zf,
                                  equal_nan=True)


class TestKernelOnly:
    """The filters load scipy's ``_sosfilt`` extension alone, not the
    ``scipy.signal`` package (~76 MiB)."""

    def test_detector_run_and_fusion_leave_scipy_signal_unloaded(self):
        code = (
            "import sys\n"
            "import numpy as np\n"
            "from repro.core.detector import DetectorConfig, FallDetector\n"
            "from repro.signal.filters import butter_lowpass_sos, sosfilt\n"
            "from repro.signal.orientation import ComplementaryFilter\n"
            "class Zero:\n"
            "    def predict(self, x):\n"
            "        return np.zeros((len(x), 1))\n"
            "rng = np.random.default_rng(0)\n"
            "accel = rng.normal(0, 0.05, (300, 3)) + [0.0, 0.0, 1.0]\n"
            "gyro = rng.normal(0, 5.0, (300, 3))\n"
            "t = np.arange(300) / 100.0\n"
            "FallDetector(Zero(), DetectorConfig()).run(accel, gyro, t)\n"
            "ComplementaryFilter().process(accel, gyro)\n"
            "sos = butter_lowpass_sos(4, 5.0, 100.0)\n"
            "ours, _ = sosfilt(sos, gyro)\n"
            "loaded = sorted(m for m in sys.modules\n"
            "                if m.startswith('scipy.signal'))\n"
            "assert loaded == ['scipy.signal._sosfilt'], loaded\n"
            "import scipy.signal\n"           # still importable afterwards
            "theirs = scipy.signal.sosfilt(sos, gyro, axis=0)\n"
            "assert np.array_equal(ours, theirs)\n"
            "print('ok')\n"
        )
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, (
            str(Path(__file__).resolve().parents[1] / "src"),
            os.environ.get("PYTHONPATH")))))
        out = subprocess.run([sys.executable, "-c", code], env=env,
                             capture_output=True, text=True, timeout=120)
        assert out.returncode == 0, out.stderr
        assert out.stdout.split() == ["ok"]

    def test_fusion_process_matches_lfilter(self):
        """``ComplementaryFilter.process`` runs its recurrence as one
        second-order section on the compiled kernel: bit for bit
        ``lfilter([1], [1, -alpha], u, zi=[alpha * angle0])`` per
        channel, as it was computed before."""
        rng = np.random.default_rng(2026)
        for _ in range(300):
            n = int(rng.integers(1, 400))
            accel = rng.normal(0.0, 0.5, (n, 3)) + [0.0, 0.0, 1.0]
            gyro = rng.normal(0.0, 80.0, (n, 3))
            fusion = ComplementaryFilter(fs=float(rng.choice([50.0, 100.0])),
                                         tau=float(rng.uniform(0.1, 2.0)))
            got = fusion.process(accel, gyro)
            a = fusion.alpha
            pitch, roll = accel_inclination(accel)
            for col, (angle, rate) in enumerate(
                    [(pitch, gyro[:, 1]), (roll, gyro[:, 0])]):
                u = a * fusion.dt * rate + (1.0 - a) * angle
                expected = np.empty(n)
                expected[0] = angle[0]
                if n > 1:
                    expected[1:], _ = scipy_signal.lfilter(
                        [1.0], [1.0, -a], u[1:], zi=[a * angle[0]])
                assert got[:, col].tobytes() == expected.tobytes()
