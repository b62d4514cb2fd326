"""Dataset snapshots (npz round trips) and detector vote debouncing."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.detector import DetectorConfig, FallDetector
from repro.datasets import Dataset, load_dataset, save_dataset


class TestDatasetIO:
    def test_round_trip_preserves_everything(self, tiny_selfcollected,
                                             tmp_path):
        subset = Dataset(
            tiny_selfcollected.name,
            list(tiny_selfcollected)[:6],
            frame=tiny_selfcollected.frame,
        )
        path = tmp_path / "snapshot.npz"
        save_dataset(subset, path)
        loaded = load_dataset(path)
        assert loaded.name == subset.name
        assert loaded.frame == subset.frame
        assert len(loaded) == len(subset)
        for original, restored in zip(subset, loaded):
            assert restored.subject_id == original.subject_id
            assert restored.task_id == original.task_id
            assert restored.trial == original.trial
            assert restored.fall_onset == original.fall_onset
            assert restored.impact == original.impact
            assert restored.accel_unit == original.accel_unit
            np.testing.assert_allclose(restored.accel, original.accel,
                                       atol=1e-6)
            np.testing.assert_allclose(restored.gyro, original.gyro,
                                       atol=1e-4)

    def test_round_trip_keeps_fall_annotations_usable(self, tiny_selfcollected,
                                                      tmp_path):
        falls = Dataset("falls", [r for r in tiny_selfcollected
                                  if r.is_fall][:3])
        path = tmp_path / "falls.npz"
        save_dataset(falls, path)
        for rec in load_dataset(path):
            assert rec.is_fall
            assert 0 <= rec.fall_onset < rec.impact

    def test_kfall_frame_survives(self, tiny_kfall, tmp_path):
        subset = Dataset("kf", list(tiny_kfall)[:2], frame=tiny_kfall.frame)
        path = tmp_path / "kf.npz"
        save_dataset(subset, path)
        loaded = load_dataset(path)
        assert loaded.frame == "kfall"
        assert loaded[0].accel_unit == "m/s^2"

    def test_bad_format_error_names_found_version(self, tmp_path):
        import json

        path = tmp_path / "bad.npz"
        meta = np.frombuffer(json.dumps({"format": 99}).encode(),
                             dtype=np.uint8)
        np.savez(path, meta=meta)
        with pytest.raises(ValueError, match="format 99"):
            load_dataset(path)

    def test_missing_meta_entry_rejected(self, tmp_path):
        path = tmp_path / "foreign.npz"
        np.savez(path, something=np.zeros(3))
        with pytest.raises(ValueError, match="no 'meta' entry"):
            load_dataset(path)

    def test_missing_meta_key_names_the_key(self, tmp_path):
        import json

        path = tmp_path / "partial.npz"
        meta = np.frombuffer(
            json.dumps({"format": 1, "frame": "selfcollected",
                        "recordings": []}).encode(),
            dtype=np.uint8,
        )
        np.savez(path, meta=meta)
        with pytest.raises(ValueError, match="'name'"):
            load_dataset(path)


class _SequenceModel:
    """Scripted per-inference probabilities."""

    def __init__(self, script):
        self.script = list(script)
        self.i = 0

    def predict(self, x):
        value = self.script[min(self.i, len(self.script) - 1)]
        self.i += 1
        return np.array([[value]])


class TestDetectorVoting:
    def _run(self, script, consecutive):
        cfg = DetectorConfig(window_ms=200, overlap=0.5,
                             consecutive_required=consecutive)
        detector = FallDetector(_SequenceModel(script), cfg)
        hits = []
        n = cfg.window_samples + cfg.hop_samples * (len(script) - 1)
        for _ in range(n):
            hit = detector.push(np.array([0, 0, 1.0]), np.zeros(3))
            if hit:
                hits.append(hit)
        return hits

    def test_single_vote_fires_immediately(self):
        hits = self._run([0.1, 0.9, 0.1], consecutive=1)
        assert len(hits) == 1

    def test_two_votes_suppress_isolated_spike(self):
        hits = self._run([0.1, 0.9, 0.1, 0.2], consecutive=2)
        assert hits == []

    def test_two_votes_fire_on_sustained_detection(self):
        hits = self._run([0.1, 0.9, 0.9, 0.9], consecutive=2)
        assert len(hits) >= 1
        # Fires one hop later than the single-vote detector would have.
        cfg = DetectorConfig(window_ms=200, overlap=0.5)
        assert hits[0].sample_index >= cfg.window_samples + cfg.hop_samples - 1

    def test_streak_resets_on_miss(self):
        hits = self._run([0.9, 0.1, 0.9, 0.1, 0.9, 0.1], consecutive=2)
        assert hits == []

    def test_invalid_config_rejected(self):
        with pytest.raises(ValueError):
            DetectorConfig(consecutive_required=0)
        with pytest.raises(ValueError, match="stuck_channel_samples"):
            DetectorConfig(stuck_channel_samples=0)
        with pytest.raises(ValueError, match="dead_sensor_samples"):
            DetectorConfig(dead_sensor_samples=0)
