"""Build-once benchmark artifact: the trained paper CNN.

The CNN is trained at quick scale for ``TRAIN_EPOCHS`` epochs with the
scale's fixed seed, so its weights are a deterministic function of the
program's source.  They are cached with ``CALIBRATION_WINDOWS`` training
windows (for the int8 conversion) under ``.bench_build/bench-<key>/`` of
the benchmark's checkout, where ``<key>`` hashes every file of the
measured program's ``src/repro`` plus the constants below.  A missing
cache is rebuilt in a child process (``bench/run.py --prepare``), so
training never inflates the memory a workload process reports.
"""

from __future__ import annotations

import hashlib
import json
import os
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

TRAIN_SCALE = "quick"
TRAIN_EPOCHS = 2
CALIBRATION_WINDOWS = 256

_CONSTANTS = [TRAIN_SCALE, TRAIN_EPOCHS, CALIBRATION_WINDOWS]
#: The benchmark's checkout.
ROOT = Path(__file__).resolve().parent.parent


def cache_dir(program: Path) -> Path:
    """Where the artifacts of the source tree rooted at ``program``
    live."""
    digest = hashlib.sha256(json.dumps(_CONSTANTS).encode())
    for path in sorted((program / "src" / "repro").rglob("*.py")):
        digest.update(path.relative_to(program).as_posix().encode())
        digest.update(path.read_bytes())
    return ROOT / ".bench_build" / f"bench-{digest.hexdigest()[:16]}"


def ensure(program: Path) -> Path:
    """The artifact directory, built in a child process when missing."""
    directory = cache_dir(program)
    if not (directory / "meta.json").exists():
        subprocess.run(
            [sys.executable, str(ROOT / "bench" / "run.py"), "--prepare",
             "--program", str(program)],
            cwd=ROOT, check=True, timeout=900,
        )
    return directory


def weights_sha(model) -> str:
    """sha256 over every parameter array, in layer order."""
    digest = hashlib.sha256()
    for layer in model.layers:
        for value in layer.params.values():
            digest.update(np.ascontiguousarray(value).tobytes())
    return digest.hexdigest()


def build(program: Path) -> dict:
    """Train and write the artifact directory (``meta.json`` lands last
    and marks it complete)."""
    from repro.nn.serialization import save_weights

    # The experiment runners memoise datasets on disk under the user's
    # home by default; the benchmark writes only inside its checkout.
    os.environ["REPRO_CACHE"] = "0"
    directory = cache_dir(program)
    directory.mkdir(parents=True, exist_ok=True)
    t0 = time.perf_counter()
    model, calibration = _train()
    train_s = time.perf_counter() - t0
    save_weights(model, directory / "model.npz")
    np.save(directory / "calibration.npy", calibration)
    meta = {
        "weights_sha": weights_sha(model),
        "train_s": train_s,
        "train": {"scale": TRAIN_SCALE, "epochs": TRAIN_EPOCHS,
                  "calibration_windows": CALIBRATION_WINDOWS},
    }
    tmp = directory / "meta.json.tmp"
    tmp.write_text(json.dumps(meta, indent=1))
    os.replace(tmp, directory / "meta.json")
    return meta


def _train():
    from repro.core.architecture import build_lightweight_cnn
    from repro.core.detector import DetectorConfig
    from repro.core.trainer import train_model
    from repro.experiments.configs import get_scale
    from repro.experiments.runners import (
        _segments_for,
        build_experiment_dataset,
        training_config,
    )

    scale = get_scale(TRAIN_SCALE)
    detector = DetectorConfig()
    window_ms = 1000.0 * detector.window_samples / detector.fs
    segments = _segments_for(build_experiment_dataset(scale), window_ms,
                             detector.overlap)
    subjects = list(segments.subjects)
    train = segments.by_subjects(subjects[:-2])
    val = segments.by_subjects([subjects[-2]])
    config = training_config(scale, epochs=TRAIN_EPOCHS,
                             patience=TRAIN_EPOCHS)
    model, _ = train_model(build_lightweight_cnn, train, val, config)
    calibration = train.X[:CALIBRATION_WINDOWS].astype(np.float32)
    return model, calibration


def load_model(directory: Path):
    """The float CNN with the cached trained weights."""
    from repro.core.architecture import build_lightweight_cnn
    from repro.core.detector import DetectorConfig
    from repro.nn.serialization import load_weights

    model = build_lightweight_cnn(DetectorConfig().window_samples)
    load_weights(model, directory / "model.npz")
    return model


def load_meta(directory: Path) -> dict:
    return json.loads((directory / "meta.json").read_text())
