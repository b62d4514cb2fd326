"""`ServeConfig.backend`: int8 serving through the quantized kernels."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.architecture import build_lightweight_cnn
from repro.core.detector import DetectorConfig, FallDetector
from repro.faults import synth_stream
from repro.obs.metrics import MetricsRegistry
from repro.quant import QuantizedModel, structured_prune
from repro.serve import ServeConfig, ServeEngine


@pytest.fixture(scope="module")
def model():
    return build_lightweight_cnn(40, seed=3)


@pytest.fixture(scope="module")
def calibration():
    rng = np.random.default_rng(0)
    return rng.normal(size=(48, 40, 9)).astype(np.float32)


def _drive(engine, n_streams=4, duration_s=2.0):
    detections = []
    streams = {f"s{i:03d}": synth_stream(i, duration_s=duration_s)
               for i in range(n_streams)}
    for stream_id, (accel, gyro, t) in streams.items():
        for i in range(len(t)):
            engine.submit(stream_id, accel[i], gyro[i], t[i])
    detections.extend(engine.step())
    return detections


class TestBackendConfig:
    def test_rejects_unknown_backend(self):
        with pytest.raises(ValueError, match="backend"):
            ServeConfig(backend="fp16")

    def test_default_is_float32(self, model):
        engine = ServeEngine(model, registry=MetricsRegistry())
        assert engine.backend == "float32"
        assert engine.report()["backend"] == "float32"
        assert engine.registry.gauge("serve/backend_int8").value == 0.0

    def test_int8_requires_calibration_or_converted_model(self, model):
        with pytest.raises(ValueError, match="calibration"):
            ServeEngine(model, ServeConfig(backend="int8"),
                        registry=MetricsRegistry())


class TestInt8Serving:
    def test_converts_once_and_labels_everything(self, model, calibration):
        engine = ServeEngine(model, ServeConfig(backend="int8"),
                             registry=MetricsRegistry(),
                             calibration=calibration)
        assert isinstance(engine.model, QuantizedModel)
        assert engine.backend == "int8"
        assert engine.registry.gauge("serve/backend_int8").value == 1.0
        _drive(engine)
        report = engine.report()
        assert report["backend"] == "int8"
        assert report["windows_inferred"] > 0
        for stream_report in engine.stream_report().values():
            assert stream_report["backend"] == "int8"

    def test_accepts_preconverted_quantized_model(self, model, calibration):
        quantized = QuantizedModel.convert(model, calibration)
        engine = ServeEngine(quantized, ServeConfig(backend="int8"),
                             registry=MetricsRegistry())
        assert engine.model is quantized

    def test_same_windows_as_float32(self, model, calibration):
        """Scheduling is backend-independent: every arm — float32, int8
        and a structurally pruned int8 graph, which also has to pass the
        engine's batch-invariance probe — stages and infers exactly the
        same windows over the same telemetry."""
        pruned, _ = structured_prune(model, 0.5)
        engines = [
            ServeEngine(model, ServeConfig(backend="float32"),
                        registry=MetricsRegistry()),
            ServeEngine(model, ServeConfig(backend="int8"),
                        registry=MetricsRegistry(),
                        calibration=calibration),
            ServeEngine(QuantizedModel.convert(pruned, calibration),
                        ServeConfig(backend="int8"),
                        registry=MetricsRegistry()),
        ]
        for engine in engines:
            _drive(engine)
        windows = {e.report()["windows_inferred"] for e in engines}
        assert len(windows) == 1 and windows.pop() > 0

    def test_probe_rejects_batch_varying_model(self, model, calibration):
        """The init-time probe catches a backend whose batched forwards
        are not bitwise batch-invariant."""
        quantized = QuantizedModel.convert(model, calibration)

        class _BatchVarying(QuantizedModel):
            def __new__(cls):
                return object.__new__(cls)

            def __init__(self):
                self.__dict__.update(quantized.__dict__)

            def predict(self, x, batch_size=512):
                out = QuantizedModel.predict(self, x, batch_size=batch_size)
                return out + (0.001 if len(x) > 1 else 0.0)

        with pytest.raises(AssertionError, match="batch-invariant"):
            ServeEngine(_BatchVarying(), ServeConfig(backend="int8"),
                        registry=MetricsRegistry())


class TestDetectorBackend:
    def test_backend_property(self, model, calibration):
        cfg = DetectorConfig()
        assert FallDetector(model, cfg,
                            registry=MetricsRegistry()).backend == "float32"
        quantized = QuantizedModel.convert(model, calibration)
        detector = FallDetector(quantized, cfg, registry=MetricsRegistry())
        assert detector.backend == "int8"
        assert detector.health_report()["backend"] == "int8"
        assert FallDetector(None, cfg,
                            registry=MetricsRegistry()).backend == "none"
