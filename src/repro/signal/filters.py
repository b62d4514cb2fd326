"""Butterworth low-pass filtering: first-principles design, compiled filtering.

The paper removes sensor noise with a *fourth-order Butterworth low-pass
filter at 5 Hz* before segmentation.  The design chain — analog prototype
poles, frequency pre-warping, bilinear transform, second-order-section
factorisation — and the steady-state initial conditions are derived here
from first principles; the test-suite validates them against
``scipy.signal``.  The filtering itself (``sosfilt``, the zero-phase
``sosfiltfilt`` and the streaming ``OnlineSosFilter``) runs on scipy's
compiled direct-form-II-transposed kernel and is bit-identical to
``scipy.signal.sosfilt``.

``butter_lowpass_sos`` and ``sosfilt_zi`` deliberately stay hand-rolled:
``scipy.signal.butter(..., output="sos")`` puts the whole gain in the
first section where ours normalises each section to unit DC gain (the
coefficients differ by up to 1.96), and ``scipy.signal.sosfilt_zi``
differs from ours by up to 5.6e-16.  Either swap would change every
filtered value the archived results were computed from.

The kernel is loaded lazily, on the first filtering call, and alone:
``scipy.signal``'s package init costs ~76 MiB and over a second cold,
and everything here needs one compiled extension of it.  The
``_sosfilt`` extension is loaded from its file under its canonical
module name (``scipy.signal._sosfilt``) without running
``scipy/signal/__init__.py``, so a later ``import scipy.signal`` finds
the module already loaded and reuses it; if the file cannot be found,
the package import loads it as usual.  The offline complementary
filter (:meth:`repro.signal.orientation.ComplementaryFilter.process`)
runs its recurrence on the same kernel.

All public filter functions operate on arrays shaped ``(samples,)`` or
``(samples, channels)`` and filter along axis 0.
"""

from __future__ import annotations

import importlib.machinery
import importlib.util
import sys
import threading
from pathlib import Path

import numpy as np

__all__ = [
    "butter_lowpass_sos",
    "sosfilt",
    "sosfilt_zi",
    "sosfiltfilt",
    "lowpass_filter",
    "OnlineSosFilter",
    "sosfilt_kernel",
]


_KERNEL_MODULE = "scipy.signal._sosfilt"
#: Serialises the first load: the extension initialises once a process.
_load_lock = threading.Lock()


def sosfilt_kernel():
    """scipy's compiled DF2T kernel ``_sosfilt(sos, x, zi)``, loaded on
    first use without importing the rest of ``scipy.signal``.

    ``x`` is a C-contiguous ``(signals, n)`` float64 array and ``zi`` a
    C-contiguous ``(signals, n_sections, 2)`` state; both are updated in
    place, and nothing checks their shapes.  Looked up on its module at
    every call, so a wrapped ``scipy.signal._sosfilt._sosfilt`` is seen.
    """
    module = sys.modules.get(_KERNEL_MODULE)
    if module is None:
        with _load_lock:
            module = (sys.modules.get(_KERNEL_MODULE)
                      or _load_kernel_module())
    return module._sosfilt


def _load_kernel_module():
    """Load the ``_sosfilt`` extension from its file, registered under its
    canonical name; fall back to the package import."""
    package = importlib.util.find_spec("scipy.signal")  # imports scipy only
    for folder in package.submodule_search_locations or ():
        for suffix in importlib.machinery.EXTENSION_SUFFIXES:
            path = Path(folder) / f"_sosfilt{suffix}"
            if path.is_file():
                spec = importlib.util.spec_from_file_location(
                    _KERNEL_MODULE, path)
                module = importlib.util.module_from_spec(spec)
                sys.modules[_KERNEL_MODULE] = module
                try:
                    spec.loader.exec_module(module)
                except BaseException:
                    del sys.modules[_KERNEL_MODULE]
                    raise
                return module
    return importlib.import_module(_KERNEL_MODULE)


def _analog_lowpass_poles(order: int) -> np.ndarray:
    """Poles of the normalised (1 rad/s) analog Butterworth prototype."""
    k = np.arange(1, order + 1)
    theta = np.pi * (2 * k - 1) / (2 * order) + np.pi / 2
    return np.exp(1j * theta)


def _bilinear_pole(analog_pole: complex, fs: float) -> complex:
    """Map one s-plane pole to the z-plane via the bilinear transform."""
    return (2 * fs + analog_pole) / (2 * fs - analog_pole)


def butter_lowpass_sos(order: int, cutoff_hz: float, fs: float) -> np.ndarray:
    """Design a digital Butterworth low-pass as second-order sections.

    Parameters
    ----------
    order:
        Filter order (the paper uses 4).
    cutoff_hz:
        -3 dB cutoff frequency in Hz (the paper uses 5 Hz).
    fs:
        Sampling frequency in Hz (IMU data: 100 Hz).

    Returns
    -------
    ndarray of shape ``(n_sections, 6)`` with rows ``[b0 b1 b2 1 a1 a2]``,
    the same layout as ``scipy.signal.butter(..., output='sos')``.
    """
    if order < 1:
        raise ValueError(f"order must be >= 1, got {order}")
    if not 0.0 < cutoff_hz < fs / 2.0:
        raise ValueError(
            f"cutoff must lie in (0, fs/2) = (0, {fs / 2}), got {cutoff_hz}"
        )
    # Pre-warp the cutoff so the digital filter lands exactly on cutoff_hz.
    warped = 2.0 * fs * np.tan(np.pi * cutoff_hz / fs)
    analog_poles = warped * _analog_lowpass_poles(order)
    digital_poles = np.array([_bilinear_pole(p, fs) for p in analog_poles])
    # The bilinear transform maps the order analog zeros at infinity to -1.
    n_sections = (order + 1) // 2
    sos = np.zeros((n_sections, 6))
    # Pair complex-conjugate poles (sorted for determinism: ascending |imag|).
    upper = sorted(
        (p for p in digital_poles if p.imag > 1e-12), key=lambda p: abs(p.imag)
    )
    real = sorted((p.real for p in digital_poles if abs(p.imag) <= 1e-12))
    section = 0
    if order % 2 == 1:
        # One real pole -> first-order section.
        p = real.pop()
        sos[section] = [1.0, 1.0, 0.0, 1.0, -p, 0.0]
        section += 1
    for p in upper:
        # Conjugate pair -> z^2 - 2*Re(p) z + |p|^2 denominator, zeros at -1.
        sos[section] = [1.0, 2.0, 1.0, 1.0, -2.0 * p.real, abs(p) ** 2]
        section += 1
    # Normalise overall DC gain to exactly 1.
    for row in sos:
        b_dc = row[0] + row[1] + row[2]
        a_dc = row[3] + row[4] + row[5]
        row[:3] *= a_dc / b_dc
    return sos


def _as_sos(sos) -> np.ndarray:
    """``sos`` as the C-contiguous float64 ``(n_sections, 6)`` array the
    compiled kernel requires.  The kernel checks no shapes, so the check
    lives here."""
    sos = np.ascontiguousarray(sos, dtype=float)
    if sos.ndim != 2 or sos.shape[1] != 6:
        raise ValueError(f"sos must have shape (n_sections, 6), got {sos.shape}")
    return sos


def sosfilt(sos: np.ndarray, x: np.ndarray, zi: np.ndarray | None = None):
    """Causal direct-form-II-transposed filtering along axis 0.

    ``zi`` holds per-section state of shape ``(n_sections, 2, channels)``;
    pass the state returned by a previous call to continue a stream.
    Returns ``(y, zf)``; output and state are bit-identical to
    ``scipy.signal.sosfilt(sos, x, axis=0, zi=zi)``, whose compiled kernel
    this calls directly (skipping the public function's per-call shape
    bookkeeping).
    """
    _sosfilt = sosfilt_kernel()
    sos = _as_sos(sos)
    x = np.asarray(x, dtype=float)
    squeeze = x.ndim == 1
    if squeeze:
        x = x[:, None]
    n_sections = sos.shape[0]
    channels = x.shape[1]
    if zi is None:
        state = np.zeros((channels, n_sections, 2))
    else:
        zi = np.asarray(zi, dtype=float)
        if zi.shape != (n_sections, 2, channels):
            raise ValueError(
                f"zi must have shape {(n_sections, 2, channels)}, got {zi.shape}"
            )
        # Always a copy: the kernel updates the state in place.
        state = np.array(zi.transpose(2, 0, 1), order="C")
    y = np.array(x.T, order="C")
    _sosfilt(sos, y, state)
    zf = state.transpose(1, 2, 0)
    if squeeze:
        return y[0], zf
    return y.T, zf


def sosfilt_zi(sos: np.ndarray) -> np.ndarray:
    """Steady-state (unit step) initial conditions per section.

    Scaling this by the first input sample makes ``sosfilt`` start-up
    transient-free for signals with a DC offset — essential for IMU data,
    which always carries the 1 g gravity offset.
    Returns shape ``(n_sections, 2)``.
    """
    sos = np.asarray(sos, dtype=float)
    zi = np.zeros((sos.shape[0], 2))
    gain = 1.0
    for s, row in enumerate(sos):
        b0, b1, b2, _, a1, a2 = row
        # Solve the 2-state DF2T steady state for a constant unit input.
        #   z1 = b1 - a1*y + z2,  z2 = b2 - a2*y,  y = b0 + z1
        # => y = (b0+b1+b2)/(1+a1+a2)
        y_ss = (b0 + b1 + b2) / (1.0 + a1 + a2)
        z2 = (b2 - a2 * y_ss) * gain
        z1 = (b1 - a1 * y_ss) * gain + z2
        zi[s, 0] = z1
        zi[s, 1] = z2
        gain *= y_ss
    return zi


def _odd_ext(x: np.ndarray, n: int) -> np.ndarray:
    """Odd extension at both ends along axis 0 (scipy's filtfilt default)."""
    if n < 1:
        return x
    if n >= x.shape[0]:
        raise ValueError(
            f"signal too short ({x.shape[0]} samples) for padlen {n}"
        )
    head = 2 * x[0] - x[1 : n + 1][::-1]
    tail = 2 * x[-1] - x[-n - 1 : -1][::-1]
    return np.concatenate([head, x, tail], axis=0)


def sosfiltfilt(sos: np.ndarray, x: np.ndarray, padlen: int | None = None):
    """Zero-phase filtering: forward pass, reverse, forward, reverse.

    Uses odd extension and steady-state initial conditions like
    ``scipy.signal.sosfiltfilt``.
    """
    sos = np.asarray(sos, dtype=float)
    x = np.asarray(x, dtype=float)
    squeeze = x.ndim == 1
    if squeeze:
        x = x[:, None]
    if padlen is None:
        # scipy's default: enough samples for the edge transients to settle.
        trailing_zeros = min(
            int((sos[:, 2] == 0).sum()), int((sos[:, 5] == 0).sum())
        )
        padlen = 3 * (2 * sos.shape[0] + 1 - trailing_zeros)
    ext = _odd_ext(x, padlen)
    zi = sosfilt_zi(sos)[:, :, None]  # broadcast over channels
    y, _ = sosfilt(sos, ext, zi * ext[0])
    y, _ = sosfilt(sos, y[::-1], zi * y[-1])
    y = y[::-1]
    if padlen:
        y = y[padlen:-padlen]
    return y[:, 0] if squeeze else y


def lowpass_filter(
    x: np.ndarray, fs: float, cutoff_hz: float = 5.0, order: int = 4
) -> np.ndarray:
    """The paper's noise-removal step: zero-phase 4th-order Butterworth.

    Convenience wrapper around :func:`butter_lowpass_sos` +
    :func:`sosfiltfilt` with the paper's defaults (5 Hz cutoff, order 4).
    """
    sos = butter_lowpass_sos(order, cutoff_hz, fs)
    return sosfiltfilt(sos, x)


class OnlineSosFilter:
    """Streaming causal filter for the on-device (real-time) pipeline.

    The offline pipeline can run zero-phase filtering, but the embedded
    detector sees samples one at a time; this class keeps per-section state
    across :meth:`process` calls.  State is initialised at steady state for
    the first sample to avoid the gravity-offset start-up transient.

    The state is held as a C-contiguous ``(channels, n_sections, 2)``
    array — the compiled kernel's own layout — so each block costs one
    kernel call and no state reshuffling.
    """

    def __init__(self, sos: np.ndarray, channels: int):
        self.sos = _as_sos(sos)
        self.channels = int(channels)
        self._zi_template = sosfilt_zi(self.sos)
        self._state: np.ndarray | None = None

    def reset(self) -> None:
        """Forget all state; the next sample re-initialises it."""
        self._state = None

    def process(self, samples: np.ndarray) -> np.ndarray:
        """Filter a block of samples ``(n, channels)`` (or a single ``(channels,)``)."""
        samples = np.atleast_2d(np.asarray(samples, dtype=float))
        if self._state is None:
            self._state = np.full(
                (self.channels,) + self._zi_template.shape, np.nan)
        return self.process_lanes(self._state[None], samples[None])[0]

    def process_lanes(self, state: np.ndarray,
                      samples: np.ndarray) -> np.ndarray:
        """:meth:`process` for many streams in one kernel call, their
        state held by the caller.

        ``state`` stacks one filter state per stream as ``(lanes,
        channels, n_sections, 2)`` — the kernel's own layout, advanced in
        place — and ``samples`` one block per stream as ``(lanes, n,
        channels)``.  A lane whose state is non-finite (NaN: never
        primed) is primed, or self-healed, from its first sample exactly
        as :meth:`process` would.  The kernel filters every signal row
        independently, so outputs and states are bit-identical to one
        :meth:`process` call per lane.
        """
        lanes, n, channels = samples.shape
        if channels != self.channels:
            raise ValueError(
                f"expected {self.channels} channels, got {channels}")
        flat = state.reshape((lanes * channels,) + self._zi_template.shape)
        if np.count_nonzero(np.isfinite(flat)) != flat.size:
            healthy = np.isfinite(state.reshape(lanes, -1)).all(axis=1)
            for lane in np.flatnonzero(~healthy).tolist():
                state[lane] = (self._zi_template
                               * samples[lane, 0][:, None, None])
        # Always a copy: the kernel filters in place.
        y = np.array(samples.transpose(0, 2, 1), order="C")
        sosfilt_kernel()(self.sos, y.reshape(lanes * channels, n), flat)
        return y.transpose(0, 2, 1)
