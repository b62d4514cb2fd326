"""Euler-angle estimation from accelerometer + gyroscope.

The paper's acquisition firmware "computed on the edge the Eulerian angle
data (pitch, roll, yaw) to capture detailed movement dynamics" — i.e. a
lightweight sensor-fusion step suitable for a Cortex-M7.  We implement the
classic *complementary filter*: accelerometer-derived inclination corrects
the drift of integrated gyroscope rates, and yaw (unobservable from the
accelerometer) is pure gyro integration.

Sensor frame convention (sensor on the lower back):
``x`` forward, ``y`` left, ``z`` up, so quiet standing measures
``accel ≈ (0, 0, +1) g``.  Angles are in degrees:

* pitch — forward (+) / backward (−) lean, rotation about ``y``;
* roll  — right (+) / left (−) lean, rotation about ``x``;
* yaw   — heading, rotation about ``z``.
"""

from __future__ import annotations

import numpy as np

from .filters import sosfilt_kernel

__all__ = ["accel_inclination", "ComplementaryFilter", "estimate_euler_angles"]


def accel_inclination(accel_g: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Pitch and roll (degrees) implied by the accelerometer alone.

    Only exact while the sensor is quasi-static (gravity dominates), which
    is precisely why the complementary filter blends it with the gyro.
    """
    a = np.asarray(accel_g, dtype=float)
    if a.ndim == 1:
        a = a[None]
    ax, ay, az = a[:, 0], a[:, 1], a[:, 2]
    pitch = np.degrees(np.arctan2(ax, np.sqrt(ay**2 + az**2)))
    roll = np.degrees(np.arctan2(ay, az))
    return pitch, roll


class ComplementaryFilter:
    """First-order complementary filter producing pitch/roll/yaw.

    Parameters
    ----------
    fs:
        Sampling frequency (Hz).
    tau:
        Fusion time constant in seconds.  The blend factor is
        ``alpha = tau / (tau + dt)``: gyro dominates on short timescales,
        the accelerometer pins the long-term inclination.
    """

    def __init__(self, fs: float = 100.0, tau: float = 0.5):
        if fs <= 0 or tau <= 0:
            raise ValueError("fs and tau must be positive")
        self.fs = float(fs)
        self.dt = 1.0 / self.fs
        self.alpha = tau / (tau + self.dt)
        self._angles: np.ndarray | None = None  # (pitch, roll, yaw) degrees

    def reset(self) -> None:
        self._angles = None

    def update(self, accel_g: np.ndarray, gyro_dps: np.ndarray) -> np.ndarray:
        """Fuse one sample; returns ``[pitch, roll, yaw]`` in degrees."""
        accel_g = np.asarray(accel_g, dtype=float)
        gyro_dps = np.asarray(gyro_dps, dtype=float)
        pitch_acc, roll_acc = accel_inclination(accel_g[None, :])
        pitch_acc, roll_acc = float(pitch_acc[0]), float(roll_acc[0])
        if self._angles is None:
            # Bootstrap from the accelerometer; yaw starts at 0.
            self._angles = np.array([pitch_acc, roll_acc, 0.0])
            return self._angles.copy()
        gx, gy, gz = gyro_dps
        pitch, roll, yaw = self._angles
        # Integrate body rates (small-angle approximation, as an MCU would).
        pitch_gyro = pitch + gy * self.dt
        roll_gyro = roll + gx * self.dt
        yaw += gz * self.dt
        pitch = self.alpha * pitch_gyro + (1.0 - self.alpha) * pitch_acc
        roll = self.alpha * roll_gyro + (1.0 - self.alpha) * roll_acc
        self._angles = np.array([pitch, roll, yaw])
        return self._angles.copy()

    def update_block(self, accel_g: np.ndarray,
                     gyro_dps: np.ndarray) -> np.ndarray:
        """Fuse a block ``(n, 3)`` carrying streaming state across calls.

        Bit-identical to calling :meth:`update` once per row (see
        :meth:`advance`, which runs the block on this filter's state).
        Unlike :meth:`process`, the entry state is honoured and the exit
        state is kept for the next call.
        """
        angles = (np.full(3, np.nan) if self._angles is None
                  else np.array(self._angles, dtype=float))
        out = self.advance(angles, accel_g, gyro_dps)
        self._angles = angles
        return out

    def advance(self, angles: np.ndarray, accel_g: np.ndarray,
                gyro_dps: np.ndarray) -> np.ndarray:
        """Fuse a block ``(n, 3)`` from caller-held state: ``angles``
        ``(3,)`` (NaN: unprimed) is advanced in place; returns the
        angles ``(n, 3)``.

        The accelerometer inclination is vectorised (elementwise, so each
        row matches the per-sample call exactly) while the blend
        recurrence — inherently sequential — runs in one tight scalar
        pass using the same operation order as :meth:`update`.
        """
        accel_g = np.asarray(accel_g, dtype=float)
        n = accel_g.shape[0]
        out = np.empty((n, 3))
        if n == 0:
            return out
        pitch_acc, roll_acc = accel_inclination(accel_g)
        pa = pitch_acc.tolist()
        ra = roll_acc.tolist()
        gyro_rows = np.asarray(gyro_dps, dtype=float).tolist()
        alpha = self.alpha
        one_m_alpha = 1.0 - alpha
        dt = self.dt
        state = tuple(angles.tolist())
        if state[0] != state[0]:
            # Bootstrap from the accelerometer; yaw starts at 0.
            state = (pa[0], ra[0], 0.0)
            out[0] = state
            first = 1
        else:
            first = 0
        for i in range(first, n):
            pitch, roll, yaw = state
            gx, gy, gz = gyro_rows[i]
            state = (
                alpha * (pitch + gy * dt) + one_m_alpha * pa[i],
                alpha * (roll + gx * dt) + one_m_alpha * ra[i],
                yaw + gz * dt,
            )
            out[i] = state
        angles[0], angles[1], angles[2] = state
        return out

    def update_lanes(self, angles, accel_g, gyro_dps) -> np.ndarray:
        """:meth:`advance` lifted across streams: one time loop, all
        streams wide.

        ``angles`` ``(lanes, 3)`` holds the streams' states (NaN rows:
        unprimed) and is advanced in place; ``accel_g`` / ``gyro_dps``
        stack their blocks ``(lanes, n, 3)``.  Returns the angles
        ``(lanes, n, 3)``.

        Bit-identical to one :meth:`advance` per lane: every step runs
        ``alpha * (angle + rate * dt) + (1 - alpha) * angle_acc`` as
        elementwise ufuncs in the scalar pass's operation order (yaw rides
        along with gain 1 and blend 0, both exact), and an unprimed
        lane's first row is overwritten with the accelerometer angles and
        zero yaw.
        """
        alpha, dt = self.alpha, self.dt
        lanes, n = accel_g.shape[:2]
        out = np.empty((lanes, n, 3))
        if n == 0:
            return out
        # Operands with columns in (pitch, roll, yaw) order: the
        # accelerometer angles (yaw has none) and the gyro rates.
        acc = np.zeros((lanes, n, 3))
        pitch_acc, roll_acc = accel_inclination(accel_g.reshape(-1, 3))
        acc[:, :, 0] = pitch_acc.reshape(lanes, n)
        acc[:, :, 1] = roll_acc.reshape(lanes, n)
        step = gyro_dps[:, :, [1, 0, 2]] * dt
        blend = (1.0 - alpha) * acc
        gain = np.array([alpha, alpha, 1.0])
        boot = np.flatnonzero(np.isnan(angles[:, 0]))
        state = angles
        for i in range(n):
            np.add(state, step[:, i], out=state)
            np.multiply(state, gain, out=state)
            np.add(state, blend[:, i], out=state)
            if i == 0 and boot.size:
                state[boot] = acc[boot, 0]
            out[:, i] = state
        return out

    def process(self, accel_g: np.ndarray, gyro_dps: np.ndarray) -> np.ndarray:
        """Fuse whole aligned arrays ``(n, 3)``; returns angles ``(n, 3)``.

        Matches calling :meth:`update` sample by sample to within
        ``1e-9`` degrees, not bit for bit: the recurrence is a first-order
        IIR, evaluated here for dataset-scale speed as one compiled
        second-order section ``[1, 0, 0, 1, -alpha, 0]`` on pitch and roll
        at once (scipy's DF2T kernel, :func:`~repro.signal.filters.
        sosfilt_kernel`, bit-identical to ``lfilter([1], [1, -alpha], u,
        zi=[alpha * angle0])`` except that the section's idle second
        state can flip the sign of an exact-zero output in a run of
        exact-zero input), which computes ``alpha * angle + u`` with
        ``u`` folded ahead of time where :meth:`update` computes ``alpha
        * (angle + rate * dt) + (1 - alpha) * angle_acc``.  The two orders
        round differently: on 30 s synthetic streams nearly every row
        differs, by up to ~1e-13 degrees.  Ignores and resets any
        streaming state.
        """
        accel_g = np.asarray(accel_g, dtype=float)
        gyro_dps = np.asarray(gyro_dps, dtype=float)
        if accel_g.shape != gyro_dps.shape or accel_g.ndim != 2:
            raise ValueError(
                f"accel and gyro must both be (n, 3); got {accel_g.shape} "
                f"and {gyro_dps.shape}"
            )
        self.reset()
        n = accel_g.shape[0]
        pitch_acc, roll_acc = accel_inclination(accel_g)
        out = np.empty((n, 3))
        if n == 0:
            return out
        # angle_t = alpha * angle_{t-1} + u_t  with
        # u_t = alpha*dt*gyro_t + (1-alpha)*angle_acc_t, bootstrapped from
        # the accelerometer at t=0.
        a = self.alpha
        acc = np.stack([pitch_acc, roll_acc])               # (2, n)
        rate = np.stack([gyro_dps[:, 1], gyro_dps[:, 0]])
        u = a * self.dt * rate + (1.0 - a) * acc
        out[0, :2] = acc[:, 0]
        if n > 1:
            y = np.ascontiguousarray(u[:, 1:])             # filtered in place
            state = np.zeros((2, 1, 2))
            state[:, 0, 0] = a * acc[:, 0]
            sosfilt_kernel()(np.array([[1.0, 0.0, 0.0, 1.0, -a, 0.0]]), y,
                             state)
            out[1:, :2] = y.T
        yaw = np.cumsum(gyro_dps[:, 2]) * self.dt
        out[:, 2] = yaw - yaw[0]
        return out


def estimate_euler_angles(
    accel_g: np.ndarray, gyro_dps: np.ndarray, fs: float = 100.0, tau: float = 0.5
) -> np.ndarray:
    """One-shot Euler angle estimation for a whole recording."""
    return ComplementaryFilter(fs=fs, tau=tau).process(accel_g, gyro_dps)
