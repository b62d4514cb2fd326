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

__all__ = ["accel_inclination", "ComplementaryFilter", "estimate_euler_angles"]


def accel_inclination(accel_g: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Pitch and roll (degrees) implied by the accelerometer alone.

    Only exact while the sensor is quasi-static (gravity dominates), which
    is precisely why the complementary filter blends it with the gyro.
    """
    a = np.atleast_2d(np.asarray(accel_g, dtype=float))
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

    def update_block(
        self,
        accel_g: np.ndarray,
        gyro_dps: np.ndarray,
        reset_rows=None,
    ) -> np.ndarray:
        """Fuse a block ``(n, 3)`` carrying streaming state across calls.

        Bit-identical to calling :meth:`update` once per row: the
        accelerometer inclination is vectorised (elementwise, so each row
        matches the per-sample call exactly) while the blend recurrence —
        inherently sequential — runs in one tight scalar pass using the
        same operation order as :meth:`update`.  ``reset_rows`` lists row
        indices at which to :meth:`reset` *before* fusing that row (the
        detector's long-gap stream resets).  Unlike :meth:`process`, the
        entry state is honoured and the exit state is kept for the next
        call.
        """
        accel_g = np.asarray(accel_g, dtype=float)
        gyro_dps = np.asarray(gyro_dps, dtype=float)
        n = accel_g.shape[0]
        out = np.empty((n, 3))
        if n == 0:
            return out
        pitch_acc, roll_acc = accel_inclination(accel_g)
        pa = pitch_acc.tolist()
        ra = roll_acc.tolist()
        gyro_rows = gyro_dps.tolist()
        resets = set(reset_rows) if reset_rows is not None else ()
        alpha = self.alpha
        one_m_alpha = 1.0 - alpha
        dt = self.dt
        if self._angles is None:
            state = None
        else:
            state = (float(self._angles[0]), float(self._angles[1]),
                     float(self._angles[2]))
        for i in range(n):
            if i in resets:
                state = None
            if state is None:
                # Bootstrap from the accelerometer; yaw starts at 0.
                state = (pa[i], ra[i], 0.0)
            else:
                pitch, roll, yaw = state
                gx, gy, gz = gyro_rows[i]
                state = (
                    alpha * (pitch + gy * dt) + one_m_alpha * pa[i],
                    alpha * (roll + gx * dt) + one_m_alpha * ra[i],
                    yaw + gz * dt,
                )
            out[i] = state
        self._angles = np.array(state)
        return out

    @staticmethod
    def update_lanes(filters, accel_g, gyro_dps, reset_rows=None):
        """:meth:`update_block` lifted across streams: one time loop, all
        streams wide.

        ``filters`` are the streams' filters (sharing ``fs`` and ``tau``)
        and ``accel_g`` / ``gyro_dps`` their blocks stacked ``(lanes, n,
        3)``; ``reset_rows`` optionally gives each lane its
        :meth:`update_block` reset rows.  Each lane's entry state is read
        from its filter and its exit state written back; returns the
        angles ``(lanes, n, 3)``.

        Bit-identical to one :meth:`update_block` per lane: every step
        runs ``alpha * (angle + rate * dt) + (1 - alpha) * angle_acc`` as
        elementwise ufuncs in the scalar pass's operation order (yaw rides
        along with gain 1 and blend 0, both exact), and bootstrap rows —
        an unprimed lane's first row, a reset row — overwrite the lane
        with the accelerometer angles and zero yaw.
        """
        first = filters[0]
        alpha, dt = first.alpha, first.dt
        for f in filters:
            if f.alpha != alpha or f.dt != dt:
                raise ValueError("update_lanes needs filters sharing fs and tau")
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
        state = np.zeros((lanes, 3))
        boot: dict[int, list[int]] = {}
        for lane, f in enumerate(filters):
            if f._angles is None:
                boot.setdefault(0, []).append(lane)
            else:
                state[lane] = f._angles
        for lane, rows in enumerate(reset_rows or ()):
            for row in rows or ():
                boot.setdefault(row, []).append(lane)
        for i in range(n):
            np.add(state, step[:, i], out=state)
            np.multiply(state, gain, out=state)
            np.add(state, blend[:, i], out=state)
            fresh = boot.get(i)
            if fresh is not None:
                state[fresh] = acc[fresh, i]
            out[:, i] = state
        for lane, f in enumerate(filters):
            f._angles = state[lane]
        return out

    def process(self, accel_g: np.ndarray, gyro_dps: np.ndarray) -> np.ndarray:
        """Fuse whole aligned arrays ``(n, 3)``; returns angles ``(n, 3)``.

        Matches calling :meth:`update` sample by sample to within
        ``1e-9`` degrees, not bit for bit: the recurrence is a first-order
        IIR, evaluated here with ``lfilter`` for dataset-scale speed, and
        ``lfilter`` computes ``alpha * angle + u`` with ``u`` folded ahead
        of time where :meth:`update` computes ``alpha * (angle + rate *
        dt) + (1 - alpha) * angle_acc``.  The two orders round
        differently: on 30 s synthetic streams nearly every row differs,
        by up to ~1e-13 degrees.  Ignores and resets any streaming
        state.
        """
        from scipy.signal import lfilter

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
        for col, (acc_angle, rate) in enumerate(
            [(pitch_acc, gyro_dps[:, 1]), (roll_acc, gyro_dps[:, 0])]
        ):
            u = a * self.dt * rate + (1.0 - a) * acc_angle
            out[0, col] = acc_angle[0]
            if n > 1:
                y, _ = lfilter([1.0], [1.0, -a], u[1:], zi=[a * acc_angle[0]])
                out[1:, col] = y
        yaw = np.cumsum(gyro_dps[:, 2]) * self.dt
        out[:, 2] = yaw - yaw[0]
        return out


def estimate_euler_angles(
    accel_g: np.ndarray, gyro_dps: np.ndarray, fs: float = 100.0, tau: float = 0.5
) -> np.ndarray:
    """One-shot Euler angle estimation for a whole recording."""
    return ComplementaryFilter(fs=fs, tau=tau).process(accel_g, gyro_dps)
