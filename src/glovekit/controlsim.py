"""Per-joint PD tracking on a second-order plant.

Stand-in for a robot's built-in low-level impedance controller: each joint is
an independent inertia-damper plant driven by a torque-limited PD law that
tracks a reference trajectory at the control rate (default 200 Hz).
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from .errors import GlovekitError, require_nonnegative, require_positive
from .record import Record

DEFAULT_CONTROL_RATE = 200.0


class Gains(Record):
    __slots__ = ("kp", "kd")

    def __init__(
        self,
        kp: float = 5.0,  # N*m/rad
        kd: float = 0.2,  # N*m*s/rad
    ):
        super().__init__(kp, kd)
        require_positive("Kp", self.kp)
        require_nonnegative("Kd", self.kd)


class PlantParams(Record):
    __slots__ = ("m", "b", "torque_limit")

    def __init__(
        self,
        m: float = 0.01,  # inertia, kg*m^2
        b: float = 0.05,  # viscous damping, N*m*s/rad
        torque_limit: float = 2.0,  # N*m
    ):
        super().__init__(m, b, torque_limit)
        require_positive("inertia", self.m)
        require_nonnegative("damping", self.b)
        require_positive("torque limit", self.torque_limit)


class TrackingResult(NamedTuple):
    executed: np.ndarray  # (T, D) rad
    rmse: np.ndarray  # (D,) rad
    max_abs_error: np.ndarray  # (D,) rad


def simulate_tracking(
    reference: np.ndarray,
    gains: Gains = Gains(),
    params: PlantParams = PlantParams(),
    rate: float = DEFAULT_CONTROL_RATE,
) -> TrackingResult:
    """Track a (T, D) reference from rest at its first row.

    Desired velocities come from backward finite differences of the reference.
    """
    reference = np.asarray(reference, dtype=float)
    if reference.ndim != 2 or not len(reference) or not np.isfinite(reference).all():
        raise GlovekitError("reference must be a finite (T, D) array with T >= 1")
    require_positive("rate", rate)
    dt = 1.0 / rate
    omega_des = np.zeros_like(reference)
    omega_des[1:] = (reference[1:] - reference[:-1]) * rate

    # the torque-limited PD law and a semi-implicit Euler step of the plant,
    # over Python floats, one joint at a time: the same IEEE operations in the
    # same order as the numpy reference in the tests (neither side fuses
    # multiply-add); converting one joint at a time keeps the float lists small
    kp, kd, m, b, limit = gains.kp, gains.kd, params.m, params.b, params.torque_limit
    executed = np.empty_like(reference)
    for j in range(reference.shape[1]):
        ref = reference[:, j].tolist()
        vel = omega_des[:, j].tolist()
        theta, omega = ref[0], 0.0
        column = [theta]
        for r, v in zip(ref[1:], vel[1:]):
            tau = kp * (r - theta) + kd * (v - omega)
            # as np.clip: NaN and values within the limit pass through
            if tau > limit:
                tau = limit
            elif tau < -limit:
                tau = -limit
            omega = omega + dt * (tau - b * omega) / m
            theta = theta + dt * omega
            column.append(theta)
        executed[:, j] = column

    error = executed - reference
    rmse = np.sqrt((error**2).mean(axis=0))
    return TrackingResult(executed, rmse, np.abs(error).max(axis=0))
