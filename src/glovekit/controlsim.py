"""Per-joint PD tracking on a second-order plant.

Stand-in for a robot's built-in low-level impedance controller: each joint is
an independent inertia-damper plant driven by a torque-limited PD law that
tracks a reference trajectory at the control rate (default 200 Hz).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import GlovekitError

DEFAULT_CONTROL_RATE = 200.0


@dataclass(frozen=True)
class Gains:
    kp: float = 5.0  # N*m/rad
    kd: float = 0.2  # N*m*s/rad

    def __post_init__(self):
        if not self.kp > 0:
            raise GlovekitError(f"Kp must be positive, got {self.kp}")
        if not self.kd >= 0:
            raise GlovekitError(f"Kd must be nonnegative, got {self.kd}")


@dataclass(frozen=True)
class PlantParams:
    m: float = 0.01  # inertia, kg*m^2
    b: float = 0.05  # viscous damping, N*m*s/rad
    torque_limit: float = 2.0  # N*m

    def __post_init__(self):
        if not self.m > 0:
            raise GlovekitError(f"inertia must be positive, got {self.m}")
        if not self.b >= 0:
            raise GlovekitError(f"damping must be nonnegative, got {self.b}")
        if not self.torque_limit > 0:
            raise GlovekitError(f"torque limit must be positive, got {self.torque_limit}")


@dataclass
class PlantState:
    theta: np.ndarray  # rad, per joint
    omega: np.ndarray  # rad/s, per joint


@dataclass(frozen=True)
class TrackingResult:
    executed: np.ndarray  # (T, D) rad
    rmse: np.ndarray  # (D,) rad
    max_abs_error: np.ndarray  # (D,) rad


def pd_torque(gains: Gains, theta_des, omega_des, theta, omega, torque_limit: float):
    """Torque-limited PD law; works elementwise on arrays."""
    tau = gains.kp * (np.asarray(theta_des) - theta) + gains.kd * (np.asarray(omega_des) - omega)
    return np.clip(tau, -torque_limit, torque_limit)


def step_plant(state: PlantState, torque, dt: float, params: PlantParams) -> PlantState:
    """Semi-implicit Euler step of the inertia-damper plant."""
    if dt <= 0:
        raise GlovekitError(f"dt must be positive, got {dt}")
    omega = state.omega + dt * (np.asarray(torque) - params.b * state.omega) / params.m
    theta = state.theta + dt * omega
    return PlantState(theta, omega)


def simulate_tracking(
    reference: np.ndarray,
    gains: Gains = Gains(),
    params: PlantParams = PlantParams(),
    rate: float = DEFAULT_CONTROL_RATE,
) -> TrackingResult:
    """Track a (T, D) reference from rest at its first row.

    Desired velocities come from backward finite differences of the reference.
    """
    reference = np.atleast_2d(np.asarray(reference, dtype=float))
    if not np.all(np.isfinite(reference)):
        raise GlovekitError("reference contains non-finite entries")
    if rate <= 0:
        raise GlovekitError(f"rate must be positive, got {rate}")
    dt = 1.0 / rate
    omega_des = np.zeros_like(reference)
    omega_des[1:] = (reference[1:] - reference[:-1]) * rate

    # pd_torque and step_plant over Python floats, one joint at a time: the
    # same IEEE operations in the same order (neither side fuses multiply-add),
    # without numpy calls per step; converting one joint at a time keeps the
    # float lists small
    kp, kd = gains.kp, gains.kd
    m, b, limit = params.m, params.b, params.torque_limit
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
