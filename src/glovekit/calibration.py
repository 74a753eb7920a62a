"""Calibration maps: raw flex counts -> joint angles, glove -> robot joint
coupling, and the proportional tactile -> PWM force-feedback map."""

from __future__ import annotations

import math

import numpy as np

from .errors import GlovekitError, require_positive
from .record import Record
from .wire import ADC_MAX, NUM_CHANNELS, PWM_MAX

DEFAULT_JOINT_MIN = 0.0
DEFAULT_JOINT_MAX = math.pi / 2


class CalibrationProfile(Record):
    """Per-channel raw extrema (ADC counts) and joint-angle range (rad)."""

    __slots__ = ("raw_min", "raw_max", "joint_min", "joint_max")

    def __init__(self, raw_min: tuple[float, ...], raw_max: tuple[float, ...],
                 joint_min: tuple[float, ...], joint_max: tuple[float, ...]):
        super().__init__(raw_min, raw_max, joint_min, joint_max)
        lengths = {len(self.raw_min), len(self.raw_max), len(self.joint_min), len(self.joint_max)}
        if lengths != {NUM_CHANNELS}:
            raise GlovekitError(f"profile must have {NUM_CHANNELS} entries per field")
        if not np.isfinite([self.raw_min, self.raw_max, self.joint_min, self.joint_max]).all():
            raise GlovekitError("profile values must be finite")
        for i in range(NUM_CHANNELS):
            if not self.raw_min[i] < self.raw_max[i]:
                raise GlovekitError(f"channel {i + 1}: raw_min must be < raw_max")
            if not self.joint_min[i] <= self.joint_max[i]:
                raise GlovekitError(f"channel {i + 1}: joint_min must be <= joint_max")


class ExtremaBuilder:
    """Accumulates per-channel min/max while the operator flexes and spreads."""

    def __init__(self):
        self.raw_min = [float(ADC_MAX)] * NUM_CHANNELS
        self.raw_max = [0.0] * NUM_CHANNELS

    def observe(self, raw: np.ndarray) -> None:
        """Take in an (n, 5) array of raw frames; n may be 0."""
        if raw.shape[0]:
            self.raw_min = [min(a, b) for a, b in zip(self.raw_min, raw.min(axis=0).tolist())]
            self.raw_max = [max(a, b) for a, b in zip(self.raw_max, raw.max(axis=0).tolist())]

    def finalize(self, joint_min: tuple[float, ...],
                 joint_max: tuple[float, ...]) -> CalibrationProfile:
        for i in range(NUM_CHANNELS):
            if not self.raw_min[i] < self.raw_max[i]:
                raise GlovekitError(
                    f"incomplete calibration: channel {i + 1} has degenerate range "
                    f"[{self.raw_min[i]}, {self.raw_max[i]}]"
                )
        return CalibrationProfile(
            tuple(self.raw_min), tuple(self.raw_max), tuple(joint_min), tuple(joint_max)
        )


def raw_to_angle(profile: CalibrationProfile, raw: np.ndarray) -> np.ndarray:
    """Linearly map an (n, 5) array of raw counts to joint angles; out-of-range
    values clamp."""
    lo = np.asarray(profile.raw_min)
    hi = np.asarray(profile.raw_max)
    jmin = np.asarray(profile.joint_min)
    jmax = np.asarray(profile.joint_max)
    frac = (np.clip(raw, lo, hi) - lo) / (hi - lo)
    return jmin + frac * (jmax - jmin)


class CouplingMap(Record):
    """Fixed linear map from the 5 glove channels onto robot finger joints.

    Each output row is a convex combination (weights >= 0, summing to 1), so
    a constant input maps to the same constant on every output.
    """

    __slots__ = ("weights",)
    __eq__, __hash__ = object.__eq__, object.__hash__  # it holds an array

    def __init__(self, weights: np.ndarray):  # (D_out, 5)
        w = np.asarray(weights, dtype=float)
        super().__init__(w)
        if w.ndim != 2 or w.shape[1] != NUM_CHANNELS:
            raise GlovekitError(f"coupling weights must be (D, {NUM_CHANNELS})")
        if np.any(w < 0):
            raise GlovekitError("coupling weights must be nonnegative")
        if not np.allclose(w.sum(axis=1), 1.0, atol=1e-9):
            raise GlovekitError("coupling weights must sum to 1 per output")


def apply_coupling(coupling: CouplingMap, glove_angles: np.ndarray) -> np.ndarray:
    """Map an (n, 5) array of glove angles to (n, D) robot joints.

    Pass blocks of at least 2 rows: a one-row block goes through BLAS gemv,
    which sums in another order than the gemm of a taller block, so its bits
    can differ from the same row's inside a stack. Any split into blocks of
    2 or more rows gives the bits of the whole.
    """
    return glove_angles @ coupling.weights.T


def identity_coupling_map() -> CouplingMap:
    return CouplingMap(np.eye(NUM_CHANNELS))


class ForceFeedbackMap(Record):
    """Proportional tactile -> PWM map: ``f_max`` gives full duty."""

    __slots__ = ("f_max",)

    def __init__(self, f_max: float):
        super().__init__(f_max)
        require_positive("f_max", self.f_max)


def tactile_to_pwm(fmap: ForceFeedbackMap, forces: np.ndarray) -> np.ndarray:
    """Map an (n, 5) array of tactile readings to (n, 5) integer PWM duty
    cycles, clamped into [0, 255].

    The duty ratio is clamped before it is rounded half away from zero, which
    gives the integer of rounding first for every finite ratio; an overflowing
    ratio maps to 255 and a NaN one to 0.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        ratio = PWM_MAX * np.asarray(forces, dtype=float) / fmap.f_max
    return np.floor(np.fmin(np.fmax(ratio, 0.0), PWM_MAX) + 0.5).astype(int)
