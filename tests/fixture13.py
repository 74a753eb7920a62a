"""Shared synthetic fixture: a 13-joint desk-scale stand-in for the real task.

Five sinusoidal glove channels with Gaussian sensor noise feed a 13-output
coupling map; two recordings with different noise seeds play the role of the
two human demonstrations.
"""

import io
import math

import numpy as np

from glovekit.calibration import CalibrationProfile, CouplingMap
from glovekit.emulator import ChannelWaveform, EmulatorConfig, run_emulator

STREAM_RATE = 350.0
CONTROL_RATE = 200.0
DURATION = 15.0
NOISE_STD = 8.0  # ADC counts
RAW_MIN, RAW_MAX = 100.0, 900.0
JOINT_MIN, JOINT_MAX = 0.0, math.pi / 2
DEMO_SEEDS = (11, 12)

WAVEFORMS = (
    ChannelWaveform(offset=500.0, amplitude=300.0, frequency=0.12, phase=0.0),
    ChannelWaveform(offset=520.0, amplitude=250.0, frequency=0.20, phase=0.8),
    ChannelWaveform(offset=480.0, amplitude=280.0, frequency=0.16, phase=1.9),
    ChannelWaveform(offset=512.0, amplitude=260.0, frequency=0.10, phase=2.5),
    ChannelWaveform(offset=530.0, amplitude=240.0, frequency=0.14, phase=4.0),
)


def make_profile() -> CalibrationProfile:
    return CalibrationProfile(
        (RAW_MIN,) * 5, (RAW_MAX,) * 5, (JOINT_MIN,) * 5, (JOINT_MAX,) * 5
    )


def make_coupling13() -> CouplingMap:
    rows = []
    for i in range(5):  # pass-through joints
        row = [0.0] * 5
        row[i] = 1.0
        rows.append(row)
    for i in range(4):  # pairwise-coupled joints
        row = [0.0] * 5
        row[i] = row[i + 1] = 0.5
        rows.append(row)
    for i in range(3):  # three-way mixtures
        row = [0.0] * 5
        row[i] = row[i + 1] = row[i + 2] = 1.0 / 3.0
        rows.append(row)
    rows.append([0.25, 0.25, 0.25, 0.25, 0.0])
    return CouplingMap(np.array(rows))


def emulator_config(seed: int, noise_std: float = NOISE_STD) -> EmulatorConfig:
    return EmulatorConfig(
        rate=STREAM_RATE, channels=WAVEFORMS, noise_std=noise_std, seed=seed
    )


def emulate_stream(seed: int, duration: float = DURATION, noise_std: float = NOISE_STD) -> bytes:
    sink = io.BytesIO()
    run_emulator(emulator_config(seed, noise_std), duration, sink, fast=True)
    return sink.getvalue()


class FailingReader(io.BytesIO):
    """Serves its bytes up to ``fail_at``, then raises ``error`` on every read."""

    def __init__(self, data, fail_at, error):
        super().__init__(data)
        self.fail_at = fail_at
        self.error = error

    def read(self, size=-1):
        if self.tell() >= self.fail_at:
            raise self.error
        return super().read(min(size, self.fail_at - self.tell()))


def clean_reference(t_steps: int, control_rate: float = CONTROL_RATE) -> np.ndarray:
    """Noise-free 13-joint trajectory at the control-rate sample times."""
    times = np.arange(t_steps) / control_rate
    raw = np.column_stack(
        [
            ch.offset + ch.amplitude * np.sin(2 * np.pi * ch.frequency * times + ch.phase)
            for ch in WAVEFORMS
        ]
    )
    angles = JOINT_MIN + (raw - RAW_MIN) / (RAW_MAX - RAW_MIN) * (JOINT_MAX - JOINT_MIN)
    return angles @ make_coupling13().weights.T


def noise_std_rad() -> np.ndarray:
    """Per-joint std (rad) of the injected sensor noise after calibration."""
    slope = (JOINT_MAX - JOINT_MIN) / (RAW_MAX - RAW_MIN)
    row_norms = np.linalg.norm(make_coupling13().weights, axis=1)
    return NOISE_STD * slope * row_norms
