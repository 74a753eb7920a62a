"""Virtual glove device: deterministic sinusoidal flex channels plus a PWM sink.

Lets the whole pipeline run and be tested without hardware. One emulator
instance is single-owner; PWM commands are applied between steps.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass

import numpy as np

from .errors import GlovekitError, TransportError
from .wire import ADC_MAX, FRAME_SIZE, NUM_CHANNELS, PwmCommand, SensorFrame, encode_frames

DEFAULT_RATE = 350.0
# frames generated and encoded at a time, so memory does not grow with duration
_BLOCK_FRAMES = 4096


@dataclass(frozen=True)
class ChannelWaveform:
    """Sinusoid parameters for one flex channel, in ADC counts / Hz / rad."""

    offset: float = 512.0
    amplitude: float = 0.0
    frequency: float = 0.0
    phase: float = 0.0

    def __post_init__(self):
        if not (0.0 <= self.offset - self.amplitude and self.offset + self.amplitude <= ADC_MAX):
            raise GlovekitError(
                f"waveform range {self.offset}±{self.amplitude} exceeds [0, {ADC_MAX}]"
            )


@dataclass(frozen=True)
class EmulatorConfig:
    rate: float = DEFAULT_RATE
    channels: tuple[ChannelWaveform, ...] = tuple(ChannelWaveform() for _ in range(NUM_CHANNELS))
    noise_std: float = 0.0
    seed: int = 0

    def __post_init__(self):
        if not (math.isfinite(self.rate) and self.rate > 0):
            raise GlovekitError(f"rate must be positive and finite, got {self.rate}")
        if len(self.channels) != NUM_CHANNELS:
            raise GlovekitError(f"expected {NUM_CHANNELS} channel waveforms")
        if not (math.isfinite(self.noise_std) and self.noise_std >= 0):
            raise GlovekitError(f"noise_std must be nonnegative and finite, got {self.noise_std}")
        if self.seed < 0:
            raise GlovekitError(f"seed must be nonnegative, got {self.seed}")


class GloveEmulator:
    """Produces the 350 Hz sensor stream and records the last PWM command."""

    def __init__(self, config: EmulatorConfig):
        self.config = config
        self.t = 0.0
        self.last_pwm = PwmCommand((0, 0, 0, 0, 0))
        self._rng = np.random.default_rng(config.seed)
        self._step = 0

    def block(self, n: int) -> np.ndarray:
        """Emit the next n frames as an (n, 5) uint16 array; advance the clock by n/rate."""
        cfg = self.config
        chans = cfg.channels
        frequency = np.array([ch.frequency for ch in chans])
        phase = np.array([ch.phase for ch in chans])
        offset = np.array([ch.offset for ch in chans])
        amplitude = np.array([ch.amplitude for ch in chans])
        t = np.arange(self._step, self._step + n) / cfg.rate
        arg = t[:, None] * (2.0 * math.pi * frequency) + phase
        # math.sin, not np.sin: the two may differ in the last bit, which can
        # flip a rounding at .5 and change the stream
        sin = np.fromiter(map(math.sin, arg.ravel().tolist()), float, arg.size)
        x = offset + amplitude * sin.reshape(n, NUM_CHANNELS)
        if cfg.noise_std > 0:
            x = x + self._rng.normal(0.0, cfg.noise_std, (n, NUM_CHANNELS))
        rounded = np.where(x >= 0, np.floor(x + 0.5), np.ceil(x - 0.5))
        self._step += n
        # integer step count avoids drift over long runs
        self.t = self._step / cfg.rate
        return np.clip(rounded, 0, ADC_MAX).astype(np.uint16)

    def step(self) -> SensorFrame:
        """Emit the frame for the current clock, then advance by 1/rate."""
        return SensorFrame(tuple(self.block(1)[0].tolist()))

    def handle_pwm(self, cmd: PwmCommand) -> None:
        self.last_pwm = cmd


def run_emulator(config: EmulatorConfig, duration: float, transport, fast: bool = True) -> int:
    """Write floor(duration * rate) encoded frames to the transport.

    ``transport`` is anything with a ``write(bytes)`` method. In real-time
    mode writes are paced at 1/rate; fast mode emits identical bytes without
    sleeping. A closed transport terminates cleanly; returns frames written.
    """
    if duration <= 0:
        raise GlovekitError(f"duration must be positive, got {duration}")
    emulator = GloveEmulator(config)
    total = math.floor(duration * config.rate)
    start = time.monotonic()
    written = 0
    while written < total:
        data = encode_frames(emulator.block(min(_BLOCK_FRAMES, total - written)))
        for offset in range(0, len(data), FRAME_SIZE):
            try:
                transport.write(data[offset : offset + FRAME_SIZE])
            except (OSError, ValueError, TransportError):
                return written
            written += 1
            if not fast:
                delay = start + written / config.rate - time.monotonic()
                if delay > 0:
                    time.sleep(delay)
    return written
