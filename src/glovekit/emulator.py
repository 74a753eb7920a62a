"""Virtual glove device: deterministic sinusoidal flex channels.

Lets the whole pipeline run and be tested without hardware. One emulator
instance is single-owner.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass

import numpy as np

from .errors import GlovekitError
from .transports import send
from .wire import ADC_MAX, NUM_CHANNELS, encode_frames

DEFAULT_RATE = 350.0
# frames generated, encoded and written at a time in fast mode, so memory does
# not grow with duration
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
    """Produces the 350 Hz sensor stream."""

    def __init__(self, config: EmulatorConfig):
        self.config = config
        self.t = 0.0
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


def sample_count(duration: float, rate: float) -> int:
    """floor(duration * rate): the samples in ``duration`` seconds at ``rate`` Hz."""
    product = duration * rate
    # from 2**53 on a float no longer tells neighbouring counts apart
    if not (math.isfinite(product) and product < 2**53):
        raise GlovekitError(
            f"duration {duration!r} at rate {rate!r} gives no finite sample count below 2**53"
        )
    return math.floor(product)


def run_emulator(config: EmulatorConfig, duration: float, transport, fast: bool = True) -> int:
    """Write floor(duration * rate) encoded frames to the transport.

    ``transport`` is anything with a ``write(bytes)`` method. Fast mode writes
    blocks of up to 4096 frames without sleeping; real-time mode writes one
    frame at a time, paced at 1/rate. Both emit the same bytes. A closed
    transport terminates cleanly; returns the frames in completed writes.
    """
    if duration <= 0:
        raise GlovekitError(f"duration must be positive, got {duration}")
    emulator = GloveEmulator(config)
    total = sample_count(duration, config.rate)
    block = _BLOCK_FRAMES if fast else 1
    start = time.monotonic()
    written = 0
    while written < total:
        n = min(block, total - written)
        if not send(transport, encode_frames(emulator.block(n))):
            return written
        written += n
        if not fast:
            delay = start + written / config.rate - time.monotonic()
            if delay > 0:
                time.sleep(delay)
    return written
