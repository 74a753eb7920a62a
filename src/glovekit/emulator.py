"""Virtual glove device: deterministic sinusoidal flex channels.

Lets the whole pipeline run and be tested without hardware.
"""

from __future__ import annotations

import math
import time
from typing import Iterator

import numpy as np

from .errors import GlovekitError, require_nonnegative, require_positive
from .record import Record
from .transports import send
from .wire import ADC_MAX, NUM_CHANNELS, encode_frames

DEFAULT_RATE = 350.0
# frames generated, encoded and written at a time in fast mode, so memory does
# not grow with duration
_BLOCK_FRAMES = 4096


class ChannelWaveform(Record):
    """Sinusoid parameters for one flex channel, in ADC counts / Hz / rad."""

    __slots__ = ("offset", "amplitude", "frequency", "phase")

    def __init__(self, offset: float = 512.0, amplitude: float = 0.0,
                 frequency: float = 0.0, phase: float = 0.0):
        super().__init__(offset, amplitude, frequency, phase)
        if not all(map(math.isfinite, (self.offset, self.amplitude, self.frequency, self.phase))):
            raise GlovekitError(f"waveform values must be finite, got {self}")
        swing = abs(self.amplitude)
        if not (0.0 <= self.offset - swing and self.offset + swing <= ADC_MAX):
            raise GlovekitError(f"waveform range {self.offset}±{swing} exceeds [0, {ADC_MAX}]")


class EmulatorConfig(Record):
    __slots__ = ("rate", "channels", "noise_std", "seed")

    def __init__(
        self,
        rate: float = DEFAULT_RATE,
        channels: tuple[ChannelWaveform, ...] = tuple(ChannelWaveform() for _ in range(NUM_CHANNELS)),
        noise_std: float = 0.0,
        seed: int = 0,
    ):
        super().__init__(rate, channels, noise_std, seed)
        require_positive("rate", self.rate)
        if len(self.channels) != NUM_CHANNELS:
            raise GlovekitError(f"expected {NUM_CHANNELS} channel waveforms")
        require_nonnegative("noise_std", self.noise_std)
        if self.seed < 0:
            raise GlovekitError(f"seed must be nonnegative, got {self.seed}")


def frame_blocks(config: EmulatorConfig, total: int, size: int) -> Iterator[np.ndarray]:
    """Yield the first ``total`` frames as (n, 5) uint16 blocks of ``size``
    frames, the last one shorter. A channel whose phase is not finite at the
    last frame raises GlovekitError before the first block."""
    chans = config.channels
    omega = np.array([2.0 * math.pi * ch.frequency for ch in chans])
    phase, offset, amplitude = np.array([(c.phase, c.offset, c.amplitude) for c in chans]).T

    def phases(first: int, n: int) -> np.ndarray:
        """The (n, 5) phases of frames first ... first + n - 1."""
        t = np.arange(first, first + n) / config.rate
        return t[:, None] * omega + phase

    with np.errstate(over="ignore", invalid="ignore"):
        last = phases(total - 1, 1)[0].tolist()
    for i, (ch, arg) in enumerate(zip(chans, last), start=1):
        if not math.isfinite(arg):
            raise GlovekitError(f"channel {i}: no finite phase at {ch.frequency!r} Hz "
                                f"over {total / config.rate!r} s")
    rng = np.random.default_rng(config.seed)
    for first in range(0, total, size):
        n = min(size, total - first)
        arg = phases(first, n)
        if config.noise_std > 0:
            noise = rng.normal(0.0, config.noise_std, (n, NUM_CHANNELS))
        else:
            noise = np.zeros((n, NUM_CHANNELS))
        x = offset + amplitude * np.sin(arg) + noise
        # np.sin may differ from math.sin in its last bits on some hosts. The
        # waveform range keeps |amplitude| <= 511.5, so that moves x by far
        # less than 1e-6, and only a value that near a rounding boundary
        # k + 0.5 can round differently: those take math.sin again, and the
        # stream is the same on every host
        with np.errstate(invalid="ignore"):  # an infinite noise value
            near = np.abs(x - np.floor(x) - 0.5) < 1e-6
        if near.any():
            cols = np.nonzero(near)[1]
            exact = np.fromiter(map(math.sin, arg[near].tolist()), float, cols.size)
            x[near] = offset[cols] + amplitude[cols] * exact + noise[near]
        # a value below 0.5 becomes 0 after the clip whichever way it rounds
        yield np.clip(np.floor(x + 0.5), 0, ADC_MAX).astype(np.uint16)


def sample_count(duration: float, rate: float) -> int:
    """floor(duration * rate): the samples in ``duration`` seconds at ``rate`` Hz,
    which must be positive."""
    if not rate > 0:
        raise GlovekitError(f"rate must be positive, got {rate!r}")
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
    total = sample_count(duration, config.rate)
    start = time.monotonic()
    written = 0
    for frames in frame_blocks(config, total, _BLOCK_FRAMES if fast else 1):
        if not send(transport, encode_frames(frames)):
            return written
        written += len(frames)
        if not fast:
            delay = start + written / config.rate - time.monotonic()
            if delay > 0:
                time.sleep(delay)
    return written
