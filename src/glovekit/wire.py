"""Glove wire protocol: sensor-frame framing and the PWM command channel.

Sensor frames travel glove -> host as fixed 13-byte records:

    0xA5 | ch1..ch5 as little-endian uint16 | XOR of the 10 payload bytes | 0x0A

Force-feedback commands travel host -> glove as ASCII lines
``"P <v1> <v2> <v3> <v4> <v5>\\n"`` with decimal duty-cycle values in [0, 255].
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import ProtocolError

SYNC_BYTE = 0xA5
TERMINATOR = 0x0A
NUM_CHANNELS = 5
ADC_MAX = 1023
PWM_MAX = 255
FRAME_SIZE = 13  # sync + 5 * uint16 + checksum + terminator


@dataclass(frozen=True)
class SensorFrame:
    """One decoded 5-channel flex-sensor sample (raw 10-bit ADC counts)."""

    channels: tuple[int, int, int, int, int]

    def __post_init__(self):
        if len(self.channels) != NUM_CHANNELS:
            raise ProtocolError(f"expected {NUM_CHANNELS} channels, got {len(self.channels)}")
        for v in self.channels:
            if not (0 <= v <= ADC_MAX):
                raise ProtocolError(f"channel value {v} outside [0, {ADC_MAX}]")


@dataclass(frozen=True)
class PwmCommand:
    """Per-finger vibration-motor duty cycles in [0, 255]."""

    duty: tuple[int, int, int, int, int]

    def __post_init__(self):
        if len(self.duty) != NUM_CHANNELS:
            raise ProtocolError(f"expected {NUM_CHANNELS} duty values, got {len(self.duty)}")
        for v in self.duty:
            if not (0 <= v <= PWM_MAX):
                raise ProtocolError(f"PWM value {v} outside [0, {PWM_MAX}]")


def encode_frames(values) -> bytes:
    """Encode an (n, 5) array of channel values as n concatenated wire frames."""
    payload = np.asarray(values, dtype="<u2").reshape(-1, NUM_CHANNELS).view(np.uint8)
    frames = np.empty((payload.shape[0], FRAME_SIZE), dtype=np.uint8)
    frames[:, 0] = SYNC_BYTE
    frames[:, 1:11] = payload
    frames[:, 11] = np.bitwise_xor.reduce(payload, axis=1)
    frames[:, 12] = TERMINATOR
    return frames.tobytes()


_PAYLOAD_OFFSETS = np.arange(1, 11)


@dataclass
class StreamParser:
    """Incremental frame extractor tolerating garbage and split input.

    Single-owner mutable state: feed byte chunks in order, complete frames
    come out in order. A frame is taken at the first valid sync byte at or
    after the end of the previous frame: every byte before it that is not
    part of a frame (garbage, or a 0xA5 whose frame fails the terminator,
    checksum or range check) is skipped and counted, never fatal. An
    incomplete frame at the end of the input stays in ``buffer`` until more
    bytes arrive.
    """

    buffer: bytearray = field(default_factory=bytearray)
    frames_decoded: int = 0
    bytes_skipped: int = 0

    def decode(self, data: bytes) -> tuple[np.ndarray, np.ndarray]:
        """Consume a chunk; return the complete frames as an (n, 5) uint16 array
        and the stream offset of each one's first byte, counted from the first
        byte ever fed."""
        # every byte fed before the held ones is counted in a frame or skipped
        base = FRAME_SIZE * self.frames_decoded + self.bytes_skipped
        if self.buffer:
            data = bytes(self.buffer) + data
        buf = np.frombuffer(data, dtype=np.uint8)
        n = buf.size
        # every sync byte that starts a complete frame, then the checks on all
        # of them at once
        starts = np.flatnonzero(buf[: max(n - FRAME_SIZE + 1, 0)] == SYNC_BYTE)
        starts = starts[buf[starts + FRAME_SIZE - 1] == TERMINATOR]
        payload = buf[starts[:, None] + _PAYLOAD_OFFSETS]
        values = payload.view("<u2")
        ok = (np.bitwise_xor.reduce(payload, axis=1) == buf[starts + 11]) & np.all(
            values <= ADC_MAX, axis=1
        )
        starts, values = starts[ok], values[ok]
        if np.any(np.diff(starts) < FRAME_SIZE):
            # a valid frame overlaps an earlier one: keep each that starts at
            # or after the end of the last one kept, as a byte-by-byte scan does
            keep = np.zeros(starts.size, dtype=bool)
            end = 0
            for i, start in enumerate(starts.tolist()):
                if start >= end:
                    keep[i] = True
                    end = start + FRAME_SIZE
            starts, values = starts[keep], values[keep]
        # the bytes after the last frame are all skipped, except an
        # incomplete frame from the first sync byte too close to the end
        end = int(starts[-1]) + FRAME_SIZE if starts.size else 0
        tail_from = max(end, n - FRAME_SIZE + 1)
        tail = np.flatnonzero(buf[tail_from:] == SYNC_BYTE)
        consumed = tail_from + int(tail[0]) if tail.size else n
        self.buffer = bytearray(data[consumed:])
        self.bytes_skipped += consumed - FRAME_SIZE * starts.size
        self.frames_decoded += starts.size
        return values, starts + base

    def feed(self, data: bytes) -> list[SensorFrame]:
        """Consume a chunk; return the complete frames as :class:`SensorFrame` objects."""
        return [SensorFrame(tuple(row)) for row in self.decode(data)[0].tolist()]


def encode_pwm_command(cmd: PwmCommand) -> str:
    """Format a PWM command as the ASCII line ``"P v1 v2 v3 v4 v5\\n"``."""
    return "P " + " ".join(str(v) for v in cmd.duty) + "\n"


def parse_pwm_command(line: str) -> PwmCommand:
    """Parse a host PWM command line; raises ProtocolError when malformed."""
    tokens = line.strip().split(" ")
    if len(tokens) != NUM_CHANNELS + 1:
        raise ProtocolError(f"expected 6 fields, got {len(tokens)}: {line!r}")
    if tokens[0] != "P":
        raise ProtocolError(f"unknown command verb {tokens[0]!r}")
    values = []
    for tok in tokens[1:]:
        try:
            values.append(int(tok))
        except ValueError:
            raise ProtocolError(f"non-numeric PWM value {tok!r}") from None
    return PwmCommand(tuple(values))
