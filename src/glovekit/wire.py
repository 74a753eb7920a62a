"""Glove wire protocol: sensor-frame framing and the PWM command channel.

Sensor frames travel glove -> host as fixed 13-byte records:

    0xA5 | ch1..ch5 as little-endian uint16 | XOR of the 10 payload bytes | 0x0A

Force-feedback commands travel host -> glove as ASCII lines
``"P <v1> <v2> <v3> <v4> <v5>\\n"`` with decimal duty-cycle values in [0, 255].
"""

from __future__ import annotations

import numpy as np

SYNC_BYTE = 0xA5
TERMINATOR = 0x0A
NUM_CHANNELS = 5
ADC_MAX = 1023
PWM_MAX = 255
FRAME_SIZE = 13  # sync + 5 * uint16 + checksum + terminator
# one decoded frame: the stream offset of its first byte and its raw counts
FRAME_DTYPE = np.dtype([("offset", "<i8"), ("channels", "<u2", (NUM_CHANNELS,))])


def _checksum(values: np.ndarray) -> np.ndarray:
    """The checksum byte of each row of an (n, 5) ``<u2`` array: the XOR of
    its 10 little-endian payload bytes, as the XOR of the five counts with
    its high byte folded into the low."""
    v0, v1, v2, v3, v4 = values.T
    x = v0 ^ v1 ^ v2 ^ v3 ^ v4
    return ((x & 0xFF) ^ (x >> 8)).astype(np.uint8)


def encode_frames(values) -> bytes:
    """Encode an (n, 5) array of channel values as n concatenated wire frames."""
    values = np.asarray(values, dtype="<u2")
    frames = np.empty((values.shape[0], FRAME_SIZE), dtype=np.uint8)
    frames[:, 0] = SYNC_BYTE
    frames[:, 1:11] = values.view(np.uint8)
    frames[:, 11] = _checksum(values)
    frames[:, 12] = TERMINATOR
    return frames.tobytes()


_PAYLOAD_OFFSETS = np.arange(1, 11)


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

    def __init__(self):
        self.buffer = bytearray()
        self.frames_decoded = 0
        self.bytes_skipped = 0

    def feed(self, data: bytes) -> np.ndarray:
        """Consume a chunk; return its complete frames as a ``FRAME_DTYPE``
        array: each frame's raw counts and the stream offset of its first
        byte, counted from the first byte ever fed."""
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
        values = buf[starts[:, None] + _PAYLOAD_OFFSETS].view("<u2")
        # ADC_MAX + 1 is a power of two, so the OR of the counts is at most
        # ADC_MAX exactly when every count is
        v0, v1, v2, v3, v4 = values.T
        ok = (_checksum(values) == buf[starts + 11]) & ((v0 | v1 | v2 | v3 | v4) <= ADC_MAX)
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
        frames = np.empty(starts.size, dtype=FRAME_DTYPE)
        frames["offset"] = starts + base
        frames["channels"] = values
        return frames


def encode_pwm_command(duties: np.ndarray) -> list[bytes]:
    """Format an (n, 5) integer array of duty cycles in [0, 255] as its n ASCII
    command lines ``b"P v1 v2 v3 v4 v5\\n"``."""
    return [b"P %d %d %d %d %d\n" % tuple(row) for row in duties.tolist()]
