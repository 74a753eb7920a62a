import io
import struct

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import fixture13 as fx
from glovekit.emulator import run_emulator
from glovekit.errors import GlovekitError
from glovekit.wire import (
    ADC_MAX,
    FRAME_DTYPE,
    FRAME_SIZE,
    StreamParser,
    _checksum,
    encode_frames,
    encode_pwm_command,
)
from oracles import ScalarStreamParser, parse_pwm_command, scalar_frame_bytes

channels_st = st.tuples(*[st.integers(0, 1023)] * 5)
duty_st = st.tuples(*[st.integers(0, 255)] * 5)


def test_encode_zero_frame():
    assert encode_frames([(0, 0, 0, 0, 0)]) == bytes.fromhex(
        "a500000000000000000000000a"
    )


def test_encode_full_scale_first_channel():
    assert encode_frames([(1023, 0, 0, 0, 0)]) == bytes.fromhex(
        "a5ff030000000000000000fc0a"
    )


def test_frame_is_13_bytes():
    assert len(encode_frames([(1, 2, 3, 4, 5)])) == FRAME_SIZE


def channels_of(frames) -> list[tuple]:
    return [tuple(row) for row in frames["channels"].tolist()]


def test_frame_rejects_out_of_range():
    # checksum and terminator valid, one count above 1023
    parser = StreamParser()
    frames = parser.feed(scalar_frame_bytes((1024, 0, 0, 0, 0)) + encode_frames([(1, 2, 3, 4, 5)]))
    assert channels_of(frames) == [(1, 2, 3, 4, 5)]
    assert frames["offset"].tolist() == [FRAME_SIZE]
    assert parser.bytes_skipped == FRAME_SIZE


def test_feed_returns_one_record_per_frame():
    frames = StreamParser().feed(b"\x00" + encode_frames([(1, 2, 3, 4, 5), (6, 7, 8, 9, 10)]))
    assert frames.dtype == FRAME_DTYPE and frames.dtype.itemsize == 18
    assert len(frames) == 2 and frames["channels"].shape == (2, 5)
    assert frames["offset"].tolist() == [1, 1 + FRAME_SIZE]
    empty = StreamParser().feed(b"")
    assert empty.dtype == FRAME_DTYPE and len(empty) == 0


@given(channels_st)
def test_round_trip_single_frame(channels):
    parser = StreamParser()
    assert channels_of(parser.feed(encode_frames([channels]))) == [channels]
    assert parser.bytes_skipped == 0
    assert len(parser.buffer) == 0


def test_split_frame_across_two_calls():
    channels = (10, 20, 30, 40, 50)
    data = encode_frames([channels])
    parser = StreamParser()
    assert len(parser.feed(data[:7])) == 0
    frames = parser.feed(data[7:])
    assert channels_of(frames) == [channels]
    assert frames["offset"].tolist() == [0]
    assert parser.bytes_skipped == 0


def test_garbage_prefix_resync():
    channels = (100, 200, 300, 400, 500)
    parser = StreamParser()
    assert channels_of(parser.feed(b"\x01\x02\x03" + encode_frames([channels]))) == [channels]
    assert parser.bytes_skipped == 3


def test_corrupted_checksum_then_valid_frame():
    good = (1, 2, 3, 4, 5)
    bad = bytearray(encode_frames([(9, 9, 9, 9, 9)]))
    bad[11] ^= 0xFF
    parser = StreamParser()
    frames = parser.feed(bytes(bad) + encode_frames([good]))
    assert channels_of(frames) == [good]
    assert parser.bytes_skipped > 0


@given(st.lists(channels_st, min_size=1, max_size=20), st.integers(1, 13))
@settings(max_examples=50, deadline=None)
def test_concatenation_any_chunking(all_channels, chunk):
    data = encode_frames(all_channels)
    parser = StreamParser()
    out = []
    for i in range(0, len(data), chunk):
        out.extend(channels_of(parser.feed(data[i : i + chunk])))
    assert out == all_channels
    assert parser.bytes_skipped == 0


def test_non_sync_garbage_never_loses_frame():
    rng = np.random.default_rng(1)
    channels = (512, 0, 1023, 7, 300)
    for _ in range(50):
        garbage = bytes(int(v) for v in rng.integers(0, 256, rng.integers(1, 40)) if v != 0xA5)
        parser = StreamParser()
        assert channels_of(parser.feed(garbage + encode_frames([channels])))[-1] == channels


def test_buffer_stays_below_frame_size_at_rest():
    parser = StreamParser()
    data = encode_frames([(1, 1, 1, 1, 1)]) * 7
    parser.feed(data + b"\xa5\x01")
    assert len(parser.buffer) < FRAME_SIZE


def _overlapping_pair() -> bytes:
    """18 bytes holding two valid frames, the second starting at byte 5 of
    the first: a scan takes the first and skips into the second."""
    rng = np.random.default_rng(0)
    while True:
        ch1, ch2 = (int(v) for v in rng.integers(0, 1024, 2))
        high = [int(v) for v in rng.integers(0, 4, 3)]
        # ch3's low byte is the second sync byte; the second frame's payload
        # high bytes are ch4's and ch5's low bytes, the first checksum and
        # two of the trailing bytes, all kept <= 3
        first = scalar_frame_bytes(
            (ch1, ch2, 0xA5 | high[0] << 8, 1 | high[1] << 8, 2 | high[2] << 8)
        )
        if first[11] <= 3:
            break
    second = scalar_frame_bytes(struct.unpack("<5H", first[6:13] + bytes([3, 0x10, 0])))
    assert second[:8] == first[5:]
    return first + second[8:]


OVERLAPPING_PAIR = _overlapping_pair()


@given(st.tuples(*[st.integers(0, ADC_MAX) | st.integers(0, 0xFFFF)] * 5))
@example((ADC_MAX,) * 5)
@example((ADC_MAX,) * 4 + (ADC_MAX + 1,))
def test_one_checksum_and_range_rule(counts):
    """The checksum is the XOR of the payload bytes, and the parser's OR of the
    counts passes a frame exactly when every count is at most ADC_MAX, which
    holds because ADC_MAX + 1 is a power of two."""
    assert ADC_MAX & (ADC_MAX + 1) == 0
    frame = scalar_frame_bytes(counts)
    assert _checksum(np.array([counts], dtype="<u2")).tolist() == [frame[11]]
    decoded = StreamParser().feed(frame)
    assert len(decoded) == all(v <= ADC_MAX for v in counts)


@st.composite
def frame_bytes(draw):
    """A valid frame, or a frame with a random payload and a valid checksum
    (so its range check may fail), or the overlapping pair."""
    kind = draw(st.sampled_from(["valid", "raw", "pair"]))
    if kind == "valid":
        return encode_frames([draw(channels_st)])
    if kind == "raw":
        return scalar_frame_bytes(draw(st.tuples(*[st.integers(0, 0xFFFF)] * 5)))
    return OVERLAPPING_PAIR


@st.composite
def corrupted_stream(draw):
    data = bytearray(b"".join(draw(st.lists(frame_bytes(), max_size=25))))
    for _ in range(draw(st.integers(0, 25))):
        op = draw(st.sampled_from(["flip", "sync", "byte", "delete"]))
        pos = draw(st.integers(0, len(data)))
        if op == "flip" and pos < len(data):
            data[pos] ^= draw(st.integers(1, 255))
        elif op == "sync":
            data.insert(pos, 0xA5)
        elif op == "byte":
            data.insert(pos, draw(st.integers(0, 255).filter(lambda b: b != 0xA5)))
        elif op == "delete" and pos < len(data):
            del data[pos]
    return bytes(data)


def assert_same_as_reference(data: bytes, chunk_sizes: list[int]) -> None:
    parser = StreamParser()
    reference = ScalarStreamParser()
    pos = 0
    i = 0
    while pos < len(data):
        chunk = data[pos : pos + chunk_sizes[i % len(chunk_sizes)]]
        pos += len(chunk)
        i += 1
        frames = parser.feed(chunk)
        known = len(reference.offsets)
        assert channels_of(frames) == reference.feed(chunk)
        assert frames["offset"].tolist() == reference.offsets[known:]
        assert parser.bytes_skipped == reference.bytes_skipped
        assert parser.frames_decoded == reference.frames_decoded
        assert parser.buffer == reference.buffer


@given(corrupted_stream(), st.lists(st.integers(1, 64), min_size=1, max_size=8))
@settings(max_examples=300, deadline=None)
def test_feed_matches_byte_by_byte_reference(data, chunk_sizes):
    assert_same_as_reference(data, chunk_sizes)


def test_overlapping_valid_frames_keep_the_first():
    first = StreamParser().feed(OVERLAPPING_PAIR[:13])
    second = StreamParser().feed(OVERLAPPING_PAIR[5:])
    assert len(first) == len(second) == 1
    both = StreamParser().feed(OVERLAPPING_PAIR)
    assert channels_of(both) == channels_of(first) and both["offset"].tolist() == [0]
    assert_same_as_reference(OVERLAPPING_PAIR, [len(OVERLAPPING_PAIR)])


def test_corrupted_emulator_stream_matches_reference():
    sink = io.BytesIO()
    run_emulator(fx.emulator_config(seed=7), 30.0, sink)
    data = bytearray(sink.getvalue())
    rng = np.random.default_rng(8)
    flips = rng.choice(len(data), size=len(data) // 100, replace=False)
    for i in flips:
        data[i] ^= int(rng.integers(1, 256))
    assert_same_as_reference(bytes(data), [4096])


def test_encode_pwm_zero():
    assert encode_pwm_command(np.zeros((1, 5), dtype=int)) == [b"P 0 0 0 0 0\n"]


def test_encode_pwm_mixed():
    assert encode_pwm_command(np.array([[255, 0, 0, 0, 128]])) == [b"P 255 0 0 0 128\n"]


def test_encode_pwm_one_line_per_row():
    duties = np.array([[1, 2, 3, 4, 5], [255, 0, 0, 0, 128], [0, 0, 0, 0, 0]])
    assert encode_pwm_command(duties) == [b"P 1 2 3 4 5\n", b"P 255 0 0 0 128\n",
                                          b"P 0 0 0 0 0\n"]
    assert encode_pwm_command(duties[:0]) == []


def test_parse_pwm_basic():
    assert parse_pwm_command("P 10 20 30 40 50\n") == (10, 20, 30, 40, 50)


# each malformed line and the message that names what is wrong with it
PWM_MALFORMED = {
    "P 300 0 0 0 0\n": "PWM value outside",
    "Q 1 2 3 4 5\n": "unknown command verb 'Q'",
    "P 1 2 3 4\n": "expected 6 fields, got 5",
    "P 1 2 3 4 5 6\n": "expected 6 fields, got 7",
    "P a 2 3 4 5\n": "non-numeric PWM value",
    "": "expected 6 fields, got 1",
}


@pytest.mark.parametrize("line", list(PWM_MALFORMED))
def test_parse_pwm_malformed(line):
    with pytest.raises(GlovekitError, match=PWM_MALFORMED[line]):
        parse_pwm_command(line)


@given(duty_st)
def test_pwm_round_trip(duty):
    [line] = encode_pwm_command(np.array([duty]))
    assert parse_pwm_command(line.decode("ascii")) == duty
