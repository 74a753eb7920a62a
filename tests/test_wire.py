import io
import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import fixture13 as fx
from glovekit.emulator import run_emulator
from glovekit.errors import ProtocolError
from glovekit.wire import (
    FRAME_SIZE,
    PwmCommand,
    SensorFrame,
    StreamParser,
    encode_frames,
    encode_pwm_command,
    parse_pwm_command,
)
from oracles import ScalarStreamParser, scalar_frame_bytes

channels_st = st.tuples(*[st.integers(0, 1023)] * 5)
duty_st = st.tuples(*[st.integers(0, 255)] * 5)


def test_encode_zero_frame():
    assert encode_frames((0, 0, 0, 0, 0)) == bytes.fromhex(
        "a500000000000000000000000a"
    )


def test_encode_full_scale_first_channel():
    assert encode_frames((1023, 0, 0, 0, 0)) == bytes.fromhex(
        "a5ff030000000000000000fc0a"
    )


def test_frame_is_13_bytes():
    assert len(encode_frames((1, 2, 3, 4, 5))) == FRAME_SIZE


def test_frame_rejects_out_of_range():
    with pytest.raises(ProtocolError):
        SensorFrame((1024, 0, 0, 0, 0))
    with pytest.raises(ProtocolError):
        SensorFrame((0, 0, 0, 0))


@given(channels_st)
def test_round_trip_single_frame(channels):
    frame = SensorFrame(channels)
    parser = StreamParser()
    assert parser.feed(encode_frames(frame.channels)) == [frame]
    assert parser.bytes_skipped == 0
    assert len(parser.buffer) == 0


def test_split_frame_across_two_calls():
    frame = SensorFrame((10, 20, 30, 40, 50))
    data = encode_frames(frame.channels)
    parser = StreamParser()
    assert parser.feed(data[:7]) == []
    assert parser.feed(data[7:]) == [frame]
    assert parser.bytes_skipped == 0


def test_garbage_prefix_resync():
    frame = SensorFrame((100, 200, 300, 400, 500))
    parser = StreamParser()
    assert parser.feed(b"\x01\x02\x03" + encode_frames(frame.channels)) == [frame]
    assert parser.bytes_skipped == 3


def test_corrupted_checksum_then_valid_frame():
    good = SensorFrame((1, 2, 3, 4, 5))
    bad = bytearray(encode_frames((9, 9, 9, 9, 9)))
    bad[11] ^= 0xFF
    parser = StreamParser()
    frames = parser.feed(bytes(bad) + encode_frames(good.channels))
    assert frames == [good]
    assert parser.bytes_skipped > 0


@given(st.lists(channels_st, min_size=1, max_size=20), st.integers(1, 13))
@settings(max_examples=50, deadline=None)
def test_concatenation_any_chunking(all_channels, chunk):
    frames = [SensorFrame(c) for c in all_channels]
    data = encode_frames([f.channels for f in frames])
    parser = StreamParser()
    out = []
    for i in range(0, len(data), chunk):
        out.extend(parser.feed(data[i : i + chunk]))
    assert out == frames
    assert parser.bytes_skipped == 0


def test_non_sync_garbage_never_loses_frame():
    rng = np.random.default_rng(1)
    frame = SensorFrame((512, 0, 1023, 7, 300))
    for _ in range(50):
        garbage = bytes(int(v) for v in rng.integers(0, 256, rng.integers(1, 40)) if v != 0xA5)
        parser = StreamParser()
        assert parser.feed(garbage + encode_frames(frame.channels))[-1] == frame


def test_buffer_stays_below_frame_size_at_rest():
    parser = StreamParser()
    data = encode_frames((1, 1, 1, 1, 1)) * 7
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


@st.composite
def frame_bytes(draw):
    """A valid frame, or a frame with a random payload and a valid checksum
    (so its range check may fail), or the overlapping pair."""
    kind = draw(st.sampled_from(["valid", "raw", "pair"]))
    if kind == "valid":
        return encode_frames(draw(channels_st))
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
        decoded, offsets = parser.decode(chunk)
        assert decoded.shape[1] == 5
        known = len(reference.offsets)
        assert [tuple(row) for row in decoded.tolist()] == reference.feed(chunk)
        assert offsets.tolist() == reference.offsets[known:]
        assert parser.bytes_skipped == reference.bytes_skipped
        assert parser.frames_decoded == reference.frames_decoded
        assert parser.buffer == reference.buffer


@given(corrupted_stream(), st.lists(st.integers(1, 64), min_size=1, max_size=8))
@settings(max_examples=300, deadline=None)
def test_decode_matches_byte_by_byte_reference(data, chunk_sizes):
    assert_same_as_reference(data, chunk_sizes)


def test_overlapping_valid_frames_keep_the_first():
    first, _ = StreamParser().decode(OVERLAPPING_PAIR[:13])
    second, _ = StreamParser().decode(OVERLAPPING_PAIR[5:])
    assert len(first) == len(second) == 1
    both, offsets = StreamParser().decode(OVERLAPPING_PAIR)
    assert both.tolist() == first.tolist() and offsets.tolist() == [0]
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
    assert encode_pwm_command(PwmCommand((0, 0, 0, 0, 0))) == "P 0 0 0 0 0\n"


def test_encode_pwm_mixed():
    assert encode_pwm_command(PwmCommand((255, 0, 0, 0, 128))) == "P 255 0 0 0 128\n"


def test_pwm_rejects_out_of_range():
    with pytest.raises(ProtocolError):
        PwmCommand((256, 0, 0, 0, 0))
    with pytest.raises(ProtocolError):
        PwmCommand((-1, 0, 0, 0, 0))


def test_parse_pwm_basic():
    assert parse_pwm_command("P 10 20 30 40 50\n") == PwmCommand((10, 20, 30, 40, 50))


@pytest.mark.parametrize(
    "line",
    ["P 300 0 0 0 0\n", "Q 1 2 3 4 5\n", "P 1 2 3 4\n", "P 1 2 3 4 5 6\n", "P a 2 3 4 5\n", ""],
)
def test_parse_pwm_malformed(line):
    with pytest.raises(ProtocolError):
        parse_pwm_command(line)


@given(duty_st)
def test_pwm_round_trip(duty):
    cmd = PwmCommand(duty)
    assert parse_pwm_command(encode_pwm_command(cmd)) == cmd
