import errno
import io
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import fixture13 as fx
from glovekit.emulator import ChannelWaveform, EmulatorConfig, frame_blocks, run_emulator
from glovekit.errors import GlovekitError, TransportError
from glovekit.wire import StreamParser
from oracles import scalar_emulator_frames, scalar_frame_bytes


def flat_config(**kwargs):
    return EmulatorConfig(
        channels=tuple(ChannelWaveform(offset=512.0) for _ in range(5)), **kwargs
    )


def sine_config(**kwargs):
    ch = ChannelWaveform(offset=512.0, amplitude=100.0, frequency=1.0, phase=0.0)
    return EmulatorConfig(channels=(ch,) * 5, **kwargs)


def first_frames(cfg, n):
    """The stream's first n frames, as one block."""
    return next(frame_blocks(cfg, n, n))


def test_constant_waveform():
    assert first_frames(flat_config(), 10).tolist() == [[512, 512, 512, 512, 512]] * 10


def test_sine_starts_at_offset():
    assert first_frames(sine_config(), 1).tolist() == [[512] * 5]  # sin(0) = 0


def test_determinism_same_seed():
    a = first_frames(sine_config(noise_std=5.0, seed=42), 200)
    b = first_frames(sine_config(noise_std=5.0, seed=42), 200)
    assert np.array_equal(a, b)


def test_different_seeds_differ():
    a = first_frames(flat_config(noise_std=5.0, seed=1), 50)
    b = first_frames(flat_config(noise_std=5.0, seed=2), 50)
    assert not np.array_equal(a, b)


def test_noise_clamps_into_adc_range():
    cfg = EmulatorConfig(
        channels=tuple(ChannelWaveform(offset=5.0, amplitude=5.0, frequency=0.5) for _ in range(5)),
        noise_std=200.0,
        seed=3,
    )
    block = first_frames(cfg, 500)
    assert ((block >= 0) & (block <= 1023)).all()


def test_waveform_range_validated():
    with pytest.raises(GlovekitError):
        ChannelWaveform(offset=1000.0, amplitude=100.0)
    with pytest.raises(GlovekitError):
        ChannelWaveform(offset=50.0, amplitude=100.0)
    with pytest.raises(GlovekitError):
        EmulatorConfig(rate=0.0)


@pytest.mark.parametrize("offset,amplitude", [(0.0, -600.0), (0.0, 600.0), (500.0, -1e300),
                                              (500.0, 1e300), (1000.0, -100.0), (50.0, -100.0)])
def test_waveform_range_holds_for_either_sign_of_amplitude(offset, amplitude):
    with pytest.raises(GlovekitError) as error:
        ChannelWaveform(offset=offset, amplitude=amplitude)
    assert str(error.value) == f"waveform range {offset}±{abs(amplitude)} exceeds [0, 1023]"


def test_negative_amplitude_inside_the_range_is_accepted():
    ch = ChannelWaveform(offset=511.5, amplitude=-511.5, frequency=1.0, phase=math.pi / 2)
    assert first_frames(EmulatorConfig(channels=(ch,) * 5), 1).tolist() == [[0] * 5]


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("field", ["offset", "amplitude", "frequency", "phase"])
def test_waveform_values_must_be_finite(field, value):
    fields = {"offset": 512.0, "amplitude": 0.0, "frequency": 0.0, "phase": 0.0, field: value}
    listed = ", ".join(f"{name}={v!r}" for name, v in fields.items())
    with pytest.raises(GlovekitError) as error:
        ChannelWaveform(**{field: value})
    assert str(error.value) == f"waveform values must be finite, got ChannelWaveform({listed})"


def test_phase_must_stay_finite_over_the_duration():
    """2*pi*1e307 Hz is finite, and so is the phase over 0.01 s; over 10 s it
    is not, which ends the run before its first write."""
    ch = ChannelWaveform(offset=512.0, amplitude=100.0, frequency=1e307)
    cfg = EmulatorConfig(channels=(ch,) * 5)
    assert run_emulator(cfg, 0.01, io.BytesIO()) == 3
    sink = io.BytesIO()
    with pytest.raises(GlovekitError, match="channel 1: no finite phase at 1e\\+307 Hz over 10.0 s"):
        run_emulator(cfg, 10.0, sink)
    assert sink.getvalue() == b""


@pytest.mark.parametrize("duration,expected", [(1.0, 350), (0.01, 3)])
def test_frame_count_floor_rule(duration, expected):
    sink = io.BytesIO()
    assert run_emulator(flat_config(), duration, sink) == expected
    assert len(sink.getvalue()) == expected * 13


def test_fast_and_realtime_identical_bytes():
    cfg = sine_config(noise_std=2.0, seed=9, rate=350.0)
    fast = io.BytesIO()
    run_emulator(cfg, 0.05, fast, fast=True)
    paced = io.BytesIO()
    run_emulator(cfg, 0.05, paced, fast=False)
    assert fast.getvalue() == paced.getvalue()


def test_emitted_stream_decodes_cleanly():
    sink = io.BytesIO()
    run_emulator(sine_config(noise_std=3.0, seed=5), 0.5, sink)
    parser = StreamParser()
    frames = parser.feed(sink.getvalue())
    assert len(frames) == math.floor(0.5 * 350)
    assert parser.bytes_skipped == 0


# 0.01 s is under one block; 30 s is two full blocks and part of a third
@pytest.mark.parametrize("duration", [0.01, 30.0])
@pytest.mark.parametrize("noise_std", [0.0, 3.0, 8.0])
def test_stream_matches_frame_by_frame_reference(noise_std, duration):
    cfg = fx.emulator_config(seed=21, noise_std=noise_std)
    sink = io.BytesIO()
    run_emulator(cfg, duration, sink)
    frames = scalar_emulator_frames(cfg, math.floor(duration * cfg.rate))
    assert sink.getvalue() == b"".join(scalar_frame_bytes(f) for f in frames)


# blocks of any sizes continue one stream: this is what lets paced mode
# (blocks of 1) and fast mode (blocks of 4096) write the same bytes
@given(st.lists(st.integers(1, 5000), min_size=1, max_size=4), st.integers(0, 3))
@settings(max_examples=25, deadline=None)
def test_blocks_of_any_sizes_continue_one_stream(sizes, seed):
    cfg = fx.emulator_config(seed=seed, noise_std=3.0)
    total = sum(sizes)
    whole = first_frames(cfg, total)
    for size in sizes:
        blocks = list(frame_blocks(cfg, total, size))
        assert [len(b) for b in blocks[:-1]] == [size] * (len(blocks) - 1)
        assert np.array_equal(np.concatenate(blocks), whole)


def test_half_counts_round_away_from_zero():
    offsets = (0.5, 1.5, 2.5, 511.5, 1022.5)
    cfg = EmulatorConfig(channels=tuple(ChannelWaveform(offset=v) for v in offsets))
    assert first_frames(cfg, 1).tolist() == [[1, 2, 3, 512, 1023]]


@pytest.fixture
def sin_below_by_1e_12(monkeypatch):
    """np.sin a little below math.sin, as another host's numpy may give it."""
    sin = np.sin
    monkeypatch.setattr(np, "sin", lambda a: sin(a) - 1e-12)


@pytest.mark.parametrize("noise_std", [0.0, 8.0])
def test_stream_does_not_depend_on_the_last_bits_of_sin(sin_below_by_1e_12, noise_std):
    cfg = fx.emulator_config(seed=21, noise_std=noise_std)
    sink = io.BytesIO()
    run_emulator(cfg, 30.0, sink)
    frames = scalar_emulator_frames(cfg, math.floor(30.0 * cfg.rate))
    assert sink.getvalue() == b"".join(scalar_frame_bytes(f) for f in frames)


def test_half_counts_round_away_from_zero_whatever_the_last_bits_of_sin(sin_below_by_1e_12):
    """sin(0) = 0 puts each first value on k + 0.5; the low np.sin moves it
    just below, where it would round down, so math.sin must decide there."""
    offsets = (0.5, 1.5, 2.5, 511.5, 1022.5)
    amplitudes = (0.5, -1.5, 2.5, 511.5, -0.5)
    cfg = EmulatorConfig(channels=tuple(ChannelWaveform(offset=v, amplitude=a, frequency=1.0)
                                        for v, a in zip(offsets, amplitudes)))
    assert first_frames(cfg, 1).tolist() == [[1, 2, 3, 512, 1023]]


class _ClosingSink:
    """Records the size of each write; fails every write after ``fail_after``."""

    def __init__(self, fail_after=math.inf, error=ValueError("I/O operation on closed file")):
        self.fail_after = fail_after
        self.error = error
        self.sizes = []

    def write(self, data):
        if len(self.sizes) >= self.fail_after:
            raise self.error
        self.sizes.append(len(data))


# 30 s is 10 500 frames: blocks of 4096, 4096 and 2308
@pytest.mark.parametrize("fast,duration,frames_per_write", [
    (True, 30.0, [4096, 4096, 2308]), (False, 0.1, [1] * 35),
])
def test_one_write_per_block(fast, duration, frames_per_write):
    sink = _ClosingSink()
    assert run_emulator(flat_config(), duration, sink, fast=fast) == sum(frames_per_write)
    assert sink.sizes == [13 * n for n in frames_per_write]


def test_closed_transport_terminates_cleanly():
    # frames written counts the frames in completed writes
    for fail_after, frames in [(1, 4096), (2, 8192), (3, 10_500)]:
        assert run_emulator(flat_config(), 30.0, _ClosingSink(fail_after)) == frames
    assert run_emulator(flat_config(), 0.1, _ClosingSink(17), fast=False) == 17
    assert run_emulator(flat_config(), 30.0, _ClosingSink(1, BrokenPipeError())) == 4096


def test_failing_device_is_transport_error():
    full = _ClosingSink(1, OSError(errno.ENOSPC, "No space left on device"))
    with pytest.raises(TransportError, match="No space left"):
        run_emulator(flat_config(), 30.0, full)


def test_duration_must_be_positive():
    with pytest.raises(GlovekitError):
        run_emulator(flat_config(), 0.0, io.BytesIO())
