import io
import math

import pytest

import fixture13 as fx
from glovekit.emulator import ChannelWaveform, EmulatorConfig, GloveEmulator, run_emulator
from glovekit.errors import GlovekitError
from glovekit.wire import PwmCommand, StreamParser
from oracles import scalar_emulator_frames, scalar_frame_bytes


def flat_config(**kwargs):
    return EmulatorConfig(
        channels=tuple(ChannelWaveform(offset=512.0) for _ in range(5)), **kwargs
    )


def sine_config(**kwargs):
    ch = ChannelWaveform(offset=512.0, amplitude=100.0, frequency=1.0, phase=0.0)
    return EmulatorConfig(channels=(ch,) * 5, **kwargs)


def test_constant_waveform():
    emu = GloveEmulator(flat_config())
    for _ in range(10):
        assert emu.step().channels == (512, 512, 512, 512, 512)


def test_sine_starts_at_offset():
    emu = GloveEmulator(sine_config())
    assert emu.step().channels == (512,) * 5  # sin(0) = 0


def test_clock_advances_by_inverse_rate():
    emu = GloveEmulator(flat_config(rate=350.0))
    emu.step()
    emu.step()
    assert emu.t == pytest.approx(2.0 / 350.0)


def test_determinism_same_seed():
    a = GloveEmulator(sine_config(noise_std=5.0, seed=42))
    b = GloveEmulator(sine_config(noise_std=5.0, seed=42))
    assert [a.step() for _ in range(200)] == [b.step() for _ in range(200)]


def test_different_seeds_differ():
    a = GloveEmulator(flat_config(noise_std=5.0, seed=1))
    b = GloveEmulator(flat_config(noise_std=5.0, seed=2))
    assert [a.step() for _ in range(50)] != [b.step() for _ in range(50)]


def test_noise_clamps_into_adc_range():
    cfg = EmulatorConfig(
        channels=tuple(ChannelWaveform(offset=5.0, amplitude=5.0, frequency=0.5) for _ in range(5)),
        noise_std=200.0,
        seed=3,
    )
    emu = GloveEmulator(cfg)
    for _ in range(500):
        assert all(0 <= v <= 1023 for v in emu.step().channels)


def test_pwm_initially_zero_and_updates():
    emu = GloveEmulator(flat_config())
    assert emu.last_pwm == PwmCommand((0, 0, 0, 0, 0))
    emu.handle_pwm(PwmCommand((255, 0, 0, 0, 0)))
    assert emu.last_pwm == PwmCommand((255, 0, 0, 0, 0))
    emu.handle_pwm(PwmCommand((1, 2, 3, 4, 5)))
    assert emu.last_pwm == PwmCommand((1, 2, 3, 4, 5))


def test_waveform_range_validated():
    with pytest.raises(GlovekitError):
        ChannelWaveform(offset=1000.0, amplitude=100.0)
    with pytest.raises(GlovekitError):
        ChannelWaveform(offset=50.0, amplitude=100.0)
    with pytest.raises(GlovekitError):
        EmulatorConfig(rate=0.0)


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


def test_step_and_block_continue_one_stream():
    cfg = fx.emulator_config(seed=4)
    emu = GloveEmulator(cfg)
    out = [emu.step().channels for _ in range(3)]
    out += [tuple(row) for row in emu.block(500).tolist()]
    out.append(emu.step().channels)
    assert out == scalar_emulator_frames(cfg, 504)
    assert emu.t == 504 / cfg.rate


def test_half_counts_round_away_from_zero():
    offsets = (0.5, 1.5, 2.5, 511.5, 1022.5)
    cfg = EmulatorConfig(channels=tuple(ChannelWaveform(offset=v) for v in offsets))
    assert GloveEmulator(cfg).step().channels == (1, 2, 3, 512, 1023)


class _ClosingSink:
    def __init__(self, fail_after):
        self.fail_after = fail_after
        self.writes = 0

    def write(self, data):
        if self.writes >= self.fail_after:
            raise ValueError("I/O operation on closed file")
        self.writes += 1


def test_closed_transport_terminates_cleanly():
    written = run_emulator(flat_config(), 1.0, _ClosingSink(fail_after=17))
    assert written == 17
    # past the first block of frames
    written = run_emulator(flat_config(), 30.0, _ClosingSink(fail_after=5000))
    assert written == 5000


def test_duration_must_be_positive():
    with pytest.raises(GlovekitError):
        run_emulator(flat_config(), 0.0, io.BytesIO())
