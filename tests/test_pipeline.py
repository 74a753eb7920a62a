import errno
import io
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import fixture13 as fx
from glovekit import model as model_module
from glovekit import pipeline
from glovekit.calibration import ForceFeedbackMap, identity_coupling_map
from glovekit.errors import TransportError
from glovekit.model import (
    BasisConfig,
    Demonstration,
    design_matrix,
    estimate_noise,
    fit_distribution,
    fit_weights,
    log_likelihood_per_joint,
    marginal_std,
    mean_trajectory,
    train_model,
)
from glovekit.pipeline import (
    evaluate,
    feedback_loop,
    frames_to_demo,
    read_raw_frames,
    record,
    reproduce,
)
from glovekit.wire import FRAME_SIZE, PwmCommand, StreamParser, parse_pwm_command


def recorded_demo(seed=11, duration=15.0, data=None):
    stream = data if data is not None else fx.emulate_stream(seed, duration)
    return record(
        io.BytesIO(stream),
        fx.make_profile(),
        fx.make_coupling13(),
        duration,
        fx.STREAM_RATE,
        fx.CONTROL_RATE,
    )


def flip_bytes(data, seed, fraction=0.01):
    """XOR a random nonzero value into ``fraction`` of the bytes."""
    data = bytearray(data)
    rng = np.random.default_rng(seed)
    for i in rng.choice(len(data), size=int(len(data) * fraction), replace=False):
        data[i] ^= int(rng.integers(1, 256))
    return bytes(data)


class TestRecord:
    def test_row_count_matches_rates(self):
        demo, stats = recorded_demo(duration=15.0)
        assert demo.T == 3000
        assert demo.D == 13
        assert stats.frames_received == 5250
        assert stats.bytes_skipped == 0
        assert not stats.partial

    def test_constant_stream_gives_constant_rows(self):
        from glovekit.emulator import ChannelWaveform, EmulatorConfig, run_emulator

        sink = io.BytesIO()
        cfg = EmulatorConfig(
            rate=350.0,
            channels=tuple(ChannelWaveform(offset=500.0) for _ in range(5)),
        )
        run_emulator(cfg, 1.0, sink)
        demo, _ = record(
            io.BytesIO(sink.getvalue()),
            fx.make_profile(),
            identity_coupling_map(),
            1.0,
            350.0,
            200.0,
        )
        assert np.allclose(demo.values, demo.values[0])

    def test_corrupted_stream_keeps_row_count(self):
        data = bytearray(fx.emulate_stream(11, 15.0))
        rng = np.random.default_rng(77)
        flips = rng.choice(len(data), size=len(data) // 100, replace=False)
        for i in flips:
            data[i] ^= int(rng.integers(1, 256))
        demo, stats = recorded_demo(data=bytes(data))
        assert demo.T == 3000
        assert stats.bytes_skipped > 0
        assert stats.frames_received < stats.nominal_frames
        assert not stats.partial

    def test_truncated_stream_flagged_partial(self):
        data = fx.emulate_stream(11, 15.0)
        demo, stats = recorded_demo(data=data[: len(data) // 4])
        assert stats.partial
        assert demo.T == 3000  # interpolation still fills the nominal grid

    def test_reads_ask_for_no_more_than_the_missing_frames(self):
        """No read asks past the bytes of the duration's nominal frames."""
        data = flip_bytes(fx.emulate_stream(11, 20.0), seed=5)
        limit = int(10.0 * fx.STREAM_RATE) * FRAME_SIZE

        class SpyReader(io.BytesIO):
            def __init__(self, data):
                super().__init__(data)
                self.sizes = []

            def read(self, size=-1):
                assert 0 < size <= min(pipeline._READ_CHUNK, limit - self.tell())
                self.sizes.append(size)
                return super().read(size)

        spy = SpyReader(data)
        raw, stats = read_raw_frames(spy, 10.0, fx.STREAM_RATE)
        assert spy.tell() == limit
        assert spy.sizes[0] == pipeline._READ_CHUNK and min(spy.sizes) < pipeline._READ_CHUNK
        assert stats.frames_received == raw.shape[0] < stats.nominal_frames

    def test_corrupted_stream_stays_close_to_clean(self):
        """Frames keep their stream position, so on a noise-free stream the
        rows bridging lost frames stay within interpolation error of the clean
        recording."""
        data = fx.emulate_stream(11, 15.0, noise_std=0.0)
        clean, _ = recorded_demo(data=data)
        demo, stats = recorded_demo(data=flip_bytes(data, seed=77))
        assert stats.frames_received < 0.9 * stats.nominal_frames
        assert np.sqrt(np.mean((demo.values - clean.values) ** 2)) < 1e-3

    def test_empty_stream_is_transport_error(self):
        with pytest.raises(TransportError):
            recorded_demo(data=b"")


PLACEMENT_STREAM = fx.emulate_stream(11, 5.0)


def demo_of(raw, stats):
    return frames_to_demo(raw, stats, fx.make_profile(), fx.make_coupling13(),
                          fx.STREAM_RATE, fx.CONTROL_RATE, 5.0)


@given(st.lists(st.tuples(st.integers(0, len(PLACEMENT_STREAM) - 1), st.integers(1, 255)),
                max_size=80))
@settings(max_examples=60, deadline=None)
def test_flipped_bytes_move_no_intact_frame(flips):
    """Byte flips lose frames but never move the intact ones: each keeps its
    clean index and values, and a row between two intact frames keeps the
    clean row's bits."""
    data = bytearray(PLACEMENT_STREAM)
    for pos, mask in flips:
        data[pos] ^= mask
    flipped = {pos for pos, _ in flips}
    clean_raw, clean_stats = read_raw_frames(io.BytesIO(PLACEMENT_STREAM), 5.0, fx.STREAM_RATE)
    raw, stats = read_raw_frames(io.BytesIO(bytes(data)), 5.0, fx.STREAM_RATE)
    _, offsets = StreamParser().decode(bytes(data))
    assert stats.index.tolist() == (offsets // FRAME_SIZE).tolist()
    assert np.all(np.diff(stats.index) > 0)
    intact = set()
    for k, offset in enumerate(offsets.tolist()):
        if offset % FRAME_SIZE == 0 and flipped.isdisjoint(range(offset, offset + FRAME_SIZE)):
            i = offset // FRAME_SIZE
            assert raw[k].tolist() == clean_raw[i].tolist()
            intact.add(i)
    demo, clean = demo_of(raw, stats), demo_of(clean_raw, clean_stats)
    for j, position in enumerate(np.arange(demo.T) * (fx.STREAM_RATE / fx.CONTROL_RATE)):
        if math.floor(position) in intact and math.ceil(position) in intact:
            assert demo.values[j].tobytes() == clean.values[j].tobytes()


class TestFeedbackLoop:
    def test_zero_forces_zero_commands(self):
        sink = io.BytesIO()
        sent = feedback_loop(ForceFeedbackMap(10.0), np.zeros((5, 5)), sink)
        assert all(cmd.duty == (0, 0, 0, 0, 0) for cmd in sent)
        assert sink.getvalue() == b"P 0 0 0 0 0\n" * 5

    def test_full_scale_single_finger(self):
        sink = io.BytesIO()
        sent = feedback_loop(ForceFeedbackMap(10.0), [[0.0, 10.0, 0.0, 0.0, 0.0]], sink)
        assert sent[0].duty == (0, 255, 0, 0, 0)

    def test_ramp_is_monotone(self):
        forces = np.linspace(0, 10, 40)[:, None] * np.ones((1, 5))
        sink = io.BytesIO()
        sent = feedback_loop(ForceFeedbackMap(10.0), forces, sink)
        duties = [cmd.duty[0] for cmd in sent]
        assert duties == sorted(duties)

    def test_commands_parse_on_the_emulator_side(self):
        sink = io.BytesIO()
        feedback_loop(ForceFeedbackMap(10.0), [[5.0] * 5, [10.0] * 5], sink)
        lines = sink.getvalue().decode().splitlines()
        commands = [parse_pwm_command(line + "\n") for line in lines]
        assert commands[-1] == PwmCommand((255,) * 5)

    def test_failed_transport_ends_cleanly(self):
        class Broken:
            def write(self, data):
                raise BrokenPipeError("gone")

        sent = feedback_loop(ForceFeedbackMap(10.0), np.ones((3, 5)), Broken())
        assert sent == []

    def test_failing_device_is_transport_error(self):
        class Full:
            def write(self, data):
                raise OSError(errno.ENOSPC, "No space left on device")

        with pytest.raises(TransportError, match="No space left"):
            feedback_loop(ForceFeedbackMap(10.0), np.ones((3, 5)), Full())


@pytest.fixture(scope="module")
def two_demo_model():
    demos = [recorded_demo(seed=s)[0] for s in fx.DEMO_SEEDS]
    model = train_model(demos, BasisConfig())
    return demos, model


class TestTrainReproduceEval:
    def test_model_dimensions(self, two_demo_model):
        _, model = two_demo_model
        assert model.D == 13
        assert model.mu_w.shape == (20 * 13,)

    def test_reproduce_tracks_mean(self, two_demo_model):
        _, model = two_demo_model
        result = reproduce(model, duration=15.0)
        assert result.reference.shape == (3000, 13)
        assert result.tracking.executed.shape == (3000, 13)
        assert np.all(result.tracking.rmse < 0.05)

    def test_eval_band_coverage(self, two_demo_model):
        demos, model = two_demo_model
        report = evaluate(model, demos)
        assert np.all(report.band_coverage >= 0.95)
        assert len(report.log_likelihoods) == 2

    def test_inflated_noise_does_not_reduce_coverage(self, two_demo_model):
        from glovekit.model import TrajectoryModel

        demos, model = two_demo_model
        wide = TrajectoryModel(
            model.basis, model.mu_w, model.sigma_w, model.sigma_y * 100.0, model.D
        )
        base = evaluate(model, demos).band_coverage
        inflated = evaluate(wide, demos).band_coverage
        assert np.all(inflated >= base)


def test_one_basis_matrix_per_distinct_length(monkeypatch):
    """train_model and evaluate build each length's basis matrix once, and
    give the bits of the per-demo public functions."""
    lengths = []

    def counting(T, config, _original=model_module.design_matrix):
        lengths.append(T)
        return _original(T, config)

    rng = np.random.default_rng(3)
    demos = [Demonstration(rng.normal(size=(T, 3)), 0.005) for T in (120, 90, 120, 90, 120)]
    config = BasisConfig(K=8)
    monkeypatch.setattr(model_module, "design_matrix", counting)
    monkeypatch.setattr(pipeline, "design_matrix", counting)
    model = train_model(demos, config)
    assert sorted(lengths) == [90, 120]
    same_length = [d for d in demos if d.T == 120]
    lengths.clear()
    report = evaluate(model, same_length)
    assert lengths == [120]
    monkeypatch.undo()

    weights = [fit_weights(d, config, design_matrix(d.T, config)) for d in demos]
    residuals = [d.values - design_matrix(d.T, config) @ w for d, w in zip(demos, weights)]
    assert model.mu_w.tobytes() == fit_distribution(weights)[0].tobytes()
    assert model.sigma_y.tobytes() == estimate_noise(residuals).tobytes()
    mean = mean_trajectory(model, design_matrix(120, config))
    assert report.mean.tobytes() == mean.tobytes()
    assert report.std.tobytes() == marginal_std(model, design_matrix(120, config)).tobytes()
    for got, demo in zip(report.per_joint_log_likelihoods, same_length):
        mean = mean_trajectory(model, design_matrix(demo.T, config))
        assert got.tobytes() == log_likelihood_per_joint(model, demo, mean).tobytes()
