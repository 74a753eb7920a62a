import errno
import io
import itertools
import math
import os
import threading
import time
import weakref

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import fixture13 as fx
import oracles
from glovekit import model as model_module
from glovekit import pipeline
from glovekit.calibration import ExtremaBuilder, ForceFeedbackMap, identity_coupling_map
from glovekit.emulator import sample_count
from glovekit.errors import GlovekitError, TransportError
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
    read_raw_frames,
    record,
    reproduce,
)
from glovekit.wire import FRAME_SIZE, StreamParser


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


def collect(reader, duration):
    """Run the reader loop with a sink that appends each read's frames;
    returns all raw frames, their grid indices and the stream statistics."""
    raws, indices = [np.empty((0, 5))], [np.empty(0, dtype=np.int64)]

    def append(raw, index):
        raws.append(raw)
        indices.append(index)

    stats = read_raw_frames(reader, duration, fx.STREAM_RATE, append)
    return np.concatenate(raws), np.concatenate(indices), stats


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
        raw, _, stats = collect(spy, 10.0)
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


def demo_of(data):
    return recorded_demo(duration=5.0, data=data)[0]


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
    clean_raw, _, _ = collect(io.BytesIO(PLACEMENT_STREAM), 5.0)
    raw, index, _ = collect(io.BytesIO(bytes(data)), 5.0)
    offsets = StreamParser().feed(bytes(data))["offset"]
    assert index.tolist() == (offsets // FRAME_SIZE).tolist()
    assert np.all(np.diff(index) > 0)
    intact = set()
    for k, offset in enumerate(offsets.tolist()):
        if offset % FRAME_SIZE == 0 and flipped.isdisjoint(range(offset, offset + FRAME_SIZE)):
            i = offset // FRAME_SIZE
            assert raw[k].tolist() == clean_raw[i].tolist()
            intact.add(i)
    demo, clean = demo_of(bytes(data)), demo_of(PLACEMENT_STREAM)
    for j, position in enumerate(np.arange(demo.T) * (fx.STREAM_RATE / fx.CONTROL_RATE)):
        if math.floor(position) in intact and math.ceil(position) in intact:
            assert demo.values[j].tobytes() == clean.values[j].tobytes()


ORACLE_STREAM = fx.emulate_stream(12, 1.0)


class ShortReads(io.BytesIO):
    """Returns at most the next of ``sizes`` bytes per read, cycling."""

    def __init__(self, data, sizes):
        super().__init__(data)
        self.sizes = itertools.cycle(sizes)

    def read(self, size=-1):
        return super().read(min(size, next(self.sizes)))


@given(st.lists(st.tuples(st.integers(0, len(ORACLE_STREAM) - 1), st.integers(1, 255)),
                max_size=40),
       st.lists(st.integers(1, 600), min_size=1, max_size=12),
       st.integers(0, len(ORACLE_STREAM)),
       st.sampled_from([fx.CONTROL_RATE, 175.0, 350.0, 1000.0, 33.0]))
@example([], [1], 13, fx.CONTROL_RATE)
@example([], [1], 26, fx.CONTROL_RATE)
@example([], [13, 1, 25], len(ORACLE_STREAM), 175.0)
@settings(max_examples=80, deadline=None)
def test_streamed_record_equals_the_whole_stream_oracle(flips, sizes, end, control_rate):
    """Reads of random length put block edges everywhere: reads of 0 or 1
    frames, and grid positions on a read's last frame. The streamed rows
    keep the bits of one interpolation over the whole stream."""
    data = bytearray(ORACLE_STREAM[:end])
    for pos, mask in flips:
        if pos < end:
            data[pos] ^= mask
    data = bytes(data)
    profile, coupling = fx.make_profile(), fx.make_coupling13()
    frames = StreamParser().feed(data)
    reader = ShortReads(data, sizes)
    if len(frames) < 2:
        with pytest.raises(TransportError, match=f"received {len(frames)} frames"):
            record(reader, profile, coupling, 1.0, fx.STREAM_RATE, control_rate)
        return
    demo, stats = record(reader, profile, coupling, 1.0, fx.STREAM_RATE, control_rate)
    expected = oracles.whole_stream_demo(frames["channels"].astype(float),
                                         frames["offset"] // FRAME_SIZE, profile, coupling,
                                         fx.STREAM_RATE, control_rate, 1.0)
    assert demo.values.tobytes() == expected.tobytes()
    assert stats.frames_received == len(frames)


class CountingReader(io.BytesIO):
    def __init__(self, data):
        super().__init__(data)
        self.bytes_read = 0

    def read(self, size=-1):
        data = super().read(size)
        self.bytes_read += len(data)
        return data


def argument_case(duration, control_rate, message, stream_rate=fx.STREAM_RATE):
    """A case of the test below; its id names the stream rate only where it
    is not the default, so the cases at the default keep their ids."""
    shown = (duration, control_rate, message)
    if stream_rate != fx.STREAM_RATE:
        shown = (duration, stream_rate, control_rate, message)
    return pytest.param(duration, stream_rate, control_rate, message,
                        id="-".join(map(str, shown)))


@pytest.mark.parametrize("duration,stream_rate,control_rate,message", [
    argument_case(5.0, 0.0, "rate must be positive, got 0.0"),
    argument_case(5.0, -350.0, "rate must be positive, got -350.0"),
    argument_case(0.0, fx.CONTROL_RATE, "at least 2 samples"),
    argument_case(-1.0, fx.CONTROL_RATE, "at least 2 samples"),
    argument_case(0.003, fx.CONTROL_RATE, "at least 2 samples"),
    argument_case(0.0075, fx.CONTROL_RATE, "at least 2 samples"),
    argument_case(1e12, fx.CONTROL_RATE, "200000000000000 rows do not fit in memory"),
    argument_case(15.0, fx.CONTROL_RATE, "stream_rate must give at least 2 frames", 0.1),
    argument_case(15.0, fx.CONTROL_RATE, "stream_rate must give at least 2 frames", 0.01),
])
def test_argument_errors_come_before_any_read(duration, stream_rate, control_rate, message):
    """A rate or duration that gives no demo is a data error, raised before
    the transport is read, not after the whole duration."""
    reader = CountingReader(PLACEMENT_STREAM)
    with pytest.raises(GlovekitError, match=message) as info:
        record(reader, fx.make_profile(), fx.make_coupling13(), duration, stream_rate,
               control_rate)
    assert not isinstance(info.value, TransportError)
    assert reader.bytes_read == 0


@pytest.mark.parametrize("duration,stream_rate", [(15.0, 0.1), (0.001, fx.STREAM_RATE)])
def test_reader_loop_rejects_under_two_frames_before_any_read(duration, stream_rate):
    """``calibrate`` shares the reader loop with ``record``, so a duration and
    stream rate that give under 2 frames fail there, not as a degenerate
    range of the glove's channels after the read."""
    reader = CountingReader(PLACEMENT_STREAM)
    blocks = []
    with pytest.raises(GlovekitError, match="stream_rate must give at least 2 frames") as info:
        read_raw_frames(reader, duration, stream_rate, lambda raw, index: blocks.append(raw))
    assert not isinstance(info.value, TransportError)
    assert reader.bytes_read == 0
    assert blocks == []


@pytest.mark.parametrize("error", [
    OSError(errno.EIO, "Input/output error"),
    OSError(errno.ENXIO, "No such device or address"),
    TimeoutError("timed out"),
], ids=["EIO", "ENXIO", "timeout"])
def test_failed_read_is_transport_error(error):
    """A read that fails for any reason but the writer going away fails the
    stream: taking it as EOF would hold the rest of a recording at the last
    frame's value."""
    data = fx.emulate_stream(11, 2.0)
    reader = fx.FailingReader(data, len(data) * 3 // 5, error)
    blocks = []
    with pytest.raises(TransportError) as info:
        read_raw_frames(reader, 2.0, fx.STREAM_RATE, lambda raw, index: blocks.append(raw))
    assert str(info.value) == f"read failed: {error}"
    assert 0 < sum(len(raw) for raw in blocks) < 700


@pytest.mark.parametrize("error", [
    ConnectionResetError(errno.ECONNRESET, "Connection reset by peer"),
    ValueError("I/O operation on closed file"),
], ids=["reset", "closed"])
def test_writer_gone_ends_the_stream_as_eof_does(error):
    data = fx.emulate_stream(11, 2.0)
    cut = len(data) * 3 // 5
    gone = collect(fx.FailingReader(data, cut, error), 2.0)
    eof = collect(io.BytesIO(data[:cut]), 2.0)
    assert all(np.array_equal(a, b) for a, b in zip(gone[:2], eof[:2]))
    assert gone[2] == eof[2] == (cut // FRAME_SIZE, 0, 700, False)
    demo, stats = recorded_demo(duration=2.0, data=data[:cut])
    gone_demo, gone_stats = record(fx.FailingReader(data, cut, error), fx.make_profile(),
                                   fx.make_coupling13(), 2.0, fx.STREAM_RATE, fx.CONTROL_RATE)
    assert gone_demo.values.tobytes() == demo.values.tobytes() and gone_stats == stats


def test_live_pipe_records_the_bytes_of_a_file():
    """A pipe is waited on and read as its bytes arrive, in pieces of any size
    at any pace; the demo is the one the whole stream gives at once."""
    data = fx.emulate_stream(11, 2.0)
    read_fd, write_fd = os.pipe()

    def paced_writer():
        rng = np.random.default_rng(5)
        with os.fdopen(write_fd, "wb") as pipe:
            pos = 0
            while pos < len(data):
                step = int(rng.integers(1, 3000))
                pipe.write(data[pos : pos + step])
                pipe.flush()
                pos += step
                time.sleep(0.002)

    writer = threading.Thread(target=paced_writer)
    writer.start()
    with os.fdopen(read_fd, "rb") as reader:
        demo, stats = record(reader, fx.make_profile(), fx.make_coupling13(), 2.0,
                             fx.STREAM_RATE, fx.CONTROL_RATE)
    writer.join(timeout=10)
    expected, expected_stats = recorded_demo(duration=2.0, data=data)
    assert demo.values.tobytes() == expected.values.tobytes()
    assert stats == expected_stats


class ReadOnlyFile:
    """A reader with a descriptor and ``read`` alone, like the benchmark's
    timing proxy around a ``file:`` stream."""

    def __init__(self, path):
        self.file = open(path, "rb")
        self.reads = 0

    def fileno(self):
        return self.file.fileno()

    def read(self, size):
        self.reads += 1
        return self.file.read(size)


def test_regular_file_is_read_with_read_alone(tmp_path):
    """A regular file is never waited on: every read goes through ``read``."""
    path = tmp_path / "stream.bin"
    path.write_bytes(PLACEMENT_STREAM)
    reader = ReadOnlyFile(path)
    with reader.file:
        raw, index, stats = collect(reader, 5.0)
    expected = collect(io.BytesIO(PLACEMENT_STREAM), 5.0)
    assert np.array_equal(raw, expected[0]) and np.array_equal(index, expected[1])
    assert stats == expected[2]
    assert reader.reads == math.ceil(len(PLACEMENT_STREAM) / pipeline._READ_CHUNK)


def test_record_and_calibrate_hold_one_read_besides_the_output():
    """Neither step builds an array of the whole stream: besides the demo,
    what they hold stays under a fixed bound, and from 60 s to 300 s it grows
    by no more than the one bool per demo value that Demonstration's
    finiteness check holds for a moment."""
    record_extra, mask_bytes, calibrate_peak = {}, {}, {}
    for seconds in (60.0, 300.0):
        data = fx.emulate_stream(11, seconds)
        (demo, _), peak = oracles.traced_peak(lambda: recorded_demo(duration=seconds, data=data))
        record_extra[seconds], mask_bytes[seconds] = peak - demo.values.nbytes, demo.values.size
        builder, reader = ExtremaBuilder(), io.BytesIO(data)
        stats, calibrate_peak[seconds] = oracles.traced_peak(lambda: read_raw_frames(
            reader, seconds, fx.STREAM_RATE, lambda raw, index: builder.observe(raw)))
        assert stats.frames_received == sample_count(seconds, fx.STREAM_RATE)
    assert record_extra[300.0] < 1.5e6
    assert calibrate_peak[300.0] < 1e6
    assert (record_extra[300.0] - record_extra[60.0]
            < mask_bytes[300.0] - mask_bytes[60.0] + 32768)
    assert calibrate_peak[300.0] < calibrate_peak[60.0] + 32768


class TestFeedbackLoop:
    def test_zero_forces_zero_commands(self):
        sink = io.BytesIO()
        sent = feedback_loop(ForceFeedbackMap(10.0), np.zeros((5, 5)), sink)
        assert sent.shape == (5, 5) and not sent.any()
        assert sink.getvalue() == b"P 0 0 0 0 0\n" * 5

    def test_full_scale_single_finger(self):
        sink = io.BytesIO()
        sent = feedback_loop(ForceFeedbackMap(10.0), [[0.0, 10.0, 0.0, 0.0, 0.0]], sink)
        assert sent.tolist() == [[0, 255, 0, 0, 0]]

    def test_ramp_is_monotone(self):
        forces = np.linspace(0, 10, 40)[:, None] * np.ones((1, 5))
        sink = io.BytesIO()
        sent = feedback_loop(ForceFeedbackMap(10.0), forces, sink)
        duties = sent[:, 0].tolist()
        assert duties == sorted(duties)

    def test_commands_parse_on_the_emulator_side(self):
        sink = io.BytesIO()
        feedback_loop(ForceFeedbackMap(10.0), [[5.0] * 5, [10.0] * 5], sink)
        lines = sink.getvalue().decode().splitlines()
        commands = [oracles.parse_pwm_command(line + "\n") for line in lines]
        assert commands[-1] == (255,) * 5

    def test_failed_transport_ends_cleanly(self):
        class Broken:
            def write(self, data):
                raise BrokenPipeError("gone")

        sent = feedback_loop(ForceFeedbackMap(10.0), np.ones((3, 5)), Broken())
        assert sent.shape == (0, 5)

    def test_reader_leaving_midway_returns_the_rows_sent(self):
        class LeavesAfterTwo(io.BytesIO):
            def write(self, data):
                if self.getvalue().count(b"\n") == 2:
                    raise BrokenPipeError("gone")
                return super().write(data)

        sink = LeavesAfterTwo()
        forces = np.array([[0.0] * 5, [5.0] * 5, [10.0] * 5])
        sent = feedback_loop(ForceFeedbackMap(10.0), forces, sink)
        assert sent.tolist() == [[0] * 5, [128] * 5]
        assert sink.getvalue() == b"P 0 0 0 0 0\nP 128 128 128 128 128\n"

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
        assert model.mu_w.shape == (13, 20)

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
        assert len(report.per_joint_log_likelihoods) == 2

    def test_inflated_noise_does_not_reduce_coverage(self, two_demo_model):
        from glovekit.model import TrajectoryModel

        demos, model = two_demo_model
        wide = TrajectoryModel(model.basis, model.mu_w, model.sigma_w, model.sigma_y * 100.0)
        base = evaluate(model, demos).band_coverage
        inflated = evaluate(wide, demos).band_coverage
        assert np.all(inflated >= base)


def _train_and_eval(demos):
    """The model trained on ``demos`` and its report on them, as bytes."""
    model = train_model(demos(), BasisConfig(K=8))
    report = evaluate(model, demos())
    return ([a.tobytes() for a in (model.mu_w, model.sigma_w, model.sigma_y)]
            + [a.tobytes() for a in report.per_joint_log_likelihoods]
            + [a.tobytes() for a in report[1:]])


def test_train_and_evaluate_give_the_same_bytes_from_a_generator_as_from_a_list():
    rng = np.random.default_rng(8)
    demos = [Demonstration(np.cumsum(rng.normal(size=(150, 4)), axis=0), 0.005)
             for _ in range(5)]
    assert _train_and_eval(lambda: (demo for demo in demos)) == _train_and_eval(lambda: demos)


def test_train_and_evaluate_release_each_demo_before_requesting_the_next():
    """Of the demos train_model and evaluate take, none is alive, nor its
    values, by the time the next one is requested or the iterable ends."""
    rng = np.random.default_rng(9)
    values = [np.cumsum(rng.normal(size=(150, 4)), axis=0) for _ in range(4)]
    dead = []

    def fresh(v, refs):
        demo = Demonstration(v.copy(), 0.005)
        refs.append(weakref.ref(demo.values))
        return demo

    def demos():
        refs = []
        for v in values:
            dead.extend(ref() is None for ref in refs)
            yield fresh(v, refs)
        dead.extend(ref() is None for ref in refs)

    _train_and_eval(demos)
    assert len(dead) == 2 * (0 + 1 + 2 + 3 + 4) and all(dead)


@pytest.mark.parametrize("empty", [list, lambda: iter(())], ids=["list", "iterator"])
def test_train_and_evaluate_need_one_demonstration(empty):
    with pytest.raises(GlovekitError, match="at least one demonstration is required"):
        train_model(empty(), BasisConfig(K=8))
    model = train_model([Demonstration(np.zeros((40, 2)), 0.005)], BasisConfig(K=8))
    with pytest.raises(GlovekitError, match="at least one demonstration is required"):
        evaluate(model, empty())


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
