import errno
import io
import os
import re
import socket
import sys
import threading
import time

import numpy as np
import pytest

import fixture13 as fx
from glovekit import formats, transports
from glovekit.cli import main
from glovekit.errors import GlovekitError
from glovekit.model import BasisConfig, Demonstration, train_model


@pytest.fixture
def workdir(tmp_path):
    formats.save_emulator_config(fx.emulator_config(seed=11), tmp_path / "emu.txt")
    formats.save_profile(fx.make_profile(), tmp_path / "calib.txt")
    formats.save_coupling(fx.make_coupling13(), tmp_path / "coupling.txt")
    return tmp_path


def run_session(workdir, seed, demo_name, duration=2.0):
    formats.save_emulator_config(fx.emulator_config(seed=seed), workdir / "emu.txt")
    stream = workdir / f"stream_{seed}.bin"
    assert main([
        "glove-emulate", "--config", str(workdir / "emu.txt"),
        "--duration", str(duration), "--fast", "--transport", f"file:{stream}",
    ]) == 0
    assert main([
        "record", "--transport", f"file:{stream}",
        "--calibration", str(workdir / "calib.txt"),
        "--coupling", str(workdir / "coupling.txt"),
        "--duration", str(duration), "--output", str(workdir / demo_name),
    ]) == 0


def test_emulate_record_train_reproduce_eval(workdir, capsys):
    run_session(workdir, 11, "demo1.txt")
    run_session(workdir, 12, "demo2.txt")
    demo, _ = formats.load_demo(workdir / "demo1.txt")
    assert demo.T == 400
    assert demo.D == 13

    assert main([
        "train", str(workdir / "demo1.txt"), str(workdir / "demo2.txt"),
        "--output", str(workdir / "model.txt"),
    ]) == 0
    model = formats.load_model(workdir / "model.txt")
    assert model.D == 13

    assert main([
        "reproduce", "--model", str(workdir / "model.txt"),
        "--duration", "2.0", "--output", str(workdir / "tracking.csv"),
    ]) == 0
    lines = (workdir / "tracking.csv").read_text().splitlines()
    assert len(lines) == 401

    assert main([
        "eval", str(workdir / "demo1.txt"), str(workdir / "demo2.txt"),
        "--model", str(workdir / "model.txt"),
        "--output", str(workdir / "bands.csv"),
    ]) == 0
    out = capsys.readouterr().out
    assert "band coverage" in out


def test_calibrate_subcommand(workdir):
    stream = workdir / "stream.bin"
    assert main([
        "glove-emulate", "--config", str(workdir / "emu.txt"),
        "--duration", "1.0", "--fast", "--transport", f"file:{stream}",
    ]) == 0
    assert main([
        "calibrate", "--transport", f"file:{stream}", "--duration", "1.0",
        "--output", str(workdir / "cal_out.txt"),
    ]) == 0
    profile = formats.load_profile(workdir / "cal_out.txt")
    for i in range(5):
        assert profile.raw_min[i] < profile.raw_max[i]


def test_tcp_transport_round_trip(workdir):
    port = 47653
    stream_args = [
        "glove-emulate", "--config", str(workdir / "emu.txt"),
        "--duration", "1.0", "--fast", "--transport", f"tcp:{port}",
    ]
    results = {}

    def emulate():
        results["emulate"] = main(stream_args)

    writer = threading.Thread(target=emulate)
    writer.start()
    rc = main([
        "record", "--transport", f"tcp:{port}",
        "--calibration", str(workdir / "calib.txt"),
        "--coupling", str(workdir / "coupling.txt"),
        "--duration", "1.0", "--output", str(workdir / "demo_tcp.txt"),
    ])
    writer.join(timeout=10)
    assert results["emulate"] == 0
    assert rc == 0
    demo, _ = formats.load_demo(workdir / "demo_tcp.txt")
    assert demo.T == 200


def test_feedback_subcommand(workdir):
    formats.save_tactile(
        [0.0, 0.1, 0.2],
        np.array([[0.0] * 5, [5.0] * 5, [10.0] * 5]),
        workdir / "tactile.txt",
    )
    out = workdir / "pwm.txt"
    assert main([
        "feedback", "--tactile", str(workdir / "tactile.txt"),
        "--f-max", "10.0", "--transport", f"file:{out}",
    ]) == 0
    assert out.read_bytes() == b"P 0 0 0 0 0\nP 128 128 128 128 128\nP 255 255 255 255 255\n"


def test_truncated_stream_exits_with_transport_code(workdir):
    stream = workdir / "stream.bin"
    main([
        "glove-emulate", "--config", str(workdir / "emu.txt"),
        "--duration", "0.2", "--fast", "--transport", f"file:{stream}",
    ])
    rc = main([
        "record", "--transport", f"file:{stream}",
        "--calibration", str(workdir / "calib.txt"),
        "--duration", "2.0", "--output", str(workdir / "partial.txt"),
    ])
    assert rc == 4


def test_missing_calibration_is_data_error(workdir):
    rc = main([
        "record", "--transport", "file:/dev/null",
        "--calibration", str(workdir / "nope.txt"),
        "--duration", "1.0", "--output", str(workdir / "demo.txt"),
    ])
    assert rc == 3


def test_zero_gain_rejected(workdir):
    run_session(workdir, 11, "demo1.txt")
    main(["train", str(workdir / "demo1.txt"), "--output", str(workdir / "model.txt")])
    rc = main([
        "reproduce", "--model", str(workdir / "model.txt"), "--kp", "0.0",
        "--duration", "2.0", "--output", str(workdir / "tracking.csv"),
    ])
    assert rc == 3


def test_single_demo_train_warns(workdir, capsys):
    run_session(workdir, 11, "demo1.txt")
    assert main([
        "train", str(workdir / "demo1.txt"), "--output", str(workdir / "model.txt"),
    ]) == 0
    assert "single demonstration" in capsys.readouterr().err


def test_eval_without_demos_is_usage_error(workdir):
    with pytest.raises(SystemExit) as exc:
        main(["eval", "--model", "model.txt", "--output", "bands.csv"])
    assert exc.value.code == 2


def test_train_load_reproduces_mean_byte_identically(workdir):
    run_session(workdir, 11, "demo1.txt")
    run_session(workdir, 12, "demo2.txt")
    main([
        "train", str(workdir / "demo1.txt"), str(workdir / "demo2.txt"),
        "--output", str(workdir / "m1.txt"),
    ])
    loaded = formats.load_model(workdir / "m1.txt")
    formats.save_model(loaded, workdir / "m2.txt")
    assert (workdir / "m1.txt").read_bytes() == (workdir / "m2.txt").read_bytes()


@pytest.mark.parametrize("command", ["record", "calibrate"])
def test_short_read_of_long_stream_returns(workdir, monkeypatch, capsys, command):
    """Reading 5 s of a 120 s stream stops at the nominal frame count and
    leaves the rest of the transport unread."""
    monkeypatch.setattr(
        sys, "stdin", io.TextIOWrapper(io.BytesIO(fx.emulate_stream(11, 120.0)))
    )
    argv = [command, "--transport", "pipe", "--duration", "5.0",
            "--output", str(workdir / "out.txt")]
    if command == "record":
        argv += ["--calibration", str(workdir / "calib.txt")]
    result = {}
    worker = threading.Thread(target=lambda: result.update(rc=main(argv)), daemon=True)
    worker.start()
    worker.join(timeout=20)
    assert not worker.is_alive()
    assert result["rc"] == 0
    out = capsys.readouterr().out
    received = int(re.match(r"frames (?:received|observed): (\d+)", out).group(1))
    assert received >= 5 * fx.STREAM_RATE


@pytest.mark.parametrize("command", ["record", "calibrate"])
def test_duration_reads_the_same_frames_as_its_prefix(workdir, capsys, command):
    """5 s of a clean 20 s stream give the bits and frame count of the stream's
    first 5 s on their own."""
    stream = fx.emulate_stream(11, 20.0)
    nominal = int(5.0 * fx.STREAM_RATE)
    outputs = []
    for name, data in (("long", stream), ("prefix", stream[: nominal * 13])):
        (workdir / f"{name}.bin").write_bytes(data)
        argv = [command, "--transport", f"file:{workdir / name}.bin", "--duration", "5.0",
                "--output", str(workdir / f"{name}.txt")]
        if command == "record":
            argv += ["--calibration", str(workdir / "calib.txt")]
        assert main(argv) == 0
        out = capsys.readouterr().out
        received = re.match(r"frames (?:received|observed): (\d+)(/\d+)?", out)
        assert received.group(1) == str(nominal)
        assert received.group(2) in (None, f"/{nominal}")
        outputs.append((workdir / f"{name}.txt").read_bytes())
    assert outputs[0] == outputs[1]


def test_corrupted_duration_records_the_same_file_as_its_prefix(workdir, capsys):
    """10 s of a corrupted 20 s stream give the demo and status line of the
    stream's first 10 s of bytes on their own, although frames were lost."""
    data = np.frombuffer(fx.emulate_stream(11, 20.0), dtype=np.uint8).copy()
    rng = np.random.default_rng(5)
    flips = rng.choice(data.size, size=data.size // 100, replace=False)
    data[flips] ^= rng.integers(1, 256, flips.size, dtype=np.uint8)
    outputs = []
    for name, stream in (("long", data), ("prefix", data[: int(10.0 * fx.STREAM_RATE) * 13])):
        (workdir / f"{name}.bin").write_bytes(stream.tobytes())
        assert main(["record", "--transport", f"file:{workdir / name}.bin",
                     "--calibration", str(workdir / "calib.txt"), "--duration", "10.0",
                     "--output", str(workdir / f"{name}.txt")]) == 0
        outputs.append((capsys.readouterr().out, (workdir / f"{name}.txt").read_bytes()))
    assert outputs[0] == outputs[1]
    assert not outputs[0][0].startswith("frames received: 3500/")


def test_train_prints_rms_of_the_fit_residual(workdir, capsys):
    run_session(workdir, 11, "demo1.txt")
    run_session(workdir, 12, "demo2.txt")
    capsys.readouterr()
    assert main([
        "train", str(workdir / "demo1.txt"), str(workdir / "demo2.txt"),
        "--output", str(workdir / "model.txt"),
    ]) == 0
    lines = capsys.readouterr().out.splitlines()
    rms = np.sqrt(formats.load_model(workdir / "model.txt").sigma_y)
    assert lines[1] == "per-joint RMS residual (rad): " + " ".join(f"{v:.6f}" for v in rms)


@pytest.mark.parametrize("rows,joints", [(400, 4), (300, 13)])
def test_eval_demo_shape_mismatch_is_data_error(workdir, capsys, rows, joints):
    run_session(workdir, 11, "demo1.txt")
    assert main(["train", str(workdir / "demo1.txt"), "--output", str(workdir / "model.txt")]) == 0
    formats.save_demo(Demonstration(np.zeros((rows, joints)), 0.005), workdir / "odd.txt")
    capsys.readouterr()
    rc = main([
        "eval", str(workdir / "demo1.txt"), str(workdir / "odd.txt"),
        "--model", str(workdir / "model.txt"), "--output", str(workdir / "bands.csv"),
    ])
    assert rc == 3
    err = capsys.readouterr().err
    assert err.startswith("error: demo 2 ") and err.count("\n") == 1


@pytest.mark.parametrize("key,value", [
    ("seed", "-1"), ("rate", "nan"), ("rate", "inf"), ("noise_std", "nan"), ("noise_std", "inf"),
])
def test_emulate_bad_config_value_is_data_error(workdir, capsys, key, value):
    path = workdir / "emu.txt"
    lines = [f"{key} {value}" if line.split()[0] == key else line
             for line in path.read_text().splitlines()]
    path.write_text("\n".join(lines) + "\n")
    rc = main(["glove-emulate", "--config", str(path), "--duration", "0.5", "--fast",
               "--transport", f"file:{workdir / 'stream.bin'}"])
    assert rc == 3
    err = capsys.readouterr().err
    assert err.startswith("error: ") and key in err and err.count("\n") == 1


_REQUIRED = {
    "glove-emulate": ["--config", "emu.txt", "--duration", "1", "--transport", "file:s.bin"],
    "record": ["--transport", "file:s.bin", "--calibration", "calib.txt", "--output", "d.txt"],
    "calibrate": ["--transport", "file:s.bin", "--output", "calib.txt"],
    "train": ["d.txt", "--output", "m.txt"],
    "reproduce": ["--model", "m.txt", "--output", "t.csv"],
    "feedback": ["--tactile", "t.txt", "--f-max", "1", "--transport", "file:p.txt"],
}
_FLOAT_OPTIONS = [
    ("glove-emulate", "--duration"),
    *[("record", o) for o in ("--duration", "--stream-rate", "--control-rate")],
    *[("calibrate", o) for o in ("--duration", "--stream-rate", "--joint-min", "--joint-max")],
    *[("train", o) for o in ("--basis-width", "--ridge", "--eps-reg")],
    *[("reproduce", o) for o in ("--duration", "--control-rate", "--kp", "--kd", "--inertia",
                                 "--damping", "--torque-limit")],
    ("feedback", "--f-max"),
]


@pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
@pytest.mark.parametrize("command,option", _FLOAT_OPTIONS)
def test_non_finite_float_option_is_usage_error(capsys, command, option, value):
    argv = [command, *_REQUIRED[command], f"{option}={value}"]
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    err = capsys.readouterr().err
    message = f"argument {option}: must be a finite number, got '{value}'"
    assert err.splitlines()[-1].endswith(message)
    assert "Traceback" not in err


@pytest.mark.parametrize("key,value", [
    ("h", "nan"), ("h", "inf"), ("lambda", "nan"), ("eps_reg", "nan"), ("eps_reg", "inf"),
    ("eps_reg", "-1.0"), ("mu_w", "nan"), ("mu_w", "inf"), ("sigma_w", "nan"),
    ("sigma_w", "inf"), ("sigma_y", "nan"), ("sigma_y", "inf"),
])
def test_non_finite_model_parameter_is_data_error(workdir, capsys, key, value):
    model = train_model([Demonstration(np.zeros((40, 2)), 0.005)], BasisConfig(K=4))
    formats.save_model(model, workdir / "model.txt")
    # the first value on each line of the key
    lines = [" ".join([key, value, *line.split()[2:]]) if line.split()[0] == key else line
             for line in (workdir / "model.txt").read_text().splitlines()]
    (workdir / "model.txt").write_text("\n".join(lines) + "\n")
    with pytest.raises(GlovekitError, match=key):
        formats.load_model(workdir / "model.txt")
    formats.save_demo(Demonstration(np.zeros((40, 2)), 0.005), workdir / "demo.txt")
    rc = main(["eval", str(workdir / "demo.txt"), "--model", str(workdir / "model.txt"),
               "--output", str(workdir / "bands.csv")])
    assert rc == 3
    err = capsys.readouterr().err
    assert err.startswith(f"error: {key} must be ") and err.count("\n") == 1
    assert not (workdir / "bands.csv").exists()


@pytest.mark.parametrize("force", ["nan", "inf", "-inf"])
def test_feedback_non_finite_force_is_data_error(workdir, capsys, force):
    (workdir / "tactile.txt").write_text(f"tactile-v1\n0.0 1 2 3 4 5\n0.1 1 {force} 3 4 5\n")
    out = workdir / "pwm.txt"
    rc = main(["feedback", "--tactile", str(workdir / "tactile.txt"), "--f-max", "10",
               "--transport", f"file:{out}"])
    assert rc == 3
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "finite" in err and err.count("\n") == 1
    assert not out.exists()


def test_feedback_overflowing_ratio_sends_full_scale(workdir):
    formats.save_tactile([0.0, 0.1], np.array([[0.0] * 5, [5.0] * 5]), workdir / "tactile.txt")
    out = workdir / "pwm.txt"
    assert main(["feedback", "--tactile", str(workdir / "tactile.txt"), "--f-max", "1e-320",
                 "--transport", f"file:{out}"]) == 0
    assert out.read_bytes() == b"P 0 0 0 0 0\nP 255 255 255 255 255\n"


@pytest.mark.parametrize("dt", ["nan", "inf"])
def test_non_finite_demo_dt_is_data_error(workdir, capsys, dt):
    formats.save_demo(Demonstration(np.zeros((40, 2)), 0.005), workdir / "demo.txt")
    lines = [f"dt {dt}" if line.split()[0] == "dt" else line
             for line in (workdir / "demo.txt").read_text().splitlines()]
    (workdir / "demo.txt").write_text("\n".join(lines) + "\n")
    with pytest.raises(GlovekitError, match="dt must be positive and finite"):
        formats.load_demo(workdir / "demo.txt")
    model = train_model([Demonstration(np.zeros((40, 2)), 0.005)], BasisConfig(K=4))
    formats.save_model(model, workdir / "model.txt")
    rc = main(["eval", str(workdir / "demo.txt"), "--model", str(workdir / "model.txt"),
               "--output", str(workdir / "bands.csv")])
    assert rc == 3
    err = capsys.readouterr().err
    assert err.startswith("error: dt must be positive and finite") and err.count("\n") == 1
    assert not (workdir / "bands.csv").exists()


_HUGE = [
    ["glove-emulate", "--config", "emu.txt", "--duration", "1e308", "--fast",
     "--transport", "file:out.bin"],
    ["calibrate", "--transport", "file:empty.bin", "--duration", "1e308",
     "--output", "cal_out.txt"],
    ["record", "--transport", "file:empty.bin", "--calibration", "calib.txt",
     "--duration", "1e308", "--output", "demo.txt"],
    ["record", "--transport", "file:empty.bin", "--calibration", "calib.txt",
     "--control-rate", "1e308", "--output", "demo.txt"],
    ["reproduce", "--model", "model.txt", "--duration", "1e308", "--output", "t.csv"],
    ["reproduce", "--model", "model.txt", "--control-rate", "1e308", "--output", "t.csv"],
    # finite, but 2**53 samples or more
    ["glove-emulate", "--config", "emu.txt", "--duration", "1e300", "--fast",
     "--transport", "file:out.bin"],
    ["record", "--transport", "file:empty.bin", "--calibration", "calib.txt",
     "--duration", "1e300", "--output", "demo.txt"],
    ["record", "--transport", "file:empty.bin", "--calibration", "calib.txt",
     "--duration", "2", "--control-rate", "1e300", "--output", "demo.txt"],
    ["reproduce", "--model", "model.txt", "--duration", "1e300", "--output", "t.csv"],
]


def _huge_id(argv):
    i = next(i for i, arg in enumerate(argv) if arg in ("1e308", "1e300"))
    return f"{argv[0]} {argv[i - 1]}" + ("" if argv[i] == "1e308" else f" {argv[i]}")


@pytest.mark.parametrize("argv", _HUGE, ids=_huge_id)
def test_huge_duration_or_rate_is_data_error(workdir, monkeypatch, capsys, argv):
    (workdir / "empty.bin").write_bytes(b"")
    model = train_model([Demonstration(np.zeros((40, 2)), 0.005)], BasisConfig(K=4))
    formats.save_model(model, workdir / "model.txt")
    monkeypatch.chdir(workdir)
    assert main(argv) == 3
    err = capsys.readouterr().err
    assert err.startswith("error: duration ") and "no finite sample count" in err
    assert err.count("\n") == 1


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
@pytest.mark.parametrize("argv,failing", [
    (["glove-emulate", "--config", "emu.txt", "--duration", "0.1", "--fast"], "closing /dev/full"),
    (["glove-emulate", "--config", "emu.txt", "--duration", "0.1"], "closing /dev/full"),
    (["feedback", "--tactile", "tactile.txt", "--f-max", "10"], "closing /dev/full"),
    # a 4096-frame block is larger than the write buffer, so the write itself fails
    (["glove-emulate", "--config", "emu.txt", "--duration", "1", "--fast"], "write"),
], ids=["emulate-fast", "emulate-paced", "feedback", "emulate-fast-block"])
def test_full_device_is_transport_error(workdir, monkeypatch, capsys, argv, failing):
    formats.save_tactile([0.0, 0.1], np.array([[0.0] * 5, [5.0] * 5]), workdir / "tactile.txt")
    monkeypatch.chdir(workdir)
    assert main([*argv, "--transport", "/dev/full"]) == 4
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"transport error: {failing} failed: [Errno 28] ")
    assert captured.err.count("\n") == 1


def test_tcp_reader_leaving_early_ends_paced_writer_cleanly(workdir, capsys):
    """A reader takes the first frame of a paced 2.5 s stream and closes with
    the rest of the first flushed buffer unread, which resets the connection;
    the writer's flush at close then fails with the reader gone."""
    port = 47654
    results = {}
    writer = threading.Thread(target=lambda: results.update(rc=main([
        "glove-emulate", "--config", str(workdir / "emu.txt"),
        "--duration", "2.5", "--transport", f"tcp:{port}",
    ])))
    writer.start()
    for _ in range(50):
        try:
            reader = socket.create_connection(("127.0.0.1", port))
            break
        except OSError:
            time.sleep(0.1)
    with reader:
        assert len(reader.recv(13)) > 0
    writer.join(timeout=10)
    assert results["rc"] == 0
    captured = capsys.readouterr()
    assert captured.out == "frames written: 875\n"
    assert captured.err == ""


@pytest.mark.parametrize("argv,status", [
    (["glove-emulate", "--config", "emu.txt", "--duration", "2", "--fast"], b"frames written: 700\n"),
    (["glove-emulate", "--config", "emu.txt", "--duration", "0.1"], b"frames written: 35\n"),
    (["feedback", "--tactile", "tactile.txt", "--f-max", "10"], b"commands sent: 2\n"),
], ids=["emulate-fast", "emulate-paced", "feedback"])
def test_pipe_writer_prints_its_status_line_to_stderr(workdir, monkeypatch, capsysbinary,
                                                      argv, status):
    """Under ``pipe`` stdout carries only the data, the same bytes a file gets;
    file transports keep the status line on stdout."""
    formats.save_tactile([0.0, 0.1], np.array([[0.0] * 5, [5.0] * 5]), workdir / "tactile.txt")
    monkeypatch.chdir(workdir)
    assert main([*argv, "--transport", "file:data.bin"]) == 0
    assert capsysbinary.readouterr() == (status, b"")
    assert main([*argv, "--transport", "pipe"]) == 0
    assert capsysbinary.readouterr() == ((workdir / "data.bin").read_bytes(), status)


class _GoneReader(io.RawIOBase):
    """A stdout whose reader has gone away, as after ``| head -c 100``."""

    gone = True

    def writable(self):
        return True

    def write(self, data):
        if self.gone:
            raise BrokenPipeError(errno.EPIPE, "Broken pipe")
        return len(data)


def test_pipe_writer_with_its_reader_gone_ends_cleanly(workdir, monkeypatch, capsys):
    raw = _GoneReader()
    stdout = io.TextIOWrapper(io.BufferedWriter(raw))
    monkeypatch.setattr(sys, "stdout", stdout)
    rc = main(["glove-emulate", "--config", str(workdir / "emu.txt"), "--duration", "30",
               "--fast", "--transport", "pipe"])
    raw.gone = False
    stdout.close()
    assert rc == 0
    assert capsys.readouterr().err == "frames written: 0\n"


def test_tcp_writer_without_client_times_out(workdir, monkeypatch, capsys):
    monkeypatch.setattr(transports, "_TCP_TIMEOUT", 0.2)
    with socket.socket() as probe:
        probe.bind(("127.0.0.1", 0))
        port = probe.getsockname()[1]
    rc = main(["glove-emulate", "--config", str(workdir / "emu.txt"), "--duration", "1",
               "--fast", "--transport", f"tcp:{port}"])
    assert rc == 4
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("transport error: TCP listen on port ")
    assert captured.err.endswith(" failed: timed out\n") and captured.err.count("\n") == 1


@pytest.mark.parametrize("command", ["record", "calibrate"])
def test_tcp_reader_of_a_silent_peer_times_out(workdir, monkeypatch, capsys, command):
    """The peer accepts the connection (in the listen backlog) and never sends."""
    monkeypatch.setattr(transports, "_TCP_TIMEOUT", 0.2)
    extra = {"record": ["--calibration", str(workdir / "calib.txt")], "calibrate": []}[command]
    with socket.socket() as peer:
        peer.bind(("127.0.0.1", 0))
        peer.listen(1)
        rc = main([command, "--transport", f"tcp:{peer.getsockname()[1]}", "--duration", "1",
                   *extra, "--output", str(workdir / "out.txt")])
    assert rc == 4
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "transport error: read timed out: timed out\n"
    assert not (workdir / "out.txt").exists()
