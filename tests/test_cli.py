import io
import re
import sys
import threading

import numpy as np
import pytest

import fixture13 as fx
from glovekit import formats
from glovekit.cli import main
from glovekit.model import Demonstration


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


def test_demo_seed_env_override(workdir, monkeypatch):
    stream_a = workdir / "a.bin"
    stream_b = workdir / "b.bin"
    monkeypatch.setenv("DEMO_SEED", "123")
    main([
        "glove-emulate", "--config", str(workdir / "emu.txt"),
        "--duration", "0.5", "--fast", "--transport", f"file:{stream_a}",
    ])
    monkeypatch.setenv("DEMO_SEED", "124")
    main([
        "glove-emulate", "--config", str(workdir / "emu.txt"),
        "--duration", "0.5", "--fast", "--transport", f"file:{stream_b}",
    ])
    assert stream_a.read_bytes() != stream_b.read_bytes()


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


@pytest.mark.parametrize("seed,code", [("x", 2), ("1.5", 2), ("-1", 3)])
def test_emulate_bad_demo_seed(workdir, monkeypatch, capsys, seed, code):
    monkeypatch.setenv("DEMO_SEED", seed)
    rc = main(["glove-emulate", "--config", str(workdir / "emu.txt"), "--duration", "0.5",
               "--fast", "--transport", f"file:{workdir / 'stream.bin'}"])
    assert rc == code
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "seed" in err.lower() and err.count("\n") == 1
