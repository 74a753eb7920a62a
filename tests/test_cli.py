import argparse
import errno
import io
import os
import re
import socket
import subprocess
import sys
import threading
import time
import warnings
import weakref
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import fixture13 as fx
import oracles
from glovekit import cli, formats, pipeline, transports
from glovekit import model as model_module
from glovekit.cli import main
from glovekit.errors import GlovekitError
from glovekit.model import BasisConfig, Demonstration, train_model
from mutations import SAMPLES, mutated_file


@pytest.fixture
def workdir(tmp_path):
    (tmp_path / "emu.txt").write_text(oracles.emu_text(fx.emulator_config(seed=11)))
    formats.save_profile(fx.make_profile(), tmp_path / "calib.txt")
    (tmp_path / "coupling.txt").write_text(oracles.coupling_text(fx.make_coupling13().weights))
    return tmp_path


def run_session(workdir, seed, demo_name, duration=2.0):
    (workdir / "emu.txt").write_text(oracles.emu_text(fx.emulator_config(seed=seed)))
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
    demo = formats.load_demo(workdir / "demo1.txt")
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


@pytest.mark.parametrize("duration,rate", [("15", "0.1"), ("0.001", "350")])
def test_calibrate_under_two_frames_is_argument_error(workdir, capsys, duration, rate):
    """A duration and stream rate that give under 2 frames name the
    arguments, not a degenerate channel range, and write no profile."""
    stream = workdir / "stream.bin"
    stream.write_bytes(fx.emulate_stream(11, 2.0))
    rc = main(["calibrate", "--transport", f"file:{stream}", "--duration", duration,
               "--stream-rate", rate, "--output", str(workdir / "cal_out.txt")])
    assert rc == 3
    assert capsys.readouterr().err == (
        "error: duration * stream_rate must give at least 2 frames\n")
    assert not (workdir / "cal_out.txt").exists()


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
    demo = formats.load_demo(workdir / "demo_tcp.txt")
    assert demo.T == 200


def test_feedback_subcommand(workdir):
    (workdir / "tactile.txt").write_text(
        oracles.tactile_text([0.0, 0.1, 0.2], [[0.0] * 5, [5.0] * 5, [10.0] * 5]))
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


def test_missing_calibration_is_data_error(workdir, capsys):
    path = workdir / "nope.txt"
    rc = main([
        "record", "--transport", "file:/dev/null",
        "--calibration", str(path),
        "--duration", "1.0", "--output", str(workdir / "demo.txt"),
    ])
    assert rc == 3
    err = capsys.readouterr().err
    assert err == f"error: cannot read {path}: No such file or directory\n"
    assert err.count(str(path)) == 1


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


@pytest.mark.parametrize("command", ["train", "eval"])
def test_demos_that_disagree_on_dt_are_data_error(workdir, capsys, command):
    """Both commands that take a demo set need one dt, so that the bands CSV's
    time column is every demo's time; the error names the file that differs."""
    demos = [workdir / "a.txt", workdir / "b.txt"]
    for path, dt in zip(demos, [0.005, 0.01]):
        formats.save_demo(Demonstration(np.zeros((40, 2)), dt), path)
    formats.save_model(train_model([Demonstration(np.zeros((40, 2)), 0.005)], BasisConfig(K=4)),
                       workdir / "model.txt")
    output = workdir / "out.csv"
    model = ["--model", str(workdir / "model.txt")] if command == "eval" else []
    rc = main([command, *map(str, demos), *model, "--output", str(output)])
    assert rc == 3
    assert capsys.readouterr().err == (
        f"error: {demos[1]}: dt 0.01 differs from the first demo's 0.005\n")
    assert not output.exists()


@pytest.mark.parametrize("command", ["train", "eval"])
def test_demo_files_are_checked_one_at_a_time_in_order(workdir, capsys, command):
    """Each demo file is loaded and checked when the one before it has been
    used, so of two faulty files the earlier one is reported: file 2's dt,
    not file 3's bad token, which on its own is an error too."""
    demos = [workdir / "a.txt", workdir / "b.txt", workdir / "c.txt"]
    for path, dt in zip(demos, [0.005, 0.01, 0.005]):
        formats.save_demo(Demonstration(np.zeros((40, 2)), dt), path)
    oracles.edit_token(demos[2], 7, 1, lambda token: "zero")  # row 3's first value
    formats.save_model(train_model([Demonstration(np.zeros((40, 2)), 0.005)], BasisConfig(K=4)),
                       workdir / "model.txt")
    output = workdir / "out.csv"
    model = ["--model", str(workdir / "model.txt")] if command == "eval" else []
    assert main([command, str(demos[0]), str(demos[2]), *model, "--output", str(output)]) == 3
    assert capsys.readouterr().err.startswith(f"error: {demos[2]}: ")
    assert main([command, *map(str, demos), *model, "--output", str(output)]) == 3
    assert capsys.readouterr().err == (
        f"error: {demos[1]}: dt 0.01 differs from the first demo's 0.005\n")
    assert not output.exists()


def test_train_checks_its_basis_options_before_the_first_demo(workdir, capsys):
    """The basis comes from the options alone, so a bad --basis-count is
    reported before a demo file is read, even one that is not a demo."""
    (workdir / "bad.txt").write_text("not a demo\n")
    assert main(["train", str(workdir / "bad.txt"), "--basis-count", "0",
                 "--output", str(workdir / "out.txt")]) == 3
    assert capsys.readouterr() == ("", "error: K must be >= 1, got 0\n")
    assert not (workdir / "out.txt").exists()


@pytest.mark.parametrize("command", ["train", "eval"])
def test_train_and_eval_memory_does_not_grow_with_the_demo_count(workdir, capsys, command):
    """Both commands hold one demo at a time: on 10 copies of a demo file
    they peak less than one demo's (T, D + 1) table above their peak on 2."""
    t_steps, d = 3000, 13
    rng = np.random.default_rng(5)
    demo = Demonstration(np.cumsum(rng.normal(size=(t_steps, d)), axis=0) * 0.01, 0.005)
    formats.save_demo(demo, workdir / "demo.txt")
    formats.save_model(train_model([demo], BasisConfig()), workdir / "model.txt")
    del demo
    model = ["--model", str(workdir / "model.txt")] if command == "eval" else []
    peaks = {}
    for copies in (2, 10):
        argv = [command, *[str(workdir / "demo.txt")] * copies, *model,
                "--output", str(workdir / "out.txt")]
        rc, peaks[copies] = oracles.traced_peak(lambda: main(argv))
        assert rc == 0
    capsys.readouterr()
    assert abs(peaks[10] - peaks[2]) < t_steps * (d + 1) * 8


@pytest.mark.parametrize("command", ["train", "eval"])
def test_train_and_eval_release_each_demo_before_the_next_file_loads(workdir, monkeypatch,
                                                                    capsys, command):
    """No demo that train or eval loaded, nor its values, is alive while
    they load the next file."""
    demo = Demonstration(np.cumsum(np.ones((40, 2)), axis=0), 0.005)
    formats.save_demo(demo, workdir / "demo.txt")
    formats.save_model(train_model([demo], BasisConfig(K=4)), workdir / "model.txt")
    del demo
    refs, dead = [], []

    def load_demo(path, _load=formats.load_demo):
        dead.extend(ref() is None for ref in refs)
        loaded = _load(path)
        refs.append(weakref.ref(loaded.values))
        return loaded

    monkeypatch.setattr(formats, "load_demo", load_demo)
    model = ["--model", str(workdir / "model.txt")] if command == "eval" else []
    assert main([command, *[str(workdir / "demo.txt")] * 3, *model,
                 "--output", str(workdir / "out.txt")]) == 0
    capsys.readouterr()
    assert len(dead) == 3 and all(dead)


def _old_bands_csv_text(times, mean, std, demos):
    """The bands CSV as it was when it also copied each demo: time, then per
    joint mean, std and each demo's value, in today's cell spelling."""
    d = mean.shape[1]
    header = ["time"]
    for j in range(d):
        name = f"j{j + 1:02d}"
        header += [f"{name}_mean", f"{name}_std"]
        header += [f"{name}_demo{n + 1}" for n in range(len(demos))]
    lines = [",".join(header)]
    for i, t in enumerate(times):
        cells = [repr(float(t))]
        for j in range(d):
            cells += [oracles.table_cell(mean[i, j]), oracles.table_cell(std[i, j])]
            cells += [oracles.table_cell(demo[i, j]) for demo in demos]
        lines.append(",".join(cells))
    return "\n".join(lines) + "\n"


def _long_demos(tmp_path):
    """Three 13-joint demos of 6000 rows: long enough that OpenBLAS splits a
    product's T-long sum across its threads."""
    rng = np.random.default_rng(9)
    demos = [str(tmp_path / f"demo{i}.txt") for i in range(3)]
    for path in demos:
        formats.save_demo(Demonstration(np.cumsum(rng.normal(size=(6000, 13)), 0), 0.005), path)
    return demos


def _run_module(argv, **env):
    """``python -m glovekit.cli *argv`` on this checkout's package, with ``env``
    added to the environment."""
    src = str(Path(formats.__file__).parents[1])
    env = {**os.environ, **env,
           "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    return subprocess.run([sys.executable, "-m", "glovekit.cli", *argv], env=env,
                          capture_output=True, text=True, timeout=300)


def _cli_at_blas_threads(threads, *argv):
    """stdout of ``python -m glovekit.cli *argv`` with OpenBLAS and OpenMP held
    to ``threads`` threads; the command must exit 0 and print no error."""
    result = _run_module(argv, OPENBLAS_NUM_THREADS=threads, OMP_NUM_THREADS=threads)
    assert (result.returncode, result.stderr) == (0, "")
    return result.stdout


def test_train_bytes_do_not_depend_on_the_blas_thread_count(tmp_path):
    """``train`` writes the same model bytes at one BLAS thread and at two."""
    demos = _long_demos(tmp_path)
    output = tmp_path / "model.txt"
    models = []
    for threads in ("1", "2"):
        _cli_at_blas_threads(threads, "train", *demos, "--output", str(output))
        models.append(output.read_bytes())
    assert models[0] == models[1]


def test_eval_and_reproduce_bytes_do_not_depend_on_the_blas_thread_count(tmp_path):
    """``eval`` (its stdout and bands CSV) and ``reproduce`` (its tracking CSV)
    give the same bytes at one BLAS thread and at two, for a model of the same
    long demos; ``reproduce`` runs as many 200 Hz steps as a demo has rows."""
    demos = _long_demos(tmp_path)
    model = str(tmp_path / "model.txt")
    formats.save_model(train_model([formats.load_demo(p) for p in demos], BasisConfig()), model)
    bands, tracking = tmp_path / "bands.csv", tmp_path / "tracking.csv"
    runs = []
    for threads in ("1", "2"):
        stdout = _cli_at_blas_threads(threads, "eval", *demos, "--model", model,
                                      "--output", str(bands))
        _cli_at_blas_threads(threads, "reproduce", "--model", model, "--duration", "30",
                             "--output", str(tracking))
        runs.append((stdout, bands.read_bytes(), tracking.read_bytes()))
    assert runs[0] == runs[1]


def test_bands_csv_depends_only_on_the_model_rows_and_dt(workdir):
    """Two demo sets of one shape and dt give the same bands CSV bytes, and
    each of its cells is the matching time, mean or std cell of the layout
    that also copied the demos."""
    rng = np.random.default_rng(3)
    dt = 1 / 350  # i * dt is not i / 350, so the time column's bits are checked
    names = [f"demo{n}.txt" for n in range(1, 5)]
    for name in names:
        formats.save_demo(Demonstration(rng.normal(size=(300, 3)), dt), workdir / name)
    demos = [formats.load_demo(workdir / name) for name in names]
    formats.save_model(train_model(demos, BasisConfig(K=6)), workdir / "model.txt")
    for pair, output in [(names[:2], "bands_a.csv"), (names[2:], "bands_b.csv")]:
        assert main(["eval", *(str(workdir / name) for name in pair),
                     "--model", str(workdir / "model.txt"), "--output", str(workdir / output)]) == 0
    text = (workdir / "bands_a.csv").read_text()
    assert (workdir / "bands_b.csv").read_text() == text

    report = pipeline.evaluate(formats.load_model(workdir / "model.txt"), demos[:2])
    old = _old_bands_csv_text(np.arange(300) * dt, report.mean, report.std,
                              [d.values for d in demos[:2]])
    old_rows = [line.split(",") for line in old.splitlines()]
    kept = [i for i, name in enumerate(old_rows[0]) if "_demo" not in name]
    assert text.splitlines() == [",".join(row[i] for i in kept) for row in old_rows]


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
    "eval": ["d.txt", "--model", "m.txt", "--output", "b.csv"],
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


def _subparsers(parser):
    """``parser``'s command name -> subparser table."""
    (action,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    return action.choices


def test_float_options_are_every_finite_float_option():
    """_FLOAT_OPTIONS, which the non-finite test runs on, lists every option the
    full parser reads with _finite_float, so a new one cannot skip that test."""
    declared = [(command, action.option_strings[0])
                for command, sub in _subparsers(cli.build_parser()).items()
                for action in sub._actions if action.type is cli._finite_float]
    assert declared == _FLOAT_OPTIONS


def _built_subparsers(monkeypatch) -> list:
    """The names of the subparsers built from here on, in order."""
    built = []
    add_parser = argparse._SubParsersAction.add_parser

    def spy(self, name, **kwargs):
        built.append(name)
        return add_parser(self, name, **kwargs)

    monkeypatch.setattr(argparse._SubParsersAction, "add_parser", spy)
    return built


def test_a_run_builds_only_its_own_subparser(tmp_path, monkeypatch, capsys):
    demo = tmp_path / "demo.txt"
    rng = np.random.default_rng(3)
    formats.save_demo(Demonstration(np.cumsum(rng.normal(size=(200, 13)), 0), 0.005), demo)
    built = _built_subparsers(monkeypatch)
    assert main(["train", str(demo), "--output", str(tmp_path / "model.txt")]) == 0
    assert built == ["train"]


@pytest.mark.parametrize("argv", [[], ["--help"], ["nope"]])
def test_help_or_no_known_command_builds_every_subparser(monkeypatch, capsys, argv):
    built = _built_subparsers(monkeypatch)
    with pytest.raises(SystemExit):
        main(argv)
    assert built == list(_REQUIRED)


def _outcome(parse, capsys) -> tuple:
    """(exit code, stdout, stderr, parsed Namespace or None) of ``parse()``."""
    try:
        namespace, code = parse(), 0
    except SystemExit as exc:
        namespace, code = None, exc.code
    return (code, *capsys.readouterr(), namespace)


def _full_parse(argv, capsys) -> tuple:
    return _outcome(lambda: cli.build_parser().parse_args(argv), capsys)


_PARSE_CASES = [
    *[[command, "--help"] for command in _REQUIRED],
    *[[command, *argv] for command, argv in _REQUIRED.items()],
    *[[command, *argv, "--bogus"] for command, argv in _REQUIRED.items()],
    # every minimal argv ends in a required option and its value
    *[[command, *argv[:-2]] for command, argv in _REQUIRED.items()],
    [], ["--help"], ["nope"], ["--bogus", "train"],
]


@pytest.mark.parametrize("argv", _PARSE_CASES, ids=lambda argv: " ".join(argv) or "-")
def test_main_parses_as_the_full_parser(monkeypatch, capsys, argv):
    """main builds a parser for the named command alone, yet its exit code,
    output and Namespace are the full parser's; a parsed argv stops before
    the command runs."""
    expected = _full_parse(argv, capsys)
    parsed = []
    parse_args = argparse.ArgumentParser.parse_args

    def parse_without_running(self, args=None, namespace=None):
        parsed.append(parse_args(self, args, namespace))
        return argparse.Namespace(run=lambda args: cli.EXIT_OK)

    def run_main():
        assert main(argv) == cli.EXIT_OK
        return parsed[0]

    monkeypatch.setattr(argparse.ArgumentParser, "parse_args", parse_without_running)
    assert _outcome(run_main, capsys) == expected


def test_module_entry_parses_its_command_line_as_the_full_parser(monkeypatch, capsys):
    """``python -m glovekit.cli`` hands main no argv, so main reads sys.argv."""
    monkeypatch.setenv("COLUMNS", "80")
    argv = ["train", *_REQUIRED["train"], "--bogus"]
    result = _run_module(argv)
    code, out, err, _ = _full_parse(argv, capsys)
    assert err.endswith("error: unrecognized arguments: --bogus\n")
    assert (result.returncode, result.stdout, result.stderr) == (code, out, err)


@pytest.mark.parametrize("key,value", [
    ("h", "nan"), ("h", "inf"), ("lambda", "nan"), ("eps_reg", "nan"), ("eps_reg", "inf"),
    ("eps_reg", "-1.0"), ("mu_w", "nan"), ("mu_w", "inf"), ("sigma_w", "nan"),
    ("sigma_w", "inf"), ("sigma_y", "nan"), ("sigma_y", "inf"),
])
def test_non_finite_model_parameter_is_data_error(workdir, capsys, key, value):
    model = train_model([Demonstration(np.zeros((40, 2)), 0.005)], BasisConfig(K=4))
    formats.save_model(model, workdir / "model.txt")
    # the first value on the key's line
    lines = [" ".join([key, value, *line.split()[2:]]) if line.split()[0] == key else line
             for line in (workdir / "model.txt").read_text().splitlines()]
    if key == "sigma_w":  # the first value of the table's first row
        lines[8] = " ".join([value, *lines[8].split()[1:]])
    (workdir / "model.txt").write_text("\n".join(lines) + "\n")
    with pytest.raises(GlovekitError, match=key):
        formats.load_model(workdir / "model.txt")
    formats.save_demo(Demonstration(np.zeros((40, 2)), 0.005), workdir / "demo.txt")
    rc = main(["eval", str(workdir / "demo.txt"), "--model", str(workdir / "model.txt"),
               "--output", str(workdir / "bands.csv")])
    assert rc == 3
    err = capsys.readouterr().err
    assert err.startswith(f"error: {workdir / 'model.txt'}: {key} must be ")
    assert err.count("\n") == 1
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
    (workdir / "tactile.txt").write_text(oracles.tactile_text([0.0, 0.1], [[0.0] * 5, [5.0] * 5]))
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
    assert err == f"error: {workdir / 'demo.txt'}: dt must be positive and finite, got {dt}\n"
    assert not (workdir / "bands.csv").exists()


def test_float_overflow_is_data_error(workdir, capsys):
    """A demo step of 1e308 s is finite, but the bands CSV's time column is
    not: the overflow ends ``eval`` in one error line, with no CSV written."""
    formats.save_demo(Demonstration(np.zeros((40, 2)), 0.005), workdir / "demo.txt")
    text = (workdir / "demo.txt").read_text().replace("\ndt 0.005\n", "\ndt 1e308\n", 1)
    (workdir / "demo.txt").write_text(text)
    model = train_model([Demonstration(np.zeros((40, 2)), 0.005)], BasisConfig(K=4))
    formats.save_model(model, workdir / "model.txt")
    rc = main(["eval", str(workdir / "demo.txt"), "--model", str(workdir / "model.txt"),
               "--output", str(workdir / "bands.csv")])
    assert rc == 3
    assert capsys.readouterr().err == "error: overflow encountered in multiply\n"
    assert not (workdir / "bands.csv").exists()


# a demo and a model of zero joints: both load as text, neither is a trajectory
ZERO_JOINT_DEMO = "demo-v1\nD 0\ndt 0.005\njoints \n0.0\n0.005\n0.01\n"
ZERO_JOINT_MODEL = "promp-v3\nK 3\nD 0\nh 0.5\nlambda 1e-06\neps_reg 1e-08\nmu_w \nsigma_y \n"


def test_zero_joint_demo_is_data_error(workdir, capsys):
    (workdir / "demo.txt").write_text(ZERO_JOINT_DEMO)
    rc = main(["train", str(workdir / "demo.txt"), "--output", str(workdir / "model.txt")])
    assert rc == 3
    assert capsys.readouterr().err == (f"error: {workdir / 'demo.txt'}: "
                                       "demonstration needs D >= 1 joints, got 0\n")
    assert not (workdir / "model.txt").exists()


@pytest.mark.parametrize("argv", [
    ["eval", "demo.txt", "--model", "model.txt", "--output", "bands.csv"],
    ["reproduce", "--model", "model.txt", "--output", "bands.csv"],
], ids=lambda argv: argv[0])
def test_zero_joint_model_is_data_error(workdir, monkeypatch, capsys, argv):
    formats.save_demo(Demonstration(np.zeros((40, 2)), 0.005), workdir / "demo.txt")
    (workdir / "model.txt").write_text(ZERO_JOINT_MODEL)
    monkeypatch.chdir(workdir)
    assert main(argv) == 3
    assert capsys.readouterr().err == "error: model.txt: model needs D >= 1 joints, got 0\n"
    assert not (workdir / "bands.csv").exists()


@pytest.mark.parametrize("argv", [
    ["eval", "demo.txt", "--model", "model.txt", "--output", "bands.csv"],
    ["reproduce", "--model", "model.txt", "--output", "bands.csv"],
], ids=lambda argv: argv[0])
def test_promp_v1_model_is_data_error(workdir, monkeypatch, capsys, argv):
    """A promp-v1 file, which held the whole (K*D) x (K*D) weight covariance,
    and a promp-v2 file, with its ``normalize`` and ``centers`` lines and keyed
    ``sigma_w`` rows, are not read: one error line, exit 3, and ``train``
    makes a promp-v3 one."""
    formats.save_demo(Demonstration(np.cumsum(np.ones((40, 2)), 0), 0.005), workdir / "demo.txt")
    head = ("K 2\nD 2\nh 0.5\nlambda 1e-06\neps_reg 1e-08\nnormalize 1\ncenters 0.0 1.0\n"
            "mu_w 1.0 2.0 3.0 4.0\n")
    # promp-v1 holds the whole 4 x 4 covariance, promp-v2 each joint's 2 x 2 block
    v1 = ("promp-v1\n" + head + "sigma_w 1e-08 0.0 0.0 0.0\nsigma_w 0.0 1e-08 0.0 0.0\n"
          "sigma_w 0.0 0.0 1e-08 0.0\nsigma_w 0.0 0.0 0.0 1e-08\nsigma_y 1e-08 1e-08\n")
    v2 = ("promp-v2\n" + head + "sigma_w 1e-08 0.0\nsigma_w 0.0 1e-08\n"
          "sigma_w 1e-08 0.0\nsigma_w 0.0 1e-08\nsigma_y 1e-08 1e-08\n")
    monkeypatch.chdir(workdir)
    for old in (v1, v2):
        (workdir / "model.txt").write_text(old)
        assert main(argv) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: model.txt: missing 'promp-v3' header\n"
        assert not (workdir / "bands.csv").exists()


@pytest.mark.parametrize("value", ["0", "-350"])
@pytest.mark.parametrize("argv", [
    ["record", "--transport", "file:stream.bin", "--calibration", "calib.txt",
     "--duration", "1", "--output", "out.txt", "--stream-rate"],
    ["calibrate", "--transport", "file:stream.bin", "--duration", "1", "--output", "out.txt",
     "--stream-rate"],
    ["record", "--transport", "file:stream.bin", "--calibration", "calib.txt",
     "--duration", "1", "--output", "out.txt", "--control-rate"],
    ["reproduce", "--model", "model.txt", "--output", "out.txt", "--control-rate"],
], ids=lambda argv: f"{argv[0]} {argv[-1]}")
def test_non_positive_rate_is_data_error(workdir, monkeypatch, capsys, argv, value):
    (workdir / "stream.bin").write_bytes(fx.emulate_stream(11, 1.0))
    formats.save_model(train_model([Demonstration(np.zeros((40, 2)), 0.005)], BasisConfig(K=4)),
                       workdir / "model.txt")
    monkeypatch.chdir(workdir)
    assert main([*argv[:-1], f"{argv[-1]}={value}"]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: rate must be positive, got {float(value)!r}\n"
    assert not (workdir / "out.txt").exists()


@pytest.mark.parametrize("duration", ["0", "-1", "0.003", "0.0075"])
def test_record_duration_under_two_rows_is_data_error(workdir, monkeypatch, capsys, duration):
    (workdir / "stream.bin").write_bytes(fx.emulate_stream(11, 1.0))
    monkeypatch.chdir(workdir)
    assert main(["record", "--transport", "file:stream.bin", "--calibration", "calib.txt",
                 f"--duration={duration}", "--output", "out.txt"]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: duration * control_rate must give at least 2 samples\n"
    assert not (workdir / "out.txt").exists()


@pytest.mark.parametrize("frames", [0, 1])
def test_record_of_under_two_frames_is_transport_error(workdir, monkeypatch, capsys, frames):
    (workdir / "stream.bin").write_bytes(fx.emulate_stream(11, 1.0)[: frames * 13])
    monkeypatch.chdir(workdir)
    assert main(["record", "--transport", "file:stream.bin", "--calibration", "calib.txt",
                 "--duration", "1", "--output", "out.txt"]) == 4
    captured = capsys.readouterr()
    assert captured.err == (
        f"transport error: received {frames} frames, cannot build a trajectory\n")
    assert not (workdir / "out.txt").exists()


@st.composite
def cli_input(draw):
    """An input format's short name and a mutated file of that format."""
    kind = draw(st.sampled_from(list(SAMPLES)))
    return kind, draw(mutated_file(kind))


def _readers(d, file) -> dict:
    """Per input format, the subcommands that read it, with ``file`` in its
    place and the valid sample of every other format beside it."""
    out = str(d / "out.txt")
    record = ["record", "--transport", f"file:{d / 'stream.bin'}", "--duration", "0.2",
              "--output", out]
    return {
        "emu": [["glove-emulate", "--config", str(file), "--duration", "0.01", "--fast",
                 "--transport", f"file:{out}"]],
        "calib": [[*record, "--calibration", str(file)]],
        "coupling": [[*record, "--calibration", str(d / "calib"), "--coupling", str(file)]],
        "demo": [["train", str(file), "--output", out],
                 ["eval", str(file), "--model", str(d / "model"), "--output", out]],
        "model": [["eval", str(d / "demo"), "--model", str(file), "--output", out],
                  ["reproduce", "--model", str(file), "--duration", "0.1", "--output", out]],
        "tactile": [["feedback", "--tactile", str(file), "--f-max", "1",
                     "--transport", f"file:{out}"]],
    }


@pytest.fixture(scope="module")
def inputs_dir(tmp_path_factory):
    """The valid sample of every input format and a short stream to record."""
    d = tmp_path_factory.mktemp("cli_inputs")
    for name, text in SAMPLES.items():
        (d / name).write_text(text)
    (d / "stream.bin").write_bytes(fx.emulate_stream(11, 0.2))
    return d


def assert_documented_exit(argv) -> str:
    """``main(argv)`` exits 0, 3 or 4, with one stderr line when it fails and
    no warning; any other exception escapes and fails the caller. Returns
    the stderr text."""
    stderr = io.StringIO()
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        with redirect_stdout(io.StringIO()), redirect_stderr(stderr):
            rc = main(argv)
    err = stderr.getvalue()
    assert rc in (0, 3, 4), (argv[0], err)
    if rc:
        assert err.endswith("\n") and err.count("\n") == 1, err
    assert [str(w.message) for w in caught] == []
    return err


@given(case=cli_input())
@example(case=("demo", ZERO_JOINT_DEMO.encode()))
@example(case=("model", ZERO_JOINT_MODEL.encode()))
@example(case=("emu", b"emu-v1\nchannel1.frequency 1e400\n"))
@example(case=("emu", b"emu-v1\nchannel1.phase nan\n"))
@settings(max_examples=300, deadline=None)
def test_any_input_file_ends_in_a_documented_exit_code(inputs_dir, case):
    """Every subcommand that reads a mutated emu, calib, coupling, demo, model
    or tactile file ends in a documented exit code."""
    kind, content = case
    (inputs_dir / "mutated").write_bytes(content)
    for argv in _readers(inputs_dir, inputs_dir / "mutated")[kind]:
        assert_documented_exit(argv)


BAD_NUMBERS = ["nan", "inf", "-inf", "1e400", "1e308", "-1e308", "-1", "0", "1e-300"]


def _is_float(token) -> bool:
    try:
        float(token)
    except ValueError:
        return False
    return True


def _as_promp_v2(v3):
    """A promp-v3 file's lines in the promp-v2 layout, each as (line, index of
    the promp-v3 line it holds or None, columns its values moved right): the
    ``normalize`` and ``centers`` lines after the scalars, a ``sigma_w`` key
    on each row and ``sigma_y`` last."""
    k = int(v3[1].split(" ")[1])
    centers = "centers " + " ".join(map(repr, np.linspace(0, 1, k).tolist()))
    return [("promp-v2", 0, 0), *((v3[i], i, 0) for i in range(1, 6)),
            ("normalize 1", None, 0), (centers, None, 0), (v3[6], 6, 0),
            *(("sigma_w " + v3[i], i, 1) for i in range(8, len(v3))), (v3[7], 7, 0)]


MODEL_V2 = _as_promp_v2(SAMPLES["model"].splitlines())


def _numeric_tokens():
    """(format, line, column) of every token of a valid sample that parses as a
    float, a model's in the promp-v2 layout of its sample."""
    texts = {**SAMPLES, "model": "\n".join(line for line, _, _ in MODEL_V2)}
    for kind, text in texts.items():
        for i, line in enumerate(text.splitlines()):
            for j, token in enumerate(line.split(" ")):
                if _is_float(token):
                    yield kind, i, j


@pytest.mark.parametrize("value", BAD_NUMBERS)
@pytest.mark.parametrize("kind,line,col", list(_numeric_tokens()))
def test_bad_number_in_any_field_ends_in_a_documented_exit_code(inputs_dir, tmp_path,
                                                                 kind, line, col, value):
    """Each numeric token of each format, replaced by an edge value, through
    every subcommand that reads the format: the contract of the property
    above, key by key and not by random draw. A model's field, named by its
    place in the promp-v2 layout, leaves that layout failing on its header,
    then is swept in the promp-v3 sample if promp-v3 kept it."""
    bad = tmp_path / "bad"
    if kind == "model":
        old = [row.split(" ") for row, _, _ in MODEL_V2]
        old[line][col] = value
        bad.write_text("\n".join(" ".join(row) for row in old) + "\n")
        for argv in _readers(inputs_dir, bad)[kind]:
            assert assert_documented_exit(argv) == f"error: {bad}: missing 'promp-v3' header\n"
        _, line, shift = MODEL_V2[line]
        if line is None:
            return
        col -= shift
    lines = [row.split(" ") for row in SAMPLES[kind].splitlines()]
    lines[line][col] = value
    bad.write_text("\n".join(" ".join(row) for row in lines) + "\n")
    # a model's D below 1 must be named, not the sigma_w row count it implies
    names_d = kind == "model" and lines[line][0] == "D" and value in ("0", "-1")
    for argv in _readers(inputs_dir, bad)[kind]:
        err = assert_documented_exit(argv)
        if names_d:
            assert err == f"error: {bad}: model needs D >= 1 joints, got {value}\n", argv[0]


def test_bad_number_sweep_holds_each_float_token_once():
    """The sweep reaches each float token of each sample exactly once: a
    model's through its promp-v2 place, mapped back to promp-v3, and every
    other format's where it stands. Its (format, line, column) cases, and so
    its ids, are unique."""
    tokens = [(kind, i, j) for kind, text in SAMPLES.items()
              for i, line in enumerate(text.splitlines())
              for j, token in enumerate(line.split(" ")) if _is_float(token)]
    cases = list(_numeric_tokens())
    assert len(set(cases)) == len(cases)
    swept = []
    for kind, line, col in cases:
        if kind == "model":
            _, line, shift = MODEL_V2[line]
            if line is None:
                continue
            col -= shift
        swept.append((kind, line, col))
    assert sorted(swept) == sorted(tokens)


def _copy_line(start):
    """Repeat the first line that starts with ``start`` right after it."""
    def edit(lines):
        i = next(i for i, line in enumerate(lines) if line.startswith(start))
        return lines[: i + 1] + lines[i:]
    return edit


def _edit_line(start, edit):
    return lambda lines: [edit(line) if line.startswith(start) else line for line in lines]


MODEL_HEADER = "model header must be 'K', 'D', 'h', 'lambda', 'eps_reg', 'mu_w', 'sigma_y' lines"

# (format, edit of its valid sample's lines, what the error line must say)
KEY_RULE_CASES = {
    "model-copied-h": ("model", _copy_line("h "), "model key 'h' repeated"),
    "model-copied-mu_w": ("model", _copy_line("mu_w "), "model key 'mu_w' repeated"),
    "model-K-extra-token": ("model", _edit_line("K ", lambda line: line + " junk"),
                            "'K' takes one value, got 2"),
    "model-unknown-key": ("model", lambda lines: lines[:1] + ["colour blue"] + lines[1:],
                          MODEL_HEADER),
    "model-missing-sigma_y": ("model", lambda lines: [line for line in lines
                                                      if not line.startswith("sigma_y ")],
                              MODEL_HEADER),
    "emu-copied-rate": ("emu", _copy_line("rate "), "emulator config key 'rate' repeated"),
    "demo-D-extra-token": ("demo", _edit_line("D ", lambda line: line + " 2"),
                           "'D' takes one value, got 2"),
    "calib-copied-channel": ("calib", _copy_line("channel 3 "), "channel 3 repeated"),
}


@pytest.fixture
def samples_dir(inputs_dir, tmp_path):
    """A fresh copy of every valid sample and of the stream, so that no other
    test's output is found where a failing command must write none."""
    for name, text in SAMPLES.items():
        (tmp_path / name).write_text(text)
    (tmp_path / "stream.bin").write_bytes((inputs_dir / "stream.bin").read_bytes())
    return tmp_path


@pytest.mark.parametrize("case", KEY_RULE_CASES)
def test_key_rule_violation_is_data_error(samples_dir, capsys, case):
    """A repeated key, a scalar key with other than one value, an unknown key
    and a missing model key end in exit 3 with one line naming the key,
    through every subcommand that reads the format, and write no output."""
    kind, edit, message = KEY_RULE_CASES[case]
    bad = samples_dir / "bad"
    bad.write_text("\n".join(edit(SAMPLES[kind].splitlines())) + "\n")
    for argv in _readers(samples_dir, bad)[kind]:
        assert main(argv) == 3, argv[0]
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1 and message in err, err
        assert not (samples_dir / "out.txt").exists()


def _set_line(start, text):
    return _edit_line(start, lambda line: text)


# (format, edit of its valid sample's lines, the error after the file's name):
# a value that the record built from the file rejects, that load_model checks,
# or whose arithmetic overflows while the file loads
RECORD_RULE_CASES = {
    "calib-CalibrationProfile": ("calib", _set_line("channel 2 ", "channel 2 900 100 0 1.5"),
                                 "channel 2: raw_min must be < raw_max"),
    "coupling-CouplingMap": ("coupling", _set_line("row 0.0 0.0 0.0 ", "row 0 0 0 0.5 0.6"),
                             "coupling weights must sum to 1 per output"),
    "coupling-overflow": ("coupling", _set_line("row 1.0 ", "row 1e308 1e308 0 0 0"),
                          "overflow encountered in reduce"),
    "demo-dt": ("demo", _set_line("dt ", "dt 0"), "dt must be positive and finite, got 0.0"),
    "demo-one-row": ("demo", lambda lines: lines[:5],
                     "demonstration needs T >= 2 samples, got 1"),
    # numpy's table reader warns on no rows, so it must never see them
    "demo-no-rows": ("demo", lambda lines: lines[:4],
                     "demonstration needs T >= 2 samples, got 0"),
    "tactile-no-rows": ("tactile", lambda lines: lines[:1], "empty tactile profile"),
    "model-BasisConfig": ("model", _set_line("K ", "K 0"), "K must be >= 1, got 0"),
    "model-TrajectoryModel": ("model", _set_line("sigma_y ", "sigma_y -1 0"),
                              "sigma_y entries must be nonnegative"),
    "model-D": ("model", _set_line("D ", "D 0"), "model needs D >= 1 joints, got 0"),
    "model-mu_w-count": ("model", _edit_line("mu_w ", lambda line: line.rsplit(" ", 1)[0]),
                         "sigma_w must be 12 rows of 6 values, mu_w 12 values"),
    "emu-ChannelWaveform": ("emu", _set_line("channel3.amplitude ", "channel3.amplitude 600"),
                            "waveform range 500.0±600.0 exceeds [0, 1023]"),
    "emu-ChannelWaveform-negative": ("emu", _set_line("channel3.amplitude ",
                                                      "channel3.amplitude -600"),
                                     "waveform range 500.0±600.0 exceeds [0, 1023]"),
    "emu-ChannelWaveform-huge-negative": ("emu", _set_line("channel3.amplitude ",
                                                           "channel3.amplitude -1e300"),
                                          "waveform range 500.0±1e+300 exceeds [0, 1023]"),
    "emu-EmulatorConfig": ("emu", _set_line("seed ", "seed -1"),
                           "seed must be nonnegative, got -1"),
}


@pytest.mark.parametrize("case", RECORD_RULE_CASES)
def test_record_rule_violation_names_the_file(samples_dir, capsys, case):
    """A value that a record class rejects, that load_model checks itself, or
    whose float arithmetic overflows while loading ends every subcommand that
    reads the file in exit 3 with one line that names the file first, and
    writes no output."""
    kind, edit, message = RECORD_RULE_CASES[case]
    bad = samples_dir / "bad"
    bad.write_text("\n".join(edit(SAMPLES[kind].splitlines())) + "\n")
    for argv in _readers(samples_dir, bad)[kind]:
        assert main(argv) == 3, argv[0]
        assert capsys.readouterr().err == f"error: {bad}: {message}\n", argv[0]
        assert not (samples_dir / "out.txt").exists()


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


FULL_DEVICE_WRITERS = [
    ["glove-emulate", "--config", "emu.txt", "--duration", "0.1", "--fast"],
    ["glove-emulate", "--config", "emu.txt", "--duration", "0.1"],
    ["feedback", "--tactile", "tactile.txt", "--f-max", "10"],
    # 350 frames in one block: more than a device's 4 KiB buffer or a pipe's atomic write
    ["glove-emulate", "--config", "emu.txt", "--duration", "1", "--fast"],
]
FULL_DEVICE_IDS = ["emulate-fast", "emulate-paced", "feedback", "emulate-fast-block"]


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
@pytest.mark.parametrize("argv", FULL_DEVICE_WRITERS, ids=FULL_DEVICE_IDS)
def test_full_device_is_transport_error(workdir, monkeypatch, capsys, argv):
    """A device is written through its descriptor, so its first write fails."""
    (workdir / "tactile.txt").write_text(oracles.tactile_text([0.0, 0.1], [[0.0] * 5, [5.0] * 5]))
    monkeypatch.chdir(workdir)
    assert main([*argv, "--transport", "/dev/full"]) == 4
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("transport error: write failed: [Errno 28] ")
    assert captured.err.count("\n") == 1


class _FullStdout(io.RawIOBase):
    """A stdout with no descriptor on a full disk."""

    full = True

    def writable(self):
        return True

    def write(self, data):
        if self.full:
            raise OSError(errno.ENOSPC, "No space left on device")
        return len(data)


@pytest.mark.parametrize("argv", FULL_DEVICE_WRITERS[:3], ids=FULL_DEVICE_IDS[:3])
def test_full_buffered_stdout_is_transport_error(workdir, monkeypatch, capsys, argv):
    """A stream without a descriptor is written through its buffer, so a
    stream smaller than the buffer fails when it is flushed at close."""
    (workdir / "tactile.txt").write_text(oracles.tactile_text([0.0, 0.1], [[0.0] * 5, [5.0] * 5]))
    monkeypatch.chdir(workdir)
    raw = _FullStdout()
    stdout = io.TextIOWrapper(io.BufferedWriter(raw))
    monkeypatch.setattr(sys, "stdout", stdout)
    rc = main([*argv, "--transport", "pipe"])
    raw.full = False
    stdout.close()
    assert rc == 4
    err = capsys.readouterr().err
    assert err.startswith("transport error: closing pipe failed: [Errno 28] ")
    assert err.count("\n") == 1


# each file-writing command, up to its --output
OUTPUT_WRITERS = {
    "calibrate": ["calibrate", "--transport", "file:stream.bin", "--duration", "1"],
    "record": ["record", "--transport", "file:stream.bin", "--calibration", "calib.txt",
               "--duration", "1"],
    "train": ["train", "demo1.txt", "demo2.txt"],
    "reproduce": ["reproduce", "--model", "model.txt", "--duration", "1"],
    "eval": ["eval", "demo1.txt", "demo2.txt", "--model", "model.txt"],
}


@pytest.mark.parametrize("target", [
    "missing/out.txt",
    "adir",
    pytest.param("/dev/full", marks=pytest.mark.skipif(not os.path.exists("/dev/full"),
                                                       reason="needs /dev/full")),
], ids=["missing-directory", "directory", "dev-full"])
@pytest.mark.parametrize("command", list(OUTPUT_WRITERS))
def test_unwritable_output_is_data_error(workdir, monkeypatch, capsys, command, target):
    """An --output that cannot be opened, written or closed ends in one error
    line, not a traceback."""
    (workdir / "stream.bin").write_bytes(fx.emulate_stream(11, 1.0))
    rng = np.random.default_rng(3)
    demos = [Demonstration(rng.normal(size=(40, 2)), 0.005) for _ in range(2)]
    for i, demo in enumerate(demos, start=1):
        formats.save_demo(demo, workdir / f"demo{i}.txt")
    formats.save_model(train_model(demos, BasisConfig(K=4)), workdir / "model.txt")
    (workdir / "adir").mkdir()
    monkeypatch.chdir(workdir)
    assert main([*OUTPUT_WRITERS[command], "--output", target]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"error: cannot write {target}: ")
    assert captured.err.count("\n") == 1 and captured.err.count(target) == 1


@pytest.mark.parametrize("command", ["record", "calibrate"])
def test_failed_read_is_transport_error(workdir, monkeypatch, capsys, command):
    """A read that fails partway, other than with the writer gone, ends the
    command with no output file rather than a recording cut short."""
    data = fx.emulate_stream(11, 2.0)
    stdin = fx.FailingReader(data, len(data) * 3 // 5, OSError(errno.EIO, "Input/output error"))
    monkeypatch.setattr(sys, "stdin", io.TextIOWrapper(stdin))
    extra = {"record": ["--calibration", str(workdir / "calib.txt")], "calibrate": []}[command]
    rc = main([command, "--transport", "pipe", "--duration", "2", *extra,
               "--output", str(workdir / "out.txt")])
    assert rc == 4
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "transport error: read failed: [Errno 5] Input/output error\n"
    assert not (workdir / "out.txt").exists()


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
    (workdir / "tactile.txt").write_text(oracles.tactile_text([0.0, 0.1], [[0.0] * 5, [5.0] * 5]))
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


@pytest.mark.parametrize("transport", ["pipe", "fifo"])
def test_writer_whose_reader_never_reads_times_out(workdir, monkeypatch, capsys, transport):
    """As ``glovekit glove-emulate ... --transport pipe | sleep 5``: the reader
    holds its end open and takes nothing, so the 64 KiB pipe buffer fills."""
    monkeypatch.setattr(transports, "_STALL_TIMEOUT", 0.3)
    if transport == "pipe":
        read_fd, write_fd = os.pipe()
        stdout = io.TextIOWrapper(os.fdopen(write_fd, "wb"))
        monkeypatch.setattr(sys, "stdout", stdout)
        spec = "pipe"
    else:
        if not hasattr(os, "mkfifo"):
            pytest.skip("needs FIFOs")
        fifo = workdir / "glove.fifo"
        os.mkfifo(fifo)
        read_fd, stdout = os.open(fifo, os.O_RDONLY | os.O_NONBLOCK), None
        spec = f"file:{fifo}"
    start = time.monotonic()
    try:
        rc = main(["glove-emulate", "--config", str(workdir / "emu.txt"), "--duration", "30",
                   "--fast", "--transport", spec])
    finally:
        took = time.monotonic() - start
        if stdout is not None:
            stdout.close()
        os.close(read_fd)
    assert (rc, capsys.readouterr().err) == (4, "transport error: write failed: timed out\n")
    assert 0.3 <= took < 5


def test_tcp_writer_without_client_times_out(workdir, monkeypatch, capsys):
    monkeypatch.setattr(transports, "_STALL_TIMEOUT", 0.2)
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
    monkeypatch.setattr(transports, "_STALL_TIMEOUT", 0.2)
    extra = {"record": ["--calibration", str(workdir / "calib.txt")], "calibrate": []}[command]
    with socket.socket() as peer:
        peer.bind(("127.0.0.1", 0))
        peer.listen(1)
        rc = main([command, "--transport", f"tcp:{peer.getsockname()[1]}", "--duration", "1",
                   *extra, "--output", str(workdir / "out.txt")])
    assert rc == 4
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "transport error: read failed: timed out\n"
    assert not (workdir / "out.txt").exists()


def _run_reader(workdir, command, transport):
    """Run ``command`` for 1 s of stream on ``transport``; its exit code and
    how long it took."""
    extra = {"record": ["--calibration", str(workdir / "calib.txt")], "calibrate": []}[command]
    start = time.monotonic()
    rc = main([command, "--transport", transport, "--duration", "1", *extra,
               "--output", str(workdir / "out.txt")])
    return rc, time.monotonic() - start


@pytest.mark.parametrize("command", ["record", "calibrate"])
def test_tcp_reader_with_no_writer_listening_times_out(workdir, monkeypatch, capsys, command):
    """A reader started before its writer retries the connect for the stall
    bound, as every other wait for a peer does, then fails."""
    monkeypatch.setattr(transports, "_STALL_TIMEOUT", 0.5)
    with socket.socket() as probe:
        probe.bind(("127.0.0.1", 0))
        port = probe.getsockname()[1]
    rc, took = _run_reader(workdir, command, f"tcp:{port}")
    captured = capsys.readouterr()
    assert (rc, captured.out) == (4, "")
    assert captured.err.startswith(f"transport error: cannot connect to TCP port {port}: ")
    assert captured.err.count("\n") == 1
    assert 0.5 <= took < 2.5
    assert not (workdir / "out.txt").exists()


@pytest.mark.parametrize("sent", [0, 20 * 13 + 5], ids=["silent", "silent-after-20-frames"])
@pytest.mark.parametrize("command", ["record", "calibrate"])
def test_silent_pipe_writer_times_out(workdir, monkeypatch, capsys, command, sent):
    """As ``(sleep 5) | glovekit record --transport pipe ...``: the writer holds
    the pipe open and sends nothing, or nothing more."""
    monkeypatch.setattr(transports, "_STALL_TIMEOUT", 0.3)
    read_fd, write_fd = os.pipe()
    os.write(write_fd, fx.emulate_stream(11, 1.0)[:sent])
    stdin = io.TextIOWrapper(os.fdopen(read_fd, "rb"))
    monkeypatch.setattr(sys, "stdin", stdin)
    try:
        rc, took = _run_reader(workdir, command, "pipe")
    finally:
        os.close(write_fd)
        stdin.close()
    assert (rc, capsys.readouterr()) == (4, ("", "transport error: read failed: timed out\n"))
    assert 0.3 <= took < 5
    assert not (workdir / "out.txt").exists()


@pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="needs FIFOs")
@pytest.mark.parametrize("command", ["record", "calibrate"])
def test_fifo_held_open_by_a_silent_writer_times_out(workdir, monkeypatch, capsys, command):
    """A FIFO stands for a glove's serial device: one that stays open and
    silent fails the stream rather than hanging."""
    monkeypatch.setattr(transports, "_STALL_TIMEOUT", 0.3)
    fifo = workdir / "glove.fifo"
    os.mkfifo(fifo)
    # read-write holds the FIFO open as a writer without waiting for a reader
    writer = os.open(fifo, os.O_RDWR)
    try:
        rc, took = _run_reader(workdir, command, f"file:{fifo}")
    finally:
        os.close(writer)
    assert (rc, capsys.readouterr()) == (4, ("", "transport error: read failed: timed out\n"))
    assert 0.3 <= took < 5
    assert not (workdir / "out.txt").exists()


def _open_and_close_as_writer(fifo):
    try:
        os.close(os.open(fifo, os.O_WRONLY | os.O_NONBLOCK))
    except OSError:  # no reader waits on it
        pass


@pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="needs FIFOs")
@pytest.mark.parametrize("command", ["record", "calibrate"])
def test_fifo_with_no_writer_times_out(workdir, monkeypatch, capsys, command):
    """A FIFO no writer has opened, as a glove's device node before the glove
    is up: opening it does not wait, so the stall bound applies to it."""
    monkeypatch.setattr(transports, "_STALL_TIMEOUT", 0.3)
    fifo = workdir / "glove.fifo"
    os.mkfifo(fifo)
    # should the open wait for a writer, this one ends the wait after 5 s, so
    # the test fails on its time rather than hanging
    rescue = threading.Timer(5.0, _open_and_close_as_writer, [fifo])
    rescue.start()
    try:
        rc, took = _run_reader(workdir, command, f"file:{fifo}")
    finally:
        rescue.cancel()
    assert (rc, capsys.readouterr()) == (4, ("", "transport error: read failed: timed out\n"))
    assert 0.3 <= took < 5
    assert not (workdir / "out.txt").exists()


def _open_and_close_as_reader(fifo):
    os.close(os.open(fifo, os.O_RDONLY | os.O_NONBLOCK))


def _emulate(workdir, transport):
    return main(["glove-emulate", "--config", str(workdir / "emu.txt"), "--duration", "1",
                 "--fast", "--transport", transport])


@pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="needs FIFOs")
def test_fifo_writer_with_no_reader_times_out(workdir, monkeypatch, capsys):
    """A FIFO no reader has opened: the writer's open does not wait, and is
    retried only for the stall bound."""
    monkeypatch.setattr(transports, "_STALL_TIMEOUT", 0.3)
    fifo = workdir / "glove.fifo"
    os.mkfifo(fifo)
    # should the open wait for a reader, this one ends the wait after 5 s, so
    # the test fails on its time rather than hanging
    rescue = threading.Timer(5.0, _open_and_close_as_reader, [fifo])
    rescue.start()
    start = time.monotonic()
    try:
        rc = _emulate(workdir, f"file:{fifo}")
    finally:
        took = time.monotonic() - start
        rescue.cancel()
    line = f"transport error: cannot open {fifo}: {os.strerror(errno.ENXIO)}\n"
    assert (rc, capsys.readouterr()) == (4, ("", line))
    assert line.count(str(fifo)) == 1
    assert 0.3 <= took < 5


@pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="needs FIFOs")
def test_fifo_writer_waits_for_a_late_reader(workdir, monkeypatch, capsys):
    """A reader that opens the FIFO after the writer started gets every frame."""
    monkeypatch.setattr(transports, "_STALL_TIMEOUT", 5.0)
    assert _emulate(workdir, f"file:{workdir / 'frames.bin'}") == 0
    frames = (workdir / "frames.bin").read_bytes()
    capsys.readouterr()
    fifo = workdir / "glove.fifo"
    os.mkfifo(fifo)
    received = []

    def read_late():
        time.sleep(0.5)
        with open(fifo, "rb") as reader:
            received.append(reader.read())

    reader = threading.Thread(target=read_late)
    reader.start()
    try:
        rc = _emulate(workdir, f"file:{fifo}")
    finally:
        # a reader left waiting in its open, should the writer never open, is let go
        deadline = time.monotonic() + 5
        while reader.is_alive() and time.monotonic() < deadline:
            _open_and_close_as_writer(fifo)
            reader.join(0.1)
    assert not reader.is_alive()
    assert (rc, capsys.readouterr()) == (0, (f"frames written: {len(frames) // 13}\n", ""))
    assert received == [frames] and len(frames) == 4550


@pytest.mark.parametrize("error,line", [
    (MemoryError("Unable to allocate 29.8 GiB for an array with shape (200000001, 20)"),
     "error: Unable to allocate 29.8 GiB for an array with shape (200000001, 20)\n"),
    (MemoryError(), "error: out of memory\n"),
], ids=["numpy", "bare"])
@pytest.mark.parametrize("command", ["train", "reproduce"])
def test_out_of_memory_is_data_error(workdir, monkeypatch, capsys, command, error, line):
    """``reproduce --duration 1e6`` and ``train --basis-count 100000000`` ask
    the design matrix for tens of GiB; the failed allocation ends in one error
    line, never a traceback."""
    demo = Demonstration(np.zeros((40, 2)), 0.005)
    formats.save_demo(demo, workdir / "demo.txt")
    formats.save_model(train_model([demo], BasisConfig(K=4)), workdir / "model.txt")

    def out_of_memory(*args):
        raise error

    owner = {"train": model_module, "reproduce": pipeline}[command]
    monkeypatch.setattr(owner, "design_matrix", out_of_memory)
    argv = {"train": ["train", str(workdir / "demo.txt")],
            "reproduce": ["reproduce", "--model", str(workdir / "model.txt")]}[command]
    assert main([*argv, "--output", str(workdir / "out.txt")]) == 3
    assert capsys.readouterr() == ("", line)
    assert not (workdir / "out.txt").exists()


@pytest.mark.parametrize("count", [2**60, 2**63 - 1, 2**63, 10**19])
def test_basis_too_large_to_address_is_data_error(workdir, capsys, count):
    """More float64 basis centers than bytes can be addressed end in one data
    error before anything is allocated: numpy would refuse them with
    ValueError or, near 2**63, IndexError, not MemoryError."""
    formats.save_demo(Demonstration(np.zeros((40, 2)), 0.005), workdir / "demo.txt")
    assert main(["train", str(workdir / "demo.txt"), "--basis-count", str(count),
                 "--output", str(workdir / "out.txt")]) == 3
    assert capsys.readouterr() == ("", f"error: {count} basis functions do not fit in memory\n")
    assert not (workdir / "out.txt").exists()


def test_demo_too_large_to_address_is_data_error_before_the_first_read(workdir, monkeypatch,
                                                                       capsys):
    """9e15 rows of a 1100-joint coupling are more bytes than can be addressed:
    numpy refuses them with ValueError, not MemoryError, and allocates nothing."""
    (workdir / "wide.txt").write_text(oracles.coupling_text(np.tile(np.eye(5), (220, 1))))
    stdin = io.BytesIO(fx.emulate_stream(11, 1.0))
    monkeypatch.setattr(sys, "stdin", io.TextIOWrapper(stdin))
    rc = main(["record", "--transport", "pipe", "--calibration", str(workdir / "calib.txt"),
               "--coupling", str(workdir / "wide.txt"), "--duration", "4.5e13",
               "--output", str(workdir / "out.txt")])
    assert rc == 3
    assert capsys.readouterr() == ("", "error: 9000000000000000 rows do not fit in memory\n")
    assert stdin.tell() == 0
    assert not (workdir / "out.txt").exists()

def test_calibrate_checks_the_joint_range_before_the_first_read(workdir, monkeypatch, capsys):
    stdin = io.BytesIO(fx.emulate_stream(11, 2.0))
    monkeypatch.setattr(sys, "stdin", io.TextIOWrapper(stdin))
    rc = main(["calibrate", "--transport", "pipe", "--duration", "2", "--joint-min", "2",
               "--joint-max", "1", "--output", str(workdir / "out.txt")])
    assert rc == 3
    assert capsys.readouterr() == ("", "error: channel 1: joint_min must be <= joint_max\n")
    assert stdin.tell() == 0
    assert not (workdir / "out.txt").exists()


@pytest.mark.parametrize("spec", ["tcp:65536", "tcp:-1", "tcp:0"])
@pytest.mark.parametrize("command", ["glove-emulate", "calibrate"])
def test_tcp_port_outside_1_to_65535_is_transport_error(workdir, capsys, command, spec):
    """A bad port fails before any socket is made: a writer does not listen
    where no reader can find it, a reader does not retry."""
    args = {"glove-emulate": ["--config", str(workdir / "emu.txt"), "--duration", "1", "--fast"],
            "calibrate": ["--duration", "1", "--output", str(workdir / "out.txt")]}[command]
    start = time.monotonic()
    rc = main([command, *args, "--transport", spec])
    assert time.monotonic() - start < 1.0
    assert rc == 4
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"transport error: bad TCP port in {spec!r}\n"
