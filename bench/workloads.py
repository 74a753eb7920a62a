"""The three benchmark workloads: seeded inputs, the CLI chain of one pass,
and the output checks of every step.

A workload writes its inputs with the benchmark's own text writers, so
set-up cost does not depend on the glovekit code under test. The program
only ever sees the generated files, through ``glovekit.cli.main(argv)``.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

STREAM_RATE = 350.0
CONTROL_RATE = 200.0
FRAME_SIZE = 13
BASIS_COUNT = 20
NOISE_STD = 8.0  # ADC counts, as in the README session
CORRUPT_FRACTION = 0.01  # share of stream bytes flipped on long-record


@dataclass
class Step:
    """One CLI invocation of a pass.

    ``metric`` names the end-to-end metric the step's wall time feeds; for an
    ``*_rtf`` metric the sample is ``amount`` seconds of stream or control
    time divided by the wall time. ``check`` returns an error message or
    None. ``after`` is benchmark work run between steps, outside all timing.
    """

    label: str
    argv: list[str]
    metric: str | None
    amount: float
    outputs: tuple[Path, ...]
    check: Callable[[str], str | None]
    after: Callable[[], None] | None = None


def _fmt(x: float) -> str:
    return repr(float(x))


def _frames(duration: float) -> int:
    return math.floor(duration * STREAM_RATE)


def _rows(duration: float) -> int:
    return math.floor(duration * CONTROL_RATE)


def _line_count(path: Path) -> int:
    return path.read_bytes().count(b"\n")


def coupling13() -> np.ndarray:
    """The 13-joint coupling of the README session: 5 pass-through joints,
    4 pairwise, 3 three-way mixtures and one four-way mixture."""
    rows = [np.eye(5)[i] for i in range(5)]
    for i in range(4):
        row = np.zeros(5)
        row[i : i + 2] = 0.5
        rows.append(row)
    for i in range(3):
        row = np.zeros(5)
        row[i : i + 3] = 1.0 / 3.0
        rows.append(row)
    rows.append(np.array([0.25, 0.25, 0.25, 0.25, 0.0]))
    return np.array(rows)


def coupling4() -> np.ndarray:
    """glovekit's default coupling: ring and little averaged into one joint."""
    w = np.zeros((4, 5))
    w[0, 0] = w[1, 1] = w[2, 2] = 1.0
    w[3, 3] = w[3, 4] = 0.5
    return w


def write_coupling(weights: np.ndarray, path: Path) -> None:
    lines = ["coupling-v1"] + ["row " + " ".join(map(_fmt, row)) for row in weights]
    path.write_text("\n".join(lines) + "\n")


def random_waveforms(rng: np.random.Generator) -> list[tuple[float, float, float, float]]:
    """Five (offset, amplitude, frequency, phase) sinusoids that stay in range."""
    return [
        (
            rng.uniform(480.0, 540.0),
            rng.uniform(240.0, 300.0),
            rng.uniform(0.10, 0.20),
            rng.uniform(0.0, 2.0 * math.pi),
        )
        for _ in range(5)
    ]


def write_emulator_config(waveforms, seed: int, path: Path) -> None:
    lines = ["emu-v1", f"rate {_fmt(STREAM_RATE)}", f"noise_std {_fmt(NOISE_STD)}", f"seed {seed}"]
    for i, (offset, amplitude, frequency, phase) in enumerate(waveforms, start=1):
        lines += [
            f"channel{i}.offset {_fmt(offset)}",
            f"channel{i}.amplitude {_fmt(amplitude)}",
            f"channel{i}.frequency {_fmt(frequency)}",
            f"channel{i}.phase {_fmt(phase)}",
        ]
    path.write_text("\n".join(lines) + "\n")


def write_demo(values: np.ndarray, dt: float, path: Path) -> None:
    d = values.shape[1]
    lines = ["demo-v1", f"D {d}", f"dt {_fmt(dt)}", "joints " + " ".join(f"j{j + 1:02d}" for j in range(d))]
    for i, row in enumerate(values.tolist()):
        lines.append(_fmt(i * dt) + " " + " ".join(map(repr, row)))
    path.write_text("\n".join(lines) + "\n")


class Workload:
    """Base: subclasses set ``name`` and ``why`` and build inputs and steps."""

    name = ""
    why = ""

    def __init__(self, work: Path, seed: int):
        self.work = work
        self.seed = seed

    def path(self, name: str) -> Path:
        return self.work / name

    def generate(self) -> dict:
        """Write the input files; returns their sizes for the provenance record."""
        raise NotImplementedError

    def steps(self) -> list[Step]:
        raise NotImplementedError

    # ------------------------------------------------------------- steps

    def emulate(self, config: str, duration: float, stream: str, label: str) -> Step:
        frames = _frames(duration)

        def check(out: str) -> str | None:
            if out != f"frames written: {frames}\n":
                return f"expected {frames} frames written, got {out!r}"
            size = self.path(stream).stat().st_size
            if size != frames * FRAME_SIZE:
                return f"{stream} holds {size} bytes, expected {frames * FRAME_SIZE}"
            return None

        return Step(
            label,
            ["glove-emulate", "--config", str(self.path(config)), "--duration", repr(duration),
             "--fast", "--transport", f"file:{self.path(stream)}"],
            "emulate_rtf", duration, (self.path(stream),), check,
        )

    def calibrate(self, stream: str, duration: float, available: int, metric: str | None) -> Step:
        """``available`` is the number of intact frames in ``stream``."""
        expected = min(_frames(duration), available)

        def check(out: str) -> str | None:
            m = re.match(r"frames observed: (\d+), profile written: ", out)
            if not m or int(m.group(1)) < expected:
                return f"expected >= {expected} frames observed, got {out!r}"
            if not self.path("calib.txt").read_text().startswith("calib-v1\n"):
                return "calib.txt lacks its calib-v1 header"
            return None

        return Step(
            "calibrate",
            ["calibrate", "--transport", f"file:{self.path(stream)}", "--duration", repr(duration),
             "--output", str(self.path("calib.txt"))],
            metric, duration, (self.path("calib.txt"),), check,
        )

    def record(self, stream: str, coupling: str, duration: float, available: int,
               joints: int, demo: str, label: str) -> Step:
        """Checks the row count, the dimension and that at least every intact
        frame was received (acceptance criterion 1)."""
        nominal, rows = _frames(duration), _rows(duration)

        def check(out: str) -> str | None:
            m = re.match(r"frames received: (\d+)/(\d+), bytes skipped: \d+, rows written: (\d+)\n$", out)
            if not m:
                return f"unexpected record output {out!r}"
            received, nom, written = map(int, m.groups())
            if nom != nominal or written != rows:
                return f"expected {rows} rows from {nominal} nominal frames, got {out!r}"
            if received < min(available, nominal):
                return f"received {received} frames, fewer than the {available} intact ones"
            text = self.path(demo).read_text()
            if not text.startswith(f"demo-v1\nD {joints}\n") or text.count("\n") != rows + 4:
                return f"{demo} is not a D={joints} demo with {rows} rows"
            return None

        return Step(
            label,
            ["record", "--transport", f"file:{self.path(stream)}",
             "--calibration", str(self.path("calib.txt")), "--coupling", str(self.path(coupling)),
             "--duration", repr(duration), "--output", str(self.path(demo))],
            "record_rtf", duration, (self.path(demo),), check,
        )

    def train(self, demos: list[str], joints: int) -> Step:
        def check(out: str) -> str | None:
            if f"K={BASIS_COUNT} D={joints} N={len(demos)}\n" not in out:
                return f"expected K={BASIS_COUNT} D={joints} N={len(demos)}, got {out!r}"
            if f"\nD {joints}\n" not in self.path("model.txt").read_text():
                return f"model.txt does not have D={joints}"
            return None

        return Step(
            "train",
            ["train", *map(str, map(self.path, demos)), "--basis-count", str(BASIS_COUNT),
             "--output", str(self.path("model.txt"))],
            "train_s", 0.0, (self.path("model.txt"),), check,
        )

    def reproduce(self, duration: float, joints: int) -> Step:
        rows = _rows(duration)

        def check(out: str) -> str | None:
            csv = self.path("tracking.csv")
            header = csv.open().readline()
            if _line_count(csv) != rows + 1 or header.count(",") != 3 * joints:
                return f"tracking.csv is not {rows} rows of {joints} joints"
            if not out.startswith("per-joint RMSE (rad): "):
                return f"unexpected reproduce output {out!r}"
            return None

        return Step(
            "reproduce",
            ["reproduce", "--model", str(self.path("model.txt")), "--duration", repr(duration),
             "--output", str(self.path("tracking.csv"))],
            "reproduce_rtf", duration, (self.path("tracking.csv"),), check,
        )

    def eval(self, demos: list[str], rows: int) -> Step:
        def check(out: str) -> str | None:
            if out.count(": log-likelihood ") != len(demos) or "band coverage (+/- 2 std): " not in out:
                return f"unexpected eval output {out!r}"
            if _line_count(self.path("bands.csv")) != rows + 1:
                return f"bands.csv does not have {rows} rows"
            return None

        return Step(
            "eval",
            ["eval", *map(str, map(self.path, demos)), "--model", str(self.path("model.txt")),
             "--output", str(self.path("bands.csv"))],
            "eval_s", 0.0, (self.path("bands.csv"),), check,
        )


class Teach(Workload):
    name = "teach"
    why = ("the README user chain (13 joints, two 15 s demos): every layer takes a "
           "modest share, so it is the must-not-regress reference")

    def __init__(self, work, seed, scale):
        super().__init__(work, seed)
        self.demo_s = 15.0 * scale
        self.calib_s = 5.0 * scale

    def generate(self) -> dict:
        rng = np.random.default_rng(self.seed)
        waveforms = random_waveforms(rng)
        for name, emu_seed in zip(("emu_a.txt", "emu_b.txt"), rng.integers(1, 2**31 - 1, 2)):
            write_emulator_config(waveforms, int(emu_seed), self.path(name))
        write_coupling(coupling13(), self.path("coupling13.txt"))
        return {"streams": 2, "stream_frames": _frames(self.demo_s), "demo_rows": _rows(self.demo_s),
                "calibrate_frames": _frames(self.calib_s), "joints": 13}

    def steps(self) -> list[Step]:
        frames = _frames(self.demo_s)
        demos = ["demo_a.txt", "demo_b.txt"]
        return [
            self.emulate("emu_a.txt", self.demo_s, "stream_a.bin", "glove-emulate:a"),
            self.emulate("emu_b.txt", self.demo_s, "stream_b.bin", "glove-emulate:b"),
            # calibrate_rtf is not reported here: the step takes ~16 ms
            self.calibrate("stream_a.bin", self.calib_s, frames, None),
            self.record("stream_a.bin", "coupling13.txt", self.demo_s, frames, 13, demos[0], "record:a"),
            self.record("stream_b.bin", "coupling13.txt", self.demo_s, frames, 13, demos[1], "record:b"),
            self.train(demos, 13),
            self.reproduce(self.demo_s, 13),
            self.eval(demos, _rows(self.demo_s)),
        ]


class LongRecord(Workload):
    name = "long-record"
    why = ("one 300 s stream with 1% of bytes flipped through emulate, calibrate and "
           "record: per-frame layers and the parser resync path do the work")

    def __init__(self, work, seed, scale):
        super().__init__(work, seed)
        self.stream_s = 300.0 * scale
        self.flips = np.empty(0, dtype=np.int64)
        self.masks = np.empty(0, dtype=np.uint8)
        self.intact = 0

    def generate(self) -> dict:
        rng = np.random.default_rng(self.seed)
        write_emulator_config(random_waveforms(rng), int(rng.integers(1, 2**31 - 1)), self.path("emu.txt"))
        write_coupling(coupling4(), self.path("coupling4.txt"))
        frames = _frames(self.stream_s)
        n_bytes = frames * FRAME_SIZE
        self.flips = rng.choice(n_bytes, size=int(n_bytes * CORRUPT_FRACTION), replace=False)
        self.masks = rng.integers(1, 256, self.flips.size, dtype=np.uint8)
        self.intact = frames - np.unique(self.flips // FRAME_SIZE).size
        return {"stream_frames": frames, "stream_bytes": n_bytes, "flipped_bytes": int(self.flips.size),
                "intact_frames": int(self.intact), "demo_rows": _rows(self.stream_s), "joints": 4}

    def corrupt(self) -> None:
        """Flip the seeded bytes between the emulator and the readers."""
        data = np.frombuffer(self.path("stream.bin").read_bytes(), dtype=np.uint8).copy()
        data[self.flips] ^= self.masks
        self.path("stream_corrupt.bin").write_bytes(data.tobytes())

    def steps(self) -> list[Step]:
        emulate = self.emulate("emu.txt", self.stream_s, "stream.bin", "glove-emulate")
        emulate.after = self.corrupt
        return [
            emulate,
            self.calibrate("stream_corrupt.bin", self.stream_s, self.intact, "calibrate_rtf"),
            self.record("stream_corrupt.bin", "coupling4.txt", self.stream_s, self.intact, 4,
                        "demo.txt", "record"),
        ]


class FitEval(Workload):
    name = "fit-eval"
    why = ("train, eval and reproduce on eight 13-joint 30 s demos: model and text "
           "formats do all the work, wire and emulator none")

    DEMOS = 8

    def __init__(self, work, seed, scale):
        super().__init__(work, seed)
        self.demo_s = 30.0 * scale
        self.names = [f"demo{i + 1}.txt" for i in range(self.DEMOS)]

    def generate(self) -> dict:
        """Demos are a shared 5-channel motion with per-demo amplitude and phase
        jitter, mapped through the 13-joint coupling, plus sensor noise."""
        rng = np.random.default_rng(self.seed)
        rows = _rows(self.demo_s)
        t = np.arange(rows) / CONTROL_RATE
        amplitude = rng.uniform(0.3, 0.6, 5)
        frequency = rng.uniform(0.05, 0.15, 5)
        phase = rng.uniform(0.0, 2.0 * math.pi, 5)
        weights = coupling13()
        for name in self.names:
            a = amplitude * (1.0 + 0.1 * rng.standard_normal(5))
            p = phase + 0.2 * rng.standard_normal(5)
            channels = math.pi / 4 + a * np.sin(2.0 * math.pi * frequency * t[:, None] + p)
            joints = channels @ weights.T + 0.01 * rng.standard_normal((rows, 13))
            write_demo(joints, 1.0 / CONTROL_RATE, self.path(name))
        return {"demos": self.DEMOS, "demo_rows": rows, "joints": 13,
                "input_bytes": sum(self.path(n).stat().st_size for n in self.names)}

    def steps(self) -> list[Step]:
        return [
            self.train(self.names, 13),
            self.eval(self.names, _rows(self.demo_s)),
            self.reproduce(self.demo_s, 13),
        ]


WORKLOADS = {w.name: w for w in (Teach, LongRecord, FitEval)}
