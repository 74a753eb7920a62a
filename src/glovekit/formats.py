"""Versioned text file formats used by the pipeline.

All formats are line-oriented, space-separated, and diff-able. Floats are
written with ``repr`` (shortest exact decimal), so write -> read -> write is
byte-identical.

    calib-v1     calibration profile (per-channel raw/joint ranges)
    coupling-v1  glove -> robot joint coupling weights
    demo-v1      recorded joint-angle trajectory
    promp-v1     learned trajectory model
    tactile-v1   scripted tactile force profile
    emu-v1       emulator configuration (flat key-value)
"""

from __future__ import annotations

from pathlib import Path

import numpy as np

from .calibration import CalibrationProfile, CouplingMap
from .emulator import ChannelWaveform, EmulatorConfig
from .errors import FormatError
from .model import BasisConfig, Demonstration, TrajectoryModel
from .wire import NUM_CHANNELS


def _fmt(x: float) -> str:
    return repr(float(x))


def _fmt_row(values) -> str:
    return " ".join(_fmt(v) for v in values)


def _read_lines(path) -> list[str]:
    try:
        text = Path(path).read_text()
    except (OSError, UnicodeDecodeError) as exc:
        raise FormatError(f"cannot read {path}: {exc}") from exc
    return [line.rstrip("\n") for line in text.splitlines() if line.strip()]


def _expect_header(lines: list[str], version: str, path) -> list[str]:
    if not lines or lines[0].strip() != version:
        raise FormatError(f"{path}: missing '{version}' header")
    return lines[1:]


def _floats(tokens, path, what) -> list[float]:
    try:
        return [float(t) for t in tokens]
    except ValueError as exc:
        raise FormatError(f"{path}: bad {what}: {exc}") from exc


def _number(token: str, path, what, kind=float):
    try:
        return kind(token)
    except ValueError as exc:
        raise FormatError(f"{path}: bad {what}: {exc}") from exc


# ---------------------------------------------------------------- calib-v1

def save_profile(profile: CalibrationProfile, path) -> None:
    lines = ["calib-v1"]
    for i in range(NUM_CHANNELS):
        lines.append(
            f"channel {i + 1} {_fmt(profile.raw_min[i])} {_fmt(profile.raw_max[i])} "
            f"{_fmt(profile.joint_min[i])} {_fmt(profile.joint_max[i])}"
        )
    Path(path).write_text("\n".join(lines) + "\n")


def load_profile(path) -> CalibrationProfile:
    lines = _expect_header(_read_lines(path), "calib-v1", path)
    rows = {}
    for line in lines:
        tokens = line.split()
        if len(tokens) != 6 or tokens[0] != "channel":
            raise FormatError(f"{path}: bad profile line {line!r}")
        idx = _number(tokens[1], path, "channel number", int)
        rows[idx] = _floats(tokens[2:], path, "profile values")
    if sorted(rows) != list(range(1, NUM_CHANNELS + 1)):
        raise FormatError(f"{path}: expected channels 1..{NUM_CHANNELS}")
    cols = [tuple(rows[i + 1][j] for i in range(NUM_CHANNELS)) for j in range(4)]
    return CalibrationProfile(*cols)


# ------------------------------------------------------------- coupling-v1

def save_coupling(coupling: CouplingMap, path) -> None:
    lines = ["coupling-v1"]
    for row in coupling.weights:
        lines.append("row " + _fmt_row(row))
    Path(path).write_text("\n".join(lines) + "\n")


def load_coupling(path) -> CouplingMap:
    lines = _expect_header(_read_lines(path), "coupling-v1", path)
    rows = []
    for line in lines:
        tokens = line.split()
        if tokens[0] != "row" or len(tokens) != NUM_CHANNELS + 1:
            raise FormatError(f"{path}: bad coupling line {line!r}")
        rows.append(_floats(tokens[1:], path, "coupling weights"))
    if not rows:
        raise FormatError(f"{path}: empty coupling map")
    return CouplingMap(np.array(rows))


# ----------------------------------------------------------------- demo-v1

def save_demo(demo: Demonstration, path, labels: list[str] | None = None) -> None:
    if labels is None:
        labels = [f"j{d + 1:02d}" for d in range(demo.D)]
    if len(labels) != demo.D:
        raise FormatError(f"expected {demo.D} joint labels, got {len(labels)}")
    lines = ["demo-v1", f"D {demo.D}", f"dt {_fmt(demo.dt)}", "joints " + " ".join(labels)]
    for i, row in enumerate(demo.values):
        lines.append(_fmt(i * demo.dt) + " " + _fmt_row(row))
    Path(path).write_text("\n".join(lines) + "\n")


def load_demo(path) -> tuple[Demonstration, list[str]]:
    lines = _expect_header(_read_lines(path), "demo-v1", path)
    if len(lines) < 3:
        raise FormatError(f"{path}: truncated demo header")
    if not lines[0].startswith("D ") or not lines[1].startswith("dt ") or not lines[2].startswith("joints "):
        raise FormatError(f"{path}: demo header must be 'D', 'dt', 'joints' lines")
    d_tokens, dt_tokens = lines[0].split(), lines[1].split()
    if len(d_tokens) != 2 or len(dt_tokens) != 2:
        raise FormatError(f"{path}: 'D' and 'dt' lines take one value each")
    d = _number(d_tokens[1], path, "D", int)
    dt = _number(dt_tokens[1], path, "dt")
    labels = lines[2].split()[1:]
    if len(labels) != d:
        raise FormatError(f"{path}: joint label count != D")
    times = []
    values = []
    for line in lines[3:]:
        tokens = _floats(line.split(), path, "demo row")
        if len(tokens) != d + 1:
            raise FormatError(f"{path}: demo row has {len(tokens)} fields, expected {d + 1}")
        times.append(tokens[0])
        values.append(tokens[1:])
    if len(values) < 2:
        raise FormatError(f"{path}: demo needs at least 2 rows")
    if np.any(np.diff(times) <= 0):
        raise FormatError(f"{path}: time column must be strictly increasing")
    return Demonstration(np.array(values), dt), labels


# ---------------------------------------------------------------- promp-v1

def save_model(model: TrajectoryModel, path) -> None:
    basis = model.basis
    lines = [
        "promp-v1",
        f"K {basis.K}",
        f"D {model.D}",
        f"h {_fmt(basis.h)}",
        f"lambda {_fmt(basis.lam)}",
        f"eps_reg {_fmt(model.eps_reg)}",
        f"normalize {int(basis.normalize)}",
        "centers " + _fmt_row(basis.centers),
        "mu_w " + _fmt_row(model.mu_w),
    ]
    for row in model.sigma_w:
        lines.append("sigma_w " + _fmt_row(row))
    lines.append("sigma_y " + _fmt_row(model.sigma_y))
    Path(path).write_text("\n".join(lines) + "\n")


def load_model(path) -> TrajectoryModel:
    lines = _expect_header(_read_lines(path), "promp-v1", path)
    fields: dict[str, list[str]] = {}
    sigma_w_rows = []
    for line in lines:
        key, *rest = line.split()
        if key == "sigma_w":
            sigma_w_rows.append(_floats(rest, path, "sigma_w row"))
        else:
            fields[key] = rest
    try:
        k = int(fields["K"][0])
        d = int(fields["D"][0])
        basis = BasisConfig(
            K=k,
            h=float(fields["h"][0]),
            lam=float(fields["lambda"][0]),
            normalize=bool(int(fields["normalize"][0])),
        )
        eps_reg = float(fields["eps_reg"][0])
        mu_w = np.array(_floats(fields["mu_w"], path, "mu_w"))
        sigma_y = np.array(_floats(fields["sigma_y"], path, "sigma_y"))
    except (KeyError, ValueError, IndexError) as exc:
        raise FormatError(f"{path}: bad model field: {exc}") from exc
    if len(sigma_w_rows) != k * d or any(len(row) != k * d for row in sigma_w_rows):
        raise FormatError(f"{path}: sigma_w must be {k * d} rows of {k * d} values")
    return TrajectoryModel(basis, mu_w, np.array(sigma_w_rows), sigma_y, d, eps_reg)


# -------------------------------------------------------------- tactile-v1

def save_tactile(times, forces, path) -> None:
    forces = np.atleast_2d(np.asarray(forces, dtype=float))
    if forces.shape[1] != NUM_CHANNELS:
        raise FormatError(f"tactile rows must have {NUM_CHANNELS} forces")
    lines = ["tactile-v1"]
    for t, row in zip(times, forces):
        lines.append(_fmt(t) + " " + _fmt_row(row))
    Path(path).write_text("\n".join(lines) + "\n")


def load_tactile(path) -> tuple[np.ndarray, np.ndarray]:
    lines = _expect_header(_read_lines(path), "tactile-v1", path)
    times = []
    forces = []
    for line in lines:
        tokens = _floats(line.split(), path, "tactile row")
        if len(tokens) != NUM_CHANNELS + 1:
            raise FormatError(f"{path}: tactile row needs time + {NUM_CHANNELS} forces")
        times.append(tokens[0])
        forces.append(tokens[1:])
    if not times:
        raise FormatError(f"{path}: empty tactile profile")
    return np.array(times), np.array(forces)


# ------------------------------------------------------------ result CSVs

def save_tracking_csv(path, reference: np.ndarray, executed: np.ndarray, rate: float) -> None:
    """Tracking CSV: time plus reference/executed/error columns per joint."""
    reference = np.atleast_2d(reference)
    executed = np.atleast_2d(executed)
    if reference.shape != executed.shape:
        raise FormatError("reference and executed shapes differ")
    d = reference.shape[1]
    header = ["time"]
    for j in range(d):
        name = f"j{j + 1:02d}"
        header += [f"{name}_ref", f"{name}_exec", f"{name}_err"]
    lines = [",".join(header)]
    for i in range(reference.shape[0]):
        cells = [_fmt(i / rate)]
        for j in range(d):
            ref = reference[i, j]
            exe = executed[i, j]
            cells += [_fmt(ref), _fmt(exe), _fmt(exe - ref)]
        lines.append(",".join(cells))
    Path(path).write_text("\n".join(lines) + "\n")


def save_bands_csv(path, times, mean: np.ndarray, std: np.ndarray, demos: list[np.ndarray]) -> None:
    """Plot-ready CSV: per joint the model mean, std, and each demo's values."""
    mean = np.atleast_2d(mean)
    std = np.atleast_2d(std)
    d = mean.shape[1]
    header = ["time"]
    for j in range(d):
        name = f"j{j + 1:02d}"
        header.append(f"{name}_mean")
        header.append(f"{name}_std")
        for n in range(len(demos)):
            header.append(f"{name}_demo{n + 1}")
    lines = [",".join(header)]
    for i, t in enumerate(times):
        cells = [_fmt(t)]
        for j in range(d):
            cells.append(_fmt(mean[i, j]))
            cells.append(_fmt(std[i, j]))
            for demo in demos:
                cells.append(_fmt(demo[i, j]))
        lines.append(",".join(cells))
    Path(path).write_text("\n".join(lines) + "\n")


# ------------------------------------------------------------------ emu-v1

def save_emulator_config(config: EmulatorConfig, path) -> None:
    lines = [
        "emu-v1",
        f"rate {_fmt(config.rate)}",
        f"noise_std {_fmt(config.noise_std)}",
        f"seed {config.seed}",
    ]
    for i, ch in enumerate(config.channels):
        prefix = f"channel{i + 1}"
        lines.append(f"{prefix}.offset {_fmt(ch.offset)}")
        lines.append(f"{prefix}.amplitude {_fmt(ch.amplitude)}")
        lines.append(f"{prefix}.frequency {_fmt(ch.frequency)}")
        lines.append(f"{prefix}.phase {_fmt(ch.phase)}")
    Path(path).write_text("\n".join(lines) + "\n")


def load_emulator_config(path) -> EmulatorConfig:
    lines = _expect_header(_read_lines(path), "emu-v1", path)
    kv: dict[str, str] = {}
    for line in lines:
        tokens = line.split()
        if len(tokens) != 2:
            raise FormatError(f"{path}: expected 'key value' lines, got {line!r}")
        kv[tokens[0]] = tokens[1]
    try:
        rate = float(kv.pop("rate", "350"))
        noise_std = float(kv.pop("noise_std", "0"))
        seed = int(kv.pop("seed", "0"))
        channels = []
        for i in range(NUM_CHANNELS):
            prefix = f"channel{i + 1}"
            channels.append(
                ChannelWaveform(
                    offset=float(kv.pop(f"{prefix}.offset", "512")),
                    amplitude=float(kv.pop(f"{prefix}.amplitude", "0")),
                    frequency=float(kv.pop(f"{prefix}.frequency", "0")),
                    phase=float(kv.pop(f"{prefix}.phase", "0")),
                )
            )
    except ValueError as exc:
        raise FormatError(f"{path}: bad emulator config value: {exc}") from exc
    if kv:
        raise FormatError(f"{path}: unknown keys {sorted(kv)}")
    return EmulatorConfig(rate=rate, channels=tuple(channels), noise_std=noise_std, seed=seed)
