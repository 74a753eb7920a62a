"""Versioned text file formats used by the pipeline.

All formats are line-oriented, space-separated, and diff-able: a version
header line, then the file's non-blank lines. glovekit writes calib-v1,
demo-v1, promp-v3 and the result CSVs; it reads coupling-v1, tactile-v1 and
emu-v1, inputs the user writes, and never writes them. Floats are written with
``repr`` (shortest exact decimal), so write -> read -> write of calib-v1,
demo-v1 and promp-v3 is byte-identical. Float tables (demo, ``sigma_w`` and
result CSV rows) are written one block of rows at a time, so the memory a
file costs stays small and does not grow with its length; the bytes are those
of one ``repr`` per cell. numpy's C reader parses demo, tactile and
``sigma_w`` rows; any table it does not give exactly goes to the ``float``
path, which parses it in the writers' blocks of rows, so rows are read back
with ``float`` semantics, token for token.

Keyed lines (emu-v1, the demo-v1 and promp-v3 headers) are ``key value...``:
each key once, one value per scalar key, no unknown key. A header is its keys in
a fixed order, then a bare float table; emu-v1 defaults the keys it lacks. The
promp-v3 header is K, D, h, lambda, eps_reg, mu_w (joint 1's K mean weights,
then joint 2's, and so on) and sigma_y; joint d's K x K weight covariance is
table rows d*K .. (d+1)*K - 1. promp-v1 and promp-v2 files fail on their header;
re-run ``train``. ``_loader`` reads a file, checks its header and hands the lines
after it to a ``load_*`` parser, naming the file in every error, float ones too.

    calib-v1     calibration profile (per-channel raw/joint ranges)
    coupling-v1  glove -> robot joint coupling weights (read only)
    demo-v1      recorded joint-angle trajectory
    promp-v3     learned trajectory model
    tactile-v1   scripted tactile force profile (read only)
    emu-v1       emulator configuration, flat key-value (read only)
"""

from __future__ import annotations

from functools import wraps
from pathlib import Path
from typing import Iterator

import numpy as np

from .calibration import CalibrationProfile, CouplingMap
from .emulator import ChannelWaveform, EmulatorConfig
from .errors import GlovekitError
from .model import BasisConfig, Demonstration, TrajectoryModel
from .wire import NUM_CHANNELS


# rows per block, both where the writers format a table and where the float
# path parses one: enough to amortise stacking one slice per column, few enough
# that a block's Python floats, tokens and text stay well under 1 MB even for
# the widest table, the 40 columns of a 13-joint tracking CSV
_BLOCK_ROWS = 128


def _fmt(x: float) -> str:
    return repr(float(x))


def _table(columns: list[np.ndarray], sep: str = " ") -> Iterator[str]:
    """The lines of the float64 table whose columns are the given (T,) and (T, k)
    arrays side by side, one string per block of rows.
    Each block is stacked from the arrays on its own; the whole table never is.
    The block's cells are one ``repr`` each, in row order; ``zip`` of one
    iterator ``width`` times deals them into rows, so joining runs in C with no
    Python step per row."""
    for start in range(0, len(columns[0]), _BLOCK_ROWS):
        block = np.column_stack([c[start : start + _BLOCK_ROWS] for c in columns])
        cells = map(repr, block.astype(float, copy=False).ravel().tolist())
        yield "\n".join(map(sep.join, zip(*[cells] * block.shape[1]))) + "\n"


def _write(path, header_lines: list[str], table: Iterator[str] = ()) -> None:
    """Write the header lines, then the table's blocks; any OSError raises GlovekitError."""
    try:
        with open(path, "w") as f:
            f.write("".join(line + "\n" for line in header_lines))
            f.writelines(table)
    except OSError as exc:
        raise GlovekitError(f"cannot write {path}: {exc.strerror or exc}") from exc


def _loader(version: str):
    """Make ``parse(lines)`` of the non-blank lines after the ``version`` header
    a ``load(path)`` that names the file in each GlovekitError or FloatingPointError."""
    def decorate(parse):
        @wraps(parse)
        def load(path):
            try:
                # the text is freed once split, before the parse runs
                lines = [line for line in Path(path).read_text().splitlines() if line.strip()]
            except (OSError, UnicodeDecodeError) as exc:
                why = getattr(exc, "strerror", None) or exc  # a UnicodeDecodeError has none
                raise GlovekitError(f"cannot read {path}: {why}") from exc
            try:
                if not lines or lines[0].strip() != version:
                    raise GlovekitError(f"missing '{version}' header")
                del lines[0]
                return parse(lines)
            except (GlovekitError, FloatingPointError) as exc:
                raise GlovekitError(f"{path}: {exc}") from exc
        return load
    return decorate


def _number(token, what, kind=float):
    try:
        return kind(token)
    except ValueError as exc:
        raise GlovekitError(f"bad {what}: {exc}") from exc


def _floats(tokens, what) -> np.ndarray:
    """Parse a token list, or rows of equal token counts, as ``float`` parses."""
    return _number(tokens, what, lambda rows: np.array(rows, dtype=float))


def _parse_rows(lines: list[str], cols: int, what: str) -> np.ndarray:
    """Parse lines of ``cols`` tokens each into a float64 table, one block of
    rows at a time, so only one block's tokens exist at once."""
    table = np.empty((len(lines), cols))
    for start in range(0, len(lines), _BLOCK_ROWS):
        rows = [line.split() for line in lines[start : start + _BLOCK_ROWS]]
        for tokens in rows:
            if len(tokens) != cols:
                raise GlovekitError(f"{what} has {len(tokens)} fields, expected {cols}")
        table[start : start + len(rows)] = _floats(rows, what)
    return table


def _float_table(lines: list[str], cols: int, what: str) -> np.ndarray:
    """The lines as an (n, cols) float64 table with ``float`` semantics.
    numpy's C reader parses them; ``_parse_rows`` decides every table it does
    not give exactly, so a token only ``float`` accepts (``1_0``, non-ASCII
    digits) still loads, and an error reads as the float path's does."""
    try:
        # lines without text go straight to the float path: numpy warns on no data
        table = np.loadtxt(lines, comments=None, ndmin=2) if any(lines) else None
    except ValueError:
        table = None
    if table is not None and table.shape == (len(lines), cols):
        return table
    return _parse_rows(lines, cols, what)


def _fields(lines, what: str) -> dict[str, list[str]]:
    """``{key: value tokens}`` of ``key value...`` lines, each key once."""
    found = {}
    for line in lines:
        key, *values = line.split()
        if key in found:
            raise GlovekitError(f"{what} key '{key}' repeated")
        found[key] = values
    return found


def _header(lines, keys: tuple[str, ...], what: str) -> dict[str, list[str]]:
    """``_fields`` of the first ``len(keys)`` lines, which must be ``keys`` in order."""
    found = _fields(lines[: len(keys)], what)
    if list(found) != list(keys):
        raise GlovekitError(f"{what} header must be {', '.join(map(repr, keys))} lines")
    return found


def _scalar(found: dict[str, list[str]], key: str, kind=float):
    """Pop ``key``, which must carry exactly one value, parsed as ``kind``."""
    values = found.pop(key)
    if len(values) != 1:
        raise GlovekitError(f"'{key}' takes one value, got {len(values)}")
    return _number(values[0], key, kind)


# ---------------------------------------------------------------- calib-v1

def save_profile(profile: CalibrationProfile, path) -> None:
    rows = zip(profile.raw_min, profile.raw_max, profile.joint_min, profile.joint_max)
    _write(path, ["calib-v1"] + [f"channel {i} " + " ".join(map(_fmt, row))
                                 for i, row in enumerate(rows, start=1)])


@_loader("calib-v1")
def load_profile(lines) -> CalibrationProfile:
    rows = {}
    for line in lines:
        tokens = line.split()
        if len(tokens) != 6 or tokens[0] != "channel":
            raise GlovekitError(f"bad profile line {line!r}")
        idx = _number(tokens[1], "channel number", int)
        if idx in rows:
            raise GlovekitError(f"channel {idx} repeated")
        rows[idx] = _floats(tokens[2:], "profile values").tolist()
    if sorted(rows) != list(range(1, NUM_CHANNELS + 1)):
        raise GlovekitError(f"expected channels 1..{NUM_CHANNELS}")
    cols = [tuple(rows[i + 1][j] for i in range(NUM_CHANNELS)) for j in range(4)]
    return CalibrationProfile(*cols)


# ------------------------------------------------------------- coupling-v1

@_loader("coupling-v1")
def load_coupling(lines) -> CouplingMap:
    rows = []
    for line in lines:
        tokens = line.split()
        if tokens[0] != "row" or len(tokens) != NUM_CHANNELS + 1:
            raise GlovekitError(f"bad coupling line {line!r}")
        rows.append(tokens[1:])
    return CouplingMap(_floats(rows, "coupling weights"))


# ----------------------------------------------------------------- demo-v1

def save_demo(demo: Demonstration, path) -> None:
    labels = " ".join(f"j{d + 1:02d}" for d in range(demo.D))
    header = ["demo-v1", f"D {demo.D}", f"dt {_fmt(demo.dt)}", "joints " + labels]
    _write(path, header, _table([np.arange(demo.T) * demo.dt, demo.values]))


@_loader("demo-v1")
def load_demo(lines) -> Demonstration:
    header = _header(lines, ("D", "dt", "joints"), "demo")
    d, dt = _scalar(header, "D", int), _scalar(header, "dt")
    if len(header["joints"]) != d:
        raise GlovekitError("joint label count != D")
    table = _float_table(lines[3:], d + 1, "demo row")
    # neighbours compared, not subtracted: no overflow, and a NaN time fails
    if not np.all(table[1:, 0] > table[:-1, 0]):
        raise GlovekitError("time column must be strictly increasing")
    return Demonstration(table[:, 1:], dt)


# ---------------------------------------------------------------- promp-v3

def save_model(model: TrajectoryModel, path) -> None:
    basis = model.basis
    header = ["promp-v3", f"K {basis.K}", f"D {model.D}", f"h {_fmt(basis.h)}",
              f"lambda {_fmt(basis.lam)}", f"eps_reg {_fmt(model.eps_reg)}",
              "mu_w " + " ".join(map(_fmt, model.mu_w.reshape(-1))),
              "sigma_y " + " ".join(map(_fmt, model.sigma_y))]
    _write(path, header, _table([model.sigma_w.reshape(-1, basis.K)]))


@_loader("promp-v3")
def load_model(lines) -> TrajectoryModel:
    found = _header(lines, ("K", "D", "h", "lambda", "eps_reg", "mu_w", "sigma_y"), "model")
    k, d = _scalar(found, "K", int), _scalar(found, "D", int)
    basis = BasisConfig(k, _scalar(found, "h"), _scalar(found, "lambda"))
    eps_reg = _scalar(found, "eps_reg")
    mu_w, sigma_y = _floats(found["mu_w"], "mu_w"), _floats(found["sigma_y"], "sigma_y")
    # TrajectoryModel's own check, made before the mu_w and sigma_w sizes derived from D
    if d < 1:
        raise GlovekitError(f"model needs D >= 1 joints, got {d}")
    if len(mu_w) != k * d or len(lines) - 7 != k * d:
        raise GlovekitError(f"sigma_w must be {k * d} rows of {k} values, mu_w {k * d} values")
    sigma_w = _float_table(lines[7:], k, "sigma_w row")
    return TrajectoryModel(basis, mu_w.reshape(d, k), sigma_w.reshape(d, k, k), sigma_y, eps_reg)


# -------------------------------------------------------------- tactile-v1

@_loader("tactile-v1")
def load_tactile(lines) -> tuple[np.ndarray, np.ndarray]:
    table = _float_table(lines, NUM_CHANNELS + 1, "tactile row")
    if not len(table):
        raise GlovekitError("empty tactile profile")
    if not np.isfinite(table).all():
        raise GlovekitError("tactile values must be finite")
    return table[:, 0], table[:, 1:]


# ------------------------------------------------------------ result CSVs

def _write_joint_csv(path, times, columns: dict[str, np.ndarray]) -> None:
    """CSV of a time column, then per joint one ``jNN_<name>`` column from
    each (T, D) array, in the dict's order."""
    d = next(iter(columns.values())).shape[1]
    header = ["time"] + [f"j{j + 1:02d}_{name}" for j in range(d) for name in columns]
    per_joint = [values[:, j] for j in range(d) for values in columns.values()]
    _write(path, [",".join(header)], _table([np.asarray(times), *per_joint], sep=","))


def save_tracking_csv(path, reference: np.ndarray, executed: np.ndarray, rate: float) -> None:
    """Tracking CSV: time plus reference/executed/error columns per joint."""
    if reference.shape != executed.shape:
        raise GlovekitError("reference and executed shapes differ")
    columns = {"ref": reference, "exec": executed, "err": executed - reference}
    _write_joint_csv(path, np.arange(reference.shape[0]) / rate, columns)


def save_bands_csv(path, mean: np.ndarray, std: np.ndarray, dt: float) -> None:
    """Plot-ready CSV: time ``i * dt`` plus the model mean and std per joint,
    both (T, D) arrays."""
    # built before the file opens, so a time column that overflows writes no file
    times = np.arange(mean.shape[0]) * dt
    _write_joint_csv(path, times, {"mean": mean, "std": std})


# ------------------------------------------------------------------ emu-v1

@_loader("emu-v1")
def load_emulator_config(lines) -> EmulatorConfig:
    found = _fields(lines, "emulator config")
    # only the keys present are passed, so the classes' own defaults apply
    top = {key: _scalar(found, key, kind)
           for key, kind in (("rate", float), ("noise_std", float), ("seed", int)) if key in found}
    channels = []
    for i in range(NUM_CHANNELS):
        channel = f"channel{i + 1}."
        waveform = {name: _scalar(found, channel + name)
                    for name in ChannelWaveform.__slots__ if channel + name in found}
        channels.append(ChannelWaveform(**waveform))
    if found:
        raise GlovekitError(f"unknown keys {sorted(found)}")
    return EmulatorConfig(channels=tuple(channels), **top)
