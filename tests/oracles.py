"""Independent reference implementations used only to cross-check results.

Deliberately naive: hand-rolled elimination and term-by-term summation, no
shared code with the package's linear-algebra paths; a byte-by-byte stream
parser and a frame-by-frame emulator, no shared code with the package's
array paths; text writers that format one cell at a time, no shared code with
the package's table writer, and the text of the input formats the package
only reads; the tracking loop as one numpy PD-law and plant step per control
step, no shared code with the package's float loop; the tactile -> PWM map
as round-then-clamp, where the package clamps the ratio before rounding; a
parser for the PWM command lines the package only writes; the record step
over the whole stream in one array, where the package maps and interpolates
one read at a time; the range check of each scalar parameter
as its site wrote it, where the package states one rule in ``errors``; the
marginal std read from the whole weight covariance, where the package keeps
only its per-joint blocks; and one row of the package's basis at any phase,
where ``design_matrix`` gives only the rows of its grid. ``traced_peak`` is
the one memory probe that the tests' memory bounds share, and ``edit_token``
the one edit of a written file's token.
"""

import math
import struct
import tracemalloc
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from glovekit.calibration import CouplingMap, apply_coupling, raw_to_angle
from glovekit.emulator import sample_count
from glovekit.errors import GlovekitError
from glovekit.model import _basis

_SYNC, _TERMINATOR, _FRAME_SIZE, _ADC_MAX = 0xA5, 0x0A, 13, 1023
_PAYLOAD = struct.Struct("<5H")


def solve_elimination(a, b):
    """Solve a @ x = b by Gaussian elimination with partial pivoting.

    ``a`` is (n, n), ``b`` is (n,) or (n, m). Pure Python loops on copies.
    """
    a = [[float(v) for v in row] for row in np.asarray(a)]
    b2 = np.atleast_2d(np.asarray(b, dtype=float).T).T  # (n, m)
    rhs = [[float(v) for v in row] for row in b2]
    n = len(a)
    m = len(rhs[0])
    for col in range(n):
        pivot = max(range(col, n), key=lambda r: abs(a[r][col]))
        if abs(a[pivot][col]) == 0.0:
            raise ZeroDivisionError("singular matrix")
        a[col], a[pivot] = a[pivot], a[col]
        rhs[col], rhs[pivot] = rhs[pivot], rhs[col]
        for row in range(col + 1, n):
            factor = a[row][col] / a[col][col]
            for k in range(col, n):
                a[row][k] -= factor * a[col][k]
            for k in range(m):
                rhs[row][k] -= factor * rhs[col][k]
    x = [[0.0] * m for _ in range(n)]
    for row in range(n - 1, -1, -1):
        for k in range(m):
            acc = rhs[row][k]
            for col in range(row + 1, n):
                acc -= a[row][col] * x[col][k]
            x[row][k] = acc / a[row][row]
    out = np.array(x)
    return out[:, 0] if np.asarray(b).ndim == 1 else out


def ridge_weights_oracle(phi, tau, lam):
    """Normal-equations ridge solve via :func:`solve_elimination`."""
    phi = np.asarray(phi, dtype=float)
    k = phi.shape[1]
    gram = phi.T @ phi + lam * np.eye(k)
    return solve_elimination(gram, phi.T @ np.asarray(tau, dtype=float))


def covariance_term_by_term(vectors):
    """Unbiased sample mean/covariance computed entry by entry."""
    vectors = [np.asarray(v, dtype=float) for v in vectors]
    n = len(vectors)
    dim = vectors[0].shape[0]
    mean = np.zeros(dim)
    for v in vectors:
        for i in range(dim):
            mean[i] += v[i] / n
    cov = np.zeros((dim, dim))
    for v in vectors:
        for i in range(dim):
            for j in range(dim):
                cov[i, j] += (v[i] - mean[i]) * (v[j] - mean[j]) / (n - 1)
    return mean, cov


def marginal_std_full(sigma_w_full, sigma_y, phi):
    """(T, D) marginal std with each joint's block sliced from a whole
    (K*D, K*D) weight covariance, joint d's weights at rows d*K .. (d+1)*K - 1."""
    k = phi.shape[1]
    std = np.empty((phi.shape[0], len(sigma_y)))
    for d in range(len(sigma_y)):
        block = sigma_w_full[d * k : (d + 1) * k, d * k : (d + 1) * k]
        var = np.einsum("tl,tl->t", np.einsum("tk,kl->tl", phi, block), phi) + sigma_y[d]
        std[:, d] = np.sqrt(np.maximum(var, 0.0))
    return std


def gaussian_logpdf_sum(values, means, variance):
    """Term-by-term sum of scalar Gaussian log densities."""
    total = 0.0
    for y, mu in zip(values, means):
        total += -0.5 * np.log(2.0 * np.pi * variance) - (y - mu) ** 2 / (2.0 * variance)
    return total


class ScalarStreamParser:
    """Byte-by-byte resyncing frame parser: scan to the next sync byte, take a
    frame when its terminator, XOR and range check pass, else skip the sync
    byte and rescan."""

    def __init__(self):
        self.buffer = bytearray()
        self.frames_decoded = 0
        self.bytes_skipped = 0
        self.offsets = []  # stream offset of each frame's first byte
        self._dropped = 0  # bytes already removed from the front of buffer

    def feed(self, data):
        """Consume a chunk; return the decoded frames as 5-tuples."""
        self.buffer.extend(data)
        buf = self.buffer
        n = len(buf)
        frames = []
        pos = 0
        while True:
            start = buf.find(_SYNC, pos)
            if start < 0:
                self.bytes_skipped += n - pos
                pos = n
                break
            self.bytes_skipped += start - pos
            pos = start
            if n - pos < _FRAME_SIZE:
                break
            if buf[pos + _FRAME_SIZE - 1] == _TERMINATOR and self._frame_ok(buf, pos):
                frames.append(_PAYLOAD.unpack_from(buf, pos + 1))
                self.offsets.append(self._dropped + pos)
                pos += _FRAME_SIZE
            else:
                self.bytes_skipped += 1
                pos += 1
        del buf[:pos]
        self._dropped += pos
        self.frames_decoded += len(frames)
        return frames

    @staticmethod
    def _frame_ok(buf, pos):
        checksum = 0
        for b in buf[pos + 1 : pos + 11]:
            checksum ^= b
        if checksum != buf[pos + 11]:
            return False
        return all(v <= _ADC_MAX for v in _PAYLOAD.unpack_from(buf, pos + 1))


@dataclass
class PlantState:
    theta: np.ndarray  # rad, per joint
    omega: np.ndarray  # rad/s, per joint


def pd_torque(gains, theta_des, omega_des, theta, omega, torque_limit):
    """Torque-limited PD law; works elementwise on arrays."""
    tau = gains.kp * (np.asarray(theta_des) - theta) + gains.kd * (np.asarray(omega_des) - omega)
    return np.clip(tau, -torque_limit, torque_limit)


def step_plant(state, torque, dt, params):
    """Semi-implicit Euler step of the inertia-damper plant."""
    if dt <= 0:
        raise GlovekitError(f"dt must be positive, got {dt}")
    omega = state.omega + dt * (np.asarray(torque) - params.b * state.omega) / params.m
    theta = state.theta + dt * omega
    return PlantState(theta, omega)


def tracking_per_step(reference, gains, params, rate):
    """Track a (T, D) reference with one :func:`pd_torque` and one
    :func:`step_plant` call on the whole joint vector per control step.

    Returns (executed, rmse, max_abs_error) as ``simulate_tracking`` does.
    """
    reference = np.asarray(reference, dtype=float)
    dt = 1.0 / rate
    omega_des = np.zeros_like(reference)
    omega_des[1:] = (reference[1:] - reference[:-1]) * rate
    state = PlantState(reference[0].copy(), np.zeros(reference.shape[1]))
    executed = np.empty_like(reference)
    executed[0] = state.theta
    for t in range(1, reference.shape[0]):
        tau = pd_torque(
            gains, reference[t], omega_des[t], state.theta, state.omega, params.torque_limit
        )
        state = step_plant(state, tau, dt, params)
        executed[t] = state.theta
    error = executed - reference
    return executed, np.sqrt((error**2).mean(axis=0)), np.abs(error).max(axis=0)


def whole_stream_demo(raw, index, profile, coupling, stream_rate, control_rate, duration):
    """The record step's rows from all received frames at once: ``raw`` (n, 5)
    mapped and coupled in one array, then one ``np.interp`` per joint from
    each frame's grid ``index`` to control row positions j * stream_rate /
    control_rate. Raises ValueError for fewer than 2 frames."""
    if raw.shape[0] < 2:
        raise ValueError(f"received {raw.shape[0]} frames, cannot build a trajectory")
    rows = sample_count(duration, control_rate)
    joints = apply_coupling(coupling, raw_to_angle(profile, raw))
    grid = np.arange(rows) * (stream_rate / control_rate)
    return np.column_stack(
        [np.interp(grid, index, joints[:, d]) for d in range(joints.shape[1])]
    )


def default_coupling_map():
    """Thumb/index/middle pass-through, ring and little averaged into one joint."""
    w = np.zeros((4, 5))
    w[0, 0] = 1.0
    w[1, 1] = 1.0
    w[2, 2] = 1.0
    w[3, 3] = 0.5
    w[3, 4] = 0.5
    return CouplingMap(w)


def parse_pwm_command(line):
    """The 5 duty cycles of a PWM command line ``"P v1 v2 v3 v4 v5\\n"``, as
    the glove reads it; raises GlovekitError when malformed."""
    tokens = line.strip().split(" ")
    if len(tokens) != 6:
        raise GlovekitError(f"expected 6 fields, got {len(tokens)}: {line!r}")
    if tokens[0] != "P":
        raise GlovekitError(f"unknown command verb {tokens[0]!r}")
    try:
        duty = tuple(int(tok) for tok in tokens[1:])
    except ValueError:
        raise GlovekitError(f"non-numeric PWM value in {line!r}") from None
    if not all(0 <= v <= 255 for v in duty):
        raise GlovekitError(f"PWM value outside [0, 255] in {line!r}")
    return duty


def pwm_round_then_clamp(fmap, force):
    """PWM duty of one tactile reading: the ratio rounded half away from zero,
    then clamped into [0, 255]; an infinite ratio clamps and a NaN one is 0."""
    x = 255 * force / fmap.f_max
    if not math.isfinite(x):
        return 255 if x == math.inf else 0
    pwm = math.floor(x + 0.5) if x >= 0 else math.ceil(x - 0.5)
    return min(max(pwm, 0), 255)


def scalar_frame_bytes(channels):
    """One 13-byte wire frame, packed with struct and XOR-ed byte by byte."""
    payload = _PAYLOAD.pack(*channels)
    checksum = 0
    for b in payload:
        checksum ^= b
    return bytes([_SYNC]) + payload + bytes([checksum, _TERMINATOR])


def scalar_emulator_frames(config, count):
    """The emulator's first ``count`` frames, one step at a time: a per-step
    noise draw, math.sin per channel and round half away from zero."""
    rng = np.random.default_rng(config.seed)
    frames = []
    for k in range(count):
        t = k / config.rate
        if config.noise_std > 0:
            noise = rng.normal(0.0, config.noise_std, 5)
        else:
            noise = np.zeros(5)
        values = []
        for i, ch in enumerate(config.channels):
            x = ch.offset + ch.amplitude * math.sin(2.0 * math.pi * ch.frequency * t + ch.phase)
            y = x + noise[i]
            v = math.floor(y + 0.5) if y >= 0 else math.ceil(y - 0.5)
            values.append(min(max(v, 0), _ADC_MAX))
        frames.append(tuple(values))
    return frames


def _cell(x):
    return repr(float(x))


def _cells(values):
    return " ".join(_cell(v) for v in values)


def table_cell(x):
    """A float table cell other than a time: 17 significant digits, which read
    back to the exact float64 (0.1 is ``0.10000000000000001``, -0.0 ``-0``)."""
    return "%.17g" % float(x)


def demo_text(values, dt, labels):
    """demo-v1 file text: time ``i * dt`` as ``repr``, then one ``table_cell``
    per value."""
    lines = ["demo-v1", f"D {len(labels)}", f"dt {_cell(dt)}", "joints " + " ".join(labels)]
    for i, row in enumerate(values):
        lines.append(" ".join([_cell(i * dt), *map(table_cell, row)]))
    return "\n".join(lines) + "\n"


def tactile_text(times, forces):
    """tactile-v1 file text, one row per (time, forces) pair."""
    lines = ["tactile-v1"]
    for t, row in zip(times, forces):
        lines.append(_cell(t) + " " + _cells(row))
    return "\n".join(lines) + "\n"


def coupling_text(weights):
    """coupling-v1 file text, one ``row`` line per robot joint's weights."""
    lines = ["coupling-v1"]
    for row in weights:
        lines.append("row " + _cells(row))
    return "\n".join(lines) + "\n"


def emu_text(config):
    """emu-v1 file text naming every key of an emulator config."""
    lines = ["emu-v1", f"rate {_cell(config.rate)}", f"noise_std {_cell(config.noise_std)}",
             f"seed {config.seed}"]
    for i, channel in enumerate(config.channels, start=1):
        for name in ("offset", "amplitude", "frequency", "phase"):
            lines.append(f"channel{i}.{name} {_cell(getattr(channel, name))}")
    return "\n".join(lines) + "\n"


def model_text(model):
    """promp-v3 file text of a trajectory model, cell by cell: the header keys
    in order, ``mu_w`` being joint 1's K weights, then joint 2's, and so on;
    then the bare sigma_w table, joint d's block being rows d*K .. (d+1)*K - 1.
    Header values are ``repr``, sigma_w cells ``table_cell``."""
    basis = model.basis
    lines = [
        "promp-v3",
        f"K {basis.K}",
        f"D {model.D}",
        f"h {_cell(basis.h)}",
        f"lambda {_cell(basis.lam)}",
        f"eps_reg {_cell(model.eps_reg)}",
        "mu_w " + _cells(model.mu_w.reshape(-1)),
        "sigma_y " + _cells(model.sigma_y),
    ]
    for block in model.sigma_w:
        for row in block:
            lines.append(" ".join(map(table_cell, row)))
    return "\n".join(lines) + "\n"


def tracking_csv_text(reference, executed, rate):
    """Tracking CSV text: time ``i / rate`` as ``repr``, then ref, exec,
    exec - ref per joint, each a ``table_cell``."""
    d = reference.shape[1]
    header = ["time"]
    for j in range(d):
        name = f"j{j + 1:02d}"
        header += [f"{name}_ref", f"{name}_exec", f"{name}_err"]
    lines = [",".join(header)]
    for i in range(reference.shape[0]):
        cells = [_cell(i / rate)]
        for j in range(d):
            ref = reference[i, j]
            exe = executed[i, j]
            cells += [table_cell(ref), table_cell(exe), table_cell(exe - ref)]
        lines.append(",".join(cells))
    return "\n".join(lines) + "\n"


def bands_csv_text(mean, std, dt):
    """Bands CSV text: time ``i * dt`` as ``repr``, then mean and std per
    joint, each a ``table_cell``."""
    d = mean.shape[1]
    header = ["time"]
    for j in range(d):
        name = f"j{j + 1:02d}"
        header += [f"{name}_mean", f"{name}_std"]
    lines = [",".join(header)]
    for i in range(mean.shape[0]):
        cells = [_cell(i * dt)]
        for j in range(d):
            cells += [table_cell(mean[i, j]), table_cell(std[i, j])]
        lines.append(",".join(cells))
    return "\n".join(lines) + "\n"


def float_rows(lines):
    """Each line's space-separated tokens through ``float``, one at a time."""
    return np.array([[float(token) for token in line.split()] for line in lines])


# Each scalar parameter's range check as its own site wrote it before one rule
# in ``errors`` stated them all, in its three spellings: the predicate a
# value had to pass and the message format of the GlovekitError otherwise
OLD_SCALAR_CHECKS = {
    "Gains.kp": (lambda x: 0 < x < np.inf, "Kp must be positive and finite, got {}"),
    "Gains.kd": (lambda x: 0 <= x < np.inf, "Kd must be nonnegative and finite, got {}"),
    "PlantParams.m": (lambda x: 0 < x < np.inf, "inertia must be positive and finite, got {}"),
    "PlantParams.b": (lambda x: 0 <= x < np.inf, "damping must be nonnegative and finite, got {}"),
    "PlantParams.torque_limit": (lambda x: 0 < x < np.inf,
                                 "torque limit must be positive and finite, got {}"),
    "simulate_tracking.rate": (lambda x: 0 < x < np.inf,
                               "rate must be positive and finite, got {}"),
    "ForceFeedbackMap.f_max": (lambda x: x > 0 and math.isfinite(x),
                               "f_max must be positive and finite, got {}"),
    "BasisConfig.lam": (lambda x: x >= 0 and math.isfinite(x),
                        "lambda must be nonnegative and finite, got {}"),
    "TrajectoryModel.eps_reg": (lambda x: x >= 0 and math.isfinite(x),
                                "eps_reg must be nonnegative and finite, got {}"),
    "EmulatorConfig.rate": (lambda x: math.isfinite(x) and x > 0,
                            "rate must be positive and finite, got {}"),
    "EmulatorConfig.noise_std": (lambda x: math.isfinite(x) and x >= 0,
                                 "noise_std must be nonnegative and finite, got {}"),
    "Demonstration.dt": (lambda x: math.isfinite(x) and x > 0,
                         "dt must be positive and finite, got {}"),
}


def basis_row(t, config):
    """The package's K basis functions at phase t in [0, 1], through the
    function behind ``design_matrix``; raises GlovekitError for another phase."""
    if not (0.0 <= t <= 1.0):
        raise GlovekitError(f"phase {t} outside [0, 1]")
    return _basis(np.asarray(t, dtype=float), config)


def edit_token(path, line, column, edit):
    """Replace the space-separated token at (line, column) of a text file by
    ``edit(token)``, so an edit takes the token as the file spells it."""
    lines = Path(path).read_text().splitlines()
    tokens = lines[line].split(" ")
    tokens[column] = edit(tokens[column])
    lines[line] = " ".join(tokens)
    Path(path).write_text("\n".join(lines) + "\n")


def traced_peak(run):
    """``run()``'s result and the peak of the memory traced while it ran."""
    tracemalloc.start()
    try:
        return run(), tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
