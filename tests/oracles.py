"""Independent reference implementations used only to cross-check results.

Deliberately naive: hand-rolled elimination and term-by-term summation, no
shared code with the package's linear-algebra paths; a byte-by-byte stream
parser and a frame-by-frame emulator, no shared code with the package's
array paths; text writers that format one cell at a time, no shared code with
the package's table writer; the tracking loop as one numpy step per control
step, no shared code with the package's float loop; the tactile -> PWM map
as round-then-clamp, where the package clamps the ratio before rounding.
"""

import math
import struct

import numpy as np

from glovekit.controlsim import PlantState, pd_torque, step_plant

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


def pwm_round_then_clamp(fmap, force, finger=0):
    """PWM duty of one tactile reading: the ratio rounded half away from zero,
    then clamped into [0, 255]."""
    x = 255 * fmap.scale[finger] * force / fmap.f_max
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


def demo_text(values, dt, labels):
    """demo-v1 file text, one ``repr`` per cell, time ``i * dt`` per row."""
    lines = ["demo-v1", f"D {len(labels)}", f"dt {_cell(dt)}", "joints " + " ".join(labels)]
    for i, row in enumerate(values):
        lines.append(_cell(i * dt) + " " + _cells(row))
    return "\n".join(lines) + "\n"


def tactile_text(times, forces):
    """tactile-v1 file text, one row per (time, forces) pair."""
    lines = ["tactile-v1"]
    for t, row in zip(times, forces):
        lines.append(_cell(t) + " " + _cells(row))
    return "\n".join(lines) + "\n"


def model_text(model):
    """promp-v1 file text of a trajectory model, cell by cell."""
    basis = model.basis
    lines = [
        "promp-v1",
        f"K {basis.K}",
        f"D {model.D}",
        f"h {_cell(basis.h)}",
        f"lambda {_cell(basis.lam)}",
        f"eps_reg {_cell(model.eps_reg)}",
        f"normalize {int(basis.normalize)}",
        "centers " + _cells(basis.centers),
        "mu_w " + _cells(model.mu_w),
    ]
    for row in model.sigma_w:
        lines.append("sigma_w " + _cells(row))
    lines.append("sigma_y " + _cells(model.sigma_y))
    return "\n".join(lines) + "\n"


def tracking_csv_text(reference, executed, rate):
    """Tracking CSV text: time ``i / rate``, then ref, exec, exec - ref per joint."""
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
            cells += [_cell(ref), _cell(exe), _cell(exe - ref)]
        lines.append(",".join(cells))
    return "\n".join(lines) + "\n"


def bands_csv_text(times, mean, std, demos):
    """Bands CSV text: time, then mean, std and each demo's value per joint."""
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
        cells = [_cell(t)]
        for j in range(d):
            cells.append(_cell(mean[i, j]))
            cells.append(_cell(std[i, j]))
            for demo in demos:
                cells.append(_cell(demo[i, j]))
        lines.append(",".join(cells))
    return "\n".join(lines) + "\n"


def float_rows(lines):
    """Each line's space-separated tokens through ``float``, one at a time."""
    return np.array([[float(token) for token in line.split()] for line in lines])
