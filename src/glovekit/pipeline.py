"""End-to-end orchestration: record, force feedback, train, reproduce, eval.

Pure functions over transports and in-memory data; the CLI layer owns file
paths and exit codes.
"""

from __future__ import annotations

from typing import Iterable, NamedTuple

import numpy as np

from .calibration import (
    CalibrationProfile,
    CouplingMap,
    ForceFeedbackMap,
    apply_coupling,
    raw_to_angle,
    tactile_to_pwm,
)
from .controlsim import (
    DEFAULT_CONTROL_RATE,
    Gains,
    PlantParams,
    TrackingResult,
    simulate_tracking,
)
from .emulator import DEFAULT_RATE, sample_count
from .errors import GlovekitError, TransportError
from .model import (
    Demonstration,
    TrajectoryModel,
    design_matrix,
    log_likelihood_per_joint,
    marginal_std,
    mean_trajectory,
)
from .transports import receive, send
from .wire import FRAME_SIZE, NUM_CHANNELS, StreamParser, encode_pwm_command

_READ_CHUNK = 16384
# below this fraction of the nominal frame count the recording is flagged
# as partial (a corrupted-but-continuous stream loses far less than this)
_PARTIAL_FRACTION = 0.5


class RecordStats(NamedTuple):
    frames_received: int
    bytes_skipped: int
    nominal_frames: int
    partial: bool


def _at_least_2(duration: float, rate: float, rate_name: str, unit: str) -> int:
    count = sample_count(duration, rate)
    if count < 2:
        raise GlovekitError(f"duration * {rate_name} must give at least 2 {unit}")
    return count


def read_raw_frames(reader, duration: float, stream_rate: float, sink) -> RecordStats:
    """Decode the first ``duration`` of a byte transport, one read at a time.

    Reading stops at EOF or after the bytes of the nominal frame count: each
    read asks for at most 16 KiB and at most the bytes left, so a longer
    stream gives the same frames as its first ``duration`` and no byte beyond
    it is waited for. A read that finds the writer gone ends the stream as EOF
    does; any other failed read, or 30 s of silence on a reader that is not a
    regular file, raises TransportError. Each read's frames go to ``sink(raw,
    index)``: ``raw`` is their (n, 5) float array of raw counts, ``index`` each
    one's place on the nominal grid, its stream offset // 13. Returns the
    stream statistics. Under 2 nominal frames raise GlovekitError before the
    first read.
    """
    nominal = _at_least_2(duration, stream_rate, "stream_rate", "frames")
    parser = StreamParser()
    left = nominal * FRAME_SIZE
    while left > 0:
        data = receive(reader, min(_READ_CHUNK, left))
        if not data:
            break
        left -= len(data)
        frames = parser.feed(data)
        sink(frames["channels"].astype(float), frames["offset"] // FRAME_SIZE)
    received = parser.frames_decoded
    return RecordStats(received, parser.bytes_skipped, nominal,
                       received < _PARTIAL_FRACTION * nominal)


def record(
    reader,
    profile: CalibrationProfile,
    coupling: CouplingMap,
    duration: float = 15.0,
    stream_rate: float = DEFAULT_RATE,
    control_rate: float = DEFAULT_CONTROL_RATE,
) -> tuple[Demonstration, RecordStats]:
    """Full record step: read encoded frames, calibrate, couple, sample at the control rate.

    Row j interpolates linearly at grid position j * stream_rate /
    control_rate between the received frames, each at its stream offset //
    13; rows before the first or past the last frame take that frame's value.
    Frames lost to stream corruption leave holes that the interpolation
    bridges without moving any other frame, so the output row count depends
    only on duration and control rate. Each read's frames are mapped, and the
    rows below its last frame written, as they arrive.
    """
    rows = _at_least_2(duration, control_rate, "control_rate", "samples")
    try:
        values = np.empty((rows, coupling.weights.shape[0]))
    except (MemoryError, ValueError):  # ValueError: more bytes than can be addressed
        raise GlovekitError(f"{rows} rows do not fit in memory") from None
    ratio = stream_rate / control_rate
    done, last = 0, None
    tail = (np.empty((0, NUM_CHANNELS)), np.empty(0, dtype=np.int64))

    def interpolate(raw, index):
        nonlocal done, tail, last
        # the latest frame goes first: rows before this read's first frame need
        # it, and BLAS sums a one-row coupling in another order than a stack
        raw = np.concatenate((tail[0], raw))
        index = np.concatenate((tail[1], index))
        tail = raw[-1:], index[-1:]
        if index.size < 2:
            return
        joints = apply_coupling(coupling, raw_to_angle(profile, raw))
        # the rows j * ratio < last frame's index, all of them below last / ratio + 1
        grid = np.arange(done, min(rows, int(index[-1] / ratio) + 2)) * ratio
        grid = grid[: np.searchsorted(grid, index[-1])]
        for d in range(joints.shape[1]):
            values[done : done + grid.size, d] = np.interp(grid, index, joints[:, d])
        done, last = done + grid.size, joints[-1]

    stats = read_raw_frames(reader, duration, stream_rate, interpolate)
    if stats.frames_received < 2:
        raise TransportError(f"received {stats.frames_received} frames, cannot build a trajectory")
    values[done:] = last
    return Demonstration(values, 1.0 / control_rate), stats


def feedback_loop(fmap: ForceFeedbackMap, tactile_forces, writer) -> np.ndarray:
    """Map each tactile sample to a PWM command and send it down the transport.

    A failed transport ends the loop cleanly; returns the duty rows sent, (sent, 5).
    """
    duties = tactile_to_pwm(fmap, tactile_forces)
    for sent, line in enumerate(encode_pwm_command(duties)):
        if not send(writer, line):
            return duties[:sent]
    return duties


class ReproduceResult(NamedTuple):
    reference: np.ndarray  # (T, D) mean trajectory used as tracking target
    tracking: TrackingResult


def reproduce(
    model: TrajectoryModel,
    duration: float = 15.0,
    control_rate: float = DEFAULT_CONTROL_RATE,
    gains: Gains = Gains(),
    plant: PlantParams = PlantParams(),
) -> ReproduceResult:
    """Track the model's mean trajectory on the simulated plant."""
    t_steps = _at_least_2(duration, control_rate, "control_rate", "samples")
    reference = mean_trajectory(model, design_matrix(t_steps, model.basis))
    tracking = simulate_tracking(reference, gains, plant, control_rate)
    return ReproduceResult(reference, tracking)


class EvalReport(NamedTuple):
    per_joint_log_likelihoods: list[np.ndarray]  # (D,) per demo, summing to its log-likelihood
    band_coverage: np.ndarray  # (D,) fraction of all demo samples in +/- 2 std
    mean: np.ndarray  # (T, D) model mean at the demos' length
    std: np.ndarray  # (T, D) marginal std at the demos' length


def evaluate(model: TrajectoryModel, demos: Iterable[Demonstration]) -> EvalReport:
    """Likelihood and +/-2-sigma band-coverage diagnostics for a demo set.

    All demos must match the model's dimension and share one length. They are
    taken one at a time: the first fixes the length of the model's mean and
    std, and each is reduced to its log-likelihood and its count of in-band
    samples before the next is requested.
    """
    per_joint: list[np.ndarray] = []
    inside = 0
    for demo in demos:  # not enumerate, whose result tuple would hold the demo
        i = len(per_joint) + 1
        if demo.D != model.D:
            raise GlovekitError(f"demo {i} dimension {demo.D} != model dimension {model.D}")
        if i == 1:
            t_ref = demo.T
            phi = design_matrix(t_ref, model.basis)
            mean, std = mean_trajectory(model, phi), marginal_std(model, phi)
            del phi
            std *= 2.0  # in place, the band's half-width: no second (T, D) array is held
        elif demo.T != t_ref:
            raise GlovekitError(f"demo {i} has {demo.T} rows, demo 1 has {t_ref}")
        per_joint.append(log_likelihood_per_joint(model, demo, mean))
        inside += (np.abs(demo.values - mean) <= std).sum(axis=0)
        del demo  # not held while the next one is loaded
    if not per_joint:
        raise GlovekitError("at least one demonstration is required")
    # std's bits again: std <= sqrt(float max), so doubling it neither rounded nor overflowed
    std *= 0.5
    return EvalReport(per_joint, inside / (t_ref * len(per_joint)), mean, std)
