"""End-to-end orchestration: record, force feedback, train, reproduce, eval.

Pure functions over transports and in-memory data; the CLI layer owns file
paths and exit codes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .calibration import (
    CalibrationProfile,
    CouplingMap,
    ForceFeedbackMap,
    apply_coupling,
    raw_to_angle,
    tactile_to_pwm_command,
)
from .controlsim import (
    DEFAULT_CONTROL_RATE,
    Gains,
    PlantParams,
    TrackingResult,
    resample_linear,
    simulate_tracking,
)
from .emulator import DEFAULT_RATE
from .errors import GlovekitError, ShapeMismatchError, TransportError
from .model import (
    Demonstration,
    TrajectoryModel,
    _log_likelihood_per_joint,
    _marginal_std,
    _mean_weights,
    design_matrix,
    mean_trajectory,
)
from .wire import FRAME_SIZE, NUM_CHANNELS, PwmCommand, StreamParser, encode_pwm_command

_READ_CHUNK = 16384
# below this fraction of the nominal frame count the recording is flagged
# as partial (a corrupted-but-continuous stream loses far less than this)
_PARTIAL_FRACTION = 0.5


@dataclass
class RecordStats:
    frames_received: int = 0
    bytes_skipped: int = 0
    nominal_frames: int = 0
    partial: bool = False


def read_raw_frames(reader, duration: float, stream_rate: float = DEFAULT_RATE):
    """Collect raw frames from a byte transport until the nominal count or EOF.

    Each read asks for at most the bytes of the frames still missing: the
    parser holds fewer than one frame's bytes between reads, so k frames' bytes
    complete at most k frames and the count never passes nominal, and no byte
    beyond it is waited for. Returns an (n, 5) float array of raw counts and
    the stream statistics.
    """
    nominal = math.floor(duration * stream_rate)
    parser = StreamParser()
    blocks = [np.empty((0, NUM_CHANNELS))]
    while parser.frames_decoded < nominal:
        try:
            data = reader.read(min(_READ_CHUNK, (nominal - parser.frames_decoded) * FRAME_SIZE))
        except (OSError, ValueError):
            break
        if not data:
            break
        blocks.append(parser.decode(data))
    received = parser.frames_decoded
    stats = RecordStats(
        frames_received=received,
        bytes_skipped=parser.bytes_skipped,
        nominal_frames=nominal,
        partial=received < _PARTIAL_FRACTION * nominal,
    )
    return np.concatenate(blocks, dtype=float), stats


def frames_to_demo(
    raw: np.ndarray,
    stats: RecordStats,
    profile: CalibrationProfile,
    coupling: CouplingMap,
    stream_rate: float,
    control_rate: float,
    duration: float,
) -> Demonstration:
    """Map raw frames to joint space and resample to the control rate.

    Frames lost to stream corruption are bridged by linear interpolation back
    onto the nominal stream grid, so the output row count depends only on
    duration and control rate.
    """
    if raw.shape[0] < 2:
        raise TransportError(
            f"received {raw.shape[0]} frames, cannot build a trajectory"
        )
    joints = apply_coupling(coupling, raw_to_angle(profile, raw))
    nominal = stats.nominal_frames
    if joints.shape[0] != nominal and nominal >= 2:
        src = np.linspace(0.0, 1.0, joints.shape[0])
        dst = np.linspace(0.0, 1.0, nominal)
        joints = np.column_stack(
            [np.interp(dst, src, joints[:, d]) for d in range(joints.shape[1])]
        )
    resampled = resample_linear(joints, stream_rate, control_rate)
    target_rows = math.floor(duration * control_rate)
    if resampled.shape[0] > target_rows:
        resampled = resampled[:target_rows]
    elif resampled.shape[0] < target_rows:
        pad = np.repeat(resampled[-1:], target_rows - resampled.shape[0], axis=0)
        resampled = np.vstack([resampled, pad])
    return Demonstration(resampled, 1.0 / control_rate)


def record(
    reader,
    profile: CalibrationProfile,
    coupling: CouplingMap,
    duration: float = 15.0,
    stream_rate: float = DEFAULT_RATE,
    control_rate: float = DEFAULT_CONTROL_RATE,
) -> tuple[Demonstration, RecordStats]:
    """Full record step: read encoded frames, calibrate, couple, resample."""
    raw, stats = read_raw_frames(reader, duration, stream_rate)
    demo = frames_to_demo(raw, stats, profile, coupling, stream_rate, control_rate, duration)
    return demo, stats


def feedback_loop(fmap: ForceFeedbackMap, tactile_forces, writer) -> list[PwmCommand]:
    """Map each tactile sample to a PWM command and send it down the transport.

    A failed transport ends the loop cleanly; returns the commands sent.
    """
    sent: list[PwmCommand] = []
    for forces in np.atleast_2d(np.asarray(tactile_forces, dtype=float)):
        cmd = tactile_to_pwm_command(fmap, forces)
        try:
            writer.write(encode_pwm_command(cmd).encode("ascii"))
        except (OSError, ValueError, TransportError):
            break
        sent.append(cmd)
    return sent


@dataclass(frozen=True)
class ReproduceResult:
    reference: np.ndarray  # (T, D) mean trajectory used as tracking target
    tracking: TrackingResult
    rate: float


def reproduce(
    model: TrajectoryModel,
    duration: float = 15.0,
    control_rate: float = DEFAULT_CONTROL_RATE,
    gains: Gains = Gains(),
    plant: PlantParams = PlantParams(),
) -> ReproduceResult:
    """Track the model's mean trajectory on the simulated plant."""
    t_steps = math.floor(duration * control_rate)
    if t_steps < 2:
        raise GlovekitError("duration * control_rate must give at least 2 samples")
    reference = mean_trajectory(model, t_steps)
    tracking = simulate_tracking(reference, gains, plant, control_rate)
    return ReproduceResult(reference, tracking, control_rate)


@dataclass(frozen=True)
class EvalReport:
    log_likelihoods: list[float]  # one per demo
    per_joint_log_likelihoods: list[np.ndarray]  # one (D,) array per demo
    band_coverage: np.ndarray  # (D,) fraction of all demo samples in +/- 2 std
    mean: np.ndarray  # (T, D) model mean at the demos' length
    std: np.ndarray  # (T, D) marginal std at the demos' length


def evaluate(model: TrajectoryModel, demos: list[Demonstration]) -> EvalReport:
    """Likelihood and +/-2-sigma band-coverage diagnostics for a demo set.

    All demos must match the model's dimension and share one length.
    """
    if not demos:
        raise GlovekitError("at least one demonstration is required")
    t_ref = demos[0].T
    for i, demo in enumerate(demos, start=1):
        if demo.D != model.D:
            raise ShapeMismatchError(f"demo {i} dimension {demo.D} != model dimension {model.D}")
        if demo.T != t_ref:
            raise ShapeMismatchError(f"demo {i} has {demo.T} rows, demo 1 has {t_ref}")
    phi = design_matrix(t_ref, model.basis)
    mean = phi @ _mean_weights(model)
    std = _marginal_std(model, phi)
    inside = np.zeros(model.D)
    lls = []
    per_joint = []
    for demo in demos:
        inside += (np.abs(demo.values - mean) <= 2.0 * std).sum(axis=0)
        per_joint.append(_log_likelihood_per_joint(model, demo, mean))
        lls.append(float(per_joint[-1].sum()))
    return EvalReport(lls, per_joint, inside / (t_ref * len(demos)), mean, std)
