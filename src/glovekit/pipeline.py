"""End-to-end orchestration: record, force feedback, train, reproduce, eval.

Pure functions over transports and in-memory data; the CLI layer owns file
paths and exit codes.
"""

from __future__ import annotations

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
    simulate_tracking,
)
from .emulator import DEFAULT_RATE, sample_count
from .errors import GlovekitError, ShapeMismatchError, TransportError
from .model import (
    Demonstration,
    TrajectoryModel,
    design_matrix,
    log_likelihood_per_joint,
    marginal_std,
    mean_trajectory,
)
from .transports import send
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
    # each received frame's place on the nominal grid: its stream offset // 13
    index: np.ndarray = field(default_factory=lambda: np.empty(0, dtype=np.intp), repr=False)


def read_raw_frames(reader, duration: float, stream_rate: float = DEFAULT_RATE):
    """Collect raw frames from the first ``duration`` of a byte transport.

    Reading stops at EOF or after the bytes of the nominal frame count: each
    read asks for at most 16 KiB and at most the bytes left, so a longer
    stream gives the same frames as its first ``duration`` and no byte beyond
    it is waited for. A read that times out raises TransportError; any other
    failed read ends the stream as EOF does. Returns an (n, 5) float array of
    raw counts and the stream statistics.
    """
    nominal = sample_count(duration, stream_rate)
    parser = StreamParser()
    blocks = [np.empty((0, NUM_CHANNELS))]
    index = [np.empty(0, dtype=np.intp)]
    left = nominal * FRAME_SIZE
    while left > 0:
        try:
            data = reader.read(min(_READ_CHUNK, left))
        except TimeoutError as exc:
            raise TransportError(f"read timed out: {exc}") from exc
        except (OSError, ValueError):
            break
        if not data:
            break
        left -= len(data)
        values, offsets = parser.decode(data)
        blocks.append(values)
        index.append(offsets // FRAME_SIZE)
    received = parser.frames_decoded
    stats = RecordStats(
        frames_received=received,
        bytes_skipped=parser.bytes_skipped,
        nominal_frames=nominal,
        partial=received < _PARTIAL_FRACTION * nominal,
        index=np.concatenate(index),
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
    """Map raw frames to joint space and sample them at the control rate.

    Row j interpolates linearly at grid position j * stream_rate /
    control_rate between the received frames, each at its ``stats.index``;
    rows before the first or past the last frame take that frame's value.
    Frames lost to stream corruption leave holes that the interpolation
    bridges without moving any other frame, so the output row count depends
    only on duration and control rate.
    """
    rows = sample_count(duration, control_rate)
    if raw.shape[0] < 2:
        raise TransportError(
            f"received {raw.shape[0]} frames, cannot build a trajectory"
        )
    joints = apply_coupling(coupling, raw_to_angle(profile, raw))
    grid = np.arange(rows) * (stream_rate / control_rate)
    values = np.column_stack(
        [np.interp(grid, stats.index, joints[:, d]) for d in range(joints.shape[1])]
    )
    return Demonstration(values, 1.0 / control_rate)


def record(
    reader,
    profile: CalibrationProfile,
    coupling: CouplingMap,
    duration: float = 15.0,
    stream_rate: float = DEFAULT_RATE,
    control_rate: float = DEFAULT_CONTROL_RATE,
) -> tuple[Demonstration, RecordStats]:
    """Full record step: read encoded frames, calibrate, couple, sample at the control rate."""
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
        if not send(writer, encode_pwm_command(cmd).encode("ascii")):
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
    t_steps = sample_count(duration, control_rate)
    if t_steps < 2:
        raise GlovekitError("duration * control_rate must give at least 2 samples")
    reference = mean_trajectory(model, design_matrix(t_steps, model.basis))
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
    mean = mean_trajectory(model, phi)
    std = marginal_std(model, phi)
    inside = np.zeros(model.D)
    lls = []
    per_joint = []
    for demo in demos:
        inside += (np.abs(demo.values - mean) <= 2.0 * std).sum(axis=0)
        per_joint.append(log_likelihood_per_joint(model, demo, mean))
        lls.append(float(per_joint[-1].sum()))
    return EvalReport(lls, per_joint, inside / (t_ref * len(demos)), mean, std)
