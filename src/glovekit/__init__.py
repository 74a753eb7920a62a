"""Sensor-glove teleoperation toolkit.

Wire-protocol codec, virtual glove emulator, calibration maps, probabilistic
trajectory model, and a simulated impedance-tracking reproduction loop.
"""

from .calibration import (
    CalibrationProfile,
    CouplingMap,
    ExtremaBuilder,
    ForceFeedbackMap,
    apply_coupling,
    default_coupling_map,
    identity_coupling_map,
    raw_to_angle,
    tactile_to_pwm,
    tactile_to_pwm_command,
)
from .controlsim import (
    Gains,
    PlantParams,
    PlantState,
    TrackingResult,
    pd_torque,
    simulate_tracking,
    step_plant,
)
from .emulator import ChannelWaveform, EmulatorConfig, GloveEmulator, run_emulator
from .errors import (
    CalibrationError,
    FormatError,
    GlovekitError,
    ProtocolError,
    ShapeMismatchError,
    SingularSystemError,
    TransportError,
)
from .model import (
    BasisConfig,
    Demonstration,
    TrajectoryModel,
    basis_row,
    design_matrix,
    estimate_noise,
    fit_distribution,
    fit_weights,
    log_likelihood,
    marginal_std,
    mean_trajectory,
    train_model,
)
from .pipeline import evaluate, feedback_loop, record, reproduce
from .wire import (
    PwmCommand,
    SensorFrame,
    StreamParser,
    encode_pwm_command,
    parse_pwm_command,
)

__version__ = "0.1.0"
