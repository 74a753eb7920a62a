"""Command-line entry point.

Subcommands: glove-emulate, record, calibrate, train, reproduce, eval,
feedback. Exit codes: 0 success, 2 usage error, 3 data/shape error,
4 transport failure.
"""

from __future__ import annotations

import argparse
import math
import sys
from typing import Iterator

import numpy as np

from . import formats
from .calibration import (
    DEFAULT_JOINT_MAX,
    DEFAULT_JOINT_MIN,
    CalibrationProfile,
    ExtremaBuilder,
    ForceFeedbackMap,
    identity_coupling_map,
)
from .controlsim import DEFAULT_CONTROL_RATE, Gains, PlantParams
from .emulator import DEFAULT_RATE, run_emulator
from .errors import GlovekitError, TransportError
from .model import BasisConfig, DEFAULT_EPS_REG, Demonstration, train_model
from .pipeline import evaluate, feedback_loop, read_raw_frames, record, reproduce
from .transports import open_transport

EXIT_OK = 0
EXIT_DATA = 3
EXIT_TRANSPORT = 4


def _finite_float(text: str) -> float:
    """argparse type for float options: NaN and infinities are usage errors."""
    try:
        value = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid float value: {text!r}") from None
    if not math.isfinite(value):
        raise argparse.ArgumentTypeError(f"must be a finite number, got {text!r}")
    return value


def _emulate_options(p: argparse.ArgumentParser) -> None:
    p.set_defaults(run=_cmd_emulate)
    p.add_argument("--config", required=True, help="emu-v1 config file")
    p.add_argument("--duration", type=_finite_float, required=True, help="seconds to stream")
    p.add_argument("--fast", action="store_true", help="write without real-time pacing")
    p.add_argument("--transport", required=True, help="pipe | tcp:PORT | file:PATH")


def _record_options(p: argparse.ArgumentParser) -> None:
    p.set_defaults(run=_cmd_record)
    p.add_argument("--transport", required=True)
    p.add_argument("--calibration", required=True, help="calib-v1 profile file")
    p.add_argument("--coupling", help="coupling-v1 map file (default: identity)")
    p.add_argument("--duration", type=_finite_float, default=15.0)
    p.add_argument("--stream-rate", type=_finite_float, default=DEFAULT_RATE)
    p.add_argument("--control-rate", type=_finite_float, default=DEFAULT_CONTROL_RATE)
    p.add_argument("--output", required=True, help="demo-v1 output file")


def _calibrate_options(p: argparse.ArgumentParser) -> None:
    p.set_defaults(run=_cmd_calibrate)
    p.add_argument("--transport", required=True)
    p.add_argument("--duration", type=_finite_float, default=5.0)
    p.add_argument("--stream-rate", type=_finite_float, default=DEFAULT_RATE)
    p.add_argument("--joint-min", type=_finite_float, default=DEFAULT_JOINT_MIN)
    p.add_argument("--joint-max", type=_finite_float, default=DEFAULT_JOINT_MAX)
    p.add_argument("--output", required=True, help="calib-v1 output file")


def _train_options(p: argparse.ArgumentParser) -> None:
    p.set_defaults(run=_cmd_train)
    p.add_argument("demos", nargs="+", help="demo-v1 files")
    p.add_argument("--basis-count", type=int, default=BasisConfig().K)
    p.add_argument("--basis-width", type=_finite_float, default=None)
    p.add_argument("--ridge", type=_finite_float, default=BasisConfig().lam)
    p.add_argument("--eps-reg", type=_finite_float, default=DEFAULT_EPS_REG)
    p.add_argument("--output", required=True, help="promp-v3 output file")


def _reproduce_options(p: argparse.ArgumentParser) -> None:
    p.set_defaults(run=_cmd_reproduce)
    p.add_argument("--model", required=True, help="promp-v3 file")
    p.add_argument("--duration", type=_finite_float, default=15.0)
    p.add_argument("--control-rate", type=_finite_float, default=DEFAULT_CONTROL_RATE)
    p.add_argument("--kp", type=_finite_float, default=Gains().kp)
    p.add_argument("--kd", type=_finite_float, default=Gains().kd)
    p.add_argument("--inertia", type=_finite_float, default=PlantParams().m)
    p.add_argument("--damping", type=_finite_float, default=PlantParams().b)
    p.add_argument("--torque-limit", type=_finite_float, default=PlantParams().torque_limit)
    p.add_argument("--output", required=True, help="tracking CSV output")


def _eval_options(p: argparse.ArgumentParser) -> None:
    p.set_defaults(run=_cmd_eval)
    p.add_argument("demos", nargs="+", help="demo-v1 files")
    p.add_argument("--model", required=True, help="promp-v3 file")
    p.add_argument("--output", required=True, help="plot-ready bands CSV: time, model mean and std")


def _feedback_options(p: argparse.ArgumentParser) -> None:
    p.set_defaults(run=_cmd_feedback)
    p.add_argument("--tactile", required=True, help="tactile-v1 file")
    p.add_argument("--f-max", type=_finite_float, required=True, help="tactile full-scale")
    p.add_argument("--transport", required=True)


# command name: (help line, declaration of its options), in help order
_COMMANDS = {
    "glove-emulate": ("stream a virtual glove to a transport", _emulate_options),
    "record": ("record a demonstration from a transport", _record_options),
    "calibrate": ("capture per-channel extrema into a profile", _calibrate_options),
    "train": ("fit the trajectory model from demo files", _train_options),
    "reproduce": ("track the model mean on the simulated plant", _reproduce_options),
    "eval": ("likelihood and band-coverage diagnostics", _eval_options),
    "feedback": ("send a scripted tactile profile as PWM commands", _feedback_options),
}


def build_parser(command: str | None = None) -> argparse.ArgumentParser:
    """The whole parser, or with ``command`` one that declares only that
    command and its options; both parse that command's argv alike."""
    parser = argparse.ArgumentParser(prog="glovekit", description=__doc__)
    if command is None:
        sub = parser.add_subparsers(dest="command", required=True)
        names = _COMMANDS
    else:
        # "unrecognized arguments" prints the top-level usage, which names every
        # command; on the whole parser the metavar would also rename ``command``
        # in the "required" and "invalid choice" errors
        sub = parser.add_subparsers(dest="command", required=True,
                                    metavar="{" + ",".join(_COMMANDS) + "}")
        names = [command]
    for name in names:
        help_line, declare = _COMMANDS[name]
        declare(sub.add_parser(name, help=help_line))
    return parser


def _status_file(transport: str):
    """Where a writer prints its status line: stderr when ``pipe`` puts the
    data itself on stdout."""
    return sys.stderr if transport == "pipe" else sys.stdout


def _cmd_emulate(args) -> int:
    config = formats.load_emulator_config(args.config)
    with open_transport(args.transport, "wb") as writer:
        written = run_emulator(config, args.duration, writer, fast=args.fast)
    print(f"frames written: {written}", file=_status_file(args.transport))
    return EXIT_OK


def _cmd_record(args) -> int:
    profile = formats.load_profile(args.calibration)
    coupling = formats.load_coupling(args.coupling) if args.coupling else identity_coupling_map()
    with open_transport(args.transport, "rb") as reader:
        demo, stats = record(
            reader, profile, coupling, args.duration, args.stream_rate, args.control_rate
        )
    formats.save_demo(demo, args.output)
    print(
        f"frames received: {stats.frames_received}/{stats.nominal_frames}, "
        f"bytes skipped: {stats.bytes_skipped}, rows written: {demo.T}"
    )
    if stats.partial:
        print(f"warning: stream ended early, {args.output} is partial", file=sys.stderr)
        return EXIT_TRANSPORT
    return EXIT_OK


def _cmd_calibrate(args) -> int:
    # the profile's joint-range check before the first read; any raw range will do
    CalibrationProfile((0.0,) * 5, (1.0,) * 5, (args.joint_min,) * 5, (args.joint_max,) * 5)
    builder = ExtremaBuilder()
    with open_transport(args.transport, "rb") as reader:
        stats = read_raw_frames(reader, args.duration, args.stream_rate,
                                lambda raw, index: builder.observe(raw))
    profile = builder.finalize((args.joint_min,) * 5, (args.joint_max,) * 5)
    formats.save_profile(profile, args.output)
    print(f"frames observed: {stats.frames_received}, profile written: {args.output}")
    return EXIT_OK


def _load_demos(paths, dts: list[float]) -> Iterator[Demonstration]:
    """Each demo file, loaded when it is requested, after the one before it
    is released; its dt, which must equal the first file's, goes to ``dts``."""
    for path in paths:
        demo = formats.load_demo(path)
        if dts and demo.dt != dts[0]:
            raise GlovekitError(f"{path}: dt {demo.dt} differs from the first demo's {dts[0]}")
        dts.append(demo.dt)
        yield demo
        del demo  # not held while the next file loads


def _cmd_train(args) -> int:
    config = BasisConfig(K=args.basis_count, h=args.basis_width, lam=args.ridge)
    model = train_model(_load_demos(args.demos, []), config, args.eps_reg)
    formats.save_model(model, args.output)
    if len(args.demos) == 1:
        print("warning: single demonstration, weight covariance is the regularizer only",
              file=sys.stderr)
    print(f"K={config.K} D={model.D} N={len(args.demos)}")
    print("per-joint RMS residual (rad): "
          + " ".join(f"{r:.6f}" for r in np.sqrt(model.sigma_y)))
    return EXIT_OK


def _cmd_reproduce(args) -> int:
    model = formats.load_model(args.model)
    gains = Gains(args.kp, args.kd)
    plant = PlantParams(args.inertia, args.damping, args.torque_limit)
    result = reproduce(model, args.duration, args.control_rate, gains, plant)
    formats.save_tracking_csv(
        args.output, result.reference, result.tracking.executed, args.control_rate
    )
    print("per-joint RMSE (rad): " + " ".join(f"{r:.6f}" for r in result.tracking.rmse))
    print("per-joint max error (rad): "
          + " ".join(f"{e:.6f}" for e in result.tracking.max_abs_error))
    return EXIT_OK


def _cmd_eval(args) -> int:
    model = formats.load_model(args.model)
    dts: list[float] = []
    report = evaluate(model, _load_demos(args.demos, dts))
    formats.save_bands_csv(args.output, report.mean, report.std, dts[0])
    for i, per_joint in enumerate(report.per_joint_log_likelihoods, start=1):
        print(f"demo {i}: log-likelihood {float(per_joint.sum()):.3f} (nats)")
        print("  per-joint: " + " ".join(f"{v:.3f}" for v in per_joint))
    print("band coverage (+/- 2 std): "
          + " ".join(f"{c:.4f}" for c in report.band_coverage))
    return EXIT_OK


def _cmd_feedback(args) -> int:
    _, forces = formats.load_tactile(args.tactile)
    fmap = ForceFeedbackMap(args.f_max)
    with open_transport(args.transport, "wb") as writer:
        sent = feedback_loop(fmap, forces, writer)
    print(f"commands sent: {len(sent)}", file=_status_file(args.transport))
    return EXIT_OK


def main(argv: list[str] | None = None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    # a run parses one command, so build only that command's options; help, no
    # command or an unknown one need the whole parser
    command = argv[0] if argv and argv[0] in _COMMANDS else None
    args = build_parser(command).parse_args(argv)
    try:
        # a float overflow, an invalid or divide-by-zero result or a memory shortfall
        # means the input is out of range: one error line, never a warning and a file
        with np.errstate(over="raise", invalid="raise", divide="raise"):
            return args.run(args)
    except TransportError as exc:
        print(f"transport error: {exc}", file=sys.stderr)
        return EXIT_TRANSPORT
    except (GlovekitError, FloatingPointError, MemoryError) as exc:
        print(f"error: {str(exc) or 'out of memory'}", file=sys.stderr)
        return EXIT_DATA


if __name__ == "__main__":
    sys.exit(main())
