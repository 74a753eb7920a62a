"""Command-line entry point.

Subcommands: glove-emulate, record, calibrate, train, reproduce, eval,
feedback. Exit codes: 0 success, 2 usage error, 3 data/shape error,
4 transport failure.
"""

from __future__ import annotations

import argparse
import os
import sys

import numpy as np

from . import formats
from .calibration import (
    DEFAULT_JOINT_MAX,
    DEFAULT_JOINT_MIN,
    ExtremaBuilder,
    ForceFeedbackMap,
    identity_coupling_map,
)
from .controlsim import DEFAULT_CONTROL_RATE, Gains, PlantParams
from .emulator import DEFAULT_RATE, EmulatorConfig, run_emulator
from .errors import GlovekitError, TransportError
from .model import BasisConfig, DEFAULT_EPS_REG, train_model
from .pipeline import evaluate, feedback_loop, read_raw_frames, record, reproduce
from .transports import open_transport

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_DATA = 3
EXIT_TRANSPORT = 4


def _add_emulate(sub):
    p = sub.add_parser("glove-emulate", help="stream a virtual glove to a transport")
    p.add_argument("--config", required=True, help="emu-v1 config file")
    p.add_argument("--duration", type=float, required=True, help="seconds to stream")
    p.add_argument("--fast", action="store_true", help="write without real-time pacing")
    p.add_argument("--transport", required=True, help="pipe | tcp:PORT | file:PATH")


def _add_record(sub):
    p = sub.add_parser("record", help="record a demonstration from a transport")
    p.add_argument("--transport", required=True)
    p.add_argument("--calibration", required=True, help="calib-v1 profile file")
    p.add_argument("--coupling", help="coupling-v1 map file (default: identity)")
    p.add_argument("--duration", type=float, default=15.0)
    p.add_argument("--stream-rate", type=float, default=DEFAULT_RATE)
    p.add_argument("--control-rate", type=float, default=DEFAULT_CONTROL_RATE)
    p.add_argument("--output", required=True, help="demo-v1 output file")


def _add_calibrate(sub):
    p = sub.add_parser("calibrate", help="capture per-channel extrema into a profile")
    p.add_argument("--transport", required=True)
    p.add_argument("--duration", type=float, default=5.0)
    p.add_argument("--stream-rate", type=float, default=DEFAULT_RATE)
    p.add_argument("--joint-min", type=float, default=DEFAULT_JOINT_MIN)
    p.add_argument("--joint-max", type=float, default=DEFAULT_JOINT_MAX)
    p.add_argument("--output", required=True, help="calib-v1 output file")


def _add_train(sub):
    p = sub.add_parser("train", help="fit the trajectory model from demo files")
    p.add_argument("demos", nargs="+", help="demo-v1 files")
    p.add_argument("--basis-count", type=int, default=BasisConfig().K)
    p.add_argument("--basis-width", type=float, default=None)
    p.add_argument("--ridge", type=float, default=BasisConfig().lam)
    p.add_argument("--eps-reg", type=float, default=DEFAULT_EPS_REG)
    p.add_argument("--output", required=True, help="promp-v1 output file")


def _add_reproduce(sub):
    p = sub.add_parser("reproduce", help="track the model mean on the simulated plant")
    p.add_argument("--model", required=True, help="promp-v1 file")
    p.add_argument("--duration", type=float, default=15.0)
    p.add_argument("--control-rate", type=float, default=DEFAULT_CONTROL_RATE)
    p.add_argument("--kp", type=float, default=Gains().kp)
    p.add_argument("--kd", type=float, default=Gains().kd)
    p.add_argument("--inertia", type=float, default=PlantParams().m)
    p.add_argument("--damping", type=float, default=PlantParams().b)
    p.add_argument("--torque-limit", type=float, default=PlantParams().torque_limit)
    p.add_argument("--output", required=True, help="tracking CSV output")


def _add_eval(sub):
    p = sub.add_parser("eval", help="likelihood and band-coverage diagnostics")
    p.add_argument("demos", nargs="+", help="demo-v1 files")
    p.add_argument("--model", required=True, help="promp-v1 file")
    p.add_argument("--output", required=True, help="plot-ready bands CSV")


def _add_feedback(sub):
    p = sub.add_parser("feedback", help="send a scripted tactile profile as PWM commands")
    p.add_argument("--tactile", required=True, help="tactile-v1 file")
    p.add_argument("--f-max", type=float, required=True, help="tactile full-scale")
    p.add_argument("--transport", required=True)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="glovekit", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)
    _add_emulate(sub)
    _add_record(sub)
    _add_calibrate(sub)
    _add_train(sub)
    _add_reproduce(sub)
    _add_eval(sub)
    _add_feedback(sub)
    return parser


def _cmd_emulate(args) -> int:
    config = formats.load_emulator_config(args.config)
    seed_override = os.environ.get("DEMO_SEED")
    if seed_override is not None:
        try:
            seed = int(seed_override)
        except ValueError:
            print(f"error: DEMO_SEED must be an integer, got {seed_override!r}",
                  file=sys.stderr)
            return EXIT_USAGE
        config = EmulatorConfig(
            rate=config.rate,
            channels=config.channels,
            noise_std=config.noise_std,
            seed=seed,
        )
    with open_transport(args.transport, "wb") as writer:
        written = run_emulator(config, args.duration, writer, fast=args.fast)
        writer.flush()
    print(f"frames written: {written}")
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
    with open_transport(args.transport, "rb") as reader:
        raw, _ = read_raw_frames(reader, args.duration, args.stream_rate)
    builder = ExtremaBuilder()
    builder.update(raw)
    profile = builder.finalize((args.joint_min,) * 5, (args.joint_max,) * 5)
    formats.save_profile(profile, args.output)
    print(f"frames observed: {builder.frames_seen}, profile written: {args.output}")
    return EXIT_OK


def _cmd_train(args) -> int:
    demos = []
    dts = set()
    for path in args.demos:
        demo, _ = formats.load_demo(path)
        demos.append(demo)
        dts.add(demo.dt)
    if len(dts) != 1:
        raise GlovekitError(f"demo files disagree on dt: {sorted(dts)}")
    config = BasisConfig(K=args.basis_count, h=args.basis_width, lam=args.ridge)
    model = train_model(demos, config, args.eps_reg)
    formats.save_model(model, args.output)
    if len(demos) == 1:
        print("warning: single demonstration, weight covariance is the regularizer only",
              file=sys.stderr)
    print(f"K={config.K} D={model.D} N={len(demos)}")
    print("per-joint RMS residual (rad): "
          + " ".join(f"{r:.6f}" for r in np.sqrt(model.sigma_y)))
    return EXIT_OK


def _cmd_reproduce(args) -> int:
    model = formats.load_model(args.model)
    gains = Gains(args.kp, args.kd)
    plant = PlantParams(args.inertia, args.damping, args.torque_limit)
    result = reproduce(model, args.duration, args.control_rate, gains, plant)
    formats.save_tracking_csv(
        args.output, result.reference, result.tracking.executed, result.rate
    )
    print("per-joint RMSE (rad): " + " ".join(f"{r:.6f}" for r in result.tracking.rmse))
    print("per-joint max error (rad): "
          + " ".join(f"{e:.6f}" for e in result.tracking.max_abs_error))
    return EXIT_OK


def _cmd_eval(args) -> int:
    model = formats.load_model(args.model)
    demos = [formats.load_demo(path)[0] for path in args.demos]
    report = evaluate(model, demos)
    times = np.arange(demos[0].T) * demos[0].dt
    formats.save_bands_csv(
        args.output, times, report.mean, report.std, [d.values for d in demos]
    )
    for i, (ll, per_joint) in enumerate(
        zip(report.log_likelihoods, report.per_joint_log_likelihoods)
    ):
        print(f"demo {i + 1}: log-likelihood {ll:.3f} (nats)")
        print("  per-joint: " + " ".join(f"{v:.3f}" for v in per_joint))
    print("band coverage (+/- 2 std): "
          + " ".join(f"{c:.4f}" for c in report.band_coverage))
    return EXIT_OK


def _cmd_feedback(args) -> int:
    _, forces = formats.load_tactile(args.tactile)
    fmap = ForceFeedbackMap(args.f_max)
    with open_transport(args.transport, "wb") as writer:
        sent = feedback_loop(fmap, forces, writer)
        writer.flush()
    print(f"commands sent: {len(sent)}")
    return EXIT_OK


_COMMANDS = {
    "glove-emulate": _cmd_emulate,
    "record": _cmd_record,
    "calibrate": _cmd_calibrate,
    "train": _cmd_train,
    "reproduce": _cmd_reproduce,
    "eval": _cmd_eval,
    "feedback": _cmd_feedback,
}


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except TransportError as exc:
        print(f"transport error: {exc}", file=sys.stderr)
        return EXIT_TRANSPORT
    except GlovekitError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DATA


if __name__ == "__main__":
    sys.exit(main())
