"""glovekit benchmark: one workload's CLI chain, driven in-process.

    python3 bench/run.py --workload teach --seed 1 --seconds 30 --trace 0

Every CLI step is a call to ``glovekit.cli.main(argv)`` on seeded, generated
files in a temporary directory under ``bench/out/``, with ``file:``
transports. Passes of the chain repeat, each step starting after the
previous one ends (a closed loop with one caller), until ``--seconds`` have
passed. With ``--trace 0`` the end-to-end metrics come from those passes:
each step's median time in the run, in reference seconds (see
``Reference``). With ``--trace 1`` untraced and traced passes alternate; the
traced ones give the per-layer metrics and the tracing overhead, and their
spans are written to ``bench/out/spans-<workload>.npz``. Human-readable lines come
first; the last line of standard output is the JSON result.

See ``bench/README.md`` for the metrics and the workloads.
"""

from __future__ import annotations

import argparse
import hashlib
import io
import json
import os
import platform
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

# One BLAS thread: numpy's default pool spins a second thread on a 2-vCPU host
# next to record's reader thread; glovekit's small matrices gain nothing from it.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = BENCH / "out"
# a step that runs longer than this counts as failed and ends the run
STEP_TIMEOUT_S = 30.0
SETUP_REPEATS = 5
WORKLOAD_NAMES = ("teach", "long-record", "fit-eval")

E2E_UNITS = {
    "setup_s": "s", "chain_s": "s", "emulate_rtf": "s/s", "calibrate_rtf": "s/s",
    "record_rtf": "s/s", "train_s": "s", "eval_s": "s", "reproduce_rtf": "s/s",
    "peak_rss_mb": "MB", "fail_frac": "ratio",
}
# the end-to-end metrics that every workload reports in its JSON result
RESULT_E2E = ("setup_s", "chain_s", "peak_rss_mb")
# seconds of the reference work that define one reference second (see Reference)
REF_NOMINAL_S = 0.008
# A child process times glovekit's imports in a fresh interpreter, after
# numpy's, whose time is the reference for them (see import_seconds).
IMPORT_PROBE = (
    "import sys, time; sys.path.insert(0, sys.argv[1]); start = time.perf_counter(); "
    "import numpy; mid = time.perf_counter(); import glovekit.cli; "
    "print(mid - start, time.perf_counter() - mid)"
)
# numpy's import seconds that define one reference second of import time
NUMPY_IMPORT_NOMINAL_S = 0.06


class StepTimeout(Exception):
    pass


def _timeout(signum, frame):
    raise StepTimeout


class Reference:
    """A fixed piece of work, timed before and after every timed step, that
    converts the step's wall seconds into reference seconds.

    A shared 2-vCPU cloud host was seen to run the same step up to 2x slower
    from one pass to the next, one vCPU at a time for seconds, and the whole
    machine 1.5x slower for minutes. Slow states slow the program more than
    small probes: a step that took 1.85x longer came with a 1.3-1.6x slower
    micro-probe. So the reference is work of the program's own kind, of about
    ``REF_NOMINAL_S``: 300 rows of 13 floats written as text with ``repr``,
    parsed back with ``float`` into a numpy array, fitted by least squares on
    20 columns and written again as CSV with ``%.6f``. It is not glovekit
    code, so a change to the program cannot move it. A step's time in
    reference seconds is its wall time times ``REF_NOMINAL_S`` over the mean
    of the reference times just before and just after it.
    """

    def __init__(self):
        import numpy as np

        self._np = np
        rng = np.random.default_rng(0)
        self._rows = rng.standard_normal((300, 13)).tolist()
        self._basis = rng.standard_normal((300, 20))
        self.samples: list[float] = []

    def __call__(self) -> float:
        """Run the reference work once; returns its wall seconds."""
        np = self._np
        start = perf_counter()
        text = "\n".join(" ".join(map(repr, row)) for row in self._rows)
        values = np.array([[float(x) for x in line.split()] for line in text.split("\n")])
        np.linalg.lstsq(self._basis, values, rcond=None)
        "\n".join(",".join("%.6f" % x for x in row) for row in values.tolist())
        seconds = perf_counter() - start
        self.samples.append(seconds)
        return seconds

    @staticmethod
    def seconds(wall: float, before: float, after: float) -> float:
        """``wall`` in reference seconds, from the reference times around it."""
        return wall * REF_NOMINAL_S * 2.0 / (before + after)

    @property
    def scale(self) -> float:
        """Reference seconds per wall second, from the run's median reference time."""
        return REF_NOMINAL_S / statistics.median(self.samples)


@dataclass
class StepResult:
    label: str
    wall: float | None = None
    ref: float | None = None  # wall in reference seconds
    error: str | None = None
    timed_out: bool = False
    hashes: dict = field(default_factory=dict)


def load_program():
    """Import numpy and glovekit from this checkout; returns the cli module."""
    if not (ROOT / "src" / "glovekit" / "__init__.py").is_file():
        raise SystemExit(f"glovekit sources not found under {ROOT / 'src'}")
    if str(ROOT / "src") not in sys.path:
        sys.path.insert(0, str(ROOT / "src"))
    import glovekit.cli

    if not Path(glovekit.__file__).resolve().is_relative_to(ROOT / "src"):
        raise SystemExit(f"imported glovekit from {glovekit.__file__}, not from {ROOT / 'src'}")
    return glovekit.cli


def import_seconds() -> tuple[list[float], list[float]]:
    """glovekit's import time, once per repeat, each in a fresh interpreter:
    in wall seconds and in reference seconds.

    A new process on the shared host was seen to import either fast or about
    1.6x slower, mode by mode for minutes. numpy's import in the same process
    moves with glovekit's, within 5 %, so it is the reference here: a
    reference second is ``NUMPY_IMPORT_NOMINAL_S`` over numpy's import time.
    numpy is not glovekit code, so it is not counted.
    """
    walls, refs = [], []
    for _ in range(SETUP_REPEATS):
        child = subprocess.run([sys.executable, "-c", IMPORT_PROBE, str(ROOT / "src")],
                               capture_output=True, text=True, timeout=60, check=True, cwd=ROOT)
        numpy_s, glovekit_s = map(float, child.stdout.split())
        walls.append(glovekit_s)
        refs.append(glovekit_s * NUMPY_IMPORT_NOMINAL_S / numpy_s)
    return walls, refs


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def run_step(cli, step, tracer) -> StepResult:
    """Run one CLI step under the timeout; time it, check it, hash its outputs."""
    result = StepResult(step.label)
    out, err = io.StringIO(), io.StringIO()
    if tracer:
        tracer.step_id += 1
    try:
        with redirect_stdout(out), redirect_stderr(err):
            signal.setitimer(signal.ITIMER_REAL, STEP_TIMEOUT_S)
            start = perf_counter()
            code = cli.main(step.argv)
            result.wall = perf_counter() - start
            signal.setitimer(signal.ITIMER_REAL, 0)
    except StepTimeout:
        result.error, result.timed_out = f"timed out after {STEP_TIMEOUT_S} s", True
        return result
    except (Exception, SystemExit) as exc:
        result.error = f"raised {exc!r}; stderr {err.getvalue()!r}"
        return result
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
    if code != 0:
        result.error = f"exit code {code}; stderr {err.getvalue()!r}"
        return result
    result.error = step.check(out.getvalue())
    result.hashes[f"{step.label}.stdout"] = _sha256(out.getvalue().encode())
    for path in step.outputs:
        result.hashes[path.name] = _sha256(path.read_bytes())
    return result


def run_pass(cli, steps, reference: Reference, tracer=None) -> list[StepResult]:
    """One pass of the chain, with the reference work before and after each step."""
    results = []
    before = reference()
    for step in steps:
        result = run_step(cli, step, tracer)
        after = reference()
        if result.wall is not None:
            result.ref = reference.seconds(result.wall, before, after)
        results.append(result)
        if result.timed_out:
            break
        if step.after:
            step.after()
            after = reference()
        before = after
    return results


def chain_seconds(results: list[StepResult], unit: str = "ref") -> float | None:
    """Seconds of one pass's CLI steps, in reference seconds (``"ref"``) or
    wall seconds (``"wall"``); None if a step did not finish."""
    times = [getattr(r, unit) for r in results]
    return None if None in times else sum(times)


def summarize(refs: list[float], walls: list[float], amount: float = 0.0) -> dict:
    """A timing's median in reference seconds, or for an ``amount`` the amount
    per median reference second; its sample count; and the wall-clock median
    plus the highest percentile that has at least ten samples beyond it."""
    seconds = statistics.median(refs)
    per_wall = [amount / w for w in walls] if amount else walls
    summary = {"value": amount / seconds if amount else seconds, "n": len(walls),
               "wall_median": statistics.median(per_wall)}
    for pct in (99.9, 99.0, 90.0):
        if len(walls) * (100.0 - pct) / 100.0 >= 10:
            tail = pct if not amount else 100.0 - pct  # slow end of a rate is its low end
            cuts = statistics.quantiles(per_wall, n=1000, method="inclusive")
            summary[f"wall_p{tail:g}"] = cuts[round(tail * 10) - 1]
            break
    return summary


def measure(cli, steps, seconds: float, reference: Reference, tracer) -> tuple[list, list, list]:
    """Run passes until ``seconds`` have passed; with a tracer, untraced and
    traced passes alternate and at least one of each runs."""
    untraced, traced, spans = [], [], []
    deadline = perf_counter() + seconds
    while True:
        trace_this = tracer is not None and len(untraced) > len(traced)
        if trace_this:
            tracer.install()
            try:
                traced.append(run_pass(cli, steps, reference, tracer))
            finally:
                tracer.uninstall()
            spans.append(tracer.take())
        else:
            untraced.append(run_pass(cli, steps, reference))
        last = (traced if trace_this else untraced)[-1]
        if any(r.timed_out for r in last):
            break
        if perf_counter() >= deadline and (tracer is None or traced):
            break
    return untraced, traced, spans


def check_determinism(passes: list[list[StepResult]]) -> None:
    """Same-seed artifacts must be byte-identical across passes."""
    first = {r.label: r.hashes for r in passes[0]}
    for results in passes[1:]:
        for r in results:
            if r.error is None and r.hashes != first.get(r.label):
                r.error = "artifacts differ from the first pass"


def e2e_report(import_s, generate_s, untraced, steps) -> dict:
    """Every end-to-end timing of the workload's steps, from the untraced passes."""
    (import_wall, import_ref), (generate_wall, generate_ref) = import_s, generate_s
    report = {"setup_s": {
        "value": statistics.median(import_ref) + statistics.median(generate_ref),
        "n": len(generate_ref),
        "wall_median": statistics.median(import_wall) + statistics.median(generate_wall)}}
    complete = [p for p in untraced if chain_seconds(p) is not None]
    if complete:
        # the sum of every step's median: a slow spell in one step does not
        # move the others
        report["chain_s"] = summarize([chain_seconds(p) for p in complete],
                                      [chain_seconds(p, "wall") for p in complete])
        report["chain_s"]["value"] = sum(statistics.median(r.ref for r in col)
                                         for col in zip(*complete))
    refs: dict[str, list[float]] = {}
    walls: dict[str, list[float]] = {}
    amounts: dict[str, float] = {}
    for results in untraced:
        for r, step in zip(results, steps):
            if r.wall is not None and step.metric:
                refs.setdefault(step.metric, []).append(r.ref)
                walls.setdefault(step.metric, []).append(r.wall)
                amounts[step.metric] = step.amount if step.metric.endswith("_rtf") else 0.0
    for metric in E2E_UNITS:
        if metric in walls:
            report[metric] = summarize(refs[metric], walls[metric], amounts[metric])
    return report


def layer_metrics(tracer, spans, scale: float, untraced_chain, traced_chain) -> dict:
    """Per-layer metrics averaged over the traced passes, plus the tracing cost."""
    from tracer import LAYER_METRICS, PassView

    def mean(values):  # None when a timed-out run left no traced pass
        values = list(values)
        return statistics.fmean(values) if values else None

    views = [PassView(s, tracer.labels, scale) for s in spans]
    metrics = {
        name: {"value": mean(fn(v) for v in views), "unit": unit}
        for name, unit, fn in LAYER_METRICS
    }
    overhead = None
    if traced_chain and untraced_chain:
        overhead = mean(traced_chain) - mean(untraced_chain)
    metrics["trace.overhead_s"] = {"value": overhead, "unit": "s"}
    metrics["trace.spans"] = {"value": mean(s.start.size for s in spans), "unit": "count"}
    return metrics


def write_spans(path: Path, tracer, spans, t0: float) -> None:
    """All spans of the run, times in wall seconds from the first pass."""
    import numpy as np

    offsets = np.cumsum([0] + [s.start.size for s in spans[:-1]])
    np.savez_compressed(
        path,
        labels=np.array(tracer.labels),
        pass_index=np.concatenate([np.full(s.start.size, i) for i, s in enumerate(spans)]),
        step=np.concatenate([s.step for s in spans]),
        name=np.concatenate([s.name for s in spans]),
        parent=np.concatenate([np.where(s.parent >= 0, s.parent + o, -1) for s, o in zip(spans, offsets)]),
        start=np.concatenate([s.start for s in spans]) - t0,
        end=np.concatenate([s.end for s in spans]) - t0,
    )


def benchmark(args, cli, reference: Reference) -> dict:
    import numpy as np

    from tracer import Tracer
    from workloads import WORKLOADS

    OUT.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=OUT))
    try:
        workload = WORKLOADS[args.workload](work, args.seed, args.scale)
        import_s = import_seconds()
        generate_s = ([], [])
        for _ in range(SETUP_REPEATS):
            before = reference()
            start = perf_counter()
            inputs = workload.generate()
            wall = perf_counter() - start
            generate_s[0].append(wall)
            generate_s[1].append(reference.seconds(wall, before, reference()))
        steps = workload.steps()
        tracer = Tracer() if args.trace else None
        t0 = perf_counter()
        untraced, traced, spans = measure(cli, steps, args.seconds, reference, tracer)
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6
    finally:
        shutil.rmtree(work, ignore_errors=True)

    passes = untraced + traced
    check_determinism(passes)
    results = [r for p in passes for r in p]
    failures = [r for r in results if r.error]

    report = e2e_report(import_s, generate_s, untraced, steps)
    report["peak_rss_mb"] = {"value": peak_rss_mb, "n": 1}
    report["fail_frac"] = {"value": len(failures) / len(results), "n": len(results)}
    for metric, summary in report.items():
        summary["unit"] = E2E_UNITS[metric]

    print(f"glovekit benchmark: workload {workload.name}, seed {args.seed}, trace {args.trace}")
    print(f"why: {workload.why}")
    provenance = {
        "nproc": len(os.sched_getaffinity(0)), "python": platform.python_version(),
        "numpy": np.__version__, "seed": args.seed, "scale": args.scale, "inputs": inputs,
        "passes": {"untraced": len(untraced), "traced": len(traced)},
        "glovekit_import_s": dict(zip(("wall", "reference"), import_s)),
        "generate_s": dict(zip(("wall", "reference"), generate_s)),
        "reference_work_s": {"median": statistics.median(reference.samples),
                             "n": len(reference.samples)},
    }
    print("provenance " + json.dumps(provenance))
    print(f"timings in reference seconds; {REF_NOMINAL_S} s of reference work is one second")
    for metric, s in report.items():
        wall = "".join(f", {k.replace('_', ' ')} {v!r}" for k, v in s.items() if k.startswith("wall"))
        print(f"  {metric:<14} {s['value']!r} {s['unit']} (n {s['n']}{wall})")
    for r in passes[0]:
        for name, digest in r.hashes.items():
            print(f"  sha256 {digest} {name}")
    for r in failures:
        print(f"  FAILED {r.label}: {r.error}")
    print("report " + json.dumps(report))

    if args.trace:
        untraced_chain = [c for c in map(chain_seconds, untraced) if c is not None]
        traced_chain = [c for c in map(chain_seconds, traced) if c is not None]
        metrics = layer_metrics(tracer, spans, reference.scale, untraced_chain, traced_chain)
        if spans:
            write_spans(OUT / f"spans-{workload.name}.npz", tracer, spans, t0)
        for name, m in metrics.items():
            print(f"  {name:<34} {m['value']!r} {m['unit']}")
    else:
        # a run whose every pass failed has no chain_s; its result is not correct
        metrics = {name: {"value": report.get(name, {}).get("value"), "unit": E2E_UNITS[name]}
                   for name in RESULT_E2E}
    return {"correct": not failures, "attempted": len(results), "failed": len(failures),
            "metrics": metrics}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description="glovekit CLI-chain benchmark")
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True, help="measuring time")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", type=float, default=1.0,
                        help="input-size factor; the self-check runs a small one")
    args = parser.parse_args(argv)
    cli = load_program()
    signal.signal(signal.SIGALRM, _timeout)
    result = benchmark(args, cli, Reference())
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
