"""Quick self-check of the benchmark: runs every workload at a tiny size, with
and without tracing, and asserts that every named metric is emitted.

    python3 bench/selfcheck.py

Takes a few seconds. Exits non-zero on the first missing metric or failed
output check.
"""

from __future__ import annotations

import io
import json
import sys
from contextlib import redirect_stdout
from pathlib import Path

import run

TINY_SCALE = "0.05"
# every end-to-end metric a workload reports, by the CLI steps it runs
REPORTED = {
    "teach": {"setup_s", "chain_s", "emulate_rtf", "record_rtf", "train_s", "eval_s",
              "reproduce_rtf", "peak_rss_mb", "fail_frac"},
    "long-record": {"setup_s", "chain_s", "emulate_rtf", "calibrate_rtf", "record_rtf",
                    "peak_rss_mb", "fail_frac"},
    "fit-eval": {"setup_s", "chain_s", "train_s", "eval_s", "reproduce_rtf", "peak_rss_mb",
                 "fail_frac"},
}


def main() -> int:
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    expected = {
        0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
        1: {m["name"]: m["unit"] for m in spec["per_layer"]},
    }
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOAD_NAMES)
    assert spec["command"] == ["python3", str(Path(run.__file__).relative_to(run.ROOT))]
    for workload in run.WORKLOAD_NAMES:
        for trace in (0, 1):
            out = io.StringIO()
            with redirect_stdout(out):
                code = run.main(["--workload", workload, "--seed", "7", "--seconds", "0.1",
                                 "--trace", str(trace), "--scale", TINY_SCALE])
            lines = out.getvalue().splitlines()
            result = json.loads(lines[-1])
            report = json.loads(next(line for line in lines if line.startswith("report "))[7:])
            assert code == 0, (workload, trace, code)
            assert set(result) == {"correct", "attempted", "failed", "metrics"}, result.keys()
            assert result["correct"] and result["failed"] == 0, out.getvalue()
            units = {name: m["unit"] for name, m in result["metrics"].items()}
            assert units == expected[trace], (workload, trace, set(units) ^ set(expected[trace]))
            assert set(report) == REPORTED[workload], (workload, set(report) ^ REPORTED[workload])
            assert all(s["unit"] == run.E2E_UNITS[name] for name, s in report.items())
            print(f"ok {workload} trace {trace}: {len(units)} metrics, "
                  f"{result['attempted']} steps")
    return 0


if __name__ == "__main__":
    sys.exit(main())
