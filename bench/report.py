"""Run every workload untraced, then traced, and print one table.

    python3 bench/report.py [--seed N] [--seconds S]

For each workload this prints the end-to-end metrics and fail_ratio of the
untraced run, and from the traced run of the same seed (same inputs) the
tracing overhead, the span coverage of op wall time and the circulation
repeat ratio.  Each traced run also prints its self-time shares next to the
shares predicted for it.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

import workloads

RUN = Path(__file__).resolve().parent / "run.py"


def _run(workload: str, seed: int, seconds: float, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(RUN), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        capture_output=True, text=True, check=True)
    lines = proc.stdout.strip().splitlines()
    if trace:  # the overhead and share table come before the run summary
        for line in lines:
            if line.startswith("workload "):
                break
            print(line)
    sys.stderr.write(proc.stderr)
    result = json.loads(lines[-1])
    return {"attempted": result["attempted"], "failed": result["failed"],
            **{k: v["value"] for k, v in result["metrics"].items()}}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=35)
    args = parser.parse_args()
    rows = []
    for name in workloads.WORKLOADS:
        plain = _run(name, args.seed, args.seconds, 0)
        traced = _run(name, args.seed, args.seconds, 1)
        rows.append((name, plain, traced))
    print(f"\n{'workload':12s} {'ops':>4s} {'op_s.p50':>9s} {'ops/min':>8s} {'setup_s':>8s} "
          f"{'rss_MB':>7s} {'fail':>5s} {'traced_s':>9s} {'overhead':>9s} {'coverage':>9s} "
          f"{'repeat':>6s}")
    for name, plain, traced in rows:
        print(f"{name:12s} {plain['attempted']:4d} {plain['op_s.p50']:9.3f} "
              f"{plain['ops_per_min']:8.2f} {plain['setup_s']:8.3f} {plain['peak_rss_mb']:7.1f} "
              f"{plain['failed'] / plain['attempted']:5.2f} {traced['trace.op_s.p50']:9.3f} "
              f"{traced['trace.op_s.p50'] - plain['op_s.p50']:+9.3f} "
              f"{traced['trace.coverage']:9.4f} "
              f"{traced['quantize.circulation_matrix.repeat_ratio']:6.2f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
