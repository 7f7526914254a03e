"""magweyl benchmark: one seeded workload of CLI commands, timed end to end.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; magweyl is imported from ``src/``.
The generator is a closed loop with one client in one process: each op is
one CLI command, run in-process through ``magweyl.cli.run(argv)`` with
``--threads 1``, and the next op starts when the previous one has finished
and passed its correctness gate.  Ops start until ``--seconds`` have passed.

With ``--trace 0`` the last line of standard output is a JSON object with
the end-to-end metrics.  With ``--trace 1`` magweyl is wrapped by the
external tracer (``tracer.py``) and the metrics are per-layer figures, each
the median over ops.  Artifacts, results and spans go to ``.bench_out/``.
"""

from __future__ import annotations

import argparse
import ctypes
import gc
import glob
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
sys.path.insert(0, str(BENCH))

import workloads  # noqa: E402

# fresh interpreters timed per run; setup_s is their median
SETUP_PROBES = 3
_PROBE = ("import sys; sys.path[:0] = sys.argv[1:3]; import magweyl.cli, workloads; "
          "workloads.generate(sys.argv[3], int(sys.argv[4]))")

# self-time shares of op wall time expected before the benchmark was run
PREDICTED_SHARES = {
    "landau2d": {"magnetics.circulation": "~50%", "lapack.eigh": "~37%",
                 "quantize.quantize": "4-10%", "lapack.svdvals": "0%"},
    "resolvent2d": {"magnetics.circulation": "~0%", "quantize.quantize": "4-10%",
                    "quantize.dequantize+values": "~30%", "lapack.svdvals": "~23%",
                    "lapack.eigh": "0%"},
    "validate2d": {"magnetics.circulation": "~60%", "expressions.evaluate": "~35%",
                   "quantize.quantize": "4-10%", "lapack.eigh": "0%"},
}


def _source_lines() -> dict:
    lines = {}
    for path in sorted((SRC / "magweyl").glob("*.py")):
        with open(path) as fh:
            lines[f"lines.{path.stem}"] = sum(1 for _ in fh)
    lines["lines.total"] = sum(lines.values())
    return lines


def _openblas_threads() -> dict:
    """Thread counts of the OpenBLAS builds that numpy and scipy load."""
    import numpy
    import scipy

    counts = {}
    for pkg in (numpy, scipy):
        libs = Path(pkg.__file__).parent.parent / f"{pkg.__name__}.libs"
        for path in glob.glob(str(libs / "libscipy_openblas*.so")):
            lib = ctypes.CDLL(path)
            for symbol in ("scipy_openblas_get_num_threads64_",
                           "scipy_openblas_get_num_threads"):
                getter = getattr(lib, symbol, None)
                if getter is not None:
                    getter.restype = ctypes.c_int
                    counts[pkg.__name__] = getter()
                    break
    return counts


def _environment() -> dict:
    import numpy
    import scipy

    return {
        "nproc": len(os.sched_getaffinity(0)),
        "openblas_threads": _openblas_threads(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "python": sys.version.split()[0],
        "cli_threads": 1,
        "generator": "closed loop, 1 client, 1 process, in-process magweyl.cli.run",
    }


def _setup_probe(workload: str, seed: int) -> float:
    t0 = time.perf_counter()
    subprocess.run([sys.executable, "-c", _PROBE, str(SRC), str(BENCH), workload, str(seed)],
                   check=True, capture_output=True, timeout=120)
    return time.perf_counter() - t0


def _run_ops(cli, workload: str, cases: list, seconds: float, tracer=None) -> tuple:
    """Closed loop over ``cases`` until ``seconds`` pass; returns (ops, elapsed)."""
    out_dir = OUT / workload
    shutil.rmtree(out_dir, ignore_errors=True)
    out_dir.mkdir(parents=True)
    config_path = out_dir / "config.json"
    ops = []
    start = time.perf_counter()
    for index, (inputs, config, cli_seed) in enumerate(cases):
        if time.perf_counter() - start >= seconds:
            break
        for stale in out_dir.iterdir():
            stale.unlink()
        config_path.write_text(json.dumps(config))
        argv = ["--config", str(config_path), "--out", str(out_dir), "--threads", "1"]
        if cli_seed is not None:
            argv += ["--seed", str(cli_seed)]
        first_span = len(tracer.spans) if tracer else 0
        failure = None
        w0, c0 = time.perf_counter(), time.process_time()
        try:
            code = cli.run(argv)
        except Exception:
            code, failure = None, traceback.format_exc()
        wall, cpu = time.perf_counter() - w0, time.process_time() - c0
        if failure is None:
            # a command that exits 2 still writes a summary with its diagnostic
            try:
                diagnostic = workloads.gate(workload, inputs, str(out_dir))
            except Exception:
                diagnostic = traceback.format_exc()
            if code != 0:
                failure = f"exit code {code}" + (f"; {diagnostic}" if diagnostic else "")
            else:
                failure = diagnostic
        op = {"index": index, "inputs": inputs, "wall_s": wall, "cpu_s": cpu,
              "failure": failure}
        if tracer:
            op["spans"] = (first_span, len(tracer.spans))
        ops.append(op)
        if failure is not None:
            print(f"FAIL {workload} op {index} inputs={json.dumps(inputs)}: {failure}",
                  file=sys.stderr)
        gc.collect()
    return ops, time.perf_counter() - start


def _layer_metrics(tracer_mod, tracer, ops) -> dict:
    per_op = []
    for op in ops:
        lo, hi = op["spans"]
        figures = tracer_mod.layer_figures(tracer.spans[lo:hi], op["wall_s"])
        figures["cli.run.cpu_ratio"] = op["cpu_s"] / op["wall_s"]
        per_op.append(figures)
    metrics = {name: statistics.median(f[name] for f in per_op) for name in per_op[0]}
    metrics["trace.op_s.p50"] = statistics.median(op["wall_s"] for op in ops)
    return metrics


def _unit(name: str) -> str:
    if name.endswith("_s") or name == "trace.op_s.p50":
        return "s"
    if name.startswith("lines."):
        return "lines"
    if name.endswith(("_ratio", "coverage")):
        return "ratio"
    return "count"


def _print_shares(workload: str, metrics: dict):
    op_s = metrics["trace.op_s.p50"]
    shares = {k[:-len(".self_s")]: v / op_s for k, v in metrics.items() if k.endswith(".self_s")}
    shares["quantize.dequantize+values"] = (shares["quantize.dequantize"]
                                            + shares["quantize.SampledSymbol.values"])
    predicted = PREDICTED_SHARES[workload]
    print(f"self-time share of op wall time ({workload}, median op {op_s:.3f} s):")
    for name, share in sorted(shares.items(), key=lambda kv: -kv[1]):
        if share < 5e-4 and name not in predicted:
            continue
        print(f"  {name:34s} {100 * share:6.1f}%   predicted {predicted.get(name, '-')}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "magweyl" / "__init__.py").is_file():
        print(f"error: no magweyl sources at {SRC}; run from a source checkout",
              file=sys.stderr)
        return 2

    setup = [_setup_probe(args.workload, args.seed) for _ in range(SETUP_PROBES)]
    sys.path.insert(0, str(SRC))
    import magweyl.cli as cli

    cases = workloads.generate(args.workload, args.seed)
    env = _environment()
    tracer = None
    if args.trace:
        import tracer as tracer_mod

        tracer = tracer_mod.Tracer()
        tracer.install()
    try:
        ops, elapsed = _run_ops(cli, args.workload, cases, args.seconds, tracer)
    finally:
        if tracer:
            tracer.uninstall()

    attempted = len(ops)
    failed = sum(op["failure"] is not None for op in ops)
    result = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
              "environment": env, "setup_probes_s": setup, "elapsed_s": elapsed}
    if args.trace:
        values = _layer_metrics(tracer_mod, tracer, ops)
        values.update(_source_lines())
        untraced = OUT / f"{args.workload}-seed{args.seed}-trace0.json"
        if untraced.is_file():
            base = json.loads(untraced.read_text())["metrics"]["op_s.p50"]["value"]
            result["tracing_overhead_s"] = values["trace.op_s.p50"] - base
            print(f"tracing overhead: {values['trace.op_s.p50'] - base:+.3f} s per op "
                  f"(traced {values['trace.op_s.p50']:.3f} s, untraced {base:.3f} s)")
        _print_shares(args.workload, values)
        metrics = {k: {"value": v, "unit": _unit(k)} for k, v in values.items()}
        result["spans"] = tracer_mod.dump(tracer.spans, tracer.spans[0].start)
    else:
        metrics = {
            "op_s.p50": {"value": statistics.median(op["wall_s"] for op in ops), "unit": "s"},
            "ops_per_min": {"value": 60.0 * (attempted - failed) / elapsed, "unit": "1/min"},
            "setup_s": {"value": statistics.median(setup), "unit": "s"},
            "peak_rss_mb": {"value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
                            "unit": "MB"},
        }
    result["metrics"] = metrics
    result["ops"] = [{k: v for k, v in op.items() if k != "spans"} for op in ops]
    OUT.mkdir(exist_ok=True)
    (OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(result, indent=1))

    print(f"workload {args.workload} seed {args.seed}: {attempted} ops in {elapsed:.2f} s, "
          f"{failed} failed, fail_ratio {failed / attempted:.4g}")
    print("environment: " + json.dumps(env, sort_keys=True))
    if not args.trace:
        print("source lines: " + json.dumps(_source_lines()))
    for name, metric in metrics.items():
        print(f"  {name:44s} {metric['value']:.6g} {metric['unit']}")
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
