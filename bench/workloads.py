"""The three benchmark workloads: seeded op inputs, CLI configs and gates.

Each op is one ``magweyl`` CLI command.  Inputs are drawn from the
benchmark seed and the op index, so every op of a run gets inputs of its
own (no op can reuse an earlier op's result, as for a user who runs one
command per process) and the same seed always gives the same inputs.

A gate reads the artifacts the command wrote and returns ``None`` when the
op is correct, or a one-line diagnostic when it is not.
"""

from __future__ import annotations

import json
import os

import numpy as np

# Upper bound on ops in one run; a run stops earlier when its time is up.
MAX_OPS = 256

# every symbol is real, of order 2 in the rho = 1 class
_SYMBOL_CLASS = {"m": 2, "rho": 1, "real": True}


def _landau2d(rng):
    b = float(rng.uniform(0.8, 1.2))
    config = {
        "grid": {"n": 2, "L": 16.0, "N": 36},
        "gauge": {"kind": "explicit",
                  "A": [f"-{b!r}*x2/2", f"{b!r}*x1/2"]},
        "symbol": {"expression": "xi1^2 + xi2^2", **_SYMBOL_CLASS},
        "task": {"command": "spectrum"},
    }
    return {"b": b}, config, None


def _resolvent2d(rng):
    a = float(rng.uniform(-1.0, 1.0))
    c = float(rng.uniform(-1.0, 1.0))
    z = float(rng.uniform(-80.0, -40.0))
    config = {
        "grid": {"n": 2, "L": 12.0, "N": 32},
        "symbol": {"expression": f"xi1^2 + xi2^2 + {a!r}*arctan(x1) + {c!r}*exp(-x2^2)",
                   **_SYMBOL_CLASS},
        "task": {"command": "invert", "z": z},
    }
    return {"a": a, "c": c, "z": z}, config, None


def _validate2d(rng):
    b0 = float(rng.uniform(0.8, 1.2))
    b1 = float(rng.uniform(0.2, 0.8))
    seed = int(rng.integers(0, 2**31 - 1))
    config = {
        "grid": {"n": 2, "L": 10.0, "N": 16},
        "field": {"components": {"12": f"{b0!r} + {b1!r}/(1+x1^2)"}},
        "symbol": {"expression": "xi1^2 + xi2^2", **_SYMBOL_CLASS},
        "task": {"command": "validate"},
    }
    return {"b0": b0, "b1": b1, "seed": seed}, config, seed


def _read_summary(out_dir):
    with open(os.path.join(out_dir, "summary.json")) as fh:
        return json.load(fh)


def _gate_landau2d(inputs, out_dir):
    summary = _read_summary(out_dir)
    if summary["hermiticity_defect"] > 1e-12:
        return f"hermiticity defect {summary['hermiticity_defect']:.3e} > 1e-12"
    vals = np.loadtxt(os.path.join(out_dir, "eigenvalues.csv"))
    b = inputs["b"]
    # the lowest Landau level b is highly degenerate; a state below b exists
    # at strong fields, so the gate counts eigenvalues at b, not the minimum
    near = int(np.count_nonzero(np.abs(vals - b) <= 1e-3 * b))
    if near < 10:
        return f"{near} eigenvalues within 0.1% of b={b!r}, need >= 10"
    return None


def _gate_resolvent2d(inputs, out_dir):
    summary = _read_summary(out_dir)
    if summary.get("converged") is not True:
        return f"series did not converge: {summary.get('diagnostic')}"
    if not summary["residual"] <= 1e-6:
        return f"residual {summary['residual']:.3e} > 1e-6"
    return None


def _gate_validate2d(inputs, out_dir):
    summary = _read_summary(out_dir)
    if summary["seed"] != inputs["seed"]:
        return f"summary seed {summary['seed']} != {inputs['seed']}"
    if summary["passed"] is not True:
        failed = [k for k, v in summary["checks"].items() if not v["passed"]]
        return f"validation checks failed: {', '.join(failed)}"
    return None


# name -> (index, input generator, gate); the index seeds each workload apart
WORKLOADS = {
    "landau2d": (0, _landau2d, _gate_landau2d),
    "resolvent2d": (1, _resolvent2d, _gate_resolvent2d),
    "validate2d": (2, _validate2d, _gate_validate2d),
}


def generate(workload: str, seed: int):
    """Inputs of ``MAX_OPS`` ops: a list of (inputs, config, cli seed)."""
    index, make, _ = WORKLOADS[workload]
    return [make(np.random.default_rng([seed, index, k])) for k in range(MAX_OPS)]


def gate(workload: str, inputs: dict, out_dir: str):
    return WORKLOADS[workload][2](inputs, out_dir)
