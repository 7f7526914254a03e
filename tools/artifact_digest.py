"""Digest of the magweyl CLI's artifacts over a fixed set of small configs.

Runs ``magweyl.cli.run`` in-process on each config below, each into its own
temporary directory, and prints one ``<sha256>  <config>/<artifact>`` line
per artifact, sorted by path.  The exit code is printed as ``exit=<code>``
on a ``<config>/exit`` line, and any error text is digested as
``<config>/stderr``.  Python warnings are suppressed, since they name source
lines.  Two source trees produce the same artifacts exactly when the
outputs are equal:

    python tools/artifact_digest.py --src /path/to/other/src > other.txt
    python tools/artifact_digest.py > this.txt
    diff other.txt this.txt

The configs cover all seven commands in 1D and 2D, with zero, constant and
non-polynomial fields (varying along x1 only, along x2 only and along both),
an x-independent 2D quantization (``quantize-2d-x-independent``),
explicit non-polynomial, symmetric and Landau gauges, an explicit linear
gauge with a constant part and a symmetric part in its Jacobian
(``spectrum-2d-offset-linear``: a gauge transform on top of the symmetric
gauge's cross term), a spectrum that splits
by the 90-degree magnetic rotation, one that keeps it but not the magnetic
reflection (``spectrum-2d-chiral``: its blocks stay complex), one with only
the 180-degree rotation
(solved whole) and one that just misses the 90-degree one (a well centred
at 0), a zero-field 1D spectrum of ``xi1^4 + 1`` (``spectrum-1d-quartic``:
even in xi through a power other than ``^2``, so its table is real), an
expand whose two symbols use every function of the expression language
(``expand-1d-functions``), a 2D expand whose fit window is widened
and one whose lattice has no window, an essential spectrum over an identity
orbit (the default merge tolerance of an x-dependent symbol), over two
direction orbits and over a translate orbit (``ess-spectrum-1d-translate``),
so every quasi-orbit projection is covered, polynomial and
non-polynomial gauge-check shifts (``gauge-check-1d-nonpoly-psi``: a 1D
shift by the gradient of sin(x1), whose phase is u(y) - u(x)), converging
and divergent inversions (one at L=7.3, N=20, where rounding puts the
mirror nodes x = -0.4L and x = +0.4L on either side of the interior
bound), zero-field inversions in real
arithmetic (a symbol even in each momentum, whose float64 kernel tables
are DCT-I transforms of the even samples; ``invert-2d-zero-32`` is the
benchmark's ``resolvent2d`` path at P = 1024) and in complex arithmetic
(``invert-2d-zero-odd``: a term odd in xi keeps the table complex), a 1D
explicit gauge on P = 100
nodes (a partial last slab of the phase),
malformed configs, error exits, and a validate at P = 576, where the
circulation fill splits its row blocks into column chunks.  An
exception that escapes ``run`` is recorded as ``exit=raised <type>``, so a
tree that raises can still be compared with one that diagnoses.  Uses the
standard library and magweyl only; the whole set runs in a few seconds.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import sys
import tempfile
import warnings
from pathlib import Path

_XI2 = {"expression": "xi1^2 + xi2^2", "m": 2, "rho": 1, "real": True}
_XI2_X = {"expression": "xi1^2 + 0.5*xi2^2 + arctan(x1)*xi2", "m": 2, "rho": 1, "real": True}
_ARCTAN_1D = {"expression": "xi1^2 + arctan(x1)", "m": 2, "rho": 1, "real": True}
_WELL_1D = {"expression": "xi1^2 - 2*exp(-x1^2)", "m": 2, "rho": 1, "real": True}
_CONST = {"components": {"12": "0.6"}}
_NONPOLY = {"components": {"12": "1 + 1/(1+x1^2)"}}
_X2_ONLY = {"components": {"12": "1 + 0.5/(1+x2^2)"}}
_BOTH_AXES = {"components": {"12": "1 + 0.5*exp(-(x1^2+x2^2)/4)"}}
_LANDAU = {"kind": "explicit", "A": ["0", "0.9*x1"]}
_SYMMETRIC = {"kind": "explicit", "A": ["-0.5*x2", "0.5*x1"]}
_OFFSET_LINEAR = {"kind": "explicit", "A": ["0.3 + 0.2*x1 - 0.5*x2", "-0.1 + 0.5*x1 + 0.1*x2"]}
_EXPLICIT = {"kind": "explicit", "A": ["-arctan(x2)", "x1*exp(-x1^2/8)"]}
_ORBITS_1D = {"kind": "AsymptoticLimitsPerDirection", "orbits": [
    {"label": "plus", "kind": "direction", "direction": [1.0]},
    {"label": "minus", "kind": "direction", "direction": [-1.0]}]}


def _grid(n, L, N):
    return {"n": n, "L": L, "N": N}


def _task(command, **keys):
    return {"command": command, **keys}


# name -> config
CONFIGS = {
    "quantize-1d-zero": {"grid": _grid(1, 20.0, 64), "symbol": _ARCTAN_1D,
                         "task": _task("quantize")},
    "quantize-2d-const": {"grid": _grid(2, 8.0, 12), "field": _CONST, "symbol": _XI2_X,
                          "task": _task("quantize")},
    # an x-independent symbol: its table is one strided copy of the 2D
    # difference table
    "quantize-2d-x-independent": {"grid": _grid(2, 8.0, 12), "field": _CONST,
                                  "symbol": _XI2, "task": _task("quantize")},
    "quantize-2d-nonpoly": {"grid": _grid(2, 8.0, 12), "field": _NONPOLY, "symbol": _XI2_X,
                            "task": _task("quantize")},
    "quantize-2d-explicit": {"grid": _grid(2, 8.0, 12), "gauge": _EXPLICIT, "symbol": _XI2_X,
                             "task": _task("quantize")},
    "spectrum-1d-zero": {"grid": _grid(1, 20.0, 64), "symbol": _WELL_1D,
                         "task": _task("spectrum")},
    "spectrum-2d-const": {"grid": _grid(2, 12.0, 16), "field": {"components": {"12": "1"}},
                          "symbol": _XI2, "task": _task("spectrum")},
    "spectrum-2d-nonpoly": {"grid": _grid(2, 10.0, 12), "field": _NONPOLY, "symbol": _XI2,
                            "task": _task("spectrum")},
    "spectrum-2d-both-axes": {"grid": _grid(2, 10.0, 12), "field": _BOTH_AXES, "symbol": _XI2,
                              "task": _task("spectrum")},
    "spectrum-2d-landau": {"grid": _grid(2, 12.0, 16), "gauge": _LANDAU, "symbol": _XI2,
                           "task": _task("spectrum")},
    "spectrum-2d-rotation-90": {"grid": _grid(2, 12.0, 16), "gauge": _SYMMETRIC,
                                "symbol": _XI2, "task": _task("spectrum")},
    "spectrum-2d-offset-linear": {"grid": _grid(2, 12.0, 16), "gauge": _OFFSET_LINEAR,
                                  "symbol": _XI2, "task": _task("spectrum")},
    # a tanh of w = y1 y2 (y1^2 - y2^2), y = x + dx/2: kept by the 90-degree
    # rotation about (-dx/2, -dx/2), odd under the swap (x1, x2) -> (x2, x1)
    "spectrum-2d-chiral": {"grid": _grid(2, 12.0, 16), "gauge": _SYMMETRIC,
                           "symbol": {**_XI2, "expression":
                                      "xi1^2 + xi2^2 + 0.5*tanh((x1 + 0.375)^3*(x2 + 0.375)"
                                      " - (x1 + 0.375)*(x2 + 0.375)^3)"},
                           "task": _task("spectrum")},
    "spectrum-2d-rotation-180-only": {"grid": _grid(2, 12.0, 16),
                                      "symbol": {**_XI2, "expression": "xi1^2 + 0.5*xi2^2"},
                                      "task": _task("spectrum")},
    "spectrum-2d-near-miss": {"grid": _grid(2, 12.0, 16), "gauge": _SYMMETRIC,
                              "symbol": {**_XI2, "expression":
                                         "xi1^2 + xi2^2 - 2*exp(-x1^2-x2^2)"},
                              "task": _task("spectrum")},
    # zero field, even in xi1 through a power other than ^2: a real table
    "spectrum-1d-quartic": {"grid": _grid(1, 20.0, 64),
                            "symbol": {"expression": "xi1^4 + 1", "m": 4, "rho": 1, "real": True},
                            "task": _task("spectrum")},
    "spectrum-1d-explicit-partial": {"grid": _grid(1, 20.0, 100), "symbol": _WELL_1D,
                                     "gauge": {"kind": "explicit", "A": ["arctan(x1)"]},
                                     "task": _task("spectrum")},
    "ess-spectrum-1d-arctan": {"grid": _grid(1, 20.0, 64), "symbol": _ARCTAN_1D,
                               "algebra": _ORBITS_1D, "task": _task("ess-spectrum")},
    # an x-dependent orbit: its default merge_tol reads the xi-gradient of f
    "ess-spectrum-1d-identity": {"grid": _grid(1, 20.0, 64), "symbol": _ARCTAN_1D,
                                 "algebra": {"orbits": [{"label": "identity",
                                                         "kind": "identity"}]},
                                 "task": _task("ess-spectrum")},
    # a translated expression symbol: f(x + 2, xi), an expression symbol again
    "ess-spectrum-1d-translate": {"grid": _grid(1, 20.0, 64), "symbol": _ARCTAN_1D,
                                  "algebra": {"orbits": [{"label": "shifted",
                                                          "kind": "translate",
                                                          "shift": [2.0]}]},
                                  "task": _task("ess-spectrum")},
    "ess-spectrum-1d-well": {"grid": _grid(1, 20.0, 64), "symbol": _WELL_1D,
                             "algebra": _ORBITS_1D, "task": _task("ess-spectrum")},
    "gauge-check-2d-zero": {"grid": _grid(2, 8.0, 12), "symbol": _XI2_X,
                            "gauge": {"kind": "pair", "psi": "0.5*x1*x2"},
                            "task": _task("gauge-check")},
    "gauge-check-2d-poly-psi": {"grid": _grid(2, 8.0, 12), "field": _CONST, "symbol": _XI2_X,
                                "gauge": {"kind": "pair", "psi": "0.3*x1*x2"},
                                "task": _task("gauge-check")},
    "gauge-check-2d-nonpoly-psi": {"grid": _grid(2, 8.0, 12), "field": _NONPOLY,
                                   "symbol": _XI2_X,
                                   "gauge": {"kind": "pair", "psi": "sin(x1)*x2"},
                                   "task": _task("gauge-check")},
    # a 1D pair: the zero base gauge shifted by the gradient cos(x1) of psi
    "gauge-check-1d-nonpoly-psi": {"grid": _grid(1, 20.0, 64), "symbol": _ARCTAN_1D,
                                   "gauge": {"kind": "pair", "psi": "sin(x1)"},
                                   "task": _task("gauge-check")},
    "expand-1d": {"grid": _grid(1, 20.0, 64),
                  "symbol": {"expression": "xi1 + arctan(x1)", "m": 1, "rho": 1},
                  "symbol2": {"expression": "xi1 + exp(-x1^2)", "m": 1, "rho": 1},
                  "task": _task("expand", depth=2)},
    # every function of the expression language: sin, cos, exp, log, sqrt,
    # arctan, tanh, abs and jap
    "expand-1d-functions": {"grid": _grid(1, 20.0, 64),
                            "symbol": {"expression": "xi1^2 + tanh(x1) + 0.1*log(2 + x1^2)"
                                                     " - 0.1*sqrt(1 + x1^2)", "m": 2},
                            "symbol2": {"expression": "jap(xi1)*exp(-x1^2) + 0.05*cos(x1)*sin(x1)"
                                                      " + 0.01*abs(x1 - 0.3) + arctan(x1)/(2 + x1^2)",
                                        "m": 1},
                            "task": _task("expand", depth=2)},
    "expand-2d-widened-window": {"grid": _grid(2, 8.0, 16), "field": _CONST, "symbol": _XI2,
                                 "symbol2": _XI2, "task": _task("expand", depth=2)},
    "expand-2d-no-window": {"grid": _grid(2, 8.0, 4), "field": _CONST, "symbol": _XI2,
                            "symbol2": _XI2, "task": _task("expand", depth=2)},
    "invert-1d": {"grid": _grid(1, 20.0, 64), "symbol": _ARCTAN_1D,
                  "task": _task("invert", z=-10)},
    "invert-1d-mirror-edge": {"grid": _grid(1, 7.3, 20), "symbol": _ARCTAN_1D,
                              "task": _task("invert", z=-10)},
    "invert-1d-divergent": {"grid": _grid(1, 20.0, 64), "symbol": _ARCTAN_1D,
                            "task": _task("invert", z=100.0)},
    "invert-2d-zero": {"grid": _grid(2, 8.0, 16),
                       "symbol": {**_XI2, "expression":
                                  "xi1^2 + xi2^2 + 0.5*arctan(x1) + 0.3*exp(-x2^2)"},
                       "task": _task("invert", z=-40)},
    # the benchmark's resolvent2d path: the real zero-field inversion at P = 1024
    "invert-2d-zero-32": {"grid": _grid(2, 12.0, 32),
                          "symbol": {**_XI2, "expression":
                                     "xi1^2 + xi2^2 + 0.5*arctan(x1) + 0.3*exp(-x2^2)"},
                          "task": _task("invert", z=-60)},
    # zero field, but xi-odd: the kernel table is not real, so the inversion stays complex
    "invert-2d-zero-odd": {"grid": _grid(2, 8.0, 16),
                           "symbol": {**_XI2, "expression":
                                      "xi1^2 + xi2^2 + 0.5*xi1 + 0.3*exp(-x2^2)"},
                           "task": _task("invert", z=-40)},
    "invert-2d-const": {"grid": _grid(2, 8.0, 12), "field": _CONST,
                        "symbol": {**_XI2, "expression": "xi1^2 + xi2^2 + arctan(x1)"},
                        "task": _task("invert", z=-20)},
    "validate-1d-zero": {"grid": _grid(1, 20.0, 64), "symbol": _ARCTAN_1D,
                         "task": _task("validate")},
    "validate-2d-nonpoly": {"grid": _grid(2, 8.0, 12), "field": _NONPOLY, "symbol": _XI2,
                            "task": _task("validate", seed=3)},
    # P = 576: a row block's 24 column groups of 24 x 24 x 8 pair x node
    # points exceed the fill's budget, so the fill splits blocks into column
    # chunks
    "validate-2d-nonpoly-chunked": {"grid": _grid(2, 12.0, 24), "field": _NONPOLY,
                                    "symbol": _XI2, "task": _task("validate", seed=3)},
    "validate-2d-x2-field": {"grid": _grid(2, 8.0, 12), "field": _X2_ONLY, "symbol": _XI2,
                             "task": _task("validate", seed=3)},
    "validate-2d-explicit": {"grid": _grid(2, 8.0, 12), "gauge": _EXPLICIT, "symbol": _XI2_X,
                             "task": _task("validate")},
    "bad-gauge-kind": {"grid": _grid(1, 20.0, 64), "symbol": _ARCTAN_1D,
                       "gauge": {"kind": "nonsense"}, "task": _task("quantize")},
    "bad-z-list": {"grid": _grid(1, 20.0, 32), "symbol": _ARCTAN_1D,
                   "task": _task("invert", z=[1])},
    "bad-m-list": {"grid": _grid(1, 20.0, 32), "symbol": {**_ARCTAN_1D, "m": [2]},
                   "task": _task("spectrum")},
    "bad-field-components-list": {"grid": _grid(1, 20.0, 32), "symbol": _ARCTAN_1D,
                                  "field": {"components": ["12"]},
                                  "task": _task("spectrum")},
    "bad-task-list": {"grid": _grid(1, 20.0, 32), "symbol": _ARCTAN_1D,
                      "task": ["spectrum"]},
    "bad-merge-tol": {"grid": _grid(1, 20.0, 32), "symbol": _ARCTAN_1D,
                      "algebra": _ORBITS_1D, "task": _task("ess-spectrum", merge_tol="x")},
    "bad-gauge-A": {"grid": _grid(1, 20.0, 32), "symbol": _ARCTAN_1D,
                    "gauge": {"kind": "explicit", "A": 5}, "task": _task("quantize")},
}


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def digests(cli) -> list[tuple[str, str]]:
    """(path, digest) for every artifact of every config."""
    out = []
    for name, config in CONFIGS.items():
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "config.json"
            path.write_text(json.dumps(config))
            run_dir = Path(tmp) / "out"
            err = io.StringIO()
            with warnings.catch_warnings(), contextlib.redirect_stderr(err):
                warnings.simplefilter("ignore")
                try:
                    code = cli.run(["--config", str(path), "--out", str(run_dir)])
                except Exception as exc:
                    code = f"raised {type(exc).__name__}"
            out.append((f"{name}/exit", f"exit={code}"))
            if err.getvalue():
                out.append((f"{name}/stderr", _sha256(err.getvalue().encode())))
            for artifact in sorted(run_dir.iterdir()) if run_dir.is_dir() else ():
                out.append((f"{name}/{artifact.name}", _sha256(artifact.read_bytes())))
    return sorted(out)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--src", default=str(Path(__file__).resolve().parents[1] / "src"),
                        help="source tree to import magweyl from (default: this checkout's)")
    args = parser.parse_args(argv)
    sys.path.insert(0, str(Path(args.src).resolve()))
    from magweyl import cli

    print(f"# magweyl from {Path(cli.__file__).parent}", file=sys.stderr)
    for path, digest in digests(cli):
        print(f"{digest}  {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
