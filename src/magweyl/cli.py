"""Command-line driver: config ingestion, task dispatch, artifact emission.

The config is a JSON document with named blocks (``grid``, ``field``,
``gauge``, ``symbol``, ``symbol2``, ``algebra``, ``task``, ``output``); all
mathematical inputs are arithmetic expression strings handled by the
package parser.  Every run echoes the fully-defaulted effective config into
the output directory, so a run can be reproduced byte-identically from its
own artifacts.  Spectra go to CSV (one eigenvalue per line, 17 significant
digits); everything else lands in ``summary.json`` with sorted keys.

Exit codes: 0 success, 2 a validated tolerance was exceeded, 1 any other
error (malformed config, parse failure, non-Hermitian operator, ...).
"""

from __future__ import annotations

import argparse
import copy
import dataclasses
import json
import os
import sys

import numpy as np

from . import expressions
from .grid import make_grid
from .inversion import DivergenceError, neumann_invert
from .magnetics import (
    FluxQuadrature,
    MagneticField,
    VectorPotential,
    gauge_shift,
    omega_cocycle,
    transversal_gauge,
)
from .moyal import expansion_term, remainder_order
from .quantize import circulation_matrix, dequantize, quantize, wrong_quantize
from .spectral import essential_spectrum, spectrum
from .symbols import CoefficientAlgebra, QuasiOrbit, Symbol

__all__ = ["main", "run"]


class ConfigError(ValueError):
    """Malformed or incomplete run configuration."""


_DEFAULTS = {
    "field": {"components": {}},
    "gauge": {"kind": "transversal"},
    "output": {"eigenvalue_format": ".17g"},
    "task": {"seed": 0},
}

_COMMANDS = ("quantize", "spectrum", "ess-spectrum", "gauge-check",
             "expand", "invert", "validate")

# physical memory in bytes, the budget a dense grid must fit in
_MEMORY_BYTES = os.sysconf("SC_PHYS_PAGES") * os.sysconf("SC_PAGE_SIZE")


def _require_block(config: dict, name: str) -> dict:
    if name not in config:
        raise ConfigError(f"config is missing the required {name!r} block")
    block = config[name]
    if not isinstance(block, dict):
        raise ConfigError(f"config block {name!r} must be an object")
    return block


def _effective_config(config: dict, seed) -> dict:
    """Fill defaults; the result is itself a complete, runnable config."""
    eff = copy.deepcopy(config)
    for name, block in _DEFAULTS.items():
        eff.setdefault(name, {})
        for key, val in block.items():
            eff[name].setdefault(key, copy.deepcopy(val))
    if seed is not None:
        eff["task"]["seed"] = int(seed)
    return eff


# ---------------------------------------------------------------------------
# block -> object builders
# ---------------------------------------------------------------------------


def _build_grid(config):
    block = _require_block(config, "grid")
    for key in ("n", "L", "N"):
        if key not in block:
            raise ConfigError(f"grid block is missing {key!r}")
    grid = make_grid(int(block["n"]), float(block["L"]), int(block["N"]))
    # a quantization holds four P x P arrays at once: the circulation (8 bytes
    # an entry), its phase, the kernel table and the operator (16 each)
    P = grid.npoints
    need = 56 * P * P
    if need > _MEMORY_BYTES:
        raise ConfigError(
            f"grid n={grid.n}, N={grid.N} has P={P} points; dense storage needs "
            f"about {need / 2**30:.1f} GiB (56*P^2 bytes), more than the "
            f"{_MEMORY_BYTES / 2**30:.1f} GiB of physical memory")
    return grid


def _build_field(config, n):
    block = config.get("field", {})
    exprs = {}
    for key, text in block.get("components", {}).items():
        digits = key.replace(",", "")
        if len(digits) != 2 or not digits.isdigit():
            raise ConfigError(
                f"field component key {key!r} must name an index pair like '12'")
        exprs[(int(digits[0]), int(digits[1]))] = text
    return MagneticField.from_expressions(n, exprs)


def _position_expr(text, n):
    ast = expressions.parse_expression(text, n_dim=n)
    return ast, (lambda x, ast=ast: np.real(expressions.evaluate(ast, x=x)))


def _build_gauge(config, B, n):
    block = config.get("gauge", _DEFAULTS["gauge"])
    kind = block.get("kind", "transversal")
    if kind == "transversal":
        return transversal_gauge(B)
    if kind == "explicit":
        exprs = block.get("A")
        if not exprs or len(exprs) != n:
            raise ConfigError(f"gauge block needs {n} 'A' component expressions")
        return VectorPotential.from_expressions(n, exprs)
    if kind == "pair":
        # base transversal gauge; the psi shift is applied by gauge-check
        return transversal_gauge(B)
    raise ConfigError(f"unknown gauge kind {kind!r}")


def _build_symbol(config, n, block_name="symbol"):
    block = _require_block(config, block_name)
    if "expression" not in block:
        raise ConfigError(f"{block_name} block is missing 'expression'")
    return Symbol.from_expression(
        block["expression"], n,
        m=float(block.get("m", 0.0)),
        rho=float(block.get("rho", 0.0)),
        delta=float(block.get("delta", 0.0)),
        real=bool(block.get("real", False)),
    )


def _build_algebra(config):
    block = _require_block(config, "algebra")
    orbits = []
    for spec in block.get("orbits", ()):
        orbits.append(QuasiOrbit(
            label=spec["label"],
            kind=spec.get("kind", "identity"),
            direction=tuple(spec.get("direction", ())),
            shift=tuple(spec.get("shift", ())),
        ))
    return CoefficientAlgebra(kind=block.get("kind", "ConstantCoefficients"),
                              quasi_orbits=tuple(orbits))


def _psi_pair(config, A, n):
    """For gauge pairs: (psi callable, shifted potential with exact grad)."""
    block = config.get("gauge", {})
    text = block.get("psi")
    if text is None:
        raise ConfigError("gauge block needs a 'psi' expression for gauge pairs")
    ast, psi = _position_expr(text, n)
    grads = [ast.diff(f"x{j + 1}") for j in range(n)]

    def grad_psi(x):
        x = np.asarray(x, dtype=float)
        out = np.empty(x.shape)
        for j, g in enumerate(grads):
            out[..., j] = np.real(expressions.evaluate(g, x=x)) + np.zeros(x.shape[:-1])
        return out

    # A + grad(psi) is a polynomial when both are; its phase still comes from
    # its own quadrature, never from C_A + psi(y) - psi(x)
    d = expressions.degree(ast)
    degree = None if A.degree is None or d is None else max(A.degree, d - 1)
    return psi, dataclasses.replace(gauge_shift(A, grad_psi=grad_psi), degree=degree)


def _context(config):
    """The objects every command starts from: (grid, B, A, f)."""
    grid = _build_grid(config)
    B = _build_field(config, grid.n)
    A = _build_gauge(config, B, grid.n)
    f = _build_symbol(config, grid.n)
    return grid, B, A, f


# ---------------------------------------------------------------------------
# artifact emission
# ---------------------------------------------------------------------------


def _write_summary(out_dir, summary):
    path = os.path.join(out_dir, "summary.json")
    with open(path, "w") as fh:
        fh.write(json.dumps(summary, sort_keys=True, indent=2))
        fh.write("\n")


def _write_eigenvalues(out_dir, values, fmt, name="eigenvalues.csv"):
    path = os.path.join(out_dir, name)
    with open(path, "w") as fh:
        for v in values:
            fh.write(format(float(v), fmt))
            fh.write("\n")


# ---------------------------------------------------------------------------
# commands
# ---------------------------------------------------------------------------


def _cmd_quantize(config, out_dir, threads):
    grid, B, A, f = _context(config)
    M = quantize(f, A, grid, threads=threads)
    _write_summary(out_dir, {
        "command": "quantize",
        "dimension": M.grid.npoints,
        "hermiticity_defect": M.hermiticity_defect(),
        "operator_norm": M.operator_norm(),
    })
    return 0


def _cmd_spectrum(config, out_dir, threads):
    grid, B, A, f = _context(config)
    fmt = config["output"]["eigenvalue_format"]
    M = quantize(f, A, grid, threads=threads)
    res = spectrum(M)
    _write_eigenvalues(out_dir, res.eigenvalues, fmt)
    _write_summary(out_dir, {
        "command": "spectrum",
        "count": int(res.eigenvalues.size),
        "hermiticity_defect": res.hermiticity_defect,
        "lowest": res.eigenvalues[0],
        "highest": res.eigenvalues[-1],
    })
    return 0


def _cmd_ess_spectrum(config, out_dir, threads):
    grid, B, _, f = _context(config)
    algebra = _build_algebra(config)
    merge_tol = config["task"].get("merge_tol")
    res = essential_spectrum(f, algebra, B, grid, merge_tol=merge_tol,
                             threads=threads)
    fmt = config["output"]["eigenvalue_format"]
    for label in sorted(res.orbit_spectra):
        _write_eigenvalues(out_dir, res.orbit_spectra[label].eigenvalues, fmt,
                           name=f"eigenvalues_{label}.csv")
    _write_summary(out_dir, {
        "command": "ess-spectrum",
        "intervals": [[lo, hi] for lo, hi in res.intervals],
        "provenance": [list(p) for p in res.provenance],
        "analytic_ranges": {k: [v[0], v[1]] for k, v in res.analytic_ranges.items()},
        "lower_edge": res.lower_edge,
        "merge_tol": res.merge_tol,
    })
    return 0


def _cmd_gauge_check(config, out_dir, threads):
    grid, B, A1, f = _context(config)
    psi, A2 = _psi_pair(config, A1, grid.n)
    tol = float(config["task"].get("tolerance", 1e-6))
    M1 = quantize(f, A1, grid, threads=threads)
    M2 = quantize(f, A2, grid, threads=threads)
    phase = np.exp(1j * np.asarray(psi(grid.x_flat()), dtype=float))
    conjugated = (phase[:, None] * M1.matrix) * np.conj(phase)[None, :]
    residual = float(np.linalg.norm(conjugated - M2.matrix)
                     / max(np.linalg.norm(M2.matrix), 1e-300))
    W1 = wrong_quantize(f, A1, grid)
    W2 = wrong_quantize(f, A2, grid)
    wrong_conj = (phase[:, None] * W1.matrix) * np.conj(phase)[None, :]
    wrong_residual = float(np.linalg.norm(wrong_conj - W2.matrix)
                           / max(np.linalg.norm(W2.matrix), 1e-300))
    _write_summary(out_dir, {
        "command": "gauge-check",
        "covariance_residual": residual,
        "tolerance": tol,
        "wrong_quantization_residual": wrong_residual,
        "passed": residual <= tol,
    })
    return 0 if residual <= tol else 2


def _cmd_expand(config, out_dir, threads):
    grid, B, A, f = _context(config)
    g = _build_symbol(config, grid.n, block_name="symbol2")
    depth = int(config["task"].get("depth", 2))
    x = grid.x_mesh()
    xi = grid.xi_mesh()
    sup_values = {}
    for l in range(depth):
        h_l = expansion_term(f, g, B, l)
        sup_values[f"h{l}_sup"] = float(np.abs(h_l.fn(x, xi)).max())
    fit = remainder_order(f, g, B, A, grid, depth)
    expected = f.m + g.m - depth  # rho = 1 symbol classes
    _write_summary(out_dir, {
        "command": "expand",
        "depth": depth,
        "expected_remainder_order": expected,
        "fitted_remainder_slope": fit.slope,
        **sup_values,
    })
    return 0


def _cmd_invert(config, out_dir, threads):
    grid, B, A, f = _context(config)
    task = config["task"]
    if "z" not in task:
        raise ConfigError("task block needs 'z' for invert")
    z = float(task["z"])
    tol = float(task.get("tolerance", 1e-6))
    try:
        result = neumann_invert(f, z, B, A, grid, threads=threads)
    except DivergenceError as exc:
        _write_summary(out_dir, {
            "command": "invert", "z": z, "converged": False,
            "diagnostic": str(exc),
        })
        return 2
    _write_summary(out_dir, {
        "command": "invert",
        "z": z,
        "converged": True,
        "terms": result.terms,
        "series_norm_bound": result.norm_R,
        "residual": result.residual,
        "tolerance": tol,
    })
    return 0 if result.residual <= tol else 2


def _cmd_validate(config, out_dir, threads):
    grid, B, A, f = _context(config)
    seed = int(config["task"]["seed"])
    rng = np.random.default_rng(seed)
    checks = {}

    # 2-cocycle identity on random triples (flux additivity is exact, so the
    # only residual is triangle quadrature error; use a high order)
    quad = FluxQuadrature(order=16)
    pts = rng.uniform(-1.0, 1.0, size=(4, 50, grid.n))
    q, x, y, z = pts
    lhs = omega_cocycle(B, q, x, y, quad) * omega_cocycle(B, q, x + y, z, quad)
    rhs = omega_cocycle(B, q + x, y, z, quad) * omega_cocycle(B, q, x, y + z, quad)
    checks["cocycle_identity"] = float(np.abs(lhs - rhs).max())

    # cocycle normalization
    checks["cocycle_normalization"] = float(
        np.abs(omega_cocycle(B, q, x, np.zeros_like(x), quad) - 1.0).max())

    # quantize/dequantize round trip
    M = quantize(f, A, grid, threads=threads)
    table = dequantize(M, A)
    M2 = quantize(table, A, grid, threads=threads)
    checks["round_trip"] = float(np.abs(M2.matrix - M.matrix).max()
                                 / max(np.abs(M.matrix).max(), 1e-300))

    # real symbol quantizes to a Hermitian operator
    if f.real:
        checks["hermiticity"] = M.hermiticity_defect()

    # assembly is independent of the thread count
    C1 = circulation_matrix(A, grid, threads=1)
    C2 = circulation_matrix(A, grid, threads=max(2, threads))
    checks["thread_independence"] = float(np.abs(C1 - C2).max())

    tolerances = {
        "cocycle_identity": 1e-8,
        "cocycle_normalization": 1e-14,
        "round_trip": 1e-9,
        "hermiticity": 1e-9,
        "thread_independence": 0.0,
    }
    table_rows = {}
    ok = True
    for name in sorted(checks):
        passed = checks[name] <= tolerances[name]
        ok = ok and passed
        table_rows[name] = {"residual": checks[name],
                            "tolerance": tolerances[name],
                            "passed": passed}
    _write_summary(out_dir, {"command": "validate", "seed": seed,
                             "checks": table_rows, "passed": ok})
    return 0 if ok else 2


_DISPATCH = {
    "quantize": _cmd_quantize,
    "spectrum": _cmd_spectrum,
    "ess-spectrum": _cmd_ess_spectrum,
    "gauge-check": _cmd_gauge_check,
    "expand": _cmd_expand,
    "invert": _cmd_invert,
    "validate": _cmd_validate,
}


def run(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="magweyl",
        description="gauge-covariant magnetic Weyl calculus, from a JSON config")
    parser.add_argument("--config", required=True, help="path to the JSON run config")
    parser.add_argument("--out", default="./out", help="output directory")
    parser.add_argument("--seed", type=int, default=None,
                        help="seed for randomized validation checks")
    parser.add_argument("--threads", type=int, default=1,
                        help="worker threads for matrix assembly (results are "
                             "independent of this)")
    args = parser.parse_args(argv)

    try:
        with open(args.config) as fh:
            config = json.load(fh)
    except OSError as exc:
        print(f"error: cannot read config: {exc}", file=sys.stderr)
        return 1
    except json.JSONDecodeError as exc:
        print(f"error: config is not valid JSON: {exc}", file=sys.stderr)
        return 1

    try:
        config = _effective_config(config, args.seed)
        task = _require_block(config, "task")
        command = task.get("command")
        if command not in _COMMANDS:
            raise ConfigError(
                f"task block needs 'command', one of {', '.join(_COMMANDS)}")
        os.makedirs(args.out, exist_ok=True)
        with open(os.path.join(args.out, "effective_config.json"), "w") as fh:
            fh.write(json.dumps(config, sort_keys=True, indent=2))
            fh.write("\n")
        return _DISPATCH[command](config, args.out, max(1, args.threads))
    except (ConfigError, expressions.ParseError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def main():
    sys.exit(run())


if __name__ == "__main__":
    main()
