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
import contextlib
import copy
import json
import math
import os
import sys
from dataclasses import replace

import numpy as np

from . import expressions
from .grid import make_grid
from .inversion import DivergenceError, neumann_invert
from .magnetics import (
    FluxQuadrature,
    MagneticField,
    VectorPotential,
    _position_callable,
    gauge_shift,
    omega_cocycle,
    transversal_gauge,
)
from .moyal import expansion_term, remainder_order
from .quantize import Gauge, _sum_squares, dequantize, quantize, wrong_quantize
from .spectral import essential_spectrum, spectrum
from .symbols import CoefficientAlgebra, QuasiOrbit, Symbol, _position_blocks

__all__ = ["main", "run"]


class ConfigError(ValueError):
    """Malformed or incomplete run configuration."""


_DEFAULTS = {
    "field": {"components": {}},
    "gauge": {"kind": "transversal"},
    "output": {"eigenvalue_format": ".17g"},
    "task": {"seed": 0},
}

# physical memory in bytes, the budget a dense grid must fit in
_MEMORY_BYTES = os.sysconf("SC_PHYS_PAGES") * os.sysconf("SC_PAGE_SIZE")

# peak bytes of each command per P^2 (P = N^n points), as traced by
# tests/test_cli.py at 2D L=12 N=24 with a zero and a non-polynomial field
# (and, for quantize, spectrum, expand and invert, at 1D L=20 N=512);
# the work arrays of the circulation fill are bounded by a constant, a larger
# share of a peak there than on larger grids, so the figures bound those
# from above
_PEAK_P2 = {"quantize": 43, "spectrum": 42, "ess-spectrum": 42, "gauge-check": 61,
            "expand": 57, "invert": 76, "validate": 61}

# rows per block of validate's entrywise maxima
_BLOCK_ROWS = 64

_MISSING = object()
_KINDS = {float: "a number", int: "an integer", str: "a string", bool: "true or false",
          list: "a list", dict: "an object"}


def _require_block(config: dict, name: str) -> dict:
    if name not in config:
        raise ConfigError(f"config is missing the required {name!r} block")
    block = config[name]
    if not isinstance(block, dict):
        raise ConfigError(f"config block {name!r} must be an object")
    return block


def _value(block: dict, where: str, key: str, kind, default=_MISSING):
    """``block[key]`` as ``kind``, or ``default`` when the key is absent; a
    ConfigError that names ``where`` and the key when it is missing or cannot
    be read.  ``float`` and ``int`` take a number or a numeric string, never
    a boolean, and it must be finite (and integral for ``int``); the other
    kinds must match."""
    if key not in block:
        if default is _MISSING:
            raise ConfigError(f"{where} is missing {key!r}")
        return default
    value = block[key]
    if kind in (float, int):
        number = None
        if not isinstance(value, bool):
            with contextlib.suppress(TypeError, ValueError, OverflowError):
                number = float(value)
        if number is not None:
            if not math.isfinite(number):
                raise ConfigError(f"{where} {key!r} must be finite, got {value!r}")
            if kind is float:
                return number
            if number.is_integer():
                return value if isinstance(value, int) else int(number)
    elif isinstance(value, kind):
        return value
    raise ConfigError(f"{where} {key!r} must be {_KINDS[kind]}, got {value!r}")


def _vector(block: dict, where: str, key: str, n: int, required: bool) -> tuple:
    """``block[key]`` as n finite numbers (see :func:`_value`); () when the
    key is absent and not ``required``."""
    values = _value(block, where, key, list, _MISSING if required else None)
    if values is None:
        return ()
    if len(values) != n:
        raise ConfigError(f"{where} {key!r} must have {n} entries, got {values!r}")
    return tuple(_value({key: v}, where, key, float) for v in values)


def _effective_config(config: dict, seed) -> dict:
    """Fill defaults; the result is itself a complete, runnable config."""
    if not isinstance(config, dict):
        raise ConfigError("config must be a JSON object of named blocks")
    eff = copy.deepcopy(config)
    for name, block in _DEFAULTS.items():
        if not isinstance(eff.setdefault(name, {}), dict):
            raise ConfigError(f"config block {name!r} must be an object")
        for key, val in block.items():
            eff[name].setdefault(key, copy.deepcopy(val))
    if seed is not None:
        if seed < 0:
            raise ConfigError(f"--seed must be non-negative, got {seed}")
        eff["task"]["seed"] = int(seed)
    return eff


# ---------------------------------------------------------------------------
# block -> object builders
# ---------------------------------------------------------------------------


@contextlib.contextmanager
def _naming(where):
    """Name the config entry of a value the library rejects: the text of an
    expression that fails to parse, or the library's own diagnostic."""
    try:
        yield
    except expressions.ParseError as exc:
        raise ConfigError(f"{where}: cannot parse {exc.text!r}: {exc}") from None
    except ValueError as exc:
        raise ConfigError(f"{where}: {exc}") from None


def _build_grid(config):
    block = _require_block(config, "grid")
    n, L, N = (_value(block, "grid block", key, kind)
               for key, kind in (("n", int), ("L", float), ("N", int)))
    with _naming("grid block"):
        grid = make_grid(n, L, N)
    # the command's traced peak, in bytes per P^2: its operator (16 bytes an
    # entry), in 2D the circulation (8) and at most a few P x P work arrays
    command = config["task"]["command"]
    P = grid.npoints
    need = _PEAK_P2[command] * P * P
    if need > _MEMORY_BYTES:
        raise ConfigError(
            f"grid n={grid.n}, N={grid.N} has P={P} points; {command} needs "
            f"about {need / 2**30:.1f} GiB ({_PEAK_P2[command]}*P^2 bytes), more "
            f"than the {_MEMORY_BYTES / 2**30:.1f} GiB of physical memory")
    return grid


def _build_field(config, n):
    components = _value(config["field"], "field block", "components", dict)
    exprs = {}
    for key in components:
        digits = key.replace(",", "")
        pair = (int(digits[0]), int(digits[1])) if len(digits) == 2 and digits.isdigit() else None
        if pair is None or not 1 <= pair[0] < pair[1] <= n:
            raise ConfigError(f"field block 'components' key {key!r} must name an "
                              f"index pair j < k of 1..{n}, like '12'")
        exprs[pair] = _value(components, "field component", key, str)
    with _naming("field block"):
        return MagneticField.from_expressions(n, exprs)


def _build_gauge(config, B, n):
    block = config["gauge"]
    kind = _value(block, "gauge block", "kind", str)
    if kind in ("transversal", "pair"):
        # a pair's base gauge; gauge-check applies the psi shift
        return transversal_gauge(B)
    if kind == "explicit":
        exprs = _value(block, "gauge block", "A", list, [])
        if len(exprs) != n or not all(isinstance(text, str) for text in exprs):
            raise ConfigError(f"gauge block needs {n} 'A' component expressions")
        with _naming("gauge block 'A'"):
            return VectorPotential.from_expressions(n, exprs)
    raise ConfigError(f"unknown gauge kind {kind!r}")


def _build_symbol(config, n, block_name="symbol"):
    block = _require_block(config, block_name)
    where = f"{block_name} block"
    text = _value(block, where, "expression", str)
    classes = {key: _value(block, where, key, float, 0.0) for key in ("m", "rho", "delta")}
    real = _value(block, where, "real", bool, False)
    with _naming(where):
        return Symbol.from_expression(text, n, real=real, **classes)


def _build_algebra(config, n):
    block = _require_block(config, "algebra")
    orbits = []
    for spec in _value(block, "algebra block", "orbits", list, []):
        if not isinstance(spec, dict):
            raise ConfigError(f"algebra block 'orbits' entry {spec!r} must be an object")
        where = f"algebra orbit {spec!r}"
        label = _value(spec, where, "label", str)
        # the label names the orbit's eigenvalue file inside --out
        if label in ("", ".", "..") or any(c in label for c in "/\\\0"):
            raise ConfigError(f"{where} 'label' must be a plain file name, got {label!r}")
        kind = _value(spec, where, "kind", str, "identity")
        if kind not in QuasiOrbit.KINDS:
            raise ConfigError(f"{where} 'kind' must be one of {', '.join(QuasiOrbit.KINDS)}")
        direction = _vector(spec, where, "direction", n, required=kind == "direction")
        if kind == "direction" and not any(direction):
            raise ConfigError(f"{where} 'direction' must be nonzero")
        shift = _vector(spec, where, "shift", n, required=kind == "translate")
        orbits.append(QuasiOrbit(label=label, kind=kind, direction=direction, shift=shift))
    if not orbits:
        raise ConfigError("algebra block 'orbits' must list at least one quasi-orbit")
    kind = _value(block, "algebra block", "kind", str, "ConstantCoefficients")
    with _naming("algebra block"):
        return CoefficientAlgebra(kind=kind, quasi_orbits=tuple(orbits))


def _psi_pair(config, A, n):
    """For gauge pairs: (psi callable, shifted potential with exact grad)."""
    text = _value(config.get("gauge", {}), "gauge block", "psi", str, None)
    if text is None:
        raise ConfigError("gauge block needs a 'psi' expression for gauge pairs")
    with _naming("gauge block 'psi'"):
        ast = expressions.parse_expression(text, n_dim=n)
    grads = [_position_callable(ast.diff(f"x{j + 1}")) for j in range(n)]

    def grad_psi(x):
        x = np.asarray(x, dtype=float)
        out = np.empty(x.shape)
        for j, g in enumerate(grads):
            out[..., j] = g(x) + np.zeros(x.shape[:-1])
        return out

    # A + grad(psi) is a polynomial when both are; its phase still comes from
    # A + grad(psi) itself (separable at degree <= 1), never from C_A + psi(y) - psi(x)
    d = expressions.degree(ast)
    degree = None if A.degree is None or d is None else max(A.degree, d - 1)
    return _position_callable(ast), replace(gauge_shift(A, grad_psi=grad_psi), degree=degree)


def _eigenvalue_format(config):
    fmt = _value(config["output"], "output block", "eigenvalue_format", str)
    try:
        format(0.0, fmt)
    except ValueError as exc:
        raise ConfigError(f"output block 'eigenvalue_format' {fmt!r}: {exc}") from None
    return fmt


def _context(config):
    """The objects every command starts from: (grid, B, gauge, f)."""
    grid = _build_grid(config)
    B = _build_field(config, grid.n)
    gauge = Gauge(_build_gauge(config, B, grid.n), grid)
    f = _build_symbol(config, grid.n)
    return grid, B, gauge, f


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


def _cmd_quantize(config, out_dir):
    grid, B, gauge, f = _context(config)
    M = quantize(f, gauge)
    _write_summary(out_dir, {
        "command": "quantize",
        "dimension": M.grid.npoints,
        "hermiticity_defect": M.hermiticity_defect(),
        "operator_norm": M.operator_norm(),
    })
    return 0


def _cmd_spectrum(config, out_dir):
    grid, B, gauge, f = _context(config)
    fmt = _eigenvalue_format(config)
    M = quantize(f, gauge)
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


def _cmd_ess_spectrum(config, out_dir):
    grid, B, _, f = _context(config)
    algebra = _build_algebra(config, grid.n)
    merge_tol = _value(config["task"], "task block", "merge_tol", float, None)
    fmt = _eigenvalue_format(config)
    res = essential_spectrum(f, algebra, B, grid, merge_tol=merge_tol)
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


def _cmd_gauge_check(config, out_dir):
    grid, B, gauge1, f = _context(config)
    psi, A2 = _psi_pair(config, gauge1.A, grid.n)
    gauge2 = Gauge(A2, grid)
    tol = _value(config["task"], "task block", "tolerance", float, 1e-6)
    phase = np.exp(1j * np.asarray(psi(grid.x_flat()), dtype=float))

    def covariance(quantizer):
        # e^{i psi(x)} M1 e^{-i psi(y)} - M2, formed in a complex M1's storage
        M1, M2 = np.asarray(quantizer(f, gauge1).matrix, complex), quantizer(f, gauge2).matrix
        np.multiply(phase[:, None], M1, out=M1)
        np.multiply(M1, np.conj(phase)[None, :], out=M1)
        np.subtract(M1, M2, out=M1)
        return float(np.sqrt(_sum_squares(M1)) / max(np.sqrt(_sum_squares(M2)), 1e-300))

    residual = covariance(quantize)
    wrong_residual = covariance(wrong_quantize)
    _write_summary(out_dir, {
        "command": "gauge-check",
        "covariance_residual": residual,
        "tolerance": tol,
        "wrong_quantization_residual": wrong_residual,
        "passed": residual <= tol,
    })
    return 0 if residual <= tol else 2


def _cmd_expand(config, out_dir):
    grid, B, gauge, f = _context(config)
    g = _build_symbol(config, grid.n, block_name="symbol2")
    depth = _value(config["task"], "task block", "depth", int, 2)
    if depth < 0:
        raise ConfigError(f"task block 'depth' must be non-negative, got {depth!r}")
    # sup over the whole phase-space lattice, by blocks of position nodes
    sup_values = {f"h{l}_sup": float(np.max([np.abs(vals).max() for vals in
                                             _position_blocks(expansion_term(f, g, B, l), grid)]))
                  for l in range(depth)}
    fit = remainder_order(f, g, B, gauge, depth)
    expected = f.m + g.m - depth  # rho = 1 symbol classes
    # a widened window is a two-node fit, flagged so that its slope is not
    # read as an order; the summaries of unwidened fits keep their keys
    widened = {"widened_fit_window": [float(x) for x in fit.xi_values],
               "narrow_range": bool(fit.narrow_range)} if fit.widened else {}
    _write_summary(out_dir, {
        "command": "expand",
        "depth": depth,
        "expected_remainder_order": expected,
        "fitted_remainder_slope": fit.slope,
        **widened,
        **sup_values,
    })
    return 0


def _cmd_invert(config, out_dir):
    grid, B, gauge, f = _context(config)
    task = config["task"]
    z = _value(task, "task block", "z", float)
    tol = _value(task, "task block", "tolerance", float, 1e-6)
    try:
        result = neumann_invert(f, z, gauge)
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


def _blockwise_max(block_values, P: int) -> float:
    """The largest entry of the P x P array whose rows r are
    ``block_values(r)``, formed one block of ``_BLOCK_ROWS`` rows at a time;
    max is exact, so this is the whole-array maximum to the bit."""
    return float(np.max([block_values(slice(a, a + _BLOCK_ROWS)).max()
                         for a in range(0, P, _BLOCK_ROWS)]))


def _cmd_validate(config, out_dir):
    grid, B, gauge, f = _context(config)
    seed = _value(config["task"], "task block", "seed", int)
    if seed < 0:
        raise ConfigError(f"task block 'seed' must be non-negative, got {seed!r}")
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
    M = quantize(f, gauge)
    M2 = quantize(dequantize(M, gauge), gauge).matrix
    m = M.matrix
    checks["round_trip"] = (_blockwise_max(lambda r: np.abs(M2[r] - m[r]), len(m))
                            / max(_blockwise_max(lambda r: np.abs(m[r]), len(m)), 1e-300))
    del M2

    # real symbol quantizes to a Hermitian operator
    if f.real:
        checks["hermiticity"] = M.hermiticity_defect()
    del M, m

    tolerances = {
        "cocycle_identity": 1e-8,
        "cocycle_normalization": 1e-14,
        "round_trip": 1e-9,
        "hermiticity": 1e-9,
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
                        help="accepted for compatibility; has no effect")
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
        if not isinstance(command, str) or command not in _DISPATCH:
            raise ConfigError(
                f"task block needs 'command', one of {', '.join(_DISPATCH)}")
        os.makedirs(args.out, exist_ok=True)
        with open(os.path.join(args.out, "effective_config.json"), "w") as fh:
            fh.write(json.dumps(config, sort_keys=True, indent=2))
            fh.write("\n")
        return _DISPATCH[command](config, args.out)
    except (ConfigError, expressions.ParseError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def main():
    sys.exit(run())


if __name__ == "__main__":
    main()
