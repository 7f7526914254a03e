"""Command-line driver: configs, outputs, determinism, exit codes."""

import copy
import dataclasses
import functools
import importlib
import importlib.util
import json
import math
import operator
import os
import re
import subprocess
import sys
import tempfile
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st
from scipy.linalg import svdvals

from magweyl import cli
from magweyl.cli import run
from magweyl.grid import make_grid
from magweyl.magnetics import MagneticField, transversal_gauge
from magweyl.moyal import expansion_term
from magweyl.quantize import Gauge, quantize
from magweyl.symbols import Symbol

SPECTRUM_CFG = {
    "grid": {"n": 1, "L": 20.0, "N": 64},
    "symbol": {"expression": "x1^2 + xi1^2", "m": 2, "rho": 1, "real": True},
    "task": {"command": "spectrum"},
}


def write_cfg(path, cfg):
    path.write_text(json.dumps(cfg))
    return str(path)


def test_spectrum_outputs(tmp_path):
    cfg = write_cfg(tmp_path / "cfg.json", SPECTRUM_CFG)
    out = tmp_path / "out"
    assert run(["--config", cfg, "--out", str(out)]) == 0
    summary = json.loads((out / "summary.json").read_text())
    assert summary["command"] == "spectrum"
    assert summary["count"] == 64
    assert summary["lowest"] == pytest.approx(1.0, abs=1e-4)
    vals = np.loadtxt(out / "eigenvalues.csv")
    assert vals.shape == (64,)
    assert np.all(np.diff(vals) >= 0)


def test_effective_config_round_trip_is_byte_identical(tmp_path):
    cfg = write_cfg(tmp_path / "cfg.json", SPECTRUM_CFG)
    out1 = tmp_path / "out1"
    out2 = tmp_path / "out2"
    assert run(["--config", cfg, "--out", str(out1)]) == 0
    echo = out1 / "effective_config.json"
    assert echo.exists()
    assert run(["--config", str(echo), "--out", str(out2)]) == 0
    for name in ("summary.json", "eigenvalues.csv", "effective_config.json"):
        assert (out1 / name).read_bytes() == (out2 / name).read_bytes()


def test_thread_count_does_not_change_output(tmp_path):
    cfg = write_cfg(tmp_path / "cfg.json", {
        "grid": {"n": 2, "L": 8.0, "N": 12},
        "field": {"components": {"12": "0.6"}},
        "symbol": {"expression": "xi1^2 + xi2^2", "m": 2, "rho": 1,
                   "real": True},
        "task": {"command": "spectrum"},
    })
    out1 = tmp_path / "t1"
    out4 = tmp_path / "t4"
    assert run(["--config", cfg, "--out", str(out1), "--threads", "1"]) == 0
    assert run(["--config", cfg, "--out", str(out4), "--threads", "4"]) == 0
    assert ((out1 / "eigenvalues.csv").read_bytes()
            == (out4 / "eigenvalues.csv").read_bytes())


def test_gauge_check_pass_and_fail_exit_codes(tmp_path):
    base = {
        "grid": {"n": 2, "L": 10.0, "N": 16},
        "field": {"components": {"12": "1 + 1/(1+x1^2)"}},
        "gauge": {"kind": "pair", "psi": "sin(x1)*x2"},
        "symbol": {"expression": "xi1^2 + xi2^2", "m": 2, "rho": 1,
                   "real": True},
        "task": {"command": "gauge-check", "tolerance": 1e-6},
    }
    cfg = write_cfg(tmp_path / "ok.json", base)
    out = tmp_path / "ok"
    assert run(["--config", cfg, "--out", str(out)]) == 0
    summary = json.loads((out / "summary.json").read_text())
    assert summary["passed"] is True
    assert summary["covariance_residual"] <= 1e-6
    assert summary["wrong_quantization_residual"] >= 1e-2
    # an unreachable tolerance flips the exit code to 2 (validation failure)
    strict = dict(base, task={"command": "gauge-check", "tolerance": 1e-12})
    cfg2 = write_cfg(tmp_path / "strict.json", strict)
    assert run(["--config", cfg2, "--out", str(tmp_path / "strict")]) == 2


def test_validate_command_passes(tmp_path):
    cfg = write_cfg(tmp_path / "cfg.json", {
        "grid": {"n": 2, "L": 10.0, "N": 12},
        "field": {"components": {"12": "1 + 1/(1+x1^2)"}},
        "symbol": {"expression": "xi1^2 + xi2^2 + 1/(1+x1^2)", "m": 2,
                   "rho": 1, "real": True},
        "task": {"command": "validate"},
    })
    out = tmp_path / "out"
    assert run(["--config", cfg, "--out", str(out)]) == 0
    summary = json.loads((out / "summary.json").read_text())
    checks = summary["checks"]
    assert all(c["passed"] for c in checks.values())
    assert "cocycle_identity" in checks
    assert summary["passed"] is True


def test_invert_command(tmp_path):
    cfg = write_cfg(tmp_path / "cfg.json", {
        "grid": {"n": 1, "L": 20.0, "N": 128},
        "symbol": {"expression": "xi1^2 + arctan(x1)", "m": 2, "rho": 1,
                   "real": True},
        "task": {"command": "invert", "z": -10, "tolerance": 1e-6},
    })
    out = tmp_path / "out"
    assert run(["--config", cfg, "--out", str(out)]) == 0
    summary = json.loads((out / "summary.json").read_text())
    assert summary["residual"] <= 1e-6
    # an inadmissible z is a validation failure, not a crash
    bad = dict(json.loads((tmp_path / "cfg.json").read_text()),
               task={"command": "invert", "z": 100.0, "tolerance": 1e-6})
    cfg2 = write_cfg(tmp_path / "bad.json", bad)
    assert run(["--config", cfg2, "--out", str(tmp_path / "bad")]) == 2


@pytest.mark.parametrize("name", ["invert", "invert-2d"])
def test_invert_never_dequantizes_the_inverse(tmp_path, monkeypatch, name):
    # the command reads the residual and the certificate, not the inverse's symbol
    def refuse(*args, **kwargs):
        raise AssertionError("dequantize called")

    for module in ("magweyl.quantize", "magweyl.inversion", "magweyl.cli"):
        monkeypatch.setattr(importlib.import_module(module), "dequantize", refuse)
    cfg = write_cfg(tmp_path / "cfg.json", _TINY_RUNS[name][0])
    out = tmp_path / "out"
    assert run(["--config", cfg, "--out", str(out)]) == 0
    assert json.loads((out / "summary.json").read_text())["converged"] is True


def test_ess_spectrum_command(tmp_path):
    cfg = write_cfg(tmp_path / "cfg.json", {
        "grid": {"n": 1, "L": 20.0, "N": 64},
        "symbol": {"expression": "xi1^2 + arctan(x1)", "m": 2, "rho": 1,
                   "real": True},
        "algebra": {
            "kind": "AsymptoticLimitsPerDirection",
            "orbits": [
                {"label": "plus", "kind": "direction", "direction": [1.0]},
                {"label": "minus", "kind": "direction", "direction": [-1.0]},
            ]},
        "task": {"command": "ess-spectrum"},
    })
    out = tmp_path / "out"
    assert run(["--config", cfg, "--out", str(out)]) == 0
    summary = json.loads((out / "summary.json").read_text())
    lo = summary["intervals"][0][0]
    assert lo == pytest.approx(-np.pi / 2.0, rel=2e-2)


def test_missing_block_is_an_error_naming_the_block(tmp_path, capsys):
    cfg = write_cfg(tmp_path / "cfg.json",
                    {"task": {"command": "spectrum"},
                     "symbol": {"expression": "xi1^2"}})
    code = run(["--config", cfg, "--out", str(tmp_path / "out")])
    assert code == 1
    err = capsys.readouterr().err
    assert "grid" in err


def test_bad_expression_is_diagnosed(tmp_path, capsys):
    cfg = write_cfg(tmp_path / "cfg.json", {
        "grid": {"n": 1, "L": 20.0, "N": 64},
        "symbol": {"expression": "sin(x1", "m": 0},
        "task": {"command": "spectrum"},
    })
    assert run(["--config", cfg, "--out", str(tmp_path / "out")]) == 1
    err = capsys.readouterr().err
    assert "symbol block" in err and "'sin(x1'" in err and "offset 7" in err
    # every expression of the config is named by its block
    grid2, xi2 = {"n": 2, "L": 8.0, "N": 8}, {"expression": "xi1^2 + xi2^2", "m": 2}
    bad = {
        "symbol2 block": {"grid": grid2, "symbol": xi2, "symbol2": {"expression": "xi1 +"},
                          "task": {"command": "expand", "depth": 2}},
        "field block": {"grid": grid2, "symbol": xi2,
                        "field": {"components": {"12": "1 + (x1"}},
                        "task": {"command": "quantize"}},
        "gauge block 'A'": {"grid": grid2, "symbol": xi2,
                            "gauge": {"kind": "explicit", "A": ["-x2", "x1 *"]},
                            "task": {"command": "quantize"}},
        "gauge block 'psi'": {"grid": grid2, "symbol": xi2,
                              "gauge": {"kind": "pair", "psi": "x1*x2)"},
                              "task": {"command": "gauge-check"}},
    }
    texts = {"symbol2 block": "'xi1 +'", "field block": "'1 + (x1'",
             "gauge block 'A'": "'x1 *'", "gauge block 'psi'": "'x1*x2)'"}
    for where, config in bad.items():
        out = tmp_path / where.replace(" ", "_").replace("'", "")
        assert run(["--config", write_cfg(tmp_path / "bad.json", config), "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert f"{where}: cannot parse {texts[where]}" in err
        assert not (out / "summary.json").exists()


def test_unknown_command_rejected(tmp_path, capsys):
    cfg = write_cfg(tmp_path / "cfg.json",
                    dict(SPECTRUM_CFG, task={"command": "frobnicate"}))
    assert run(["--config", cfg, "--out", str(tmp_path / "out")]) == 1
    assert "command" in capsys.readouterr().err


def test_a_malformed_number_is_diagnosed_with_its_offset(tmp_path, capsys):
    cfg = write_cfg(tmp_path / "cfg.json",
                    dict(SPECTRUM_CFG, symbol={"expression": "xi1^2 + 1.2.3", "m": 2}))
    assert run(["--config", cfg, "--out", str(tmp_path / "out")]) == 1
    assert capsys.readouterr().err == (
        "error: symbol block: cannot parse 'xi1^2 + 1.2.3': unexpected '.3' at offset 12 "
        "(expected operator or end of input)\n")


@pytest.mark.parametrize("command", ["frobnicate", ["spectrum"], {"spectrum": 1}, None])
def test_a_command_that_is_not_one_of_the_seven_lists_them_in_order(tmp_path, capsys, command):
    cfg = write_cfg(tmp_path / "cfg.json", dict(SPECTRUM_CFG, task={"command": command}))
    assert run(["--config", cfg, "--out", str(tmp_path / "out")]) == 1
    assert capsys.readouterr().err == (
        "error: task block needs 'command', one of quantize, spectrum, ess-spectrum, "
        "gauge-check, expand, invert, validate\n")


_EXPAND_2D = {
    "field": {"components": {"12": "0.7"}},
    "symbol": {"expression": "xi1 + arctan(x1)", "m": 1, "rho": 1},
    "symbol2": {"expression": "xi2 + exp(-x2^2)", "m": 1, "rho": 1},
    "task": {"command": "expand", "depth": 2},
}


def test_expand_with_an_empty_fit_window_is_diagnosed(tmp_path, capsys):
    # at L=8, N=4 no momentum node lies at or above 1.5, so no widening helps
    cfg = write_cfg(tmp_path / "cfg.json", {"grid": {"n": 2, "L": 8.0, "N": 4}, **_EXPAND_2D})
    assert run(["--config", cfg, "--out", str(tmp_path / "out")]) == 1
    err = capsys.readouterr().err
    assert "Traceback" not in err
    assert "window" in err and "N=4" in err and "L=8.0" in err


@pytest.mark.filterwarnings("ignore:remainder fit window")
@pytest.mark.parametrize("L, N", [(8.0, 16), (6.0, 24), (12.0, 32)])
def test_expand_widens_a_fit_window_that_holds_fewer_than_two_momenta(tmp_path, L, N):
    # [1.5, 0.25 * xi_max] holds 0, 1 and 1 nodes here; the upper cut is
    # raised to the second node at or above 1.5, and the summary says the
    # slope is a two-node fit
    cfg = write_cfg(tmp_path / "cfg.json", {"grid": {"n": 2, "L": L, "N": N}, **_EXPAND_2D})
    assert run(["--config", cfg, "--out", str(tmp_path / "out")]) == 0
    summary = json.loads((tmp_path / "out" / "summary.json").read_text())
    assert np.isfinite(summary["fitted_remainder_slope"])
    dxi = 2 * np.pi / L
    lo = np.ceil(1.5 / dxi)
    np.testing.assert_allclose(summary["widened_fit_window"], [lo * dxi, (lo + 1) * dxi])
    assert summary["narrow_range"] is True


@pytest.mark.filterwarnings("ignore:remainder fit window")
def test_expand_keeps_the_summary_keys_of_a_window_that_holds_two_momenta(tmp_path):
    cfg = write_cfg(tmp_path / "cfg.json", {"grid": {"n": 2, "L": 4.0, "N": 32}, **_EXPAND_2D})
    assert run(["--config", cfg, "--out", str(tmp_path / "out")]) == 0
    summary = json.loads((tmp_path / "out" / "summary.json").read_text())
    assert sorted(summary) == ["command", "depth", "expected_remainder_order",
                               "fitted_remainder_slope", "h0_sup", "h1_sup"]


@pytest.mark.filterwarnings("ignore:remainder fit window")
@pytest.mark.parametrize("cfg", [
    {"grid": {"n": 1, "L": 10.0, "N": 64}, "task": {"command": "expand", "depth": 2},
     "symbol": {"expression": "xi1^2 + arctan(x1)", "m": 2, "rho": 1},
     "symbol2": {"expression": "exp(-x1^2)*xi1", "m": 1, "rho": 1}},
    {"grid": {"n": 2, "L": 8.0, "N": 16}, **_EXPAND_2D},
], ids=["1d", "2d"])
def test_expand_reports_each_term_s_sup_over_the_whole_phase_space_lattice(tmp_path, cfg):
    # every position node against every momentum node, not the N^n pairs
    # (x_k, xi_k) of two meshes of one shape
    path = write_cfg(tmp_path / "cfg.json", cfg)
    assert run(["--config", path, "--out", str(tmp_path / "out")]) == 0
    summary = json.loads((tmp_path / "out" / "summary.json").read_text())
    grid = make_grid(**cfg["grid"])
    n = grid.n
    x = grid.x_mesh().reshape((grid.N,) * n + (1,) * n + (n,))
    f, g = (Symbol.from_expression(cfg[key]["expression"], n) for key in ("symbol", "symbol2"))
    B = MagneticField.constant(n, 0.7 if n == 2 else 0.0)
    for l in range(2):
        full = np.abs(expansion_term(f, g, B, l)(x, grid.xi_mesh())).max()
        assert summary[f"h{l}_sup"] == pytest.approx(full, rel=1e-12)


_ORBITS_1D = {"kind": "AsymptoticLimitsPerDirection", "orbits": [
    {"label": "plus", "kind": "direction", "direction": [1.0]},
    {"label": "minus", "kind": "direction", "direction": [-1.0]}]}
_XI2 = {"expression": "xi1^2 + xi2^2", "m": 2, "rho": 1, "real": True}
_ARCTAN_1D = {"expression": "xi1^2 + arctan(x1)", "m": 2, "rho": 1, "real": True}
_TINY_RUNS = {
    "quantize": ({"grid": {"n": 2, "L": 8.0, "N": 8},
                  "field": {"components": {"12": "0.6"}},
                  "symbol": {"expression": "xi1^2 + xi2^2 + arctan(x1)*xi2", "m": 2},
                  "task": {"command": "quantize"}}, 0),
    "spectrum": ({"grid": {"n": 1, "L": 20.0, "N": 32},
                  "symbol": {"expression": "x1^2 + xi1^2", "m": 2, "real": True},
                  "task": {"command": "spectrum"}}, 0),
    "ess-spectrum": ({"grid": {"n": 1, "L": 20.0, "N": 32}, "symbol": _ARCTAN_1D,
                      "algebra": _ORBITS_1D, "task": {"command": "ess-spectrum"}}, 0),
    "gauge-check": ({"grid": {"n": 2, "L": 8.0, "N": 8},
                     "field": {"components": {"12": "1 + 1/(1+x1^2)"}},
                     "gauge": {"kind": "pair", "psi": "sin(x1)*x2"},
                     "symbol": _XI2, "task": {"command": "gauge-check"}}, 0),
    "expand": ({"grid": {"n": 1, "L": 20.0, "N": 64},
                "symbol": {"expression": "xi1 + arctan(x1)", "m": 1, "rho": 1},
                "symbol2": {"expression": "xi1 + exp(-x1^2)", "m": 1, "rho": 1},
                "task": {"command": "expand", "depth": 2}}, 0),
    "invert": ({"grid": {"n": 1, "L": 20.0, "N": 32}, "symbol": _ARCTAN_1D,
                "task": {"command": "invert", "z": -10}}, 0),
    "invert-2d": ({"grid": {"n": 2, "L": 8.0, "N": 12}, "field": {"components": {"12": "0.6"}},
                   "symbol": {"expression": "xi1^2 + xi2^2 + arctan(x1)", "m": 2, "real": True},
                   "task": {"command": "invert", "z": -20}}, 0),
    "invert-divergent": ({"grid": {"n": 1, "L": 20.0, "N": 32}, "symbol": _ARCTAN_1D,
                          "task": {"command": "invert", "z": 100.0}}, 2),
    "validate": ({"grid": {"n": 2, "L": 8.0, "N": 8},
                  "field": {"components": {"12": "1 + 1/(1+x1^2)"}},
                  "symbol": _XI2, "task": {"command": "validate"}}, 0),
}


@pytest.mark.filterwarnings("ignore:remainder fit window")
@pytest.mark.parametrize("name", sorted(_TINY_RUNS))
def test_every_command_reruns_from_its_effective_config_to_the_same_bytes(tmp_path, name):
    cfg, code = _TINY_RUNS[name]
    out1, out2 = tmp_path / "out1", tmp_path / "out2"
    assert run(["--config", write_cfg(tmp_path / "cfg.json", cfg), "--out", str(out1)]) == code
    assert run(["--config", str(out1 / "effective_config.json"), "--out", str(out2)]) == code
    artifacts = sorted(p.name for p in out1.iterdir())
    assert "summary.json" in artifacts
    assert artifacts == sorted(p.name for p in out2.iterdir())
    for artifact in artifacts:
        assert (out1 / artifact).read_bytes() == (out2 / artifact).read_bytes()
    if name == "quantize":
        grid = make_grid(2, 8.0, 8)
        A = transversal_gauge(MagneticField.constant(2, 0.6))
        f = Symbol.from_expression(cfg["symbol"]["expression"], 2, m=2)
        summary = json.loads((out1 / "summary.json").read_text())
        assert summary["dimension"] == grid.npoints
        M = quantize(f, Gauge(A, grid))
        top = float(svdvals(M.matrix)[0])
        assert summary["operator_norm"] == M.operator_norm()
        assert top <= summary["operator_norm"] <= top * (1 + 1e-9)


def test_a_grid_too_large_for_memory_is_diagnosed(tmp_path, capsys, monkeypatch):
    # a small budget on a small grid (P = 64), measured by the command's own multiple
    need = cli._PEAK_P2["quantize"] * 64 * 64
    assert cli._PEAK_P2["validate"] > cli._PEAK_P2["quantize"]
    monkeypatch.setattr(cli, "_MEMORY_BYTES", need - 1)
    cfg, _ = _TINY_RUNS["quantize"]
    out = tmp_path / "out"
    assert run(["--config", write_cfg(tmp_path / "cfg.json", cfg), "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert "n=2" in err and "N=8" in err and "P=64" in err and "memory" in err
    assert "quantize" in err and f"{cli._PEAK_P2['quantize']}*P^2" in err
    assert not (out / "summary.json").exists()
    # quantize fits its budget exactly; validate, on the same grid, does not
    monkeypatch.setattr(cli, "_MEMORY_BYTES", need)
    assert run(["--config", write_cfg(tmp_path / "cfg.json", cfg), "--out", str(out)]) == 0
    cfg, _ = _TINY_RUNS["validate"]
    out = tmp_path / "validate"
    assert run(["--config", write_cfg(tmp_path / "cfg.json", cfg), "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert "P=64" in err and "validate" in err and f"{cli._PEAK_P2['validate']}*P^2" in err
    assert not (out / "summary.json").exists()


def test_validate_maxima_by_row_blocks_are_the_whole_array_maxima():
    # P = 150 rows: two full blocks and a partial one, which holds the maximum
    rng = np.random.default_rng(5)
    a = rng.uniform(-1.0, 1.0, size=(150, 150))
    a[149, 3] = 2.0
    assert cli._blockwise_max(lambda r: np.abs(a[r]), len(a)) == np.abs(a).max() == 2.0
    a[140, 0] = np.nan
    assert np.isnan(cli._blockwise_max(lambda r: np.abs(a[r]), len(a)))


_FIELDS = {"zero": {}, "nonpoly": {"components": {"12": "1 + 0.5/(1+x1^2)"}}}
_BUMPS_2D = {"expression": "xi1^2 + xi2^2 + 0.5*arctan(x1) + 0.3*exp(-x2^2)",
             "m": 2, "rho": 1, "real": True}
_PEAK_RUNS = {
    "quantize": {"task": {"command": "quantize"}},
    "spectrum": {"task": {"command": "spectrum"}},
    "ess-spectrum": {"algebra": {"kind": "AsymptoticLimitsPerDirection", "orbits": [
                         {"label": "plus", "kind": "direction", "direction": [1.0, 0.0]}]},
                     "task": {"command": "ess-spectrum"}},
    "gauge-check": {"gauge": {"kind": "pair", "psi": "sin(x1)*x2"},
                    "task": {"command": "gauge-check"}},
    "invert": {"task": {"command": "invert", "z": -40}},
    "validate": {"task": {"command": "validate"}},
    # a remainder fit window that holds 3 momenta without widening
    "expand": {"grid": {"n": 2, "L": 4.0, "N": 32},
               "symbol": {"expression": "xi1 + arctan(x1)", "m": 1, "rho": 1},
               "symbol2": {"expression": "xi2 + exp(-x2^2)", "m": 1, "rho": 1},
               "task": {"command": "expand", "depth": 2}},
}


# 1D runs (there is no field in 1D) of the commands with 1D branches of their own
_PEAK_RUNS_1D = {
    **{command: _PEAK_RUNS[command] for command in ("quantize", "spectrum", "invert")},
    "expand": {"symbol": {"expression": "xi1 + arctan(x1)", "m": 1, "rho": 1},
               "symbol2": {"expression": "xi1 + exp(-x1^2)", "m": 1, "rho": 1},
               "task": {"command": "expand", "depth": 2}},
}


@pytest.mark.filterwarnings("ignore:remainder fit window")
@pytest.mark.parametrize("command, field",
                         [(command, field) for command in sorted(_PEAK_RUNS)
                          for field in sorted(_FIELDS)]
                         + [(command, "1d") for command in sorted(_PEAK_RUNS_1D)])
def test_each_command_peaks_within_the_multiple_of_p_squared_it_is_refused_by(
        tmp_path, command, field):
    # the traced peak of a whole CLI run, against the multiple _build_grid enforces
    if field == "1d":
        cfg = {"grid": {"n": 1, "L": 20.0, "N": 512},
               "symbol": {**_BUMPS_2D, "expression": "xi1^2 + 0.5*arctan(x1) + 0.3*exp(-x1^2)"},
               **_PEAK_RUNS_1D[command]}
    else:
        cfg = {"grid": {"n": 2, "L": 12.0, "N": 24}, "field": _FIELDS[field],
               "symbol": _BUMPS_2D, **_PEAK_RUNS[command]}
    P = cfg["grid"]["N"] ** cfg["grid"]["n"]
    path = write_cfg(tmp_path / "cfg.json", cfg)
    # one untraced run first: a lazy import (scipy.optimize in ess-spectrum)
    # would otherwise count towards the peak of whichever test runs it first
    run(["--config", path, "--out", str(tmp_path / "warm")])
    tracemalloc.start()
    try:
        code = run(["--config", path, "--out", str(tmp_path / "out")])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == (2 if command == "gauge-check" else 0)
    assert peak <= cli._PEAK_P2[command] * P ** 2


_THREAD_PROBE = """
import json, sys
from pathlib import Path
from magweyl.cli import run
out = Path(sys.argv[1])
summaries = {}
for name in sys.argv[2:]:
    assert run(["--config", str(out / name), "--out", str(out / (name + ".out"))]) in (0, 2)
    summaries[name] = json.loads((out / (name + ".out") / "summary.json").read_text())
print(json.dumps(summaries))
"""


def test_the_hermiticity_and_gauge_check_residuals_do_not_depend_on_the_blas_threads(tmp_path):
    # a threaded BLAS reduction rounds by the thread count; the sums of squares
    # take one order of their own
    grid = {"n": 2, "L": 8.0, "N": 12}
    symbol = {"expression": "xi1^2 + 0.5*xi2^2 + arctan(x1)*xi2", "m": 2, "real": True}
    field = {"components": {"12": "1 + 1/(1+x1^2)"}}
    write_cfg(tmp_path / "quantize", {"grid": grid, "field": field, "symbol": symbol,
                                      "task": {"command": "quantize"}})
    write_cfg(tmp_path / "gauge-check", {"grid": grid, "field": field, "symbol": symbol,
                                         "gauge": {"kind": "pair", "psi": "sin(x1)*x2"},
                                         "task": {"command": "gauge-check"}})
    src = str(Path(cli.__file__).parents[1])
    fields = []
    for threads in ("1", "2"):
        env = {**os.environ, "OPENBLAS_NUM_THREADS": threads,
               "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
        text = subprocess.run([sys.executable, "-c", _THREAD_PROBE, str(tmp_path),
                               "quantize", "gauge-check"], env=env, check=True,
                              capture_output=True, text=True).stdout
        quantized, check = (json.loads(text)[k] for k in ("quantize", "gauge-check"))
        fields.append((quantized["hermiticity_defect"], check["covariance_residual"],
                       check["wrong_quantization_residual"]))
    assert fields[0] == fields[1]
    assert 0.0 < fields[0][0] < 1e-12 and 0.0 < fields[0][1] < 1e-6 < fields[0][2]


def test_ess_spectrum_rejects_a_malformed_gauge_block(tmp_path, capsys):
    cfg = dict(_TINY_RUNS["ess-spectrum"][0], gauge={"kind": "nonsense"})
    assert run(["--config", write_cfg(tmp_path / "cfg.json", cfg),
                "--out", str(tmp_path / "out")]) == 1
    assert "nonsense" in capsys.readouterr().err


_MALFORMED = {
    "orbit-without-label": (dict(_TINY_RUNS["ess-spectrum"][0], algebra={"orbits": [
        {"kind": "direction", "direction": [1.0]}]}), "'label'"),
    "grid-N-not-a-number": (dict(_TINY_RUNS["spectrum"][0],
                                 grid={"n": 1, "L": 20.0, "N": [64]}), "'N'"),
    "z-not-finite": (dict(_TINY_RUNS["invert"][0],
                          task={"command": "invert", "z": float("nan")}), "'z' must be finite"),
    "z-a-list": (dict(_TINY_RUNS["invert"][0], task={"command": "invert", "z": [1]}), "'z'"),
    "m-a-list": (dict(_TINY_RUNS["spectrum"][0], symbol={"expression": "x1^2 + xi1^2",
                                                         "m": [2], "real": True}), "'m'"),
    "field-components-a-list": (dict(_TINY_RUNS["spectrum"][0],
                                     field={"components": ["12"]}), "'components'"),
    "task-a-list": (dict(_TINY_RUNS["spectrum"][0], task=["spectrum"]), "'task'"),
    "merge-tol-not-a-number": (dict(_TINY_RUNS["ess-spectrum"][0],
                                    task={"command": "ess-spectrum", "merge_tol": "x"}),
                               "'merge_tol'"),
    "gauge-A-a-number": (dict(_TINY_RUNS["quantize"][0], gauge={"kind": "explicit", "A": 5}),
                         "'A'"),
    "depth-negative": (dict(_TINY_RUNS["expand"][0], task={"command": "expand", "depth": -1}),
                       "task block 'depth'"),
    "seed-negative": (dict(_TINY_RUNS["validate"][0], task={"command": "validate", "seed": -1}),
                      "task block 'seed'"),
    "seed-option-negative": (_TINY_RUNS["validate"][0], "--seed", "--seed", "-3"),
}


@pytest.mark.parametrize("name", sorted(_MALFORMED))
def test_a_malformed_config_exits_1_with_one_error_line(tmp_path, capsys, name):
    cfg, key, *options = _MALFORMED[name]
    out = tmp_path / "out"
    assert run(["--config", write_cfg(tmp_path / "cfg.json", cfg), "--out", str(out),
                *options]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "Traceback" not in err
    assert key in err
    assert not (out / "summary.json").exists()


@pytest.mark.parametrize("label", ["a/../../escaped", "../x", "", ".", "..", "a\\b", "a\0b"])
def test_an_orbit_label_that_is_not_a_plain_file_name_is_rejected(tmp_path, capsys, label):
    # the label names eigenvalues_<label>.csv, which must stay inside --out
    cfg = dict(_TINY_RUNS["ess-spectrum"][0], algebra={"orbits": [
        {"label": "plus", "kind": "direction", "direction": [1.0]},
        {"label": label, "kind": "direction", "direction": [-1.0]}]})
    out = tmp_path / "deep" / "out"
    assert run(["--config", write_cfg(tmp_path / "cfg.json", cfg), "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: algebra orbit ") and err.count("\n") == 1
    assert "'label'" in err and repr(label) in err
    assert sorted(p.name for p in tmp_path.rglob("*")) == ["cfg.json", "deep",
                                                            "effective_config.json", "out"]


_GRID_1D = {"n": 1, "L": 20.0, "N": 16}
# small valid 1D configs, together holding every kind of value a config has
_MUTATION_BASES = {
    "quantize": {"grid": _GRID_1D, "symbol": _ARCTAN_1D,
                 "gauge": {"kind": "explicit", "A": ["arctan(x1)"]},
                 "task": {"command": "quantize"}},
    "spectrum": {"grid": _GRID_1D, "field": {"components": {}}, "symbol": _ARCTAN_1D,
                 "output": {"eigenvalue_format": ".17g"}, "task": {"command": "spectrum"}},
    "ess-spectrum": {"grid": _GRID_1D, "symbol": _ARCTAN_1D,
                     "algebra": {"kind": "AsymptoticLimitsPerDirection", "orbits": [
                         {"label": "plus", "kind": "direction", "direction": [1.0]},
                         {"label": "shifted", "kind": "translate", "shift": [0.5]}]},
                     "task": {"command": "ess-spectrum", "merge_tol": 0.1}},
    "gauge-check": {"grid": _GRID_1D, "symbol": _ARCTAN_1D,
                    "gauge": {"kind": "pair", "psi": "0.5*x1^2"},
                    "task": {"command": "gauge-check", "tolerance": 1e-6}},
    "invert": {"grid": _GRID_1D, "symbol": _ARCTAN_1D,
               "task": {"command": "invert", "z": -10, "tolerance": 1e-6}},
    "validate": {"grid": _GRID_1D, "symbol": _ARCTAN_1D,
                 "task": {"command": "validate", "seed": 1}},
}


def _config_paths(node, prefix=()):
    """The path of every entry of a config: block, key, list index, ..."""
    items = (node.items() if isinstance(node, dict)
             else enumerate(node) if isinstance(node, list) else ())
    for key, value in items:
        yield prefix + (key,)
        yield from _config_paths(value, prefix + (key,))


@st.composite
def _mutated_configs(draw):
    """A base config with one entry dropped, of another type, not finite,
    or with the wrong number of components; and the path of that entry."""
    config = copy.deepcopy(_MUTATION_BASES[draw(st.sampled_from(sorted(_MUTATION_BASES)))])
    path = draw(st.sampled_from(list(_config_paths(config))))
    parent = functools.reduce(operator.getitem, path[:-1], config)
    value = parent[path[-1]]
    mutation = draw(st.sampled_from(["drop", "type", "nonfinite", "count"]))
    if mutation == "drop":
        del parent[path[-1]]
    elif mutation == "type":
        parent[path[-1]] = draw(st.sampled_from(
            [v for v in (5, 2.5, "x", [1.0], {}, None, True) if type(v) is not type(value)]))
    elif mutation == "nonfinite":
        parent[path[-1]] = draw(st.sampled_from([math.nan, math.inf, -math.inf]))
    elif isinstance(value, list):
        parent[path[-1]] = value + value[-1:] if draw(st.booleans()) else value[:-1]
    elif isinstance(value, dict):
        parent[path[-1]] = {**value, "12": "x1"}
    else:
        parent[path[-1]] = [value, value]
    return config, path


def test_every_mutation_base_runs():
    for name, config in _MUTATION_BASES.items():
        with tempfile.TemporaryDirectory() as tmp:
            path = write_cfg(Path(tmp) / "cfg.json", config)
            assert run(["--config", path, "--out", str(Path(tmp) / "out")]) == 0, name


@settings(max_examples=200, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(case=_mutated_configs())
def test_a_mutated_config_never_escapes_and_exit_1_names_its_block_and_key(capsys, case):
    # a mutation may be harmless (exit 0) or fail a check (exit 2); an error
    # is one line that names the block and the innermost key of the entry
    config, path = case
    with tempfile.TemporaryDirectory() as tmp:
        cfg = write_cfg(Path(tmp) / "cfg.json", config)
        code = run(["--config", cfg, "--out", str(Path(tmp) / "out")])
        err = capsys.readouterr().err
        assert code in (0, 1, 2)
        assert "Traceback" not in err
        if code == 1:
            key = [k for k in path if isinstance(k, str)][-1]
            assert err.startswith("error: ") and err.count("\n") == 1, err
            assert re.search(rf"\b{re.escape(path[0])}\b", err), err
            assert re.search(rf"\b{re.escape(key)}\b", err), err
            assert not (Path(tmp) / "out" / "summary.json").exists()


def test_shifted_gauge_of_a_polynomial_psi_has_a_degree():
    grid = make_grid(2, 12.0, 12)
    A = transversal_gauge(MagneticField.constant(2, 0.7))
    _, shifted = cli._psi_pair({"gauge": {"psi": "0.3*x1*x2"}}, A, 2)
    assert shifted.degree == 1
    C = Gauge(shifted, grid).circulation
    C_nominal = Gauge(dataclasses.replace(shifted, degree=None), grid).circulation
    assert np.abs(C - C_nominal).max() <= 1e-13 * np.abs(C_nominal).max()
    _, shifted = cli._psi_pair({"gauge": {"psi": "sin(x1)*x2"}}, A, 2)
    assert shifted.degree is None


@pytest.mark.parametrize("field", ["nonzero", "zero-1d", "zero-2d", "explicit-1d"])
def test_validate_builds_the_circulation_once_and_only_for_a_nonzero_gauge(
        tmp_path, monkeypatch, field):
    quantize_module = importlib.import_module("magweyl.quantize")
    original = quantize_module.circulation_matrix
    calls = []

    def recording(A, grid, *args, **kwargs):
        calls.append(A)
        return original(A, grid, *args, **kwargs)

    # wherever the CLI can reach the builder from
    monkeypatch.setattr(quantize_module, "circulation_matrix", recording)
    monkeypatch.setattr(cli, "circulation_matrix", recording, raising=False)
    cfg = {"nonzero": _TINY_RUNS["validate"][0],
           "zero-1d": {"grid": {"n": 1, "L": 20.0, "N": 32}, "symbol": _ARCTAN_1D,
                       "task": {"command": "validate"}},
           "zero-2d": {"grid": {"n": 2, "L": 8.0, "N": 8}, "symbol": _XI2,
                       "task": {"command": "validate"}},
           # a 1D potential is a pure gauge: its phase is u(y) - u(x), no C
           "explicit-1d": {"grid": {"n": 1, "L": 20.0, "N": 32}, "symbol": _ARCTAN_1D,
                           "gauge": {"kind": "explicit", "A": ["arctan(x1)"]},
                           "task": {"command": "validate"}}}[field]
    out = tmp_path / "out"
    assert run(["--config", write_cfg(tmp_path / "cfg.json", cfg), "--out", str(out),
                "--threads", "2"]) == 0
    assert len(calls) == (1 if field == "nonzero" else 0)
    checks = json.loads((out / "summary.json").read_text())["checks"]
    assert sorted(checks) == ["cocycle_identity", "cocycle_normalization", "hermiticity",
                              "round_trip"]
    assert all(c["passed"] for c in checks.values())


def _artifact_digest_tool():
    path = Path(__file__).resolve().parents[1] / "tools" / "artifact_digest.py"
    spec = importlib.util.spec_from_file_location("artifact_digest", path)
    tool = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tool)
    return tool


def test_the_artifact_digest_tool_runs_every_command_with_pinned_exit_codes():
    tool = _artifact_digest_tool()
    commands = {cfg["task"]["command"] for cfg in tool.CONFIGS.values()
                if isinstance(cfg["task"], dict)}
    assert commands == set(cli._DISPATCH)
    exits = {path.split("/")[0]: code for path, code in tool.digests(cli)
             if path.endswith("/exit")}
    expect = dict.fromkeys(tool.CONFIGS, "exit=0")
    expect.update({"bad-gauge-kind": "exit=1", "expand-2d-no-window": "exit=1",
                   "invert-1d-divergent": "exit=2"})
    expect.update(dict.fromkeys(["bad-z-list", "bad-m-list", "bad-field-components-list",
                                 "bad-task-list", "bad-merge-tol", "bad-gauge-A"], "exit=1"))
    assert exits == expect
