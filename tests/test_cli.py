"""Command-line driver: configs, outputs, determinism, exit codes."""

import dataclasses
import json

import numpy as np
import pytest
from scipy.linalg import svdvals

from magweyl import cli
from magweyl.cli import run
from magweyl.grid import make_grid
from magweyl.magnetics import MagneticField, transversal_gauge
from magweyl.quantize import circulation_matrix, quantize
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
    assert "thread_independence" in checks
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
    assert "sin(x1" in capsys.readouterr().err or True


def test_unknown_command_rejected(tmp_path, capsys):
    cfg = write_cfg(tmp_path / "cfg.json",
                    dict(SPECTRUM_CFG, task={"command": "frobnicate"}))
    assert run(["--config", cfg, "--out", str(tmp_path / "out")]) == 1
    assert "command" in capsys.readouterr().err


def test_expand_with_an_empty_fit_window_is_diagnosed(tmp_path, capsys):
    # at L=8, N=16 no momentum node lies in [1.5, 0.25 * xi_max]
    cfg = write_cfg(tmp_path / "cfg.json", {
        "grid": {"n": 2, "L": 8.0, "N": 16},
        "field": {"components": {"12": "0.7"}},
        "symbol": {"expression": "xi1 + arctan(x1)", "m": 1, "rho": 1},
        "symbol2": {"expression": "xi2 + exp(-x2^2)", "m": 1, "rho": 1},
        "task": {"command": "expand", "depth": 2},
    })
    assert run(["--config", cfg, "--out", str(tmp_path / "out")]) == 1
    err = capsys.readouterr().err
    assert "Traceback" not in err
    assert "window" in err and "N=16" in err and "L=8.0" in err


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
        assert summary["operator_norm"] == float(svdvals(quantize(f, A, grid).matrix)[0])


def test_a_grid_too_large_for_memory_is_diagnosed(tmp_path, capsys, monkeypatch):
    # a small budget on a small grid: P = 64 needs 56 * 64^2 bytes
    monkeypatch.setattr(cli, "_MEMORY_BYTES", 56 * 64 * 64 - 1)
    cfg, _ = _TINY_RUNS["quantize"]
    out = tmp_path / "out"
    assert run(["--config", write_cfg(tmp_path / "cfg.json", cfg), "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert "n=2" in err and "N=8" in err and "P=64" in err and "memory" in err
    assert not (out / "summary.json").exists()
    monkeypatch.setattr(cli, "_MEMORY_BYTES", 56 * 64 * 64)
    assert run(["--config", write_cfg(tmp_path / "cfg.json", cfg), "--out", str(out)]) == 0


def test_ess_spectrum_rejects_a_malformed_gauge_block(tmp_path, capsys):
    cfg = dict(_TINY_RUNS["ess-spectrum"][0], gauge={"kind": "nonsense"})
    assert run(["--config", write_cfg(tmp_path / "cfg.json", cfg),
                "--out", str(tmp_path / "out")]) == 1
    assert "nonsense" in capsys.readouterr().err


def test_shifted_gauge_of_a_polynomial_psi_has_a_degree():
    grid = make_grid(2, 12.0, 12)
    A = transversal_gauge(MagneticField.constant(2, 0.7))
    _, shifted = cli._psi_pair({"gauge": {"psi": "0.3*x1*x2"}}, A, 2)
    assert shifted.degree == 1
    C = circulation_matrix(shifted, grid)
    C_nominal = circulation_matrix(dataclasses.replace(shifted, degree=None), grid)
    assert np.abs(C - C_nominal).max() <= 1e-13 * np.abs(C_nominal).max()
    _, shifted = cli._psi_pair({"gauge": {"psi": "sin(x1)*x2"}}, A, 2)
    assert shifted.degree is None
