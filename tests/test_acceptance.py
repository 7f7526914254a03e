"""End-to-end acceptance gate.

Each test covers one numbered release criterion and prints a single
PASS/FAIL line with the measured quantities before asserting.  Tolerances
are pinned; runtimes fit the stated budgets on one core.
"""

import json

import numpy as np
import pytest

from magweyl.cli import run as cli_run
from magweyl.expressions import evaluate, parse_expression
from magweyl.grid import make_grid
from magweyl.inversion import (
    ResolventFamily,
    neumann_invert,
    norm_Rz,
    order_check_inverse,
)
from magweyl.magnetics import (
    FluxQuadrature,
    MagneticField,
    VectorPotential,
    flux_triangle,
    gamma_B,
    omega_cocycle,
    transversal_gauge,
)
from magweyl.moyal import expansion_sum, expansion_term, remainder_order
from magweyl.quantize import (
    Gauge,
    KernelFunction,
    quantize,
    rep_A,
    twisted_product,
    wrong_quantize,
)
from magweyl.spectral import (
    compare_bulk_vs_essential,
    essential_spectrum,
    landau_reference,
    spectrum,
)
from magweyl.symbols import CoefficientAlgebra, QuasiOrbit, Symbol, seminorm

QUAD16 = FluxQuadrature(order=16)

# ground state of -u'' - 2 e^{-x^2} u, frozen from an independent shooting
# computation (decaying-tail integration, bisection on u'(0))
WELL_GROUND_STATE = -0.9547799547653671


def _report(num, name, ok, detail=""):
    print(f"[criterion {num:02d}] {name}: {'PASS' if ok else 'FAIL'}  {detail}")


def _psi_and_grad(text, n):
    """Exact scalar gauge function and its gradient from an expression."""
    ast = parse_expression(text, n_dim=n)
    grads = [ast.diff(f"x{j + 1}") for j in range(n)]
    zero = np.zeros(1)

    def psi(x):
        x = np.asarray(x, dtype=float)
        return np.real(evaluate(ast, x=x, xi=np.zeros_like(x)))

    def grad(x):
        x = np.asarray(x, dtype=float)
        cols = [np.real(evaluate(g, x=x, xi=np.zeros_like(x))) + 0.0 * x[..., 0]
                for g in grads]
        return np.stack(cols, axis=-1)

    return psi, grad


def test_criterion_01_gauge_covariance():
    b = 0.8
    g = make_grid(2, 10.0, 24)
    const_A = VectorPotential.from_expressions(2, ["-0.4*x2", "0.4*x1"])
    # d/dx1 (b*x1 + arctan(x1)) = b + 1/(1+x1^2): a closed-form gauge for the
    # variable field
    var_A = VectorPotential.from_expressions(2, ["0", "0.8*x1 + arctan(x1)"])
    pairs = [(const_A, "sin(x1)*x2"), (const_A, "0.5*x1*x2"),
             (var_A, "cos(x2) + 0.3*x1")]
    symbols = [
        Symbol.from_expression("xi1^2 + xi2^2", 2, m=2, real=True),
        Symbol.from_expression("jap(xi1)", 2, m=1, real=True),
        Symbol.from_expression("exp(-xi1^2-xi2^2)*1/(1+x1^2)", 2, m=0),
        Symbol.from_expression("arctan(x1) + xi2", 2, m=1, real=True),
        Symbol.from_expression("sin(x1)*exp(-xi1^2-xi2^2)", 2, m=0),
    ]
    from magweyl.magnetics import gauge_shift
    worst = 0.0
    worst_wrong = 0.0
    X = g.x_flat()
    for A1, psi_text in pairs:
        psi, grad = _psi_and_grad(psi_text, 2)
        # each potential gets its own gauge, so A2's phase comes from its own
        # quadrature, never from A1's circulation plus psi(y) - psi(x)
        G1 = Gauge(A1, g)
        G2 = Gauge(gauge_shift(A1, grad_psi=grad), g)
        phase = np.exp(1j * psi(X))
        for f in symbols:
            M1 = quantize(f, G1).matrix
            M2 = quantize(f, G2).matrix
            conj = phase[:, None] * M1 * np.conj(phase)[None, :]
            res = np.linalg.norm(conj - M2) / np.linalg.norm(M2)
            worst = max(worst, res)
        # negative control on one xi-dependent symbol per pair
        W1 = wrong_quantize(symbols[0], G1).matrix
        W2 = wrong_quantize(symbols[0], G2).matrix
        wres = (np.linalg.norm(phase[:, None] * W1 * np.conj(phase)[None, :] - W2)
                / np.linalg.norm(W2))
        worst_wrong = max(worst_wrong, wres)
    ok = worst <= 1e-6 and worst_wrong >= 1e-2
    _report(1, "gauge covariance", ok,
            f"worst residual {worst:.3e} (<= 1e-6), "
            f"wrong-quantization {worst_wrong:.3e} (>= 1e-2)")
    assert ok


def test_criterion_02_cocycle_identity():
    B = MagneticField.from_expressions(2, {(1, 2): "1 + 1/(1+x1^2)"})
    rng = np.random.default_rng(2024)
    q, x, y, z = rng.uniform(-1.0, 1.0, size=(4, 200, 2))
    lhs = (omega_cocycle(B, q, x, y, QUAD16)
           * omega_cocycle(B, q, x + y, z, QUAD16))
    rhs = (omega_cocycle(B, q + x, y, z, QUAD16)
           * omega_cocycle(B, q, x, y + z, QUAD16))
    residual = float(np.abs(lhs - rhs).max())
    ones = omega_cocycle(B, q, x, np.zeros_like(y), QUAD16)
    normalized = bool(np.all(ones == 1.0))
    ok = residual <= 1e-8 and normalized
    _report(2, "flux 2-cocycle", ok,
            f"identity residual {residual:.3e} (<= 1e-8), "
            f"normalization exact: {normalized}")
    assert ok


def test_criterion_03_flux_gamma_consistency():
    fields = [
        MagneticField.from_expressions(2, {(1, 2): "x1*x2"}),
        MagneticField.from_expressions(2, {(1, 2): "tanh(x1) + 0.5*tanh(x2)"}),
    ]
    rng = np.random.default_rng(3)
    worst = 0.0
    for B in fields:
        x, y, z = rng.uniform(-1.5, 1.5, size=(3, 100, 2))
        lhs = gamma_B(B, x, y, z, QUAD16)
        rhs = flux_triangle(B, x - y - z, x + y - z, x - y + z, QUAD16)
        worst = max(worst, float(np.abs(lhs - rhs).max()))
    ok = worst <= 1e-8
    _report(3, "gamma_B vs triangle flux", ok, f"worst {worst:.3e} (<= 1e-8)")
    assert ok


def test_criterion_04_expansion():
    # closed forms for the first two expansion orders
    f = Symbol.from_expression("x1^2 * xi1", 1, m=1)
    h = Symbol.from_expression("sin(x1) + xi1^2", 1, m=2)
    B1 = MagneticField.from_expressions(1, {})
    x0 = np.array([[0.7]])
    xi0 = np.array([[0.4]])
    h0_err = abs(complex(expansion_term(f, h, B1, 0).fn(x0, xi0)[0])
                 - (0.7**2 * 0.4) * (np.sin(0.7) + 0.16))
    pb = (2 * 0.7 * 0.4) * (2 * 0.4) - (0.7**2) * np.cos(0.7)
    h1_err = abs(complex(expansion_term(f, h, B1, 1).fn(x0, xi0)[0]) - 0.5j * pb)
    closed_ok = h0_err <= 1e-10 and h1_err <= 1e-10

    # magnetic commutator of the momentum coordinates at constant field b:
    # xi1 # xi2 - xi2 # xi1 = +i B_12 (sign convention: magweyl.quantize
    # module docstring)
    b = 0.7
    Bc = MagneticField.constant(2, b)
    f1 = Symbol.from_expression("xi1", 2, m=1)
    f2 = Symbol.from_expression("xi2", 2, m=1)
    pt_x = np.array([[0.3, -0.2]])
    pt_xi = np.array([[0.1, 0.5]])
    comm = complex((expansion_sum(f1, f2, Bc, 3).fn(pt_x, pt_xi)
                    - expansion_sum(f2, f1, Bc, 3).fn(pt_x, pt_xi))[0])
    comm_err = abs(comm - 1j * b)
    comm_ok = comm_err <= 1e-6

    # the same sign at operator level, independent of the expansion:
    # [Op^A(xi1), Op^A(xi2)] u = i b u in the symmetric and a Landau gauge;
    # the opposite sign would miss by 2b = 1.4
    g2 = make_grid(2, 12.0, 24)
    X = g2.x_flat()
    u = np.exp(-0.5 * np.sum(X**2, axis=-1))
    gauges = {"symmetric": transversal_gauge(Bc),
              "Landau": VectorPotential.from_expressions(2, ["0", f"{b}*x1"])}
    probe_err = {}
    for name, A in gauges.items():
        gauge = Gauge(A, g2)
        M1 = quantize(f1, gauge).matrix
        M2 = quantize(f2, gauge).matrix
        comm_u = M1 @ (M2 @ u) - M2 @ (M1 @ u)
        probe_err[name] = float(np.abs(comm_u - 1j * b * u).max())
    probe_ok = max(probe_err.values()) <= 1e-3

    # remainder decay fits on the two catalog pairs
    g = make_grid(1, 12.8, 512)
    G0 = Gauge(VectorPotential.zero(1), g)
    fa = Symbol.from_expression(
        "(1+0.5*sin(1.3*x1+0.7)*exp(-x1^2))*jap(xi1)", 1, m=1)
    fb = Symbol.from_expression(
        "(1-0.3*sin(0.9*x1-0.4)*exp(-x1^2))*jap(xi1)", 1, m=1)
    fit2 = remainder_order(fa, fb, B1, G0, depth=2)  # expect 1+1-2 = 0
    fit1 = remainder_order(fa, fb, B1, G0, depth=1)  # expect 1+1-1 = 1
    slopes_ok = abs(fit2.slope - 0.0) <= 0.3 and abs(fit1.slope - 1.0) <= 0.3

    ok = closed_ok and comm_ok and probe_ok and slopes_ok
    _report(4, "product expansion", ok,
            f"h0 err {h0_err:.2e}, h1 err {h1_err:.2e} (<= 1e-10); "
            f"commutator {comm:.6g} vs +ib = {1j * b:.6g}, "
            f"err {comm_err:.3e} (<= 1e-6); "
            f"operator probe err {probe_err['symmetric']:.3e} symmetric, "
            f"{probe_err['Landau']:.3e} Landau (<= 1e-3); "
            f"slopes {fit2.slope:+.3f} (0 +/- 0.3), {fit1.slope:+.3f} (1 +/- 0.3)")
    assert ok


def test_criterion_05_neumann_inversion():
    g = make_grid(1, 20.0, 128)
    G0 = Gauge(VectorPotential.zero(1), g)
    f = Symbol.from_expression("xi1^2 + arctan(x1)", 1, m=2, real=True)
    z = -10.0
    res = neumann_invert(f, z, G0)
    Mf = quantize(f, G0).matrix - z * np.eye(g.npoints)
    dense = np.linalg.inv(Mf)
    from scipy.linalg import svdvals
    dist = float(svdvals(res.matrix - dense)[0])
    zs = [-5.0, -10.0, -20.0, -40.0]
    norms = [norm_Rz(f, zz, G0) for zz in zs]
    decreasing = all(a > b for a, b in zip(norms, norms[1:]))
    slope = order_check_inverse(res.symbol, g)
    ok = (res.residual <= 1e-6 and dist <= 1e-5 and decreasing
          and abs(slope + 2.0) <= 0.3)
    _report(5, "Neumann inversion", ok,
            f"residual {res.residual:.3e} (<= 1e-6), dense distance "
            f"{dist:.3e} (<= 1e-5), norm_Rz decreasing: {decreasing}, "
            f"inverse order slope {slope:+.3f} (-2 +/- 0.3)")
    assert ok


def test_criterion_06_resolvent_family():
    g = make_grid(1, 20.0, 128)
    f = Symbol.from_expression("xi1^2 + arctan(x1)", 1, m=2, real=True)
    fam = ResolventFamily(f, Gauge(VectorPotential.zero(1), g))
    zset = [-10.0, -20.0, -3.0 + 1.0j, -3.0 - 1.0j]
    for z in zset:
        fam.add(z)
    req = max(fam.resolvent_equation_residual(z1, z2)
              for z1 in zset for z2 in zset if z1 != z2)
    adj = fam.adjoint_symmetry_residual(-3.0 + 1.0j)
    ok = req <= 1e-7 and adj <= 1e-9
    _report(6, "resolvent family", ok,
            f"resolvent-equation residual {req:.3e} (<= 1e-7), "
            f"adjoint symmetry {adj:.3e} (<= 1e-9)")
    assert ok


def test_criterion_07_landau_levels():
    b = 1.0
    g = make_grid(2, 16.0, 48)
    f = Symbol.from_expression("xi1^2 + xi2^2", 2, m=2, real=True)
    A = VectorPotential.from_expressions(2, ["-0.5*x2", "0.5*x1"])
    res = spectrum(quantize(f, Gauge(A, g)), localization=True)
    # keep interior-localized states (edge states fill the spectral gaps)
    vals = res.eigenvalues[res.localization >= 0.7]
    clusters = []
    start = 0
    for i in range(1, len(vals)):
        if vals[i] - vals[i - 1] > 0.5:
            clusters.append(vals[start:i])
            start = i
    clusters.append(vals[start:])
    means = [float(c.mean()) for c in clusters[:3]]
    ref = landau_reference(b)[:3]
    rel = np.abs(np.array(means) - ref) / ref
    ok = len(means) == 3 and bool(np.all(rel <= 0.01))
    _report(7, "Landau levels", ok,
            f"cluster means {np.round(means, 4).tolist()} vs {ref.tolist()}, "
            f"worst rel err {rel.max():.4%} (<= 1%)")
    assert ok


def test_criterion_08_essential_spectrum():
    g = make_grid(1, 20.0, 128)
    B0 = MagneticField.from_expressions(1, {})
    algebra = CoefficientAlgebra(
        kind="AsymptoticLimitsPerDirection",
        quasi_orbits=(QuasiOrbit("minus", "direction", direction=(-1.0,)),
                      QuasiOrbit("plus", "direction", direction=(1.0,))))
    f1 = Symbol.from_expression("xi1^2 + arctan(x1)", 1, m=2, real=True)
    edge1 = essential_spectrum(f1, algebra, B0, g).lower_edge
    edge1_ok = abs(edge1 - (-np.pi / 2.0)) <= 0.02 * (np.pi / 2.0)

    f2 = Symbol.from_expression("xi1^2 - 2*exp(-x1^2)", 1, m=2, real=True)
    edge2 = essential_spectrum(f2, algebra, B0, g).lower_edge
    edge2_ok = abs(edge2) <= 0.02
    cmp = compare_bulk_vs_essential(f2, algebra, B0, g)
    below = cmp.candidates[cmp.candidates < -0.1]
    bound_ok = (below.size >= 1 and cmp.candidates_localized
                and abs(below.min() - WELL_GROUND_STATE)
                <= 0.02 * abs(WELL_GROUND_STATE))
    ok = edge1_ok and edge2_ok and bound_ok
    _report(8, "essential spectrum", ok,
            f"arctan edge {edge1:.6f} vs {-np.pi / 2.0:.6f} (2%), "
            f"well edge {edge2:.2e} (|.| <= 0.02), bound state "
            f"{below.min() if below.size else float('nan'):.6f} vs "
            f"{WELL_GROUND_STATE:.6f} (2%)")
    assert ok


def _kernel(grid, seed, cq, cv):
    rng = np.random.default_rng(seed)
    c = rng.normal(size=3)

    def fn(q, v):
        q = np.asarray(q)
        v = np.asarray(v)
        qq = (q**2).sum(axis=-1)
        vv = (v**2).sum(axis=-1)
        osc = c[0] + 0.4j * c[1] * np.sin(v[..., 0]) + 0.3 * np.cos(q[..., 0])
        return (1 + osc) * np.exp(-cv * vv - cq * qq) * (c[2] + 1.5)

    return KernelFunction(grid, fn)


def test_criterion_09_partial_fourier_intertwining():
    residuals = []
    # four 1-D pairs at zero field
    g1 = make_grid(1, 12.0, 32)
    B1 = MagneticField.from_expressions(1, {})
    gauge1 = Gauge(VectorPotential.zero(1), g1)
    for seed in (11, 12, 13, 14):
        F = _kernel(g1, seed, 0.5, 0.5)
        G = _kernel(g1, seed + 100, 0.5, 0.5)
        P = rep_A(F, gauge1).matrix @ rep_A(G, gauge1).matrix
        M = rep_A(twisted_product(F, G, B1, g1), gauge1).matrix
        residuals.append(float(np.abs(M - P).max() / np.abs(P).max()))
    # one 2-D magnetic pair
    g2 = make_grid(2, 10.0, 12)
    B2 = MagneticField.constant(2, 0.7)
    gauge2 = Gauge(VectorPotential.from_expressions(2, ["-0.35*x2", "0.35*x1"]), g2)
    F = _kernel(g2, 21, 1.2, 1.0)
    G = _kernel(g2, 22, 1.2, 1.0)
    P = rep_A(F, gauge2).matrix @ rep_A(G, gauge2).matrix
    M = rep_A(twisted_product(F, G, B2, g2), gauge2).matrix
    residuals.append(float(np.abs(M - P).max() / np.abs(P).max()))
    worst = max(residuals)
    ok = worst <= 1e-7
    _report(9, "partial Fourier intertwining", ok,
            f"worst of 5 pair residuals {worst:.3e} (<= 1e-7)")
    assert ok


def _bounded_symbol(seed):
    rng = np.random.default_rng(seed)
    c = rng.uniform(-1.0, 1.0, size=6)
    a = rng.uniform(0.5, 1.5, size=4)
    expr = (f"({c[0]:.6f} + {c[1]:.6f}*sin({a[0]:.6f}*x1)"
            f" + {c[2]:.6f}*cos({a[1]:.6f}*x2)*1/(1+x1^2))"
            f" * ({c[3]:.6f} + {c[4]:.6f}*exp(-(xi1^2+xi2^2))"
            f" + {c[5]:.6f}*sin({a[2]:.6f}*xi1)*cos({a[3]:.6f}*xi2))")
    return Symbol.from_expression(expr, 2, m=0, rho=0, delta=0)


def _cv_constant(N):
    g = make_grid(2, 8.0, N)
    gauge = Gauge(VectorPotential.from_expressions(2, ["-0.25*x2", "0.25*x1"]), g)
    seminorms = []
    norms = []
    orders = [(al, ax) for al in ((0, 0), (1, 0), (0, 1), (1, 1))
              for ax in ((0, 0), (1, 0), (0, 1), (1, 1))]
    for seed in range(30):
        f = _bounded_symbol(seed)
        s = max(seminorm(f, al, ax, g) for al, ax in orders)
        seminorms.append(s)
        norms.append(quantize(f, gauge).operator_norm())
    s = np.array(seminorms)
    n = np.array(norms)
    return float((s * n).sum() / (s * s).sum())


def test_criterion_10_calderon_vaillancourt_surrogate():
    c1 = _cv_constant(12)
    c2 = _cv_constant(24)
    drift = abs(c2 / c1 - 1.0)
    ok = drift <= 0.2
    _report(10, "norm-vs-seminorm constant", ok,
            f"C(N=12) = {c1:.4f}, C(N=24) = {c2:.4f}, drift {drift:.2%} (<= 20%)")
    assert ok


def test_criterion_11_determinism(tmp_path):
    cfg = {
        "grid": {"n": 2, "L": 8.0, "N": 12},
        "field": {"components": {"12": "0.6"}},
        "symbol": {"expression": "xi1^2 + xi2^2 + 1/(1+x1^2)", "m": 2,
                   "rho": 1, "real": True},
        "task": {"command": "spectrum"},
    }
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    outs = []
    for name, threads in (("a", "1"), ("b", "1"), ("c", "4")):
        out = tmp_path / name
        code = cli_run(["--config", str(path), "--out", str(out),
                        "--threads", threads])
        assert code == 0
        outs.append((out / "eigenvalues.csv").read_bytes()
                    + (out / "summary.json").read_bytes())
    ok = outs[0] == outs[1] == outs[2]
    _report(11, "byte-identical determinism", ok,
            "re-run and --threads variation reproduce outputs exactly")
    assert ok
