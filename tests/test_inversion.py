"""Certified inversion, regularizers, resolvent families."""

import tracemalloc

import numpy as np
import pytest
from scipy.linalg import svdvals

from magweyl.grid import make_grid
from magweyl.inversion import (
    DivergenceError,
    EllipticityError,
    Regularizer,
    ResolventFamily,
    SERIES_TOL,
    affiliated_calculus,
    _reciprocal_symbol,
    _sampled_inf,
    build_regularizer,
    certified_terms,
    inversion_residual,
    neumann_invert,
    norm_Rz,
    order_check_inverse,
)
from magweyl.magnetics import MagneticField, VectorPotential, transversal_gauge
from magweyl.quantize import Gauge, MagneticOperator, SampledSymbol, dequantize, quantize
from magweyl.symbols import Symbol

GRID = make_grid(1, 20.0, 128)
A0 = VectorPotential.zero(1)
G0 = Gauge(A0, GRID)
ARCTAN = Symbol.from_expression("xi1^2 + arctan(x1)", 1, m=2, real=True)
# the benchmark's invert symbol, zero field
BUMPS_2D = Symbol.from_expression("xi1^2 + xi2^2 + 0.5*arctan(x1) + 0.3*exp(-x2^2)", 2,
                                  m=2, real=True)
ARCTAN_2D = Symbol.from_expression("xi1^2 + xi2^2 + arctan(x1)", 2, m=2, real=True)


def _const_gauge(b, grid):
    return Gauge(transversal_gauge(MagneticField.constant(2, b)), grid)


def test_arctan_inversion_small_z():
    z = -10.0
    res = neumann_invert(ARCTAN, z, G0)
    assert res.residual <= 1e-8
    # the quantized inverse matches the dense matrix inverse
    Mf = quantize(ARCTAN, G0).matrix - z * np.eye(GRID.npoints)
    dense = np.linalg.inv(Mf)
    rel = np.abs(res.matrix - dense).max() / np.abs(dense).max()
    assert rel <= 1e-8
    assert res.norm_R < 1.0


def test_norm_Rz_decreases_with_distance():
    zs = [-5.0, -10.0, -20.0, -40.0]
    norms = [norm_Rz(ARCTAN, z, G0) for z in zs]
    assert all(a > b for a, b in zip(norms, norms[1:]))


def test_inverse_has_reduced_order():
    res = neumann_invert(ARCTAN, -10.0, G0)
    slope = order_check_inverse(res.symbol, GRID)
    # the inverse of an order-2 elliptic symbol has order about -2
    assert slope == pytest.approx(-2.0, abs=0.3)


def test_inverse_order_reduction():
    g = make_grid(1, 6.4, 256)
    f = Symbol.from_expression("jap(xi1)", 1, m=1, real=True)
    res = neumann_invert(f, -5.0, Gauge(A0, g))
    slope = order_check_inverse(res.symbol, g)
    # the inverse of an order-1 elliptic symbol has order about -1
    assert -1.4 <= slope <= -0.6


@pytest.mark.parametrize("n, N, nodes", [(1, 4, 0), (2, 8, 1)])
def test_order_check_rejects_a_window_of_fewer_than_two_momenta(n, N, nodes):
    g = make_grid(n, 6.0, N)
    flat = SampledSymbol(g, np.eye(g.npoints, dtype=complex))
    with pytest.raises(ValueError, match=rf"holds {nodes} momentum node\(s\) at N={N}, L=6.0"):
        order_check_inverse(flat, g)


def test_build_regularizer_round_trip():
    g = make_grid(1, 6.4, 64)
    reg = build_regularizer(2.0, Gauge(A0, g))
    assert reg.m == 2.0
    assert reg.lam >= 1.0
    Mp = quantize(reg.r_plus, Gauge(A0, g)).matrix
    Mm = quantize(reg.r_minus, Gauge(A0, g)).matrix
    err = np.abs(Mp @ Mm - np.eye(g.npoints)).max()
    assert err < 1e-7
    # m = 0 degenerates to the constant 1
    triv = build_regularizer(0.0, Gauge(A0, g))
    assert triv.r_plus is triv.r_minus


def test_build_regularizer_negative_order():
    g = make_grid(1, 6.4, 64)
    reg = build_regularizer(-2.0, Gauge(A0, g))
    pos = build_regularizer(2.0, Gauge(A0, g))
    assert reg.m == -2.0
    # r_plus is the inverse of p_{2, lambda}, of order -2; r_minus is p itself
    assert isinstance(reg.r_minus, Symbol) and reg.r_minus.m == 2.0
    assert order_check_inverse(reg.r_plus, g) == pytest.approx(-2.0, abs=0.3)
    np.testing.assert_array_equal(reg.r_plus.table, pos.r_minus.table)
    Mp = quantize(reg.r_plus, Gauge(A0, g)).matrix
    Mm = quantize(reg.r_minus, Gauge(A0, g)).matrix
    assert np.abs(Mp @ Mm - np.eye(g.npoints)).max() < 1e-7


def test_resolvent_family_identity_and_adjoint():
    fam = ResolventFamily(ARCTAN, G0)
    zs = [-10.0, -3.0 + 1.0j, 2.0 + 0.5j]
    for z in zs:
        res = fam.add(z)
        assert res.residual <= 1e-7
    assert fam.resolvent_equation_residual(-10.0, -3.0 + 1.0j) <= 1e-7
    assert fam.adjoint_symmetry_residual(-3.0 + 1.0j) <= 1e-9


def test_nonreal_z_marches_from_seed():
    fam = ResolventFamily(ARCTAN, G0)
    z = 0.3 + 0.7j
    res = fam.add(z)
    Mf = quantize(ARCTAN, G0).matrix - z * np.eye(GRID.npoints)
    dense = np.linalg.inv(Mf)
    rel = np.abs(res.matrix - dense).max() / np.abs(dense).max()
    assert rel <= 1e-7


def test_terms_is_the_certified_series_length():
    z, tol = -10.0, SERIES_TOL
    res = neumann_invert(ARCTAN, z, G0)
    P = GRID.npoints
    expected = 1 + int(np.ceil(np.log(0.1 * tol / P) / np.log(res.norm_R)))
    assert res.terms == certified_terms(res.norm_R, P) == expected
    # it bounds the count of a partial-sum loop with the same stopping rule
    Mf = quantize(ARCTAN, G0).matrix - z * np.eye(P)
    Q = quantize(_reciprocal_symbol(ARCTAN, z), G0).matrix
    R = np.eye(P) - Mf @ Q
    T = np.eye(P)
    for k in range(1, 81):
        T = T @ R
        if np.abs(T).max() * P < 0.1 * tol:
            break
    assert res.terms >= k + 1
    assert certified_terms(0.0, P) == 1
    assert certified_terms(1.0, P) == 0


def test_divergence_is_raised_without_validation():
    # z = -5 is admissible (z <= inf f - 1), but the generator norm is about 1.6
    assert norm_Rz(ARCTAN, -5.0, G0) >= 1.0
    with pytest.raises(DivergenceError, match="operator norm"):
        neumann_invert(ARCTAN, -5.0, G0, validate=False)


def test_resolvent_on_a_fine_grid_needs_no_convergent_seed():
    # the real z = inf f - 10 has generator norm 2.78 at N = 512, so the
    # family must reach 1 + 1j without a series-convergent real seed
    g = make_grid(1, 20.0, 512)
    assert norm_Rz(ARCTAN, _sampled_inf(ARCTAN, g) - 10.0, Gauge(A0, g)) >= 1.0
    z = 1.0 + 1.0j
    res = ResolventFamily(ARCTAN, Gauge(A0, g)).add(z)
    assert res.residual <= 1e-7
    Mf = quantize(ARCTAN, Gauge(A0, g)).matrix - z * np.eye(g.npoints)
    dense = np.linalg.inv(Mf)
    assert np.abs(res.matrix - dense).max() / np.abs(dense).max() <= 1e-10


def test_invalid_inputs_raise():
    with pytest.raises(EllipticityError):
        neumann_invert(Symbol.from_expression("x1 + xi1", 1, m=1),
                       -10.0, G0)  # not declared real
    vanishing = Symbol.from_expression("cos(xi1)", 1, m=0, real=True)
    with pytest.raises(EllipticityError):
        neumann_invert(vanishing, -10.0, G0)
    with pytest.raises(DivergenceError):
        # real z above inf(f) - 1 is inadmissible for the series seed
        neumann_invert(ARCTAN, 0.0, G0)


def test_resolvent_family_rejects_invalid_symbols_off_the_series():
    # nonreal z skip the series certificate but not the checks on f
    with pytest.raises(EllipticityError, match="real-valued"):
        ResolventFamily(Symbol.from_expression("x1 + xi1", 1, m=1),
                        G0).add(1j)
    vanishing = Symbol.from_expression("cos(xi1)", 1, m=0, real=True)
    with pytest.raises(EllipticityError, match="not elliptic"):
        ResolventFamily(vanishing, G0).add(1j)
    res = ResolventFamily(ARCTAN, G0).add(1j)
    assert res.terms == 0 and res.norm_R is None


def test_affiliated_calculus_matches_eigendecomposition():
    g = make_grid(1, 12.0, 48)
    f = Symbol.from_expression("xi1^2 + arctan(x1)", 1, m=2, real=True)
    eta = lambda w: 1.0 / (1.0 + w**2)
    M = affiliated_calculus(f, Gauge(A0, g), eta)
    H = quantize(f, Gauge(A0, g)).matrix
    H = 0.5 * (H + H.conj().T)
    w, V = np.linalg.eigh(H)
    ref = (V * eta(w)) @ V.conj().T
    np.testing.assert_allclose(M.matrix, ref, atol=1e-12)
    # non-Hermitian input (complex-valued symbol) is rejected
    bad = Symbol.from_callable(
        lambda x, xi: 1j * np.asarray(x)[..., 0] + 0.0 * np.asarray(xi)[..., 0],
        1, m=0)
    with pytest.raises(ValueError):
        affiliated_calculus(bad, Gauge(A0, g), eta, hermiticity_tol=1e-8)


def _svdvals_norm(f, z, gauge):
    """||R_z|| by the general route: the largest singular value of I - M Q."""
    P = gauge.grid.npoints
    Mf = quantize(f, gauge).matrix - z * np.eye(P)
    Q = quantize(_reciprocal_symbol(f, z), gauge).matrix
    return float(svdvals(np.eye(P) - Mf @ Q)[0])


@pytest.mark.parametrize("case", ["1d", "2d-zero", "2d-const", "1d-nonreal"])
def test_the_gram_norm_is_the_largest_singular_value(case):
    f, z, gauge = {
        "1d": (ARCTAN, -10.0, Gauge(A0, make_grid(1, 20.0, 64))),
        "2d-zero": (BUMPS_2D, -40.0, Gauge(VectorPotential.zero(2), make_grid(2, 8.0, 16))),
        "2d-const": (ARCTAN_2D, -20.0, _const_gauge(0.6, make_grid(2, 8.0, 12))),
        "1d-nonreal": (ARCTAN, -10.0 + 4.0j, Gauge(A0, make_grid(1, 20.0, 64))),
    }[case]
    fast, general = norm_Rz(f, z, gauge), _svdvals_norm(f, z, gauge)
    assert 0.0 < general < 1.0
    assert fast == pytest.approx(general, rel=1e-13, abs=0.0)
    P = gauge.grid.npoints
    assert certified_terms(fast, P) == certified_terms(general, P) > 1


def _interior_sup_of_the_values(sym):
    """sup |values| over the interior mask, from the full sample array."""
    mask = np.broadcast_to(sym.interior_mask(), sym.values.shape)
    return float(np.abs(sym.values[mask]).max())


@pytest.mark.parametrize("n", [1, 2])
def test_residuals_are_the_sup_of_the_values_on_the_interior_mask(n):
    f, z, gauge = ((ARCTAN, -10.0, G0) if n == 1
                   else (ARCTAN_2D, -20.0, _const_gauge(0.6, make_grid(2, 8.0, 12))))
    grid, P = gauge.grid, gauge.grid.npoints
    res = neumann_invert(f, z, gauge)
    Mf = quantize(f, gauge).matrix - z * np.eye(P)
    E = MagneticOperator(grid, Mf @ res.matrix - np.eye(P))
    expected = _interior_sup_of_the_values(dequantize(E, gauge))
    assert res.residual == inversion_residual(Mf, res.matrix, gauge) == expected

    fam = ResolventFamily(f, gauge)
    z1, z2 = z, -3.0 + 1.0j
    r1, r2 = fam.add(z1), fam.add(z2)
    combo = r1.matrix - r2.matrix - (z1 - z2) * (r1.matrix @ r2.matrix)
    expected = _interior_sup_of_the_values(dequantize(MagneticOperator(grid, combo), gauge))
    assert fam.resolvent_equation_residual(z1, z2) == expected
    rzb = fam.add(np.conj(z2))
    diff = SampledSymbol(grid, r2.symbol.table.conj().T) - rzb.symbol
    assert fam.adjoint_symmetry_residual(z2) == _interior_sup_of_the_values(diff)


@pytest.mark.parametrize("field", ["zero", "const"])
def test_neumann_invert_peaks_below_76_p_squared_bytes(field):
    g = make_grid(2, 12.0, 24)
    gauge = Gauge(VectorPotential.zero(2), g) if field == "zero" else _const_gauge(0.6, g)
    tracemalloc.start()
    try:
        res = neumann_invert(BUMPS_2D, -40.0, gauge)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert res.terms > 0
    assert peak <= 76 * g.npoints ** 2
