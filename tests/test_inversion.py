"""Certified inversion, regularizers, resolvent families."""

import tracemalloc

import numpy as np
import pytest
from scipy import linalg as sp_linalg
from scipy.linalg import svdvals

from magweyl import inversion
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
    _shift_diagonal,
    build_regularizer,
    certified_terms,
    inversion_residual,
    neumann_invert,
    norm_Rz,
    order_check_inverse,
)
from magweyl.magnetics import MagneticField, VectorPotential, transversal_gauge
from magweyl.quantize import (
    _LANCZOS_STEPS,
    _gram,
    _lanczos_top,
    _norm_bound,
    Gauge,
    MagneticOperator,
    SampledSymbol,
    dequantize,
    quantize,
)
from magweyl.symbols import Symbol
from test_quantize import run_probe

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


def test_build_regularizer_builds_one_series_generator_per_lambda(monkeypatch):
    # in a field, lambda = 1 leaves ||R|| above 1/2
    gauge = _const_gauge(1.0, make_grid(2, 6.0, 8))
    calls = []
    build = inversion._series_generator
    monkeypatch.setattr(inversion, "_series_generator",
                        lambda f, z, gauge: calls.append(f) or build(f, z, gauge))
    reg = build_regularizer(2.0, gauge)
    # lambda = 1, 2, 4, ..., reg.lam were tried
    assert reg.lam > 1.0
    assert len(calls) == 1 + int(np.log2(reg.lam))
    monkeypatch.undo()
    ref = neumann_invert(reg.r_plus, 0.0, gauge, validate=False)
    assert reg.inversion.matrix.tobytes() == ref.matrix.tobytes()
    assert reg.inversion.symbol.table.tobytes() == ref.symbol.table.tobytes()
    assert (reg.inversion.terms, reg.inversion.norm_R, reg.inversion.residual) == (
        ref.terms, ref.norm_R, ref.residual)


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
        affiliated_calculus(bad, Gauge(A0, g), eta)


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
    # a certified upper bound, widened by at most the certificate's margin
    assert general <= fast <= general * (1 + 1e-9)
    P = gauge.grid.npoints
    assert certified_terms(fast, P) == certified_terms(general, P) > 1


def _orthogonal_to_the_lanczos_start(P):
    """A unit vector orthogonal to the fixed start vector of _lanczos_top."""
    s = np.random.default_rng(0).standard_normal(P)
    v = np.random.default_rng(1).standard_normal(P)
    v -= (v @ s) / (s @ s) * s
    return v / np.linalg.norm(v)


def _square_root_of(P, case):
    """A real symmetric R whose Gram matrix G = R^T R has lambda_max 1."""
    if case == "top-orthogonal-to-the-start":
        # G = I/4 + (3/4) v v^T: the Krylov space of the start vector is the
        # line of the start vector itself, with Ritz value 1/4
        v = _orthogonal_to_the_lanczos_start(P)
        return 0.5 * np.eye(P) + 0.5 * np.outer(v, v)
    W, _ = np.linalg.qr(np.random.default_rng(2).standard_normal((P, P)))
    lam = np.concatenate([[1.0, 1.0 - 1e-13], np.linspace(0.0, 0.5, P - 2)])
    return (W * np.sqrt(lam)) @ W.T


@pytest.mark.parametrize("case", ["top-orthogonal-to-the-start", "top-two-1e-13-apart"])
def test_the_norm_bound_is_an_upper_bound_on_spectra_hard_for_lanczos(case):
    P = 64
    # the complex path (zherk, zhemv, zpotrf) and the real one (dsyrk, dsymv, dpotrf)
    for R in (_square_root_of(P, case).astype(complex), _square_root_of(P, case)):
        if case == "top-orthogonal-to-the-start":
            # the estimate misses lambda_max, so the certificate fails and the
            # bound comes from the eigh fallback
            G = _gram(R)
            assert G.dtype == R.dtype
            assert _lanczos_top(G) == pytest.approx(0.25, rel=1e-12)
        bound = _norm_bound(R)
        assert 1.0 <= bound <= 1.0 + 1e-9
        assert bound >= svdvals(R)[0]


def test_the_norm_bound_of_zero_is_zero():
    P = 16
    assert _norm_bound(np.zeros((P, P), dtype=complex)) == 0.0
    assert _norm_bound(np.zeros((P, P))) == 0.0
    assert certified_terms(0.0, P) == 1


def test_the_norm_bound_holds_one_gram_matrix_at_a_time():
    # R is allocated before tracing: one Gram matrix (16 bytes an entry)
    # with the Lanczos basis or with eigh's finiteness mask (1 byte an
    # entry), and O(P) vectors; a copy of G would add 16 P^2
    P = 256
    for case in ("top-orthogonal-to-the-start", "top-two-1e-13-apart"):
        R = _square_root_of(P, case).astype(complex)
        tracemalloc.start()
        try:
            _norm_bound(R)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 17 * P * P + 16 * _LANCZOS_STEPS * P


def test_a_resolvent_family_checks_its_symbol_once():
    calls = []
    f = Symbol.from_callable(lambda x, xi: calls.append(None) or ARCTAN.fn(x, xi),
                             n=1, m=2, real=True)
    fam = ResolventFamily(f, G0)
    first = len(calls)
    fam.add(-20.0)
    fam.add(-3.0 + 1.0j)
    # each z only quantizes f, and 1/(f - z) on the series: no more checks
    assert len(calls) - first == 3


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
    # M_f as the inversion builds it: the real kernel table in the zero gauge
    Mf = quantize(f, gauge).matrix - z * np.eye(P)
    assert Mf.dtype == res.matrix.dtype == (float if n == 1 else complex)
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


def test_the_real_zero_gauge_inversion_agrees_with_a_complex_curl_free_gauge():
    # A = (x2/2, x1/2) = grad(x1 x2 / 2) has B = 0 but a nonzero phase, so it
    # keeps the complex path; the zero gauge takes the real one
    g = make_grid(2, 8.0, 16)
    real = neumann_invert(BUMPS_2D, -40.0, Gauge(VectorPotential.zero(2), g))
    curl_free = VectorPotential.from_expressions(2, ["0.5*x2", "0.5*x1"])
    cplx = neumann_invert(BUMPS_2D, -40.0, Gauge(curl_free, g))
    assert (real.matrix.dtype, cplx.matrix.dtype) == (float, complex)
    assert real.terms == cplx.terms
    assert real.norm_R == pytest.approx(cplx.norm_R, rel=1e-12, abs=0)
    assert max(real.residual, cplx.residual) <= 1e-13


def test_a_nonreal_z_takes_a_real_zero_gauge_table_to_complex():
    g = make_grid(2, 12.0, 16)
    gauge = Gauge(VectorPotential.zero(2), g)
    assert quantize(BUMPS_2D, gauge).matrix.dtype == float
    M = _shift_diagonal(quantize(BUMPS_2D, gauge).matrix, 40.0)
    assert M.dtype == float
    z = -3.0 + 1.0j
    res = ResolventFamily(BUMPS_2D, gauge).add(z)
    assert res.matrix.dtype == complex and res.norm_R is None
    lu = sp_linalg.inv(_shift_diagonal(quantize(BUMPS_2D, gauge).matrix, -z))
    assert np.abs(res.matrix - lu).max() <= 1e-12 * np.abs(lu).max()
    assert res.residual <= 1e-10


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


@pytest.mark.parametrize("n, N, expression", [
    (1, 100, "xi1^2 + arctan(x1)"),
    (2, 32, "xi1^2 + xi2^2 + 0.5*arctan(x1) + 0.3*exp(-x2^2)"),
])
def test_the_sampled_infimum_by_row_blocks_is_the_whole_table_minimum(n, N, expression):
    # 1D P = 100 ends in a partial block; min is exact, so the bits agree
    g = make_grid(n, 12.0, N)
    P = g.npoints
    f = Symbol.from_expression(expression, n, m=2, real=True)
    x = g.x_mesh().reshape((N,) * n + (1,) * n + (n,))
    whole = float(np.min(np.real(f(x, g.xi_mesh()))))
    _sampled_inf(f, g)
    tracemalloc.start()
    try:
        assert _sampled_inf(f, g) == whole
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # the whole complex table with its real part and temporaries took 24 P^2
    if n == 2:
        assert peak <= 4 * P ** 2


def _counting_lu(monkeypatch):
    calls = []
    lu = sp_linalg.inv

    def counted(a, *args, **kwargs):
        calls.append(a.shape)
        return lu(a, *args, **kwargs)

    monkeypatch.setattr(sp_linalg, "inv", counted)
    return calls


@pytest.mark.parametrize("a, c, z, field", [
    (0.5, 0.3, -40.0, "zero"), (-1.0, 1.0, -80.0, "zero"), (1.0, -1.0, -55.0, "zero"),
    (-0.7, -0.9, -60.0, "const"),
])
def test_the_cholesky_inverse_is_the_lu_inverse(a, c, z, field, monkeypatch):
    g = make_grid(2, 12.0, 16)
    gauge = Gauge(VectorPotential.zero(2), g) if field == "zero" else _const_gauge(0.6, g)
    f = Symbol.from_expression(f"xi1^2 + xi2^2 + {a}*arctan(x1) + {c}*exp(-x2^2)", 2,
                               m=2, rho=1, real=True)
    calls = _counting_lu(monkeypatch)
    res = neumann_invert(f, z, gauge)
    assert calls == []
    Mf = _shift_diagonal(quantize(f, gauge).matrix, -z)
    lu = sp_linalg.inv(Mf)
    assert np.abs(res.matrix - lu).max() <= 1e-12 * np.abs(lu).max()
    assert res.matrix.flags.c_contiguous
    assert np.array_equal(res.matrix, res.matrix.conj().T)
    assert res.residual <= 1e-13
    assert inversion_residual(Mf, lu, gauge) <= 1e-13


def test_the_lu_inverse_serves_nonreal_and_indefinite_shifts(monkeypatch):
    g = make_grid(2, 12.0, 16)
    fam = ResolventFamily(BUMPS_2D, Gauge(VectorPotential.zero(2), g))
    calls = _counting_lu(monkeypatch)
    fam.add(-40.0)
    assert calls == []
    z = _sampled_inf(BUMPS_2D, g) + 5.0
    assert np.linalg.eigvalsh(quantize(BUMPS_2D, fam.gauge).matrix).min() < z
    for z, count in ((-3.0 + 1.0j, 1), (z, 2)):
        res = fam.add(z)
        assert len(calls) == count
        assert res.residual <= 1e-10


def test_the_reciprocal_of_a_real_symbol_at_a_real_z_is_the_real_part_of_the_complex_one():
    g = make_grid(2, 12.0, 16)
    f = Symbol.from_expression("xi1^2 + xi2^2 + 0.5*arctan(x1) + 0.3*exp(-x2^2)", 2, m=2,
                               real=True)
    x, xi = g.x_flat()[:, None], g.xi_mesh().reshape(1, -1, 2)
    v = f(x, xi)
    for z in (-60.0, complex(-60.0, -0.0), -7.5):
        r = _reciprocal_symbol(f, complex(z))(x, xi)
        full = 1.0 / (np.asarray(v, dtype=complex) - complex(z))
        assert r.dtype == np.float64 and r.tobytes() == full.real.tobytes()
        assert not np.signbit(full.imag).any() and not full.imag.any()
    # a nonreal z, or a symbol with nonzero imaginary values, stays complex
    assert _reciprocal_symbol(f, -60.0 + 1.0j)(x, xi).dtype == complex
    g_c = Symbol.from_callable(lambda x, xi: f(x, xi) + 0.5j * np.exp(-x[..., 0] ** 2), 2, m=2)
    assert _reciprocal_symbol(g_c, -60.0 + 0j)(x, xi).dtype == complex


_NUMPY_MATMUL_PROBE = """
import hashlib
import sys
import numpy as np
from magweyl import inversion
from magweyl.grid import make_grid
from magweyl.magnetics import MagneticField, VectorPotential, transversal_gauge
from magweyl.quantize import Gauge
from magweyl.symbols import Symbol

if sys.argv[1] == "resolvent2d":
    f = Symbol.from_expression("xi1^2 + xi2^2 + 0.3*arctan(x1) - 0.2*exp(-x2^2)", 2, m=2,
                               real=True)
    z, gauge = -60.0, Gauge(VectorPotential.zero(2), make_grid(2, 12.0, 32))
else:
    f = Symbol.from_expression("xi1^2 + xi2^2 + arctan(x1)", 2, m=2, real=True)
    z = -20.0
    gauge = Gauge(transversal_gauge(MagneticField.constant(2, 0.6)), make_grid(2, 8.0, 12))
for _ in range(2):
    res = inversion.neumann_invert(f, z, gauge)
    print(res.matrix.dtype, hashlib.sha256(res.matrix.tobytes()).hexdigest(),
          repr(res.residual), repr(res.norm_R))
    inversion._matmul = np.matmul
"""


@pytest.mark.parametrize("case, dtype", [("resolvent2d", "float64"), ("magnetic", "complex128")])
def test_neumann_invert_is_the_same_to_the_bit_on_numpys_matmul(case, dtype):
    # the benchmark's resolvent2d path in real arithmetic, and a complex one
    # in a constant field; on one thread, where both OpenBLAS builds round
    # every product alike (test_quantize's probe of _matmul)
    fast, general = run_probe(_NUMPY_MATMUL_PROBE, "1", case).splitlines()
    assert fast.split()[0] == dtype
    assert fast == general
