"""Quantization, dequantization, magnetic translations, kernel calculus."""

import importlib
import types

import numpy as np
import pytest
from scipy import fft as sp_fft

import magweyl

from magweyl.grid import make_grid
from magweyl.magnetics import (
    DEFAULT_QUAD,
    MagneticField,
    VectorPotential,
    circulation,
    transversal_gauge,
)
from magweyl.quantize import (
    Gauge,
    SampledSymbol,
    _symbol_table,
    KernelFunction,
    circulation_matrix,
    dequantize,
    kernel_involution,
    magnetic_translation,
    partial_fourier,
    partial_fourier_inverse,
    quantize,
    rep_A,
    _table_to_samples,
    translation_cocycle_diagonal,
    twisted_product,
    wrong_quantize,
)
from magweyl.symbols import Symbol, _phase_mesh


def test_position_symbol_is_multiplication_operator():
    g = make_grid(1, 10.0, 32)
    f = Symbol.from_expression("arctan(x1)", 1, real=True)
    M = quantize(f, Gauge(VectorPotential.zero(1), g))
    expect = np.diag(np.arctan(g.x_nodes))
    np.testing.assert_allclose(M.matrix, expect, atol=1e-12)


def test_momentum_symbol_is_fourier_multiplier():
    g = make_grid(1, 10.0, 32)
    f = Symbol.from_expression("xi1^2", 1, m=2, real=True)
    M = quantize(f, Gauge(VectorPotential.zero(1), g))
    # eigenvalues are exactly the squared lattice momenta
    vals = np.sort(np.linalg.eigvalsh(M.matrix))
    np.testing.assert_allclose(vals, np.sort(g.xi_nodes**2), atol=1e-10)


def test_round_trip_exact():
    g = make_grid(2, 8.0, 12)
    B = MagneticField.constant(2, 0.6)
    A = VectorPotential.from_expressions(2, ["-0.3*x2", "0.3*x1"])
    f = Symbol.from_expression("xi1^2 + xi2^2 + 1/(1+x1^2)", 2, m=2, real=True)
    gauge = Gauge(A, g)
    M = quantize(f, gauge)
    table = dequantize(M, gauge)
    M2 = quantize(table, gauge)
    np.testing.assert_allclose(M2.matrix, M.matrix, atol=1e-12 * np.abs(M.matrix).max())


def test_dequantize_table_is_gauge_independent():
    g = make_grid(2, 8.0, 12)
    B = MagneticField.constant(2, 0.6)
    A1 = VectorPotential.from_expressions(2, ["-0.3*x2", "0.3*x1"])
    A2 = VectorPotential.from_expressions(2, ["-0.6*x2", "0"])  # Landau gauge
    f = Symbol.from_expression("xi1^2 + xi2^2", 2, m=2, real=True)
    G1, G2 = Gauge(A1, g), Gauge(A2, g)
    t1 = dequantize(quantize(f, G1), G1)
    t2 = dequantize(quantize(f, G2), G2)
    np.testing.assert_allclose(t1.table, t2.table, atol=1e-10)


def test_gauge_covariance_small():
    g = make_grid(2, 8.0, 12)
    A1 = VectorPotential.from_expressions(2, ["-0.4*x2", "0.4*x1"])
    psi = lambda x: 0.5 * np.asarray(x)[..., 0] * np.asarray(x)[..., 1]

    def grad(x):
        x = np.asarray(x, dtype=float)
        return 0.5 * np.stack([x[..., 1], x[..., 0]], axis=-1)

    from magweyl.magnetics import gauge_shift
    A2 = gauge_shift(A1, grad_psi=grad)
    f = Symbol.from_expression("xi1^2 + xi2^2", 2, m=2, real=True)
    G1, G2 = Gauge(A1, g), Gauge(A2, g)
    M1 = quantize(f, G1)
    M2 = quantize(f, G2)
    phase = np.exp(1j * psi(g.x_flat()))
    conj = phase[:, None] * M1.matrix * np.conj(phase)[None, :]
    res = np.linalg.norm(conj - M2.matrix) / np.linalg.norm(M2.matrix)
    assert res < 1e-9
    # the negative control breaks covariance by orders of magnitude
    W1 = wrong_quantize(f, G1)
    W2 = wrong_quantize(f, G2)
    wconj = phase[:, None] * W1.matrix * np.conj(phase)[None, :]
    wres = np.linalg.norm(wconj - W2.matrix) / np.linalg.norm(W2.matrix)
    assert wres > 1e-2


def test_real_symbol_hermitian():
    g = make_grid(1, 12.0, 32)
    f = Symbol.from_expression("xi1^2 + arctan(x1)", 1, m=2, real=True)
    M = quantize(f, Gauge(VectorPotential.zero(1), g))
    assert M.hermiticity_defect() < 1e-12


def test_circulation_matrix_thread_independence():
    g = make_grid(2, 6.0, 8)
    A = VectorPotential.from_expressions(2, ["-0.5*x2", "0.5*x1"])
    C1 = circulation_matrix(A, g, threads=1)
    C4 = circulation_matrix(A, g, threads=4)
    np.testing.assert_array_equal(C1, C4)


def _circulation_case(case):
    g2 = make_grid(2, 10.0, 12)
    if case == "linear":
        return g2, VectorPotential.from_expressions(2, ["-0.5*x2", "0.5*x1"])
    if case == "explicit":
        return g2, VectorPotential.from_expressions(2, ["-arctan(x2)", "x1*exp(-x1^2/8)"])
    if case == "transversal":
        return g2, transversal_gauge(MagneticField.from_expressions(2, {(1, 2): "1 + 1/(1+x1^2)"}))
    return make_grid(1, 20.0, 100), VectorPotential.from_expressions(1, ["sin(x1)"])


@pytest.mark.parametrize("case", ["linear", "explicit", "transversal", "sin1d"])
def test_circulation_matrix_fills_the_lower_triangle_exactly_from_the_upper(case, monkeypatch):
    g, A = _circulation_case(case)
    P = g.npoints
    quantize_module = importlib.import_module("magweyl.quantize")
    if P % quantize_module._ROWS == 0:
        # a 2D grid has P = N^2 with 4 | N, a multiple of the 8-row block, so
        # a partial last block needs another block size there (1D P = 100 has one)
        monkeypatch.setattr(quantize_module, "_ROWS", 7)
    assert P % quantize_module._ROWS != 0
    # every ordered pair in one broadcast call
    X = g.x_flat()
    expect = circulation(A, X[:, None, :], X[None, :, :], DEFAULT_QUAD)
    C1, C2, C3 = (circulation_matrix(A, g, threads=t) for t in (1, 2, 3))
    upper = np.triu_indices(P, 1)
    assert np.array_equal(C1[upper], expect[upper])
    assert np.array_equal(C1, -C1.T)
    assert np.array_equal(np.diag(C1), np.zeros(P))
    assert np.array_equal(C1, C2) and np.array_equal(C1, C3)


@pytest.mark.parametrize("A", [
    VectorPotential.from_expressions(2, ["-arctan(x2)", "x1*exp(-x1^2/8)"]),
    VectorPotential.zero(2),
], ids=["nonpolynomial", "zero"])
def test_the_in_place_phase_leaves_its_inputs_unchanged(A):
    # P = 144 spans three phase blocks of 64 rows, the last one partial
    g = make_grid(2, 8.0, 12)
    f = Symbol.from_expression("xi1^2 + 0.5*xi2^2 + arctan(x1)*xi2", 2, m=2)
    gauge = Gauge(A, g)
    C = gauge.circulation
    M = quantize(f, gauge)
    assert np.array_equal(M.matrix, np.exp(-1j * C) * _symbol_table(f, g))
    before = M.matrix.copy()
    S = dequantize(M, gauge)
    assert np.array_equal(M.matrix, before)
    assert np.array_equal(S.table, np.exp(1j * C) * M.matrix)
    table = S.table.copy()
    M2 = quantize(S, gauge)
    assert np.array_equal(S.table, table)
    assert np.array_equal(M2.matrix, np.exp(-1j * C) * table)
    assert not np.shares_memory(M2.matrix, S.table)
    assert not np.shares_memory(S.table, M.matrix)


@pytest.mark.parametrize("A", [
    VectorPotential.from_expressions(2, ["-arctan(x2)", "x1*exp(-x1^2/8)"]),
    VectorPotential.zero(2),
], ids=["nonpolynomial", "zero"])
def test_the_gauge_cache_gives_the_written_out_phase(A, monkeypatch):
    g = make_grid(2, 8.0, 8)
    f = Symbol.from_expression("xi1^2 + 0.5*xi2^2 + arctan(x1)*xi2", 2, m=2)
    C = circulation_matrix(A, g)
    W = _symbol_table(f, g)
    quantize_module = importlib.import_module("magweyl.quantize")
    calls = []

    def counting(*args, **kwargs):
        calls.append(args)
        return circulation_matrix(*args, **kwargs)

    monkeypatch.setattr(quantize_module, "circulation_matrix", counting)
    gauge = Gauge(A, g)
    M = quantize(f, gauge)
    assert np.array_equal(M.matrix, np.exp(-1j * C) * W)
    S = dequantize(M, gauge)
    assert np.array_equal(S.table, np.exp(1j * C) * M.matrix)
    assert np.array_equal(quantize(S, gauge).matrix, np.exp(-1j * C) * S.table)
    assert len(calls) == 1


def test_dequantize_rejects_a_gauge_on_another_grid():
    g = make_grid(1, 8.0, 16)
    M = quantize(Symbol.from_expression("xi1^2", 1, m=2), Gauge(VectorPotential.zero(1), g))
    with pytest.raises(ValueError, match="grid mismatch"):
        dequantize(M, Gauge(VectorPotential.zero(1), make_grid(1, 8.0, 32)))


def test_magnetic_translation_composition():
    # T(x) T(y) = diag(omega^B(.; x, y)) T(x + y)
    g = make_grid(2, 8.0, 8)
    B = MagneticField.constant(2, 0.9)
    A = VectorPotential.from_expressions(2, ["-0.45*x2", "0.45*x1"])
    x = np.array([g.dx, 0.0])
    y = np.array([0.0, 2 * g.dx])
    gauge = Gauge(A, g)
    Tx = magnetic_translation(gauge, x)
    Ty = magnetic_translation(gauge, y)
    Txy = magnetic_translation(gauge, x + y)
    D = translation_cocycle_diagonal(B, x, y, g)
    # restrict to rows where neither shift wraps around the box: the cyclic
    # wrap re-enters at the opposite face, where the straight-segment
    # circulation no longer matches
    X = g.x_flat()
    keep = np.all(X + x + y < X.max() + 0.5 * g.dx, axis=1)
    lhs = (Tx @ Ty)[keep]
    rhs = (D @ Txy)[keep]
    np.testing.assert_allclose(lhs, rhs, atol=1e-10)
    # unitarity
    np.testing.assert_allclose(Tx @ Tx.conj().T, np.eye(g.npoints), atol=1e-12)
    with pytest.raises(ValueError):
        magnetic_translation(gauge, np.array([0.3 * g.dx, 0.0]))


def _gaussian_kernel(grid, seed):
    rng = np.random.default_rng(seed)
    c = rng.normal(size=3)

    def fn(q, v):
        q = np.asarray(q)
        v = np.asarray(v)
        qq = (q**2).sum(axis=-1)
        vv = (v**2).sum(axis=-1)
        osc = c[0] + 0.4j * c[1] * np.sin(v[..., 0]) + 0.3 * np.cos(q[..., 0])
        return (1 + osc) * np.exp(-1.0 * vv - 1.2 * qq) * (c[2] + 1.5)

    return KernelFunction(grid, fn)


def test_rep_A_equals_quantize_of_partial_fourier():
    g = make_grid(1, 12.0, 32)
    A = VectorPotential.from_expressions(1, ["arctan(x1)"])
    F = _gaussian_kernel(g, 23)
    gauge = Gauge(A, g)
    M1 = rep_A(F, gauge).matrix
    f = partial_fourier(F)
    M2 = quantize(f, gauge).matrix
    # the sampled-symbol path wraps displacements into the box; compare on
    # the band where the unwrapped displacement is the wrapped one
    X = g.x_flat()
    band = np.abs(X[None, :, 0] - X[:, None, 0]) < 0.5 * g.L - g.dx
    err = np.abs(M1 - M2)[band].max()
    assert err < 1e-10 * np.abs(M1).max()


def test_partial_fourier_round_trip():
    g = make_grid(1, 12.0, 32)
    F = _gaussian_kernel(g, 31)
    back = partial_fourier_inverse(partial_fourier(F), g)
    vlat = g.x_nodes - g.x_nodes[g.N // 2]
    q = np.zeros((g.N, 1))
    v = vlat[:, None]
    np.testing.assert_allclose(back.fn(q, v), F.fn(q, v), atol=1e-10)


def test_involution_matches_adjoint():
    g = make_grid(1, 12.0, 32)
    A = VectorPotential.from_expressions(1, ["arctan(x1)"])
    F = _gaussian_kernel(g, 47)
    gauge = Gauge(A, g)
    M = rep_A(F, gauge).matrix
    Mstar = rep_A(kernel_involution(F), gauge).matrix
    np.testing.assert_allclose(Mstar, M.conj().T, atol=1e-12 * np.abs(M).max())


def test_twisted_product_intertwines_zero_field():
    g = make_grid(1, 12.0, 32)
    B = MagneticField(n=1, components={})
    gauge = Gauge(VectorPotential.zero(1), g)
    F = _gaussian_kernel(g, 5)
    G = _gaussian_kernel(g, 6)
    P = rep_A(F, gauge).matrix @ rep_A(G, gauge).matrix
    M = rep_A(twisted_product(F, G, B, g), gauge).matrix
    assert np.abs(M - P).max() / np.abs(P).max() < 1e-8


def test_package_attribute_quantize_is_the_module():
    assert isinstance(magweyl.quantize, types.ModuleType)
    assert magweyl.quantize.quantize is quantize


# -- reference sampler: one diagonal at a time ------------------------------


def _lagrange_values_ref(data, i0, targets, axis=0):
    m = data.shape[axis]
    pts = min(8, m)
    t = np.clip(np.asarray(targets, dtype=float) - i0, 0.0, m - 1.0)
    starts = np.clip(np.floor(t).astype(int) - (pts // 2 - 1), 0, m - pts)
    tau = t - starts
    weights = np.ones((len(t), pts))
    for r in range(pts):
        for rp in range(pts):
            if rp != r:
                weights[:, r] *= (tau - rp) / (r - rp)
    data = np.moveaxis(data, axis, 0)
    out = np.zeros((len(t),) + data.shape[1:], dtype=data.dtype)
    for r in range(pts):
        out += weights[:, r].reshape((-1,) + (1,) * (data.ndim - 1)) * data[starts + r]
    return np.moveaxis(out, 0, axis)


def _table_to_samples_ref(W, grid):
    N, n = grid.N, grid.n
    ls = np.arange(N)
    cs = np.zeros((N,) * n + (N,) * n, dtype=complex)
    ds = np.arange(-N // 2, N // 2)
    if n == 1:
        for d in ds:
            i_lo, i_hi = max(0, d), N + min(0, d)
            diag = W[np.arange(i_lo, i_hi), np.arange(i_lo, i_hi) - d]
            vals = _lagrange_values_ref(diag, i_lo, ls + d / 2.0)
            cs[:, d % N] = (-1.0) ** d * vals
        return sp_fft.fft(cs, axis=1)
    W4 = W.reshape(N, N, N, N)  # W4[i1, i2, j1, j2] = W[i1 N + i2, j1 N + j2]
    for d1 in ds:
        r1 = np.arange(max(0, d1), N + min(0, d1))
        for d2 in ds:
            r2 = np.arange(max(0, d2), N + min(0, d2))
            diag = W4[r1[:, None], r2[None, :], r1[:, None] - d1, r2[None, :] - d2]
            vals = _lagrange_values_ref(diag, r1[0], ls + d1 / 2.0, axis=0)
            vals = _lagrange_values_ref(vals, r2[0], ls + d2 / 2.0, axis=1)
            cs[:, :, d1 % N, d2 % N] = (-1.0) ** (d1 + d2) * vals
    return sp_fft.fft2(cs, axes=(2, 3))


@pytest.mark.parametrize("n, N", [(1, 12), (1, 64), (2, 8), (2, 12), (2, 16), (2, 24)])
def test_vectorized_sampler_is_bit_identical_to_the_diagonal_loop(n, N):
    # N <= 12 gives edge diagonals shorter than the 8-point stencil
    g = make_grid(n, 8.0, N)
    rng = np.random.default_rng(N + 100 * n)
    W = rng.standard_normal((g.npoints,) * 2) + 1j * rng.standard_normal((g.npoints,) * 2)
    assert np.array_equal(_table_to_samples(W, g), _table_to_samples_ref(W, g))


@pytest.mark.parametrize("n", [1, 2])
@pytest.mark.parametrize("N", [8, 12, 16])
def test_interior_samples_are_the_values_on_the_interior_mask_bit_for_bit(n, N):
    # N <= 12 gives edge diagonals shorter than the 8-point stencil
    g = make_grid(n, 8.0, N)
    rng = np.random.default_rng(N + 100 * n + 7)
    W = rng.standard_normal((g.npoints,) * 2) + 1j * rng.standard_normal((g.npoints,) * 2)
    S = SampledSymbol(g, W)
    keep = np.abs(g.x_nodes) <= 0.8 * g.L / 2.0
    assert 0 < np.count_nonzero(keep) < N
    inner = _table_to_samples(W, g, keep)
    assert inner.shape == (np.count_nonzero(keep),) * n + (N,) * n
    mask = np.broadcast_to(S.interior_mask(), S.values.shape)
    assert np.array_equal(inner.ravel(), S.values[mask])
    assert S.interior_sup() == float(np.abs(S.values[mask]).max())


@pytest.mark.parametrize("text, b", [
    ("xi1^2 + 0.5*xi2^2", 0.0),
    ("xi1^2 + 0.5*xi2^2 + arctan(x1)*xi2 + exp(-x2^2)", 0.5),
])
def test_2d_samples_match_the_symbol(text, b):
    g = make_grid(2, 8.0, 16)
    A = (VectorPotential.from_expressions(2, [f"{-b / 2}*x2", f"{b / 2}*x1"]) if b
         else VectorPotential.zero(2))
    f = Symbol.from_expression(text, 2, m=2, real=True)
    gauge = Gauge(A, g)
    S = dequantize(quantize(f, gauge), gauge)
    exact = f(*_phase_mesh(g))
    mask = np.broadcast_to(S.interior_mask(0.5), S.values.shape)
    assert np.abs(S.values - exact)[mask].max() <= 1e-10


def _symbol_table_2d_ref(f, grid):
    """The 2D slab loop with f sampled on the full midpoint x momentum block."""
    N = grid.N
    xi_mesh = grid.xi_mesh()
    half = grid.half_nodes()
    W = np.empty((grid.npoints, grid.npoints), dtype=complex)
    i = np.arange(N)
    i2g, j2g = np.meshgrid(i, i, indexing="ij")
    p2 = i2g + j2g
    d2 = i2g - j2g
    sign2 = (-1.0) ** d2
    for p1, q1 in enumerate(half):
        qgrid = np.empty((2 * N - 1, N, N, 2))
        qgrid[..., 0] = q1
        qgrid[..., 1] = half[:, None, None]
        F = np.empty((2 * N - 1, N, N), dtype=complex)
        F[...] = f(qgrid, xi_mesh[None])  # a constant callable returns a scalar
        G = sp_fft.ifft2(F, axes=(1, 2))
        for i1 in range(max(0, p1 - N + 1), min(N, p1 + 1)):
            j1 = p1 - i1
            d1 = i1 - j1
            W[i1 * N:(i1 + 1) * N, j1 * N:(j1 + 1) * N] = (
                (-1.0) ** d1 * sign2 * G[p2, d1 % N, d2 % N]
            )
    return W


def _symbol_table_ref(f, grid):
    """The per-branch table: P x P difference arrays and (-1.0) ** d powers
    for x-independent symbols and in 1D, the 2D slab loop otherwise."""
    N, n = grid.N, grid.n
    xi_mesh = grid.xi_mesh()
    flat = np.arange(grid.npoints)
    if f.x_independent:
        G = sp_fft.ifftn(np.asarray(f(np.zeros_like(xi_mesh), xi_mesh), dtype=complex))
        if n == 1:
            d = flat[:, None] - flat[None, :]
            return (-1.0) ** d * G[d % N]
        i1, i2 = flat // N, flat % N
        d1 = i1[:, None] - i1[None, :]
        d2 = i2[:, None] - i2[None, :]
        return (-1.0) ** (d1 + d2) * G[d1 % N, d2 % N]
    if n == 2:
        return _symbol_table_2d_ref(f, grid)
    F = np.asarray(f(grid.half_nodes()[:, None, None], xi_mesh[None, :, :]), dtype=complex)
    G = sp_fft.ifft(F, axis=1)
    i = np.arange(N)
    p = i[:, None] + i[None, :]
    d = i[:, None] - i[None, :]
    return (-1.0) ** d * G[p, d % N]


@pytest.mark.parametrize("f", [
    Symbol.from_expression("xi1^2 + 0.5*xi2^2 + arctan(x1)*xi2", 2, m=2),
    Symbol.from_expression("arctan(x1)", 2),
    Symbol.from_callable(lambda x, xi: np.arctan(x[..., 0]), 2),
    Symbol.from_callable(lambda x, xi: 2.5, 2),
    Symbol.from_expression("xi1^2 + 0.5*xi2^2 + sin(xi1*xi2)", 2, m=2),
], ids=["x-and-xi", "x-only", "x-only-narrow", "constant", "xi-only"])
def test_symbol_table_samples_each_midpoint_once_bit_for_bit(f):
    g = make_grid(2, 8.0, 12)
    assert np.array_equal(_symbol_table(f, g), _symbol_table_ref(f, g))


@pytest.mark.parametrize("text", ["xi1^2 + sin(xi1)", "xi1^2 + arctan(x1)*xi1 + exp(-x1^2)"],
                         ids=["xi-only", "x-and-xi"])
@pytest.mark.parametrize("N", [12, 32])
def test_1d_symbol_table_is_bit_identical_to_the_branch_reference(text, N):
    g = make_grid(1, 10.0, N)
    f = Symbol.from_expression(text, 1, m=2)
    assert f.x_independent == ("x1" not in text)
    assert np.array_equal(_symbol_table(f, g), _symbol_table_ref(f, g))


# -- reference wrong quantization: its own slab loop ------------------------


def _wrong_symbol_table_ref(f, A, grid):
    N, n = grid.N, grid.n
    xi_mesh = grid.xi_mesh()
    half = grid.half_nodes()
    if n == 1:
        q = half[:, None, None]
        Aq = A.evaluate(q)  # (2N-1, 1, 1)
        F = np.asarray(f(q, xi_mesh[None, :, :] - Aq), dtype=complex)
        G = sp_fft.ifft(F, axis=1)
        i = np.arange(N)
        p = i[:, None] + i[None, :]
        d = i[:, None] - i[None, :]
        return (-1.0) ** d * G[p, d % N]
    W = np.empty((grid.npoints, grid.npoints), dtype=complex)
    i = np.arange(N)
    i2g, j2g = np.meshgrid(i, i, indexing="ij")
    p2 = i2g + j2g
    d2 = i2g - j2g
    sign2 = (-1.0) ** d2
    for p1, q1 in enumerate(half):
        qgrid = np.empty((2 * N - 1, 1, 1, 2))
        qgrid[..., 0] = q1
        qgrid[..., 1] = half[:, None, None]
        Aq = A.evaluate(qgrid)  # (2N-1, 1, 1, 2)
        F = np.asarray(f(qgrid, xi_mesh[None] - Aq), dtype=complex)
        G = sp_fft.ifft2(F, axes=(1, 2))
        for i1 in range(max(0, p1 - N + 1), min(N, p1 + 1)):
            j1 = p1 - i1
            d1 = i1 - j1
            W[i1 * N:(i1 + 1) * N, j1 * N:(j1 + 1) * N] = (
                (-1.0) ** d1 * sign2 * G[p2, d1 % N, d2 % N]
            )
    return W


def _wrong_case(case):
    if case == "1d":
        A = VectorPotential.from_expressions(1, ["0.3*x1 + arctan(x1)"])
        return make_grid(1, 10.0, 32), A, "xi1^2 + arctan(x1)*xi1"
    text = "xi1^2 + 0.5*xi2^2 + arctan(x1)*xi2"
    if case == "const12":
        return make_grid(2, 8.0, 12), transversal_gauge(MagneticField.constant(2, 0.7)), text
    if case == "explicit12":
        A = VectorPotential.from_expressions(2, ["-arctan(x2)", "x1*exp(-x1^2/8)"])
        return make_grid(2, 8.0, 12), A, text
    B = MagneticField.from_expressions(2, {(1, 2): "1 + 0.5/(1+x1^2)"})
    return make_grid(2, 10.0, 24), transversal_gauge(B), text


@pytest.mark.parametrize("case", ["1d", "const12", "explicit12", "nonpoly24"])
def test_wrong_quantize_is_bit_identical_to_its_slab_loop(case):
    g, A, text = _wrong_case(case)
    f = Symbol.from_expression(text, g.n, m=2)
    assert np.array_equal(wrong_quantize(f, Gauge(A, g)).matrix, _wrong_symbol_table_ref(f, A, g))


def test_wrong_quantize_without_field_is_quantize():
    g = make_grid(2, 8.0, 12)
    f = Symbol.from_expression("xi1^2 + xi2^2 + arctan(x1)", 2, m=2)
    G0 = Gauge(VectorPotential.zero(2), g)
    assert np.array_equal(wrong_quantize(f, G0).matrix, quantize(f, G0).matrix)


# -- chunked lattice sums ---------------------------------------------------


def _sums_in_chunks(case):
    """(kernel or symbol callable, points a, points b): more points than one
    chunk of the lattice sum holds."""
    rng = np.random.default_rng(7)
    if case == "partial_fourier":  # 1024 points per chunk
        g = make_grid(2, 12.0, 64)
        fn = partial_fourier(_gaussian_kernel(g, 3)).fn
        count = (1 << 22) // g.npoints + 5
    elif case == "partial_fourier_inverse":
        g = make_grid(2, 12.0, 64)
        f = Symbol.from_expression("exp(-xi1^2 - xi2^2) * (1 + arctan(x1))", 2)
        fn = partial_fourier_inverse(f, g).fn
        count = (1 << 22) // g.npoints + 5
    else:  # twisted products, 1024 points per chunk
        g = make_grid(2, 8.0, 16)
        B = (MagneticField(n=2, components={}) if case == "twisted_zero"
             else MagneticField.from_expressions(2, {(1, 2): "1 + 1/(1+x1^2)"}))
        fn = twisted_product(_gaussian_kernel(g, 4), _gaussian_kernel(g, 5), B, g).fn
        count = (1 << 18) // g.npoints + 5
    return fn, rng.uniform(-2.0, 2.0, (count, 2)), rng.uniform(-2.0, 2.0, (count, 2))


@pytest.mark.parametrize("case", ["partial_fourier", "partial_fourier_inverse",
                                  "twisted_zero", "twisted_nonpolynomial"])
def test_lattice_sums_over_several_chunks_match_the_sums_point_by_point(case):
    fn, a, b = _sums_in_chunks(case)
    batch = fn(a, b)
    assert batch.shape == (len(a),)
    assert np.array_equal(batch, [fn(a[k], b[k]) for k in range(len(a))])
    # the point axes broadcast against each other
    assert np.array_equal(fn(a[:3, None, :], b[None, :4, :])[2, 3], fn(a[2], b[3]))


# -- interior -----------------------------------------------------------------


@pytest.mark.parametrize("n, N", [(1, 20), (1, 40), (1, 80), (1, 160), (2, 20), (2, 40)])
def test_the_interior_mask_is_symmetric_under_reflection(n, N):
    # at L = 7.3 rounding puts x = -0.4 L and x = +0.4 L on either side of
    # the bound 0.4 L; node 0 (x = -L/2) has no mirror node
    g = make_grid(n, 7.3, N)
    S = SampledSymbol(g, np.eye(g.npoints))
    mask = S.interior_mask().reshape((N,) * n)[(slice(1, None),) * n]
    assert np.array_equal(mask, np.flip(mask))
    assert 0 < np.count_nonzero(mask) < (N - 1) ** n
