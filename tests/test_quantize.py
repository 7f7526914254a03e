"""Quantization, dequantization, magnetic translations, kernel calculus."""

import types

import numpy as np
import pytest
from scipy import fft as sp_fft

import magweyl

from magweyl.grid import make_grid
from magweyl.magnetics import MagneticField, VectorPotential, transversal_gauge
from magweyl.quantize import (
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
    M = quantize(f, VectorPotential.zero(1), g)
    expect = np.diag(np.arctan(g.x_nodes))
    np.testing.assert_allclose(M.matrix, expect, atol=1e-12)


def test_momentum_symbol_is_fourier_multiplier():
    g = make_grid(1, 10.0, 32)
    f = Symbol.from_expression("xi1^2", 1, m=2, real=True)
    M = quantize(f, VectorPotential.zero(1), g)
    # eigenvalues are exactly the squared lattice momenta
    vals = np.sort(np.linalg.eigvalsh(M.matrix))
    np.testing.assert_allclose(vals, np.sort(g.xi_nodes**2), atol=1e-10)


def test_round_trip_exact():
    g = make_grid(2, 8.0, 12)
    B = MagneticField.constant(2, 0.6)
    A = VectorPotential.from_expressions(2, ["-0.3*x2", "0.3*x1"])
    f = Symbol.from_expression("xi1^2 + xi2^2 + 1/(1+x1^2)", 2, m=2, real=True)
    M = quantize(f, A, g)
    table = dequantize(M, A)
    M2 = quantize(table, A, g)
    np.testing.assert_allclose(M2.matrix, M.matrix, atol=1e-12 * np.abs(M.matrix).max())


def test_dequantize_table_is_gauge_independent():
    g = make_grid(2, 8.0, 12)
    B = MagneticField.constant(2, 0.6)
    A1 = VectorPotential.from_expressions(2, ["-0.3*x2", "0.3*x1"])
    A2 = VectorPotential.from_expressions(2, ["-0.6*x2", "0"])  # Landau gauge
    f = Symbol.from_expression("xi1^2 + xi2^2", 2, m=2, real=True)
    t1 = dequantize(quantize(f, A1, g), A1)
    t2 = dequantize(quantize(f, A2, g), A2)
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
    M1 = quantize(f, A1, g)
    M2 = quantize(f, A2, g)
    phase = np.exp(1j * psi(g.x_flat()))
    conj = phase[:, None] * M1.matrix * np.conj(phase)[None, :]
    res = np.linalg.norm(conj - M2.matrix) / np.linalg.norm(M2.matrix)
    assert res < 1e-9
    # the negative control breaks covariance by orders of magnitude
    W1 = wrong_quantize(f, A1, g)
    W2 = wrong_quantize(f, A2, g)
    wconj = phase[:, None] * W1.matrix * np.conj(phase)[None, :]
    wres = np.linalg.norm(wconj - W2.matrix) / np.linalg.norm(W2.matrix)
    assert wres > 1e-2


def test_real_symbol_hermitian():
    g = make_grid(1, 12.0, 32)
    f = Symbol.from_expression("xi1^2 + arctan(x1)", 1, m=2, real=True)
    M = quantize(f, VectorPotential.zero(1), g)
    assert M.hermiticity_defect() < 1e-12


def test_circulation_matrix_thread_independence():
    g = make_grid(2, 6.0, 8)
    A = VectorPotential.from_expressions(2, ["-0.5*x2", "0.5*x1"])
    C1 = circulation_matrix(A, g, threads=1)
    C4 = circulation_matrix(A, g, threads=4)
    np.testing.assert_array_equal(C1, C4)


def test_magnetic_translation_composition():
    # T(x) T(y) = diag(omega^B(.; x, y)) T(x + y)
    g = make_grid(2, 8.0, 8)
    B = MagneticField.constant(2, 0.9)
    A = VectorPotential.from_expressions(2, ["-0.45*x2", "0.45*x1"])
    x = np.array([g.dx, 0.0])
    y = np.array([0.0, 2 * g.dx])
    Tx = magnetic_translation(A, x, g)
    Ty = magnetic_translation(A, y, g)
    Txy = magnetic_translation(A, x + y, g)
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
        magnetic_translation(A, np.array([0.3 * g.dx, 0.0]), g)


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
    M1 = rep_A(F, A, g).matrix
    f = partial_fourier(F)
    M2 = quantize(f, A, g).matrix
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
    M = rep_A(F, A, g).matrix
    Mstar = rep_A(kernel_involution(F), A, g).matrix
    np.testing.assert_allclose(Mstar, M.conj().T, atol=1e-12 * np.abs(M).max())


def test_twisted_product_intertwines_zero_field():
    g = make_grid(1, 12.0, 32)
    B = MagneticField(n=1, components={})
    A = VectorPotential.zero(1)
    F = _gaussian_kernel(g, 5)
    G = _gaussian_kernel(g, 6)
    P = rep_A(F, A, g).matrix @ rep_A(G, A, g).matrix
    M = rep_A(twisted_product(F, G, B, g), A, g).matrix
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


@pytest.mark.parametrize("text, b", [
    ("xi1^2 + 0.5*xi2^2", 0.0),
    ("xi1^2 + 0.5*xi2^2 + arctan(x1)*xi2 + exp(-x2^2)", 0.5),
])
def test_2d_samples_match_the_symbol(text, b):
    g = make_grid(2, 8.0, 16)
    A = (VectorPotential.from_expressions(2, [f"{-b / 2}*x2", f"{b / 2}*x1"]) if b
         else VectorPotential.zero(2))
    f = Symbol.from_expression(text, 2, m=2, real=True)
    S = dequantize(quantize(f, A, g), A)
    exact = f(*_phase_mesh(g))
    mask = np.broadcast_to(S.interior_mask(0.5), S.values.shape)
    assert np.abs(S.values - exact)[mask].max() <= 1e-10


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
    assert np.array_equal(wrong_quantize(f, A, g).matrix, _wrong_symbol_table_ref(f, A, g))


def test_wrong_quantize_without_field_is_quantize():
    g = make_grid(2, 8.0, 12)
    f = Symbol.from_expression("xi1^2 + xi2^2 + arctan(x1)", 2, m=2)
    A0 = VectorPotential.zero(2)
    assert np.array_equal(wrong_quantize(f, A0, g).matrix, quantize(f, A0, g).matrix)
