"""Quantization, dequantization, magnetic translations, kernel calculus."""

import ast
import importlib
import os
import subprocess
import sys
import tracemalloc
import types
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from scipy import fft as sp_fft

import magweyl

from magweyl.grid import PhaseSpaceGrid, make_grid
from magweyl.magnetics import (
    DEFAULT_QUAD,
    FluxQuadrature,
    MagneticField,
    VectorPotential,
    circulation,
    exact_order,
    transversal_gauge,
)
from magweyl.quantize import (
    Gauge,
    MagneticOperator,
    SampledSymbol,
    _difference_table,
    _even_transform,
    _fold,
    _matmul,
    _real_even,
    _stencils,
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
    _xi1_ray,
    translation_cocycle_diagonal,
    twisted_product,
    wrong_quantize,
)
from magweyl.spectral import spectrum
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


def test_the_hermiticity_defect_holds_no_square_work_array():
    # P = 1296, as in a 2D N = 36 spectrum: one block of 64 rows is 0.8 P^2
    # bytes; the whole m - m^H took 16 P^2
    g = make_grid(2, 16.0, 36)
    P = g.npoints
    m = np.random.default_rng(1).normal(size=(P, 2 * P)).view(complex)
    M = MagneticOperator(g, m)
    tracemalloc.start()
    try:
        defect = M.hermiticity_defect()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < P ** 2
    assert defect == pytest.approx(np.linalg.norm(m - m.conj().T) / np.linalg.norm(m),
                                   rel=1e-12, abs=0)


def _circulation_case(case):
    g2 = make_grid(2, 10.0, 12)
    if case == "linear":
        return g2, VectorPotential.from_expressions(2, ["-0.5*x2", "0.5*x1"])
    if case == "explicit":
        return g2, VectorPotential.from_expressions(2, ["-arctan(x2)", "x1*exp(-x1^2/8)"])
    if case == "transversal":
        return g2, transversal_gauge(MagneticField.from_expressions(2, {(1, 2): "1 + 1/(1+x1^2)"}))
    return make_grid(1, 20.0, 100), VectorPotential.from_expressions(1, ["sin(x1)"])


@pytest.mark.parametrize("case", ["linear", "explicit", "transversal"])
def test_circulation_matrix_fills_the_lower_triangle_exactly_from_the_upper(case, monkeypatch):
    g, A = _circulation_case(case)
    P = g.npoints
    quantize_module = importlib.import_module("magweyl.quantize")
    # a 2D grid has P = N^2 with 4 | N, a multiple of the 8-row block, so a
    # partial last block of the mirror needs another block size
    monkeypatch.setattr(quantize_module, "_ROWS", 7)
    assert P % quantize_module._ROWS != 0
    # every ordered pair in one broadcast call
    X = g.x_flat()
    expect = circulation(A, X[:, None, :], X[None, :, :], DEFAULT_QUAD)
    C = circulation_matrix(A, g)
    upper = np.triu_indices(P, 1)
    assert np.array_equal(C[upper], expect[upper])
    assert np.array_equal(C, -C.T)
    assert np.array_equal(np.diag(C), np.zeros(P))
    # a small budget splits every block into column chunks, some partial:
    # 3 of the j1 groups of N^2 q points (q = 1), which block i1 covers in
    # N - i1 groups, or 5 of the N = 12 j2 nodes of one group (q = 8)
    monkeypatch.setattr(quantize_module, "_POINTS", 500)
    N, q = g.N, exact_order(DEFAULT_QUAD, A.degree)
    if N * N * q <= quantize_module._POINTS:
        chunk = quantize_module._POINTS // (N * N * q)
    else:
        chunk = quantize_module._POINTS // (N * q)
        assert N % chunk != 0
    assert 1 < chunk < N
    assert circulation_matrix(A, g).tobytes() == C.tobytes()


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


@pytest.mark.parametrize("A, builds", [
    (VectorPotential.from_expressions(2, ["-arctan(x2)", "x1*exp(-x1^2/8)"]), 1),
    (VectorPotential.zero(2), 0),
], ids=["nonpolynomial", "zero"])
def test_the_gauge_cache_gives_the_written_out_phase(A, builds, monkeypatch):
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
    # the phase of a zero potential is 1: it builds no C at all
    assert len(calls) == builds


@pytest.mark.parametrize("case", ["linear", "transversal"])
def test_the_slabs_of_c_and_their_mirrors_give_the_row_block_phase_bit_for_bit(case):
    # the symmetric gauge and the transversal gauge of a non-polynomial
    # field, applied from C by slabs of N rows.  A degree-1 gauge has a
    # separable phase, so the symmetric one is given an unknown degree to
    # keep the slabs of C under this check
    g, A = _circulation_case(case)
    if case == "linear":
        A = replace(A, degree=None)
    P, rows = g.npoints, g.N
    gauge = Gauge(A, g)
    C = gauge.circulation
    W = np.random.default_rng(7).normal(size=(P, 2 * P)).view(complex)
    for sign, apply in ((-1j, gauge.attach), (1j, gauge.strip)):
        expect = W.copy()
        for a in range(0, P, rows):
            r = slice(a, a + rows)
            expect[r] = np.exp(sign * C[r]) * expect[r]
        assert apply(W.copy()).tobytes() == expect.tobytes()


@pytest.mark.parametrize("text", ["sin(x1)", "arctan(x1)"])
def test_a_1d_gauge_applies_the_phase_of_u_without_building_c(text, monkeypatch):
    # P = 100 ends in a partial slab of 64 rows; C_ref is a 200-node rule on
    # every segment, which resolves both potentials over L = 20
    g = make_grid(1, 20.0, 100)
    A = VectorPotential.from_expressions(1, [text])
    assert A.degree is None
    P, X = g.npoints, g.x_flat()
    quantize_module = importlib.import_module("magweyl.quantize")
    assert P % quantize_module._PHASE_ROWS != 0
    C_ref = circulation(A, X[:, None, :], X[None, :, :], FluxQuadrature(200))
    monkeypatch.setattr(quantize_module, "circulation_matrix", None)  # no C is built
    gauge = Gauge(A, g)
    W = np.random.default_rng(5).normal(size=(P, 2 * P)).view(complex)
    top = np.abs(W).max()
    for sign, apply in ((-1j, gauge.attach), (1j, gauge.strip)):
        phase = apply(np.ones((P, P), dtype=complex))
        assert np.array_equal(phase, phase.conj().T)
        assert np.array_equal(np.diag(phase), np.ones(P))
        assert np.abs(phase - np.exp(sign * C_ref)).max() <= 1e-12
        assert np.array_equal(apply(W.copy()), phase * W)
    assert np.abs(gauge.strip(gauge.attach(W.copy())) - W).max() <= 2e-15 * top


def _grid_of_any_size(n, L, N):
    """A grid with any N: the phase takes no FFT, so the multiple-of-4 rule
    of PhaseSpaceGrid does not bind it."""
    g = object.__new__(PhaseSpaceGrid)
    for key, value in {"n": n, "L": L, "N": N}.items():
        object.__setattr__(g, key, value)
    return g


_DEGREE_ONE_GAUGES = {
    "symmetric": VectorPotential.from_expressions(2, ["-0.5*x2", "0.5*x1"]),
    "landau": VectorPotential.from_expressions(2, ["0", "0.9*x1"]),
    # a constant part and a symmetric part of K: a gauge transform u on top
    "offset-linear": VectorPotential.from_expressions(
        2, ["0.3 + 0.2*x1 - 0.5*x2", "-0.1 + 0.5*x1 + 0.1*x2"]),
    "transversal": transversal_gauge(MagneticField.constant(2, 0.7)),
}


@pytest.mark.parametrize("N", [10, 13])
@pytest.mark.parametrize("name", sorted(_DEGREE_ONE_GAUGES))
def test_a_degree_one_gauge_applies_the_phase_of_c_without_building_it(name, N, monkeypatch):
    # N = 10 is not a multiple of 4 and N = 13 is odd; C comes from the
    # general path, before the builder is counted
    A = _DEGREE_ONE_GAUGES[name]
    g = _grid_of_any_size(2, 10.0, N)
    P = g.npoints
    C = circulation_matrix(A, g)
    g12 = make_grid(2, 10.0, 12)
    C12 = circulation_matrix(A, g12)
    quantize_module = importlib.import_module("magweyl.quantize")
    calls = []

    def counting(*args, **kwargs):
        calls.append(args)
        return circulation_matrix(*args, **kwargs)

    monkeypatch.setattr(quantize_module, "circulation_matrix", counting)
    gauge = Gauge(A, g)
    W = np.random.default_rng(3).normal(size=(P, 2 * P)).view(complex)
    top = np.abs(W).max()
    for sign, apply in ((-1j, gauge.attach), (1j, gauge.strip)):
        assert np.abs(apply(W.copy()) - np.exp(sign * C) * W).max() <= 1e-14 * top
        # the phase alone is exactly conjugate-symmetric, with a diagonal of 1
        phase = apply(np.ones((P, P), dtype=complex))
        assert np.array_equal(phase, phase.conj().T)
        assert np.array_equal(np.diag(phase), np.ones(P))
    assert np.abs(gauge.strip(gauge.attach(W.copy())) - W).max() <= 2e-15 * top
    t = np.rot90(np.arange(P).reshape(N, N), -1).ravel()
    assert np.abs(gauge.rotation_phase() - (C[t[0], t] - C[0])).max() <= 1e-14 * np.abs(C).max()
    # the swap R reverses the circulation up to its gauge term h, for every pair
    s = np.arange(P).reshape(N, N).T.ravel()  # s[a] = R a
    h = gauge.reflection_phase()
    assert np.array_equal(h[s], h)
    assert np.abs(C[np.ix_(s, s)] + C - (h - h[:, None])).max() <= 1e-13 * np.abs(C).max()
    # quantize skips its build of C too
    f = Symbol.from_expression("xi1^2 + 0.5*xi2^2 + arctan(x1)*xi2", 2, m=2)
    M = quantize(f, Gauge(A, g12))
    expect = np.exp(-1j * C12) * _symbol_table(f, g12)
    assert np.abs(M.matrix - expect).max() <= 1e-14 * np.abs(expect).max()
    assert calls == []


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


def run_probe(code: str, threads: str, *args: str) -> str:
    """The stdout of ``code`` run by a fresh interpreter on ``threads``
    OpenBLAS threads, importing this checkout's magweyl; its stderr on failure."""
    src = str(Path(magweyl.__file__).parents[1])
    env = {**os.environ, "OPENBLAS_NUM_THREADS": threads,
           "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    run = subprocess.run([sys.executable, "-c", code, *args], env=env, capture_output=True,
                         text=True)
    assert run.returncode == 0, run.stderr
    return run.stdout


_SAMPLER_PROBE = """
import hashlib
import numpy as np
from magweyl.grid import make_grid
from magweyl.quantize import _table_to_samples
for n, N in ((1, 64), (2, 32)):
    g = make_grid(n, 8.0, N)
    rng = np.random.default_rng(N + 100 * n)
    W = rng.standard_normal((g.npoints,) * 2) + 1j * rng.standard_normal((g.npoints,) * 2)
    for keep in (None, g.interior_nodes()):
        print(hashlib.sha256(_table_to_samples(W, g, keep).tobytes()).hexdigest())
"""


def test_the_samples_do_not_depend_on_the_blas_threads():
    # the stencil products are sparse row sums in a fixed order; no threaded
    # BLAS call may enter the sampler
    digests = [run_probe(_SAMPLER_PROBE, threads) for threads in ("1", "2")]
    assert len(digests[0].split()) == 4
    assert digests[0] == digests[1]


@pytest.mark.parametrize("n, N", [(1, 512), (2, 32)])
def test_the_sampler_peaks_within_two_tables(n, N):
    # the samples take one complex P x P array; the stencil matrices and the
    # work arrays of one offset d1 are O(N^2) in 1D and O(P^1.5) in 2D
    g = make_grid(n, 8.0, N)
    rng = np.random.default_rng(N)
    W = rng.standard_normal((g.npoints,) * 2) + 1j * rng.standard_normal((g.npoints,) * 2)
    for keep in (None, g.interior_nodes()):
        tracemalloc.start()
        try:
            _table_to_samples(W, g, keep)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 2 * W.nbytes


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


@pytest.mark.parametrize("n, N", [(1, 256), (2, 24), (2, 32)])
def test_the_xi1_ray_is_the_values_slice_at_x0_bit_for_bit(n, N):
    g = make_grid(n, 8.0, N)
    rng = np.random.default_rng(N + 100 * n + 11)
    W = rng.standard_normal((g.npoints,) * 2) + 1j * rng.standard_normal((g.npoints,) * 2)
    S = SampledSymbol(g, W)
    top = np.max(g.xi_nodes)
    xi, ray = _xi1_ray(S, 0.2 * top, 0.9 * top, "window", "advice")
    mid = N // 2
    keep = (g.xi_nodes >= 0.2 * top) & (g.xi_nodes <= 0.9 * top)
    ref = S.values[(mid,) * n + (slice(None),) + (mid,) * (n - 1)][keep]
    assert np.array_equal(xi, g.xi_nodes[keep])
    assert ray.tobytes() == ref.tobytes()


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
    # without its AST, so the x-only expression takes the slab branch
    Symbol.from_callable(Symbol.from_expression("arctan(x1)", 2).fn, 2),
    Symbol.from_callable(lambda x, xi: np.arctan(x[..., 0]), 2),
    Symbol.from_callable(lambda x, xi: 2.5, 2),
    Symbol.from_expression("xi1^2 + 0.5*xi2^2 + sin(xi1*xi2)", 2, m=2),
], ids=["x-and-xi", "x-only", "x-only-narrow", "constant", "xi-only"])
def test_symbol_table_samples_each_midpoint_once_bit_for_bit(f):
    g = make_grid(2, 8.0, 12)
    assert np.array_equal(_symbol_table(f, g), _symbol_table_ref(f, g))


@pytest.mark.parametrize("real", [False, True], ids=["complex", "fold"])
@pytest.mark.parametrize("N", [12, 16])
def test_the_2d_x_independent_table_is_the_difference_gather_to_the_bit(N, real):
    # N/4 odd and even (the grid takes multiples of 4 only); the symbol is
    # even in each momentum, so the real branch takes the DCT-I fold
    g = make_grid(2, 10.0, N)
    f = Symbol.from_expression("xi1^2 + 0.5*xi2^2 + cos(xi1)", 2, m=2, real=True)
    assert f.x_independent
    W = _symbol_table(f, g, real=real)
    if real:
        xi_mesh = g.xi_mesh()
        G = _even_transform(f(np.zeros_like(xi_mesh), xi_mesh), 2)
        i1, i2 = np.divmod(np.arange(g.npoints), N)
        ref = G[_fold(i1[:, None] - i1, N), _fold(i2[:, None] - i2, N)]
    else:
        ref = _symbol_table_ref(f, g)
    assert W.dtype == ref.dtype == (float if real else complex)
    assert np.array_equal(W, ref)
    # Gauge.attach writes the table in place
    assert W.flags.c_contiguous and W.flags.writeable


@pytest.mark.parametrize("N", [4, 12])
def test_the_difference_table_is_a_fresh_copy(N):
    S = np.random.default_rng(N).normal(size=(2 * N - 1, 2 * N - 1))
    W = _difference_table(S, N)
    i1, i2 = np.divmod(np.arange(N * N), N)
    assert np.array_equal(W, S[i1[:, None] - i1 + N - 1, i2[:, None] - i2 + N - 1])
    assert W.flags.c_contiguous and W.flags.writeable
    assert not np.shares_memory(W, S)
    W[0, 0] = 0.0
    assert S[N - 1, N - 1] != 0.0


@pytest.mark.parametrize("text", ["xi1^2 + sin(xi1)", "xi1^2 + arctan(x1)*xi1 + exp(-x1^2)"],
                         ids=["xi-only", "x-and-xi"])
@pytest.mark.parametrize("N", [12, 32])
def test_1d_symbol_table_is_bit_identical_to_the_branch_reference(text, N):
    g = make_grid(1, 10.0, N)
    f = Symbol.from_expression(text, 1, m=2)
    assert f.x_independent == ("x1" not in text)
    # without its AST, so the potential term stays in the branch's table
    bare = Symbol.from_callable(f.fn, 1, m=2, x_independent=f.x_independent)
    assert np.array_equal(_symbol_table(bare, g), _symbol_table_ref(bare, g))


@pytest.mark.parametrize("n, text", [
    (1, "xi1^2 + arctan(x1)*xi1^2"),
    (2, "xi1^2 + xi2^2 + arctan(x1)*xi2^2"),
    (1, "xi1^2 + cos(xi1)"),
    (2, "xi1^2 + 0.5*xi2^2"),
    (2, "xi1^2 + xi2^2 + 0.5*arctan(x1) + 0.3*exp(-x2^2)"),
], ids=["1d-slab", "2d-slab", "1d-x-independent", "2d-x-independent", "2d-split"])
def test_a_real_table_is_the_real_part_of_the_complex_table_to_the_bit(n, text):
    g = make_grid(n, 10.0, 32 if n == 1 else 12)
    f = Symbol.from_expression(text, n, m=2, real=True)
    W, real = _symbol_table(f, g), _symbol_table(f, g, real=True)
    assert (W.dtype, real.dtype) == (complex, float)
    # the DCT-I of the even samples: a few ulps of max|W| from the complex
    # table's real part, and exactly symmetric.  A wrong (-1)^d sign is the
    # similarity S W S with S = diag((-1)^i): symmetric, and invisible to
    # every inversion summary, so only the distance to W shows it
    assert np.abs(real - W.real).max() <= 1e-15 * np.abs(W).max()
    assert np.array_equal(real, real.T)
    # what the real table drops is FFT rounding
    assert 0.0 < np.abs(W.imag).max() <= 1e-15 * np.abs(W).max()
    # the sampler reads a real table as its complex copy, to the bit
    assert (SampledSymbol(g, real).interior_sup()
            == SampledSymbol(g, real.astype(complex)).interior_sup())
    assert SampledSymbol(g, real).values.tobytes() == \
        SampledSymbol(g, real.astype(complex)).values.tobytes()


@pytest.mark.parametrize("f", [
    Symbol.from_expression("xi1 + arctan(x1)", 1, m=1, real=True),
    Symbol.from_expression("xi1^2 + xi2^2 + xi1*xi2", 2, m=2, real=True),
    Symbol.from_callable(lambda x, xi: xi[..., 0] ** 2 + 0.5j * np.exp(-x[..., 0] ** 2), 1, m=2),
], ids=["xi-odd", "nyquist-line", "nonreal"])
def test_a_table_that_is_not_exactly_real_stays_complex(f):
    g = make_grid(f.n, 10.0, 32 if f.n == 1 else 12)
    W = _symbol_table(f, g, real=True)
    assert W.dtype == complex and W.tobytes() == _symbol_table(f, g).tobytes()
    if f.n == 2:
        # xi1 xi2 is even, but the Nyquist node -N/2 is its own reflection,
        # where xi1 xi2 changes sign: only that line fails the test
        F = f(np.zeros((g.N, g.N, 2)), g.xi_mesh())
        r = -np.arange(g.N) % g.N
        bad = F != F[np.ix_(r, r)]
        assert bad.any() and not bad[1:, 1:].any()


def _midpoint_samples(f, g):
    """f at every midpoint q_ij over the momentum lattice: shape (M,) + (N,)*n."""
    half = g.half_nodes()
    q = np.stack(np.meshgrid(*[half] * g.n, indexing="ij"), axis=-1)
    return f(q.reshape((-1,) + (1,) * g.n + (g.n,)), g.xi_mesh()[None])


_CURL_FREE = VectorPotential.from_expressions(2, ["0.5*x2", "0.5*x1"])  # grad(x1 x2 / 2)


@pytest.mark.parametrize("n, text, A, real", [
    (1, "xi1^2 + arctan(x1)", None, True),
    (2, "xi1^2 + xi2^2 + 0.5*arctan(x1) + 0.3*exp(-x2^2)", None, True),
    (2, "xi1^2 + xi2^2", None, True),
    (1, "xi1^2 + 0.5*xi1 + arctan(x1)", None, False),
    (2, "xi1^2 + xi2^2 + 0.5*xi1 + 0.3*exp(-x2^2)", None, False),
    (1, "xi1^2 + arctan(x1)", VectorPotential.from_expressions(1, ["0.3*x1"]), False),
    (2, "xi1^2 + xi2^2 + 0.5*arctan(x1) + 0.3*exp(-x2^2)", _CURL_FREE, False),
    (2, "xi1^2 + xi2^2", transversal_gauge(MagneticField.constant(2, 0.6)), False),
], ids=["1d-even", "2d-even-potential", "2d-even-rotation", "1d-xi-odd", "2d-xi-odd",
        "1d-curl-free", "2d-curl-free", "2d-constant-field"])
def test_quantize_is_real_exactly_when_the_zero_gauge_table_is_and_agrees_with_complex(
        n, text, A, real):
    g = make_grid(n, 20.0 if n == 1 else 8.0, 64 if n == 1 else 12)
    f = Symbol.from_expression(text, n, m=2, real=True)
    gauge = Gauge(VectorPotential.zero(n) if A is None else A, g)
    M = quantize(f, gauge)
    assert _real_even(_midpoint_samples(f, g), n) == (real or A is not None)
    assert M.matrix.dtype == (float if real else complex)
    if not real:
        return
    # the fast path against the general one: the same table, complex
    C = MagneticOperator(g, M.matrix.astype(complex), M.rotation_phase)
    assert C.matrix.dtype == complex
    assert M.hermiticity_defect() == 0.0
    res, res_c = spectrum(M), spectrum(C)
    assert res.symmetry_order == res_c.symmetry_order
    lam, lam_c = res.eigenvalues, res_c.eigenvalues
    assert np.abs(lam - lam_c).max() <= 1e-12 * np.abs(lam_c).max()
    assert M.operator_norm() == pytest.approx(C.operator_norm(), rel=1e-12, abs=0)
    S, S_c = dequantize(M, gauge), dequantize(C, gauge)
    assert (S.table.dtype, S_c.table.dtype) == (float, complex)
    assert S.values.tobytes() == S_c.values.tobytes()
    again = quantize(S, gauge).matrix
    assert again.dtype == float and np.array_equal(again, M.matrix)
    # a SampledSymbol keeps its table's dtype in the zero gauge
    assert quantize(S_c, gauge).matrix.dtype == complex
    # another gauge strips its phase from a complex copy of the real matrix
    other = Gauge(_CURL_FREE if n == 2 else VectorPotential.from_expressions(1, ["0.3*x1"]), g)
    assert dequantize(M, other).table.tobytes() == dequantize(C, other).table.tobytes()


def test_a_zero_gauge_table_that_turns_complex_drops_its_float_start():
    # the real 2D build stops at the first midpoint slab that fails the
    # exact test and starts again complex; holding its float64 table
    # meanwhile cost 8 P^2 bytes more (29.4 P^2 against 21.5 P^2)
    g = make_grid(2, 12.0, 24)
    P = g.npoints
    f = Symbol.from_expression("xi1^2 + xi2^2 + 0.5*xi1*exp(-x1^2)", 2, m=2, real=True)
    gauge = Gauge(VectorPotential.zero(2), g)
    quantize(f, gauge)  # lazy imports and caches outside the trace
    tracemalloc.start()
    try:
        M = quantize(f, gauge)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert M.matrix.dtype == complex
    assert peak <= 24 * P ** 2


@pytest.mark.parametrize("case", ["zero1d", "sin1d", "zero2d", "linear", "transversal"])
def test_an_x_only_expression_quantizes_to_its_multiplication_operator(case):
    # dx dxi N = 2 pi and C_ii = 0 in every gauge, so the matrix is diag(V(x_i))
    if case.startswith("zero"):
        n = int(case[-2])
        g, A = make_grid(n, 10.0, 12), VectorPotential.zero(n)
    else:
        g, A = _circulation_case(case)
    text = "arctan(x1) - 0.5*exp(-x1^2) + 2" if g.n == 1 else "arctan(x1) - 0.5*exp(-x2^2) + 2"
    f = Symbol.from_expression(text, g.n, real=True)
    assert f.split is not None and f.split[1] is None
    X = g.x_flat()
    V = f(X, np.zeros_like(X))
    assert np.array_equal(quantize(f, Gauge(A, g)).matrix, np.diag(V))


@pytest.mark.parametrize("n, text", [
    (1, "xi1^2 + arctan(x1)"),
    (2, "xi1^2 + xi2^2 + 0.5*arctan(x1) - 0.3*exp(-x2^2) + 2"),
    (1, "xi1*x1 + xi1^2 - (x1^2 + 1)"),
    (2, "xi1*x1 + xi1^2 - (x1^2 + 1)"),
    (2, "arctan(x1)*exp(-x2^2)"),
    (2, "2.5"),
], ids=["1d-arctan", "2d-bumps-const", "1d-mixed-negated", "2d-mixed-negated",
        "2d-potential", "2d-constant"])
def test_the_split_table_is_the_table_of_the_whole_symbol(n, text):
    g = make_grid(n, 10.0, 32 if n == 1 else 12)
    f = Symbol.from_expression(text, n, m=2)
    assert f.split is not None
    bare = Symbol.from_callable(f.fn, n, m=2, x_independent=f.x_independent)
    W, ref = _symbol_table(f, g), _symbol_table(bare, g)
    assert np.abs(W - ref).max() <= 1e-14 * np.abs(ref).max()


def test_a_split_keeps_the_order_and_signs_of_the_terms():
    f = Symbol.from_expression("xi1*x1 + xi1^2 - (x1^2 + 1) + -sin(x1)", 1)
    V, rest = f.split
    assert str(rest.ast) == "xi1*x1 + xi1^2" and not rest.x_independent
    x = np.linspace(-3.0, 3.0, 7)[:, None]
    assert np.allclose(V(x), -(x[:, 0] ** 2 + 1) - np.sin(x[:, 0]), rtol=1e-15, atol=0)
    # no xi-independent term, or no AST: no split
    assert Symbol.from_expression("xi1^2 + xi2^2", 2).split is None
    assert Symbol.from_expression("(xi1 + x1)^2", 1).split is None
    assert Symbol.from_callable(f.fn, 1).split is None
    # the split is worked out from the AST, never set: a symbol made with
    # another fn or AST gets the split of that AST
    with pytest.raises(TypeError):
        Symbol(n=1, fn=f.fn, ast=f.ast, split=(V, rest))
    assert replace(f, ast=None).split is None
    assert replace(f, ast=rest.ast).split is None


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


def test_the_2d_stencils_are_built_once_and_1d_ones_per_call():
    g = make_grid(2, 8.0, 20)
    W = np.random.default_rng(20).standard_normal((g.npoints,) * 2)
    keep = g.interior_nodes()
    first = _table_to_samples(W, g, keep)
    hits, size = _stencils.cache_info().hits, _stencils.cache_info().currsize
    assert _table_to_samples(W, g, keep).tobytes() == first.tobytes()
    assert _stencils.cache_info().hits == hits + 1
    # 1D stencils hold 8 P^2 weights and are not kept
    g1 = make_grid(1, 8.0, 64)
    _table_to_samples(np.eye(64), g1, g1.interior_nodes())
    assert _stencils.cache_info().currsize == size


def test_samples_even_only_in_both_momenta_together_keep_the_complex_table():
    # sin(xi1 xi2), zeroed on the Nyquist lines (each its own reflection),
    # equals its reflection xi -> -xi but not its reflection on one axis,
    # which the DCT-I of the nonnegative half needs
    g = make_grid(2, 10.0, 12)
    nyquist = g.xi_nodes[0]

    def fn(x, xi):
        odd = np.where((xi == nyquist).any(axis=-1), 0.0, np.sin(xi[..., 0] * xi[..., 1]))
        return xi[..., 0] ** 2 + xi[..., 1] ** 2 + odd

    f = Symbol.from_callable(fn, 2, m=2, real=True, x_independent=True)
    F = f(np.zeros((g.N, g.N, 2)), g.xi_mesh())
    r = -np.arange(g.N) % g.N
    assert np.array_equal(F, F[np.ix_(r, r)]) and not _real_even(F, 2)
    assert _real_even(F + F[:, r], 2)
    W = _symbol_table(f, g, real=True)
    assert W.dtype == complex and W.tobytes() == _symbol_table(f, g).tobytes()


_MATMUL_PROBE = """
import itertools
import numpy as np
from magweyl.quantize import _matmul

rng = np.random.default_rng(7)
cases = 0
# (m, k, n) is a (m, k) by (k, n) product, m None a vector times a (k, n)
# matrix; (180, 96, 200) is large enough for numpy to reuse a temporary
# product in place, which it would not do with a view
for (m, k, n), kinds, orders in itertools.product(
        [(37, 23, 51), (180, 96, 200), (None, 64, 48)], ["rr", "cc", "rc", "cr"],
        ["CC", "CF", "FC", "FF"]):
    def operand(shape, kind, order):
        x = rng.standard_normal(shape) + (1j * rng.standard_normal(shape) if kind == "c" else 0)
        return np.asarray(x, order=order)

    a = operand((k,) if m is None else (m, k), kinds[0], orders[0])
    b = operand((k, n), kinds[1], orders[1])
    out, expect = _matmul(a, b), np.matmul(a, b)
    case = (m, k, n, kinds, orders)
    assert out.dtype == expect.dtype and out.shape == expect.shape, case
    assert out.flags.c_contiguous and out.flags.owndata, case
    assert out.tobytes() == expect.tobytes(), case
    s = 0.7 - 0.3j if np.iscomplexobj(expect) else 0.7
    assert (s * _matmul(a, b)).tobytes() == (s * np.matmul(a, b)).tobytes(), case
    cases += 1
print(cases)
"""


def test_matmul_is_numpys_matmul_to_the_bit_on_one_thread():
    # on more threads each OpenBLAS build rounds a product by how it splits
    # the work, and numpy's and scipy's split some orders apart
    assert run_probe(_MATMUL_PROBE, "1").split() == ["48"]


_NUMPY_PRODUCTS = {"dot", "matmul", "inner", "tensordot"}


def _dense_products(tree):
    """(enclosing function, line) of every ``@`` and every numpy product call."""
    found = []

    def visit(node, fn):
        for child in ast.iter_child_nodes(node):
            name = child.name if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)) else fn
            if isinstance(child, (ast.BinOp, ast.AugAssign)) and isinstance(child.op, ast.MatMult):
                found.append((name, child.lineno))
            elif (isinstance(child, ast.Call) and isinstance(child.func, ast.Attribute)
                  and child.func.attr in _NUMPY_PRODUCTS
                  and getattr(child.func.value, "id", None) in ("np", "numpy")):
                found.append((name, child.lineno))
            visit(child, name)

    visit(tree, None)
    return found


def test_every_dense_product_goes_through_matmul():
    # numpy and scipy each bring their own OpenBLAS; a product on numpy's
    # leaves its threads spinning against the LAPACK calls on scipy's
    stray, stencils = [], []
    for path in sorted(Path(magweyl.__file__).parent.glob("*.py")):
        for fn, line in _dense_products(ast.parse(path.read_text(), str(path))):
            site = (path.name, fn)
            (stencils if site == ("quantize.py", "_table_to_samples") else stray).append(
                f"{path.name}:{line} in {fn}")
    # the two sparse stencil products of the sampler are CSR @ dense
    assert len(stencils) == 2, stencils
    assert not stray, (f"dense products outside magweyl.quantize._matmul: {stray}; "
                       "route them through _matmul, so that they run on scipy's BLAS")
