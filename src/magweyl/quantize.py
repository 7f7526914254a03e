"""Gauge-covariant quantization on the grid: the dense magnetic Weyl operator,
its inverse (a magnetic Wigner transform), the non-covariant "wrong"
quantization, magnetic translations, the Schroedinger representation of
kernel functions, the twisted product on kernels, and the partial Fourier
transform connecting kernels and symbols.

Discretization of the quantization formula
------------------------------------------
With row x = x_i and column y = x_j, the matrix is

    M[i, j] = dx^n (2*pi)^(-n) e^{-i Circ(A; x_i -> x_j)} fcheck(q_ij, v_ij)

where q_ij = (x_i + x_j)/2 (a point of the half-lattice, where symbols are
evaluated directly), v_ij = x_i - x_j, and fcheck(q, v) is the
momentum-to-difference transform  dxi^n sum_k e^{i v.xi_k} f(q, xi_k),
computed by FFT per midpoint.  fcheck is exactly L-periodic in v, which is
the minimal-image rule for non-decaying kernels; decaying kernels are never
wrapped because |v| < L on the grid.

Sign convention: with this phase, Op^A(xi_j) = -i d_j - A_j, so for B = dA
(B_12 = d_1 A_2 - d_2 A_1) the momenta satisfy
xi1 # xi2 - xi2 # xi1 = i B_12.

The inverse transform reads the matrix diagonal-by-diagonal: after stripping
the circulation phase, the diagonal i - j = d holds fcheck(., d*dx) sampled
on a midpoint lattice of spacing dx.  Values at the output nodes x_l (offset
by dx/2 for odd d, or missing near the box edge) are recovered by 8-point
Lagrange interpolation along the diagonal, which is exact for
x-independent symbols and spectrally small otherwise; a final FFT over d
returns the symbol samples.  The phase-stripped table is kept on the result
(:class:`SampledSymbol`), so re-quantizing a transform product is exact and
the symbol product inherits associativity and gauge independence from matrix
algebra.
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

import numpy as np
from scipy import fft as sp_fft
from scipy import linalg as sp_linalg

from .grid import PhaseSpaceGrid
from .magnetics import DEFAULT_QUAD, FluxQuadrature, VectorPotential, circulation, omega_cocycle


@dataclass(frozen=True)
class MagneticOperator:
    """A dense operator on grid-sampled wavefunctions, tagged with its gauge."""

    grid: PhaseSpaceGrid
    matrix: np.ndarray = field(repr=False)
    gauge: VectorPotential | None = None
    symbol: object = None

    def __post_init__(self):
        P = self.grid.npoints
        mat = np.asarray(self.matrix, dtype=complex)
        if mat.shape != (P, P):
            raise ValueError(f"matrix shape {mat.shape} != ({P}, {P})")
        object.__setattr__(self, "matrix", mat)

    def operator_norm(self) -> float:
        """Largest singular value (dense decomposition)."""
        return float(sp_linalg.svdvals(self.matrix)[0])

    def hermiticity_defect(self) -> float:
        """Relative Frobenius distance to the Hermitian part."""
        m = self.matrix
        return float(np.linalg.norm(m - m.conj().T) / max(np.linalg.norm(m), 1e-300))

    def __matmul__(self, other: "MagneticOperator") -> "MagneticOperator":
        if other.grid != self.grid:
            raise ValueError("grid mismatch")
        return MagneticOperator(self.grid, self.matrix @ other.matrix, gauge=self.gauge)


@dataclass(frozen=True)
class SampledSymbol:
    """A symbol produced by dequantization.

    Carries the gauge-independent phase-stripped kernel table (so that
    quantizing it again is exact) and lazily materializes symbol samples on
    the phase-space lattice, shape (N,)*n + (N,)*n (position axes first,
    centered momentum axes last).
    """

    grid: PhaseSpaceGrid
    table: np.ndarray = field(repr=False)  # phase-stripped kernel, (P, P)

    _cache: dict = field(default_factory=dict, repr=False, compare=False)

    @property
    def values(self) -> np.ndarray:
        if "values" not in self._cache:
            self._cache["values"] = _table_to_samples(self.table, self.grid)
        return self._cache["values"]

    def interior_mask(self, fraction: float = 0.8) -> np.ndarray:
        """Boolean mask over the position axes selecting the centered
        ``fraction`` of the box on each axis (momentum axes broadcast)."""
        g = self.grid
        keep = np.abs(g.x_nodes) <= fraction * g.L / 2.0
        mask = keep
        for _ in range(g.n - 1):
            mask = np.logical_and.outer(mask, keep)
        return mask.reshape((g.N,) * g.n + (1,) * g.n)

    def __add__(self, other):
        return SampledSymbol(self.grid, self.table + _as_table(other, self.grid))

    def __sub__(self, other):
        return SampledSymbol(self.grid, self.table - _as_table(other, self.grid))

    def __mul__(self, scalar):
        return SampledSymbol(self.grid, self.table * scalar)

    __rmul__ = __mul__


def _as_table(other, grid):
    if isinstance(other, SampledSymbol):
        if other.grid != grid:
            raise ValueError("grid mismatch")
        return other.table
    if np.isscalar(other):
        # a constant symbol quantizes to a multiple of the identity
        return other * np.eye(grid.npoints)
    raise TypeError(f"cannot combine SampledSymbol with {type(other)!r}")


# ---------------------------------------------------------------------------
# circulation phases
# ---------------------------------------------------------------------------


def circulation_matrix(A: VectorPotential, grid: PhaseSpaceGrid,
                       quad: FluxQuadrature = DEFAULT_QUAD, threads: int = 1) -> np.ndarray:
    """Circ(A; x_i -> x_j) for every ordered node pair, shape (P, P).

    Rows are processed in fixed-size blocks with a fixed summation order, so
    the result is bit-identical for any thread count.
    """
    P = grid.npoints
    if A is None or A.is_zero():
        return np.zeros((P, P))
    X = grid.x_flat()
    C = np.empty((P, P))
    block = max(1, (1 << 19) // P)
    starts = list(range(0, P, block))

    def fill(start):
        stop = min(start + block, P)
        C[start:stop] = circulation(A, X[start:stop, None, :], X[None, :, :], quad)

    if threads > 1:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            list(pool.map(fill, starts))
    else:
        for start in starts:
            fill(start)
    return C


# ---------------------------------------------------------------------------
# symbol -> phase-stripped kernel table
# ---------------------------------------------------------------------------


def _difference_index_arrays(grid):
    """Flat-index helpers: per-axis indices for rows/columns."""
    N, n = grid.N, grid.n
    flat = np.arange(grid.npoints)
    if n == 1:
        return (flat,)
    return (flat // N, flat % N)


def _symbol_table(f, grid: PhaseSpaceGrid) -> np.ndarray:
    """Phase-stripped kernel table W[i, j] = dx^n (2 pi)^-n fcheck(q_ij, v_ij).

    All measure factors cancel:  W[i, j] = (-1)^(sum d) ifftn(F_q)[d mod N]
    with d = i - j per axis and F_q the symbol sampled at midpoint q over the
    centered momentum lattice.
    """
    N, n = grid.N, grid.n
    xi_mesh = grid.xi_mesh()
    if getattr(f, "x_independent", False):
        x0 = np.zeros_like(xi_mesh)
        F = np.asarray(f(x0, xi_mesh), dtype=complex)
        G = sp_fft.ifftn(F)
        idx = _difference_index_arrays(grid)
        if n == 1:
            (i,) = idx
            d = i[:, None] - i[None, :]
            return (-1.0) ** d * G[d % N]
        i1, i2 = idx
        d1 = i1[:, None] - i1[None, :]
        d2 = i2[:, None] - i2[None, :]
        return (-1.0) ** (d1 + d2) * G[d1 % N, d2 % N]

    half = grid.half_nodes()
    if n == 1:
        q = half[:, None, None]  # (2N-1, 1, 1)
        xi = xi_mesh[None, :, :]  # (1, N, 1)
        F = np.asarray(f(q, xi), dtype=complex)  # (2N-1, N)
        G = sp_fft.ifft(F, axis=1)
        i = np.arange(N)
        p = i[:, None] + i[None, :]
        d = i[:, None] - i[None, :]
        return (-1.0) ** d * G[p, d % N]

    # n == 2: process midpoint slabs along the first axis
    W = np.empty((grid.npoints, grid.npoints), dtype=complex)
    i = np.arange(N)
    i2g, j2g = np.meshgrid(i, i, indexing="ij")
    p2 = i2g + j2g
    d2 = i2g - j2g
    sign2 = (-1.0) ** d2
    for p1, q1 in enumerate(half):
        qgrid = np.empty((2 * N - 1,) + xi_mesh.shape[:-1] + (2,))
        qgrid[..., 0] = q1
        qgrid[..., 1] = half[:, None, None]
        F = np.asarray(f(qgrid, xi_mesh[None]), dtype=complex)  # (2N-1, N, N)
        G = sp_fft.ifft2(F, axes=(1, 2))
        for i1 in range(max(0, p1 - N + 1), min(N, p1 + 1)):
            j1 = p1 - i1
            d1 = i1 - j1
            block = (-1.0) ** d1 * sign2 * G[p2, d1 % N, d2 % N]
            W[i1 * N:(i1 + 1) * N, j1 * N:(j1 + 1) * N] = block
    return W


# ---------------------------------------------------------------------------
# quantize / dequantize
# ---------------------------------------------------------------------------


def quantize(f, A: VectorPotential, grid: PhaseSpaceGrid,
             quad: FluxQuadrature = DEFAULT_QUAD, threads: int = 1) -> MagneticOperator:
    """Gauge-covariant quantization of a symbol (or SampledSymbol)."""
    if isinstance(f, SampledSymbol):
        if f.grid != grid:
            raise ValueError("grid mismatch")
        W = f.table
    else:
        W = _symbol_table(f, grid)
    C = circulation_matrix(A, grid, quad, threads)
    M = np.exp(-1j * C) * W if C.any() else W.copy()
    return MagneticOperator(grid, M, gauge=A, symbol=f)


def wrong_quantize(f, A: VectorPotential, grid: PhaseSpaceGrid,
                   quad: FluxQuadrature = DEFAULT_QUAD, threads: int = 1) -> MagneticOperator:
    """The negative control, naive minimal coupling: the zero-gauge
    quantization of the symbol (x, xi) -> f(x, xi - A(x)), so the momentum
    argument is shifted by -A at each midpoint and no circulation phase is
    applied.  Coincides with :func:`quantize` when A = 0."""
    if A is None or A.is_zero():
        return quantize(f, VectorPotential.zero(grid.n), grid, quad, threads)
    W = _symbol_table(lambda x, xi: f(x, xi - A.evaluate(x)), grid)
    return MagneticOperator(grid, W, gauge=A, symbol=f)


def dequantize(M: MagneticOperator, A: VectorPotential,
               quad: FluxQuadrature = DEFAULT_QUAD, threads: int = 1) -> SampledSymbol:
    """Inverse of :func:`quantize`: a magnetic Wigner transform.

    Strips the circulation phase of the supplied gauge and wraps the
    resulting gauge-independent table; symbol samples are materialized
    lazily via diagonal interpolation (see module docstring).
    """
    C = circulation_matrix(A, M.grid, quad, threads)
    W = np.exp(1j * C) * M.matrix if C.any() else M.matrix.copy()
    return SampledSymbol(M.grid, W)


# -- diagonal interpolation (table -> symbol samples) -----------------------

_STENCIL = 8


def _stencils(N: int):
    """8-point Lagrange stencils for every diagonal offset d in
    -N//2 .. N//2 - 1: the offsets, absolute row indices of shape
    (8, N_d, N_l) and weights of shape (N_d, N_l, 8).

    Diagonal i - j = d has entries on rows i_lo .. i_lo + m - 1 with
    i_lo = max(0, d) and m = N - |d|; row i sits at midpoint index i - d/2,
    so output node l is read at row position l + d/2.  Targets are clamped
    to the sampled range (extrapolation beyond the box edge would amplify
    rounding, and edge regions are quarantined anyway), and a stencil is
    exact when a target hits a node.  A diagonal shorter than the stencil
    uses all of its m points; the unused slots get weight 0 and a valid row.
    """
    ds = np.arange(-N // 2, N // 2)
    i_lo = np.maximum(ds, 0)[:, None]
    m = (N - np.abs(ds))[:, None]
    pts = np.minimum(_STENCIL, m)
    t = np.clip(np.arange(N) + ds[:, None] / 2.0 - i_lo, 0.0, m - 1.0)
    starts = np.clip(np.floor(t).astype(int) - (pts // 2 - 1), 0, m - pts)
    tau = t - starts
    weights = np.ones(tau.shape + (_STENCIL,))
    for r in range(_STENCIL):
        for rp in range(_STENCIL):
            if rp != r:
                weights[..., r] *= np.where(rp < pts, (tau - rp) / (r - rp), 1.0)
    used = np.arange(_STENCIL) < pts[..., None]
    rows = i_lo[..., None] + starts[..., None] + np.where(used, np.arange(_STENCIL), 0)
    return ds, np.ascontiguousarray(np.moveaxis(rows, -1, 0)), np.where(used, weights, 0.0)


def _interpolate(data: np.ndarray, weights: np.ndarray) -> np.ndarray:
    """sum_r weights[..., r] * data[r] for complex ``data`` of shape
    (8, ...), accumulated in the order r = 0..7.

    Works on the real and imaginary parts (the value of a real-by-complex
    product is the pair of real products), which avoids casting the
    weights to complex."""
    parts = data.view(float).reshape(data.shape + (2,))
    out = np.zeros(parts.shape[1:])
    for r in range(_STENCIL):
        out += weights[..., r, None] * parts[r]
    return out.view(complex)[..., 0]


def _table_to_samples(W: np.ndarray, grid: PhaseSpaceGrid) -> np.ndarray:
    """Symbol samples f(x_l, xi_k) from a phase-stripped kernel table."""
    N, n = grid.N, grid.n
    W = np.asarray(W, dtype=complex)
    ds, rows, weights = _stencils(N)
    sign = (-1.0) ** ds
    cs = np.zeros((N,) * n + (N,) * n, dtype=complex)  # [l..., d mod N ...]
    if n == 1:
        vals = _interpolate(W[rows, rows - ds[:, None]], weights)
        cs[:, ds % N] = (sign[:, None] * vals).T
        return sp_fft.fft(cs, axis=1)
    # The pair (d1, d2) reads the diagonal W[i1 N + i2, (i1 - d1) N + i2 - d2]
    # at flat offset (i1 N^2 + i1 - d1) N + i2 N^2 + (i2 - d2).  Offsets of
    # every i2 of every d2 are gathered; those off the read set wrap and are
    # never used.
    k = np.arange(N)
    axis1 = k * N * N + (k - ds[:, None]) % N  # (N_d, N)
    flat = np.ravel(W)
    # the axis-1 stencils read the axis-0 result A[d2, l1, k]
    reread = (np.arange(len(ds))[:, None, None] * N * N
              + np.arange(N)[:, None] * N + rows[:, :, None, :])  # (8, N_d, N_l, N_l)
    for e, d1 in enumerate(ds):
        axis0 = (rows[:, e] * N * N + rows[:, e] - d1) * N  # (8, N_l)
        A = _interpolate(flat[axis0[:, None, :, None] + axis1[None, :, None, :]],
                         weights[e][:, None, :])
        vals = _interpolate(np.ravel(A)[reread], weights[:, None, :, :])
        cs[:, :, d1 % N, ds % N] = np.moveaxis(sign[e] * sign[:, None, None] * vals, 0, -1)
    return sp_fft.fft2(cs, axes=(2, 3))


# ---------------------------------------------------------------------------
# magnetic translations
# ---------------------------------------------------------------------------


def magnetic_translation(A: VectorPotential, y, grid: PhaseSpaceGrid,
                         quad: FluxQuadrature = DEFAULT_QUAD) -> np.ndarray:
    """Unitary matrix of [T^A(y) u](x) = e^{-i Circ(A; x -> x+y)} u(x + y).

    ``y`` must lie on the position lattice; the shift is cyclic, while the
    circulation uses the straight unwrapped segment.
    """
    g = grid
    y = np.atleast_1d(np.asarray(y, dtype=float))
    steps = y / g.dx
    if not np.allclose(steps, np.round(steps), atol=1e-9):
        raise ValueError(f"translation {y} is not on the position lattice (dx={g.dx})")
    steps = np.round(steps).astype(int)
    X = g.x_flat()
    phases = np.exp(-1j * circulation(A, X, X + y, quad))
    # column index of x + y under cyclic wrap
    idx = _difference_index_arrays(g)
    N = g.N
    if g.n == 1:
        (i,) = idx
        cols = (i + steps[0]) % N
    else:
        i1, i2 = idx
        cols = ((i1 + steps[0]) % N) * N + (i2 + steps[1]) % N
    T = np.zeros((g.npoints, g.npoints), dtype=complex)
    T[np.arange(g.npoints), cols] = phases
    return T


def translation_cocycle_diagonal(B, x, y, grid: PhaseSpaceGrid,
                                 quad: FluxQuadrature = DEFAULT_QUAD) -> np.ndarray:
    """diag(omega^B(q; x, y)) over the position lattice, for the covariance
    relation T(x) T(y) = diag(omega^B(.; x, y)) T(x + y)."""
    Q = grid.x_flat()
    return np.diag(omega_cocycle(B, Q, np.asarray(x, float), np.asarray(y, float), quad))


# ---------------------------------------------------------------------------
# kernel functions, Rep^A, twisted product, partial Fourier transform
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class KernelFunction:
    """An element of the twisted convolution algebra on the grid: an
    evaluable function F(q, v) of coefficient point q and displacement v.

    ``fn(q, v)`` accepts arrays of shape (..., n) and returns complex values;
    it must be evaluable at half-lattice coefficient points (midpoints arise
    in products and in the representation)."""

    grid: PhaseSpaceGrid
    fn: object = field(repr=False)

    def __call__(self, q, v):
        return self.fn(q, v)

    def difference_lattice(self) -> np.ndarray:
        """Centered displacement lattice, shape (N,)*n + (n,)."""
        g = self.grid
        nodes = g.dx * (np.arange(g.N) - g.N // 2)
        axes = np.meshgrid(*([nodes] * g.n), indexing="ij")
        return np.stack(axes, axis=-1)


def kernel_involution(F: KernelFunction) -> KernelFunction:
    """F^(diamond)(q, v) = conj(F(q, -v)) (coefficient slot conjugated)."""
    base = F.fn
    return KernelFunction(F.grid, lambda q, v: np.conj(base(q, -np.asarray(v))))


def rep_A(F: KernelFunction, A: VectorPotential, grid: PhaseSpaceGrid,
          quad: FluxQuadrature = DEFAULT_QUAD, threads: int = 1) -> MagneticOperator:
    """Schroedinger representation of a kernel function:

    M[i, j] = (2 pi)^(-n/2) dx^n e^{-i Circ(A; x_i -> x_j)}
              F((x_i + x_j)/2, x_j - x_i).
    """
    if F.grid != grid:
        raise ValueError("grid mismatch")
    X = grid.x_flat()
    Q = 0.5 * (X[:, None, :] + X[None, :, :])
    V = X[None, :, :] - X[:, None, :]
    vals = np.asarray(F.fn(Q, V), dtype=complex)
    C = circulation_matrix(A, grid, quad, threads)
    scale = grid.dx**grid.n / (2.0 * np.pi) ** (grid.n / 2.0)
    M = scale * np.exp(-1j * C) * vals
    return MagneticOperator(grid, M, gauge=A, symbol=F)


def partial_fourier(F: KernelFunction):
    """Symbol (as a Symbol-compatible callable object) from a kernel:

    f(q, xi) = (2 pi)^(-n/2) dx^n sum_v e^{+i v.xi} F(q, v)
    over the centered displacement lattice.
    """
    from .symbols import Symbol

    g = F.grid
    vlat = F.difference_lattice().reshape(-1, g.n)
    scale = g.dx**g.n / (2.0 * np.pi) ** (g.n / 2.0)

    def fn(x, xi, F=F, vlat=vlat, scale=scale):
        x = np.asarray(x, dtype=float)
        xi = np.asarray(xi, dtype=float)
        shape = np.broadcast_shapes(x.shape[:-1], xi.shape[:-1])
        x = np.broadcast_to(x, shape + (g.n,)).reshape(-1, g.n)
        xi = np.broadcast_to(xi, shape + (g.n,)).reshape(-1, g.n)
        out = np.zeros(len(x), dtype=complex)
        chunk = max(1, (1 << 22) // max(len(vlat), 1))
        for start in range(0, len(x), chunk):
            sl = slice(start, min(start + chunk, len(x)))
            phases = np.exp(1j * xi[sl] @ vlat.T)  # (chunk, N^n)
            vals = F.fn(x[sl, None, :], vlat[None, :, :])
            out[sl] = scale * np.sum(phases * vals, axis=1)
        return out.reshape(shape)

    return Symbol.from_callable(fn, n=g.n, m=0.0, rho=0.0, delta=0.0)


def partial_fourier_inverse(f, grid: PhaseSpaceGrid) -> KernelFunction:
    """Kernel from a symbol: F(q, v) = (2 pi)^(-n/2) dxi^n
    sum_k e^{-i v.xi_k} f(q, xi_k)."""
    g = grid
    xilat = g.xi_mesh().reshape(-1, g.n)
    scale = g.dxi**g.n / (2.0 * np.pi) ** (g.n / 2.0)

    def fn(q, v, f=f, xilat=xilat, scale=scale):
        q = np.asarray(q, dtype=float)
        v = np.asarray(v, dtype=float)
        shape = np.broadcast_shapes(q.shape[:-1], v.shape[:-1])
        q = np.broadcast_to(q, shape + (g.n,)).reshape(-1, g.n)
        v = np.broadcast_to(v, shape + (g.n,)).reshape(-1, g.n)
        out = np.zeros(len(q), dtype=complex)
        chunk = max(1, (1 << 22) // max(len(xilat), 1))
        for start in range(0, len(q), chunk):
            sl = slice(start, min(start + chunk, len(q)))
            phases = np.exp(-1j * v[sl] @ xilat.T)
            vals = f(q[sl, None, :], xilat[None, :, :])
            out[sl] = scale * np.sum(phases * vals, axis=1)
        return out.reshape(shape)

    return KernelFunction(grid, fn)


def twisted_product(F: KernelFunction, G: KernelFunction, B, grid: PhaseSpaceGrid,
                    quad: FluxQuadrature = DEFAULT_QUAD) -> KernelFunction:
    """The twisted convolution product on kernel functions:

    (F <>B G)(q, v) = (2 pi)^(-n/2) dx^n sum_w
        F(q + (w - v)/2, w) G(q + w/2, v - w) omega^B(q - v/2; w, v - w)

    with w running over the centered displacement lattice.  The coefficient
    translations land on half-lattice points, where the factors are evaluated
    directly (kernels are evaluable functions, not bare sample tables).
    """
    if F.grid != grid or G.grid != grid:
        raise ValueError("grid mismatch")
    g = grid
    wlat = F.difference_lattice().reshape(-1, g.n)
    scale = g.dx**g.n / (2.0 * np.pi) ** (g.n / 2.0)
    zero_field = B is None or B.is_zero()

    def fn(q, v, F=F, G=G, wlat=wlat, scale=scale):
        q = np.asarray(q, dtype=float)
        v = np.asarray(v, dtype=float)
        shape = np.broadcast_shapes(q.shape[:-1], v.shape[:-1])
        q = np.broadcast_to(q, shape + (g.n,)).reshape(-1, g.n)
        v = np.broadcast_to(v, shape + (g.n,)).reshape(-1, g.n)
        out = np.zeros(len(q), dtype=complex)
        chunk = max(1, (1 << 18) // max(len(wlat), 1))
        for start in range(0, len(q), chunk):
            sl = slice(start, min(start + chunk, len(q)))
            qs = q[sl, None, :]
            vs = v[sl, None, :]
            w = wlat[None, :, :]
            fvals = F.fn(qs + 0.5 * (w - vs), w)
            gvals = G.fn(qs + 0.5 * w, vs - w)
            if zero_field:
                phase = 1.0
            else:
                phase = omega_cocycle(B, qs - 0.5 * vs, np.broadcast_to(w, fvals.shape + (g.n,)),
                                      vs - w, quad)
            out[sl] = scale * np.sum(fvals * gvals * phase, axis=1)
        return out.reshape(shape)

    return KernelFunction(grid, fn)
