"""Gauge-covariant quantization on the grid: the dense magnetic Weyl operator,
its inverse (a magnetic Wigner transform), the non-covariant "wrong"
quantization, magnetic translations, the Schroedinger representation of
kernel functions, the twisted product on kernels, and the partial Fourier
transform connecting kernels and symbols (these last two are direct lattice
sums, evaluated in chunks of points by one helper).

Discretization of the quantization formula
------------------------------------------
With row x = x_i and column y = x_j, the matrix is

    M[i, j] = dx^n (2*pi)^(-n) e^{-i Circ(A; x_i -> x_j)} fcheck(q_ij, v_ij)

where q_ij = (x_i + x_j)/2 (a point of the half-lattice, where symbols are
evaluated directly), v_ij = x_i - x_j, and fcheck(q, v) is the
momentum-to-difference transform  dxi^n sum_k e^{i v.xi_k} f(q, xi_k),
computed by FFT over the momenta at every midpoint and read into the table by
one gather at the per-axis midpoint index i + j and difference i - j (in 2D
one midpoint slab at a time, which bounds the memory).  fcheck is exactly
L-periodic in v, which is the minimal-image rule for non-decaying kernels;
decaying kernels are never wrapped because |v| < L on the grid.

A xi-independent term V(x) needs no transform: since dx dxi N = 2 pi, its
fcheck(q, v) = V(q) dxi^n sum_k e^{i v.xi_k} vanishes at every lattice
difference v != 0, and its diagonal entries are exactly V(q_ii) = V(x_i).
C_ii = 0 in every gauge, so V quantizes to multiplication by V(x_i).  A
symbol with an expression AST has its top-level xi-independent terms split
off (``Symbol.split``), and its table is the table of the other terms with
V(x_i) added to the diagonal.

Sign convention: with this phase, Op^A(xi_j) = -i d_j - A_j, so for B = dA
(B_12 = d_1 A_2 - d_2 A_1) the momenta satisfy
xi1 # xi2 - xi2 # xi1 = i B_12.

The phase is the only gauge-dependent ingredient.  :class:`Gauge` owns it:
it builds the circulation matrix C once and applies e^{-iC} (quantization)
or e^{+iC} (its inverse) in place, by pairs of square tiles (r, c) and
(c, r) of the upper and lower triangle, so the complex phase is never held
whole; every gauge-dependent function here takes one.  A reversed segment
has the opposite circulation, so C is integrated on its upper triangle
only, in row blocks that depend on nothing but the number of nodes, and the
rest is filled from C = -C^T, which holds exactly; one tile of the phase
therefore serves its mirror too, conjugated and transposed.

The inverse transform reads the matrix diagonal-by-diagonal: after stripping
the circulation phase, the diagonal i - j = d holds fcheck(., d*dx) sampled
on a midpoint lattice of spacing dx.  Values at the output nodes x_l (offset
by dx/2 for odd d, or missing near the box edge) are recovered by 8-point
Lagrange interpolation along the diagonal, which is exact for
x-independent symbols and spectrally small otherwise: one sparse banded
matrix L_d per offset, applied on every axis (L_d D in 1D, L_d1 D L_d2^T in
2D); a final FFT over d returns the symbol samples.  The phase-stripped
table is kept on the result (:class:`SampledSymbol`), so re-quantizing a
transform product is exact and the symbol product inherits associativity
and gauge independence from matrix algebra.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cache, cached_property

import numpy as np
from scipy import fft as sp_fft
from scipy import linalg as sp_linalg

from .grid import INTERIOR, PhaseSpaceGrid
from .magnetics import (DEFAULT_QUAD, VectorPotential, _circulation, circulation, exact_order,
                        omega_cocycle)


def _sum_squares(a: np.ndarray) -> float:
    """sum |a|^2 over the entries of ``a``, by einsum over its float view:
    one fixed summation order and no BLAS call (a threaded level-1 BLAS
    reduction rounds by the thread count and stalls the next LAPACK call),
    and no temporary for a C-contiguous ``a``."""
    v = np.ascontiguousarray(a).view(float).reshape(-1)
    return float(np.einsum("i,i->", v, v))


# Lanczos steps at most, and the residual |beta_k s_k| of the top Ritz pair,
# relative to its Ritz value, at which the estimate stops
_LANCZOS_STEPS = 64
_LANCZOS_TOL = 1e-9
# relative margin of t^2 over the estimate of lambda_max(G): far above the
# Cholesky backward error (about P u) and the residual of a converged estimate
_CERTIFICATE_MARGIN = 2.0 ** -30


def _gram(R: np.ndarray) -> np.ndarray:
    """The lower triangle of G = R^T conj(R) = conj(R^H R), which has the
    eigenvalues of R^H R, by zherk (dsyrk for a real R) on the
    Fortran-ordered view R^T, without copying R."""
    rk = sp_linalg.get_blas_funcs("herk" if np.iscomplexobj(R) else "syrk", (R,))
    return rk(1.0, R.T, lower=1)


def _norm_bound(R: np.ndarray) -> float:
    """t >= ||R||_2, at most about 5e-10 relative above it, for a complex or
    a real R, in the arithmetic of R.

    t^2 is the Lanczos estimate of lambda_max of G = :func:`_gram` widened
    by ``_CERTIFICATE_MARGIN``, certified by a Cholesky (potrf) of t^2 I - G
    in place of G.  If that factorization fails, G is formed again from R
    and t^2 is its top eigenvalue from eigh, widened by the same margin."""
    P = len(R)
    G = _gram(R)
    t2 = _lanczos_top(G) * (1.0 + _CERTIFICATE_MARGIN)
    np.negative(G, out=G)
    # G is Fortran-ordered, so G.reshape(-1) would copy it
    G[np.diag_indices(P)] += t2
    potrf = sp_linalg.get_lapack_funcs("potrf", (G,))
    if potrf(G, lower=1, clean=0, overwrite_a=1)[1] != 0:
        del G
        G = _gram(R)
        top = sp_linalg.eigh(G, eigvals_only=True, subset_by_index=[P - 1, P - 1],
                             overwrite_a=True)[0]
        t2 = max(top, 0.0) * (1.0 + _CERTIFICATE_MARGIN)
    return math.sqrt(t2)


def _lanczos_top(G: np.ndarray) -> float:
    """Estimate of lambda_max of the Hermitian (or real symmetric) G, read
    from its lower triangle (zhemv, or dsymv): the top Ritz value of a
    Lanczos run with full reorthogonalization from a fixed-seed start
    vector.  It stops once |beta_k s_k| <= _LANCZOS_TOL theta, after
    _LANCZOS_STEPS steps, or when the Krylov space is invariant.  A Ritz
    value lies at or below lambda_max, so this is not a bound."""
    P = len(G)
    mv = sp_linalg.get_blas_funcs("hemv" if np.iscomplexobj(G) else "symv", (G,))
    Q = np.empty((min(_LANCZOS_STEPS, P), P), dtype=G.dtype)
    q = np.random.default_rng(0).standard_normal(P).astype(G.dtype)
    q /= np.linalg.norm(q)
    alpha, beta = [], []
    for k in range(len(Q)):
        Q[k] = q
        w = mv(1.0, G, q, lower=1)
        if k:
            w -= beta[-1] * Q[k - 1]
        alpha.append(np.vdot(q, w).real)
        w -= alpha[-1] * q
        # one vdot per basis vector: small matmuls run threaded and cost
        # about ten times as much here
        for j in range(k + 1):
            w -= np.vdot(Q[j], w) * Q[j]
        b = np.linalg.norm(w)
        ritz, s = sp_linalg.eigh_tridiagonal(alpha, beta, select="i", select_range=(k, k))
        theta = ritz[0]
        if b == 0.0 or b * abs(s[-1, 0]) <= _LANCZOS_TOL * theta:
            break
        beta.append(b)
        q = w / b
    return max(theta, 0.0)


@dataclass(frozen=True)
class MagneticOperator:
    """A dense operator on grid-sampled wavefunctions.

    ``rotation_phase`` is, on an operator that :func:`quantize` returned on
    a 2D grid, the gauge term of the 90-degree rotation of the grid
    (:meth:`Gauge.rotation_phase`), which the symmetry check of
    :func:`magweyl.spectral.spectrum` reads; None otherwise.  It holds P
    numbers, so the operator does not keep the gauge's C alive."""

    grid: PhaseSpaceGrid
    matrix: np.ndarray = field(repr=False)
    rotation_phase: np.ndarray | None = field(default=None, repr=False, compare=False)

    def __post_init__(self):
        P = self.grid.npoints
        mat = np.asarray(self.matrix, dtype=complex)
        if mat.shape != (P, P):
            raise ValueError(f"matrix shape {mat.shape} != ({P}, {P})")
        object.__setattr__(self, "matrix", mat)

    def operator_norm(self) -> float:
        """A certified upper bound on the largest singular value, at most
        about 5e-10 relative above it (:func:`_norm_bound`)."""
        return _norm_bound(self.matrix)

    def hermiticity_defect(self) -> float:
        """Relative Frobenius distance ||M - M^H||_F / ||M||_F to the Hermitian
        part, one block of ``_PHASE_ROWS`` rows at a time: each is diffed
        against the conjugate of the matching column block in one work
        array, and both sums go through :func:`_sum_squares` in block order,
        so the value does not depend on the thread count."""
        m = self.matrix
        work = np.empty((_PHASE_ROWS, len(m)), dtype=complex)
        defect = norm = 0.0
        for a in range(0, len(m), _PHASE_ROWS):
            rows = m[a:a + _PHASE_ROWS]
            diff = np.conjugate(m[:, a:a + _PHASE_ROWS].T, out=work[:len(rows)])
            np.subtract(rows, diff, out=diff)
            defect += _sum_squares(diff)
            norm += _sum_squares(rows)
        return float(np.sqrt(defect) / max(np.sqrt(norm), 1e-300))

    def __matmul__(self, other: "MagneticOperator") -> "MagneticOperator":
        if other.grid != self.grid:
            raise ValueError("grid mismatch")
        return MagneticOperator(self.grid, self.matrix @ other.matrix)


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

    @cached_property
    def _samples(self) -> np.ndarray:
        return _table_to_samples(self.table, self.grid)

    # a plain property over the cache, which bench/tracer.py wraps
    @property
    def values(self) -> np.ndarray:
        return self._samples

    def interior_mask(self, fraction: float = INTERIOR) -> np.ndarray:
        """:meth:`PhaseSpaceGrid.interior_mask` over the position axes, with
        the momentum axes broadcast."""
        g = self.grid
        return g.interior_mask(fraction).reshape((g.N,) * g.n + (1,) * g.n)

    def interior_sup(self) -> float:
        """sup |values| over :meth:`interior_mask`; only the interior rows
        of the stencil matrices are applied, each summed in the order of
        :attr:`values`, so the result is the same to the bit."""
        samples = _table_to_samples(self.table, self.grid, self.grid.interior_nodes())
        return float(np.abs(samples).max())

    def __add__(self, other):
        return SampledSymbol(self.grid, self.table + _as_table(other, self.grid))

    def __sub__(self, other):
        return SampledSymbol(self.grid, self.table - _as_table(other, self.grid))

    def __mul__(self, scalar):
        return SampledSymbol(self.grid, self.table * scalar)

    __rmul__ = __mul__


def _xi1_ray(S: SampledSymbol, lo: float, hi: float, window: str, advice: str):
    """The samples of S along the positive xi_1 ray at x = 0 with lo <= xi_1 <= hi,
    as (xi_1 nodes, values); a ValueError naming ``window``, N and L when fewer
    than the 2 nodes a fit needs lie there."""
    g = S.grid
    xi = g.xi_nodes
    keep = (xi >= lo) & (xi <= hi)
    if np.count_nonzero(keep) < 2:
        raise ValueError(f"{window} holds {np.count_nonzero(keep)} momentum node(s) at "
                         f"N={g.N}, L={g.L}; a fit needs 2 ({advice})")
    mid = g.N // 2
    ray = S.values[(mid,) * g.n + (slice(None),) + (mid,) * (g.n - 1)]
    return xi[keep], ray[keep]


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


# rows per block of the 1D circulation fill and of the mirror into the lower
# triangle; the blocks depend only on P
_ROWS = 8
# pair x node points of one circulation call: a block's columns are split
# into chunks of at most this many, which bounds its work arrays
_POINTS = 1 << 14
# the side of the square tiles of the in-place phase application, and rows
# per block of the 1D symbol table, the Hermiticity defect and the Cholesky
# inverse's mirror
_PHASE_ROWS = 64


def circulation_matrix(A: VectorPotential, grid: PhaseSpaceGrid) -> np.ndarray:
    """Circ(A; x_i -> x_j) for every ordered node pair, shape (P, P).

    A reversed segment has the opposite circulation, so only the upper
    triangle is integrated, in fixed row blocks that each compute C[a:b, a:]
    in column chunks of at most ``_POINTS`` pair x node points; then, by
    blocks of ``_ROWS`` rows, the strict lower triangle is set to -C^T and
    the diagonal to 0.

    In 2D, row i = i1 N + i2 and column j = j1 N + j2 hold the node pairs
    (x_i1, x_i2) and (x_j1, x_j2).  A block is the N rows of one first-axis
    index i1, so its upper triangle is the whole column groups j1 >= i1; a
    chunk is some whole j1 groups, or one group split along j2 when it alone
    exceeds ``_POINTS``.  The kernel gets x1 along the (node, j1) axes and x2
    along (node, i2, j2), so a field component that reads x1 only is
    evaluated at N^2 times fewer points than the pairs.  In 1D a block is ``_ROWS``
    rows.  Every entry goes through the same operations in the same order,
    so C = -C^T holds exactly and C is the same to the bit for any blocks
    and chunks.
    """
    P, N = grid.npoints, grid.N
    if A.is_zero():
        return np.zeros((P, P))
    nodes = grid.x_nodes
    q = exact_order(DEFAULT_QUAD, A.degree)
    C = np.empty((P, P))

    if grid.n == 1:
        cols = max(1, _POINTS // (_ROWS * q))
        for a in range(0, P, _ROWS):
            x = (nodes[a:a + _ROWS, None],)
            for c in range(a, P, cols):
                C[a:a + _ROWS, c:c + cols] = _circulation(A, x, (nodes[c:c + cols],), DEFAULT_QUAD)
    else:
        group = N * N * q  # pair x node points of one j1 group of a block
        groups = max(1, _POINTS // group)
        split = N if group <= _POINTS else max(1, _POINTS // (N * q))
        x2 = nodes[:, None, None]  # axes (i2, j1, j2)
        for i1 in range(N):
            a = i1 * N
            x = (nodes[i1], x2)
            for j1 in range(i1, N, groups):
                y1 = nodes[j1:j1 + groups, None]
                for j2 in range(0, N, split):
                    y = (y1, nodes[j2:j2 + split])
                    block = _circulation(A, x, y, DEFAULT_QUAD).reshape(N, -1)
                    c = j1 * N + j2
                    C[a:a + N, c:c + block.shape[1]] = block

    # the mirror keeps its own _ROWS-row blocks: inside their diagonal blocks
    # a zero circulation mirrors as 0.0 - 0.0 = +0.0, elsewhere as -0.0, so
    # the blocks fix the sign of the zeros of C
    for a in range(0, P, _ROWS):
        b = a + _ROWS
        D = np.triu(C[a:b, a:b], 1)
        C[a:b, a:b] = D - D.T
        C[b:, a:b] = -C[a:b, b:].T
    return C


@dataclass(frozen=True)
class Gauge:
    """A vector potential A on a grid, the one owner of the circulation phase:
    the real matrix C = :func:`circulation_matrix` is built on first use and
    kept.  :meth:`attach` and :meth:`strip` overwrite their argument by
    square tiles of side ``_PHASE_ROWS``: a tile E = e^{-+iC[r, c]} of the
    upper triangle multiplies W[r, c], and, since C = -C^T exactly, its
    conjugate transpose multiplies W[c, r]; diagonal tiles are applied
    whole.  Each entry gets the phase a whole-matrix e^{-+iC} would give
    it, to the bit, half the complex exponentials are saved, and the
    complex phase is never held whole.  A zero potential (``A.is_zero()``)
    builds no C: its phase is 1, and both leave the argument as it is."""

    A: VectorPotential
    grid: PhaseSpaceGrid

    @cached_property
    def circulation(self) -> np.ndarray:
        return circulation_matrix(self.A, self.grid)

    def _apply(self, sign: complex, W: np.ndarray) -> np.ndarray:
        if self.A.is_zero():
            return W
        C = self.circulation
        P = len(W)
        # the phase first: W *= phase rounds differently
        for a in range(0, P, _PHASE_ROWS):
            r = slice(a, a + _PHASE_ROWS)
            np.multiply(np.exp(sign * C[r, r]), W[r, r], out=W[r, r])
            for b in range(a + _PHASE_ROWS, P, _PHASE_ROWS):
                c = slice(b, b + _PHASE_ROWS)
                E = np.exp(sign * C[r, c])
                np.multiply(E, W[r, c], out=W[r, c])
                # C[c, r] = -C[r, c]^T, so its phase is conj(E)^T, formed in E
                np.multiply(np.conjugate(E, out=E).T, W[c, r], out=W[c, r])
        return W

    def attach(self, W: np.ndarray) -> np.ndarray:
        """e^{-iC} W, entrywise, in place: a phase-stripped table to its operator."""
        return self._apply(-1j, W)

    def strip(self, M: np.ndarray) -> np.ndarray:
        """e^{+iC} M, entrywise, in place: an operator to its phase-stripped table."""
        return self._apply(1j, M)

    def rotation_phase(self) -> np.ndarray:
        """The candidate gauge term g of the rotation T of a 2D grid by 90
        degrees about (-dx/2, -dx/2), (i, j) -> (N-1-j, i):
        g(b) = C[T 0, T b] - C[0, b], from rows 0 and T 0 of C, so that
        C[T a, T b] - C[a, b] = g(b) - g(a) holds for a = 0; whether it holds
        for every pair is the caller's check.  0 for a zero potential."""
        N = self.grid.N
        if self.A.is_zero():
            return np.zeros(N * N)
        t = np.rot90(np.arange(N * N).reshape(N, N), -1).ravel()  # t[a] = T a
        C = self.circulation
        return C[t[0], t] - C[0]

    def segment_phase(self, x, y) -> np.ndarray:
        """e^{-i Circ(A; x -> y)} for batched endpoints of shape (..., n)."""
        return np.exp(-1j * circulation(self.A, x, y, DEFAULT_QUAD))


# ---------------------------------------------------------------------------
# symbol -> phase-stripped kernel table
# ---------------------------------------------------------------------------


def _real_even(F: np.ndarray, n: int) -> bool:
    """Whether the samples F (momentum axes last, n of them) are real and
    equal to their reflection k -> (-k) mod N on every momentum axis, so
    that their inverse FFT is real and its imaginary part is rounding.
    Index 0, the Nyquist node, is its own reflection."""
    if F.imag.any():
        return False
    axes = tuple(range(-n, 0))
    # the flip takes k to N - 1 - k, the roll by one to N - k
    return np.array_equal(F.real, np.roll(np.flip(F.real, axes), 1, axes))


def _table_1d(G: np.ndarray, real: bool) -> np.ndarray:
    """W[i, j] = (-1)^d G[i + j, d mod N] with d = i - j, from the transforms
    G of the 2N - 1 midpoints, by blocks of ``_PHASE_ROWS`` rows; with
    ``real``, the real part of each block."""
    N = G.shape[1]
    j = np.arange(N)
    W = np.empty((N, N), dtype=float if real else complex)
    for a in range(0, N, _PHASE_ROWS):
        i = np.arange(a, min(a + _PHASE_ROWS, N))[:, None]
        d = i - j
        block = (-1.0) ** d * G[i + j, d % N]
        W[a:a + _PHASE_ROWS] = block.real if real else block
    return W


def _symbol_table(f, grid: PhaseSpaceGrid, real: bool = False) -> np.ndarray:
    """Phase-stripped kernel table W[i, j] = dx^n (2 pi)^-n fcheck(q_ij, v_ij).

    All measure factors cancel:  W[i, j] = (-1)^(sum d) ifftn(F_q)[d mod N]
    with, per axis, the difference d = i - j and the midpoint index p = i + j
    of q = half_nodes[p], and F_q the symbol sampled at q over the centered
    momentum lattice.  Every branch is one gather by (p, d), in 1D by blocks
    of ``_PHASE_ROWS`` rows.

    A symbol with a ``split`` (V, rest) gets the table of ``rest`` (zero
    when there is none) with V(x_i) added to its diagonal in place.

    With ``real``, a table that is exactly real (V real and every F_q
    :func:`_real_even`) is float64, the real part of the complex table to
    the bit (signed zeros included: the real part is taken after the
    complex sign product); any other table is complex, as without ``real``.
    """
    split = getattr(f, "split", None)
    if split is not None:
        V, rest = split
        P = grid.npoints
        v = V(grid.x_flat())
        real = real and not v.imag.any()
        W = (np.zeros((P, P), dtype=float if real else complex) if rest is None
             else _symbol_table(rest, grid, real))
        W.reshape(-1)[::P + 1] += v if np.iscomplexobj(W) else v.real
        return W
    N, n = grid.N, grid.n
    xi_mesh = grid.xi_mesh()
    i = np.arange(N)
    if getattr(f, "x_independent", False):
        F = np.asarray(f(np.zeros_like(xi_mesh), xi_mesh), dtype=complex)
        G = sp_fft.ifftn(F)
        real = real and _real_even(F, n)
        if n == 1:
            # one G serves every midpoint
            return _table_1d(np.broadcast_to(G, (2 * N - 1, N)), real)
        # the signed table S[d1, d2] over d = 1-N .. N-1 (stored at d + N - 1),
        # read at d1 = i1 - j1 and d2 = i2 - j2 of W[i1 N + i2, j1 N + j2]
        k = np.arange(1 - N, N)
        S = (-1.0) ** (k[:, None] + k[None, :]) * G[np.ix_(k % N, k % N)]
        S = S.real if real else S
        at = i[:, None] - i[None, :] + N - 1
        return S[at[:, None, :, None], at[None, :, None, :]].reshape(grid.npoints, -1)

    half = grid.half_nodes()
    if n == 1:
        F = np.asarray(f(half[:, None, None], xi_mesh[None, :, :]), dtype=complex)  # (2N-1, N)
        real = real and _real_even(F, 1)
        # in place: F and its transform together would hold 64 P^2 bytes
        return _table_1d(sp_fft.ifft(F, axis=1, overwrite_x=True), real)

    # n == 2: one midpoint slab p1 along the first axis at a time bounds the
    # memory; a slab holds every block (i1, j1 = p1 - i1) of W4[i1, i2, j1, j2]
    p = i[:, None] + i[None, :]
    d = i[:, None] - i[None, :]
    sign = (-1.0) ** d
    W4 = np.empty((N,) * 4, dtype=float if real else complex)
    for p1, q1 in enumerate(half):
        # one point per midpoint, shape (2N-1, 1, 1, 2); the momentum axes broadcast
        qgrid = np.stack(np.broadcast_arrays(q1, half[:, None, None]), axis=-1)
        F = np.broadcast_to(np.asarray(f(qgrid, xi_mesh[None]), dtype=complex),
                            (2 * N - 1, N, N))
        if real and not _real_even(F, 2):
            return _symbol_table(f, grid)  # start again, complex
        G = sp_fft.ifft2(F, axes=(1, 2))
        i1 = np.arange(max(0, p1 - N + 1), min(N, p1 + 1))
        d1 = (2 * i1 - p1)[:, None, None]
        block = (-1.0) ** d1 * sign * G[p, d1 % N, d % N]
        W4[i1, :, p1 - i1, :] = block.real if real else block
    return W4.reshape(grid.npoints, -1)


# ---------------------------------------------------------------------------
# quantize / dequantize
# ---------------------------------------------------------------------------


def quantize(f, gauge: Gauge) -> MagneticOperator:
    """Gauge-covariant quantization of a symbol (or SampledSymbol)."""
    grid = gauge.grid
    # build (or fetch) C before the table, so that the work arrays of the
    # circulation fill and the table are never held together
    if not gauge.A.is_zero():
        gauge.circulation
    if isinstance(f, SampledSymbol):
        W = np.array(_as_table(f, grid), dtype=complex)  # a copy: attach overwrites it
    else:
        W = _symbol_table(f, grid)
    return MagneticOperator(grid, gauge.attach(W),
                            gauge.rotation_phase() if grid.n == 2 else None)


def wrong_quantize(f, gauge: Gauge) -> MagneticOperator:
    """The negative control, naive minimal coupling: the zero-gauge
    quantization of the symbol (x, xi) -> f(x, xi - A(x)), so the momentum
    argument is shifted by -A at each midpoint and no circulation phase is
    applied.  Coincides with :func:`quantize` when A = 0."""
    A, grid = gauge.A, gauge.grid
    if A.is_zero():
        return quantize(f, gauge)
    return MagneticOperator(grid, _symbol_table(lambda x, xi: f(x, xi - A.evaluate(x)), grid))


def dequantize(M: MagneticOperator, gauge: Gauge) -> SampledSymbol:
    """Inverse of :func:`quantize`: a magnetic Wigner transform.

    Strips the circulation phase of the supplied gauge and wraps the
    resulting gauge-independent table; symbol samples are materialized
    lazily via diagonal interpolation (see module docstring).
    """
    if M.grid != gauge.grid:
        raise ValueError("grid mismatch")
    return SampledSymbol(M.grid, gauge.strip(M.matrix.copy()))


# -- diagonal interpolation (table -> symbol samples) -----------------------

_STENCIL = 8


@cache
def _lagrange(pts: int) -> np.ndarray:
    """The weights of the pts-point Lagrange stencil on nodes 0 .. pts - 1 at
    the targets tau = 0, 1/2, .., pts - 1 (those of :func:`_stencil`, whose
    targets sit on nodes or midpoints): shape (2 pts - 1, pts)."""
    tau = np.arange(2 * pts - 1)[:, None] / 2.0
    r = np.arange(pts)
    w = np.ones((2 * pts - 1, pts))
    for rp in range(pts):
        w *= np.where(r == rp, 1.0, (tau - rp) / np.where(r == rp, 1, r - rp))
    return w


def _stencil(N: int, e: int, rows: np.ndarray):
    """The 8-point Lagrange stencil matrix L_d of the diagonal offset d = e
    mod N in -N//2 .. (N - 1)//2 on an axis of N nodes, restricted to the
    output nodes ``rows``: a real banded (len(rows), N) matrix whose row l
    weights the rows i of diagonal i - j = d, times the exact sign (-1)^d of
    the centred FFT over d.

    Diagonal d has entries on rows i_lo .. i_lo + m - 1 with
    i_lo = max(0, d) and m = N - |d|; row i sits at midpoint index i - d/2,
    so output node l is read at row position l + d/2.  Targets are clamped
    to the sampled range (extrapolation beyond the box edge would amplify
    rounding, and edge regions are quarantined anyway), and a stencil is
    exact when a target hits a node.  A diagonal shorter than the stencil
    uses all of its m points.  A product sums each output over its own CSR
    row, in the order of i, whatever other rows the matrix holds.
    """
    from scipy import sparse  # imported on first use: 1.7 MB of RSS that most commands never need
    d = e if e < (N + 1) // 2 else e - N
    i_lo, m = max(d, 0), N - abs(d)
    pts = min(_STENCIL, m)
    t = np.clip(rows + d / 2.0 - i_lo, 0.0, m - 1.0)
    starts = np.clip(np.floor(t).astype(int) - (pts // 2 - 1), 0, m - pts)
    w = _lagrange(pts)[(2 * (t - starts)).astype(int)] * (-1.0) ** d
    return sparse.csr_array((w.ravel(), (i_lo + starts[:, None] + np.arange(pts)).ravel(),
                             np.arange(len(rows) + 1) * pts), shape=(len(rows), N))


def _table_to_samples(W: np.ndarray, grid: PhaseSpaceGrid, keep=None) -> np.ndarray:
    """Symbol samples f(x_l, xi_k) from a phase-stripped kernel table, at the
    position nodes where the boolean ``keep`` (one axis, default all) holds
    on every axis: shape (K,)*n + (N,)*n for K kept nodes.

    The offsets (d1, d2) give L_d1 D L_d2^T (:func:`_stencil`), with
    D[i1, i2] = W[i1 N + i2, (i1 - d1) N + i2 - d2] mod N (a wrapped entry
    is in no stencil), one d1 at a time, then an FFT over (d1, d2); a 1D
    table has a second axis of one node, whose one stencil is [[1]].
    ``keep`` picks rows of the stencil matrices, so kept samples are those
    of a full call to the bit."""
    from scipy import sparse
    N, n = grid.N, grid.n
    rows = np.arange(N) if keep is None else np.flatnonzero(keep)
    R = N ** (n - 1)  # nodes of the second axis
    rows2 = rows if n == 2 else np.zeros(1, int)
    # the second axis applies its L_d2 to all of its diagonals by one block-diagonal product
    L2 = sparse.block_diag([_stencil(R, e, rows2) for e in range(R)], format="csr")
    i, i2, k = np.arange(N), np.arange(R), np.arange(len(rows))
    cols2 = (i2 - i2[:, None]) % R  # row i2 of diagonal d2 lies in column cols2[d2 mod R, i2]
    W = np.asarray(W).reshape(N, R, N, R)  # [i1, i2, j1, j2], real or complex
    cs = np.empty((N, R, len(rows2), len(rows)), dtype=complex)  # [d1, d2, l2, l1]
    for e in range(N):  # e = d1 mod N
        # the real view puts the real and imaginary parts in columns of their
        # own; a real table is made complex one gathered slice at a time
        T = W[i, :, (i - e) % N].astype(complex, copy=False).view(float).reshape(N, -1)
        T = (_stencil(N, e, rows) @ T).view(complex).reshape(-1, R, R)  # [l1, i2, j2]
        T = T[k, i2[:, None], cols2[:, :, None]].view(float).reshape(R * R, -1)  # [(d2, i2), l1]
        cs[e] = (L2 @ T).view(complex).reshape(R, len(rows2), -1)  # [d2, l2, l1]
    cs = sp_fft.fft2(cs, axes=(0, 1), overwrite_x=True)
    return cs.transpose(3, 2, 0, 1).reshape((len(rows),) * n + (N,) * n)


# ---------------------------------------------------------------------------
# magnetic translations
# ---------------------------------------------------------------------------


def magnetic_translation(gauge: Gauge, y) -> np.ndarray:
    """Unitary matrix of [T^A(y) u](x) = e^{-i Circ(A; x -> x+y)} u(x + y).

    ``y`` must lie on the position lattice; the shift is cyclic, while the
    circulation uses the straight unwrapped segment.
    """
    g = gauge.grid
    y = np.atleast_1d(np.asarray(y, dtype=float))
    steps = y / g.dx
    if not np.allclose(steps, np.round(steps), atol=1e-9):
        raise ValueError(f"translation {y} is not on the position lattice (dx={g.dx})")
    steps = np.round(steps).astype(int)
    X = g.x_flat()
    phases = gauge.segment_phase(X, X + y)
    # column index of x + y under cyclic wrap
    shifted = np.indices((g.N,) * g.n).reshape(g.n, -1) + steps[:, None]
    cols = np.ravel_multi_index(tuple(shifted), (g.N,) * g.n, mode="wrap")
    T = np.zeros((g.npoints, g.npoints), dtype=complex)
    T[np.arange(g.npoints), cols] = phases
    return T


def translation_cocycle_diagonal(B, x, y, grid: PhaseSpaceGrid) -> np.ndarray:
    """diag(omega^B(q; x, y)) over the position lattice, for the covariance
    relation T(x) T(y) = diag(omega^B(.; x, y)) T(x + y)."""
    Q = grid.x_flat()
    return np.diag(omega_cocycle(B, Q, np.asarray(x, float), np.asarray(y, float)))


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


def rep_A(F: KernelFunction, gauge: Gauge) -> MagneticOperator:
    """Schroedinger representation of a kernel function:

    M[i, j] = (2 pi)^(-n/2) dx^n e^{-i Circ(A; x_i -> x_j)}
              F((x_i + x_j)/2, x_j - x_i).
    """
    grid = gauge.grid
    if F.grid != grid:
        raise ValueError("grid mismatch")
    X = grid.x_flat()
    Q = 0.5 * (X[:, None, :] + X[None, :, :])
    V = X[None, :, :] - X[:, None, :]
    vals = np.asarray(F.fn(Q, V), dtype=complex)
    scale = grid.dx**grid.n / (2.0 * np.pi) ** (grid.n / 2.0)
    return MagneticOperator(grid, gauge.attach(scale * vals))


def _lattice_sum(summand, grid: PhaseSpaceGrid, budget: int, scale: float):
    """The function (a, b) -> scale * sum over a lattice of N^n nodes of
    summand(a, b), for points a, b of shape (..., n) that broadcast together.
    ``summand`` maps flat (K, n) points to (K, N^n) terms; it runs on chunks
    of about ``budget`` terms."""
    n = grid.n
    chunk = max(1, budget // grid.npoints)

    def fn(a, b):
        a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
        shape = np.broadcast_shapes(a.shape[:-1], b.shape[:-1])
        a = np.broadcast_to(a, shape + (n,)).reshape(-1, n)
        b = np.broadcast_to(b, shape + (n,)).reshape(-1, n)
        out = np.zeros(len(a), dtype=complex)
        for start in range(0, len(a), chunk):
            sl = slice(start, start + chunk)
            out[sl] = scale * np.sum(summand(a[sl], b[sl]), axis=1)
        return out.reshape(shape)

    return fn


def partial_fourier(F: KernelFunction):
    """Symbol (as a Symbol-compatible callable object) from a kernel:

    f(q, xi) = (2 pi)^(-n/2) dx^n sum_v e^{+i v.xi} F(q, v)
    over the centered displacement lattice.
    """
    from .symbols import Symbol

    g = F.grid
    vlat = F.difference_lattice().reshape(-1, g.n)
    scale = g.dx**g.n / (2.0 * np.pi) ** (g.n / 2.0)

    def summand(x, xi):
        return np.exp(1j * xi @ vlat.T) * F.fn(x[:, None, :], vlat[None, :, :])

    return Symbol.from_callable(_lattice_sum(summand, g, 1 << 22, scale),
                                n=g.n, m=0.0, rho=0.0, delta=0.0)


def partial_fourier_inverse(f, grid: PhaseSpaceGrid) -> KernelFunction:
    """Kernel from a symbol: F(q, v) = (2 pi)^(-n/2) dxi^n
    sum_k e^{-i v.xi_k} f(q, xi_k)."""
    g = grid
    xilat = g.xi_mesh().reshape(-1, g.n)
    scale = g.dxi**g.n / (2.0 * np.pi) ** (g.n / 2.0)

    def summand(q, v):
        return np.exp(-1j * v @ xilat.T) * f(q[:, None, :], xilat[None, :, :])

    return KernelFunction(grid, _lattice_sum(summand, g, 1 << 22, scale))


def twisted_product(F: KernelFunction, G: KernelFunction, B, grid: PhaseSpaceGrid) -> KernelFunction:
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
    zero_field = B.is_zero()

    def summand(q, v):
        qs, vs, w = q[:, None, :], v[:, None, :], wlat[None, :, :]
        fvals = F.fn(qs + 0.5 * (w - vs), w)
        gvals = G.fn(qs + 0.5 * w, vs - w)
        phase = 1.0 if zero_field else omega_cocycle(
            B, qs - 0.5 * vs, np.broadcast_to(w, fvals.shape + (g.n,)), vs - w)
        return fvals * gvals * phase

    return KernelFunction(grid, _lattice_sum(summand, g, 1 << 18, scale))
