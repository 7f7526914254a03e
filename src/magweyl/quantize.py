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

At zero field a real symbol even in each momentum quantizes to a real
operator.  :func:`quantize` alone decides it: in the zero gauge exactly real
and even samples give a float64 table, a DCT-I of their xi >= 0 half.

Sign convention: with this phase, Op^A(xi_j) = -i d_j - A_j, so for B = dA
(B_12 = d_1 A_2 - d_2 A_1) the momenta satisfy
xi1 # xi2 - xi2 # xi1 = i B_12.

The phase is the only gauge-dependent ingredient.  :class:`Gauge` owns it
and applies e^{-iC} (quantization) or e^{+iC} (its inverse) in place, by
one loop over slabs of rows, each slab's upper part with its mirror below
the diagonal, so the complex phase is never held whole; every
gauge-dependent function here takes one.  Two kinds of potential need no C,
since their phase separates: every 1D potential, a pure gauge with
C(x, y) = u(y) - u(x), and a 2D potential of degree <= 1.  Any other builds
C once; a reversed segment has the opposite circulation, so C is integrated
on its upper triangle only, in row blocks that depend on nothing but the
number of nodes, and the rest is filled from C = -C^T, which holds exactly.

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
    reduction rounds by the thread count, and on numpy's pool it stalls the
    next LAPACK call: the one-pool rule of :mod:`magweyl.inversion`), and no
    temporary for a C-contiguous ``a``."""
    v = np.ascontiguousarray(a).view(float).reshape(-1)
    return float(np.einsum("i,i->", v, v))


def _reuse(work: np.ndarray, shape: tuple, dtype, order: str = "C") -> np.ndarray:
    """The leading bytes of the contiguous array ``work`` as an array of
    ``shape`` and ``dtype`` in ``order``: a work array put to another use."""
    return work.reshape(-1).view(dtype)[:math.prod(shape)].reshape(shape, order=order)


def _rotate(a: np.ndarray, d: int, axes=(0, 1)) -> np.ndarray:
    """The view a[T^d x] over the two position ``axes`` of ``a``, where T
    rotates a 2D grid by 90 degrees about (-dx/2, -dx/2): (i, j) -> (N-1-j, i)."""
    return np.rot90(a, -d, axes=axes)


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


def _fortran_operand(x: np.ndarray):
    """x^T as a BLAS operand: (x^T, 0) when x^T is Fortran-ordered (or when
    neither is, and f2py copies it), (x, 1), with the transpose flag, when
    only x is."""
    return (x, 1) if x.flags.f_contiguous and not x.flags.c_contiguous else (x.T, 0)


def _matmul(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """a @ b on scipy's BLAS, for a matrix or a vector a and a matrix b.

    gemm multiplies the Fortran-ordered views b^T a^T = (a b)^T, with no
    copy, into the transpose of a zeroed C-ordered result (gemv takes b^T
    for a vector a); a real operand of a complex product is first copied to
    a C-ordered complex one.  These are the calls numpy's matmul makes, and
    the result is fresh, as numpy's is (numpy may reuse a fresh temporary in
    place, which rounds elementwise arithmetic differently than a view), so
    on one BLAS thread everything computed from it has numpy's bits.  On
    more, each OpenBLAS build rounds a product by how it splits the work,
    and the two split some orders apart (on 2 threads P = 100 complex and
    P = 104 real, not P = 1024).  Dense products go through here, not
    through ``@``, by the one-pool rule of :mod:`magweyl.inversion`."""
    dtype = np.result_type(a, b)
    a, b = (x if x.dtype == dtype else np.ascontiguousarray(x, dtype) for x in (a, b))
    bt, trans_b = _fortran_operand(b)
    if a.ndim == 1:
        return sp_linalg.get_blas_funcs("gemv", (a, b))(1.0, bt, a, trans=trans_b)
    at, trans_a = _fortran_operand(a)
    gemm = sp_linalg.get_blas_funcs("gemm", (a, b))
    out = np.zeros((len(a), b.shape[1]), dtype=dtype)
    gemm(1.0, bt, at, c=out.T, trans_a=trans_b, trans_b=trans_a, overwrite_c=1)
    return out


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
        # one vdot per basis vector, in turn (modified Gram-Schmidt, whose
        # bits series_norm_bound reports).  At P = 1024 on 2 cores this takes
        # 2 ms a run real and 0.5 ms complex; a scipy gemv pass (classical
        # Gram-Schmidt) 0.6 and 0.3 ms; a numpy ``@`` pass 0.6 and 69 ms, the
        # cost of waking numpy's pool (the one-pool rule of magweyl.inversion)
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

    ``matrix`` is kept as float64 (as :func:`quantize` gives an exactly
    real zero-gauge table) and any other dtype is made complex.

    ``rotation_phase`` and ``reflection_phase`` are, on an operator that
    :func:`quantize` returned on a 2D grid, the gauge terms of the 90-degree
    rotation and of the swap of the grid (:meth:`Gauge.rotation_phase`,
    :meth:`Gauge.reflection_phase`), which the symmetry checks of
    :func:`magweyl.spectral.spectrum` read; None otherwise.  Each holds P
    numbers, read from the gauge's C or, for a separable phase, from u and
    B_12 alone, so the operator keeps no C alive."""

    grid: PhaseSpaceGrid
    matrix: np.ndarray = field(repr=False)
    rotation_phase: np.ndarray | None = field(default=None, repr=False, compare=False)
    reflection_phase: np.ndarray | None = field(default=None, repr=False, compare=False)

    def __post_init__(self):
        P = self.grid.npoints
        mat = np.asarray(self.matrix)
        mat = mat if mat.dtype == np.float64 else mat.astype(complex, copy=False)
        if mat.shape != (P, P):
            raise ValueError(f"matrix shape {mat.shape} != ({P}, {P})")
        object.__setattr__(self, "matrix", mat)

    def operator_norm(self) -> float:
        """A certified upper bound on the largest singular value, at most
        about 5e-10 relative above it (:func:`_norm_bound`)."""
        return _norm_bound(self.matrix)

    def hermiticity_defect(self) -> float:
        """Relative Frobenius distance ||M - M^H||_F / ||M||_F to the Hermitian
        part (see :meth:`_defects`)."""
        return self._defects()[0]

    def _defects(self, g: np.ndarray | None = None, tol: float = np.inf) -> tuple[float, float]:
        """(||M - M^H||_F / ||M||_F, ||Pi_T M Pi_T^T - D M D^*||_F / ||M||_F)
        in one pass over M, with D = diag(e^{ig}) for a gauge term ``g`` of
        the rotation T of a 2D grid (:meth:`Gauge.rotation_phase`).  The
        second is NaN without ``g``, and inf when its sum stopped past ``tol``.

        M is read by slabs of rows (in 2D the N rows of one first node index,
        in 1D ``_PHASE_ROWS`` rows), from the centre slab outward, where a
        centred well breaks the rotation most.  Each slab gives, in one work
        array of its size in turn, its sum of |M|^2; of |M - M^H|^2 over its
        diagonal block plus twice that over the blocks right of it (an entry
        of M - M^H below the diagonal is minus the conjugate of its mirror,
        exactly), formed transposed, so that the rows below are read in
        order; and of |M[T a, T b] - u(a) M[a, b] conj(u(b))|^2 (u = e^{ig};
        at g = 0 a float64 M stays real).  The Hermiticity sum covers every
        slab.  The rotation sum stops at the first slab where it passes
        ``tol`` relative to the rows read so far; should the whole norm take
        it back under, the rest is summed after the pass.  Slab sums go
        through :func:`_sum_squares` and are added in slab order, so no value
        depends on the visit order or the thread count."""
        m, grid = self.matrix, self.grid
        P = len(m)
        step = grid.N if grid.n == 2 else _PHASE_ROWS
        count = -(-P // step)
        order = sorted(range(count), key=lambda s: abs(2 * s - (count - 1)))
        parts = np.zeros((3, count))  # per slab: |M|^2, |M - M^H|^2, rotation
        due = [] if g is None else list(order)  # slabs whose rotation sum is due
        u = None if g is None or not g.any() else np.exp(1j * g).reshape(grid.N, grid.N)
        uc = None if u is None else np.conj(u)
        work = np.empty(step * P, dtype=m.dtype if u is None else complex)

        if g is not None:
            M4 = m.reshape((grid.N,) * 4)
            X4 = _rotate(_rotate(M4, 1), 1, axes=(2, 3))  # M[T a, T b]

        def rotation(s):
            diff = _reuse(work, M4.shape[1:], work.dtype)
            if u is None:
                np.subtract(X4[s], M4[s], out=diff)
            else:
                np.multiply(u[s, :, None, None], M4[s], out=diff)
                np.multiply(diff, uc, out=diff)
                np.subtract(X4[s], diff, out=diff)
            return _sum_squares(diff)

        stopped = False
        for s in order:
            a, b = s * step, min(P, (s + 1) * step)
            parts[0, s] = _sum_squares(m[a:b])
            # the diagonal block, then the blocks right of it, as (M - M^H)^T:
            # the rows below are read in order, the slab's own transposed
            for c, e, weight in ((a, b, 1.0), (b, P, 2.0)):
                diff = np.conjugate(m[c:e, a:b], out=_reuse(work, (e - c, b - a), m.dtype))
                np.subtract(m[a:b, c:e].T, diff, out=diff)
                parts[1, s] += weight * _sum_squares(diff)
            if due and not stopped:
                due.remove(s)
                parts[2, s] = rotation(s)
                stopped = parts[2].sum() > tol**2 * parts[0].sum()
        norm2 = np.cumsum(parts[0])[-1]
        while due and parts[2].sum() <= tol**2 * norm2:
            s = due.pop(0)
            parts[2, s] = rotation(s)
        norm2, herm2, rot2 = np.cumsum(parts, axis=1)[:, -1]
        norm = max(math.sqrt(norm2), 1e-300)
        rot = math.nan if g is None else math.inf if due else math.sqrt(rot2) / norm
        return math.sqrt(herm2) / norm, rot

    def __matmul__(self, other: "MagneticOperator") -> "MagneticOperator":
        if other.grid != self.grid:
            raise ValueError("grid mismatch")
        return MagneticOperator(self.grid, _matmul(self.matrix, other.matrix))


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
    # the x = 0 node alone, as in a full :attr:`SampledSymbol.values` to the bit
    mid = g.N // 2
    at_zero = _table_to_samples(S.table, g, np.arange(g.N) == mid)
    ray = at_zero[(0,) * g.n + (slice(None),) + (mid,) * (g.n - 1)]
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


# rows per block of the circulation matrix's mirror into its lower
# triangle; the blocks depend only on P
_ROWS = 8
# pair x node points of one circulation call: a block's columns are split
# into chunks of at most this many, which bounds its work arrays
_POINTS = 1 << 14
# rows per slab of the 1D phase application, of the 1D symbol table, of the
# 1D slabs of the Hermiticity defect and of the Cholesky inverse's mirror
_PHASE_ROWS = 64


def circulation_matrix(A: VectorPotential, grid: PhaseSpaceGrid) -> np.ndarray:
    """Circ(A; x_i -> x_j) for every ordered node pair of a 2D grid, shape
    (P, P).  A 1D phase needs no C: it is u(y) - u(x) (:class:`Gauge`).

    A reversed segment has the opposite circulation, so only the upper
    triangle is integrated, in fixed row blocks that each compute C[a:b, a:]
    in column chunks of at most ``_POINTS`` pair x node points; then, by
    blocks of ``_ROWS`` rows, the strict lower triangle is set to -C^T and
    the diagonal to 0.

    Row i = i1 N + i2 and column j = j1 N + j2 hold the node pairs
    (x_i1, x_i2) and (x_j1, x_j2).  A block is the N rows of one first-axis
    index i1, so its upper triangle is the whole column groups j1 >= i1; a
    chunk is some whole j1 groups, or one group split along j2 when it alone
    exceeds ``_POINTS``.  The kernel gets x1 along the (node, j1) axes and x2
    along (node, i2, j2), so a field component that reads x1 only is
    evaluated at N^2 times fewer points than the pairs.  Every entry goes
    through the same operations in the same order, so C = -C^T holds
    exactly and C is the same to the bit for any blocks and chunks.
    """
    P, N = grid.npoints, grid.N
    if A.is_zero():
        return np.zeros((P, P))
    nodes = grid.x_nodes
    q = exact_order(DEFAULT_QUAD, A.degree)
    C = np.empty((P, P))
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
    """A vector potential A on a grid, the one owner of the circulation phase.

    Two kinds of potential have a separable phase, C(x, y) = u(y) - u(x)
    plus, in 2D, a term of the field.  Every 1D potential is a pure gauge,
    so there C(x, y) = u(y) - u(x) holds exactly; u at the N nodes,
    u(x_0) = 0, is the cumulative sum over the cells of one
    :func:`exact_order` Gauss-Legendre rule each.  A nonzero 2D potential
    of degree <= 1, A(x) = a + Kx, has its 1-node rule exact: with
    u(x) = C(0, x), C(x, y) = u(y) - u(x) + (B_12/2)(x1 y2 - x2 y1).  Any
    other potential gets the real matrix C = :func:`circulation_matrix`,
    built on first use and kept.

    :meth:`attach` and :meth:`strip` multiply W in place by one loop over
    slabs of rows a:b (in 2D the N rows of one i1, in 1D ``_PHASE_ROWS``
    rows): W[a:b, a:] by S = e^{-+iC[a:b, a:]}, and its mirror W[b:, a:b]
    by the conjugate transpose of S right of its diagonal block.  S is a
    slice of e^{-+iC}, or, for a separable phase, an outer product with
    g = e^{-+iu}: in 1D of conj(g[a:b]) over the rows and g[a:] over the
    columns; in 2D, block (i1, j1) in the (i1, i2, j1, j2) view of W, of
    conj(g[i1] E[j1]) over i2 and g[j1] E[i1] over j2, with
    E = e^{-+i(B_12/2) x x^T}.  A separable slab's diagonal block is
    mirrored from its strict upper triangle, with a diagonal of exactly 1,
    and a slab of C (C = -C^T and C_ii = 0 exactly) is applied whole, so
    the phase is exactly conjugate-symmetric; an entry from C gets the
    phase of a whole-matrix e^{-+iC}, to the bit.  A zero potential
    (``A.is_zero()``) builds nothing: its phase is 1."""

    A: VectorPotential
    grid: PhaseSpaceGrid

    @cached_property
    def circulation(self) -> np.ndarray:
        return circulation_matrix(self.A, self.grid)

    @cached_property
    def _separable(self):
        """(u at the P nodes, B_12, 0 in 1D) of a separable phase; None for
        any other."""
        A, x = self.A, self.grid.x_nodes
        if A.is_zero() or self.grid.n == 2 and (A.degree is None or A.degree > 1):
            return None
        if self.grid.n == 1:
            cells = _circulation(A, (x[:-1],), (x[1:],), DEFAULT_QUAD)
            return np.concatenate(([0.0], np.cumsum(cells))), 0.0
        u = _circulation(A, (0.0, 0.0), (x[:, None], x), DEFAULT_QUAD).ravel()
        a, a1, a2 = A.evaluate(np.eye(3, 2, -1))  # A at 0, e1 and e2
        return u, (a1[1] - a[1]) - (a2[0] - a[0])

    def _row(self, i: int) -> np.ndarray:
        """Row i of C on a 2D grid, by the separable formula when there is one."""
        if self._separable is None:
            return self.circulation[i]
        u, b = self._separable
        X = self.grid.x_flat()
        return u - u[i] + 0.5 * b * (X[i, 0] * X[:, 1] - X[i, 1] * X[:, 0])

    def _apply(self, sign: complex, W: np.ndarray) -> np.ndarray:
        if self.A.is_zero():
            return W
        N, x = self.grid.N, self.grid.x_nodes
        step = N if self.grid.n == 2 else _PHASE_ROWS
        # slab(a) = e^{sign C[a:a + step, a:]}; what no slab changes is computed once
        if self._separable is None:
            slab = lambda a: np.exp(sign * self.circulation[a:a + step, a:])
        else:
            u, b12 = self._separable
            g = np.exp(sign * u)
            if self.grid.n == 1:
                outer = lambda a: np.conjugate(g[a:a + step])[:, None] * g[a:]
            else:
                g = g.reshape(N, N)
                E = np.exp(sign * (0.5 * b12) * np.multiply.outer(x, x))
                # the blocks j1 >= i1 of one i1, as [i2, j1 - i1, j2]
                outer = lambda a: (np.conjugate(g[a // N] * E[a // N:]).T[:, :, None]
                                   * (g[a // N:] * E[a // N])).reshape(N, -1)
            # the diagonal blocks' strict lower triangles and diagonals, by size
            tri = {m: (np.tril_indices(m, -1), np.diag_indices(m))
                   for m in {step, self.grid.npoints % step}}

            def slab(a):
                S = outer(a)
                # the diagonal block: exactly conjugate-symmetric, C_ii = 0
                D, (lower, diag) = S[:, :len(S)], tri[len(S)]
                D[lower] = np.conjugate(D.T[lower])
                D[diag] = 1.0
                return S

        for a in range(0, len(W), step):
            # the phase first: W *= phase rounds differently
            S = slab(a)
            b = a + len(S)
            np.multiply(S, W[a:b, a:], out=W[a:b, a:])
            # C[b:, a:b] = -C[a:b, b:]^T, so its phase is conj(S)^T
            np.multiply(np.conjugate(S[:, b - a:]).T, W[b:, a:b], out=W[b:, a:b])
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
        g(b) = C[T 0, T b] - C[0, b], from rows 0 and T 0 of C (in O(P) for
        a separable phase), so that C[T a, T b] - C[a, b] = g(b) - g(a)
        holds for a = 0; whether it holds for every pair is the caller's
        check.  0 for a zero potential."""
        N = self.grid.N
        if self.A.is_zero():
            return np.zeros(N * N)
        t = _rotate(np.arange(N * N).reshape(N, N), 1).ravel()  # t[a] = T a
        return self._row(t[0])[t] - self._row(0)

    def reflection_phase(self) -> np.ndarray:
        """The candidate gauge term h of the swap R of a 2D grid,
        (i, j) -> (j, i), which reverses orientation and so the sign of
        the circulation: h(b) = C[0, R b] + C[0, b], from row 0 of C (R 0 = 0),
        so that C[R a, R b] + C[a, b] = h(b) - h(a) holds for a = 0; whether
        it holds for every pair is the caller's check.  0 for a zero
        potential, and h(R b) = h(b)."""
        N = self.grid.N
        if self.A.is_zero():
            return np.zeros(N * N)
        c = self._row(0)
        return c.reshape(N, N).T.ravel() + c

    def segment_phase(self, x, y) -> np.ndarray:
        """e^{-i Circ(A; x -> y)} for batched endpoints of shape (..., n)."""
        return np.exp(-1j * circulation(self.A, x, y, DEFAULT_QUAD))


# ---------------------------------------------------------------------------
# symbol -> phase-stripped kernel table
# ---------------------------------------------------------------------------


def _real_even(F: np.ndarray, n: int) -> bool:
    """Whether the samples F (momentum axes last, n of them) are real and
    equal to their reflection k -> (-k) mod N on each momentum axis alone,
    as :func:`_even_transform` needs; node 0 (Nyquist) is its own."""
    if np.iscomplexobj(F) and F.imag.any():
        return False
    N = F.shape[-1]
    # on each axis, nodes 1 .. N/2 - 1 against N - 1 .. N/2 + 1
    return all(np.array_equal(F_a[..., 1:N // 2], F_a[..., :N // 2:-1])
               for F_a in (np.moveaxis(F.real, a, -1) for a in range(-n, 0)))


def _even_transform(F: np.ndarray, n: int) -> np.ndarray:
    """T[.., t] = N^-n sum_k F_k e^{i t.(xi_k dx)} at t = 0 .. N/2 on the
    last n axes, for samples that pass :func:`_real_even`: the DCT-I of the
    samples at xi = 0 .. (N/2) dxi (by evenness, the reversed nodes N/2 .. 0),
    over N^n.  Difference d reads T[.., min(|d|, N - |d|)], with no sign."""
    N = F.shape[-1]
    half = F[(...,) + (slice(N // 2, None, -1),) * n]
    return sp_fft.dctn(half, type=1, axes=tuple(range(-n, 0))) / N ** n


def _fold(d: np.ndarray, N: int) -> np.ndarray:
    """min(|d|, N - |d|): where :func:`_even_transform` holds difference d."""
    return np.minimum(np.abs(d), N - np.abs(d))


def _table_1d(G: np.ndarray, real: bool) -> np.ndarray:
    """W[i, j] = (-1)^d G[i + j, d mod N] with d = i - j, from the ifft G of
    the 2N - 1 midpoints, by blocks of ``_PHASE_ROWS`` rows; with ``real``,
    G[i + j, min(|d|, N - |d|)] from their :func:`_even_transform` G."""
    N = len(G) // 2 + 1
    j = np.arange(N)
    W = np.empty((N, N), dtype=float if real else complex)
    for a in range(0, N, _PHASE_ROWS):
        i = np.arange(a, min(a + _PHASE_ROWS, N))[:, None]
        d = i - j
        W[a:a + _PHASE_ROWS] = G[i + j, _fold(d, N)] if real else (-1.0) ** d * G[i + j, d % N]
    return W


def _difference_table(S: np.ndarray, N: int) -> np.ndarray:
    """W[i1 N + i2, j1 N + j2] = S[i1 - j1 + N - 1, i2 - j2 + N - 1] for a
    (2N - 1, 2N - 1) table S, as a new C-ordered array: one copy of the
    view of S at S[N - 1, N - 1] with strides (s0, s1, -s0, -s1)."""
    s0, s1 = S.strides
    view = np.lib.stride_tricks.as_strided(S[N - 1:, N - 1:], (N,) * 4, (s0, s1, -s0, -s1),
                                           writeable=False)
    W = np.empty(view.shape, dtype=S.dtype)
    np.copyto(W, view)
    return W.reshape(N * N, N * N)


def _symbol_table(f, grid: PhaseSpaceGrid, real: bool = False) -> np.ndarray:
    """Phase-stripped kernel table W[i, j] = dx^n (2 pi)^-n fcheck(q_ij, v_ij).

    All measure factors cancel:  W[i, j] = (-1)^(sum d) ifftn(F_q)[d mod N]
    with, per axis, the difference d = i - j and the midpoint index p = i + j
    of q = half_nodes[p], and F_q the symbol sampled at q over the centered
    momentum lattice.  Every branch is one gather by (p, d), in 1D by blocks
    of ``_PHASE_ROWS`` rows, but the 2D x-independent one, whose table
    depends on d alone: a strided copy of it (:func:`_difference_table`).

    A symbol with a ``split`` (V, rest) gets the table of ``rest`` (zero
    when there is none) with V(x_i) added to its diagonal in place.

    With ``real`` (set by :func:`quantize` alone, in the zero gauge), a table
    that is exactly real (V real and every F_q :func:`_real_even`) is float64,
    gathered from :func:`_even_transform`: exactly symmetric, and within a few
    ulps of max|W| of the real part of the complex table.  Any other is complex.
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
        F = np.asarray(f(np.zeros_like(xi_mesh), xi_mesh))
        real = real and _real_even(F, n)
        G = _even_transform(F.real, n) if real else sp_fft.ifftn(np.asarray(F, dtype=complex))
        if n == 1:
            # one transform serves every midpoint
            return _table_1d(np.broadcast_to(G, (2 * N - 1,) + G.shape), real)
        # the table S[d1, d2] over d = 1-N .. N-1 (stored at d + N - 1),
        # read at d1 = i1 - j1 and d2 = i2 - j2 of W[i1 N + i2, j1 N + j2]
        k = np.arange(1 - N, N)
        S = (G[np.ix_(_fold(k, N), _fold(k, N))] if real
             else (-1.0) ** (k[:, None] + k[None, :]) * G[np.ix_(k % N, k % N)])
        return _difference_table(S, N)

    half = grid.half_nodes()
    if n == 1:
        F = np.asarray(f(half[:, None, None], xi_mesh[None, :, :]))  # (2N-1, N)
        if real and _real_even(F, 1):
            return _table_1d(_even_transform(F.real, 1), True)
        # in place: F and its transform together would hold 64 P^2 bytes
        F = np.asarray(F, dtype=complex)
        return _table_1d(sp_fft.ifft(F, axis=1, overwrite_x=True), False)

    # n == 2: one midpoint slab p1 along the first axis at a time bounds the
    # memory; a slab holds every block (i1, j1 = p1 - i1) of W4[i1, i2, j1, j2]
    p, d = i[:, None] + i, i[:, None] - i
    sign, fd = (-1.0) ** d, _fold(d, N)
    W4 = np.empty((N,) * 4, dtype=float if real else complex)
    for p1, q1 in enumerate(half):
        # one point per midpoint, shape (2N-1, 1, 1, 2); the momentum axes broadcast
        qgrid = np.stack(np.broadcast_arrays(q1, half[:, None, None]), axis=-1)
        F = np.broadcast_to(f(qgrid, xi_mesh[None]), (2 * N - 1, N, N))
        i1 = np.arange(max(0, p1 - N + 1), min(N, p1 + 1))
        d1 = (2 * i1 - p1)[:, None, None]
        if real and not _real_even(F, 2):
            del W4  # start again, complex, without holding the float table
            return _symbol_table(f, grid)
        if real:
            W4[i1, :, p1 - i1, :] = _even_transform(F.real, 2)[p, _fold(d1, N), fd]
        else:
            G = sp_fft.ifft2(np.asarray(F, dtype=complex), axes=(1, 2))
            W4[i1, :, p1 - i1, :] = (-1.0) ** d1 * sign * G[p, d1 % N, d % N]
    return W4.reshape(grid.npoints, -1)


# ---------------------------------------------------------------------------
# quantize / dequantize
# ---------------------------------------------------------------------------


def quantize(f, gauge: Gauge) -> MagneticOperator:
    """Gauge-covariant quantization of a symbol (or SampledSymbol).  In the
    zero gauge an exactly real table is float64 (:func:`_symbol_table` with
    ``real``) and a SampledSymbol keeps its dtype; any other is complex."""
    grid = gauge.grid
    zero = gauge.A.is_zero()
    # build (or fetch) C before the table, so that the work arrays of the
    # circulation fill and the table are never held together; a separable
    # phase needs none
    if not zero and gauge._separable is None:
        gauge.circulation
    if isinstance(f, SampledSymbol):  # a copy: the matrix is written in place
        W = np.array(_as_table(f, grid), dtype=None if zero else complex)
    else:
        W = _symbol_table(f, grid, real=zero)
    phases = (gauge.rotation_phase(), gauge.reflection_phase()) if grid.n == 2 else ()
    return MagneticOperator(grid, gauge.attach(W), *phases)


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
    W = np.array(M.matrix, dtype=None if gauge.A.is_zero() else complex)  # strip overwrites it
    return SampledSymbol(M.grid, gauge.strip(W))


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


@cache
def _stencils(N: int, rows: tuple) -> tuple:
    """The L_d (:func:`_stencil`) of d = 0 .. N - 1 mod N for the output
    nodes ``rows`` of a 2D table, and their block-diagonal, which applies
    L_d2 to all second-axis diagonals at once: 8 P weights, built once."""
    from scipy import sparse
    L = tuple(_stencil(N, e, np.array(rows)) for e in range(N))
    return L, sparse.block_diag(L, format="csr")


def _table_to_samples(W: np.ndarray, grid: PhaseSpaceGrid, keep=None) -> np.ndarray:
    """Symbol samples f(x_l, xi_k) from a phase-stripped kernel table, at the
    position nodes where the boolean ``keep`` (one axis, default all) holds
    on every axis: shape (K,)*n + (N,)*n for K kept nodes.

    The offsets (d1, d2) give L_d1 D L_d2^T (:func:`_stencil`), with
    D[i1, i2] = W[i1 N + i2, (i1 - d1) N + i2 - d2] mod N (a wrapped entry
    is in no stencil), one d1 at a time, then an FFT over (d1, d2); a 1D
    table has a second axis of one node, whose one stencil is [[1]].
    ``keep`` picks rows of the stencil matrices (:func:`_stencils`), so kept
    samples are those of a full call to the bit."""
    N, n = grid.N, grid.n
    rows = np.arange(N) if keep is None else np.flatnonzero(keep)
    R, K2 = (N, len(rows)) if n == 2 else (1, 1)  # nodes and kept nodes of the second axis
    # 1D stencils hold 8 P^2 weights, more than the table: one offset at a time
    L1, L2 = (_stencils(N, tuple(rows.tolist())) if n == 2 else
              ((_stencil(N, e, rows) for e in range(N)), _stencil(1, 0, np.zeros(1, int))))
    i, i2, k = np.arange(N), np.arange(R), np.arange(len(rows))
    cols2 = (i2 - i2[:, None]) % R  # row i2 of diagonal d2 lies in column cols2[d2 mod R, i2]
    W = np.asarray(W).reshape(N, R, N, R)  # [i1, i2, j1, j2], real or complex
    cs = np.empty((N, R, K2, len(rows)), dtype=complex)  # [d1, d2, l2, l1]
    for e, L in enumerate(L1):  # e = d1 mod N
        # the real view puts the real and imaginary parts in columns of their
        # own; a real table is made complex one gathered slice at a time
        T = W[i, :, (i - e) % N].astype(complex, copy=False).view(float).reshape(N, -1)
        T = (L @ T).view(complex).reshape(-1, R, R)  # [l1, i2, j2]
        T = T[k, i2[:, None], cols2[:, :, None]].view(float).reshape(R * R, -1)  # [(d2, i2), l1]
        cs[e] = (L2 @ T).view(complex).reshape(R, K2, -1)  # [d2, l2, l1]
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
        return (np.exp(_matmul(1j * xi, vlat.T))
                * F.fn(x[:, None, :], vlat[None, :, :]))

    return Symbol.from_callable(_lattice_sum(summand, g, 1 << 22, scale),
                                n=g.n, m=0.0, rho=0.0, delta=0.0)


def partial_fourier_inverse(f, grid: PhaseSpaceGrid) -> KernelFunction:
    """Kernel from a symbol: F(q, v) = (2 pi)^(-n/2) dxi^n
    sum_k e^{-i v.xi_k} f(q, xi_k)."""
    g = grid
    xilat = g.xi_mesh().reshape(-1, g.n)
    scale = g.dxi**g.n / (2.0 * np.pi) ** (g.n / 2.0)

    def summand(q, v):
        return np.exp(_matmul(-1j * v, xilat.T)) * f(q[:, None, :], xilat[None, :, :])

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
