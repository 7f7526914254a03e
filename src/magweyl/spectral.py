"""Spectra and essential spectra of magnetic pseudodifferential operators.

``spectrum`` solves the dense Hermitian eigenproblem for a quantized
operator.  On the 2D grid x_k = -L/2 + k dx the rotation T by 90 degrees
about c = (-dx/2, -dx/2), (i, j) -> (N-1-j, i), maps the nodes onto
themselves, with orbits of 4 nodes (c is not a node).  For a constant
field it changes the circulation only by a gauge term,
C[Tx, Ty] - C[x, y] = g(y) - g(x), so S = diag(e^{-ig}) Pi_T commutes with
Op^A(f) for every symbol invariant under the rotation, and S^4 = I once the
constant in g is fixed.  The eigenspaces of S split the eigenproblem into
4 blocks of size P/4.  ``spectrum`` reads the candidate g that
:func:`quantize` recorded from the gauge's phase (``rotation_phase``) and takes
this path only when the relative Frobenius defect
||Pi_T M Pi_T^T - D M D^*||_F / ||M||_F (D = diag(e^{ig})) and the spread
of the orbit phase products are at rounding level; every other operator,
including any 1D one and any not from quantize, gets one dense eigh.  The
rotation defect and the Hermiticity defect ||M - M^H||_F / ||M||_F are
summed in one pass over M by slabs of rows
(:meth:`MagneticOperator._defects`, the one definition of both): the
Hermiticity sum covers every slab, and the rotation sum stops at the first
slab past the tolerance.  The
two paths agree to |d lambda| <= defect * ||M||_F plus the rounding of
eigh, not bit for bit.

The swap R: (i, j) -> (j, i) reverses orientation, so for a constant field
it reverses the circulation up to a gauge term,
C[Ra, Rb] + C[a, b] = h(b) - h(a), which :func:`quantize` also records
(``reflection_phase``, from row 0 of C).  The magnetic reflection
J = D_h K Pi_R (D_h = diag(e^{ih}), K complex conjugation) then commutes
with Op^A(f) for every real symbol with f(Rx, -R xi) = f(x, xi), and since
R T R = T^{-1} it maps each eigenspace of S to itself.  On the orbit
representatives (the quadrant, which R maps to itself) its fixed vectors
form a sparse unitary U: e^{ih(o)/2} e_o at a fixed point o = Ro, and
e^{ih(o)/2} (e_o + e_Ro) / sqrt 2 and i e^{ih(o)/2} (e_o - e_Ro) / sqrt 2 for
each pair o < Ro; in that basis a block is real.  A block is solved as the
real symmetric Re(U^H B_r U) only when
||Im(U^H B_r U)||_F <= ``_SYMMETRY_TOL`` ||U^H B_r U||_F, which by Weyl moves
its eigenvalues by at most ||Im||_2; any other block (a potential odd under
the swap, an operator without ``reflection_phase``) is solved complex.

``essential_spectrum`` realizes the quasi-orbit covering: for
each declared quasi-orbit Q the symbol and field are projected, the
projected operator is quantized in its own transversal gauge, and its
spectrum contributes to an interval union.  Constant-coefficient orbits
with vanishing projected field additionally get an analytic treatment:
the essential spectrum of a Fourier multiplier is the closure of the
range of xi -> f_Q(xi) over *continuum* momenta, which a finite lattice
can only sample, so that closure is computed by numerical minimization
and reported alongside the lattice eigenvalues.

``compare_bulk_vs_essential`` classifies full-operator eigenvalues:
candidates below the essential lower edge should come with
interior-localized eigenvectors (the finite-box witness of discrete
spectrum), and delocalized eigenvalues should fall inside the essential
intervals.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from scipy import linalg as sp_linalg

from .grid import PhaseSpaceGrid
from .magnetics import MagneticField, transversal_gauge
from .quantize import (Gauge, MagneticOperator, _matmul, _reuse, _rotate, _sum_squares,
                       quantize)
from .symbols import (
    CoefficientAlgebra,
    Symbol,
    _position_blocks,
    project_field,
    project_quasiorbit,
)

__all__ = [
    "SpectrumResult",
    "EssentialSpectrumResult",
    "BulkComparison",
    "spectrum",
    "landau_reference",
    "essential_spectrum",
    "compare_bulk_vs_essential",
]

# relative Frobenius defect ||M - M^H||_F / ||M||_F up to which an operator
# counts as Hermitian
HERMITICITY_TOL = 1e-8


@dataclass(frozen=True)
class SpectrumResult:
    """Dense Hermitian eigendecomposition of a grid operator.

    ``eigenvalues`` are ascending reals of length N^n.  ``localization``
    (optional) holds, per eigenvector, the fraction of its mass inside the
    interior 80% position box; values near 1 witness bound states, values
    near the interior volume fraction witness delocalized states.
    ``symmetry_order`` is the number of blocks the eigenproblem was split
    into (1 or 4) and ``symmetry_defect`` the relative commutation defect
    of the magnetic rotation that split it (NaN for order 1).  A block that
    the magnetic reflection makes real is solved in real arithmetic, which
    moves its eigenvalues by at most the 2-norm of the imaginary part it
    drops, at most ``_SYMMETRY_TOL`` of the block's Frobenius norm; its
    eigenvectors are complex all the same.
    """

    grid: PhaseSpaceGrid
    eigenvalues: np.ndarray = field(repr=False)
    hermiticity_defect: float = 0.0
    localization: np.ndarray | None = field(default=None, repr=False)
    eigenvectors: np.ndarray | None = field(default=None, repr=False)
    symmetry_order: int = 1
    symmetry_defect: float = np.nan

    def __post_init__(self):
        vals = np.asarray(self.eigenvalues, dtype=float)
        if vals.shape != (self.grid.npoints,):
            raise ValueError(
                f"expected {self.grid.npoints} eigenvalues, got {vals.shape}")
        if np.any(np.diff(vals) < 0):
            raise ValueError("eigenvalues must be ascending")
        object.__setattr__(self, "eigenvalues", vals)


def spectrum(M: MagneticOperator, localization: bool = False,
             keep_vectors: bool = False) -> SpectrumResult:
    """Full spectrum of a Hermitian grid operator, eigenvalues ascending.

    A 2D operator that carries its ``rotation_phase`` (as :func:`quantize`
    returns it) is first checked for the 90-degree magnetic rotation
    symmetry (see the module docstring).  When it holds, the Hermitian part
    is solved as 4 blocks of size P/4, each real symmetric where the
    magnetic reflection makes it real, whose eigenvalues are merged by a
    stable sort; otherwise it is solved whole.

    Parameters
    ----------
    M : MagneticOperator
        Must be Hermitian within ``HERMITICITY_TOL`` (relative Frobenius
        defect); the measured asymmetry is reported otherwise.
    localization : bool
        Also compute per-eigenvector interior-mass scores.
    keep_vectors : bool
        Retain the eigenvector matrix (columns, same order as eigenvalues).
    """
    acc = None if M.rotation_phase is None else _orbit_products(M)
    defect, symmetry_defect = M._defects(None if acc is None else M.rotation_phase,
                                         _SYMMETRY_TOL)
    if defect > HERMITICITY_TOL:
        raise ValueError(
            f"operator is not Hermitian: relative asymmetry {defect:.3e} "
            f"exceeds tolerance {HERMITICITY_TOL:.1e}")
    if symmetry_defect <= _SYMMETRY_TOL:
        return _block_spectrum(M, acc, symmetry_defect, defect, localization, keep_vectors)
    vals, vecs = _hermitian_eigh(M.matrix, localization or keep_vectors)
    scores = None
    if localization:
        mask = M.grid.interior_mask().ravel()
        mass = np.abs(vecs) ** 2
        scores = mass[mask].sum(axis=0) / mass.sum(axis=0)
    return SpectrumResult(grid=M.grid, eigenvalues=vals,
                          hermiticity_defect=defect,
                          localization=scores,
                          eigenvectors=vecs if keep_vectors else None)


def _hermitian_eigh(a: np.ndarray, vectors: bool, out: np.ndarray | None = None):
    """(eigenvalues, eigenvectors or None) of 0.5 (a + a^H), formed in one
    Fortran-ordered array of the dtype of ``a`` (a real symmetric eigh for a
    float64 ``a``), ``out`` or a new one, that eigh then overwrites instead
    of copying."""
    herm = np.empty(a.shape, dtype=a.dtype, order="F") if out is None else out
    np.conjugate(a.T, out=herm)
    np.add(a, herm, out=herm)
    np.multiply(0.5, herm, out=herm)
    if vectors:
        return sp_linalg.eigh(herm, overwrite_a=True)
    return sp_linalg.eigh(herm, eigvals_only=True, overwrite_a=True), None


# ---------------------------------------------------------------------------
# magnetic rotation symmetry
# ---------------------------------------------------------------------------


# relative commutation defect, and spread of the orbit phase products, up
# to which the magnetic rotation counts as a symmetry: about 1e2 above what
# rounding gives on the largest boxes tried (8.5e-13 at L=40, N=48), about
# 1e7 below the smallest symmetry breaking tried (3e-3)
_SYMMETRY_TOL = 1e-10
# omega^m = i^m, exactly, for the fourth root of unity omega = e^{2 pi i/4}
_ROOTS = (1, 1j, -1, -1j)


def _quadrant(N: int) -> tuple:
    """Slices of the node axes (i, j) that hold one node of every orbit of
    T.  No node is fixed by T^2, since the centre is not a node, so every
    orbit has 4 nodes."""
    return (slice(N // 2), slice(N // 2))


def _orbit_products(M: MagneticOperator):
    """The products acc[d](o) = u(o) u(T o) ... u(T^{d-1} o), d = 0..3,
    over the orbit representatives o, with u = e^{ig} for the gauge term g
    of the rotation T; None unless the spread of acc[4] is within
    ``_SYMMETRY_TOL``.

    The common orbit product is normalised to 1 (g shifted by a constant,
    which leaves D M D^* unchanged, D = diag(u)), so S = D^* Pi_T has
    S^4 = I; S commutes with M once ||Pi_T M Pi_T^T - D M D^*||_F is within
    ``_SYMMETRY_TOL`` ||M||_F (:meth:`MagneticOperator._defects`).
    """
    N = M.grid.N
    u = np.exp(1j * M.rotation_phase).reshape(N, N)
    F = _quadrant(N)
    acc = [np.ones(u[F].shape, dtype=complex)]
    for d in range(4):
        acc.append(acc[-1] * _rotate(u, d)[F])
    z = np.conj(acc[4].flat[0]) ** 0.25
    if np.abs(acc[4] * z**4 - 1.0).max() > _SYMMETRY_TOL:
        return None
    return [a * z**d for d, a in enumerate(acc[:4])]


def _reflection_basis(N: int, h: np.ndarray):
    """(r, c1, c2): the unitary U on the orbit representatives in which the
    magnetic reflection J = D_h K Pi_R acts as complex conjugation, with
    r[o] = R o on the quadrant (R maps it to itself) and column o of U
    c1[o] e_o + c2[o] e_{r[o]}.

    With phi = e^{ih(o)/2} taken at the lesser node of {o, R o}, a fixed
    point o = R o has the column phi e_o, and a pair o < R o the columns
    phi (e_o + e_{Ro}) / sqrt 2 (at o) and i phi (e_o - e_{Ro}) / sqrt 2 (at
    R o); each is fixed by y -> e^{ih} conj(y o R), the action of J on the
    coordinates of a block."""
    n = N // 2
    o = np.arange(n * n)
    r = o.reshape(n, n).T.ravel()
    phi = np.exp(0.5j * h.reshape(N, N)[:n, :n].ravel())[np.minimum(o, r)]
    s = np.sqrt(0.5) * phi
    c1 = np.where(o == r, phi, np.where(o < r, s, -1j * s))
    c2 = np.where(o == r, 0.0, np.where(o < r, s, 1j * s))
    return r, c1, c2


def _real_block(B: np.ndarray, basis, T: np.ndarray):
    """Re(U^H B U), as the real part of B, for the ``basis`` U of
    :func:`_reflection_basis`; U^H B U is formed in B, which this
    overwrites, by two gathers through the work array T (of B's shape and
    dtype, which then holds the imaginary part), since every column of U
    has at most two entries.  None when the relative Frobenius norm of the
    imaginary part exceeds ``_SYMMETRY_TOL``; by Weyl, dropping it moves
    the eigenvalues of the Hermitian part by at most its 2-norm."""
    r, c1, c2 = basis
    np.take(B, r, axis=1, out=T, mode="clip")  # "raise" would buffer out
    T *= c2
    B *= c1
    B += T  # B U
    np.take(B, r, axis=0, out=T, mode="clip")
    T *= np.conj(c2)[:, None]
    B *= np.conj(c1)[:, None]
    B += T  # U^H B U
    imag = _reuse(T, B.shape, float)
    np.copyto(imag, B.imag)
    if _sum_squares(imag) > _SYMMETRY_TOL**2 * _sum_squares(B):
        return None
    return B.real


def _block_spectrum(M: MagneticOperator, acc, symmetry_defect: float,
                    hermiticity_defect: float, localization: bool,
                    keep_vectors: bool) -> SpectrumResult:
    """The spectrum of M from the 4 blocks of its Hermitian part in the
    eigenbasis of S = D^* Pi_T (see :func:`_orbit_products`).

    On the orbit of representative o the eigenvector of S for i^r is
    e_{o,r}(T^d o) = i^{rd} acc[d](o) / 2, so block r is
    B_r[o, o'] = sum_d i^{rd} acc[d](o') M[o, T^d o'], gathered from the
    rows of M at the representatives; an eigenvector y of B_r is the vector
    v(T^d o) = i^{rd} acc[d](o) y(o) / 2.  With the operator's
    ``reflection_phase`` h, a block whose :func:`_real_block` passes is
    solved as that real symmetric matrix and its eigenvectors w read as
    y = U w; any other is built again (the check overwrote it), made
    Hermitian and solved complex.  Every block is built in one work array B
    and put in real form, and made Hermitian for eigh, in a second, T; the
    4 blocks reuse both.
    """
    grid = M.grid
    N, P = grid.N, grid.npoints
    F = _quadrant(N)
    Q = P // 4
    rows = M.matrix.reshape((N,) * 4)[F]
    G = [(_rotate(rows, d, axes=(2, 3))[(slice(None),) * 2 + F] * acc[d]).reshape(Q, Q)
         for d in range(4)]
    basis = None if M.reflection_phase is None else _reflection_basis(N, M.reflection_phase)
    B, T = np.empty((Q, Q), dtype=complex), np.empty((Q, Q), dtype=complex)

    def block(r):
        # B_r in B: i^{rd} G[d] is a sign and a swap of the parts of G[d],
        # so no product is taken, and the sum starts as 0 + G[0], so a zero
        # is +0.0: the bits of sum(i^{rd} G[d] for d in range(4))
        np.add(G[0], 0.0, out=B)
        for d in range(1, 4):
            k = r * d % 4
            if k % 2 == 0:
                (np.add if k == 0 else np.subtract)(B, G[d], out=B)
            else:  # i^k (x + iy) = -+y +- ix for k = 1, 3
                (np.subtract if k == 1 else np.add)(B.real, G[d].imag, out=B.real)
                (np.add if k == 1 else np.subtract)(B.imag, G[d].real, out=B.imag)
        return B

    solved = []
    for r in range(4):
        real = None if basis is None else _real_block(block(r), basis, T)
        a = block(r) if real is None else real
        w, y = _hermitian_eigh(a, localization or keep_vectors, _reuse(T, a.shape, a.dtype, "F"))
        if real is not None and y is not None:
            t, c1, c2 = basis
            y = c1[:, None] * y + c2[t][:, None] * y[t]  # U w
        solved.append((w, y))
    del G, B, T
    vals = np.concatenate([w for w, _ in solved])
    vecs = [y for _, y in solved]
    order = np.argsort(vals, kind="stable")

    scores = None
    if localization:
        # |v|^2 is |y(o)|^2 / 4 at each node of the orbit of o
        share = sum(_rotate(grid.interior_mask(), d)[F] for d in range(4)).ravel() / 4
        mass = [np.abs(y) ** 2 for y in vecs]
        scores = np.concatenate([_matmul(share, m) / m.sum(axis=0) for m in mass])[order]
    full = None
    if keep_vectors:
        full = np.empty((P, P), dtype=complex)
        column = np.empty(P, dtype=int)
        column[order] = np.arange(P)
        V4 = full.reshape(N, N, P)
        for r, y in enumerate(vecs):
            cols = column[r * Q:(r + 1) * Q]
            y = y.reshape(acc[0].shape + (Q,)) / 2.0
            for d in range(4):
                _rotate(V4, d)[F][..., cols] = (_ROOTS[r * d % 4] * acc[d])[..., None] * y
    return SpectrumResult(grid=grid, eigenvalues=vals[order],
                          hermiticity_defect=hermiticity_defect,
                          localization=scores, eigenvectors=full,
                          symmetry_order=4, symmetry_defect=symmetry_defect)


def landau_reference(b: float, k_max: int = 9) -> np.ndarray:
    """Analytic Landau levels {(2k+1) b, 0 <= k <= k_max} of the constant-field
    2-D magnetic Laplacian.  Requires b > 0."""
    if not b > 0:
        raise ValueError(f"field strength must be positive, got {b}")
    if k_max < 0:
        raise ValueError(f"k_max must be >= 0, got {k_max}")
    return (2.0 * np.arange(k_max + 1) + 1.0) * float(b)


# ---------------------------------------------------------------------------
# essential spectrum via the quasi-orbit covering
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class EssentialSpectrumResult:
    """Union of quasi-orbit spectra, merged into disjoint intervals.

    ``intervals`` is an ascending tuple of (lo, hi) pairs (hi may be +inf);
    ``provenance`` holds, per interval, the labels of the orbits that
    contributed to it.  ``analytic_ranges`` maps constant-coefficient orbit
    labels to the numerically-closed continuum range of f_Q.
    """

    orbit_spectra: dict
    intervals: tuple
    provenance: tuple
    analytic_ranges: dict
    merge_tol: float

    @property
    def lower_edge(self) -> float:
        return self.intervals[0][0]

    def contains(self, value: float, tol: float = 0.0) -> bool:
        """Whether ``value`` lies in the merged union, padded by ``tol``."""
        return any(lo - tol <= value <= hi + tol for lo, hi in self.intervals)


def _merge_intervals(intervals, merge_tol):
    """Merge (lo, hi, labels) triples into disjoint labeled intervals."""
    items = sorted(intervals, key=lambda t: (t[0], t[1]))
    merged = []
    for lo, hi, labels in items:
        if merged and lo <= merged[-1][1] + merge_tol:
            plo, phi, plabels = merged[-1]
            merged[-1] = (plo, max(phi, hi), plabels | labels)
        else:
            merged.append((lo, hi, set(labels)))
    return (tuple((lo, hi) for lo, hi, _ in merged),
            tuple(tuple(sorted(labels)) for _, _, labels in merged))


def _eigenvalue_intervals(values, merge_tol, label):
    """Group an ascending eigenvalue list into gap-separated intervals."""
    vals = np.asarray(values, dtype=float)
    out = []
    start = vals[0]
    prev = vals[0]
    for v in vals[1:]:
        if v - prev > merge_tol:
            out.append((start, prev, {label}))
            start = v
        prev = v
    out.append((start, prev, {label}))
    return out


def _continuum_range(f: Symbol, grid: PhaseSpaceGrid):
    """Closure of {f(xi) : xi in R^n} for a real constant-coefficient elliptic
    symbol of positive order: [min f, +inf), the minimum polished off-lattice.

    The lattice minimum seeds local minimizations (Nelder-Mead, derivative
    free) from the best node and its neighbors; ellipticity with m > 0 makes
    the function coercive, so the global minimum is attained.
    """
    from scipy import optimize as sp_optimize

    mesh = grid.xi_mesh().reshape(-1, f.n)
    x0 = np.zeros((1, f.n))
    sampled = np.real(f.fn(np.broadcast_to(x0, mesh.shape), mesh))
    order = np.argsort(sampled)
    best = float(sampled[order[0]])

    def objective(xi):
        return float(np.real(f.fn(x0[0], np.asarray(xi, dtype=float))))

    for idx in order[:4]:
        res = sp_optimize.minimize(objective, mesh[idx], method="Nelder-Mead",
                                   options={"xatol": 1e-10, "fatol": 1e-12,
                                            "maxiter": 2000})
        best = min(best, float(res.fun))
    return best, np.inf


def _default_merge_tol(symbols, grid: PhaseSpaceGrid) -> float:
    """2 * dxi * max |grad_xi f_Q|, the local momentum-lattice resolution.

    The gradient is taken along the momentum axes of
    :func:`magweyl.symbols._position_blocks`, at every position node, and
    the maximum over all of them."""
    axes = tuple(range(1, grid.n + 1))
    top = 0.0
    for f in symbols:
        for vals in _position_blocks(f, grid):
            grads = np.gradient(np.real(vals), grid.dxi, axis=axes)
            if grid.n == 1:
                grads = [grads]
            mag = np.sqrt(sum(np.abs(g) ** 2 for g in grads))
            top = max(top, float(mag.max()))
    return 2.0 * grid.dxi * top


def essential_spectrum(f: Symbol, algebra: CoefficientAlgebra,
                       B: MagneticField, grid: PhaseSpaceGrid,
                       merge_tol: float | None = None) -> EssentialSpectrumResult:
    """Essential spectrum as the union of quasi-orbit operator spectra.

    For each quasi-orbit Q declared by the algebra, the symbol and field are
    projected, a transversal gauge is built for the projected field, and the
    projected operator is quantized on ``grid`` and diagonalized.  When the
    projection is constant-coefficient with zero field, the analytic range
    closure of f_Q over continuum momenta replaces the finite lattice
    spectrum in the interval union (and is reported separately).
    """
    if not f.real:
        raise ValueError("essential spectrum requires a real symbol")
    if not f.m > 0:
        raise ValueError(f"symbol order must be positive, got m={f.m}")
    projections = [(Q, project_quasiorbit(f, Q), project_field(B, Q))
                   for Q in algebra.quasi_orbits]
    if merge_tol is None:
        merge_tol = _default_merge_tol([fq for _, fq, _ in projections], grid)

    orbit_spectra = {}
    analytic_ranges = {}
    raw_intervals = []
    for Q, f_Q, B_Q in projections:
        M = quantize(f_Q, Gauge(transversal_gauge(B_Q), grid))
        res = spectrum(M)
        orbit_spectra[Q.label] = res
        if f_Q.x_independent and B_Q.is_zero():
            lo, hi = _continuum_range(f_Q, grid)
            analytic_ranges[Q.label] = (lo, hi)
            raw_intervals.append((lo, hi, {Q.label}))
        else:
            raw_intervals.extend(
                _eigenvalue_intervals(res.eigenvalues, merge_tol, Q.label))
    intervals, provenance = _merge_intervals(raw_intervals, merge_tol)
    return EssentialSpectrumResult(orbit_spectra=orbit_spectra,
                                   intervals=intervals,
                                   provenance=provenance,
                                   analytic_ranges=analytic_ranges,
                                   merge_tol=merge_tol)


# ---------------------------------------------------------------------------
# discrete-vs-essential classification
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class BulkComparison:
    """Classification of full-operator eigenvalues against the essential
    spectrum of the same symbol.

    Eigenvalues below the essential lower edge (minus ``edge_tol``) are
    flagged as discrete-spectrum candidates; the report records whether each
    candidate's eigenvector is interior-localized (interior mass at least
    ``localization_threshold``) and whether every delocalized eigenvalue
    falls inside the merged essential intervals.
    """

    full: SpectrumResult
    essential: EssentialSpectrumResult
    edge_tol: float
    candidates: np.ndarray = field(repr=False)
    candidate_localization: np.ndarray = field(repr=False)
    localization_threshold: float
    delocalized_outside: np.ndarray = field(repr=False)

    @property
    def candidates_localized(self) -> bool:
        if self.candidates.size == 0:
            return True
        return bool(np.all(
            self.candidate_localization >= self.localization_threshold))

    @property
    def delocalized_consistent(self) -> bool:
        return self.delocalized_outside.size == 0


def compare_bulk_vs_essential(f: Symbol, algebra: CoefficientAlgebra,
                              B: MagneticField, grid: PhaseSpaceGrid) -> BulkComparison:
    """Diagonalize the full operator and classify its eigenvalues against
    the quasi-orbit essential spectrum (with its default ``merge_tol``).

    The full operator is quantized in the transversal gauge of ``B``.
    ``edge_tol`` = dxi^2 pads the essential lower edge before flagging
    candidates: it is the momentum-lattice level spacing at a quadratic
    band bottom, i.e. the finite-box discretization error of the spectral
    edge itself.  An eigenvector counts as localized from an interior mass
    of 0.9 on.
    """
    ess = essential_spectrum(f, algebra, B, grid)
    edge_tol = grid.dxi**2
    localization_threshold = 0.9
    M = quantize(f, Gauge(transversal_gauge(B), grid))
    full = spectrum(M, localization=True)

    edge = ess.lower_edge
    below = full.eigenvalues < edge - edge_tol
    candidates = full.eigenvalues[below]
    cand_loc = full.localization[below]

    deloc = ~below & (full.localization < localization_threshold)
    misfits = np.array([v for v in full.eigenvalues[deloc]
                        if not ess.contains(v, tol=edge_tol)])
    return BulkComparison(full=full, essential=ess, edge_tol=edge_tol,
                          candidates=candidates,
                          candidate_localization=cand_loc,
                          localization_threshold=localization_threshold,
                          delocalized_outside=misfits)
