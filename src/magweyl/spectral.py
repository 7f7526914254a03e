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
:func:`quantize` recorded from the gauge's C (``rotation_phase``) and takes
this path only when the relative Frobenius defect
||Pi_T M Pi_T^T - D M D^*||_F / ||M||_F (D = diag(e^{ig})) and the spread
of the orbit phase products are at rounding level; every other operator,
including any 1D one and any not from quantize, gets one dense eigh.  The
two paths agree to |d lambda| <= defect * ||M||_F plus the rounding of
eigh, not bit for bit.

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
from .quantize import Gauge, MagneticOperator, quantize
from .symbols import (
    CoefficientAlgebra,
    Symbol,
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

@dataclass(frozen=True)
class SpectrumResult:
    """Dense Hermitian eigendecomposition of a grid operator.

    ``eigenvalues`` are ascending reals of length N^n.  ``localization``
    (optional) holds, per eigenvector, the fraction of its mass inside the
    interior 80% position box; values near 1 witness bound states, values
    near the interior volume fraction witness delocalized states.
    ``symmetry_order`` is the number of blocks the eigenproblem was split
    into (1 or 4) and ``symmetry_defect`` the relative commutation defect
    of the magnetic rotation that split it (NaN for order 1).
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


def spectrum(M: MagneticOperator, hermiticity_tol: float = 1e-8,
             localization: bool = False,
             keep_vectors: bool = False) -> SpectrumResult:
    """Full spectrum of a Hermitian grid operator, eigenvalues ascending.

    A 2D operator that carries its ``rotation_phase`` (as :func:`quantize`
    returns it) is first checked for the 90-degree magnetic rotation
    symmetry (see the module docstring).  When it holds, the Hermitian part
    is solved as 4 blocks of size P/4, whose eigenvalues are merged by a
    stable sort; otherwise it is solved whole.

    Parameters
    ----------
    M : MagneticOperator
        Must be Hermitian within ``hermiticity_tol`` (relative Frobenius
        defect); the measured asymmetry is reported otherwise.
    localization : bool
        Also compute per-eigenvector interior-mass scores.
    keep_vectors : bool
        Retain the eigenvector matrix (columns, same order as eigenvalues).
    """
    defect = M.hermiticity_defect()
    if defect > hermiticity_tol:
        raise ValueError(
            f"operator is not Hermitian: relative asymmetry {defect:.3e} "
            f"exceeds tolerance {hermiticity_tol:.1e}")
    need_vectors = localization or keep_vectors
    symmetry = None if M.rotation_phase is None else _magnetic_rotation(M)
    if symmetry is not None:
        return _block_spectrum(M, *symmetry, defect, localization, keep_vectors)
    vals, vecs = _hermitian_eigh(M.matrix, need_vectors)
    scores = None
    if localization:
        mask = M.grid.interior_mask().ravel()
        mass = np.abs(vecs) ** 2
        scores = mass[mask].sum(axis=0) / mass.sum(axis=0)
    return SpectrumResult(grid=M.grid, eigenvalues=vals,
                          hermiticity_defect=defect,
                          localization=scores,
                          eigenvectors=vecs if keep_vectors else None)


def _hermitian_eigh(a: np.ndarray, vectors: bool):
    """(eigenvalues, eigenvectors or None) of 0.5 (a + a^H), which is formed
    in one Fortran-ordered array that eigh then overwrites instead of
    copying."""
    herm = np.conjugate(a.T, out=np.empty(a.shape, dtype=complex, order="F"))
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


def _rotate(a: np.ndarray, d: int, axes=(0, 1)) -> np.ndarray:
    """The view a[T^d x] over the two position ``axes`` of ``a``, where T
    rotates the grid by 90 degrees about (-dx/2, -dx/2): (i, j) -> (N-1-j, i),
    the node map of :meth:`Gauge.rotation_phase`."""
    return np.rot90(a, -d, axes=axes)


def _quadrant(N: int) -> tuple:
    """Slices of the node axes (i, j) that hold one node of every orbit of
    T.  No node is fixed by T^2, since the centre is not a node, so every
    orbit has 4 nodes."""
    return (slice(N // 2), slice(N // 2))


def _magnetic_rotation(M: MagneticOperator):
    """The products acc[d](o) = u(o) u(T o) ... u(T^{d-1} o), d = 0..3,
    over the orbit representatives o, with u = e^{ig} for the gauge term g
    of the rotation T; and the relative defect
    ||Pi_T M Pi_T^T - D M D^*||_F / ||M||_F with D = diag(u).  None unless
    both the defect and the spread of the orbit products acc[4] are within
    ``_SYMMETRY_TOL``.

    Then S = D^* Pi_T commutes with M.  The common orbit product is
    normalised to 1 (g shifted by a constant, which leaves D M D^*
    unchanged), so S^4 = I.  The defect is summed over slabs of rows of a
    reversed-stride view of M and stops at the first slab past the
    tolerance.
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
    norm = np.linalg.norm(M.matrix)
    M4 = M.matrix.reshape((N,) * 4)
    X4 = _rotate(_rotate(M4, 1), 1, axes=(2, 3))  # M[T a, T b]
    total = 0.0
    for i in range(N):
        diff = X4[i] - u[i, :, None, None] * M4[i] * np.conj(u)
        total += np.vdot(diff, diff).real
        if total > (_SYMMETRY_TOL * norm) ** 2:
            return None
    return [a * z**d for d, a in enumerate(acc[:4])], float(np.sqrt(total) / max(norm, 1e-300))


def _block_spectrum(M: MagneticOperator, acc, symmetry_defect: float,
                    hermiticity_defect: float, localization: bool,
                    keep_vectors: bool) -> SpectrumResult:
    """The spectrum of M from the 4 blocks of its Hermitian part in the
    eigenbasis of S = D^* Pi_T (see :func:`_magnetic_rotation`).

    On the orbit of representative o the eigenvector of S for i^r is
    e_{o,r}(T^d o) = i^{rd} acc[d](o) / 2, so block r is
    B_r[o, o'] = sum_d i^{rd} acc[d](o') M[o, T^d o'], gathered from the
    rows of M at the representatives and then made Hermitian; an
    eigenvector y of B_r is the vector v(T^d o) = i^{rd} acc[d](o) y(o) / 2.
    """
    grid = M.grid
    N, P = grid.N, grid.npoints
    F = _quadrant(N)
    Q = P // 4
    rows = M.matrix.reshape((N,) * 4)[F]
    G = [(_rotate(rows, d, axes=(2, 3))[(slice(None),) * 2 + F] * acc[d]).reshape(Q, Q)
         for d in range(4)]
    solved = [_hermitian_eigh(sum(_ROOTS[r * d % 4] * G[d] for d in range(4)),
                              localization or keep_vectors)
              for r in range(4)]
    del G
    vals = np.concatenate([w for w, _ in solved])
    vecs = [y for _, y in solved]
    order = np.argsort(vals, kind="stable")

    scores = None
    if localization:
        # |v|^2 is |y(o)|^2 / 4 at each node of the orbit of o
        share = sum(_rotate(grid.interior_mask(), d)[F] for d in range(4)).ravel() / 4
        mass = [np.abs(y) ** 2 for y in vecs]
        scores = np.concatenate([share @ m / m.sum(axis=0) for m in mass])[order]
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
    """2 * dxi * max |grad_xi f_Q|, the local momentum-lattice resolution."""
    xi = grid.xi_mesh()
    x = grid.x_mesh()
    top = 0.0
    for f in symbols:
        vals = np.real(np.asarray(f.fn(x, xi), dtype=complex))
        grads = np.gradient(vals, grid.dxi, axis=tuple(range(grid.n)))
        if grid.n == 1:
            grads = [grads]
        mag = np.sqrt(sum(np.abs(g) ** 2 for g in grads))
        top = max(top, float(mag.max()))
    return 2.0 * grid.dxi * top


def essential_spectrum(f: Symbol, algebra: CoefficientAlgebra,
                       B: MagneticField, grid: PhaseSpaceGrid,
                       merge_tol: float | None = None,
                       hermiticity_tol: float = 1e-8) -> EssentialSpectrumResult:
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
        res = spectrum(M, hermiticity_tol=hermiticity_tol)
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
    candidate's eigenvector is interior-localized and whether every
    delocalized eigenvalue falls inside the merged essential intervals.
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
                              B: MagneticField, grid: PhaseSpaceGrid,
                              merge_tol: float | None = None,
                              edge_tol: float | None = None,
                              localization_threshold: float = 0.9) -> BulkComparison:
    """Diagonalize the full operator and classify its eigenvalues against
    the quasi-orbit essential spectrum.

    The full operator is quantized in the transversal gauge of ``B``.
    ``edge_tol`` pads the essential lower edge before flagging candidates;
    the default dxi^2 is the momentum-lattice level spacing at a quadratic
    band bottom, i.e. the finite-box discretization error of the spectral
    edge itself.
    """
    ess = essential_spectrum(f, algebra, B, grid, merge_tol=merge_tol)
    if edge_tol is None:
        edge_tol = grid.dxi**2
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
