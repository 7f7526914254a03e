"""Spectra and essential spectra of magnetic pseudodifferential operators.

``spectrum`` solves the dense Hermitian eigenproblem for a quantized
operator.  ``essential_spectrum`` realizes the quasi-orbit covering: for
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
    """

    grid: PhaseSpaceGrid
    eigenvalues: np.ndarray = field(repr=False)
    hermiticity_defect: float = 0.0
    localization: np.ndarray | None = field(default=None, repr=False)
    eigenvectors: np.ndarray | None = field(default=None, repr=False)

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
    # 0.5 (M + M^H), formed in one Fortran-ordered array that eigh then
    # overwrites instead of copying
    m = M.matrix
    herm = np.conjugate(m.T, out=np.empty(m.shape, dtype=complex, order="F"))
    np.add(m, herm, out=herm)
    np.multiply(0.5, herm, out=herm)
    need_vectors = localization or keep_vectors
    if need_vectors:
        vals, vecs = sp_linalg.eigh(herm, overwrite_a=True)
    else:
        vals = sp_linalg.eigh(herm, eigvals_only=True, overwrite_a=True)
        vecs = None
    scores = None
    if localization:
        mask = M.grid.interior_mask().ravel()
        mass = np.abs(vecs) ** 2
        scores = mass[mask].sum(axis=0) / mass.sum(axis=0)
    return SpectrumResult(grid=M.grid, eigenvalues=vals,
                          hermiticity_defect=defect,
                          localization=scores,
                          eigenvectors=vecs if keep_vectors else None)


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
