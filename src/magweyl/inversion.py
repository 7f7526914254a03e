"""Inversion of elliptic symbols in the twisted algebra, regularizers,
resolvent families, and the functional calculus for affiliated observables.

The paper's twisted inverse of f - z is the Neumann series

    (f - z)^(-1 twisted) = (f - z)^(-1) # sum_k R_z^(k#),
    R_z := 1 - (f - z) # (f - z)^(-1),

where # is the twisted product and (f - z)^(-1) the plain pointwise
reciprocal.  With M = quantize(f) - z and Q = quantize(1/(f - z)), the
quantized generator is R = I - M Q, and the series converges when the
operator norm of R is subunitary, which improves as |z| grows along the
negative real axis.  By spectral invariance the inverse lies in the algebra,
so only its matrix is needed, and at matrix level the series telescopes:
Q sum_k R^k = M^(-1).  The inverse is therefore computed by one solve of
M against the identity, while ||R|| < 1 is kept as the admissibility
certificate of a real z and reported with the series length it certifies.
Nonreal z, reached in the paper from a real seed through the resolvent
identity, are solved directly in the same way, without a certificate.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from scipy import linalg as sp_linalg

from .grid import PhaseSpaceGrid
from .magnetics import DEFAULT_QUAD, FluxQuadrature, MagneticField, VectorPotential
from .quantize import MagneticOperator, SampledSymbol, dequantize, quantize
from .spectral import spectrum
from .symbols import Symbol, is_elliptic, japanese_bracket


# accuracy the certified series length is counted for
SERIES_TOL = 1e-8


class EllipticityError(ValueError):
    """Raised when a symbol fails the sampled ellipticity test."""


class DivergenceError(RuntimeError):
    """Raised when the inversion series cannot converge at the given z."""


def _require_elliptic(f: Symbol, grid: PhaseSpaceGrid):
    """Reject a symbol that is complex-valued or not elliptic on the window."""
    if not f.real:
        raise EllipticityError("base symbol must be real-valued")
    if not is_elliptic(f, R=0.3 * np.max(grid.xi_nodes), C=1e-3, region=grid):
        raise EllipticityError("symbol is not elliptic on the sampled window")


def _sampled_inf(f: Symbol, grid: PhaseSpaceGrid) -> float:
    x = grid.x_mesh().reshape((grid.N,) * grid.n + (1,) * grid.n + (grid.n,))
    xi = grid.xi_mesh()
    return float(np.min(np.real(f(x, xi))))


def _reciprocal_symbol(f: Symbol, z: complex) -> Symbol:
    base = f.fn

    def fn(x, xi, base=base, z=z):
        return 1.0 / (np.asarray(base(x, xi), dtype=complex) - z)

    return Symbol.from_callable(fn, n=f.n, m=-f.m, rho=f.rho, delta=f.delta,
                                real=False, x_independent=f.x_independent)


@dataclass(frozen=True)
class InversionResult:
    """Twisted inverse of f - z with its certificate."""

    symbol: SampledSymbol
    z: complex
    terms: int               # series length ||R|| certifies (0 without a series)
    residual: float          # sup of |(f - z) # result - 1| on the interior 80%
    norm_R: float | None     # operator norm of the series generator R_z, if computed
    matrix: np.ndarray = field(repr=False)  # quantized inverse (gauge of the build)


def _series_generator(f: Symbol, z: complex, A: VectorPotential, grid: PhaseSpaceGrid,
                      quad: FluxQuadrature, threads: int):
    """M_f - z and the operator norm of R_z = I - (M_f - z) Q with
    Q = quantize(1/(f - z))."""
    Mf = quantize(f, A, grid, quad, threads).matrix - z * np.eye(grid.npoints)
    Q = quantize(_reciprocal_symbol(f, z), A, grid, quad, threads).matrix
    return Mf, float(sp_linalg.svdvals(np.eye(grid.npoints) - Mf @ Q)[0])


def norm_Rz(f: Symbol, z: complex, B: MagneticField, A: VectorPotential,
            grid: PhaseSpaceGrid, quad: FluxQuadrature = DEFAULT_QUAD,
            threads: int = 1) -> float:
    """Operator norm of R_z = 1 - (f - z) # (f - z)^(-1) (quantized)."""
    return _series_generator(f, complex(z), A, grid, quad, threads)[1]


def certified_terms(norm_R: float, npoints: int) -> int:
    """Series length after which ||R||^k npoints < 0.1 SERIES_TOL, counting
    the identity term: an upper bound on the terms a partial-sum loop
    stopping at max|R^k| npoints < 0.1 SERIES_TOL would use, since
    max|R^k| <= ||R||^k.  0 when the series does not converge."""
    if norm_R >= 1.0:
        return 0
    if norm_R == 0.0:
        return 1
    return 1 + math.ceil(math.log(0.1 * SERIES_TOL / npoints) / math.log(norm_R))


def neumann_invert(f: Symbol, z: complex, B: MagneticField, A: VectorPotential,
                   grid: PhaseSpaceGrid, quad: FluxQuadrature = DEFAULT_QUAD,
                   threads: int = 1, validate: bool = True) -> InversionResult:
    """Invert f - z in the twisted algebra, certified by the Neumann series.

    With ``validate``, f must be real and elliptic and a real z admissible,
    z <= inf f - 1.  Raises :class:`DivergenceError` unless the series
    generator has operator norm below 1; the inverse is then the sum of the
    series, computed as one solve of M_f - z, exact to rounding.  ``terms``
    is the series length that norm certifies.
    """
    z = complex(z)
    if validate:
        _require_elliptic(f, grid)
        if abs(z.imag) < 1e-14 and not z.real <= (inf_f := _sampled_inf(f, grid)) - 1.0:
            raise DivergenceError(
                f"real z = {z} must satisfy z <= inf f - 1 = {inf_f - 1.0:.6g}; "
                "use a more negative z (or a nonreal one)")
    Mf, nR = _series_generator(f, z, A, grid, quad, threads)
    if nR >= 1.0:
        raise DivergenceError(
            f"series generator has operator norm {nR:.4g} >= 1 at z = {z}; "
            "seed at larger |z| and extend via the resolvent identity")
    return _solved(Mf, z, certified_terms(nR, grid.npoints), nR, A, grid, quad, threads)


def _solved(Mf_minus_z: np.ndarray, z: complex, terms: int, norm_R: float | None,
            A: VectorPotential, grid: PhaseSpaceGrid, quad: FluxQuadrature,
            threads: int) -> InversionResult:
    """The inverse of M_f - z by one LU solve, dequantized, with its residual."""
    X = sp_linalg.solve(Mf_minus_z, np.eye(grid.npoints))
    sym = dequantize(MagneticOperator(grid, X, gauge=A), A, quad, threads)
    residual = inversion_residual(Mf_minus_z, X, grid, A, quad, threads)
    return InversionResult(symbol=sym, z=z, terms=terms, residual=residual,
                           norm_R=norm_R, matrix=X)


def inversion_residual(Mf_minus_z: np.ndarray, inverse_mat: np.ndarray,
                       grid: PhaseSpaceGrid, A: VectorPotential,
                       quad: FluxQuadrature = DEFAULT_QUAD, threads: int = 1) -> float:
    """sup over the interior 80% of |dequantize(Mf - z) # inverse - 1|."""
    res = MagneticOperator(grid, Mf_minus_z @ inverse_mat - np.eye(grid.npoints), gauge=A)
    sym = dequantize(res, A, quad, threads)
    mask = np.broadcast_to(sym.interior_mask(), sym.values.shape)
    return float(np.abs(sym.values[mask]).max())


# ---------------------------------------------------------------------------
# regularizers
# ---------------------------------------------------------------------------


def _bracket_power_symbol(n: int, m: float, lam: float = 0.0) -> Symbol:
    def fn(x, xi, m=m, lam=lam):
        out = japanese_bracket(np.asarray(xi, dtype=float)) ** m + lam
        return out + np.zeros(np.broadcast_shapes(np.shape(x)[:-1], np.shape(xi)[:-1]))

    return Symbol.from_callable(fn, n=n, m=m, rho=1.0, delta=0.0, real=True,
                                x_independent=True)


@dataclass(frozen=True)
class Regularizer:
    """The order-reducing pair r_m, r_{-m} built from p_{|m|,lambda} = <xi>^|m| + lambda."""

    m: float
    lam: float
    r_plus: Symbol | SampledSymbol      # r_m, of order m
    r_minus: SampledSymbol | Symbol     # its twisted inverse r_{-m}
    inversion: InversionResult | None = None


def build_regularizer(m: float, B: MagneticField, A: VectorPotential,
                      grid: PhaseSpaceGrid, lam_start: float = 1.0,
                      max_doublings: int = 30, quad: FluxQuadrature = DEFAULT_QUAD,
                      threads: int = 1) -> Regularizer:
    """Choose lambda by doubling until the series generator norm of
    p_{m,lambda} at z = 0 drops below 1/2, then invert.

    For m = 0 the regularizer is the constant 1; for m < 0 it is the twisted
    inverse of p_{|m|, lambda}, and ``r_minus`` is p_{|m|, lambda}.
    """
    if m == 0:
        one = _bracket_power_symbol(grid.n, 0.0)
        return Regularizer(m=0.0, lam=0.0, r_plus=one, r_minus=one)
    mm = abs(m)
    lam = lam_start
    for _ in range(max_doublings):
        p = _bracket_power_symbol(grid.n, mm, lam)
        if norm_Rz(p, 0.0, B, A, grid, quad, threads) < 0.5:
            break
        lam *= 2.0
    else:
        raise DivergenceError(
            f"no lambda <= {lam} brought the series generator norm below 1/2")
    inv = neumann_invert(p, 0.0, B, A, grid, quad=quad, threads=threads, validate=False)
    r_plus, r_minus = (inv.symbol, p) if m < 0 else (p, inv.symbol)
    return Regularizer(m=m, lam=lam, r_plus=r_plus, r_minus=r_minus, inversion=inv)


# ---------------------------------------------------------------------------
# decay-order fit of the inverse
# ---------------------------------------------------------------------------


def order_check_inverse(result: SampledSymbol, grid: PhaseSpaceGrid,
                        xi_window=(0.35, 0.85)) -> float:
    """Fit log|result(0, xi)| against log<xi> along the positive xi_1 ray;
    the slope estimates the symbol order of the inverse (about -m).

    The window is given as fractions of the largest momentum node; it starts
    well away from zero because the |z|-shift flattens the decay at small xi.
    """
    N, n = grid.N, grid.n
    mid = N // 2
    if n == 1:
        ray = result.values[mid, :]
    else:
        ray = result.values[mid, mid, :, mid]
    xi = grid.xi_nodes
    keep = (xi >= xi_window[0] * np.max(xi)) & (xi <= xi_window[1] * np.max(xi))
    vals = np.maximum(np.abs(ray[keep]), 1e-300)
    logs = np.log(np.sqrt(1.0 + xi[keep] ** 2))
    slope, _ = np.polyfit(logs, np.log(vals), 1)
    return float(slope)


# ---------------------------------------------------------------------------
# resolvent families
# ---------------------------------------------------------------------------


@dataclass
class ResolventFamily:
    """Map z -> twisted inverse of f - z.

    An admissible real z (z <= inf f - 1) goes through
    :func:`neumann_invert`, which enforces the series certificate
    ||R_z|| < 1.  Every other z, which the paper reaches by marching the
    resolvent identity X' = X + (z' - z) X X' from such a seed, is solved
    directly once f passes the same real-valued and ellipticity checks; it
    carries no series certificate (``terms`` 0, ``norm_R`` None).  The
    family invariants below check the resolvent identity and the adjoint
    symmetry of the results."""

    f: Symbol
    B: MagneticField
    A: VectorPotential
    grid: PhaseSpaceGrid
    quad: FluxQuadrature = DEFAULT_QUAD
    threads: int = 1
    entries: dict = field(default_factory=dict)

    def add(self, z: complex) -> InversionResult:
        z = complex(z)
        key = (z.real, z.imag)
        if key in self.entries:
            return self.entries[key]
        if abs(z.imag) < 1e-14 and z.real <= _sampled_inf(self.f, self.grid) - 1.0:
            res = neumann_invert(self.f, z, self.B, self.A, self.grid,
                                 quad=self.quad, threads=self.threads)
        else:
            _require_elliptic(self.f, self.grid)
            Mf = quantize(self.f, self.A, self.grid, self.quad, self.threads).matrix
            res = _solved(Mf - z * np.eye(self.grid.npoints), z, 0, None, self.A,
                          self.grid, self.quad, self.threads)
        self.entries[key] = res
        return res

    # -- family invariants --------------------------------------------------

    def resolvent_equation_residual(self, z1: complex, z2: complex) -> float:
        """sup_interior |Phi(r_z1) - Phi(r_z2) - (z1 - z2) Phi(r_z1) # Phi(r_z2)|."""
        r1 = self.add(z1)
        r2 = self.add(z2)
        combo = r1.matrix - r2.matrix - (z1 - z2) * (r1.matrix @ r2.matrix)
        sym = dequantize(MagneticOperator(self.grid, combo, gauge=self.A),
                         self.A, self.quad, self.threads)
        mask = np.broadcast_to(sym.interior_mask(), sym.values.shape)
        return float(np.abs(sym.values[mask]).max())

    def adjoint_symmetry_residual(self, z: complex) -> float:
        """sup_interior |Phi(r_z)^# - Phi(r_zbar)| (involution = conjugate
        transpose of the phase-stripped table)."""
        rz = self.add(z)
        rzb = self.add(np.conj(z))
        adj = SampledSymbol(self.grid, rz.symbol.table.conj().T)
        diff = adj - rzb.symbol
        mask = np.broadcast_to(diff.interior_mask(), diff.values.shape)
        return float(np.abs(diff.values[mask]).max())


# ---------------------------------------------------------------------------
# affiliated functional calculus
# ---------------------------------------------------------------------------


def affiliated_calculus(f: Symbol, A: VectorPotential, grid: PhaseSpaceGrid,
                        eta, quad: FluxQuadrature = DEFAULT_QUAD,
                        hermiticity_tol: float = 1e-8, threads: int = 1) -> MagneticOperator:
    """eta(quantize(f)) by dense Hermitian spectral calculus.

    ``eta`` is a callable applied to the eigenvalues (a continuous function
    vanishing at infinity in the intended use)."""
    res = spectrum(quantize(f, A, grid, quad, threads), hermiticity_tol, keep_vectors=True)
    V = res.eigenvectors
    vals = np.asarray(eta(res.eigenvalues), dtype=complex)
    out = (V * vals) @ V.conj().T
    return MagneticOperator(grid, out, gauge=A, symbol=None)
