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
Q sum_k R^k = M^(-1).  The inverse is therefore computed as one LU inverse
of M (getrf, then getri), while ||R|| < 1 is kept as the admissibility
certificate of a real z and reported with the series length it certifies.
||R|| is the square root of the top eigenvalue of the Hermitian Gram
matrix of R, formed by one rank-P update (zherk): the largest singular
value to rounding, at about half the cost of an SVD.  Nonreal z, reached
in the paper from a real seed through the resolvent identity, are inverted
directly in the same way, without a certificate.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from scipy import linalg as sp_linalg

from .grid import PhaseSpaceGrid
from .quantize import Gauge, MagneticOperator, SampledSymbol, _xi1_ray, dequantize, quantize
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


def _shift_diagonal(M: np.ndarray, c: complex) -> np.ndarray:
    """M + c I, in place."""
    M.reshape(-1)[::len(M) + 1] += c
    return M


def _series_generator(f: Symbol, z: complex, gauge: Gauge):
    """M_f - z and the operator norm of R_z = I - (M_f - z) Q with
    Q = quantize(1/(f - z)).

    The norm is sqrt(lambda_max(G)) for the Gram matrix G of R_z: zherk on
    the Fortran-ordered view R^T forms R^T conj(R) = conj(R^H R), which has
    the eigenvalues of R^H R, without copying R.  Q and R are released as
    soon as their product and G exist."""
    P = gauge.grid.npoints
    Mf = _shift_diagonal(quantize(f, gauge).matrix, -z)
    R = Mf @ quantize(_reciprocal_symbol(f, z), gauge).matrix
    _shift_diagonal(np.negative(R, out=R), 1.0)
    G = sp_linalg.blas.zherk(1.0, R.T, lower=1)
    del R
    top = sp_linalg.eigh(G, eigvals_only=True, subset_by_index=[P - 1, P - 1],
                         overwrite_a=True)[0]
    return Mf, math.sqrt(max(top, 0.0))


def norm_Rz(f: Symbol, z: complex, gauge: Gauge) -> float:
    """Operator norm of R_z = 1 - (f - z) # (f - z)^(-1) (quantized)."""
    return _series_generator(f, complex(z), gauge)[1]


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


def neumann_invert(f: Symbol, z: complex, gauge: Gauge, validate: bool = True) -> InversionResult:
    """Invert f - z in the twisted algebra, certified by the Neumann series.

    With ``validate``, f must be real and elliptic and a real z admissible,
    z <= inf f - 1.  Raises :class:`DivergenceError` unless the series
    generator has operator norm below 1; the inverse is then the sum of the
    series, computed as the LU inverse of M_f - z, exact to rounding.
    ``terms`` is the series length that norm certifies.
    """
    z = complex(z)
    grid = gauge.grid
    if validate:
        _require_elliptic(f, grid)
        if abs(z.imag) < 1e-14 and not z.real <= (inf_f := _sampled_inf(f, grid)) - 1.0:
            raise DivergenceError(
                f"real z = {z} must satisfy z <= inf f - 1 = {inf_f - 1.0:.6g}; "
                "use a more negative z (or a nonreal one)")
    Mf, nR = _series_generator(f, z, gauge)
    if nR >= 1.0:
        raise DivergenceError(
            f"series generator has operator norm {nR:.4g} >= 1 at z = {z}; "
            "seed at larger |z| and extend via the resolvent identity")
    return _solved(Mf, z, certified_terms(nR, grid.npoints), nR, gauge)


def _solved(Mf_minus_z: np.ndarray, z: complex, terms: int, norm_R: float | None,
            gauge: Gauge) -> InversionResult:
    """The inverse of M_f - z (getrf, then getri), its residual, then its
    dequantization."""
    X = sp_linalg.inv(Mf_minus_z)
    residual = inversion_residual(Mf_minus_z, X, gauge)
    sym = dequantize(MagneticOperator(gauge.grid, X), gauge)
    return InversionResult(symbol=sym, z=z, terms=terms, residual=residual,
                           norm_R=norm_R, matrix=X)


def inversion_residual(Mf_minus_z: np.ndarray, inverse_mat: np.ndarray, gauge: Gauge) -> float:
    """sup over the interior 80% of |dequantize(Mf - z) # inverse - 1|; the
    product is stripped of its phase in place."""
    res = _shift_diagonal(Mf_minus_z @ inverse_mat, -1.0)
    return SampledSymbol(gauge.grid, gauge.strip(res)).interior_sup()


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


def build_regularizer(m: float, gauge: Gauge, lam_start: float = 1.0,
                      max_doublings: int = 30) -> Regularizer:
    """Choose lambda by doubling until the series generator norm of
    p_{m,lambda} at z = 0 drops below 1/2, then invert.

    For m = 0 the regularizer is the constant 1; for m < 0 it is the twisted
    inverse of p_{|m|, lambda}, and ``r_minus`` is p_{|m|, lambda}.
    """
    if m == 0:
        one = _bracket_power_symbol(gauge.grid.n, 0.0)
        return Regularizer(m=0.0, lam=0.0, r_plus=one, r_minus=one)
    mm = abs(m)
    lam = lam_start
    for _ in range(max_doublings):
        p = _bracket_power_symbol(gauge.grid.n, mm, lam)
        if norm_Rz(p, 0.0, gauge) < 0.5:
            break
        lam *= 2.0
    else:
        raise DivergenceError(
            f"no lambda <= {lam} brought the series generator norm below 1/2")
    inv = neumann_invert(p, 0.0, gauge, validate=False)
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
    top = np.max(grid.xi_nodes)
    xi, ray = _xi1_ray(result, xi_window[0] * top, xi_window[1] * top,
                       f"order fit window xi in [{xi_window[0]}, {xi_window[1]}] * {top:.4g}",
                       "raise N")
    vals = np.maximum(np.abs(ray), 1e-300)
    logs = np.log(np.sqrt(1.0 + xi ** 2))
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
    gauge: Gauge
    entries: dict = field(default_factory=dict)

    def add(self, z: complex) -> InversionResult:
        z = complex(z)
        key = (z.real, z.imag)
        if key in self.entries:
            return self.entries[key]
        grid = self.gauge.grid
        if abs(z.imag) < 1e-14 and z.real <= _sampled_inf(self.f, grid) - 1.0:
            res = neumann_invert(self.f, z, self.gauge)
        else:
            _require_elliptic(self.f, grid)
            Mf = _shift_diagonal(quantize(self.f, self.gauge).matrix, -z)
            res = _solved(Mf, z, 0, None, self.gauge)
        self.entries[key] = res
        return res

    # -- family invariants --------------------------------------------------

    def resolvent_equation_residual(self, z1: complex, z2: complex) -> float:
        """sup_interior |Phi(r_z1) - Phi(r_z2) - (z1 - z2) Phi(r_z1) # Phi(r_z2)|."""
        r1 = self.add(z1)
        r2 = self.add(z2)
        combo = r1.matrix - r2.matrix - (z1 - z2) * (r1.matrix @ r2.matrix)
        return SampledSymbol(self.gauge.grid, self.gauge.strip(combo)).interior_sup()

    def adjoint_symmetry_residual(self, z: complex) -> float:
        """sup_interior |Phi(r_z)^# - Phi(r_zbar)| (involution = conjugate
        transpose of the phase-stripped table)."""
        rz = self.add(z)
        rzb = self.add(np.conj(z))
        adj = SampledSymbol(self.gauge.grid, rz.symbol.table.conj().T)
        return (adj - rzb.symbol).interior_sup()


# ---------------------------------------------------------------------------
# affiliated functional calculus
# ---------------------------------------------------------------------------


def affiliated_calculus(f: Symbol, gauge: Gauge, eta,
                        hermiticity_tol: float = 1e-8) -> MagneticOperator:
    """eta(quantize(f)) by dense Hermitian spectral calculus.

    ``eta`` is a callable applied to the eigenvalues (a continuous function
    vanishing at infinity in the intended use)."""
    res = spectrum(quantize(f, gauge), hermiticity_tol, keep_vectors=True)
    V = res.eigenvectors
    vals = np.asarray(eta(res.eigenvalues), dtype=complex)
    out = (V * vals) @ V.conj().T
    return MagneticOperator(gauge.grid, out)
