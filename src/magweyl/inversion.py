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
Q sum_k R^k = M^(-1).  The inverse is therefore computed directly: for a
real symbol and a real z, M is Hermitian, and when it is positive definite
(as at an admissible z) it is inverted from its Cholesky factor (potrf,
then potri); any other M is inverted by LU (getrf, then getri).
||R|| < 1 is kept as the admissibility certificate of a real z and
reported with the series length it certifies.
The reported ||R|| (the invert command's series_norm_bound) is
:func:`magweyl.quantize._norm_bound` of R, the one operator norm of the
program (:meth:`magweyl.quantize.MagneticOperator.operator_norm`): a
certified upper bound on the largest singular value, at most about 5e-10
relative above it.  Nonreal z, reached in the paper from a real seed
through the resolvent identity, are inverted directly in the same way,
without a certificate.

In the zero gauge :func:`magweyl.quantize.quantize` returns the float64
table of a real f even in xi, and of 1/(f - z) at a real z.  When both are
real, R, its certificate, the Cholesky inverse and the residual run in
real symmetric arithmetic, at about a quarter of the complex flops.  A
magnetic field, a term odd in xi or a nonreal z keeps the complex path.

One OpenBLAS pool: numpy and scipy each load their own OpenBLAS, with a
thread pool each, and the idle workers of one pool spin on the cores that
the other pool's next call needs (at P = 1024 on 2 cores, a numpy product
right after a potrf took 0.04 s, against 0.02 s alone).  LAPACK runs on
scipy's pool, so every dense product of the program does too, through
:func:`magweyl.quantize._matmul`, and none through numpy's ``@``,
``np.dot`` or their kin; a test parses the sources for them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np
from scipy import linalg as sp_linalg

from .grid import PhaseSpaceGrid
from .quantize import (_PHASE_ROWS, Gauge, MagneticOperator, SampledSymbol, _matmul, _norm_bound,
                       _xi1_ray, dequantize, quantize)
from .spectral import spectrum
from .symbols import Symbol, is_elliptic, japanese_bracket, _position_blocks


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
    """min Re f over the position x momentum lattice, taken over
    :func:`_position_blocks`; min is exact, so this is the whole-table
    minimum to the bit."""
    return float(np.min([np.min(np.real(vals)) for vals in _position_blocks(f, grid)]))


def _reciprocal_symbol(f: Symbol, z: complex) -> Symbol:
    """1/(f - z) pointwise; float64 (the complex one's real part) where z and f are real."""
    base = f.fn

    def fn(x, xi, base=base, z=z):
        v = np.asarray(base(x, xi))
        if z.imag == 0 and not v.imag.any():
            return 1.0 / (v.real - z.real)
        return 1.0 / (np.asarray(v, dtype=complex) - z)

    return Symbol.from_callable(fn, n=f.n, m=-f.m, rho=f.rho, delta=f.delta,
                                real=False, x_independent=f.x_independent)


@dataclass(frozen=True)
class InversionResult:
    """Twisted inverse of f - z with its certificate."""

    z: complex
    terms: int               # series length ||R|| certifies (0 without a series)
    residual: float          # sup of |(f - z) # result - 1| on the interior 80%
    norm_R: float | None     # operator norm of the series generator R_z, if computed
    matrix: np.ndarray = field(repr=False)  # quantized inverse (gauge of the build)
    gauge: Gauge = field(repr=False)

    @cached_property
    def symbol(self) -> SampledSymbol:
        """The dequantized inverse, built on first read (it copies ``matrix``)."""
        return dequantize(MagneticOperator(self.gauge.grid, self.matrix), self.gauge)


def _shift_diagonal(M: np.ndarray, c: complex) -> np.ndarray:
    """M + c I, in place; a real M takes a real c as a real number, and is
    copied to complex for a nonreal one."""
    c = complex(c)
    if c.imag and not np.iscomplexobj(M):
        M = M.astype(complex)
    M.reshape(-1)[::len(M) + 1] += c if np.iscomplexobj(M) else c.real
    return M


def _series_generator(f: Symbol, z: complex, gauge: Gauge):
    """M_f - z and a certified upper bound on the operator norm of
    R_z = I - (M_f - z) Q with Q = quantize(1/(f - z)); Q is released as
    soon as R exists.

    When :func:`magweyl.quantize.quantize` returns both as float64 (zero
    gauge, a real f even in xi, a real z), the product, the norm
    certificate (dsyrk, dsymv, dpotrf), the inverse and the residual of
    :func:`_solved` run in real arithmetic; a complex one stays complex,
    and so does everything it enters."""
    Mf = _shift_diagonal(quantize(f, gauge).matrix, -z)
    R = _matmul(Mf, quantize(_reciprocal_symbol(f, z), gauge).matrix)
    _shift_diagonal(np.negative(R, out=R), 1.0)
    return Mf, _norm_bound(R)


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
    series, computed as the inverse of M_f - z (see :func:`_solved`),
    exact to rounding.
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
    return _solved(Mf, z, certified_terms(nR, grid.npoints), nR, gauge, f.real)


def _solved(Mf_minus_z: np.ndarray, z: complex, terms: int, norm_R: float | None,
            gauge: Gauge, real: bool) -> InversionResult:
    """The inverse of M_f - z and its residual.  For a real symbol and a real
    z, M_f - z is Hermitian, and a positive definite one is inverted from its
    Cholesky factor (:func:`_cholesky_inverse`); otherwise, or when the
    factorization fails, by LU (getrf, then getri)."""
    X = _cholesky_inverse(Mf_minus_z) if real and z.imag == 0 else None
    if X is None:
        X = sp_linalg.inv(Mf_minus_z)
    residual = inversion_residual(Mf_minus_z, X, gauge)
    return InversionResult(z=z, terms=terms, residual=residual, norm_R=norm_R, matrix=X,
                           gauge=gauge)


def _cholesky_inverse(M: np.ndarray) -> np.ndarray | None:
    """The inverse of the Hermitian matrix with the upper triangle of M, or
    None when that matrix is not positive definite.

    The Fortran-ordered copy of M^T holds that triangle as its lower one:
    potrf factors it in place and potri overwrites the factor with the
    inverse's triangle, which the transpose returns as the upper triangle
    of a C-ordered X (zpotrf and zpotri for a complex M, dpotrf and dpotri
    for a real one).  The lower triangle of X is then filled from it by
    blocks of ``_PHASE_ROWS`` columns."""
    potrf, potri = sp_linalg.get_lapack_funcs(("potrf", "potri"), (M,))
    c, info = potrf(M.T.copy(order="A"), lower=1, clean=0, overwrite_a=1)
    if info == 0:
        c, info = potri(c, lower=1, overwrite_c=1)
    if info != 0:
        return None
    X = c.T
    for a in range(0, len(X), _PHASE_ROWS):
        b = a + _PHASE_ROWS
        D = X[a:b, a:b]
        D[...] = np.triu(D) + np.conjugate(np.triu(D, 1)).T
        X[b:, a:b] = np.conjugate(X[a:b, b:]).T
    return X


def inversion_residual(Mf_minus_z: np.ndarray, inverse_mat: np.ndarray, gauge: Gauge) -> float:
    """sup over the interior 80% of |dequantize(Mf - z) # inverse - 1|; the
    product is stripped of its phase in place."""
    res = _shift_diagonal(_matmul(Mf_minus_z, inverse_mat), -1.0)
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


def build_regularizer(m: float, gauge: Gauge) -> Regularizer:
    """Choose lambda by doubling from 1, at most 30 times, until the series
    generator norm of p_{m,lambda} at z = 0 drops below 1/2, then invert
    the M_f - z of that last series generator.

    For m = 0 the regularizer is the constant 1; for m < 0 it is the twisted
    inverse of p_{|m|, lambda}, and ``r_minus`` is p_{|m|, lambda}.
    """
    if m == 0:
        one = _bracket_power_symbol(gauge.grid.n, 0.0)
        return Regularizer(m=0.0, lam=0.0, r_plus=one, r_minus=one)
    mm = abs(m)
    lam = 1.0
    for _ in range(30):
        p = _bracket_power_symbol(gauge.grid.n, mm, lam)
        Mf, nR = _series_generator(p, 0j, gauge)
        if nR < 0.5:
            break
        del Mf  # so that the next build does not hold it
        lam *= 2.0
    else:
        raise DivergenceError(
            f"no lambda <= {lam} brought the series generator norm below 1/2")
    inv = _solved(Mf, 0j, certified_terms(nR, gauge.grid.npoints), nR, gauge, p.real)
    r_plus, r_minus = (inv.symbol, p) if m < 0 else (p, inv.symbol)
    return Regularizer(m=m, lam=lam, r_plus=r_plus, r_minus=r_minus, inversion=inv)


# ---------------------------------------------------------------------------
# decay-order fit of the inverse
# ---------------------------------------------------------------------------


def order_check_inverse(result: SampledSymbol, grid: PhaseSpaceGrid) -> float:
    """Fit log|result(0, xi)| against log<xi> along the positive xi_1 ray;
    the slope estimates the symbol order of the inverse (about -m).

    The window is 0.35 to 0.85 times the largest momentum node; it starts
    well away from zero because the |z|-shift flattens the decay at small xi.
    """
    top = np.max(grid.xi_nodes)
    xi, ray = _xi1_ray(result, 0.35 * top, 0.85 * top,
                       f"order fit window xi in [0.35, 0.85] * {top:.4g}", "raise N")
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
    directly; it carries no series certificate (``terms`` 0, ``norm_R``
    None).  Either way f must pass the real-valued and ellipticity checks,
    which run once, when the family is made.  The
    family invariants below check the resolvent identity and the adjoint
    symmetry of the results."""

    f: Symbol
    gauge: Gauge
    entries: dict = field(default_factory=dict)
    _inf_f: float = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        _require_elliptic(self.f, self.gauge.grid)
        self._inf_f = _sampled_inf(self.f, self.gauge.grid)

    def add(self, z: complex) -> InversionResult:
        z = complex(z)
        key = (z.real, z.imag)
        if key in self.entries:
            return self.entries[key]
        if abs(z.imag) < 1e-14 and z.real <= self._inf_f - 1.0:
            res = neumann_invert(self.f, z, self.gauge, validate=False)
        else:
            Mf = _shift_diagonal(quantize(self.f, self.gauge).matrix, -z)
            res = _solved(Mf, z, 0, None, self.gauge, self.f.real)
        self.entries[key] = res
        return res

    # -- family invariants --------------------------------------------------

    def resolvent_equation_residual(self, z1: complex, z2: complex) -> float:
        """sup_interior |Phi(r_z1) - Phi(r_z2) - (z1 - z2) Phi(r_z1) # Phi(r_z2)|."""
        r1 = self.add(z1)
        r2 = self.add(z2)
        combo = r1.matrix - r2.matrix - (z1 - z2) * _matmul(r1.matrix, r2.matrix)
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


def affiliated_calculus(f: Symbol, gauge: Gauge, eta) -> MagneticOperator:
    """eta(quantize(f)) by dense Hermitian spectral calculus.

    ``eta`` is a callable applied to the eigenvalues (a continuous function
    vanishing at infinity in the intended use); quantize(f) must be
    Hermitian within :data:`magweyl.spectral.HERMITICITY_TOL`."""
    res = spectrum(quantize(f, gauge), keep_vectors=True)
    V = res.eigenvectors
    vals = np.asarray(eta(res.eigenvalues), dtype=complex)
    out = _matmul(V * vals, V.conj().T)
    return MagneticOperator(gauge.grid, out)
