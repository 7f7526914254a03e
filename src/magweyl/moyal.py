"""The twisted product of symbols, evaluated three ways.

* :func:`moyal_pullback` — the reference implementation: quantize both
  factors, multiply the matrices, invert the quantization.  Exact as a
  homomorphism by construction (the result keeps its phase-stripped kernel
  table), and gauge-independent.
* :func:`moyal_direct` — direct lattice quadrature of the oscillatory
  phase-space integral; a validation oracle for Schwartz-class factors on
  tiny quadrature lattices only.
* :func:`expansion_term` — the terms h_l of the asymptotic expansion of the
  product, with exact rational-times-power-of-(i/2) constants and
  closed-form flux-phase derivatives.

The expansion terms at a glance:  h_0 = f g,  h_1 = (i/2){f, g} (the plain
Poisson bracket; the field does not enter at first order because the flux
phase is quadratic near zero displacement), and the field enters at l = 2
through the mixed second derivative of the flux phase, which equals
-2i B_jk(x) exactly.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .magnetics import DEFAULT_QUAD, FluxQuadrature, MagneticField, flux_triangle, gamma_B
from .quantize import Gauge, SampledSymbol, _xi1_ray, quantize
from .symbols import Symbol, japanese_bracket


# ---------------------------------------------------------------------------
# pullback product
# ---------------------------------------------------------------------------


def moyal_pullback(f, g, gauge: Gauge) -> SampledSymbol:
    """The twisted product f #^B g as the symbol of the operator product.

    The returned :class:`SampledSymbol` carries the phase-stripped kernel
    table of quantize(f) @ quantize(g), so quantizing it reproduces the
    matrix product exactly and the result does not depend on the chosen
    gauge of the field.
    """
    product = (quantize(f, gauge) @ quantize(g, gauge)).matrix
    return SampledSymbol(gauge.grid, gauge.strip(product))


# ---------------------------------------------------------------------------
# direct oscillatory quadrature
# ---------------------------------------------------------------------------


def moyal_direct(f, g, B, X, radius: float = 4.5, points: int = 16,
                 quad: FluxQuadrature = DEFAULT_QUAD) -> complex:
    """(f #^B g)(X) by direct quadrature of the 4n-fold phase-space integral

        4^n (2 pi)^(-2n) Int dY dZ e^{-2i sigma(Y,Z)}
            e^{-i Gamma^B(<x-y-z, x+y-z, x-y+z>)} f(X - Y) g(X - Z)

    with sigma((y,eta),(z,zeta)) = z.eta - y.zeta, on a centered midpoint
    lattice of ``points`` nodes per axis over [-radius, radius].  Both
    factors must decay fast enough for absolute convergence (Schwartz-class
    catalog entries); ``points`` is capped at 16 per axis.
    """
    if points > 16:
        raise ValueError("direct quadrature is capped at 16 points per axis")
    n = f.n
    if g.n != n:
        raise ValueError("dimension mismatch")
    X = np.asarray(X, dtype=float).reshape(2 * n)
    x, xi = X[:n], X[n:]
    h = 2.0 * radius / points
    nodes = h * (np.arange(points) - (points - 1) / 2.0)
    axes = np.meshgrid(*([nodes] * (2 * n)), indexing="ij")
    Y = np.stack(axes, axis=-1).reshape(-1, 2 * n)  # (P, 2n): (y, eta)
    y, eta = Y[:, :n], Y[:, n:]
    weight = (4.0 / (2.0 * np.pi) ** 2) ** n * h ** (4 * n)

    fvals = np.asarray(f.fn(x - y, xi - eta), dtype=complex)  # f(X - Y)
    total = 0.0 + 0.0j
    chunk = max(1, (1 << 22) // len(Y))
    zero_field = B is None or B.is_zero()
    for start in range(0, len(Y), chunk):
        sl = slice(start, min(start + chunk, len(Y)))
        z, zeta = y[sl], eta[sl]
        gvals = np.asarray(g.fn(x - z, xi - zeta), dtype=complex)
        # sigma(Y, Z) = z.eta - y.zeta, pairing every Y (rows) with every Z (cols)
        sig = eta @ z.T - y @ zeta.T  # (P, chunk)
        phase = np.exp(-2j * sig)
        if not zero_field:
            c0 = x - y[:, None, :] - z[None, :, :]
            c1 = x + y[:, None, :] - z[None, :, :]
            c2 = x - y[:, None, :] + z[None, :, :]
            flux = flux_triangle(B, c0, c1, c2, quad)
            phase = phase * np.exp(-1j * flux)
        total += weight * np.sum(fvals[:, None] * phase * gvals[None, :])
    return complex(total)


# ---------------------------------------------------------------------------
# expansion terms
# ---------------------------------------------------------------------------


def _multi_indices(n: int, order: int):
    """All multi-indices over n axes with the given total order."""
    if n == 1:
        return [(order,)]
    return [(i, order - i) for i in range(order + 1)]


def _all_indices_upto(n: int, order: int):
    out = []
    for k in range(order + 1):
        out.extend(_multi_indices(n, k))
    return out


def _leq(a, b):
    return all(ai <= bi for ai, bi in zip(a, b))


def _sub(a, b):
    return tuple(ai - bi for ai, bi in zip(a, b))


def _factorial(idx):
    out = 1
    for i in idx:
        out *= math.factorial(i)
    return out


@dataclass(frozen=True)
class Contribution:
    """One term of h_l: constant times flux-phase derivative times symbol
    derivatives, for multi-indices a <= beta, b <= alpha, |alpha|+|beta| = l."""

    a: tuple
    b: tuple
    alpha: tuple
    beta: tuple
    constant: complex          # C_ab = (i/2)^l (-1)^(|a|+|b|+|beta|) / (a! b! (alpha-b)! (beta-a)!)
    rational: Fraction         # the rational magnitude, for exactness audits


@dataclass(frozen=True)
class ExpansionTerm:
    """The order-l term of the product expansion, with its exact constants."""

    l: int
    contributions: tuple


def expansion_contributions(n: int, l: int) -> ExpansionTerm:
    """Enumerate the contributions to h_l with exact constants."""
    if l > 3:
        raise ValueError("expansion depth is capped at 3")
    contribs = []
    for la in range(l + 1):
        for alpha in _multi_indices(n, la):
            for beta in _multi_indices(n, l - la):
                for a in _all_indices_upto(n, sum(beta)):
                    if not _leq(a, beta):
                        continue
                    for b in _all_indices_upto(n, sum(alpha)):
                        if not _leq(b, alpha):
                            continue
                        rat = Fraction(
                            1,
                            _factorial(a) * _factorial(b)
                            * _factorial(_sub(alpha, b)) * _factorial(_sub(beta, a)),
                        )
                        sign = (-1) ** (sum(a) + sum(b) + sum(beta))
                        const = (0.5j) ** l * sign * float(rat)
                        contribs.append(Contribution(
                            a=tuple(a), b=tuple(b), alpha=tuple(alpha), beta=tuple(beta),
                            constant=const, rational=sign * rat))
    return ExpansionTerm(l=l, contributions=tuple(contribs))


def flux_phase_derivative(B: MagneticField, my, mz, x, step: float = 1e-3):
    """[d^my_y d^mz_z omega_B](x, 0, 0) for total order <= 3, in closed form.

    The flux phase omega = e^{-i Gamma_B} has Gamma_B(x, y, z) =
    sum_{j,k} y_j z_k II_jk(x,y,z) with II_jk a weighted average of B_jk, so
    at (y, z) = (0, 0):

    * order 0 -> 1, order 1 -> 0;
    * the only nonzero second derivative is d_{y_j} d_{z_k} -> -2i B_jk(x);
    * third derivatives need one spatial derivative of B with exact weight
      -2/3:  d_{y_j} d_{y_l} d_{z_k} -> (2i/3)(d_l B_jk + d_j B_lk)(x) and
      d_{y_j} d_{z_k} d_{z_l} -> (2i/3)(d_l B_jk + d_k B_jl)(x); pure-y or
      pure-z derivatives vanish.

    Spatial derivatives of B components are taken by Richardson-extrapolated
    central differences with the given step.
    """
    my = tuple(my)
    mz = tuple(mz)
    x = np.asarray(x, dtype=float)
    base_shape = x.shape[:-1]
    total = sum(my) + sum(mz)
    if total > 3:
        raise ValueError(f"flux-phase derivative order {total} exceeds the cap of 3")
    if total == 0:
        return np.ones(base_shape, dtype=complex)
    if total == 1 or (B is None or B.is_zero()):
        return np.zeros(base_shape, dtype=complex)
    if sum(my) == 0 or sum(mz) == 0:
        return np.zeros(base_shape, dtype=complex)
    if total == 2:
        j = my.index(1)
        k = mz.index(1)
        return -2j * np.asarray(B.component(j + 1, k + 1)(x), dtype=complex)
    # total == 3 with mixed y/z content
    if sum(my) == 2:
        ys = _expand_index(my)
        (k,) = _expand_index(mz)
        j, lidx = ys
        val = _field_derivative(B, j + 1, k + 1, lidx, x, step) \
            + _field_derivative(B, lidx + 1, k + 1, j, x, step)
    else:
        (j,) = _expand_index(my)
        zs = _expand_index(mz)
        k, lidx = zs
        val = _field_derivative(B, j + 1, k + 1, lidx, x, step) \
            + _field_derivative(B, j + 1, lidx + 1, k, x, step)
    return (2j / 3.0) * np.asarray(val, dtype=complex)


def _expand_index(m):
    """Multi-index -> list of axis numbers with multiplicity, e.g. (2,1) -> [0,0,1]."""
    out = []
    for axis, count in enumerate(m):
        out.extend([axis] * count)
    return out


def _field_derivative(B: MagneticField, j, k, axis, x, step):
    """d_axis B_jk(x) by two-level Richardson central differences."""
    fn = B.component(j, k)
    e = np.zeros(x.shape[-1])
    e[axis] = 1.0

    def cd(h):
        return (np.asarray(fn(x + h * e), dtype=float)
                - np.asarray(fn(x - h * e), dtype=float)) / (2.0 * h)

    d1 = cd(step)
    d2 = cd(step / 2.0)
    return (4.0 * d2 - d1) / 3.0


def flux_phase_derivative_fd(B: MagneticField, my, mz, x, step: float = 1e-3):
    """Validation twin of :func:`flux_phase_derivative`: nested central
    differences of e^{-i gamma_B} in the (y, z) slots with two-level
    Richardson extrapolation.  Slower and less accurate; used to cross-check
    the closed forms."""
    my, mz = tuple(my), tuple(mz)
    x = np.asarray(x, dtype=float)
    n = x.shape[-1]

    def omega(y, z):
        return np.exp(-1j * gamma_B(B, x, y, z))

    slots = [("y", axis) for axis in _expand_index(my)] + \
            [("z", axis) for axis in _expand_index(mz)]

    def nested(fn, slots, h):
        if not slots:
            return fn(np.zeros(n), np.zeros(n))
        (slot, axis), rest = slots[0], slots[1:]
        e = np.zeros(n)
        e[axis] = 1.0

        def shifted(sign, fn=fn, slot=slot):
            if slot == "y":
                return lambda y, z: fn(y + sign * h * e, z)
            return lambda y, z: fn(y, z + sign * h * e)

        return (nested(shifted(+1.0), rest, h) - nested(shifted(-1.0), rest, h)) / (2.0 * h)

    d1 = nested(omega, slots, step)
    d2 = nested(omega, slots, step / 2.0)
    return (4.0 * d2 - d1) / 3.0


def expansion_term(f: Symbol, g: Symbol, B: MagneticField, l: int) -> Symbol:
    """The order-l expansion term h_l of f #^B g, as an evaluable symbol:

        h_l = sum C_ab [d^{beta-a}_y d^{alpha-b}_z omega_B](x,0,0)
                   d^a_x d^alpha_xi f  d^b_x d^beta_xi g

    over |alpha| + |beta| = l, a <= beta, b <= alpha.  Raises if a required
    symbol derivative is unavailable (the error names the order).
    """
    n = f.n
    if g.n != n:
        raise ValueError("dimension mismatch")
    term = expansion_contributions(n, l)
    # bind derivative callables once; unavailable derivatives raise here
    bound = []
    for c in term.contributions:
        df = f.derivative(c.a, c.alpha)
        dg = g.derivative(c.b, c.beta)
        bound.append((c, df, dg))

    def fn(x, xi):
        x = np.asarray(x, dtype=float)
        xi = np.asarray(xi, dtype=float)
        shape = np.broadcast_shapes(x.shape[:-1], xi.shape[:-1])
        xb = np.broadcast_to(x, shape + (n,))
        out = np.zeros(shape, dtype=complex)
        for c, df, dg in bound:
            flux = flux_phase_derivative(B, _sub(c.beta, c.a), _sub(c.alpha, c.b), xb)
            if not np.any(flux):
                continue
            out = out + c.constant * flux * np.asarray(df(x, xi)) * np.asarray(dg(x, xi))
        return out

    return Symbol.from_callable(fn, n=n, m=f.m + g.m - l, rho=min(f.rho, g.rho),
                                delta=max(f.delta, g.delta), real=False)


def expansion_sum(f: Symbol, g: Symbol, B: MagneticField, depth: int) -> Symbol:
    """Sum of h_l for l < depth, as one evaluable symbol."""
    terms = [expansion_term(f, g, B, l) for l in range(depth)]

    def fn(x, xi):
        out = None
        for t in terms:
            v = np.asarray(t.fn(x, xi), dtype=complex)
            out = v if out is None else out + v
        return out

    return Symbol.from_callable(fn, n=f.n, m=f.m + g.m, rho=min(f.rho, g.rho),
                                delta=max(f.delta, g.delta), real=False)


# ---------------------------------------------------------------------------
# remainder-order estimation
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class RemainderFit:
    """Fitted decay exponent of the expansion remainder along a momentum ray."""

    slope: float
    intercept: float
    xi_values: np.ndarray
    residuals: np.ndarray
    narrow_range: bool  # True when the fit window spans < 1 decade in <xi>
    widened: bool = False  # True when the window was widened to reach 2 nodes


def remainder_order(f: Symbol, g: Symbol, B: MagneticField, gauge: Gauge, depth: int,
                    xi_window=(1.5, 0.25)) -> RemainderFit:
    """Fit the decay order of R_depth = f #^B g - sum_{l<depth} h_l.

    The product is evaluated by pullback; the remainder is read along the
    positive xi_1-ray at x = 0 between |xi| = xi_window[0] and
    xi_window[1] * xi_max, and log|R| is fitted against log<xi>.  The upper
    cut stays well below the momentum-lattice seam, where periodization
    error of growing symbols dominates the true remainder.  When fewer than
    the 2 momentum nodes a fit needs lie in the window, as on coarse 2D
    grids, the upper cut is raised to the second node at or above the lower
    one; such a fit is two adjacent nodes, less than a decade apart, and
    says ``widened``.
    """
    prod = moyal_pullback(f, g, gauge)
    expn = expansion_sum(f, g, B, depth)
    n = gauge.grid.n
    xi = gauge.grid.xi_nodes
    top = np.max(xi)
    hi = xi_window[1] * top
    window = f"remainder fit window xi in [{xi_window[0]}, {xi_window[1]} * {top:.4g}]"
    above = xi[xi >= xi_window[0]]
    widened = bool(np.count_nonzero(above <= hi) < 2 <= len(above))
    if widened:
        hi = float(above[1])
        window = f"remainder fit window xi in [{xi_window[0]}, {hi:.4g}] (widened)"
    xi_sel, ray = _xi1_ray(prod, xi_window[0], hi, window, "raise N or lower L")
    pts_xi = np.zeros((len(xi_sel), n))
    pts_xi[:, 0] = xi_sel
    expn_vals = np.asarray(expn.fn(np.zeros((len(xi_sel), n)), pts_xi), dtype=complex)
    resid = np.abs(ray - expn_vals)
    resid = np.maximum(resid, 1e-300)
    logs = np.log(japanese_bracket(pts_xi))
    slope, intercept = np.polyfit(logs, np.log(resid), 1)
    narrow = (logs.max() - logs.min()) < np.log(10.0)
    if narrow:
        warnings.warn(f"{window} spans less than one decade in <xi>")
    return RemainderFit(slope=float(slope), intercept=float(intercept),
                        xi_values=xi_sel, residuals=resid, narrow_range=narrow,
                        widened=widened)
