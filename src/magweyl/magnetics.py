"""Magnetic field data: flux through triangles, circulation along segments,
flux phases, gauge construction and gauge shifts.

A magnetic field in dimension n is an antisymmetric 2-form with components
B_jk(x); only the j < k components are stored.  In 2D there is a single
scalar component B_12, and closedness is automatic.  A vector potential is a
1-form held as one vector-valued callable; the transversal gauge samples each
stored B_jk once per node and uses it for both A_j and A_k.

The callables of fields and potentials take a point as a coordinate tuple
(x1, ..., xn) of n arrays that broadcast together, not as one stacked array
of shape (..., n), and return values that broadcast against them.  A
component that reads only x1 is then evaluated along the axes of x1 alone:
the circulation quadrature of :mod:`magweyl.quantize` hands it x1 along the
(node, column j1) axes of a row block and x2 along (node, row i2, column j2),
and a component that reads both coordinates broadcasts to the full shape.
The public functions that take points (:meth:`VectorPotential.evaluate`,
:meth:`MagneticField.component`, :func:`circulation`, :func:`flux_triangle`,
:func:`gamma_B`, :func:`omega_cocycle`) take arrays of shape (..., n) and
split them into coordinates once, on entry.

All parameter integrals (flux over a 2-simplex, the explicit double-integral
flux formula, circulation along a segment, the transversal gauge) use
tensor-product Gauss-Legendre quadrature; q nodes are exact for polynomial
integrands of degree <= 2q - 1 per axis.  ``FluxQuadrature.order`` is a cap:
fields and potentials of known polynomial ``degree`` (set by the expression
constructors, the constant field, the zero potential and the transversal
gauge) are integrated with the smallest exact rule (:func:`exact_order`),
and data of unknown degree with ``order`` nodes.

The quadrature points of the circulation and the transversal gauge put the
node axis first, so each coordinate is a contiguous array, and the sums over
the nodes keep the order of ``np.sum`` over a last axis (:func:`_node_sum`):
every value is the same to the bit whatever shape its coordinates have.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np
from scipy.special import roots_legendre

from . import expressions


@lru_cache(maxsize=32)
def _gl_nodes(order: int, a: float, b: float):
    """Gauss-Legendre nodes/weights on [a, b]."""
    t, w = roots_legendre(order)
    nodes = 0.5 * (b - a) * t + 0.5 * (a + b)
    weights = 0.5 * (b - a) * w
    return nodes, weights


def _coordinates(x) -> tuple:
    """The coordinate tuple (x[..., 0], ..., x[..., n-1]) of points of shape (..., n)."""
    x = np.asarray(x, dtype=float)
    return tuple(x[..., j] for j in range(x.shape[-1]))


@dataclass(frozen=True)
class FluxQuadrature:
    """Gauss-Legendre rule for the (s, t) parameter integrals: ``order`` is
    the number of nodes per axis for data of unknown degree, and the cap for
    polynomial data."""

    order: int = 8

    def __post_init__(self):
        if self.order < 2:
            raise ValueError(f"quadrature order must be >= 2, got {self.order}")


DEFAULT_QUAD = FluxQuadrature()


def exact_order(quad: FluxQuadrature, degree: int | None, weight: int = 0) -> int:
    """Nodes per axis for a 1D integrand of polynomial degree ``degree``
    times a polynomial weight (Jacobian, ``s`` factor) of degree ``weight``.

    The smallest Gauss-Legendre rule exact for that degree k, k // 2 + 1,
    capped at ``quad.order``; ``quad.order`` when the degree is unknown.
    """
    if degree is None:
        return quad.order
    return min(quad.order, (degree + weight) // 2 + 1)


@dataclass(frozen=True)
class MagneticField:
    """Antisymmetric 2-form with evaluable components B_jk, j < k.

    ``components`` maps (j, k) with 1 <= j < k <= n to a callable taking a
    coordinate tuple (x1, ..., xn) of arrays that broadcast together and
    returning real values that broadcast against them: a component that
    reads only x1 may return values of the shape of x1, a constant one a
    scalar.  ``degree`` is the total polynomial degree of the components, or
    None when it is unknown or they are not polynomials.
    """

    n: int
    components: dict = field(default_factory=dict)
    degree: int | None = None

    def __post_init__(self):
        for j, k in self.components:
            if not (1 <= j < k <= self.n):
                raise ValueError(f"component index ({j},{k}) invalid for n={self.n}")

    def component(self, j: int, k: int):
        """B_jk as a callable on points of shape (..., n) with values of shape
        (...), honoring antisymmetry; zero if not stored."""
        fn = self.components.get((min(j, k), max(j, k)))
        sign = 1.0 if j < k else -1.0

        def evaluate(x):
            x = np.asarray(x, dtype=float)
            if fn is None:
                return np.zeros(x.shape[:-1])
            return sign * np.broadcast_to(np.asarray(fn(_coordinates(x)), dtype=float),
                                          x.shape[:-1])

        return evaluate

    def is_zero(self) -> bool:
        return not self.components

    @staticmethod
    def from_expressions(n: int, exprs: dict) -> "MagneticField":
        """Build from {(j, k): expression-string} using the parser."""
        asts = {key: expressions.parse_expression(text, n_dim=n) for key, text in exprs.items()}
        comps = {key: _position_callable(ast) for key, ast in asts.items()}
        return MagneticField(n=n, components=comps, degree=_max_degree(asts.values()))

    @staticmethod
    def constant(n: int, b: float) -> "MagneticField":
        """Constant field B_12 = b (n must be 2 unless b = 0)."""
        if b == 0.0:
            return MagneticField(n=n, components={}, degree=0)
        if n != 2:
            raise ValueError("nonzero constant field requires n = 2")
        return MagneticField(
            n=2,
            components={(1, 2): lambda x: float(b)},
            degree=0,
        )


def _position_callable(ast):
    def fn(x):
        return np.real(expressions.evaluate(ast, x=x))

    return fn


def _max_degree(asts):
    """Largest polynomial degree of the ASTs; None if any is not polynomial."""
    degrees = [expressions.degree(ast) for ast in asts]
    return None if None in degrees else max(degrees, default=0)


@dataclass(frozen=True)
class VectorPotential:
    """1-form A in dimension n, as one vector-valued callable.

    ``fn`` maps a coordinate tuple (x1, ..., xn) of arrays that broadcast
    together to the sequence of the n real components (A_1, ..., A_n), each
    broadcasting against the coordinates (a component that reads only x1 may
    have the shape of x1).  ``degree`` is the total polynomial degree of the
    components, or None when it is unknown or they are not polynomials.
    """

    n: int
    fn: object = field(repr=False)
    degree: int | None = None

    def evaluate(self, x) -> np.ndarray:
        """A(x) for x of shape (..., n); returns shape (..., n)."""
        x = np.asarray(x, dtype=float)
        out = np.empty(x.shape)
        for j, a in enumerate(self.fn(_coordinates(x))):
            out[..., j] = a
        return out

    def is_zero(self) -> bool:
        """True only for potentials built by :meth:`zero` (structural check)."""
        return self.fn is _zero_potential

    @staticmethod
    def zero(n: int) -> "VectorPotential":
        return VectorPotential(n, _zero_potential, degree=0)

    @staticmethod
    def from_expressions(n: int, exprs) -> "VectorPotential":
        asts = [expressions.parse_expression(text, n_dim=n) for text in exprs]
        if len(asts) != n:
            raise ValueError(f"expected {n} components, got {len(asts)}")

        def fn(x):
            return tuple(np.real(expressions.evaluate(ast, x=x)) for ast in asts)

        return VectorPotential(n, fn, degree=_max_degree(asts))


def _zero_potential(x):
    return (0.0,) * len(x)


# ---------------------------------------------------------------------------
# flux and circulation
# ---------------------------------------------------------------------------


def flux_triangle(B: MagneticField, v0, v1, v2, quad: FluxQuadrature = DEFAULT_QUAD):
    """Integral of the 2-form B over the oriented triangle <v0, v1, v2>.

    Vertices may be single points of shape (n,) or batches of shape (..., n);
    batched vertices produce a batch of fluxes.  The simplex is parameterized
    by P(u, v) = v0 + u*(v1 - v0) + v*(1 - u)*(v2 - v0) over the unit square,
    with Jacobian factor (1 - u) and the constant wedge coefficients
    e_jk = (v1-v0)_j (v2-v0)_k - (v1-v0)_k (v2-v0)_j.
    """
    v0 = np.asarray(v0, dtype=float)
    v1 = np.asarray(v1, dtype=float)
    v2 = np.asarray(v2, dtype=float)
    if B.is_zero():
        return np.zeros(np.broadcast_shapes(v0.shape, v1.shape, v2.shape)[:-1])
    d1 = v1 - v0
    d2 = v2 - v0
    # B along each axis, times the Jacobian (1 - u)
    q = exact_order(quad, B.degree, weight=1)
    un, uw = _gl_nodes(q, 0.0, 1.0)
    vn, vw = _gl_nodes(q, 0.0, 1.0)
    # quadrature mesh over the unit square, flattened
    U, V = np.meshgrid(un, vn, indexing="ij")
    W = np.outer(uw, vw) * (1.0 - U)  # include Jacobian
    U, V, W = U.ravel(), V.ravel(), W.ravel()
    # points of shape (..., q, n), split into their n coordinates
    s = U[:, None]
    t = (V * (1.0 - U))[:, None]
    pts = _coordinates(v0[..., None, :] + s * d1[..., None, :] + t * d2[..., None, :])
    total = 0.0
    for (j, k), component in B.components.items():
        wedge = d1[..., j - 1] * d2[..., k - 1] - d1[..., k - 1] * d2[..., j - 1]
        vals = np.asarray(component(pts), dtype=float)  # broadcasts to (..., q)
        total = total + wedge * np.sum(W * vals, axis=-1)
    return total


def gamma_B(B: MagneticField, x, y, z, quad: FluxQuadrature = DEFAULT_QUAD):
    """Explicit double-integral flux formula.

    Gamma_B(x, y, z) = sum_{j,k} y_j z_k * Integral_0^2 ds Integral_0^1 dt
    s * B_jk(x + (s - s t - 1) y + (s t - 1) z).  Accepts batched points of
    shape (..., n).
    """
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    z = np.asarray(z, dtype=float)
    if B.is_zero():
        return np.zeros(np.broadcast_shapes(x.shape, y.shape, z.shape)[:-1])
    q = exact_order(quad, B.degree, weight=1)  # B along each axis, times s
    sn, sw = _gl_nodes(q, 0.0, 2.0)
    tn, tw = _gl_nodes(q, 0.0, 1.0)
    S, T = np.meshgrid(sn, tn, indexing="ij")
    W = np.outer(sw, tw) * S  # include the s factor
    S, W = S.ravel(), W.ravel()
    T = T.ravel()
    cy = (S - S * T - 1.0)[:, None]
    cz = (S * T - 1.0)[:, None]
    pts = _coordinates(x[..., None, :] + cy * y[..., None, :] + cz * z[..., None, :])
    vals = {key: np.asarray(fn(pts), dtype=float) for key, fn in B.components.items()}
    total = 0.0
    for j in range(1, B.n + 1):
        for k in range(1, B.n + 1):
            if j != k and (min(j, k), max(j, k)) in vals:
                signed = (1.0 if j < k else -1.0) * vals[min(j, k), max(j, k)]
                total = total + y[..., j - 1] * z[..., k - 1] * np.sum(W * signed, axis=-1)
    return total


def _node_sum(terms):
    """The sum of ``terms`` over its first (node) axis, in the order of
    ``np.sum`` over a contiguous last axis of that length: numpy's pairwise
    sum, which keeps eight interleaved partial sums per block of up to 128
    terms and adds them by a fixed tree, and then adds its identity 0.0.
    ``terms`` is overwritten."""
    return np.add(_pairwise(terms), 0.0)


def _pairwise(t):
    """numpy's pairwise sum of t[0], t[1], ..., accumulated in t[0]."""
    q = len(t)
    if q > 128:
        # a longer run is split at a multiple of 8 near its middle
        h = q // 2 - (q // 2) % 8
        res = _pairwise(t[:h])
        res += _pairwise(t[h:])
        return res
    m = 1
    if q >= 8:
        # eight partial sums r_j over t[j], t[j + 8], ..., then the tree
        # ((r0 + r1) + (r2 + r3)) + ((r4 + r5) + (r6 + r7))
        m = q - q % 8
        for i in range(8, m, 8):
            t[:8] += t[i:i + 8]
        t[0:8:2] += t[1:8:2]
        t[0:8:4] += t[2:8:4]
        t[0] += t[4]
    for i in range(m, q):
        t[0] += t[i]
    return t[0]


def circulation(A: VectorPotential, x, y, quad: FluxQuadrature = DEFAULT_QUAD):
    """Line integral of A along the oriented straight segment from x to y.

    Accepts batched endpoints of shape (..., n), which broadcast together.
    """
    return _circulation(A, _coordinates(x), _coordinates(y), quad)


def _circulation(A: VectorPotential, x: tuple, y: tuple, quad: FluxQuadrature):
    """:func:`circulation` for endpoints given as coordinate tuples of arrays
    that broadcast together, possibly along different axes per coordinate.

    Coordinate j of the points x + t (y - x) is computed over the node axis t
    (first) and the axes of x_j and y_j only, so A evaluates a component
    that reads only some coordinates along their axes alone.  The integrand
    sums the n terms A_j d_j in index order and :func:`_node_sum` sums the
    nodes, so each value is the same to the bit whatever the shapes.
    """
    tn, tw = _gl_nodes(exact_order(quad, A.degree), 0.0, 1.0)
    d = [b - a for a, b in zip(x, y)]
    t = tn.reshape((-1,) + (1,) * max(np.ndim(c) for c in (*x, *d)))
    vals = A.fn(tuple(t * dj + xj for xj, dj in zip(x, d)))
    integrand = vals[0] * d[0]
    for j in range(1, len(d)):
        integrand = integrand + vals[j] * d[j]
    return _node_sum(integrand * tw.reshape(t.shape))


def transversal_gauge(B: MagneticField, quad: FluxQuadrature = DEFAULT_QUAD) -> VectorPotential:
    """The transversal gauge A_k(x) = -sum_j x_j Integral_0^1 ds s B_kj(s x).

    Satisfies dA = B and A(0) = 0; for a constant field B_12 = b in 2D this
    is the symmetric gauge (-b x2 / 2, b x1 / 2).  A has degree B.degree + 1.
    Each stored integral I_jk = Integral_0^1 ds s B_jk(s x), j < k, is
    sampled once per point and serves both A_j and A_k, with I_kj = -I_jk.
    The node axis s comes first in the points s x, and I_jk has the shape of
    the coordinates B_jk reads.
    """
    if B.is_zero():
        return VectorPotential.zero(B.n)
    sn, sw = _gl_nodes(exact_order(quad, B.degree, weight=1), 0.0, 1.0)
    weights = sw * sn  # include the s factor

    def fn(x):
        s = sn.reshape((-1,) + (1,) * max(np.ndim(c) for c in x))
        xs = tuple(s * c for c in x)
        w = weights.reshape(s.shape)
        I = {key: _node_sum(np.asarray(component(xs), dtype=float) * w)
             for key, component in B.components.items()}
        del xs
        out = []
        for k in range(1, B.n + 1):
            acc = 0.0
            for j in range(1, B.n + 1):
                if (k, j) in I:
                    acc = acc - x[j - 1] * I[k, j]
                elif (j, k) in I:
                    # I_kj = -I_jk, and acc - x_j (-I_jk) is acc + x_j I_jk exactly
                    acc = acc + x[j - 1] * I[j, k]
            out.append(acc)
        return tuple(out)

    return VectorPotential(B.n, fn, degree=None if B.degree is None else B.degree + 1)


def gauge_shift(A: VectorPotential, grad_psi) -> VectorPotential:
    """A' = A + grad(psi), for the analytic gradient ``grad_psi`` of psi, a
    callable on points of shape (..., n) returning shape (..., n).  Each
    evaluation of A' stacks its coordinates and calls the gradient once.
    The result has unknown degree.
    """

    def fn(x):
        # coordinate-major, so each x_j the gradient reads is contiguous
        pts = np.empty((A.n,) + np.broadcast_shapes(*map(np.shape, x)))
        for j, c in enumerate(x):
            pts[j] = c
        grad = grad_psi(np.moveaxis(pts, 0, -1))
        return tuple(a + grad[..., j] for j, a in enumerate(A.fn(x)))

    return VectorPotential(A.n, fn)


def omega_cocycle(B: MagneticField, q, x, y, quad: FluxQuadrature = DEFAULT_QUAD):
    """Normalized 2-cocycle omega^B(q; x, y) = exp(-i Flux(<q, q+x, q+x+y>)).

    The base point q is the argument of the function-valued cocycle; x and y
    are the composed translations.  omega^B(q; x, 0) = omega^B(q; 0, y) = 1
    exactly (degenerate triangles).
    """
    q = np.asarray(q, dtype=float)
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    return np.exp(-1j * flux_triangle(B, q, q + x, q + x + y, quad))
