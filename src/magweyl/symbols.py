"""Phase-space symbols with order/type metadata, Frechet seminorms,
ellipticity tests, and coefficient algebras with enumerated quasi-orbits.

A Symbol is an evaluable function f(x, xi) together with its order m and type
parameters (rho, delta).  Symbols built from expression strings carry exact
analytic derivatives of every order (by symbolic differentiation of the AST);
symbols built from bare callables fall back to central finite differences for
derivative orders <= 2.

A CoefficientAlgebra enumerates the admissible x-behavior of coefficients
(constant, vanishing at infinity plus constants, per-direction asymptotic
limits, periodic) together with a finite list of quasi-orbits; each
quasi-orbit carries an explicit projection rule acting on the x-dependence
only, so it is an algebra morphism on samples and commutes with
xi-derivatives by construction.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field, replace

import numpy as np

from . import expressions
from .magnetics import MagneticField

# A multi-index is a tuple of n nonnegative integers.


def multi_order(idx) -> int:
    return int(sum(idx))


def zero_index(n: int) -> tuple:
    return (0,) * n


def japanese_bracket(xi) -> np.ndarray:
    """<xi> = sqrt(1 + |xi|^2) for xi of shape (..., n)."""
    xi = np.asarray(xi, dtype=float)
    return np.sqrt(1.0 + np.sum(xi * xi, axis=-1))


@dataclass(frozen=True)
class Symbol:
    """An evaluable phase-space function with S^m_{rho,delta} metadata.

    ``fn(x, xi)`` takes arrays of shape (..., n) and returns complex values
    of shape (...).  ``derivatives`` optionally maps (a, alpha) multi-index
    pairs to analytic derivative callables of the same signature.

    :attr:`split` is worked out from ``ast``; a symbol without one has none.
    """

    n: int
    fn: object = field(repr=False)
    m: float = 0.0
    rho: float = 0.0
    delta: float = 0.0
    real: bool = False
    derivatives: dict = field(default_factory=dict, repr=False)
    x_independent: bool = False
    ast: object = field(default=None, repr=False)

    def __post_init__(self):
        if not (0.0 <= self.delta <= self.rho <= 1.0):
            raise ValueError(f"need 0 <= delta <= rho <= 1, got rho={self.rho}, delta={self.delta}")

    # -- construction -------------------------------------------------------

    @staticmethod
    def from_expression(text: str, n: int, m: float = 0.0, rho: float = 0.0,
                        delta: float = 0.0, real: bool = False) -> "Symbol":
        ast = expressions.parse_expression(text, n_dim=n)
        return _ast_symbol(ast, n=n, m=m, rho=rho, delta=delta, real=real)

    @staticmethod
    def from_callable(fn, n: int, m: float = 0.0, rho: float = 0.0, delta: float = 0.0,
                      real: bool = False, x_independent: bool = False) -> "Symbol":
        return Symbol(n=n, fn=fn, m=m, rho=rho, delta=delta, real=real,
                      x_independent=x_independent)

    # -- evaluation ---------------------------------------------------------

    def __call__(self, x, xi):
        return self.fn(x, xi)

    @functools.cached_property
    def split(self):
        """(V, rest) when the top-level sum of ``ast`` (its chain of ``+``,
        ``-`` and unary minus) has xi-independent terms, else None.

        ``V(x)`` sums those terms, constants included, and ``rest`` is the
        Symbol of the other terms, with its own ``x_independent``, or None
        when there are none.  f = V + rest, and V quantizes to
        multiplication by V (see :mod:`magweyl.quantize`).  Worked out once
        per symbol, from ``ast`` alone, so a symbol without an AST has none.
        """
        if self.ast is None:
            return None
        V, rest = _potential_split(self.ast, self.n)
        if V is None:
            return None

        def potential(x, V=V):
            return expressions.evaluate(V, x=x) + np.zeros(np.shape(x)[:-1], dtype=complex)

        meta = dict(n=self.n, m=self.m, rho=self.rho, delta=self.delta, real=self.real)
        return potential, None if rest is None else _ast_symbol(rest, **meta)

    def conjugate(self) -> "Symbol":
        conj_derivs = {key: (lambda g: (lambda x, xi: np.conj(g(x, xi))))(g)
                       for key, g in self.derivatives.items()}
        base = self.fn
        return replace(self, fn=lambda x, xi: np.conj(base(x, xi)),
                       derivatives=conj_derivs, ast=None)

    # -- derivatives --------------------------------------------------------

    def derivative(self, a, alpha):
        """Callable for d^a_x d^alpha_xi f.

        Uses symbolic AST differentiation when available, then declared
        analytic derivatives, then a central finite-difference fallback
        (total order <= 2, step h = 1e-5 * (1 + |coordinate|)).
        """
        a = tuple(int(v) for v in a)
        alpha = tuple(int(v) for v in alpha)
        total = multi_order(a) + multi_order(alpha)
        if total == 0:
            return self.fn
        if self.ast is not None:
            node = self.ast
            for j, order in enumerate(a):
                for _ in range(order):
                    node = node.diff(f"x{j + 1}")
            for j, order in enumerate(alpha):
                for _ in range(order):
                    node = node.diff(f"xi{j + 1}")
            return _ast_callable(node)
        if (a, alpha) in self.derivatives:
            return self.derivatives[(a, alpha)]
        if total <= 2:
            return _fd_derivative(self.fn, a, alpha)
        raise ValueError(
            f"derivative of order x^{a} xi^{alpha} unavailable: no analytic "
            f"closure declared and finite differences are limited to total order 2"
        )


def _ast_callable(ast):
    """fn(x, xi): the complex values of ``ast`` on the broadcast shape of x
    and xi, arrays of shape (..., n)."""

    def fn(x, xi):
        return expressions.evaluate(ast, x=x, xi=xi) + np.zeros(
            np.broadcast_shapes(np.shape(x)[:-1], np.shape(xi)[:-1]), dtype=complex
        )

    return fn


def _ast_symbol(ast, n: int, **meta) -> Symbol:
    """The Symbol of a parsed expression."""
    xvars = {f"x{j + 1}" for j in range(n)}
    return Symbol(n=n, fn=_ast_callable(ast), x_independent=not (ast.variables() & xvars),
                  ast=ast, **meta)


def _potential_split(ast, n: int):
    """(V, rest): the sum of the xi-independent terms of the top-level sum of
    ``ast`` and the sum of its other terms, each in their order and None
    when empty; a subtracted term is added negated, which is exact."""
    xivars = {f"xi{j + 1}" for j in range(n)}
    parts = ([], [])  # xi-independent terms, the others

    def walk(node, negated):
        if isinstance(node, expressions.BinOp) and node.op in "+-":
            walk(node.left, negated)
            walk(node.right, negated != (node.op == "-"))
        elif isinstance(node, expressions.Neg):
            walk(node.arg, not negated)
        else:
            parts[bool(node.variables() & xivars)].append(
                expressions.Neg(node) if negated else node)

    walk(ast, False)
    return tuple(functools.reduce(lambda a, b: expressions.BinOp("+", a, b), terms)
                 if terms else None for terms in parts)


def _fd_derivative(fn, a, alpha):
    """Nested central finite differences in the requested coordinates, with
    step h = 1e-5 * (1 + |coordinate|)."""
    coords = []  # (slot, axis): slot 0 = x, slot 1 = xi
    for j, order in enumerate(a):
        coords.extend([(0, j)] * order)
    for j, order in enumerate(alpha):
        coords.extend([(1, j)] * order)

    def apply(fn_inner, slot, axis):
        def diffed(x, xi):
            x = np.asarray(x, dtype=float)
            xi = np.asarray(xi, dtype=float)
            target = x if slot == 0 else xi
            h = 1e-5 * (1.0 + np.linalg.norm(target, axis=-1, keepdims=True))
            e = np.zeros(target.shape[-1])
            e[axis] = 1.0
            hv = h * e
            if slot == 0:
                hi = fn_inner(x + hv, xi)
                lo = fn_inner(x - hv, xi)
            else:
                hi = fn_inner(x, xi + hv)
                lo = fn_inner(x, xi - hv)
            return (hi - lo) / (2.0 * h[..., 0])

        return diffed

    out = fn
    for slot, axis in coords:
        out = apply(out, slot, axis)
    return out


# ---------------------------------------------------------------------------
# seminorms and ellipticity
# ---------------------------------------------------------------------------


def seminorm(f: Symbol, alpha, a, region) -> float:
    """Sampled Frechet seminorm
    sup <xi>^(-m + rho|alpha| - delta|a|) |d^a_x d^alpha_xi f|
    over the phase-space lattice of ``region`` (a PhaseSpaceGrid).
    """
    alpha = tuple(int(v) for v in alpha)
    a = tuple(int(v) for v in a)
    deriv = f.derivative(a, alpha)
    x, xi = _phase_mesh(region)
    vals = np.abs(deriv(x, xi))
    weight = japanese_bracket(xi) ** (-f.m + f.rho * multi_order(alpha) - f.delta * multi_order(a))
    return float(np.max(weight * vals))


def seminorm_samples(values, grid, m: float) -> float:
    """Sampled order-m seminorm sup <xi>^(-m) |f| of a symbol given only by
    its samples on the phase-space lattice of ``grid`` (shape (N,)*n x
    (N,)*n, position axes first).
    """
    _, xi = _phase_mesh(grid)
    return float(np.max(japanese_bracket(xi) ** -m * np.abs(values)))


def _phase_mesh(grid):
    """Full phase-space mesh: x of shape (N,)*n + (1,)*n + (n,), xi broadcast."""
    n = grid.n
    xm = grid.x_mesh().reshape((grid.N,) * n + (1,) * n + (n,))
    xim = grid.xi_mesh().reshape((1,) * n + (grid.N,) * n + (n,))
    return xm, xim


# position nodes per block of :func:`_position_blocks`
_POSITION_ROWS = 64


def _position_blocks(f: Symbol, grid):
    """f over blocks of ``_POSITION_ROWS`` position nodes by the whole
    momentum lattice, each of shape (block,) + (N,)*n, so the P^2 table is
    never held."""
    x = grid.x_flat().reshape((grid.npoints,) + (1,) * grid.n + (grid.n,))
    xi = grid.xi_mesh()
    for a in range(0, grid.npoints, _POSITION_ROWS):
        block = x[a:a + _POSITION_ROWS]
        yield np.broadcast_to(f(block, xi), block.shape[:1] + xi.shape[:-1])


def is_elliptic(f: Symbol, R: float, C: float, region) -> bool:
    """True iff the sampled infimum of |f| / <xi>^m over |xi| > R exceeds C.

    The minimum is taken over :func:`_position_blocks`; min is exact, so it
    is the whole-table minimum to the bit."""
    xi = region.xi_mesh()
    mask = np.linalg.norm(xi, axis=-1) > R
    if not np.any(mask):
        return True
    scale = japanese_bracket(xi)[mask] ** f.m
    return bool(np.min([np.min(np.abs(vals[:, mask]) / scale)
                        for vals in _position_blocks(f, region)]) >= C)


# ---------------------------------------------------------------------------
# coefficient algebras and quasi-orbits
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class QuasiOrbit:
    """A labeled projection rule acting on the x-dependence of symbols/fields.

    ``kind`` is one of 'identity' (constant coefficients), 'direction'
    (replace coefficients by their limit along ``direction``), or 'translate'
    (x -> x + shift, used to sample the hull of a periodic algebra).
    Directional limits are evaluated at x = R_LIMIT * direction; the
    projected symbol is then constant in x.
    """

    label: str
    kind: str = "identity"
    direction: tuple = ()
    shift: tuple = ()

    KINDS = ("identity", "direction", "translate")
    R_LIMIT = 1e8

    def project_point(self, n: int):
        """For 'direction' orbits: the frozen evaluation point, shape (n,)."""
        d = np.asarray(self.direction, dtype=float)
        if d.shape != (n,):
            raise ValueError(f"direction must have shape ({n},)")
        norm = np.linalg.norm(d)
        if norm == 0:
            raise ValueError("direction must be nonzero")
        return self.R_LIMIT * d / norm


@dataclass(frozen=True)
class CoefficientAlgebra:
    """An enumerated translation-invariant coefficient algebra with its
    covering quasi-orbits.

    ``kind`` is one of 'ConstantCoefficients',
    'VanishingAtInfinityPlusConstants', 'AsymptoticLimitsPerDirection', or
    'Periodic'.  The quasi-orbit list is user-declared and is what the
    essential-spectrum computation unions over.
    """

    kind: str
    quasi_orbits: tuple = ()
    lattice: tuple = ()  # lattice vectors, Periodic kind only

    KINDS = (
        "ConstantCoefficients",
        "VanishingAtInfinityPlusConstants",
        "AsymptoticLimitsPerDirection",
        "Periodic",
    )

    def __post_init__(self):
        if self.kind not in self.KINDS:
            raise ValueError(f"unknown algebra kind {self.kind!r}")
        if not self.quasi_orbits:
            raise ValueError("at least one quasi-orbit is required")


def project_quasiorbit(f: Symbol, Q: QuasiOrbit) -> Symbol:
    """Image of a symbol under the quasi-orbit projection.

    The rule acts on the x-dependence only: order metadata is preserved, the
    result commutes with xi-derivatives, and evaluation-at-a-point makes it
    an algebra morphism on samples.
    """
    if Q.kind == "identity":
        return f
    if Q.kind == "translate":
        shift = np.asarray(Q.shift, dtype=float)
        if shift.shape != (f.n,):
            raise ValueError(f"shift must have shape ({f.n},)")
        base = f.fn
        derivs = {key: (lambda g: (lambda x, xi: g(np.asarray(x) + shift, xi)))(g)
                  for key, g in f.derivatives.items()}
        return replace(f, fn=lambda x, xi: base(np.asarray(x) + shift, xi),
                       derivatives=derivs, ast=None)
    if Q.kind == "direction":
        if f.x_independent:
            return f
        x0 = Q.project_point(f.n)
        derivs = _FrozenDerivatives(f, x0)
        return replace(f, fn=derivs.freeze(f.fn), derivatives=derivs,
                       x_independent=True, ast=None)
    raise ValueError(f"quasi-orbit {Q.label!r} has no projection rule ({Q.kind!r})")


class _FrozenDerivatives:
    """Lazy derivative table for a direction-projected (constant-coefficient)
    symbol: x-derivatives vanish, xi-derivatives are the parent's analytic
    xi-derivatives evaluated at the frozen point."""

    def __init__(self, parent: Symbol, x0: np.ndarray):
        self.parent = parent
        self.x0 = np.asarray(x0, dtype=float)

    def freeze(self, g):
        x0 = self.x0

        def fn(x, xi, g=g):
            x = np.asarray(x)
            return g(np.broadcast_to(x0, x.shape), xi)

        return fn

    def __contains__(self, key):
        a, alpha = key
        if multi_order(a) > 0:
            return True
        try:
            self.parent.derivative(zero_index(self.parent.n), alpha)
            return True
        except ValueError:
            return False

    def __getitem__(self, key):
        a, alpha = key
        if multi_order(a) > 0:
            def zero(x, xi):
                shape = np.broadcast_shapes(np.shape(x)[:-1], np.shape(xi)[:-1])
                return np.zeros(shape, dtype=complex)

            return zero
        return self.freeze(self.parent.derivative(zero_index(self.parent.n), alpha))

    def items(self):
        return ()


def project_field(B: MagneticField, Q: QuasiOrbit) -> MagneticField:
    """Componentwise quasi-orbit projection of a magnetic field."""
    if Q.kind == "identity" or B.is_zero():
        return B
    # the components take coordinate tuples (see magweyl.magnetics)
    if Q.kind == "translate":
        shift = np.asarray(Q.shift, dtype=float)
        comps = {key: (lambda g: (lambda x: g(tuple(c + a for c, a in zip(x, shift)))))(g)
                 for key, g in B.components.items()}
        return MagneticField(n=B.n, components=comps, degree=B.degree)
    if Q.kind == "direction":
        x0 = Q.project_point(B.n)
        comps = {}
        for key, g in B.components.items():
            def frozen(x, g=g):
                return g(tuple(np.broadcast_to(a, np.shape(c)) for c, a in zip(x, x0)))

            comps[key] = frozen
        return MagneticField(n=B.n, components=comps, degree=0)  # frozen at x0
    raise ValueError(f"quasi-orbit {Q.label!r} has no projection rule ({Q.kind!r})")
