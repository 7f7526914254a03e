"""Symbol classes: seminorms, ellipticity, derivatives, quasi-orbit projections."""

import tracemalloc

import numpy as np
import pytest

from magweyl.grid import make_grid
from magweyl.inversion import _sampled_inf
from magweyl.magnetics import MagneticField
from magweyl.spectral import _default_merge_tol
from magweyl import expressions
from magweyl.symbols import (
    _ast_callable,
    _phase_mesh,
    CoefficientAlgebra,
    QuasiOrbit,
    Symbol,
    is_elliptic,
    japanese_bracket,
    project_field,
    project_quasiorbit,
    seminorm,
    seminorm_samples,
)

GRID = make_grid(1, 16.0, 64)


def test_japanese_bracket():
    assert japanese_bracket(np.array([0.0])) == pytest.approx(1.0)
    assert japanese_bracket(np.array([3.0, 4.0])) == pytest.approx(np.sqrt(26.0))


def test_from_expression_metadata():
    f = Symbol.from_expression("xi1^2 + arctan(x1)", 1, m=2, rho=1, real=True)
    assert f.n == 1 and f.m == 2 and f.real and not f.x_independent
    g = Symbol.from_expression("jap(xi1)", 1, m=1)
    assert g.x_independent
    with pytest.raises(ValueError):
        Symbol.from_expression("xi1", 1, rho=0.5, delta=0.7)  # delta > rho


def test_analytic_derivatives():
    f = Symbol.from_expression("x1^2 * xi1^3", 1)
    d = f.derivative((1,), (2,))
    x = np.array([1.5])
    xi = np.array([-2.0])
    # d/dx d^2/dxi^2: 2*x * 6*xi = 12 * x * xi
    assert complex(d(x, xi)) == pytest.approx(12.0 * 1.5 * -2.0)


def test_finite_difference_fallback():
    f = Symbol.from_callable(
        lambda x, xi: np.sin(x[..., 0]) * np.exp(-xi[..., 0] ** 2), 1)
    d = f.derivative((1,), (0,))
    x = np.array([0.4])
    xi = np.array([0.3])
    assert complex(d(x, xi)) == pytest.approx(
        np.cos(0.4) * np.exp(-0.09), abs=1e-8)
    with pytest.raises(ValueError):
        f.derivative((2,), (1,))  # beyond the finite-difference order 2


def test_seminorm_weighting():
    # f = <xi>^2 in S^2: the order-0 seminorm is exactly 1
    f = Symbol.from_expression("jap(xi1)^2", 1, m=2, rho=1)
    assert seminorm(f, (0,), (0,), GRID) == pytest.approx(1.0, abs=1e-12)
    # d_xi <xi>^2 = 2 xi, weight <xi>^(-1): sup 2|xi|/<xi> -> 2, attained in
    # the lattice corner up to the 1/<xi_max>^2 gap
    val = seminorm(f, (1,), (0,), GRID)
    assert 1.98 <= val <= 2.0


def test_seminorm_samples_agrees_with_analytic():
    f = Symbol.from_expression("sin(x1)*1/(1+xi1^2)", 1, m=0)
    x, xi = GRID.x_mesh(), GRID.xi_mesh()
    vals = f.fn(x[:, None, :], xi[None, :, :])
    exact = seminorm(f, (0,), (0,), GRID)
    sampled = seminorm_samples(vals, GRID, m=0)
    assert sampled == pytest.approx(exact, rel=1e-10)


def test_is_elliptic():
    f = Symbol.from_expression("xi1^2 + arctan(x1)", 1, m=2, real=True)
    assert is_elliptic(f, R=3.0, C=1e-3, region=GRID)
    g = Symbol.from_expression("cos(xi1)", 1, m=0)  # vanishes on a lattice ray
    assert not is_elliptic(g, R=3.0, C=1e-3, region=GRID)


def _is_elliptic_whole(f, R, C, grid):
    """is_elliptic over the whole P^2 phase-space table."""
    x, xi = _phase_mesh(grid)
    vals = np.abs(f(x, xi))
    mask = np.broadcast_to(np.linalg.norm(xi, axis=-1) > R, vals.shape)
    if not np.any(mask):
        return True
    return bool(np.min((vals / japanese_bracket(xi) ** f.m)[mask]) >= C)


def _min_ratio(f, R, grid):
    x, xi = _phase_mesh(grid)
    vals = np.abs(f(x, xi)) / japanese_bracket(xi) ** f.m
    return np.min(vals[np.broadcast_to(np.linalg.norm(xi, axis=-1) > R, vals.shape)])


@pytest.mark.parametrize("text, m, R", [("xi1^2 + arctan(x1)", 2, 3.0), ("cos(xi1)", 0, 3.0),
                                        ("xi1^2 + arctan(x1)", 2, 1e9)])
def test_the_blocked_ellipticity_test_is_the_whole_table_test(text, m, R):
    f = Symbol.from_expression(text, 1, m=m, real=True)
    for C in (1e-3, 0.5, 2.0):
        assert is_elliptic(f, R, C, GRID) == _is_elliptic_whole(f, R, C, GRID)


def test_the_blocked_ellipticity_test_is_exact_at_its_threshold():
    # a 2D symbol whose sampled ratio is the threshold itself, then one ulp below it
    g = make_grid(2, 12.0, 20)
    f = Symbol.from_expression("xi1^2 + xi2^2 + 0.5*arctan(x1) + 0.3*exp(-x2^2)", 2, m=2)
    R = 0.3 * np.max(g.xi_nodes)
    ratio = _min_ratio(f, R, g)
    for C in (ratio, np.nextafter(ratio, np.inf), ratio * (1.0 - 1e-12)):
        assert abs(C - ratio) <= 1e-12 * ratio
        assert is_elliptic(f, R, C, g) == _is_elliptic_whole(f, R, C, g) == (C <= ratio)


def test_the_ellipticity_test_holds_no_phase_space_table():
    # 2D N = 32: the whole table with its moduli and mask took 24 P^2 bytes
    g = make_grid(2, 12.0, 32)
    P = g.npoints
    f = Symbol.from_expression("xi1^2 + xi2^2 + 0.5*arctan(x1) + 0.3*exp(-x2^2)", 2, m=2)
    R = 0.3 * np.max(g.xi_nodes)
    is_elliptic(f, R, 1e-3, g)
    tracemalloc.start()
    try:
        assert is_elliptic(f, R, 1e-3, g)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 4 * P ** 2


def test_direction_orbit_projects_to_limit():
    f = Symbol.from_expression("xi1^2 + arctan(x1)", 1, m=2, real=True)
    Q = QuasiOrbit("plus", "direction", direction=(1.0,))
    fQ = project_quasiorbit(f, Q)
    assert fQ.x_independent
    assert fQ.m == f.m and fQ.real
    x = np.array([[0.0], [5.0]])
    xi = np.array([[2.0], [2.0]])
    vals = fQ.fn(x, xi)
    np.testing.assert_allclose(vals, 4.0 + np.pi / 2.0, atol=1e-7)
    # x-derivatives of the projection vanish
    d = fQ.derivative((1,), (0,))
    np.testing.assert_allclose(d(x, xi), 0.0, atol=1e-15)
    # xi-derivatives freeze the parent's
    dxi = fQ.derivative((0,), (1,))
    np.testing.assert_allclose(dxi(x, xi), 4.0, atol=1e-12)


def test_translate_orbit_shifts_argument():
    f = Symbol.from_expression("sin(x1) + xi1", 1, m=1)
    Q = QuasiOrbit("shifted", "translate", shift=(np.pi / 2.0,))
    fQ = project_quasiorbit(f, Q)
    x = np.array([0.0])
    xi = np.array([0.0])
    assert complex(fQ.fn(x, xi)) == pytest.approx(1.0, abs=1e-12)


_SHIFTED = QuasiOrbit("shifted", "translate", shift=(2.0,))


def _translated():
    f = Symbol.from_expression("jap(xi1)^3 + xi1*arctan(x1) + sin(x1)", 1, m=3)
    x = np.linspace(-3.0, 3.0, 7)[:, None]
    xi = np.linspace(-5.0, 5.0, 7)[:, None]
    return f, project_quasiorbit(f, _SHIFTED), x, xi


def test_a_translated_expression_symbol_has_every_derivative_and_a_split():
    f, fQ, x, xi = _translated()
    d3 = fQ.derivative((0,), (3,))(x, xi)
    assert d3.tobytes() == f.derivative((0,), (3,))(x + 2.0, xi).tobytes()
    V, rest = fQ.split
    assert V(x).tobytes() == np.sin(x[:, 0] + 2.0).tobytes()
    assert str(rest.ast) == "jap(xi1)^3 + xi1*arctan(x1 + 2)"
    assert str(fQ.ast) == "jap(xi1)^3 + xi1*arctan(x1 + 2) + sin(x1 + 2)"


def test_a_translated_derivative_is_the_parents_at_the_shifted_point():
    f, fQ, x, xi = _translated()
    d1 = fQ.derivative((0,), (1,))(x, xi)
    assert d1.tobytes() == f.derivative((0,), (1,))(x + 2.0, xi).tobytes()


def test_a_projected_callable_keeps_its_fn_and_finite_differences():
    f = Symbol.from_expression("xi1^2 + arctan(x1)", 1, m=2, real=True)
    bare = Symbol.from_callable(f.fn, 1, m=2, real=True)
    x = np.array([[0.0], [5.0]])
    xi = np.array([[2.0], [2.0]])
    plus = project_quasiorbit(bare, QuasiOrbit("plus", "direction", direction=(1.0,)))
    assert plus.x_independent and plus.ast is None
    assert np.array_equal(plus(x, xi), f(np.full_like(x, 1e8), xi))
    np.testing.assert_allclose(plus.derivative((0,), (1,))(x, xi), 4.0, rtol=1e-9)
    shifted = project_quasiorbit(bare, _SHIFTED)
    assert not shifted.x_independent and shifted.ast is None
    assert np.array_equal(shifted(x, xi), f(x + 2.0, xi))
    with pytest.raises(ValueError, match="no AST"):
        shifted.derivative((0,), (3,))


def test_identity_orbit_is_identity():
    f = Symbol.from_expression("xi1^2", 1, m=2)
    Q = QuasiOrbit("triv", "identity")
    assert project_quasiorbit(f, Q) is f


def test_unknown_orbit_kind_rejected():
    f = Symbol.from_expression("xi1^2", 1, m=2)
    with pytest.raises(ValueError):
        project_quasiorbit(f, QuasiOrbit("bad", "mystery"))
    with pytest.raises(ValueError):
        QuasiOrbit("zero", "direction", direction=(0.0,)).project_point(1)


def test_an_x_independent_symbol_is_swept_at_one_position_node_bit_for_bit():
    # a direction orbit's rows are all equal: min, max and momentum gradients
    # over one node are those over the whole lattice
    g = make_grid(2, 12.0, 16)
    f = Symbol.from_expression("xi1^2 + 0.5*xi2^2 + xi1*xi2/4 + arctan(x1 - x2)", 2, m=2,
                               real=True)
    fQ = project_quasiorbit(f, QuasiOrbit("diag", "direction", direction=(1.0, -1.0)))
    assert fQ.x_independent
    x, xi = _phase_mesh(g)
    full = np.broadcast_to(fQ(x, xi), (g.N,) * 4)
    R = 0.3 * np.max(g.xi_nodes)
    mask = np.linalg.norm(xi, axis=-1) > R
    inf_ratio = np.min(np.abs(full)[:, :, mask[0, 0]] / japanese_bracket(xi)[mask] ** 2)
    assert is_elliptic(fQ, R, inf_ratio, g)
    assert not is_elliptic(fQ, R, np.nextafter(inf_ratio, np.inf), g)
    assert _sampled_inf(fQ, g) == np.min(full)
    grads = np.gradient(full, g.dxi, axis=(2, 3))
    top = np.sqrt(grads[0] ** 2 + grads[1] ** 2).max()
    assert _default_merge_tol([fQ], g) == 2.0 * g.dxi * top


def test_project_field_direction():
    B = MagneticField.from_expressions(2, {(1, 2): "1 + tanh(x1)"})
    Q = QuasiOrbit("plus", "direction", direction=(1.0, 0.0))
    BQ = project_field(B, Q)
    x = np.zeros((3, 2))
    np.testing.assert_allclose(BQ.component(1, 2)(x), 2.0, atol=1e-8)


def test_project_field_degree():
    B = MagneticField.from_expressions(2, {(1, 2): "1 + x1*x2"})
    shifted = project_field(B, QuasiOrbit("s", "translate", shift=(1.0, -2.0)))
    frozen = project_field(B, QuasiOrbit("plus", "direction", direction=(1.0, 0.0)))
    assert (B.degree, shifted.degree, frozen.degree) == (2, 2, 0)
    B_np = MagneticField.from_expressions(2, {(1, 2): "1 + tanh(x1)"})
    assert project_field(B_np, QuasiOrbit("s", "translate", shift=(1.0, 0.0))).degree is None
    assert project_field(B_np, QuasiOrbit("plus", "direction", direction=(1.0, 0.0))).degree == 0


def test_algebra_validation():
    with pytest.raises(ValueError):
        CoefficientAlgebra(kind="Exotic", quasi_orbits=(QuasiOrbit("q"),))
    with pytest.raises(ValueError):
        CoefficientAlgebra(kind="ConstantCoefficients", quasi_orbits=())
    alg = CoefficientAlgebra(kind="Periodic", quasi_orbits=(QuasiOrbit("q"),),
                             lattice=((2.0,),))
    assert alg.lattice == ((2.0,),)


@pytest.mark.parametrize("text", [
    "xi1^2 + xi2^2 + 0.5*arctan(x1) + 0.3*exp(-x2^2)",
    "-x1*xi2 + sin(xi1)",
    "2.5",
], ids=["bench", "signed-zeros", "constant"])
def test_a_real_expression_evaluates_to_float64_on_the_broadcast_shape(text):
    ast = expressions.parse_expression(text, n_dim=2)
    x = np.linspace(-2.0, 2.0, 5)[:, None, None] * np.array([1.0, 0.5])  # (5, 1, 2), x = 0 included
    xi = np.linspace(-3.0, 3.0, 7)[:, None] * np.array([1.0, -1.0])  # (7, 2)
    vals = _ast_callable(ast)(x, xi)
    assert vals.dtype == np.float64 and vals.shape == (5, 7)
    # the bytes of the real part of the complex evaluation it replaces
    old = expressions.evaluate(ast, x=x, xi=xi) + np.zeros((5, 7), dtype=complex)
    assert vals.tobytes() == old.real.tobytes()
    V = Symbol.from_expression("xi1^2 - 0.5*x1 - x2^2", 2).split[0]
    assert V(x).dtype == np.float64 and V(x).shape == (5, 1)
