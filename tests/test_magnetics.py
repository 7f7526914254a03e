"""Fields, potentials, fluxes, circulations, and the flux 2-cocycle."""

import dataclasses
import importlib

import numpy as np
import pytest
from scipy.special import roots_legendre

from magweyl.grid import make_grid
from magweyl.magnetics import (
    DEFAULT_QUAD,
    FluxQuadrature,
    MagneticField,
    VectorPotential,
    _node_sum,
    circulation,
    exact_order,
    flux_triangle,
    gamma_B,
    gauge_shift,
    omega_cocycle,
    transversal_gauge,
)
from magweyl.quantize import circulation_matrix

QUAD16 = FluxQuadrature(order=16)


def test_constant_field_flux_is_signed_area():
    B = MagneticField.constant(2, 1.0)
    v0, v1, v2 = np.array([0.0, 0.0]), np.array([1.0, 0.0]), np.array([0.0, 1.0])
    assert flux_triangle(B, v0, v1, v2) == pytest.approx(0.5, abs=1e-12)
    # orientation flip changes the sign
    assert flux_triangle(B, v0, v2, v1) == pytest.approx(-0.5, abs=1e-12)
    # degenerate triangle has zero flux
    assert flux_triangle(B, v0, v1, v1) == pytest.approx(0.0, abs=1e-14)


def test_linear_field_flux_moment_oracle():
    # B_12 = x1 over the unit triangle: integral of x1 equals 1/6
    B = MagneticField.from_expressions(2, {(1, 2): "x1"})
    v0, v1, v2 = np.array([0.0, 0.0]), np.array([1.0, 0.0]), np.array([0.0, 1.0])
    assert flux_triangle(B, v0, v1, v2) == pytest.approx(1.0 / 6.0, abs=1e-12)


def test_flux_batched():
    B = MagneticField.constant(2, 2.0)
    rng = np.random.default_rng(3)
    v0 = rng.normal(size=(7, 2))
    v1 = v0 + rng.normal(size=(7, 2))
    v2 = v0 + rng.normal(size=(7, 2))
    batch = flux_triangle(B, v0, v1, v2)
    singles = [flux_triangle(B, v0[i], v1[i], v2[i]) for i in range(7)]
    np.testing.assert_allclose(batch, singles, atol=1e-12)


def test_gamma_B_equals_triangle_flux():
    # gamma_B(x, y, z) integrates B over <x-y-z, x+y-z, x-y+z>
    fields = [
        MagneticField.constant(2, 0.8),
        MagneticField.from_expressions(2, {(1, 2): "x1*x2"}),
        MagneticField.from_expressions(2, {(1, 2): "tanh(x1) + 0.5*tanh(x2)"}),
    ]
    rng = np.random.default_rng(5)
    for B in fields:
        x, y, z = rng.uniform(-1.5, 1.5, size=(3, 100, 2))
        lhs = gamma_B(B, x, y, z, QUAD16)
        rhs = flux_triangle(B, x - y - z, x + y - z, x - y + z, QUAD16)
        np.testing.assert_allclose(lhs, rhs, atol=1e-8)


def test_circulation_linear_potential_exact():
    # A = (x2, -x1): line integral along [p, q] has a closed form
    A = VectorPotential.from_expressions(2, ["x2", "-x1"])
    p = np.array([0.3, -0.7])
    q = np.array([1.1, 0.4])
    d = q - p
    mid = 0.5 * (p + q)
    expect = d[0] * mid[1] - d[1] * mid[0]
    assert circulation(A, p, q) == pytest.approx(expect, abs=1e-12)


def test_transversal_gauge_reproduces_field():
    # curl of the transversal gauge equals B (checked by finite differences)
    B = MagneticField.from_expressions(2, {(1, 2): "1 + 1/(1+x1^2)"})
    A = transversal_gauge(B, QUAD16)
    h = 1e-5
    rng = np.random.default_rng(8)
    for x0 in rng.uniform(-2, 2, size=(10, 2)):
        e1, e2 = np.array([h, 0.0]), np.array([0.0, h])
        dA2_d1 = (A.evaluate(x0 + e1)[1] - A.evaluate(x0 - e1)[1]) / (2 * h)
        dA1_d2 = (A.evaluate(x0 + e2)[0] - A.evaluate(x0 - e2)[0]) / (2 * h)
        assert dA2_d1 - dA1_d2 == pytest.approx(B.component(1, 2)(x0), abs=1e-8)


def test_transversal_gauge_constant_field_is_symmetric_gauge():
    B = MagneticField.constant(2, 2.0)
    A = transversal_gauge(B)
    x = np.array([0.7, -0.4])
    np.testing.assert_allclose(A.evaluate(x), [-1.0 * x[1], 1.0 * x[0]], atol=1e-12)


def test_cocycle_identity_and_normalization():
    B = MagneticField.from_expressions(2, {(1, 2): "1 + 1/(1+x1^2)"})
    rng = np.random.default_rng(17)
    q, x, y, z = rng.uniform(-1.0, 1.0, size=(4, 200, 2))
    lhs = omega_cocycle(B, q, x, y, QUAD16) * omega_cocycle(B, q, x + y, z, QUAD16)
    rhs = omega_cocycle(B, q + x, y, z, QUAD16) * omega_cocycle(B, q, x, y + z, QUAD16)
    np.testing.assert_allclose(lhs, rhs, atol=1e-8)
    # normalization is exact (degenerate triangles)
    ones = omega_cocycle(B, q, x, np.zeros_like(y), QUAD16)
    np.testing.assert_array_equal(ones, np.ones_like(ones))
    assert np.all(np.abs(np.abs(lhs) - 1.0) < 1e-14)  # unimodular


def test_gauge_shift_changes_circulation_by_endpoints():
    B = MagneticField.constant(2, 1.0)
    A = transversal_gauge(B)
    psi = lambda x: np.sin(np.asarray(x)[..., 0]) * np.asarray(x)[..., 1]
    grad = lambda x: np.stack([
        np.cos(np.asarray(x)[..., 0]) * np.asarray(x)[..., 1],
        np.sin(np.asarray(x)[..., 0])], axis=-1)
    A2 = gauge_shift(A, grad_psi=grad)
    p = np.array([0.2, 0.5])
    q = np.array([-1.0, 1.3])
    diff = circulation(A2, p, q, QUAD16) - circulation(A, p, q, QUAD16)
    assert diff == pytest.approx(psi(q) - psi(p), abs=1e-10)


def test_field_component_antisymmetry():
    B = MagneticField.from_expressions(2, {(1, 2): "x1"})
    x = np.array([1.5, 0.0])
    assert B.component(2, 1)(x) == pytest.approx(-1.5)
    assert B.component(1, 1)(x) == pytest.approx(0.0)
    with pytest.raises(ValueError):
        MagneticField(n=2, components={(2, 1): lambda x: 0.0})


def test_zero_and_constant_builders():
    assert MagneticField.constant(1, 0.0).is_zero()
    with pytest.raises(ValueError):
        MagneticField.constant(1, 1.0)
    A0 = VectorPotential.zero(2)
    assert A0.is_zero()
    np.testing.assert_array_equal(A0.evaluate(np.zeros(2)), np.zeros(2))


def test_quadrature_order_validation():
    with pytest.raises(ValueError):
        FluxQuadrature(order=0)


# -- exact-order quadrature for polynomial data ------------------------------


def _unknown_degree(F):
    """The same field or potential with the degree forgotten (the nominal rule)."""
    return dataclasses.replace(F, degree=None)


def test_exact_order_rule():
    assert exact_order(DEFAULT_QUAD, None) == 8
    assert exact_order(FluxQuadrature(order=3), None, weight=1) == 3
    assert [exact_order(DEFAULT_QUAD, k) for k in range(6)] == [1, 1, 2, 2, 3, 3]
    assert exact_order(DEFAULT_QUAD, 0, weight=1) == 1
    assert exact_order(DEFAULT_QUAD, 1, weight=1) == 2
    assert exact_order(FluxQuadrature(order=4), 20) == 4  # capped


def test_degree_metadata():
    assert MagneticField.constant(2, 0.7).degree == 0
    assert MagneticField.constant(2, 0.0).degree == 0
    assert VectorPotential.zero(2).degree == 0
    B = MagneticField.from_expressions(2, {(1, 2): "0.3 + x1*x2"})
    assert B.degree == 2
    assert transversal_gauge(B).degree == 3
    assert transversal_gauge(MagneticField.constant(2, 0.7)).degree == 1
    assert transversal_gauge(MagneticField.constant(2, 0.0)).degree == 0
    B_np = MagneticField.from_expressions(2, {(1, 2): "1/(1+x1^2)"})
    assert B_np.degree is None
    assert transversal_gauge(B_np).degree is None
    assert MagneticField.from_expressions(2, {}).degree == 0
    A = VectorPotential.from_expressions(2, ["-x2^2", "x1"])
    assert A.degree == 2
    assert VectorPotential.from_expressions(2, ["x2", "exp(x1)"]).degree is None
    assert gauge_shift(A, grad_psi=lambda x: np.zeros(np.shape(x))).degree is None
    # objects built by hand have unknown degree
    assert VectorPotential(2, A.fn).degree is None
    assert MagneticField(n=2, components=B.components).degree is None


@pytest.mark.parametrize("exprs", [
    ("-1.03*x2/2", "1.03*x1/2"),                  # linear (symmetric gauge)
    ("0.2*x2 - 0.3*x1*x2", "0.4*x1^2 + x2 - 1"),  # quadratic
    ("x2^3 - x1", "x1*x2^2 + 0.5*x1^3"),          # cubic
])
def test_circulation_matrix_of_polynomial_gauges_matches_the_nominal_rule(exprs):
    g = make_grid(2, 10.0, 12)
    A = VectorPotential.from_expressions(2, exprs)
    C = circulation_matrix(A, g)
    C_nominal = circulation_matrix(_unknown_degree(A), g)
    assert np.abs(C - C_nominal).max() <= 1e-13 * np.abs(C_nominal).max()


def test_transversal_gauge_of_constant_field_is_the_expression_symmetric_gauge():
    g = make_grid(2, 12.0, 12)
    A = transversal_gauge(MagneticField.constant(2, 0.7))
    A_expr = VectorPotential.from_expressions(2, ["-0.35*x2", "0.35*x1"])
    np.testing.assert_array_equal(circulation_matrix(A, g), circulation_matrix(A_expr, g))


def test_transversal_gauge_of_polynomial_field_matches_order_16():
    B = MagneticField.from_expressions(2, {(1, 2): "0.5 - 0.3*x1 + 0.2*x1*x2^2"})
    x = np.random.default_rng(11).uniform(-4.0, 4.0, size=(50, 2))
    A = transversal_gauge(B).evaluate(x)
    A16 = transversal_gauge(_unknown_degree(B), QUAD16).evaluate(x)
    np.testing.assert_allclose(A, A16, rtol=1e-13, atol=1e-13 * np.abs(A16).max())


@pytest.mark.parametrize("text", ["0.8", "0.3 + 0.5*x1 - 0.2*x2", "x1*x2 - 0.4*x2^2"])
def test_flux_and_cocycle_of_polynomial_fields_match_order_16(text):
    B = MagneticField.from_expressions(2, {(1, 2): text})
    B16 = _unknown_degree(B)
    rng = np.random.default_rng(13)
    q, x, y = rng.uniform(-3.0, 3.0, size=(3, 200, 2))
    flux = flux_triangle(B, q, q + x, q + x + y)
    flux16 = flux_triangle(B16, q, q + x, q + x + y, QUAD16)
    np.testing.assert_allclose(flux, flux16, rtol=0, atol=1e-13 * np.abs(flux16).max())
    np.testing.assert_allclose(omega_cocycle(B, q, x, y), omega_cocycle(B16, q, x, y, QUAD16),
                               rtol=0, atol=1e-12)
    np.testing.assert_allclose(gamma_B(B, q, x, y), gamma_B(B16, q, x, y, QUAD16),
                               rtol=0, atol=1e-13 * np.abs(flux16).max())


def test_non_polynomial_gauge_keeps_the_nominal_rule_bit_for_bit():
    g = make_grid(2, 8.0, 8)
    A = VectorPotential.from_expressions(2, ["arctan(x2)", "x1*exp(-x1^2/4)"])
    assert A.degree is None
    # the eight-node rule on [0, 1], written out
    t, w = roots_legendre(8)
    nodes, weights = 0.5 * t + 0.5, 0.5 * w
    X = g.x_flat()
    x, y = X[:, None, :], X[None, :, :]
    d = y - x
    pts = x[..., None, :] + nodes[:, None] * d[..., None, :]
    expect = np.sum(weights * np.sum(A.evaluate(pts) * d[..., None, :], axis=-1), axis=-1)
    C = circulation_matrix(A, g)
    upper = np.triu_indices(g.npoints, 1)
    np.testing.assert_array_equal(C[upper], expect[upper])
    assert np.array_equal(C, -C.T)


def _transversal_reference(B, x):
    """The transversal gauge written out one component at a time:
    A_k(x) = -sum_j x_j sum_s w_s s B_kj(s x), j in increasing order."""
    sn, sw = roots_legendre(exact_order(DEFAULT_QUAD, B.degree, weight=1))
    sn, sw = 0.5 * sn + 0.5, 0.5 * sw
    pts = sn[:, None] * x[..., None, :]
    out = np.empty(x.shape)
    for k in range(1, B.n + 1):
        acc = np.zeros(x.shape[:-1])
        for j in range(1, B.n + 1):
            if j != k and (min(j, k), max(j, k)) in B.components:
                acc = acc - x[..., j - 1] * np.sum(sw * sn * B.component(k, j)(pts), axis=-1)
        out[..., k - 1] = acc
    return out


@pytest.mark.parametrize("n, exprs", [
    (2, {(1, 2): "1 + 1/(1+x1^2)"}),
    (3, {(1, 2): "1 + x3/(1+x1^2)", (1, 3): "sin(x2)", (2, 3): "0.3*x1*x3 + exp(-x2^2)"}),
    (3, {(1, 3): "cos(x2)*x1"}),
])
def test_transversal_gauge_samples_each_field_component_once_bit_for_bit(n, exprs):
    B = MagneticField.from_expressions(n, exprs)
    x = np.random.default_rng(5).uniform(-4.0, 4.0, size=(7, 5, n))
    assert np.array_equal(transversal_gauge(B).evaluate(x), _transversal_reference(B, x))


def _rule(order):
    """Gauss-Legendre nodes and weights on [0, 1], written out."""
    t, w = roots_legendre(order)
    return 0.5 * t + 0.5, 0.5 * w


def _nested_transversal_circulation(B, x, y):
    """The circulation of the transversal gauge as its nested rule, point-major:
    sum_t w_t A(x + t d).d with A_k(p) = -sum_j p_j sum_s w_s s B_kj(s p)."""
    tn, tw = _rule(exact_order(DEFAULT_QUAD, None if B.degree is None else B.degree + 1))
    sn, sw = _rule(exact_order(DEFAULT_QUAD, B.degree, weight=1))
    d = y - x
    p = x[..., None, :] + tn[:, None] * d[..., None, :]  # (..., q_t, n)
    ps = sn[:, None] * p[..., None, :]  # (..., q_t, q_s, n)
    A = np.empty(p.shape)
    for k in range(1, B.n + 1):
        acc = np.zeros(p.shape[:-1])
        for j in range(1, B.n + 1):
            if j != k and (min(j, k), max(j, k)) in B.components:
                acc = acc - p[..., j - 1] * np.sum(sw * sn * B.component(k, j)(ps), axis=-1)
        A[..., k - 1] = acc
    return np.sum(tw * np.sum(A * d[..., None, :], axis=-1), axis=-1)


def test_transversal_circulation_matrix_is_the_nested_rule_bit_for_bit():
    g = make_grid(2, 8.0, 8)
    B = MagneticField.from_expressions(2, {(1, 2): "1 + 0.5/(1+x1^2) + 0.2*sin(x2)"})
    X = g.x_flat()
    expect = _nested_transversal_circulation(B, X[:, None, :], X[None, :, :])
    C = circulation_matrix(transversal_gauge(B), g)
    upper = np.triu_indices(g.npoints, 1)
    assert np.array_equal(C[upper], expect[upper])


def test_transversal_circulation_in_3d_is_the_nested_rule_bit_for_bit():
    B = MagneticField.from_expressions(3, {(1, 2): "1 + x3/(1+x1^2)", (1, 3): "sin(x2)",
                                           (2, 3): "0.3*x1*x3 + exp(-x2^2)"})
    x, y = np.random.default_rng(9).uniform(-4.0, 4.0, size=(2, 6, 7, 3))
    expect = _nested_transversal_circulation(B, x, y)
    assert np.array_equal(circulation(transversal_gauge(B), x, y), expect)
    # one start point against a batch of end points broadcasts the same way
    assert np.array_equal(circulation(transversal_gauge(B), x[0, 0], y),
                          _nested_transversal_circulation(B, x[0, 0], y))


def _nested_circulation(A, x, y):
    """The circulation of a potential as its nested rule, point-major:
    sum_t w_t A(x + t d).d."""
    tn, tw = _rule(exact_order(DEFAULT_QUAD, A.degree))
    d = y - x
    p = x[..., None, :] + tn[:, None] * d[..., None, :]  # (..., q_t, n)
    return np.sum(tw * np.sum(A.evaluate(p) * d[..., None, :], axis=-1), axis=-1)


_FIELD_AXES = {"x1-only": "1 + 0.5/(1+x1^2)", "x2-only": "1 + 0.5/(1+x2^2)",
               "both": "1 + 0.5*exp(-(x1^2+x2^2)/4)"}
_EXPLICIT_GAUGES = {"symmetric": ["-0.35*x2", "0.35*x1"], "landau": ["0", "0.7*x1"]}


def _broadcast_case(case):
    """(potential, its circulation written out point-major) for one case."""
    if case in _EXPLICIT_GAUGES:
        A = VectorPotential.from_expressions(2, _EXPLICIT_GAUGES[case])
        return A, lambda x, y: _nested_circulation(A, x, y)
    B = (MagneticField.constant(2, 0.7) if case == "constant"
         else MagneticField.from_expressions(2, {(1, 2): _FIELD_AXES[case]}))
    return transversal_gauge(B), lambda x, y: _nested_transversal_circulation(B, x, y)


@pytest.mark.parametrize("budget", [None, 40], ids=["whole-groups", "split-groups"])
@pytest.mark.parametrize("case", [*_FIELD_AXES, "constant", *_EXPLICIT_GAUGES])
def test_the_broadcast_circulation_fill_is_the_nested_rule_bit_for_bit(case, budget, monkeypatch):
    g = make_grid(2, 8.0, 8)
    A, nested = _broadcast_case(case)
    if budget is not None:
        # one (i1, j1) group of N x N pairs exceeds the budget and is split along j2
        monkeypatch.setattr(importlib.import_module("magweyl.quantize"), "_POINTS", budget)
        assert g.N * g.N * exact_order(DEFAULT_QUAD, A.degree) > budget
    X = g.x_flat()
    expect = nested(X[:, None, :], X[None, :, :])
    upper = np.triu_indices(g.npoints, 1)
    C = circulation_matrix(A, g)
    assert np.array_equal(C[upper], expect[upper])
    assert np.array_equal(C, -C.T)


@pytest.mark.parametrize("budget", [None, 40], ids=["whole-groups", "split-groups"])
def test_a_component_that_reads_x1_only_is_evaluated_along_x1_only(budget, monkeypatch):
    shapes = []

    def component(x):
        shapes.append(tuple(np.shape(c) for c in x))
        return 1.0 + 0.5 / (1.0 + x[0] * x[0])

    B = MagneticField(n=2, components={(1, 2): component})
    g = make_grid(2, 8.0, 8)
    X = g.x_flat()
    expect = _nested_transversal_circulation(B, X[:, None, :], X[None, :, :])
    if budget is not None:
        monkeypatch.setattr(importlib.import_module("magweyl.quantize"), "_POINTS", budget)
    upper = np.triu_indices(g.npoints, 1)
    shapes.clear()
    C = circulation_matrix(transversal_gauge(B), g)
    assert np.array_equal(C[upper], expect[upper])
    # axes (s, t, i2, j1, j2): x1 keeps singleton i2 and j2 axes, x2 a singleton j1 axis
    assert shapes and all(len(x1) == len(x2) == 5 and x1[2] == x1[4] == x2[3] == 1
                          for x1, x2 in shapes)
    if budget is None:
        # q_s q_t nodes per column group j1 >= i1 of each row block i1
        assert sum(np.prod(x1) for x1, _ in shapes) == 8 * 8 * g.N * (g.N + 1) // 2


@pytest.mark.parametrize("q", [1, 2, 5, 7, 8, 9, 16, 23, 128, 131, 300])
def test_node_sum_is_np_sum_over_a_contiguous_last_axis_bit_for_bit(q):
    rng = np.random.default_rng(q)
    terms = rng.standard_normal((q, 30, 4)) * 10.0 ** rng.integers(-12, 12, size=(q, 30, 4))
    terms[:, 0, 0] = -0.0  # np.sum adds its identity 0.0: an all -0.0 sum is +0.0
    terms[:, 0, 1] = 0.0
    terms[: q // 2, 0, 2] = -0.0
    terms[0, 0, 3] = np.inf
    expect = np.sum(np.ascontiguousarray(np.moveaxis(terms, 0, -1)), axis=-1)
    assert _node_sum(terms.copy()).tobytes() == expect.tobytes()


def test_gauge_shift_calls_the_gradient_once_per_evaluation():
    A = VectorPotential.from_expressions(2, ["-arctan(x2)", "x1"])
    calls = []

    def grad_psi(x):
        calls.append(np.shape(x))
        return np.stack([np.cos(x[..., 0]) * x[..., 1], np.sin(x[..., 0])], axis=-1)

    x = np.random.default_rng(3).uniform(-2.0, 2.0, size=(4, 6, 2))
    shifted = gauge_shift(A, grad_psi=grad_psi).evaluate(x)
    assert calls == [(4, 6, 2)]
    assert np.array_equal(shifted, A.evaluate(x) + grad_psi(x))
