"""Twisted product: pullback, direct quadrature, asymptotic expansion."""

import numpy as np
import pytest

from magweyl.grid import make_grid
from magweyl.magnetics import (
    FluxQuadrature,
    MagneticField,
    VectorPotential,
    transversal_gauge,
)
from magweyl.moyal import (
    expansion_contributions,
    expansion_sum,
    expansion_term,
    flux_phase_derivative,
    flux_phase_derivative_fd,
    moyal_direct,
    moyal_pullback,
    remainder_order,
)
from magweyl.quantize import Gauge, quantize
from magweyl.symbols import Symbol

X0 = np.array([[0.7]])
XI0 = np.array([[0.4]])


def test_order_zero_is_pointwise_product():
    f = Symbol.from_expression("x1^2 * xi1", 1, m=1)
    g = Symbol.from_expression("sin(x1) + xi1^2", 1, m=2)
    B = MagneticField.from_expressions(1, {})
    h0 = expansion_term(f, g, B, 0)
    expect = (0.7**2 * 0.4) * (np.sin(0.7) + 0.4**2)
    assert complex(h0.fn(X0, XI0)[0]) == pytest.approx(expect, abs=1e-12)


def test_order_one_is_half_poisson_bracket():
    # h1 = (i/2) (d_x f d_xi g - d_xi f d_x g), independent of B
    f = Symbol.from_expression("x1^2 * xi1", 1, m=1)
    g = Symbol.from_expression("sin(x1) + xi1^2", 1, m=2)
    dxf, dxif = 2 * 0.7 * 0.4, 0.7**2
    dxg, dxig = np.cos(0.7), 2 * 0.4
    expect = 0.5j * (dxf * dxig - dxif * dxg)
    for B in (MagneticField.from_expressions(1, {}),
              MagneticField.from_expressions(2, {(1, 2): "tanh(x1)"})):
        fb = f if B.n == 1 else Symbol.from_expression("x1^2 * xi1", 2, m=1)
        gb = g if B.n == 1 else Symbol.from_expression("sin(x1) + xi1^2", 2, m=2)
        x = X0 if B.n == 1 else np.array([[0.7, 0.0]])
        xi = XI0 if B.n == 1 else np.array([[0.4, 0.0]])
        h1 = expansion_term(fb, gb, B, 1)
        assert complex(h1.fn(x, xi)[0]) == pytest.approx(complex(expect), abs=1e-10)


def test_momentum_commutator_is_i_times_field():
    # xi1 # xi2 - xi2 # xi1 = i B_12 exactly, from the order-2 flux term
    # (sign convention: magweyl.quantize module docstring)
    b = 0.7
    B = MagneticField.constant(2, b)
    f1 = Symbol.from_expression("xi1", 2, m=1)
    f2 = Symbol.from_expression("xi2", 2, m=1)
    x = np.array([[0.3, -0.2], [1.0, 2.0]])
    xi = np.array([[0.1, 0.5], [-0.4, 0.0]])
    s12 = expansion_sum(f1, f2, B, 3).fn(x, xi)
    s21 = expansion_sum(f2, f1, B, 3).fn(x, xi)
    np.testing.assert_allclose(s12 - s21, 1j * b, atol=1e-12)


def test_position_momentum_commutator_on_states():
    # [Op(x1), Op(xi1)] u = i u for localized band-limited u
    g = make_grid(1, 16.0, 64)
    gauge = Gauge(VectorPotential.zero(1), g)
    Mx = quantize(Symbol.from_expression("x1", 1, m=0), gauge).matrix
    Mxi = quantize(Symbol.from_expression("xi1", 1, m=1), gauge).matrix
    u = np.exp(-g.x_nodes**2)
    comm = (Mx @ Mxi - Mxi @ Mx) @ u
    np.testing.assert_allclose(comm, 1j * u, atol=1e-10)


def test_flux_phase_derivative_closed_forms():
    B = MagneticField.from_expressions(2, {(1, 2): "1 + tanh(x1)*x2"})
    x = np.array([0.4, -0.3])
    # order 0 and 1
    assert flux_phase_derivative(B, (0, 0), (0, 0), x) == pytest.approx(1.0)
    assert flux_phase_derivative(B, (1, 0), (0, 0), x) == pytest.approx(0.0)
    # the mixed second derivative sees -2i B_jk
    val = flux_phase_derivative(B, (1, 0), (0, 1), x)
    expect = -2j * B.component(1, 2)(x)
    assert complex(val) == pytest.approx(complex(expect), abs=1e-12)


@pytest.mark.parametrize("my,mz", [
    ((1, 0), (0, 1)), ((2, 0), (0, 0)), ((1, 1), (0, 0)),
    ((2, 0), (0, 1)), ((1, 0), (0, 2)), ((1, 1), (1, 0)),
    ((0, 1), (1, 1)), ((3, 0), (0, 0)),
])
def test_flux_phase_derivative_matches_finite_differences(my, mz):
    B = MagneticField.from_expressions(2, {(1, 2): "1 + 0.5*tanh(x1) + 0.3*x2"})
    x = np.array([0.4, -0.3])
    closed = flux_phase_derivative(B, my, mz, x)
    fd = flux_phase_derivative_fd(B, my, mz, x)
    np.testing.assert_allclose(closed, fd, atol=5e-6)


def test_expansion_constants_are_exact_rationals():
    term = expansion_contributions(1, 2)
    for c in term.contributions:
        # the rational audit field carries the combinatorial magnitude;
        # the constant multiplies it by (i/2)^l
        mag = abs(c.constant)
        assert mag == pytest.approx(float(abs(c.rational)) * 0.25, rel=1e-15)
    with pytest.raises(ValueError):
        expansion_contributions(1, 4)


def test_pullback_reproduces_operator_product():
    g = make_grid(2, 8.0, 12)
    A = VectorPotential.from_expressions(2, ["-0.3*x2", "0.3*x1"])
    f = Symbol.from_expression("exp(-xi1^2-xi2^2)*1/(1+x1^2)", 2, m=0)
    h = Symbol.from_expression("exp(-0.5*xi1^2-0.5*xi2^2)*sin(x2)", 2, m=0)
    gauge = Gauge(A, g)
    prod = moyal_pullback(f, h, gauge)
    M = quantize(prod, gauge).matrix
    P = quantize(f, gauge).matrix @ quantize(h, gauge).matrix
    np.testing.assert_allclose(M, P, atol=1e-12 * max(1.0, np.abs(P).max()))


def test_pullback_is_gauge_independent():
    g = make_grid(2, 8.0, 12)
    A1 = VectorPotential.from_expressions(2, ["-0.3*x2", "0.3*x1"])
    A2 = VectorPotential.from_expressions(2, ["-0.6*x2", "0"])
    f = Symbol.from_expression("exp(-xi1^2-xi2^2)*1/(1+x1^2)", 2, m=0)
    h = Symbol.from_expression("exp(-0.5*xi1^2-0.5*xi2^2)*sin(x2)", 2, m=0)
    t1 = moyal_pullback(f, h, Gauge(A1, g))
    t2 = moyal_pullback(f, h, Gauge(A2, g))
    np.testing.assert_allclose(t1.table, t2.table, atol=1e-10)


def test_direct_quadrature_gaussian_oracle():
    # for n = 1, B = 0: (e^{-x^2-xi^2} # e^{-x^2-xi^2})(0, 0) = 1/2
    f = Symbol.from_expression("exp(-x1^2-xi1^2)", 1, m=0)
    B = MagneticField.from_expressions(1, {})
    X = np.zeros(2)
    val = moyal_direct(f, f, B, X)
    assert complex(val) == pytest.approx(0.5, abs=5e-3)
    with pytest.raises(ValueError):
        moyal_direct(f, f, B, X, points=32)


def test_x_independent_factors_have_no_remainder_without_field():
    # with B = 0, x-independent symbols compose as Fourier multipliers, so
    # the depth-1 expansion (pointwise product) is already exact
    g = make_grid(1, 12.8, 64)
    B = MagneticField.from_expressions(1, {})
    gauge = Gauge(VectorPotential.zero(1), g)
    f = Symbol.from_expression("jap(xi1)", 1, m=1)
    h = Symbol.from_expression("jap(xi1)^2", 1, m=2)
    prod = moyal_pullback(f, h, gauge)
    expn = expansion_sum(f, h, B, 1)
    mid = g.N // 2
    xi = g.xi_nodes[:, None]
    x0 = np.zeros_like(xi)
    direct = quantize(prod, gauge).matrix
    ref = quantize(Symbol.from_expression("jap(xi1)^3", 1, m=3), gauge).matrix
    np.testing.assert_allclose(direct, ref, atol=1e-9 * np.abs(ref).max())
    np.testing.assert_allclose(expn.fn(x0, xi), f.fn(x0, xi) * h.fn(x0, xi),
                               atol=1e-12)


def test_remainder_order_fit_runs_and_flags_window():
    g = make_grid(1, 12.8, 128)
    B = MagneticField.from_expressions(1, {})
    gauge = Gauge(VectorPotential.zero(1), g)
    f = Symbol.from_expression(
        "(1+0.5*sin(1.3*x1+0.7)*exp(-x1^2))*jap(xi1)", 1, m=1)
    h = Symbol.from_expression(
        "(1-0.3*sin(0.9*x1-0.4)*exp(-x1^2))*jap(xi1)", 1, m=1)
    fit = remainder_order(f, h, B, gauge, depth=1)
    assert fit.xi_values.min() >= 1.5
    assert np.all(fit.residuals > 0)
    # depth-1 remainder of two order-1 factors decays no faster than the
    # depth-2 remainder of the same pair
    fit2 = remainder_order(f, h, B, gauge, depth=2)
    assert fit2.slope < fit.slope + 0.5
    # on this small grid the default window spans less than a decade and the
    # fit says so
    assert bool(fit.narrow_range)


@pytest.mark.filterwarnings("ignore:remainder fit window")
def test_remainder_order_widens_only_a_window_with_fewer_than_two_momenta():
    f = Symbol.from_expression("xi1 + arctan(x1)", 2, m=1)
    h = Symbol.from_expression("xi2 + exp(-x2^2)", 2, m=1)
    B = MagneticField.constant(2, 0.7)
    # L=8, N=16: [1.5, 0.25 * 7 * dxi] holds no node; the fit reads the first
    # two nodes at or above 1.5, 2 dxi and 3 dxi
    g = make_grid(2, 8.0, 16)
    fit = remainder_order(f, h, B, Gauge(transversal_gauge(B), g), depth=2)
    np.testing.assert_array_equal(fit.xi_values, g.xi_nodes[[10, 11]])
    assert fit.widened and fit.narrow_range
    # L=4, N=32 holds 3 nodes, and keeps its window
    g = make_grid(2, 4.0, 32)
    fit = remainder_order(f, h, B, Gauge(transversal_gauge(B), g), depth=2)
    xi = g.xi_nodes
    np.testing.assert_array_equal(fit.xi_values, xi[(xi >= 1.5) & (xi <= 0.25 * xi.max())])
    assert len(fit.xi_values) == 3 and not fit.widened
