"""Spectra, reference oracles, and quasi-orbit essential spectra."""

import numpy as np
import pytest

from magweyl.grid import make_grid
from magweyl.magnetics import MagneticField, VectorPotential
from magweyl.quantize import Gauge, quantize
from magweyl.spectral import (
    compare_bulk_vs_essential,
    essential_spectrum,
    landau_reference,
    spectrum,
)
from magweyl.symbols import CoefficientAlgebra, QuasiOrbit, Symbol

A0 = VectorPotential.zero(1)
B0 = MagneticField.from_expressions(1, {})

# ground-state energy of -u'' - 2 e^{-x^2} u, frozen from an independent
# shooting computation (solve_ivp from the decaying tail, bisection on u'(0))
WELL_GROUND_STATE = -0.9547799547653671


def test_multiplication_operator_spectrum_is_sampled_range():
    g = make_grid(1, 12.0, 32)
    f = Symbol.from_expression("arctan(x1)", 1, m=0, real=True)
    res = spectrum(quantize(f, Gauge(A0, g)))
    np.testing.assert_allclose(res.eigenvalues,
                               np.sort(np.arctan(g.x_nodes)), atol=1e-12)


def test_free_operator_spectrum_is_lattice_momenta():
    g = make_grid(1, 12.0, 32)
    f = Symbol.from_expression("xi1^2", 1, m=2, real=True)
    res = spectrum(quantize(f, Gauge(A0, g)))
    np.testing.assert_allclose(res.eigenvalues, np.sort(g.xi_nodes**2),
                               atol=1e-10)


def test_harmonic_oscillator_levels():
    g = make_grid(1, 20.0, 128)
    f = Symbol.from_expression("xi1^2 + x1^2", 1, m=2, real=True)
    res = spectrum(quantize(f, Gauge(A0, g)))
    np.testing.assert_allclose(res.eigenvalues[:8],
                               2.0 * np.arange(8) + 1.0, atol=1e-4)


def test_landau_reference_values():
    np.testing.assert_array_equal(landau_reference(2.0, k_max=2),
                                  [2.0, 6.0, 10.0])
    with pytest.raises(ValueError):
        landau_reference(0.0)
    with pytest.raises(ValueError):
        landau_reference(1.0, k_max=-1)


def test_non_hermitian_rejected_with_measured_defect():
    g = make_grid(1, 12.0, 16)
    f = Symbol.from_callable(
        lambda x, xi: 1j * np.asarray(x)[..., 0] + 0.0 * np.asarray(xi)[..., 0],
        1, m=0)
    with pytest.raises(ValueError, match="asymmetry"):
        spectrum(quantize(f, Gauge(A0, g)))


def _asymptotic_algebra():
    return CoefficientAlgebra(
        kind="AsymptoticLimitsPerDirection",
        quasi_orbits=(QuasiOrbit("minus", "direction", direction=(-1.0,)),
                      QuasiOrbit("plus", "direction", direction=(1.0,))))


def test_essential_spectrum_arctan_edges():
    g = make_grid(1, 20.0, 128)
    f = Symbol.from_expression("xi1^2 + arctan(x1)", 1, m=2, real=True)
    res = essential_spectrum(f, _asymptotic_algebra(), B0, g)
    # asymptotic operators are the free Laplacian shifted by -pi/2 and +pi/2;
    # the union is [-pi/2, inf)
    assert res.lower_edge == pytest.approx(-np.pi / 2.0, rel=2e-2)
    assert res.intervals[-1][1] == np.inf
    assert res.contains(10.0)
    assert not res.contains(-2.0)
    # both directional orbits got the analytic constant-coefficient treatment
    assert set(res.analytic_ranges) == {"minus", "plus"}


def test_essential_spectrum_well_edge_and_bound_state():
    g = make_grid(1, 20.0, 128)
    f = Symbol.from_expression("xi1^2 - 2*exp(-x1^2)", 1, m=2, real=True)
    algebra = _asymptotic_algebra()
    res = essential_spectrum(f, algebra, B0, g)
    assert res.lower_edge == pytest.approx(0.0, abs=0.02)
    cmp = compare_bulk_vs_essential(f, algebra, B0, g)
    assert cmp.candidates.size >= 1
    assert cmp.candidates.min() == pytest.approx(WELL_GROUND_STATE, rel=2e-2)
    assert cmp.candidates_localized
    assert cmp.delocalized_consistent


def test_redundant_orbit_is_idempotent():
    g = make_grid(1, 20.0, 128)
    f = Symbol.from_expression("xi1^2 + arctan(x1)", 1, m=2, real=True)
    alg1 = _asymptotic_algebra()
    alg2 = CoefficientAlgebra(
        kind="AsymptoticLimitsPerDirection",
        quasi_orbits=alg1.quasi_orbits + (
            QuasiOrbit("plus2", "direction", direction=(1.0,)),))
    r1 = essential_spectrum(f, alg1, B0, g)
    r2 = essential_spectrum(f, alg2, B0, g)
    assert r1.intervals == r2.intervals


def test_essential_spectrum_edge_stable_under_refinement():
    f = Symbol.from_expression("xi1^2 + arctan(x1)", 1, m=2, real=True)
    e1 = essential_spectrum(f, _asymptotic_algebra(), B0,
                            make_grid(1, 20.0, 64)).lower_edge
    e2 = essential_spectrum(f, _asymptotic_algebra(), B0,
                            make_grid(1, 20.0, 128)).lower_edge
    assert abs(e1 - e2) < 1e-6


def test_spectrum_is_gauge_independent():
    g = make_grid(2, 8.0, 12)
    f = Symbol.from_expression("xi1^2 + xi2^2 + 1/(1+x1^2)", 2, m=2, real=True)
    A1 = VectorPotential.from_expressions(2, ["-0.3*x2", "0.3*x1"])
    A2 = VectorPotential.from_expressions(2, ["-0.6*x2", "0"])
    e1 = spectrum(quantize(f, Gauge(A1, g))).eigenvalues
    e2 = spectrum(quantize(f, Gauge(A2, g))).eigenvalues
    np.testing.assert_allclose(e1, e2, atol=1e-7)


def test_small_landau_clusters_near_reference():
    # desk-scale check; the production-size run lives in the acceptance suite
    g = make_grid(2, 12.0, 24)
    b = 1.0
    f = Symbol.from_expression("xi1^2 + xi2^2", 2, m=2, real=True)
    A = VectorPotential.from_expressions(2, ["-0.5*x2", "0.5*x1"])
    B = MagneticField.constant(2, b)
    res = spectrum(quantize(f, Gauge(A, g)), localization=True)
    loc = res.localization
    keep = loc >= 0.7
    vals = res.eigenvalues[keep]
    first = vals[vals < 2.0 * b]
    assert first.size > 0
    assert first.mean() == pytest.approx(landau_reference(b)[0], rel=5e-2)


def test_landau_window_counts_track_degeneracy():
    # eigenvalue counts per level window approximate the per-level
    # degeneracy b L^2 / (2 pi) of the infinite-volume problem; finite-box
    # edge states keep them from being exactly equal (or monotone)
    g = make_grid(2, 12.0, 32)
    b = 1.0
    f = Symbol.from_expression("xi1^2 + xi2^2", 2, m=2, real=True)
    A = VectorPotential.from_expressions(2, ["-0.5*x2", "0.5*x1"])
    vals = spectrum(quantize(f, Gauge(A, g))).eigenvalues
    degeneracy = b * g.L**2 / (2.0 * np.pi)
    for k in range(3):
        count = np.sum((vals >= 2 * k * b) & (vals < (2 * k + 2) * b))
        assert count == pytest.approx(degeneracy, rel=0.15)


def test_localization_scores_distinguish_bound_states():
    g = make_grid(1, 20.0, 128)
    f = Symbol.from_expression("xi1^2 - 2*exp(-x1^2)", 1, m=2, real=True)
    res = spectrum(quantize(f, Gauge(A0, g)), localization=True)
    # the ground state is interior-localized, a high scattering state is not
    assert res.localization[0] > 0.99
    assert res.localization[-1] < 0.9
