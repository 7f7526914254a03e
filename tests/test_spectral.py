"""Spectra, reference oracles, and quasi-orbit essential spectra."""

import importlib
import json
import tracemalloc

import numpy as np
import pytest
from scipy import linalg as sp_linalg

from magweyl import cli, spectral
from magweyl.grid import make_grid
from magweyl.magnetics import MagneticField, VectorPotential, transversal_gauge
from magweyl.quantize import Gauge, MagneticOperator, quantize
from magweyl.spectral import (
    _SYMMETRY_TOL,
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


@pytest.mark.parametrize("keep_vectors", [False, True])
def test_spectrum_solves_the_written_out_hermitian_part_and_keeps_its_input(keep_vectors):
    # eigh works on a Fortran-ordered Hermitian part that it may overwrite;
    # the operator is untouched and every number is the written-out one's
    g = make_grid(2, 8.0, 12)
    B = MagneticField.from_expressions(2, {(1, 2): "1 + 1/(1+x1^2)"})
    f = Symbol.from_expression("xi1^2 + xi2^2 + arctan(x1)", 2, m=2, real=True)
    M = quantize(f, Gauge(transversal_gauge(B), g))
    m = M.matrix.copy()
    res = spectrum(M, keep_vectors=keep_vectors)
    assert np.array_equal(M.matrix, m)
    herm = 0.5 * (m + m.conj().T)
    if keep_vectors:
        vals, vecs = sp_linalg.eigh(herm)
        assert np.array_equal(res.eigenvectors, vecs)
    else:
        vals = sp_linalg.eigh(herm, eigvals_only=True)
    assert np.array_equal(res.eigenvalues, vals)
    # the defect sums in a fixed order of its own, so it matches the written-out
    # norms to rounding, not to the bit
    defect = np.linalg.norm(m - m.conj().T) / np.linalg.norm(m)
    assert res.hermiticity_defect == M.hermiticity_defect()
    assert res.hermiticity_defect == pytest.approx(defect, rel=1e-12, abs=0)
    assert defect > 0.0


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


@pytest.mark.parametrize("potential", ["arctan(x1)", "0.2*x1^2"])
def test_the_default_merge_tol_reads_the_momentum_gradient_alone(potential):
    # d_xi (xi^2 + V(x)) = 2 xi for every V, so an identity orbit's default
    # tolerance is that of the free symbol: 2 dxi max |2 xi| on the lattice
    g = make_grid(1, 20.0, 64)
    f = Symbol.from_expression(f"xi1^2 + {potential}", 1, m=2, real=True)
    algebra = CoefficientAlgebra("ConstantCoefficients", (QuasiOrbit("identity"),))
    assert essential_spectrum(f, algebra, B0, g).merge_tol == 12.43570154537258


def test_a_translate_orbit_is_the_substituted_expression_bit_for_bit():
    g = make_grid(1, 20.0, 64)
    f = Symbol.from_expression("xi1^2 + arctan(x1)", 1, m=2, real=True)
    algebra = CoefficientAlgebra("ConstantCoefficients",
                                 (QuasiOrbit("shifted", "translate", shift=(2.0,)),))
    res = essential_spectrum(f, algebra, B0, g)
    ref = spectrum(quantize(Symbol.from_expression("xi1^2 + arctan(x1 + 2.0)", 1, m=2,
                                                   real=True), Gauge(A0, g)))
    assert res.orbit_spectra["shifted"].eigenvalues.tobytes() == ref.eigenvalues.tobytes()


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


@pytest.mark.parametrize("N", [100, 256])
def test_a_1d_potential_is_a_pure_gauge_and_keeps_the_zero_gauge_spectrum(N):
    # every 1D potential is a gradient, so Op^A(f) is a unitary similarity
    # of Op^0(f); a segment rule per pair missed it by 0.14 (N = 100) and
    # 0.32 (N = 256), since its 8 nodes do not resolve arctan over L = 20
    g = make_grid(1, 20.0, N)
    f = Symbol.from_expression("xi1^2 - 2*exp(-x1^2)", 1, m=2, real=True)
    A = VectorPotential.from_expressions(1, ["arctan(x1)"])
    e0 = spectrum(quantize(f, Gauge(VectorPotential.zero(1), g))).eigenvalues
    eA = spectrum(quantize(f, Gauge(A, g))).eigenvalues
    assert np.abs(eA - e0).max() <= 1e-10 * np.abs(e0).max()


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


# the magnetic rotation by 90 degrees about (-dx/2, -dx/2): a constant field
# in the symmetric, the Landau and an offset linear gauge, and the zero
# field, with an isotropic symbol have it, and the magnetic reflection
# J = D_h K Pi_R too (h = 0 in the symmetric gauge and at zero field, not
# in the other two)
_SYMMETRIC = {
    "symmetric-gauge": (["-0.5*x2", "0.5*x1"], "xi1^2 + xi2^2"),
    "landau-gauge": (["0", "0.9*x1"], "xi1^2 + xi2^2"),
    "offset-linear": (["0.3 + 0.2*x1 - 0.5*x2", "-0.1 + 0.5*x1 + 0.1*x2"], "xi1^2 + xi2^2"),
    "zero-field": (None, "xi1^2 + xi2^2"),
}
# tanh(w), w = y1 y2 (y1^2 - y2^2) with y = x + dx/2 (dx = 0.75 at L = 12,
# N = 16): w is kept by the rotation and odd under the swap, so the
# operator has the rotation but not the reflection
_CHIRAL = ("xi1^2 + xi2^2 + 0.5*tanh((x1 + 0.375)^3*(x2 + 0.375)"
           " - (x1 + 0.375)*(x2 + 0.375)^3)")


def _operator(A, expression, L=12.0, N=16):
    g = make_grid(2, L, N)
    A = VectorPotential.zero(2) if A is None else VectorPotential.from_expressions(2, A)
    return quantize(Symbol.from_expression(expression, 2, m=2, real=True), Gauge(A, g))


def _solved_dtypes(monkeypatch):
    """The dtype of every array that reaches ``_hermitian_eigh``, in call order."""
    dtypes = []
    eigh = spectral._hermitian_eigh

    def spy(a, vectors, out=None):
        dtypes.append(a.dtype)
        return eigh(a, vectors, out)

    monkeypatch.setattr(spectral, "_hermitian_eigh", spy)
    return dtypes


def _eigenspace_sums(values, scores, tol):
    """Localization summed over each cluster of eigenvalues closer than
    ``tol``: the basis of a degenerate eigenspace is not unique, the sum is."""
    cuts = np.flatnonzero(np.diff(values) > tol) + 1
    return np.array([c.sum() for c in np.split(scores, cuts)])


@pytest.mark.parametrize("case", sorted(_SYMMETRIC))
def test_a_magnetic_rotation_splits_the_eigensolve_into_blocks(case, monkeypatch):
    A, expression = _SYMMETRIC[case]
    M = _operator(A, expression)
    m = M.matrix
    herm = 0.5 * (m + m.conj().T)
    ref_vals, ref_vecs = sp_linalg.eigh(herm)
    top = np.abs(ref_vals).max()
    assert (np.abs(M.reflection_phase).max() > 1.0) == (case in ("landau-gauge", "offset-linear"))
    assert (M.matrix.dtype == np.float64) == (case == "zero-field")

    # the reflection gives every block a real form, solved in float64; at
    # zero field too, where the complex orbit products would make the
    # blocks of a float64 M complex Hermitian (r = 1, 3) or complex with
    # imaginary part 0 (r = 0, 2)
    dtypes = _solved_dtypes(monkeypatch)
    res = spectrum(M)
    assert dtypes == [np.float64] * 4
    assert res.symmetry_order == 4
    assert res.symmetry_defect < 1e-13
    np.testing.assert_allclose(res.eigenvalues, ref_vals, rtol=0, atol=1e-12 * top)

    res = spectrum(M, localization=True, keep_vectors=True)
    assert dtypes == [np.float64] * 8
    V, lam = res.eigenvectors, res.eigenvalues
    assert np.linalg.norm(herm @ V - V * lam) <= 1e-13 * np.linalg.norm(herm)
    assert np.linalg.norm(V.conj().T @ V - np.eye(len(lam))) <= 1e-12
    mask = M.grid.interior_mask().ravel()
    mass = np.abs(ref_vecs) ** 2
    ref_scores = mass[mask].sum(axis=0) / mass.sum(axis=0)
    np.testing.assert_allclose(_eigenspace_sums(lam, res.localization, 1e-8 * top),
                               _eigenspace_sums(ref_vals, ref_scores, 1e-8 * top),
                               rtol=0, atol=1e-10)
    # the scores are those of the returned vectors
    mass = np.abs(V) ** 2
    np.testing.assert_allclose(res.localization, mass[mask].sum(axis=0) / mass.sum(axis=0),
                               rtol=0, atol=1e-12)


def test_a_chiral_potential_keeps_the_rotation_and_its_complex_blocks_bit_for_bit(
        monkeypatch):
    # the same operator without its reflection phase takes the complex path
    M = _operator(["-0.5*x2", "0.5*x1"], _CHIRAL)
    complex_blocks = MagneticOperator(M.grid, M.matrix, M.rotation_phase)
    dtypes = _solved_dtypes(monkeypatch)
    for kw in ({}, {"localization": True, "keep_vectors": True}):
        res, ref = spectrum(M, **kw), spectrum(complex_blocks, **kw)
        assert res.symmetry_order == ref.symmetry_order == 4
        assert res.eigenvalues.tobytes() == ref.eigenvalues.tobytes()
        if kw:
            assert res.eigenvectors.tobytes() == ref.eigenvectors.tobytes()
            assert res.localization.tobytes() == ref.localization.tobytes()
    assert dtypes == [np.complex128] * 16


@pytest.mark.parametrize("A, expression", [
    (["-0.5*x2", "0.5*x1"], "xi1^2 + xi2^2 - 2*exp(-x1^2-x2^2)"),
    (["-0.5*x2", "0.5*x1"], "xi1^2 + xi2^2 + arctan(x1)"),
    (None, "xi1^2 + 0.5*xi2^2"),
])
def test_an_operator_without_the_symmetry_takes_the_full_eigh_bit_for_bit(A, expression):
    # a well centred at 0 is not symmetric about (-dx/2, -dx/2), arctan(x1)
    # not at all; an even anisotropic symbol has only the 180-degree rotation
    M = _operator(A, expression)
    m = M.matrix
    res = spectrum(M, keep_vectors=True)
    assert res.symmetry_order == 1 and np.isnan(res.symmetry_defect)
    vals, vecs = sp_linalg.eigh(0.5 * (m + m.conj().T))
    assert np.array_equal(res.eigenvalues, vals)
    assert np.array_equal(res.eigenvectors, vecs)


def test_the_rotation_check_rejects_a_centred_well_at_its_first_slab(monkeypatch):
    well = _operator(["-0.5*x2", "0.5*x1"], "xi1^2 + xi2^2 - 2*exp(-x1^2-x2^2)")
    symmetric = _operator(["-0.5*x2", "0.5*x1"], "xi1^2 + xi2^2")
    slabs = []
    quantize_module = importlib.import_module("magweyl.quantize")
    sum_squares = quantize_module._sum_squares
    N = well.grid.N

    def counting(a):
        # the norm and Hermiticity sums of the pass go through the same sum,
        # over blocks of rows; a rotation slab is N rows of N x N
        if a.shape == (N,) * 3:
            slabs.append(None)
        return sum_squares(a)

    monkeypatch.setattr(quantize_module, "_sum_squares", counting)
    # the slabs are visited from the centre row outward, where the well is
    assert well._defects(well.rotation_phase, _SYMMETRY_TOL)[1] == np.inf
    assert len(slabs) == 1
    assert symmetric._defects(symmetric.rotation_phase, _SYMMETRY_TOL)[1] <= _SYMMETRY_TOL
    assert len(slabs) == 1 + N


def test_a_rotation_sum_stopped_by_a_light_centre_is_finished_against_the_whole_norm():
    # a potential invariant under T that is light at the centre and heavy at
    # the edge, with a symmetry breaking inside the centre slab just below
    # the tolerance of the whole norm: past it for the rows read first
    g = make_grid(2, 12.0, 16)
    N, P = g.N, g.npoints
    i, j = np.divmod(np.arange(P), N)
    r2 = (i - (N - 1) / 2) ** 2 + (j - (N - 1) / 2) ** 2
    m = np.diag(1e-3 + r2 ** 2)
    a, b = 7 * N + 7, 7 * N + 8  # both in slab 7, the first visited
    eps = 0.25 * _SYMMETRY_TOL * np.linalg.norm(m)
    m[a, b] = m[b, a] = eps
    M = MagneticOperator(g, m, np.zeros(P))
    herm, rot = _written_out_defects(M)
    slab = slice(7 * N, 8 * N)
    t = (N - 1 - j) * N + i
    first = np.linalg.norm(m[t[slab]][:, t] - m[slab]) / np.linalg.norm(m[slab])
    assert first > _SYMMETRY_TOL >= rot > 0.0
    assert M._defects(M.rotation_phase, _SYMMETRY_TOL) == M._defects(M.rotation_phase)
    assert M._defects(M.rotation_phase)[1] == pytest.approx(rot, rel=1e-12, abs=0)
    assert spectrum(M).symmetry_order == 4


def _perturbed(scale):
    """The symmetric-gauge operator plus ``scale`` times a Hermitian noise of
    its Frobenius norm, with its rotation phase."""
    M = _operator(["-0.5*x2", "0.5*x1"], "xi1^2 + xi2^2")
    m = M.matrix
    rng = np.random.default_rng(3)
    E = rng.normal(size=m.shape) + 1j * rng.normal(size=m.shape)
    E = (E + E.conj().T) / np.linalg.norm(E + E.conj().T) * np.linalg.norm(m)
    return MagneticOperator(M.grid, m + scale * E, M.rotation_phase)


def test_a_perturbation_above_the_tolerance_or_no_gauge_falls_back():
    for scale, order in ((1e-13, 4), (1e-8, 1)):
        M = _perturbed(scale)
        res = spectrum(M)
        assert res.symmetry_order == order
    m = M.matrix
    assert np.array_equal(res.eigenvalues, sp_linalg.eigh(0.5 * (m + m.conj().T),
                                                          eigvals_only=True))
    # an operator that carries no gauge (a product, rep_A) is solved whole
    m = _perturbed(0.0).matrix
    res = spectrum(MagneticOperator(M.grid, m))
    assert res.symmetry_order == 1
    assert np.array_equal(res.eigenvalues, sp_linalg.eigh(0.5 * (m + m.conj().T),
                                                          eigvals_only=True))


# operator -> symmetry order that spectrum picks
_CHECKED = {
    **{case: (lambda case=case: _operator(*_SYMMETRIC[case]), 4) for case in _SYMMETRIC},
    "chiral": (lambda: _operator(["-0.5*x2", "0.5*x1"], _CHIRAL), 4),
    "near-miss": (lambda: _operator(["-0.5*x2", "0.5*x1"],
                                    "xi1^2 + xi2^2 - 2*exp(-x1^2-x2^2)"), 1),
    "rotation-180-only": (lambda: _operator(None, "xi1^2 + 0.5*xi2^2"), 1),
    "perturbed-1e-13": (lambda: _perturbed(1e-13), 4),
    "perturbed-1e-8": (lambda: _perturbed(1e-8), 1),
}


def _written_out_defects(M):
    """||M - M^H||_F / ||M||_F and ||Pi_T M Pi_T^T - D M D^*||_F / ||M||_F
    by whole-matrix numpy, with T a = (N-1-j, i) for a = (i, j) and
    D M D^* formed as (u_a M_ab) conj(u_b), the order of the pass."""
    m, N = M.matrix, M.grid.N
    i, j = np.divmod(np.arange(N * N), N)
    t = (N - 1 - j) * N + i
    u = np.exp(1j * M.rotation_phase)
    norm = np.linalg.norm(m)
    return (np.linalg.norm(m - m.conj().T) / norm,
            np.linalg.norm(m[np.ix_(t, t)] - u[:, None] * m * np.conj(u)[None, :]) / norm)


@pytest.mark.parametrize("case", sorted(_CHECKED))
def test_the_one_pass_check_is_the_written_out_norms(case):
    make, order = _CHECKED[case]
    M = make()
    herm, rot = _written_out_defects(M)
    # summed to the end, the pass gives both definitions to rounding
    assert M._defects(M.rotation_phase) == pytest.approx((herm, rot), rel=1e-12, abs=0)
    # with the tolerance the rotation sum may stop, the Hermiticity sum never
    defect, symmetry_defect = M._defects(M.rotation_phase, _SYMMETRY_TOL)
    assert defect == M.hermiticity_defect()
    assert (symmetry_defect <= _SYMMETRY_TOL) == (rot <= _SYMMETRY_TOL) == (order == 4)
    res = spectrum(M)
    assert res.symmetry_order == order
    assert res.hermiticity_defect == defect
    if order == 4:
        assert res.symmetry_defect == symmetry_defect


def test_a_1d_defect_over_a_partial_last_slab_is_the_written_out_norm():
    # P = 100: slabs of 64 rows and then 36
    g = make_grid(1, 20.0, 100)
    f = Symbol.from_expression("xi1^2 - 2*exp(-x1^2)", 1, m=2, real=True)
    M = quantize(f, Gauge(VectorPotential.from_expressions(1, ["arctan(x1)"]), g))
    m = M.matrix
    defect, rot = M._defects()
    assert defect == pytest.approx(np.linalg.norm(m - m.conj().T) / np.linalg.norm(m),
                                   rel=1e-12, abs=0)
    assert defect > 0.0 and np.isnan(rot)


def test_a_non_hermitian_operator_without_the_symmetry_reports_its_defect():
    M = _operator(["-0.5*x2", "0.5*x1"], "xi1^2 + xi2^2 - 2*exp(-x1^2-x2^2)")
    rng = np.random.default_rng(5)
    E = rng.normal(size=M.matrix.shape) + 1j * rng.normal(size=M.matrix.shape)
    E *= 1e-6 * np.linalg.norm(M.matrix) / np.linalg.norm(E)
    bad = MagneticOperator(M.grid, M.matrix + E, M.rotation_phase)
    herm, rot = _written_out_defects(bad)
    assert herm > 1e-8 and rot > 1e-3
    defect = bad.hermiticity_defect()
    assert defect == pytest.approx(herm, rel=1e-12, abs=0)
    with pytest.raises(ValueError, match=f"relative asymmetry {defect:.3e} exceeds"):
        spectrum(bad)


def test_the_one_pass_check_holds_no_square_work_array():
    # P = 1296, as in landau2d: the pass's one work array is N rows of M,
    # 16 P^2 / N bytes
    g = make_grid(2, 16.0, 36)
    A = VectorPotential.from_expressions(2, ["-0.5*x2", "0.5*x1"])
    M = quantize(Symbol.from_expression("xi1^2 + xi2^2", 2, m=2, real=True), Gauge(A, g))
    assert np.abs(M.rotation_phase).max() > 1.0
    tracemalloc.start()
    try:
        defect, symmetry_defect = M._defects(M.rotation_phase, _SYMMETRY_TOL)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < g.npoints ** 2
    assert defect < 1e-15 and symmetry_defect < 1e-13


def test_the_block_spectrum_peaks_within_the_spectrum_budget(tmp_path):
    cfg = {"grid": {"n": 2, "L": 12.0, "N": 24}, "field": {"components": {"12": "1"}},
           "symbol": {"expression": "xi1^2 + xi2^2", "m": 2, "rho": 1, "real": True},
           "task": {"command": "spectrum"}}
    g = make_grid(2, 12.0, 24)
    B = MagneticField.from_expressions(2, {(1, 2): "1"})
    f = Symbol.from_expression("xi1^2 + xi2^2", 2, m=2, real=True)
    assert spectrum(quantize(f, Gauge(transversal_gauge(B), g))).symmetry_order == 4
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    tracemalloc.start()
    try:
        code = cli.run(["--config", str(path), "--out", str(tmp_path / "out")])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 0
    assert peak <= cli._PEAK_P2["spectrum"] * g.npoints ** 2
