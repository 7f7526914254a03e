"""Grid conventions: nodes, validation, meshes."""

import numpy as np
import pytest

from magweyl.grid import make_grid


def test_node_conventions():
    g = make_grid(1, 8.0, 16)
    assert g.dx == pytest.approx(0.5)
    assert g.dxi == pytest.approx(2.0 * np.pi / 8.0)
    # dx * dxi * N = 2 pi exactly
    assert g.dx * g.dxi * g.N == pytest.approx(2.0 * np.pi, abs=1e-15)
    assert g.x_nodes[0] == pytest.approx(-4.0)
    assert g.x_nodes[-1] == pytest.approx(4.0 - 0.5)
    # momentum nodes centered: node N/2 is exactly zero
    assert g.xi_nodes[g.N // 2] == 0.0


def test_grid_validation():
    with pytest.raises(ValueError):
        make_grid(3, 8.0, 16)
    with pytest.raises(ValueError):
        make_grid(1, 8.0, 18)  # not a multiple of 4
    with pytest.raises(ValueError):
        make_grid(1, -1.0, 16)
    # multiples of 4 that are not powers of two are allowed
    make_grid(1, 8.0, 48)


def test_mesh_shapes():
    g = make_grid(2, 6.0, 8)
    assert g.x_mesh().shape == (8, 8, 2)
    assert g.xi_mesh().shape == (8, 8, 2)
    assert g.x_flat().shape == (64, 2)
    assert g.half_nodes().shape == (15,)
    assert np.allclose(np.diff(g.half_nodes()), g.dx / 2.0)
