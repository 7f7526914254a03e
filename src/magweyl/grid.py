"""Phase-space discretization: position box and dual momentum lattice.

Conventions (every 2*pi placement in the package is fixed here):

* Position nodes on each axis: ``x_k = -L/2 + k*dx`` with ``dx = L/N``,
  ``k = 0..N-1``.
* Momentum nodes on each axis: ``xi_k = (k - N/2)*dxi`` with ``dxi = 2*pi/L``
  (symmetric, fftshift-style ordering), so ``dx * dxi * N = 2*pi`` exactly.
* Fourier transform (continuum model)::

      (F u)(xi)      = (2*pi)^(-n/2) * Integral dx  e^{+i x.xi} u(x)
      (F^-1 U)(x)    = (2*pi)^(-n/2) * Integral dxi e^{-i x.xi} U(xi)

  discretized by plain Riemann sums on the lattices above.  With the node
  conventions this is a unitary map on C^(N^n) whose discrete form reduces
  to an FFT with alternating-sign pre/post factors.  This module only fixes
  the convention.  It is implemented in ``quantize`` alone: by
  ``_symbol_table`` (symbol -> kernel table: one gather by the per-axis
  midpoint index ``i + j`` and difference ``i - j``, inverted by
  ``_table_to_samples``) and by ``partial_fourier`` (kernel -> symbol, with
  ``partial_fourier_inverse``).
* The interior of the box is the centered ``INTERIOR`` share of each axis
  (:meth:`PhaseSpaceGrid.interior_nodes`), the one rule for the
  dequantizer's quarantine and for eigenvector localization.
* Whenever an integral ``Integral dy ...`` over position (or momentum) space
  appears in another module with the "normalized measure" convention, it is
  discretized as ``(2*pi)^(-n/2) * dx^n * sum(...)`` (resp. with ``dxi``).

All functions are treated as L-periodic; points generated by kernel formulas
(midpoints, differences, translated arguments) are evaluated directly and
never wrapped back into the box.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

# centered share of the box, per axis, counted as interior
INTERIOR = 0.8


@dataclass(frozen=True)
class PhaseSpaceGrid:
    """Discretized position box [-L/2, L/2)^n with its dual momentum lattice.

    Parameters
    ----------
    n : int
        Dimension, 1 or 2.
    L : float
        Side length of the position box.
    N : int
        Points per axis; must be a multiple of 4 (so the centered-node DFT
        corner phase e^{i pi N/2} is exactly 1) and at least 4.
    """

    n: int
    L: float
    N: int

    def __post_init__(self):
        if self.n not in (1, 2):
            raise ValueError(f"dimension n must be 1 or 2, got {self.n}")
        if self.N < 4 or self.N % 4 != 0:
            raise ValueError(f"N must be a multiple of 4, >= 4, got {self.N}")
        if not self.L > 0:
            raise ValueError(f"L must be positive, got {self.L}")

    @property
    def dx(self) -> float:
        return self.L / self.N

    @property
    def dxi(self) -> float:
        return 2.0 * np.pi / self.L

    @property
    def x_nodes(self) -> np.ndarray:
        """Position nodes on one axis, ascending."""
        return -self.L / 2.0 + self.dx * np.arange(self.N)

    @property
    def xi_nodes(self) -> np.ndarray:
        """Momentum nodes on one axis, ascending (centered ordering)."""
        return self.dxi * (np.arange(self.N) - self.N // 2)

    @property
    def npoints(self) -> int:
        return self.N**self.n

    def x_mesh(self) -> np.ndarray:
        """Position lattice as an array of shape (N,)*n + (n,)."""
        axes = np.meshgrid(*([self.x_nodes] * self.n), indexing="ij")
        return np.stack(axes, axis=-1)

    def xi_mesh(self) -> np.ndarray:
        """Momentum lattice as an array of shape (N,)*n + (n,)."""
        axes = np.meshgrid(*([self.xi_nodes] * self.n), indexing="ij")
        return np.stack(axes, axis=-1)

    def x_flat(self) -> np.ndarray:
        """Position lattice flattened to shape (N^n, n), C order."""
        return self.x_mesh().reshape(-1, self.n)

    def interior_nodes(self, fraction: float = INTERIOR) -> np.ndarray:
        """Boolean mask of the position nodes of one axis with |x| <= fraction*L/2.

        The tolerance keeps the rule symmetric under x -> -x: rounding can put
        the two nodes of a mirror pair on either side of the bound."""
        return np.abs(self.x_nodes) <= fraction * self.L / 2.0 + 1e-12

    def interior_mask(self, fraction: float = INTERIOR) -> np.ndarray:
        """Nodes interior on every axis, shape (N,)*n."""
        keep = self.interior_nodes(fraction)
        return keep if self.n == 1 else np.logical_and.outer(keep, keep)

    def half_nodes(self) -> np.ndarray:
        """Midpoint half-lattice on one axis: 2N-1 points with spacing dx/2."""
        return -self.L / 2.0 + (self.dx / 2.0) * np.arange(2 * self.N - 1)


def make_grid(n: int, L: float, N: int) -> PhaseSpaceGrid:
    """Construct a PhaseSpaceGrid, validating all invariants."""
    return PhaseSpaceGrid(n=n, L=L, N=N)
