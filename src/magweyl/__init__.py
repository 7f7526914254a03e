"""Numerical laboratory for gauge-covariant quantization in magnetic fields."""

from .grid import PhaseSpaceGrid, make_grid
from .magnetics import (
    DEFAULT_QUAD,
    FluxQuadrature,
    MagneticField,
    VectorPotential,
    circulation,
    flux_triangle,
    gamma_B,
    gauge_shift,
    omega_cocycle,
    transversal_gauge,
)
from .quantize import (
    Gauge,
    KernelFunction,
    MagneticOperator,
    SampledSymbol,
    dequantize,
    kernel_involution,
    magnetic_translation,
    partial_fourier,
    partial_fourier_inverse,
    rep_A,
    twisted_product,
    wrong_quantize,
)
from .symbols import CoefficientAlgebra, QuasiOrbit, Symbol, japanese_bracket, seminorm
from .moyal import (
    expansion_term,
    expansion_sum,
    moyal_direct,
    moyal_pullback,
    remainder_order,
)
from .inversion import (
    DivergenceError,
    EllipticityError,
    ResolventFamily,
    affiliated_calculus,
    build_regularizer,
    neumann_invert,
    norm_Rz,
)
from .spectral import (
    compare_bulk_vs_essential,
    essential_spectrum,
    landau_reference,
    spectrum,
)

__version__ = "1.0.0"
