"""Taylor-Hood Stokes assembly, block-Toeplitz spectral symbols, and
tau/Schur saddle-point preconditioning on structured crisscross meshes."""

__version__ = "0.1.0"

from .assembly import (
    SaddleSystem,
    ViscosityField,
    assemble_divergence,
    assemble_pressure_mass,
    assemble_saddle,
    assemble_stiffness,
    viscosity_for_group,
)
from .mesh import StructuredMesh, build_mesh, saddle_dimension
from .precond import SaddlePreconditioner, build_saddle_preconditioner
from .solvers import SolveStats, gmres, minres
from .spectra import (
    sample_symbol,
    singular_values,
    symmetric_eigenvalues,
    weyl_distance,
)
from .symbols import (
    BlockSymbol,
    StokesSymbolSet,
    build_symbol_set,
    default_symbol_set,
)

__all__ = [
    "StructuredMesh",
    "build_mesh",
    "saddle_dimension",
    "SaddleSystem",
    "ViscosityField",
    "viscosity_for_group",
    "assemble_divergence",
    "assemble_pressure_mass",
    "assemble_saddle",
    "assemble_stiffness",
    "BlockSymbol",
    "StokesSymbolSet",
    "build_symbol_set",
    "default_symbol_set",
    "sample_symbol",
    "singular_values",
    "symmetric_eigenvalues",
    "weyl_distance",
    "SaddlePreconditioner",
    "build_saddle_preconditioner",
    "SolveStats",
    "gmres",
    "minres",
    "__version__",
]
