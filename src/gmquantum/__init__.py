"""Exact quantum cohomology of the degree 10 fourfold.

Everything runs over the rationals: Schubert calculus on G(2, 5) and
its hyperplane sections, Gromov-Witten numbers via integration on
bundle towers, the quantum multiplication table with its presentation,
the first order deformation of the degree operator, and the squarefree
eigenvalue criterion.  The `cli` module exposes the same pipeline as a
command line tool emitting machine checkable certificates.
"""

from .ambient import AmbientRing, BASIS_DEGREES, BASIS_NAMES, DIM
from .certificates import Certificate, Workspace
from .deformation import (
    HodgeModel, assemble_full_operator, atom_statistics, build_deformed_matrix,
    irrationality_criterion, verify_jordan_pair,
)
from .gwcounts import (
    CountSet, EXPECTED_VALUES, all_reports, compute_i11, compute_i12,
    compute_i13, compute_i2, compute_j12, derive_j11,
)
from .linalg import Matrix, char_poly
from .poly import MultiPoly, VarContext
from .quantum import (
    QuantumRing, degree_two_closed_form, kernel_basis, presentation_report,
    solve_three_point_invariants, spectral_report, standard_ring,
)
from .schubert import Grassmannian2
from .towers import Tower

__version__ = "1.0.0"

__all__ = [
    "AmbientRing", "BASIS_DEGREES", "BASIS_NAMES", "DIM",
    "Certificate", "Workspace",
    "HodgeModel", "assemble_full_operator", "atom_statistics",
    "build_deformed_matrix", "irrationality_criterion", "verify_jordan_pair",
    "CountSet", "EXPECTED_VALUES", "all_reports", "compute_i11",
    "compute_i12", "compute_i13", "compute_i2", "compute_j12", "derive_j11",
    "Matrix", "char_poly",
    "MultiPoly", "VarContext",
    "QuantumRing", "degree_two_closed_form", "kernel_basis",
    "presentation_report", "solve_three_point_invariants",
    "spectral_report", "standard_ring",
    "Grassmannian2", "Tower",
    "__version__",
]
