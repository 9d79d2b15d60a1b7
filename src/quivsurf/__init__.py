"""Derived-category embeddability obstructions for quiver algebras and
strong exceptional collections of line bundles on smooth toric surfaces.

Exact linear algebra decides the two necessary conditions (rank of the
antisymmetrised Euler form, negative inertia of the symmetrised one);
toric Riemann-Roch and lattice-point counting verify and search for the
explicit realisations.
"""

__version__ = "0.1.0"

from .linalg import ExactMatrix, Signature, rank_rational, signature_symmetric
from .quivers import (
    ObstructionReport,
    Quiver,
    chi_minus,
    chi_plus,
    euler_matrix_simples,
    forbidden_full_subquiver,
    obstruction_report,
    paths_matrix,
    reflect,
)
from .toric import (
    CohDims,
    ConsistencyError,
    FanError,
    KClass,
    ToricSurface,
    blowup_p2,
    hirzebruch,
    p1xp1,
    preset,
    projective_plane,
)
from .exceptional import (
    Collection,
    CurveSheaf,
    LineBundle,
    VerifyResult,
    abc_of,
    ext_dims,
    line_collection,
    search_abc,
    search_kronecker,
    search_paths,
    solve_abc,
    verify_collection,
    verify_divisor_table,
    verify_star_family,
)
