"""Exact Lagrangian subspaces of presymplectic forms.

Rational-arithmetic computation of maximal isotropic subspaces via a flag
selection, the isotropic filtration behind it, Schubert-cell and stratum
labels, Vergne polarizations of completely solvable Lie algebras, and
floating-point gap probes that witness where the selection is continuous.
"""

from .linalg import Matrix, Rational, Subspace, contains, intersect, kernel, rref, subspace_sum
from .presymplectic import (
    Flag,
    SignatureVector,
    SkewForm,
    b_perp,
    is_isotropic,
    is_lagrangian,
    null_space,
    restrict,
    signature_vector,
    vergne_select,
)
from .schubert import (
    FiltrationTrace,
    JumpSet,
    cell_to_signature,
    filtration,
    jump_indices,
    selection_cell,
    verify_filtration_lemmas,
)
from .lie import (
    BuiltinAlgebra,
    Functional,
    JacobiError,
    LieAlgebra,
    builtin,
    casimir_invariance_check,
    casimir_value,
    coadjoint_form,
    isotropy_subalgebra,
    orbit_point,
    stratum,
    vergne_polarization,
    verify_jordan_holder,
)
from .probe import (
    PathProbeReport,
    functional_path_probe,
    gap,
    path_probe,
    projector,
    projector_sum_range_check,
)

__version__ = "0.1.0"

__all__ = [
    "Matrix",
    "Rational",
    "Subspace",
    "contains",
    "intersect",
    "kernel",
    "rref",
    "subspace_sum",
    "Flag",
    "SignatureVector",
    "SkewForm",
    "b_perp",
    "is_isotropic",
    "is_lagrangian",
    "null_space",
    "restrict",
    "signature_vector",
    "vergne_select",
    "FiltrationTrace",
    "JumpSet",
    "cell_to_signature",
    "filtration",
    "jump_indices",
    "selection_cell",
    "verify_filtration_lemmas",
    "BuiltinAlgebra",
    "Functional",
    "JacobiError",
    "LieAlgebra",
    "builtin",
    "casimir_invariance_check",
    "casimir_value",
    "coadjoint_form",
    "isotropy_subalgebra",
    "orbit_point",
    "stratum",
    "vergne_polarization",
    "verify_jordan_holder",
    "PathProbeReport",
    "functional_path_probe",
    "gap",
    "path_probe",
    "projector",
    "projector_sum_range_check",
]
