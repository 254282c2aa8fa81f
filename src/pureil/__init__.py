"""Exact rational machinery for probability on unary predicate languages."""

from .decompose import (
    Decomposition,
    MonomialMatrix,
    choose_p_vectors,
    decompose_px,
    decompose_y,
)
from .errors import (
    CapExceededError,
    FormulaSyntaxError,
    LevelMismatchError,
    NotPredicateSymmetricError,
    PureILError,
)
from .feasibility import FeasibilityCertificate, extendable, verify_certificate
from .formulas import parse_formula, print_formula, satisfying_descriptions
from .invariance import (
    AltNotation,
    DiscreteMeasure,
    bernstein,
    dirac,
    from_alt,
    to_alt,
    transfer,
)
from .language import (
    AtomTable,
    PredPermutation,
    StateDescription,
    all_pred_permutations,
    all_state_descriptions,
    apply_const_perm,
    apply_pred_perm,
    enumerate_atoms,
)
from .nabla import (
    CompositionSet,
    FrequencyVector,
    NablaFunction,
    PhiMatrix,
    UpsilonMatrix,
    build_phi,
    build_upsilon,
    compositions,
    nabla,
    nabla_no_replacement,
)
from .principles import (
    CheckReport,
    Witness,
    check_additivity,
    check_ex,
    check_ip,
    check_px,
    check_wip,
)
from .probability import (
    MixtureFunction,
    ProbabilityFunction,
    ProductFunction,
    RestrictedFunction,
    SimplexPoint,
    SymmetrizedFunction,
    restrict,
    symmetrized,
    uniform_point,
)

__version__ = "0.1.0"
