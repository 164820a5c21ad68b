"""Prime ideal factorizations of submodules over Noetherian polynomial
rings: filtrations by prime extensions, associated primes, and the
existence and construction of prescribed factorizations."""

from .arith import PolyRing, Polynomial
from .cache import clear_caches
from .errors import (
    BudgetError,
    GpfError,
    HypothesisError,
    IncompleteRegistryError,
    ParseError,
    RingMismatchError,
    VerificationError,
)
from .fields import GF, QQ
from .filtration import (
    Filtration,
    PrimeExtensionStep,
    interchange,
    rpe_filtration,
    verify_rpe,
)
from .gpf import (
    FactorizationTarget,
    PrimeMultiset,
    check_iff_criterion,
    check_supp_conditions,
    construct_general,
    construct_prime_power,
    exists_incomparable,
    gpf,
)
from .modops import (
    Ideal,
    QuotientModule,
    Submodule,
    colon_ideal,
    colon_module,
    intersect,
    module_scale,
    saturate,
)
from .primes import (
    PrimeIdeal,
    PrimeSet,
    ass_contains,
    ass_enumerate,
    ass_membership,
    incomparable,
    supp_contains,
)

__version__ = "0.1.0"

__all__ = [
    "BudgetError",
    "FactorizationTarget",
    "Filtration",
    "GF",
    "GpfError",
    "HypothesisError",
    "Ideal",
    "IncompleteRegistryError",
    "ParseError",
    "PolyRing",
    "Polynomial",
    "PrimeExtensionStep",
    "PrimeIdeal",
    "PrimeMultiset",
    "PrimeSet",
    "QQ",
    "QuotientModule",
    "RingMismatchError",
    "Submodule",
    "VerificationError",
    "ass_contains",
    "ass_enumerate",
    "ass_membership",
    "check_iff_criterion",
    "check_supp_conditions",
    "clear_caches",
    "colon_ideal",
    "colon_module",
    "construct_general",
    "construct_prime_power",
    "exists_incomparable",
    "gpf",
    "incomparable",
    "interchange",
    "intersect",
    "module_scale",
    "rpe_filtration",
    "saturate",
    "supp_contains",
    "verify_rpe",
]
