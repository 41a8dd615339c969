"""Exact-arithmetic toolkit for bent and near-bent Boolean functions.

Builds bent functions in dimension 2t from near-bent functions in dimension
2t-1 through the two-variable decomposition, computes duals and pseudo-duals,
expresses everything in canonical trace notation, and verifies the structural
identities that make the constructions work.  All computation is over exact
integers; there is no floating point anywhere in the package.
"""

from .boolfn import Anf, BooleanFunction, trace_function, trace_polynomial
from .constructions import (
    CheckItem,
    CheckReport,
    CollisionReport,
    ConditionFlags,
    DualSupportReport,
    SixPack,
    VerificationSuite,
    bent_from_near_bent,
    check_component_derivative_pairing,
    check_dual_component_sum,
    check_dual_unit_derivatives,
    check_pseudo_dual_conditions,
    check_spectrum_zero_set,
    condition_flags,
    dual_support_analysis,
    kasami_welch,
    kasami_welch_exponent,
    normalize_near_bent,
    pseudo_dual_collision_demo,
    pseudo_duals,
    quadratic_exponent_sets,
    quadratic_family,
    six_pack,
    verify_function,
)
from .errors import (
    BentfnError,
    BentVerificationFailed,
    ConditionTNotMet,
    ConditionViolation,
    DerivativeNotConstant,
    DimensionMismatch,
    DimensionOutOfRange,
    ExponentOutOfRange,
    InvalidExponentSet,
    NonPrimitivePolynomial,
    NotBent,
    NotBooleanConsistent,
    NotNearBent,
    OddDimension,
    ParseError,
)
from .gf2m import (
    DEFAULT_PRIMITIVE_POLYS,
    CyclotomicCoset,
    FieldContext,
    coset_leader,
    coset_size,
    cyclotomic_cosets,
)
from .spectrum import (
    Classification,
    WalshSpectrum,
    check_nearbent_distribution,
    classify,
    dual,
    is_balanced,
    walsh,
    walsh_at_field_point,
)
from .tracerep import (
    TraceForm,
    format_trace_form,
    mattson_solomon,
    parse,
    to_trace_form,
    trace_forms,
)
from .tvr import (
    ComponentIdentityReport,
    bent_via_components,
    component_walsh_identities,
    inner_product,
    join,
    linear_form,
    split,
    walsh_coefficient,
)

__version__ = "0.1.0"
