"""hkcount: exact bounded-height point counts and asymptotic constants for
projectivized split bundles over projective space (Picard-rank-2 smooth
projective split toric varieties) over the rationals."""

from .geometry import (
    CaseTag,
    ExponentData,
    HKVariety,
    LineBundleClass,
    NotBigError,
    ProjectiveSpace,
    Stratum,
    anticanonical,
    decompose,
    exponents,
    is_big,
    restrict_to_F,
)
from .heights import (
    HKRationalPoint,
    ProjectivePoint,
    Region,
    base_height_sq,
    fiber_height_sq,
    height_L_sq,
    height_le,
)
from .enumeration import (
    CountRequest,
    CountResult,
    count_enum_projective,
    count_hk,
    count_projective_moebius,
    enum_hk_points,
    sweep,
)
from .constants import (
    QQ,
    AsymptoticPrediction,
    FieldInvariants,
    SourceFormula,
    TooCloseToPoleError,
    hirzebruch_table,
    load_invariants,
    predict,
    region_prediction,
    schanuel_constant,
    stratum_predictions,
    threefold_intro,
    xi_K,
    zeta,
    zetaP1_closed,
    zetaP_numeric,
    zetaP_theta,
)
from .arakelov import (
    geer_schoof_bound_check,
    h0,
    maruyama_residue_check,
    phi,
    prop5_identity_check,
    xi_integral,
)

__version__ = "0.1.0"
