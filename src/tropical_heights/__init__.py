"""Exact tropical theta functions on degeneration skeleta and canonical
local heights for elliptic curves over Q."""

from .arch import local_height_arch
from .curves import CurvePoint, WeierstrassCurve
from .degeneration import (
    ComponentGroup,
    DegenerationData,
    automorphy_factor,
    component_group,
    trivialization_valuation,
    trivialization_valuation_real,
)
from .exact import (
    INFINITY,
    PadicElement,
    bernoulli2,
    val_p,
)
from .heights import (
    GlobalHeightReport,
    RunConfig,
    doubling_oracle,
    find_semistable_examples,
    global_height,
)
from .tate import (
    LocalHeightReport,
    ReductionType,
    intersection_multiplicity,
    local_height_from_parameter,
    local_height_report,
    minimal_model_at,
    reduction_type,
    tate_curve,
    tate_curve_point,
    tate_parameter,
    theta_valuation,
)
from .tropical import (
    GeneratedTheta,
    ThetaCharacteristic,
    TropicalTheta,
    generate_theta_terms,
    normalized_tropical_riemann_theta,
    quantization_check,
    tensor_normalized,
    theta_characteristic,
    tropical_riemann_theta,
)

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
