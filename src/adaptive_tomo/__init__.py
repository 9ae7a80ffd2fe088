"""Static and adaptive single-qubit state tomography, simulated end to end.

The package simulates projective polarization measurements with optional
alignment errors, reconstructs states by constrained maximum likelihood, and
drives Monte Carlo campaigns that exhibit the headline behaviour of adaptive
tomography: worst-case infidelity scaling improves from O(1/sqrt(N)) to
O(1/N), and alignment-error floors drop from O(E) to O(E^2).
"""
from types import ModuleType as _ModuleType

from .errors import (
    BudgetError,
    InsufficientDataError,
    InvalidStateError,
    RankDeficientStateError,
    TomographyError,
    UnderdeterminedError,
    UsageError,
)
from .estimation import Estimate, linear_inversion, merge_records, mle, negative_loglikelihood
from .fixtures import NAMED_STATES, named_state
from .harness import (
    CampaignResult,
    CampaignRow,
    CampaignSpec,
    FloorPoint,
    NoiseFloorResult,
    ScalingFit,
    alpha_sweep,
    campaign_hash,
    fit_campaign,
    fit_power_law,
    noise_floor_sweep,
    run_campaign,
)
from .measurement import (
    MOUNT_TO_BLOCH_ANGLE,
    PAULI_AXES,
    CountRecord,
    ErrorModel,
    FixedError,
    NoError,
    PerExperimentError,
    PerSettingError,
    RngContext,
    born_probability,
    protocol_name,
)
from .protocols import (
    Adaptive,
    AdaptivePow,
    KnownBasis,
    ProtocolSpec,
    ReducedAdaptive,
    RunResult,
    Static,
    run_protocol,
)
from .states import (
    BasisTriplet,
    EigenDecomposition,
    bloch_of_ket,
    bloch_to_density,
    chernoff_exponent,
    check_bloch,
    check_density,
    density_to_bloch,
    eigendecompose,
    fidelity,
    infidelity_quadratic_approx,
    mub_triplet,
    purity,
)

__version__ = "0.1.0"

# The public names, without the submodules that the imports above bind.
__all__ = [name for name in dir()
           if not name.startswith("_") and not isinstance(globals()[name], _ModuleType)]
