"""The public API, pinned: a refactor that drops or renames a public name, or
changes the signature of a density-matrix function of ``states``, fails here."""
import inspect

import adaptive_tomo
from adaptive_tomo import states

PUBLIC_NAMES = [
    "Adaptive", "AdaptivePow", "BasisTriplet", "BudgetError", "CampaignResult", "CampaignRow",
    "CampaignSpec", "CountRecord", "EigenDecomposition", "ErrorModel", "Estimate",
    "FixedError", "FloorPoint", "InsufficientDataError", "InvalidStateError", "KnownBasis",
    "MOUNT_TO_BLOCH_ANGLE", "NAMED_STATES", "NoError", "NoiseFloorResult", "PAULI_AXES",
    "PerExperimentError", "PerSettingError", "ProtocolSpec", "RankDeficientStateError",
    "ReducedAdaptive", "RngContext", "RunResult", "ScalingFit", "Static", "TomographyError",
    "UnderdeterminedError", "UsageError", "alpha_sweep", "bloch_of_ket", "bloch_to_density",
    "born_probability", "campaign_hash", "check_bloch", "check_density", "chernoff_exponent",
    "density_to_bloch", "eigendecompose", "fidelity", "fit_campaign", "fit_power_law",
    "infidelity_quadratic_approx", "linear_inversion", "merge_records", "mle", "mub_triplet",
    "named_state", "negative_loglikelihood", "noise_floor_sweep", "protocol_name", "purity",
    "run_campaign", "run_protocol",
]

SIGNATURES = {
    "purity": "(rho: 'np.ndarray') -> 'float'",
    "fidelity": "(rho: 'np.ndarray', sigma: 'np.ndarray') -> 'float'",
    "infidelity_quadratic_approx": "(rho: 'np.ndarray', delta: 'np.ndarray') -> 'float'",
    "chernoff_exponent": "(rho: 'np.ndarray', sigma: 'np.ndarray') -> 'float'",
    "eigendecompose": "(rho: 'np.ndarray') -> 'EigenDecomposition'",
    "mub_axes": "(r: 'np.ndarray') -> 'np.ndarray'",
}


def test_public_names_are_pinned():
    assert adaptive_tomo.__all__ == PUBLIC_NAMES
    for name in PUBLIC_NAMES:
        assert hasattr(adaptive_tomo, name), name


def test_state_function_signatures_are_pinned():
    for name, signature in SIGNATURES.items():
        assert str(inspect.signature(getattr(states, name))) == signature, name
