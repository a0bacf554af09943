"""Exact-arithmetic spectrality decisions for stage-alphabet infinite convolutions."""

from .classifier import (NecessityViolation, SpectralVerdict, TwoStageDecision,
                         ZeroSetProbe, ZeroSetStatus, alternating_family_decide,
                         decide_spectrality, integral_zero_set_probe,
                         integral_zero_set_status, necessity_violations,
                         two_stage_decide, validate_config)
from .exactmath import Rational, RootSum, cyclotomic_polynomial, root_sum_is_zero
from .hadamard import (TripleCheckReport, canonical_dual_digits, is_admissible,
                       is_compatible_pair, parseval_sum, triple_report,
                       unitarity_residual)
from .measure import (DEFAULT_ATOM_CAP, AtomCapExceeded, DiscreteMeasure,
                      StagePair, SymbolicWord, SystemConfig, mask_zero_contains,
                      measures_equal, mu_hat_eval, normalize_signs, scale_digits,
                      support_hull, truncate, zero_set_contains)
from .oracle import (RigidityReport, search_compatible_partners, search_spectra,
                     weighted_mean_rigidity)
from .spectra import (Decomposition, SpectrumCandidate, SpectrumVerification,
                      TowerDegenerateError, build_tower_spectrum,
                      decompose_spectrum, default_lattice_modulus,
                      extract_tail_spectrum, q_function, structure_witnesses,
                      verify_spectrum_finite)
from .tiling import (IntervalUnion, TileDecision, TilingCertificate, tile_decide,
                     tiles_by_periodic_set, two_stage_support)

__all__ = [
    "AtomCapExceeded", "DEFAULT_ATOM_CAP", "Decomposition", "DiscreteMeasure",
    "IntervalUnion", "NecessityViolation", "Rational", "RigidityReport",
    "RootSum", "SpectralVerdict",
    "SpectrumCandidate", "SpectrumVerification", "StagePair", "SymbolicWord",
    "SystemConfig", "TileDecision", "TilingCertificate", "TowerDegenerateError",
    "TripleCheckReport", "TwoStageDecision", "ZeroSetProbe", "ZeroSetStatus",
    "alternating_family_decide", "build_tower_spectrum", "canonical_dual_digits",
    "cyclotomic_polynomial", "decide_spectrality", "decompose_spectrum",
    "default_lattice_modulus", "extract_tail_spectrum", "integral_zero_set_probe",
    "integral_zero_set_status", "is_admissible", "is_compatible_pair",
    "mask_zero_contains", "measures_equal", "mu_hat_eval", "necessity_violations",
    "normalize_signs", "parseval_sum", "q_function", "root_sum_is_zero",
    "scale_digits", "search_compatible_partners", "search_spectra",
    "structure_witnesses", "support_hull", "tile_decide", "tiles_by_periodic_set",
    "triple_report", "truncate", "two_stage_decide", "two_stage_support",
    "unitarity_residual", "validate_config", "verify_spectrum_finite",
    "weighted_mean_rigidity", "zero_set_contains",
]

__version__ = "0.1.0"
