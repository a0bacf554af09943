"""Exact-arithmetic spectrality decisions for stage-alphabet infinite convolutions.

The top level holds the README example's names; the rest live in their modules.
"""

from .classifier import decide_spectrality
from .measure import SymbolicWord, SystemConfig, truncate
from .spectra import build_tower_spectrum, verify_spectrum_finite

__all__ = [
    "SymbolicWord", "SystemConfig", "build_tower_spectrum", "decide_spectrality",
    "truncate", "verify_spectrum_finite",
]

__version__ = "0.1.0"
