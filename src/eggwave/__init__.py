"""Wavelet-compression screening for gastric electrical uncoupling in EGG recordings."""

# Each module's __all__ is its one list of public names.
from .compression import *
from .io import *
from .matcher import *
from .simulate import *
from .stats import *
from .wavelets import *

__version__ = "0.1.0"

#: What this package deliberately does not reproduce.  The reference canine
#: experiment's numbers require its animal recordings, which are not
#: distributable: the per-channel comparison table entries (means, SDs and
#: p-values), the exact compression-ratio sensitivity curves, and the
#: averaged best-wavelet plane point (0.43, -0.26) all depend on that data.
#: This package reproduces the procedures, the report formats, and the
#: qualitative orderings on seeded synthetic cohorts only.
NON_REPRODUCIBILITY_NOTE = (
    "The reference canine experiment's numeric results are not reproducible "
    "without its animal recordings: per-channel comparison table entries, "
    "exact compression-ratio sensitivity curves, and the averaged "
    "best-wavelet plane point (0.43, -0.26) all depend on that data. This "
    "package reproduces the procedures, report formats, and qualitative "
    "orderings on seeded synthetic cohorts."
)
