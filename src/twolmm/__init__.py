"""Hyperspectral spectral unmixing under scaling variability.

Baseline unmixers (fully constrained and pixel-scaled least squares), a
two-step scaling model solved by alternating least squares or a nonlinearly
preconditioned limited-memory quasi-Newton method, endmember extraction
with perspective projection, and a synthetic-scene benchmark harness.

The package exports the public names of its modules, each declared in its
module's ``__all__``.
"""

__version__ = "0.1.0"

from . import baselines, core, datagen, endmembers, fileio, solvers, trace, twostep
from .baselines import *
from .core import *
from .datagen import *
from .endmembers import *
from .fileio import *
from .solvers import *
from .trace import *
from .twostep import *

_MODULES = (baselines, core, datagen, endmembers, fileio, solvers, trace, twostep)
__all__ = ["__version__", *(name for module in _MODULES for name in module.__all__)]
