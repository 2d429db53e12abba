"""focklab: sampling, interpolation and uniqueness experiments for divisors
with multiplicities in Bargmann-Fock space.

The atom algebra (core), closed-form overlap kernels (kernels), disc geometry
(geometry), truncated-space spectral experiments (numerics) and divisor
families (generators) are importable directly from the package root: each
module's public names are the ones listed in its __all__.
"""

__version__ = "0.1.0"

from . import core, generators, geometry, kernels, numerics
from .core import *  # noqa: F401,F403
from .generators import *  # noqa: F401,F403
from .geometry import *  # noqa: F401,F403
from .kernels import *  # noqa: F401,F403
from .numerics import *  # noqa: F401,F403
from .reports import SchemaError, canonical_json, load_divisor, save_divisor

__all__ = [
    "__version__",
    *core.__all__,
    *kernels.__all__,
    *geometry.__all__,
    *numerics.__all__,
    *generators.__all__,
    "SchemaError",
    "canonical_json",
    "load_divisor",
    "save_divisor",
]
