"""sobtrace: rearrangements, Lorentz quasinorms, distance-to-boundary
fields, isoperimetric profiles, and zero-trace diagnostics on explicit
planar and cube domains.

Each module's ``__all__`` is the one list of its public names; the package
re-exports exactly those.
"""

from . import domains, isoperimetry, lorentz, rearrangement, traces
from .domains import *  # noqa: F401,F403
from .isoperimetry import *  # noqa: F401,F403
from .lorentz import *  # noqa: F401,F403
from .rearrangement import *  # noqa: F401,F403
from .traces import *  # noqa: F401,F403

__version__ = "0.1.0"

__all__ = [
    *rearrangement.__all__,
    *lorentz.__all__,
    *domains.__all__,
    *isoperimetry.__all__,
    *traces.__all__,
    "__version__",
]
