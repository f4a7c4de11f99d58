"""Exact translation between 1-D ReLU networks and piecewise-linear splines.

Networks here map R to R, feed the raw input into every layer through
"source channels", and are equal (not approximately, but as functions) to
continuous piecewise-linear splines with finitely many knots.  The package
converts in both directions in closed form, normalizes network scales,
synthesizes networks whose splines break exactly at prescribed knots, and
audits the sharp bound on how many knots a given architecture can produce.
"""

from . import analysis, core, evaluate, normalize, serialization, synth, transfer
from .analysis import *  # noqa: F401,F403
from .core import *  # noqa: F401,F403
from .evaluate import *  # noqa: F401,F403
from .normalize import *  # noqa: F401,F403
from .serialization import *  # noqa: F401,F403
from .synth import *  # noqa: F401,F403
from .transfer import *  # noqa: F401,F403

__version__ = "0.1.0"

# each public name is listed once, in the __all__ of the module that defines it
__all__ = [
    name
    for module in (analysis, core, evaluate, normalize, serialization, synth, transfer)
    for name in module.__all__
]
