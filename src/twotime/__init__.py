"""Pre- and post-selected quantum states as first-class objects.

A two-time state pairs a preparation (at the earlier time) with a
post-selection (at the later time) in a single tensor, so that
ensembles, measurements, probabilities, weak values, tomography, and a
Monte Carlo realization of the physical selection protocol all operate
on one coherent set of types.  See the module docstrings for the
conventions (row = post-selection, column = preparation; bilinear
pairing without conjugation; row-major vectorization).
"""

from . import bipartite, core, errors, io, measurements, montecarlo, probability, states
from . import tomography, weak_values
from .bipartite import *
from .core import *
from .errors import *
from .io import *
from .measurements import *
from .montecarlo import *
from .probability import *
from .states import *
from .tomography import *
from .weak_values import *

__version__ = "0.1.0"

#: Each module's ``__all__`` in order; a tolerance re-exported from core keeps core's place.
__all__ = ["__version__", *dict.fromkeys(
    name for module in (core, states, measurements, probability, tomography, weak_values,
                        bipartite, montecarlo, io, errors)
    for name in module.__all__)]
