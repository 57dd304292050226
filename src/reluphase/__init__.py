"""reluphase: a laboratory for exact subgradient descent on two-layer ReLU nets.

Train fixed-output-layer ReLU classifiers on the multiclass hinge loss with
deterministic full-batch subgradient descent, test the geometric condition on
unit directions with certified linear programming, compare against the
closed-form probability that random directions satisfy it, split runs into
slow and fast phases with matching theoretical bound calculators, probe the
loss landscape (constructive global minima, critical-point audits, empirical
Lipschitz moduli), and drive it all from a config-based CLI that emits
deterministic CSV, JSON, and SVG.
"""

from .core import *
from .datagen import *
from .geometry import *
from .landscape import *
from .losses import *
from .phases import *
from .simplex import *
from .training import *
from . import core, datagen, geometry, landscape, losses, phases, simplex, training

__version__ = "0.1.0"

# Each module's __all__ is the one list of its public names.
__all__ = [
    *core.__all__,
    *datagen.__all__,
    *geometry.__all__,
    *landscape.__all__,
    *losses.__all__,
    *phases.__all__,
    *simplex.__all__,
    *training.__all__,
    "__version__",
]
