"""tenkit: dense tensor algebra, network contraction planning, decompositions.

The public API is `__all__`: the `__all__` lists of the layer modules, in
layer order. `tenkit.cli` is the command line and stays out of it.
"""

from . import core, decomp, elementwise, errors, factor, io, network, products
from .core import *
from .decomp import *
from .elementwise import *
from .errors import *
from .factor import *
from .io import *
from .network import *
from .products import *

__all__ = [
    *core.__all__,
    *elementwise.__all__,
    *products.__all__,
    *factor.__all__,
    *network.__all__,
    *decomp.__all__,
    *io.__all__,
    *errors.__all__,
]

__version__ = "0.1.0"
