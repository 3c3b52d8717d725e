"""Exact arithmetic for n-periodic trees and their cluster structures.

The package ties together four layers: sign functions and their Euler
matrices (quiver), the periodic-tree combinatorics (tree, mutation),
the attached integer matrices and summand data (cluster), and region
membership plus exchange-graph exploration (roots, explorer).  All
computation is over int and fractions.Fraction; there is no float
anywhere in the core.

The public API is the union of the submodules' ``__all__`` lists.
"""

from . import cluster, explorer, functions, mutation, quiver, roots, serialize, tree
from .cluster import *  # noqa: F401,F403
from .explorer import *  # noqa: F401,F403
from .functions import *  # noqa: F401,F403
from .mutation import *  # noqa: F401,F403
from .quiver import *  # noqa: F401,F403
from .roots import *  # noqa: F401,F403
from .serialize import *  # noqa: F401,F403
from .tree import *  # noqa: F401,F403

__version__ = "0.1.0"

__all__ = [
    name
    for module in (cluster, explorer, functions, mutation, quiver, roots, serialize, tree)
    for name in module.__all__
]
