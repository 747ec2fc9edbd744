"""Exact tools for orthogonal arrays and block designs.

The package bundles four kinds of operations:

* construction and verification of orthogonal arrays and 2-designs,
  with exact strength checking and a plain text interchange format;
* existence bounds (minimum index, minimum rows, maximum row
  multiplicity) evaluated in exact rational arithmetic;
* audit certificates that re-derive the bounds from an explicit array
  through independent proof techniques (variance counting, incidence
  ranks, Gram determinants, root-of-unity vectors, constant-weight
  codes) and report every intermediate check;
* a canonical backtracking search that decides existence of small
  arrays with a prescribed repeated row, plus an exact oracle for the
  maximum achievable row multiplicity.
"""

from . import arrays, bounds, certificates, cyclotomic, errors, linalg, search

# Each module's __all__ is the one list of its public names; the package
# exports exactly their union.
__all__ = [
    name
    for module in (arrays, bounds, certificates, cyclotomic, errors, linalg, search)
    for name in module.__all__
]

from .arrays import *  # noqa: E402, F403
from .bounds import *  # noqa: E402, F403
from .certificates import *  # noqa: E402, F403
from .cyclotomic import *  # noqa: E402, F403
from .errors import *  # noqa: E402, F403
from .linalg import *  # noqa: E402, F403
from .search import *  # noqa: E402, F403

__version__ = "0.1.0"
