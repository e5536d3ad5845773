"""Finite-section laboratory for Toeplitz operators on the Bergman space.

The package realizes Toeplitz operators with bounded harmonic symbols
on the Bergman space of the unit disc as finite truncated matrices in
the orthonormal monomial basis, and provides the surrounding apparatus
(kernel transforms, grid minimization of symbol modulus, singular value
trends, operator inequality checks) needed to study invertibility at
desk scale.
"""

from __future__ import annotations

__version__ = "0.1.0"

from . import analysis, berezin, disc, errors, symbols, toeplitz
from .analysis import *  # noqa: F401,F403
from .berezin import *  # noqa: F401,F403
from .disc import *  # noqa: F401,F403
from .errors import *  # noqa: F401,F403
from .symbols import *  # noqa: F401,F403
from .toeplitz import *  # noqa: F401,F403

__all__ = [
    "__version__",
    *disc.__all__,
    *errors.__all__,
    *symbols.__all__,
    *toeplitz.__all__,
    *berezin.__all__,
    *analysis.__all__,
]
