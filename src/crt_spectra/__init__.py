"""Random self-similar dendrites and spectral asymptotics for the continuum random tree.

The package builds the random tree two ways -- from sampled Brownian
excursions and from a multiplicative cascade on a deterministic planar
dendrite -- assembles the associated resistance forms, and counts
eigenvalues of the generalized problem L f = lambda M f by matrix inertia.
The two routes give independent estimates of the leading-order constant in
N(lambda) ~ C0 * lambda**(2/3).
"""

__version__ = "0.1.0"

from . import asymptotics, cascade, dendrite, excursion, forms, spectrum
from .errors import (
    CapacityError,
    IncompleteCascade,
    TailError,
    WindowUnresolved,
)

__all__ = [
    "asymptotics",
    "cascade",
    "dendrite",
    "excursion",
    "forms",
    "spectrum",
    "CapacityError",
    "IncompleteCascade",
    "TailError",
    "WindowUnresolved",
    "__version__",
]
