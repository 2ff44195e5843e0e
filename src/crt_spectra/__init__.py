"""Random self-similar dendrites and spectral asymptotics for the continuum random tree.

The package builds the random tree two ways -- from sampled Brownian
excursions and from a multiplicative cascade on a deterministic planar
dendrite -- assembles the associated resistance forms, and counts
eigenvalues of the generalized problem L f = lambda M f by matrix inertia.
The two routes give independent estimates of the leading-order constant in
N(lambda) ~ C0 * lambda**(2/3).

Importing the package loads only its version and error types, not numpy.
Each submodule loads when it is imported by name (``import
crt_spectra.asymptotics``), so ``crt_spectra.cli`` can fix numpy's BLAS
thread count before numpy starts.
"""

__version__ = "0.1.0"

from .errors import (
    CapacityError,
    IncompleteCascade,
    TailError,
    WindowUnresolved,
)

__all__ = [
    "CapacityError",
    "IncompleteCascade",
    "TailError",
    "WindowUnresolved",
    "__version__",
]
