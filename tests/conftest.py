import numpy as np
import pytest

from crt_spectra import cascade, excursion, forms

from cascade_oracle import truncated_perturbations


def tent_path(n: int = 100) -> excursion.ExcursionPath:
    """Piecewise-linear test excursion through (0,0),(.2,1),(.5,.3),(.8,1.2),(1,0).

    Built in lerp form so the three crossings of level 0.3 (at times 0.06,
    0.5, 0.95) land on exactly equal grid values.
    """
    k = np.arange(n + 1, dtype=np.float64)
    vals = np.empty(n + 1)
    segs = [(0, 20, 0.0, 1.0), (20, 50, 1.0, 0.3), (50, 80, 0.3, 1.2), (80, 100, 1.2, 0.0)]
    for k0, k1, v0, v1 in segs:
        k0, k1 = k0 * n // 100, k1 * n // 100
        m = (k >= k0) & (k <= k1)
        vals[m] = (v0 * (k1 - k[m]) + v1 * (k[m] - k0)) / (k1 - k0)
    return excursion.ExcursionPath(vals)


def small_network(depth: int, seed: int, trunc: int = 8) -> forms.ResistanceNetwork:
    """Cascade network with the truncated (binary-extension) perturbation table."""
    casc = cascade.CascadeTree.sample(depth, seed)
    table = truncated_perturbations(casc, trunc)
    return forms.assemble(depth, casc, table)


@pytest.fixture
def tent():
    return tent_path(100)
