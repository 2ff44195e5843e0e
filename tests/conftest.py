import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from crt_spectra import cascade, excursion, forms

from cascade_oracle import truncated_perturbations

SRC = Path(__file__).resolve().parents[1] / "src"


def run_fresh(code: str, timeout: float = 120, **env: str) -> str:
    """Run ``code`` in a fresh interpreter on this checkout's package; return its stripped stdout.

    The child gets this environment with ``PYTHONPATH`` set to ``src`` and
    without ``OPENBLAS_NUM_THREADS``, unless ``env`` passes it: importing
    ``crt_spectra.cli`` in this process sets that variable here too.
    """
    base = {k: v for k, v in os.environ.items() if k != "OPENBLAS_NUM_THREADS"}
    proc = subprocess.run(
        [sys.executable, "-c", code], env={**base, "PYTHONPATH": str(SRC), **env},
        capture_output=True, text=True, timeout=timeout,
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.strip()


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
    """Cascade network with truncated (binary-extension) perturbations."""
    casc = cascade.CascadeTree.sample(depth, seed)
    return forms.assemble(depth, casc, truncated_perturbations(casc, trunc))


@pytest.fixture
def tent():
    return tent_path(100)
