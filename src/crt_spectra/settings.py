"""Runtime limits shared by the modules."""

from __future__ import annotations

import os

from .errors import CapacityError

_DEFAULT_CELL_BUDGET = 2**27


def cell_budget() -> int:
    """Maximum number of cells any single request may materialize.

    Override with the CRT_SPECTRA_BUDGET environment variable, a positive integer.
    """
    raw = os.environ.get("CRT_SPECTRA_BUDGET", "").strip()
    if not raw:
        return _DEFAULT_CELL_BUDGET
    if not raw.isdecimal() or int(raw) < 1:
        raise CapacityError(f"CRT_SPECTRA_BUDGET={raw!r} is not a positive integer")
    return int(raw)
