"""The deterministic self-similar dendrite: the combinatorics of its level graphs.

Three contractions generate the set: two fold the unit segment onto its
halves, the third plants a stub of relative size c at the midpoint. Level-n
approximations carry one edge per word of length n over {1,2,3}; refinement
replaces each edge by a Y. Vertex identification is purely combinatorial
(the three children of a cell share its midpoint), so nothing here depends
on the plotting constant c, and the planar maps and coordinates live with
the tests (``tests/dendrite_oracle.py``), which check the identification
against them.

Vertex ids are stable across refinement: the two corners are 0 and 1, and
the midpoint/tip pair created for cell ordinal p at level q get ids
3**q + 1 + 2p and 3**q + 2 + 2p.
"""

from __future__ import annotations

from functools import cached_property, lru_cache

import numpy as np

from ._kernels import ContractionSchedule, contraction_schedule
from .errors import CapacityError
from .settings import cell_budget


class DendriteStructure:
    """Combinatorial skeleton of the level-n graph, shared by all cascades.

    Holds the endpoint ids of each level-n cell (``F_i(0,0)`` image first)
    and the level graph's contraction schedule.
    """

    def __init__(self, level: int):
        self.level = level
        ep0 = np.zeros(1, dtype=np.int64)
        ep1 = np.ones(1, dtype=np.int64)
        for q in range(level):
            nc = 3**q
            mids = (nc + 1) + 2 * np.arange(nc, dtype=np.int64)
            e1 = np.empty(3 * nc, dtype=np.int64)
            e1[0::3] = ep0
            e1[1::3] = ep1
            e1[2::3] = mids + 1
            ep0, ep1 = np.repeat(mids, 3), e1
        self.ep0, self.ep1 = ep0, ep1
        self.n_vertices = 3**level + 1

    def lump(self, cell_mass: np.ndarray) -> np.ndarray:
        """Vertex masses with each cell's mass split half/half onto its endpoints."""
        half, nv = 0.5 * cell_mass, self.n_vertices
        return np.bincount(self.ep0, weights=half, minlength=nv) + np.bincount(self.ep1, weights=half, minlength=nv)

    @cached_property
    def schedule(self) -> ContractionSchedule:
        """Elimination rounds of the level graph with corners 0 and 1 kept, built on first use."""
        return contraction_schedule(self.ep0, self.ep1, self.n_vertices, 0, 1)


@lru_cache(maxsize=32)
def structure(level: int) -> DendriteStructure:
    if 3**level > cell_budget():
        raise CapacityError(f"3**{level} cells exceed budget {cell_budget()}")
    return DendriteStructure(level)
