"""The deterministic self-similar dendrite: the combinatorics of its level graphs.

Three contractions generate the set: two fold the unit segment onto its
halves, the third plants a stub of relative size c at the midpoint. Level-n
approximations carry one edge per word of length n over {1,2,3}; refinement
replaces each edge by a Y. Vertex identification is purely combinatorial
(the three children of a cell share its midpoint), so nothing here depends
on the plotting constant c, and the planar maps and coordinates live with
the tests (``tests/dendrite_oracle.py``), which check the identification
against them.

Cells and vertices are numbered child-major. Child j of level-q cell c is
level-(q+1) cell c + (j - 1) 3**q, so a cell's ordinal is its address
read with the first digit least significant (the base-3 digit reversal of
the address ordinal), and first-generation cell j holds the level-n cells
j - 1, j + 2, j + 5, ... Vertex ids are stable across refinement: the two
corners are 0 and 1, and the midpoint and tip created for level-q cell c
get ids 3**q + 1 + c and 2 3**q + 1 + c. So every refinement level's
midpoints, tips and cells are runs of consecutive ids, and each round of
the level graph's contraction schedule reads its vertices and edge slots
as step-1 slices. The cascade draws its per-cell arrays in this order too.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

from ._kernels import ContractionSchedule, schedule_round
from .errors import CapacityError
from .settings import cell_budget


class DendriteStructure:
    """Combinatorial skeleton of the level-n graph, shared by all cascades.

    Holds the endpoint ids of each level-n cell in child-major order
    (``F_i(0,0)`` image first) and the level graph's contraction schedule.
    Child 1 joins its parent's midpoint to the parent's first endpoint,
    child 2 to the second and child 3 to the new tip.

    The schedule is written down as the endpoints are refined, and equals
    the generic builder's field for field. Round k eliminates level
    q = n - 1 - k (K = 3**q): it rakes tips [2K + 1, 3K + 1) through slots
    [s + 2K, s + 3K) into midpoints [K + 1, 2K + 1), then compresses those
    through slots [s, s + K) and [s + K, s + 2K) into fill edges, level q's
    cells, from slot ``fill`` on. s is 0, then the previous round's fill;
    fill is 3**n, then grows by the previous K.
    """

    def __init__(self, level: int):
        self.level = level
        n_cells = 3**level
        self.n_vertices = n_cells + 1
        ep0 = np.zeros(1, dtype=np.int64)
        ep1 = np.ones(1, dtype=np.int64)
        mark = np.empty(self.n_vertices, dtype=bool)
        rounds = []
        for q in range(level):
            k = 3**q
            fill = n_cells + (n_cells - 3 * k) // 2
            s = 0 if q == level - 1 else n_cells + (n_cells - 9 * k) // 2
            tip, mid = slice(2 * k + 1, 3 * k + 1, 1), slice(k + 1, 2 * k + 1, 1)
            parts = (tip, slice(s + 2 * k, s + 3 * k, 1), mid, slice(s, s + k, 1), slice(s + k, s + 2 * k, 1))
            mids = np.arange(k + 1, 2 * k + 1, dtype=np.int64)
            rounds.append(schedule_round(parts, mids, fill, ep0, ep1, True, mark))
            ep0, ep1 = np.concatenate((mids, mids, mids)), np.concatenate((ep0, ep1, mids + k))
        self.ep0, self.ep1 = ep0, ep1
        n_slots = n_cells + (n_cells - 1) // 2
        acc_live, g_live = (3 ** (level - 1) + 1, 0) if level else (2, 1)
        self.schedule = ContractionSchedule(
            tuple(reversed(rounds)), self.n_vertices, n_slots, n_slots - 1, 0, 1, acc_live, g_live
        )

    def lump(self, cell_mass: np.ndarray) -> np.ndarray:
        """Vertex masses with each cell's mass split half/half onto its endpoints."""
        half, nv = 0.5 * cell_mass, self.n_vertices
        return np.bincount(self.ep0, weights=half, minlength=nv) + np.bincount(self.ep1, weights=half, minlength=nv)


@lru_cache(maxsize=32)
def structure(level: int) -> DendriteStructure:
    if 3**level > cell_budget():
        raise CapacityError(f"3**{level} cells exceed budget {cell_budget()}")
    return DendriteStructure(level)
