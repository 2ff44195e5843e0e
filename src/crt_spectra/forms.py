"""Random resistance forms on the dendrite's level-n vertex sets.

Each level-n cell carries one edge whose resistance is l(i) R_i / H, where
l is the cascade length, R the resistance perturbation (R / H is the
height of a mass-uniform point of the cell, Rayleigh in law; see
``cascade``) and H = sqrt(8/pi) the height normalizer; the cell's mass
l(i)**2 is lumped half/half onto its endpoints. The perturbations make the
family compatible: tracing the level-(n+1) form onto the level-n vertices
(series reduction through each midpoint, dangling tips dropped) reproduces
the level-n conductances up to rounding, because the series sum
telescopes through the R recursion (the trace and the lift of R onto
coarser levels live with the tests, in ``tests/forms_oracle.py`` and
``tests/cascade_oracle.py``). A network keeps only what a count reads: the
level graph's shared contraction schedule, the conductances and the
lumped masses. The cascade and base R it was assembled from stay with the
caller that drew them. :func:`diameter` reads the coarser levels' path
resistances off one bottom-up pass.
"""

from __future__ import annotations

import numpy as np

from .cascade import CascadeTree, HEIGHT_CONSTANT
from .dendrite import lump, structure
from .errors import IncompleteCascade


class ResistanceNetwork:
    """The level-n graph's contraction schedule, per-cell conductances and lumped vertex masses: all a count reads."""

    def __init__(self, level: int, conductance: np.ndarray, vertex_mass: np.ndarray):
        self.level = level
        self.schedule = structure(level)
        self.conductance = conductance
        self.vertex_mass = vertex_mass
        if not (conductance > 0).all():
            raise ValueError("conductances must be positive")
        if abs(vertex_mass.sum() - 1.0) > 1e-9:
            raise ValueError("vertex masses must sum to 1")

    @property
    def n_vertices(self) -> int:
        return self.schedule.n_vertices

    @property
    def corner_cells(self) -> tuple[int, int]:
        """Base cells ending at corners 0 and 1 (n >= 1): cells 0 and 1 at level 1, then child 2 of those a level up."""
        return ((3**self.level - 3) // 2, (3**self.level - 1) // 2)


def assemble(level: int, lengths: np.ndarray, r_base: np.ndarray) -> ResistanceNetwork:
    """Level-n network of a depth-n cascade's base lengths l and base-level R: conductance H/(l R), masses l**2.

    The lengths, ``r_base`` and the level graph's cells share the
    child-major cell order, so no array is reordered. The cell masses are
    lumped and dropped before the conductances are formed in place.
    """
    if lengths.shape != (3**level,) or r_base.shape != (3**level,):
        raise IncompleteCascade(f"lengths {lengths.shape} or R {r_base.shape} miss the 3**{level} base cells")
    vertex_mass = lump(lengths * lengths * 0.5)
    conductance = np.multiply(lengths, r_base)
    np.divide(HEIGHT_CONSTANT, conductance, out=conductance)
    return ResistanceNetwork(level, conductance, vertex_mass)


def subnetwork_fresh(cascade: CascadeTree, r_base: np.ndarray, j: int) -> ResistanceNetwork:
    """Fresh assembly of first-generation cell j from the shifted cascade and every third base R from j - 1."""
    sub = cascade.subtree(j)
    return assemble(sub.depth, sub.base_lengths, r_base[j - 1 :: 3])


def diameter(net: ResistanceNetwork) -> float:
    """Largest effective resistance between any two vertices.

    One pass from the base level up. On each level ``rho`` is the
    boundary-to-boundary resistance through each cell, ``h0`` and ``h1``
    the eccentricities of its two boundary points into the cell, and
    ``best`` the cell's diameter; a parent's values follow from its three
    children's, whose cells 1 and 2 lie in series. In the child-major cell
    order the children j of every parent form the j-th third of a level.
    """
    rho = h0 = h1 = best = 1.0 / net.conductance
    for _ in range(net.level):
        k = rho.shape[0] // 3
        r1, r2 = rho[:k], rho[k : 2 * k]
        down1 = h0[:k]  # from the shared midpoint into each child
        down2 = h0[k : 2 * k]
        down3 = h0[2 * k :]
        new_h0 = np.maximum(h1[:k], r1 + np.maximum(down2, down3))
        new_h1 = np.maximum(h1[k : 2 * k], r2 + np.maximum(down1, down3))
        pair = np.maximum(
            down1 + down2,
            np.maximum(down1 + down3, down2 + down3),
        )
        best = np.maximum(np.maximum(best[:k], np.maximum(best[k : 2 * k], best[2 * k :])), pair)
        h0, h1, rho = new_h0, new_h1, r1 + r2
    return float(best[0])
