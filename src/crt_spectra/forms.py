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
``tests/cascade_oracle.py``). A network keeps only the base-level R it was
assembled from; :func:`diameter` reads the coarser levels' path
resistances off one bottom-up pass.
"""

from __future__ import annotations

import numpy as np

from .cascade import CascadeTree, HEIGHT_CONSTANT
from .dendrite import structure
from .errors import IncompleteCascade


class ResistanceNetwork:
    """Edge conductances and lumped vertex masses on the level-n graph."""

    def __init__(
        self,
        level: int,
        conductance: np.ndarray,
        cell_mass: np.ndarray,
        cascade: CascadeTree | None = None,
        perturbations: np.ndarray | None = None,
    ):
        self.level = level
        self.structure = structure(level)
        self.conductance = conductance
        self.cell_mass = cell_mass
        self.cascade = cascade
        self.perturbations = perturbations  # base-level R, one per cell in cell order
        self.vertex_mass = self.structure.lump(cell_mass)
        if not (conductance > 0).all():
            raise ValueError("conductances must be positive")
        if abs(self.vertex_mass.sum() - 1.0) > 1e-9:
            raise ValueError("vertex masses must sum to 1")

    @property
    def n_vertices(self) -> int:
        return self.structure.n_vertices


def assemble(level: int, cascade: CascadeTree, r_base: np.ndarray) -> ResistanceNetwork:
    """Level-n network of a depth-n cascade and its base-level R: conductance H/(l R), masses l**2.

    The cascade's lengths, ``r_base`` and the level graph's cells share the
    child-major cell order, so no array is reordered.
    """
    if cascade.depth != level:
        raise IncompleteCascade(f"cascade depth {cascade.depth} != graph level {level}")
    if r_base.shape != (3**level,):
        raise IncompleteCascade(f"perturbations of shape {r_base.shape} do not cover the 3**{level} base cells")
    l_arr = cascade.base_lengths
    return ResistanceNetwork(level, HEIGHT_CONSTANT / (l_arr * r_base), l_arr * l_arr, cascade, r_base)


def subnetwork_fresh(net: ResistanceNetwork, j: int) -> ResistanceNetwork:
    """Fresh assembly of cell j from the shifted cascade and cell j's base R, every third cell from j - 1."""
    if net.cascade is None or net.perturbations is None:
        raise IncompleteCascade("fresh subnetwork needs cascade and perturbations")
    sub = net.cascade.subtree(j)
    return assemble(sub.depth, sub, net.perturbations[j - 1 :: 3])


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
