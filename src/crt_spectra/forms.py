"""Random resistance forms on the dendrite's level-n vertex sets.

Each level-n cell carries one edge whose resistance is l(i) R_i / H, where
l is the cascade length, R the resistance perturbation (R / H is the
height of a mass-uniform point of the cell, Rayleigh in law; see
``cascade``) and H = sqrt(8/pi) the height normalizer; the cell's mass
l(i)**2 is lumped half/half onto its endpoints. The perturbations make the
family compatible: tracing the level-(n+1) form onto the level-n vertices
(series reduction through each midpoint, dangling tips dropped) reproduces
the level-n conductances up to rounding, because the series sum
telescopes through the R recursion (the trace lives with the tests, in
``tests/forms_oracle.py``).
"""

from __future__ import annotations

import numpy as np

from .cascade import CascadeTree, PerturbationTable, HEIGHT_CONSTANT
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
        perturbations: PerturbationTable | None = None,
    ):
        self.level = level
        self.structure = structure(level)
        self.conductance = conductance
        self.cell_mass = cell_mass
        self.cascade = cascade
        self.perturbations = perturbations
        self.vertex_mass = self.structure.lump(cell_mass)
        if not (conductance > 0).all():
            raise ValueError("conductances must be positive")
        if abs(self.vertex_mass.sum() - 1.0) > 1e-9:
            raise ValueError("vertex masses must sum to 1")

    @property
    def n_vertices(self) -> int:
        return self.structure.n_vertices


def assemble(level: int, cascade: CascadeTree, perturbations: PerturbationTable) -> ResistanceNetwork:
    """Level-n network of a depth-n cascade: conductance H/(l R), masses l**2."""
    if cascade.depth != level:
        raise IncompleteCascade(f"cascade depth {cascade.depth} != graph level {level}")
    if perturbations.base_depth < level:
        raise IncompleteCascade("perturbation table does not cover the base level")
    l_arr = cascade.l_levels()[level]
    r_arr = perturbations.r_levels[level]
    if r_arr.shape[0] != 3**level:
        raise IncompleteCascade("perturbation table misses base-level addresses")
    conduct = HEIGHT_CONSTANT / (l_arr * r_arr)
    return ResistanceNetwork(level, conduct, l_arr * l_arr, cascade, perturbations)


def subnetwork_fresh(net: ResistanceNetwork, j: int) -> ResistanceNetwork:
    """Fresh assembly of cell j from the shifted cascade and table views."""
    if net.cascade is None or net.perturbations is None:
        raise IncompleteCascade("fresh subnetwork needs cascade and perturbations")
    return assemble(net.level - 1, net.cascade.subtree(j), net.perturbations.subtree(j))


# ---------------------------------------------------------------------------
# Resistance geometry: path resistances and diameters
# ---------------------------------------------------------------------------


def _cell_path_resistances(net: ResistanceNetwork) -> list[np.ndarray]:
    """Per level, the boundary-to-boundary resistance through each cell."""
    rho = [1.0 / net.conductance]
    for _ in range(net.level):
        prev = rho[-1]
        rho.append(prev[0::3] + prev[1::3])
    return rho[::-1]  # index by level


def cell_diameters(net: ResistanceNetwork, level: int) -> np.ndarray:
    """Resistance diameter of each level-q cell's vertex set."""
    if not 0 <= level <= net.level:
        raise ValueError("level out of range")
    rho = _cell_path_resistances(net)
    h0 = 1.0 / net.conductance  # eccentricity of endpoint 0 into the cell
    h1 = h0.copy()
    best = h0.copy()
    for q in range(net.level - 1, level - 1, -1):
        r1, r2 = rho[q + 1][0::3], rho[q + 1][1::3]
        down1 = h0[0::3]  # from the shared midpoint into each child
        down2 = h0[1::3]
        down3 = h0[2::3]
        new_h0 = np.maximum(h1[0::3], r1 + np.maximum(down2, down3))
        new_h1 = np.maximum(h1[1::3], r2 + np.maximum(down1, down3))
        pair = np.maximum(
            down1 + down2,
            np.maximum(down1 + down3, down2 + down3),
        )
        new_best = np.maximum(np.maximum(best[0::3], np.maximum(best[1::3], best[2::3])), pair)
        h0, h1, best = new_h0, new_h1, new_best
    return best


def diameter(net: ResistanceNetwork) -> float:
    """Largest effective resistance between any two vertices."""
    return float(cell_diameters(net, 0)[0])
