"""The dendrite in the plane: its three contractions and the coordinates of its level graphs.

The package counts on the combinatorial level graphs of
``crt_spectra.dendrite`` alone. These planar maps place the same vertices
in the plane, so the tests can check that the combinatorial identification
(children share their parent's midpoint, ids stable across refinement)
matches the geometry, and that the words 1 1 2 2 ..., 2 1 2 2 ... and
3 1 2 2 ... project onto one point, the p.c.f. critical set.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from cascade_oracle import Address
from crt_spectra.dendrite import structure


@dataclass(frozen=True)
class ContractionSystem:
    """The three planar contractions; c in (0, 1/2) sizes the middle stub."""

    c: float = 0.25

    def __post_init__(self):
        if not 0.0 < self.c < 0.5:
            raise ValueError("c must lie in (0, 1/2)")


def apply_map(sys: ContractionSystem, j: int, p: tuple[float, float]) -> tuple[float, float]:
    """Image of a point under contraction j (1, 2 or 3)."""
    x, y = p
    if j == 1:
        return (1.0 - x) / 2.0, y / 2.0
    if j == 2:
        return (1.0 + x) / 2.0, -y / 2.0
    if j == 3:
        return 0.5 + sys.c * y, sys.c * x
    raise ValueError("map index must be 1, 2 or 3")


def apply_word(sys: ContractionSystem, word: Address | tuple[int, ...], p: tuple[float, float]) -> tuple[float, float]:
    """Composition F_{w1} o ... o F_{wn} applied to a point."""
    digits = word.word if isinstance(word, Address) else tuple(word)
    for j in reversed(digits):
        p = apply_map(sys, j, p)
    return p


def project(sys: ContractionSystem, word: Address, depth: int) -> tuple[float, float]:
    """Depth-n approximation of the projection of an infinite word.

    Applies the first ``depth`` maps of the word to the corner (0, 0);
    successive depths form a Cauchy sequence with ratio max(1/2, c).
    """
    if len(word.word) < depth:
        raise ValueError("word shorter than requested depth")
    return apply_word(sys, word.word[:depth], (0.0, 0.0))


class DendriteGraph:
    """Level-n approximation: 3**n edges, 3**n + 1 vertices, a tree.

    The vertex ids and edges are those of ``structure(n)``; the coordinates
    place them in the plane (they depend on c, the ids do not). Per-cell affine data
    (origin and the images of the unit vectors) lets refinement place the
    new midpoints and tips without recomposing map words.
    """

    def __init__(
        self,
        sys: ContractionSystem,
        level: int,
        coords: np.ndarray,
        origin: np.ndarray,
        ux: np.ndarray,
        uy: np.ndarray,
    ):
        self.sys = sys
        self.level = level
        self.structure = structure(level)
        self.coords = coords
        self.boundary = (0, 1)
        self._origin = origin  # F_cell(0, 0) per cell
        self._ux = ux  # F_cell(1, 0) - F_cell(0, 0)
        self._uy = uy  # F_cell(0, 1) - F_cell(0, 0)

    @classmethod
    def build(cls, level: int, sys: ContractionSystem | None = None) -> "DendriteGraph":
        g = cls.base(sys)
        for _ in range(level):
            g = refine(g)
        return g

    @classmethod
    def base(cls, sys: ContractionSystem | None = None) -> "DendriteGraph":
        sys = sys or ContractionSystem()
        coords = np.array([[0.0, 0.0], [1.0, 0.0]])
        origin = np.zeros((1, 2))
        ux = np.array([[1.0, 0.0]])
        uy = np.array([[0.0, 1.0]])
        return cls(sys, 0, coords, origin, ux, uy)

    @property
    def n_vertices(self) -> int:
        return self.structure.n_vertices

    @property
    def n_edges(self) -> int:
        return 3**self.level

    def edge_endpoints(self) -> tuple[np.ndarray, np.ndarray]:
        return self.structure.ep0, self.structure.ep1

    def cell_address(self, ordinal: int) -> Address:
        return Address.from_ordinal(self.level, ordinal)


def refine(graph: DendriteGraph) -> DendriteGraph:
    """Replace each cell edge by a Y: midpoint, tip, three child cells.

    Child k1 joins the midpoint to the cell's first corner, k2 to the
    second, k3 to the new tip; the three children share only the midpoint
    (the identification is by id, not by coordinate matching).
    """
    sys = graph.sys
    c = sys.c
    level = graph.level
    nc = 3**level
    st = structure(level + 1)
    coords = np.empty((st.n_vertices, 2))
    coords[: graph.n_vertices] = graph.coords
    o, ux, uy = graph._origin, graph._ux, graph._uy
    mid = o + 0.5 * ux
    tip = mid + c * uy
    coords[nc + 1 : st.n_vertices : 2] = mid
    coords[nc + 2 : st.n_vertices : 2] = tip
    # affine parts of the child cells: compose with each generator
    o2 = np.empty((3 * nc, 2))
    x2 = np.empty((3 * nc, 2))
    y2 = np.empty((3 * nc, 2))
    o2[0::3] = mid
    o2[1::3] = mid
    o2[2::3] = mid
    x2[0::3] = -0.5 * ux
    x2[1::3] = 0.5 * ux
    x2[2::3] = c * uy
    y2[0::3] = 0.5 * uy
    y2[1::3] = -0.5 * uy
    y2[2::3] = c * ux
    return DendriteGraph(sys, level + 1, coords, o2, x2, y2)
