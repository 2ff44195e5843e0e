"""The deterministic self-similar dendrite in the plane.

Three contractions generate the set: two fold the unit segment onto its
halves, the third plants a stub of relative size c at the midpoint. Level-n
approximations carry one edge per word of length n over {1,2,3}; refinement
replaces each edge by a Y. Vertex identification is purely combinatorial
(the three children of a cell share its midpoint), so nothing downstream
depends on the plotting constant c.

Vertex ids are stable across refinement: the two corners are 0 and 1, and
the midpoint/tip pair created for cell ordinal p at level q get ids
3**q + 1 + 2p and 3**q + 2 + 2p.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, lru_cache

import numpy as np

from ._kernels import ContractionSchedule, contraction_schedule
from .cascade import Address
from .errors import CapacityError
from .settings import cell_budget


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
    if len(word) < depth:
        raise ValueError("word shorter than requested depth")
    return apply_word(sys, word.truncate(depth), (0.0, 0.0))


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


class DendriteGraph:
    """Level-n approximation: 3**n edges, 3**n + 1 vertices, a tree.

    Coordinates are carried for visualization and exports only; every
    counting result is independent of them (and of c). Per-cell affine data
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

    def edge_csv(self) -> str:
        """Edge list: cell address, endpoint ids, endpoint coordinates."""
        e0, e1 = self.edge_endpoints()
        lines = ["cell,endpoint0,endpoint1,x0,y0,x1,y1"]
        for p in range(self.n_edges):
            a, b = int(e0[p]), int(e1[p])
            lines.append(
                f"{self.cell_address(p)},{a},{b},"
                f"{self.coords[a, 0]:.17g},{self.coords[a, 1]:.17g},"
                f"{self.coords[b, 0]:.17g},{self.coords[b, 1]:.17g}"
            )
        return "\n".join(lines) + "\n"


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
