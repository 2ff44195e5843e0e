"""The dendrite in the plane: its three contractions and the coordinates of its level graphs.

The package counts on the combinatorial level graphs of
``crt_spectra.dendrite`` alone. These planar maps place the same vertices
in the plane, so the tests can check that the combinatorial identification
(children share their parent's midpoint, ids stable across refinement)
matches the geometry, and that the words 1 1 2 2 ..., 2 1 2 2 ... and
3 1 2 2 ... project onto one point, the p.c.f. critical set.

``child_major_endpoints`` lists the endpoint ids of each cell of the
package's child-major level graph, the one reference for its edges; the
package keeps none, only the contraction schedule.
``AddressOrderStructure`` is the level graph numbered in lexicographic
address order, as the package numbered it before it went child-major;
``address_order_network`` permutes a cascade's base lengths and base R
into that order and assembles them on it. With ``address_ordinals`` and
``address_vertex_ids`` relating the two numberings, it is the reference
that every mass, count, pivot, diameter and floor of the child-major
network must match bit for bit.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from cascade_oracle import Address, l_levels
from crt_spectra._kernels import contraction_schedule
from crt_spectra.cascade import HEIGHT_CONSTANT, CascadeTree


def child_major_endpoints(level: int) -> tuple[np.ndarray, np.ndarray]:
    """The (first, second) endpoint ids of each level-n cell, in child-major cell order.

    Child j of level-q cell c is level-(q + 1) cell c + (j - 1) 3**q; all
    three start at the cell's midpoint 3**q + 1 + c, and children 1, 2, 3
    end at the cell's first endpoint, its second and its new tip
    2 3**q + 1 + c.
    """
    ep0 = np.zeros(1, dtype=np.int64)
    ep1 = np.ones(1, dtype=np.int64)
    for q in range(level):
        k = 3**q
        mids = np.arange(k + 1, 2 * k + 1, dtype=np.int64)
        ep0, ep1 = np.concatenate((mids, mids, mids)), np.concatenate((ep0, ep1, mids + k))
    return ep0, ep1


def address_ordinals(level: int) -> np.ndarray:
    """The address ordinal of each child-major cell ordinal: its base-3 digits over ``level`` places, reversed.

    Reversing the digits twice restores them, so the map is its own inverse.
    """
    c = np.arange(3**level)
    p = np.zeros_like(c)
    for _ in range(level):
        p = 3 * p + c % 3
        c //= 3
    return p


def address_vertex_ids(level: int) -> np.ndarray:
    """The address-order id of each child-major vertex id of the level graph."""
    ids = np.arange(3**level + 1)
    for q in range(level):
        nc, p = 3**q, address_ordinals(q)
        ids[nc + 1 : 2 * nc + 1] = nc + 1 + 2 * p  # midpoints
        ids[2 * nc + 1 : 3 * nc + 1] = nc + 2 + 2 * p  # tips
    return ids


class AddressOrderStructure:
    """The level-n graph with cells in address order.

    The midpoint and tip created for level-q cell ordinal p get ids
    3**q + 1 + 2p and 3**q + 2 + 2p; the children of a cell are three
    consecutive cells.
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
        half, nv = 0.5 * cell_mass, self.n_vertices
        return np.bincount(self.ep0, weights=half, minlength=nv) + np.bincount(self.ep1, weights=half, minlength=nv)

    @cached_property
    def schedule(self):
        return contraction_schedule(self.ep0, self.ep1, self.n_vertices, 0, 1)


@dataclass
class AddressOrderNetwork:
    """A cascade network on the address-order level graph; counts, floors and eta read it as a network."""

    level: int
    structure: AddressOrderStructure
    conductance: np.ndarray
    cell_mass: np.ndarray
    vertex_mass: np.ndarray

    @property
    def n_vertices(self) -> int:
        return self.structure.n_vertices

    @property
    def schedule(self):
        return self.structure.schedule

    @property
    def corner_cells(self) -> tuple[int, int]:
        """The cells with exactly one endpoint in {0, 1}, read off the endpoint lists."""
        st = self.structure
        c0, c1 = np.flatnonzero((st.ep0 < 2) != (st.ep1 < 2)).tolist()
        return c0, c1


def address_order_network(cascade: CascadeTree, r_base: np.ndarray) -> AddressOrderNetwork:
    """A cascade and its base R assembled in address order: conductance H/(l R), masses l**2."""
    level = cascade.depth
    st, to_address = AddressOrderStructure(level), address_ordinals(level)
    l_arr, r_base = l_levels(cascade)[level][to_address], r_base[to_address]
    cell_mass = l_arr * l_arr
    return AddressOrderNetwork(level, st, HEIGHT_CONSTANT / (l_arr * r_base), cell_mass, st.lump(cell_mass))


def address_order_diameter(net: AddressOrderNetwork) -> float:
    """``forms.diameter``'s bottom-up pass with each parent's children as three consecutive cells."""
    rho = h0 = h1 = best = 1.0 / net.conductance
    for _ in range(net.level):
        r1, r2 = rho[0::3], rho[1::3]
        down1, down2, down3 = h0[0::3], h0[1::3], h0[2::3]
        new_h0 = np.maximum(h1[0::3], r1 + np.maximum(down2, down3))
        new_h1 = np.maximum(h1[1::3], r2 + np.maximum(down1, down3))
        pair = np.maximum(down1 + down2, np.maximum(down1 + down3, down2 + down3))
        best = np.maximum(np.maximum(best[0::3], np.maximum(best[1::3], best[2::3])), pair)
        h0, h1, rho = new_h0, new_h1, r1 + r2
    return float(best[0])


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

    The vertex ids and edges are those of ``child_major_endpoints(n)``; the coordinates
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
        return 3**self.level + 1

    @property
    def n_edges(self) -> int:
        return 3**self.level

    def edge_endpoints(self) -> tuple[np.ndarray, np.ndarray]:
        return child_major_endpoints(self.level)


def refine(graph: DendriteGraph) -> DendriteGraph:
    """Replace each cell edge by a Y: midpoint, tip, three child cells.

    Child k1 joins the midpoint to the cell's first corner, k2 to the
    second, k3 to the new tip; the three children share only the midpoint
    (the identification is by id, not by coordinate matching). New
    midpoints, new tips and each child j of every cell form consecutive
    runs, the j-th third of the finer level in child-major order.
    """
    sys = graph.sys
    c = sys.c
    level = graph.level
    nc = 3**level
    coords = np.empty((3 * nc + 1, 2))
    coords[: graph.n_vertices] = graph.coords
    o, ux, uy = graph._origin, graph._ux, graph._uy
    mid = o + 0.5 * ux
    tip = mid + c * uy
    coords[nc + 1 : 2 * nc + 1] = mid
    coords[2 * nc + 1 : 3 * nc + 1] = tip
    # affine parts of the child cells: compose with each generator
    o2 = np.concatenate((mid, mid, mid))
    x2 = np.concatenate((-0.5 * ux, 0.5 * ux, c * uy))
    y2 = np.concatenate((0.5 * uy, -0.5 * uy, c * ux))
    return DendriteGraph(sys, level + 1, coords, o2, x2, y2)
