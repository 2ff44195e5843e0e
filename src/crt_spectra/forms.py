"""Random resistance forms on the dendrite's level-n vertex sets.

Each level-n cell carries one edge whose resistance is l(i) R_i / H, where
l is the cascade length, R the resistance perturbation and H = sqrt(8/pi)
the height normalizer; the cell's mass l(i)**2 is lumped half/half onto its
endpoints. The perturbations make the family compatible: tracing the
level-(n+1) form onto the level-n vertices (series reduction through each
midpoint, dangling tips dropped) reproduces the level-n conductances up to
rounding, because the series sum telescopes through the R recursion.
"""

from __future__ import annotations

import numpy as np

from .cascade import CascadeTree, PerturbationTable, HEIGHT_CONSTANT
from .dendrite import DendriteGraph, structure
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
        graph: DendriteGraph | None = None,
    ):
        self.level = level
        self.structure = structure(level)
        self.conductance = conductance
        self.cell_mass = cell_mass
        self.cascade = cascade
        self.perturbations = perturbations
        self.graph = graph
        self.vertex_mass = self.structure.lump(cell_mass)
        if not (conductance > 0).all():
            raise ValueError("conductances must be positive")
        if abs(self.vertex_mass.sum() - 1.0) > 1e-9:
            raise ValueError("vertex masses must sum to 1")
        self._rho: np.ndarray | None = None

    @property
    def n_vertices(self) -> int:
        return self.structure.n_vertices

    @property
    def boundary(self) -> tuple[int, int]:
        return (0, 1)

    def edge_resistance(self) -> np.ndarray:
        return 1.0 / self.conductance

    # -- exports -------------------------------------------------------------

    def dump_csv(self) -> str:
        lines = ["cell,conductance,mass0,mass1"]
        e0, e1 = self.structure.ep0, self.structure.ep1
        from .cascade import Address

        for p in range(self.conductance.shape[0]):
            lines.append(
                f"{Address.from_ordinal(self.level, p)},{self.conductance[p]:.17g},"
                f"{self.vertex_mass[e0[p]]:.17g},{self.vertex_mass[e1[p]]:.17g}"
            )
        return "\n".join(lines) + "\n"

    def matrix_coo(self) -> str:
        """Stiffness and mass entries as 'matrix,row,col,value' lines."""
        e0, e1, c, nv = self.structure.ep0, self.structure.ep1, self.conductance, self.n_vertices
        degree = np.bincount(e0, weights=c, minlength=nv) + np.bincount(e1, weights=c, minlength=nv)
        lines = ["matrix,row,col,value"]
        for v in range(nv):
            lines.append(f"L,{v},{v},{degree[v]:.17g}")
        for p in range(self.conductance.shape[0]):
            lines.append(f"L,{int(e0[p])},{int(e1[p])},{-self.conductance[p]:.17g}")
        for v in range(nv):
            lines.append(f"M,{v},{v},{self.vertex_mass[v]:.17g}")
        return "\n".join(lines) + "\n"


def assemble(
    graph: DendriteGraph | int,
    cascade: CascadeTree,
    perturbations: PerturbationTable,
) -> ResistanceNetwork:
    """Network at the cascade's depth: conductance H/(l R), masses l**2.

    ``graph`` may be a DendriteGraph (its level must match the cascade) or
    a bare level integer when no coordinates are needed.
    """
    if isinstance(graph, DendriteGraph):
        level, g = graph.level, graph
    else:
        level, g = int(graph), None
    if cascade.depth != level:
        raise IncompleteCascade(f"cascade depth {cascade.depth} != graph level {level}")
    if perturbations.base_depth < level:
        raise IncompleteCascade("perturbation table does not cover the base level")
    l_arr = cascade.l_levels()[level]
    r_arr = perturbations.r_levels[level]
    if r_arr.shape[0] != 3**level:
        raise IncompleteCascade("perturbation table misses base-level addresses")
    conduct = HEIGHT_CONSTANT / (l_arr * r_arr)
    return ResistanceNetwork(level, conduct, l_arr * l_arr, cascade, perturbations, g)


def trace_to_coarser(net: ResistanceNetwork) -> ResistanceNetwork:
    """Schur-complement trace onto the coarser vertex set.

    Each cell's tip is a dangling leaf (drops); eliminating the midpoint
    puts the first two child conductances in series. With R-values tied by
    the exact recursion this reproduces the coarser assembly to rounding.
    """
    if net.level < 1:
        raise ValueError("level-0 network has no coarser trace")
    if net.cascade is None or net.perturbations is None:
        raise IncompleteCascade("trace needs the originating cascade for coarse masses")
    c1 = net.conductance[0::3]
    c2 = net.conductance[1::3]
    traced = c1 * c2 / (c1 + c2)
    l_coarse = net.cascade.l_levels()[net.level - 1]
    return ResistanceNetwork(
        net.level - 1,
        traced,
        l_coarse * l_coarse,
        net.cascade,
        net.perturbations,
        None,
    )


def cell_block(net: ResistanceNetwork, j: int) -> tuple[np.ndarray, np.ndarray]:
    """(conductance, cell mass) slices of first-generation cell j.

    These are bit-exact principal sub-blocks of the assembled pencil; the
    block counted at lambda equals the normalized copy counted at
    lambda * w(j)**3.
    """
    if j not in (1, 2, 3):
        raise ValueError("first-generation cell must be 1, 2 or 3")
    block = 3 ** (net.level - 1)
    sl = slice((j - 1) * block, j * block)
    return net.conductance[sl], net.cell_mass[sl]


def subnetwork_rescaled(net: ResistanceNetwork, j: int) -> ResistanceNetwork:
    """Cell j renormalized to a standalone network.

    Conductances scale by w(j), masses by w(j)**-2; by the cascade's
    self-similarity the result is a fresh level-(n-1) network.
    """
    if net.cascade is None:
        raise IncompleteCascade("rescaling needs the originating cascade")
    w = float(net.cascade.w_levels()[1][j - 1])
    conduct, cmass = cell_block(net, j)
    return ResistanceNetwork(net.level - 1, conduct * w, cmass / (w * w), None, None, None)


def subnetwork_fresh(net: ResistanceNetwork, j: int) -> ResistanceNetwork:
    """Fresh assembly of cell j from the shifted cascade and table views."""
    if net.cascade is None or net.perturbations is None:
        raise IncompleteCascade("fresh subnetwork needs cascade and perturbations")
    return assemble(net.level - 1, net.cascade.subtree(j), net.perturbations.subtree(j))


# ---------------------------------------------------------------------------
# Resistance geometry: path resistances, distances, diameters
# ---------------------------------------------------------------------------


def _cell_path_resistances(net: ResistanceNetwork) -> list[np.ndarray]:
    """Per level, the boundary-to-boundary resistance through each cell."""
    if net._rho is None:
        rho = [1.0 / net.conductance]
        for _ in range(net.level):
            prev = rho[-1]
            rho.append(prev[0::3] + prev[1::3])
        net._rho = rho[::-1]  # index by level
    return net._rho


def root_distances(net: ResistanceNetwork) -> np.ndarray:
    """Effective resistance from corner (0,0) to every vertex."""
    rho = _cell_path_resistances(net)
    nv = net.n_vertices
    dist = np.zeros(nv)
    d0 = np.zeros(1)
    d1 = np.array([rho[0][0]])
    dist[1] = d1[0]
    for q in range(net.level):
        nc = 3**q
        r1 = rho[q + 1][0::3]
        r2 = rho[q + 1][1::3]
        r3 = rho[q + 1][2::3]
        dmid = np.minimum(d0 + r1, d1 + r2)
        base = nc + 1
        dist[base + 0 : base + 2 * nc : 2] = dmid
        dist[base + 1 : base + 2 * nc : 2] = dmid + r3
        nd0 = np.empty(3 * nc)
        nd1 = np.empty(3 * nc)
        nd0[0::3] = dmid
        nd1[0::3] = d0
        nd0[1::3] = dmid
        nd1[1::3] = d1
        nd0[2::3] = dmid
        nd1[2::3] = dmid + r3
        d0, d1 = nd0, nd1
    return dist


def effective_resistance(net: ResistanceNetwork, x: int, y: int) -> float:
    """Resistance between two vertex ids: the path sum of edge resistances."""
    if x == y:
        return 0.0
    if {x, y} == {0, 1}:
        return float(_cell_path_resistances(net)[0][0])
    dist = root_distances(net)
    # meet of the two root paths: climb the combinatorial parent structure
    parent = _parent_array(net)
    seen = set()
    px = x
    while px != -1:
        seen.add(px)
        px = parent[px]
    anc = y
    while anc not in seen:
        anc = parent[anc]
    return float(dist[x] + dist[y] - 2.0 * dist[anc])


def _parent_array(net: ResistanceNetwork) -> np.ndarray:
    """Parent pointers toward corner 0 in the level-n graph."""
    nv = net.n_vertices
    parent = np.full(nv, -1, dtype=np.int64)
    e0, e1 = net.structure.ep0, net.structure.ep1
    adj: list[list[int]] = [[] for _ in range(nv)]
    for p in range(e0.shape[0]):
        a, b = int(e0[p]), int(e1[p])
        adj[a].append(b)
        adj[b].append(a)
    stack = [0]
    visited = np.zeros(nv, dtype=bool)
    visited[0] = True
    while stack:
        v = stack.pop()
        for w in adj[v]:
            if not visited[w]:
                visited[w] = True
                parent[w] = v
                stack.append(w)
    return parent


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
