"""Resistance-form operations the tests check the package against.

``trace_to_coarser`` is the Schur trace onto the next coarser vertex set:
with the perturbations' exact recursion it reproduces the coarser assembly,
which is what makes the family of forms compatible. ``cell_block`` and
``subnetwork_rescaled`` cut a first-generation cell out of an assembled
network, the blocks the one-sweep eta is checked against.
``effective_resistance`` is the path-sum brute force that
``forms.diameter`` is checked against, and ``cell_diameters`` the per-level
pass (every level's path resistances kept) that its one bottom-up pass
must reproduce bit for bit.
"""

from __future__ import annotations

import numpy as np

from crt_spectra.cascade import CascadeTree
from crt_spectra.errors import IncompleteCascade
from crt_spectra.forms import ResistanceNetwork

from cascade_oracle import l_levels, lift_through_cascade, w_levels


def trace_to_coarser(net: ResistanceNetwork) -> ResistanceNetwork:
    """Schur-complement trace onto the coarser vertex set.

    Each cell's tip is a dangling leaf (drops); eliminating the midpoint
    puts the first two child conductances in series. With R-values tied by
    the exact recursion this reproduces the coarser assembly to rounding.
    The traced network carries the depth-(n-1) cascade and R lifted one
    level, as a coarser assembly would. Children j of every cell are the
    j-th third of the level, in the child-major order.
    """
    if net.level < 1:
        raise ValueError("level-0 network has no coarser trace")
    if net.cascade is None or net.perturbations is None:
        raise IncompleteCascade("trace needs the originating cascade for coarse masses")
    k = net.conductance.shape[0] // 3
    c1 = net.conductance[:k]
    c2 = net.conductance[k : 2 * k]
    traced = c1 * c2 / (c1 + c2)
    level = net.level - 1
    coarse = CascadeTree(level, net.cascade.triples[:level], net.cascade.master_seed)
    r_coarse = lift_through_cascade(net.cascade, net.perturbations)[level]
    l_coarse = l_levels(coarse)[level]
    return ResistanceNetwork(level, traced, l_coarse * l_coarse, coarse, r_coarse)


def cell_block(net: ResistanceNetwork, j: int) -> tuple[np.ndarray, np.ndarray]:
    """(conductance, cell mass) slices of first-generation cell j.

    These are bit-exact principal sub-blocks of the assembled pencil; the
    block counted at lambda equals the normalized copy counted at
    lambda * w(j)**3. Cell j's level-n cells are every third cell from
    j - 1, in the child-major order of its own level-(n-1) graph.
    """
    if j not in (1, 2, 3):
        raise ValueError("first-generation cell must be 1, 2 or 3")
    return net.conductance[j - 1 :: 3], net.cell_mass[j - 1 :: 3]


def subnetwork_rescaled(net: ResistanceNetwork, j: int) -> ResistanceNetwork:
    """Cell j renormalized to a standalone network.

    Conductances scale by w(j), masses by w(j)**-2; by the cascade's
    self-similarity the result is a fresh level-(n-1) network.
    """
    if net.cascade is None:
        raise IncompleteCascade("rescaling needs the originating cascade")
    w = float(w_levels(net.cascade)[1][j - 1])
    conduct, cmass = cell_block(net, j)
    return ResistanceNetwork(net.level - 1, conduct * w, cmass / (w * w))


def _cell_path_resistances(net: ResistanceNetwork) -> list[np.ndarray]:
    """Per level, the boundary-to-boundary resistance through each cell."""
    rho = [1.0 / net.conductance]
    for _ in range(net.level):
        prev = rho[-1]
        k = prev.shape[0] // 3
        rho.append(prev[:k] + prev[k : 2 * k])
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
        k = 3**q  # child j of every level-q cell: the j-th third of level q + 1
        r1, r2 = rho[q + 1][:k], rho[q + 1][k : 2 * k]
        down1 = h0[:k]  # from the shared midpoint into each child
        down2 = h0[k : 2 * k]
        down3 = h0[2 * k :]
        new_h0 = np.maximum(h1[:k], r1 + np.maximum(down2, down3))
        new_h1 = np.maximum(h1[k : 2 * k], r2 + np.maximum(down1, down3))
        pair = np.maximum(
            down1 + down2,
            np.maximum(down1 + down3, down2 + down3),
        )
        new_best = np.maximum(np.maximum(best[:k], np.maximum(best[k : 2 * k], best[2 * k :])), pair)
        h0, h1, best = new_h0, new_h1, new_best
    return best


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
        r1 = rho[q + 1][:nc]
        r2 = rho[q + 1][nc : 2 * nc]
        r3 = rho[q + 1][2 * nc :]
        dmid = np.minimum(d0 + r1, d1 + r2)
        dist[nc + 1 : 2 * nc + 1] = dmid
        dist[2 * nc + 1 : 3 * nc + 1] = dmid + r3
        d0, d1 = np.concatenate((dmid, dmid, dmid)), np.concatenate((d0, d1, dmid + r3))
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
