"""Eigenvalue counting for L f = lambda M f on resistance networks.

The fast path counts by Sylvester inertia: the number of nonpositive
pivots of L - lambda M equals the number of eigenvalues <= lambda. The
shift is nudged to lambda (1 + 1e-12) so exact jump points resolve
deterministically, and lambda = 0 is special-cased (the Laplacian of a
connected tree has a simple kernel). The independent oracle for small
problems is a dense Sylvester count: M is diagonal and positive, so the
number of eigenvalues <= lambda is the number of nonpositive eigenvalues of
the dense, unscaled L - lambda M, which the symmetric solver resolves on the
scale of L.

Dirichlet counts delete the two boundary rows and columns. One engine
counts every tree, dendrite network or excursion pencil: a rake/compress
contraction schedule pivots leaves and degree-two vertices round by round,
each compression adding one fill edge between its two neighbours, so the
factorization costs O(V) per shift. The two boundary vertices are pivoted
last, so one sweep yields both counts. The schedule depends only on the
edges and the boundary, never on the shift or the boundary kind; it is
built once per dendrite level (shared by every replica) and once per pencil.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from ._kernels import NUDGE, ContractionSchedule, contraction_schedule, inertia_counts
from .dendrite import structure
from .errors import CapacityError
from .excursion import MetricTree
from .forms import ResistanceNetwork, subnetwork_fresh

GAMMA_EXPONENT = 2.0 / 3.0  # lambda**(-2/3) is the normalized counting scale


# ---------------------------------------------------------------------------
# Pencils
# ---------------------------------------------------------------------------


@dataclass
class Pencil:
    """Stiffness/mass pencil of a finite tree network.

    ``edges`` are (u, v, conductance) arrays; ``mass`` is the diagonal mass
    vector; ``boundary`` names the two distinguished vertices. ``kind`` is
    "neumann" (free) or "dirichlet" (boundary rows/columns deleted).
    """

    edge_u: np.ndarray
    edge_v: np.ndarray
    edge_c: np.ndarray
    mass: np.ndarray
    boundary: tuple[int, int]
    kind: str = "neumann"

    def __post_init__(self):
        if self.kind not in ("neumann", "dirichlet"):
            raise ValueError("kind must be 'neumann' or 'dirichlet'")
        if (self.mass <= 0).any():
            raise ValueError("mass diagonal must be positive")
        b0, b1 = self.boundary
        if b0 == b1 or not (0 <= b0 < self.n_vertices and 0 <= b1 < self.n_vertices):
            raise ValueError("boundary must be two distinct vertex ids")

    @property
    def n_vertices(self) -> int:
        return self.mass.shape[0]

    @classmethod
    def from_network(cls, net: ResistanceNetwork, kind: str = "neumann") -> "Pencil":
        e0, e1 = net.structure.ep0, net.structure.ep1
        return cls(e0.copy(), e1.copy(), net.conductance.copy(), net.vertex_mass.copy(), net.boundary, kind)

    @classmethod
    def from_tree(cls, tree: MetricTree, kind: str = "neumann") -> "Pencil":
        """Pencil bounded by the tree root and the first inserted leaf (a mu-random vertex)."""
        nonroot = np.arange(tree.n_vertices - 1, dtype=np.int64)
        nonroot[tree.root :] += 1
        eu = tree.parent[nonroot]
        ec = 1.0 / tree.edge_len[nonroot]
        return cls(eu.astype(np.int64), nonroot, ec, np.maximum(tree.mass, 1e-300), (tree.root, 1), kind)

    @cached_property
    def schedule(self) -> ContractionSchedule:
        """Contraction schedule with the boundary pivoted last, built on first use."""
        return contraction_schedule(self.edge_u, self.edge_v, self.n_vertices, *self.boundary)


def dense_matrices(pencil: Pencil) -> tuple[np.ndarray, np.ndarray]:
    """Dense stiffness matrix and mass diagonal (Dirichlet rows deleted)."""
    nv = pencil.n_vertices
    if nv > 4096:
        raise CapacityError("dense path limited to 4096 vertices")
    stiff = np.zeros((nv, nv))
    for u, v, c in zip(pencil.edge_u, pencil.edge_v, pencil.edge_c):
        stiff[u, u] += c
        stiff[v, v] += c
        stiff[u, v] -= c
        stiff[v, u] -= c
    mass = pencil.mass.copy()
    if pencil.kind == "dirichlet":
        keep = np.array([v for v in range(nv) if v not in pencil.boundary])
        stiff = stiff[np.ix_(keep, keep)]
        mass = mass[keep]
    return stiff, mass


def dense_count_below(pencil: Pencil, lam: float) -> int:
    """Number of pencil eigenvalues <= lambda, by a dense Sylvester count (the oracle path).

    M is diagonal and positive, so by Sylvester's law of inertia the count
    equals the number of nonpositive eigenvalues of L - lambda (1 + 1e-12) M
    itself. eigvalsh errs by about eps times the matrix norm; scaling by
    M**-1/2 would multiply that norm by up to 1 / min(M), which on random
    cascades swamps the eigenvalues near lambda. For lambda <= 0 the count
    is exact, as in the fast path: L is positive semidefinite with the
    constants as its Neumann kernel on a connected tree, and eigvalsh
    would round that zero eigenvalue to either sign.
    """
    if lam <= 0.0:
        return int(lam == 0.0 and pencil.kind == "neumann")
    stiff, mass = dense_matrices(pencil)
    shifted = stiff - np.diag(lam * (1.0 + NUDGE) * mass)
    return int((np.linalg.eigvalsh(shifted) <= 0.0).sum())


# -- fast inertia path -------------------------------------------------------


def count_pair(pencil: Pencil, lams: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(Dirichlet, Neumann) counts at each lambda by tree inertia."""
    return inertia_counts(pencil.schedule, pencil.mass, pencil.edge_c, lams)[:2]


def count_below(pencil: Pencil, lam: float) -> int:
    """Number of pencil eigenvalues <= lambda, with multiplicity."""
    if not np.isfinite(lam):
        raise ValueError("lambda must be finite")
    nd, nn = count_pair(pencil, np.array([float(lam)]))
    return int(nd[0] if pencil.kind == "dirichlet" else nn[0])


def block_counts(level: int, conduct: np.ndarray, cell_mass: np.ndarray, lams: np.ndarray):
    """(Dirichlet, Neumann) counts for a bare (conductance, cell-mass) block on the level graph.

    Counted in a sweep of its own: the reference for the eta that
    :func:`eta_many` reads off the full network's sweep.
    """
    st = structure(level)
    return inertia_counts(st.schedule, st.lump(cell_mass), conduct, lams)[:2]


def network_counts(net: ResistanceNetwork, lams: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(Dirichlet, Neumann) counting-function samples for a network."""
    return inertia_counts(net.structure.schedule, net.vertex_mass, net.conductance, lams)[:2]


# ---------------------------------------------------------------------------
# Counting curves
# ---------------------------------------------------------------------------


@dataclass
class CountingCurve:
    """Counting-function samples N(lambda) on an increasing grid."""

    lambdas: np.ndarray
    counts: np.ndarray
    boundary: str  # "neumann" or "dirichlet"

    def __post_init__(self):
        if (np.diff(self.lambdas) <= 0).any():
            raise ValueError("lambda grid must be strictly increasing")
        if (np.diff(self.counts) < 0).any():
            raise ValueError("counts must be nondecreasing")

    def to_csv(self) -> str:
        lines = ["lambda,count,boundary"]
        for lam, c in zip(self.lambdas, self.counts):
            lines.append(f"{lam:.17g},{int(c)},{self.boundary}")
        return "\n".join(lines) + "\n"


def network_curves(net: ResistanceNetwork, lams: np.ndarray) -> tuple[CountingCurve, CountingCurve]:
    nd, nn = network_counts(net, lams)
    lams = np.asarray(lams, dtype=np.float64)
    return CountingCurve(lams, nd, "dirichlet"), CountingCurve(lams, nn, "neumann")


# ---------------------------------------------------------------------------
# Dirichlet floor by multisection
# ---------------------------------------------------------------------------


# Shifts per floor sweep. Past about 64 shifts a block's work outgrows the
# sweep's fixed per-round cost.
_FLOOR_POINTS = 63
_FLOOR_RTOL = 1e-9  # relative width at which the floor bracket stops


def dirichlet_floor(net: ResistanceNetwork, diameter: float) -> float:
    """Smallest Dirichlet eigenvalue, by geometric multisection on the counting function.

    A mass-one network bounds its first Dirichlet eigenvalue below by the
    inverse of its resistance ``diameter``, and the Rayleigh quotient of
    the interior indicator 1 bounds it strictly above: 1 is never an
    eigenvector, since L 1 vanishes on the tip row. The first sweep counts
    both ends and raises AssertionError unless the bracket holds; keeping
    lo there also keeps the unpivoted elimination away from the
    cancellation-prone region far below the floor.

    Each further sweep counts the k = min(block width, 63) interior points
    of a geometric grid on [lo, hi] and keeps the cell that holds the first
    nonzero count, until hi <= lo (1 + 1e-9). The floor is that hi, an
    upper bound within relative 1e-9; at width 1 this is geometric bisection.
    """
    if net.n_vertices <= 2:
        raise ValueError("problem has no Dirichlet eigenvalues")
    k = min(net.structure.schedule.block_width, _FLOOR_POINTS)
    cut = (net.structure.ep0 < 2) != (net.structure.ep1 < 2)
    lo = (1.0 - 1e-9) / diameter
    hi = float(net.conductance[cut].sum() / net.vertex_mass[2:].sum())
    n_lo, n_hi = network_counts(net, np.array([lo, hi]))[0]
    if n_lo != 0 or n_hi < 1:
        raise AssertionError(f"Dirichlet floor not bracketed by [1/diameter, Rayleigh bound] = [{lo}, {hi}]")
    for _ in range(200):
        if hi <= lo * (1.0 + _FLOOR_RTOL):
            break
        grid = np.geomspace(lo, hi, k + 2)
        hit = np.append(network_counts(net, grid[1:-1])[0] >= 1, True)  # hi always holds the floor
        i = int(np.argmax(hit)) + 1
        lo, hi = float(grid[i - 1]), float(grid[i])
    return hi


# ---------------------------------------------------------------------------
# Self-similar decomposition: bracketing and the branching increment eta
# ---------------------------------------------------------------------------


@dataclass
class BracketReport:
    """The four counts of the decomposition chains at one lambda."""

    lam: float
    sub_dirichlet: int
    full_dirichlet: int
    full_neumann: int
    sub_neumann: int

    @property
    def chain_ok(self) -> bool:
        return self.sub_dirichlet <= self.full_dirichlet <= self.full_neumann <= self.sub_neumann

    @property
    def gap_ok(self) -> bool:
        return 0 <= self.full_neumann - self.full_dirichlet <= 2


def bracketing_check(net: ResistanceNetwork, lams: np.ndarray) -> list[BracketReport]:
    """Evaluate both decomposition chains at each lambda.

    Cell subproblems are assembled fresh from the shifted cascade and
    counted at lambda * w(j)**3, per the exact eigenvalue scaling of the
    renormalized cells.
    """
    lams = np.asarray(lams, dtype=np.float64)
    full_d, full_n = network_counts(net, lams)
    w1 = net.cascade.w_levels()[1]
    sub_d = np.zeros(lams.shape[0], dtype=np.int64)
    sub_n = np.zeros(lams.shape[0], dtype=np.int64)
    for j in (1, 2, 3):
        sub = subnetwork_fresh(net, j)
        w3 = float(w1[j - 1]) ** 3
        d, n = network_counts(sub, lams * w3)
        sub_d += d
        sub_n += n
    return [
        BracketReport(float(lams[i]), int(sub_d[i]), int(full_d[i]), int(full_n[i]), int(sub_n[i]))
        for i in range(lams.shape[0])
    ]


def eta_many(net: ResistanceNetwork, ts: np.ndarray) -> np.ndarray:
    """eta(t) = N_D(e**t) - sum_j N_D,j(e**t w(j)**3), an integer in [0, 2].

    The three cell blocks form the full Dirichlet matrix with the rows and
    columns of vertices 2 and 3 (the level-1 midpoint and tip) deleted, so
    Cauchy interlacing bounds eta by 0 and 2.

    One sweep of the assembled network gives eta. Its contraction schedule
    pivots every vertex inside a first-generation cell before the final
    round, and those pivots factor the cell's Dirichlet block; the final
    round rakes the tip into the midpoint and compresses the midpoint
    between the corners, so eta is that round's nonpositive-pivot count.
    """
    if net.level < 1:
        raise ValueError("eta needs at least one refinement level")
    lams = np.exp(np.asarray(ts, dtype=np.float64))
    return inertia_counts(net.structure.schedule, net.vertex_mass, net.conductance, lams)[2]
