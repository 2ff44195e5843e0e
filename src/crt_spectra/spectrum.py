"""Eigenvalue counting for L f = lambda M f on resistance networks.

Counts come from Sylvester inertia: the number of nonpositive pivots of
L - lambda M equals the number of eigenvalues <= lambda. The shift is
nudged to lambda (1 + 1e-12) so exact jump points resolve
deterministically, and lambda = 0 is special-cased (the Laplacian of a
connected tree has a simple kernel). The dense Sylvester count that the
tests check these counts against lives in ``tests/spectrum_oracle.py``.

Dirichlet counts delete the two boundary rows and columns. A pencil has no
boundary condition: every counter returns the (Dirichlet, Neumann) pair.
One engine counts every tree, dendrite network or excursion pencil: a
rake/compress contraction schedule pivots leaves and degree-two vertices
round by round, each compression adding one fill edge between its two
neighbours, so the factorization costs O(V) per shift. The two boundary
vertices are pivoted last, so one sweep yields both counts. The schedule
depends only on the edges and the boundary, never on the shift. A
dendrite level is its schedule, written down once per level as the level
graph is refined (shared by every replica); a pencil's is built by the
generic tree builder on first use.

A sweep also returns the pivot of the last interior vertex, the Schur
complement det(L_D - lambda M_D) / det(the same without that vertex). On
the dendrite that vertex is the level-1 midpoint, and the first Dirichlet
eigenvalue (the floor that anchors each replica's resolution ceiling) is
the pivot's zero. :func:`dirichlet_floor` brackets the floor by the
replica's own counting curve and closes the bracket by interpolating that
pivot, counting at every step.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from ._kernels import ContractionSchedule, contraction_schedule, inertia_counts
from .cascade import CascadeTree
from .dendrite import lump, structure
from .errors import GuardError
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
    vector; ``boundary`` names the two vertices that a Dirichlet count deletes.
    """

    edge_u: np.ndarray
    edge_v: np.ndarray
    edge_c: np.ndarray
    mass: np.ndarray
    boundary: tuple[int, int]

    def __post_init__(self):
        if (self.mass <= 0).any():
            raise ValueError("mass diagonal must be positive")
        b0, b1 = self.boundary
        if b0 == b1 or not (0 <= b0 < self.n_vertices and 0 <= b1 < self.n_vertices):
            raise ValueError("boundary must be two distinct vertex ids")

    @property
    def n_vertices(self) -> int:
        return self.mass.shape[0]

    @classmethod
    def from_tree(cls, tree: MetricTree) -> "Pencil":
        """Pencil bounded by the tree root (vertex 0) and the first inserted leaf (a mu-random vertex)."""
        nonroot = np.arange(1, tree.n_vertices)
        ec = 1.0 / tree.edge_len[nonroot]
        return cls(tree.parent[nonroot], nonroot, ec, np.maximum(tree.mass, 1e-300), (0, 1))

    @cached_property
    def schedule(self) -> ContractionSchedule:
        """Contraction schedule with the boundary pivoted last, built on first use."""
        return contraction_schedule(self.edge_u, self.edge_v, self.n_vertices, *self.boundary)


# -- inertia counts ----------------------------------------------------------


def count_pair(pencil: Pencil, lams: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(Dirichlet, Neumann) counts at each lambda by tree inertia."""
    return inertia_counts(pencil.schedule, pencil.mass, pencil.edge_c, lams)[:2]


# perfbench/layers.py probes this name (span spectrum.sweep); no command calls it
def count_below(pencil: Pencil, lam: float, dirichlet: bool = False) -> int:
    """Number of pencil eigenvalues <= lambda, with multiplicity, Neumann unless ``dirichlet``."""
    if not np.isfinite(lam):
        raise ValueError("lambda must be finite")
    nd, nn = count_pair(pencil, np.array([float(lam)]))
    return int(nd[0] if dirichlet else nn[0])


# perfbench/layers.py probes this name (span spectrum.sweep); no command calls it
def block_counts(level: int, conduct: np.ndarray, cell_mass: np.ndarray, lams: np.ndarray):
    """(Dirichlet, Neumann) counts for a bare (conductance, cell-mass) block on the level graph.

    Counted in a sweep of its own: the reference for the eta that
    :func:`eta_many` reads off the full network's sweep.
    """
    return inertia_counts(structure(level), lump(0.5 * cell_mass), conduct, lams)[:2]


def network_counts(net: ResistanceNetwork, lams: np.ndarray, pivot: bool = False) -> tuple[np.ndarray, ...]:
    """(Dirichlet, Neumann) counting-function samples for a network, and with ``pivot`` the last interior pivot."""
    nd, nn, _, last = inertia_counts(net.schedule, net.vertex_mass, net.conductance, lams)
    return (nd, nn, last) if pivot else (nd, nn)


# ---------------------------------------------------------------------------
# Dirichlet floor by inverse interpolation on the last interior pivot
# ---------------------------------------------------------------------------


_FLOOR_RTOL = 1e-9  # relative width at which the floor bracket stops
_FLOOR_MARGIN = _FLOOR_RTOL / 4  # log offset of a shift from the interpolated floor, to land on a chosen side


def _root_estimate(points: list[tuple[float, float]]) -> float:
    """Zero of the line through two (shift, pivot) points, or of the linear fractional function through three.

    Below the second eigenvalue the pivot has one zero, the floor, and at
    most one pole, the first eigenvalue without its vertex. A linear
    fractional function (lambda - r) / (a + b (lambda - r)) has one of
    each, and is exact when G_vv = 1 / pivot is one pole a / (r - lambda)
    plus a constant. Its zero comes from Thiele's continued fraction of the
    shift in the pivot, whose first two inverse differences are the chord
    slopes below. NaN when two points share a shift or a pivot.
    """
    (x0, f0), (x1, f1), *rest = points
    try:
        slope = (f1 - f0) / (x1 - x0)
        if rest:
            ((x2, f2),) = rest
            slope -= f1 * ((f2 - f0) / (x2 - x0) - slope) / (f2 - f1)
        return x0 - f0 / slope
    except ZeroDivisionError:
        return np.nan


def dirichlet_floor(
    net: ResistanceNetwork, diameter: float, lams: np.ndarray | None = None, counts: np.ndarray | None = None
) -> float:
    """Smallest Dirichlet eigenvalue, by safeguarded inverse interpolation on the counting sweep.

    The bracket comes from the network's own Dirichlet curve (``lams``
    with their ``counts``, given both or neither, else ValueError) when it
    brackets the floor: the last grid value with count 0 and the first with
    count >= 1. Otherwise it is
    [1/diameter, Rayleigh quotient of the interior indicator]: a mass-one
    network bounds its first Dirichlet eigenvalue below by the inverse of
    its resistance ``diameter``, and 1 is never an eigenvector, since L 1
    vanishes on the tip row. That bracket costs a checking sweep of its
    own. GuardError is raised unless the two bound the floor
    consistently: on the curve path, unless (1 - 1e-9)/diameter lies below
    the grid's upper end and the grid's lower end below the Rayleigh bound;
    otherwise, unless the checking sweep counts 0 at the lower end and at
    least 1 at the upper.

    Every sweep counts, so every step keeps the bracket certified, and it
    returns the pivot of the last interior vertex v (the level-1 midpoint):
    det(A) / det(A without v) for A = L_D - lambda M_D, which is
    1 / G_vv(lambda) with G_vv = sum_k phi_k(v)**2 / (lambda_k - lambda).
    While every other interior pivot is positive, that is strictly
    decreasing and concave, and its zero is the floor: the interior tree
    matrix is irreducible, so the Perron vector phi_1 is positive and the
    first eigenvalue of A without v lies strictly above the floor
    (interlacing is strict). Past that eigenvalue, while the count is
    still 1, the pivot has crossed its one pole and carries no other zero.
    So every shift with count <= 1 feeds the interpolation, a line through
    two points or a linear fractional function through three, in the
    spirit of Brent (1973, ch. 4): each sweep counts one shift, a margin to
    one side of the interpolated zero, and bisection takes over when that
    stalls. The search stops once hi <= lo (1 + 1e-9) and returns hi, an
    upper bound within relative 1e-9. It raises GuardError if 200
    sweeps do not get there: the search did not converge.
    """
    if net.n_vertices <= 2:
        raise ValueError("problem has no Dirichlet eigenvalues")
    if (lams is None) != (counts is None):
        raise ValueError("lams and counts bracket the floor together: pass both or neither")
    c0, c1 = net.corner_cells  # the cells with one corner: the indicator's energy
    bound_lo = (1.0 - 1e-9) / diameter
    bound_hi = float((net.conductance[c0] + net.conductance[c1]) / net.vertex_mass[2:].sum())
    points: list[tuple[float, float]] = []  # (shift, last interior pivot) at counts <= 1
    steps: list[float] = []  # log of each shift placed inside the bracket
    hit = np.flatnonzero(np.asarray(counts) >= 1) if lams is not None else []
    if len(hit) and hit[0] > 0:
        lo, hi = float(lams[hit[0] - 1]), float(lams[hit[0]])
        if not (bound_lo < hi and lo < bound_hi):
            raise GuardError(
                f"Dirichlet floor bracket {(lo, hi)} of the curve misses [1/diameter, Rayleigh bound] = "
                f"[{bound_lo}, {bound_hi}]: not bracketed"
            )
    else:
        lo, hi = bound_lo, bound_hi
        n, _, piv = network_counts(net, np.array([lo, hi]), pivot=True)
        if n[0] != 0 or n[1] < 1:
            raise GuardError(
                f"Dirichlet floor not bracketed by [1/diameter, Rayleigh bound] = [{bound_lo}, {bound_hi}]"
            )
        points = [(x, float(p)) for x, c, p in zip((lo, hi), n, piv) if c <= 1]
    while hi > lo * (1.0 + _FLOOR_RTOL):
        if len(steps) == 200:
            raise GuardError(f"Dirichlet floor search did not converge in 200 sweeps: [{lo}, {hi}]")
        # interpolate through the (up to) three points nearest the bracket; as in
        # Brent's method, bisect when there is no estimate inside it, or when the
        # estimate moved by more than half the move before last; otherwise shift a
        # margin below the estimate when that is nearer hi, else a margin above: the
        # side that leaves the narrower bracket if the shift lands there
        a, b = np.log(lo), np.log(hi)
        near = sorted(points, key=lambda pt: abs(2.0 * np.log(pt[0]) - a - b))[:3]
        r = _root_estimate(near) if len(near) >= 2 else np.nan
        if not lo < r < hi or len(steps) >= 3 and abs(np.log(r) - steps[-1]) > 0.5 * abs(steps[-2] - steps[-3]):
            steps.append(0.5 * (a + b))
        else:
            lr = np.log(r)
            steps.append(lr - _FLOOR_MARGIN if b - lr < lr - a else lr + _FLOOR_MARGIN)
        x = float(np.exp(steps[-1]))
        n, _, piv = network_counts(net, np.array([x]), pivot=True)
        if n[0] >= 1:
            hi = x
        else:
            lo = x
        if n[0] <= 1:  # below the second eigenvalue the pivot has the floor as its only zero
            points.append((x, float(piv[0])))
    return hi


# ---------------------------------------------------------------------------
# Self-similar decomposition: bracketing and the branching increment eta
# ---------------------------------------------------------------------------


def bracketing_check(
    cascade: CascadeTree, r_base: np.ndarray, lams: np.ndarray, full_d: np.ndarray, full_n: np.ndarray
) -> np.ndarray:
    """Where the decomposition chains fail: a mask over ``lams``, given the full counts there.

    The full network is assembled from ``cascade`` and base R ``r_base``.
    At each lambda the cell counts must bracket the full ones,
    sub_D <= N_D <= N_N <= sub_N, and the full Neumann count may exceed the
    Dirichlet one by at most 2. Cell subproblems are assembled fresh from
    the shifted cascade and counted at lambda * w(j)**3, per the exact
    eigenvalue scaling of the renormalized cells.
    """
    lams = np.asarray(lams, dtype=np.float64)
    w1 = np.sqrt(cascade.triples[0].reshape(-1))  # first-generation weights
    sub_d = np.zeros(lams.shape[0], dtype=np.int64)
    sub_n = np.zeros(lams.shape[0], dtype=np.int64)
    for j in (1, 2, 3):
        sub = subnetwork_fresh(cascade, r_base, j)
        w3 = float(w1[j - 1]) ** 3
        d, n = network_counts(sub, lams * w3)
        sub_d += d
        sub_n += n
    return ~((sub_d <= full_d) & (full_d <= full_n) & (full_n <= sub_n) & (full_n - full_d <= 2))


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
    return inertia_counts(net.schedule, net.vertex_mass, net.conductance, lams)[2]
