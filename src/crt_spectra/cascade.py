"""Multiplicative cascade of Dirichlet(1/2,1/2,1/2) mass triples.

Addresses are words over {1,2,3}. Each address ``i`` with ``len(i) < depth``
carries the mass triple of its three children; the derived weight of a child
is ``w = sqrt(mass)`` and ``l(i)`` is the product of weights along the path
from the root, so ``sum(l(i)**2) == 1`` on every level. A triple is the
squared coordinates of a uniform point on the sphere, drawn by the
Archimedes map from two counter-based uniforms per address
(``_kernels.dirichlet_half_triples``); run records name that stream
through ``_kernels.RANDOM_STREAM``, the ``stream`` field of provenance.
Every per-address array is in the dendrite's child-major cell order: child
d of every level-q address is in the d-th third of level q + 1.

Resistance perturbations correct the tail fluctuations of the random
weights: ``R_i`` is the limit of sums of ``l(ij)/l(i)`` over binary words
``j`` and satisfies the exact recursion ``R_i = w(i1) R_i1 + w(i2) R_i2``.
Its law is known in closed form, a scaled Rayleigh variable
(``_kernels.rayleigh_perturbations``), and base-level values depend only on
the triples below their address, so :func:`perturbations` draws each base
value exactly and independently, keyed by (seed, address code). Only the
base level is kept: the networks are assembled from it, and the recursion
fixes every shallower level (``tests/cascade_oracle.py`` lifts it there).
"""

from __future__ import annotations

from functools import cached_property

import numpy as np

from ._kernels import derive_key, dirichlet_half_triples, rayleigh_perturbations
from .errors import CapacityError, IncompleteCascade
from .settings import cell_budget

HEIGHT_CONSTANT = float(np.sqrt(8.0 / np.pi))  # normalizes edge resistances

_TAG_TRIPLES = 0x7A31
_TAG_PERTURB = 0x7A34


def level_codes(q: int) -> np.ndarray:
    """RNG codes of the addresses of level q, in cell order.

    The root has code 0 and child d of code c has code 3c + d. Child d of
    level-(q-1) cell k is level-q cell k + (d - 1) 3**(q-1), so each level is
    built in place from the one above, the first third (the parents) last.
    """
    codes = np.empty(3**q, dtype=np.uint64)
    codes[0] = 0
    k = 1
    for _ in range(q):
        parents = codes[:k]
        parents *= 3
        for d in (3, 2, 1):
            np.add(parents, d, out=codes[(d - 1) * k : d * k])
        k *= 3
    return codes


class CascadeTree:
    """Depth-n sample of the cascade: one mass triple per address of length < n.

    Triples are drawn from a counter-based stream keyed by (seed, address
    code), so any subtree is reproducible independently of traversal order,
    and re-sampling at a larger depth extends the same realization.
    """

    def __init__(self, depth: int, triples: list[np.ndarray]):
        self.depth = depth
        self.triples = triples  # triples[q]: (3**q, 3) children masses, rows in cell order

    @classmethod
    def sample(cls, depth: int, seed: int) -> "CascadeTree":
        if depth < 0:
            raise ValueError("depth must be >= 0")
        if 3**depth > cell_budget():
            raise CapacityError(f"3**{depth} cells exceed budget {cell_budget()}")
        key = derive_key(seed, _TAG_TRIPLES)
        triples = [dirichlet_half_triples(key, level_codes(q)) for q in range(depth)]
        return cls(depth, triples)

    @classmethod
    def debug(cls, depth: int) -> "CascadeTree":
        """Deterministic cascade with every triple equal to (1/3,1/3,1/3)."""
        triples = [np.full((3**q, 3), 1.0 / 3.0) for q in range(depth)]
        return cls(depth, triples)

    @cached_property
    def base_lengths(self) -> np.ndarray:
        """l(i) at every base-level cell: the product of weights sqrt(mass) from the root.

        Child d's weights multiply the lengths of the level above into the
        d-th third of the next level, and only the base level is kept. The
        product is asked for in C order: it would follow the transposed
        weights' column-major layout, and the reshape would copy it.
        """
        l_arr = np.ones(1)
        for q in range(self.depth):
            l_arr = np.multiply(l_arr, np.sqrt(self.triples[q]).T, order="C").reshape(-1)
        return l_arr

    def subtree(self, j: int) -> "CascadeTree":
        """The depth-(n-1) cascade rooted at first-generation cell j: every third cell of each level from j - 1."""
        if self.depth < 1:
            raise ValueError("no subtree below an empty cascade")
        if j not in (1, 2, 3):
            raise ValueError("first-generation cell must be 1, 2 or 3")
        return CascadeTree(self.depth - 1, [t[j - 1 :: 3] for t in self.triples[1:]])


def perturbations(depth: int, seed: int | None) -> np.ndarray:
    """Exact base-level perturbations of a depth-n cascade: one Rayleigh draw per cell of level n, in cell order.

    Base values are keyed by (seed, address code) on their own stream, so
    they are independent of the cascade's triples and of each other, and a
    cell's value does not depend on which other cells are drawn; the draw
    reads only the cascade's depth and seed. They are not those of a
    deeper sample of the same seed: the base R of a depth-n cascade stands
    for the triples below depth n, which it never reads.
    """
    if seed is None:
        raise IncompleteCascade("cascade has no seed; cannot key its perturbations")
    return rayleigh_perturbations(derive_key(seed, _TAG_PERTURB), level_codes(depth))


# ---------------------------------------------------------------------------
# The tilted split measure nu_gamma
# ---------------------------------------------------------------------------


def nu_gamma_moments() -> tuple[float, float]:
    """(total mass, first moment) of the exponentially tilted split measure: (1, 1).

    The split measure puts mass at -3 ln w(i) = -(3/2) ln mass_i for the
    three components, whose common marginal X is Beta(1/2, 1). Tilting by
    exp(-(2/3) t) weights each piece by its mass, so the total mass is
    3 E[X] = 1 and the first moment is
    3 E[X * (-(3/2) ln X)] = -(9/4) int_0^1 x**(1/2) ln x dx = (9/4)(4/9) = 1.
    """
    return 1.0, 1.0
