"""Multiplicative cascade of Dirichlet(1/2,1/2,1/2) mass triples.

Addresses are words over {1,2,3}. Each address ``i`` with ``len(i) < depth``
carries the mass triple of its three children; the derived weight of a child
is ``w = sqrt(mass)`` and ``l(i)`` is the product of weights along the path
from the root, so ``sum(l(i)**2) == 1`` on every level. A triple is the
squared coordinates of a uniform point on the sphere, drawn by the
Archimedes map from two counter-based uniforms per address
(``_kernels.dirichlet_half_triples``); both dumps name that stream
through their format version: ``crt-spectra-cascade-v2`` in JSON, and
version 2 after the ``CRTC`` magic in binary.

Resistance perturbations correct the tail fluctuations of the random
weights: ``R_i`` is the limit of sums of ``l(ij)/l(i)`` over binary words
``j`` and satisfies the exact recursion ``R_i = w(i1) R_i1 + w(i2) R_i2``.
Tables here hold truncated versions built so the recursion is exact by
construction across levels.
"""

from __future__ import annotations

import json
import struct
from dataclasses import dataclass

import numpy as np

from ._kernels import derive_key, dirichlet_half_triples, uniform_indices
from .errors import CapacityError, IncompleteCascade
from .settings import cell_budget

HEIGHT_CONSTANT = float(np.sqrt(8.0 / np.pi))  # normalizes edge resistances

_TAG_TRIPLES = 0x7A31
_TAG_POOL_W = 0x7A32
_TAG_POOL_IDX = 0x7A33

_CASCADE_MAGIC = b"CRTC"
_CASCADE_VERSION = 2  # v1 seeds drew Box-Muller triples


@dataclass(frozen=True)
class Address:
    """A finite word over {1, 2, 3} addressing a cell of the ternary tree."""

    word: tuple[int, ...] = ()

    def __post_init__(self):
        if any(d not in (1, 2, 3) for d in self.word):
            raise ValueError(f"address digits must be in {{1,2,3}}: {self.word}")

    def __str__(self) -> str:
        return "".join(str(d) for d in self.word)

    @classmethod
    def from_ordinal(cls, level: int, ordinal: int) -> "Address":
        digits = []
        for _ in range(level):
            digits.append(ordinal % 3 + 1)
            ordinal //= 3
        return cls(tuple(reversed(digits)))


def level_codes(depth: int) -> list[np.ndarray]:
    """RNG codes of every address, per level, in lexicographic order."""
    codes = [np.zeros(1, dtype=np.uint64)]
    for _ in range(depth):
        prev = codes[-1]
        child = 3 * np.repeat(prev, 3) + np.tile(np.arange(1, 4, dtype=np.uint64), prev.shape[0])
        codes.append(child.astype(np.uint64))
    return codes


class CascadeTree:
    """Depth-n sample of the cascade: one mass triple per address of length < n.

    Triples are drawn from a counter-based stream keyed by (seed, address
    code), so any subtree is reproducible independently of traversal order,
    and re-sampling at a larger depth extends the same realization.
    """

    def __init__(self, depth: int, triples: list[np.ndarray], master_seed: int | None):
        self.depth = depth
        self.triples = triples  # triples[q]: (3**q, 3) children masses
        self.master_seed = master_seed
        self._w: list[np.ndarray] | None = None
        self._l: list[np.ndarray] | None = None

    @classmethod
    def sample(cls, depth: int, seed: int) -> "CascadeTree":
        if depth < 0:
            raise ValueError("depth must be >= 0")
        if 3**depth > cell_budget():
            raise CapacityError(f"3**{depth} cells exceed budget {cell_budget()}")
        key = derive_key(seed, _TAG_TRIPLES)
        codes = level_codes(max(depth - 1, 0))
        triples = [dirichlet_half_triples(key, codes[q]) for q in range(depth)]
        return cls(depth, triples, seed)

    @classmethod
    def debug(cls, depth: int) -> "CascadeTree":
        """Deterministic cascade with every triple equal to (1/3,1/3,1/3)."""
        triples = [np.full((3**q, 3), 1.0 / 3.0) for q in range(depth)]
        return cls(depth, triples, None)

    # -- derived weight and length arrays ----------------------------------

    def w_levels(self) -> list[np.ndarray]:
        """Per level q >= 1, the weight sqrt(mass) of each address."""
        if self._w is None:
            out = [np.ones(1)]
            for q in range(self.depth):
                out.append(np.sqrt(self.triples[q].reshape(-1)))
            self._w = out
        return self._w

    def l_levels(self) -> list[np.ndarray]:
        """Per level, the product of weights along the path from the root."""
        if self._l is None:
            w = self.w_levels()
            out = [np.ones(1)]
            for q in range(1, self.depth + 1):
                out.append(np.repeat(out[-1], 3) * w[q])
            self._l = out
        return self._l

    def subtree(self, j: int) -> "CascadeTree":
        """The depth-(n-1) cascade rooted at first-generation cell j."""
        if self.depth < 1:
            raise ValueError("no subtree below an empty cascade")
        if j not in (1, 2, 3):
            raise ValueError("first-generation cell must be 1, 2 or 3")
        triples = []
        for q in range(1, self.depth):
            block = 3 ** (q - 1)
            triples.append(self.triples[q][(j - 1) * block : j * block])
        sub = CascadeTree(self.depth - 1, triples, None)
        return sub

    # -- serialization ------------------------------------------------------

    def to_json(self) -> str:
        entries = {}
        for q in range(self.depth):
            for ordinal in range(3**q):
                addr = Address.from_ordinal(q, ordinal)
                entries[str(addr)] = [float(x) for x in self.triples[q][ordinal]]
        doc = {
            "format": f"crt-spectra-cascade-v{_CASCADE_VERSION}",
            "master_seed": self.master_seed,
            "depth": self.depth,
            "triples": entries,
        }
        return json.dumps(doc, sort_keys=True, separators=(",", ":"))

    def to_binary(self) -> bytes:
        seed = self.master_seed if self.master_seed is not None else 0
        head = _CASCADE_MAGIC + struct.pack("<IIQ", _CASCADE_VERSION, self.depth, seed & (2**64 - 1))
        body = b"".join(np.ascontiguousarray(t, dtype="<f8").tobytes() for t in self.triples)
        return head + body


class PerturbationTable:
    """Truncated resistance perturbations R_i on every level of a cascade.

    ``r_levels[q]`` holds R at each address of length q. Values at the base
    level carry the nominal truncation depth; every shallower level is
    derived through the exact recursion, so the whole table is consistent
    with a single truncation horizon and the Schur-complement compatibility
    identity holds to rounding.
    """

    def __init__(self, base_depth: int, trunc_depth: int, method: str, r_levels: list[np.ndarray]):
        self.base_depth = base_depth
        self.trunc_depth = trunc_depth
        self.method = method
        self.r_levels = r_levels

    def subtree(self, j: int) -> "PerturbationTable":
        if self.base_depth < 1:
            raise ValueError("no subtree below base level 0")
        levels = []
        for q in range(1, self.base_depth + 1):
            block = 3 ** (q - 1)
            levels.append(self.r_levels[q][(j - 1) * block : j * block])
        return PerturbationTable(self.base_depth - 1, self.trunc_depth, self.method, levels)

    @classmethod
    def ones(cls, base_depth: int) -> "PerturbationTable":
        """Truncation-0 table (all R = 1); also the debug-cascade table."""
        return cls(base_depth, 0, "ones", [np.ones(3**q) for q in range(base_depth + 1)])


def _lift_through_cascade(cascade: CascadeTree, r_base: np.ndarray) -> list[np.ndarray]:
    # exact recursion R_i = w(i1) R_i1 + w(i2) R_i2, bottom-up
    w = cascade.w_levels()
    levels = [None] * (cascade.depth + 1)
    levels[cascade.depth] = r_base
    for q in range(cascade.depth - 1, -1, -1):
        child = levels[q + 1]
        wq = w[q + 1]
        levels[q] = wq[0::3] * child[0::3] + wq[1::3] * child[1::3]
    return levels


def perturbations(cascade: CascadeTree, trunc_depth: int) -> PerturbationTable:
    """Truncated perturbations by literal binary extension of the cascade.

    Computes ``R_i = sum over binary words j of length m of l(ij)/l(i)`` for
    every base-level address, extending the cascade on demand along
    {1,2}-only descendants (the extension reuses the per-address stream, so
    a deeper sample of the same seed agrees with it). Cost grows like
    3**depth * 2**m; large runs should use :func:`perturbations_pooled`.
    """
    n, m = cascade.depth, trunc_depth
    if m < 0:
        raise ValueError("truncation depth must be >= 0")
    if 3**n * 2**m > cell_budget():
        raise CapacityError(
            f"binary extension needs 3**{n} * 2**{m} cells; over budget {cell_budget()} "
            "(use perturbations_pooled)"
        )
    if m == 0:
        return PerturbationTable(n, 0, "binary", _lift_through_cascade(cascade, np.ones(3**n)))
    if cascade.master_seed is None:
        raise IncompleteCascade("cascade has no seed; cannot extend along binary branches")
    key = derive_key(cascade.master_seed, _TAG_TRIPLES)

    codes = level_codes(n)[n]
    ext_codes = [codes]
    for _ in range(m - 1):
        prev = ext_codes[-1]
        child = 3 * np.repeat(prev, 2) + np.tile(np.arange(1, 3, dtype=np.uint64), prev.shape[0])
        ext_codes.append(child.astype(np.uint64))
    r = np.ones(3**n * 2**m)
    for d in range(m - 1, -1, -1):
        t = dirichlet_half_triples(key, ext_codes[d])
        r = np.sqrt(t[:, 0]) * r[0::2] + np.sqrt(t[:, 1]) * r[1::2]
    return PerturbationTable(n, m, "binary", _lift_through_cascade(cascade, r))


def sample_perturbation_pool(count: int, trunc_depth: int, seed: int) -> np.ndarray:
    """Samples of the truncation-m perturbation via ensemble recursion.

    Iterates the distributional fixed point R' = w1 R(a) + w2 R(b) on a pool
    with fresh weights and uniformly drawn parent slots each round.
    Marginally each slot is exactly truncation-m distributed; cross-slot
    correlation is O(m / pool size), with the pool held at >= 2**14 slots.
    This sidesteps the 2**m cost of the literal binary extension.
    """
    pool = max(count, 2**14)
    wkey = derive_key(seed, _TAG_POOL_W)
    ikey = derive_key(seed, _TAG_POOL_IDX)
    r = np.ones(pool)
    for it in range(trunc_depth):
        codes = np.arange(pool, dtype=np.uint64) + np.uint64(it * pool)
        t = dirichlet_half_triples(wkey, codes)
        i1 = uniform_indices(ikey, 2 * it + 1, pool, pool)
        i2 = uniform_indices(ikey, 2 * it + 2, pool, pool)
        r = np.sqrt(t[:, 0]) * r[i1] + np.sqrt(t[:, 1]) * r[i2]
    return r[:count]


def perturbations_pooled(cascade: CascadeTree, trunc_depth: int) -> PerturbationTable:
    """Perturbation table with pool-sampled base-level values.

    Base-level addresses get independent truncation-m samples from
    :func:`sample_perturbation_pool`; shallower levels follow the exact
    recursion. The martingale mean E R = 1 and the recursion invariant are
    preserved exactly; only the base-level law is approximated (pool
    correlations O(m / 3**depth)).
    """
    if cascade.master_seed is None:
        return PerturbationTable.ones(cascade.depth)
    base = sample_perturbation_pool(3**cascade.depth, trunc_depth, cascade.master_seed)
    return PerturbationTable(cascade.depth, trunc_depth, "pooled", _lift_through_cascade(cascade, base))


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
