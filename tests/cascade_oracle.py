"""Test oracles for the cascade: addresses and their ordinals, branching counts, moments.

``Address`` names a cell of the ternary tree by its word over {1, 2, 3};
the package indexes cells by level ordinal only, in the dendrite's
child-major cell order, and ``ordinal`` reads a word as that ordinal.
``cut_set`` and ``branch_count_below`` give the cascade's branching
structure: first-crossing antichains partition the mass, and the number of addresses
with -ln l(i) < t grows like exp(2t), the Malthusian exponent.
``beta_half_one_moment`` is the closed-form moment of a Dirichlet(1/2,1/2,1/2)
component, the reference for the sampled triples. ``truncated_perturbations``
is the literal binary extension of the cascade, the truncated reference
for the exact perturbation law and deterministic base values for small
tests. ``lift_through_cascade`` carries base-level R onto every coarser
level through the exact recursion; the package keeps the base level only,
so the lift is the reference for R above it (the coarser assemblies that
the Schur trace must reproduce, the root R that is the boundary resistance).
``level_codes_chain`` builds every level's address codes child by child,
the reference for ``cascade.level_codes``' in-place build. ``w_levels`` and
``l_levels`` keep every level's weights and lengths; the package keeps
the base-level lengths alone (``CascadeTree.base_lengths``), and the last
entry of ``l_levels`` is the reference for them. Every per-level array is
in cell order: child d of every level-q cell is in the d-th third of
level q + 1.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from crt_spectra._kernels import derive_key, dirichlet_half_triples
from crt_spectra.cascade import _TAG_TRIPLES, CascadeTree, level_codes
from crt_spectra.errors import CapacityError, IncompleteCascade
from crt_spectra.settings import cell_budget


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
        """The address of cell ``ordinal`` of a level: its base-3 digits, least significant first."""
        digits = []
        for _ in range(level):
            digits.append(ordinal % 3 + 1)
            ordinal //= 3
        return cls(tuple(digits))


def parse_address(text: str) -> Address:
    return Address(tuple(int(ch) for ch in text))


def ordinal(address: Address) -> int:
    """Cell ordinal among words of the same length, first digit least significant (inverts ``Address.from_ordinal``)."""
    k = 0
    for d in reversed(address.word):
        k = 3 * k + (d - 1)
    return k


def level_codes_chain(depth: int) -> list[np.ndarray]:
    """RNG codes of every address, per level, in cell order: child d of code c is 3c + d, in the d-th third."""
    codes = [np.zeros(1, dtype=np.uint64)]
    for _ in range(depth):
        prev = codes[-1]
        codes.append(np.concatenate([3 * prev + np.uint64(d) for d in (1, 2, 3)]))
    return codes


def w_levels(cascade: CascadeTree) -> list[np.ndarray]:
    """Per level q = 0..n, the weight sqrt(mass) of each cell of level q (1 at the root)."""
    return [np.ones(1)] + [np.sqrt(t.T.reshape(-1)) for t in cascade.triples]


def l_levels(cascade: CascadeTree) -> list[np.ndarray]:
    """Per level q = 0..n, the product of weights along the path from the root to each cell."""
    out = [np.ones(1)]
    for w in w_levels(cascade)[1:]:
        out.append(np.tile(out[-1], 3) * w)
    return out


def beta_half_one_moment(s: float) -> float:
    """E[X**s] for X ~ Beta(1/2, 1): (1/2) int_0^1 x**(s - 1/2) dx = 1/(2s + 1)."""
    return 1.0 / (2.0 * s + 1.0)


def cut_set(cascade: CascadeTree, t: float) -> set[Address]:
    """First-crossing antichain: -3 ln l(i) >= t > -3 ln l(parent(i)).

    Every infinite word has exactly one prefix in the result. Raises
    CapacityError when some branch is still above the threshold at the
    cascade's maximum depth.
    """
    if t <= 0:
        raise ValueError("threshold must be positive")
    ll = l_levels(cascade)
    out: set[Address] = set()
    alive_ord = np.zeros(1, dtype=np.int64)  # ordinals of still-uncrossed addresses, root only
    for q in range(1, cascade.depth + 1):
        child_ord = (alive_ord[:, None] + 3 ** (q - 1) * np.arange(3)).reshape(-1)
        s = -3.0 * np.log(ll[q][child_ord])
        crossed = s >= t
        for o in child_ord[crossed]:
            out.add(Address.from_ordinal(q, int(o)))
        alive_ord = child_ord[~crossed]
        if alive_ord.shape[0] == 0:
            return out
    raise CapacityError(f"{alive_ord.shape[0]} branches above threshold at depth {cascade.depth}")


def branch_count_below(seed: int, t_grid: np.ndarray, max_nodes: int = 5_000_000) -> np.ndarray:
    """#{addresses i with -ln l(i) < t} for each t, by pruned expansion.

    The count grows like exp(2t) (Malthusian exponent 2 = the m solving
    3 E[w**m] = 1), so the frontier is pruned at max(t_grid).
    """
    t_max = float(np.max(t_grid))
    key = derive_key(seed, _TAG_TRIPLES)
    values = [np.zeros(1)]  # root has -ln l = 0
    codes = np.zeros(1, dtype=np.uint64)
    neglogl = np.zeros(1)
    total = 1
    while codes.shape[0]:
        t = dirichlet_half_triples(key, codes)
        child_codes = (3 * np.repeat(codes, 3) + np.tile(np.arange(1, 4, dtype=np.uint64), codes.shape[0])).astype(
            np.uint64
        )
        child_vals = np.repeat(neglogl, 3) - 0.5 * np.log(t.reshape(-1))
        keep = child_vals < t_max
        values.append(child_vals[keep])
        total += int(keep.sum())
        if total > max_nodes:
            raise CapacityError(f"branching population exceeded {max_nodes} nodes")
        codes = child_codes[keep]
        neglogl = child_vals[keep]
    allv = np.sort(np.concatenate(values))
    return np.searchsorted(allv, np.asarray(t_grid, dtype=np.float64), side="left").astype(np.int64)


def lift_through_cascade(cascade: CascadeTree, r_base: np.ndarray) -> list[np.ndarray]:
    """Per level q = 0..n, R at each address of length q, from the base level by the exact recursion."""
    # R_i = w(i1) R_i1 + w(i2) R_i2, bottom-up; children 1 and 2 are the first two thirds
    w = w_levels(cascade)
    levels = [None] * (cascade.depth + 1)
    levels[cascade.depth] = r_base
    for q in range(cascade.depth - 1, -1, -1):
        child, wq, k = levels[q + 1], w[q + 1], 3**q
        levels[q] = wq[:k] * child[:k] + wq[k : 2 * k] * child[k : 2 * k]
    return levels


def truncated_perturbations(cascade: CascadeTree, trunc_depth: int, seed: int | None) -> np.ndarray:
    """Truncated base-level perturbations by literal binary extension of the cascade drawn from ``seed``.

    Computes ``R_i = sum over binary words j of length m of l(ij)/l(i)`` for
    every base-level cell, in cell order, extending the cascade on
    demand along {1,2}-only descendants (the extension reuses the
    per-address stream, so a deeper sample of the same seed agrees with
    it). As m grows the base values converge in law
    to the exact draws of ``cascade.perturbations``, losing (2/3)**m of
    R's variance at truncation m. Cost grows like 3**depth * 2**m.
    """
    n, m = cascade.depth, trunc_depth
    if m < 0:
        raise ValueError("truncation depth must be >= 0")
    if 3**n * 2**m > cell_budget():
        raise CapacityError(f"binary extension needs 3**{n} * 2**{m} cells; over budget {cell_budget()}")
    if m == 0:
        return np.ones(3**n)
    if seed is None:
        raise IncompleteCascade("cascade has no seed; cannot extend along binary branches")
    key = derive_key(seed, _TAG_TRIPLES)
    # base cells extend independently: a chunk of them at a time bounds the memory
    chunk = max(1, 2**20 >> m)
    base_codes = level_codes(n)
    r_base = np.empty(3**n)
    for lo in range(0, 3**n, chunk):
        ext_codes = [base_codes[lo : lo + chunk]]
        for _ in range(m - 1):
            prev = ext_codes[-1]
            child = 3 * np.repeat(prev, 2) + np.tile(np.arange(1, 3, dtype=np.uint64), prev.shape[0])
            ext_codes.append(child.astype(np.uint64))
        r = np.ones(ext_codes[0].shape[0] * 2**m)
        for d in range(m - 1, -1, -1):
            t = dirichlet_half_triples(key, ext_codes[d])
            r = np.sqrt(t[:, 0]) * r[0::2] + np.sqrt(t[:, 1]) * r[1::2]
        r_base[lo : lo + chunk] = r
    return r_base
