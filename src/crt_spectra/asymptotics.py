"""Ensemble estimators for the leading-order spectral asymptotics.

Two independent routes estimate the same constant: the counting function of
self-similar cascade networks should satisfy N(lambda) ~ C0 lambda**(2/3)
(plateau of the rescaled mean curve over an automatically selected window),
and the renewal route integrates the discounted mean branching increment
u(t) = exp(-2t/3) E eta(t), whose integral over the tilted split measure's
unit first moment equals the same constant. Both share one replica loop:
:func:`run_ensemble` builds each cascade network once and, given renewal
shifts, reads the replica's eta row off one more sweep of that network. A
third route builds reduced trees from sampled excursions and counts with
the same engine.
"""

from __future__ import annotations

import hashlib
import json
import sys
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, fields
from pathlib import Path

import numpy as np

from . import __version__ as _VERSION
from ._kernels import RANDOM_STREAM
from .cascade import CascadeTree, PerturbationTable, nu_gamma_moments, perturbations
from .errors import CapacityError, TailError, WindowUnresolved
from .excursion import reduced_tree, sample_excursion
from .forms import ResistanceNetwork, assemble
from .settings import cell_budget
from .spectrum import (
    GAMMA_EXPONENT,
    Pencil,
    count_pair,
    dirichlet_floor,
    eta_many,
    network_counts,
)

_BOOT_RESAMPLES = 1000
_MIN_COUNT = 6.0  # mean count at the window's lower end
_TAIL_TOL = 1e-3  # largest u allowed at the renewal window's edges
_CEILING_DEFICIT = 0.03  # unresolved spectral-mass fraction at the window top
_T_LO = -3.0  # lower end of the renewal t grid
# upper end of the renewal t grid: there u <= 2 exp(-2t/3) = 9.3e-6, far below _TAIL_TOL
_T_HI = float(np.log(1e8))
_T_POINTS = 241

# default (lambda_hi, lambda_points) of each route, 12 points a decade from 1.
# A self-similar fit ends at the median resolution ceiling, 1.9e3-5.3e3 at
# depths 11-13, so shifts above 1e5 fed only curves.csv rows; the crt
# route's ceiling grows with the leaf count (4.5e6 at 10**5 leaves).
ROUTE_GRIDS = {"selfsimilar": (1e5, 61), "excursion": (1e8, 97)}

# perfbench/layers.py probes this name as well as perturbations (span cascade.perturb)
perturbations_pooled = perturbations


def geometric_grid(lo: float, hi: float, points: int) -> np.ndarray:
    """``points`` lambdas spaced geometrically over [lo, hi]; ValueError unless strictly increasing in (0, inf)."""
    if not 0.0 < lo < hi < np.inf:
        raise ValueError("lambda grid must be positive, finite and increasing")
    if points < 1:
        raise ValueError("the lambda grid needs at least one point")
    grid = np.geomspace(lo, hi, points)
    if (np.diff(grid) <= 0).any():
        raise ValueError(f"{points} points on [{lo}, {hi}] do not make a strictly increasing grid")
    return grid


@dataclass(frozen=True)
class EnsembleConfig:
    """One reproducible ensemble run."""

    replicas: int
    depth: int
    master_seed: int
    lambda_lo: float = 1.0
    lambda_hi: float | None = None  # None: the route's default in ROUTE_GRIDS
    lambda_points: int | None = None  # None: the route's default in ROUTE_GRIDS
    route: str = "selfsimilar"
    threads: int = 1
    steps: int = 2**14  # excursion route: grid resolution
    leaves: int = 600  # excursion route: reduced-tree leaf count
    debug_cascade: bool = False

    def __post_init__(self):
        if self.route not in ROUTE_GRIDS:
            raise ValueError("route must be 'selfsimilar' or 'excursion'")
        for name, default in zip(("lambda_hi", "lambda_points"), ROUTE_GRIDS[self.route]):
            if getattr(self, name) is None:
                object.__setattr__(self, name, default)
        if self.replicas < 1:
            raise ValueError("need at least one replica")
        if self.depth < 0:
            raise ValueError("depth must be >= 0")
        geometric_grid(self.lambda_lo, self.lambda_hi, self.lambda_points)
        if self.threads < 1:
            raise ValueError("need at least one thread")
        if self.route == "excursion" and not 1 <= self.leaves <= self.steps - 1:
            raise ValueError("the excursion route needs 1 <= leaves <= steps - 1")

    @property
    def lambda_grid(self) -> np.ndarray:
        return geometric_grid(self.lambda_lo, self.lambda_hi, self.lambda_points)

    def replica_seed(self, r: int) -> int:
        return (self.master_seed * 0x9E3779B97F4A7C15 + 0x51ED2701 + r) % 2**63

    def as_dict(self) -> dict:
        """Every field that can change a result (the thread count never does)."""
        return {f.name: getattr(self, f.name) for f in fields(self) if f.name != "threads"}


@dataclass
class EnsembleResult:
    config: EnsembleConfig
    lambdas: np.ndarray
    dirichlet: np.ndarray  # (replicas, points) integer counts
    neumann: np.ndarray
    resolutions: np.ndarray  # per replica, estimated ceiling of the resolved range
    n_vertices: int
    eta: np.ndarray | None = None  # (replicas, shifts) branching increments, renewal runs only


@dataclass(frozen=True)
class ScalingFit:
    window_lo: float
    window_hi: float
    slope: float
    plateau: float
    stderr: float
    spectral_dimension: float
    slope_stderr: float
    replica_plateau_std: float


@dataclass
class RenewalEstimate:
    t_grid: np.ndarray
    u: np.ndarray
    nu_first_moment: float
    m_infinity: float
    tail_lo: float
    tail_hi: float
    replica_integral: np.ndarray  # per replica, the integral of exp(-2t/3) eta(t) dt
    m_infinity_stderr: float


# ---------------------------------------------------------------------------
# Replica builders
# ---------------------------------------------------------------------------


def build_network(depth: int, seed: int, debug: bool = False) -> ResistanceNetwork:
    """Cascade network at a depth with exact perturbations; the uniform cascade with R = 1 when debugging."""
    if debug:
        return assemble(depth, CascadeTree.debug(depth), PerturbationTable.ones(depth))
    casc = CascadeTree.sample(depth, seed)
    return assemble(depth, casc, perturbations(casc))


def _weighted_quantile(x: np.ndarray, w: np.ndarray, q: float) -> float:
    order = np.argsort(x)
    cw = np.cumsum(w[order])
    i = int(np.searchsorted(cw, q * cw[-1]))
    return float(x[order[min(i, x.shape[0] - 1)]])


def _median(x: np.ndarray) -> float:
    """``np.median`` of a nonempty 1-d float array, bit for bit, by sorting.

    A NaN sorts last and is the median, as in ``np.median``. Otherwise the
    middle one or two values are summed from 0.0, as its mean does, which
    also makes a zero median +0.0 whichever zeros sit in the middle.
    ``np.median`` itself imports ``numpy.ma`` on its first call, about
    10 ms of every command.
    """
    s = np.sort(x)
    h = s.shape[0] // 2
    if np.isnan(s[-1]):
        return float(s[-1])
    return float(0.0 + s[h]) if s.shape[0] % 2 else float((0.0 + s[h - 1] + s[h]) / 2)


def _selfsimilar_replica(config: EnsembleConfig, r: int, ts: np.ndarray | None, check):
    from .forms import diameter as net_diameter

    net = build_network(config.depth, config.replica_seed(r), config.debug_cascade)
    if check is not None:
        check(r, net)
    lams = config.lambda_grid
    # the diameter pass goes first: run after the counting sweep, its
    # temporaries raise a depth-12 replica's peak RSS by about 1.4 MB
    diameter = net_diameter(net) if net.level >= 1 else None
    nd, nn = network_counts(net, lams)
    floor = dirichlet_floor(net, diameter, lams, nd) if net.level >= 1 else np.inf
    # resolution ceiling: the lambda at which a _CEILING_DEFICIT fraction of
    # spectral mass sits in cells whose internal modes (first eigenvalue
    # about floor / l**3) are already distorted by the lumping
    l_arr = net.cascade.l_levels()[net.level]
    neg3logl = -3.0 * np.log(l_arr)
    resolution = floor * np.exp(_weighted_quantile(neg3logl, l_arr**2, _CEILING_DEFICIT))
    return nd, nn, resolution, net.n_vertices, None if ts is None else eta_many(net, ts)


def _excursion_replica(config: EnsembleConfig, r: int):
    seed_seq = np.random.SeedSequence(entropy=config.master_seed % 2**63, spawn_key=(r,))
    path_seed, tree_seed = seed_seq.spawn(2)
    path = sample_excursion(config.steps, path_seed)
    tree = reduced_tree(path, config.leaves, tree_seed)
    pencil = Pencil.from_tree(tree)
    nd, nn = count_pair(pencil, config.lambda_grid)
    # unresolved hanging mass: modes inside the forest lumped onto vertex v
    # start no lower than 1/(mass * extent)
    hang = tree.lump_extent > 0
    if hang.any():
        est = 1.0 / (tree.mass[hang] * tree.lump_extent[hang])
        resolution = _weighted_quantile(est, tree.mass[hang], _CEILING_DEFICIT)
    else:  # pragma: no cover - every grid time on the tree
        resolution = float(config.lambda_hi)
    return nd, nn, resolution, tree.n_vertices


def run_ensemble(config: EnsembleConfig, ts: np.ndarray | None = None, check=None) -> EnsembleResult:
    """Independent replicas on the lambda grid; deterministic in the config.

    Each replica is built once. Given renewal shifts ``ts`` (self-similar
    route only), the same network also yields the replica's eta row; given
    ``check``, ``check(r, net)`` sees each self-similar network before it
    is counted and may raise. Rows are keyed by replica index, so the
    worker-thread count never changes any byte of the output.
    """
    if ts is not None and config.route != "selfsimilar":
        raise ValueError("eta needs the self-similar route")
    # a self-similar replica holds 3**depth cells, an excursion replica its grid of steps
    if config.route == "selfsimilar":
        cells, per_replica = 3**config.depth, f"3**{config.depth} cells"
    else:
        cells, per_replica = config.steps, f"{config.steps} steps"
    budget = cell_budget()
    if cells * config.replicas > budget:
        raise CapacityError(f"{per_replica} x {config.replicas} replicas exceeds budget {budget}")

    def work(r: int):
        if config.route == "selfsimilar":
            return _selfsimilar_replica(config, r, ts, check)
        return (*_excursion_replica(config, r), None)

    if config.threads > 1:
        with ThreadPoolExecutor(max_workers=config.threads) as pool:
            rows = list(pool.map(work, range(config.replicas)))
    else:
        rows = [work(r) for r in range(config.replicas)]
    nd, nn, resolutions, sizes, etas = zip(*rows)
    return EnsembleResult(
        config, config.lambda_grid, np.array(nd), np.array(nn), np.array(resolutions), int(max(sizes)),
        None if ts is None else np.array(etas),
    )


# ---------------------------------------------------------------------------
# Plateau window and scaling fits
# ---------------------------------------------------------------------------


def auto_window(result: EnsembleResult):
    """Resolved fitting window [lambda at a minimum mean count, ceiling].

    The lower end keeps the bounded boundary corrections (the counting
    functions differ from the continuum by O(1)) below a 1/6 relative
    effect; the upper end is the median per-replica resolution
    ceiling, the lambda at which an estimated ``_CEILING_DEFICIT`` fraction
    of spectral mass sits in cells whose internal modes the lumped model
    cannot represent. When that ceiling lies above the grid, the grid's end
    sets the upper end instead, with a warning on stderr. Raises
    WindowUnresolved when the window collapses, naming the ceiling when it
    lies below the lower end.
    """
    lams = result.lambdas
    mid = 0.5 * (result.neumann.mean(axis=0) + result.dirichlet.mean(axis=0))
    above = np.nonzero(mid >= _MIN_COUNT)[0]
    if above.size == 0:
        raise WindowUnresolved(f"mean count never reaches {_MIN_COUNT}")
    lo = float(lams[above[0]])
    hi = _median(result.resolutions)
    if hi > lams[-1]:
        print(
            f"warning: resolution ceiling {hi} lies above the grid end {lams[-1]}, which sets window_hi",
            file=sys.stderr,
        )
        hi = float(lams[-1])
    if hi < lo:
        raise WindowUnresolved(
            f"resolution ceiling {hi} lies below {lo}, the lambda where the mean count reaches {_MIN_COUNT:g}"
        )
    if hi < 3.0 * lo:
        raise WindowUnresolved(f"window [{lo}, {hi}] spans less than half a decade")
    return lo, hi


def _bootstrap_means(per_replica: np.ndarray) -> np.ndarray:
    """Means of ``per_replica`` (replicas first) over a fixed set of resamples of the replicas, with replacement."""
    nrep = per_replica.shape[0]
    rng = np.random.default_rng(np.random.SeedSequence(entropy=0, spawn_key=(0xB007,)))
    idx = rng.integers(0, nrep, size=(_BOOT_RESAMPLES, nrep))
    return per_replica[idx].mean(axis=1)


def fit_scaling(result: EnsembleResult, window: tuple[float, float] | None = None) -> ScalingFit:
    """Log-log slope and rescaled plateau of the mean curve over a window.

    The fit takes the midpoint of the Dirichlet and Neumann curves: the
    continuum counting function sits between the two (they differ by at
    most 2), so the midpoint cancels most of the O(1) boundary correction
    that biases the slope at moderate counts. The plateau is the window
    mean of lambda**(-2/3) N(lambda); standard errors come from a 1000-fold
    bootstrap over replicas.
    """
    if window is None:
        window = auto_window(result)
    lo, hi = window
    lams = result.lambdas
    mask = (lams >= lo) & (lams <= hi)
    if mask.sum() < 4:
        raise WindowUnresolved("fewer than 4 grid points in the window")
    counts = 0.5 * (result.neumann + result.dirichlet)[:, mask].astype(np.float64)
    lamw = lams[mask]
    mean_counts = counts.mean(axis=0)
    x = np.log(lamw)
    y = np.log(mean_counts)
    xc = x - x.mean()
    slope = float((xc * y).sum() / (xc * xc).sum())
    scaled = counts * lamw ** (-GAMMA_EXPONENT)
    plateau_r = scaled.mean(axis=1)  # per-replica plateau
    plateau = float(plateau_r.mean())

    nrep = counts.shape[0]
    if nrep > 1:
        boot_plateau = _bootstrap_means(plateau_r)
        ylog = np.log(_bootstrap_means(counts))  # (B, K)
        boot_slope = (ylog * xc).sum(axis=1) / (xc * xc).sum()
        stderr = float(boot_plateau.std(ddof=1))
        slope_stderr = float(boot_slope.std(ddof=1))
        replica_sd = float(plateau_r.std(ddof=1))
    else:
        stderr = slope_stderr = replica_sd = 0.0
    return ScalingFit(
        window_lo=float(lo),
        window_hi=float(hi),
        slope=slope,
        plateau=plateau,
        stderr=stderr,
        spectral_dimension=2.0 * slope,
        slope_stderr=slope_stderr,
        replica_plateau_std=replica_sd,
    )


# ---------------------------------------------------------------------------
# Renewal route
# ---------------------------------------------------------------------------


def estimate_renewal_constant(config: EnsembleConfig) -> tuple[EnsembleResult, RenewalEstimate]:
    """The ensemble with eta rows, and the renewal estimate they give.

    One :func:`run_ensemble` call builds each replica once for its counting
    curves and its eta on the t grid. Each replica's exp(-2t/3) eta(t) is
    integrated by the trapezoid rule; the mean of those integrals over the
    tilted split measure's first moment is the estimate, and resampling
    them as :func:`fit_scaling` does gives its standard error. The mean
    integrand u(t) = exp(-2t/3) E eta(t) vanishes for t below
    -ln(diameter) (exact zeros) and decays like exp(-2t/3) above, since
    eta is bounded by 2. The grid runs from t = -3 to t = ln(1e8) in 241
    points, whatever the lambda grid of the counting curves. Raises
    TailError when u has not decayed at the window edges.
    """
    ts = np.linspace(_T_LO, _T_HI, _T_POINTS)
    result = run_ensemble(config, ts)
    u = np.exp(-GAMMA_EXPONENT * ts) * result.eta.mean(axis=0)
    if u[0] > _TAIL_TOL or u[-1] > _TAIL_TOL:
        raise TailError(f"u at the window edges ({u[0]}, {u[-1]}) above {_TAIL_TOL}")
    per_replica = np.trapezoid(np.exp(-GAMMA_EXPONENT * ts) * result.eta, ts, axis=1)
    _, first = nu_gamma_moments()
    stderr = float(_bootstrap_means(per_replica).std(ddof=1)) / first if config.replicas > 1 else 0.0
    return result, RenewalEstimate(
        t_grid=ts,
        u=u,
        nu_first_moment=first,
        m_infinity=float(per_replica.mean()) / first,
        tail_lo=float(u[0]),
        tail_hi=float(u[-1]),
        replica_integral=per_replica,
        m_infinity_stderr=stderr,
    )


# ---------------------------------------------------------------------------
# Results directory
# ---------------------------------------------------------------------------


def _fmt(x) -> str:
    return format(float(x), ".17g")


def _record(obj) -> dict:
    """Each field of a result dataclass under its name: numbers as ``_fmt`` strings, arrays as lists of them."""
    doc = {}
    for f in fields(obj):
        value = getattr(obj, f.name)
        doc[f.name] = [_fmt(x) for x in value] if isinstance(value, np.ndarray) else _fmt(value)
    return doc


def write_json(path: Path, doc: dict) -> None:
    path.write_text(json.dumps(doc, sort_keys=True, indent=1) + "\n")


def provenance(settings: dict) -> dict:
    """A run's settings with the constants ``lumping`` and ``stream``, the version and ``config_hash``.

    The hash covers everything but the version. ``lumping`` and ``stream``
    name the mass lumping and the random stream, so runs of the same
    settings under different versions of either never share a hash.
    """
    doc = {**settings, "lumping": "half", "stream": RANDOM_STREAM}
    digest = hashlib.sha256(json.dumps(doc, sort_keys=True, separators=(",", ":")).encode()).hexdigest()[:16]
    return {**doc, "version": _VERSION, "config_hash": digest}


def write_results(
    outdir: str | Path, result: EnsembleResult, fit: ScalingFit | None, renewal: RenewalEstimate | None = None
) -> Path:
    """Write a run directory.

    - ``config.json``: the :func:`provenance` record of the config, every
      field but the thread count;
    - ``curves.csv``: lambda and the mean Dirichlet and Neumann counts;
    - ``fit.json``: the :class:`ScalingFit` fields, when a window resolved;
    - ``renewal.json``: the :class:`RenewalEstimate` fields, renewal runs only.
    """
    outdir = Path(outdir)
    outdir.mkdir(parents=True, exist_ok=True)
    write_json(outdir / "config.json", provenance(result.config.as_dict()))

    lines = ["lambda,mean_dirichlet,mean_neumann"]
    md = result.dirichlet.mean(axis=0)
    mn = result.neumann.mean(axis=0)
    for i, lam in enumerate(result.lambdas):
        lines.append(f"{_fmt(lam)},{_fmt(md[i])},{_fmt(mn[i])}")
    (outdir / "curves.csv").write_text("\n".join(lines) + "\n")

    if fit is not None:
        write_json(outdir / "fit.json", _record(fit))
    if renewal is not None:
        write_json(outdir / "renewal.json", _record(renewal))
    return outdir
