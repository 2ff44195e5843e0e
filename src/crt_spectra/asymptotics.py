"""Ensemble estimators for the leading-order spectral asymptotics.

Two independent routes estimate the same constant: the counting function of
self-similar cascade networks should satisfy N(lambda) ~ C0 lambda**(2/3)
(plateau of the rescaled mean curve over an automatically selected window),
and the renewal route integrates the discounted mean branching increment
u(t) = exp(-2t/3) E eta(t), whose integral over the tilted split measure's
unit first moment equals the same constant. A third route builds reduced
trees from sampled excursions and counts with the same engine.
"""

from __future__ import annotations

import hashlib
import json
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, fields
from pathlib import Path

import numpy as np

from . import __version__ as _VERSION
from .cascade import CascadeTree, nu_gamma_moments, perturbations, perturbations_pooled
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
    trace_from_curve,
)

_BOOT_RESAMPLES = 1000


@dataclass(frozen=True)
class EnsembleConfig:
    """One reproducible ensemble run."""

    replicas: int
    depth: int
    master_seed: int
    trunc_depth: int = 20
    lambda_lo: float = 1.0
    lambda_hi: float = 1e8
    lambda_points: int = 97
    route: str = "selfsimilar"
    threads: int = 1
    steps: int = 2**14  # excursion route: grid resolution
    leaves: int = 600  # excursion route: reduced-tree leaf count
    debug_cascade: bool = False
    ceiling_deficit: float = 0.03  # unresolved spectral-mass fraction at the window top

    def __post_init__(self):
        if self.replicas < 1:
            raise ValueError("need at least one replica")
        if self.lambda_hi <= self.lambda_lo:
            raise ValueError("lambda grid must be increasing")
        if self.route not in ("selfsimilar", "excursion"):
            raise ValueError("route must be 'selfsimilar' or 'excursion'")

    @property
    def lambda_grid(self) -> np.ndarray:
        return np.geomspace(self.lambda_lo, self.lambda_hi, self.lambda_points)

    def replica_seed(self, r: int) -> int:
        return (self.master_seed * 0x9E3779B97F4A7C15 + 0x51ED2701 + r) % 2**63

    def as_dict(self) -> dict:
        """Every field that can change a result (the thread count never does)."""
        doc = {f.name: getattr(self, f.name) for f in fields(self) if f.name != "threads"}
        return {**doc, "lumping": "half"}


@dataclass
class EnsembleResult:
    config: EnsembleConfig
    lambdas: np.ndarray
    dirichlet: np.ndarray  # (replicas, points) integer counts
    neumann: np.ndarray
    floors: np.ndarray  # first Dirichlet eigenvalue per replica
    resolutions: np.ndarray  # per replica, estimated ceiling of the resolved range
    n_vertices: int

    def mean_curve(self, boundary: str = "neumann") -> np.ndarray:
        if boundary == "midpoint":
            return 0.5 * (self.neumann.mean(axis=0) + self.dirichlet.mean(axis=0))
        m = self.neumann if boundary == "neumann" else self.dirichlet
        return m.mean(axis=0)


@dataclass(frozen=True)
class ScalingFit:
    window: tuple[float, float]
    slope: float
    plateau: float
    stderr: float
    spectral_dimension: float
    slope_stderr: float
    replica_plateau_std: float


@dataclass
class RenewalEstimate:
    t_grid: np.ndarray
    u_values: np.ndarray
    nu_first_moment: float
    m_infinity: float
    tail_lo: float
    tail_hi: float


# ---------------------------------------------------------------------------
# Replica builders
# ---------------------------------------------------------------------------


def build_network(depth: int, seed: int, trunc_depth: int = 20, debug: bool = False) -> ResistanceNetwork:
    """Cascade network at a depth; pooled perturbations unless tiny."""
    if debug:
        from .cascade import PerturbationTable

        casc = CascadeTree.debug(depth)
        table = PerturbationTable.ones(depth)
        return assemble(depth, casc, table)
    casc = CascadeTree.sample(depth, seed)
    if 3**depth * 2**trunc_depth <= 2**22:
        table = perturbations(casc, trunc_depth)
    else:
        table = perturbations_pooled(casc, trunc_depth)
    return assemble(depth, casc, table)


def _weighted_quantile(x: np.ndarray, w: np.ndarray, q: float) -> float:
    order = np.argsort(x)
    cw = np.cumsum(w[order])
    i = int(np.searchsorted(cw, q * cw[-1]))
    return float(x[order[min(i, x.shape[0] - 1)]])


def _selfsimilar_replica(config: EnsembleConfig, r: int):
    from .forms import diameter as net_diameter

    net = build_network(config.depth, config.replica_seed(r), config.trunc_depth, config.debug_cascade)
    nd, nn = network_counts(net, config.lambda_grid)
    if net.level >= 1:
        floor = dirichlet_floor(net, diameter=net_diameter(net))
    else:
        floor = np.inf
    # resolution ceiling: the lambda at which the requested fraction of
    # spectral mass sits in cells whose internal modes (first eigenvalue
    # about floor / l**3) are already distorted by the lumping
    l_arr = net.cascade.l_levels()[net.level] if net.cascade is not None else np.ones(1)
    neg3logl = -3.0 * np.log(l_arr)
    resolution = floor * np.exp(_weighted_quantile(neg3logl, l_arr**2, config.ceiling_deficit))
    return nd, nn, floor, resolution


def _excursion_replica(config: EnsembleConfig, r: int):
    seed_seq = np.random.SeedSequence(entropy=config.master_seed % 2**63, spawn_key=(r,))
    path_seed, tree_seed = seed_seq.spawn(2)
    path = sample_excursion(config.steps, path_seed)
    tree = reduced_tree(path, config.leaves, tree_seed)
    pencil = Pencil.from_tree(tree)
    nd, nn = count_pair(pencil, config.lambda_grid)
    floor = dirichlet_floor(pencil)
    # unresolved hanging mass: modes inside the forest lumped onto vertex v
    # start no lower than 1/(mass * extent)
    hang = tree.lump_extent > 0
    if hang.any():
        est = 1.0 / (tree.mass[hang] * tree.lump_extent[hang])
        resolution = _weighted_quantile(est, tree.mass[hang], config.ceiling_deficit)
    else:  # pragma: no cover - every grid time on the tree
        resolution = float(config.lambda_hi)
    return nd, nn, floor, resolution, tree.n_vertices


def run_ensemble(config: EnsembleConfig) -> EnsembleResult:
    """Independent replicas on the lambda grid; deterministic in the config.

    Results are keyed by replica index, so the worker-thread count never
    changes any byte of the output.
    """
    if config.route == "selfsimilar" and 3**config.depth * config.replicas > cell_budget():
        raise CapacityError(
            f"3**{config.depth} cells x {config.replicas} replicas exceeds budget {cell_budget()}"
        )
    k = config.lambda_points
    nd = np.zeros((config.replicas, k), dtype=np.int64)
    nn = np.zeros((config.replicas, k), dtype=np.int64)
    floors = np.zeros(config.replicas)
    resolutions = np.zeros(config.replicas)
    sizes = np.zeros(config.replicas, dtype=np.int64)

    def work(r: int):
        if config.route == "selfsimilar":
            d, n, f, q = _selfsimilar_replica(config, r)
            return r, d, n, f, q, 3**config.depth + 1
        return (r, *_excursion_replica(config, r))

    if config.threads > 1:
        with ThreadPoolExecutor(max_workers=config.threads) as pool:
            for r, d, n, f, q, nv in pool.map(work, range(config.replicas)):
                nd[r], nn[r], floors[r], resolutions[r], sizes[r] = d, n, f, q, nv
    else:
        for r in range(config.replicas):
            r, d, n, f, q, nv = work(r)
            nd[r], nn[r], floors[r], resolutions[r], sizes[r] = d, n, f, q, nv
    return EnsembleResult(config, config.lambda_grid, nd, nn, floors, resolutions, int(sizes.max()))


# ---------------------------------------------------------------------------
# Plateau window and scaling fits
# ---------------------------------------------------------------------------


def auto_window(result: EnsembleResult, min_count: float = 6.0):
    """Resolved fitting window [lambda at a minimum mean count, ceiling].

    The lower end keeps the bounded boundary corrections (the counting
    functions differ from the continuum by O(1)) below a 1/min_count
    relative effect; the upper end is the median per-replica resolution
    ceiling, the lambda at which an estimated ``ceiling_deficit`` fraction
    of spectral mass sits in cells whose internal modes the lumped model
    cannot represent. Raises WindowUnresolved when the window collapses.
    """
    lams = result.lambdas
    mid = result.mean_curve("midpoint")
    above = np.nonzero(mid >= min_count)[0]
    if above.size == 0:
        raise WindowUnresolved(f"mean count never reaches {min_count}")
    lo = float(lams[above[0]])
    hi = float(np.median(result.resolutions))
    if hi > lams[-1]:
        hi = float(lams[-1])
    if hi < 3.0 * lo:
        raise WindowUnresolved(f"window [{lo}, {hi}] spans less than half a decade")
    return lo, hi


def fit_scaling(
    result: EnsembleResult,
    window: tuple[float, float] | None = None,
    boundary: str = "midpoint",
    boot_seed: int = 0,
) -> ScalingFit:
    """Log-log slope and rescaled plateau of the mean curve over a window.

    The default fits the midpoint of the Dirichlet and Neumann curves: the
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
    if boundary == "midpoint":
        counts = 0.5 * (result.neumann + result.dirichlet)[:, mask].astype(np.float64)
    else:
        counts = (result.neumann if boundary == "neumann" else result.dirichlet)[:, mask].astype(np.float64)
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
        rng = np.random.default_rng(np.random.SeedSequence(entropy=abs(boot_seed) % 2**63, spawn_key=(0xB007,)))
        idx = rng.integers(0, nrep, size=(_BOOT_RESAMPLES, nrep))
        boot_plateau = plateau_r[idx].mean(axis=1)
        ylog = np.log(counts[idx].mean(axis=1))  # (B, K)
        boot_slope = (ylog * xc).sum(axis=1) / (xc * xc).sum()
        stderr = float(boot_plateau.std(ddof=1))
        slope_stderr = float(boot_slope.std(ddof=1))
        replica_sd = float(plateau_r.std(ddof=1))
    else:
        stderr = slope_stderr = replica_sd = 0.0
    return ScalingFit(
        window=(float(lo), float(hi)),
        slope=slope,
        plateau=plateau,
        stderr=stderr,
        spectral_dimension=2.0 * slope,
        slope_stderr=slope_stderr,
        replica_plateau_std=replica_sd,
    )


def almost_sure_check(
    depths: tuple[int, ...],
    ensemble: EnsembleResult,
    ensemble_fit: ScalingFit,
) -> dict:
    """Single fixed-seed replica across depths against the ensemble plateau.

    Replica 0 of the ensemble's seed is refined through the listed depths
    (the per-address streams make deeper cascades extensions of the same
    realization). Its plateau should drift toward the ensemble value and,
    at the deepest level, sit within three replica-dispersion sigmas: the
    almost-sure limit makes single realizations indistinguishable from the
    mean at large lambda.
    """
    per_depth = []
    config = ensemble.config
    for depth in depths:
        cfg = EnsembleConfig(
            replicas=1,
            depth=depth,
            master_seed=config.master_seed,
            trunc_depth=config.trunc_depth,
            lambda_lo=config.lambda_lo,
            lambda_hi=config.lambda_hi,
            lambda_points=config.lambda_points,
            ceiling_deficit=config.ceiling_deficit,
        )
        single = run_ensemble(cfg)
        lo, hi = auto_window(single)
        mask = (single.lambdas >= lo) & (single.lambdas <= hi)
        mid = single.mean_curve("midpoint")
        plateau = float((mid[mask] * single.lambdas[mask] ** (-GAMMA_EXPONENT)).mean())
        per_depth.append({"depth": depth, "plateau": plateau, "window": [lo, hi]})
    final = per_depth[-1]["plateau"]
    sigma = max(ensemble_fit.replica_plateau_std, 1e-12)
    drifts = [abs(d["plateau"] - ensemble_fit.plateau) for d in per_depth]
    return {
        "per_depth": per_depth,
        "ensemble_plateau": ensemble_fit.plateau,
        "final_distance": abs(final - ensemble_fit.plateau),
        "sigma": sigma,
        "within_3_sigma": bool(abs(final - ensemble_fit.plateau) <= 3.0 * sigma),
        "drift_sequence": drifts,
    }


# ---------------------------------------------------------------------------
# Renewal route
# ---------------------------------------------------------------------------


def estimate_renewal_constant(
    config: EnsembleConfig,
    t_lo: float = -3.0,
    t_hi: float | None = None,
    t_points: int = 241,
    tail_tol: float = 1e-3,
) -> RenewalEstimate:
    """Monte-Carlo u(t) on a grid, trapezoid integral, ratio estimate.

    u(t) = exp(-2t/3) E eta(t) vanishes for t below -ln(diameter) (exact
    zeros) and decays like exp(-2t/3) above, since eta is bounded by 2. The
    upper grid end stays below the discretization ceiling ln(lambda_hi).
    Raises TailError when u has not decayed at the window edges.
    """
    if t_hi is None:
        t_hi = float(np.log(config.lambda_hi))
    ts = np.linspace(t_lo, t_hi, t_points)
    acc = np.zeros(t_points)
    for r in range(config.replicas):
        net = build_network(config.depth, config.replica_seed(r), config.trunc_depth, config.debug_cascade)
        acc += eta_many(net, ts)
    mean_eta = acc / config.replicas
    u = np.exp(-GAMMA_EXPONENT * ts) * mean_eta
    if u[0] > tail_tol or u[-1] > tail_tol:
        raise TailError(f"u at the window edges ({u[0]}, {u[-1]}) above {tail_tol}")
    integral = float(np.trapezoid(u, ts))
    total, first = nu_gamma_moments()
    del total
    return RenewalEstimate(
        t_grid=ts,
        u_values=u,
        nu_first_moment=first,
        m_infinity=integral / first,
        tail_lo=float(u[0]),
        tail_hi=float(u[-1]),
    )


# ---------------------------------------------------------------------------
# Heat-trace plateau
# ---------------------------------------------------------------------------


def trace_plateau(result: EnsembleResult, window: tuple[float, float], t_points: int = 33) -> dict:
    """Plateau of t**(2/3) x mean Neumann heat trace over the mapped window.

    Times map to the resolved lambda window through t = 1/lambda; the trace
    comes from the mean counting curve with certified placement bounds.
    """
    lo, hi = window
    ts = 1.0 / np.geomspace(hi, lo, t_points)
    mean_n = result.mean_curve("neumann")
    n_total = result.n_vertices
    values = []
    bounds = []
    for t in ts:
        v, b = trace_from_curve(result.lambdas, mean_n, float(t), n_total)
        values.append(v)
        bounds.append(b)
    values = np.array(values)
    scaled = ts ** (2.0 / 3.0) * values
    return {
        "t_grid": ts.tolist(),
        "scaled_trace": scaled.tolist(),
        "plateau": float(scaled.mean()),
        "max_error_bound": float(max(bounds)),
    }


# ---------------------------------------------------------------------------
# Results directory
# ---------------------------------------------------------------------------


def _fmt(x) -> str:
    return format(float(x), ".17g")


def config_hash(doc: dict) -> str:
    return hashlib.sha256(json.dumps(doc, sort_keys=True, separators=(",", ":")).encode()).hexdigest()[:16]


def write_results(
    outdir: str | Path,
    result: EnsembleResult,
    fit: ScalingFit | None,
    renewal: RenewalEstimate | None = None,
    extra: dict | None = None,
) -> Path:
    """config.json, curves.csv, fit.json (and renewal.json) in a run directory."""
    outdir = Path(outdir)
    outdir.mkdir(parents=True, exist_ok=True)
    doc = result.config.as_dict()
    doc["version"] = _VERSION
    doc["config_hash"] = config_hash(result.config.as_dict())
    (outdir / "config.json").write_text(json.dumps(doc, sort_keys=True, indent=1) + "\n")

    lines = ["lambda,mean_dirichlet,mean_neumann"]
    md = result.dirichlet.mean(axis=0)
    mn = result.neumann.mean(axis=0)
    for i, lam in enumerate(result.lambdas):
        lines.append(f"{_fmt(lam)},{_fmt(md[i])},{_fmt(mn[i])}")
    (outdir / "curves.csv").write_text("\n".join(lines) + "\n")

    if fit is not None:
        fdoc = {
            "window_lo": _fmt(fit.window[0]),
            "window_hi": _fmt(fit.window[1]),
            "slope": _fmt(fit.slope),
            "plateau": _fmt(fit.plateau),
            "stderr": _fmt(fit.stderr),
            "slope_stderr": _fmt(fit.slope_stderr),
            "spectral_dimension": _fmt(fit.spectral_dimension),
            "replica_plateau_std": _fmt(fit.replica_plateau_std),
        }
        if extra:
            fdoc.update(extra)
        (outdir / "fit.json").write_text(json.dumps(fdoc, sort_keys=True, indent=1) + "\n")
    if renewal is not None:
        rdoc = {
            "nu_first_moment": _fmt(renewal.nu_first_moment),
            "m_infinity": _fmt(renewal.m_infinity),
            "tail_lo": _fmt(renewal.tail_lo),
            "tail_hi": _fmt(renewal.tail_hi),
            "t_grid": [_fmt(t) for t in renewal.t_grid],
            "u": [_fmt(u) for u in renewal.u_values],
        }
        (outdir / "renewal.json").write_text(json.dumps(rdoc, sort_keys=True, indent=1) + "\n")
    return outdir
