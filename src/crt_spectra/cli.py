"""Command-line front end.

Four commands: ``spectrum``, ``ensemble``, ``renewal`` and ``crt-route``.
Each regenerates its inputs from ``--seed``.

Default lambda grids, 12 points a decade (``--lambda-lo``, ``--lambda-hi``
and ``--points`` override them): ``spectrum`` 49 points on [1, 1e6];
``ensemble`` and ``renewal`` 61 points on [1, 1e5], above the resolution
ceilings where their fits end; ``crt-route`` 97 points on [1, 1e8], since
its ceiling grows with ``--leaves``. The ``renewal`` t grid spans
[-3, ln 1e8] whatever the lambda grid.

Exit codes: 0 success, 2 usage error (a bad flag value or a flag
combination that describes no valid run), 3 capacity exceeded, 4
numerical guard tripped (tail or window failures, a bracketing mismatch,
a counting curve that falls, an unbracketed Dirichlet floor).
Everything is deterministic in (seed, config): re-running a command
reproduces the numeric payloads byte for byte, whatever the thread count.
``--threads`` spreads the replicas of ``ensemble``, ``renewal`` and
``crt-route`` over worker threads; ``renewal`` builds each replica once,
for its counting curves and its eta row.
numpy's BLAS runs on one thread, since no command calls it; an
``OPENBLAS_NUM_THREADS`` already set in the environment overrides that.

Run records: the ensemble commands write ``config.json`` (the config and
its provenance), ``curves.csv`` (the mean counting curves), ``fit.json``
(the scaling fit, when a window resolves; otherwise a warning goes to
stderr) and, for ``renewal``, ``renewal.json`` (the renewal estimate
``m_infinity`` with its bootstrap stderr and the per-replica integrals).
``spectrum`` counts its network in one sweep and writes both curves,
``spectrum_dirichlet.csv`` and ``spectrum_neumann.csv`` (rows
``lambda,count,boundary``), with ``meta.json``, the provenance of every
flag but ``--out`` and ``--check-bracketing``. That check counts the three
first-generation cells and tests the bracketing chains against the same
sweep's counts.
"""

from __future__ import annotations

import argparse
import os
import sys
from dataclasses import MISSING, fields
from pathlib import Path

# No command calls BLAS or LAPACK, yet numpy's OpenBLAS starts a worker
# per core on import, and the idle one costs start-up time and spins a core
# for about 0.13 s. A user's own setting wins. This runs before numpy loads
# only because the package's __init__ imports no submodule.
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

import numpy as np

from . import __version__
from .asymptotics import (
    ROUTE_GRIDS,
    EnsembleConfig,
    ScalingFit,
    estimate_renewal_constant,
    fit_scaling,
    geometric_grid,
    provenance,
    run_ensemble,
    write_json,
    write_results,
)
from .cascade import CascadeTree, perturbations
from .errors import CapacityError, CrtSpectraError, GuardError, TailError, WindowUnresolved
from .forms import assemble
from .spectrum import bracketing_check, network_counts


class UsageError(CrtSpectraError):
    """Flag values that describe no valid run."""


def cmd_spectrum(args) -> int:
    if args.depth < 0:
        raise UsageError("need --depth >= 0")
    if args.check_bracketing and args.depth < 1:
        raise UsageError("--check-bracketing needs --depth >= 1")
    try:
        lams = geometric_grid(args.lambda_lo, args.lambda_hi, args.points)
    except ValueError as exc:
        raise UsageError(str(exc)) from None
    casc, r_base = CascadeTree.sample(args.depth, args.seed), perturbations(args.depth, args.seed)
    net = assemble(args.depth, casc.base_lengths, r_base)
    nd, nn = network_counts(net, lams)
    if (np.diff(nd) < 0).any() or (np.diff(nn) < 0).any():
        raise GuardError("counts must be nondecreasing in lambda")
    outdir = Path(args.out)
    outdir.mkdir(parents=True, exist_ok=True)
    # every flag that can change the curves: not the output path, nor a check that writes nothing
    settings = {k: v for k, v in vars(args).items() if k not in ("command", "fn", "out", "check_bracketing")}
    write_json(outdir / "meta.json", provenance(settings))
    for kind, counts in (("dirichlet", nd), ("neumann", nn)):
        rows = "".join(f"{lam:.17g},{int(c)},{kind}\n" for lam, c in zip(lams, counts))
        (outdir / f"spectrum_{kind}.csv").write_text("lambda,count,boundary\n" + rows)
    if args.check_bracketing:
        bad = np.flatnonzero(bracketing_check(casc, r_base, lams, nd, nn))
        if bad.size:
            raise GuardError(f"bracketing violated at {bad.size} lambda values, first at {float(lams[bad[0]])}")
    return 0


# flag defaults of the ensemble commands come from the config they fill
_DEFAULTS = {f.name: f.default for f in fields(EnsembleConfig) if f.default is not MISSING}


def _ensemble_config(args, route: str) -> EnsembleConfig:
    # a command without a field's flag leaves that field at its default
    given = {f.name: getattr(args, f.name) for f in fields(EnsembleConfig) if hasattr(args, f.name)}
    try:
        return EnsembleConfig(**given, master_seed=args.seed, lambda_points=args.points, route=route)
    except ValueError as exc:
        raise UsageError(str(exc)) from None


def _fit(result, require: bool) -> ScalingFit | None:
    """The scaling fit, or None with a warning when no window resolves (unless one is required)."""
    try:
        return fit_scaling(result)
    except WindowUnresolved as exc:
        if require:
            raise
        print(f"warning: no resolved window ({exc}); curves written without fit", file=sys.stderr)
        return None


def cmd_ensemble(args) -> int:
    config = _ensemble_config(args, "selfsimilar")
    result = run_ensemble(config)
    write_results(args.out, result, _fit(result, args.require_fit))
    return 0


def cmd_renewal(args) -> int:
    config = _ensemble_config(args, "selfsimilar")
    if config.depth < 1:
        raise UsageError("renewal needs --depth >= 1 (eta lives on the first refinement)")
    result, renewal = estimate_renewal_constant(config)
    write_results(args.out, result, _fit(result, False), renewal=renewal)
    return 0


def cmd_crt_route(args) -> int:
    config = _ensemble_config(args, "excursion")
    result = run_ensemble(config)
    write_results(args.out, result, _fit(result, False))
    return 0


def build_parser() -> argparse.ArgumentParser:
    top = argparse.ArgumentParser(prog="crt-spectra", description=__doc__)
    top.add_argument("--version", action="version", version=__version__)
    sub = top.add_subparsers(dest="command", required=True)

    p = sub.add_parser("spectrum", help="counting curves for one cascade network")
    p.add_argument("--depth", type=int, required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--lambda-lo", type=float, default=1.0)
    p.add_argument("--lambda-hi", type=float, default=1e6)
    p.add_argument("--points", type=int, default=49)
    p.add_argument("--check-bracketing", action="store_true")
    p.add_argument("--out", required=True)
    p.set_defaults(fn=cmd_spectrum)

    def ensemble_args(p, route):
        p.add_argument("--replicas", type=int, required=True)
        if route == "selfsimilar":
            p.add_argument("--depth", type=int, required=True)
        p.add_argument("--seed", type=int, default=0)
        p.add_argument("--lambda-lo", type=float, default=_DEFAULTS["lambda_lo"])
        # the config fills in the route's own grid top and point count
        hi, points = ROUTE_GRIDS[route]
        p.add_argument("--lambda-hi", type=float, default=_DEFAULTS["lambda_hi"], help=f"default {hi:g}")
        p.add_argument("--points", type=int, default=_DEFAULTS["lambda_points"], help=f"default {points}")
        p.add_argument("--threads", type=int, default=_DEFAULTS["threads"])
        p.add_argument("--out", required=True)

    p = sub.add_parser("ensemble", help="replica ensemble of cascade networks")
    ensemble_args(p, "selfsimilar")
    p.add_argument("--debug-cascade", action="store_true")
    p.add_argument("--require-fit", action="store_true")
    p.set_defaults(fn=cmd_ensemble)

    p = sub.add_parser("renewal", help="renewal-route estimate of the counting constant")
    ensemble_args(p, "selfsimilar")
    p.set_defaults(fn=cmd_renewal)

    p = sub.add_parser("crt-route", help="counting curves from excursion-sampled trees")
    ensemble_args(p, "excursion")
    p.add_argument("--steps", type=int, default=_DEFAULTS["steps"])
    p.add_argument("--leaves", type=int, default=_DEFAULTS["leaves"])
    p.set_defaults(fn=cmd_crt_route, depth=0)  # the excursion route has no cascade depth
    return top


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except UsageError as exc:
        parser.error(f"{args.command}: {exc}")  # exits 2, as argparse does for a bad flag
    except CapacityError as exc:
        print(f"capacity error: {exc}", file=sys.stderr)
        return 3
    except (GuardError, TailError, WindowUnresolved) as exc:
        print(f"numerical guard: {exc}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
