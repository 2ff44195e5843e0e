"""End-to-end benchmark of the crt-spectra command line.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the package is imported from
``src/``. Each workload is one ``crt-spectra`` command with the seed passed
as ``--seed``, run by ``worker.py`` in a fresh process: a closed loop with
one client, no concurrency beyond the command's own ``--threads``.

``--trace 0`` repeats the command until S seconds have passed, covering
each of SEEDS_PER_RUN input seeds derived from N at least once, and
reports ``wall_s``, ``cpu_s`` and ``peak_rss_mb`` as the mean over the
input seeds of each seed's median: every input seed weighs the same,
however many commands a fast or slow build fits into S seconds.
``setup_s`` is the median time a fresh process takes to import
``crt_spectra.cli``, sampled in each command and in import-only processes
between commands.
``--trace 1`` runs the command with seed N alternately untraced and
traced (per-layer probes from ``layers.py``) until S seconds have passed,
and reports the median per-layer values; ``trace_overhead_s`` is the
median traced wall time minus the median untraced one.

Each run spans several inputs because a 2-vCPU VM's speed drifts by
10-20 % between commands and the tree counter's time depends on the tree's
shape: a mean over several commands and inputs is steadier than one long
command.

The replica counts are set so that every input seed resolves a fitting
window. The CLI writes no ``fit.json`` when the window collapses (the
median per-replica resolution ceiling falls below three times the lambda
at which the mean count reaches 6), and the check counts that as a failed
operation. Resampling 100 sampled depth-12 replicas, that happens for
about 3 % of single replicas and 0.1 % of 2-replica ensembles, but about
0.01 % of 4-replica ones. Depth-10
ensembles collapse on 4 % of seeds at 4 replicas and 1 % at 8, so a
``renewal`` command, whose eta sweeps fit in a run's time only at depth
10, is not a workload. Nor is a second thread: the replicas hold the GIL
for most of their time, so ``--threads 2`` adds little speed and makes
wall time depend on whether the shared host has a second core free.

Every command is one operation. It fails on a nonzero exit code, on a
failed output check, or when its output digest differs from an earlier
command of the run with the same input seed (the bytes must repeat, and a
traced command must match an untraced one). The estimates, the digest and
each command's measurements are printed on the line before the result, and
not gated: a change to the random streams moves the estimates by chance.
The last line is the result JSON.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = ROOT / ".perfbench_work"

# name -> command; the seed and output directory are appended
WORKLOADS = {
    # deep cascade, 1 thread: RNG-bound, 4.25 MB per-cell arrays exceed L2
    "selfsimilar-d12": ["ensemble", "--depth", "12", "--replicas", "4", "--threads", "1"],
    # no cascade RNG: excursion tree, projection, generic tree counting
    "crt-route-2e16": ["crt-route", "--steps", "65536", "--leaves", "3000", "--replicas", "1", "--threads", "1"],
}

END_TO_END = {"wall_s": "s", "cpu_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}
SEEDS_PER_RUN = 3
SETUP_SAMPLES = 2  # import-only processes after each command
# few-replica slopes scatter by up to 0.09 over seeds at these sizes
SLOPE_BAND = (2.0 / 3.0 - 0.15, 2.0 / 3.0 + 0.15)
RUN_DEADLINE_S = 160  # a run must end within 180 s, whatever a command does


def worker(args: list[str], trace: bool, timeout: float) -> dict:
    """Run worker.py in a fresh process; its report, or {"error": ...}."""
    cmd = [sys.executable, str(HERE / "worker.py")] + (["--trace"] if trace else []) + args
    try:
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=timeout)
    except subprocess.TimeoutExpired:
        return {"error": f"timed out after {timeout:.0f} s"}
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        return {"error": f"worker exit {proc.returncode}: {proc.stderr.strip()[-500:]}"}
    return json.loads(lines[-1])


def digest(outdir: Path) -> str:
    h = hashlib.sha256()
    for f in sorted(outdir.iterdir()):
        h.update(f.name.encode() + b"\0" + f.read_bytes() + b"\0")
    return h.hexdigest()


def check_outputs(outdir: Path) -> list[str]:
    """Problems found in a results directory; empty when every check holds."""
    problems = []
    rows = [line.split(",") for line in (outdir / "curves.csv").read_text().splitlines()[1:]]
    lam, md, mn = ([float(r[i]) for r in rows] for i in range(3))
    if any(b <= a for a, b in zip(lam, lam[1:])):
        problems.append("lambda grid not strictly increasing")
    for name, curve in (("dirichlet", md), ("neumann", mn)):
        if any(b < a for a, b in zip(curve, curve[1:])):
            problems.append(f"mean {name} count decreases")
    if any(not 0.0 <= n - d <= 2.0 for d, n in zip(md, mn)):
        problems.append("mean neumann - mean dirichlet outside [0, 2]")
    fit_path = outdir / "fit.json"
    if not fit_path.exists():
        problems.append("fit.json missing")
    else:
        slope = float(json.loads(fit_path.read_text())["slope"])
        if not SLOPE_BAND[0] <= slope <= SLOPE_BAND[1]:
            problems.append(f"slope {slope} outside {SLOPE_BAND}")
    return problems


def estimates(outdir: Path) -> dict:
    """Per-run outputs that are recorded, not gated."""
    doc = json.loads((outdir / "fit.json").read_text())
    return {k: float(doc[k]) for k in ("plateau", "stderr", "slope")}


def run_command(argv: list[str], seed: int, index: int, trace: bool = False, timeout: float = RUN_DEADLINE_S) -> dict:
    """One operation: run the command, check its outputs, digest them."""
    outdir = WORK / f"out{index}"
    shutil.rmtree(outdir, ignore_errors=True)
    report = worker(argv + ["--seed", str(seed), "--out", str(outdir)], trace, timeout)
    if "error" in report:
        return report
    if report["exit_code"] != 0:
        report["error"] = f"command exit code {report['exit_code']}"
        return report
    try:
        problems = check_outputs(outdir)
        report["digest"] = digest(outdir)
        if not problems:
            report["estimates"] = estimates(outdir)
    except (OSError, ValueError, KeyError, IndexError) as exc:
        problems = [f"unreadable output: {exc!r}"]
    if problems:
        report["error"] = "; ".join(problems)
    shutil.rmtree(outdir, ignore_errors=True)
    return report


def setup_samples(count: int, timeout: float) -> list[float]:
    """Import times of ``crt_spectra.cli`` in `count` fresh processes."""
    samples = []
    for _ in range(count):
        report = worker(["--setup-only"], False, timeout)
        if "error" in report:
            raise RuntimeError(f"import of crt_spectra.cli failed: {report['error']}")
        samples.append(report["setup_s"])
    return samples


def seed_weighted(runs: list[dict], name: str) -> float:
    """Mean over input seeds of each seed's median, so every seed weighs the same."""
    by_seed: dict[int, list[float]] = {}
    for r in runs:
        by_seed.setdefault(r["seed"], []).append(r[name])
    return statistics.fmean(statistics.median(v) for v in by_seed.values())


def measure(argv: list[str], seed: int, seconds: float, trace: bool) -> tuple[list[dict], dict]:
    """Run the command until `seconds` have passed, covering every input seed.

    Untraced, command i gets the input seed ``seed * SEEDS_PER_RUN + i %
    SEEDS_PER_RUN`` and is followed by SETUP_SAMPLES import-only processes;
    ``setup_s`` is the median of their import times and the commands' own,
    spread over the run so that one slow stretch of the host moves it
    little. Traced, every command gets ``seed`` and every second one is
    traced. A command whose digest differs from an earlier one with the
    same seed fails.
    Returns every command's report and the metrics of the run.
    """
    runs: list[dict] = []
    first_digest: dict[int, str] = {}
    start = time.perf_counter()
    setup: list[float] = []
    while len(runs) < SEEDS_PER_RUN or time.perf_counter() - start < seconds:
        left = RUN_DEADLINE_S - (time.perf_counter() - start)
        if left <= 0:
            break
        i = len(runs)
        cmd_seed = seed if trace else seed * SEEDS_PER_RUN + i % SEEDS_PER_RUN
        run = run_command(argv, cmd_seed, i, trace and i % 2 == 1, left)
        run["seed"] = cmd_seed
        if "digest" in run and run["digest"] != first_digest.setdefault(cmd_seed, run["digest"]):
            run.setdefault("error", "output digest differs from an earlier command with the same seed")
        runs.append(run)
        if not trace:
            left = RUN_DEADLINE_S - (time.perf_counter() - start)
            setup += ([run["setup_s"]] if "setup_s" in run else []) + setup_samples(SETUP_SAMPLES, left)

    plain = [r for r in runs if "wall_s" in r and "layers" not in r]
    traced = [r for r in runs if "layers" in r]
    if not plain or (trace and not traced):
        errors = sorted({r["error"] for r in runs if "error" in r})
        raise RuntimeError(f"no command completed: {'; '.join(errors)[:1000]}")
    if not trace:
        metrics = {name: seed_weighted(plain, name) for name in ("wall_s", "cpu_s", "peak_rss_mb")}
        return runs, {**metrics, "setup_s": statistics.median(setup)}
    metrics = {name: statistics.median(r["layers"][name] for r in traced) for name in traced[0]["layers"]}
    wall = [statistics.median(r["wall_s"] for r in group) for group in (traced, plain)]
    metrics["trace_overhead_s"] = wall[0] - wall[1]
    return runs, metrics


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (ROOT / "src" / "crt_spectra" / "cli.py").is_file():
        print(f"no crt_spectra sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    WORK.mkdir(exist_ok=True)
    try:
        runs, metrics = measure(WORKLOADS[args.workload], args.seed, args.seconds, bool(args.trace))
    except RuntimeError as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(WORK, ignore_errors=True)

    failed = sum("error" in r for r in runs)
    for r in runs:
        if "error" in r:
            print(f"failed: {r['error']}", file=sys.stderr)
    units = END_TO_END
    if args.trace:
        sys.path.insert(0, str(HERE))
        from layers import METRICS as units
    print(json.dumps({"workload": args.workload, "seed": args.seed, "commands": runs}))
    result = {
        "correct": failed == 0,
        "attempted": len(runs),
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
