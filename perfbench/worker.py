"""Run one crt-spectra command in this fresh process and print its cost.

    python3 perfbench/worker.py --setup-only
    python3 perfbench/worker.py [--trace] CLI-ARGUMENT ...

Times the import of ``crt_spectra.cli`` (what every command pays before it
starts), then calls ``cli.main`` with the arguments and reports wall time,
user + system CPU time and peak resident memory of this process as one
JSON line. ``--setup-only`` reports the import time alone. ``--trace``
installs the per-layer probes of ``layers.py`` before the call and adds
the per-layer values; a probe whose target is missing stops the process.
"""

from __future__ import annotations

import json
import resource
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))


def _cpu_seconds() -> float:
    ru = resource.getrusage(resource.RUSAGE_SELF)
    return ru.ru_utime + ru.ru_stime


def main(argv: list[str]) -> int:
    trace = bool(argv) and argv[0] == "--trace"
    cli_argv = argv[1:] if trace else argv

    t0 = time.perf_counter()
    import crt_spectra.cli as cli

    report = {"setup_s": time.perf_counter() - t0}
    if argv == ["--setup-only"]:
        print(json.dumps(report))
        return 0
    tracer = None
    if trace:
        sys.path.insert(0, str(HERE))
        from layers import Tracer

        tracer = Tracer()
        tracer.install()
    c0, w0 = _cpu_seconds(), time.perf_counter()
    report["exit_code"] = cli.main(cli_argv)
    report["wall_s"] = time.perf_counter() - w0
    report["cpu_s"] = _cpu_seconds() - c0
    report["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    if tracer is not None:
        report["layers"] = tracer.metrics()
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
