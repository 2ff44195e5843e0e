"""Per-layer spans and counters for a traced crt-spectra command.

Tracing replaces public functions of the package with delegating wrappers
that record a span (name, parent span name, duration, work count) and
return the original result untouched, so a traced command writes the same
bytes as an untraced one. Each wrapper is installed on the module attribute
its caller looks up (``asymptotics.network_counts``, not
``spectrum.network_counts``, for the curve sweeps), which is what separates
curve counting from the sweeps inside the floor bisection. A probe
whose function no longer exists is an error, never a metric that reads 0:
renaming a probed function means updating PROBES.

Span durations are busy seconds summed over threads: on the threaded
workload the layer times can add up to more than the wall time.
"""

from __future__ import annotations

import functools
import importlib
import threading
import time
from dataclasses import dataclass


@dataclass
class Span:
    name: str
    parent: str | None
    seconds: float
    count: int


def _pivots(args, result):
    # network_counts(net, lams) and count_pair(pencil, lams): V x lambda values
    return args[0].n_vertices * len(args[1])


# (module, attribute, span name, work count from (args, result))
PROBES = [
    ("crt_spectra.cascade", "CascadeTree.sample", "cascade.sample", None),
    ("crt_spectra.asymptotics", "perturbations", "cascade.perturb", None),
    ("crt_spectra.asymptotics", "perturbations_pooled", "cascade.perturb", None),
    ("crt_spectra.cascade", "dirichlet_half_triples", "cascade.rng", lambda a, r: len(a[1])),
    ("crt_spectra.asymptotics", "build_network", "asymptotics.build", None),
    ("crt_spectra.asymptotics", "assemble", "forms.assemble", None),
    ("crt_spectra.forms", "structure", "dendrite.structure", None),
    ("crt_spectra.forms", "diameter", "forms.diameter", None),
    ("crt_spectra.asymptotics", "network_counts", "spectrum.counts", _pivots),
    ("crt_spectra.asymptotics", "count_pair", "spectrum.counts", _pivots),
    ("crt_spectra.asymptotics", "dirichlet_floor", "spectrum.floor", None),
    ("crt_spectra.spectrum", "network_counts", "spectrum.sweep", None),
    ("crt_spectra.spectrum", "count_below", "spectrum.sweep", None),
    ("crt_spectra.spectrum", "block_counts", "spectrum.sweep", None),
    ("crt_spectra.asymptotics", "sample_excursion", "excursion.sample", None),
    ("crt_spectra.asymptotics", "reduced_tree", "excursion.tree", lambda a, r: r.n_vertices),
    ("crt_spectra.excursion", "nearest_vertex", "excursion.project", lambda a, r: len(a[0]) * len(a[1])),
    ("crt_spectra.cli", "fit_scaling", "asymptotics.fit", None),
    ("crt_spectra.cli", "write_results", "asymptotics.write", None),
]

# name -> unit, in the order BENCHMARK.json lists them
METRICS = {
    "cascade.sample_s": "s",
    "cascade.perturb_s": "s",
    "cascade.triples": "count",
    "cascade.triples_per_s": "1/s",
    "forms.assemble_s": "s",
    "forms.diameter_s": "s",
    "dendrite.structure_s": "s",
    "spectrum.counts_s": "s",
    "spectrum.pivots": "count",
    "spectrum.pivots_per_s": "1/s",
    "spectrum.floor_s": "s",
    "spectrum.floor_evals": "count",
    "asymptotics.replica_builds": "count",
    "excursion.sample_s": "s",
    "excursion.tree_s": "s",
    "excursion.project_s": "s",
    "excursion.tree_vertices": "count",
    "excursion.project_ops": "count",
    "asymptotics.fit_s": "s",
    "asymptotics.write_s": "s",
    "trace_overhead_s": "s",
}


def target(module_name: str, attr: str):
    """(owner, attribute name, raw attribute) of a probe; AttributeError if it is gone."""
    owner = importlib.import_module(module_name)
    *path, leaf = attr.split(".")
    for part in path:
        owner = getattr(owner, part, None)
    raw = owner.__dict__.get(leaf) if isinstance(owner, type) else getattr(owner, leaf, None)
    if raw is None:
        raise AttributeError(f"probe target {module_name}.{attr} is missing; update PROBES")
    return owner, leaf, raw


class Tracer:
    """Collects spans from every thread; one instance per traced process."""

    def __init__(self):
        self.spans: list[Span] = []
        self._stack = threading.local()

    def wrap(self, fn, name, count=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = self._stack.__dict__.setdefault("names", [])
            parent = stack[-1] if stack else None
            stack.append(name)
            t0 = time.perf_counter()
            result = None
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                seconds = time.perf_counter() - t0
                stack.pop()
                work = count(args, result) if count and result is not None else 1
                self.spans.append(Span(name, parent, seconds, work))

        return traced

    def install(self) -> None:
        for module_name, attr, name, count in PROBES:
            owner, leaf, raw = target(module_name, attr)
            if isinstance(raw, classmethod):
                setattr(owner, leaf, classmethod(self.wrap(raw.__func__, name, count)))
            else:
                setattr(owner, leaf, self.wrap(raw, name, count))

    def seconds(self, name: str, parent: str | None = None) -> float:
        return sum(s.seconds for s in self.spans if s.name == name and (parent is None or s.parent == parent))

    def count(self, name: str, parent: str | None = None) -> int:
        return sum(s.count for s in self.spans if s.name == name and (parent is None or s.parent == parent))

    def calls(self, name: str) -> int:
        return sum(1 for s in self.spans if s.name == name)

    def metrics(self) -> dict[str, float]:
        """Per-layer values of one traced command; trace_overhead_s is set by the caller."""
        rng_s, counts_s = self.seconds("cascade.rng"), self.seconds("spectrum.counts")
        triples, pivots = self.count("cascade.rng"), self.count("spectrum.counts")
        return {
            "cascade.sample_s": self.seconds("cascade.sample"),
            "cascade.perturb_s": self.seconds("cascade.perturb"),
            "cascade.triples": triples,
            "cascade.triples_per_s": triples / rng_s if rng_s else 0.0,
            "forms.assemble_s": self.seconds("forms.assemble") - self.seconds("dendrite.structure", "forms.assemble"),
            "forms.diameter_s": self.seconds("forms.diameter"),
            "dendrite.structure_s": self.seconds("dendrite.structure"),
            "spectrum.counts_s": counts_s,
            "spectrum.pivots": pivots,
            "spectrum.pivots_per_s": pivots / counts_s if counts_s else 0.0,
            "spectrum.floor_s": self.seconds("spectrum.floor"),
            "spectrum.floor_evals": self.count("spectrum.sweep", "spectrum.floor"),
            "asymptotics.replica_builds": self.calls("asymptotics.build") + self.calls("excursion.tree"),
            "excursion.sample_s": self.seconds("excursion.sample"),
            "excursion.tree_s": self.seconds("excursion.tree") - self.seconds("excursion.project", "excursion.tree"),
            "excursion.project_s": self.seconds("excursion.project"),
            "excursion.tree_vertices": self.count("excursion.tree"),
            "excursion.project_ops": self.count("excursion.project"),
            "asymptotics.fit_s": self.seconds("asymptotics.fit"),
            "asymptotics.write_s": self.seconds("asymptotics.write"),
        }
