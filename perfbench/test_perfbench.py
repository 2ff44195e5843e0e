"""Tests of the benchmark itself: metric names, output checks, determinism.

    python3 -m pytest perfbench

They run small versions of the workloads' commands.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

import layers  # noqa: E402
import run  # noqa: E402

SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())
# small versions of each workload's command, to keep the tests fast
TINY = {
    "selfsimilar-d12": ["ensemble", "--depth", "9", "--replicas", "2", "--threads", "1"],
    "crt-route-2e16": ["crt-route", "--steps", "8192", "--leaves", "300", "--replicas", "2", "--threads", "1"],
}
# modules a workload never reaches: their per-layer metrics must read 0
ABSENT = {"selfsimilar-d12": "excursion.", "crt-route-2e16": "cascade."}


def test_workloads_match_spec():
    assert [w["name"] for w in SPEC["workloads"]] == list(run.WORKLOADS) == list(TINY)


def test_every_probe_resolves():
    for module_name, attr, _, _ in layers.PROBES:
        layers.target(module_name, attr)
    with pytest.raises(AttributeError, match="missing"):
        layers.target("crt_spectra.spectrum", "no_such_function")


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", list(run.WORKLOADS))
def test_tiny_run_reports_every_metric(workload, trace, monkeypatch, capsys):
    monkeypatch.setattr(run, "WORKLOADS", TINY)
    # tiny cascades resolve a fit window only on some seeds (at depth 9,
    # inputs 0 and 4 of 0-8 collapse); seed 3 runs inputs 3 and 9-11, which resolve
    code = run.main(["--workload", workload, "--seed", "3", "--seconds", "0", "--trace", str(trace)])
    assert code == 0, capsys.readouterr().err
    result = json.loads(capsys.readouterr().out.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= run.SEEDS_PER_RUN
    spec = SPEC["per_layer" if trace else "end_to_end"]
    assert {k: v["unit"] for k, v in result["metrics"].items()} == {m["name"]: m["unit"] for m in spec}
    values = {k: v["value"] for k, v in result["metrics"].items()}
    if trace:
        assert values["spectrum.counts_s"] > 0
        assert all(v == 0 for k, v in values.items() if k.startswith(ABSENT[workload]))
    else:
        assert all(v > 0 for v in values.values())


def test_every_input_seed_weighs_the_same():
    runs = [{"seed": 0, "wall_s": 1.0}, {"seed": 1, "wall_s": 3.0}, {"seed": 0, "wall_s": 1.0}]
    assert run.seed_weighted(runs, "wall_s") == 2.0


@pytest.mark.parametrize("workload", list(run.WORKLOADS))
def test_same_seed_same_digest(workload, tmp_path, monkeypatch):
    monkeypatch.setattr(run, "WORK", tmp_path)
    tiny = TINY[workload]
    first, second = run.run_command(tiny, 3, 0), run.run_command(tiny, 3, 1, trace=True)
    assert first["digest"] == second["digest"]
    assert run.run_command(tiny, 4, 2)["digest"] != first["digest"]


def test_digest_same_at_one_and_two_threads(tmp_path, monkeypatch):
    monkeypatch.setattr(run, "WORK", tmp_path)
    one = TINY["crt-route-2e16"]
    two = one[:-1] + ["2"]
    a, b = run.run_command(one, 0, 0), run.run_command(two, 0, 1)
    assert "error" not in a and "error" not in b
    assert a["digest"] == b["digest"]


def test_checks_reject_bad_curves(tmp_path):
    (tmp_path / "curves.csv").write_text("lambda,mean_dirichlet,mean_neumann\n1,2,3\n1,1,4\n")
    problems = run.check_outputs(tmp_path)
    assert len(problems) == 4  # grid, dirichlet decreasing, gap > 2, no fit.json


def test_fails_without_sources(tmp_path):
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "crt-route-2e16", "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=170,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
