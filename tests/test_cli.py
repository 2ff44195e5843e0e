import json
import os
from pathlib import Path

import numpy as np
import pytest

from crt_spectra import cli
from crt_spectra._kernels import RANDOM_STREAM
from crt_spectra.asymptotics import EnsembleConfig, build_network
from crt_spectra.spectrum import network_counts
from conftest import run_fresh
from spectrum_oracle import dense_count_pair, network_pencil


def run(args):
    return cli.main(args)


def test_usage_error_exit_code(tmp_path, monkeypatch):
    from crt_spectra import asymptotics

    monkeypatch.chdir(tmp_path)
    monkeypatch.setattr(asymptotics, "build_network", None)  # rejected before any replica is built
    for argv in (
        ["spectrum", "--depth", "not-an-int", "--out", "x"],
        ["sample-cascade", "--depth", "2", "--out", "x"],  # no such command
        ["sample-excursion", "--steps", "64", "--out", "x"],
        ["ensemble", "--replicas", "0", "--depth", "3", "--out", "x"],
        ["renewal", "--replicas", "0", "--depth", "3", "--out", "x"],
        ["renewal", "--replicas", "2", "--depth", "0", "--out", "x"],
        ["crt-route", "--replicas", "1", "--steps", "4", "--leaves", "10", "--out", "x"],
        ["spectrum", "--depth", "0", "--check-bracketing", "--out", "x"],
        ["ensemble", "--replicas", "1", "--depth", "5", "--oracle", "--out", "x"],  # no such flag
        ["ensemble", "--replicas", "1", "--depth", "2", "--lambda-lo", "0", "--out", "x"],
        ["renewal", "--replicas", "1", "--depth", "2", "--lambda-lo", "-1", "--out", "x"],
        ["crt-route", "--replicas", "1", "--lambda-lo", "0", "--out", "x"],
        ["spectrum", "--depth", "2", "--lambda-lo", "0", "--out", "x"],
        ["spectrum", "--depth", "2", "--lambda-lo", "10", "--lambda-hi", "10", "--out", "x"],
        ["ensemble", "--replicas", "1", "--depth", "-1", "--out", "x"],
        ["spectrum", "--depth", "-1", "--out", "x"],
        ["spectrum", "--depth", "2", "--points", "-1", "--out", "x"],
        ["spectrum", "--depth", "2", "--points", "0", "--out", "x"],
        ["ensemble", "--replicas", "1", "--depth", "2", "--points", "-3", "--out", "x"],
        ["ensemble", "--replicas", "1", "--depth", "2", "--points", "0", "--out", "x"],
        ["ensemble", "--replicas", "1", "--depth", "2", "--lambda-hi", "inf", "--out", "x"],
        ["renewal", "--replicas", "1", "--depth", "2", "--lambda-hi", "inf", "--out", "x"],
        ["crt-route", "--replicas", "1", "--lambda-hi", "inf", "--out", "x"],
        ["spectrum", "--depth", "2", "--lambda-hi", "inf", "--out", "x"],
        ["ensemble", "--replicas", "1", "--depth", "2", "--threads", "0", "--out", "x"],
        ["renewal", "--replicas", "1", "--depth", "2", "--threads", "-3", "--out", "x"],
        ["crt-route", "--replicas", "1", "--threads", "0", "--out", "x"],
        # six points that round to fewer distinct lambdas
        ["spectrum", "--depth", "2", "--lambda-lo", "1", "--lambda-hi", "1.0000000000000004", "--points", "6",
         "--out", "x"],
        ["ensemble", "--replicas", "2", "--depth", "2", "--lambda-lo", "1", "--lambda-hi", "1.0000000000000004",
         "--points", "6", "--out", "x"],
    ):
        with pytest.raises(SystemExit) as exc:
            run(argv)
        assert exc.value.code == 2, argv
        assert not (tmp_path / "x").exists(), argv


def test_cli_import_loads_no_scipy():
    # the runtime needs numpy and the standard library only; a fresh interpreter shows what the import loads
    code = "import sys, crt_spectra.cli; print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    assert run_fresh(code) == "[]"


def test_package_import_loads_no_numpy():
    # submodules load when imported by name, so cli can set the BLAS thread count before numpy starts
    assert run_fresh("import sys, crt_spectra; print('numpy' in sys.modules)") == "False"


# native threads of the process after the import, and the BLAS thread count it leaves set
THREADS = (
    "import os, crt_spectra.cli; print(len(os.listdir('/proc/self/task')), os.environ.get('OPENBLAS_NUM_THREADS'))"
)
needs_proc = pytest.mark.skipif(not Path("/proc/self/task").is_dir(), reason="needs /proc/self/task")


@needs_proc
def test_cli_import_starts_no_blas_worker():
    assert run_fresh(THREADS) == "1 1"


@needs_proc
@pytest.mark.skipif(
    not hasattr(os, "sched_getaffinity") or len(os.sched_getaffinity(0)) < 2,
    reason="OpenBLAS caps its threads at the usable cores",
)
def test_cli_import_keeps_a_preset_blas_thread_count():
    assert run_fresh(THREADS, OPENBLAS_NUM_THREADS="2") == "2 2"


def test_commands_load_no_numpy_ma(tmp_path):
    # np.median and a plain np.unique import numpy.ma, about 10 ms and 2 MB of every command;
    # concurrent.futures, which loads logging, is for --threads above 1 only
    code = (
        "import sys\n"
        "from crt_spectra import cli\n"
        "for args in (\n"
        "    ['ensemble', '--replicas', '2', '--depth', '4', '--seed', '0', '--threads', '1'],\n"
        "    ['renewal', '--replicas', '2', '--depth', '3', '--seed', '0', '--threads', '1'],\n"
        "    ['spectrum', '--depth', '3', '--seed', '1', '--points', '9'],\n"
        "    ['crt-route', '--replicas', '1', '--steps', '1024', '--leaves', '40', '--seed', '0', '--threads', '1'],\n"
        "):\n"
        f"    assert cli.main(args + ['--out', {str(tmp_path)!r} + '/' + args[0]]) == 0\n"
        "print('numpy.ma' in sys.modules, 'concurrent.futures' in sys.modules)\n"
    )
    assert run_fresh(code, timeout=300) == "False False"


def test_capacity_exit_code(tmp_path, capsys):
    # 3**33 cells: refused before anything is built or written
    assert run(["spectrum", "--depth", "33", "--seed", "1", "--out", str(tmp_path / "s")]) == 3
    assert "capacity" in capsys.readouterr().err
    assert not (tmp_path / "s").exists()


def test_spectrum_command_curves(tmp_path):
    out = tmp_path / "spec"
    code = run(
        ["spectrum", "--depth", "2", "--seed", "3", "--lambda-lo", "0.5", "--lambda-hi", "1e4",
         "--points", "21", "--out", str(out)]
    )
    assert code == 0
    dl = (out / "spectrum_dirichlet.csv").read_text().strip().splitlines()
    nl = (out / "spectrum_neumann.csv").read_text().strip().splitlines()
    assert dl[0] == "lambda,count,boundary"
    gaps = []
    for a, b in zip(dl[1:], nl[1:]):
        la, ca, _ = a.split(",")
        lb, cb, _ = b.split(",")
        assert la == lb
        gaps.append(int(cb) - int(ca))
    assert set(gaps) <= {0, 1, 2}
    meta = json.loads((out / "meta.json").read_text())
    assert meta["seed"] == 3 and "config_hash" in meta
    assert meta["stream"] == RANDOM_STREAM


def test_spectrum_meta_hash_covers_the_seed(tmp_path):
    def meta(seed, name):
        argv = ["spectrum", "--depth", "2", "--seed", str(seed), "--out", str(tmp_path / name)]
        assert run(argv) == 0
        return json.loads((tmp_path / name / "meta.json").read_text())

    a, again, b = meta(1, "a"), meta(1, "again"), meta(2, "b")
    assert a == again
    assert a["config_hash"] != b["config_hash"]
    assert a["lumping"] == "half" and a["stream"] == RANDOM_STREAM
    assert "out" not in a and "check_bracketing" not in a


def test_spectrum_check_bracketing(tmp_path):
    code = run(
        ["spectrum", "--depth", "3", "--seed", "4", "--points", "15", "--check-bracketing",
         "--out", str(tmp_path / "s")]
    )
    assert code == 0


def test_spectrum_check_bracketing_sweeps_the_network_once(tmp_path, monkeypatch):
    from crt_spectra import asymptotics, spectrum

    sizes = []
    sweep = spectrum.inertia_counts

    def record(sched, mass, *args):
        sizes.append(len(mass))
        return sweep(sched, mass, *args)

    monkeypatch.setattr(spectrum, "inertia_counts", record)
    argv = ["spectrum", "--depth", "3", "--seed", "4", "--points", "15", "--check-bracketing"]
    assert run(argv + ["--out", str(tmp_path / "s")]) == 0
    full = asymptotics.build_network(3, 4)[0].n_vertices
    # one sweep of the full network, one of each first-generation cell
    assert sizes.count(full) == 1 and len(sizes) == 4, sizes


def test_spectrum_falling_counts_trip_the_guard(tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(cli, "network_counts", lambda net, lams: (np.arange(len(lams))[::-1], np.arange(len(lams))))
    assert run(["spectrum", "--depth", "2", "--points", "5", "--out", str(tmp_path / "s")]) == 4
    assert capsys.readouterr().err == "numerical guard: counts must be nondecreasing in lambda\n"
    assert not (tmp_path / "s").exists()


def test_assertion_error_is_not_a_guard(tmp_path, monkeypatch):
    # a failed assert is a programming error: it propagates, not exit 4
    def broken(net, lams):
        raise AssertionError("unrelated")

    monkeypatch.setattr(cli, "network_counts", broken)
    with pytest.raises(AssertionError, match="unrelated"):
        run(["spectrum", "--depth", "2", "--out", str(tmp_path / "s")])


def test_ensemble_command(tmp_path):
    out = tmp_path / "ens"
    code = run(
        ["ensemble", "--replicas", "2", "--depth", "3", "--seed", "11",
         "--lambda-lo", "0.5", "--lambda-hi", "1e5", "--points", "17", "--out", str(out)]
    )
    assert code == 0
    assert (out / "curves.csv").exists()
    doc = json.loads((out / "config.json").read_text())
    assert doc["replicas"] == 2
    # exact perturbations leave no truncation to record, and the stream tag names the Rayleigh draw
    assert "trunc_depth" not in doc
    assert doc["stream"] == RANDOM_STREAM == "splitmix64-archimedes-rayleigh"


def test_oracle_agrees_on_a_badly_scaled_replica():
    # replica 1 of this ensemble is too badly scaled for eigvalsh on
    # M**-1/2 L M**-1/2, which returns -2.3e6 for a positive-definite
    # Dirichlet pencil; the Sylvester count on L - lambda M agrees with the
    # engine, and so does a 60-digit elimination
    config = EnsembleConfig(replicas=3, depth=4, master_seed=0)
    lams = np.geomspace(config.lambda_lo, config.lambda_hi, 7)
    for r in range(3):
        net, _ = build_network(config.depth, config.replica_seed(r))
        np.testing.assert_array_equal(dense_count_pair(network_pencil(net), lams), network_counts(net, lams))


def test_oracle_checks_dirichlet_counts_at_depth_0(tmp_path):
    # a depth-0 network has no interior vertex, so the dense and engine Dirichlet counts are 0 at every lambda
    args = ["ensemble", "--depth", "0", "--replicas", "1", "--out", str(tmp_path / "ens")]
    assert run(args) == 0
    config = EnsembleConfig(replicas=1, depth=0, master_seed=0)
    lams = np.geomspace(config.lambda_lo, config.lambda_hi, 7)
    net, _ = build_network(config.depth, config.replica_seed(0))
    dd, dn = dense_count_pair(network_pencil(net), lams)
    nd, nn = network_counts(net, lams)
    assert dd.tolist() == nd.tolist() == [0] * 7
    assert dn.tolist() == nn.tolist()


def test_ensemble_determinism_across_threads(tmp_path):
    argbase = ["ensemble", "--replicas", "3", "--depth", "3", "--seed", "13",
               "--points", "17", "--lambda-lo", "0.5", "--lambda-hi", "1e5"]
    run(argbase + ["--threads", "1", "--out", str(tmp_path / "t1")])
    run(argbase + ["--threads", "2", "--out", str(tmp_path / "t2")])
    assert (tmp_path / "t1" / "curves.csv").read_bytes() == (tmp_path / "t2" / "curves.csv").read_bytes()


def test_renewal_command(tmp_path):
    out = tmp_path / "ren"
    code = run(
        ["renewal", "--replicas", "4", "--depth", "4", "--seed", "17",
         "--lambda-lo", "0.5", "--lambda-hi", "1e6", "--points", "25", "--out", str(out)]
    )
    assert code == 0
    doc = json.loads((out / "renewal.json").read_text())
    assert abs(float(doc["nu_first_moment"]) - 1.0) < 1e-6
    assert float(doc["m_infinity"]) > 0


def test_renewal_warns_when_no_window_resolves(tmp_path, capsys):
    # this shallow ensemble's resolution ceiling falls below its count-6 lambda
    out = tmp_path / "ren"
    argv = ["renewal", "--replicas", "2", "--depth", "3", "--seed", "0",
            "--out", str(out)]
    assert run(argv) == 0
    err = capsys.readouterr().err
    assert "warning: no resolved window" in err
    # the ceiling (31.7) is what failed, not the window's width
    assert "resolution ceiling 31.68" in err and "lies below 261.0" in err
    assert "half a decade" not in err
    assert not (out / "fit.json").exists()
    assert float(json.loads((out / "renewal.json").read_text())["m_infinity"]) > 0


def test_ensemble_rerun_without_a_fit_removes_the_old_fit(tmp_path, capsys):
    out = tmp_path / "d"
    argv = ["ensemble", "--replicas", "2", "--depth", "6", "--seed", "1", "--out", str(out)]
    assert run(argv) == 0
    assert (out / "fit.json").exists()
    assert run(argv + ["--lambda-hi", "30", "--points", "9"]) == 0
    assert "warning: no resolved window" in capsys.readouterr().err
    assert sorted(p.name for p in out.iterdir()) == ["config.json", "curves.csv"]
    assert float(json.loads((out / "config.json").read_text())["lambda_hi"]) == 30


def test_ensemble_after_renewal_removes_the_renewal_estimate(tmp_path):
    out = tmp_path / "d"
    common = ["--replicas", "2", "--depth", "6", "--seed", "1", "--out", str(out)]
    assert run(["renewal", *common]) == 0
    assert (out / "renewal.json").exists()
    assert run(["ensemble", *common]) == 0
    assert sorted(p.name for p in out.iterdir()) == ["config.json", "curves.csv", "fit.json"]


RENEWAL_ARGS = ["renewal", "--replicas", "3", "--depth", "4", "--seed", "17",
                "--lambda-lo", "0.5", "--lambda-hi", "1e6", "--points", "25"]


def test_renewal_builds_each_replica_once(tmp_path, monkeypatch):
    from crt_spectra import asymptotics

    calls = []
    build = asymptotics.build_network
    monkeypatch.setattr(asymptotics, "build_network", lambda *a, **k: calls.append(a) or build(*a, **k))
    assert run(RENEWAL_ARGS + ["--out", str(tmp_path / "ren")]) == 0
    assert len(calls) == 3
    assert len(set(calls)) == 3


def test_renewal_determinism_across_threads(tmp_path):
    run(RENEWAL_ARGS + ["--threads", "1", "--out", str(tmp_path / "t1")])
    run(RENEWAL_ARGS + ["--threads", "2", "--out", str(tmp_path / "t2")])
    for name in ("renewal.json", "curves.csv"):
        assert (tmp_path / "t1" / name).read_bytes() == (tmp_path / "t2" / name).read_bytes()


def test_crt_route_command(tmp_path):
    out = tmp_path / "crt"
    code = run(
        ["crt-route", "--replicas", "2", "--seed", "19", "--steps", "1024", "--leaves", "30",
         "--lambda-lo", "0.5", "--lambda-hi", "1e4", "--points", "13", "--out", str(out)]
    )
    assert code == 0
    assert (out / "curves.csv").exists()


def test_crt_route_determinism_across_threads(tmp_path):
    # three replicas over two threads, each counting its own pencil in blocks
    argbase = ["crt-route", "--replicas", "3", "--seed", "19", "--steps", "8192", "--leaves", "400",
               "--lambda-lo", "0.5", "--lambda-hi", "1e5", "--points", "29"]
    run(argbase + ["--threads", "1", "--out", str(tmp_path / "t1")])
    run(argbase + ["--threads", "2", "--out", str(tmp_path / "t2")])
    names = sorted(p.name for p in (tmp_path / "t1").iterdir())
    assert names == ["config.json", "curves.csv", "fit.json"]
    assert names == sorted(p.name for p in (tmp_path / "t2").iterdir())
    for name in names:
        assert (tmp_path / "t1" / name).read_bytes() == (tmp_path / "t2" / name).read_bytes()


def test_budget_env_override(tmp_path, monkeypatch):
    monkeypatch.setenv("CRT_SPECTRA_BUDGET", "100")
    code = run(["spectrum", "--depth", "5", "--seed", "1", "--out", str(tmp_path / "s")])
    assert code == 3


def test_crt_route_budget(tmp_path, monkeypatch, capsys):
    # an excursion replica holds --steps grid values; the budget counts them over the replicas
    argv = ["crt-route", "--steps", "4096", "--leaves", "200", "--replicas", "1"]
    monkeypatch.setenv("CRT_SPECTRA_BUDGET", "100")
    assert run(argv + ["--out", str(tmp_path / "o")]) == 3
    assert capsys.readouterr().err.startswith("capacity error: 4096 steps x 1 replicas exceeds budget 100")
    assert not (tmp_path / "o").exists()
    monkeypatch.setenv("CRT_SPECTRA_BUDGET", "4096")
    assert run(argv + ["--out", str(tmp_path / "p")]) == 0


@pytest.mark.parametrize("command", ["ensemble --replicas 1", "spectrum"])
def test_grid_points_budget(tmp_path, monkeypatch, capsys, command):
    # a lambda grid holds --points values; more than the budget is a capacity
    # error before any grid is allocated, at the budget the run goes through
    argv = command.split() + ["--depth", "2", "--seed", "1"]
    monkeypatch.setenv("CRT_SPECTRA_BUDGET", "100")
    assert run(argv + ["--points", "101", "--out", str(tmp_path / "o")]) == 3
    assert capsys.readouterr().err == "capacity error: 101 lambda points exceed budget 100\n"
    assert not (tmp_path / "o").exists()
    assert run(argv + ["--points", "100", "--out", str(tmp_path / "p")]) == 0


@pytest.mark.parametrize("raw", ["abc", "-5"])
def test_malformed_budget_is_a_capacity_error(tmp_path, monkeypatch, capsys, raw):
    monkeypatch.setenv("CRT_SPECTRA_BUDGET", raw)
    code = run(["ensemble", "--depth", "3", "--replicas", "1", "--out", str(tmp_path / "o")])
    assert code == 3
    err = capsys.readouterr().err
    assert err.startswith("capacity error: ") and "CRT_SPECTRA_BUDGET" in err and repr(raw) in err
    assert not (tmp_path / "o").exists()
