"""Every function and method in the package is reached by a command.

The commands below cover each subcommand and flag at small sizes:
bracketing, worker threads, the debug cascade, the floor's fallback
bracket, and the renewal and excursion routes. A definition none of them
calls belongs in a test module. The package also imports nothing but
numpy, the standard library and itself, and no command calls LAPACK.
"""

import ast
import sys
import threading
from pathlib import Path

from crt_spectra import cli, dendrite

SRC = Path(cli.__file__).resolve().parent

# what the runtime may import besides the package itself
RUNTIME = sys.stdlib_module_names | {"numpy"}

# perfbench/layers.py probes these; the commands reach neither
PROBE_ONLY = {("spectrum.py", "block_counts"), ("spectrum.py", "count_below")}


def commands(tmp: Path) -> list[list[str]]:
    ens = ["--lambda-lo", "0.5", "--lambda-hi", "1e5", "--points", "17"]
    return [
        ["spectrum", "--depth", "2", "--seed", "1", "--points", "9", "--check-bracketing",
         "--out", str(tmp / "spec")],
        # two worker threads
        ["ensemble", "--replicas", "2", "--depth", "3", "--seed", "0", "--threads", "2", *ens,
         "--out", str(tmp / "ens")],
        # the uniform cascade resolves a fit window from depth 4 on
        ["ensemble", "--replicas", "1", "--depth", "4", "--debug-cascade", "--require-fit", *ens,
         "--out", str(tmp / "dbg")],
        ["renewal", "--replicas", "2", "--depth", "3", "--seed", "0", *ens, "--out", str(tmp / "ren")],
        # a grid wholly above the Dirichlet floor: the floor brackets itself analytically
        ["ensemble", "--replicas", "1", "--depth", "3", "--seed", "0", "--lambda-lo", "1e4", "--out", str(tmp / "fb")],
        ["crt-route", "--replicas", "2", "--steps", "512", "--leaves", "20", "--seed", "0", "--threads", "2",
         *ens, "--out", str(tmp / "crt")],
    ]


def definitions() -> dict[tuple[Path, int], str]:
    """(file, first line of the code object) -> qualified name, for every def in the package."""
    out = {}
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text())
        scopes = [(tree, "")]
        while scopes:
            node, prefix = scopes.pop()
            for child in ast.iter_child_nodes(node):
                if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                    name = prefix + child.name
                    if not isinstance(child, ast.ClassDef):
                        # a decorated function's code object starts at its first decorator
                        first = min([child.lineno] + [d.lineno for d in child.decorator_list])
                        out[(path, first)] = name
                    scopes.append((child, name + "."))
    return out


def test_every_definition_is_reached_by_a_command(tmp_path):
    defs = definitions()
    called = set()

    def profile(frame, event, arg):
        if event == "call":
            called.add(frame.f_code)

    dendrite.structure.cache_clear()  # schedules cached by earlier tests would hide their builders
    sys.setprofile(profile)
    threading.setprofile(profile)
    try:
        codes = [cli.main(argv) for argv in commands(tmp_path)]
    finally:
        sys.setprofile(None)
        threading.setprofile(None)
    assert codes == [0] * len(codes)
    reached = {(Path(code.co_filename).resolve(), code.co_firstlineno) for code in called}
    missed = sorted(
        f"{path.name}:{line} {name}"
        for (path, line), name in defs.items()
        if (path, line) not in reached and (path.name, name) not in PROBE_ONLY
    )
    assert not missed, "defined in src/ but reached by no command:\n" + "\n".join(missed)


def test_package_imports_numpy_and_the_standard_library_only():
    # every import in a module, not only those at its top: scipy, mpmath and numba are for the tests
    foreign, lapack = [], []
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                modules = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:  # a relative import is the package itself
                modules = [f"{node.module}.{alias.name}" for alias in node.names]
            else:
                modules = []
            foreign += [f"{path.name}:{node.lineno} {m}" for m in modules if m.split(".")[0] not in RUNTIME]
            names = [node.attr] if isinstance(node, ast.Attribute) else modules
            lapack += [f"{path.name}:{node.lineno} {n}" for n in names if "linalg" in n.split(".")]
    assert not foreign, "the runtime needs numpy and the standard library only:\n" + "\n".join(foreign)
    assert not lapack, "no command calls LAPACK:\n" + "\n".join(lapack)
