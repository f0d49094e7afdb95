"""Import hygiene of the package: no unused top-level imports, and no
heavy module loaded by the command-line entry point."""

import ast
import os
import subprocess
import sys
from pathlib import Path

import rspde

PACKAGE = Path(rspde.__file__).parent

# (module, name) pairs imported only so that other code can reach them
# through the module: the benchmark's tracer patches
# rspde.solvers.solve_banded by name.
ALLOWED = {("solvers", "solve_banded")}


def unused_imports(source: str) -> list:
    """Names bound by the module's top-level imports that nothing reads."""
    tree = ast.parse(source)
    bound = []
    for node in tree.body:
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                bound.append(alias.asname or alias.name.split(".")[0])
    read = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    for node in tree.body:
        # names listed in __all__ are read by star imports
        if (isinstance(node, ast.Assign)
                and any(isinstance(t, ast.Name) and t.id == "__all__"
                        for t in node.targets)):
            read.update(ast.literal_eval(node.value))
    return [name for name in bound if name not in read]


def test_scan_finds_an_unused_import() -> None:
    source = ("from __future__ import annotations\n"
              "import math\nimport os.path\nfrom json import dumps, loads as ld\n"
              "def f():\n    return os.path.sep + ld('1')\n")
    assert unused_imports(source) == ["math", "dumps"]


def test_no_unused_top_level_imports() -> None:
    found = []
    for path in sorted(PACKAGE.glob("*.py")):
        for name in unused_imports(path.read_text(encoding="utf-8")):
            if (path.stem, name) not in ALLOWED:
                found.append(f"{path.name}: {name}")
    assert found == []


def test_cli_import_leaves_scipy_stats_unloaded() -> None:
    # scipy.stats costs about 0.8 s to import and only the Sobol draws of
    # unit_directions need it; a d = 2 polytope's boundedness audit
    # draws them, so it must still build.
    code = ("import sys\n"
            "import rspde.cli\n"
            "assert 'scipy.stats' not in sys.modules, 'scipy.stats loaded'\n"
            "from rspde.geometry import Polytope\n"
            "p = Polytope([[1, 0], [-1, 0], [0, 1], [0, -1]], [1, 1, 1, 1])\n"
            "assert abs(p.bounding_radius - 2 ** 0.5) < 1e-2, p.bounding_radius\n")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(PACKAGE.parent)] + [p for p in [env.get("PYTHONPATH")] if p])
    proc = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr


def test_benchmark_tracer_finds_every_name(monkeypatch) -> None:
    # The benchmark's tracer (bench/tracing.py) patches package names such
    # as ObliqueField.grid_values, rspde.solvers.solve_banded and
    # solvers.state_gap; installing it fails when one has gone.
    monkeypatch.syspath_prepend(str(PACKAGE.parent.parent / "bench"))
    monkeypatch.delitem(sys.modules, "tracing", raising=False)
    import tracing

    for recorder in (tracing.StepCounter(), tracing.Tracer()):
        try:
            recorder.install()
        finally:
            recorder.uninstall()
