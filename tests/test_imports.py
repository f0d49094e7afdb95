"""Import hygiene of the package: no unused top-level imports, no
top-level function or class that nothing in the package reads, and no
heavy module loaded by the command-line entry point."""

import ast
import json
import os
import subprocess
import sys
from pathlib import Path

import rspde

PACKAGE = Path(rspde.__file__).parent

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
    found = [f"{path.name}: {name}" for path in sorted(PACKAGE.glob("*.py"))
             for name in unused_imports(path.read_text(encoding="utf-8"))]
    assert found == []


# (module, name) of top-level functions and classes, and (module,
# "Class.method") of methods, that no module of the package reads, each
# kept for the reason given.
UNREAD_ALLOWED = {
    ("solvers", "__getattr__"):
        "imports scipy.linalg.solve_banded when rspde.solvers.solve_banded is "
        "read, for the benchmark's tracer (bench/tracing.py), which patches "
        "that name; it goes when the program reports its own phase times",
    ("coefficients", "audit_lipschitz"):
        "samples a coefficient pair's Lipschitz ratio against the declared "
        "constant; the coefficient tests audit the registry with it",
    ("fields", "Field.zeros"):
        "zero initial field of the solver, acceptance and weak-form tests",
    ("fields", "v_norm"): "per-field oracle of the series tests",
    ("fields", "h2_norm"): "per-field oracle of the series tests",
    ("fields", "l1_norm"): "per-field oracle of the series tests",
    ("fields", "linf_norm"): "per-field oracle of the series tests",
    ("geometry", "interior_points"):
        "interior sampler of the geometry and acceptance tests",
    ("geometry", "ObliqueField.grid_values"):
        "the benchmark's tracer (bench/tracing.py) patches it by name; it "
        "goes when the program reports its own counts and phase times",
    ("ldp", "EventSpec.shortfall"):
        "the benchmark's tracer (bench/tracing.py) patches it by name, and "
        "the event tests read it; the rate minimiser reads the signed margin",
    ("trajectory", "Trajectory.load"):
        "reads a saved trajectory back; the benchmark's sweep check "
        "(bench/workloads.py) and the diagnostics tests call it",
    ("weakform", "weak_form_residual"):
        "weak-form check of solver output, run by the tests; not yet part "
        "of report.json",
    ("weakform", "variational_inequality_check"):
        "variational-inequality check of solver output, run by the tests; "
        "not yet part of report.json",
}


def _outside_modules(tree) -> set:
    """Names bound by the module's absolute imports (``import numpy as
    np``, ``from scipy import linalg``): attributes read through them are
    not the package's."""
    bound = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import) or (isinstance(node, ast.ImportFrom)
                                            and node.level == 0):
            bound.update(alias.asname or alias.name.split(".")[0]
                         for alias in node.names)
    return bound


def _root_name(node):
    """The name an attribute chain such as ``np.linalg.norm`` starts from,
    or None when it starts from another expression."""
    while isinstance(node, ast.Attribute):
        node = node.value
    return node.id if isinstance(node, ast.Name) else None


def unread_definitions(sources: dict) -> list:
    """(module, name) of each top-level function or class in ``sources``
    (module name -> source), and (module, "Class.method") of each method
    of a top-level class, whose name no module reads, as a name or as an
    attribute.  An attribute read through an outside module (``np.zeros``)
    does not count.  Dunder methods are called by the language and are
    not listed."""
    trees = {module: ast.parse(source) for module, source in sources.items()}
    read = set()
    for tree in trees.values():
        outside = _outside_modules(tree)
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                read.add(node.id)
            elif isinstance(node, ast.Attribute) and _root_name(node) not in outside:
                read.add(node.attr)
    found = []
    for module, tree in trees.items():
        for node in tree.body:
            if not isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                continue
            if node.name not in read:
                found.append((module, node.name))
            if isinstance(node, ast.ClassDef):
                found += [(module, f"{node.name}.{item.name}")
                          for item in node.body
                          if isinstance(item, ast.FunctionDef)
                          and not item.name.startswith("__")
                          and item.name not in read]
    return found


def test_scan_finds_an_unread_definition() -> None:
    # Used.zeros is read only as numpy's np.zeros, which does not count
    sources = {"a": "def used():\n    pass\nclass Unused:\n    pass\n"
                    "def unused(x):\n    return x.used\n"
                    "class Used:\n    def __init__(self):\n        pass\n"
                    "    def called(self):\n        pass\n"
                    "    def dead(self):\n        return self.called()\n"
                    "    def zeros(self):\n        pass\n",
               "b": "import numpy as np\nfrom .a import unused\n"
                    "def main():\n    return a.Used(), np.zeros(3)\n"
                    "main()\n"}
    assert unread_definitions(sources) == [("a", "Unused"), ("a", "unused"),
                                           ("a", "Used.dead"), ("a", "Used.zeros")]


def test_every_top_level_definition_is_read() -> None:
    sources = {path.stem: path.read_text(encoding="utf-8")
               for path in sorted(PACKAGE.glob("*.py"))}
    assert sorted(set(unread_definitions(sources)) - set(UNREAD_ALLOWED)) == []
    # an entry whose name is read again, or gone, leaves the list
    assert set(UNREAD_ALLOWED) <= set(unread_definitions(sources))


# small inline configs: mc and rate on the free interval, and a penalty
# sweep on ball-box in d = 2 with rotated gamma
_FREE = {
    "domain": {"kind": "ball", "center": [0.0], "radius": 100.0},
    "gamma": {"rule": "normal"},
    "coefficients": {"d": 1, "m": 1, "b": {"name": "zero"},
                     "sigma": {"name": "constant", "matrix": [[1.0]]}},
    "u0": {"kind": "zero"},
    "grid": {"J": 15, "dt": 2e-3, "T": 0.05},
    "penalty": {"n_event": 64.0},
    "replicas": {"base_seed": 3, "count": 10},
    "epsilons": [0.5],
    "event": {"kind": "terminal_ball", "radius": 0.05, "complement": True},
    "rate": {"K": 2, "max_iters": 5},
}
_SWEEP = {
    "domain": {"kind": "intersection", "members": [
        {"kind": "ball", "center": [0.0, 0.0], "radius": 0.5},
        {"kind": "box", "lower": [-0.4, -0.45], "upper": [0.45, 0.4]}]},
    "gamma": {"rule": "rotated_normal", "angle": 0.2},
    "coefficients": {"d": 2, "m": 2,
                     "b": {"name": "constant", "value": [4.0, 3.0]},
                     "sigma": {"name": "zero"}},
    "u0": {"kind": "zero"},
    "grid": {"J": 15, "dt": 2e-3, "T": 0.05},
    "penalty": {"sweep": {"n_start": 16.0, "factor": 4.0, "n_max": 64.0,
                          "tol_cauchy": 0.0}},
    "replicas": {"base_seed": 3, "count": 1},
}


def test_cli_and_its_commands_leave_scipy_stats_and_linalg_unloaded(
        tmp_path) -> None:
    # scipy.stats costs about 0.8 s to import and only the Sobol draws of
    # unit_directions need it; a d = 2 polytope's boundedness audit
    # draws them, so it must still build.  scipy.linalg costs about 0.25 s
    # and no command needs it: the step loop multiplies by the heat
    # operator's inverse from numpy.linalg.  The process pool, with
    # multiprocessing, is imported only by a run that starts one.
    runs = []
    for sub, raw in (("mc", _FREE), ("rate", _FREE), ("penalty-sweep", _SWEEP)):
        path = tmp_path / f"{sub}.json"
        path.write_text(json.dumps(raw), encoding="utf-8")
        runs.append([sub, "--config", str(path), "--out",
                     str(tmp_path / sub), "--workers", "1", "--quiet"])
    code = ("import sys\n"
            "def unloaded(*names):\n"
            "    for name in names:\n"
            "        assert name not in sys.modules, name + ' loaded'\n"
            "import rspde.cli\n"
            "unloaded('scipy.stats', 'scipy.linalg', "
            "'concurrent.futures.process')\n"
            f"for argv in {runs!r}:\n"
            "    assert rspde.cli.main(argv) == 0, argv\n"
            "    unloaded('scipy.stats', 'scipy.linalg')\n"
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
