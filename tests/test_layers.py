"""The import graph of src/ionpair, read with ast and pinned.

The click route (trajectory, streams, correlator) must not reach the
master equation, so that the checks of the sampler against dynamics
compare two independent routes.  Every import counts, also the ones
inside functions.
"""

import ast
import os
import subprocess
import sys
from pathlib import Path
from typing import NamedTuple

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "ionpair"
PACKAGE = "ionpair"
ANY = None      # cli and __init__ wire every layer together

# module -> the package modules it may import
LAYERS = {
    "params": set(),
    "atom": {"params"},
    "_csvcodec": set(),
    "dynamics": {"atom", "params"},
    "trajectory": {"atom", "params"},
    "correlator": {"trajectory"},
    "streams": {"atom", "trajectory", "_csvcodec"},
    "correlations": {"atom", "dynamics", "params", "_csvcodec"},
    "fitting": {"correlations", "dynamics", "params"},
    "cli": ANY,
    "__init__": ANY,
}
CLICK_ROUTE = ("trajectory", "streams", "correlator")
MASTER_EQUATION = {"dynamics", "correlations", "fitting"}
# the only scopes that import scipy: functions, never a module, so no
# import of the package loads scipy
SCIPY_USERS = {"fitting._minimize", "fitting._solve_affine"}


class Import(NamedTuple):
    scope: str          # module, or module.function for a local import
    target: str         # package module, or a top-level external module
    internal: bool      # target is a module of this package
    names: tuple        # names taken from the target


def _target(module: str, level: int) -> tuple[str, bool]:
    if level:
        return module, True
    head, _, rest = module.partition(".")
    return (rest, True) if head == PACKAGE else (head, False)


def read_imports(name: str) -> list[Import]:
    tree = ast.parse((SRC / f"{name}.py").read_text(encoding="utf-8"))
    found = []

    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef,
                                  ast.ClassDef)):
                visit(child, f"{scope}.{child.name}")
                continue
            if isinstance(child, ast.Import):
                found.extend(Import(scope, *_target(a.name, 0), ())
                             for a in child.names)
            elif isinstance(child, ast.ImportFrom):
                names = tuple(a.name for a in child.names)
                if child.module is None or child.module == PACKAGE:
                    # from . import atom: each name is a package module
                    found.extend(Import(scope, n, True, ()) for n in names)
                else:
                    found.append(Import(
                        scope, *_target(child.module, child.level), names))
            visit(child, scope)

    visit(tree, name)
    return found


MODULES = sorted(p.stem for p in SRC.glob("*.py"))
IMPORTS = {name: read_imports(name) for name in MODULES}


def test_every_module_has_a_layer():
    assert set(MODULES) == set(LAYERS)


def test_reader_sees_function_level_imports():
    assert Import("fitting._minimize", "scipy", False, ()) \
        in IMPORTS["fitting"]


@pytest.mark.parametrize(
    "name", [m for m in MODULES if LAYERS.get(m, ANY) is not ANY])
def test_imports_follow_the_layers(name):
    used = {i.target for i in IMPORTS[name] if i.internal}
    assert used <= LAYERS[name], sorted(used - LAYERS[name])


def test_click_route_never_reaches_the_master_equation():
    for start in CLICK_ROUTE:
        seen, todo = set(), [start]
        while todo:
            for i in IMPORTS[todo.pop()]:
                if i.internal and i.target not in seen:
                    seen.add(i.target)
                    todo.append(i.target)
        assert not seen & MASTER_EQUATION, (start, sorted(seen))


def test_private_names_come_only_from_params():
    for name in MODULES:
        for i in IMPORTS[name]:
            private = [n for n in i.names if n.startswith("_")]
            assert not private or (i.internal and i.target == "params"), \
                (i.scope, i.target, private)


def test_scipy_only_where_declared():
    users = {i.scope for imports in IMPORTS.values() for i in imports
             if not i.internal and i.target == "scipy"}
    assert users == SCIPY_USERS, sorted(users ^ SCIPY_USERS)


def test_external_imports_are_stdlib_numpy_or_scipy():
    allowed = set(sys.stdlib_module_names) | {"numpy", "scipy"}
    for name in MODULES:
        for i in IMPORTS[name]:
            assert i.internal or i.target in allowed, (i.scope, i.target)
    # the shared codec and the base layer stand on no third party but numpy
    for name in ("params", "_csvcodec"):
        assert {i.target for i in IMPORTS[name]} - set(
            sys.stdlib_module_names) <= {"numpy"}, name


# Run in a fresh interpreter: the test process has scipy loaded already.
NO_SCIPY_UNTIL_A_FIT = """
import sys
scipy_loaded = lambda: sorted(m for m in sys.modules
                              if m == "scipy" or m.startswith("scipy."))
import ionpair.cli
assert scipy_loaded() == [], scipy_loaded()
import ionpair
assert scipy_loaded() == [], scipy_loaded()
names = ("DataSet", "FitResult", "fit_g2_joint", "fit_spectrum")
assert set(names) <= set(dir(ionpair)), sorted(set(names) - set(dir(ionpair)))
for name in names:
    assert getattr(ionpair, name) is getattr(ionpair.fitting, name), name
assert scipy_loaded() == [], scipy_loaded()
assert ionpair.cli.main(["spectrum", "--params", "spectrum", "--points",
                         "101", "--dips"]) == 0
assert scipy_loaded() == [], scipy_loaded()
truth = ionpair.get_preset("weak")
curve = ionpair.g2_total(truth, ionpair.default_grid(40e-9, 2e-9))
ionpair.fit_g2_joint(ionpair.DataSet("total", curve.tau, curve.values),
                     truth, free=("omega_397",), restarts=1, maxfev=3)
assert "scipy.optimize" in sys.modules
from ionpair import *
assert fit_g2_joint is ionpair.fitting.fit_g2_joint
assert sorted(name for name in ionpair.__all__
              if name not in globals()) == []
"""


def test_no_scipy_until_a_fitting_name_is_used():
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(SRC.parent), os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, "-c", NO_SCIPY_UNTIL_A_FIT],
                          capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stderr
