"""Cold start: numpy and mpmath are imported on first use, not with the package."""

import ast
import json
import subprocess
import sys
import types
from pathlib import Path

import pytest

from sumset_ramsey import _deps, coloring, dynamics, poly, search

SRC = Path(poly.__file__).resolve().parent

# run CLI commands in a fresh process, then report which heavy modules loaded;
# "numpy" itself is in sys.modules from the package import, as a lazy module
PROBE = """
import io, json, sys, types
from sumset_ramsey import cli, coloring, poly
codes = [cli.run(argv.split(), io.StringIO(), io.StringIO()) for argv in sys.argv[1:]]
plain = lambda m: type(m) is types.ModuleType and m is sys.modules[m.__name__]
json.dump({
    "codes": codes,
    "numpy": "numpy._core" in sys.modules,
    "mpmath": "mpmath.ctx_mp" in sys.modules,
    "plain": [plain(poly.np), plain(coloring.mpmath)],
}, sys.stdout)
"""

WITNESS = "witness --variant stepI --a 1 --b 2 --r 2 --s 1 --t 1 --d 10,20 --check"


@pytest.mark.parametrize(
    "argv,numpy,mpmath",
    [
        ("ap --set 1,2,3,5,7,9", False, False),
        (WITNESS, False, False),
        ("color --coloring power2:1,2 --N 100", True, False),
        ("color --coloring recursive:P=n^2,Q=n^3,a0=15,window=5000 --N 1000", True, True),
    ],
)
def test_cli_loads_numpy_and_mpmath_only_when_used(argv, numpy, mpmath):
    proc = subprocess.run([sys.executable, "-c", PROBE, argv], capture_output=True, text=True, check=True)
    got = json.loads(proc.stdout)
    assert got["codes"] == [0]
    assert (got["numpy"], got["mpmath"]) == (numpy, mpmath)
    # once used, the lazy module is the module itself
    assert got["plain"] == [numpy, mpmath]


def test_bound_names_are_the_modules_after_first_use():
    poly.int_array([1, 2])
    poly.psi_eval(poly.parse_poly("n^2"), poly.parse_poly("n^3"), 10)
    for mod in (poly, coloring, search, dynamics):
        assert mod.np is sys.modules["numpy"] and type(mod.np) is types.ModuleType
    for mod in (poly, coloring, search):
        assert mod.mpmath is sys.modules["mpmath"] and type(mod.mpmath) is types.ModuleType


def test_missing_dependency_fails_at_import():
    with pytest.raises(ModuleNotFoundError, match="no_such_dependency"):
        _deps._lazy("no_such_dependency")
    assert "no_such_dependency" not in sys.modules


def test_only_deps_imports_numpy_and_mpmath():
    # an import anywhere else would bring their cost back to every command
    for path in sorted(SRC.glob("*.py")):
        if path.name == "_deps.py":
            continue
        tree = ast.parse(path.read_text(), filename=str(path))
        names = [
            (node.lineno, name)
            for node in ast.walk(tree)
            for name in (
                [a.name for a in node.names] if isinstance(node, ast.Import)
                else [node.module or ""] if isinstance(node, ast.ImportFrom) and not node.level
                else []
            )
            if name.split(".")[0] in ("numpy", "mpmath")
        ]
        assert not names, f"{path.name} imports {names}"
