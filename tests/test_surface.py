"""Every public name of the package is reached from a command path.

Each public top-level function and class of ``src/sldstab``, and each
public method of a public class, must be referenced as a name, an
attribute or an import from ``src/``, ``demos/`` or ``scripts/``.  A name
that only the tests reach belongs with the tests (``tests/modeltools.py``,
``tests/polytools.py``).  The names that ``perfbench/instrument.py`` wraps
by its ``SPANS`` are exempt while the benchmark wraps them.  The check
reads the source with :mod:`ast`, so a word in a comment or docstring is
not a reference.

A second check is a ratchet on ``scipy``: only the modules of
``SCIPY_MODULES`` may import it at module level, and that set is empty.
``scipy.linalg`` is imported where its ``expm``, ordered ``schur`` and
pivoted ``qr`` are called, so ``import sldstab.cli`` (every command's
start, ``slds check`` whole) loads no ``scipy`` module.
"""

import ast
import importlib.util
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "sldstab"
INSTRUMENT = ROOT / "perfbench" / "instrument.py"
REACHING = ("src", "demos", "scripts")

# the modules that may import scipy at module level
SCIPY_MODULES: set[str] = set()

# module -> why none of its names is checked
EXEMPT_MODULES = {
    "qdf": "ROADMAP item 6: `perfbench/instrument.py` imports it",
}


@pytest.fixture(scope="module")
def instrument():
    spec = importlib.util.spec_from_file_location("perfbench_instrument", INSTRUMENT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _public_names():
    """``(module, qualified name)`` of each public top-level function and
    class and of each public method of a public class."""
    defs = (ast.FunctionDef, ast.AsyncFunctionDef)
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.parse(path.read_text()).body:
            if not isinstance(node, defs + (ast.ClassDef,)) or node.name.startswith("_"):
                continue
            yield path.stem, node.name
            if isinstance(node, ast.ClassDef):
                for item in node.body:
                    if isinstance(item, defs) and not item.name.startswith("_"):
                        yield path.stem, f"{node.name}.{item.name}"


def _referenced() -> set[str]:
    """Every name, attribute and imported name in the reaching trees."""
    names = set()
    for top in REACHING:
        for path in sorted((ROOT / top).rglob("*.py")):
            for node in ast.walk(ast.parse(path.read_text())):
                if isinstance(node, ast.Name):
                    names.add(node.id)
                elif isinstance(node, ast.Attribute):
                    names.add(node.attr)
                elif isinstance(node, ast.alias):
                    names.add(node.name.rsplit(".", 1)[-1])
    return names


def test_every_public_name_is_reached(instrument):
    pinned = {
        (module.__name__.rsplit(".", 1)[-1], qualname)
        for module, qualname in instrument.SPANS
    }
    referenced = _referenced()
    unreached = [
        f"{module}.{qualname}"
        for module, qualname in _public_names()
        if module not in EXEMPT_MODULES
        and (module, qualname) not in pinned
        and qualname.rsplit(".", 1)[-1] not in referenced
    ]
    assert unreached == []


def test_exempt_modules_exist():
    for module in EXEMPT_MODULES:
        assert (PACKAGE / f"{module}.py").is_file(), module


def test_scipy_imported_only_where_it_was():
    importing = set()
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.parse(path.read_text()).body:
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            if any(name.split(".")[0] == "scipy" for name in names):
                importing.add(path.stem)
    assert importing <= SCIPY_MODULES, sorted(importing - SCIPY_MODULES)


def test_cli_import_loads_no_scipy():
    # in a fresh process: this one has scipy loaded by the tests
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + [p for p in [env.get("PYTHONPATH")] if p]
    )
    code = (
        "import sys, sldstab.cli; "
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code], cwd=ROOT, env=env, capture_output=True, text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr[-2000:]
    assert proc.stdout.strip() == "[]"
