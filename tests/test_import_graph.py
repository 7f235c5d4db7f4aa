"""The frozen references stay out of the installed package.

The frozen scalar sides of the differential tests and the hot-path bench
live in the top-level ``reference`` package, which setuptools does not
install.  This scans every module under ``src/repro`` and ``reference/``
and checks that only the bench imports the frozen modules, that nothing
under ``src/repro`` imports ``reference`` at all, and that no frozen
module is left in the package.
"""

from __future__ import annotations

import ast
from pathlib import Path

import repro

PACKAGE = Path(repro.__file__).resolve().parent
REFERENCE = PACKAGE.parent.parent / "reference"

#: Paths under ``src/repro`` that must hold no frozen module.
MOVED = (
    "bench.py",
    "cache/legacy.py",
    "nic/legacy.py",
    "analysis/legacy.py",
    "attack/legacy_analysis.py",
)


def _module_name(path: Path, root: Path) -> str:
    parts = path.relative_to(root.parent).with_suffix("").parts
    return ".".join(parts[:-1] if parts[-1] == "__init__" else parts)


def _imported(path: Path, module: str) -> set[str]:
    """Every module name ``path`` imports, including ``from pkg import mod``
    forms and relative imports resolved against ``module``."""
    package = module if path.name == "__init__.py" else module.rpartition(".")[0]
    names: set[str] = set()
    for node in ast.walk(ast.parse(path.read_text(), str(path))):
        if isinstance(node, ast.Import):
            names.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            base = node.module or ""
            if node.level:
                parts = package.split(".")
                anchor = ".".join(parts[: len(parts) - node.level + 1])
                base = f"{anchor}.{base}" if base else anchor
            names.add(base)
            names.update(f"{base}.{alias.name}" for alias in node.names)
    return names


def reference_imports(root: Path) -> set[tuple[str, str]]:
    """``(importer, imported)`` for every import of ``reference`` or one of
    its modules by a module under ``root``."""
    edges = set()
    for path in sorted(root.rglob("*.py")):
        module = _module_name(path, root)
        for name in _imported(path, module):
            if name == "reference" or name.startswith("reference."):
                edges.add((module, name))
    return edges


def test_only_the_benchmark_imports_frozen_modules():
    stray = reference_imports(PACKAGE)
    assert not stray, f"production modules import frozen references: {sorted(stray)}"
    importers = {importer for importer, _ in reference_imports(REFERENCE)}
    assert importers == {"reference.bench"}


def test_no_frozen_module_is_left_in_the_package():
    left = [name for name in MOVED if (PACKAGE / name).exists()]
    assert not left, f"frozen modules still under src/repro: {left}"


def test_scan_sees_the_known_imports():
    """The scan finds the imports it is meant to police (so an empty
    result above is not a parsing blind spot)."""
    edges = reference_imports(REFERENCE)
    assert ("reference.bench", "reference.cache") in edges
    assert ("reference.bench", "reference.nic") in edges
    assert ("reference.bench", "reference.attack_analysis") in edges
