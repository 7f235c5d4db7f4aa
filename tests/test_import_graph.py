"""The frozen reference modules stay out of the production import graph.

``repro.nic.legacy``, ``repro.cache.legacy``, ``repro.analysis.legacy`` and
``repro.attack.legacy_analysis`` are the frozen scalar sides of the
differential tests and of ``repro bench``.  This scans every module under
``src/repro`` and checks that nothing else imports them.
"""

from __future__ import annotations

import ast
from pathlib import Path

import repro

FROZEN = {
    "repro.nic.legacy",
    "repro.cache.legacy",
    "repro.analysis.legacy",
    "repro.attack.legacy_analysis",
}

#: (importer, frozen module) pairs allowed besides ``repro.bench``: none.
ALLOWED: set[tuple[str, str]] = set()

PACKAGE = Path(repro.__file__).resolve().parent


def _module_name(path: Path) -> str:
    parts = path.relative_to(PACKAGE.parent).with_suffix("").parts
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


def frozen_imports() -> set[tuple[str, str]]:
    """``(importer, frozen module)`` for every import of a frozen module."""
    edges = set()
    for path in sorted(PACKAGE.rglob("*.py")):
        module = _module_name(path)
        for name in _imported(path, module):
            for frozen in FROZEN:
                if name == frozen or name.startswith(frozen + "."):
                    edges.add((module, frozen))
    return edges


def test_only_the_benchmark_imports_frozen_modules():
    stray = {
        (importer, frozen)
        for importer, frozen in frozen_imports()
        if importer != "repro.bench" and (importer, frozen) not in ALLOWED
    }
    assert not stray, f"production modules import frozen references: {sorted(stray)}"


def test_scan_sees_the_known_imports():
    """The scan finds the imports it is meant to police (so an empty
    result above is not a parsing blind spot)."""
    edges = frozen_imports()
    assert ("repro.bench", "repro.cache.legacy") in edges
    assert ("repro.bench", "repro.nic.legacy") in edges
    assert ALLOWED <= edges
