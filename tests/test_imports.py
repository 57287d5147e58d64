"""Every name a package module imports is used in that module.

The package's ``__init__`` re-exports are exempt, and so are the names the
benchmark's tracer wraps by (module, attribute): a module imports those so
that the tracer finds them in its namespace.
"""

import ast
import importlib
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "memsched"
BENCH = Path(__file__).resolve().parents[1] / "bench"
MODULES = sorted(p for p in PACKAGE.rglob("*.py") if p != PACKAGE / "__init__.py")


def imported_names(tree: ast.Module) -> dict[str, int]:
    """Bound name -> line of its import, ``from __future__`` excluded."""
    names = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                names[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                names[alias.asname or alias.name] = node.lineno
    return names


def used_names(tree: ast.Module) -> set[str]:
    return {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.relative_to(PACKAGE).as_posix())
def test_every_import_is_used(path, monkeypatch):
    monkeypatch.syspath_prepend(str(BENCH))
    wrapped = importlib.import_module("tracing").WRAPPED
    module = ".".join(path.relative_to(PACKAGE).with_suffix("").parts)
    tree = ast.parse(path.read_text(encoding="utf-8"))
    unused = [
        f"{name} (line {line})"
        for name, line in imported_names(tree).items()
        if name not in used_names(tree) and (module, name) not in wrapped
    ]
    assert not unused, f"memsched.{module} imports names it never uses: {', '.join(unused)}"
