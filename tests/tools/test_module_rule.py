"""Every module has a caller that is not a test (DESIGN.md, "Every module
has a caller").

A module under ``src/repro`` stays while one of these imports it:
another ``src/repro`` module outside its own package ``__init__``, the
``repro.experiments`` registry, a script under ``tools/`` or a file
under ``benchmarks/``.  An import counts directly (``from
repro.gridftp.client import GridFTPClient``) or through a package
re-export (``from repro.gdmp import DataGrid`` reaches
``repro.gdmp.grid``).  A module only tests reach still costs its lines,
its tests and its place in every reader's map; it fails here by name.

``ALLOWLIST`` holds the modules an open ROADMAP item promises to wire,
each with that item.  An allowlisted module that has gained a caller
fails too, so the list only shrinks.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]
SRC = ROOT / "src" / "repro"
CALLERS = (SRC, ROOT / "tools", ROOT / "benchmarks")
#: the experiment registry: a package ``__init__`` whose imports of its
#: own package's modules are what makes them experiments
REGISTRY = SRC / "experiments" / "__init__.py"

#: module -> the ROADMAP item that promises it a caller
ALLOWLIST = {
    "repro.gdmp.consistency": "17(b): §2.2's policy expands a transfer set",
    "repro.objectdb.tags": "5(c): tag-driven object selection",
    "repro.workload.analysis": "5(c): tag-driven object selection",
}


def _name(path: Path) -> str:
    """The dotted module name of a file under ``src/``."""
    parts = path.relative_to(SRC.parent).with_suffix("").parts
    return ".".join(parts[:-1] if parts[-1] == "__init__" else parts)


def _modules() -> dict[str, Path]:
    """Every ``src/repro`` module a caller could import, by name; package
    ``__init__`` files and ``__main__`` entry points are not subjects."""
    return {
        _name(path): path for path in sorted(SRC.rglob("*.py"))
        if path.stem not in ("__init__", "__main__")
    }


def _imports(path: Path) -> list[tuple[str, str | None]]:
    """``(module, name)`` for every import in ``path``: ``name`` is the
    imported name of a ``from`` import, None for a plain ``import``."""
    found = []
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Import):
            found.extend((alias.name, None) for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            base = node.module or ""
            if node.level:  # relative: only ``src/repro`` spells these
                anchor = _name(path).split(".")
                if path.name != "__init__.py":
                    anchor.pop()
                anchor = anchor[:len(anchor) - node.level + 1]
                base = ".".join(anchor + ([base] if base else []))
            found.extend((base, alias.name) for alias in node.names)
    return found


def _reexports() -> dict[str, dict[str, str]]:
    """package -> {name: module it re-exports that name from}."""
    return {
        _name(path): {
            name: module for module, name in _imports(path) if name is not None
        }
        for path in sorted(SRC.rglob("__init__.py"))
    }


def _reached(module: str, name: str | None, modules, reexports) -> str | None:
    """The subject module one import reaches, if any: the submodule it
    names, the module it imports from, or the module a package
    re-exports the name from."""
    if name is not None and f"{module}.{name}" in modules:
        return f"{module}.{name}"
    if module in modules:
        return module
    origin = reexports.get(module, {}).get(name)
    return None if origin is None else _reached(origin, name, modules, reexports)


def _callers() -> dict[str, set[str]]:
    """module -> the files (relative to the repo) that import it."""
    modules = _modules()
    reexports = _reexports()
    callers: dict[str, set[str]] = {name: set() for name in modules}
    for root in CALLERS:
        for path in sorted(root.rglob("*.py")):
            own = (
                _name(path) if path.name == "__init__.py" and path != REGISTRY
                else None
            )
            for module, name in _imports(path):
                reached = _reached(module, name, modules, reexports)
                if reached is None or (
                    own is not None and reached.startswith(f"{own}.")
                ):
                    continue  # not ours, or a package re-exporting its own
                callers[reached].add(str(path.relative_to(ROOT)))
    return callers


def test_every_module_has_a_caller_that_is_not_a_test():
    callers = _callers()
    assert [
        module for module, files in sorted(callers.items())
        if not files and module not in ALLOWLIST
    ] == []


def test_an_allowlisted_module_has_no_caller_yet():
    callers = _callers()
    assert {
        module: sorted(callers[module]) for module in ALLOWLIST
        if module not in callers or callers[module]
    } == {}


def test_the_rule_sees_direct_and_reexported_imports():
    callers = _callers()
    assert "src/repro/gdmp/client.py" in callers["repro.gdmp.data_mover"]
    # ``from repro.gdmp import DataGrid`` reaches the module behind the name
    assert any(
        path.startswith("tools/") for path in callers["repro.gdmp.grid"]
    )
    assert "src/repro/experiments/__init__.py" in callers[
        "repro.experiments.figure5"
    ]
