"""Every private module-level name of the package is referenced in the package.

A private function, class or constant that only its own definition mentions
is dead code left behind by a refactor.
"""

import ast
import pathlib

import mflil

PACKAGE = pathlib.Path(mflil.__file__).parent


def defined_names(stmt: ast.stmt) -> set[str]:
    """The names a module-level statement defines."""
    if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        return {stmt.name}
    if isinstance(stmt, ast.Assign):
        targets = stmt.targets
    elif isinstance(stmt, ast.AnnAssign):
        targets = [stmt.target]
    else:
        return set()
    return {node.id for target in targets for node in ast.walk(target) if isinstance(node, ast.Name)}


def referenced_names(stmt: ast.stmt) -> set[str]:
    """The names a statement reads: loaded names, attributes and imports."""
    used = set()
    for node in ast.walk(stmt):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            used.add(node.id)
        elif isinstance(node, ast.Attribute):
            used.add(node.attr)
        elif isinstance(node, ast.ImportFrom):
            used.update(alias.name for alias in node.names)
    return used


def dead_private_names(sources: dict[str, str]) -> list[str]:
    """module:name for each private module-level name that no statement other
    than its own definition references, in any of the modules."""
    defined, used = [], {}
    for module, source in sources.items():
        for stmt in ast.parse(source).body:
            own = {n for n in defined_names(stmt) if n.startswith("_") and not n.startswith("__")}
            defined += [(module, name) for name in own]
            for name in referenced_names(stmt):
                used.setdefault(name, []).append(own)
    return sorted(
        f"{module}:{name}" for module, name in defined
        if not any(name not in own for own in used.get(name, []))
    )


def test_the_scan_sees_a_dead_private_name():
    sources = {
        "a": "_LIVE = 1\n_DEAD = 2\n"
             "def _recursive(n):\n    return _recursive(n - 1)\n"
             "class _Used:\n    pass\n",
        "b": "from a import _LIVE\nimport a\n\ndef f():\n    return _LIVE, a._Used\n",
    }
    assert dead_private_names(sources) == ["a:_DEAD", "a:_recursive"]


def test_no_dead_private_names():
    sources = {str(p.relative_to(PACKAGE)): p.read_text(encoding="utf-8") for p in sorted(PACKAGE.rglob("*.py"))}
    assert dead_private_names(sources) == []
