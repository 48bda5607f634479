"""Every module-level name and class method of the package is referenced in the package.

A private function, class or constant that only its own definition mentions
is dead code left behind by a refactor. A public one is dead too unless
README.md names it: the package is what the CLI, the oracles and the quick
tour run, and a name that only its own tests call is surface without a user.
The methods of the package's classes are held to the same rule, through
the attributes that name them.
"""

import ast
import pathlib
import re
from collections import Counter

import mflil

PACKAGE = pathlib.Path(mflil.__file__).parent
README = PACKAGE.parents[1] / "README.md"


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


def dead_names(sources: dict[str, str], keep) -> list[str]:
    """module:name for each module-level name that `keep` selects and that no
    statement other than its own definition references, in any of the
    modules. The imports of the package ``__init__.py`` are re-exports, not uses."""
    defined, used = [], {}
    for module, source in sources.items():
        for stmt in ast.parse(source).body:
            own = {n for n in defined_names(stmt) if keep(n)}
            defined += [(module, name) for name in own]
            if module == "__init__.py" and isinstance(stmt, ast.ImportFrom):
                continue
            for name in referenced_names(stmt):
                used.setdefault(name, []).append(own)
    return sorted(
        f"{module}:{name}" for module, name in defined
        if not any(name not in own for own in used.get(name, []))
    )


def dead_methods(sources: dict[str, str], keep) -> list[str]:
    """module:Class.method for each method of a module-level class that `keep`
    selects and that no attribute outside its own definition names, in any of
    the modules. A method is reached through an attribute, so a variable of
    the same name does not keep it."""
    trees = {module: ast.parse(source) for module, source in sources.items()}

    def attributes(node) -> Counter:
        return Counter(n.attr for n in ast.walk(node) if isinstance(n, ast.Attribute))

    named = sum(map(attributes, trees.values()), Counter())
    return sorted(
        f"{module}:{cls.name}.{fn.name}"
        for module, tree in trees.items() for cls in tree.body if isinstance(cls, ast.ClassDef)
        for fn in cls.body if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef))
        if keep(fn.name) and named[fn.name] == attributes(fn)[fn.name]
    )


def dead_private_names(sources: dict[str, str]) -> list[str]:
    def keep(n):
        return n.startswith("_") and not n.startswith("__")
    return dead_names(sources, keep) + dead_methods(sources, keep)


def readme_names(text: str) -> set[str]:
    """The identifiers inside the code spans and code blocks of a markdown text."""
    blocks = re.findall(r"```.*?```", text, flags=re.S)
    spans = re.findall(r"`([^`]+)`", re.sub(r"```.*?```", "", text, flags=re.S))
    return set(re.findall(r"[A-Za-z_]\w*", " ".join(blocks + spans)))


def dead_public_names(sources: dict[str, str], readme: str) -> list[str]:
    named = readme_names(readme)

    def keep(n):
        return not n.startswith("_") and n not in named
    return dead_names(sources, keep) + dead_methods(sources, keep)


def package_sources() -> dict[str, str]:
    return {str(p.relative_to(PACKAGE)): p.read_text(encoding="utf-8") for p in sorted(PACKAGE.rglob("*.py"))}


def test_the_scan_sees_a_dead_private_name():
    sources = {
        "a": "_LIVE = 1\n_DEAD = 2\n"
             "def _recursive(n):\n    return _recursive(n - 1)\n"
             "class _Used:\n    pass\n",
        "b": "from a import _LIVE\nimport a\n\ndef f():\n    return _LIVE, a._Used\n",
    }
    assert dead_private_names(sources) == ["a:_DEAD", "a:_recursive"]


def test_the_scan_sees_a_dead_public_name():
    sources = {
        "a.py": "LIVE = 1\nDEAD = 2\nTOURED = 3\n"
                "def recursive(n):\n    return recursive(n - 1)\n"
                "class Used:\n    pass\n",
        "b.py": "from .a import LIVE\nfrom . import a\n\ndef f():\n    return LIVE, a.Used\n",
        "__init__.py": "from .a import DEAD, TOURED, recursive\nfrom .b import f\n",
    }
    readme = "Run `f(x)`, then:\n\n```python\nprint(TOURED)\n```\n\nDEAD is prose, not code.\n"
    assert dead_public_names(sources, readme) == ["a.py:DEAD", "a.py:recursive"]


def test_the_scan_sees_a_dead_method():
    sources = {
        "a.py": "class Word:\n"
                "    @property\n    def level(self):\n        return len(self.symbols)\n"
                "    def prefix(self, n):\n        return self.prefix(n - 1) if n > self.level else self\n"
                "    def _trim(self):\n        return self._trim()\n"
                "    def _keep(self):\n        return self\n"
                "    def __len__(self):\n        return 0\n",
        "b.py": "from .a import Word\n\ndef f(w, prefix, _trim):\n    return w.level, w._keep(), prefix, _trim\n",
    }
    assert dead_public_names(sources, "Call `f`.") == ["a.py:Word.prefix"]
    assert dead_private_names(sources) == ["a.py:Word._trim"]
    assert dead_public_names(sources, "Call `f`, or `prefix`.") == []


def test_no_dead_private_names():
    assert dead_private_names(package_sources()) == []


def test_no_dead_public_names():
    assert dead_public_names(package_sources(), README.read_text(encoding="utf-8")) == []
