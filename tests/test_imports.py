"""Every name a module of the package imports is referenced in that module."""

import ast
import pathlib
import subprocess
import sys

import pytest

import mflil

PACKAGE = pathlib.Path(mflil.__file__).parent
# the package __init__ imports names only to re-export them
MODULES = sorted(p for p in PACKAGE.rglob("*.py") if p != PACKAGE / "__init__.py")


def unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"{name} (line {line})" for name, line in sorted(imported.items()) if name not in used]


def test_the_scan_sees_an_unused_import():
    assert unused_imports("import os\nimport math as m\nfrom a.b import c, d\nd(m.pi)\n") == [
        "c (line 3)", "os (line 1)",
    ]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: str(p.relative_to(PACKAGE)))
def test_no_unused_imports(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


def test_the_cli_import_leaves_scipy_stats_out():
    # scipy.stats is a large import chain that no module of the package needs; none may pull it in
    code = (
        f"import sys; sys.path.insert(0, {str(PACKAGE.parent)!r}); import mflil.cli; "
        "print(sorted(m for m in sys.modules if m.split('.')[:2] == ['scipy', 'stats']))"
    )
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "[]"


def test_product_commands_load_neither_scipy_nor_mpmath(tmp_path):
    # scipy's import chain was over half of a CLI start, and mpmath serves only `oracles`:
    # the import and the product commands run without either
    model = str(tmp_path / "bernoulli_quarter.json")
    commands = [
        ["zoo", "--out", str(tmp_path)],
        ["spectrum", "--model", model, "--out", str(tmp_path / "spectrum")],
        ["qb-check", "--model", model, "--out", str(tmp_path / "qb")],
        ["gauge-test", "--model", model, "--out", str(tmp_path / "gauge"),
         "--family", "lil_hausdorff", "--N", "20", "--checkpoints", "64,1024"],
    ]
    code = (
        f"import contextlib, io, sys; sys.path.insert(0, {str(PACKAGE.parent)!r}); import mflil.cli\n"
        "loaded = lambda: sorted(m for m in sys.modules if m.split('.')[0] in ('scipy', 'mpmath'))\n"
        "print(loaded())\n"
        f"for argv in {commands!r}:\n"
        "    with contextlib.redirect_stdout(io.StringIO()):\n"
        "        assert mflil.cli.main(argv) == 0, argv\n"
        "    print(loaded())\n"
    )
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True)
    assert out.stdout.split("\n") == ["[]"] * (1 + len(commands)) + [""]
