"""The package's code lines stay at or below a ceiling.

A code line is a line of a module of the package, subpackages included,
that is not blank, not a comment and not part of a docstring (the first string
statement of a module, class or function). The same behaviour from less
code is a design aim; this counter is the one its progress is measured by.
"""

import ast
import pathlib

import mflil

PACKAGE = pathlib.Path(mflil.__file__).parent
MAX_CODE_LINES = 2203


def docstring_lines(tree: ast.Module) -> set[int]:
    """The line numbers spanned by the docstrings of a parsed module."""
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            first = node.body[0] if node.body else None
            if (isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def code_lines(source: str) -> int:
    """Lines of source outside docstrings, comments and blank lines."""
    skip = docstring_lines(ast.parse(source))
    return sum(
        1 for i, line in enumerate(source.splitlines(), 1)
        if line.strip() and not line.strip().startswith("#") and i not in skip
    )


def package_code_lines() -> dict[str, int]:
    """Code lines of each module of the package, by path within the package."""
    return {
        str(p.relative_to(PACKAGE)): code_lines(p.read_text(encoding="utf-8"))
        for p in sorted(PACKAGE.rglob("*.py"))
    }


def test_the_counter_skips_docstrings_comments_and_blank_lines():
    source = (
        '"""Module\n'
        'docstring."""\n'
        "\n"
        "# a comment\n"
        "X = 1  # counted\n"
        "\n"
        "def f(a):\n"
        '    """One line."""\n'
        "    s = '''not a docstring\n"
        "    but code'''\n"
        "    return a\n"
        "\n"
        "class C:\n"
        '    """Class\n'
        '    docstring."""\n'
        "\n"
        "    y = 2\n"
    )
    assert code_lines(source) == 7


def test_code_lines_stay_under_the_ceiling():
    counts = package_code_lines()
    assert sum(counts.values()) <= MAX_CODE_LINES, counts
