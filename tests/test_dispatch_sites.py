"""The package never tests a model's family class.

Family decisions read the model's core (its kind, its grid base ell), so a
new family extends the core, not a chain of isinstance tests. The model-file
reader and writer read one table keyed by each class's `family` name.
"""

import ast
import pathlib
import typing

import mflil
from mflil.models import MeasureModel

PACKAGE = pathlib.Path(mflil.__file__).parent
FAMILIES = {cls.__name__ for cls in typing.get_args(MeasureModel)}
MAX_SITES = 0


def class_names(node: ast.expr) -> set[str]:
    """The class names an isinstance class argument holds: a name, a dotted
    name or a tuple of them."""
    if isinstance(node, ast.Tuple):
        return set().union(*map(class_names, node.elts))
    if isinstance(node, ast.Attribute):
        return {node.attr}
    if isinstance(node, ast.Name):
        return {node.id}
    return set()


def family_dispatch_lines(source: str) -> list[int]:
    """The line of each isinstance(_, C) call whose C names a model family."""
    return [
        node.lineno for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
        and node.func.id == "isinstance" and len(node.args) == 2
        and class_names(node.args[1]) & FAMILIES
    ]


def test_the_count_sees_every_form():
    source = (
        "isinstance(m, MarkovMeasure)\n"
        "isinstance(m, (int, models.SelfSimilarMeasure))\n"
        "isinstance(m, int)\n"
        "isinstance(m, BernoulliProduct) or isinstance(m, MultinomialMeasure)\n"
    )
    assert family_dispatch_lines(source) == [1, 2, 4, 4]


def test_family_dispatch_sites_stay_few():
    sites = [
        f"{path.relative_to(PACKAGE)}:{line}"
        for path in sorted(PACKAGE.rglob("*.py"))
        for line in family_dispatch_lines(path.read_text(encoding="utf-8"))
    ]
    assert len(sites) <= MAX_SITES, sites
