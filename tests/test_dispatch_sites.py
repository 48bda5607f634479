"""The package never tests a model's family class, and seldom a gauge family's name.

Family decisions read the model's core (its kind, its grid base ell), so a
new family extends the core, not a chain of isinstance tests. The model-file
reader and writer read one table keyed by each class's `family` name. Gauge
families are rows of one table in `gauges.py` (the fields each reads and its
correction to t^d); the comparisons of a family with a gauge-family name
that remain are the ranges of `a` for the sqrt and theta families and the
Hausdorff/packing sign.
"""

import ast
import pathlib
import typing

import mflil
from mflil.gauges import _FAMILIES as _GAUGE_FAMILIES
from mflil.models import MeasureModel

PACKAGE = pathlib.Path(mflil.__file__).parent
FAMILIES = {cls.__name__ for cls in typing.get_args(MeasureModel)}
MAX_SITES = 0
GAUGE_FAMILIES = set(_GAUGE_FAMILIES)
MAX_GAUGE_FAMILY_COMPARISONS = 3


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


def string_literals(node: ast.expr) -> set[str]:
    """The strings a comparison operand spells out: a literal or a tuple,
    list or set of them."""
    if isinstance(node, (ast.Tuple, ast.List, ast.Set)):
        return set().union(*map(string_literals, node.elts))
    if isinstance(node, ast.Constant) and isinstance(node.value, str):
        return {node.value}
    return set()


def names_a_family(node: ast.expr) -> bool:
    return (isinstance(node, ast.Name) and node.id == "family") or (
        isinstance(node, ast.Attribute) and node.attr == "family")


def gauge_family_comparison_lines(source: str) -> list[int]:
    """The line of each comparison between `family` or `x.family` and
    gauge-family names written as string literals."""
    return [
        node.lineno for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.Compare)
        and any(map(names_a_family, [node.left, *node.comparators]))
        and any(string_literals(op) & GAUGE_FAMILIES for op in [node.left, *node.comparators])
    ]


def test_the_gauge_family_count_sees_every_form():
    source = (
        'spec.family == "sqrt"\n'
        'family in ("lil_hausdorff", "lil_packing")\n'
        'self.family not in ["power"]\n'
        '"theta" != args.family\n'
        'model.family == "bernoulli"\n'
        'name == "sqrt"\n'
        'family in _FAMILIES\n'
    )
    assert gauge_family_comparison_lines(source) == [1, 2, 3, 4]


def test_gauge_family_comparisons_stay_few():
    sites = [
        f"{path.relative_to(PACKAGE)}:{line}"
        for path in sorted(PACKAGE.rglob("*.py"))
        for line in gauge_family_comparison_lines(path.read_text(encoding="utf-8"))
    ]
    assert len(sites) <= MAX_GAUGE_FAMILY_COMPARISONS, sites
    assert not [site for site in sites if site.startswith("cli.py:")], sites
