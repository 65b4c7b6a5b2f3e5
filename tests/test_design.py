"""Design invariants of the library source.

A rule that differs by model family or shading strategy is a method of that
family or strategy, so no code under src/shadecraft dispatches on a model or
strategy class with isinstance (or issubclass). A grid-backed law is built
only in dist.py, where the push-forward H(beta(x)) = F(x), h = f/beta' is
written once. Every PCHIP table is built by dist._pchip, so no module uses
scipy's PchipInterpolator. The payoff engines integrate in four places only,
and the clearing point is found in one.
"""

import ast
from pathlib import Path

from shadecraft import dist, shade

SRC = Path(dist.__file__).resolve().parent


def _family(root):
    out, todo = set(), [root]
    while todo:
        cls = todo.pop()
        out.add(cls.__name__)
        todo.extend(cls.__subclasses__())
    return out


# every model and strategy class the package defines
DISPATCH_CLASSES = _family(dist.DistributionModel) | _family(shade.ShadingStrategy)


def _class_names(node):
    """Names in an isinstance class argument: a name, a dotted name or a tuple of them."""
    if isinstance(node, ast.Tuple):
        return [n for elt in node.elts for n in _class_names(elt)]
    if isinstance(node, ast.Attribute):
        return [node.attr]
    if isinstance(node, ast.Name):
        return [node.id]
    return []


def _class_checks(tree):
    for node in ast.walk(tree):
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Name) \
                and node.func.id in ("isinstance", "issubclass") and len(node.args) == 2:
            yield node.lineno, _class_names(node.args[1])


def test_known_classes_are_found():
    assert {"GPDistribution", "GridDistribution", "LinearShading", "GridShading",
            "GPReparamShading"} <= DISPATCH_CLASSES


def test_no_isinstance_dispatch_on_models_or_strategies():
    found = []
    for path in sorted(SRC.rglob("*.py")):
        for line, names in _class_checks(ast.parse(path.read_text(), str(path))):
            found += [f"{path.name}:{line}: {n}" for n in names if n in DISPATCH_CLASSES]
    assert not found, "isinstance on a model or strategy class:\n" + "\n".join(found)


def test_scan_sees_a_dispatch():
    tree = ast.parse("if isinstance(model, (float, dist.GPDistribution)):\n    pass\n")
    assert [n for _, names in _class_checks(tree) for n in names] == ["float", "GPDistribution"]


GRID_CONSTRUCTORS = ("GridDistribution", "make_grid")


def _constructions(tree):
    """(line, name) of each call to a grid-backed law's constructor, by name or attribute."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Call):
            name = node.func.attr if isinstance(node.func, ast.Attribute) \
                else getattr(node.func, "id", None)
            if name in GRID_CONSTRUCTORS:
                yield node.lineno, name


def test_only_dist_builds_grid_distributions():
    found = [f"{path.name}:{line}: {name}" for path in sorted(SRC.rglob("*.py"))
             if path.name != "dist.py"
             for line, name in _constructions(ast.parse(path.read_text(), str(path)))]
    assert not found, "grid-backed law built outside dist.py:\n" + "\n".join(found)


def test_scan_sees_a_construction():
    tree = ast.parse("a = GridDistribution(xs, f)\nb = dist.make_grid(xs, f)\n")
    assert sorted(name for _, name in _constructions(tree)) == ["GridDistribution", "make_grid"]


def _pchip_uses(tree):
    """Lines that import PchipInterpolator or reach it as an attribute."""
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) \
                and any(alias.name == "PchipInterpolator" for alias in node.names):
            yield node.lineno
        elif isinstance(node, ast.Attribute) and node.attr == "PchipInterpolator":
            yield node.lineno


def test_one_pchip_builder():
    found = [f"{path.name}:{line}" for path in sorted(SRC.rglob("*.py"))
             for line in _pchip_uses(ast.parse(path.read_text(), str(path)))]
    assert not found, "PchipInterpolator used instead of dist._pchip:\n" + "\n".join(found)


def test_scan_sees_a_pchip_use():
    tree = ast.parse("from scipy.interpolate import PPoly, PchipInterpolator\n"
                     "import scipy.interpolate\n"
                     "f = scipy.interpolate.PchipInterpolator(x, y)\n")
    assert list(_pchip_uses(tree)) == [1, 3]


def _callers(tree, callee):
    """(line, top-level definition) of each call of callee, a name such as
    "_quad.integrate" as the source spells it; None outside any definition."""
    for top in tree.body:
        for node in ast.walk(top):
            if isinstance(node, ast.Call) and ast.unparse(node.func) == callee:
                yield node.lineno, getattr(top, "name", None)


def _src_callers(callee):
    """(file, top-level definition) of each call of callee in the library source."""
    return [(path.name, name) for path in sorted(SRC.rglob("*.py"))
            for _, name in _callers(ast.parse(path.read_text(), str(path)), callee)]


def test_one_clearing_point_caller():
    # the clearing point is found in one place, for the integral in x
    assert _src_callers("_clearing_point") == [("payoff.py", "_clearing_integral")]


def test_payoff_integrates_in_four_places():
    # the clearing region in x and in s, linear shading and first price
    assert {name for file, name in _src_callers("_quad.integrate") if file == "payoff.py"} \
        == {"_clearing_integral", "_bsp_integral", "_linear_integral", "first_price_payoff"}


def test_scan_sees_a_call():
    tree = ast.parse("def f(g):\n    return _quad.integrate(lambda x: g(x), 0, 1)\n"
                     "x0 = _clearing_point(h, 0.0, 1.0)\n")
    assert list(_callers(tree, "_quad.integrate")) == [(2, "f")]
    assert list(_callers(tree, "_clearing_point")) == [(3, None)]
