"""Design invariants of the library source.

A rule that differs by model family or shading strategy is a method of that
family or strategy, so no code under src/shadecraft dispatches on a model or
strategy class with isinstance (or issubclass). A grid-backed law is built
only in dist.py, where the push-forward H(beta(x)) = F(x), h = f/beta' is
written once. Every PCHIP table is built by dist._pchip, so no module uses
scipy's PchipInterpolator, and only dist._Table calls scipy's private
compiled PPoly evaluation. A table is built from (x, y) alone, so its slope
is its own derivative. A model family implements one rule of each pair
cdf/sf and quantile/isf; the base derives the other. The payoff engines
integrate in four places only, and the clearing point is found in one. One
builder makes the competition a bidder faces, for every threshold kind, and
its law is one rule for every kind, which reads neither the kind nor the atom.
maximize_bsp takes the BSP payoff and gradient from one integral, and the
BSP point-mass term is written once.
Per-call paths call no numpy wrapper that ends in a ufunc, constructor or
array method they can call themselves, and only dist._clip reaches numpy's
private core modules.
"""

import ast
import inspect
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


def test_each_family_implements_one_rule_of_each_pair():
    # the base derives sf from cdf and cdf from sf, isf from quantile and
    # quantile from isf; a family that wrote both would spell one rule twice
    found = [f"{cls.__name__}: {pair}" for cls in dist.DistributionModel.__subclasses__()
             for pair in (("cdf", "sf"), ("quantile", "isf"))
             if sum(name in vars(cls) for name in pair) != 1]
    assert not found, "a family must define exactly one of:\n" + "\n".join(found)


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
    "_quad.integrate" as the source spells it, alone or after a dot (so
    "_evaluate" finds pp._evaluate); None outside any definition."""
    for top in tree.body:
        for node in ast.walk(top):
            if isinstance(node, ast.Call):
                name = ast.unparse(node.func)
                if name == callee or name.endswith("." + callee):
                    yield node.lineno, getattr(top, "name", None)


def _src_callers(callee):
    """(file, top-level definition) of each call of callee in the library source."""
    return [(path.name, name) for path in sorted(SRC.rglob("*.py"))
            for _, name in _callers(ast.parse(path.read_text(), str(path)), callee)]


def test_one_clearing_point_caller():
    # the clearing point is found in one place, for the integral in x
    assert _src_callers("_clearing_point") == [("payoff.py", "_clearing_integral")]


def test_one_competition_builder():
    # every threshold kind's competition comes from competition_distribution:
    # the VCG closure it replaced is gone, and no other code builds the object
    assert not any("_linear_competition" in path.read_text() for path in SRC.rglob("*.py"))
    assert set(_src_callers("CompetitionDistribution")) == {
        ("payoff.py", "competition_distribution")}


def test_the_competition_law_is_one_rule():
    # W = prod_i max(m_i, S_i) for Myerson and lazy and eager VCG: the builder makes
    # one object for every kind, and only __init__ touches the kind (virtual) and the
    # atom, so law has no Myerson branch and W(0) has one source, not a stored atom
    assert _src_callers("CompetitionDistribution") == [("payoff.py", "competition_distribution")]
    tree = ast.parse((SRC / "payoff.py").read_text())
    cls = next(n for n in tree.body if getattr(n, "name", None) == "CompetitionDistribution")
    for attr in ("atom0", "virtual"):
        assert set(_readers(cls, attr)) == {"__init__"}, attr


def test_payoff_integrates_in_four_places():
    # the clearing region in x and in s, linear shading and first price
    assert {name for file, name in _src_callers("_quad.integrate") if file == "payoff.py"} \
        == {"_clearing_integral", "_bsp_integral", "_linear_integral", "first_price_payoff"}


def test_the_bsp_optimizer_makes_one_integral_per_evaluation():
    # maximize_bsp takes the payoff and its gradient together, from one integral
    for callee in ("bsp_payoff", "bsp_payoff_gradient"):
        assert ("opt.py", "maximize_bsp") not in _src_callers(callee)
    assert _src_callers("bsp_payoff_and_gradient") == [("opt.py", "maximize_bsp")]


def _readers(tree, attr):
    """The top-level definition (or None) of each read of the attribute attr."""
    for top in tree.body:
        for node in ast.walk(top):
            if isinstance(node, ast.Attribute) and node.attr == attr:
                yield getattr(top, "name", None)


def test_the_bsp_point_mass_term_is_written_once():
    # the competition's atom at 0 is its own (CompetitionDistribution), the
    # point-mass term in x (directional_derivative) and the one in s (_bsp_rows),
    # which bsp_payoff_gradient and bsp_payoff_and_gradient share
    tree = ast.parse((SRC / "payoff.py").read_text())
    assert set(_readers(tree, "atom0")) == {
        "CompetitionDistribution", "directional_derivative", "_bsp_rows"}
    assert {name for _, name in _callers(tree, "_grad_psi_of_s")} == {"_bsp_rows"}
    assert {name for _, name in _callers(tree, "_bsp_rows")} == {
        "bsp_payoff_gradient", "bsp_payoff_and_gradient"}


def test_scan_sees_a_read():
    tree = ast.parse("def f(z):\n    return z.atom0\nclass C:\n    def g(self):\n"
                     "        self.atom0 = 1\natom0 = z.atom0\n")
    assert list(_readers(tree, "atom0")) == ["f", "C", None]


def _table_builds(tree):
    """(line, positional count, keyword names) of each call to _Table, by
    name or attribute."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Call) and ast.unparse(node.func).split(".")[-1] == "_Table":
            yield node.lineno, len(node.args), [k.arg for k in node.keywords]


def test_a_table_is_one_function_and_its_own_slope():
    # _Table(x, y) holds one PCHIP, whose slope is its derivative: a second
    # function read as the slope would let Newton step on another table's slope
    assert list(inspect.signature(dist._Table).parameters) == ["x", "y"]
    found = [f"{path.name}:{line}" for path in sorted(SRC.rglob("*.py"))
             for line, args, keywords in _table_builds(ast.parse(path.read_text(), str(path)))
             if (args, keywords) != (2, [])]
    assert not found, "_Table built with other than (x, y):\n" + "\n".join(found)
    assert len(list(_table_builds(ast.parse((SRC / "dist.py").read_text())))) >= 5


def test_scan_sees_a_table_build():
    tree = ast.parse("a = _Table(x, y)\nb = dist._Table(x, y, slopes)\nc = _Table(x, y=v)\n"
                     "d = Table(x, y, z)\n")
    assert list(_table_builds(tree)) == [(1, 2, []), (2, 3, []), (3, 1, ["y"])]


def test_only_the_table_calls_scipys_private_evaluation():
    # PPoly._evaluate(x, nu, extrapolate, out) is private to scipy; it has had
    # this signature since scipy 1.10, pyproject.toml's floor. If a release
    # changes it, tests/test_table.py's byte tests against PchipInterpolator fail
    assert _src_callers("_evaluate") == [("dist.py", "_Table")]


def test_scan_sees_a_call():
    tree = ast.parse("def f(g):\n    return _quad.integrate(lambda x: g(x), 0, 1)\n"
                     "x0 = _clearing_point(h, 0.0, 1.0)\n")
    assert list(_callers(tree, "_quad.integrate")) == [(2, "f")]
    assert list(_callers(tree, "_clearing_point")) == [(3, None)]
    tree = ast.parse("class T:\n    def f(self, q, out):\n        self._pp._evaluate(q, 0, True, out)\n"
                     "pp._evaluate(q, 0, True, out)\n")
    assert list(_callers(tree, "_evaluate")) == [(3, "T"), (4, None)]


# numpy's Python wrappers that a per-call path skips: each ends in a ufunc,
# an array method or a constructor the path calls itself (dist._clip,
# np.zeros(shape), np.ones(shape), ndarray.any), for ~2 us less per call
WRAPPERS = ("np.clip", "np.zeros_like", "np.ones_like", "np.any")
PER_CALL = {
    "dist.py": ("_Table._locate", "_Table._newton", "_Table.invert", "_check_within",
                "GPDistribution.sf", "GPDistribution.pdf", "GPDistribution.isf",
                "GPDistribution.virtual_value_clamped", "GPDistribution._inverse_virtual_clamped",
                "GridDistribution.cdf", "GridDistribution.pdf", "GridDistribution.quantile",
                "GridDistribution.virtual_value_clamped",
                "GridDistribution._inverse_virtual_clamped"),
    "payoff.py": ("_law_of_max", "_product_density", "_clearing_point",
                  "directional_derivative", "_grad_psi_of_s"),
}


def _definitions(tree):
    """{name: node} of each top-level function and, as "Class.name", each
    method of a top-level class."""
    out = {}
    for top in tree.body:
        if isinstance(top, ast.ClassDef):
            out.update({f"{top.name}.{f.name}": f for f in top.body
                        if isinstance(f, ast.FunctionDef)})
        elif isinstance(top, ast.FunctionDef):
            out[top.name] = top
    return out


def _wrapper_calls(node):
    """(line, name) of each call under node to one of WRAPPERS, as the source spells it."""
    return [(n.lineno, ast.unparse(n.func)) for n in ast.walk(node)
            if isinstance(n, ast.Call) and ast.unparse(n.func) in WRAPPERS]


def test_per_call_paths_skip_numpys_python_wrappers():
    found = []
    for file, names in PER_CALL.items():
        defs = _definitions(ast.parse((SRC / file).read_text()))
        assert set(names) <= defs.keys(), f"{file}: a per-call path was renamed"
        found += [f"{file}:{line}: {call} in {name}" for name in names
                  for line, call in _wrapper_calls(defs[name])]
    assert not found, "numpy wrapper on a per-call path:\n" + "\n".join(found)


def test_scan_sees_a_wrapper_call():
    tree = ast.parse("class T:\n    def f(self, x):\n        return np.clip(x, 0, 1)\n"
                     "def g(t):\n    return np.zeros_like(t) + np.zeros(t.shape)\n")
    defs = _definitions(tree)
    assert sorted(defs) == ["T.f", "g"]
    assert _wrapper_calls(defs["T.f"]) == [(3, "np.clip")]
    assert _wrapper_calls(defs["g"]) == [(5, "np.zeros_like")]


def _private_numpy_uses(tree):
    """The top-level name (an assignment's target, a definition's name, or
    None) under which each use of numpy's private core modules appears."""
    for top in tree.body:
        name = ast.unparse(top.targets[0]) if isinstance(top, ast.Assign) \
            else getattr(top, "name", None)
        for node in ast.walk(top):
            if (isinstance(node, ast.Attribute) and node.attr in ("_core", "core")) \
                    or (isinstance(node, ast.ImportFrom)
                        and (node.module or "").startswith(("numpy._core", "numpy.core"))):
                yield name


def test_one_alias_reaches_numpys_private_clip():
    # np._core.umath.clip is private to numpy; dist._clip is its one alias,
    # and tests/test_table.py's byte tests hold it to np.clip
    found = [(path.name, name) for path in sorted(SRC.rglob("*.py"))
             for name in _private_numpy_uses(ast.parse(path.read_text(), str(path)))]
    assert found == [("dist.py", "_clip")]


def test_scan_sees_a_private_numpy_use():
    tree = ast.parse("_clip = np._core.umath.clip\nfrom numpy._core import umath\n"
                     "def f(x):\n    return np.core.umath.clip(x, 0, 1)\n")
    assert list(_private_numpy_uses(tree)) == ["_clip", None, "f"]
