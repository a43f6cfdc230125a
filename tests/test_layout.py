"""The package's import graph: imports only at module level, scipy
imported bare, and the Cauchy module standing on numpy and ``errors`` alone; the family
contract: an override keeps its base method's signature, no family
overrides the one expectation engine, ``Family.expect``, and only its moment
engine reads a family's nodes or integrates; and the estimator
roles: chosen by type, with no field naming them and no test of which
estimator the moment code holds; the Cauchy sums, whose order one helper
decides; the one helper that decides what counts as an integer; and every
square in the package taken as one product."""

import ast
import dataclasses
import inspect
from pathlib import Path

import slope_lab
from slope_lab import families, gcore

SRC = Path(slope_lab.__file__).parent


def _tree(name):
    return ast.parse((SRC / name).read_text(), filename=name)


def test_no_import_inside_a_function():
    local = []
    for path in sorted(SRC.glob("*.py")):
        for fn in ast.walk(_tree(path.name)):
            if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
                local += [
                    f"{path.name}:{node.lineno} in {fn.name}"
                    for node in ast.walk(fn)
                    if isinstance(node, (ast.Import, ast.ImportFrom))
                ]
    assert local == []


def test_cauchy_imports_no_package_module_but_errors():
    modules = set()
    for node in ast.walk(_tree("cauchy.py")):
        if isinstance(node, ast.ImportFrom) and node.level > 0:
            modules |= {node.module} if node.module else {a.name for a in node.names}
        elif isinstance(node, ast.ImportFrom) and (node.module or "").startswith("slope_lab"):
            modules.add(node.module)
        elif isinstance(node, ast.Import):
            modules |= {a.name for a in node.names if a.name.startswith("slope_lab")}
    assert modules == {"errors"}


def _shape(fn):
    return [(p.name, p.kind) for p in inspect.signature(fn).parameters.values()]


def test_family_overrides_keep_the_base_signature():
    base = {name: fn for name, fn in vars(families.Family).items() if inspect.isfunction(fn)}
    subclasses = [c for c in vars(families).values()
                  if inspect.isclass(c) and issubclass(c, families.Family) and c is not families.Family]
    assert len(subclasses) == 5
    checked = 0
    for cls in subclasses:
        for name, fn in vars(cls).items():
            if name in base:
                assert _shape(fn) == _shape(base[name]), f"{cls.__name__}.{name}"
                checked += 1
    assert checked > 20
    # one expectation engine: families give values with their weights, or a density
    assert "expect" in vars(families.Family)
    assert [c.__name__ for c in subclasses if "expect" in vars(c)] == []
    assert list(inspect.signature(families.Family.lrt_hull).parameters) == ["self", "y", "drop"]


def test_families_take_a_block_and_give_scores():
    # values hands the family's nodes to one block function; scores is the
    # score at every sample of a block, vectorised by the Monte Carlo family
    sig = lambda fn: list(inspect.signature(fn).parameters)
    assert sig(families.Family.values) == ["self", "theta", "block", "mc_draws", "mc_seed"]
    assert sig(families.Family.scores) == ["self", "theta", "ys"]
    subclasses = [c for c in vars(families).values() if inspect.isclass(c) and issubclass(c, families.Family)]
    assert [c.__name__ for c in subclasses if "scores" in vars(c)] == ["Family", "CauchyLocation"]


def test_only_families_calls_values():
    # a moment is reduced in one place, families._Pass, which takes a
    # family's nodes and their weights from values(theta, block, ...); a
    # dict's values() takes no argument
    callers = []
    for path in sorted(SRC.glob("*.py")):
        if path.name != "families.py":
            callers += [
                f"{path.name}:{node.lineno}"
                for node in ast.walk(_tree(path.name))
                if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute) and node.func.attr == "values"
                and (node.args or node.keywords)
            ]
    assert callers == []
    assert "weights" not in vars(families.Family)


def test_only_the_moment_engine_integrates():
    # every expectation, the median law's information, variance and
    # divergence too, goes through Family.expect or a slope's pass, so
    # families._Pass.mean is the one call of the quadrature
    integrates = lambda c: "integrate_real_line" in (getattr(c.func, "id", None), getattr(c.func, "attr", None))
    found = [(path.name, fn) for path in sorted(SRC.glob("*.py")) for fn, _ in _calls(_tree(path.name), integrates)]
    engine = next(c for c in _tree("families.py").body if isinstance(c, ast.ClassDef) and c.name == "_Pass")
    assert found == [("families.py", "mean")] and len(_calls(engine, integrates)) == 1, found


def test_estimator_roles_are_types_not_fields():
    assert [f.name for f in dataclasses.fields(gcore.GenEstimator)] == ["family", "evaluate", "deriv"]
    estimators = {name for name, c in vars(gcore).items() if inspect.isclass(c) and issubclass(c, gcore.GenEstimator)}
    assert len(estimators) == 3
    found = []
    for node in ast.walk(_tree("gcore.py")):
        if isinstance(node, ast.Name) and node.id.startswith("KIND_"):
            found.append(f"{node.lineno}: name {node.id}")
        elif isinstance(node, ast.Attribute) and (node.attr == "kind" or node.attr.startswith("KIND_")):
            found.append(f"{node.lineno}: attribute .{node.attr}")
        elif (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
              and node.func.id in ("isinstance", "issubclass") and len(node.args) == 2
              and {n.id for n in ast.walk(node.args[1]) if isinstance(n, ast.Name)} & estimators):
            found.append(f"{node.lineno}: {node.func.id} on an estimator")
    assert found == []


def _calls(tree, match):
    """(function, line) of each call in ``tree`` that ``match`` accepts, in
    the innermost function around it."""
    found = []

    def visit(node, fn):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            fn = node.name
        if isinstance(node, ast.Call) and match(node):
            found.append((fn, node.lineno))
        for child in ast.iter_child_nodes(node):
            visit(child, fn)

    visit(tree, None)
    return found


def _sums_over_axis_0(call):
    """A sum over axis 0, such as ``u.sum(axis=0)``, ``np.sum(u, 0)`` or
    ``np.add.reduce(u, 0)``."""
    if not (isinstance(call.func, ast.Attribute) and call.func.attr in ("sum", "reduce", "accumulate")):
        return False
    axis = [k.value for k in call.keywords if k.arg == "axis"] + call.args[:2]
    return any(isinstance(a, ast.Constant) and a.value == 0 for a in axis)


def test_cauchy_sums_observations_in_one_place():
    # every sum over the observations adds them in one order, chosen by
    # one helper, so a row's bits never depend on the shape of its array
    sums = _calls(_tree("cauchy.py"), _sums_over_axis_0)
    assert {fn for fn, _ in sums} == {"_sum_obs"}, sums


def test_only_the_end_test_takes_the_hull_ends_log_sums():
    # the hull's ends decide every step through one _EndTest, a batch of
    # one as well, so no other function in cauchy takes their log sums
    tree = _tree("cauchy.py")
    end_test = next(c for c in tree.body if isinstance(c, ast.ClassDef) and c.name == "_EndTest")
    log_sums = lambda node: _calls(node, lambda c: isinstance(c.func, ast.Name) and c.func.id == "_loglik_rows")
    assert log_sums(end_test) and log_sums(tree) == log_sums(end_test), log_sums(tree)


def _tests_an_integer_type(call):
    """An ``isinstance`` or ``issubclass`` against ``bool``, ``int``,
    ``np.integer`` or ``np.bool_``."""
    if not (isinstance(call.func, ast.Name) and call.func.id in ("isinstance", "issubclass") and len(call.args) == 2):
        return False
    names = {n.id for n in ast.walk(call.args[1]) if isinstance(n, ast.Name)}
    names |= {n.attr for n in ast.walk(call.args[1]) if isinstance(n, ast.Attribute)}
    return bool(names & {"bool", "int", "integer", "bool_"})


def test_one_rule_decides_what_counts_as_an_integer():
    # every size, count and seed goes through families.check_int, so a bool
    # or a float is rejected, and a numpy integer accepted, alike everywhere
    found = [(path.name, fn, line) for path in sorted(SRC.glob("*.py"))
             for fn, line in _calls(_tree(path.name), _tests_an_integer_type)]
    assert {(name, fn) for name, fn, _ in found} == {("families.py", "check_int")}, found


def test_each_paper_decision_is_written_once():
    # the Bernoulli statistics (gcore.BERNOULLI_STATISTICS), the p grid's
    # 2% margins (gcore.default_grid), the Cauchy information n/2
    # (CauchyLocation.fisher_info), the Wald method names, the Wald ends
    # (intervals.wald_ends), the LRT level z^2/2 (intervals.lrt_drop), the
    # finite-difference step (families._FD_STEP), the logistic map
    # (families._logistic), the median law's angle (families._median_angle)
    # and the Cauchy divergence (cauchy.cauchy_kl_length), each read by every
    # module that needs it
    text = {path.name: path.read_text() for path in sorted(SRC.glob("*.py"))}
    for written, home, times in [("y * (y - 1)", "gcore.py", 1), ("0.02 *", "gcore.py", 2),
                                 ("n / 2.0", "families.py", 1), ('"wald_expected"', "intervals.py", 1),
                                 ('"wald_observed"', "intervals.py", 1), ("/ np.sqrt(", "intervals.py", 1),
                                 ("z * z / 2.0", "intervals.py", 1), ("1e-5", "families.py", 1),
                                 ("1.0 / (1.0 + math.exp(-", "families.py", 1), ("np.arctan(", "families.py", 1),
                                 ("math.log(4.0)", "cauchy.py", 1)]:
        assert {name: t.count(written) for name, t in text.items() if written in t} == {home: times}, written


def _squares_by_pow(node):
    """``v ** 2`` or a ``float_power`` call: a square not taken as one product."""
    if isinstance(node, ast.BinOp) and isinstance(node.op, ast.Pow):
        return isinstance(node.right, ast.Constant) and node.right.value == 2
    return isinstance(node, ast.Call) and "float_power" in {
        getattr(node.func, "attr", None), getattr(node.func, "id", None)}


def test_every_square_is_one_product():
    # a product is correctly rounded and pow need not be, and numpy's scalar
    # ** 2 calls pow where its array ** 2 multiplies: a square taken as one
    # product gives a value the same bits alone and in an array
    found = [f"{path.name}:{node.lineno}" for path in sorted(SRC.glob("*.py"))
             for node in ast.walk(_tree(path.name)) if _squares_by_pow(node)]
    assert found == []


def _names_scipy(node):
    names = [a.name for a in node.names] if isinstance(node, ast.Import) else [node.module or ""]
    return any(name.split(".")[0] == "scipy" for name in names)


def test_scipy_is_imported_bare():
    # scipy loads a submodule at its first attribute access, so a bare
    # ``import scipy`` at module level keeps scipy.special and
    # scipy.integrate out of every process that never calls them;
    # ``from scipy.x import`` or ``import scipy.x`` loads them with the package
    bare = ast.dump(ast.parse("import scipy").body[0])
    found = []
    for path in sorted(SRC.glob("*.py")):
        tree = _tree(path.name)
        found += [f"{path.name}:{node.lineno}" for node in ast.walk(tree)
                  if isinstance(node, (ast.Import, ast.ImportFrom)) and _names_scipy(node)
                  and not (ast.dump(node) == bare and node in tree.body)]
    assert found == []
