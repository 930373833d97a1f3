"""Every function and class of the package has a caller in the package.

Library code that only tests call never runs in a report, so it is checked
by nothing that a user sees.  The scan walks the syntax tree of each module
in ``src/confsym``: every module-level function and class, and every public
method, must be named somewhere in the package outside its own definition.
No function or method is a stub whose body only raises NotImplementedError:
every field family defines the evaluators it has.  No check loops over its
drawn samples: each kernel takes the whole sample array in one call.  No
rejection loop of ``sampling`` draws one try per pass: the tries come in blocks.
How a field transforms is decided by the generator's spin tag in one place,
and every fixture class of ``fields`` is a field, not a nominal base class.
A kernel has one path for a single point and a stack: a branch on an array's
dimension only rejects bad input.  Only ``geometry`` calls BLAS or LAPACK,
through its primitives ``_inner``, ``_mv``, ``_vm``, ``_mm``, ``_norm``,
``_det`` and ``_lstsq``; every other module reaches them only through these,
so one module decides how a product, a norm, a determinant or a solve is
summed.
Only ``Metric``, ``GeneratorAction`` and ``CheckDef`` are dataclasses: a
dataclass compiles its generated methods when its module is imported, which
every fresh interpreter pays.
"""

import ast
from pathlib import Path

import confsym

SRC = Path(confsym.__file__).resolve().parent

# Names kept without a caller in the package, each with the reason it stays.
ALLOWED = {
    # one (sigma, tau) slice of the commutator stack: the benchmark's
    # commutator kernel row calls it per pair
    "commutator_residual",
}


def _definitions(tree):
    """(name, node) of each module-level function and class, and of each
    public method; the checks that ``suites._register`` puts in ``CHECKS``
    are reached through that table and left out."""
    for node in tree.body:
        if isinstance(node, ast.FunctionDef) and any(
            isinstance(d, ast.Call) and getattr(d.func, "id", None) == "_register"
            for d in node.decorator_list
        ):
            continue
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            yield node.name, node
        if isinstance(node, ast.ClassDef):
            for sub in node.body:
                if isinstance(sub, ast.FunctionDef) and not sub.name.startswith("_"):
                    yield sub.name, sub


def _uses(tree):
    """(name, line) of every name and attribute the module reads or writes."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            yield node.id, node.lineno
        elif isinstance(node, ast.Attribute):
            yield node.attr, node.lineno


def _uncalled():
    trees = {path.stem: ast.parse(path.read_text()) for path in sorted(SRC.glob("*.py"))}
    uses = [(module, name, line) for module, tree in trees.items() for name, line in _uses(tree)]
    out = set()
    for module, tree in trees.items():
        for name, node in _definitions(tree):
            if not any(
                used == name and not (where == module and node.lineno <= line <= node.end_lineno)
                for where, used, line in uses
            ):
                out.add(name)
    return out


def test_every_definition_has_a_caller_in_the_package():
    uncalled = _uncalled() - set(confsym.__all__)
    assert sorted(uncalled - ALLOWED) == [], "only tests call these; delete them or call them"
    assert sorted(ALLOWED - uncalled) == [], "these have a caller now; drop them from ALLOWED"


def _only_raises_not_implemented(node):
    """True when the body, after any docstring, is ``raise NotImplementedError``."""
    body = node.body
    if isinstance(body[0], ast.Expr) and isinstance(body[0].value, ast.Constant):
        body = body[1:]
    if len(body) != 1 or not isinstance(body[0], ast.Raise):
        return False
    exc = body[0].exc
    exc = exc.func if isinstance(exc, ast.Call) else exc
    return isinstance(exc, ast.Name) and exc.id == "NotImplementedError"


def test_no_not_implemented_stubs():
    stubs = [
        f"{path.stem}:{node.lineno} {node.name}"
        for path in sorted(SRC.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
        and _only_raises_not_implemented(node)
    ]
    assert stubs == [], "a stub no caller reaches; delete it"


EVALUATORS = {"value", "grad", "hess", "third"}


def test_noether_and_dual3_read_fixtures_only_through_a_jet():
    # a kernel that calls a fixture's evaluator itself evaluates it again on
    # points a jet has already evaluated; the jet's orders are attributes
    calls = [
        f"{stem}:{node.lineno} .{node.func.attr}("
        for stem in ("noether", "dual3")
        for node in ast.walk(ast.parse((SRC / f"{stem}.py").read_text()))
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
        and node.func.attr in EVALUATORS
    ]
    assert calls == [], "read the fixture through confsym.fields.Jet"


# Checks that still loop over their samples, each with the reason: none,
# since a MechState holds a stack of states.
PER_SAMPLE_CHECKS = {}


def _draws(node):
    """True when ``node`` is a call that draws samples: a method of ``rng``
    or a function of ``confsym.sampling``."""
    func = node.func if isinstance(node, ast.Call) else None
    return isinstance(func, ast.Attribute) and getattr(func.value, "id", None) in ("rng", "sampling")


def _sample_loops(function):
    """Line numbers of the loops in ``function`` (nested functions included)
    that run over drawn samples: their iterable is a draw, or a name bound to
    one, possibly inside zip() or enumerate(), or zip() of two or more of the
    function's own parameters, which a helper is handed as sample arrays; or
    their body draws, directly or through a nested function that draws."""
    params = {arg.arg for arg in function.args.posonlyargs + function.args.args + function.args.kwonlyargs}
    drawn, drawing = set(), set()
    for node in ast.walk(function):
        if isinstance(node, ast.Assign) and _draws(node.value):
            for target in node.targets:
                drawn |= {n.id for n in ast.walk(target) if isinstance(n, ast.Name)}
        if isinstance(node, ast.FunctionDef) and node is not function:
            if any(_draws(sub) for sub in ast.walk(node)):
                drawing.add(node.name)

    def over_draws(iterable):
        if isinstance(iterable, ast.Call) and getattr(iterable.func, "id", None) in ("zip", "enumerate"):
            zipped = sum(isinstance(arg, ast.Name) and arg.id in params for arg in iterable.args)
            return (iterable.func.id == "zip" and zipped >= 2) or any(over_draws(arg) for arg in iterable.args)
        return _draws(iterable) or (isinstance(iterable, ast.Name) and iterable.id in drawn)

    def body_draws(nodes):
        return any(
            _draws(sub) or (isinstance(sub, ast.Call) and getattr(sub.func, "id", None) in drawing)
            for node in nodes for sub in ast.walk(node)
        )

    lines = []
    for node in ast.walk(function):
        if isinstance(node, ast.For):
            if over_draws(node.iter) or body_draws(node.body):
                lines.append(node.lineno)
        elif isinstance(node, (ast.ListComp, ast.SetComp, ast.GeneratorExp, ast.DictComp)):
            elements = [node.key, node.value] if isinstance(node, ast.DictComp) else [node.elt]
            gens = node.generators
            if any(over_draws(g.iter) for g in gens) or body_draws(elements + [g.iter for g in gens[1:]]):
                lines.append(node.lineno)
    return lines


def _check_name(function):
    """The name a function is registered under in ``CHECKS``, else its own."""
    for decorator in function.decorator_list:
        if isinstance(decorator, ast.Call) and getattr(decorator.func, "id", None) == "_register":
            return decorator.args[0].value
    return function.name


def test_no_check_loops_over_its_samples():
    tree = ast.parse((SRC / "suites.py").read_text())
    loops = {
        _check_name(node): _sample_loops(node)
        for node in tree.body
        if isinstance(node, ast.FunctionDef)
    }
    looping = {name for name, lines in loops.items() if lines}
    assert sorted(looping - set(PER_SAMPLE_CHECKS)) == [], "pass the whole sample array to each kernel"
    assert sorted(set(PER_SAMPLE_CHECKS) - looping) == [], "these no longer loop; drop them from PER_SAMPLE_CHECKS"


# The per-sample fallback that _route_gaps once ran, a loop over zip() of
# the sample arrays it was handed.
SERIAL_ROUTE_GAPS = """
def _route_gaps(make, routes, ys, cs):
    first, second = routes
    try:
        return _sample_gap(make(cs, first).value(ys), make(cs, second).value(ys)).tolist()
    except ConfsymError:
        return [_agreement(make(c, first), make(c, second), y) for y, c in zip(ys, cs)]
"""


def test_a_loop_over_zipped_parameters_is_a_sample_loop():
    assert _sample_loops(ast.parse(SERIAL_ROUTE_GAPS).body[0]) != []
    tree = ast.parse((SRC / "suites.py").read_text())
    helper = next(node for node in tree.body if getattr(node, "name", None) == "_reject_non_finite")
    assert _sample_loops(helper) == []


# Rejection loops in sampling that still draw one try per pass, each with the
# reason; every other sampler draws its tries in blocks through
# sampling._accepted, which keeps the one-try loop's stream.
PER_TRY_SAMPLERS = {
    "timelike_points": "a try's sign reads the bit generator's buffered 32-bit half-word "
                       "between its normal and uniform draws, so no block draw gives the "
                       "loop's stream; tries are drawn one by one in rounds, and each "
                       "round's acceptance is one stacked norm2",
    "transverse_polarisation": "a polarisation is rejected almost never, so the loop "
                               "runs once",
}


def test_no_sampler_draws_one_try_per_loop_pass():
    tree = ast.parse((SRC / "sampling.py").read_text())
    looping = {
        node.name
        for node in tree.body
        if isinstance(node, ast.FunctionDef)
        for loop in ast.walk(node)
        if isinstance(loop, ast.While)
        and any(_draws(sub) for stmt in loop.body for sub in ast.walk(stmt))
    }
    assert sorted(looping - set(PER_TRY_SAMPLERS)) == [], "draw the tries in blocks with sampling._accepted"
    assert sorted(set(PER_TRY_SAMPLERS) - looping) == [], "these no longer loop; drop them from PER_TRY_SAMPLERS"


# The functions that read a spin tag: the tag's own check, the spin matrix
# action of each representation, and the one variation that has an analytic
# gradient only for some representations.
SPIN_READERS = {"GeneratorAction.__post_init__", "_spin_action", "delta_with_gradient"}


def _spin_compares(tree):
    """Qualified names of the functions that compare a ``.spin`` attribute
    or a ``spin`` variable with anything."""
    found = set()

    def walk(node, scope):
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            scope = scope + (node.name,)
        if isinstance(node, ast.Compare) and any(
            (isinstance(side, ast.Attribute) and side.attr == "spin")
            or (isinstance(side, ast.Name) and side.id == "spin")
            for side in [node.left, *node.comparators]
        ):
            found.add(".".join(scope))
        for child in ast.iter_child_nodes(node):
            walk(child, scope)

    walk(tree, ())
    return found


def test_only_the_spin_readers_compare_a_spin_tag():
    readers = set()
    for path in sorted(SRC.glob("*.py")):
        readers |= _spin_compares(ast.parse(path.read_text()))
    assert sorted(readers - SPIN_READERS) == [], "vary fields through transforms.delta; the tag decides"
    assert sorted(SPIN_READERS - readers) == [], "these no longer read the tag; drop them from SPIN_READERS"


# The functions that read a generator's parts: the Killing formulas read
# them through _parts, which checks the generator's dimension against the
# metric's, and two rules read the special conformal parameter c itself.
GENERATOR_READERS = {"_parts", "_scalar_rule", "current_divergence_identity"}


def _part_readers(tree):
    """Qualified names of the functions that read an attribute ``a``,
    ``omega``, ``lam`` or ``c`` of anything but ``self``."""
    found = set()

    def walk(node, scope):
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            scope = scope + (node.name,)
        if (
            isinstance(node, ast.Attribute)
            and isinstance(node.ctx, ast.Load)
            and node.attr in ("a", "omega", "lam", "c")
            and not (isinstance(node.value, ast.Name) and node.value.id == "self")
        ):
            found.add(".".join(scope))
        for child in ast.iter_child_nodes(node):
            walk(child, scope)

    walk(tree, ())
    return found


def test_only_the_generator_readers_read_its_parts():
    readers = set()
    for path in sorted(SRC.glob("*.py")):
        readers |= _part_readers(ast.parse(path.read_text()))
    assert sorted(readers - GENERATOR_READERS) == [], "read a generator through the killing_* formulas"
    assert sorted(GENERATOR_READERS - readers) == [], "these no longer read a generator; drop them from GENERATOR_READERS"


def test_every_fixture_class_is_a_field():
    # a class that defines no value is a nominal type no kernel reads
    tree = ast.parse((SRC / "fields.py").read_text())
    nominal = [
        node.name
        for node in tree.body
        if isinstance(node, ast.ClassDef) and node.name != "Jet"
        and not any(isinstance(sub, ast.FunctionDef) and sub.name == "value" for sub in node.body)
    ]
    assert nominal == [], "a fixture class defines value; a potential is a multiplet"


# The modules whose kernels take points (..., D): a single point is a stack
# with no sample axis and runs the same code.
KERNEL_MODULES = ("geometry", "fields", "clifford", "transforms", "noether", "dual3", "mechanics")


def _reads_shape_kind(test):
    """True when ``test`` reads ``.ndim`` (``np.ndim`` included) or calls
    ``isinstance(..., np.ndarray)``."""
    for node in ast.walk(test):
        if isinstance(node, ast.Attribute) and node.attr == "ndim":
            return True
        if (
            isinstance(node, ast.Call) and getattr(node.func, "id", None) == "isinstance"
            and len(node.args) == 2
            and any(isinstance(sub, ast.Attribute) and sub.attr == "ndarray" for sub in ast.walk(node.args[1]))
        ):
            return True
    return False


def _shape_forks(tree):
    """Qualified names of the functions holding an ``if`` or a conditional
    expression that tests an array's dimension or type and does anything but
    raise: a second path for a single point beside the stack path."""
    found = set()

    def walk(node, scope):
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            scope = scope + (node.name,)
        if isinstance(node, (ast.If, ast.IfExp)) and _reads_shape_kind(node.test):
            if isinstance(node, ast.IfExp) or not all(isinstance(stmt, ast.Raise) for stmt in node.body):
                found.add(".".join(scope))
        for child in ast.iter_child_nodes(node):
            walk(child, scope)

    walk(tree, ())
    return found


def test_no_kernel_forks_on_a_single_point():
    forks = {
        f"{stem}.{name}"
        for stem in KERNEL_MODULES
        for name in _shape_forks(ast.parse((SRC / f"{stem}.py").read_text()))
    }
    assert sorted(forks) == [], "a single point is a stack with no sample axis; run the stack path"


# numpy's product functions: each hands its sums to BLAS, whose kernel, and
# so the order and fusing of each sum, the host picks at run time.
NUMPY_PRODUCTS = {"matmul", "dot", "vdot", "inner", "vecdot", "tensordot"}


def _blas_sites(tree):
    """(line, what) of each product, norm, determinant or solve that may reach
    BLAS or LAPACK: ``@`` and ``@=``; numpy's product functions and anything
    of ``numpy.linalg``, imported or read as an attribute; an array's ``.dot``
    (a Metric's is its own inner product); and an ``einsum`` with
    ``optimize=``, which may hand its contraction to ``tensordot``."""
    for node in ast.walk(tree):
        if isinstance(node, (ast.BinOp, ast.AugAssign)) and isinstance(node.op, ast.MatMult):
            yield node.lineno, "@"
        elif isinstance(node, ast.Attribute) and node.attr in NUMPY_PRODUCTS | {"linalg"}:
            owner = ast.unparse(node.value)
            if owner in ("np", "numpy") or (node.attr == "dot" and owner.split(".")[-1] != "metric"):
                yield node.lineno, ast.unparse(node)
        elif isinstance(node, ast.Call) and any(kw.arg == "optimize" for kw in node.keywords):
            if ast.unparse(node.func).split(".")[-1] == "einsum":
                yield node.lineno, "einsum(optimize=)"
        elif isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "numpy":
            for alias in node.names:
                name = f"{node.module}.{alias.name}"
                if name.startswith("numpy.linalg") or (node.module == "numpy" and alias.name in NUMPY_PRODUCTS):
                    yield node.lineno, f"import {name}"
        elif isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name.startswith("numpy.linalg"):
                    yield node.lineno, f"import {alias.name}"


def _blas_sites_outside_geometry(sources):
    return [
        f"{stem}:{line} {what}"
        for stem, text in sorted(sources.items())
        if stem != "geometry"
        for line, what in sorted(_blas_sites(ast.parse(text)))
    ]


def _sources():
    return {path.stem: path.read_text() for path in SRC.glob("*.py")}


def test_only_geometry_calls_blas_or_lapack():
    # one module decides how a product is summed; its primitives _inner, _mv,
    # _vm, _mm, _norm, _det and _lstsq are each the numpy call they name
    sites = _blas_sites_outside_geometry(_sources())
    assert sites == [], "route products, norms, determinants and solves through geometry's primitives"


BLAS_FORMS = """
import numpy.linalg
from numpy.linalg import norm
from numpy import dot, linalg
a @ b
a @= b
np.matmul(a, b); np.dot(a, b); np.vdot(a, b); np.inner(a, b)
np.vecdot(a, b); np.tensordot(a, b); np.linalg.det(a); numpy.linalg.norm(a)
a.dot(b)
np.einsum("ij,jk->ik", a, b, optimize=True)
"""

NOT_BLAS_FORMS = """
from numpy import einsum, sum
metric.dot(u, v); self.metric.dot(u, v)
np.einsum("ij,jk->ik", a, b)
np.outer(a, b); np.sum(a * b, axis=-1); np.trace(a)
"""


def test_the_blas_gate_sees_every_form():
    assert len(list(_blas_sites(ast.parse(BLAS_FORMS)))) == 16
    assert list(_blas_sites(ast.parse(NOT_BLAS_FORMS))) == []
    sources = _sources()
    before = _blas_sites_outside_geometry(sources)
    sources["suites"] += "\ngap = a @ b\n"
    line = sources["suites"].count("\n")
    after = _blas_sites_outside_geometry(sources)
    assert sorted(set(after) - set(before)) == [f"suites:{line} @"]


# The dataclasses of the package, each with the reason it stays one; every
# other record class has a hand-written __init__.
DATACLASSES = {
    "geometry.Metric": "tests expect FrozenInstanceError when an attribute is set",
    "geometry.GeneratorAction": "transforms and the tests derive generators with dataclasses.replace",
    "suites.CheckDef": "the benchmark's tracer rebuilds every registered check with dataclasses.replace",
}


def _dataclass_sites(tree):
    """Names of the classes decorated with ``dataclass``, called or not, by
    name or as ``dataclasses.dataclass``; a call of ``dataclass`` or
    ``make_dataclass`` anywhere else is named by its line."""
    decorators = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ClassDef):
            for decorator in node.decorator_list:
                target = decorator.func if isinstance(decorator, ast.Call) else decorator
                if ast.unparse(target).split(".")[-1] == "dataclass":
                    decorators.add(id(decorator))
                    yield node.name
    for node in ast.walk(tree):
        if isinstance(node, ast.Call) and id(node) not in decorators:
            if ast.unparse(node.func).split(".")[-1] in ("dataclass", "make_dataclass"):
                yield f"line {node.lineno}"


def _dataclasses(sources):
    return {f"{stem}.{name}" for stem, text in sources.items() for name in _dataclass_sites(ast.parse(text))}


def test_only_the_listed_classes_are_dataclasses():
    found = _dataclasses(_sources())
    assert sorted(found - set(DATACLASSES)) == [], "write a plain class with an __init__"
    assert sorted(set(DATACLASSES) - found) == [], "these are no longer dataclasses; drop them from DATACLASSES"


DATACLASS_FORMS = """
@dataclass
class Bare: pass
@dataclass(frozen=True)
class Called: pass
@dataclasses.dataclass(eq=False)
class Qualified: pass
Wrapped = dataclass(Bare)
Made = make_dataclass("Made", ["x"])
"""


def test_the_dataclass_gate_sees_every_form():
    found = sorted(_dataclass_sites(ast.parse(DATACLASS_FORMS)))
    assert found == ["Bare", "Called", "Qualified", "line 8", "line 9"]
