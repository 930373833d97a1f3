"""Every function and class of the package has a caller in the package.

Library code that only tests call never runs in a report, so it is checked
by nothing that a user sees.  The scan walks the syntax tree of each module
in ``src/confsym``: every module-level function and class, and every public
method, must be named somewhere in the package outside its own definition.
No function or method is a stub whose body only raises NotImplementedError:
every field family defines the evaluators it has.
"""

import ast
from pathlib import Path

import confsym

SRC = Path(confsym.__file__).resolve().parent

# Names kept without a caller in the package, each with the reason it stays.
ALLOWED = {
    # the per-pair reference that tests/test_acceptance.py compares the
    # batched commutator-algebra check against, pair by pair
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
