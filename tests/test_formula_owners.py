"""Each formula of the paper is derived in one place, checked on the source."""

import ast
from pathlib import Path

import fracnoether

# Where a derivative with respect to a velocity may be taken: the momenta of
# a problem, and the generic derivative along the motion.
VELOCITY_DIFF_OWNERS = {"VariationalProblem.momentum", "along_motion"}


def velocity_diff_sites(tree: ast.AST) -> list[tuple[str, int]]:
    """(enclosing class.function, line) of every ``x.diff(V(...))`` and
    ``diff(x, V(...))`` call in a module."""
    sites = []

    def is_velocity(node):
        return (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                and node.func.id == "V")

    def visit(node, scope):
        if isinstance(node, (ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            scope = f"{scope}.{node.name}" if scope else node.name
        if isinstance(node, ast.Call):
            func, args = node.func, node.args
            method = isinstance(func, ast.Attribute) and func.attr == "diff"
            function = isinstance(func, ast.Name) and func.id == "diff"
            if (method and args and is_velocity(args[0])) or (
                    function and len(args) > 1 and is_velocity(args[1])):
                sites.append((scope, node.lineno))
        for child in ast.iter_child_nodes(node):
            visit(child, scope)

    visit(tree, "")
    return sites


def test_velocity_derivatives_have_one_owner():
    package = Path(fracnoether.__file__).parent
    found = {}
    for path in sorted(package.glob("*.py")):
        for scope, line in velocity_diff_sites(ast.parse(path.read_text())):
            found[f"{path.name}:{line}"] = scope
    assert set(found.values()) == VELOCITY_DIFF_OWNERS, found


def test_the_guard_sees_both_spellings():
    source = (
        "class P:\n"
        "    def f(self):\n"
        "        return self.lagrangian.diff(V(0))\n"
        "def g(e):\n"
        "    return [diff(e, V(k)) for k in range(2)] + [e.diff(Q(0))]\n"
    )
    assert velocity_diff_sites(ast.parse(source)) == [("P.f", 3), ("g", 5)]
