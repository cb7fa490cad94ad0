"""Each formula of the paper is derived in one place, and the package
runs on the standard library alone, checked on the source."""

import ast
from pathlib import Path

import fracnoether

# Where a derivative with respect to a velocity may be taken: the momenta of
# a problem, and the generic derivative along the motion.
VELOCITY_DIFF_OWNERS = {"VariationalProblem.momentum", "along_motion"}

# Where the elimination of a linear system may be written out, besides
# linsolve itself: the accelerations of the equation of motion.  A known
# matrix is eliminated in two places, once each: the constant mass of
# those accelerations, as trees, and linsolve's float solve.
EMIT_SOLVE_OWNERS = {"ExplicitOde.emit_accelerations"}
ELIMINATED_OWNERS = {"ExplicitOde.solved", "solve"}

# Where a derivative along the motion may be expanded: the force of the
# equation of motion, the gauge rates, and the conservation check.
ALONG_MOTION_OWNERS = {
    "euler_lagrange.py:_force_and_mass",
    "charges.py:_gauge_parts",
    "charges.py:pointwise_conservation_residual",
}

# Where an initial-value solve may be started: the commands' one solve path,
# which verify runs too, and the shooting and order measurement of
# integrators (a Newton probe's retry inside _final_state).
IVP_SOLVE_OWNERS = {
    "cli.py:_solve",
    "integrators.py:_final_state.final_state",
    "integrators.py:bvp_shoot",
    "integrators.py:convergence_order",
}

# Where a "%.17g" row template may be assembled: the one CSV table writer.
ROW_TEMPLATE_OWNERS = {"integrators.py:write_table"}

# Where the label of a reported charge may be formed: the one list of the
# charges a solve reports.
LABEL_OWNERS = {"charges.py:requested"}
LABEL_PREFIXES = ("noether_g", "momentum_", "classical_momentum_")

# Where an expression emitter may be made: the shape cache, whose walk
# numbers every node the emitter writes.
EMITTER_OWNERS = {"expressions.py:shaped"}

# The test oracles, which no module of the package may import.
ORACLES = {"numpy", "scipy", "sympy"}


def scoped_sites(tree: ast.AST, match) -> list[tuple[str, int]]:
    """(enclosing class.function, line) of every node of a module that
    ``match`` accepts."""
    sites = []

    def visit(node, scope):
        if isinstance(node, (ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            scope = f"{scope}.{node.name}" if scope else node.name
        if match(node):
            sites.append((scope, node.lineno))
        for child in ast.iter_child_nodes(node):
            visit(child, scope)

    visit(tree, "")
    return sites


def velocity_diff_sites(tree: ast.AST) -> list[tuple[str, int]]:
    """(enclosing class.function, line) of every ``x.diff(V(...))`` and
    ``diff(x, V(...))`` call in a module."""

    def is_velocity(node):
        return (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                and node.func.id == "V")

    def match(node):
        if not isinstance(node, ast.Call):
            return False
        func, args = node.func, node.args
        method = isinstance(func, ast.Attribute) and func.attr == "diff"
        function = isinstance(func, ast.Name) and func.id == "diff"
        return bool((method and args and is_velocity(args[0])) or (
            function and len(args) > 1 and is_velocity(args[1])))

    return scoped_sites(tree, match)


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


def call_sites(tree: ast.AST, name: str) -> list[tuple[str, int]]:
    """(enclosing class.function, line) of every ``name(...)`` and
    ``x.name(...)`` call in a module."""

    def match(node):
        if not isinstance(node, ast.Call):
            return False
        func = node.func
        return (isinstance(func, ast.Name) and func.id == name) or (
            isinstance(func, ast.Attribute) and func.attr == name)

    return scoped_sites(tree, match)


def linalg_sites(tree: ast.AST) -> list[tuple[str, int]]:
    """(enclosing class.function, line) of every name, attribute or import
    that refers to a ``linalg`` module."""

    def match(node):
        if isinstance(node, ast.Name):
            return node.id == "linalg"
        if isinstance(node, ast.Attribute):
            return node.attr == "linalg"
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            modules = [alias.name for alias in node.names]
            if isinstance(node, ast.ImportFrom):
                modules.append(node.module or "")
            return any("linalg" in module.split(".") for module in modules)
        return False

    return scoped_sites(tree, match)


def test_one_elimination():
    package = Path(fracnoether.__file__).parent
    solves, known, linalg = {}, {}, {}
    for path in sorted(package.glob("*.py")):
        tree = ast.parse(path.read_text())
        if path.name != "linsolve.py":
            for scope, line in call_sites(tree, "emit_solve"):
                solves[f"{path.name}:{line}"] = scope
        for scope, line in call_sites(tree, "eliminated"):
            known[f"{path.name}:{line}"] = scope
        for scope, line in linalg_sites(tree):
            linalg[f"{path.name}:{line}"] = scope
    assert set(solves.values()) == EMIT_SOLVE_OWNERS, solves
    assert sorted(known.values()) == sorted(ELIMINATED_OWNERS), known
    assert linalg == {}


def test_the_elimination_guard_sees_every_spelling():
    source = (
        "import numpy.linalg\n"
        "from numpy import linalg\n"
        "from scipy.linalg import solve\n"
        "class Ode:\n"
        "    def f(self, em):\n"
        "        return linsolve.emit_solve(em, [], [], str)\n"
        "def g(a, b):\n"
        "    return emit_solve(None, a, b, str) + np.linalg.solve(a, b) + linalg.inv(a)\n"
    )
    tree = ast.parse(source)
    assert call_sites(tree, "emit_solve") == [("Ode.f", 6), ("g", 8)]
    assert linalg_sites(tree) == [("", 1), ("", 2), ("", 3), ("g", 8), ("g", 8)]


def test_one_derivative_along_the_motion():
    package = Path(fracnoether.__file__).parent
    found = {}
    for path in sorted(package.glob("*.py")):
        for scope, line in call_sites(ast.parse(path.read_text()), "along_motion"):
            found[f"{path.name}:{line}"] = f"{path.name}:{scope}"
    assert set(found.values()) == ALONG_MOTION_OWNERS, found


def test_the_along_motion_guard_sees_both_spellings():
    source = (
        "class Derivative:\n"
        "    def __init__(self, e, n):\n"
        "        self.rate = euler_lagrange.along_motion(e, n)[0]\n"
        "def residual(prob, e):\n"
        "    rate, coeffs = along_motion(e, prob.n)\n"
        "    return rate\n"
    )
    sites = call_sites(ast.parse(source), "along_motion")
    assert sites == [("Derivative.__init__", 3), ("residual", 5)]


def test_one_solve_path():
    package = Path(fracnoether.__file__).parent
    found = {}
    for path in sorted(package.glob("*.py")):
        for scope, line in call_sites(ast.parse(path.read_text()), "ivp_solve"):
            found[f"{path.name}:{line}"] = f"{path.name}:{scope}"
    assert set(found.values()) == IVP_SOLVE_OWNERS, found


def test_the_solve_guard_sees_both_spellings_and_nested_functions():
    source = (
        "def criterion(rhs):\n"
        "    return integrators.ivp_solve(rhs, 0.0, 1.0, [0.0], [1.0], 10)\n"
        "class Shoot:\n"
        "    def final(self, q0):\n"
        "        def retry(v0):\n"
        "            return ivp_solve(self.rhs, 0.0, 1.0, q0, v0, 10)\n"
        "        return retry\n"
    )
    sites = call_sites(ast.parse(source), "ivp_solve")
    assert sites == [("criterion", 2), ("Shoot.final.retry", 6)]


def test_one_maker_of_emitters():
    package = Path(fracnoether.__file__).parent
    found = {}
    for path in sorted(package.glob("*.py")):
        for scope, line in call_sites(ast.parse(path.read_text()), "Emitter"):
            found[f"{path.name}:{line}"] = f"{path.name}:{scope}"
    assert set(found.values()) == EMITTER_OWNERS, found


def test_the_emitter_guard_sees_every_spelling():
    source = (
        "em = Emitter()\n"
        "class Ode:\n"
        "    @cached_property\n"
        "    def f(self):\n"
        "        return expressions.Emitter().body('')\n"
        "def loop(rhs):\n"
        "    def emit():\n"
        "        return Emitter({}, ())\n"
        "    return emit, Emitter\n"
    )
    sites = call_sites(ast.parse(source), "Emitter")
    assert sites == [("", 1), ("Ode.f", 5), ("loop.emit", 8)]


def string_sites(tree: ast.AST, text: str) -> list[tuple[str, int]]:
    """(enclosing class.function, line) of every string constant that holds
    ``text``, inside f-strings too."""

    def match(node):
        return isinstance(node, ast.Constant) and isinstance(node.value, str) and text in node.value

    return scoped_sites(tree, match)


def row_template_sites(tree: ast.AST) -> list[tuple[str, int]]:
    """(enclosing class.function, line) of every string constant that holds
    a ``%.17g`` conversion; ``format(x, ".17g")`` holds none."""
    return string_sites(tree, "%.17g")


def test_one_table_writer():
    package = Path(fracnoether.__file__).parent
    found = {}
    for path in sorted(package.glob("*.py")):
        for scope, line in row_template_sites(ast.parse(path.read_text())):
            found[f"{path.name}:{line}"] = f"{path.name}:{scope}"
    assert set(found.values()) == ROW_TEMPLATE_OWNERS, found


def test_the_table_writer_guard_sees_every_spelling():
    source = (
        "class Series:\n"
        "    def write_csv(self, fh, table):\n"
        "        fh.write(('%.17g,%.17g\\n' * len(table)) % tuple(table))\n"
        "def row(xs, sep=','):\n"
        "    return sep.join(['%.17g'] * len(xs)) + f'%.17g{sep}'\n"
        "def trailer(d):\n"
        "    return f\"# drift={format(d, '.17g')}\" + format(d, '.17g')\n"
    )
    sites = row_template_sites(ast.parse(source))
    assert sites == [("Series.write_csv", 3), ("row", 5), ("row", 5)]


def label_sites(tree: ast.AST) -> list[tuple[str, int]]:
    """(enclosing class.function, line) of every f-string whose text starts
    with the prefix of a charge label."""

    def match(node):
        if not isinstance(node, ast.JoinedStr) or not node.values:
            return False
        first = node.values[0]
        return isinstance(first, ast.Constant) and first.value.startswith(LABEL_PREFIXES)

    return scoped_sites(tree, match)


def test_one_owner_of_the_charge_labels():
    package = Path(fracnoether.__file__).parent
    found = {}
    for path in sorted(package.glob("*.py")):
        for scope, line in label_sites(ast.parse(path.read_text())):
            found[f"{path.name}:{line}"] = f"{path.name}:{scope}"
    assert set(found.values()) == LABEL_OWNERS, found


def test_the_label_guard_sees_every_spelling():
    source = (
        "class Command:\n"
        "    def labels(self, gens, n):\n"
        "        return [f'noether_g{i}' for i in range(len(gens))] + [f\"momentum_{n}\"]\n"
        "def classical(j):\n"
        "    return {f'classical_momentum_{j}': f'momentum charge for dof {j}'}\n"
        "def channel(j):\n"
        "    return f'{j}momentum_' + 'momentum_{j}'.format(j=j) + f'Lambda_g{j}'\n"
    )
    sites = label_sites(ast.parse(source))
    assert sites == [("Command.labels", 3), ("Command.labels", 3), ("classical", 5)]


def oracle_import_sites(tree: ast.AST) -> list[tuple[str, int]]:
    """(enclosing class.function, line) of every import of numpy, scipy,
    sympy or a module under one of them: an import statement anywhere, or
    ``__import__``/``import_module`` of a constant name."""

    def is_oracle(module) -> bool:
        return isinstance(module, str) and module.split(".")[0] in ORACLES

    def match(node):
        if isinstance(node, ast.Import):
            return any(is_oracle(alias.name) for alias in node.names)
        if isinstance(node, ast.ImportFrom):
            return node.level == 0 and is_oracle(node.module)
        if isinstance(node, ast.Call) and node.args and isinstance(node.args[0], ast.Constant):
            func = node.func
            name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
            return name in ("__import__", "import_module") and is_oracle(node.args[0].value)
        return False

    return scoped_sites(tree, match)


def test_the_package_imports_no_oracle():
    package = Path(fracnoether.__file__).parent
    found = {}
    for path in sorted(package.rglob("*.py")):
        for scope, line in oracle_import_sites(ast.parse(path.read_text())):
            found[f"{path.name}:{line}"] = scope
    assert found == {}


def test_the_oracle_guard_sees_every_spelling():
    source = (
        "import math, numpy as np\n"
        "from scipy.special import gamma\n"
        "from . import numpy_free\n"
        "from .sympy import x\n"
        "import numpyish, mathsympy\n"
        "class C:\n"
        "    def f(self):\n"
        "        import sympy.core\n"
        "def g():\n"
        "    from numpy import linalg\n"
        "    return __import__('scipy'), importlib.import_module('numpy.random')\n"
    )
    sites = oracle_import_sites(ast.parse(source))
    assert sites == [("", 1), ("", 2), ("C.f", 8), ("g", 10), ("g", 11), ("g", 11)]



# Where a blow-up may be named: the solve, at the first non-finite node or
# at the end of the step that raised, and the scan of its columns.
BLOW_UP_OWNERS = {"integrators.py:ivp_solve", "integrators.py:_raise_blow_up"}

# Where cli may catch its tuple of solver errors, and so pick exit code 3 or
# an error row: the command dispatch and the rows of one sweep alpha.
SOLVER_ERROR_CATCHERS = {"main", "_sweep_rows"}
SOLVER_ERROR_CLASSES = {"BlowUpError", "ShootingError", "SingularHessianError", "EvalDomainError"}


def handler_sites(tree: ast.AST, names: set[str]) -> list[tuple[str, int]]:
    """(enclosing class.function, line) of every ``except`` clause whose
    type names one of ``names``: alone, in a tuple, starred or as an
    attribute."""

    def match(node):
        if not isinstance(node, ast.ExceptHandler) or node.type is None:
            return False
        return any((sub.id if isinstance(sub, ast.Name) else getattr(sub, "attr", None)) in names
                   for sub in ast.walk(node.type))

    return scoped_sites(tree, match)


def test_one_owner_names_every_blow_up():
    package = Path(fracnoether.__file__).parent
    built, emitted = {}, {}
    for path in sorted(package.glob("*.py")):
        tree = ast.parse(path.read_text())
        for scope, line in string_sites(tree, "BlowUpError"):
            if scope.startswith("_emit_rk4_loop"):
                emitted[f"{path.name}:{line}"] = scope
        for scope, line in call_sites(tree, "BlowUpError"):
            built[f"{path.name}:{line}"] = f"{path.name}:{scope}"
    assert emitted == {}
    assert set(built.values()) == BLOW_UP_OWNERS, built


def test_one_tuple_of_solver_errors_caught_in_two_places():
    from fracnoether import cli
    from fracnoether.euler_lagrange import SingularHessianError
    from fracnoether.expressions import EvalDomainError
    from fracnoether.integrators import BlowUpError, ShootingError

    tree = ast.parse(Path(cli.__file__).read_text())
    assert {scope for scope, _ in handler_sites(tree, {"SOLVER_ERRORS"})} == SOLVER_ERROR_CATCHERS
    # a solver error is caught only through the tuple
    assert handler_sites(tree, SOLVER_ERROR_CLASSES) == []
    assert cli.SOLVER_ERRORS == (BlowUpError, ShootingError, SingularHessianError,
                                 EvalDomainError)


def test_the_blow_up_and_handler_guards_see_every_spelling():
    source = (
        "def _emit_rk4_loop(em):\n"
        "    def step():\n"
        "        return ['        raise _BlowUpError(full) from exc']\n"
        "    return step() + [f'{em}BlowUpError']\n"
        "def solve():\n"
        "    try:\n"
        "        raise integrators.BlowUpError(0.5)\n"
        "    except (cli.SOLVER_ERRORS, ValueError):\n"
        "        raise BlowUpError(1.0)\n"
        "    except (*SOLVER_ERRORS, KeyError):\n"
        "        pass\n"
        "    except EvalDomainError:\n"
        "        pass\n"
        "    except Exception:\n"
        "        pass\n"
    )
    tree = ast.parse(source)
    assert string_sites(tree, "BlowUpError") == [("_emit_rk4_loop.step", 3),
                                                 ("_emit_rk4_loop", 4)]
    assert call_sites(tree, "BlowUpError") == [("solve", 7), ("solve", 9)]
    assert handler_sites(tree, {"SOLVER_ERRORS"}) == [("solve", 8), ("solve", 10)]
    assert handler_sites(tree, SOLVER_ERROR_CLASSES) == [("solve", 12)]


# Where rho = h*(1 - alpha)/(t - b), the step times the drag's largest
# damping rate, may be formed, and where it may be compared with the RK4
# stability bound.
STIFFNESS_OWNERS = {"scenarios.py:Scenario.stiffness"}
STABILITY_OWNERS = {"scenarios.py:check_stable"}


def named(node, *names) -> bool:
    """Whether ``node`` is a name or attribute spelled as one of ``names``."""
    return (isinstance(node, ast.Name) and node.id in names) or (
        isinstance(node, ast.Attribute) and node.attr in names)


def stiffness_sites(tree: ast.AST) -> list[tuple[str, int]]:
    """(enclosing class.function, line) of every arithmetic expression, taken
    whole, that holds 1 - alpha (or ``drag_strength``) and a division by t
    minus the interval's end (``b``, ``.b`` or ``interval[...]``)."""
    operands = {id(child) for node in ast.walk(tree) if isinstance(node, ast.BinOp)
                for child in (node.left, node.right)}

    def drag(node):
        return named(node, "drag_strength") or (
            isinstance(node, ast.BinOp) and isinstance(node.op, ast.Sub)
            and isinstance(node.left, ast.Constant) and node.left.value == 1
            and named(node.right, "alpha"))

    def lag(node):
        if not (isinstance(node, ast.BinOp) and isinstance(node.op, ast.Div)):
            return False
        den = node.right
        end = den.right if isinstance(den, ast.BinOp) and isinstance(den.op, ast.Sub) else None
        return end is not None and (named(end, "b") or (
            isinstance(end, ast.Subscript) and named(end.value, "interval")))

    def match(node):
        if not isinstance(node, ast.BinOp) or id(node) in operands:
            return False
        inside = list(ast.walk(node))
        return any(map(drag, inside)) and any(map(lag, inside))

    return scoped_sites(tree, match)


def stability_sites(tree: ast.AST) -> list[tuple[str, int]]:
    """(enclosing class.function, line) of every comparison, or ``min`` or
    ``max`` call, that reads ``RK4_STABILITY_BOUND``."""

    def match(node):
        if isinstance(node, ast.Compare):
            sides = [node.left, *node.comparators]
        elif isinstance(node, ast.Call) and named(node.func, "min", "max"):
            sides = node.args
        else:
            return False
        return any(named(side, "RK4_STABILITY_BOUND") for side in sides)

    return scoped_sites(tree, match)


def test_rho_has_one_owner_and_one_comparison_with_the_bound():
    package = Path(fracnoether.__file__).parent
    formed, compared = {}, {}
    for path in sorted(package.glob("*.py")):
        tree = ast.parse(path.read_text())
        for scope, line in stiffness_sites(tree):
            formed[f"{path.name}:{line}"] = f"{path.name}:{scope}"
        for scope, line in stability_sites(tree):
            compared[f"{path.name}:{line}"] = f"{path.name}:{scope}"
    assert set(formed.values()) == STIFFNESS_OWNERS, formed
    assert set(compared.values()) == STABILITY_OWNERS, compared


def test_the_rho_guards_see_every_spelling():
    source = (
        "class Scenario:\n"
        "    def stiffness(self, alpha):\n"
        "        return h * (1.0 - alpha) / (self.observer_time - b)\n"
        "def rho(s, frac, h):\n"
        "    x = (1 - s.alpha) / (s.t - s.b) * h\n"
        "    y = h / (t - s.interval[1]) * frac.drag_strength\n"
        "    kernel = (1.0 - alpha) / (t - theta)\n"
        "    return h * (2.0 - alpha) / (t - b)\n"
        "def check(s, rho):\n"
        "    if rho > RK4_STABILITY_BOUND or integrators.RK4_STABILITY_BOUND <= rho:\n"
        "        return max(rho, RK4_STABILITY_BOUND) + RK4_STABILITY_BOUND / 2\n"
    )
    tree = ast.parse(source)
    assert stiffness_sites(tree) == [("Scenario.stiffness", 3), ("rho", 5), ("rho", 6)]
    assert stability_sites(tree) == [("check", 10), ("check", 10), ("check", 11)]
