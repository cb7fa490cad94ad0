"""Every concrete expression node has an emission rule, checked on the source."""

import ast
import inspect
import textwrap

import struct

import pytest
import tree_walk_oracle

from fracnoether import expressions
from fracnoether.expressions import Expr, ExpressionError, Q

# One value for each field type a node declares.
FIELD_VALUES = {"Expr": Q(0), "int": 0, "float": 1.5}


def node_classes() -> tuple[set[type], set[type]]:
    """(concrete, private base) subclasses of ``Expr``, found recursively;
    each is the class the module binds under its name."""
    found, stack = set(), [Expr]
    while stack:
        for cls in stack.pop().__subclasses__():
            stack.append(cls)
            assert vars(expressions).get(cls.__name__) is cls, cls
            found.add(cls)
    private = {cls for cls in found if cls.__name__.startswith("_")}
    return found - private, private


def dispatched(tree: ast.AST, namespace) -> set:
    """The classes a dispatch on ``kind`` names: ``kind is X`` and the keys
    of every table in ``kind in TABLE``."""
    classes = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Compare) and isinstance(node.left, ast.Name) \
                and node.left.id == "kind":
            for op, right in zip(node.ops, node.comparators):
                if isinstance(right, ast.Name):
                    value = getattr(namespace, right.id)
                    classes |= {value} if isinstance(op, ast.Is) else set(value)
    return classes


def declared_fields(cls) -> dict[str, str]:
    """The fields a node declares, name to type: the annotated parameters of
    its constructor, which must be the slots its classes add to ``Expr``."""
    fields = dict(getattr(cls.__init__, "__annotations__", {}))
    slots = [name for base in reversed(cls.__mro__[:-2]) for name in vars(base)["__slots__"]]
    assert list(fields) == slots, cls
    return fields


def instance(cls) -> Expr:
    return cls(*(FIELD_VALUES[t] for t in declared_fields(cls).values()))


def test_emitter_dispatches_on_exactly_the_concrete_nodes():
    concrete, private = node_classes()
    assert private == {expressions._Coordinate, expressions._Unary, expressions._Binary}
    tree = ast.parse(textwrap.dedent(inspect.getsource(expressions.Emitter._emit)))
    assert dispatched(tree, expressions) == concrete


def test_every_concrete_node_compiles_to_the_walks_value():
    concrete, _ = node_classes()
    theta, q, v = [0.5, 0.6], [(0.7,), (0.8,)], [(0.3,), (0.2,)]
    for cls in concrete:
        e = instance(cls)
        walked = [struct.pack("<d", tree_walk_oracle.value(e, *point))
                  for point in zip(theta, q, v)]
        scalar = e.evaluate(theta[0], q[0], v[0])
        assert struct.pack("<d", scalar) == walked[0], cls.__name__
        grid = expressions.evaluate_on_grid(e, theta, q, v)
        assert [struct.pack("<d", x) for x in grid] == walked, cls.__name__


def test_no_private_base_reaches_the_emitter():
    _, private = node_classes()
    for cls in private:
        with pytest.raises(ExpressionError, match="cannot compile node type"):
            expressions.compile_trees(instance(cls))


def test_the_dispatch_reader_sees_both_spellings():
    class Tables:
        A, B, C = int, float, str
        TABLE = {B: "b", C: "c"}

    source = "if kind is A or kind is B:\n    pass\nelif kind in TABLE:\n    pass\n"
    assert dispatched(ast.parse(source), Tables) == {int, float, str}
