"""Theta-only values on a grid, for the loops of a Newton shoot.

The net force of the weighted Euler-Lagrange equation holds subtrees of
theta alone, the kernel (1 - alpha)/(t - theta) first, with the same values
along every trajectory on one grid.  The solves of
:func:`fracnoether.integrators.bvp_shoot` all run on one grid, so it
evaluates those subtrees once and its loops read them.  Only shooting
imports this module.
"""

from __future__ import annotations

import functools

from .expressions import Const, Emitter, Expr, Q, Theta, V, shaped


class Columns:
    """Theta-only trees evaluated once on a grid, at its nodes and at its
    half-nodes ``th + hh``, spelled as the RK4 loop spells them, for the
    solves on the grid to read instead of computing them.

    :func:`fracnoether.integrators._final_state` gives the ODE of a shoot
    one, which its Newton loop fills and every solve of the shoot reads,
    wherever a subtree equal to a tree held here appears; a lone solve has
    none, as the builder would cost it about what its loop saves.  A tree
    that raises somewhere on the grid gets no values, so loops write it out.
    """

    __slots__ = ("grid", "halves", "values")

    def __init__(self, grid: tuple, hh: float):
        self.grid, self.halves = grid, [th + hh for th in grid[:-1]]
        self.values: dict[Expr, tuple | None] = {}  # tree -> (at nodes, at half-nodes)

    def fill(self, trees) -> None:
        """Evaluate each largest theta-only subtree of ``trees``
        (:func:`state_free_roots`) not evaluated yet, by a compiled builder
        emitted once per shape."""
        for tree in state_free_roots(trees):
            if tree not in self.values:
                builder = shaped(("column",), tree, functools.partial(_emit_column, tree))
                try:
                    self.values[tree] = (builder(self.grid), builder(self.halves))
                except (ArithmeticError, ValueError):
                    self.values[tree] = None

    def held(self) -> list[Expr]:
        """The trees with values, in the order they were evaluated."""
        return [tree for tree, pair in self.values.items() if pair is not None]


def _emit_column(tree: Expr, em: Emitter):
    """Emit ``column(thetas)``, the list of ``tree`` at each theta."""
    value = em.emit(tree)
    source = [
        f"def column(thetas{em.keyword_defaults()}):",
        "    values = []",
        "    append = values.append",
        "    for theta in thetas:",
        *em.body("        "),
        f"        append({value})",
        "    return values",
    ]
    return source, "column", {}


def state_free_roots(trees) -> list[Expr]:
    """The largest subtrees of ``trees`` (an expression, or nested sequences
    of them) without a coordinate or velocity leaf, a lone constant or
    theta aside: each node once, in the order a left-to-right walk
    finishes it."""
    free: dict[int, bool] = {}
    roots: dict[int, Expr] = {}

    def root(e: Expr) -> None:
        if type(e) is not Const and type(e) is not Theta:
            roots.setdefault(id(e), e)

    def visit(e: Expr) -> bool:
        hit = free.get(id(e))
        if hit is None:
            children = e.children()
            kids = [visit(child) for child in children]
            hit = free[id(e)] = type(e) is not Q and type(e) is not V and all(kids)
            if not hit:
                for child, kid in zip(children, kids):
                    if kid:
                        root(child)
        return hit

    def item(x) -> None:
        if isinstance(x, Expr):
            if visit(x):
                root(x)
        else:
            for y in x:
                item(y)

    item(trees)
    return list(roots.values())
