"""Heuristic logical optimization: selection pushdown, projection pruning.

Translated queries (``Q ∘ W⁻¹``) and derived maintenance expressions keep
whole inverse expressions under selections and projections; pushing those
down cuts intermediate results substantially (benchmark E6). All rules are
classical and sound for set semantics:

* ``sigma_c(l ⋈ r)``   — conjuncts referencing only one side move there;
* ``sigma_c(l ∪ r)``   — distributes to both sides;
* ``sigma_c(l − r)``   — distributes to both sides;
* ``sigma_c(pi_Z(e))`` — commutes inside (condition attrs are within Z);
* ``sigma_c(rho(e))``  — commutes inside with renamed condition;
* ``pi_Z(l ⋈ r)``      — each side keeps only Z plus the join attributes;
* ``pi_Z(l ∪ r)``      — distributes to both sides;
* ``pi_Z(sigma_c(l ⋈ r))`` — each join side keeps only Z, the condition
  attributes and the join attributes.

A scope (name -> attributes) is required: the rules need subtree schemas.
The result is finished with :func:`~repro.algebra.simplify.simplify`.

The rules stop at a true fixpoint, and its leaf shape is canonical:
``pi_Z(sigma_c(R))``, the selection on the stored relation and the
projection above it. A projection is never put *between* a selection and
its input, because ``sigma_c(pi_Z(e))`` commutes straight back out and
the two rules would undo each other on every pass.
"""

from __future__ import annotations

from typing import List, Tuple

from repro.algebra.conditions import (
    Condition,
    FalseCondition,
    TrueCondition,
    conjoin,
)
from repro.algebra.expressions import (
    Difference,
    Empty,
    Expression,
    Join,
    Project,
    Rename,
    Scope,
    Select,
    Union,
)
from repro.algebra.simplify import simplify

_MAX_PASSES = 25


def optimize(expression: Expression, scope: Scope) -> Expression:
    """Push selections and prune projections, then simplify.

    Examples
    --------
    >>> from repro.algebra.parser import parse
    >>> scope = {"R": ("a", "b"), "S": ("b", "c")}
    >>> print(optimize(parse("sigma[a = 1 and c = 2](R join S)"), scope))
    sigma[a = 1](R) join sigma[c = 2](S)
    """
    current = simplify(expression, scope)
    for _ in range(_MAX_PASSES):
        pushed = _rewrite(current, scope)
        pushed = simplify(pushed, scope)
        if pushed == current:
            return pushed
        current = pushed
    return current


def _rewrite(expr: Expression, scope: Scope) -> Expression:
    children = tuple(_rewrite(child, scope) for child in expr.children())
    if children != expr.children():
        expr = expr.with_children(children)

    if isinstance(expr, Select):
        return _push_select(expr, scope)
    if isinstance(expr, Project):
        return _push_project(expr, scope)
    return expr


def _split_conjuncts(
    condition: Condition, attrs: frozenset
) -> Tuple[List[Condition], List[Condition]]:
    """Partition conjuncts into (within ``attrs``, rest)."""
    inside: List[Condition] = []
    outside: List[Condition] = []
    for part in condition.conjuncts():
        if part.attributes() <= attrs:
            inside.append(part)
        else:
            outside.append(part)
    return inside, outside


def _push_select(expr: Select, scope: Scope) -> Expression:
    child = expr.child
    condition = expr.condition

    if isinstance(child, Join):
        left_attrs = child.left.attribute_set(scope)
        right_attrs = child.right.attribute_set(scope)
        left_parts, rest = _split_conjuncts(condition, left_attrs)
        right_parts, remaining = _split_conjuncts(conjoin(rest), right_attrs)
        if not left_parts and not right_parts:
            return expr
        new_left: Expression = child.left
        if left_parts:
            new_left = Select(child.left, conjoin(left_parts))
        new_right: Expression = child.right
        if right_parts:
            new_right = Select(child.right, conjoin(right_parts))
        out: Expression = Join(new_left, new_right)
        kept = conjoin(remaining)
        if not isinstance(kept, TrueCondition):
            out = Select(out, kept)
        return out

    if isinstance(child, Union):
        return Union(
            Select(child.left, condition), Select(child.right, condition)
        )

    if isinstance(child, Difference):
        # sigma_c(l - r) == sigma_c(l) - r  (and also == sigma_c(l) -
        # sigma_c(r)); subtracting the unfiltered right side is valid and
        # cheaper to push.
        return Difference(Select(child.left, condition), child.right)

    if isinstance(child, Project):
        return Project(Select(child.child, condition), child.attrs)

    if isinstance(child, Rename):
        inverse = {new: old for old, new in child.mapping.items()}
        return Rename(Select(child.child, condition.renamed(inverse)), child.mapping)

    return expr


def _narrow(side: Expression, keep: frozenset, scope: Scope) -> Expression:
    """``side`` projected onto ``keep ∩ attrs(side)`` (if that narrows it)."""
    attrs = side.attributes(scope)
    wanted = tuple(a for a in attrs if a in keep)
    if len(wanted) == len(attrs) or not wanted:
        return side
    return Project(side, wanted)


def _push_project(expr: Project, scope: Scope) -> Expression:
    child = expr.child
    target = frozenset(expr.attrs)

    if isinstance(child, Join):
        left_attrs = child.left.attribute_set(scope)
        right_attrs = child.right.attribute_set(scope)
        join_attrs = left_attrs & right_attrs
        keep = target | join_attrs
        new_left = _narrow(child.left, keep, scope)
        new_right = _narrow(child.right, keep, scope)
        if new_left == child.left and new_right == child.right:
            return expr
        return Project(Join(new_left, new_right), expr.attrs)

    if isinstance(child, Union):
        return Union(
            Project(child.left, expr.attrs), Project(child.right, expr.attrs)
        )

    if isinstance(child, Select) and isinstance(child.child, Join):
        # A selection left on a join reads both sides (the pushdown moved
        # every one-sided conjunct): narrow the sides below it.
        join = child.child
        left_attrs = join.left.attribute_set(scope)
        right_attrs = join.right.attribute_set(scope)
        keep = target | child.condition.attributes() | (left_attrs & right_attrs)
        new_left = _narrow(join.left, keep, scope)
        new_right = _narrow(join.right, keep, scope)
        if new_left == join.left and new_right == join.right:
            return expr
        return Project(Select(Join(new_left, new_right), child.condition), expr.attrs)

    return expr


def fuse_chains(expression: Expression, scope: Scope) -> Expression:
    """Collapse operator chains so one pass can execute each of them.

    The plan compiler's rewrite set (:mod:`repro.compiler.fuse`): applied
    bottom-up once, each rule is a sound set-semantics identity that turns
    an operator *chain* into a single node the compiled closures execute
    in one kernel call —

    * ``sigma_c2(sigma_c1(e))``  →  ``sigma_{c1 and c2}(e)``;
    * ``pi_Z2(pi_Z1(e))``        →  ``pi_Z2(e)`` (``Z2 ⊆ Z1`` by typing);
    * ``sigma_TRUE(e)`` → ``e``, ``sigma_FALSE(e)`` → ``∅``;
    * identity projections and renamings disappear;
    * the empty relation folds through every operator (``e ⋈ ∅ = ∅``,
      ``e ∪ ∅ = e``, ``e − ∅ = e``, ``∅ − e = ∅``, …) — this is what
      prunes dead branches out of compiled maintenance plans.

    Examples
    --------
    >>> from repro.algebra.parser import parse
    >>> scope = {"R": ("a", "b")}
    >>> print(fuse_chains(parse("sigma[a = 1](sigma[b = 2](R))"), scope))
    sigma[b = 2 and a = 1](R)
    >>> print(fuse_chains(parse("pi[a](pi[a, b](R))"), scope))
    pi[a](R)
    """
    children = tuple(fuse_chains(child, scope) for child in expression.children())
    if children != expression.children():
        expression = expression.with_children(children)

    if isinstance(expression, Select):
        child = expression.child
        if isinstance(child, Empty):
            return child
        if isinstance(expression.condition, FalseCondition):
            return Empty(expression.attributes(scope))
        if isinstance(expression.condition, TrueCondition):
            return child
        if isinstance(child, Select):
            merged = conjoin([child.condition, expression.condition])
            if isinstance(merged, FalseCondition):
                return Empty(expression.attributes(scope))
            return Select(child.child, merged)
        return expression

    if isinstance(expression, Project):
        child = expression.child
        if isinstance(child, Empty):
            return Empty(expression.attrs)
        if isinstance(child, Project):
            return Project(child.child, expression.attrs)
        if expression.attrs == child.attributes(scope):
            return child
        return expression

    if isinstance(expression, Join):
        if isinstance(expression.left, Empty) or isinstance(expression.right, Empty):
            return Empty(expression.attributes(scope))
        return expression

    if isinstance(expression, Union):
        if isinstance(expression.left, Empty):
            return expression.right
        if isinstance(expression.right, Empty):
            return expression.left
        return expression

    if isinstance(expression, Difference):
        if isinstance(expression.left, Empty):
            return expression.left
        if isinstance(expression.right, Empty):
            return expression.left
        return expression

    if isinstance(expression, Rename):
        if isinstance(expression.child, Empty):
            return Empty(expression.attributes(scope))
        if all(old == new for old, new in expression.mapping.items()):
            return expression.child
        return expression

    return expression
