"""Property-based tests: every rewriting pass preserves semantics.

Hypothesis builds random well-typed expression trees (including difference
and rename, beyond the CQ fragment) plus random states, and checks that

* ``simplify`` preserves evaluation,
* ``optimize`` preserves evaluation and stops at a true fixpoint,
* ``parse(str(expr)) == expr`` (printer/parser round-trip) for trees whose
  constants are printable.
"""

from __future__ import annotations

from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro import Relation, evaluate, parse
from repro.algebra.conditions import Comparison, attr, const
from repro.algebra.expressions import (
    Difference,
    Join,
    Project,
    RelationRef,
    Rename,
    Select,
    Union,
)
from repro.algebra.optimize import _rewrite, optimize
from repro.algebra.simplify import simplify

from .strategies import relation

SCOPE = {"R": ("a", "b"), "S": ("b", "c"), "T": ("a", "b")}
FRESH = "xyz"


#: SCOPE plus a wider relation: projections can narrow its selections.
WIDE_SCOPE = dict(SCOPE, F=("a", "b", "c"))


def expressions(depth: int, scope=SCOPE):
    leaves = st.sampled_from([RelationRef(name) for name in scope])
    if depth == 0:
        return leaves
    sub = expressions(depth - 1, scope)

    def combine(args):
        kind, left, right, value, pick = args
        try:
            left_attrs = frozenset(left.attributes(scope))
            right_attrs = frozenset(right.attributes(scope))
        except Exception:
            return left
        if kind == "join":
            return Join(left, right)
        if kind == "union" and left_attrs == right_attrs:
            return Union(left, right)
        if kind == "difference" and left_attrs == right_attrs:
            return Difference(left, right)
        if kind == "select":
            chosen = sorted(left_attrs)[pick % len(left_attrs)]
            op = ("=", "!=", "<", ">=")[value % 4]
            return Select(left, Comparison(attr(chosen), op, const(value)))
        if kind == "project":
            keep = sorted(left_attrs)[: 1 + pick % len(left_attrs)]
            return Project(left, tuple(keep))
        if kind == "rename":
            chosen = sorted(left_attrs)[pick % len(left_attrs)]
            target = FRESH[pick % len(FRESH)]
            if target in left_attrs:
                return left
            return Rename(left, {chosen: target})
        return left

    return st.tuples(
        st.sampled_from(
            ["join", "union", "difference", "select", "project", "rename"]
        ),
        sub,
        sub,
        st.integers(0, 3),
        st.integers(0, 5),
    ).map(combine)


def states():
    return st.fixed_dictionaries(
        {
            "R": relation(("a", "b")),
            "S": relation(("b", "c")),
            "T": relation(("a", "b")),
        }
    )


def _typed(expr, scope=SCOPE) -> bool:
    try:
        expr.attributes(scope)
        return True
    except Exception:
        return False


@given(expressions(3), states())
@settings(max_examples=150, deadline=None)
def test_simplify_preserves_semantics(expr, state):
    if not _typed(expr):
        return
    simplified = simplify(expr, SCOPE)
    assert evaluate(expr, state) == evaluate(simplified, state), str(expr)


@given(expressions(3), states())
@settings(max_examples=150, deadline=None)
def test_optimize_preserves_semantics(expr, state):
    if not _typed(expr):
        return
    optimized = optimize(expr, SCOPE)
    assert evaluate(expr, state) == evaluate(optimized, state), str(expr)


@given(expressions(3, WIDE_SCOPE))
@example(parse("pi[a](sigma[b > 3](pi[a, b](F)))"))
@settings(max_examples=150, deadline=None)
def test_optimize_reaches_fixpoint(expr):
    if not _typed(expr, WIDE_SCOPE):
        return
    optimized = optimize(expr, WIDE_SCOPE)
    again = simplify(_rewrite(optimized, WIDE_SCOPE), WIDE_SCOPE)
    assert again == optimized, f"{expr}: {optimized} -> {again}"


@given(expressions(3))
@settings(max_examples=150, deadline=None)
def test_parser_roundtrip(expr):
    assert parse(str(expr)) == expr, str(expr)


@given(expressions(2), states())
@settings(max_examples=80, deadline=None)
def test_simplify_idempotent(expr, state):
    if not _typed(expr):
        return
    once = simplify(expr, SCOPE)
    twice = simplify(once, SCOPE)
    assert once == twice, str(expr)
