"""Relational algebra expression trees.

An :class:`Expression` is an immutable tree whose leaves are
:class:`RelationRef` (a name resolved against whatever state the expression
is evaluated on — a source database, a warehouse state, or a mixed state with
delta relations) and :class:`Empty` (a constant empty relation with explicit
schema, used by the simplifier and by complements that constraints prove
empty, as in Example 2.4 of the paper).

Schema computation (:meth:`Expression.attributes`) is relative to a *scope*:
a mapping from relation names to attribute tuples, e.g.
``{"Sale": ("item", "clerk")}``. A :class:`~repro.schema.catalog.Catalog` can
be turned into a scope with :func:`scope_of`.
"""

from __future__ import annotations

from typing import Dict, FrozenSet, Iterable, Mapping, Sequence, Tuple

from repro.errors import ExpressionError
from repro.algebra.conditions import Condition, TrueCondition

Scope = Mapping[str, Tuple[str, ...]]


def scope_of(source: object) -> Dict[str, Tuple[str, ...]]:
    """Build a scope (name -> attribute tuple) from common containers.

    Accepts a :class:`~repro.schema.catalog.Catalog`, a mapping of names to
    :class:`~repro.storage.relation.Relation` instances (a state), or a
    mapping of names to attribute sequences.
    """
    if hasattr(source, "schemas"):  # Catalog
        return {s.name: s.attributes for s in source.schemas()}  # type: ignore[attr-defined]
    if isinstance(source, Mapping):
        out: Dict[str, Tuple[str, ...]] = {}
        for name, value in source.items():
            if hasattr(value, "attributes"):
                out[name] = tuple(value.attributes)  # Relation or schema
            else:
                out[name] = tuple(value)
        return out
    raise ExpressionError(f"cannot derive a scope from {source!r}")


class Expression:
    """Base class of relational algebra expressions.

    Nodes are never mutated after construction, so the structural key
    (behind ``==``, ``hash`` and every memo) and the set of referenced
    relation names are computed once per node and kept on it.
    """

    __slots__ = ("_cached_key", "_cached_names")

    _cached_key: tuple
    _cached_names: FrozenSet[str]

    # -- structure ------------------------------------------------------

    def children(self) -> Tuple["Expression", ...]:
        """Immediate sub-expressions."""
        raise NotImplementedError

    def with_children(self, children: Sequence["Expression"]) -> "Expression":
        """A copy of this node over new children (same arity)."""
        raise NotImplementedError

    def _key(self) -> tuple:
        """The structural key, built on first use and then kept on the node."""
        try:
            return self._cached_key
        except AttributeError:
            key = self._cached_key = self._build_key()
            return key

    def _build_key(self) -> tuple:
        raise NotImplementedError

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Expression):
            return NotImplemented
        return self._key() == other._key()

    def __hash__(self) -> int:
        return hash(self._key())

    # -- schema ----------------------------------------------------------

    def attributes(self, scope: Scope) -> Tuple[str, ...]:
        """The output attribute tuple of this expression under ``scope``.

        Raises :class:`~repro.errors.ExpressionError` for badly-typed trees
        (union of different attribute sets, projection onto foreign
        attributes, selection over missing attributes, ...).
        """
        raise NotImplementedError

    def attribute_set(self, scope: Scope) -> FrozenSet[str]:
        """The output attributes as a frozen set."""
        return frozenset(self.attributes(scope))

    # -- traversal helpers ------------------------------------------------

    def relation_names(self) -> FrozenSet[str]:
        """Names of all :class:`RelationRef` leaves in this tree."""
        try:
            return self._cached_names
        except AttributeError:
            pass
        names = set()
        stack = [self]
        while stack:
            node = stack.pop()
            if isinstance(node, RelationRef):
                names.add(node.name)
            stack.extend(node.children())
        frozen = self._cached_names = frozenset(names)
        return frozen

    def walk(self) -> Iterable["Expression"]:
        """All nodes of the tree, pre-order."""
        stack = [self]
        while stack:
            node = stack.pop()
            yield node
            stack.extend(reversed(node.children()))

    def size(self) -> int:
        """Number of nodes in the tree."""
        return sum(1 for _ in self.walk())

    def __repr__(self) -> str:
        return f"<{type(self).__name__}: {self}>"


class RelationRef(Expression):
    """A leaf referring to a named relation in the evaluation state."""

    __slots__ = ("name",)

    def __init__(self, name: str) -> None:
        if not isinstance(name, str) or not name:
            raise ExpressionError(f"relation name must be a non-empty string: {name!r}")
        self.name = name

    def children(self) -> Tuple[Expression, ...]:
        return ()

    def with_children(self, children: Sequence[Expression]) -> "RelationRef":
        if children:
            raise ExpressionError("RelationRef has no children")
        return self

    def attributes(self, scope: Scope) -> Tuple[str, ...]:
        if self.name not in scope:
            raise ExpressionError(f"relation {self.name!r} not in scope")
        return tuple(scope[self.name])

    def _build_key(self) -> tuple:
        return ("ref", self.name)

    def __str__(self) -> str:
        return self.name


class Empty(Expression):
    """A constant empty relation with an explicit attribute tuple."""

    __slots__ = ("attrs",)

    def __init__(self, attributes: Sequence[str]) -> None:
        attrs = tuple(attributes)
        if len(set(attrs)) != len(attrs):
            raise ExpressionError(f"duplicate attributes in Empty schema {attrs}")
        if not attrs:
            raise ExpressionError("Empty requires at least one attribute")
        self.attrs = attrs

    def children(self) -> Tuple[Expression, ...]:
        return ()

    def with_children(self, children: Sequence[Expression]) -> "Empty":
        if children:
            raise ExpressionError("Empty has no children")
        return self

    def attributes(self, scope: Scope) -> Tuple[str, ...]:
        return self.attrs

    def _build_key(self) -> tuple:
        return ("empty", frozenset(self.attrs))

    def __str__(self) -> str:
        return f"empty[{', '.join(self.attrs)}]"


class Project(Expression):
    """Projection ``pi_attrs(child)`` (set semantics)."""

    __slots__ = ("child", "attrs")

    def __init__(self, child: Expression, attributes: Sequence[str]) -> None:
        attrs = tuple(attributes)
        if not attrs:
            raise ExpressionError("projection requires at least one attribute")
        if len(set(attrs)) != len(attrs):
            raise ExpressionError(f"duplicate attributes in projection {attrs}")
        self.child = child
        self.attrs = attrs

    def children(self) -> Tuple[Expression, ...]:
        return (self.child,)

    def with_children(self, children: Sequence[Expression]) -> "Project":
        (child,) = children
        return Project(child, self.attrs)

    def attributes(self, scope: Scope) -> Tuple[str, ...]:
        child_attrs = set(self.child.attributes(scope))
        missing = set(self.attrs) - child_attrs
        if missing:
            raise ExpressionError(
                f"projection onto {sorted(missing)} not possible: child of "
                f"{self} only has {sorted(child_attrs)}"
            )
        return self.attrs

    def _build_key(self) -> tuple:
        return ("project", frozenset(self.attrs), self.child._key())

    def __str__(self) -> str:
        return f"pi[{', '.join(self.attrs)}]({self.child})"


class Select(Expression):
    """Selection ``sigma_condition(child)``."""

    __slots__ = ("child", "condition")

    def __init__(self, child: Expression, condition: Condition) -> None:
        if not isinstance(condition, Condition):
            raise ExpressionError(f"selection condition must be a Condition: {condition!r}")
        self.child = child
        self.condition = condition

    def children(self) -> Tuple[Expression, ...]:
        return (self.child,)

    def with_children(self, children: Sequence[Expression]) -> "Select":
        (child,) = children
        return Select(child, self.condition)

    def attributes(self, scope: Scope) -> Tuple[str, ...]:
        child_attrs = self.child.attributes(scope)
        missing = self.condition.attributes() - set(child_attrs)
        if missing:
            raise ExpressionError(
                f"selection condition mentions {sorted(missing)}, not attributes "
                f"of {self.child}"
            )
        return child_attrs

    def _build_key(self) -> tuple:
        return ("select", self.condition._key(), self.child._key())

    def __str__(self) -> str:
        return f"sigma[{self.condition}]({self.child})"


class Join(Expression):
    """Natural join of two expressions over shared attribute names."""

    __slots__ = ("left", "right")

    def __init__(self, left: Expression, right: Expression) -> None:
        self.left = left
        self.right = right

    def children(self) -> Tuple[Expression, ...]:
        return (self.left, self.right)

    def with_children(self, children: Sequence[Expression]) -> "Join":
        left, right = children
        return Join(left, right)

    def attributes(self, scope: Scope) -> Tuple[str, ...]:
        left_attrs = self.left.attributes(scope)
        right_attrs = self.right.attributes(scope)
        left_set = set(left_attrs)
        return left_attrs + tuple(a for a in right_attrs if a not in left_set)

    def _build_key(self) -> tuple:
        # Natural join is associative, commutative, and idempotent under set
        # semantics, so equality flattens the join tree into the set of its
        # non-join operands (this also makes `parse(str(e)) == e` hold for
        # right-nested joins, which print flat).
        parts = []
        stack = [self]
        while stack:
            node = stack.pop()
            if isinstance(node, Join):
                stack.extend((node.left, node.right))
            else:
                parts.append(node._key())
        return ("join", frozenset(parts))

    def __str__(self) -> str:
        def wrap(side: Expression) -> str:
            if isinstance(side, (Union, Difference)):
                return f"({side})"
            return str(side)

        return f"{wrap(self.left)} join {wrap(self.right)}"


class Union(Expression):
    """Set union; both sides must have the same attribute set."""

    __slots__ = ("left", "right")

    def __init__(self, left: Expression, right: Expression) -> None:
        self.left = left
        self.right = right

    def children(self) -> Tuple[Expression, ...]:
        return (self.left, self.right)

    def with_children(self, children: Sequence[Expression]) -> "Union":
        left, right = children
        return Union(left, right)

    def attributes(self, scope: Scope) -> Tuple[str, ...]:
        left_attrs = self.left.attributes(scope)
        right_attrs = self.right.attributes(scope)
        if set(left_attrs) != set(right_attrs):
            raise ExpressionError(
                f"union of incompatible schemata {left_attrs} vs {right_attrs}"
            )
        return left_attrs

    def _build_key(self) -> tuple:
        # Union is associative, commutative, and idempotent: flatten, like
        # Join above.
        parts = []
        stack = [self]
        while stack:
            node = stack.pop()
            if isinstance(node, Union):
                stack.extend((node.left, node.right))
            else:
                parts.append(node._key())
        return ("union", frozenset(parts))

    def __str__(self) -> str:
        def wrap(side: Expression) -> str:
            if isinstance(side, Difference):
                return f"({side})"
            return str(side)

        return f"{wrap(self.left)} union {wrap(self.right)}"


class Difference(Expression):
    """Set difference ``left minus right``; attribute sets must agree."""

    __slots__ = ("left", "right")

    def __init__(self, left: Expression, right: Expression) -> None:
        self.left = left
        self.right = right

    def children(self) -> Tuple[Expression, ...]:
        return (self.left, self.right)

    def with_children(self, children: Sequence[Expression]) -> "Difference":
        left, right = children
        return Difference(left, right)

    def attributes(self, scope: Scope) -> Tuple[str, ...]:
        left_attrs = self.left.attributes(scope)
        right_attrs = self.right.attributes(scope)
        if set(left_attrs) != set(right_attrs):
            raise ExpressionError(
                f"difference of incompatible schemata {left_attrs} vs {right_attrs}"
            )
        return left_attrs

    def _build_key(self) -> tuple:
        return ("difference", self.left._key(), self.right._key())

    def __str__(self) -> str:
        def wrap(side: Expression) -> str:
            if isinstance(side, (Union, Difference)):
                return f"({side})"
            return str(side)

        return f"{wrap(self.left)} minus {wrap(self.right)}"


class Rename(Expression):
    """Attribute renaming ``rho_{old->new}(child)``.

    Realizes footnote 3 of the paper: general inclusion dependencies are
    handled "by a suitable application of the renaming operator".
    """

    __slots__ = ("child", "mapping")

    def __init__(self, child: Expression, mapping: Mapping[str, str]) -> None:
        cleaned = {old: new for old, new in mapping.items() if old != new}
        if not cleaned:
            raise ExpressionError("rename requires at least one changed attribute")
        self.child = child
        self.mapping = dict(cleaned)

    def children(self) -> Tuple[Expression, ...]:
        return (self.child,)

    def with_children(self, children: Sequence[Expression]) -> "Rename":
        (child,) = children
        return Rename(child, self.mapping)

    def attributes(self, scope: Scope) -> Tuple[str, ...]:
        child_attrs = self.child.attributes(scope)
        unknown = set(self.mapping) - set(child_attrs)
        if unknown:
            raise ExpressionError(
                f"rename of {sorted(unknown)}: not attributes of {self.child}"
            )
        out = tuple(self.mapping.get(a, a) for a in child_attrs)
        if len(set(out)) != len(out):
            raise ExpressionError(f"rename {self.mapping} collides: {out}")
        return out

    def _build_key(self) -> tuple:
        return ("rename", tuple(sorted(self.mapping.items())), self.child._key())

    def __str__(self) -> str:
        pairs = ", ".join(
            f"{old} -> {new}" for old, new in sorted(self.mapping.items())
        )
        return f"rho[{pairs}]({self.child})"


# ----------------------------------------------------------------------
# Builder helpers
# ----------------------------------------------------------------------


def rel(name: str) -> RelationRef:
    """A reference to the relation named ``name``."""
    return RelationRef(name)


def empty(attributes: Sequence[str]) -> Empty:
    """The constant empty relation over ``attributes``."""
    return Empty(attributes)


def project(child: Expression, attributes: Sequence[str]) -> Project:
    """``pi_attributes(child)``."""
    return Project(child, attributes)


def select(child: Expression, condition: Condition) -> Expression:
    """``sigma_condition(child)``; a TRUE condition returns ``child``."""
    if isinstance(condition, TrueCondition):
        return child
    return Select(child, condition)


def join(first: Expression, *rest: Expression) -> Expression:
    """The natural join of one or more expressions (left-deep)."""
    out = first
    for nxt in rest:
        out = Join(out, nxt)
    return out


def union(first: Expression, *rest: Expression) -> Expression:
    """The union of one or more expressions (left-deep)."""
    out = first
    for nxt in rest:
        out = Union(out, nxt)
    return out


def difference(left: Expression, right: Expression) -> Difference:
    """``left minus right``."""
    return Difference(left, right)


def rename(child: Expression, mapping: Mapping[str, str]) -> Expression:
    """``rho_mapping(child)``; an identity mapping returns ``child``."""
    if all(old == new for old, new in mapping.items()):
        return child
    return Rename(child, mapping)
