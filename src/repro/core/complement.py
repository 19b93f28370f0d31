"""Complement computation: Proposition 2.2 and Theorem 2.2.

Given a catalog ``D`` and a warehouse definition ``V`` (a set of named PSJ
views), this module computes

* a complement ``C = {C_1, ..., C_n}`` — one complementary view per base
  relation, where

  - Proposition 2.2 (no constraints):  ``C_i = R_i - R̂_i`` with
    ``R̂_i = U_{V_j in V_{R_i}} pi_{R_i}(V_j)`` (projection in the paper's
    "or empty" convention);
  - Theorem 2.2 (keys + INDs):  ``C_i = R_i - (R̂_i ∪ R̂_i^ir)`` where
    ``R̂_i^ir`` unions ``pi_{R_i}`` over the extension joins of all covers
    in ``C_{R_i}^ind``;

* the inverse mapping ``W^{-1}`` (Equation (4)):
  ``R_i = C_i ∪ R̂_i ∪ R̂_i^ir`` — expressed over *warehouse* relation names
  only. IND pseudo-views ``pi_X(R_k)`` inside covers are replaced by
  ``R_k``'s own inverse representation, processed in topological order of
  the acyclic IND graph (footnote 3 of the paper; Example 2.3 continued
  shows the effect);

* optional **emptiness pruning**: complements that constraint analysis
  proves empty on every legal state (Example 2.4's referential-integrity
  collapse, and Example 2.3's lossless key-join case) are replaced by
  ``Empty`` and dropped from the stored warehouse.

The result is a :class:`WarehouseSpec`, the object the rest of the library
(query translation, maintenance, the ``Warehouse`` runtime) consumes.
"""

from __future__ import annotations

from typing import Dict, FrozenSet, List, Mapping, Sequence, Tuple

from repro.errors import SchemaError, WarehouseError
from repro.algebra.expressions import (
    Difference,
    Empty,
    Expression,
    Join,
    Project,
    RelationRef,
    Union,
    Scope,
)
from repro.algebra.deltas import del_name, ins_name
from repro.algebra.rewriting import substitute
from repro.algebra.simplify import simplify
from repro.schema.catalog import Catalog
from repro.views.analysis import (
    _join_preserves,
    condition_implied_by_checks,
    join_complete_relations,
)
from repro.views.psj import View
from repro.core.covers import CoverElement, enumerate_covers, ind_key_views


class ComplementView:
    """One complementary view ``C_i`` for base relation ``relation``.

    ``definition`` is an expression over base relations and *view names*
    (view names are convenient for display; substitute the view definitions
    to obtain a pure view over ``D`` — see :meth:`definition_over_sources`).
    """

    __slots__ = ("name", "relation", "definition", "provably_empty")

    def __init__(
        self, name: str, relation: str, definition: Expression, provably_empty: bool
    ) -> None:
        self.name = name
        self.relation = relation
        self.definition = definition
        self.provably_empty = provably_empty

    def definition_over_sources(self, views: Sequence[View]) -> Expression:
        """The definition with view names replaced by view definitions."""
        replacements = {view.name: view.definition for view in views}
        return substitute(self.definition, replacements)

    def __repr__(self) -> str:
        flag = ", provably empty" if self.provably_empty else ""
        return f"ComplementView({self.name} = {self.definition}{flag})"

    def __str__(self) -> str:
        return f"{self.name} = {self.definition}"


class WarehouseSpec:
    """A complete warehouse specification: views, complement, and inverse.

    Attributes
    ----------
    catalog:
        The source catalog ``D``.
    views:
        The warehouse definition ``V`` (named views).
    complements:
        ``{relation: ComplementView}`` — one complement per base relation.
        Provably-empty complements are present (for inspection) but are not
        materialized.
    inverses:
        ``{relation: Expression}`` — Equation (4), over warehouse names only
        (view names plus non-empty complement names).
    method:
        ``"prop22"``, ``"thm22"``, or ``"trivial"``.
    """

    def __init__(
        self,
        catalog: Catalog,
        views: Sequence[View],
        complements: Mapping[str, ComplementView],
        inverses: Mapping[str, Expression],
        method: str,
    ) -> None:
        self.catalog = catalog
        self.views = tuple(views)
        self.complements = dict(complements)
        self.inverses = dict(inverses)
        self.method = method
        self._touched_inverses: Dict[str, Expression] = {}

    # -- naming and scopes ------------------------------------------------

    def view_names(self) -> Tuple[str, ...]:
        """Names of the original warehouse views."""
        return tuple(view.name for view in self.views)

    def complement_names(self) -> Tuple[str, ...]:
        """Names of the *materialized* (non-empty) complements."""
        return tuple(
            c.name for c in self.complements.values() if not c.provably_empty
        )

    def warehouse_names(self) -> Tuple[str, ...]:
        """All materialized warehouse relation names (views + complements)."""
        return self.view_names() + self.complement_names()

    def source_scope(self) -> Dict[str, Tuple[str, ...]]:
        """Scope of the base relations."""
        return {s.name: s.attributes for s in self.catalog.schemas()}

    def warehouse_scope(self) -> Dict[str, Tuple[str, ...]]:
        """Scope of the warehouse relations (views + stored complements)."""
        scope = self.source_scope()
        out: Dict[str, Tuple[str, ...]] = {}
        for view in self.views:
            out[view.name] = view.definition.attributes(scope)
        for complement in self.complements.values():
            if not complement.provably_empty:
                out[complement.name] = self.catalog[complement.relation].attributes
        return out

    def definitions_over_sources(self) -> Dict[str, Expression]:
        """Every warehouse relation as an expression over base relations.

        This is the mapping ``W`` of the paper (Proposition 2.1): evaluating
        these expressions over a database state yields the warehouse state.
        """
        out: Dict[str, Expression] = {}
        for view in self.views:
            out[view.name] = view.definition
        for complement in self.complements.values():
            if not complement.provably_empty:
                out[complement.name] = complement.definition_over_sources(self.views)
        return out

    def storage_expressions(self) -> Dict[str, Expression]:
        """Alias of :meth:`definitions_over_sources`."""
        return self.definitions_over_sources()

    def inverse_for(self, relation: str) -> Expression:
        """Equation (4) for one base relation."""
        if relation not in self.inverses:
            raise WarehouseError(f"no inverse recorded for relation {relation!r}")
        return self.inverses[relation]

    def touched_inverse(self, relation: str) -> Expression:
        """The reconstructed rows of ``relation`` that an update mentions.

        ``(R__ins ∪ R__del) ⋈ W⁻¹(R)``: all that
        :func:`repro.core.maintenance.normalize_update` needs. Built once
        per relation and kept on the spec, not rebuilt per refresh.
        """
        expression = self._touched_inverses.get(relation)
        if expression is None:
            touched = Union(RelationRef(ins_name(relation)), RelationRef(del_name(relation)))
            expression = Join(touched, self.inverse_for(relation))
            self._touched_inverses[relation] = expression
        return expression

    def describe(self) -> str:
        """Multi-line description: views, complements, inverses."""
        lines = [f"method: {self.method}", "views:"]
        lines.extend(f"  {view}" for view in self.views)
        lines.append("complement:")
        for complement in self.complements.values():
            suffix = "  (provably empty, not stored)" if complement.provably_empty else ""
            lines.append(f"  {complement}{suffix}")
        lines.append("inverses (Equation 4):")
        for relation, expr in self.inverses.items():
            lines.append(f"  {relation} = {expr}")
        return "\n".join(lines)


# ----------------------------------------------------------------------
# Shared pieces
# ----------------------------------------------------------------------


def _fresh_complement_name(relation: str, taken: FrozenSet[str]) -> str:
    base = f"C_{relation}"
    name = base
    counter = 2
    while name in taken:
        name = f"{base}_{counter}"
        counter += 1
    return name


def _hat_expression(
    catalog: Catalog, views: Sequence[View], relation: str, scope: Scope
) -> Expression:
    """``R̂_i``: union of ``pi_{attr(R_i)}`` over views retaining all of it.

    Views whose output attributes do not include ``attr(R_i)`` contribute the
    empty relation (the paper's projection convention) and are skipped.
    Expressed over *view names*.
    """
    attrs = catalog[relation].attributes
    attr_set = set(attrs)
    parts: List[Expression] = []
    for view in views:
        psj = view.psj(scope)
        if not psj.involves(relation):
            continue
        view_attrs = set(view.definition.attributes(scope))
        if attr_set <= view_attrs:
            parts.append(Project(RelationRef(view.name), attrs))
    if not parts:
        return Empty(attrs)
    out = parts[0]
    for part in parts[1:]:
        out = Union(out, part)
    return out


def _cover_join(
    relation_attrs: Sequence[str], cover: Sequence[CoverElement]
) -> Expression:
    """``pi_{attr(R)}`` of the extension join of one cover."""
    out: Expression = cover[0].expression
    for element in cover[1:]:
        out = Join(out, element.expression)
    return Project(out, relation_attrs)


def _hat_ir_expression(
    catalog: Catalog, views: Sequence[View], relation: str
) -> Tuple[Expression, List[Tuple[CoverElement, ...]]]:
    """``R̂_i^ir``: union over all covers of the projected extension join.

    Expressed over view names and (for IND pseudo-views) base relation
    names; the inverse builder substitutes the latter. Also returns the
    covers for inspection.
    """
    schema = catalog[relation]
    elements = ind_key_views(catalog, views, relation)
    covers = enumerate_covers(elements, frozenset(schema.attribute_set))
    if not covers:
        return Empty(schema.attributes), []
    parts = [_cover_join(schema.attributes, cover) for cover in covers]
    out = parts[0]
    for part in parts[1:]:
        out = Union(out, part)
    return out, covers


def _provably_empty(
    catalog: Catalog,
    views: Sequence[View],
    relation: str,
    scope: Scope,
    use_keys: bool,
) -> bool:
    """Whether ``C_relation`` is empty on every constraint-satisfying state.

    Two sufficient conditions (both realized in the paper's examples):

    * some view retains all of ``attr(R)`` and is join-complete for ``R``
      (Example 2.4 — referential integrity guarantees join partners);
    * ``R`` has a key, and some cover of ``attr(R)`` consists solely of
      *views* (not IND pseudo-views) that each preserve every ``R`` tuple in
      their joins (Example 2.3 — the lossless key-join ``V_3 join V_4``).
    """
    for view in views:
        psj = view.psj(scope)
        if not psj.involves(relation):
            continue
        if relation in join_complete_relations(psj, catalog):
            return True
    if not use_keys:
        return False
    schema = catalog[relation]
    if schema.key is None:
        return False
    # Covers made of tuple-preserving views reconstruct R completely.
    preserving: List[CoverElement] = []
    for element in ind_key_views(catalog, views, relation):
        if element.kind != "view":
            continue
        view = next(v for v in views if v.name == element.label)
        psj = view.psj(scope)
        if condition_implied_by_checks(psj, catalog) and _join_preserves(
            psj, relation, catalog
        ):
            preserving.append(element)
    covers = enumerate_covers(preserving, frozenset(schema.attribute_set))
    return bool(covers)


def provably_empty_complements(
    catalog: Catalog, views: Sequence[View], use_keys: bool = True
) -> FrozenSet[str]:
    """Relations whose complement is empty on every legal state.

    The public face of the emptiness analysis that ``prune_empty`` uses
    internally (see :func:`_provably_empty` for the two sufficient
    conditions); the lint pass reports a stored-but-empty complement as
    ``W0041``. Views that are not PSJ (e.g. union-integrated fact tables)
    are skipped, which can only make the result smaller — the analysis
    stays sound.

    Examples
    --------
    >>> from repro.schema import Catalog
    >>> from repro.algebra.parser import parse
    >>> catalog = Catalog()
    >>> _ = catalog.relation("Sale", ("item", "clerk"))
    >>> _ = catalog.relation("Emp", ("clerk", "age"), key=("clerk",))
    >>> _ = catalog.inclusion("Sale", ("clerk",), "Emp")
    >>> sorted(provably_empty_complements(
    ...     catalog, [View("Sold", parse("Sale join Emp"))]
    ... ))
    ['Sale']
    """
    scope = {s.name: s.attributes for s in catalog.schemas()}
    psj_views = [view for view in views if view.is_psj()]
    return frozenset(
        schema.name
        for schema in catalog.schemas()
        if _provably_empty(catalog, psj_views, schema.name, scope, use_keys=use_keys)
    )


# ----------------------------------------------------------------------
# Proposition 2.2
# ----------------------------------------------------------------------


def complement_prop22(
    catalog: Catalog, views: Sequence[View], prune_empty: bool = False
) -> WarehouseSpec:
    """The Proposition 2.2 complement (no integrity constraints used).

    For each base relation ``R_i``: ``C_i = R_i - R̂_i`` and the inverse is
    ``R_i = C_i ∪ R̂_i``. With ``prune_empty`` the constraint-based emptiness
    analysis still runs (useful for comparison); by default it does not, to
    match the constraint-free setting of the proposition.

    Examples
    --------
    >>> from repro.schema import Catalog
    >>> from repro.algebra.parser import parse
    >>> from repro.views.psj import View
    >>> catalog = Catalog()
    >>> _ = catalog.relation("Sale", ("item", "clerk"))
    >>> _ = catalog.relation("Emp", ("clerk", "age"))
    >>> spec = complement_prop22(catalog, [View("Sold", parse("Sale join Emp"))])
    >>> print(spec.complements["Sale"])
    C_Sale = Sale minus pi[item, clerk](Sold)
    """
    _check_views(catalog, views)
    scope = {s.name: s.attributes for s in catalog.schemas()}
    rich_scope = dict(scope)
    for view in views:
        rich_scope[view.name] = view.definition.attributes(scope)
    taken = frozenset(catalog.relation_names()) | {v.name for v in views}
    complements: Dict[str, ComplementView] = {}
    inverses: Dict[str, Expression] = {}
    for schema in catalog.schemas():
        relation = schema.name
        hat = _hat_expression(catalog, views, relation, scope)
        name = _fresh_complement_name(relation, taken)
        taken = taken | {name}
        rich_scope[name] = schema.attributes
        definition = simplify(Difference(RelationRef(relation), hat), rich_scope)
        empty_proof = prune_empty and _provably_empty(
            catalog, views, relation, scope, use_keys=False
        )
        if empty_proof:
            definition = Empty(schema.attributes)
        complements[relation] = ComplementView(name, relation, definition, empty_proof)
        recompute: Expression = hat if empty_proof else Union(RelationRef(name), hat)
        inverses[relation] = simplify(recompute, rich_scope)
    return WarehouseSpec(catalog, views, complements, inverses, "prop22")


# ----------------------------------------------------------------------
# Theorem 2.2
# ----------------------------------------------------------------------


def complement_thm22(
    catalog: Catalog,
    views: Sequence[View],
    use_keys: bool = True,
    use_inds: bool = True,
    prune_empty: bool = True,
) -> WarehouseSpec:
    """The Theorem 2.2 complement (keys and inclusion dependencies).

    Parameters
    ----------
    use_keys, use_inds:
        Ablation switches: with both off this coincides with Proposition
        2.2; with keys only, covers contain warehouse views only; with INDs
        too, covers may contain IND pseudo-views whose base references are
        substituted by their inverses (footnote 3), processed in topological
        IND order.
    prune_empty:
        Replace provably-empty complements by ``Empty`` and drop them from
        storage (Examples 2.3 and 2.4).
    """
    _check_views(catalog, views)
    scope = {s.name: s.attributes for s in catalog.schemas()}
    rich_scope = dict(scope)
    for view in views:
        rich_scope[view.name] = view.definition.attributes(scope)
    taken = frozenset(catalog.relation_names()) | {v.name for v in views}
    complements: Dict[str, ComplementView] = {}
    hats: Dict[str, Expression] = {}
    hat_irs: Dict[str, Expression] = {}

    for schema in catalog.schemas():
        relation = schema.name
        hat = _hat_expression(catalog, views, relation, scope)
        if use_keys:
            restricted_catalog = catalog if use_inds else _without_inds(catalog)
            hat_ir, _covers = _hat_ir_expression(restricted_catalog, views, relation)
        else:
            hat_ir = Empty(schema.attributes)
        hats[relation] = hat
        hat_irs[relation] = hat_ir

        name = _fresh_complement_name(relation, taken)
        taken = taken | {name}
        known = simplify(Union(hat, hat_ir), rich_scope)
        definition = simplify(Difference(RelationRef(relation), known), rich_scope)
        empty_proof = prune_empty and _provably_empty(
            catalog if use_inds else _without_inds(catalog),
            views,
            relation,
            scope,
            use_keys=use_keys,
        )
        if empty_proof:
            definition = Empty(schema.attributes)
        complements[relation] = ComplementView(name, relation, definition, empty_proof)

    inverses = _build_inverses(catalog, views, complements, hats, hat_irs)
    method = "thm22" if (use_keys or use_inds) else "prop22"
    return WarehouseSpec(catalog, views, complements, inverses, method)


def _without_inds(catalog: Catalog) -> Catalog:
    """A copy of ``catalog`` with all inclusion dependencies removed."""
    stripped = Catalog()
    for schema in catalog.schemas():
        stripped.add_relation(schema)
        for check in catalog.checks(schema.name):
            stripped.add_check(schema.name, check)
    return stripped


def _build_inverses(
    catalog: Catalog,
    views: Sequence[View],
    complements: Mapping[str, ComplementView],
    hats: Mapping[str, Expression],
    hat_irs: Mapping[str, Expression],
) -> Dict[str, Expression]:
    """Equation (4) for every relation, over warehouse names only.

    ``R̂_i^ir`` may reference base relations through IND pseudo-views; these
    are substituted by the already-built inverse of the referenced relation.
    The catalog's IND topological order (lhs before rhs) guarantees the
    needed inverse exists when required.
    """
    inverses: Dict[str, Expression] = {}
    scope: Dict[str, Tuple[str, ...]] = {
        s.name: s.attributes for s in catalog.schemas()
    }
    for view in views:
        scope[view.name] = view.definition.attributes(scope)
    for complement in complements.values():
        if not complement.provably_empty:
            scope[complement.name] = catalog[complement.relation].attributes
    for relation in catalog.inclusion_order():
        schema = catalog[relation]
        complement = complements[relation]
        parts: List[Expression] = []
        if not complement.provably_empty:
            parts.append(RelationRef(complement.name))
        parts.append(hats[relation])
        hat_ir = hat_irs[relation]
        # Substitute base references inside the covers by their inverses.
        base_refs = {
            name: inverses[name]
            for name in hat_ir.relation_names()
            if name in inverses
        }
        remaining = {
            name
            for name in hat_ir.relation_names()
            if name in catalog and name not in base_refs
        }
        if remaining:
            raise SchemaError(
                f"inverse of {relation!r} needs inverses of {sorted(remaining)} "
                "which are not yet available; IND order violated"
            )
        parts.append(substitute(hat_ir, base_refs))
        expr: Expression = parts[0]
        for part in parts[1:]:
            expr = Union(expr, part)
        inverses[relation] = simplify(expr, scope)
    return inverses


def _check_views(catalog: Catalog, views: Sequence[View]) -> None:
    scope = {s.name: s.attributes for s in catalog.schemas()}
    seen = set()
    for view in views:
        if view.name in seen:
            raise WarehouseError(f"duplicate view name {view.name!r}")
        if view.name in catalog:
            raise WarehouseError(
                f"view name {view.name!r} collides with a base relation"
            )
        seen.add(view.name)
        psj = view.psj(scope)  # raises for non-PSJ definitions
        for relation in psj.relations:
            if relation not in catalog:
                raise WarehouseError(
                    f"view {view.name!r} references unknown relation {relation!r}"
                )
        view.definition.attributes(scope)  # type check


def complement_trivial(catalog: Catalog, views: Sequence[View]) -> WarehouseSpec:
    """The trivial complement: copy every base relation to the warehouse.

    "Every warehouse has at least one complement (since copying all base
    relations to the warehouse creates a complement), but obviously the
    interest is in complements that are minimal" (Section 1). This spec is
    the storage-maximal baseline the benchmarks compare against: inverses
    are plain references, so maintenance is cheap, but the warehouse stores
    a full replica of the sources.
    """
    _check_views(catalog, views)
    taken = frozenset(catalog.relation_names()) | {v.name for v in views}
    complements: Dict[str, ComplementView] = {}
    inverses: Dict[str, Expression] = {}
    for schema in catalog.schemas():
        name = _fresh_complement_name(schema.name, taken)
        taken = taken | {name}
        complements[schema.name] = ComplementView(
            name, schema.name, RelationRef(schema.name), False
        )
        inverses[schema.name] = RelationRef(name)
    return WarehouseSpec(catalog, views, complements, inverses, "trivial")


def specify(
    catalog: Catalog,
    views: Sequence[View],
    method: str = "thm22",
    **options,
) -> WarehouseSpec:
    """Section 5, Step 1: compute a complement and the inverse mapping.

    ``method`` selects ``"thm22"`` (default; constraints exploited),
    ``"prop22"`` (constraint-free baseline), or ``"trivial"`` (copy all base
    relations — the storage-maximal baseline).
    """
    if method == "thm22":
        return complement_thm22(catalog, views, **options)
    if method == "prop22":
        return complement_prop22(catalog, views, **options)
    if method == "trivial":
        return complement_trivial(catalog, views, **options)
    raise WarehouseError(f"unknown complement method {method!r}")
