"""The columnar evaluation path: PSJ expressions over batch kernels.

This is the engine selected by ``REPRO_ENGINE=columnar`` (or an explicit
``engine="columnar"``): structurally the same evaluator as
:mod:`repro.algebra.evaluator` — per-call memo, cross-update
:class:`~repro.algebra.evaluator.EvaluationCache`, semi-/anti-join fast
paths, a zero-overhead untraced path with a tracing twin — but every
operator dispatches to a :class:`~repro.storage.columnar.ColumnarTable`
kernel instead of a tuple-set method:

* leaves encode through :meth:`Relation.columnar`, which caches the
  dictionary-coded twin on the relation instance (and the maintenance
  layer delta-patches it across refreshes, so big relations encode once);
* predicates evaluate over dictionary codes
  (:meth:`ColumnarTable.select`), joins hash on encoded key columns
  (:meth:`ColumnarTable.join`); a projection of a selection,
  ``pi_Z(sigma_c(e))``, runs as the one fused
  :meth:`ColumnarTable.select_project` kernel (the same one the plan
  compiler emits);
* results stay columnar through the whole expression tree — **late
  materialization**: value tuples are rebuilt only at the public API
  boundary (:func:`evaluate_columnar` returns ordinary ``Relation``
  objects, so ``repro.core.maintenance`` and every caller work unchanged);
* on expressions that read an update delta (``R__ins`` / ``R__del``), a
  join or difference operand that is smaller than what its sibling reads
  probes the sibling: **delta-driven semi-join reduction**, so a refresh
  costs in proportion to the update rather than to the fact table
  (``docs/fastpath.md``, layer 4). Queries never read a delta and are
  evaluated unreduced.

Sharing one :class:`EvaluationCache` between both engines is safe: columnar
entries are stored under tagged keys, and both are validated by the same
:class:`~repro.algebra.evaluator.StateVersion` instance-identity check.

Identity contract (mirrored from the tuple engine): evaluating a bare
:class:`RelationRef` returns the state's bound ``Relation`` object itself,
and materialized results are cached per table, so unchanged sub-expressions
yield object-identical relations across refreshes — which is what keeps
``StateVersion`` checks and the warehouse's no-op detection working.
"""

from __future__ import annotations

from typing import Dict, FrozenSet, Mapping, Optional, Tuple

from repro.errors import EvaluationError
from repro.algebra.deltas import DELETE_SUFFIX, INSERT_SUFFIX
from repro.algebra.evaluator import (
    Cache,
    EvalStats,
    EvaluationCache,
    State,
    _SPAN_NAMES,
    _check_memo_state,
    _join_operands,
)
from repro.algebra.expressions import (
    Difference,
    Empty,
    Expression,
    Join,
    Project,
    RelationRef,
    Rename,
    Select,
    Union,
)
from repro.storage.columnar import ColumnarTable
from repro.storage.relation import Relation

#: Tag prefix keeping columnar memo/cache entries apart from tuple-engine
#: entries when one cache object is shared between both engines.
_TAG = "@columnar"

_SCOPE_KEY = ("@columnar", "__scope__")

#: Memo tag for per-call attribute sets (needed only by the reduction).
_ATTRS_TAG = "@columnar-attrs"

#: Memo tag for probes projected onto a projection's kept attributes.
_PROBE_TAG = "@columnar-probe"

_DELTA_SUFFIXES = (INSERT_SUFFIX, DELETE_SUFFIX)


def _memo_key(expr: Expression) -> tuple:
    return (_TAG, expr._key())


def _reads_delta(expression: Expression) -> bool:
    """Whether ``expression`` reads an update delta (``R__ins``/``R__del``).

    The gate of the semi-join reduction: only maintenance and
    normalization expressions read deltas, and only there is a small probe
    known to exist. Queries over the warehouse never reduce.
    """
    return any(name.endswith(_DELTA_SUFFIXES) for name in expression.relation_names())


class _Context:
    """Per-call plumbing: memo, optional cache, stats, flags (columnar)."""

    __slots__ = ("state", "memo", "cache", "stats", "fastpath", "tracer", "reduce")

    def __init__(
        self,
        state: State,
        cache: Optional[Cache],
        stats: Optional[EvalStats],
        fastpath: bool,
        tracer=None,
    ) -> None:
        if isinstance(cache, EvaluationCache):
            self.memo: Dict[tuple, object] = {}
            self.cache: Optional[EvaluationCache] = cache
        else:
            self.memo = cache if cache is not None else {}
            _check_memo_state(self.memo, state)
            self.cache = None
        self.state = state
        self.stats = stats if stats is not None else EvalStats()
        self.fastpath = fastpath
        self.tracer = tracer
        self.reduce = False

    def start(self, expression: Expression) -> None:
        """Arm the reduction for one top-level expression (see the gate)."""
        self.reduce = self.fastpath and _reads_delta(expression)


def evaluate_columnar(
    expression: Expression,
    state: State,
    cache: Optional[Cache] = None,
    *,
    stats: Optional[EvalStats] = None,
    fastpath: bool = True,
    tracer=None,
) -> Relation:
    """Evaluate ``expression`` over ``state`` with the columnar kernels.

    Drop-in equivalent of :func:`repro.algebra.evaluator.evaluate` (same
    parameters, same result relation, same identity guarantees); only the
    physical execution differs. Normally reached via
    ``evaluate(..., engine="columnar")`` or ``REPRO_ENGINE=columnar``.
    """
    ctx = _Context(state, cache, stats, fastpath, tracer)
    return _materialize(expression, ctx)


def evaluate_all_columnar(
    expressions: Mapping[str, Expression],
    state: State,
    cache: Optional[Cache] = None,
    *,
    stats: Optional[EvalStats] = None,
    fastpath: bool = True,
    tracer=None,
) -> Dict[str, Relation]:
    """Evaluate several named expressions columnar-ly, sharing the memo."""
    ctx = _Context(state, cache, stats, fastpath, tracer)
    return {name: _materialize(expr, ctx) for name, expr in expressions.items()}


def _materialize(expr: Expression, ctx: _Context) -> Relation:
    """Run the columnar evaluation, then decode at the API boundary.

    A bare :class:`RelationRef` returns the bound relation object itself
    (identity parity with the tuple engine); everything else decodes via
    :meth:`ColumnarTable.to_relation`, which caches the materialized
    relation on the table so cross-update cache hits stay object-identical.
    """
    ctx.start(expr)
    table = _eval(expr, ctx)
    if isinstance(expr, RelationRef):
        return ctx.state[expr.name]
    return table.to_relation()


# ----------------------------------------------------------------------
# Delta-driven semi-join reduction
# ----------------------------------------------------------------------
#
# ``_eval(expr, ctx, probe)`` with a probe table ``X`` may return any
# ``R`` with ``expr ⋉ X ⊆ R ⊆ expr`` (semi-join on the shared attributes),
# which implies ``R ⋉ X = expr ⋉ X``. That is all a caller needs when it
# only uses ``expr`` through ``X ⋈ expr`` or ``X − expr``. Joins and
# differences pass their already-evaluated, smaller operand as the probe of
# the other one; the probe is pushed down to the leaves, so a refresh reads
# the rows of the fact table that match the update instead of all of them.


def _largest(expr: Expression, ctx: _Context) -> int:
    """Rows of the largest bound relation ``expr`` reads."""
    get = ctx.state.get
    return max(
        (len(relation) for relation in map(get, expr.relation_names()) if relation is not None),
        default=0,
    )


def _attrs(expr: Expression, ctx: _Context) -> FrozenSet[str]:
    """The attribute set of ``expr`` over the state (memoized per call)."""
    key = (_ATTRS_TAG, expr._key())
    attrs = ctx.memo.get(key)
    if attrs is None:
        if isinstance(expr, RelationRef):
            attrs = frozenset(_bound(expr, ctx).attributes)
        elif isinstance(expr, (Empty, Project)):
            attrs = frozenset(expr.attrs)
        elif isinstance(expr, Join):
            attrs = _attrs(expr.left, ctx) | _attrs(expr.right, ctx)
        elif isinstance(expr, Rename):
            attrs = frozenset(expr.mapping.get(a, a) for a in _attrs(expr.child, ctx))
        else:  # Select, Union, Difference keep their (left) child's schema
            attrs = _attrs(expr.children()[0], ctx)
        ctx.memo[key] = attrs
    return attrs  # type: ignore[return-value]


def _reduces(expr: Expression, probe: ColumnarTable, ctx: _Context) -> bool:
    """Whether ``expr`` is evaluated reduced by ``probe``.

    Only when the probe is smaller than what ``expr`` reads and shares an
    attribute with it. Renames are evaluated in full (their attributes
    would have to be mapped back through the probe).
    """
    return (
        not isinstance(expr, (Rename, Empty))
        and len(probe) < _largest(expr, ctx)
        and not _attrs(expr, ctx).isdisjoint(probe.attributes)
    )


def _eval_reduced(expr: Expression, ctx: _Context, probe: ColumnarTable) -> ColumnarTable:
    """``expr`` reduced by ``probe``, memoized under ``(key, probe)``.

    A full result already in the memo or the cross-update cache is
    semi-joined with the probe; otherwise the probe is pushed into the
    node. Reduced results never enter the cross-update cache or the memo
    under the plain key: they are only valid next to their probe.
    """
    key = _memo_key(expr)
    reduced_key = (key, probe)
    hit = ctx.memo.get(reduced_key)
    if hit is not None:
        ctx.stats.memo_hits += 1
        return hit  # type: ignore[return-value]
    full = ctx.memo.get(key)
    if full is None and ctx.cache is not None:
        full = ctx.cache.lookup(key, ctx.state)
        if full is not None:
            ctx.stats.cache_hits += 1
            ctx.memo[key] = full
        else:
            ctx.stats.cache_misses += 1
    if full is not None:
        if ctx.tracer is not None:
            ctx.tracer.annotate(cached=True)
        result = full.semi_join(probe)  # type: ignore[union-attr]
    else:
        result = _eval_node(expr, ctx, probe)
        ctx.stats.nodes_evaluated += 1
        ctx.stats.reductions += 1
    ctx.memo[reduced_key] = result
    return result


# ----------------------------------------------------------------------
# The evaluator
# ----------------------------------------------------------------------


def _eval(
    expr: Expression, ctx: _Context, probe: Optional[ColumnarTable] = None
) -> ColumnarTable:
    if ctx.tracer is not None:
        return _eval_traced(expr, ctx, probe)
    if probe is not None and _reduces(expr, probe, ctx):
        return _eval_reduced(expr, ctx, probe)
    key = _memo_key(expr)
    hit = ctx.memo.get(key)
    if hit is not None:
        ctx.stats.memo_hits += 1
        return hit  # type: ignore[return-value]
    if ctx.cache is not None:
        cached = ctx.cache.lookup(key, ctx.state)
        if cached is not None:
            ctx.stats.cache_hits += 1
            ctx.memo[key] = cached
            return cached  # type: ignore[return-value]
        ctx.stats.cache_misses += 1
    result = _eval_node(expr, ctx)
    ctx.stats.nodes_evaluated += 1
    ctx.memo[key] = result
    if ctx.cache is not None:
        ctx.cache.store(key, ctx.state, expr, result)  # type: ignore[arg-type]
    return result


def _eval_traced(
    expr: Expression, ctx: _Context, probe: Optional[ColumnarTable] = None
) -> ColumnarTable:
    """The tracing twin of :func:`_eval`: same logic, plus per-node spans.

    Span names and attributes mirror the tuple engine exactly — in
    particular every :class:`RelationRef` actually computed (or served
    from the cross-update cache) yields a ``read`` span carrying the
    ``relation`` attribute, which is what the ``REPRO_CHECK_INVARIANTS=1``
    dataflow sanitizer cross-checks against static read sets. The only
    additions are ``engine="columnar"`` on every span, kernel-level row
    counts on joins, and ``reduced=True`` on nodes evaluated under a probe
    (the reduction itself is :func:`_eval_reduced`, shared with the
    untraced path).
    """
    name = _SPAN_NAMES.get(type(expr), "node")
    if probe is not None and _reduces(expr, probe, ctx):
        with ctx.tracer.span(name, engine="columnar", reduced=True) as span:
            result = _eval_reduced(expr, ctx, probe)
            span.attributes["rows_out"] = len(result)
            if isinstance(expr, RelationRef):
                span.attributes["relation"] = expr.name
        return result
    key = _memo_key(expr)
    hit = ctx.memo.get(key)
    if hit is not None:
        ctx.stats.memo_hits += 1
        return hit  # type: ignore[return-value]
    if ctx.cache is not None:
        cached = ctx.cache.lookup(key, ctx.state)
        if cached is not None:
            ctx.stats.cache_hits += 1
            ctx.memo[key] = cached
            with ctx.tracer.span(
                name, cached=True, rows_out=len(cached), engine="columnar"
            ) as span:
                if isinstance(expr, RelationRef):
                    span.attributes["relation"] = expr.name
            return cached  # type: ignore[return-value]
        ctx.stats.cache_misses += 1
    with ctx.tracer.span(name, engine="columnar") as span:
        result = _eval_node(expr, ctx)
        span.attributes["rows_out"] = len(result)
        if isinstance(expr, RelationRef):
            span.attributes["relation"] = expr.name
    ctx.stats.nodes_evaluated += 1
    ctx.memo[key] = result
    if ctx.cache is not None:
        ctx.cache.store(key, ctx.state, expr, result)  # type: ignore[arg-type]
    return result


def _scope(ctx: _Context):
    scope = ctx.memo.get(_SCOPE_KEY)
    if scope is None:
        scope = {name: relation.attributes for name, relation in ctx.state.items()}
        ctx.memo[_SCOPE_KEY] = scope
    return scope


def _bound(expr: RelationRef, ctx: _Context) -> Relation:
    relation = ctx.state.get(expr.name)
    if relation is None:
        raise EvaluationError(
            f"relation {expr.name!r} is not bound in the evaluation state "
            f"(bound: {sorted(ctx.state)})"
        )
    return relation


def _kernel_join(left: ColumnarTable, right: ColumnarTable, ctx: _Context) -> ColumnarTable:
    if ctx.tracer is not None:
        ctx.tracer.annotate(rows_in_left=len(left), rows_in_right=len(right))
    result = left.join(right)
    ctx.stats.joins += 1
    ctx.stats.rows_joined += len(result)
    return result


def _first(candidate: Expression, other: Expression, ctx: _Context) -> bool:
    """Whether ``candidate`` should be evaluated before ``other`` to probe it.

    An operand reading an update delta goes first (its result is what the
    update touches); between equals, the one reading less.
    """
    delta = _reads_delta(candidate)
    if delta != _reads_delta(other):
        return delta
    return _largest(candidate, ctx) < _largest(other, ctx)


def _join_inputs(
    expr: Join, ctx: _Context, probe: Optional[ColumnarTable]
) -> Optional[Tuple[ColumnarTable, ColumnarTable]]:
    """Both operands of a join, in its order; ``None`` if one is empty.

    With the reduction armed, the operand reading less is evaluated first
    (under a probe: an operand sharing attributes with it), and the other
    one is evaluated reduced by it.
    """
    left_expr, right_expr = expr.left, expr.right
    swap = False
    if probe is not None:
        swap = _attrs(left_expr, ctx).isdisjoint(probe.attributes) or (
            not _attrs(right_expr, ctx).isdisjoint(probe.attributes)
            and _first(right_expr, left_expr, ctx)
        )
    elif ctx.reduce:
        swap = _first(right_expr, left_expr, ctx)
    if swap:
        left_expr, right_expr = right_expr, left_expr
    first = _eval(left_expr, ctx, probe)
    if not first:
        return None
    second = _eval(right_expr, ctx, first if ctx.reduce else None)
    if not second:
        return None
    return (second, first) if swap else (first, second)


def _eval_project(
    expr: Project, ctx: _Context, probe: Optional[ColumnarTable]
) -> ColumnarTable:
    if probe is not None:
        # Only the kept attributes are shared with the projection's result.
        # The projected probe is memoized so that equal projections of one
        # probe are one object, and the reduced results below it are shared.
        kept = tuple(a for a in probe.attributes if a in expr.attrs)
        if len(kept) < len(probe.attributes):
            probe_key = (_PROBE_TAG, probe, kept)
            projected = ctx.memo.get(probe_key)
            if projected is None:
                projected = ctx.memo[probe_key] = probe.project(kept)
            probe = projected  # type: ignore[assignment]
    child = expr.child
    if isinstance(child, Select):
        # pi_Z(sigma_c(e)), the optimizer's leaf shape: one fused kernel
        # gathers only the kept columns of the matching rows.
        return _eval(child.child, ctx, probe).select_project(
            child.condition, expr.attrs
        )
    if not (ctx.fastpath and isinstance(child, Join)):
        return _eval(child, ctx, probe).project(expr.attrs)
    # Same fast path as the tuple engine: pi_Z(L join R) with Z inside one
    # operand's schema is a semi-join over encoded keys.
    if _memo_key(child) in ctx.memo:
        return _eval(child, ctx, probe).project(expr.attrs)
    inputs = _join_inputs(child, ctx, probe)
    if inputs is None:
        return ColumnarTable.empty(expr.attrs)
    left, right = inputs
    target = frozenset(expr.attrs)
    if target <= left.attribute_set:
        ctx.stats.semijoin_fastpaths += 1
        if ctx.tracer is not None:
            ctx.tracer.annotate(fastpath="semi_join")
        return left.semi_join(right).project(expr.attrs)
    if target <= right.attribute_set:
        ctx.stats.semijoin_fastpaths += 1
        if ctx.tracer is not None:
            ctx.tracer.annotate(fastpath="semi_join")
        return right.semi_join(left).project(expr.attrs)
    return _eval(child, ctx, probe).project(expr.attrs)


def _eval_difference(
    expr: Difference, ctx: _Context, left: ColumnarTable
) -> ColumnarTable:
    # With the reduction armed, the right side only has to be right for
    # the rows of ``left``: it is evaluated reduced by ``left``.
    probe = left if ctx.reduce else None
    right = expr.right
    if (
        ctx.fastpath
        and isinstance(right, Project)
        and isinstance(right.child, Join)
        and _memo_key(right) not in ctx.memo
        and frozenset(right.attrs) == left.attribute_set
    ):
        # Proposition 2.2's complement shape R - pi_{attr(R)}(R join S)
        # as a hash anti-join on encoded keys (two-operand joins only,
        # matching the tuple engine's restriction).
        operands = _join_operands(right.child)
        if len(operands) == 2:
            left_key = expr.left._key()
            for index, operand in enumerate(operands):
                if operand._key() == left_key:
                    other = _eval(operands[1 - index], ctx, probe)
                    ctx.stats.antijoin_fastpaths += 1
                    if ctx.tracer is not None:
                        ctx.tracer.annotate(fastpath="anti_join")
                    return left.anti_join(other)
    return left.difference(_eval(right, ctx, probe))


def _eval_node(
    expr: Expression, ctx: _Context, probe: Optional[ColumnarTable] = None
) -> ColumnarTable:
    """One node; under a ``probe`` (see :func:`_eval_reduced`) it is pushed
    through Select, Union, Join (operands reduce each other), Project (on
    the kept attributes) and Difference (left by the probe, right by the
    left result) down to the leaves, which are semi-joined with it."""
    if isinstance(expr, RelationRef):
        table = _bound(expr, ctx).columnar()
        return table if probe is None else table.semi_join(probe)

    if isinstance(expr, Empty):
        return ColumnarTable.empty(expr.attrs)

    if isinstance(expr, Project):
        return _eval_project(expr, ctx, probe)

    if isinstance(expr, Select):
        return _eval(expr.child, ctx, probe).select(expr.condition)

    if isinstance(expr, Join):
        inputs = _join_inputs(expr, ctx, probe)
        if inputs is None:
            return ColumnarTable.empty(expr.attributes(_scope(ctx)))
        return _kernel_join(inputs[0], inputs[1], ctx)

    if isinstance(expr, Union):
        left = _eval(expr.left, ctx, probe)
        right = _eval(expr.right, ctx, probe)
        return left.union(right)

    if isinstance(expr, Difference):
        left = _eval(expr.left, ctx, probe)
        if not left:
            return left
        return _eval_difference(expr, ctx, left)

    if isinstance(expr, Rename):
        return _eval(expr.child, ctx).rename(expr.mapping)

    raise EvaluationError(f"unknown expression node {type(expr).__name__}")
