"""Property: the delta-driven semi-join reduction agrees with evaluation.

The columnar evaluator may evaluate an expression ``E`` reduced by a probe
table ``X`` (see ``docs/fastpath.md``). Whatever it returns must lie
between ``E ⋉ X`` and ``E``, so it agrees with ``E`` on every row matching
``X``: ``reduce(E, X) ⋉ X == evaluate(E) ⋉ X``.

Catalogs, databases and PSJ views come from :mod:`repro.workloads.generator`.
The expressions are the views themselves and their derived delta
expressions (which add unions and differences over ``R__ins`` / ``R__del``);
probes are a few rows over a random attribute subset, built from values
that occur in the state.
"""

from __future__ import annotations

import random

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro import Relation, evaluate
from repro.algebra.columnar_eval import _Context, _eval
from repro.algebra.deltas import del_name, derive_delta, ins_name
from repro.obs.trace import RingBufferCollector, Tracer
from repro.workloads.generator import random_catalog, random_database, random_views

DOMAIN = 4


def _case(seed: int, traced: bool):
    rng = random.Random(seed)
    catalog = random_catalog(rng)
    database = random_database(rng, catalog, rows_per_relation=10, domain_size=DOMAIN)
    views = random_views(rng, catalog, n_views=2, domain_size=DOMAIN)
    scope = {s.name: s.attributes for s in catalog.schemas()}
    state = dict(database.state())
    updated = rng.choice(sorted(scope))
    attrs = scope[updated]
    current = sorted(state[updated].rows, key=repr)
    state[del_name(updated)] = Relation(attrs, rng.sample(current, min(2, len(current))))
    fresh = [
        tuple(f"{updated}_new{i}" if j == 0 else rng.randrange(DOMAIN) for j in range(len(attrs)))
        for i in range(2)
    ]
    state[ins_name(updated)] = Relation(attrs, fresh + current[:1])
    expressions = []
    for view in views:
        expressions.append(view.definition)
        expressions.extend(derive_delta(view.definition, [updated], scope))
    expression = rng.choice(expressions)
    # Probe rows combine values seen in the state, over a random attribute
    # subset, so they match some rows of every relation and miss others.
    values = {}
    for relation in state.values():
        for attribute, column in zip(relation.attributes, zip(*sorted(relation.rows, key=repr))):
            values.setdefault(attribute, set()).update(column)
    pool = sorted(values)
    attrs = rng.sample(pool, rng.randint(1, min(3, len(pool))))
    rows = [
        tuple(rng.choice(sorted(values[a], key=repr)) for a in attrs)
        for _ in range(rng.randint(1, 3))
    ]
    probe = Relation(attrs, rows)
    tracer = Tracer([RingBufferCollector(capacity=4)]) if traced else None
    return expression, state, probe, tracer


@settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(st.integers(min_value=0, max_value=10**6), st.booleans())
def test_reduced_result_agrees_with_evaluation_on_the_probe(seed, traced):
    expression, state, probe, tracer = _case(seed, traced)
    full = evaluate(expression, state, engine="columnar")
    ctx = _Context(state, None, None, True, tracer)
    ctx.reduce = True
    reduced = _eval(expression, ctx, probe.columnar()).to_relation()
    assert reduced.attribute_set == full.attribute_set
    assert not reduced.difference(full), "a reduced result must be a subset of the full one"
    assert reduced.semi_join(probe) == full.semi_join(probe)
