"""The delta-driven semi-join reduction on the TPC-D star.

A one-order insert touches a handful of rows; the refresh must reduce the
fact-table reads by them (``EvalStats.reductions`` > 0). The reduction is
gated on the expression reading an update delta and on the fast paths being
on, so the reference tracks (``fastpath=False``, the differential harness's
uncached track) and the query path never take it.
"""

from __future__ import annotations

import random

import pytest

import repro.algebra.columnar_eval as columnar_eval
from repro import EvalStats, Relation, Warehouse
from repro.core.maintenance import refresh_state
from repro.obs.trace import RingBufferCollector, Tracer
from repro.storage.update import Delta, Update
from repro.workloads.tpcd import order_insert_rows, tpcd_instance


@pytest.fixture
def star():
    instance = tpcd_instance(scale=0.5, seed=3)
    # The reduction lives in the interpreted columnar evaluator.
    warehouse = Warehouse.specify(
        instance.catalog, instance.views, engine="columnar", compile_plans=False
    )
    warehouse.initialize(instance.database.copy())
    orders, lines = order_insert_rows(random.Random(0), instance.database, count=1)
    catalog = instance.catalog
    update = Update(
        [
            Delta("Orders", inserts=Relation(catalog["Orders"].attributes, orders)),
            Delta("Lineitem", inserts=Relation(catalog["Lineitem"].attributes, lines)),
        ]
    )
    return warehouse, update


def _expected_state(warehouse, update):
    state, _ = refresh_state(
        warehouse.spec, warehouse.state, update, fastpath=False, engine="tuple"
    )
    return state


def test_one_order_insert_refresh_reduces(star):
    warehouse, update = star
    expected = _expected_state(warehouse, update)
    warehouse.apply(update)
    assert warehouse.last_refresh_stats.reductions > 0
    assert warehouse.metrics.value("evaluator.reductions") > 0
    assert warehouse.state == expected


def test_reduced_refresh_traces_every_leaf_read(star):
    warehouse, update = star
    buffer = RingBufferCollector()
    stats = EvalStats()
    refresh_state(
        warehouse.spec, warehouse.state, update, stats=stats,
        tracer=Tracer([buffer]), engine="columnar",
    )
    assert stats.reductions > 0
    # refresh_state opens no root span: every top-level span is collected.
    spans = [span for root in buffer.roots for span in root.walk()]
    reduced = [span for span in spans if span.attributes.get("reduced")]
    assert reduced
    reads = [span for span in spans if span.name == "read"]
    assert reads and all("relation" in span.attributes for span in reads)
    assert any(span.attributes.get("reduced") for span in reads)


def test_no_reduction_without_fast_paths(star):
    warehouse, update = star
    stats = EvalStats()
    refresh_state(
        warehouse.spec, warehouse.state, update, stats=stats, fastpath=False,
        engine="columnar",
    )
    assert stats.nodes_evaluated > 0
    assert stats.reductions == 0


def test_no_reduction_on_the_uncached_differential_track(star):
    # The differential harness's "uncached" track: fresh memo per refresh,
    # fast paths off.
    warehouse, update = star
    stats = EvalStats()
    refresh_state(
        warehouse.spec, warehouse.state, update, cache=None, stats=stats,
        fastpath=False,
    )
    assert stats.reductions == 0


def test_no_reduction_on_answer(star, monkeypatch):
    warehouse, _ = star
    calls = []
    original = columnar_eval._eval_reduced

    def spy(expr, ctx, probe):
        calls.append(expr)
        return original(expr, ctx, probe)

    monkeypatch.setattr(columnar_eval, "_eval_reduced", spy)
    before = warehouse.eval_stats.reductions
    warehouse.answer("pi[orderkey, custkey](Orders join Lineitem)")
    warehouse.answer("Orders minus pi[orderkey, custkey, status, totalprice](Orders join Customer)")
    assert calls == []
    assert warehouse.eval_stats.reductions == before
