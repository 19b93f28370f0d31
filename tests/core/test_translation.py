"""Unit tests for :mod:`repro.core.translation`."""

from __future__ import annotations

import pathlib
import random

import pytest

from repro import (
    Catalog,
    Relation,
    View,
    WarehouseError,
    complement_thm22,
    evaluate,
    parse,
)
from repro.core.independence import warehouse_state
from repro.core.translation import answer_query, translate_query


@pytest.fixture
def catalog() -> Catalog:
    catalog = Catalog()
    catalog.relation("R", ("a", "b"))
    catalog.relation("S", ("b", "c"), key=("b",))
    return catalog


@pytest.fixture
def spec(catalog):
    return complement_thm22(catalog, [View("V", parse("R join S"))])


def random_state(seed: int):
    rng = random.Random(seed)
    s_rows = {}
    for _ in range(rng.randint(0, 5)):
        row = (rng.randrange(4), rng.randrange(4))
        s_rows[row[0]] = row  # key on b
    return {
        "R": Relation(
            ("a", "b"),
            {(rng.randrange(4), rng.randrange(4)) for _ in range(rng.randint(0, 5))},
        ),
        "S": Relation(("b", "c"), s_rows.values()),
    }


class TestTranslation:
    def test_translation_mentions_only_warehouse_names(self, spec):
        translated = translate_query(spec, parse("pi[a](R) union pi[a](R join S)"))
        assert translated.relation_names() <= set(spec.warehouse_names())

    def test_warehouse_relations_pass_through(self, spec):
        # Queries may also reference warehouse relations directly.
        translated = translate_query(spec, parse("pi[a, b](V)"))
        assert str(translated) == "pi[a, b](V)"

    def test_unknown_name_rejected(self, spec):
        with pytest.raises(WarehouseError):
            translate_query(spec, parse("Ghost"))

    @pytest.mark.parametrize(
        "text",
        [
            "R",
            "S",
            "R join S",
            "pi[b](R) minus pi[b](S)",
            "sigma[a = 1](R) union sigma[a = 2](R)",
            "rho[c -> d](S)",
            "pi[a, c](R join S)",
        ],
    )
    def test_answers_match_source_evaluation(self, spec, text):
        query = parse(text)
        for seed in range(8):
            state = random_state(seed)
            warehouse = warehouse_state(spec, state)
            expected = evaluate(query, state)
            assert answer_query(spec, warehouse, query) == expected, (text, seed)

    def test_translation_is_pure_syntax(self, spec):
        # Translating twice gives the same expression (idempotent on
        # warehouse-only expressions).
        once = translate_query(spec, parse("pi[a](R)"))
        twice = translate_query(spec, once)
        assert once == twice


SPECS = sorted(
    (pathlib.Path(__file__).resolve().parents[2] / "examples" / "specs").glob("*.json")
)


def test_example_spec_translations_are_fixpoints():
    """``optimize`` stops at a fixpoint, not at its pass limit."""
    from repro.algebra.optimize import _rewrite
    from repro.algebra.simplify import simplify
    from repro.analysis.query import default_queries, invertible_spec
    from repro.analysis.specfile import load_target

    checked = 0
    for path in SPECS:
        target = load_target(str(path))
        spec = invertible_spec(target)
        if spec is None:  # Theorem 3.1 does not apply verbatim
            continue
        queries = target.queries
        items = queries.items if queries is not None else default_queries(target)
        scope = spec.warehouse_scope()
        for item in items:
            plan = translate_query(spec, parse(item.query), optimized=True)
            again = simplify(_rewrite(plan, scope), scope)
            assert again == plan, (path.name, item.query)
            checked += 1
    assert checked >= 10
