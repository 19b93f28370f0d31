"""Property suite: every columnar kernel ≡ the tuple-set implementation.

The columnar engine's correctness story is extensional equality — for any
relation(s) and any operation, decoding the kernel result gives exactly the
frozenset the :class:`~repro.storage.relation.Relation` method computes.
Hypothesis drives this over random schemas (drawn from one shared attribute
pool, so joins hit every overlap regime), tiny value domains (maximizing
code collisions and join matches), random conditions (including mixed-type
comparisons exercising the total-order fallback), and random insert/delete
patches against the validity bitmap.

Dictionary-code edge cases get explicit regression tests: the empty
relation, a single row, an all-duplicate column (one code for the whole
column), and zero-attribute relations.
"""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st

from repro import Relation
from repro.algebra.conditions import (
    And,
    AttributeRef,
    Comparison,
    Constant,
    FALSE,
    Not,
    Or,
    TRUE,
)
from repro.storage.columnar import ColumnarTable

# Tiny domains maximize collision/join coverage per example; the string and
# float members exercise the cross-type total order and the 1 == 1.0 == True
# aliasing that frozensets already exhibit (the dictionary must agree).
VALUES = st.one_of(
    st.integers(min_value=0, max_value=2),
    st.sampled_from(["x", "y", 2.5]),
)

POOL = ("a", "b", "c", "d", "e")

OPS = ("=", "!=", "<", "<=", ">", ">=")


def schemas():
    return (
        st.sets(st.sampled_from(POOL), min_size=1, max_size=3)
        .flatmap(lambda attrs: st.permutations(sorted(attrs)))
        .map(tuple)
    )


def relations(attrs, max_rows: int = 8):
    row = st.tuples(*[VALUES for _ in attrs])
    return st.frozensets(row, max_size=max_rows).map(
        lambda rows: Relation(tuple(attrs), rows)
    )


def relation_pairs():
    """Two relations over independently-drawn, possibly-overlapping schemas."""
    return st.tuples(
        schemas().flatmap(relations), schemas().flatmap(relations)
    )


def aligned_pairs():
    """Two relations over the same attribute set, column orders permuted."""
    return schemas().flatmap(
        lambda attrs: st.tuples(
            relations(attrs),
            st.permutations(list(attrs)).map(tuple).flatmap(relations),
        )
    )


def conditions(attrs):
    """Random conditions over ``attrs``: comparisons under and/or/not."""
    operands = st.one_of(
        st.sampled_from([AttributeRef(a) for a in attrs]),
        VALUES.map(Constant),
        # Constants outside the generated domain: the dictionary has never
        # seen them, hitting the unknown-code paths of = and !=.
        st.sampled_from([Constant(99), Constant("nope")]),
    )
    comparisons = st.builds(
        Comparison, operands, st.sampled_from(OPS), operands
    )
    atoms = st.one_of(comparisons, st.just(TRUE), st.just(FALSE))

    def combine(cls):
        # And/Or flatten + deduplicate and insist on >= 2 distinct parts;
        # fall back to the lone part when the draw collapses.
        def build(parts):
            try:
                return cls(parts)
            except Exception:
                return parts[0]

        return build

    return st.recursive(
        atoms,
        lambda inner: st.one_of(
            st.tuples(inner, inner).map(combine(And)),
            st.tuples(inner, inner).map(combine(Or)),
            inner.map(Not),
        ),
        max_leaves=4,
    )


def assert_equivalent(table: ColumnarTable, expected: Relation) -> None:
    decoded = table.to_relation()
    assert decoded.attributes == table.attributes
    assert decoded == expected
    assert len(table) == len(expected)


class TestKernelEquivalence:
    @given(schemas().flatmap(relations))
    def test_encode_decode_roundtrip(self, r):
        assert_equivalent(r.columnar(), r)

    @given(
        schemas().flatmap(
            lambda attrs: st.tuples(
                relations(attrs), st.just(attrs).flatmap(conditions)
            )
        )
    )
    def test_select(self, case):
        r, condition = case
        expected = r.select(condition.compile(r.attributes))
        assert_equivalent(r.columnar().select(condition), expected)

    @given(
        schemas().flatmap(
            lambda attrs: st.tuples(
                relations(attrs),
                st.sets(st.sampled_from(attrs)).flatmap(
                    lambda sub: st.permutations(sorted(sub)).map(tuple)
                ),
            )
        ),
    )
    def test_project(self, case):
        r, target = case
        if not target:
            return  # the algebra layer never emits zero-attribute projections
        expected = r.project(target)
        assert_equivalent(r.columnar().project(target), expected)

    @given(
        schemas().flatmap(
            lambda attrs: st.tuples(
                relations(attrs),
                st.just(attrs).flatmap(conditions),
                st.sets(st.sampled_from(attrs), min_size=1).flatmap(
                    lambda sub: st.permutations(sorted(sub)).map(tuple)
                ),
            )
        )
    )
    def test_select_project(self, case):
        r, condition, target = case
        expected = r.select(condition.compile(r.attributes)).project(target)
        assert_equivalent(r.columnar().select_project(condition, target), expected)

    @given(relation_pairs())
    def test_join(self, pair):
        r, s = pair
        assert_equivalent(r.columnar().join(s.columnar()), r.natural_join(s))

    @given(relation_pairs())
    def test_semi_join(self, pair):
        r, s = pair
        assert_equivalent(r.columnar().semi_join(s.columnar()), r.semi_join(s))

    @given(relation_pairs())
    def test_anti_join(self, pair):
        r, s = pair
        assert_equivalent(r.columnar().anti_join(s.columnar()), r.anti_join(s))

    @given(aligned_pairs())
    def test_union(self, pair):
        r, s = pair
        assert_equivalent(r.columnar().union(s.columnar()), r.union(s))

    @given(aligned_pairs())
    def test_difference(self, pair):
        r, s = pair
        assert_equivalent(r.columnar().difference(s.columnar()), r.difference(s))

    @given(aligned_pairs())
    def test_intersection(self, pair):
        r, s = pair
        assert_equivalent(
            r.columnar().intersection(s.columnar()), r.intersection(s)
        )

    @given(schemas().flatmap(relations))
    def test_rename(self, r):
        mapping = {r.attributes[0]: "zz"}
        assert_equivalent(r.columnar().rename(mapping), r.rename(mapping))


class TestPatchingEquivalence:
    """Insert/delete patching against the validity bitmap."""

    @staticmethod
    @st.composite
    def patch_cases(draw):
        attrs = draw(schemas())
        row = st.tuples(*[VALUES for _ in attrs])
        base = draw(st.frozensets(row, min_size=1, max_size=10))
        removed = draw(st.sets(st.sampled_from(sorted(base, key=repr)), max_size=4))
        added = draw(st.frozensets(row, max_size=4)) - base
        return attrs, base, frozenset(added), frozenset(removed)

    @given(patch_cases())
    def test_patched_equals_recomputed(self, case):
        attrs, base, added, removed = case
        r = Relation(attrs, base)
        patched = r.columnar().patched(added, removed)
        expected = Relation(attrs, (base - removed) | added)
        assert_equivalent(patched, expected)

    @given(patch_cases())
    def test_patched_table_kernels_still_agree(self, case):
        """Kernels over a bitmap-carrying table match a fresh encoding."""
        attrs, base, added, removed = case
        r = Relation(attrs, base)
        patched = r.columnar().patched(added, removed)
        expected = Relation(attrs, (base - removed) | added)
        target = (attrs[0],)
        assert_equivalent(patched.project(target), expected.project(target))
        other = Relation(attrs, sorted(base, key=repr)[:3]).columnar()
        assert_equivalent(
            patched.join(other), expected.natural_join(other.to_relation())
        )

    @given(patch_cases(), st.randoms(use_true_random=False))
    def test_patched_table_semi_join_agrees(self, case, rng):
        """Semi-joins read a patched table in place: dead rows never match,
        and a probe on every attribute goes through the position index."""
        attrs, base, added, removed = case
        r = Relation(attrs, base)
        patched = r.columnar().patched(added, removed)
        expected = Relation(attrs, (base - removed) | added)
        candidates = sorted(base | added, key=repr)
        probe_rows = rng.sample(candidates, min(3, len(candidates)))
        order = tuple(rng.sample(attrs, len(attrs)))
        full_probe = Relation(attrs, probe_rows).reorder(order)
        assert_equivalent(
            patched.semi_join(full_probe.columnar()), expected.semi_join(full_probe)
        )
        partial_probe = full_probe.project(order[: max(1, len(order) - 1)])
        assert_equivalent(
            patched.semi_join(partial_probe.columnar()),
            expected.semi_join(partial_probe),
        )

    @given(patch_cases())
    def test_repeated_patches_compose(self, case):
        attrs, base, added, removed = case
        r = Relation(attrs, base)
        once = r.columnar().patched(frozenset(), removed)
        twice = once.patched(added, frozenset())
        assert_equivalent(twice, Relation(attrs, (base - removed) | added))


class TestDictionaryEdgeCases:
    def test_empty_relation(self):
        r = Relation(("a", "b"))
        table = r.columnar()
        assert len(table) == 0 and not table
        assert_equivalent(table, r)
        s = Relation(("b", "c"), [(1, 2)])
        assert_equivalent(table.join(s.columnar()), r.natural_join(s))
        assert_equivalent(table.select(TRUE), r)
        assert_equivalent(table.project(("a",)), r.project(("a",)))

    def test_single_row(self):
        r = Relation(("a",), [(1,)])
        assert_equivalent(r.columnar(), r)
        assert_equivalent(r.columnar().join(r.columnar()), r)
        assert_equivalent(
            r.columnar().patched([(2,)], [(1,)]), Relation(("a",), [(2,)])
        )

    def test_all_duplicate_column(self):
        """One distinct value per column: a single dictionary code."""
        r = Relation(("a", "b"), [(7, i) for i in range(10)])
        table = r.columnar()
        assert_equivalent(table.project(("a",)), r.project(("a",)))
        cond = Comparison(AttributeRef("a"), "=", Constant(7))
        assert_equivalent(table.select(cond), r)
        s = Relation(("a",), [(7,)])
        assert_equivalent(table.semi_join(s.columnar()), r.semi_join(s))
        assert_equivalent(table.anti_join(s.columnar()), r.anti_join(s))

    def test_zero_attribute_relations(self):
        """The two nullary relations: {} and {()} (paper set semantics)."""
        empty = Relation(())
        unit = Relation((), [()])
        assert_equivalent(empty.columnar(), empty)
        assert_equivalent(unit.columnar(), unit)
        assert_equivalent(unit.columnar().join(unit.columnar()), unit)
        assert_equivalent(unit.columnar().union(empty.columnar()), unit)
        assert_equivalent(unit.columnar().difference(unit.columnar()), empty)

    def test_mixed_int_str_column_orders_totally(self):
        """Ordered comparisons over a column holding ints and strs.

        The plain comparison raises ``TypeError`` there, so the kernel must
        fall back to the tuple path's total order (type name, then repr).
        """
        r = Relation(("a", "b"), [(1, 2), ("x", 0), (3, "y"), ("z", "z")])
        table = r.columnar()
        for op in ("<", "<=", ">", ">="):
            for condition in (
                Comparison(AttributeRef("a"), op, Constant(2)),
                Comparison(AttributeRef("a"), op, Constant("y")),
                Comparison(AttributeRef("a"), op, AttributeRef("b")),
                And(
                    [
                        Comparison(AttributeRef("a"), op, Constant(2)),
                        Comparison(AttributeRef("b"), "!=", Constant(0)),
                    ]
                ),
            ):
                expected = r.select(condition.compile(r.attributes))
                assert_equivalent(table.select(condition), expected)
                assert_equivalent(
                    table.select_project(condition, ("b",)),
                    expected.project(("b",)),
                )

    def test_value_aliasing_matches_frozensets(self):
        """1, 1.0, and True are one frozenset member — and one code."""
        r = Relation(("a",), [(1,), (1.0,), (True,)])
        assert len(r) == 1
        table = r.columnar()
        assert len(table) == 1
        assert_equivalent(table, r)
        s = Relation(("a",), [(True,)])
        assert_equivalent(table.semi_join(s.columnar()), r.semi_join(s))
