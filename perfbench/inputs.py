"""Seeded input generators for the three workloads.

Everything here runs outside the timed intervals. Update streams are
built by applying each update to a generator-side ``Database`` (the
sources' state), so the warehouse later receives exactly what a source
would report, and the oracle knows the source state the stream leads to.
Queries are parsed to expressions here, so parsing is never timed.

The generators are incremental (``next_chunk``): a closed-loop run that
outpaces the pre-generated stream pauses its clock, draws the next chunk
from the same seeded generator, and resumes. The stream a seed produces is
therefore the same however fast the program under test is.
"""

from __future__ import annotations

import random
from typing import Dict, List, Tuple

from repro import Catalog, Database, Relation, parse
from repro.storage.update import Delta, Update
from repro.workloads.tpcd import SEGMENTS, STATUSES, tpcd_instance

#: TPC-D scale factor of the star (about 4.4k source rows at 6).
TPCD_SCALE = 6.0

#: The refresh stream repeats this pattern (40% fact inserts, 40% fact
#: deletes, 20% re-segmentations). Inserts and deletes balance, so the
#: warehouse size stays put over a run; a fixed pattern keeps the mix the
#: same in every stretch of every run.
REFRESH_PATTERN = ("insert", "delete", "insert", "delete", "reseg")

#: Every NOVEL_EVERY-th query_panel query uses constants never seen before.
NOVEL_EVERY = 10

#: Queries translated during query_panel set-up (the repeat pool's seed).
WARMUP_QUERIES = 30


def fresh_copy(database: Database) -> Dict[str, Relation]:
    """The source state as new ``Relation`` objects (no cached encodings).

    Relations cache their columnar encoding on first use; every set-up
    starts from uncached copies so each one pays the same encoding work.
    """
    return {
        name: Relation(relation.attributes, relation.rows)
        for name, relation in database.state().items()
    }


# ----------------------------------------------------------------------
# refresh_stream: TPC-D star, three update kinds
# ----------------------------------------------------------------------


class RefreshStream:
    """Seeded Orders+Lineitem inserts, order deletes and re-segmentations."""

    def __init__(self, seed: int, scale: float = TPCD_SCALE) -> None:
        instance = tpcd_instance(scale=scale, seed=seed)
        self.catalog = instance.catalog
        self.views = instance.views
        self.initial = instance.database
        self.database = instance.database.copy()
        self._rng = random.Random(seed * 7919 + 1)
        self._attrs = {s.name: s.attributes for s in self.catalog.schemas()}
        self._orders = {row[0]: row for row in self.database["Orders"].rows}
        self._lines: Dict[int, List[tuple]] = {}
        for row in self.database["Lineitem"].rows:
            self._lines.setdefault(row[0], []).append(row)
        self._customers = {row[0]: row for row in self.database["Customer"].rows}
        self._parts = sorted(r[0] for r in self.database["Part"].rows)
        self._suppliers = sorted(r[0] for r in self.database["Supplier"].rows)
        self._next_order = max(self._orders) + 1
        self._position = 0

    def _insert(self) -> Update:
        rng = self._rng
        key = self._next_order
        self._next_order += 1
        order = (
            key,
            rng.choice(sorted(self._customers)),
            rng.choice(STATUSES),
            rng.randint(10_000, 1_000_000),
        )
        lines = [
            (
                key,
                line,
                rng.choice(self._parts),
                rng.choice(self._suppliers),
                rng.randint(1, 50),
                rng.randint(1_000, 50_000),
            )
            for line in (1, 2)
        ]
        self._orders[key] = order
        self._lines[key] = lines
        return Update([
            Delta("Orders", inserts=Relation(self._attrs["Orders"], [order])),
            Delta("Lineitem", inserts=Relation(self._attrs["Lineitem"], lines)),
        ])

    def _delete(self) -> Update:
        key = self._rng.choice(sorted(self._orders))
        order = self._orders.pop(key)
        lines = self._lines.pop(key, [])
        return Update([
            Delta("Orders", deletes=Relation(self._attrs["Orders"], [order])),
            Delta("Lineitem", deletes=Relation(self._attrs["Lineitem"], lines)),
        ])

    def _reseg(self) -> Update:
        rng = self._rng
        key = rng.choice(sorted(self._customers))
        old = self._customers[key]
        segment = rng.choice([s for s in SEGMENTS if s != old[3]])
        new = old[:3] + (segment,)
        self._customers[key] = new
        return Update.modify("Customer", self._attrs["Customer"], [old], [new])

    def next_update(self, kind: str) -> Update:
        """One update of ``kind``, applied to the generator-side sources."""
        update = getattr(self, "_" + kind)()
        # Valid by construction (fresh keys, existing foreign keys); the
        # full constraint check runs once per chunk instead.
        return self.database.apply(update, check=False)

    def next_chunk(self, count: int) -> List[Tuple[str, Update]]:
        """``count`` more ``(kind, update)`` pairs of the seeded stream."""
        chunk = []
        for _ in range(count):
            kind = REFRESH_PATTERN[self._position % len(REFRESH_PATTERN)]
            self._position += 1
            chunk.append((kind, self.next_update(kind)))
        self.database.check_constraints()
        return chunk


# ----------------------------------------------------------------------
# query_panel: six query shapes over the TPC-D base relations
# ----------------------------------------------------------------------


class QueryPanel:
    """Seeded queries over a fixed panel of shapes; a share is novel."""

    SHAPES = ("point_join", "range", "fact_join", "dim_join", "difference", "union")

    def __init__(self, seed: int, scale: float = TPCD_SCALE) -> None:
        instance = tpcd_instance(scale=scale, seed=seed)
        self.catalog = instance.catalog
        self.views = instance.views
        self.initial = instance.database
        self._rng = random.Random(seed * 7919 + 2)
        db = instance.database
        self._orderkeys = sorted(r[0] for r in db["Orders"].rows)
        self._custkeys = sorted(r[0] for r in db["Customer"].rows)
        self._nations = sorted(r[0] for r in db["Nation"].rows)
        self._suppkeys = sorted(r[0] for r in db["Supplier"].rows)
        self._regions = sorted(r[0] for r in db["Region"].rows)
        self._seen: set = set()
        self._drawn = 0
        self._pool: Dict[str, List[object]] = {shape: [] for shape in self.SHAPES}

    def _text(self, shape: str) -> str:
        rng = self._rng
        if shape == "point_join":
            return (
                f"sigma[orderkey = {rng.choice(self._orderkeys)}](Orders) "
                "join Lineitem"
            )
        if shape == "range":
            low = rng.randrange(10_000, 1_000_000)
            return (
                f"sigma[totalprice >= {low} and totalprice < {low + 40_000}]"
                "(Orders)"
            )
        if shape == "fact_join":
            return (
                "pi[orderkey, linenumber, custkey, price]("
                f"sigma[quantity >= {rng.randint(1, 50)} and "
                f"price < {rng.randrange(1_000, 50_000)}](Lineitem) "
                f"join sigma[status = '{rng.choice(STATUSES)}'](Orders))"
            )
        if shape == "dim_join":
            return (
                "pi[suppkey, sname, rname]("
                f"sigma[suppkey < {rng.choice(self._suppkeys) + 1}](Supplier) "
                f"join Nation join sigma[regionkey = {rng.choice(self._regions)}]"
                "(Region))"
            )
        if shape == "difference":
            return (
                f"pi[custkey](sigma[mktsegment = '{rng.choice(SEGMENTS)}' and "
                f"custkey >= {rng.choice(self._custkeys)}](Customer)) "
                "minus pi[custkey](Orders)"
            )
        return (
            f"pi[custkey](sigma[totalprice > {rng.randrange(10_000, 1_000_000)}]"
            "(Orders)) union "
            f"pi[custkey](sigma[cnationkey = {rng.choice(self._nations)}](Customer))"
        )

    def novel(self) -> Tuple[str, object]:
        """A query whose text was never drawn before (a cache miss).

        Novel queries take the shapes in turn, so every stretch of a run
        sees the same mix of translation work.
        """
        shape = self.SHAPES[len(self._seen) % len(self.SHAPES)]
        while True:
            text = self._text(shape)
            if text not in self._seen:
                self._seen.add(text)
                query = parse(text)
                self._pool[shape].append(query)
                return shape, query

    def warmup(self) -> List[Tuple[str, object]]:
        """The first queries of the panel: translated during set-up."""
        return [self.novel() for _ in range(WARMUP_QUERIES)]

    def next_chunk(self, count: int) -> List[Tuple[str, object, bool]]:
        """``(shape, query, novel)`` triples; every NOVEL_EVERY-th is novel.

        Repeats also take the shapes in turn (with a seeded earlier query of
        that shape), so any stretch of the run has the same shape mix.
        """
        chunk = []
        for _ in range(count):
            self._drawn += 1
            if self._drawn % NOVEL_EVERY == 0:
                chunk.append(self.novel() + (True,))
            else:
                shape = self.SHAPES[self._drawn % len(self.SHAPES)]
                chunk.append((shape, self._rng.choice(self._pool[shape]), False))
        return chunk


# ----------------------------------------------------------------------
# integrate_mixed: Figure 1 (Sale routed by item, Emp replicated)
# ----------------------------------------------------------------------

N_EMPS = 60
N_SALES = 600


class IntegrateInputs:
    """Seeded Figure-1 sources, notification streams and reader queries."""

    def __init__(self, seed: int, sale_count: int, emp_count: int, reads: int) -> None:
        rng = random.Random(seed * 7919 + 3)
        catalog = Catalog()
        catalog.relation("Sale", ("item", "clerk"))
        catalog.relation("Emp", ("clerk", "age"), key=("clerk",))
        self.catalog = catalog
        database = Database(catalog)
        database.load("Emp", [(f"clerk{i:03d}", rng.randint(18, 65)) for i in range(N_EMPS)])
        database.load(
            "Sale",
            [(f"item{i:04d}", f"clerk{rng.randrange(N_EMPS):03d}") for i in range(N_SALES)],
        )
        self.initial = database.copy()
        self.sales = self._churn(
            rng, database, "Sale", sale_count,
            lambda i: (f"new{i:05d}", f"clerk{rng.randrange(N_EMPS):03d}"),
        )
        self.emps = self._churn(
            rng, database, "Emp", emp_count,
            lambda i: (f"temp{i:05d}", rng.randint(18, 65)),
        )
        self.final = database
        self.reads = self._reads(rng, reads)

    @staticmethod
    def _churn(rng, database: Database, relation: str, count: int, new_row) -> List[Update]:
        """Inserts of new rows alternating with deletes of earlier ones.

        Inserts and deletes balance, so the state (and the cost of a
        refresh or a read) stays put however long the run is.
        """
        updates, inserted = [], []
        for i in range(count):
            if inserted and i % 2 == 1:
                row = inserted.pop(rng.randrange(len(inserted)))
                updates.append(database.delete(relation, [row], check=False))
            else:
                row = new_row(i)
                inserted.append(row)
                updates.append(database.insert(relation, [row], check=False))
        return updates

    @staticmethod
    def _reads(rng, count: int) -> List[object]:
        """Point reads joining a clerk's sales with Emp (both shards)."""
        texts = [
            f"pi[item, age](sigma[clerk = 'clerk{rng.randrange(N_EMPS):03d}'](Sale) join Emp)"
            for _ in range(count)
        ]
        cache: Dict[str, object] = {}
        return [cache.setdefault(text, parse(text)) for text in texts]
