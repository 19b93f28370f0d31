"""The three workloads: set-up, the measured loop, and the untimed oracle.

Each ``run_*`` function takes a seed, a measuring time, a TPC-D scale and
an optional :class:`~tracing.LayerTracer`, and returns a :class:`Run`.
Set-up (specify + initialize + warm-up) is timed :data:`SETUPS` times
before the measured window and again after it, each on fresh copies of
the source state; the last warehouse built before the window is measured.
After the clock stops, :meth:`Run.check` compares the program's outputs
with the paper's oracles (Thm 4.1 / Prop. 2.1 for refreshes, Thm 3.1 for
queries, commit-log replay for the integrator).
"""

from __future__ import annotations

import asyncio
import gc
import resource
import sys
import time
import traceback
from time import perf_counter, process_time
from typing import Callable, Dict, List, Optional

from repro import Warehouse, evaluate, parse
from repro.algebra.evaluator import evaluate_all
from repro.core.routing import ShardRouting
from repro.integrator import AsyncChannel, AsyncConcurrentIntegrator, AsyncSource
from repro.storage.columnar import kernel_totals
from repro.views.psj import View

from inputs import IntegrateInputs, QueryPanel, RefreshStream, fresh_copy

#: Set-ups before the measured window and again after it; ``setup_s`` is
#: the median of all of them. Spreading them over the run keeps a passing
#: slowdown of the host from moving the median.
SETUPS = 6

#: A closed-loop client thinks THINK times as long as each operation took
#: before it sends the next, so a run of ``seconds`` keeps the program busy
#: for about a third of it. On a shared 2-CPU container, back-to-back
#: operations ran at one of several host-dependent speeds (up to 1.6x apart,
#: switching every few minutes); with the client thinking between them,
#: runs agreed within a few percent.
THINK = 2.0

#: Updates generated per pause of a closed loop's clock.
REFRESH_CHUNK = 32
QUERY_CHUNK = 256

#: integrate_mixed open-loop rates (per second). 100 notifications/s and
#: 10 reads/s keep the event loop about a third busy on a 2-CPU container,
#: so a host slowdown of 2x still leaves it below saturation. At 200/s plus
#: reads the loop ran about 60% busy and freshness varied 0.1-0.4 (IQR over
#: median) from run to run.
SALE_RATE = 80.0
EMP_RATE = 20.0
READ_RATE = 10.0
CHANNEL_CAPACITY = 64
SHARDS = 2

#: The oracle evaluates with the reference (tuple) engine.
ORACLE_ENGINE = "tuple"


class Run:
    """What one measured run produced, plus what its oracle needs."""

    def __init__(self, workload: str) -> None:
        self.workload = workload
        self.setup_seconds: List[float] = []
        self.samples: Dict[str, List[float]] = {}
        self.stamps: Dict[str, List[float]] = {}
        self.attempted = 0
        self.failed = 0
        #: Notifications folded per second (the open loop only).
        self.folded_per_s = 0.0
        #: Time the measured operations took: the sum of their latencies in
        #: a closed loop, the process CPU time in the open loop.
        self.work_seconds = 0.0
        self.ops = 0
        self.storage_ratio = 0.0
        self.peak_rss_mb = 0.0
        #: Registry counters over the measured window, and at its start
        #: (the latter carry what set-up did, e.g. compiler builds).
        self.counters: Dict[str, float] = {}
        self.setup_counters: Dict[str, float] = {}
        self._check: Callable[[], List[str]] = lambda: []

    def record(self, name: str, seconds: float, at: Optional[float] = None) -> None:
        """One latency sample, stamped with when it completed.

        Closed loops stamp with their busy time so far (their clock stops
        while inputs are generated); the open loop with the wall clock.
        """
        self.samples.setdefault(name, []).append(seconds)
        self.stamps.setdefault(name, []).append(perf_counter() if at is None else at)

    def check(self) -> List[str]:
        """Mismatches between the program's outputs and the oracle."""
        return self._check()

    def fail(self, what: str) -> None:
        self.failed += 1
        print(f"operation failed: {what}", file=sys.stderr)
        traceback.print_exc(file=sys.stderr)


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _warehouse_counters(warehouses) -> Dict[str, float]:
    """Cumulative counters of the public registries, summed over shards."""
    out = {
        "cache_hits": 0.0,
        "cache_misses": 0.0,
        "nodes_evaluated": 0.0,
        "translation_hits": 0.0,
        "compiler_build_s": 0.0,
        "compiler_fallbacks": 0.0,
    }
    for wh in warehouses:
        stats = wh.eval_stats
        out["cache_hits"] += stats.cache_hits
        out["cache_misses"] += stats.cache_misses
        out["nodes_evaluated"] += stats.nodes_evaluated
        out["translation_hits"] += wh.translation_cache.hits
        build = wh.metrics.get("compiler.build_seconds")
        if build is not None:
            out["compiler_build_s"] += build.total
        out["compiler_fallbacks"] += wh.metrics.value("compiler.fallbacks")
    out["kernel_calls"] = float(sum(kernel_totals().values()))
    return out


def _delta(after: Dict[str, float], before: Dict[str, float]) -> Dict[str, float]:
    return {key: after[key] - before.get(key, 0.0) for key in after}


def _setups(run: Run, build: Callable[[], object]):
    """Build :data:`SETUPS` times, timing each; return the last one built.

    Called before the measured window (the last warehouse built is the one
    measured) and after it (the warehouses built are dropped).
    """
    built = None
    for _ in range(SETUPS):
        built = None  # let the previous set-up be freed before timing
        started = perf_counter()
        built = build()
        run.setup_seconds.append(perf_counter() - started)
    gc.collect()  # start every measured window with the same heap
    return built


# ----------------------------------------------------------------------
# refresh_stream
# ----------------------------------------------------------------------


def run_refresh(seed: int, seconds: float, scale: float, tracer=None) -> Run:
    """Closed loop of ``Warehouse.apply`` over the seeded update stream."""
    run = Run("refresh_stream")
    stream = RefreshStream(seed, scale)
    warmup = [stream.next_update(kind) for kind in ("insert", "delete", "reseg")]

    def build() -> Warehouse:
        wh = Warehouse.specify(stream.catalog, stream.views)
        wh.initialize(fresh_copy(stream.initial))
        for update in warmup:  # derives (or compiles) every update shape
            wh.apply(update)
        return wh

    wh = _setups(run, build)
    before = _warehouse_counters([wh])
    if tracer is not None:
        tracer.install()
    pending: List = []
    busy = seconds / (1.0 + THINK)
    try:
        while run.work_seconds < busy:
            if tracer is not None:
                tracer.remove()
            pending = stream.next_chunk(REFRESH_CHUNK)
            if tracer is not None:
                tracer.install()
            while pending and run.work_seconds < busy:
                kind, update = pending.pop(0)
                run.attempted += 1
                started = perf_counter()
                try:
                    wh.apply(update)
                except Exception:
                    run.fail(f"apply ({kind})")
                    run.work_seconds += perf_counter() - started
                    continue
                elapsed = perf_counter() - started
                run.work_seconds += elapsed
                run.record("refresh", elapsed, run.work_seconds)
                time.sleep(THINK * elapsed)
                run.record(f"refresh.{kind}", elapsed, run.work_seconds)
    finally:
        if tracer is not None:
            tracer.remove()
    run.ops = run.attempted
    run.peak_rss_mb = _peak_rss_mb()
    run.counters = _delta(_warehouse_counters([wh]), before)
    run.setup_counters = before
    _setups(run, build)
    # The rest of the last chunk is already in the generator's sources:
    # fold it in after the clock so the oracle compares like with like.
    for _, update in pending:
        wh.apply(update)
    run.storage_ratio = wh.storage_rows() / stream.database.total_rows()

    def check() -> List[str]:
        sources = stream.database.state()
        problems = []
        expected = evaluate_all(
            wh.spec.definitions_over_sources(), sources, engine=ORACLE_ENGINE
        )
        for name, relation in expected.items():
            if wh.state[name] != relation:
                problems.append(f"refresh_stream: {name} differs from W(d)")
        for name, relation in sources.items():
            if wh.reconstruct(name) != relation:
                problems.append(f"refresh_stream: W^-1 does not give {name}")
        return problems

    run._check = check
    return run


# ----------------------------------------------------------------------
# query_panel
# ----------------------------------------------------------------------


def run_query(seed: int, seconds: float, scale: float, tracer=None) -> Run:
    """Closed loop of ``Warehouse.answer`` over the seeded query panel."""
    run = Run("query_panel")
    panel = QueryPanel(seed, scale)
    warmup = panel.warmup()

    def build() -> Warehouse:
        wh = Warehouse.specify(panel.catalog, panel.views)
        wh.initialize(fresh_copy(panel.initial))
        for _, query in warmup:
            wh.answer(query)
        return wh

    wh = _setups(run, build)
    answers: Dict[int, tuple] = {}
    inconsistent: List[str] = []
    before = _warehouse_counters([wh])
    busy = seconds / (1.0 + THINK)
    if tracer is not None:
        tracer.install()
    try:
        while run.work_seconds < busy:
            if tracer is not None:
                tracer.remove()
            chunk = panel.next_chunk(QUERY_CHUNK)
            if tracer is not None:
                tracer.install()
            for shape, query, novel in chunk:
                if run.work_seconds >= busy:
                    break
                run.attempted += 1
                started = perf_counter()
                try:
                    answer = wh.answer(query)
                except Exception:
                    run.fail(f"answer ({shape})")
                    run.work_seconds += perf_counter() - started
                    continue
                elapsed = perf_counter() - started
                run.work_seconds += elapsed
                run.record("query", elapsed, run.work_seconds)
                time.sleep(THINK * elapsed)
                run.record("query.novel" if novel else f"query.{shape}", elapsed, run.work_seconds)
                first = answers.setdefault(id(query), (query, answer))[1]
                if first is not answer and first != answer:
                    inconsistent.append(str(query))
    finally:
        if tracer is not None:
            tracer.remove()
    run.ops = run.attempted
    run.peak_rss_mb = _peak_rss_mb()
    run.counters = _delta(_warehouse_counters([wh]), before)
    run.setup_counters = before
    run.counters["answers"] = float(run.attempted)
    run.storage_ratio = wh.storage_rows() / panel.initial.total_rows()
    _setups(run, build)

    def check() -> List[str]:
        sources = panel.initial.state()
        problems = [f"query_panel: answers disagree for {q}" for q in inconsistent]
        for query, answer in answers.values():
            if evaluate(query, sources, engine=ORACLE_ENGINE) != answer:
                problems.append(f"query_panel: wrong answer for {query}")
        return problems

    run._check = check
    return run


# ----------------------------------------------------------------------
# integrate_mixed
# ----------------------------------------------------------------------


def run_integrate(seed: int, seconds: float, scale: float, tracer=None) -> Run:
    """Open-loop notifications and reads against the async integrator.

    ``scale`` is unused: the Figure 1 instance is small at any size.
    """
    return asyncio.run(_integrate(seed, seconds, tracer))


async def _integrate(seed: int, seconds: float, tracer) -> Run:
    run = Run("integrate_mixed")
    warm_sales = warm_emps = 2  # an insert and a delete of each source
    inputs = IntegrateInputs(
        seed,
        sale_count=warm_sales + int(SALE_RATE * seconds),
        emp_count=warm_emps + int(EMP_RATE * seconds),
        reads=max(1, int(READ_RATE * seconds)),
    )
    views = [View("Sold", parse("Sale join Emp"))]
    routings = [ShardRouting("Sale", "item", shards=SHARDS)]

    def build():
        sources = []
        for name, relation in (("SalesDB", "Sale"), ("CompanyDB", "Emp")):
            channel = AsyncChannel(name, capacity=CHANNEL_CAPACITY)
            source = AsyncSource(name, inputs.catalog, (relation,), channel=channel)
            source.load(relation, inputs.initial[relation].rows)
            sources.append(source)
        integrator = AsyncConcurrentIntegrator(inputs.catalog, views, routings=routings)
        integrator.initialize(sources)
        # Fold the warm-up updates through the same split/refresh/commit
        # path the integrator drives, so every update shape is derived.
        for update in inputs.sales[:warm_sales] + inputs.emps[:warm_emps]:
            integrator.warehouse.apply(update)
        for query in inputs.reads[:3]:
            integrator.warehouse.answer(query)
        return integrator, sources

    integrator, sources = _setups(run, build)
    wh = integrator.warehouse

    due: Dict[tuple, float] = {}
    reads: List[tuple] = []
    backlog = [0]
    folded = [0, 0.0]  # notifications folded, time the last fold returned

    async def measured_batch(batch):
        count = await AsyncConcurrentIntegrator.process_batch(integrator, batch)
        done = perf_counter()
        for notification in batch:
            scheduled = due.pop((notification.source, notification.sequence), None)
            if scheduled is not None:
                run.record("freshness", done - scheduled)
                folded[0] += 1
        folded[1] = done
        return count

    integrator.process_batch = measured_batch

    async def send(source: AsyncSource, updates, per_second: float, start: float):
        channel = source.channel
        for i, update in enumerate(updates):
            at = start + i / per_second
            wait = at - perf_counter()
            if wait > 0:
                await asyncio.sleep(wait)
            run.record("late", perf_counter() - at)
            notification = await channel.send(source.name, update)
            due[(source.name, notification.sequence)] = at
            backlog[0] = max(backlog[0], channel.pending())
        channel.close()

    async def read(start: float):
        for i, query in enumerate(inputs.reads):
            at = start + i / READ_RATE
            wait = at - perf_counter()
            if wait > 0:
                await asyncio.sleep(wait)
            run.record("late", perf_counter() - at)
            version = wh.version
            try:
                answer = wh.answer(query)
            except Exception:
                run.fail("sharded answer")
                continue
            run.record("read", perf_counter() - at)
            reads.append((version, query, answer))

    before = _warehouse_counters(wh.shards)
    metrics = integrator.metrics
    notifications0 = metrics.value("integrator.notifications")
    batches0 = metrics.value("integrator.batches")
    lag = metrics.histogram("integrator.delivery_lag_seconds")
    lag0 = (lag.count, lag.total)
    commits0 = len(wh.commit_log)
    if tracer is not None:
        tracer.install()
    cpu0 = process_time()
    start = perf_counter() + 0.05
    try:
        await asyncio.gather(
            send(sources[0], inputs.sales[warm_sales:], SALE_RATE, start),
            send(sources[1], inputs.emps[warm_emps:], EMP_RATE, start + 0.5 / EMP_RATE),
            read(start + 0.5 / READ_RATE),
            integrator.run(),
        )
    finally:
        if tracer is not None:
            tracer.remove()
    run.work_seconds = process_time() - cpu0
    notifications = metrics.value("integrator.notifications") - notifications0
    batches = metrics.value("integrator.batches") - batches0
    run.attempted = int(notifications) + len(inputs.reads)
    run.ops = int(batches) + len(inputs.reads)
    run.folded_per_s = folded[0] / (folded[1] - start)
    run.peak_rss_mb = _peak_rss_mb()
    run.counters = _delta(_warehouse_counters(wh.shards), before)
    run.setup_counters = before
    run.counters["answers"] = float(len(inputs.reads))
    run.counters["fold"] = notifications / batches if batches else 0.0
    run.counters["delivery_lag_s"] = (
        (lag.total - lag0[1]) / (lag.count - lag0[0]) if lag.count > lag0[0] else 0.0
    )
    run.counters["backlog_max"] = float(backlog[0])
    run.counters["backpressure_waits"] = float(
        sum(source.channel.backpressure_waits for source in sources)
    )
    records = wh.commit_log[commits0:]
    run.counters["shards_per_batch"] = (
        sum(len(record.shards) for record in records) / len(records) if records else 0.0
    )
    run.storage_ratio = wh.storage_rows() / inputs.final.total_rows()
    _setups(run, build)

    def check() -> List[str]:
        problems = []
        if due:
            problems.append(f"integrate_mixed: {len(due)} notifications never folded")
        final = inputs.final.state()
        expected = evaluate_all(
            wh.spec.definitions_over_sources(), final, engine=ORACLE_ENGINE
        )
        assembled = wh.state()
        for name, relation in expected.items():
            if assembled[name] != relation:
                problems.append(f"integrate_mixed: {name} differs from W(d)")
        for name, relation in final.items():
            if wh.reconstruct(name) != relation:
                problems.append(f"integrate_mixed: W^-1 does not give {name}")
        # Replay the commit log through a synchronous reference warehouse
        # and through the sources; every read must equal the answer over
        # the source state at the version it read.
        reference = Warehouse(wh.spec)
        reference.initialize(inputs.initial)
        replayed = inputs.initial.copy()
        by_version: Dict[int, List[tuple]] = {}
        for version, query, answer in reads:
            by_version.setdefault(version, []).append((query, answer))

        def check_reads(version: int) -> None:
            state = replayed.state()
            for query, answer in by_version.pop(version, ()):
                if evaluate(query, state, engine=ORACLE_ENGINE) != answer:
                    problems.append(
                        f"integrate_mixed: read at version {version} is wrong"
                    )

        check_reads(1)
        for record in wh.commit_log:
            reference.apply(record.update)
            replayed.apply(record.update, check=False)
            check_reads(record.version)
        if by_version:
            problems.append("integrate_mixed: reads at unknown versions")
        if reference.state != assembled:
            problems.append("integrate_mixed: commit-log replay differs")
        return problems

    run._check = check
    return run


WORKLOADS = {
    "refresh_stream": run_refresh,
    "query_panel": run_query,
    "integrate_mixed": run_integrate,
}
