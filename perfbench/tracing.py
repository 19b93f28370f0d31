"""Per-layer self times from wrappers around each module boundary.

The library is measured unmodified: :class:`LayerTracer` replaces public
functions and methods at the boundaries between ``repro`` modules with
timing wrappers while it is installed, and puts the originals back when
it is removed. Each wrapper opens a span; a span's self time is its
duration minus the time of the spans it directly encloses, so the self
times of all layers add up to the traced time of the operations the load
generator issued.

The parent span is kept in a :class:`contextvars.ContextVar`, and asyncio
gives every task its own context: a span opened inside one task never
counts work that another task ran while the first was suspended. The
async wrapper (``process_batch``) therefore has lock waits and yields as
its self time.
"""

from __future__ import annotations

import contextvars
import functools
import inspect
from collections import defaultdict
from time import perf_counter
from typing import Callable, Dict, List, Optional, Tuple

import repro.core.maintenance as maintenance
import repro.core.translation as translation
import repro.core.warehouse as warehouse
from repro.compiler.runtime import RefreshCompiler
from repro.core.sharding import ShardedSnapshot, ShardedWarehouse
from repro.integrator.async_integrator import AsyncConcurrentIntegrator
from repro.storage.columnar import ColumnarTable
from repro.storage.update import Update

_KERNELS = (
    "select",
    "project",
    "select_project",
    "rename",
    "join",
    "semi_join",
    "anti_join",
    "union",
    "difference",
    "intersection",
)


def _effective_rows(update: Update) -> float:
    return sum(len(d.inserts) + len(d.deletes) for d in update)


#: (owner, attribute, layer, result counter). Module-level functions are
#: patched in the module that *calls* them (``from x import f`` binds the
#: name there), so e.g. ``evaluate`` is charged to the algebra layer when
#: maintenance calls it and to the query layer when the warehouse does.
BOUNDARIES: Tuple[Tuple[object, str, str, Optional[Tuple[str, Callable]]], ...] = (
    (warehouse.Warehouse, "apply", "warehouse.apply_self", None),
    (warehouse, "refresh_state", "maintenance.maintain", None),
    (maintenance, "normalize_update", "maintenance.normalize", None),
    (Update, "normalized", "maintenance.normalize",
     ("maintenance.effective_rows", _effective_rows)),
    (RefreshCompiler, "refresh", "compiler.refresh", None),
    (maintenance, "evaluate", "algebra.evaluate", None),
    (warehouse, "evaluate", "query.evaluate", None),
    (translation, "evaluate", "query.evaluate", None),
    (warehouse, "translate_cached", "translation.translate", None),
    (translation, "translate_query", "translation.translate", None),
    *((ColumnarTable, name, "storage.kernel", None) for name in _KERNELS),
    (ColumnarTable, "from_relation", "storage.materialize", None),
    (ColumnarTable, "to_relation", "storage.materialize", None),
    (ColumnarTable, "patched", "storage.materialize", None),
    (Update, "compose", "storage.compose", None),
    (ShardedWarehouse, "split", "sharding.split", None),
    (ShardedWarehouse, "apply_to_shard", "sharding.shard_apply", None),
    (ShardedWarehouse, "commit", "sharding.commit", None),
    (ShardedWarehouse, "answer", "sharding.assembly", None),
    (ShardedWarehouse, "snapshot", "sharding.assembly", None),
    (ShardedSnapshot, "relation", "sharding.assembly", None),
    (ShardedSnapshot, "state", "sharding.assembly", None),
    (AsyncConcurrentIntegrator, "process_batch", "integrator.batch_self", None),
)


class _Frame:
    __slots__ = ("child",)

    def __init__(self) -> None:
        self.child = 0.0


class LayerTracer:
    """Installs the boundary wrappers; accumulates self time per layer."""

    def __init__(self) -> None:
        self.self_seconds: Dict[str, float] = defaultdict(float)
        self.counts: Dict[str, float] = defaultdict(float)
        self._parent: contextvars.ContextVar = contextvars.ContextVar(
            "perfbench_parent", default=None
        )
        self._saved: List[Tuple[object, str, object]] = []

    # -- spans ----------------------------------------------------------

    def _close(self, layer: str, started: float, frame: _Frame, parent) -> None:
        duration = perf_counter() - started
        self.self_seconds[layer] += duration - frame.child
        if parent is not None:
            parent.child += duration

    def _wrap(self, fn, layer: str, counter):
        tracer = self
        var = self._parent
        if inspect.iscoroutinefunction(fn):

            @functools.wraps(fn)
            async def traced_async(*args, **kwargs):
                parent = var.get()
                frame = _Frame()
                token = var.set(frame)
                started = perf_counter()
                try:
                    return await fn(*args, **kwargs)
                finally:
                    var.reset(token)
                    tracer._close(layer, started, frame, parent)

            return traced_async

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = var.get()
            frame = _Frame()
            token = var.set(frame)
            started = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                var.reset(token)
                tracer._close(layer, started, frame, parent)
            if counter is not None:
                tracer.counts[counter[0]] += counter[1](result)
            return result

        return traced

    # -- install / remove ----------------------------------------------

    def install(self) -> None:
        """Replace every boundary in :data:`BOUNDARIES` with its wrapper."""
        if self._saved:
            return
        for owner, name, layer, counter in BOUNDARIES:
            if isinstance(owner, type):
                original = owner.__dict__[name]
                if isinstance(original, classmethod):
                    replacement = classmethod(
                        self._wrap(original.__func__, layer, counter)
                    )
                else:
                    replacement = self._wrap(original, layer, counter)
            else:
                original = getattr(owner, name)
                replacement = self._wrap(original, layer, counter)
            self._saved.append((owner, name, original))
            setattr(owner, name, replacement)

    def remove(self) -> None:
        """Put every original back (in reverse order of installation)."""
        while self._saved:
            owner, name, original = self._saved.pop()
            setattr(owner, name, original)

