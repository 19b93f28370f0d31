"""The warehouse benchmark: one workload, one seed, one JSON result line.

Run from the repository root::

    python3 perfbench/run.py --workload refresh_stream --seed 1 --seconds 30 --trace 0

``--trace 0`` measures the end-to-end metrics with the library untouched.
``--trace 1`` first repeats that run, then runs again with
:class:`tracing.LayerTracer` installed and reports the per-layer metrics,
including the tracing overhead. Human-readable lines (the tags and every
metric under its workload-specific name) come first; the last line of
standard output is the JSON result. The exit code is 0 only when every
output matched its oracle; a missing ``src/`` or an armed ``REPRO_CHECK_*``
sanitizer exits with 2 before measuring anything. See ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import sys
from pathlib import Path
from typing import Dict, List, Sequence, Tuple

ROOT = Path(__file__).resolve().parent.parent
HERE = Path(__file__).resolve().parent

#: The workload's primary operation: the samples behind p50_ms / p99_ms.
PRIMARY = {
    "refresh_stream": "refresh",
    "query_panel": "query",
    "integrate_mixed": "freshness",
}

#: Scale factor of the TPC-D star per size (``tiny`` is for the tests).
SCALES = {"full": 6.0, "tiny": 0.5}


def percentile(values: Sequence[float], q: float) -> float:
    """The ``q``-th percentile, interpolating between closest ranks."""
    ordered = sorted(values)
    position = (len(ordered) - 1) * q / 100.0
    low = int(position)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (position - low)


def tail(values: Sequence[float]) -> Tuple[float, float]:
    """``(value, q)``: p99 from 1,000 samples on, else the highest
    percentile that leaves at least ten samples beyond it."""
    n = len(values)
    q = 99.0 if n >= 1000 else max(50.0, 100.0 * (1.0 - 10.0 / n))
    return percentile(values, q), q


#: Seconds of run per block, and the share of blocks kept, when rejecting
#: stretches of the run that the host slowed down.
BLOCK_SECONDS = 0.5
CALM_SHARE = 0.5


def calm_samples(samples: Sequence[float], stamps: Sequence[float]) -> List[float]:
    """The samples of the calmest stretches of the run.

    On a shared host other tenants slow whole stretches of a run, by up to
    2x for a second or more, and never speed it up. The run is cut into
    blocks of :data:`BLOCK_SECONDS` by completion stamp, and the
    :data:`CALM_SHARE` of the blocks with the lowest median latency is
    kept. A change that slows the program slows every block, so it still
    shows in full; work that is slow only now and then (a rare update
    kind, a cache miss, a collection) is spread over every block too.
    """
    blocks: Dict[int, List[float]] = {}
    first = stamps[0]
    for value, stamp in zip(samples, stamps):
        blocks.setdefault(int((stamp - first) / BLOCK_SECONDS), []).append(value)
    # A block cut short (the end of the run) is too small to rank.
    typical = statistics.median(len(block) for block in blocks.values())
    full = [block for block in blocks.values() if len(block) >= typical / 2]
    ranked = sorted(full, key=statistics.median)
    kept = ranked[: max(1, round(len(ranked) * CALM_SHARE))]
    return [value for block in kept for value in block]


def armed_sanitizers() -> List[str]:
    return sorted(
        name for name, value in os.environ.items()
        if name.startswith("REPRO_CHECK_") and value not in ("", "0")
    )


def git_sha() -> str:
    """The checked-out commit, read from ``.git`` without running git."""
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            name = ref[5:]
            loose = ROOT / ".git" / name
            if loose.exists():
                return loose.read_text().strip()
            for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
                if line.endswith(" " + name):
                    return line.split()[0]
            return "unknown"
        return ref
    except OSError:
        return "unknown"


def tags(workload: str, seed: int, trace: int) -> Dict[str, object]:
    from repro.compiler import resolve_compile
    from repro.storage.engine import resolve_engine

    return {
        "git_sha": git_sha(),
        "python": platform.python_version(),
        "engine": resolve_engine(None),
        "compile": resolve_compile(None),
        "nproc": len(os.sched_getaffinity(0)),
        "seed": seed,
        "workload": workload,
        "trace": trace,
    }


def _ms(seconds: float) -> float:
    return seconds * 1000.0


def end_to_end(run) -> Tuple[Dict[str, Tuple[float, str]], List[Tuple[str, float, str]]]:
    """Contract metrics, and the report lines under the workload's names."""
    name = PRIMARY[run.workload]
    everything = run.samples[name]
    primary = calm_samples(everything, run.stamps[name])
    p99, q = tail(primary)
    rate = run.folded_per_s
    if run.workload != "integrate_mixed":  # closed loop: 1 / mean latency
        rate = len(primary) / sum(primary)
    metrics = {
        "setup_s": (statistics.median(run.setup_seconds), "s"),
        "p50_ms": (_ms(percentile(primary, 50)), "ms"),
        "p99_ms": (_ms(p99), "ms"),
        "ops_per_s": (rate, "1/s"),
        "peak_rss_mb": (run.peak_rss_mb, "MB"),
        "storage_rows_per_source_row": (run.storage_ratio, "ratio"),
    }
    lines = [
        ("setup_s", metrics["setup_s"][0], "s"),
        (f"{name}_p50_ms", metrics["p50_ms"][0], "ms"),
        (f"{name}_p99_ms", metrics["p99_ms"][0], f"ms (p{q:.1f} of {len(primary)})"),
        (f"{name}_p50_all_ms", _ms(percentile(everything, 50)), f"ms (n={len(everything)})"),
    ]
    if run.workload == "integrate_mixed":
        reads = run.samples.get("read", [])
        read_tail, read_q = tail(reads)
        lines += [
            ("read_p50_ms", _ms(percentile(reads, 50)), "ms"),
            ("read_p99_ms", _ms(read_tail), f"ms (p{read_q:.1f} of {len(reads)})"),
            ("folded_per_s", run.folded_per_s, "1/s"),
        ]
    else:
        lines.append((f"{name}_per_s", rate, "1/s"))
    lines += [
        ("failed_ratio", run.failed / max(1, run.attempted), "ratio"),
        ("peak_rss_mb", run.peak_rss_mb, "MB"),
        ("storage_rows_per_source_row", run.storage_ratio, "ratio"),
    ]
    for sample, values in sorted(run.samples.items()):
        if "." in sample:  # per-kind / per-class breakdown
            lines.append(
                (f"{sample}_p50_ms", _ms(percentile(values, 50)), f"ms (n={len(values)})")
            )
    return metrics, lines


#: Per-layer metric -> unit. Times are self time per load-generator
#: operation (apply / answer / process_batch / sharded read).
LAYER_UNITS = {
    "maintenance.normalize_ms": "ms",
    "maintenance.maintain_ms": "ms",
    "maintenance.effective_rows": "count",
    "warehouse.apply_self_ms": "ms",
    "compiler.refresh_ms": "ms",
    "compiler.build_s": "s",
    "compiler.fallbacks": "count",
    "algebra.evaluate_ms": "ms",
    "algebra.cache_hit_ratio": "ratio",
    "algebra.nodes_evaluated": "count",
    "storage.kernel_ms": "ms",
    "storage.kernel_calls": "count",
    "storage.materialize_ms": "ms",
    "storage.compose_ms": "ms",
    "translation.translate_ms": "ms",
    "translation.cache_hit_ratio": "ratio",
    "query.evaluate_ms": "ms",
    "sharding.split_ms": "ms",
    "sharding.shard_apply_ms": "ms",
    "sharding.commit_ms": "ms",
    "sharding.shards_per_batch": "count",
    "sharding.assembly_ms": "ms",
    "integrator.fold": "count",
    "integrator.batch_self_ms": "ms",
    "integrator.delivery_lag_ms": "ms",
    "integrator.backlog_max": "count",
    "integrator.backpressure_waits": "count",
    "loadgen.late_p50_ms": "ms",
    "loadgen.late_p99_ms": "ms",
    "obs.trace_overhead": "ratio",
}


def per_layer(untraced, traced, tracer) -> Dict[str, Tuple[float, str]]:
    """Per-layer metrics of the traced run (see :data:`LAYER_UNITS`)."""
    from tracing import BOUNDARIES

    ops = max(1, traced.ops)
    c = traced.counters
    values = {
        f"{layer}_ms": _ms(tracer.self_seconds.get(layer, 0.0)) / ops
        for _, _, layer, _ in BOUNDARIES
    }
    lookups = c["cache_hits"] + c["cache_misses"]
    late = traced.samples.get("late", [])
    values.update({
        "maintenance.effective_rows": tracer.counts.get("maintenance.effective_rows", 0.0) / ops,
        "compiler.build_s": traced.setup_counters["compiler_build_s"],
        "compiler.fallbacks": traced.setup_counters["compiler_fallbacks"],
        "algebra.cache_hit_ratio": c["cache_hits"] / lookups if lookups else 0.0,
        "algebra.nodes_evaluated": c["nodes_evaluated"] / ops,
        "storage.kernel_calls": c["kernel_calls"] / ops,
        "translation.cache_hit_ratio": (
            c["translation_hits"] / c["answers"] if c.get("answers") else 0.0
        ),
        "sharding.shards_per_batch": c.get("shards_per_batch", 0.0),
        "integrator.fold": c.get("fold", 0.0),
        "integrator.delivery_lag_ms": _ms(c.get("delivery_lag_s", 0.0)),
        "integrator.backlog_max": c.get("backlog_max", 0.0),
        "integrator.backpressure_waits": c.get("backpressure_waits", 0.0),
        "loadgen.late_p50_ms": _ms(percentile(late, 50)) if late else 0.0,
        "loadgen.late_p99_ms": _ms(tail(late)[0]) if late else 0.0,
        "obs.trace_overhead": (traced.work_seconds / ops)
        / (untraced.work_seconds / max(1, untraced.ops)),
    })
    return {name: (values[name], unit) for name, unit in LAYER_UNITS.items()}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(PRIMARY))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=sorted(SCALES), default="full")
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "repro").is_dir():
        print(f"perfbench: no library sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    armed = armed_sanitizers()
    if armed:
        print(
            f"perfbench: refusing to measure with sanitizers armed: {', '.join(armed)}",
            file=sys.stderr,
        )
        return 2
    for path in (str(HERE), str(ROOT / "src")):
        if path not in sys.path:
            sys.path.insert(0, path)

    from tracing import LayerTracer
    from workloads import WORKLOADS

    workload = WORKLOADS[args.workload]
    scale = SCALES[args.size]
    print("# tags " + json.dumps(tags(args.workload, args.seed, args.trace)))
    runs = [workload(args.seed, args.seconds, scale)]
    if args.trace:
        tracer = LayerTracer()
        runs.append(workload(args.seed, args.seconds, scale, tracer))
        metrics = per_layer(runs[0], runs[1], tracer)
        lines = [(name, value, unit) for name, (value, unit) in metrics.items()]
    else:
        metrics, lines = end_to_end(runs[0])
    problems = [problem for run in runs for problem in run.check()]
    for problem in problems:
        print("# MISMATCH " + problem)
    for name, value, unit in lines:
        print(f"# {args.workload:<16} {name:<32} {value:>14.4f} {unit}")
    attempted = sum(run.attempted for run in runs)
    failed = sum(run.failed for run in runs) + len(problems)
    correct = not problems and failed == 0
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
