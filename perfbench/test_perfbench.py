"""Tests of the benchmark itself, in its tiny size.

Run from the repository root::

    python3 -m pytest perfbench -q

They check that every metric named in ``BENCHMARK.json`` is emitted with
its unit, that a corrupted warehouse state or answer fails the run, and
that the benchmark refuses to measure a different program (armed
sanitizers) or a checkout without the library.
"""

from __future__ import annotations

import importlib.util
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
for _path in (str(HERE), str(ROOT / "src")):
    if _path not in sys.path:
        sys.path.insert(0, _path)

_spec = importlib.util.spec_from_file_location("perfbench_run", HERE / "run.py")
bench = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench)

from repro.core.sharding import ShardedWarehouse  # noqa: E402
from repro.core.warehouse import Warehouse  # noqa: E402

CONTRACT = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in CONTRACT["workloads"]]

#: Layers each workload must show as busy in its traced run.
BUSY_LAYERS = {
    "refresh_stream": (
        "maintenance.normalize_ms", "maintenance.maintain_ms",
        "maintenance.effective_rows", "warehouse.apply_self_ms",
        "algebra.evaluate_ms", "storage.kernel_ms", "storage.kernel_calls",
        "storage.materialize_ms",
    ),
    "query_panel": (
        "translation.translate_ms", "translation.cache_hit_ratio",
        "query.evaluate_ms", "storage.kernel_ms",
    ),
    "integrate_mixed": (
        "sharding.split_ms", "sharding.commit_ms", "sharding.assembly_ms",
        "sharding.shards_per_batch", "integrator.fold",
        "integrator.batch_self_ms", "translation.translate_ms",
    ),
}


def _run(capsys, *argv):
    code = bench.main(["--size", "tiny", "--seed", "3", "--seconds", "0.3", *argv])
    lines = capsys.readouterr().out.strip().splitlines()
    return code, lines, json.loads(lines[-1])


def _units(section):
    return {m["name"]: m["unit"] for m in CONTRACT[section]}


@pytest.mark.parametrize("workload", WORKLOADS)
def test_end_to_end_metrics_emitted_with_units(capsys, workload):
    code, lines, result = _run(capsys, "--workload", workload, "--trace", "0")
    assert code == 0 and result["correct"] and result["failed"] == 0
    assert result["attempted"] >= 1
    emitted = {name: m["unit"] for name, m in result["metrics"].items()}
    assert emitted == _units("end_to_end")
    assert all(m["value"] > 0 for m in result["metrics"].values())
    report = "\n".join(lines)
    primary = bench.PRIMARY[workload]
    for name in (f"{primary}_p50_ms", f"{primary}_p99_ms", "failed_ratio", "setup_s"):
        assert f" {name} " in report


@pytest.mark.parametrize("workload", WORKLOADS)
def test_per_layer_metrics_emitted_with_units(capsys, workload):
    apply, answer = Warehouse.__dict__["apply"], ShardedWarehouse.__dict__["answer"]
    code, _, result = _run(capsys, "--workload", workload, "--trace", "1")
    assert code == 0 and result["correct"]
    emitted = {name: m["unit"] for name, m in result["metrics"].items()}
    assert emitted == _units("per_layer")
    for name in BUSY_LAYERS[workload]:
        assert result["metrics"][name]["value"] > 0, name
    assert result["metrics"]["obs.trace_overhead"]["value"] > 0
    # The wrappers are gone again: the library is left as it was found.
    assert Warehouse.__dict__["apply"] is apply
    assert ShardedWarehouse.__dict__["answer"] is answer


def test_lost_updates_fail_the_refresh_check(capsys, monkeypatch):
    original = Warehouse.apply
    applied = []

    def lossy_apply(self, update):
        applied.append(update)
        if len(applied) % 7 == 0:  # drop a notification in transit
            return {}
        return original(self, update)

    monkeypatch.setattr(Warehouse, "apply", lossy_apply)
    code, lines, result = _run(capsys, "--workload", "refresh_stream")
    assert code == 1 and not result["correct"] and result["failed"] > 0
    assert any("MISMATCH refresh_stream" in line for line in lines)


def test_wrong_answer_fails_the_query_check(capsys, monkeypatch):
    original = Warehouse.answer

    def wrong_answer(self, query):
        result = original(self, query)
        return result.difference(result) if len(result) else result

    monkeypatch.setattr(Warehouse, "answer", wrong_answer)
    code, lines, result = _run(capsys, "--workload", "query_panel")
    assert code == 1 and not result["correct"]
    assert any("MISMATCH query_panel" in line for line in lines)


def test_wrong_read_fails_the_integrate_check(capsys, monkeypatch):
    original = ShardedWarehouse.answer

    def stale_answer(self, query):
        result = original(self, query)
        return result.difference(result) if len(result) else result

    monkeypatch.setattr(ShardedWarehouse, "answer", stale_answer)
    code, lines, result = _run(capsys, "--workload", "integrate_mixed")
    assert code == 1 and not result["correct"]
    assert any("MISMATCH integrate_mixed" in line for line in lines)


def test_refuses_to_measure_with_a_sanitizer_armed(capsys, monkeypatch):
    monkeypatch.setenv("REPRO_CHECK_QUERIES", "1")
    code = bench.main(["--workload", "query_panel", "--seed", "1", "--seconds", "1"])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert "REPRO_CHECK_QUERIES" in captured.err


def test_fails_without_the_library(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    done = subprocess.run(
        [sys.executable, *CONTRACT["command"][1:], "--workload", WORKLOADS[0],
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert done.returncode != 0
    assert '"correct"' not in done.stdout


def test_tail_percentile_keeps_ten_samples_beyond():
    assert bench.tail(list(range(2000)))[1] == 99.0
    value, q = bench.tail(list(range(200)))
    assert q == pytest.approx(95.0)
    assert sum(1 for v in range(200) if v > value) >= 10
