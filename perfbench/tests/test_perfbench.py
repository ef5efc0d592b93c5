"""Tests of the benchmark's own checks and metric arithmetic (no pipeline runs)."""

from __future__ import annotations

import math
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))

import checks  # noqa: E402
import layers  # noqa: E402
import procs  # noqa: E402
import run as bench  # noqa: E402

LINES = ["0\t1\t900\t1000\t1010", "0\t2\t700\t800\t790", "1\t2\t950\t990\t1000",
         "2\t3\t400\t500\t510"]
TRUTH = {(0, 1), (0, 2), (1, 2), (2, 3)}


def _child(returncode: int = 0) -> procs.ChildRun:
    return procs.ChildRun(returncode=returncode, wall_s=2.0, cpu_s=3.0,
                          peak_rss_mb=100.0, started=0.0,
                          stdout="  wall_seconds: 1.5\n", stderr="")


def _op(lines, returncode: int = 0) -> bench.BatchOp:
    return bench.BatchOp(child=_child(returncode), program_wall_s=1.5, lines=lines)


def test_digest_ignores_order_but_not_content():
    assert checks.digest(LINES) == checks.digest(list(reversed(LINES)))
    assert checks.digest(LINES) != checks.digest(LINES[:-1])
    changed = LINES[:-1] + ["2\t3\t401\t500\t510"]
    assert checks.digest(LINES) != checks.digest(changed)


def test_dropped_tsv_line_is_caught(monkeypatch):
    monkeypatch.setitem(checks.FLOORS, "align-30x", {"recall": 0.5, "precision": 0.5})
    log = checks.CheckLog()
    ok, reference = bench._check_batch_op(log, "align-30x", _op(LINES), TRUTH,
                                          "run 1", None)
    assert ok and log.all_ok
    ok, _ = bench._check_batch_op(log, "align-30x", _op(LINES[:-1]), TRUTH,
                                  "run 2", reference)
    assert not ok
    assert not log.all_ok
    failed = [name for name, passed, _detail in log.entries if not passed]
    assert failed == ["run 2 digest equals the first run's"]


def test_recall_floor_bites():
    log = checks.CheckLog()
    ok, _ = bench._check_batch_op(log, "align-30x", _op(LINES[:1]), TRUTH, "run", None)
    assert not ok
    assert any(name.startswith("run recall") and not passed
               for name, passed, _detail in log.entries)


def test_failed_exit_code_fails_the_op():
    log = checks.CheckLog()
    ok, _ = bench._check_batch_op(log, "align-30x", _op(None, returncode=1), TRUTH,
                                  "run", None)
    assert not ok and not log.all_ok


def test_read_alignment_tsv_requires_header(tmp_path):
    path = tmp_path / "a.tsv"
    path.write_text("rid_a\trid_b\tscore\tspan_a\tspan_b\n" + "\n".join(LINES) + "\n",
                    encoding="ascii")
    assert checks.read_alignment_tsv(path) == LINES
    path.write_text("\n".join(LINES) + "\n", encoding="ascii")
    with pytest.raises(ValueError):
        checks.read_alignment_tsv(path)


def test_percentile_counts_failures_as_slowest():
    assert checks.percentile([1.0, 2.0, 3.0, 4.0, 5.0], 50) == 3.0
    assert checks.percentile([1.0, 2.0], 90) == pytest.approx(1.9)
    values = [float(v) for v in range(1, 10)] + [math.inf]
    assert math.isinf(checks.percentile(values, 95))
    assert checks.percentile(values, 50) == pytest.approx(5.5)


def test_child_env_scrubs_dibella_variables(monkeypatch, tmp_path):
    monkeypatch.setenv("DIBELLA_BACKEND", "thread")
    monkeypatch.setenv("DIBELLA_SEED_MODE", "minimizer")
    env = procs.child_env(tmp_path)
    assert not any(key.startswith("DIBELLA_") for key in env)
    assert env["PYTHONPATH"] == str(tmp_path / "src")


def _span(name, start, end, rank=0, **attrs):
    return {"id": f"{rank}:{name}:{start}", "name": name, "rank": rank,
            "start": start, "end": end, "parent": None, **attrs}


def test_per_layer_arithmetic():
    pipeline = _span("core.pipeline", 0.0, 10.0, rank=-1, kind="run")
    launch = _span("core.spmd_run", 1.0, 9.0, rank=-1)
    launch["parent"] = pipeline["id"]
    spans = [
        pipeline, launch,
        _span("rank.program", 2.0, 8.0, rank=0, rss_mb=50.0),
        _span("rank.program", 2.0, 7.0, rank=1, rss_mb=60.0),
        _span("align.align_all", 3.0, 7.0, rank=0),
        _span("align.kernel", 3.0, 6.0, rank=0, cells=600),
        _span("seq.extract_kmers", 2.0, 2.5, rank=1, kmers=10),
    ]
    results = [{"kind": "run", "n_reads": 7, "wall_seconds": 8.0,
                "counters": {"distinct_keys": 10, "retained_kmers": 4,
                             "read_cache_hits": 3, "read_cache_misses": 1},
                "stages": {"alignment": {"compute_s": 4.0, "exchange_s": 0.5,
                                         "imbalance": 1.2}},
                "phases": {"bloom_exchange": {"bytes": 100, "calls": 1},
                           "default": {"bytes": 8, "calls": 1}}}]
    metrics = layers.per_layer(spans, results, n_ranks=2, true_pair_ratio=0.5,
                               overhead_s=0.25, latency_s=12.0)
    assert set(metrics) == {name for name, _unit in layers.PER_LAYER}
    assert metrics["align.marshal_s"] == pytest.approx(1.0)
    assert metrics["align.cells_per_s"] == pytest.approx(200.0)
    assert metrics["align.cells_per_call"] == pytest.approx(600.0)
    assert metrics["core.spmd_launch_s"] == pytest.approx(2.0)
    assert metrics["core.parent_overhead_s"] == pytest.approx(2.0)
    assert metrics["kmers.retained_ratio"] == pytest.approx(0.4)
    assert metrics["align.cache_hit_ratio"] == pytest.approx(0.75)
    assert metrics["mpisim.bytes.bloom_exchange"] == 100
    assert metrics["mpisim.bytes.other"] == 8
    assert metrics["mpisim.rank_peak_rss_mb"] == 60.0
    assert metrics["share.kernel_of_rank_time"] == pytest.approx(3.0 / 11.0)
    assert metrics["share.outside_kernel_of_pipeline"] == pytest.approx(1 - 1.5 / 10)
    assert metrics["share.outside_kernel_of_latency"] == pytest.approx(1 - 1.5 / 12)
    assert metrics["core.service.reads_per_batch"] == 7
