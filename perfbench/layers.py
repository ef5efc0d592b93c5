"""Per-layer metrics of one traced operation, from spans and pipeline results.

Conventions (see perfbench/README.md for what each metric should move):

* ``*_s`` metrics read from spans are totals over the traced operation,
  summed over every process that recorded them (ranks and parent), so a
  rank-side time is in rank-seconds;
* counts (``seq.kmers_extracted``, ``align.dp_cells``, ``align.kernel_calls``,
  ``mpisim.collective_calls``) are totals over the operation, summed over
  ranks;
* metrics read from ``PipelineResult`` (``core.stage.*``, ``mpisim.bytes.*``,
  ``kmers.retained_ratio``, ``align.cache_hit_ratio``) are per pipeline
  run, averaged over the operation's runs with index builds left out;
* ``core.spmd_launch_s`` and ``core.parent_overhead_s`` are means per SPMD
  launch and per pipeline call.
"""

from __future__ import annotations

import json
from pathlib import Path

STAGES = ("bloom", "hashtable", "overlap", "alignment", "query_route")
PHASES = ("bloom_exchange", "hashtable_exchange", "overlap_exchange",
          "alignment_exchange", "query_route_exchange")

#: Every per-layer metric, in print order, with its unit.
PER_LAYER: list[tuple[str, str]] = [
    ("cli.import_s", "s"),
    ("io.read_fastq_s", "s"),
    ("core.partition_s", "s"),
    ("seq.extract_kmers_s", "s"),
    ("seq.kmers_extracted", "count"),
    ("kmers.bloom_insert_s", "s"),
    ("kmers.table_insert_s", "s"),
    ("kmers.table_finalize_s", "s"),
    ("kmers.retained_ratio", "ratio"),
    ("kmers.index_merge_s", "s"),
    ("overlap.generate_pairs_s", "s"),
    ("overlap.consolidate_s", "s"),
    ("overlap.true_pair_ratio", "ratio"),
    ("align.align_all_s", "s"),
    ("align.kernel_s", "s"),
    ("align.marshal_s", "s"),
    ("align.dp_cells", "count"),
    ("align.cells_per_s", "1/s"),
    ("align.kernel_calls", "count"),
    ("align.cells_per_call", "count"),
    ("align.cache_hit_ratio", "ratio"),
    *[(f"mpisim.bytes.{phase}", "B") for phase in PHASES],
    ("mpisim.bytes.other", "B"),
    ("mpisim.collective_calls", "count"),
    ("mpisim.collective_s", "s"),
    ("mpisim.encode_s", "s"),
    ("mpisim.decode_s", "s"),
    ("mpisim.rank_peak_rss_mb", "MB"),
    ("core.spmd_launch_s", "s"),
    ("core.parent_overhead_s", "s"),
    ("core.service.reads_per_batch", "count"),
    *[(f"core.stage.{stage}.{part}", "s") for stage in STAGES
      for part in ("compute_s", "exchange_s")],
    ("core.stage.alignment.imbalance", "ratio"),
    ("share.kernel_of_rank_time", "ratio"),
    ("share.seq_kmers_of_rank_time", "ratio"),
    ("share.outside_kernel_of_pipeline", "ratio"),
    ("share.outside_kernel_of_latency", "ratio"),
    ("trace.overhead_s", "s"),
]

_SEQ_KMERS_SPANS = ("seq.extract_kmers", "kmers.bloom_insert", "kmers.table_insert",
                    "kmers.table_finalize", "kmers.index_merge")


def load_spans(trace_dir: Path) -> list[dict]:
    spans = []
    for path in sorted(trace_dir.glob("spans-*.jsonl")):
        for line in path.read_text(encoding="utf-8").splitlines():
            spans.append(json.loads(line))
    return spans


def _duration(span: dict) -> float:
    return span["end"] - span["start"]


def _mean(values: list[float]) -> float:
    return sum(values) / len(values) if values else 0.0


def per_layer(spans: list[dict], results: list[dict], *, n_ranks: int,
              true_pair_ratio: float, overhead_s: float,
              latency_s: float) -> dict[str, float]:
    """Every :data:`PER_LAYER` metric of one traced operation.

    *results* are ``instrument.result_summary`` dicts in call order, each
    tagged with the ``kind`` of pipeline call that produced it.
    *latency_s* is the mean latency a user saw for one pipeline run of the
    untraced twin of the operation: the CLI wall clock of a one-shot run,
    or the mean submission latency of a serve segment.
    """
    by_name: dict[str, list[dict]] = {}
    for span in spans:
        by_name.setdefault(span["name"], []).append(span)

    def total(name: str) -> float:
        return sum(_duration(span) for span in by_name.get(name, []))

    def attr_sum(name: str, attr: str) -> int:
        return sum(int(span.get(attr, 0)) for span in by_name.get(name, []))

    runs = [r for r in results if r["kind"] != "build_index"]

    def counter(name: str) -> int:
        return sum(r["counters"].get(name, 0) for r in runs)

    kernel_s = total("align.kernel")
    cells = attr_sum("align.kernel", "cells")
    kernel_calls = len(by_name.get("align.kernel", []))
    rank_s = total("rank.program")
    distinct = counter("distinct_keys")
    hits, misses = counter("read_cache_hits"), counter("read_cache_misses")

    # A rank program belongs to the SPMD launch whose interval contains it.
    launch = []
    for run in by_name.get("core.spmd_run", []):
        inside = [_duration(s) for s in by_name.get("rank.program", [])
                  if s["start"] >= run["start"] and s["end"] <= run["end"]]
        launch.append(_duration(run) - max(inside, default=0.0))
    overhead = []
    for call in by_name.get("core.pipeline", []):
        nested = sum(_duration(s) for s in by_name.get("core.spmd_run", [])
                     if s["parent"] == call["id"])
        overhead.append(_duration(call) - nested)
    pipeline_s = sum(_duration(call) for call in by_name.get("core.pipeline", [])
                     if call.get("kind") != "build_index")

    metrics: dict[str, float] = {
        "cli.import_s": total("cli.import"),
        "io.read_fastq_s": total("io.read_fastq"),
        "core.partition_s": total("core.partition"),
        "seq.extract_kmers_s": total("seq.extract_kmers"),
        "seq.kmers_extracted": attr_sum("seq.extract_kmers", "kmers"),
        "kmers.bloom_insert_s": total("kmers.bloom_insert"),
        "kmers.table_insert_s": total("kmers.table_insert"),
        "kmers.table_finalize_s": total("kmers.table_finalize"),
        "kmers.retained_ratio": counter("retained_kmers") / distinct if distinct else 0.0,
        "kmers.index_merge_s": total("kmers.index_merge"),
        "overlap.generate_pairs_s": total("overlap.generate_pairs"),
        "overlap.consolidate_s": total("overlap.consolidate"),
        "overlap.true_pair_ratio": true_pair_ratio,
        "align.align_all_s": total("align.align_all"),
        "align.kernel_s": kernel_s,
        "align.marshal_s": total("align.align_all") - kernel_s,
        "align.dp_cells": cells,
        "align.cells_per_s": cells / kernel_s if kernel_s > 0 else 0.0,
        "align.kernel_calls": kernel_calls,
        "align.cells_per_call": cells / kernel_calls if kernel_calls else 0.0,
        "align.cache_hit_ratio": hits / (hits + misses) if hits + misses else 0.0,
        "mpisim.collective_calls": len(by_name.get("mpisim.collective", [])),
        "mpisim.collective_s": total("mpisim.collective"),
        "mpisim.encode_s": total("mpisim.encode"),
        "mpisim.decode_s": total("mpisim.decode"),
        "mpisim.rank_peak_rss_mb": max((s.get("rss_mb", 0.0)
                                        for s in by_name.get("rank.program", [])),
                                       default=0.0),
        "core.spmd_launch_s": _mean(launch),
        "core.parent_overhead_s": _mean(overhead),
        "core.service.reads_per_batch": _mean(
            [r["counters"].get("query_reads", r["n_reads"]) for r in runs]),
        "share.kernel_of_rank_time": kernel_s / rank_s if rank_s > 0 else 0.0,
        "share.seq_kmers_of_rank_time": (sum(total(n) for n in _SEQ_KMERS_SPANS) / rank_s
                                         if rank_s > 0 else 0.0),
        "share.outside_kernel_of_pipeline": (1.0 - kernel_s / n_ranks / pipeline_s
                                             if pipeline_s > 0 else 0.0),
        "share.outside_kernel_of_latency": (
            1.0 - kernel_s / n_ranks / len(runs) / latency_s
            if runs and latency_s > 0 else 0.0),
        "trace.overhead_s": overhead_s,
    }
    other = 0
    for phase in PHASES:
        metrics[f"mpisim.bytes.{phase}"] = _mean(
            [r["phases"].get(phase, {}).get("bytes", 0) for r in runs])
    for r in runs:
        other += sum(data["bytes"] for name, data in r["phases"].items()
                     if name not in PHASES)
    metrics["mpisim.bytes.other"] = other / len(runs) if runs else 0.0
    for stage in STAGES:
        for part in ("compute_s", "exchange_s"):
            metrics[f"core.stage.{stage}.{part}"] = _mean(
                [r["stages"].get(stage, {}).get(part, 0.0) for r in runs])
    metrics["core.stage.alignment.imbalance"] = _mean(
        [r["stages"]["alignment"]["imbalance"] for r in runs
         if "alignment" in r["stages"]])
    return {name: float(metrics[name]) for name, _unit in PER_LAYER}
