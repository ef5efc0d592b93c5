"""Span tracing of the program's layers, installed from outside ``src/``.

:func:`install` wraps the public entry points of each layer (module
functions and class methods) so that every call records a span: name,
rank, start, end and the span that was open when it began.  Spans stay in
the memory of the process that recorded them.  A rank process writes its
spans out when its rank program returns, which covers both freshly forked
rank workers and pooled ones parked between runs; the parent process
writes its own at the end (:meth:`Tracer.flush`).

Rank programs run in forked workers (process backend, ``fork`` start
method), so the wrappers installed before the first SPMD launch are
inherited by every rank.  Pooled rank jobs are pickled by qualified name;
each wrapper keeps its original's name, and the module attribute that name
resolves to *is* the wrapper, so pickling still round-trips.

Times come from ``time.monotonic`` (``CLOCK_MONOTONIC``), which all
processes of one host share, so rank spans can be placed inside the
parent's ``core.spmd_run`` spans.
"""

from __future__ import annotations

import functools
import json
import os
import resource
import time
from contextlib import contextmanager
from pathlib import Path
from typing import Any, Callable

#: The rank programs the pipeline launches; each is bound by name in both
#: ``repro.core.stages`` (where it is defined) and ``repro.core.pipeline``.
RANK_PROGRAMS = ("run_rank_pipeline", "run_index_build", "run_query_batch")

#: Public collectives of ``SimCommunicator``; none calls another.
COLLECTIVES = ("barrier", "bcast", "gather", "allgather", "allreduce", "reduce",
               "alltoall", "alltoallv", "alltoallv_start", "alltoallv_finish")


class Tracer:
    """Per-process span store; rank ``-1`` is the parent process."""

    def __init__(self, out_dir: Path):
        self.out_dir = Path(out_dir)
        self.rank = -1
        self.pid = os.getpid()
        self.spans: list[dict[str, Any]] = []
        self._stack: list[str] = []
        self._seq = 0
        self._flushes = 0
        #: (pipeline method, input reads, PipelineResult) of every pipeline
        #: call made by the parent process, in call order.
        self.results: list[tuple[str, int, Any]] = []

    def _adopt_process(self) -> None:
        """Drop spans inherited through ``fork``; this process starts empty."""
        if self.pid != os.getpid():
            self.pid = os.getpid()
            self.spans = []
            self._stack = []

    def open(self, name: str) -> dict[str, Any]:
        self._adopt_process()
        self._seq += 1
        span = {"id": f"{self.pid}:{self._seq}", "name": name, "rank": self.rank,
                "start": time.monotonic(), "end": None,
                "parent": self._stack[-1] if self._stack else None}
        self.spans.append(span)
        self._stack.append(span["id"])
        return span

    def close(self, span: dict[str, Any], attrs: dict[str, Any] | None = None) -> None:
        span["end"] = time.monotonic()
        if attrs:
            span.update(attrs)
        if self._stack and self._stack[-1] == span["id"]:
            self._stack.pop()

    @contextmanager
    def span(self, name: str):
        record = self.open(name)
        try:
            yield record
        finally:
            self.close(record)

    def add(self, name: str, start: float, end: float) -> None:
        """Record a span measured by the caller (e.g. an import before install)."""
        self._seq += 1
        self.spans.append({"id": f"{self.pid}:{self._seq}", "name": name,
                           "rank": self.rank, "start": start, "end": end,
                           "parent": None})

    def flush(self) -> None:
        """Append this process's finished spans to its own JSON-lines file."""
        done = [span for span in self.spans if span["end"] is not None]
        if not done:
            return
        self.out_dir.mkdir(parents=True, exist_ok=True)
        self._flushes += 1
        path = self.out_dir / f"spans-{self.pid}-{self._flushes}.jsonl"
        with open(path, "w", encoding="utf-8") as fh:
            for span in done:
                fh.write(json.dumps(span) + "\n")
        self.spans = [span for span in self.spans if span["end"] is None]


def _wrap(tracer: Tracer, owner: Any, attr: str, name: str,
          attrs_of: Callable[[tuple, Any], dict] | None = None) -> Callable:
    original = getattr(owner, attr)

    @functools.wraps(original)
    def wrapper(*args, **kwargs):
        span = tracer.open(name)
        result = None
        try:
            result = original(*args, **kwargs)
            return result
        finally:
            tracer.close(span, attrs_of(args, result)
                         if attrs_of is not None and result is not None else None)

    setattr(owner, attr, wrapper)
    return wrapper


def _wrap_generator(tracer: Tracer, owner: Any, attr: str, name: str) -> None:
    """Time every ``next()`` of a generator method as one span."""
    original = getattr(owner, attr)

    @functools.wraps(original)
    def wrapper(*args, **kwargs):
        iterator = original(*args, **kwargs)
        while True:
            span = tracer.open(name)
            try:
                item = next(iterator)
            except StopIteration:
                return
            finally:
                tracer.close(span)
            yield item

    setattr(owner, attr, wrapper)


def _wrap_rank_program(tracer: Tracer, modules: list[Any], attr: str) -> None:
    original = getattr(modules[0], attr)

    @functools.wraps(original)
    def wrapper(comm, *args, **kwargs):
        tracer._adopt_process()
        tracer.rank = comm.rank
        span = tracer.open("rank.program")
        try:
            return original(comm, *args, **kwargs)
        finally:
            rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
            tracer.close(span, {"program": attr, "rss_mb": rss_mb})
            tracer.flush()

    for module in modules:
        setattr(module, attr, wrapper)


def _capture_result(tracer: Tracer, owner: Any, attr: str) -> None:
    original = getattr(owner, attr)

    @functools.wraps(original)
    def wrapper(*args, **kwargs):
        span = tracer.open("core.pipeline")
        try:
            result = original(*args, **kwargs)
        finally:
            tracer.close(span, {"kind": attr})
        tracer.results.append((attr, len(args[1]), result))
        return result

    setattr(owner, attr, wrapper)


def install(tracer: Tracer) -> None:
    """Wrap every traced layer boundary (idempotence is not needed: call once)."""
    import repro.align.batch as align_batch
    import repro.cli as cli
    import repro.core.pipeline as pipeline
    import repro.core.stages as stages
    import repro.io.fastq as fastq_io
    import repro.mpisim.backend as backend
    from repro.align.batch import BatchAligner
    from repro.kmers.bloom import BloomFilter
    from repro.kmers.hashtable import KmerHashTablePartition, ShardedKmerIndex
    from repro.mpisim.communicator import SimCommunicator
    from repro.overlap.pairs import OverlapTable

    # Parent side: input, partition, launch, result assembly.
    _wrap(tracer, cli, "read_fastq", "io.read_fastq")
    _wrap(tracer, fastq_io, "read_fastq", "io.read_fastq")
    _wrap(tracer, pipeline, "partition_reads", "core.partition")
    _wrap(tracer, pipeline, "spmd_run", "core.spmd_run")
    for attr in ("run", "build_index", "run_query_batch"):
        _capture_result(tracer, pipeline.DibellaPipeline, attr)

    # Rank side.
    for attr in RANK_PROGRAMS:
        _wrap_rank_program(tracer, [stages, pipeline], attr)
    _wrap(tracer, stages, "extract_kmers_batch", "seq.extract_kmers",
          lambda args, result: {"kmers": int(result[0].size)})
    _wrap(tracer, BloomFilter, "insert_many", "kmers.bloom_insert")
    _wrap(tracer, KmerHashTablePartition, "add_candidate_keys", "kmers.table_insert")
    _wrap(tracer, KmerHashTablePartition, "add_occurrences", "kmers.table_insert")
    _wrap(tracer, ShardedKmerIndex, "insert_batch", "kmers.table_insert")
    _wrap(tracer, KmerHashTablePartition, "finalize_keys", "kmers.table_finalize")
    _wrap_generator(tracer, KmerHashTablePartition, "finalize_shards",
                    "kmers.table_finalize")
    _wrap(tracer, ShardedKmerIndex, "merged_shard", "kmers.index_merge")
    _wrap(tracer, stages, "generate_pairs", "overlap.generate_pairs",
          lambda args, result: {"pairs": len(result)})
    _wrap(tracer, OverlapTable, "from_pairs", "overlap.consolidate")
    _wrap(tracer, BatchAligner, "align_all", "align.align_all",
          lambda args, result: {"tasks": len(result)})
    _wrap(tracer, align_batch, "batched_extend", "align.kernel",
          lambda args, result: {"cells": int(sum(r.cells for r in result)),
                                "tasks": len(result)})
    for attr in COLLECTIVES:
        _wrap(tracer, SimCommunicator, attr, "mpisim.collective")
    _wrap(tracer, backend, "encode_payload", "mpisim.encode")
    _wrap(tracer, backend, "decode_payload", "mpisim.decode")


def result_summary(entry: tuple[str, int, Any]) -> dict[str, Any]:
    """The JSON-safe parts of one :attr:`Tracer.results` entry."""
    kind, n_reads, result = entry
    stages = {}
    for record in result.stages:
        stages[record.name] = {
            "compute_s": float(max(record.wall_compute_seconds, default=0.0)),
            "exchange_s": float(max(record.wall_exchange_seconds, default=0.0)),
            "imbalance": record.wall_load_imbalance(),
        }
    phases = {name: {"bytes": int(data["total_bytes"]),
                     "calls": int(data["collective_calls"])}
              for name, data in result.trace.summary().items()}
    return {"kind": kind, "n_reads": n_reads, "wall_seconds": result.wall_seconds,
            "counters": {k: int(v) for k, v in result.counters.items()},
            "stages": stages, "phases": phases}
