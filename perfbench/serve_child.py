"""One serve-open segment: build the resident index, then serve an open loop.

Usage::

    python3 perfbench/serve_child.py SPEC_JSON OUT_JSON [TRACE_DIR]

``SPEC_JSON`` names the index and query FASTQ files, the query positions
to serve with their scheduled arrival offsets (seconds after the index is
resident) and the batching window.  The child builds an
``AlignmentService`` on the process backend (pooled, 1 node x 2 ranks),
records the monotonic time at which the index is resident, then replays
the schedule open-loop: arrivals are due on the schedule whether or not
the service keeps up.

Batches are cut on a fixed window grid: at each tick ``k * window`` the
arrivals scheduled in ``((k-1) * window, k * window]`` are submitted (one
submission per query read) and drained as one batch, once the previous
batch has finished.  Batch composition is therefore a function of the
schedule alone, so the served alignments are reproducible, while a slow
service still delays every later query.  Each query's latency runs from
its scheduled arrival to the end of the batch that served it; a failed
batch marks its queries as failed.

With ``TRACE_DIR`` the layer spans are installed before the first SPMD
launch (see ``instrument.py``).
"""

from __future__ import annotations

import json
import sys
import time
import traceback
from pathlib import Path


def main() -> int:
    spec = json.loads(Path(sys.argv[1]).read_text(encoding="utf-8"))
    out_path = Path(sys.argv[2])
    trace_dir = Path(sys.argv[3]) if len(sys.argv) > 3 else None

    start = time.monotonic()
    import repro.io.fastq as fastq_io
    from repro.core.config import PipelineConfig
    from repro.core.service import AlignmentService
    from repro.mpisim.topology import Topology
    imported = time.monotonic()

    tracer = None
    if trace_dir is not None:
        from instrument import Tracer, install, result_summary

        tracer = Tracer(trace_dir)
        tracer.add("cli.import", start, imported)
        install(tracer)

    index_reads = fastq_io.read_fastq(spec["index_fastq"])
    query_reads = fastq_io.read_fastq(spec["queries_fastq"])
    config = PipelineConfig().with_backend("process")
    service = AlignmentService(index_reads, config=config,
                               topology=Topology(n_nodes=1, ranks_per_node=2))
    build = service.build()
    ready = time.monotonic()

    positions = spec["positions"]
    arrivals = spec["arrivals"]
    window = float(spec["window_s"])
    latencies: list[float | None] = [None] * len(positions)
    batches = []
    alignments: list[str] = []
    pairs: list[tuple[int, int]] = []
    cursor = 0
    tick = 0
    n_index = len(index_reads)
    while cursor < len(positions):
        tick += 1
        due = ready + tick * window
        members = []
        while cursor < len(positions) and arrivals[cursor] <= tick * window:
            members.append(cursor)
            cursor += 1
        if not members:
            continue
        delay = due - time.monotonic()
        if delay > 0:
            time.sleep(delay)
        for member in members:
            service.submit([query_reads[positions[member]]])
        try:
            record = service.drain()[0]
        except Exception:  # noqa: BLE001 - a failed batch is counted, not fatal
            print(f"batch at tick {tick} failed:", file=sys.stderr)
            traceback.print_exc()
            batches.append({"tick": tick, "n_reads": len(members), "failed": True})
            continue
        end = time.monotonic()
        for member in members:
            latencies[member] = end - (ready + arrivals[member])
        counters = record.result.counters
        batches.append({
            "tick": tick, "n_reads": record.n_reads, "failed": False,
            "wall_s": record.wall_seconds, "late_s": max(0.0, -delay),
            "index_reuse_hits": int(counters.get("index_reuse_hits", 0)),
            "index_build_runs": int(counters.get("index_build_runs", 0)),
        })
        # Query RIDs are n_index + position within the batch; map them back
        # to the query stream's original names and positions.
        names = [name.split("/", 1)[1] for name in record.query_names]
        table = record.result.alignment_table()
        for ra, rb, score, sa, sb in zip(table["rid_a"], table["rid_b"],
                                         table["score"], table["span_a"],
                                         table["span_b"]):
            alignments.append(f"{index_reads[int(ra)].name}\t"
                              f"{names[int(rb) - n_index]}\t{score}\t{sa}\t{sb}")
        for ra, rb in record.result.overlap_pairs():
            pairs.append((int(ra), int(names[int(rb) - n_index].split("_")[1])))
    service.shutdown()

    out = {
        "ready": ready,
        "build_wall_s": build.wall_seconds,
        "build_index_build_runs": int(build.counters.get("index_build_runs", 0)),
        "latencies": latencies,
        "batches": batches,
        "alignments": alignments,
        "pairs": pairs,
    }
    if tracer is not None:
        tracer.flush()
        out["results"] = [result_summary(entry) for entry in tracer.results]
    out_path.write_text(json.dumps(out), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
