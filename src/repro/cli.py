"""Command-line interface: ``dibella``.

Subcommands
-----------
``simulate``
    Generate a synthetic PacBio-like data set and write it as FASTQ.
``run``
    Run the overlap + alignment pipeline on a FASTQ file (or a named
    synthetic preset) and print the run summary; optionally write the
    detected overlaps to a TSV file.
``serve``
    Build/serve session: build the resident k-mer index over a slice of the
    input, then drain the remaining reads through the
    :class:`~repro.core.service.AlignmentService` as repeated query batches,
    printing per-batch latency and reuse counters.
``query``
    One query batch: build the index from ``--index`` and align the
    ``--queries`` reads against it (the serve phase without the admission
    loop).
``experiment``
    Regenerate one of the paper's tables/figures and print its rows.
``platforms``
    Print the Table 1 platform registry.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import replace
from pathlib import Path

from repro.bench import experiments as exp
from repro.bench.reporting import format_table
from repro.core.config import PipelineConfig
from repro.core.driver import run_dibella
from repro.core.service import AlignmentService
from repro.mpisim.topology import Topology
from repro.data.datasets import (
    ecoli100x_like,
    ecoli30x_like,
    generate_dataset,
    tiny_dataset,
)
from repro.io.fastq import read_fastq, write_fastq
from repro.overlap.seeds import SeedStrategy
from repro.seq.kmer import KmerSpec

_PRESETS = {
    "tiny": tiny_dataset,
    "ecoli30x": ecoli30x_like,
    "ecoli100x": ecoli100x_like,
}

_EXPERIMENTS = {
    "table1": exp.table1_platforms,
    "fig3": exp.figure3_bloom_scaling,
    "fig4": exp.figure4_bloom_efficiency_aws,
    "fig5": exp.figure5_hashtable_scaling,
    "fig6": exp.figure6_overlap_scaling,
    "fig7": exp.figure7_alignment_scaling,
    "fig8": exp.figure8_load_imbalance,
    "fig9": exp.figure9_breakdown_30x,
    "fig10": exp.figure10_breakdown_100x,
    "fig11": exp.figure11_overall_efficiency,
    "fig12": exp.figure12_exchange_efficiency,
    "fig13": exp.figure13_pipeline_performance,
    "table2": exp.table2_single_node,
}


def _pipeline_parent() -> argparse.ArgumentParser:
    """The flags every pipeline subcommand (run, serve, query) shares.

    :func:`_shared_config` folds them into a :class:`PipelineConfig`; an
    omitted flag keeps the config default, which honours the matching
    ``DIBELLA_*`` environment variable.
    """
    shared = argparse.ArgumentParser(add_help=False)
    shared.add_argument("-k", type=int, default=17, help="k-mer length")
    shared.add_argument("--nodes", type=int, default=1, help="simulated node count")
    shared.add_argument("--ranks-per-node", type=int, default=2)
    shared.add_argument("--backend", choices=["thread", "process"], default=None,
                        help="SPMD runtime backend: threads (default) or one "
                             "process per rank exchanging typed buffers via "
                             "shared memory (DIBELLA_BACKEND has the same effect)")
    shared.add_argument("--seed-mode", choices=["reliable", "minimizer"], default=None,
                        help="seeding front-end of stages 1-3: 'reliable' (the "
                             "paper) exchanges every canonical k-mer; 'minimizer' "
                             "keeps only the minimum-hash k-mer per window of "
                             "--minimizer-window, cutting stage 1-3 wire bytes "
                             "and table memory ~w/2-x at a small recall cost; an "
                             "index build and its query batches sketch with the "
                             "same (k, w) (DIBELLA_SEED_MODE has the same effect)")
    shared.add_argument("--minimizer-window", type=int, default=None,
                        help="minimizer window length w in k-mers (default 11; "
                             "1 = keep every k-mer; ignored in reliable mode; "
                             "DIBELLA_MINIMIZER_WINDOW has the same effect)")
    shared.add_argument("--hash-shards", type=int, default=None,
                        help="number of k-mer code-range shards the retained-k-mer "
                             "table is built in; >1 streams the hash-table/overlap "
                             "boundary one shard at a time, bounding peak table "
                             "memory (default honours DIBELLA_HASH_SHARDS, else 4)")
    shared.add_argument("--read-cache-mb", type=float, default=None,
                        help="byte-capacity LRU bound (MiB) of each rank's "
                             "alignment-stage read cache; 0 (the default) is "
                             "unbounded (DIBELLA_READ_CACHE_MB has the same effect)")
    shared.add_argument("--sanitize", action="store_true", default=None,
                        help="arm the runtime sanitizer: cross-rank collective "
                             "congruence checks, split-phase segment lifecycle "
                             "guards and a hang watchdog (DIBELLA_SANITIZE=1 has "
                             "the same effect; output is bit-identical)")
    shared.add_argument("--fault-plan", default=None, metavar="PLAN",
                        help="deterministic fault plan injected into the SPMD "
                             "runs, e.g. 'kill:rank=2:step=3' (a serve session "
                             "numbers its build run 0 and its batches from 1; "
                             "grammar in docs/fault-tolerance.md; kill faults "
                             "need --backend process; DIBELLA_FAULT_PLAN has "
                             "the same effect)")
    return shared


def _source_parent() -> argparse.ArgumentParser:
    """The input-selection flags of ``run`` and ``serve`` (see :func:`_load_reads`)."""
    source = argparse.ArgumentParser(add_help=False)
    source.add_argument("--input", help="input FASTQ file (omit to use --preset)")
    source.add_argument("--preset", choices=sorted(_PRESETS), default="tiny")
    source.add_argument("--scale", type=float, default=0.01,
                        help="genome scale factor for the E. coli presets")
    return source


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dibella",
        description="diBELLA reproduction: distributed long-read overlap and alignment",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    shared = _pipeline_parent()
    source = _source_parent()

    sim = sub.add_parser("simulate", help="generate a synthetic data set as FASTQ")
    sim.add_argument("--preset", choices=sorted(_PRESETS), default="tiny")
    sim.add_argument("--scale", type=float, default=0.01,
                     help="genome scale factor for the E. coli presets")
    sim.add_argument("--output", required=True, help="output FASTQ path")

    run = sub.add_parser("run", parents=[source, shared],
                         help="run the overlap+alignment pipeline")
    run.add_argument("--seed-strategy", choices=["one", "d1000", "dk"], default="one")
    run.add_argument("--exchange-chunk-mb", type=float, default=None,
                     help="per-rank wire budget (MiB) of each overlap-exchange "
                          "superstep; 0 disables chunking (one monolithic "
                          "Alltoallv); default honours DIBELLA_EXCHANGE_CHUNK_MB, "
                          "else 8")
    run.add_argument("--batch-reads", type=int, default=None,
                     help="local reads parsed per streaming superstep in the "
                          "k-mer stages (the memory bound of the streaming "
                          "pipeline; DIBELLA_BATCH_READS has the same effect, "
                          "default 2048)")
    run.add_argument("--pool", action="store_true", default=None,
                     help="acquire ranks from the persistent rank pool (processes "
                          "parked on a barrier between runs; amortises startup and "
                          "keeps per-rank read caches across runs; DIBELLA_POOL=1 "
                          "has the same effect)")
    run.add_argument("--no-double-buffer", action="store_true",
                     help="disable double buffering of the streamed stages' "
                          "exchange supersteps (bulk-synchronous schedule; output is "
                          "bit-identical either way)")
    run.add_argument("--pool-stats", action="store_true",
                     help="print per-pool usage statistics (runs served, forks "
                          "amortised) after the run; only meaningful with --pool")
    run.add_argument("--overlaps-out", help="write detected overlaps to this TSV file")

    serve = sub.add_parser(
        "serve", parents=[source, shared],
        help="build a resident index, then serve repeated query batches")
    serve.add_argument("--pool", action="store_true", default=None,
                       help="force the persistent rank pool on (the service "
                            "already forces it for the process backend — index "
                            "residency requires surviving workers)")
    serve.add_argument("--index-fraction", type=float, default=0.8,
                       help="fraction of the input reads indexed; the rest "
                            "become the query stream (default 0.8)")
    serve.add_argument("--query-batches", type=int, default=2,
                       help="number of query batches the non-indexed reads are "
                            "split into (default 2: enough to show reuse)")
    serve.add_argument("--serve-batch-reads", type=int, default=None,
                       help="admission bound: queued submissions are coalesced "
                            "into batches of at most this many reads "
                            "(DIBELLA_SERVE_BATCH_READS has the same effect)")
    serve.add_argument("--serve-max-retries", type=int, default=None,
                       help="retries of an index build or query batch whose "
                            "run died from a rank failure (default 2; 0 "
                            "disables recovery; DIBELLA_SERVE_MAX_RETRIES has "
                            "the same effect)")
    serve.add_argument("--pool-stats", action="store_true",
                       help="print per-pool usage statistics after the session")

    query = sub.add_parser(
        "query", parents=[shared],
        help="align one query batch against an index read set")
    query.add_argument("--index", required=True, help="index FASTQ file")
    query.add_argument("--queries", required=True, help="query FASTQ file")
    query.add_argument("--serve-max-retries", type=int, default=None,
                       help="retries of a build/batch killed by a rank failure "
                            "(default 2; DIBELLA_SERVE_MAX_RETRIES has the "
                            "same effect)")
    query.add_argument("--overlaps-out",
                       help="write the query-vs-index alignments to this TSV file")

    ex = sub.add_parser("experiment", help="regenerate a paper table/figure")
    ex.add_argument("name", choices=sorted(_EXPERIMENTS))

    sub.add_parser("platforms", help="print the Table 1 platform registry")
    return parser


def _resolve_strategy(name: str, k: int) -> SeedStrategy:
    if name == "one":
        return SeedStrategy.one_seed()
    if name == "d1000":
        return SeedStrategy.separated_by(1000)
    return SeedStrategy.separated_by(k)


def _print_pool_stats() -> None:
    from repro.mpisim.backend import rank_pool_stats

    stats = rank_pool_stats()
    if not stats:
        print("pool: no active rank pools")
        return
    for entry in stats:
        print(f"pool[{entry['start_method']} x{entry['n_ranks']}]: "
              f"runs_completed={entry['runs_completed']} "
              f"forks_amortised={entry['forks_amortised']}")


def _load_reads(args: argparse.Namespace) -> tuple["object", str]:
    """The input read set and a printable source label (FASTQ or preset)."""
    if getattr(args, "input", None):
        return read_fastq(args.input), args.input
    factory = _PRESETS[args.preset]
    spec = factory() if args.preset == "tiny" else factory(scale=args.scale)
    return generate_dataset(spec).reads, spec.name


def _cmd_simulate(args: argparse.Namespace) -> int:
    factory = _PRESETS[args.preset]
    spec = factory() if args.preset == "tiny" else factory(scale=args.scale)
    dataset = generate_dataset(spec)
    count = write_fastq(dataset.reads, Path(args.output))
    print(f"wrote {count} reads ({dataset.reads.total_bases} bases) to {args.output}")
    return 0


def _shared_config(args: argparse.Namespace) -> PipelineConfig:
    """Fold the flags of :func:`_pipeline_parent` into a :class:`PipelineConfig`.

    The backend is folded in before the fault plan, because kill-plan
    validation depends on it (kill faults are rejected on the thread
    backend).  ``--nodes`` / ``--ranks-per-node`` are the topology, not
    config: see :func:`_topology`.
    """
    config = PipelineConfig(kmer=KmerSpec(k=args.k))
    if args.backend is not None:
        config = config.with_backend(args.backend)
    if args.seed_mode is not None or args.minimizer_window is not None:
        config = config.with_seed_mode(args.seed_mode or config.seed_mode,
                                       args.minimizer_window)
    if args.hash_shards is not None:
        config = config.with_hash_table_shards(args.hash_shards)
    if args.read_cache_mb is not None:
        config = config.with_read_cache_mb(args.read_cache_mb)
    if args.sanitize:
        config = config.with_sanitize(True)
    if args.fault_plan is not None:
        config = config.with_fault_plan(args.fault_plan)
    return config


def _topology(args: argparse.Namespace) -> Topology:
    """The simulated machine layout of the shared ``--nodes`` / ``--ranks-per-node``."""
    return Topology(n_nodes=args.nodes, ranks_per_node=args.ranks_per_node)


def _run_config(args: argparse.Namespace) -> PipelineConfig:
    """The ``run`` subcommand's config: the shared flags plus the run-only knobs."""
    config = replace(_shared_config(args),
                     seed_strategy=_resolve_strategy(args.seed_strategy, args.k))
    if args.exchange_chunk_mb is not None:
        # 0 disables chunking; negative values fall through to the config's
        # validation error instead of silently disabling.  Omitting the flag
        # honours DIBELLA_EXCHANGE_CHUNK_MB (else the 8 MiB default).
        config = replace(config, exchange_chunk_mb=(
            args.exchange_chunk_mb if args.exchange_chunk_mb != 0 else None))
    if args.batch_reads is not None:
        config = replace(config, batch_reads=args.batch_reads)
    if args.pool:
        config = config.with_pool(True)
    if args.no_double_buffer:
        config = config.with_double_buffer(False)
    return config


def _cmd_run(args: argparse.Namespace) -> int:
    reads, source = _load_reads(args)
    result = run_dibella(reads, config=_run_config(args), n_nodes=args.nodes,
                         ranks_per_node=args.ranks_per_node)
    print(f"input: {source} ({len(reads)} reads, {reads.total_bases} bases)")
    for key, value in result.summary().items():
        print(f"  {key}: {value}")
    if args.overlaps_out:
        table = result.alignment_table()
        with open(args.overlaps_out, "w", encoding="ascii") as fh:
            fh.write("rid_a\trid_b\tscore\tspan_a\tspan_b\n")
            for ra, rb, score, sa, sb in zip(
                table["rid_a"], table["rid_b"], table["score"],
                table["span_a"], table["span_b"],
            ):
                fh.write(f"{ra}\t{rb}\t{score}\t{sa}\t{sb}\n")
        print(f"wrote {table['rid_a'].size} alignments to {args.overlaps_out}")
    if args.pool_stats:
        _print_pool_stats()
    return 0


def _serve_config(args: argparse.Namespace) -> PipelineConfig:
    """The serve/query subcommands' config: the shared flags plus the service knobs."""
    config = _shared_config(args)
    if getattr(args, "pool", None):
        config = config.with_pool(True)
    if getattr(args, "serve_batch_reads", None) is not None:
        config = config.with_serve_batch_reads(args.serve_batch_reads)
    if args.serve_max_retries is not None:
        config = config.with_serve_max_retries(args.serve_max_retries)
    return config


def _cmd_serve(args: argparse.Namespace) -> int:
    reads, source = _load_reads(args)
    if not (0.0 < args.index_fraction < 1.0):
        print("serve: --index-fraction must be in (0, 1)", file=sys.stderr)
        return 2
    n_index = max(1, min(len(reads) - 1, int(len(reads) * args.index_fraction)))
    query_rids = list(range(n_index, len(reads)))
    if not query_rids:
        print("serve: input leaves no query reads after the index slice",
              file=sys.stderr)
        return 2
    service = AlignmentService(reads.subset(range(n_index)),
                               config=_serve_config(args), topology=_topology(args))

    build = service.build()
    print(f"index: {source} reads 0..{n_index - 1} "
          f"({build.counters.get('index_retained_kmers', 0)} retained k-mers, "
          f"{build.wall_seconds:.3f}s build)")

    n_batches = max(1, min(args.query_batches, len(query_rids)))
    bounds = [len(query_rids) * i // n_batches for i in range(n_batches + 1)]
    for lo, hi in zip(bounds[:-1], bounds[1:]):
        service.submit([reads[rid] for rid in query_rids[lo:hi]])
        service.drain()

    for record in service.records:
        counters = record.result.counters
        print(f"batch {record.batch_index}: {record.n_reads} reads -> "
              f"{counters.get('accepted_alignments', 0)} alignments in "
              f"{record.wall_seconds:.3f}s "
              f"(index_reuse_hits={counters.get('index_reuse_hits', 0)}, "
              f"index_build_runs={counters.get('index_build_runs', 0)})")
    for key, value in service.latency_stats().items():
        print(f"  {key}: {value:.4f}")
    if args.pool_stats:
        _print_pool_stats()
    return 0


def _cmd_query(args: argparse.Namespace) -> int:
    index_reads = read_fastq(args.index)
    query_reads = read_fastq(args.queries)
    service = AlignmentService(index_reads, config=_serve_config(args),
                               topology=_topology(args))
    service.submit(list(query_reads))
    record = service.drain()[0]
    counters = record.result.counters
    print(f"index: {args.index} ({len(index_reads)} reads)  "
          f"queries: {args.queries} ({len(query_reads)} reads)")
    print(f"  alignments: {counters.get('accepted_alignments', 0)}")
    print(f"  overlap_pairs: {counters.get('overlap_pairs', 0)}")
    print(f"  wall_seconds: {record.wall_seconds:.3f}")
    if args.overlaps_out:
        table = record.result.alignment_table()
        n_index = len(index_reads)
        with open(args.overlaps_out, "w", encoding="utf-8") as fh:
            fh.write("index_read\tquery_read\tscore\tspan_a\tspan_b\n")
            for ra, rb, score, sa, sb in zip(
                table["rid_a"], table["rid_b"], table["score"],
                table["span_a"], table["span_b"],
            ):
                fh.write(f"{index_reads[int(ra)].name}\t"
                         f"{query_reads[int(rb) - n_index].name}\t"
                         f"{score}\t{sa}\t{sb}\n")
        print(f"wrote {table['rid_a'].size} alignments to {args.overlaps_out}")
    return 0


def _cmd_experiment(args: argparse.Namespace) -> int:
    rows = _EXPERIMENTS[args.name]()
    print(format_table(rows, title=f"Experiment {args.name}"))
    return 0


def _cmd_platforms(_args: argparse.Namespace) -> int:
    print(format_table(exp.table1_platforms(), title="Table 1: evaluated platforms"))
    return 0


def main(argv: list[str] | None = None) -> int:
    """CLI entry point; returns the process exit code."""
    parser = _build_parser()
    args = parser.parse_args(argv)
    handlers = {
        "simulate": _cmd_simulate,
        "run": _cmd_run,
        "serve": _cmd_serve,
        "query": _cmd_query,
        "experiment": _cmd_experiment,
        "platforms": _cmd_platforms,
    }
    return handlers[args.command](args)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
