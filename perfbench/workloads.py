"""Seeded input generation for the three benchmark workloads.

Inputs are simulated through :mod:`repro.data` from the ``--seed`` the
benchmark receives, so one seed always gives the same reads.  The program
under test only ever sees the FASTQ files written here; the ground truth
(each simulated read's genome interval) stays in the benchmark process and
feeds the output checks.  Generation is never inside a timed region.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from repro.data import (
    DatasetSpec,
    GenomeSpec,
    ReadSimSpec,
    ReadSimulator,
    generate_dataset,
    true_overlaps,
)
from repro.io.fastq import write_fastq
from repro.seq.records import ReadSet

#: The read model every workload shares: PacBio-like, ~2 kbp mean length,
#: 12% indel-dominated error, 5% repeats in the genome.
MEAN_READ = 2_000
ERROR_RATE = 0.12
REPEAT_FRACTION = 0.05

#: Genome size and coverage of each workload (see perfbench/README.md).
GENOME_ALIGN_30X = 9_000
GENOME_SEED_SPARSE = 7_500_000
COVERAGE_SEED_SPARSE = 0.4
GENOME_SERVE_INDEX = 6_000

#: Distinct inputs one timed run of a batch workload cycles over.
BATCH_INPUTS = {"align-30x": 4, "seed-sparse": 2}


def input_seed(seed: int, index: int) -> int:
    """Simulator seed of input *index* of a run with benchmark seed *seed*.

    Spaced so that the +1..+3 offsets the simulators add never collide
    with another input's or another benchmark seed's.
    """
    return 1000 * seed + 10 * index


def dataset_spec(name: str, genome_length: int, coverage: float,
                 seed: int) -> DatasetSpec:
    """A genome of *genome_length* bases sequenced at *coverage* with the shared read model."""
    return DatasetSpec(
        name=name,
        genome=GenomeSpec(length=genome_length, repeat_fraction=REPEAT_FRACTION,
                          repeat_length=MEAN_READ // 10, seed=seed),
        reads=ReadSimSpec(coverage=coverage, mean_read_length=MEAN_READ,
                          error_rate=ERROR_RATE, seed=seed + 1),
    )


@dataclass
class BatchInput:
    """One FASTQ input of a batch workload and its ground-truth overlap pairs."""

    fastq: Path
    n_reads: int
    n_bases: int
    truth: set[tuple[int, int]]


@dataclass
class ServeInput:
    """The serve-open inputs: index FASTQ, query FASTQ, arrival schedule, truth.

    ``truth`` holds ``(index rid, query position)`` pairs whose genome
    intervals overlap by at least the oracle's minimum overlap.
    """

    index_fastq: Path
    queries_fastq: Path
    n_index: int
    arrivals: np.ndarray
    truth: set[tuple[int, int]]


def make_batch_input(workload: str, seed: int, index: int,
                     work_dir: Path) -> BatchInput:
    """Simulate input *index* of ``align-30x`` or ``seed-sparse`` for *seed*."""
    if workload == "align-30x":
        spec = dataset_spec(workload, GENOME_ALIGN_30X, 30.0, input_seed(seed, index))
    elif workload == "seed-sparse":
        spec = dataset_spec(workload, GENOME_SEED_SPARSE, COVERAGE_SEED_SPARSE,
                            input_seed(seed, index))
    else:
        raise ValueError(f"not a batch workload: {workload!r}")
    dataset = generate_dataset(spec)
    work_dir.mkdir(parents=True, exist_ok=True)
    fastq = work_dir / "reads.fastq"
    write_fastq(dataset.reads, fastq)
    return BatchInput(
        fastq=fastq,
        n_reads=len(dataset.reads),
        n_bases=dataset.reads.total_bases,
        truth=set(dataset.true_overlaps()),
    )


def make_serve_input(seed: int, index: int, work_dir: Path, n_queries: int,
                     span_s: float) -> ServeInput:
    """Simulate one serve-open segment: index, query stream and schedule.

    The index is a 30x read set of its own genome; the *n_queries* queries
    are further reads simulated from the same genome by an independent
    simulator stream.  ``arrivals`` are sorted uniform draws over
    *span_s* seconds: a Poisson process conditioned on its arrival count,
    so every segment spans the same time at the same offered rate.
    """
    base = input_seed(seed, index)
    spec = dataset_spec("serve-open", GENOME_SERVE_INDEX, 30.0, base)
    dataset = generate_dataset(spec)
    query_sim = ReadSimulator(
        dataset.genome,
        ReadSimSpec(coverage=30.0, mean_read_length=MEAN_READ,
                    error_rate=ERROR_RATE, seed=base + 2),
    )
    queries = ReadSet(replace(query_sim.simulate_read(i), name=f"query_{i:05d}")
                      for i in range(n_queries))
    work_dir.mkdir(parents=True, exist_ok=True)
    index_fastq = work_dir / "index.fastq"
    queries_fastq = work_dir / "queries.fastq"
    write_fastq(dataset.reads, index_fastq)
    write_fastq(queries, queries_fastq)

    n_index = len(dataset.reads)
    combined = ReadSet(list(dataset.reads) + list(queries))
    truth = {
        (a, b - n_index)
        for a, b in true_overlaps(combined, len(dataset.genome))
        if a < n_index <= b
    }
    rng = np.random.default_rng(base + 3)
    arrivals = np.sort(rng.uniform(0.0, span_s, n_queries))
    return ServeInput(
        index_fastq=index_fastq,
        queries_fastq=queries_fastq,
        n_index=n_index,
        arrivals=arrivals,
        truth=truth,
    )
