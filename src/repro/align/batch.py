"""Batch execution of alignment tasks.

The alignment stage of the pipeline receives, on every rank, a list of
alignment *tasks* — (read pair, seed) tuples — and runs the x-drop kernel on
each locally ("once the reads are communicated, the alignment computation can
proceed independently in parallel", §9).  The :class:`BatchAligner` is that
local executor: it resolves read sequences, runs the batched kernel, applies
the alignment-quality cutoff, and accumulates the work counters (alignments
performed, DP cells filled) that drive the performance projection and the
load-imbalance analysis.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Mapping

import numpy as np

from repro.align.banded import banded_smith_waterman
from repro.align.batched_xdrop import (
    DEFAULT_XDROP_BAND,
    BatchedExtensionConfig,
    batched_extend,
)
from repro.align.read_cache import ReadCache
from repro.align.results import AlignmentResult
from repro.align.scoring import ScoringScheme
from repro.align.smith_waterman import smith_waterman
from repro.align.xdrop import xdrop_seed_extend
from repro.seq.alphabet import reverse_complement


@dataclass(frozen=True)
class AlignmentTask:
    """One pairwise alignment to perform.

    Attributes
    ----------
    rid_a / rid_b:
        Read identifiers of the pair (``rid_a < rid_b`` by convention).
    seed_pos_a / seed_pos_b:
        Position of the shared seed k-mer in each read (forward-strand
        coordinates of that read).
    same_strand:
        True when the seed occurs in the same orientation in both reads;
        False when read B must be reverse-complemented before extending
        (in which case ``seed_pos_b`` is remapped to reverse-complement
        coordinates by the kernel).
    """

    rid_a: int
    rid_b: int
    seed_pos_a: int
    seed_pos_b: int
    same_strand: bool = True


@dataclass(frozen=True)
class TaskBatch:
    """A flat batch of alignment tasks, structure-of-arrays style.

    The overlap stage emits one of these per rank instead of a Python list of
    :class:`AlignmentTask` objects, so task construction and the
    alignment-stage bookkeeping (which reads are needed, which results were
    accepted) stay vectorised.  The batch iterates as ``AlignmentTask``
    objects for the kernels and any caller that wants per-task views.
    """

    rid_a: np.ndarray        # (n,) int64
    rid_b: np.ndarray        # (n,) int64
    seed_pos_a: np.ndarray   # (n,) int64
    seed_pos_b: np.ndarray   # (n,) int64
    same_strand: np.ndarray  # (n,) bool

    def __post_init__(self) -> None:
        sizes = {self.rid_a.size, self.rid_b.size, self.seed_pos_a.size,
                 self.seed_pos_b.size, self.same_strand.size}
        if len(sizes) != 1:
            raise ValueError("all TaskBatch arrays must have the same length")

    def __len__(self) -> int:
        return int(self.rid_a.size)

    def task(self, index: int) -> AlignmentTask:
        """Materialise the *index*-th task."""
        return AlignmentTask(
            rid_a=int(self.rid_a[index]),
            rid_b=int(self.rid_b[index]),
            seed_pos_a=int(self.seed_pos_a[index]),
            seed_pos_b=int(self.seed_pos_b[index]),
            same_strand=bool(self.same_strand[index]),
        )

    def __iter__(self):
        for index in range(len(self)):
            yield self.task(index)

    def rids(self) -> np.ndarray:
        """Sorted unique RIDs referenced by any task in the batch."""
        if len(self) == 0:
            return np.empty(0, dtype=np.int64)
        return np.unique(np.concatenate([self.rid_a, self.rid_b]))

    @classmethod
    def empty(cls) -> "TaskBatch":
        z = np.empty(0, dtype=np.int64)
        return cls(rid_a=z, rid_b=z.copy(), seed_pos_a=z.copy(), seed_pos_b=z.copy(),
                   same_strand=np.empty(0, dtype=bool))

    @classmethod
    def from_tasks(cls, tasks: Iterable[AlignmentTask]) -> "TaskBatch":
        """Build a batch from task objects (tests / compatibility helper)."""
        task_list = list(tasks)
        if not task_list:
            return cls.empty()
        return cls(
            rid_a=np.array([t.rid_a for t in task_list], dtype=np.int64),
            rid_b=np.array([t.rid_b for t in task_list], dtype=np.int64),
            seed_pos_a=np.array([t.seed_pos_a for t in task_list], dtype=np.int64),
            seed_pos_b=np.array([t.seed_pos_b for t in task_list], dtype=np.int64),
            same_strand=np.array([t.same_strand for t in task_list], dtype=bool),
        )


@dataclass
class BatchStats:
    """Work counters accumulated by a :class:`BatchAligner`."""

    alignments: int = 0
    cells: int = 0
    accepted: int = 0
    total_score: int = 0

    def record(self, result: AlignmentResult, accepted: bool) -> None:
        """Fold one alignment result into the counters."""
        self.alignments += 1
        self.cells += result.cells
        self.total_score += result.score
        if accepted:
            self.accepted += 1


@dataclass
class BatchAligner:
    """Runs alignment tasks against a read-sequence lookup with the x-drop kernel.

    The production executor always uses the task-batched banded x-drop
    kernel; the ``banded`` and ``full`` kernels are ablation and oracle
    entry points of :func:`align_task`.

    Parameters
    ----------
    sequences:
        Mapping from RID to read sequence.  In the distributed pipeline this
        holds the rank's local reads plus the remote reads fetched during the
        alignment-stage exchange.
    k:
        Seed length.
    xdrop:
        x-drop threshold.
    band:
        Band width of the batched x-drop kernel.
    min_score:
        Alignments scoring below this are counted but not *accepted* —
        diBELLA's output filter for low-quality alignments.
    cache:
        Optional :class:`~repro.align.read_cache.ReadCache` memoising the
        encoded read buffers across tasks (and, in the pipeline, holding the
        sequences fetched from remote ranks).  A private cache is created
        when none is given, so encoded-buffer reuse and its hit/miss
        accounting are always on.
    """

    sequences: Mapping[int, str]
    k: int = 17
    scoring: ScoringScheme = field(default_factory=ScoringScheme)
    xdrop: int = 25
    band: int = DEFAULT_XDROP_BAND
    min_score: int = 0
    stats: BatchStats = field(default_factory=BatchStats)
    cache: ReadCache = field(default_factory=ReadCache)

    def align(self, task: AlignmentTask) -> AlignmentResult:
        """Run one task and update the counters.

        Equivalent to ``align_all([task])[0]``: a task goes through the same
        banded batched code path regardless of batch size, so its score
        never depends on how it was batched.
        """
        return self.align_all([task])[0]

    def align_all(self, tasks: Iterable[AlignmentTask]) -> list[AlignmentResult]:
        """Run every task, returning results in task order.

        *All* tasks — including singleton batches — are executed with the
        task-batched banded kernel (:mod:`repro.align.batched_xdrop`), which
        amortises the interpreter overhead over the whole batch and keeps
        scores independent of batch size.
        """
        task_list = list(tasks)
        if not task_list:
            return []
        results = batched_xdrop_align(
            task_list,
            self.sequences,
            k=self.k,
            scoring=self.scoring,
            xdrop=self.xdrop,
            band=self.band,
            cache=self.cache,
        )
        for result in results:
            self.stats.record(result, accepted=result.score >= self.min_score)
        return results


def align_task(
    task: AlignmentTask,
    sequences: Mapping[int, str],
    kernel: str = "xdrop",
    k: int = 17,
    scoring: ScoringScheme | None = None,
    xdrop: int = 25,
    band: int = DEFAULT_XDROP_BAND,
) -> AlignmentResult:
    """Align one task with the requested kernel (stateless helper).

    The ``"xdrop"`` kernel here is the *unbounded* scalar reference
    extension (:func:`repro.align.xdrop.xdrop_seed_extend`); the production
    path used by :class:`BatchAligner` is the banded batched kernel.  The
    ``"banded"`` and ``"full"`` kernels are the ablation and oracle entry
    points (``benchmarks/bench_ablation_align_kernel.py``).
    """
    scoring = scoring or ScoringScheme()
    try:
        seq_a = sequences[task.rid_a]
        seq_b = sequences[task.rid_b]
    except KeyError as missing:
        raise KeyError(
            f"read {missing.args[0]} needed by task ({task.rid_a}, {task.rid_b}) "
            "is not available locally"
        ) from None

    seed_pos_b = task.seed_pos_b
    if not task.same_strand:
        # Cross-strand pair: orient read B onto read A's strand and remap the
        # seed position into reverse-complement coordinates.
        seq_b = reverse_complement(seq_b)
        seed_pos_b = len(seq_b) - k - task.seed_pos_b

    if kernel == "xdrop":
        # Clamp the seed so that degenerate positions near the read ends
        # (possible when the k-mer sits at the very end) still form a task.
        seed_a = min(max(0, task.seed_pos_a), max(0, len(seq_a) - k))
        seed_b = min(max(0, seed_pos_b), max(0, len(seq_b) - k))
        return xdrop_seed_extend(seq_a, seq_b, seed_a, seed_b, k,
                                 scoring=scoring, xdrop=xdrop)
    if kernel == "banded":
        diagonal = seed_pos_b - task.seed_pos_a
        return banded_smith_waterman(seq_a, seq_b, band=band, diagonal=diagonal,
                                     scoring=scoring)
    return smith_waterman(seq_a, seq_b, scoring=scoring)


def batched_xdrop_align(
    tasks: list[AlignmentTask],
    sequences: Mapping[int, str],
    k: int = 17,
    scoring: ScoringScheme | None = None,
    xdrop: int = 25,
    band: int = DEFAULT_XDROP_BAND,
    cache: ReadCache | None = None,
) -> list[AlignmentResult]:
    """Run a list of tasks through the task-batched banded x-drop kernel.

    Each task is split into a forward extension (from the end of its seed)
    and a backward extension (from the start of its seed, on reversed
    prefixes); the two extension batches run vectorised across all tasks and
    are recombined into per-task :class:`AlignmentResult` objects — the same
    decomposition the scalar :func:`repro.align.xdrop.xdrop_seed_extend`
    kernel uses.

    Every distinct read is encoded at most once through *cache* (tasks share
    reads heavily); reads appearing in cross-strand tasks get their reverse
    complement derived once as well.  Passing a persistent cache carries the
    buffers — and the hit/miss accounting — across calls.
    """
    scoring = scoring or ScoringScheme()
    if not tasks:
        return []

    cache = cache if cache is not None else ReadCache()
    if getattr(sequences, "cache", None) is not cache:
        for rid in sorted({task.rid_a for task in tasks}
                          | {task.rid_b for task in tasks}):
            # put() refreshes (and drops stale encodings) if the mapping changed.
            cache.put(rid, sequences[rid])
    # else: *sequences* is this cache's own lazy view — the entries are
    # already present, and re-putting would force the ASCII decode of every
    # read that arrived 2-bit packed.

    fwd_a: list[np.ndarray] = []
    fwd_b: list[np.ndarray] = []
    back_a: list[np.ndarray] = []
    back_b: list[np.ndarray] = []
    seeds: list[tuple[int, int]] = []
    for task in tasks:
        codes_a = cache.encoded(task.rid_a)
        if task.same_strand:
            codes_b = cache.encoded(task.rid_b)
            seed_pos_b = task.seed_pos_b
        else:
            codes_b = cache.encoded_rc(task.rid_b)
            seed_pos_b = codes_b.size - k - task.seed_pos_b
        seed_a = min(max(0, task.seed_pos_a), max(0, codes_a.size - k))
        seed_b = min(max(0, seed_pos_b), max(0, codes_b.size - k))
        seeds.append((seed_a, seed_b))
        fwd_a.append(codes_a[seed_a + k :])
        fwd_b.append(codes_b[seed_b + k :])
        back_a.append(codes_a[:seed_a][::-1])
        back_b.append(codes_b[:seed_b][::-1])

    config = BatchedExtensionConfig(xdrop=xdrop, band=band)
    fwd = batched_extend(fwd_a, fwd_b, scoring, config)
    back = batched_extend(back_a, back_b, scoring, config)

    results: list[AlignmentResult] = []
    for task, (seed_a, seed_b), f, b in zip(tasks, seeds, fwd, back):
        results.append(
            AlignmentResult(
                score=scoring.match * k + f.score + b.score,
                start_a=seed_a - b.length_a,
                end_a=seed_a + k + f.length_a,
                start_b=seed_b - b.length_b,
                end_b=seed_b + k + f.length_b,
                cells=f.cells + b.cells,
                kernel="xdrop",
            )
        )
    return results

