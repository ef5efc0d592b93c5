"""Task-batched banded x-drop extension.

The alignment stage of a rank holds thousands of independent alignment
tasks.  Running the scalar x-drop kernel task-by-task spends almost all of
its time in Python/numpy call overhead, because each anti-diagonal of each
task is a tiny array.  This module vectorises *across tasks*: all tasks
advance one DP row per iteration, so every numpy operation touches an
``(active_tasks, band)`` matrix and the interpreter overhead is amortised
over the whole batch — the "vectorise the outer loop" idiom the HPC guides
recommend.

Algorithmically this is a *banded* x-drop extension: each task's DP is
restricted to a fixed-width band around the seed diagonal (the paper's
"banded Smith-Waterman" speed-up, §2) and terminates early once the best
score of the current row falls more than ``xdrop`` below the task's best
score so far (the x-drop rule, §2).  Divergent pairs therefore stop after a
few rows, exactly the early-exit behaviour responsible for the paper's
alignment-stage load imbalance.

The left-within-row gap dependency is resolved without a per-column loop via
the prefix-maximum identity

    S[i, j] = max_j' <= j ( base[i, j'] + gap * (j - j') )
            = gap * j + running_max_j' <= j ( base[i, j'] - gap * j' )

computed with ``np.maximum.accumulate`` along the band axis.

:func:`batched_extend` runs that recurrence in compiled C
(:mod:`repro.align.compiled_xdrop`, built on first use into a cache
directory), one task at a time, with results bit-identical to this module's
NumPy kernel.  The NumPy kernel (:func:`_batched_extend_numpy`) stays as the
test oracle and as the fallback when no C compiler works;
:func:`kernel_implementation` says which one runs.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass

import numpy as np

from repro.align.compiled_xdrop import (
    CompiledXdrop,
    KernelUnavailable,
    fits_kernel,
    load_kernel,
)
from repro.align.results import ExtensionResult
from repro.align.scoring import ScoringScheme

#: Sentinel code used to pad sequences; never equal to a real base code.
_PAD = 250
_NEG_INF = np.int32(-(2**28))

#: Default band half-width shared by every x-drop entry point.  The scalar
#: and batched paths historically disagreed (33 vs 64), which made the same
#: task score differently depending on batch size; everything now references
#: this single constant (also the :class:`repro.core.config.PipelineConfig`
#: default).
DEFAULT_XDROP_BAND: int = 64


@dataclass(frozen=True)
class BatchedExtensionConfig:
    """Parameters of the batched extension kernel."""

    xdrop: int = 25
    band: int = DEFAULT_XDROP_BAND
    max_rows: int | None = None

    def __post_init__(self) -> None:
        if self.xdrop <= 0:
            raise ValueError("xdrop must be positive")
        if self.band < 3:
            raise ValueError("band must be at least 3")
        if self.max_rows is not None and self.max_rows < 1:
            raise ValueError("max_rows must be positive when given")


def _pad_sequences(seqs: list[np.ndarray]) -> np.ndarray:
    """Stack variable-length code arrays into one padded uint8 matrix.

    One flat ``np.concatenate`` plus a masked scatter instead of a per-row
    Python loop: the boolean mask of valid cells is row-major, so assigning
    the concatenated codes through it fills each row's prefix in order —
    the rows of the loop version, without row-count interpreter overhead.
    """
    n = len(seqs)
    lengths = np.fromiter((s.size for s in seqs), dtype=np.int64, count=n)
    max_len = int(lengths.max(initial=0))
    out = np.full((n, max_len + 1), _PAD, dtype=np.uint8)
    if n and lengths.any():
        flat = np.concatenate(seqs).astype(np.uint8, copy=False)
        mask = np.arange(max_len + 1, dtype=np.int64)[None, :] < lengths[:, None]
        out[mask] = flat
    return out


#: The compiled kernel once resolved, or the reason it is unavailable.
_kernel: CompiledXdrop | str | None = None
_kernel_lock = threading.Lock()


def _compiled_kernel() -> CompiledXdrop | None:
    """The compiled kernel, built or loaded on the first call of the process."""
    global _kernel
    with _kernel_lock:
        if _kernel is None:
            try:
                _kernel = load_kernel()
            except KernelUnavailable as exc:
                _kernel = str(exc)
    return _kernel if isinstance(_kernel, CompiledXdrop) else None


def kernel_implementation() -> str:
    """``"c"`` when the compiled kernel runs, else ``"numpy: <reason>"``."""
    if _compiled_kernel() is not None:
        return "c"
    return f"numpy: {_kernel}"


def batched_extend(
    seqs_a: list[np.ndarray],
    seqs_b: list[np.ndarray],
    scoring: ScoringScheme,
    config: BatchedExtensionConfig,
) -> list[ExtensionResult]:
    """Extend every (a, b) pair from its origin (0, 0), banded with x-drop.

    Runs the compiled kernel when it is available and the NumPy kernel
    otherwise, or when the parameters are too large for the compiled
    kernel's integers (far beyond any realistic scheme, see
    :func:`~repro.align.compiled_xdrop.fits_kernel`); both give the same
    results.  Every task is independent of the others in its batch,
    ``cells`` included (a task with an empty ``a`` costs 0 cells).

    Parameters
    ----------
    seqs_a, seqs_b:
        Per-task 2-bit code arrays to align from their starts (suffixes for
        forward extensions, reversed prefixes for backward ones).
    scoring:
        Linear-gap scoring.
    config:
        Band width, x-drop threshold and optional row cap.

    Returns
    -------
    list[ExtensionResult]
        One result per task, in input order.
    """
    if len(seqs_a) != len(seqs_b):
        raise ValueError("seqs_a and seqs_b must have the same length")
    if not seqs_a:
        return []
    kernel = _compiled_kernel()
    if kernel is None or not fits_kernel(scoring, config.xdrop, config.band,
                                         config.max_rows,
                                         max(s.size for s in seqs_a)):
        return _batched_extend_numpy(seqs_a, seqs_b, scoring, config)
    return kernel.extend(seqs_a, seqs_b, scoring, config.xdrop, config.band,
                         config.max_rows)


def _batched_extend_numpy(
    seqs_a: list[np.ndarray],
    seqs_b: list[np.ndarray],
    scoring: ScoringScheme,
    config: BatchedExtensionConfig,
) -> list[ExtensionResult]:
    """The NumPy kernel: every task advances one band row per iteration.

    The oracle of the compiled kernel and its fallback; same contract as
    :func:`batched_extend`.
    """
    n_tasks = len(seqs_a)
    if n_tasks != len(seqs_b):
        raise ValueError("seqs_a and seqs_b must have the same length")
    if n_tasks == 0:
        return []

    match, mismatch, gap = scoring.match, scoring.mismatch, scoring.gap
    band = config.band
    half = band // 2

    len_a = np.array([s.size for s in seqs_a], dtype=np.int64)
    len_b = np.array([s.size for s in seqs_b], dtype=np.int64)

    a_pad = _pad_sequences(seqs_a)
    b_pad = _pad_sequences(seqs_b)

    max_rows = int(len_a.max(initial=0))
    if config.max_rows is not None:
        max_rows = min(max_rows, config.max_rows)

    # Results (global, indexed by original task id).
    best_score = np.zeros(n_tasks, dtype=np.int64)
    best_i = np.zeros(n_tasks, dtype=np.int64)
    best_j = np.zeros(n_tasks, dtype=np.int64)
    cells = np.zeros(n_tasks, dtype=np.int64)

    # Active working set (compacted periodically).  A task with an empty
    # ``a`` has no row to fill and never enters it, so it costs 0 cells
    # whatever else shares its batch.
    active = np.flatnonzero(len_a > 0)

    # Row 0 of the band: cell (0, j) has score gap * j for j in [0, half],
    # -inf for j outside b or left of the band.
    w_idx = np.arange(band)
    j0 = w_idx - half  # column of band slot w at row 0
    prev = np.where(
        (j0 >= 0) & (j0[None, :] <= len_b[active, None]),
        (gap * np.maximum(j0, 0))[None, :],
        _NEG_INF,
    ).astype(np.int64)

    gap_j = gap * w_idx  # per-slot gap weight used by the prefix-max trick

    for row in range(1, max_rows + 1):
        if active.size == 0:
            break

        la = len_a[active]
        lb = len_b[active]

        # Column of band slot w at this row: j = row - half + w.
        j = row - half + w_idx[None, :]  # (1, band) broadcast over tasks
        j_valid = (j >= 0) & (j <= lb[:, None])

        # Substitution scores: compare a[row-1] against b[j-1].
        a_col = a_pad[active, min(row - 1, a_pad.shape[1] - 1)]
        b_cols = np.clip(j - 1, 0, b_pad.shape[1] - 1)
        b_vals = b_pad[active[:, None], b_cols]
        sub = np.where(b_vals == a_col[:, None], match, mismatch)
        sub_valid = j_valid & (j >= 1) & (row <= la)[:, None]

        # Diagonal predecessor S[row-1, j-1] sits at the same band slot.
        diag = np.where(sub_valid, prev + sub, _NEG_INF)
        # Up predecessor S[row-1, j] sits one slot to the right.
        up = np.full_like(prev, _NEG_INF)
        up[:, :-1] = prev[:, 1:]
        up = np.where(j_valid & (row <= la)[:, None], up + gap, _NEG_INF)

        base = np.maximum(diag, up)
        # Left-within-row dependency via the prefix-max identity.
        shifted = base - gap_j[None, :]
        running = np.maximum.accumulate(shifted, axis=1)
        current = np.maximum(base, running + gap_j[None, :])
        current = np.where(j_valid & (row <= la)[:, None], current, _NEG_INF)

        cells[active] += band

        # Track the best cell of every active task.
        row_best_slot = np.argmax(current, axis=1)
        row_best = current[np.arange(active.size), row_best_slot]
        improved = row_best > best_score[active]
        if improved.any():
            improved_tasks = active[improved]
            best_score[improved_tasks] = row_best[improved]
            best_i[improved_tasks] = row
            best_j[improved_tasks] = (row - half + row_best_slot)[improved]

        # x-drop termination plus end-of-sequence termination.
        alive = (row_best >= best_score[active] - config.xdrop) & (row < la)
        if not alive.all():
            active = active[alive]
            prev = current[alive]
        else:
            prev = current

    return [
        ExtensionResult(
            score=int(best_score[t]),
            length_a=int(best_i[t]),
            length_b=int(best_j[t]),
            cells=int(cells[t]),
        )
        for t in range(n_tasks)
    ]
