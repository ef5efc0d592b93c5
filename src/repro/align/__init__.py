"""Pairwise alignment kernels.

diBELLA performs each pairwise alignment on a single node with an x-drop
seed-and-extend kernel (the SeqAn implementation in the original, §2).  This
subpackage provides that kernel plus two reference kernels used for testing
and for the kernel-choice ablation:

* :mod:`repro.align.smith_waterman` — full O(|s|·|t|) local alignment
  (Smith–Waterman), the ground-truth oracle.
* :mod:`repro.align.banded` — banded Smith–Waterman restricted to a diagonal
  band around the seed ("search only for solutions with a limited number of
  mismatches", §2).
* :mod:`repro.align.xdrop` — seed-and-extend with x-drop termination
  ("terminate early when the alignment score drops significantly", §2),
  the production kernel.
* :mod:`repro.align.batch` — a batch executor that runs a list of alignment
  tasks with the x-drop kernel and accumulates the DP-cell work counters the
  cost model needs (``align_task`` runs one task with any of the kernels).

All kernels count the DP cells they actually fill; that count is the
alignment stage's work measure (divergent pairs terminate early and fill far
fewer cells — the source of the paper's Figure 8 load imbalance).
"""

from repro.align.scoring import ScoringScheme
from repro.align.results import AlignmentResult, ExtensionResult
from repro.align.smith_waterman import smith_waterman
from repro.align.banded import banded_smith_waterman
from repro.align.xdrop import xdrop_extend, xdrop_seed_extend
from repro.align.batch import AlignmentTask, BatchAligner, align_task
from repro.align.read_cache import ReadCache

__all__ = [
    "ScoringScheme",
    "AlignmentResult",
    "ExtensionResult",
    "smith_waterman",
    "banded_smith_waterman",
    "xdrop_extend",
    "xdrop_seed_extend",
    "AlignmentTask",
    "BatchAligner",
    "align_task",
    "ReadCache",
]
