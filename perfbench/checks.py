"""Output checks: alignment digests, recall/precision floors, percentiles.

Every check the benchmark makes is recorded in a :class:`CheckLog`, printed
one line each, and a failed check marks the operation it belongs to as
failed, so it shows in the ``failed`` count and the error rate.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass, field
from pathlib import Path

#: Recall/precision floors of the accepted alignments against the simulated
#: truth (pairs whose genome intervals overlap by >= 500 bases).  Precision
#: is low by construction: shorter true overlaps count as false positives.
FLOORS = {
    "align-30x": {"recall": 0.95, "precision": 0.40},
    "seed-sparse": {"recall": 0.95, "precision": 0.20},
    "serve-open": {"recall": 0.95, "precision": 0.40},
}


def digest(lines: list[str]) -> str:
    """Order-independent digest of alignment lines (sorted, then SHA-256)."""
    hasher = hashlib.sha256()
    for line in sorted(lines):
        hasher.update(line.encode("ascii"))
        hasher.update(b"\n")
    return hasher.hexdigest()[:16]


def read_alignment_tsv(path: Path) -> list[str]:
    """The data lines of a ``run --overlaps-out`` TSV (header dropped)."""
    lines = path.read_text(encoding="ascii").splitlines()
    if not lines or not lines[0].startswith("rid_a\t"):
        raise ValueError(f"{path}: missing alignment TSV header")
    return lines[1:]


def alignment_pairs(lines: list[str]) -> set[tuple[int, int]]:
    """``(rid_a, rid_b)`` pairs (smaller RID first) of alignment TSV lines."""
    pairs = set()
    for line in lines:
        a, b = line.split("\t", 2)[:2]
        a, b = int(a), int(b)
        pairs.add((min(a, b), max(a, b)))
    return pairs


def recall_precision(detected: set, truth: set) -> tuple[float, float]:
    """Recall and precision of *detected* pairs against *truth* pairs."""
    hits = len(detected & truth)
    recall = hits / len(truth) if truth else 1.0
    precision = hits / len(detected) if detected else 0.0
    return recall, precision


def percentile(values: list[float], q: float) -> float:
    """Linear-interpolation percentile; ``inf`` entries (failures) sort last."""
    ordered = sorted(values)
    if not ordered:
        return math.inf
    pos = (len(ordered) - 1) * q / 100.0
    lo = math.floor(pos)
    hi = min(lo + 1, len(ordered) - 1)
    if math.isinf(ordered[hi]):
        return ordered[hi] if pos > lo else ordered[lo]
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


@dataclass
class CheckLog:
    """Named pass/fail records of one benchmark run."""

    entries: list[tuple[str, bool, str]] = field(default_factory=list)

    def check(self, name: str, ok: bool, detail: str = "") -> bool:
        self.entries.append((name, bool(ok), detail))
        return bool(ok)

    @property
    def all_ok(self) -> bool:
        return all(ok for _name, ok, _detail in self.entries)

    def lines(self) -> list[str]:
        return [f"check {'ok  ' if ok else 'FAIL'} {name}" + (f" ({detail})" if detail else "")
                for name, ok, detail in self.entries]


def quality_checks(log: CheckLog, workload: str, label: str,
                   detected: set, truth: set) -> bool:
    """Check recall and precision of *detected* against the workload's floors."""
    recall, precision = recall_precision(detected, truth)
    floors = FLOORS[workload]
    ok = log.check(f"{label} recall >= {floors['recall']}",
                   recall >= floors["recall"], f"{recall:.4f}")
    ok &= log.check(f"{label} precision >= {floors['precision']}",
                    precision >= floors["precision"], f"{precision:.4f}")
    return ok
