"""Microbenchmark: the compiled x-drop kernel against its NumPy oracle.

Runs the tiny preset through the pipeline on one rank, records the
extension batches the alignment stage hands to
:func:`repro.align.batched_xdrop.batched_extend`, and replays them
single-threaded through the compiled kernel and through
``_batched_extend_numpy``.  Reports DP cells/s for both, checks that they
return identical results, and gates the cells/s ratio at
``MIN_KERNEL_SPEEDUP``.  One thread only, so the gate means the same on a
1-core host as on a large one.

Runs standalone (``python benchmarks/bench_xdrop_kernel.py``) or under
pytest (``python -m pytest benchmarks/bench_xdrop_kernel.py``); the CI
script runs the standalone form.
"""

from __future__ import annotations

import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import repro.align.batch as align_batch
from repro.align.batched_xdrop import _batched_extend_numpy
from repro.align.compiled_xdrop import load_kernel
from repro.core.driver import run_dibella
from repro.data.datasets import generate_dataset, tiny_dataset

#: Required DP cells/s of the compiled kernel over the NumPy oracle.
MIN_KERNEL_SPEEDUP = 5.0


def captured_batches() -> list[tuple]:
    """The (seqs_a, seqs_b, scoring, config) batches of a 1-rank tiny run."""
    batches: list[tuple] = []
    original = align_batch.batched_extend

    def recording(seqs_a, seqs_b, scoring, config):
        batches.append((seqs_a, seqs_b, scoring, config))
        return original(seqs_a, seqs_b, scoring, config)

    align_batch.batched_extend = recording
    try:
        run_dibella(generate_dataset(tiny_dataset()).reads, ranks_per_node=1)
    finally:
        align_batch.batched_extend = original
    return batches


def _best_of(fn, repeats: int = 3) -> tuple[float, list]:
    """Minimum wall time of *repeats* runs (and the last result)."""
    best = float("inf")
    result: list = []
    for _ in range(repeats):
        start = time.perf_counter()
        result = fn()
        best = min(best, time.perf_counter() - start)
    return best, result


def run_microbench() -> dict[str, float]:
    """Time both kernels over the captured batches."""
    kernel = load_kernel()
    batches = captured_batches()

    def compiled():
        return [r for a, b, scoring, config in batches
                for r in kernel.extend(a, b, scoring, config.xdrop, config.band,
                                       config.max_rows)]

    def oracle():
        return [r for batch in batches for r in _batched_extend_numpy(*batch)]

    t_c, res_c = _best_of(compiled)
    t_np, res_np = _best_of(oracle)
    assert res_c == res_np, "compiled kernel and NumPy oracle disagree"
    cells = sum(r.cells for r in res_c)
    return {
        "batches": float(len(batches)),
        "extensions": float(len(res_c)),
        "cells": float(cells),
        "compiled_seconds": t_c,
        "numpy_seconds": t_np,
        "compiled_cells_per_s": cells / max(t_c, 1e-12),
        "numpy_cells_per_s": cells / max(t_np, 1e-12),
        "speedup": t_np / max(t_c, 1e-12),
    }


def format_report(metrics: dict[str, float]) -> str:
    return "\n".join([
        "x-drop kernel microbenchmark (tiny preset, 1 rank, 1 thread)",
        f"  batches / extensions : {metrics['batches']:.0f} / {metrics['extensions']:.0f}",
        f"  DP cells             : {metrics['cells']:.0f}",
        f"  compiled kernel      : {metrics['compiled_seconds'] * 1e3:.1f} ms, "
        f"{metrics['compiled_cells_per_s'] / 1e6:.1f} M cells/s",
        f"  NumPy oracle         : {metrics['numpy_seconds'] * 1e3:.1f} ms, "
        f"{metrics['numpy_cells_per_s'] / 1e6:.1f} M cells/s",
        f"  speedup              : {metrics['speedup']:.1f}x "
        f"(gate: >= {MIN_KERNEL_SPEEDUP:.0f}x)",
    ])


def test_xdrop_kernel_microbench():
    """Pytest entry point: the compiled kernel must clear the cells/s gate."""
    metrics = run_microbench()
    print("\n" + format_report(metrics))
    assert metrics["cells"] > 0
    assert metrics["speedup"] >= MIN_KERNEL_SPEEDUP


if __name__ == "__main__":
    report = run_microbench()
    print(format_report(report))
    if report["speedup"] < MIN_KERNEL_SPEEDUP:
        sys.exit(f"FAIL: compiled kernel {report['speedup']:.1f}x below "
                 f"{MIN_KERNEL_SPEEDUP:.0f}x gate")
    print("PASS")
