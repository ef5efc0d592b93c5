"""Ablation: alignment kernel choice (x-drop vs banded vs full Smith-Waterman).

Runs the same alignment tasks through the three kernels and compares the DP
cells they evaluate (the cost side of the kernel choice discussed in the
paper's alignment stage).
"""

from conftest import record_rows

from repro.align.batch import AlignmentTask, BatchAligner, align_task
from repro.bench.reporting import format_table


def test_ablation_align_kernel(benchmark, harness):
    result = harness.run("ecoli30x", "one-seed", n_nodes=1)
    dataset = harness.dataset("ecoli30x")
    sequences = {rid: dataset.reads[rid].sequence for rid in range(len(dataset.reads))}
    # A sample of real alignment tasks from the pipeline run.
    records = []
    for report in result.rank_reports:
        records.extend(report.overlaps)
        if len(records) >= 150:
            break
    tasks = [AlignmentTask(rid_a=o.rid_a, rid_b=o.rid_b,
                           seed_pos_a=int(o.seed_pos_a[0]), seed_pos_b=int(o.seed_pos_b[0]),
                           same_strand=bool(o.seed_same_strand[0]))
             for o in records[:150]]

    def row(kernel, results):
        return {
            "kernel": kernel,
            "alignments": len(results),
            "dp_cells": sum(r.cells for r in results),
            "mean_score": sum(r.score for r in results) / max(1, len(results)),
        }

    def run():
        # x-drop: the production executor.  banded / full: the ablation and
        # oracle kernels, one task at a time through align_task.
        rows = [row("xdrop", BatchAligner(sequences=sequences, k=17).align_all(tasks))]
        for kernel in ("banded", "full"):
            rows.append(row(kernel, [align_task(task, sequences, kernel=kernel, k=17)
                                     for task in tasks]))
        return rows

    rows = benchmark.pedantic(run, rounds=1, iterations=1)
    record_rows("ablation_align_kernel", format_table(
        rows, title="Ablation: alignment kernel on 150 real tasks (E. coli 30x)"))
    by = {r["kernel"]: r for r in rows}
    # Expected shape: the seeded kernels evaluate far fewer cells than full
    # Smith-Waterman; x-drop is the cheapest.
    assert by["xdrop"]["dp_cells"] < by["banded"]["dp_cells"] < by["full"]["dp_cells"]
