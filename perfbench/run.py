"""The repository benchmark: three workloads, end-to-end and per-layer metrics.

Usage (from the repository root)::

    python3 perfbench/run.py --workload align-30x --seed 1 --seconds 30 --trace 0

Workloads (why each was chosen is in perfbench/README.md):

``align-30x``
    30x E. coli-like reads through ``python -m repro.cli run``; the
    alignment kernel does almost all of the work.
``seed-sparse``
    0.4x coverage of a 7.5 Mbp genome through the same CLI; stages 1-3 and
    start-up dominate, the kernel does little.
``serve-open``
    An ``AlignmentService`` over a small 30x index receives single-read
    submissions on a seeded Poisson schedule (open loop).

Every run builds its inputs from ``--seed`` (untimed), runs a warm-up so
that byte-compilation never lands in a timed operation, then measures
operations for about ``--seconds`` seconds.  Each operation runs in its own
process tree on the process backend with 2 ranks (:mod:`procs`), and its
outputs are checked against the simulated truth (:mod:`checks`).

With ``--trace 0`` the last stdout line reports the end-to-end metrics;
with ``--trace 1`` one untraced and one traced operation run and the last
line reports the per-layer metrics (:mod:`layers`), including the tracing
overhead.  The process exits 0 whenever it could measure, with failures
reported in the JSON line; it exits 2 without a result when the program's
source is missing.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import re
import shutil
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

from checks import (
    CheckLog,
    alignment_pairs,
    digest,
    percentile,
    quality_checks,
    read_alignment_tsv,
)
from layers import PER_LAYER, load_spans, per_layer
from procs import ChildRun, become_subreaper, run_child

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
N_RANKS = 2
WORKLOADS = ("align-30x", "seed-sparse", "serve-open")

END_TO_END: list[tuple[str, str]] = [
    ("wall_s", "s"),
    ("cpu_s", "s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("query_p50_s", "s"),
    ("query_p90_s", "s"),
]

#: serve-open: segments (one service launch each, so set-up is measured
#: several times), offered rate, batching window, the shortest segment
#: schedule (3 x 7 s x 5/s = 105 submissions, so p90 has >= 10 samples
#: above it) and the per-segment allowance for set-up and shutdown.
SERVE_SEGMENTS = 3
SERVE_RATE_PER_S = 5.0
SERVE_WINDOW_S = 2.0
SERVE_MIN_SEGMENT_S = 7.0
SERVE_SEGMENT_OVERHEAD_S = 3.0

#: A run that has not finished after this many seconds kills its current
#: operation and reports failure, so it always ends within 180 s.
TIME_LIMIT_S = 165

_WALL_RE = re.compile(r"^\s*wall_seconds:\s*([0-9.eE+-]+)\s*$", re.MULTILINE)


@dataclass
class Outcome:
    """What one benchmark run measured and checked."""

    attempted: int = 0
    failed: int = 0
    metrics: dict[str, float] = field(default_factory=dict)
    notes: list[str] = field(default_factory=list)

    def op(self, ok: bool) -> None:
        self.attempted += 1
        self.failed += 0 if ok else 1


def host_facts() -> dict:
    """Facts about the host and the code that every result carries."""
    import multiprocessing

    import numpy

    cpus = os.cpu_count() or 1
    try:
        usable = len(os.sched_getaffinity(0))
    except AttributeError:  # pragma: no cover - non-Linux
        usable = cpus
    methods = multiprocessing.get_all_start_methods()
    src_hash = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        src_hash.update(path.relative_to(ROOT).as_posix().encode())
        src_hash.update(path.read_bytes())
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
                                capture_output=True, text=True, timeout=10,
                                check=True).stdout.strip()
    except (OSError, subprocess.SubprocessError):
        commit = "unknown (not a git checkout)"
    return {
        "nproc": cpus,
        "affinity_cpus": usable,
        "start_method": "fork" if "fork" in methods else "spawn",
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "commit": commit,
        "src_sha256": src_hash.hexdigest()[:16],
        "ranks": N_RANKS,
        "oversubscribed": N_RANKS + 1 > usable,
    }


def _cli_run_args(fastq: Path, tsv: Path) -> list[str]:
    return ["run", "--input", str(fastq), "--nodes", "1",
            "--ranks-per-node", str(N_RANKS), "--backend", "process",
            "--overlaps-out", str(tsv)]


@dataclass
class BatchOp:
    child: ChildRun
    program_wall_s: float | None
    lines: list[str] | None

    @property
    def setup_s(self) -> float | None:
        if self.program_wall_s is None:
            return None
        return self.child.wall_s - self.program_wall_s


def _batch_op(fastq: Path, work: Path, tag: str,
              trace_dir: Path | None = None) -> BatchOp:
    tsv = work / f"{tag}.tsv"
    if trace_dir is None:
        args = ["-m", "repro.cli", *_cli_run_args(fastq, tsv)]
    else:
        args = [str(HERE / "traced_cli.py"), str(trace_dir), "--",
                *_cli_run_args(fastq, tsv)]
    child = run_child(args, ROOT, work / "logs", tag)
    match = _WALL_RE.search(child.stdout)
    lines = None
    if child.returncode == 0 and tsv.is_file():
        try:
            lines = read_alignment_tsv(tsv)
        except ValueError:
            lines = None
    return BatchOp(child=child, program_wall_s=float(match.group(1)) if match else None,
                   lines=lines)


def _check_batch_op(log, workload: str, op: BatchOp, truth: set, label: str,
                    reference: str | None) -> tuple[bool, str | None]:
    """Exit code, output presence, recall/precision floors and digest of one op."""
    ok = log.check(f"{label} exit code 0", op.child.returncode == 0,
                   f"rc={op.child.returncode}" + (
                       f": {op.child.stderr.strip().splitlines()[-1]}"
                       if op.child.returncode and op.child.stderr.strip() else ""))
    ok &= log.check(f"{label} printed wall_seconds and wrote the TSV",
                    op.program_wall_s is not None and op.lines is not None)
    if op.lines is None:
        return False, None
    ok &= log.check(f"{label} accepted alignments > 0", len(op.lines) > 0,
                    f"{len(op.lines)}")
    ok &= quality_checks(log, workload, label, alignment_pairs(op.lines), truth)
    op_digest = digest(op.lines)
    if reference is not None:
        ok &= log.check(f"{label} digest equals the first run's", op_digest == reference,
                        f"{op_digest} vs {reference}")
    return ok, op_digest


def run_batch(workload: str, seed: int, seconds: float, trace: bool,
              work: Path, log, out: Outcome) -> None:
    from workloads import BATCH_INPUTS, make_batch_input

    n_inputs = 1 if trace else BATCH_INPUTS[workload]
    inputs = [make_batch_input(workload, seed, i, work / f"input{i}")
              for i in range(n_inputs)]
    for i, inp in enumerate(inputs):
        out.notes.append(f"input {i}: {inp.n_reads} reads, {inp.n_bases} bases, "
                         f"{len(inp.truth)} true overlaps")

    # The warm-up is a full run of input 0: it compiles every module once,
    # warms the page cache, and its digest is the reference for input 0.
    warm = _batch_op(inputs[0].fastq, work, "warmup")
    ok, warm_digest = _check_batch_op(log, workload, warm, inputs[0].truth,
                                      "warm-up run", None)
    out.op(ok)
    references: dict[int, str | None] = {0: warm_digest}

    if trace:
        untraced = _batch_op(inputs[0].fastq, work, "untraced")
        ok, _ = _check_batch_op(log, workload, untraced, inputs[0].truth,
                                "untraced run", warm_digest)
        out.op(ok)
        trace_dir = work / "trace"
        traced = _batch_op(inputs[0].fastq, work, "traced", trace_dir)
        ok, _ = _check_batch_op(log, workload, traced, inputs[0].truth,
                                "traced run", warm_digest)
        out.op(ok)
        results_path = trace_dir / "results.json"
        if not results_path.is_file():
            log.check("traced run wrote its results", False)
            return
        blob = json.loads(results_path.read_text(encoding="utf-8"))
        pairs = {tuple(pair) for pair in blob["pairs"]}
        truth = inputs[0].truth
        out.metrics = per_layer(
            load_spans(trace_dir), blob["results"], n_ranks=N_RANKS,
            true_pair_ratio=len(pairs & truth) / len(pairs) if pairs else 0.0,
            overhead_s=traced.child.wall_s - untraced.child.wall_s,
            latency_s=untraced.child.wall_s)
        out.notes.append(f"untraced wall {untraced.child.wall_s:.4f} s, traced wall "
                         f"{traced.child.wall_s:.4f} s")
        out.notes.append(f"digest {workload} {warm_digest}")
        return

    # Timed runs cycle over the inputs, so input-to-input variation is
    # averaged inside one benchmark run instead of showing across seeds.
    ops: list[BatchOp] = []
    passed: list[bool] = []
    start = time.monotonic()
    while True:
        i = len(ops) % n_inputs
        op = _batch_op(inputs[i].fastq, work, f"op{len(ops) + 1}")
        ok, op_digest = _check_batch_op(log, workload, op, inputs[i].truth,
                                        f"run {len(ops) + 1} (input {i})",
                                        references.get(i))
        references.setdefault(i, op_digest)
        out.op(ok)
        ops.append(op)
        passed.append(ok)
        out.notes.append(
            f"run {len(ops)} (input {i}): wall {op.child.wall_s:.4f} s, "
            f"cpu {op.child.cpu_s:.4f} s, setup "
            f"{op.setup_s if op.setup_s is not None else math.nan:.4f} s, "
            f"peak rss {op.child.peak_rss_mb:.1f} MB")
        typical = statistics.median(o.child.wall_s for o in ops)
        if len(ops) >= n_inputs and time.monotonic() - start + typical > seconds:
            break
    good = [op for op in ops if op.child.returncode == 0 and op.setup_s is not None]
    latencies = [op.child.wall_s if ok else math.inf for op, ok in zip(ops, passed)]
    out.metrics = {
        "wall_s": _median([op.child.wall_s for op in good]),
        "cpu_s": _median([op.child.cpu_s for op in good]),
        "setup_s": _median([op.setup_s for op in good]),
        "peak_rss_mb": _median([op.child.peak_rss_mb for op in good]),
        "query_p50_s": percentile(latencies, 50),
        "query_p90_s": percentile(latencies, 90),
    }
    out.notes.append(f"digest {workload} " + " ".join(
        str(references.get(i)) for i in range(n_inputs)))
    out.notes.append(f"samples: {len(ops)} timed runs over {n_inputs} inputs "
                     "(query_p90_s interpolates between the slowest runs)")


def _median(values: list[float]) -> float:
    return statistics.median(values) if values else math.nan


def _mean(values: list[float]) -> float:
    return statistics.mean(values) if values else math.nan


def _serve_segment(inp, positions: list[int], work: Path, tag: str,
                   trace_dir: Path | None = None):
    spec = {
        "index_fastq": str(inp.index_fastq),
        "queries_fastq": str(inp.queries_fastq),
        "positions": positions,
        "arrivals": [float(inp.arrivals[p]) for p in positions],
        "window_s": SERVE_WINDOW_S,
    }
    spec_path = work / f"{tag}.spec.json"
    out_path = work / f"{tag}.out.json"
    spec_path.write_text(json.dumps(spec), encoding="utf-8")
    args = [str(HERE / "serve_child.py"), str(spec_path), str(out_path)]
    if trace_dir is not None:
        args.append(str(trace_dir))
    child = run_child(args, ROOT, work / "logs", tag)
    result = None
    if child.returncode == 0 and out_path.is_file():
        result = json.loads(out_path.read_text(encoding="utf-8"))
    return child, result


def _check_serve_segment(log, inp, child, result, positions: list[int],
                         label: str, reference: str | None) -> tuple[list[float], str | None]:
    """Checks of one serve segment; returns per-query latencies (inf = failed)."""
    failed = [math.inf] * len(positions)
    ok = log.check(f"{label} exit code 0", child.returncode == 0,
                   f"rc={child.returncode}" + (
                       f": {child.stderr.strip().splitlines()[-1]}"
                       if child.returncode and child.stderr.strip() else ""))
    if result is None:
        log.check(f"{label} wrote its result", False)
        return failed, None
    batches = result["batches"]
    ok &= log.check(f"{label} no failed batch",
                    not any(b["failed"] for b in batches),
                    f"{sum(b['failed'] for b in batches)} of {len(batches)}")
    ok &= log.check(f"{label} build ran the index build once",
                    result["build_index_build_runs"] == N_RANKS)
    served = [b for b in batches if not b["failed"]]
    ok &= log.check(
        f"{label} every batch reused the resident index",
        all(b["index_reuse_hits"] == N_RANKS and b["index_build_runs"] == 0
            for b in served),
        f"{len(served)} batches")
    lines = result["alignments"]
    members = set(positions)
    seg_truth = {(a, q) for a, q in inp.truth if q in members}
    detected = set()
    for line in lines:
        index_name, query_name = line.split("\t", 2)[:2]
        detected.add((int(index_name.split("_")[1]), int(query_name.split("_")[1])))
    ok &= quality_checks(log, "serve-open", label, detected, seg_truth)
    seg_digest = digest(lines)
    if reference is not None:
        ok &= log.check(f"{label} digest equals the untraced segment's",
                        seg_digest == reference, f"{seg_digest} vs {reference}")
    latencies = [math.inf if lat is None else lat for lat in result["latencies"]]
    return (latencies if ok else failed), seg_digest


def run_serve(seed: int, seconds: float, trace: bool, work: Path, log,
              out: Outcome) -> None:
    from workloads import make_serve_input

    segment_s = max(SERVE_MIN_SEGMENT_S,
                    seconds / SERVE_SEGMENTS - SERVE_SEGMENT_OVERHEAD_S)
    per_segment = round(SERVE_RATE_PER_S * segment_s)
    # Each segment serves its own index and queries, so input-to-input
    # variation is averaged inside one benchmark run.
    n_inputs = 1 if trace else SERVE_SEGMENTS
    inputs = [make_serve_input(seed, j, work / f"input{j}", per_segment, segment_s)
              for j in range(n_inputs)]
    out.notes.append(f"{n_inputs} segment(s) of {per_segment} queries in {segment_s:.2f} s "
                     f"(Poisson, {SERVE_RATE_PER_S}/s), batching window {SERVE_WINDOW_S} s, "
                     f"index of {inputs[0].n_index} reads")

    warm_child, warm = _serve_segment(inputs[0], [0, 1], work, "warmup")
    out.op(log.check("warm-up exit code 0", warm_child.returncode == 0 and warm is not None,
                     f"rc={warm_child.returncode}"))

    everything = list(range(per_segment))
    if trace:
        inp = inputs[0]
        child, result = _serve_segment(inp, everything, work, "untraced")
        lat, reference = _check_serve_segment(log, inp, child, result, everything,
                                              "untraced segment", None)
        for value in lat:
            out.op(not math.isinf(value))
        finite = [value for value in lat if not math.isinf(value)]
        trace_dir = work / "trace"
        t_child, t_result = _serve_segment(inp, everything, work, "traced", trace_dir)
        lat, _ = _check_serve_segment(log, inp, t_child, t_result, everything,
                                      "traced segment", reference)
        for value in lat:
            out.op(not math.isinf(value))
        if t_result is None or "results" not in t_result:
            log.check("traced segment wrote its results", False)
            return
        pairs = {tuple(pair) for pair in t_result["pairs"]}
        out.metrics = per_layer(
            load_spans(trace_dir), t_result["results"], n_ranks=N_RANKS,
            true_pair_ratio=len(pairs & inp.truth) / len(pairs) if pairs else 0.0,
            overhead_s=t_child.wall_s - child.wall_s,
            latency_s=_mean(finite))
        out.notes.append(f"untraced wall {child.wall_s:.4f} s, traced wall "
                         f"{t_child.wall_s:.4f} s")
        out.notes.append(f"digest serve-open {reference}")
        return

    walls, cpus, rss, setups, latencies, digests = [], [], [], [], [], []
    for j, inp in enumerate(inputs):
        child, result = _serve_segment(inp, everything, work, f"segment{j + 1}")
        lat, seg_digest = _check_serve_segment(log, inp, child, result, everything,
                                               f"segment {j + 1}", None)
        for value in lat:
            out.op(not math.isinf(value))
        latencies.extend(lat)
        digests.append(str(seg_digest))
        if child.returncode == 0 and result is not None:
            walls.append(child.wall_s)
            cpus.append(child.cpu_s)
            rss.append(child.peak_rss_mb)
            setups.append(result["ready"] - child.started)
            late = max((b.get("late_s", 0.0) for b in result["batches"]), default=0.0)
            served = [b for b in result["batches"] if not b["failed"]]
            out.notes.append(
                f"segment {j + 1}: wall {child.wall_s:.4f} s, cpu {child.cpu_s:.4f} s, "
                f"setup {setups[-1]:.4f} s, {len(served)} batches of "
                f"{_mean([b['n_reads'] for b in served]):.2f} reads taking "
                f"{_mean([b['wall_s'] for b in served]):.3f} s, "
                f"generator ran up to {late:.3f} s late")
    out.metrics = {
        "wall_s": _median(walls),
        "cpu_s": _median(cpus),
        "setup_s": _median(setups),
        "peak_rss_mb": _median(rss),
        "query_p50_s": percentile(latencies, 50),
        "query_p90_s": percentile(latencies, 90),
    }
    above = sum(1 for value in latencies if value > out.metrics["query_p90_s"])
    out.notes.append(f"samples: {len(latencies)} submissions, {above} above p90")
    out.notes.append("digest serve-open " + " ".join(digests))


class TimeLimitReached(Exception):
    """Raised by SIGALRM once the run exceeds :data:`TIME_LIMIT_S`."""


def _time_limit_reached(_signum, _frame) -> None:
    raise TimeLimitReached


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "repro" / "cli.py").is_file():
        print(f"perfbench: no program source at {ROOT / 'src'}; run from a "
              "checkout of the repository", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))

    work = ROOT / ".perfbench_work" / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    become_subreaper()
    host = host_facts()
    print("host " + json.dumps(host, sort_keys=True))
    if host["oversubscribed"]:
        print(f"host flag: {N_RANKS} ranks + the benchmark process exceed the "
              f"{host['affinity_cpus']} usable cores; ranks share cores")

    log = CheckLog()
    outcome = Outcome()
    signal.signal(signal.SIGALRM, _time_limit_reached)
    signal.alarm(TIME_LIMIT_S)
    try:
        if args.workload == "serve-open":
            run_serve(args.seed, args.seconds, bool(args.trace), work, log, outcome)
        else:
            run_batch(args.workload, args.seed, args.seconds, bool(args.trace),
                      work, log, outcome)
    except TimeLimitReached:
        outcome.op(log.check(f"run finished within {TIME_LIMIT_S} s", False))
    finally:
        signal.alarm(0)

    for note in outcome.notes:
        print(note)
    for line in log.lines():
        print(line)
    units = dict(PER_LAYER if args.trace else END_TO_END)
    names = [name for name, _unit in (PER_LAYER if args.trace else END_TO_END)]
    metrics = {}
    for name in names:
        value = outcome.metrics.get(name, math.nan)
        print(f"metric {name} = {value:.6g} {units[name]}")
        metrics[name] = {"value": value if math.isfinite(value) else None,
                         "unit": units[name]}
    error_rate = outcome.failed / outcome.attempted if outcome.attempted else 1.0
    print(f"error_rate = {error_rate:.4f} ({outcome.failed} failed of "
          f"{outcome.attempted} operations)")
    correct = log.all_ok and outcome.failed == 0 and all(
        entry["value"] is not None for entry in metrics.values())
    shutil.rmtree(work, ignore_errors=True)
    print(json.dumps({"correct": correct, "attempted": max(1, outcome.attempted),
                      "failed": outcome.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
