"""Unified superstep scheduler tests.

Two layers:

* scheduler-level — toy SPMD programs driving
  :class:`repro.core.supersteps.SuperstepSchedule` directly, pinning that
  the double-buffered split-phase schedule delivers exactly the payloads
  (and traces) of the bulk-synchronous fallback, on both runtime backends;
* pipeline-level (slow tier) — sync-vs-split-phase equivalence and trace
  identity with every streamed stage double-buffered (the overlap stage
  alone is also covered in test_backends.py), the
  ``{thread, process} × {double-buffer on/off}`` parity matrix over the
  streaming knobs, and the bloom stash release accounting.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.config import PipelineConfig
from repro.core.counters import SCHEDULE_FLAG_COUNTERS
from repro.core.supersteps import ScheduleOutcome, StageTimer, SuperstepSchedule
from repro.mpisim.errors import CollectiveMismatchError, RankFailedError
from repro.mpisim.runtime import spmd_run
from repro.mpisim.tracing import CommTrace


# ---------------------------------------------------------------------------
# Scheduler-level: toy SPMD programs
# ---------------------------------------------------------------------------

def _single_hop_program(comm, double_buffer):
    """Unequal local step counts; returns consumed payloads + outcome."""
    timer = StageTimer()
    n_local = comm.rank + 1
    consumed = []

    def produce(step):
        if step >= n_local:
            return [np.empty(0, dtype=np.int64) for _ in range(comm.size)]
        return [np.arange(step + dst + comm.rank * 10, dtype=np.int64)
                for dst in range(comm.size)]

    def consume(step, received):
        consumed.append([np.asarray(a).tolist() for a in received])

    schedule = SuperstepSchedule(comm, timer, n_local,
                                 double_buffer=double_buffer, label="toy")
    outcome = schedule.run(produce, consume)
    return consumed, (outcome.n_supersteps, outcome.steps_overlapped,
                      outcome.double_buffered)


class TestSuperstepSchedule:
    """The scheduler's split-phase schedule must be a pure schedule change."""

    @pytest.mark.parametrize("backend", ["thread", "process"])
    def test_single_hop_split_matches_sync(self, backend):
        split = spmd_run(3, _single_hop_program, True, backend=backend)
        sync = spmd_run(3, _single_hop_program, False, backend=backend)
        assert [payloads for payloads, _ in split] == [p for p, _ in sync]

    def test_single_hop_thread_process_identical(self):
        assert ([p for p, _ in spmd_run(3, _single_hop_program, True,
                                        backend="thread")]
                == [p for p, _ in spmd_run(3, _single_hop_program, True,
                                           backend="process")])

    def test_step_count_agreement_and_overlap_accounting(self):
        results = spmd_run(3, _single_hop_program, True, backend="thread")
        for _payloads, (n_supersteps, overlapped, double_buffered) in results:
            assert n_supersteps == 3  # max over ranks' 1..3 local steps
            assert overlapped == 2    # every step but the first overlapped
            assert double_buffered
        sync = spmd_run(3, _single_hop_program, False, backend="thread")
        for _payloads, (n, overlapped, double_buffered) in sync:
            assert (n, overlapped, double_buffered) == (3, 0, False)

    @pytest.mark.parametrize("backend", ["thread", "process"])
    @pytest.mark.parametrize("program", [_single_hop_program])
    def test_trace_identical_to_synchronous(self, backend, program):
        split_trace, sync_trace = CommTrace(3), CommTrace(3)
        spmd_run(3, program, True, trace=split_trace, backend=backend)
        spmd_run(3, program, False, trace=sync_trace, backend=backend)
        assert split_trace.summary() == sync_trace.summary()
        assert (split_trace.snapshot()["alltoallv_calls"]
                == sync_trace.snapshot()["alltoallv_calls"])

    def test_overlapped_time_recorded_only_when_double_buffered(self):
        def program(comm, double_buffer):
            timer = StageTimer()
            schedule = SuperstepSchedule(comm, timer, 3,
                                         double_buffer=double_buffer)
            schedule.run(
                lambda step: [np.zeros(4, dtype=np.int64)] * comm.size,
                lambda step, received: None,
            )
            return timer.overlapped_seconds

        assert all(t > 0.0 for t in spmd_run(2, program, True))
        assert all(t == 0.0 for t in spmd_run(2, program, False))

    def test_single_rank(self):
        split = spmd_run(1, _single_hop_program, True)
        sync = spmd_run(1, _single_hop_program, False)
        assert [p for p, _ in split] == [p for p, _ in sync]

    def test_outcome_without_steps(self):
        def program(comm):
            outcome = SuperstepSchedule(comm, StageTimer(), 0).run(
                lambda step: [], lambda step, received: None)
            return outcome

        assert spmd_run(2, program) == [ScheduleOutcome(0, 0, False)] * 2


class TestPhaseLabelledExchanges:
    """Colliding schedules (ranks in different phases) must raise, not mix."""

    @pytest.mark.parametrize("backend", ["thread", "process"])
    @pytest.mark.parametrize("double_buffer", [False, True])
    def test_label_mismatch_detected(self, backend, double_buffer):
        def program(comm, double_buffer=double_buffer):
            label = "stage_a" if comm.rank == 0 else "stage_b"
            schedule = SuperstepSchedule(comm, StageTimer(), 1,
                                         double_buffer=double_buffer,
                                         label=label)
            schedule.run(
                lambda step: [np.zeros(1, dtype=np.int64)] * comm.size,
                lambda step, received: None,
            )

        with pytest.raises(RankFailedError) as err:
            spmd_run(2, program, backend=backend)
        assert isinstance(err.value.__cause__, CollectiveMismatchError)

    def test_matching_labels_pass(self):
        def program(comm):
            received = []
            schedule = SuperstepSchedule(comm, StageTimer(), 1, label="same")
            schedule.run(
                lambda step: [np.full(2, comm.rank, dtype=np.int64)] * comm.size,
                lambda step, payloads: received.extend(
                    np.asarray(p).tolist() for p in payloads),
            )
            return received

        assert spmd_run(2, program) == [[[0, 0], [1, 1]]] * 2


# ---------------------------------------------------------------------------
# Pipeline-level: schedule equivalence and the full parity matrix
# ---------------------------------------------------------------------------

def _assert_science_identical(result, reference):
    assert result.overlap_pairs() == reference.overlap_pairs()
    table, ref_table = result.alignment_table(), reference.alignment_table()
    for column in ref_table:
        np.testing.assert_array_equal(table[column], ref_table[column])
    for r_table, f_table in zip(result.overlap_tables(),
                                reference.overlap_tables()):
        np.testing.assert_array_equal(r_table.rid_a, f_table.rid_a)
        np.testing.assert_array_equal(r_table.rid_b, f_table.rid_b)
        np.testing.assert_array_equal(r_table.seed_offsets, f_table.seed_offsets)
        np.testing.assert_array_equal(r_table.seed_pos_a, f_table.seed_pos_a)
        np.testing.assert_array_equal(r_table.seed_pos_b, f_table.seed_pos_b)


def _assert_counters_identical(result, reference):
    keys = set(result.counters) | set(reference.counters)
    for key in keys - SCHEDULE_FLAG_COUNTERS:
        assert result.counters.get(key) == reference.counters.get(key), key


@pytest.mark.slow
class TestStageScheduleEquivalence:
    """Sync-vs-split-phase equivalence + trace identity with every streamed
    stage double-buffered at once (the bulk-synchronous run is the oracle)."""

    @pytest.fixture(scope="class")
    def streaming_config(self, micro_config) -> PipelineConfig:
        """Many supersteps in every streamed stage: small read batches and
        tiny pair chunks."""
        from dataclasses import replace

        return replace(micro_config, batch_reads=8, exchange_chunk_mb=0.001)

    @pytest.fixture(scope="class")
    def sync_run(self, micro_dataset, streaming_config):
        from repro.core.driver import run_dibella

        return run_dibella(micro_dataset.reads,
                           config=streaming_config.with_double_buffer(False),
                           n_nodes=1, ranks_per_node=3)

    def test_all_stages_double_buffered_matches_sync(self, micro_dataset,
                                                     streaming_config, sync_run):
        from repro.core.driver import run_dibella

        result = run_dibella(micro_dataset.reads,
                             config=streaming_config.with_double_buffer(True),
                             n_nodes=1, ranks_per_node=3)
        _assert_science_identical(result, sync_run)
        _assert_counters_identical(result, sync_run)
        # Every streamed stage's schedule actually overlapped something
        # (stage 4's read exchange is a single round, not a schedule).
        for stage in ("bloom", "hashtable", "overlap"):
            flag = "chunks" if stage == "overlap" else "steps"
            assert result.counters[f"{stage}_exchange_double_buffered"] > 0
            assert sync_run.counters[f"{stage}_exchange_double_buffered"] == 0
            assert result.counters[f"{stage}_{flag}_overlapped"] > 0, stage
            assert result.stage(stage).wall_overlapped_seconds.sum() > 0.0, stage
        # Trace identity: same volumes, same per-phase call counts.
        assert result.trace.summary() == sync_run.trace.summary()
        assert (result.trace.snapshot()["alltoallv_calls"]
                == sync_run.trace.snapshot()["alltoallv_calls"])


@pytest.mark.slow
class TestSuperstepParityMatrix:
    """{thread, process} × {double-buffer on/off} over the superstep knobs:
    bit-identical tables, counters, and alignment results."""

    @pytest.fixture(scope="class")
    def matrix_config(self, micro_config) -> PipelineConfig:
        from dataclasses import replace

        return replace(micro_config, batch_reads=8, exchange_chunk_mb=0.001)

    @pytest.fixture(scope="class")
    def reference(self, micro_dataset, matrix_config):
        from repro.core.driver import run_dibella

        config = matrix_config.with_backend("thread").with_double_buffer(False)
        return run_dibella(micro_dataset.reads, config=config,
                           n_nodes=1, ranks_per_node=3)

    @pytest.mark.parametrize("backend", ["thread", "process"])
    @pytest.mark.parametrize("double_buffer", [False, True])
    def test_matrix_bit_identical(self, micro_dataset, matrix_config, reference,
                                  backend, double_buffer):
        from repro.core.driver import run_dibella

        config = (matrix_config.with_backend(backend)
                  .with_double_buffer(double_buffer))
        result = run_dibella(micro_dataset.reads, config=config,
                             n_nodes=1, ranks_per_node=3)
        _assert_science_identical(result, reference)
        _assert_counters_identical(result, reference)
        for phase in reference.trace.phases():
            np.testing.assert_array_equal(
                result.trace.phase_traffic(phase).volume,
                reference.trace.phase_traffic(phase).volume,
            )


@pytest.mark.slow
class TestBloomStashRelease:
    """The HLL pre-pass stash is consumed and freed per superstep."""

    def test_peak_below_total_with_multiple_batches(self, micro_dataset,
                                                    micro_config):
        from dataclasses import replace

        from repro.core.driver import run_dibella

        config = replace(micro_config, batch_reads=8)
        result = run_dibella(micro_dataset.reads, config=config,
                             n_nodes=1, ranks_per_node=3)
        total = result.counters["bloom_stash_total_bytes"]
        peak = result.counters["bloom_stash_peak_bytes"]
        assert total > 0
        # The released schedule never carries the whole stash through a
        # superstep — the old whole-stage retention held `total` until the
        # stage ended.
        assert 0 < peak < total

    def test_single_batch_stash_is_fully_released(self, micro_dataset,
                                                  micro_config):
        from dataclasses import replace

        from repro.core.driver import run_dibella

        config = replace(micro_config, batch_reads=10_000)
        result = run_dibella(micro_dataset.reads, config=config,
                             n_nodes=1, ranks_per_node=3)
        assert result.counters["bloom_stash_total_bytes"] > 0
        assert result.counters["bloom_stash_peak_bytes"] == 0

    def test_counters_schedule_independent(self, micro_dataset, micro_config):
        from dataclasses import replace

        from repro.core.driver import run_dibella

        config = replace(micro_config, batch_reads=8)
        db = run_dibella(micro_dataset.reads,
                         config=config.with_double_buffer(True),
                         n_nodes=1, ranks_per_node=3)
        sync = run_dibella(micro_dataset.reads,
                           config=config.with_double_buffer(False),
                           n_nodes=1, ranks_per_node=3)
        for key in ("bloom_stash_total_bytes", "bloom_stash_peak_bytes"):
            assert db.counters[key] == sync.counters[key]
