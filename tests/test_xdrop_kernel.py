"""The compiled x-drop kernel against its NumPy oracle (repro.align.compiled_xdrop).

The compiled kernel must return the same :class:`ExtensionResult` as
``_batched_extend_numpy`` for every task, ``cells`` included; these tests
drive both with hypothesis-generated batches and check the build cache and
the fallback when no compiler works.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import threading
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.align import batched_xdrop
from repro.align.batched_xdrop import BatchedExtensionConfig, _batched_extend_numpy
from repro.align.compiled_xdrop import (
    KernelUnavailable,
    _check_buffers,
    fits_kernel,
    load_kernel,
)
from repro.align.scoring import ScoringScheme
from repro.seq.encoding import encode_sequence

SRC = Path(__file__).resolve().parents[1] / "src"


@pytest.fixture(scope="module")
def compiled(tmp_path_factory):
    """The compiled kernel, built into a fresh cache directory."""
    try:
        return load_kernel(cache_dir=tmp_path_factory.mktemp("xdrop-cache"))
    except KernelUnavailable as exc:
        pytest.skip(f"compiled kernel unavailable: {exc}")


def _extend(kernel, seqs_a, seqs_b, scoring, config):
    return kernel.extend(seqs_a, seqs_b, scoring, config.xdrop, config.band,
                         config.max_rows)


def codes(max_size: int = 60):
    return st.lists(st.integers(0, 3), max_size=max_size).map(
        lambda xs: np.array(xs, dtype=np.uint8))


@st.composite
def task_pairs(draw, max_size: int = 60):
    """A code pair: unrelated, or b a noisy copy of a (long extensions)."""
    a = draw(codes(max_size))
    if a.size and draw(st.booleans()):
        b = a.copy()
        flips = draw(st.lists(st.integers(0, a.size - 1), max_size=max(1, a.size // 6)))
        b[flips] = (b[flips] + 1) % 4
        b = b[: draw(st.integers(0, a.size))]
        return a, b
    return a, draw(codes(max_size))


schemes = st.builds(ScoringScheme, match=st.integers(1, 6),
                    mismatch=st.integers(-8, 0), gap=st.integers(-8, 0))
configs = st.builds(
    BatchedExtensionConfig,
    xdrop=st.integers(1, 60),
    band=st.integers(3, 24),  # odd and even
    max_rows=st.one_of(st.none(), st.integers(1, 70)),
)


class TestDifferential:
    @settings(max_examples=300, deadline=None)
    @given(pairs=st.lists(task_pairs(), min_size=1, max_size=6),
           scoring=schemes, config=configs)
    def test_matches_numpy_oracle(self, compiled, pairs, scoring, config):
        seqs_a = [a for a, _ in pairs]
        seqs_b = [b for _, b in pairs]
        expected = _batched_extend_numpy(seqs_a, seqs_b, scoring, config)
        assert _extend(compiled, seqs_a, seqs_b, scoring, config) == expected

    @settings(max_examples=200, deadline=None)
    @given(pairs=st.lists(task_pairs(max_size=120), min_size=1, max_size=4),
           band=st.integers(3, 64),
           xdrop_offset=st.integers(-(2**24), 2**24),
           penalty=st.integers(2**20, 2**23))
    def test_matches_near_the_sentinel(self, compiled, pairs, band, xdrop_offset, penalty):
        # Huge penalties with an x-drop about as deep as the sentinel keep
        # rows alive whose every valid cell sits near or below -2**28.
        scoring = ScoringScheme(match=1, mismatch=-penalty, gap=-penalty)
        config = BatchedExtensionConfig(xdrop=2**28 + xdrop_offset, band=band)
        seqs_a = [a for a, _ in pairs]
        seqs_b = [b for _, b in pairs]
        expected = _batched_extend_numpy(seqs_a, seqs_b, scoring, config)
        assert _extend(compiled, seqs_a, seqs_b, scoring, config) == expected

    @pytest.mark.parametrize("band", [8, 15, 16])
    def test_rows_below_the_sentinel(self, compiled, band):
        # All mismatches under huge penalties: every valid cell falls below
        # -2**28.  A row with invalid slots then reports -2**28 as its
        # maximum (the NumPy kernel's masked slots), which keeps the task
        # alive for an x-drop deeper than the sentinel.
        seqs_a = [np.zeros(100, dtype=np.uint8)] * 4
        seqs_b = [np.ones(n, dtype=np.uint8) for n in (10, 40, 100, 200)]
        for penalty in (2**22, 2**23):
            scoring = ScoringScheme(match=1, mismatch=-penalty, gap=-penalty)
            for step in range(-8, 120, 16):
                config = BatchedExtensionConfig(xdrop=2**28 + step * 2**22, band=band)
                assert (_extend(compiled, seqs_a, seqs_b, scoring, config)
                        == _batched_extend_numpy(seqs_a, seqs_b, scoring, config))

    @pytest.mark.parametrize("band", [3, 4, 7, 8])
    def test_ties_in_the_row_argmax(self, compiled, band):
        # Zero penalties make whole rows tie; the first maximal slot wins.
        rng = np.random.default_rng(band)
        seqs_a = [rng.integers(0, 4, 40).astype(np.uint8) for _ in range(8)]
        seqs_b = [rng.integers(0, 4, 40).astype(np.uint8) for _ in range(8)]
        for scoring in (ScoringScheme(1, 0, 0), ScoringScheme(2, 0, -1),
                        ScoringScheme(1, -1, 0)):
            config = BatchedExtensionConfig(xdrop=5, band=band)
            assert (_extend(compiled, seqs_a, seqs_b, scoring, config)
                    == _batched_extend_numpy(seqs_a, seqs_b, scoring, config))

    def test_short_and_empty_sequences(self, compiled):
        seqs = [np.empty(0, dtype=np.uint8), encode_sequence("A"), encode_sequence("ACG"),
                encode_sequence("ACGTACGTAC")]
        for band in (3, 4, 64):
            config = BatchedExtensionConfig(xdrop=25, band=band)
            for a in seqs:
                for b in seqs:
                    assert (_extend(compiled, [a], [b], ScoringScheme(), config)
                            == _batched_extend_numpy([a], [b], ScoringScheme(), config))


class TestBinding:
    def test_batched_extend_uses_compiled_kernel(self, compiled):
        # A host that can build the kernel runs it by default.
        assert batched_xdrop.kernel_implementation() == "c"

    def test_concurrent_first_use_loads_once(self, compiled, monkeypatch, tmp_path):
        # Thread-backend ranks reach the kernel at the same time; the lock
        # makes exactly one of them build/load it and every rank gets
        # correct results.
        loads = []

        def counting_load():
            loads.append(1)
            return load_kernel(cache_dir=tmp_path)

        monkeypatch.setattr(batched_xdrop, "_kernel", None)
        monkeypatch.setattr(batched_xdrop, "load_kernel", counting_load)
        rng = np.random.default_rng(11)
        seqs = [rng.integers(0, 4, 150).astype(np.uint8) for _ in range(6)]
        config = BatchedExtensionConfig(band=16)
        expected = _batched_extend_numpy(seqs, seqs, ScoringScheme(), config)
        results: list = [None] * 6
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(
                target=lambda i=i: results.__setitem__(
                    i, batched_xdrop.batched_extend(seqs, seqs, ScoringScheme(), config)))
                for i in range(6)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
                assert not thread.is_alive()
        finally:
            sys.setswitchinterval(interval)
        assert len(loads) == 1
        assert all(result == expected for result in results)

    def test_buffers_validated_before_the_call(self):
        codes = np.zeros(4, dtype=np.uint8)
        good = np.array([0], dtype=np.int64)
        _check_buffers(codes, good, np.array([4], dtype=np.int64), 1)
        with pytest.raises(ValueError, match="uint8"):
            _check_buffers(codes.astype(np.int16), good, good, 1)
        with pytest.raises(ValueError, match="outside"):
            _check_buffers(codes, good, np.array([5], dtype=np.int64), 1)
        with pytest.raises(ValueError, match="one per task"):
            _check_buffers(codes, good, good.astype(np.int32), 1)
        with pytest.raises(ValueError, match="outside"):
            _check_buffers(codes, np.array([-1], dtype=np.int64), good, 1)

    def test_oversized_parameters_run_on_numpy(self, compiled):
        # Scores that could leave the compiled kernel's int32 range are
        # refused by it and served by the NumPy kernel instead.
        seq = [encode_sequence("ACGTTGCA" * 4)]
        config = BatchedExtensionConfig(xdrop=25, band=64)
        for scoring in (ScoringScheme(gap=-(2**24)), ScoringScheme(match=2**27)):
            assert not fits_kernel(scoring, 25, 64, None, seq[0].size)
            with pytest.raises(ValueError, match="too large"):
                _extend(compiled, seq, seq, scoring, config)
            assert (batched_xdrop.batched_extend(seq, seq, scoring, config)
                    == _batched_extend_numpy(seq, seq, scoring, config))
        assert fits_kernel(ScoringScheme(), 25, 64, None, 10**6)
        assert not fits_kernel(ScoringScheme(), 2**63, 64, None, 10)


def _run_python(code: str, *args: str, env: dict[str, str] | None = None):
    return subprocess.Popen([sys.executable, "-c", code, str(SRC), *args],
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                            text=True, env=env)


#: Extends a fixed batch with the default kernel and prints JSON.
_DEFAULT_KERNEL_PROGRAM = """
import json, sys
sys.path.insert(0, sys.argv[1])
import numpy as np
from repro.align import batched_xdrop as bx
from repro.align.scoring import ScoringScheme
rng = np.random.default_rng(3)
a = [rng.integers(0, 4, n).astype(np.uint8) for n in (0, 5, 90, 200)]
b = [x.copy() for x in a]
res = bx.batched_extend(a, b, ScoringScheme(), bx.BatchedExtensionConfig(band=16))
print(json.dumps({"kernel": bx.kernel_implementation(),
                  "results": [[r.score, r.length_a, r.length_b, r.cells] for r in res]}))
"""

#: Builds the kernel into argv[2] and extends one task.
_BUILD_PROGRAM = """
import sys
from pathlib import Path
sys.path.insert(0, sys.argv[1])
from repro.align.compiled_xdrop import load_kernel
from repro.align.scoring import ScoringScheme
from repro.seq.encoding import encode_sequence
kernel = load_kernel(cache_dir=Path(sys.argv[2]))
seq = encode_sequence("ACGTTGCAACGT" * 5)
print(kernel.extend([seq], [seq], ScoringScheme(), 25, 16, None)[0])
"""


class TestBuildCache:
    def test_missing_compiler_falls_back_to_numpy(self, compiled, tmp_path):
        # No compiler on PATH and an empty cache: the NumPy kernel runs,
        # gives the same results, and the reason is reported.
        env = dict(os.environ, PATH=str(tmp_path / "empty-bin"),
                   XDG_CACHE_HOME=str(tmp_path / "cache"))
        proc = _run_python(_DEFAULT_KERNEL_PROGRAM, env=env)
        out, err = proc.communicate(timeout=120)
        assert proc.returncode == 0, err
        report = json.loads(out)
        assert report["kernel"].startswith("numpy: no C compiler on PATH")

        rng = np.random.default_rng(3)
        a = [rng.integers(0, 4, n).astype(np.uint8) for n in (0, 5, 90, 200)]
        expected = compiled.extend(a, [x.copy() for x in a], ScoringScheme(), 25, 16, None)
        assert report["results"] == [[r.score, r.length_a, r.length_b, r.cells]
                                     for r in expected]

    def test_failing_compiler_names_the_reason(self, tmp_path):
        with pytest.raises(KernelUnavailable, match="cannot run compiler"):
            load_kernel(cache_dir=tmp_path, compiler=str(tmp_path / "no-such-cc"))
        assert list(tmp_path.iterdir()) == []  # no temporary file left behind

    def test_fallback_reason_reported(self, monkeypatch):
        monkeypatch.setattr(batched_xdrop, "_kernel", "no C compiler on PATH")
        assert batched_xdrop.kernel_implementation() == "numpy: no C compiler on PATH"
        seq = [encode_sequence("ACGTACGT")]
        config = BatchedExtensionConfig()
        assert (batched_xdrop.batched_extend(seq, seq, ScoringScheme(), config)
                == _batched_extend_numpy(seq, seq, ScoringScheme(), config))

    def test_two_processes_compile_into_one_cache(self, compiled, tmp_path):
        cache = tmp_path / "cache"
        procs = [_run_python(_BUILD_PROGRAM, str(cache)) for _ in range(2)]
        outs = [proc.communicate(timeout=120) for proc in procs]
        for proc, (out, err) in zip(procs, outs):
            assert proc.returncode == 0, err
        assert outs[0][0] == outs[1][0]
        assert "score=60" in outs[0][0]
        built = sorted(p.name for p in cache.iterdir())
        assert len(built) == 1 and built[0].startswith("_xdrop-") and built[0].endswith(".so")
