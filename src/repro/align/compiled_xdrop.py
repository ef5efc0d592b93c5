"""Build, cache and bind the compiled x-drop kernel (``_xdrop.c``).

The shared library is built on first use, never at import: one
``cc -O3 -shared -fPIC`` call whose output lands in
``${XDG_CACHE_HOME:-~/.cache}/repro/`` (or a per-user directory under
:func:`tempfile.gettempdir` when that one is not writable).  The file name
carries a hash of the source, the compiler and the flags, so an edited
kernel or another compiler never loads a stale build.  The compiler writes
to a temporary file that is ``os.replace``-d into place, which makes ranks
or processes compiling at the same time safe: each ends up loading one
complete library.

:func:`load_kernel` raises :class:`KernelUnavailable` with a one-line reason
when no compiler works; :mod:`repro.align.batched_xdrop` then runs its NumPy
kernel, which is also the oracle the compiled one is tested against.
"""

from __future__ import annotations

import ctypes
import hashlib
import os
import shutil
import subprocess
import tempfile
from pathlib import Path

import numpy as np

from repro.align.results import ExtensionResult
from repro.align.scoring import ScoringScheme

_SOURCE = Path(__file__).with_name("_xdrop.c")
_FLAGS = ("-O3", "-shared", "-fPIC")
_COMPILERS = ("cc", "gcc", "clang")
_INT32_LIMIT = 2**31
_INT64_LIMIT = 2**62

_i64 = ctypes.c_int64
_p_u8 = ctypes.POINTER(ctypes.c_uint8)
_p_i64 = ctypes.POINTER(ctypes.c_int64)


def fits_kernel(scoring: ScoringScheme, xdrop: int, band: int,
                max_rows: int | None, max_len_a: int) -> bool:
    """Whether the compiled kernel is exact for these parameters.

    Every score the kernel forms lies in ``[-(2**28 + 2 * band * |gap| +
    max penalty), match * max_len_a]`` (derived in ``_xdrop.c``), and both
    ends must fit its int32 scores; ``xdrop``, ``band`` and ``max_rows``
    must fit its int64 (``band`` int32) arguments.  Realistic scoring is far
    inside: the default scheme at band 64 needs about 2**28.
    """
    penalty = max(-scoring.gap, -scoring.mismatch)
    low = 2**28 + 2 * band * -scoring.gap + penalty
    high = scoring.match * max(max_len_a, 1)
    return (max(low, high, band) < _INT32_LIMIT and xdrop < _INT64_LIMIT
            and (max_rows or 0) < _INT64_LIMIT)


class KernelUnavailable(RuntimeError):
    """The compiled kernel cannot be built or loaded; the message says why."""


def default_cache_dir() -> Path:
    """``$XDG_CACHE_HOME/repro`` (default ``~/.cache/repro``) if writable."""
    base = os.environ.get("XDG_CACHE_HOME") or os.path.join(
        os.path.expanduser("~"), ".cache")
    preferred = Path(base) / "repro"
    try:
        preferred.mkdir(parents=True, exist_ok=True)
        if os.access(preferred, os.W_OK):
            return preferred
    except OSError:
        pass
    return Path(tempfile.gettempdir()) / f"repro-{os.getuid()}"


def find_compiler() -> str | None:
    """The first C compiler on ``PATH`` (``cc``, ``gcc``, ``clang``)."""
    for name in _COMPILERS:
        path = shutil.which(name)
        if path:
            return path
    return None


def build_library(cache_dir: Path, compiler: str) -> Path:
    """Compile ``_xdrop.c`` into *cache_dir* unless that build exists already."""
    source = _SOURCE.read_bytes()
    key = hashlib.sha256(b"\0".join(
        [source, compiler.encode(), " ".join(_FLAGS).encode()])).hexdigest()[:16]
    target = cache_dir / f"_xdrop-{key}.so"
    if target.is_file():
        return target
    try:
        cache_dir.mkdir(parents=True, exist_ok=True)
        fd, tmp = tempfile.mkstemp(dir=cache_dir, prefix=".xdrop-", suffix=".so")
    except OSError as exc:
        raise KernelUnavailable(
            f"cache directory {cache_dir} is not writable: {exc}") from None
    os.close(fd)
    try:
        try:
            proc = subprocess.run([compiler, *_FLAGS, "-o", tmp, str(_SOURCE)],
                                  capture_output=True, text=True)
        except OSError as exc:
            raise KernelUnavailable(f"cannot run compiler {compiler}: {exc}") from None
        if proc.returncode != 0:
            detail = (proc.stderr.strip().splitlines() or ["no output"])[0]
            raise KernelUnavailable(
                f"{compiler} exited with {proc.returncode}: {detail}")
        os.replace(tmp, target)
    finally:
        if os.path.exists(tmp):
            os.unlink(tmp)
    return target


def _flatten(seqs: list[np.ndarray]) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """One contiguous uint8 code buffer plus per-task offsets and lengths."""
    lengths = np.fromiter((s.size for s in seqs), dtype=np.int64, count=len(seqs))
    offsets = np.zeros(len(seqs), dtype=np.int64)
    np.cumsum(lengths[:-1], out=offsets[1:])
    if lengths.any():
        codes = np.concatenate(seqs).astype(np.uint8, copy=False)
    else:
        codes = np.zeros(1, dtype=np.uint8)  # a valid pointer for empty tasks
    return codes, offsets, lengths


def _check_buffers(codes: np.ndarray, offsets: np.ndarray, lengths: np.ndarray,
                   n_tasks: int) -> None:
    """Refuse anything the C kernel could read out of bounds."""
    if codes.dtype != np.uint8 or not codes.flags.c_contiguous:
        raise ValueError("code buffer must be contiguous uint8")
    for arr in (offsets, lengths):
        if arr.dtype != np.int64 or not arr.flags.c_contiguous or arr.size != n_tasks:
            raise ValueError("offsets and lengths must be contiguous int64, one per task")
    if n_tasks and (int(offsets.min()) < 0 or int(lengths.min()) < 0
                    or int((offsets + lengths).max()) > codes.size):
        raise ValueError("task ranges fall outside the code buffer")


class CompiledXdrop:
    """ctypes binding of ``xdrop_extend_batch`` from one built library."""

    def __init__(self, path: Path) -> None:
        try:
            lib = ctypes.CDLL(str(path))
            fn = lib.xdrop_extend_batch
        except (OSError, AttributeError) as exc:
            raise KernelUnavailable(f"cannot load {path}: {exc}") from None
        fn.argtypes = [
            _i64,
            _p_u8, _p_i64, _p_i64,
            _p_u8, _p_i64, _p_i64,
            ctypes.c_int32, ctypes.c_int32, ctypes.c_int32,
            _i64, _i64, _i64,
            _p_i64, _p_i64, _p_i64, _p_i64,
        ]
        fn.restype = ctypes.c_int
        self._lib = lib
        self._fn = fn

    def extend(self, seqs_a: list[np.ndarray], seqs_b: list[np.ndarray],
               scoring: ScoringScheme, xdrop: int, band: int,
               max_rows: int | None) -> list[ExtensionResult]:
        """Run every (a, b) extension; same contract as ``batched_extend``.

        Raises :class:`ValueError` for parameters outside :func:`fits_kernel`.
        """
        n = len(seqs_a)
        a_codes, a_off, a_len = _flatten(seqs_a)
        b_codes, b_off, b_len = _flatten(seqs_b)
        if not fits_kernel(scoring, xdrop, band, max_rows, int(a_len.max(initial=0))):
            raise ValueError("parameters too large for the compiled kernel's integers")
        _check_buffers(a_codes, a_off, a_len, n)
        _check_buffers(b_codes, b_off, b_len, n)
        out = np.zeros((4, n), dtype=np.int64)
        status = self._fn(
            n,
            a_codes.ctypes.data_as(_p_u8), a_off.ctypes.data_as(_p_i64),
            a_len.ctypes.data_as(_p_i64),
            b_codes.ctypes.data_as(_p_u8), b_off.ctypes.data_as(_p_i64),
            b_len.ctypes.data_as(_p_i64),
            scoring.match, scoring.mismatch, scoring.gap,
            xdrop, band, -1 if max_rows is None else max_rows,
            *(row.ctypes.data_as(_p_i64) for row in out),
        )
        if status != 0:
            raise MemoryError("x-drop kernel could not allocate its row buffers")
        return [ExtensionResult(score=s, length_a=i, length_b=j, cells=c)
                for s, i, j, c in zip(*out.tolist())]


def load_kernel(cache_dir: Path | None = None,
                compiler: str | None = None) -> CompiledXdrop:
    """Build (if needed) and bind the compiled kernel.

    *cache_dir* defaults to :func:`default_cache_dir`, *compiler* to
    :func:`find_compiler`.  Raises :class:`KernelUnavailable` on failure.
    """
    compiler = compiler or find_compiler()
    if compiler is None:
        raise KernelUnavailable(f"no C compiler on PATH (tried {', '.join(_COMPILERS)})")
    path = build_library(cache_dir or default_cache_dir(), compiler)
    return CompiledXdrop(path)
