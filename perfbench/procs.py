"""Child-process launching and per-process-tree measurement.

Every timed operation runs in a fresh child process tree started by
:func:`run_child`.  The child is reaped with ``os.wait4``, whose resource
usage covers the child and every descendant it reaped itself (the rank
workers), so CPU time and peak RSS are isolated per operation instead of
being the life-long high-water mark ``RUSAGE_CHILDREN`` reports.

The benchmark process makes itself a child subreaper where Linux allows
it: a descendant orphaned by the child (for example the shared-memory
resource tracker) is re-parented here and reaped before the next
operation starts, so no process outlives its operation.
"""

from __future__ import annotations

import ctypes
import os
import signal
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

_PR_SET_CHILD_SUBREAPER = 36


def become_subreaper() -> bool:
    """Adopt orphaned descendants (Linux ``prctl``); False where unsupported."""
    try:
        libc = ctypes.CDLL(None, use_errno=True)
        return libc.prctl(_PR_SET_CHILD_SUBREAPER, 1, 0, 0, 0) == 0
    except (OSError, AttributeError):
        return False


def child_env(root: Path) -> dict[str, str]:
    """The environment of every child: ``DIBELLA_*`` scrubbed, ``src`` importable.

    CI legs export ``DIBELLA_*`` variables that silently change config
    defaults, so none of them reaches a measured process.
    """
    env = {key: value for key, value in os.environ.items()
           if not key.startswith("DIBELLA_")}
    env.pop("PYTHONDONTWRITEBYTECODE", None)  # the warm-up must leave .pyc files
    env["PYTHONPATH"] = str(root / "src")
    return env


@dataclass(frozen=True)
class ChildRun:
    """One reaped child process tree."""

    returncode: int
    wall_s: float
    cpu_s: float
    peak_rss_mb: float
    started: float
    stdout: str
    stderr: str


def _reap_group(pgid: int, grace_s: float = 5.0) -> None:
    """Wait for the rest of process group *pgid* to exit; kill it after *grace_s*."""
    deadline = time.monotonic() + grace_s
    killed = False
    while True:
        try:
            while True:
                pid, _status = os.waitpid(-1, os.WNOHANG)
                if pid == 0:
                    break
        except ChildProcessError:
            pass
        try:
            os.killpg(pgid, 0)
        except ProcessLookupError:
            return
        except PermissionError:  # pragma: no cover - foreign group
            return
        if time.monotonic() >= deadline:
            if killed:
                return
            os.killpg(pgid, signal.SIGKILL)
            killed = True
            deadline = time.monotonic() + grace_s
        time.sleep(0.02)


def run_child(args: list[str], root: Path, log_dir: Path, tag: str) -> ChildRun:
    """Run ``python3 <args>`` as its own process group and measure the tree.

    Wall time runs from just before the fork to the reap of the child;
    CPU (user + system) and peak RSS come from ``wait4`` and therefore
    include every descendant the child reaped.  The child's output goes to
    files under *log_dir* so a chatty child can never block on a pipe.
    If the wait is interrupted (the caller's time limit), the whole group
    is killed and reaped before the exception propagates.
    """
    log_dir.mkdir(parents=True, exist_ok=True)
    out_path = log_dir / f"{tag}.out"
    err_path = log_dir / f"{tag}.err"
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        started = time.monotonic()
        proc = subprocess.Popen([sys.executable, *args], cwd=root,
                                env=child_env(root), stdout=out, stderr=err,
                                start_new_session=True)
        try:
            _pid, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            os.killpg(proc.pid, signal.SIGKILL)
            os.wait4(proc.pid, 0)
            _reap_group(proc.pid)
            raise
        wall = time.monotonic() - started
        proc.returncode = os.waitstatus_to_exitcode(status)
    _reap_group(proc.pid)
    return ChildRun(
        returncode=proc.returncode,
        wall_s=wall,
        cpu_s=usage.ru_utime + usage.ru_stime,
        peak_rss_mb=usage.ru_maxrss / 1024.0,
        started=started,
        stdout=out_path.read_text(encoding="utf-8", errors="replace"),
        stderr=err_path.read_text(encoding="utf-8", errors="replace"),
    )
