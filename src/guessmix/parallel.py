"""Independent work shared between the calling process and forked children.

`run_shares` runs the first share of some work in the calling process and
each other share in a child forked for it. A child inherits everything the
caller holds at the fork, module attributes a test has patched included, so
nothing is sent to it and no worker interpreter imports the package again.
It pipes back its result, or the exception it raised, and ends without ever
returning into the caller's code. `processes` is how many shares the work
gets. Self-play deals its games this way and `run` its replicate's cells.
"""

from __future__ import annotations

import os
import pickle
import signal
import threading
import time

BLAS_THREAD_VARIABLES = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

# what a child exits with when its work raised past `Exception`, or when its
# parent died; a failed run exits with the same status
_EXIT_FAILED = 2


class ChildError(RuntimeError):
    """A child ended without a reply; the message is its wait status."""

    def __init__(self, pid: int, status: str):
        super().__init__(status)
        self.pid = pid


def processes(tasks: int, environ=os.environ, cpus: int | None = None) -> int:
    """How many processes share `tasks` independent tasks: usable CPUs over
    BLAS threads, which are the first BLAS variable set in `environ` or, when
    none is, one per usable CPU (OpenBLAS's default), so unset variables give
    1. Never more than `tasks`, and at least the calling process."""
    cpus = cpus or (len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
                    else os.cpu_count())
    value = next((environ[name] for name in BLAS_THREAD_VARIABLES if environ.get(name)), "")
    threads = int(value) if value.isdigit() and int(value) > 0 else cpus
    return max(1, min(tasks, cpus // threads))


def _exit_with_parent(parent: int) -> None:
    """Poll until `parent` is gone, then end this process: a child's writes
    rely on the caller's locks, which an orphan would outlive."""
    while os.getppid() == parent:
        time.sleep(0.2)
    os._exit(_EXIT_FAILED)


def _fork(work, share) -> tuple[int, int]:
    """Fork a child that pickles (work(share), None), or (None, the
    exception it raised), into a pipe; returns (child pid, read end)."""
    parent = os.getpid()
    read, write = os.pipe()
    pid = os.fork()
    if pid:
        os.close(write)
        return pid, read
    try:
        threading.Thread(target=_exit_with_parent, args=(parent,), daemon=True).start()
        try:
            reply = (work(share), None)
        except Exception as exc:  # noqa: BLE001 - the caller re-raises it
            reply = (None, exc)
        data = pickle.dumps(reply)
        with open(write, "wb") as pipe:
            pipe.write(data)
        os._exit(0)
    finally:  # whatever else the work raised: the child never returns
        os._exit(_EXIT_FAILED)


def _reply_of(pid: int, read: int):
    """What child `pid` sends on `read`: its result, or the exception it
    raised re-raised here, or a ChildError with its wait status if it ends
    without a reply. The child is left to its parent to reap."""
    with open(read, "rb", closefd=False) as pipe:
        data = pipe.read()
    if not data:
        end = os.waitid(os.P_PID, pid, os.WEXITED | os.WNOWAIT)
        raise ChildError(pid, f"exited with {end.si_status}" if end.si_code == os.CLD_EXITED
                         else f"killed by signal {end.si_status}")
    result, error = pickle.loads(data)
    if error is not None:
        raise error
    return result


def run_shares(work, shares: list) -> list:
    """[work(share) for share in shares], the first share run in the calling
    process and each other in a child forked for it, all at once. Every
    child is killed and reaped before this returns or raises."""
    children = []
    try:
        for share in shares[1:]:
            children.append(_fork(work, share))
        results = [work(shares[0])]
        results += [_reply_of(pid, read) for pid, read in children]
        return results
    finally:
        for pid, read in children:  # each is still unreaped, so no other process has its pid
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
            os.close(read)
