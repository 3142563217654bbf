"""Independent work dealt between the calling process and forked children.

`deal(work, items)` is `[work(x) for x in items]` spread over `processes`
processes: item k goes to share k mod n, the calling process works on the
last share and a child forked for each other share works on it, and the
results come back in item order. A child inherits everything the caller
holds at the fork, module attributes a test has patched included, so
nothing is sent to it and no worker interpreter imports the package again.
It pipes back its results, or the exception it raised, and ends without
ever returning into the caller's code. Self-play deals its games this way
and `run` its replicate's cells.

Importing this module, which the package does first, sets the BLAS library
numpy loaded to one thread, so that each process sums its matrix products
on one core, the same way in every process. `processes`, how many shares
the work gets, is then one per usable CPU. Where no known thread setter is
found, two processes could each spread their products over every core, so
everything stays in the calling process."""

from __future__ import annotations

import ctypes
import os
import pickle
import signal
import threading
import time

from numpy.linalg import _umath_linalg

# the thread-count setters of OpenBLAS as numpy's wheels bundle it (64-bit
# integers, prefixed or not), of a system OpenBLAS, and of MKL
_BLAS_SETTERS = ("scipy_openblas_set_num_threads64_", "openblas_set_num_threads64_",
                 "openblas_set_num_threads", "MKL_Set_Num_Threads")

# what a child exits with when its work raised past `Exception`, or when its
# parent died; a failed run exits with the same status
_EXIT_FAILED = 2


class ChildError(RuntimeError):
    """A child ended without a reply; the message names it and its wait status."""


def _one_blas_thread() -> int | None:
    """Set the BLAS library numpy loaded to one thread; returns the count
    set, 1, or None when that library has none of `_BLAS_SETTERS`
    (Accelerate, say)."""
    # a symbol lookup through numpy's extension (at this path in numpy 1 and
    # 2) also searches the libraries it links, so it finds the copy numpy uses
    numpy_ext = ctypes.CDLL(_umath_linalg.__file__)
    setter = next((getattr(numpy_ext, name) for name in _BLAS_SETTERS
                   if hasattr(numpy_ext, name)), None)
    if setter is None:
        return None
    setter.argtypes, setter.restype = (ctypes.c_int,), None
    setter(1)
    return 1


# BLAS threads per process, as `_one_blas_thread` set them at import
BLAS_THREADS = _one_blas_thread()


def processes(tasks: int, cpus: int | None = None) -> int:
    """How many processes share `tasks` independent tasks: one per usable
    CPU (`cpus`, by default those of this process's affinity mask) when each
    runs one BLAS thread, else 1. Never more than `tasks`, and at least the
    calling process."""
    if BLAS_THREADS is None:
        return 1
    cpus = cpus or (len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
                    else os.cpu_count())
    return max(1, min(tasks, cpus))


def _exit_with_parent(parent: int) -> None:
    """Poll until `parent` is gone, then end this process: a child's writes
    rely on the caller's locks, which an orphan would outlive."""
    while os.getppid() == parent:
        time.sleep(0.2)
    os._exit(_EXIT_FAILED)


def _fork(work, share) -> tuple[int, int]:
    """Fork a child that pickles (work(share), None), or (None, the
    exception it raised), into a pipe; returns (child pid, read end). A
    reply that cannot be pickled, or an exception that cannot be rebuilt
    from its pickle, is sent as a PicklingError naming why."""
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
        try:
            data = pickle.dumps(reply)
            if reply[1] is not None:  # an exception can pickle and still not rebuild
                pickle.loads(data)
        except Exception as exc:  # noqa: BLE001 - sent in place of the reply
            what = "result" if reply[1] is None else f"exception {reply[1]!r}"
            data = pickle.dumps((None, pickle.PicklingError(
                f"cannot send a child's {what}: {type(exc).__name__}: {exc}")))
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
        how = "exited with" if end.si_code == os.CLD_EXITED else "killed by signal"
        raise ChildError(f"child {pid} {how} {end.si_status}")
    result, error = pickle.loads(data)
    if error is not None:
        raise error
    return result


def deal(work, items) -> list:
    """[work(x) for x in items], item k worked in share k mod n of the n =
    `processes(len(items))` shares, all at once: the last share in the
    calling process, each other in a child forked for it. Every child is
    killed and reaped before this returns or raises."""
    n, children = processes(len(items)), []
    try:
        for k in range(n - 1):
            children.append(_fork(lambda share: [work(x) for x in share], items[k::n]))
        results = [None] * len(items)
        results[n - 1::n] = [work(x) for x in items[n - 1::n]]
        for k, (pid, read) in enumerate(children):
            results[k::n] = _reply_of(pid, read)
        return results
    finally:
        for pid, read in children:  # each is still unreaped, so no other process has its pid
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
            os.close(read)
