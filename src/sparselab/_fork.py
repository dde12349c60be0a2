"""Run a function over contiguous index ranges, one forked child per CPU, with
plain ``fork`` and ``pickle``: a process pool would load ``multiprocessing``."""

from __future__ import annotations

import os
import pickle


def split_ranges(fn, count: int, work: float, floor: float) -> list:
    """``fn(lo, hi)`` over contiguous ranges that cover 0..count-1, in order.

    There is one range per CPU in this process's affinity mask, at most
    ``count``, each run in a forked child that pickles its result, or the
    exception it raised, into a pipe.  A single CPU, a platform without
    ``fork`` or ``sched_getaffinity``, and ``work`` below ``floor`` give one
    range, run in-process.  Every child is reaped before the first failed
    range's exception is raised here, with its own type.
    """
    workers = 1
    if work >= floor and hasattr(os, "fork") and hasattr(os, "sched_getaffinity"):
        workers = min(len(os.sched_getaffinity(0)), count)
    if workers <= 1:
        return [fn(0, count)]
    cuts = [count * i // workers for i in range(workers + 1)]
    children = []
    for lo, hi in zip(cuts, cuts[1:]):
        read_fd, write_fd = os.pipe()
        pid = os.fork()
        if pid == 0:
            status = 1
            try:
                os.close(read_fd)
                try:
                    result = fn(lo, hi)
                except BaseException as exc:  # handed to the parent, which raises it
                    result = exc
                data = pickle.dumps(result)  # all or nothing reaches the pipe
                with os.fdopen(write_fd, "wb") as out:
                    out.write(data)
                status = 0
            finally:
                os._exit(status)  # never return into the parent's stack
        os.close(write_fd)
        children.append((pid, read_fd))
    results = []
    for pid, read_fd in children:
        with os.fdopen(read_fd, "rb") as src:
            data = src.read()
        _, status = os.waitpid(pid, 0)
        results.append(pickle.loads(data) if data else RuntimeError(f"worker {pid} exited ({status}) with no result"))
    for result in results:
        if isinstance(result, BaseException):
            raise result
    return results
