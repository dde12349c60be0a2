"""Run a function over contiguous index ranges, one forked child per CPU, with
plain ``fork`` and ``pickle``: a process pool would load ``multiprocessing``."""

from __future__ import annotations

import os
import pickle

# A split of less work than this runs in-process.  A certificate counts 32
# per walk entry it expects, so it splits from 2^17 entries on; a ball scan
# alone counts n * max(n, directed edges) * g / 8.  One process against two
# forked workers, 2-core host, medians of 9: certificates of the separation
# graph (d=4) took 20 against 41 ms at n=1000, g=2 (2.0e4 entries) and 31
# against 53 ms at g=3 (6.8e4); of generated graphs, 62 against 57 ms at
# n=2000, d=8, g=2 (1.4e5), 107 against 85 ms at n=1000, d=8, g=3 (5.2e5),
# 301 against 178 ms at n=2000 (1.0e6) and 0.90 against 0.51 s at n=12000,
# d=4, g=2 (2.4e5).  Ball scans of 2.4e7 before the eighth (n=1000, d=8,
# g=3), medians of 7: 31-33 against 27-29 ms.
# Martingale tails count trials * (n * d + 600), the 600 a trial's seeding
# and looping (a least-squares fit of 9.2 us a trial plus 0.0155 us per cell,
# n * d from 8 to 6400, best of 7 over 3000 trials in one process).  Two
# forked workers against one process, medians of 7: n=8, d=1: 69 against
# 53 ms for 3000 trials, 96 against 85 ms for 6000, 115 against 175 ms for
# 12000; n=200, d=16: 50 against 75 ms for 1000 trials.
_PARALLEL_WORK = 1 << 22


def split_ranges(fn, count: int, work: float) -> list:
    """``fn(lo, hi)`` over contiguous ranges that cover 0..count-1, in order.

    There is one range per CPU in this process's affinity mask, at most
    ``count``, each run in a forked child that pickles its result, or the
    exception it raised, into a pipe.  A single CPU, a platform without
    ``fork`` or ``sched_getaffinity``, and ``work`` below ``_PARALLEL_WORK``
    give one range, run in-process.  Every child is reaped before the first
    failed range's exception is raised here, with its own type.
    """
    workers = 1
    if work >= _PARALLEL_WORK and hasattr(os, "fork") and hasattr(os, "sched_getaffinity"):
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
