"""Run a function over contiguous index ranges, one forked child per CPU, with
plain ``fork`` and ``pickle``: a process pool would load ``multiprocessing``."""

from __future__ import annotations

import contextlib
import os
import pickle

# A split of less work than this runs in-process.  A certificate counts 32
# per walk entry it expects, so it splits from 2^17 entries on; a ball scan
# alone counts n * max(n, directed edges) * g / 8; a martingale tail counts
# trials * (n * d + 600), the 600 a trial's seeding and looping (a fit of 9.2
# us a trial plus 0.0155 us per cell, n * d from 8 to 6400, best of 7 over
# 3000 trials in one process).  One process against two pinned workers, 2-core
# host, medians of 9 in two runs, work in brackets: separation-graph (d=4)
# certificates 20 against 24 ms at n=1000, g=2 (6.4e5), 21-26 against 27-30 ms
# at g=3 (2.2e6), 40-41 against 42-45 ms at n=2000, g=2 (1.3e6); generated
# graphs 36-40 against 34-40 ms at n=2000, d=8, g=2 (4.6e6), 87-122 against
# 63-82 ms at n=1000, d=8, g=3 (1.7e7), 251-268 against 158-159 ms at n=2000
# (3.3e7), 0.80-1.00 against 0.47-0.54 s at n=12000, d=4, g=2 (7.7e6); a ball
# scan 31-32 against 28-29 ms at n=1000, d=8, g=3 (3.0e6); tails at n=8, d=1
# 33-47 against 24-34 ms for 3000 trials (1.8e6), 62-93 against 40-58 ms for
# 6000, 124-177 against 99-102 ms for 12000, and at n=200, d=16 58-73 against
# 46-50 ms for 1000 (3.8e6).  Certificates break even from 2.2e6 to 4.6e6.
_PARALLEL_WORK = 1 << 22


def split_ranges(fn, count: int, work: float) -> list:
    """``fn(lo, hi)`` over contiguous ranges that cover 0..count-1, in order.

    There is one range per CPU in this process's affinity mask, at most
    ``count``, each run in a forked child that pickles its result, or the
    exception it raised, into a pipe, pinned to its own CPU of the mask: a
    cpuset that does not balance load keeps forked children on their parent's
    CPU.  A single CPU, a platform without ``fork`` or ``sched_getaffinity``,
    and ``work`` below ``_PARALLEL_WORK`` give one range, run in-process.  Every child is reaped before the first
    failed range's exception is raised here, with its own type.
    """
    workers = 1
    if work >= _PARALLEL_WORK and hasattr(os, "fork") and hasattr(os, "sched_getaffinity"):
        cpus = sorted(os.sched_getaffinity(0))
        workers = min(len(cpus), count)
    if workers <= 1:
        return [fn(0, count)]
    cuts = [count * i // workers for i in range(workers + 1)]
    children = []
    for cpu, lo, hi in zip(cpus, cuts, cuts[1:]):
        read_fd, write_fd = os.pipe()
        pid = os.fork()
        if pid == 0:
            status = 1
            try:
                os.close(read_fd)
                with contextlib.suppress(OSError):  # a CPU the kernel refuses leaves the child unpinned
                    os.sched_setaffinity(0, {cpu})
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
