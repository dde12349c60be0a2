"""Run a function over contiguous index ranges, or a list of independent
stages, one forked child per CPU, with plain ``fork`` and ``pickle``: a
process pool would load ``multiprocessing``."""

from __future__ import annotations

import contextlib
import os
import pickle

# A split of less work than this runs in-process.  A certificate counts 32
# per walk entry it expects, so it splits from 2^17 entries on; a ball scan
# alone counts n * max(n, directed edges) * g / 8; a martingale tail counts 4
# per cell, 4 * trials * (n * d + 600), the 600 a trial's seeding and looping
# (a fit of 9.2 us a trial plus 0.0155 us per cell, n * d from 8 to 6400, best
# of 7 over 3000 trials in one process); separation's stages count 2^14 per
# vertex, so they split from n = 256.  One process against two pinned
# workers, 2-core host, medians of 9 in two runs, work in brackets:
# separation-graph (d=4) certificates 20 against 24 ms at n=1000, g=2 (6.4e5),
# 21-26 against 27-30 ms at g=3 (2.2e6), 40-41 against 42-45 ms at n=2000,
# g=2 (1.3e6); generated graphs 36-40 against 34-40 ms at n=2000, d=8, g=2
# (4.6e6), 87-122 against 63-82 ms at n=1000, d=8, g=3 (1.7e7), 251-268
# against 158-159 ms at n=2000 (3.3e7), 0.80-1.00 against 0.47-0.54 s at
# n=12000, d=4, g=2 (7.7e6); a ball scan 31-32 against 28-29 ms at n=1000,
# d=8, g=3 (3.0e6); tails at n=8, d=1 6.6 against 7.7-8.2 ms for 750 trials
# (1.8e6), 13.0-13.2 against 11.9-12.3 ms for 1500 (3.6e6), 26-27 against
# 20-23 ms for 3000 (7.3e6), and at n=200, d=16 9.7-9.9 against 9.8-12.9 ms
# for 200 (3.0e6), 19-21 against 15 ms for 400 (6.1e6).  Certificates break
# even from 2.2e6 to 4.6e6, tails near 4e6.  Separation's stages (Delta=16,
# d=4, g=2, sampled cuts against the clique) in fresh CLI calls, one process
# against stage children, medians of 15 alternating pairs: 32.9 against 33.0
# ms at n=160 (2.6e6, 9 won), 34.1 against 33.0 at n=200 (3.3e6, 10 won), 38.5
# against 34.6 at n=256 (4.2e6, 12 won), 44.9 against 38.3 at n=320 (13
# won); against the parent graph they won from n=128 (7 of 11 pairs).
_PARALLEL_WORK = 1 << 22


@contextlib.contextmanager
def _one_blas_thread():
    """OpenBLAS runs one thread while the children run.  A child re-creates its
    BLAS threads after the fork on the one CPU it is pinned to, where they spin
    in turn: separation at n = 1000 took 0.32 s, not 0.08 s, with the stages in
    children and two BLAS threads.  The parent's count comes back after."""
    import ctypes  # numpy has loaded it already

    counts = []
    with contextlib.suppress(OSError), open("/proc/self/maps", encoding="utf-8") as maps:
        for lib in map(ctypes.CDLL, sorted({line.split()[-1] for line in maps if "openblas" in line})):
            for name in ("openblas_{}_num_threads", "scipy_openblas_{}_num_threads64_"):
                count = getattr(lib, name.format("get"), lambda: 1)()
                if count > 1:
                    counts.append((getattr(lib, name.format("set")), count))
    for put, _ in counts:
        put(1)
    try:
        yield
    finally:
        for put, count in counts:
            put(count)


def split_ranges(fn, count: int, work: float) -> list:
    """``fn(lo, hi)`` over contiguous ranges that cover 0..count-1, in order.

    There is one range per CPU in this process's affinity mask, at most
    ``count``, each run in a forked child that pickles its result, or the
    exception it raised, into a pipe, pinned to its own CPU of the mask: a
    cpuset that does not balance load keeps forked children on their parent's
    CPU.  A single CPU, a platform without ``fork`` or ``sched_getaffinity``,
    and ``work`` below ``_PARALLEL_WORK`` give one range, run in-process.  Every child is reaped before the first
    failed range's exception is raised here, with its own type.  A loaded OpenBLAS runs one thread meanwhile.
    """
    workers = 1
    if work >= _PARALLEL_WORK and hasattr(os, "fork") and hasattr(os, "sched_getaffinity"):
        cpus = sorted(os.sched_getaffinity(0))
        workers = min(len(cpus), count)
    if workers <= 1:
        return [fn(0, count)]
    cuts = [count * i // workers for i in range(workers + 1)]
    with _one_blas_thread():
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


def run_stages(stages, work: float) -> list:
    """Each of the zero-argument ``stages``' results, in order: contiguous ranges
    of stages run as :func:`split_ranges` runs ranges, each range in order, so
    the first stage to fail in the serial order raises, with its own type."""
    return [r for part in split_ranges(lambda lo, hi: [s() for s in stages[lo:hi]], len(stages), work) for r in part]
