import os

import numpy as np
import pytest

from sparselab import _fork


def _mask(lo, hi):
    return sorted(os.sched_getaffinity(0))


@pytest.mark.skipif(not hasattr(os, "sched_getaffinity") or len(os.sched_getaffinity(0)) < 2, reason="needs 2 CPUs")
def test_each_worker_runs_on_its_own_cpu():
    cpus = sorted(os.sched_getaffinity(0))
    assert _fork.split_ranges(_mask, 2, _fork._PARALLEL_WORK) == [[cpus[0]], [cpus[1]]]
    assert sorted(os.sched_getaffinity(0)) == cpus  # the parent's mask is unchanged


def _blas_threads(lo, hi):
    np.ones((300, 300)) @ np.ones((300, 300))  # a product BLAS would thread
    return len(os.listdir("/proc/self/task"))


@pytest.mark.skipif(not os.path.isdir("/proc/self/task") or len(os.sched_getaffinity(0)) < 2, reason="needs 2 CPUs and /proc")
def test_a_pinned_worker_runs_one_blas_thread():
    # more BLAS threads would share the worker's one CPU and spin in turn
    assert _fork.split_ranges(_blas_threads, 2, _fork._PARALLEL_WORK) == [1, 1]
    np.ones((300, 300)) @ np.ones((300, 300))  # the parent's BLAS threads still work
