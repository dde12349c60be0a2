import os

import pytest

from sparselab import _fork


def _mask(lo, hi):
    return sorted(os.sched_getaffinity(0))


@pytest.mark.skipif(not hasattr(os, "sched_getaffinity") or len(os.sched_getaffinity(0)) < 2, reason="needs 2 CPUs")
def test_each_worker_runs_on_its_own_cpu():
    cpus = sorted(os.sched_getaffinity(0))
    assert _fork.split_ranges(_mask, 2, _fork._PARALLEL_WORK) == [[cpus[0]], [cpus[1]]]
    assert sorted(os.sched_getaffinity(0)) == cpus  # the parent's mask is unchanged
