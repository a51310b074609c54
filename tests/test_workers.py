"""Sampling draws on one pool of a thread per CPU, and gives the same record
bit for bit at every CPU count.

The worker count is the size of the process's CPU affinity set, patched here
to 1, 2, 3 and 8 CPUs (so a test starts at most 8 threads); one CPU gets a
pool of one thread, so every count takes the same path.  Each phase of a
record draws from its own random stream, so the record may not depend on
the count.  Errors raised on a worker reach the caller, and the command
line, unchanged, and every thread started is joined before the call
returns.  Binning starts no thread at any CPU count or record size.
"""

import os
import threading
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from emtomo import (
    BinGrid,
    HomodyneRecord,
    TabulationRangeError,
    cat_state,
    coherent_state,
    sample_homodyne,
    shift_and_histogram,
)
from emtomo import homodyne
from emtomo.cli import main

from .test_homodyne import _traced_peak

CPU_COUNTS = [2, 3, 8]


def _allow_cpus(monkeypatch, count):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(count)))


@pytest.fixture
def pools(monkeypatch):
    """The thread count of every pool the homodyne module starts."""
    sizes = []

    class Pool(ThreadPoolExecutor):
        def __init__(self, threads):
            sizes.append(threads)
            super().__init__(threads)

    monkeypatch.setattr(homodyne, "ThreadPoolExecutor", Pool)
    return sizes


def _in_worker():
    return threading.current_thread() is not threading.main_thread()


def test_worker_count_is_the_affinity_set(monkeypatch):
    _allow_cpus(monkeypatch, 3)
    assert homodyne._worker_count() == 3
    monkeypatch.delattr(os, "sched_getaffinity")
    monkeypatch.setattr(os, "cpu_count", lambda: None)
    assert homodyne._worker_count() == 1


# criterion 5's cat, and a coherent state whose phases widen their tables
@pytest.mark.parametrize("cpus", CPU_COUNTS)
@pytest.mark.parametrize("state, tab_range", [
    (cat_state(1.5j, np.pi, 26), homodyne.TAB_RANGE),
    (coherent_state(1.5, 20), 2.0),
], ids=["cat", "widened"])
def test_sampled_record_does_not_depend_on_the_cpu_count(monkeypatch, pools, cpus,
                                                         state, tab_range):
    monkeypatch.setattr(homodyne, "TAB_RANGE", tab_range)
    _allow_cpus(monkeypatch, 1)
    one = sample_homodyne(state, 11, 3_000, 0.9, 777)
    assert pools == [1]
    _allow_cpus(monkeypatch, cpus)
    many = sample_homodyne(state, 11, 3_000, 0.9, 777)
    assert pools == [1, cpus]
    assert np.array_equal(many.thetas, one.thetas)
    assert np.array_equal(many.xs, one.xs)


def _records():
    rng = np.random.default_rng(1357)

    def record(thetas):
        return HomodyneRecord(eta=0.85, thetas=thetas,
                              xs=rng.normal(0.0, 2.0, thetas.size), seed=0)

    def runs(count, length):
        return np.repeat(rng.uniform(0.0, np.pi, count), length)

    return {
        # with 1000-sample slices: runs of 700 cross every slice and share edge
        "straddling-runs": record(runs(13, 700)),
        "per-sample-phases": record(rng.uniform(0.0, np.pi, 9_100)),
        "mixed-routes": record(np.concatenate(
            [runs(3, 900), rng.uniform(0.0, np.pi, 4_000), runs(4, 800), runs(1, 77)])),
        # criterion 5's record: 16 phases x 10k events
        "cat-scan-sized": record(runs(16, 10_000)),
    }


@pytest.mark.parametrize("cpus", CPU_COUNTS)
@pytest.mark.parametrize("name", list(_records()))
def test_histogram_does_not_depend_on_the_cpu_count(monkeypatch, pools, cpus, name):
    record = _records()[name]
    grid = BinGrid(-6.0, 6.0, 1_200)
    # the last two points push samples off the grid
    points = [(0.0, 0.0), (0.7, -1.3), (-2.5, 2.5), (5.5, 5.0)]
    _allow_cpus(monkeypatch, 1)
    serial = [shift_and_histogram(record, q, p, grid) for q, p in points]
    assert serial[-1].overflow > 0
    _allow_cpus(monkeypatch, cpus)
    monkeypatch.setattr(homodyne, "_SLICE", 1_000)
    before = threading.active_count()
    for (q, p), expected in zip(points, serial):
        hist = shift_and_histogram(record, q, p, grid)
        assert np.array_equal(hist.counts, expected.counts)
        assert hist.overflow == expected.overflow
    assert pools == []
    assert threading.active_count() == before


@pytest.mark.parametrize("cpus", [1] + CPU_COUNTS)
def test_histogram_peak_does_not_grow_with_the_cpu_count(monkeypatch, pools, cpus):
    count = 1_000_000  # 15 slices
    rng = np.random.default_rng(5)
    record = HomodyneRecord(eta=0.85, thetas=np.repeat(np.pi * np.arange(10) / 10, count // 10),
                            xs=rng.normal(0.0, 1.3, count), seed=3)
    grid = BinGrid(-8.0, 8.0, 16_000)
    expected = shift_and_histogram(record, 0.4, -0.2, grid) if cpus > 1 else None
    _allow_cpus(monkeypatch, cpus)
    hist, peak = _traced_peak(shift_and_histogram, record, 0.4, -0.2, grid)
    assert hist.total + hist.overflow == count
    assert peak <= 4e6
    assert pools == []
    if expected is not None:
        assert np.array_equal(hist.counts, expected.counts)


@pytest.mark.parametrize("cpus", CPU_COUNTS)
def test_tabulation_error_reaches_the_caller_unchanged(monkeypatch, cpus):
    # phase 3's table cannot hold its density, after phases 0-2 went to workers
    density = homodyne._phase_density
    thetas = np.pi * np.arange(6) / 6

    def vanishing_at_phase_3(harmonics, theta):
        return density(harmonics, theta) * (theta != thetas[3])

    monkeypatch.setattr(homodyne, "_phase_density", vanishing_at_phase_3)
    state = coherent_state(0.5, 12)
    _allow_cpus(monkeypatch, 1)
    with pytest.raises(TabulationRangeError) as one:
        sample_homodyne(state, 6, 20_000, 0.9, 5)
    _allow_cpus(monkeypatch, cpus)
    before = threading.active_count()
    with pytest.raises(TabulationRangeError) as many:
        sample_homodyne(state, 6, 20_000, 0.9, 5)
    assert str(many.value) == str(one.value)
    assert "still outside" in str(many.value)
    assert threading.active_count() == before


def _fail_in_worker(monkeypatch, owner, name, raised):
    """Make ``owner.name`` raise MemoryError when a worker thread calls it."""
    original = getattr(owner, name)

    def failing(*args, **kwargs):
        if _in_worker():
            raised.append(threading.current_thread().name)
            raise MemoryError("Unable to allocate 1.00 MiB for an array")
        return original(*args, **kwargs)

    monkeypatch.setattr(owner, name, failing)


def test_memory_error_in_a_sampling_worker_exits_5(monkeypatch, tmp_path, capsys):
    raised = []
    _fail_in_worker(monkeypatch, np, "interp", raised)
    for cpus in (1, 2):  # one CPU draws on a pool of one thread too
        _allow_cpus(monkeypatch, cpus)
        raised.clear()
        before = threading.active_count()
        rc = main(["simulate", "--state", "vacuum", "--phases", "4", "--events", "1000",
                   "--eta", "0.9", "--seed", "3", "--out", str(tmp_path / "rec.txt")])
        assert rc == 5
        err = capsys.readouterr().err.splitlines()
        assert err == ["error: guard: Unable to allocate 1.00 MiB for an array"]
        assert raised  # the error did come from a worker thread
        assert threading.active_count() == before
        assert not (tmp_path / "rec.txt").exists()
