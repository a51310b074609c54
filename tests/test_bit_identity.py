"""The fast EM iterate and the grouped shift against their plain references.

Flushing subnormal EM entries and evaluating the shift once per run of equal
phases must not move a Wigner value, a log-likelihood or a histogram count
by a single bit.  The references in ``reference_routes`` restate the plain
arithmetic without either shortcut.
"""

import numpy as np
import pytest

from emtomo import (
    BinGrid,
    HomodyneRecord,
    build_kernel_matrix,
    cat_state,
    default_cutoff,
    reconstruct_photon_distribution,
    reconstruct_wigner_point,
    sample_homodyne,
    shift_and_histogram,
)
from emtomo import homodyne

from .reference_routes import em_unflushed, shifted_histogram_per_sample

TINY = np.finfo(float).tiny


@pytest.fixture(scope="module")
def cat_record():
    # criterion 5's record: odd cat(1.5i), 16 phases x 10k events, eta 0.9
    return sample_homodyne(cat_state(1.5j, np.pi, 26), 16, 10_000, 0.9, 777)


@pytest.fixture(scope="module")
def cat_kernel():
    radius = np.sqrt(32.0) + np.sqrt(2.0) * 1.5 + 1.0
    return build_kernel_matrix(BinGrid(-13.0, 13.0, 2_600), default_cutoff(radius), 0.9)


@pytest.mark.parametrize("q, p", [(0.0, 0.0), (0.0, 1.2), (1.2, -1.2)])
def test_flushed_em_matches_unflushed_loop_bitwise(cat_record, cat_kernel, q, p):
    hist = shift_and_histogram(cat_record, q, p, cat_kernel.grid)
    rho, loglik = em_unflushed(hist.counts, cat_kernel.entries, 2_000)
    # the unflushed loop does reach subnormal entries at these points
    assert np.any((rho > 0.0) & (rho < TINY))
    dist, _diag = reconstruct_photon_distribution(hist, cat_kernel, max_iter=2_000)
    assert not np.any((dist.probs > 0.0) & (dist.probs < TINY))
    normal = rho >= TINY
    assert np.array_equal(dist.probs[normal], rho[normal])
    assert np.all(dist.probs[~normal] == 0.0)
    w, point = reconstruct_wigner_point(cat_record, q, p, cat_kernel, max_iter=2_000)
    parity = (-1.0) ** np.arange(rho.size)
    assert w == float(parity @ rho) / np.pi
    assert point.final_loglik == loglik


def _assert_same_histogram(record, q, p, grid):
    hist = shift_and_histogram(record, q, p, grid)
    counts, overflow = shifted_histogram_per_sample(
        record.thetas, record.xs, record.eta, q, p,
        grid.x_min, grid.x_max, grid.bin_count,
    )
    assert np.array_equal(hist.counts, counts)
    assert hist.overflow == overflow
    return overflow


def test_grouped_shift_matches_per_sample_histogram(cat_record):
    grid = BinGrid(-8.0, 8.0, 16_000)
    overflows = [_assert_same_histogram(cat_record, q, p, grid)
                 for q, p in [(0.0, 0.0), (1.2, -1.2), (-3.7, 2.9), (7.5, 0.5)]]
    assert overflows[0] == 0 and overflows[-1] > 0


@pytest.mark.parametrize("run_length", [1, 2])
def test_per_sample_phases_match_per_sample_histogram(run_length):
    # run length 1 takes the per-sample route, 2 the shortest grouped one
    rng = np.random.default_rng(4321)
    record = HomodyneRecord(
        eta=0.8, thetas=np.repeat(rng.uniform(0.0, np.pi, 50_000 // run_length), run_length),
        xs=rng.normal(0.0, 2.0, 50_000), seed=0,
    )
    grid = BinGrid(-6.0, 6.0, 1_200)
    overflows = [_assert_same_histogram(record, q, p, grid)
                 for q, p in [(0.0, 0.0), (0.7, -1.3), (-2.5, 2.5)]]
    assert all(o > 0 for o in overflows)


def _slice_records():
    rng = np.random.default_rng(2468)

    def record(thetas):
        return HomodyneRecord(eta=0.85, thetas=thetas,
                              xs=rng.normal(0.0, 2.0, thetas.size), seed=0)

    def runs(count, length):
        return np.repeat(rng.uniform(0.0, np.pi, count), length)

    per_sample = rng.uniform(0.0, np.pi, 1_000)
    return {
        # with 1000-sample slices: runs of 700 cross every slice edge
        "straddling-runs": record(runs(10, 700)),
        "shorter-than-a-slice": record(runs(3, 200)),
        "last-partial-slice": record(runs(7, 617)),
        "per-sample-phases": record(rng.uniform(0.0, np.pi, 3_500)),
        # slices 0 and 2 grouped, 1 and 3 per sample, 4 a grouped remainder
        "mixed-routes": record(np.concatenate(
            [runs(4, 250), per_sample, runs(2, 500), per_sample[::-1], runs(1, 321)])),
    }


@pytest.mark.parametrize("name", list(_slice_records()))
def test_sliced_histogram_matches_per_sample_histogram(monkeypatch, name):
    record = _slice_records()[name]
    monkeypatch.setattr(homodyne, "_SLICE", 1_000)
    grid = BinGrid(-6.0, 6.0, 1_200)
    overflows = [_assert_same_histogram(record, q, p, grid)
                 for q, p in [(0.0, 0.0), (0.7, -1.3), (-2.5, 2.5), (5.5, 5.0)]]
    # the last two points push samples off the grid
    assert overflows[-2] > 0 and overflows[-1] > 0
