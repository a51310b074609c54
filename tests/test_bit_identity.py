"""The fast EM iterate, the grouped shift and the sorted inverse-CDF lookup
against their plain references.

Flushing subnormal EM entries and evaluating the shift once per run of equal
phases must not move a Wigner value, a log-likelihood or a histogram count
by a single bit, and looking a phase's draws up in sorted order must not
move a sample.  EM on the bins of |x| rather than x only reorders sums, so
it must keep W and rho within 1e-13 of the iteration on all bins and stop a
plateau run on the same iteration.  Binning |x| with one spill row must give
the counts of per-sample range tests on |x|.  The references in
``reference_routes`` restate the plain arithmetic without any of these
shortcuts.
"""

import numpy as np
import pytest

from emtomo import (
    BinGrid,
    Histogram,
    HomodyneRecord,
    build_kernel_matrix,
    cat_state,
    coherent_state,
    default_cutoff,
    reconstruct_photon_distribution,
    sample_homodyne,
    shift_and_histogram,
)
from emtomo import homodyne

from .grid_point import reconstruct_point
from .reference_routes import (
    draws_in_draw_order,
    em_unflushed,
    mirror_rows,
    shifted_histogram_per_sample,
    shifted_per_sample,
)

TINY = np.finfo(float).tiny


@pytest.fixture(scope="module")
def cat_record():
    # criterion 5's record: odd cat(1.5i), 16 phases x 10k events, eta 0.9
    return sample_homodyne(cat_state(1.5j, np.pi, 26), 16, 10_000, 0.9, 777)


CAT_RADIUS = np.sqrt(32.0) + np.sqrt(2.0) * 1.5 + 1.0
CRITERION_5_POINTS = [(0.0, 0.0), (0.0, 1.2), (1.2, -1.2)]


@pytest.fixture(scope="module")
def cat_kernel():
    return build_kernel_matrix(BinGrid(-13.0, 13.0, 2_600), default_cutoff(CAT_RADIUS), 0.9)


@pytest.mark.parametrize("q, p", CRITERION_5_POINTS)
def test_flushed_em_matches_unflushed_loop_bitwise(cat_record, cat_kernel, q, p):
    hist = shift_and_histogram(cat_record, q, p, cat_kernel.grid)
    # both loops run on the column-major rows of |x|, so the flush is all that differs
    rho, loglik, _ = em_unflushed(hist.counts, np.asfortranarray(cat_kernel.entries), 2_000)
    # the unflushed loop does reach subnormal entries at these points
    assert np.any((rho > 0.0) & (rho < TINY))
    dist, _diag = reconstruct_photon_distribution(hist, cat_kernel, max_iter=2_000)
    assert not np.any((dist.probs > 0.0) & (dist.probs < TINY))
    normal = rho >= TINY
    assert np.array_equal(dist.probs[normal], rho[normal])
    assert np.all(dist.probs[~normal] == 0.0)
    point = reconstruct_point(cat_record, q, p, cat_kernel, max_iter=2_000)
    parity = (-1.0) ** np.arange(rho.size)
    assert point.values[0, 0] == float(parity @ rho) / np.pi
    assert point.final_loglik[0, 0] == loglik


# criterion 5's grid and efficiency, an odd grid (its middle bin straddles 0
# and is its own mirror) and a lossless record and kernel
@pytest.mark.parametrize("bins, eta", [(2_600, 0.9), (2_599, 0.9), (2_600, 1.0)],
                         ids=["criterion-5", "odd-bins", "eta-1"])
def test_folded_em_matches_unfolded_iteration(cat_record, bins, eta):
    record = cat_record if eta == 0.9 else sample_homodyne(
        cat_state(1.5j, np.pi, 26), 16, 10_000, eta, 777)
    kernel = build_kernel_matrix(BinGrid(-13.0, 13.0, bins), default_cutoff(CAT_RADIUS), eta)
    rows = mirror_rows(kernel.entries, bins)
    parity = (-1.0) ** np.arange(kernel.n_max + 1)
    for q, p in CRITERION_5_POINTS:
        hist = shift_and_histogram(record, q, p, kernel.grid)
        counts = _counts_of_x(record, q, p, kernel.grid)
        rho, _, _ = em_unflushed(counts, rows, 2_000)
        dist, _diag = reconstruct_photon_distribution(hist, kernel, max_iter=2_000)
        assert np.max(np.abs(dist.probs - rho)) <= 1e-13
        point = reconstruct_point(record, q, p, kernel, max_iter=2_000)
        assert abs(point.values[0, 0] - float(parity @ rho) / np.pi) <= 1e-13


def test_folded_em_stops_a_plateau_run_on_the_unfolded_iteration():
    # calib-plateau's settings: a coherent state, 16000 bins, n_max 10
    record = sample_homodyne(coherent_state(1.0, 18), 64, 10_000, 0.85, 20240814)
    kernel = build_kernel_matrix(BinGrid(-8.0, 8.0, 16_000), 10, 0.85)
    rows = mirror_rows(kernel.entries, 16_000)
    for q in (0.0, np.sqrt(2.0), 2.0 * np.sqrt(2.0)):
        hist = shift_and_histogram(record, q, 0.0, kernel.grid)
        counts = _counts_of_x(record, q, 0.0, kernel.grid)
        rho, _, its = em_unflushed(counts, rows, 10_000, plateau_tol=1e-8)
        dist, diag = reconstruct_photon_distribution(hist, kernel, max_iter=10_000,
                                                     plateau_tol=1e-8)
        assert diag.stop_reason == "plateau"
        assert diag.iterations_run == its
        assert np.max(np.abs(dist.probs - rho)) <= 1e-13


def _counts_of_x(record, q, p, grid):
    """Counts of the per-sample shifted x in all bins of ``grid``."""
    x = shifted_per_sample(record.thetas, record.xs, record.eta, q, p)
    return np.histogram(x, bins=grid.bin_count, range=(grid.x_min, grid.x_max))[0]


def _assert_same_histogram(record, q, p, grid, **run_starts):
    hist = shift_and_histogram(record, q, p, grid, **run_starts)
    counts, overflow = shifted_histogram_per_sample(record.thetas, record.xs, record.eta, q, p,
                                                    grid.x_max, grid.bin_count)
    assert np.array_equal(hist.counts, counts)
    assert hist.overflow == overflow
    return overflow


@pytest.mark.parametrize("bins", [8, 7], ids=["even", "odd"])
def test_binned_counts_of_abs_x_fold_the_per_sample_counts(bins):
    grid = BinGrid(-2.0, 2.0, bins)
    half_middle = 0.5 * grid.width  # the odd grid's middle bin is [-half_middle, half_middle]
    edge_samples = [0.0, -0.0, 2.0, -2.0, np.nextafter(2.0, 0.0), np.nextafter(-2.0, 0.0),
                    half_middle, -half_middle, np.nextafter(half_middle, 0.0),
                    np.nextafter(-half_middle, 0.0), np.nextafter(half_middle, 1.0),
                    np.nextafter(-half_middle, -1.0), 2.5, -3.0, np.nan]
    samples = np.concatenate((edge_samples, np.random.default_rng(97).normal(0.0, 1.2, 5_000)))
    hist = Histogram(grid, *grid.counts_in_place(samples.copy()))
    counts, overflow = shifted_histogram_per_sample(
        np.zeros(samples.size), samples, 1.0, 0.0, 0.0, grid.x_max, bins)
    assert hist.counts.size == grid.rows == bins - bins // 2
    assert np.array_equal(hist.counts, counts)
    assert hist.overflow == overflow


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
    # runs found by each call, and runs a scan found once and passes in
    for run_starts in ({}, {"run_starts": homodyne._phase_run_starts(record.thetas)}):
        overflows = [_assert_same_histogram(record, q, p, grid, **run_starts)
                     for q, p in [(0.0, 0.0), (0.7, -1.3), (-2.5, 2.5), (5.5, 5.0)]]
        # the last two points push samples off the grid
        assert overflows[-2] > 0 and overflows[-1] > 0


def _tables():
    """CDF tables with zero-density stretches (clipped tails and a gap), so
    ``cdf`` repeats values at both ends and inside, at totals of exactly 1,
    a power of two and a sampler-like 1 - 3e-10."""
    grid = np.linspace(-4.0, 4.0, 801)
    dens = np.exp(-grid * grid) * (np.abs(grid) < 3.0) * (np.abs(grid - 0.5) > 0.25)
    cdf = np.concatenate(([0.0], np.cumsum(0.5 * (dens[:-1] + dens[1:]))))
    cdf /= cdf[-1]
    assert cdf[-1] == 1.0 and np.count_nonzero(np.diff(cdf) == 0.0) > 200
    return grid, [cdf, 0.5 * cdf, (1.0 - 3e-10) * cdf]


@pytest.mark.parametrize("draws", [200, 5_000], ids=["fewer-than-points", "more-than-points"])
def test_sorted_lookup_matches_draw_order_bitwise(draws):
    # np.interp precomputes its slopes only when the draws outnumber the points
    grid, cdfs = _tables()
    rng = np.random.default_rng(2024)
    for cdf in cdfs:
        # draws of 0 and 1 (scaled to the total) and duplicated draws
        u = np.concatenate((rng.random(draws), [0.0, 1.0, 0.0, 1.0],
                            np.repeat(rng.random(draws // 10), 3)))
        if cdf[-1] in (1.0, 0.5):
            # draws that scale exactly onto every 7th entry, repeated ones among them
            on_entries = cdf[::7] / cdf[-1]
            assert np.array_equal(on_entries * cdf[-1], cdf[::7])
            u = np.concatenate((u, on_entries))
        rng.shuffle(u)
        expected = draws_in_draw_order(u, cdf, grid)
        got = np.empty_like(u)
        homodyne._invert_table(u, cdf, grid, got)
        assert np.array_equal(got.view(np.int64), expected.view(np.int64))


@pytest.mark.parametrize("recipe", [
    (coherent_state(1.0, 18), 64, 2_000, 0.85, 20240814),
    (cat_state(1.5j, np.pi, 26), 16, 2_000, 0.9, 777),
], ids=["calib-plateau", "cat-scan"])
def test_sampled_record_matches_draw_order_lookup(monkeypatch, recipe):
    record = sample_homodyne(*recipe)
    calls = []

    def in_draw_order(u, cdf, grid, out):
        calls.append(u.size)
        out[:] = draws_in_draw_order(u, cdf, grid)

    monkeypatch.setattr(homodyne, "_invert_table", in_draw_order)
    reference = sample_homodyne(*recipe)
    assert calls == [recipe[2]] * recipe[1]
    assert np.array_equal(record.thetas, reference.thetas)
    assert np.array_equal(record.xs, reference.xs)
