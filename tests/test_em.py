import math

import numpy as np
import pytest

from emtomo import (
    BinGrid,
    EmptyHistogramError,
    Histogram,
    ModelZeroError,
    PhotonDistribution,
    ValidationError,
    build_kernel_matrix,
    default_cutoff,
    reconstruct_photon_distribution,
)
from emtomo.em import _em_iterate, _log_likelihood


def em_step(p, a, rho):
    """One EM update of ``rho`` (left as it is) by the iterate the pipeline runs."""
    p, a = np.asarray(p, dtype=float), np.asarray(a, dtype=float)
    active = p > 0
    a_act = a[active]
    new = np.array(rho, dtype=float)
    _em_iterate(a_act, p[active], new, np.empty(a_act.shape[0]), np.empty(new.size))
    return new


def log_likelihood(p, a, rho):
    """L = sum_nu p_nu ln (A rho)_nu with the 0 ln 0 convention."""
    p, a = np.asarray(p, dtype=float), np.asarray(a, dtype=float)
    active = p > 0
    return _log_likelihood(a[active], p[active], np.asarray(rho, dtype=float))


def random_instance(rng, bins, dim, noise=0.0):
    """Column-substochastic kernel plus frequencies from a random truth."""
    a = rng.random((bins, dim)) + 0.05
    a /= a.sum(axis=0)
    truth = rng.random(dim) + 0.01
    truth /= truth.sum()
    p = a @ truth
    if noise:
        p = np.maximum(p + noise * rng.standard_normal(bins), 0.0)
    p /= p.sum()
    return a, truth, p


def test_default_cutoff_examples():
    assert default_cutoff(4.0) == 8
    assert default_cutoff(8.9) == 40
    assert default_cutoff(math.sqrt(2.0)) == 1
    assert default_cutoff(3.0) == 5
    with pytest.raises(ValidationError):
        default_cutoff(0.0)
    with pytest.raises(ValidationError):
        default_cutoff(float("inf"))


def test_histogram_from_samples_counts_and_overflow():
    grid = BinGrid(-1.0, 1.0, 4)
    hist = Histogram.from_samples(grid, [-2.0, -0.9, -0.1, 0.1, 0.6, 1.0, 5.0])
    assert list(hist.counts) == [1, 1, 1, 2]
    assert hist.overflow == 2
    assert hist.total == 5


def test_histogram_from_samples_counts_nan_as_overflow():
    grid = BinGrid(-1.0, 1.0, 4)
    samples = np.array([np.nan, 0.1, np.inf, -np.inf, 1.0])
    hist = Histogram.from_samples(grid, samples)
    assert list(hist.counts) == [0, 0, 1, 1]
    assert hist.overflow == 3
    # the caller's samples are left as they were
    assert np.isnan(samples[0]) and samples[1] == 0.1


def test_histogram_validation():
    grid = BinGrid(-1.0, 1.0, 3)
    with pytest.raises(ValidationError):
        Histogram(grid, np.array([1, 2]))
    with pytest.raises(ValidationError):
        Histogram(grid, np.array([1, -2, 0]))
    empty = Histogram(grid, np.zeros(3, dtype=int))
    kernel = build_kernel_matrix(grid, 0, 1.0, max_column_deficit=None)
    with pytest.raises(EmptyHistogramError):
        reconstruct_photon_distribution(empty, kernel, max_iter=1)


def test_photon_distribution_validation():
    PhotonDistribution(np.array([0.25, 0.75]))
    with pytest.raises(ValidationError):
        PhotonDistribution(np.array([0.5, 0.6]))
    with pytest.raises(ValidationError):
        PhotonDistribution(np.array([1.2, -0.2]))
    # the tolerance is adjustable for sub-normalized truncations
    PhotonDistribution(np.array([0.5, 0.49999999]), atol=1e-7)
    assert PhotonDistribution(np.array([0.5, 0.5])).mean() == pytest.approx(0.5)


def test_log_likelihood_value_and_zero_count_convention():
    p = np.array([0.5, 0.5])
    a = np.array([[0.6, 0.2], [0.4, 0.8]])
    rho = np.array([0.5, 0.5])
    expected = 0.5 * np.log(0.4) + 0.5 * np.log(0.6)
    assert log_likelihood(p, a, rho) == pytest.approx(expected, abs=1e-15)
    # a zero-frequency bin contributes nothing, even with zero model density
    p = np.array([1.0, 0.0])
    a = np.array([[1.0, 0.5], [0.0, 0.5]])
    rho = np.array([1.0, 0.0])
    assert log_likelihood(p, a, rho) == 0.0


def test_model_zero_detection():
    p = np.array([0.5, 0.5])
    a = np.array([[1.0, 1.0], [0.0, 0.0]])
    rho = np.array([0.5, 0.5])
    with pytest.raises(ModelZeroError):
        log_likelihood(p, a, rho)
    with pytest.raises(ModelZeroError):
        em_step(p, a, rho)


def test_em_step_monotone_likelihood_randomized():
    rng = np.random.default_rng(20240814)
    worst = 0.0
    for _ in range(60):
        bins = int(rng.integers(5, 40))
        dim = int(rng.integers(2, 12))
        a, _truth, p = random_instance(rng, bins, dim, noise=0.02)
        rho = np.full(dim, 1.0 / dim)
        prev = log_likelihood(p, a, rho)
        for _ in range(150):
            rho = em_step(p, a, rho)
            cur = log_likelihood(p, a, rho)
            worst = min(worst, cur - prev)
            prev = cur
    assert worst > -1e-10


def test_em_step_conserves_total_before_renormalization():
    rng = np.random.default_rng(11)
    a, _truth, p = random_instance(rng, 25, 6)
    rho = rng.random(6)
    rho /= rho.sum()
    raw = rho * (a.T @ (p / (a @ rho)))
    assert raw.sum() == pytest.approx(1.0, abs=1e-12)


def test_em_step_keeps_zeros_and_simplex():
    rng = np.random.default_rng(5)
    a, _truth, p = random_instance(rng, 30, 7)
    rho = np.full(7, 1.0 / 6)
    rho[3] = 0.0
    out = em_step(p, a, rho)
    assert out[3] == 0.0
    assert np.all(out >= 0.0)
    assert out.sum() == pytest.approx(1.0, abs=1e-12)


def test_em_step_flushes_subnormal_entries_and_rejects_nan_model():
    rng = np.random.default_rng(6)
    a, _truth, p = random_instance(rng, 30, 7)
    rho = np.full(7, 1.0 / 6)
    rho[3] = 1e-310  # subnormal: stays below the smallest normal after one step
    out = em_step(p, a, rho)
    assert out[3] == 0.0
    assert np.all(out[np.arange(7) != 3] > 0.0)
    rho[3] = np.nan
    with pytest.raises(ModelZeroError):
        em_step(p, a, rho)
    # no bin with counts: nothing supports rho
    with pytest.raises(ModelZeroError):
        em_step(np.zeros(30), a, np.full(7, 1.0 / 7))


def test_log_likelihood_rejects_nan_model():
    with pytest.raises(ModelZeroError):
        log_likelihood([0.5, 0.5], [[0.5, 0.5], [0.5, 0.5]], [np.nan, 1.0])


def test_em_exact_model_is_fixed_point():
    rng = np.random.default_rng(99)
    for _ in range(20):
        a, truth, _p = random_instance(rng, 30, 8)
        p = a @ truth
        p /= p.sum()
        out = em_step(p, a, truth)
        assert np.max(np.abs(out - truth)) < 1e-12


def test_noise_free_inversion_recovers_truth():
    # exact homodyne-kernel frequencies, no sampling noise: EM must
    # converge back to the generating distribution
    grid = BinGrid(-7.0, 7.0, 700)
    for eta in (1.0, 0.9):
        kernel = build_kernel_matrix(grid, 6, eta)
        truth = np.array([0.3, 0.25, 0.18, 0.12, 0.08, 0.05, 0.02])
        p = kernel.entries @ truth
        p /= p.sum()
        rho = np.full(7, 1.0 / 7)
        for _ in range(10_000):
            rho = em_step(p, kernel.entries, rho)
        assert np.max(np.abs(rho - truth)) < 1e-4


def test_reconstruct_fixed_iteration_mode():
    grid = BinGrid(-6.0, 6.0, 240)
    kernel = build_kernel_matrix(grid, 4, 0.9)
    rng = np.random.default_rng(3)
    hist = Histogram.from_samples(grid, rng.normal(0.0, 0.8, size=20_000))
    dist, diag = reconstruct_photon_distribution(hist, kernel, max_iter=250)
    assert diag.iterations_run == 250
    assert diag.stop_reason == "max-iterations"
    assert dist.probs.sum() == pytest.approx(1.0, abs=1e-12)
    assert np.all(np.diff(diag.loglik_trace) > -1e-10)


def test_reconstruct_plateau_stopping():
    grid = BinGrid(-6.0, 6.0, 240)
    kernel = build_kernel_matrix(grid, 4, 0.9)
    rng = np.random.default_rng(4)
    hist = Histogram.from_samples(grid, rng.normal(0.0, 0.8, size=20_000))
    dist, diag = reconstruct_photon_distribution(
        hist, kernel, max_iter=50_000, plateau_tol=1e-9
    )
    assert diag.stop_reason == "plateau"
    assert diag.iterations_run < 50_000
    assert diag.iterations_run % 100 == 0


def test_reconstruct_trace_cadence_and_table():
    grid = BinGrid(-6.0, 6.0, 120)
    kernel = build_kernel_matrix(grid, 3, 1.0)
    rng = np.random.default_rng(8)
    hist = Histogram.from_samples(grid, rng.normal(0.0, 0.75, size=5_000))
    dist, diag = reconstruct_photon_distribution(hist, kernel, max_iter=120)
    assert list(diag.trace_iterations) == [0, 100, 120]
    assert diag.final_loglik == diag.loglik_trace[-1]
    # the trace runs the one log-likelihood evaluator, on the 60 folded bins
    folded = (hist.counts[60:] + hist.counts[59::-1]) / hist.total
    assert diag.final_loglik == log_likelihood(folded, kernel.entries[60:], dist.probs)
    # which the fold leaves unchanged up to rounding
    assert diag.final_loglik == pytest.approx(
        log_likelihood(hist.counts / hist.total, kernel.entries, dist.probs), rel=0, abs=1e-14
    )


def test_reconstruct_flat_start_zero_counts_everywhere_but_center():
    # all observed mass in the central bins: likelihood still climbs and the
    # result leans heavily on the vacuum column
    grid = BinGrid(-5.0, 5.0, 100)
    kernel = build_kernel_matrix(grid, 3, 1.0)
    counts = np.zeros(100, dtype=int)
    counts[48:52] = 500
    hist = Histogram(grid, counts)
    dist, _diag = reconstruct_photon_distribution(hist, kernel, max_iter=400)
    assert dist.probs[0] > 0.5


def test_grid_mismatch_rejected():
    kernel = build_kernel_matrix(BinGrid(-5.0, 5.0, 100), 3, 1.0)
    hist = Histogram(BinGrid(-4.0, 4.0, 100), np.ones(100, dtype=int))
    with pytest.raises(ValidationError):
        reconstruct_photon_distribution(hist, kernel, max_iter=10)


def test_asymmetric_grid_rejected():
    # EM folds mirror bins together, which needs x_min = -x_max
    grid = BinGrid(-6.0, 7.0, 130)
    kernel = build_kernel_matrix(grid, 3, 1.0)
    hist = Histogram(grid, np.ones(130, dtype=int))
    with pytest.raises(ValidationError, match="symmetric"):
        reconstruct_photon_distribution(hist, kernel, max_iter=10)
