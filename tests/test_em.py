import math
import warnings

import numpy as np
import pytest

from emtomo import (
    BinGrid,
    EmptyHistogramError,
    Histogram,
    KernelMatrix,
    ModelZeroError,
    PhotonDistribution,
    ValidationError,
    build_kernel_matrix,
    cat_state,
    default_cutoff,
    reconstruct_photon_distribution,
    sample_homodyne,
    shift_and_histogram,
)
from emtomo.em import _em_iterate, _log_likelihood

from .reference_routes import mirror_rows


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
    hist = Histogram(grid, *grid.counts_in_place(np.array([-2.0, -0.9, -0.1, 0.1, 0.6, 1.0, 5.0])))
    # bins of x hold [1, 1, 1, 2]; bins of |x| hold [1 + 1, 2 + 1]
    assert list(hist.counts) == [2, 3]
    assert hist.overflow == 2
    assert hist.total == 5


def test_histogram_from_samples_counts_nan_as_overflow():
    grid = BinGrid(-1.0, 1.0, 4)
    samples = np.array([np.nan, 0.1, np.inf, -np.inf, 1.0])
    hist = Histogram(grid, *grid.counts_in_place(samples.copy()))
    assert list(hist.counts) == [1, 1]
    assert hist.overflow == 3


def test_histogram_validation():
    grid = BinGrid(-1.0, 1.0, 3)
    # three bins of x make two bins of |x|
    with pytest.raises(ValidationError):
        Histogram(grid, np.array([1, 2, 3]))
    with pytest.raises(ValidationError):
        Histogram(grid, np.array([1, -2]))
    empty = Histogram(grid, np.zeros(2, dtype=int))
    kernel = build_kernel_matrix(grid, 0, 1.0, max_column_deficit=None)
    with pytest.raises(EmptyHistogramError):
        reconstruct_photon_distribution(empty, kernel, max_iter=1)
    with pytest.raises(ValidationError, match="^max_iter must be >= 1, got 0$"):
        reconstruct_photon_distribution(empty, kernel, max_iter=0)


def test_photon_distribution_validation():
    PhotonDistribution(np.array([0.25, 0.75]))
    with pytest.raises(ValidationError):
        PhotonDistribution(np.array([0.5, 0.6]))
    with pytest.raises(ValidationError):
        PhotonDistribution(np.array([1.2, -0.2]))
    with pytest.raises(ValidationError, match="nonempty vector"):
        PhotonDistribution([])
    with pytest.raises(ValidationError, match="non-finite entries"):
        PhotonDistribution([np.nan, 1.0])
    # the tolerance is adjustable for sub-normalized truncations
    PhotonDistribution(np.array([0.5, 0.49999999]), atol=1e-7)
    assert np.arange(2) @ PhotonDistribution(np.array([0.5, 0.5])).probs == pytest.approx(0.5)


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
    with pytest.raises(ModelZeroError, match="model density vanishes"):
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
    with pytest.raises(ModelZeroError, match="model density vanishes"):
        em_step(p, a, rho)
    # no bin with counts: nothing supports rho
    with pytest.raises(ModelZeroError, match="update annihilated"):
        em_step(np.zeros(30), a, np.full(7, 1.0 / 7))


def test_window_of_updates_matches_single_updates_bitwise():
    rng = np.random.default_rng(15)
    a, _truth, p = random_instance(rng, 60, 9, noise=0.02)
    a = np.asfortranarray(a)
    one, window = np.full(9, 1.0 / 9), np.full(9, 1.0 / 9)
    one_model, window_model = np.empty(60), np.empty(60)
    worst = max(_em_iterate(a, p, one, one_model, np.empty(9)) for _ in range(37))
    assert _em_iterate(a, p, window, window_model, np.empty(9), count=37) == worst
    assert np.array_equal(window, one)
    assert np.array_equal(window_model, one_model)


# Both kernels pass the initial log-likelihood, so the first update fails.
@pytest.mark.parametrize("rows, message", [
    # p / model overflows on the second bin: the sum is inf
    ([[1.0, 1.0], [1e-310, 1e-310]], "model density vanishes on a bin with observed counts"),
    # p / model overflows where the other level has no entry: the sum is NaN
    ([[1.0, 0.0], [0.0, 1e-320]], "update annihilated the distribution"),
], ids=["vanishing-model", "annihilating-update"])
def test_failed_update_keeps_its_message(rows, message):
    grid = BinGrid(-1.0, 1.0, 4)
    kernel = KernelMatrix(grid=grid, n_max=1, eta=1.0, entries=np.array(rows))
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # the failing arithmetic warns nowhere
        with pytest.raises(ModelZeroError, match=message):
            reconstruct_photon_distribution(Histogram(grid, np.array([1, 1])), kernel, max_iter=50)


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
    hist = Histogram(grid, *grid.counts_in_place(rng.normal(0.0, 0.8, size=20_000)))
    dist, diag = reconstruct_photon_distribution(hist, kernel, max_iter=250)
    assert diag.iterations_run == 250
    assert diag.stop_reason == "max-iterations"
    assert dist.probs.sum() == pytest.approx(1.0, abs=1e-12)
    assert np.all(np.diff(diag.loglik_trace) > -1e-10)


def test_reconstruct_plateau_stopping():
    grid = BinGrid(-6.0, 6.0, 240)
    kernel = build_kernel_matrix(grid, 4, 0.9)
    rng = np.random.default_rng(4)
    hist = Histogram(grid, *grid.counts_in_place(rng.normal(0.0, 0.8, size=20_000)))
    dist, diag = reconstruct_photon_distribution(
        hist, kernel, max_iter=50_000, plateau_tol=1e-9
    )
    assert diag.stop_reason == "plateau"
    assert diag.iterations_run < 50_000
    assert diag.iterations_run % 100 == 0


def test_reconstruct_trace_cadence_and_table():
    grid = BinGrid(-6.0, 6.0, 120)
    kernel = build_kernel_matrix(grid, 3, 1.0)
    samples = np.random.default_rng(8).normal(0.0, 0.75, size=5_000)
    hist = Histogram(grid, *grid.counts_in_place(samples.copy()))
    dist, diag = reconstruct_photon_distribution(hist, kernel, max_iter=120)
    assert list(diag.trace_iterations) == [0, 100, 120]
    assert diag.final_loglik == diag.loglik_trace[-1]
    # the trace runs the one log-likelihood evaluator, on the 60 bins of |x|
    assert diag.final_loglik == log_likelihood(hist.counts / hist.total, kernel.entries,
                                               dist.probs)
    # which equals the likelihood over all 120 bins up to rounding
    counts = np.histogram(samples, bins=120, range=(-6.0, 6.0))[0]
    assert diag.final_loglik == pytest.approx(
        log_likelihood(counts / hist.total, mirror_rows(kernel.entries, 120), dist.probs),
        rel=0, abs=1e-14,
    )


def test_renormalization_removes_only_rounding():
    # criterion 5's record on the [-8, 8] window, whose n_max 39 columns lose
    # up to 19% of their mass past the grid edge: the update keeps the
    # iterate's sum whatever the columns lose, so dividing by the sum
    # corrects rounding alone
    record = sample_homodyne(cat_state(1.5j, np.pi, 26), 16, 10_000, 0.9, 777)
    kernel = build_kernel_matrix(BinGrid(-8.0, 8.0, 1_600), 39, 0.9, max_column_deficit=None)
    assert kernel.column_deficits.max() > 0.15
    for q, p in [(0.0, 0.0), (1.2, -1.2), (-4.0, 0.0)]:
        hist = shift_and_histogram(record, q, p, kernel.grid)
        _dist, diag = reconstruct_photon_distribution(hist, kernel, max_iter=2_000)
        assert diag.iterations_run == 2_000
        assert diag.renorm_correction <= 1e-14, (q, p)


def test_reconstruct_flat_start_zero_counts_everywhere_but_center():
    # all observed mass in the central bins: likelihood still climbs and the
    # result leans heavily on the vacuum column
    grid = BinGrid(-5.0, 5.0, 100)
    kernel = build_kernel_matrix(grid, 3, 1.0)
    counts = np.zeros(50, dtype=int)
    counts[:2] = 1000  # bins 48 to 51 of x
    hist = Histogram(grid, counts)
    dist, _diag = reconstruct_photon_distribution(hist, kernel, max_iter=400)
    assert dist.probs[0] > 0.5


def test_grid_mismatch_rejected():
    kernel = build_kernel_matrix(BinGrid(-5.0, 5.0, 100), 3, 1.0)
    hist = Histogram(BinGrid(-4.0, 4.0, 100), np.ones(50, dtype=int))
    with pytest.raises(ValidationError):
        reconstruct_photon_distribution(hist, kernel, max_iter=10)
