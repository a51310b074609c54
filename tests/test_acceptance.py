"""Acceptance gates for the toolkit.

Each test prints one ``criterion N PASS/FAIL`` line with the measured
numbers (the lines end up in the pytest summary), then asserts every clause
of that criterion, including a wall-clock budget.  Criterion 6 repeats the
full-size figure run and is opt-in via EMTOMO_RUN_SLOW=1 because it takes
several minutes.
"""

import os
import time

import numpy as np
import pytest
from scipy.stats import poisson

from emtomo import (
    BinGrid,
    ReconstructionConfig,
    build_kernel_matrix,
    cat_state,
    coherent_state,
    compare_wigner_grids,
    displaced_photon_distribution,
    oracle_wigner_grid,
    reconstruct_photon_distribution,
    reconstruct_wigner_grid,
    sample_homodyne,
    shift_and_histogram,
    vacuum_state,
    wigner_exact,
    wigner_from_distribution,
)
from emtomo.fock_kernel import lossy_fock_quadrature_density

from .reference_routes import (
    lossy_fock_mass_outside,
    lossy_fock_quadrature_density_convolution,
    wigner_by_fock_kernels,
)
from .test_em import em_step, log_likelihood

ONE_OVER_PI = 1.0 / np.pi


def _report(tag: str, ok: bool, detail: str) -> None:
    print(f"criterion {tag} {'PASS' if ok else 'FAIL'}  {detail}")


def test_criterion_1_em_correctness():
    t0 = time.perf_counter()
    rng = np.random.default_rng(20240814)
    worst_drop = 0.0
    worst_fixed = 0.0
    for _ in range(100):
        bins = int(rng.integers(5, 51))
        dim = int(rng.integers(2, 12))
        a = rng.random((bins, dim)) + 0.05
        a /= a.sum(axis=0)
        truth = rng.random(dim) + 0.01
        truth /= truth.sum()
        p = a @ truth + 2e-3 * rng.standard_normal(bins)
        p = np.maximum(p, 0.0)
        p /= p.sum()
        rho = np.full(dim, 1.0 / dim)
        ll = log_likelihood(p, a, rho)
        for _ in range(150):
            rho = em_step(p, a, rho)
            ll_next = log_likelihood(p, a, rho)
            worst_drop = min(worst_drop, ll_next - ll)
            ll = ll_next
        exact = a @ truth
        exact /= exact.sum()
        stepped = em_step(exact, a, truth)
        worst_fixed = max(worst_fixed, float(np.max(np.abs(stepped - truth))))
    # noise-free inversion through an actual homodyne kernel
    worst_inv = 0.0
    grid = BinGrid(-7.0, 7.0, 50)
    truth = np.array([0.3, 0.25, 0.18, 0.12, 0.08, 0.05, 0.02])
    for eta in (1.0, 0.9):
        kernel = build_kernel_matrix(grid, 6, eta)
        p = kernel.entries @ truth
        p /= p.sum()
        rho = np.full(7, 1.0 / 7)
        for _ in range(10_000):
            rho = em_step(p, kernel.entries, rho)
        worst_inv = max(worst_inv, float(np.max(np.abs(rho - truth))))
    elapsed = time.perf_counter() - t0
    ok = worst_drop > -1e-10 and worst_fixed < 1e-12 and worst_inv < 1e-4 \
        and elapsed < 30.0
    _report("1", ok,
            f"em correctness: worst likelihood step {worst_drop:+.2e} "
            f"(slack 1e-10), fixed-point drift {worst_fixed:.2e} (<= 1e-12), "
            f"noise-free inversion {worst_inv:.2e} (<= 1e-4), {elapsed:.1f} s")
    assert worst_drop > -1e-10
    assert worst_fixed < 1e-12
    assert worst_inv < 1e-4
    assert elapsed < 30.0


def test_criterion_2_kernel_route_equivalence():
    t0 = time.perf_counter()
    xs = np.linspace(-10.0, 10.0, 2_001)
    worst = 0.0
    for eta in (0.5, 0.9):
        for n in range(21):
            direct = lossy_fock_quadrature_density(n, xs, eta)
            convolved = lossy_fock_quadrature_density_convolution(n, xs, eta)
            worst = max(worst, float(np.max(np.abs(direct - convolved))))
    elapsed = time.perf_counter() - t0
    ok = worst < 1e-9 and elapsed < 60.0
    _report("2 (route equivalence)", ok,
            f"binomial mixture vs convolution, n <= 20, eta in (0.5, 0.9): "
            f"max gap {worst:.2e} (<= 1e-9), {elapsed:.1f} s")
    assert worst < 1e-9
    assert elapsed < 60.0


def test_criterion_2_kernel_column_sums():
    # Columns must carry exactly the mass the lossy density puts inside
    # [-8, 8].  From n = 18 on that mass is measurably below 1 (the n = 39
    # column leaves about 0.191 outside), so the 1e-9 deficit bound applies
    # as such only to columns whose exact out-of-window mass is below it.
    t0 = time.perf_counter()
    kernel = build_kernel_matrix(BinGrid(-8.0, 8.0, 16_000), 39, 0.9,
                                 max_column_deficit=None)
    deficits = kernel.column_deficits
    elapsed = time.perf_counter() - t0
    exact = lossy_fock_mass_outside(39, 0.9, 8.0)
    gaps = np.abs(deficits - exact)
    worst_col = int(np.argmax(gaps))
    contained = exact <= 1e-9
    worst_contained = float(deficits[contained].max())
    ok = gaps[worst_col] <= 1e-9 and worst_contained <= 1e-9 and elapsed < 60.0
    _report("2 (column sums)", ok,
            f"column sums on [-8, 8], n <= 39, eta = 0.9: worst gap to exact "
            f"out-of-window mass {gaps[worst_col]:.2e} at n = {worst_col} "
            f"(<= 1e-9), exact mass at n = 39 {exact[39]:.6g}; worst deficit "
            f"{worst_contained:.3g} over the {int(contained.sum())} columns "
            f"with exact mass <= 1e-9 (<= 1e-9), {elapsed:.1f} s")
    assert gaps[worst_col] <= 1e-9, (
        f"column n = {worst_col} has deficit {deficits[worst_col]:.12g} but "
        f"the lossy density leaves {exact[worst_col]:.12g} outside [-8, 8] "
        f"(gap {gaps[worst_col]:.3g} > 1e-9; exact mass at n = 39 is "
        f"{exact[39]:.12g})"
    )
    assert worst_contained <= 1e-9
    assert elapsed < 60.0


def test_criterion_3_oracle_consistency():
    t0 = time.perf_counter()
    worst_routes = 0.0
    for state, half in ((coherent_state(1.0, 18), 2.0),
                        (cat_state(1.5j, np.pi, 26), 3.0)):
        for q in np.linspace(-half, half, 5):
            for p in np.linspace(-half, half, 5):
                alternating = wigner_exact(state, float(q), float(p), 60)
                kernel_route = wigner_by_fock_kernels(state.rho, float(q), float(p))
                worst_routes = max(worst_routes, abs(alternating - kernel_route))
    origin_err = abs(wigner_exact(vacuum_state(), 0.0, 0.0, 30) - ONE_OVER_PI)
    worst_poisson = 0.0
    for q, p in [(0.7, -0.4), (1.5, 0.9), (2.0, 2.0)]:
        dist, _ = displaced_photon_distribution(vacuum_state(), q, p, 40)
        ref = poisson.pmf(np.arange(41), 0.5 * (q * q + p * p))
        worst_poisson = max(worst_poisson, float(np.max(np.abs(dist.probs - ref))))
    elapsed = time.perf_counter() - t0
    ok = worst_routes < 1e-8 and origin_err < 1e-10 and worst_poisson < 1e-10 \
        and elapsed < 30.0
    _report("3", ok,
            f"oracle consistency: wigner routes {worst_routes:.2e} (<= 1e-8), "
            f"vacuum origin {origin_err:.2e} (<= 1e-10), displaced poisson "
            f"{worst_poisson:.2e} (<= 1e-10), {elapsed:.1f} s")
    assert worst_routes < 1e-8
    assert origin_err < 1e-10
    assert worst_poisson < 1e-10
    assert elapsed < 30.0


def test_criterion_4_calibration_run():
    t0 = time.perf_counter()
    record = sample_homodyne(coherent_state(1.0, 18), 16, 20_000, 0.85, 20240814)
    grid = BinGrid(-8.0, 8.0, 16_000)
    kernel = build_kernel_matrix(grid, 10, 0.85)
    hist = shift_and_histogram(record, np.sqrt(2.0), 0.0, grid)
    dist, _ = reconstruct_photon_distribution(hist, kernel, max_iter=2_000)
    rho_0 = float(dist.probs[0])
    w_center = wigner_from_distribution(dist.probs)
    w_err = abs(w_center - ONE_OVER_PI)
    elapsed = time.perf_counter() - t0
    ok = rho_0 >= 0.95 and w_err < 0.02 and elapsed < 120.0
    _report("4", ok,
            f"calibration run, coherent(1) at eta 0.85: rho_0 {rho_0:.4f} "
            f"(>= 0.95), center wigner error {w_err:.2e} (< 0.02), "
            f"{elapsed:.1f} s")
    assert rho_0 >= 0.95
    assert w_err < 0.02
    assert elapsed < 120.0


def test_criterion_5_cat_negativity():
    t0 = time.perf_counter()
    state = cat_state(1.5j, np.pi, 26)
    record = sample_homodyne(state, 16, 10_000, 0.9, 777)
    # cutoff sized for the farthest scan corner plus the state's own spread
    radius = np.sqrt(32.0) + np.sqrt(2.0) * 1.5 + 1.0
    config = ReconstructionConfig(
        eta=0.9, x_min=-13.0, x_max=13.0, bin_count=2_600,
        localization_radius=radius, max_iter=2_000,
        q_min=-4.0, q_max=4.0, q_steps=21, p_min=-4.0, p_max=4.0, p_steps=21,
    )
    assert config.resolve_cutoff() == 39
    recon = reconstruct_wigner_grid(record, config)
    exact = oracle_wigner_grid(state, recon.qs, recon.ps, 70)
    norms = compare_wigner_grids(recon, exact)
    w00 = float(recon.values[10, 10])
    origin_err = abs(w00 + ONE_OVER_PI)
    elapsed = time.perf_counter() - t0
    ok = origin_err < 0.05 and norms["rms"] <= 0.03 \
        and norms["compared_points"] == 441 and elapsed < 600.0
    _report("5", ok,
            f"cat negativity: W(0,0) {w00:.4f} vs -1/pi (error {origin_err:.2e} "
            f"< 0.05), 21x21 rms {norms['rms']:.4f} (<= 0.03), "
            f"{norms['compared_points']}/441 points, {elapsed:.0f} s")
    assert origin_err < 0.05
    assert norms["rms"] <= 0.03
    assert norms["compared_points"] == 441
    assert elapsed < 600.0


@pytest.mark.skipif(not os.environ.get("EMTOMO_RUN_SLOW"),
                    reason="multi-minute full-size run; set EMTOMO_RUN_SLOW=1")
def test_criterion_6_full_figure_reproduction():
    t0 = time.perf_counter()
    state = cat_state(2.0j, np.pi, 36)
    record = sample_homodyne(state, 64, 100_000, 0.9, 20240814)
    config = ReconstructionConfig(
        eta=0.9, x_min=-8.0, x_max=8.0, bin_count=16_000, n_max=39,
        max_iter=10_000, max_column_deficit=None,
        q_min=-2.0, q_max=2.0, q_steps=9, p_min=-3.5, p_max=3.5, p_steps=15,
    )
    recon = reconstruct_wigner_grid(record, config)
    exact = oracle_wigner_grid(state, recon.qs, recon.ps, 75)
    assert not recon.failures and not exact.failures
    # two positive lobes near (0, +-2 sqrt(2))
    lobes_ok = recon.values[4, 13] > 0.0 and recon.values[4, 1] > 0.0
    # interference fringes alternate along the q axis through the origin
    central = recon.values[:, 7]
    flips = int(np.sum(np.sign(central[1:]) != np.sign(central[:-1])))
    strong = np.abs(exact.values) > 0.05
    matches = np.sign(recon.values[strong]) == np.sign(exact.values[strong])
    elapsed = time.perf_counter() - t0
    ok = lobes_ok and flips >= 4 and bool(matches.all())
    _report("6", ok,
            f"full-size cat run: lobes positive {lobes_ok}, {flips} sign flips "
            f"along the central row, sign agreement {int(matches.sum())}/"
            f"{int(strong.sum())} strong points, {elapsed:.0f} s")
    assert lobes_ok
    assert flips >= 4
    assert matches.all()
