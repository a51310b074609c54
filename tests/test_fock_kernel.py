import os

import numpy as np
import pytest
from scipy.special import eval_hermite, gammaln

from emtomo import (
    BinGrid,
    ColumnDeficitError,
    CutoffTooLargeError,
    FileFormatError,
    Histogram,
    ValidationError,
    build_kernel_matrix,
    fock_wavefunctions,
    load_kernel,
    load_or_build_kernel,
    lossy_fock_quadrature_density,
    save_kernel,
)
from .reference_routes import (
    gauss_legendre_bin_integrals,
    lossy_fock_quadrature_density_convolution,
)


def hermite_route(n, x):
    # textbook formula, with the log-normalization pulled through gammaln
    log_norm = -0.5 * (n * np.log(2.0) + gammaln(n + 1.0)) - 0.25 * np.log(np.pi)
    return np.exp(log_norm - 0.5 * x * x) * eval_hermite(n, x)


def test_wavefunction_ground_state_value():
    assert fock_wavefunctions(0, 0.0)[0] == pytest.approx(np.pi ** -0.25, abs=1e-15)
    assert lossy_fock_quadrature_density(0, 0.0, 1.0) == pytest.approx(
        1.0 / np.sqrt(np.pi), abs=1e-15
    )


def test_wavefunction_matches_hermite_formula():
    x = np.linspace(-5.0, 5.0, 41)
    psi = fock_wavefunctions(25, x)
    for n in range(0, 26, 5):
        assert np.max(np.abs(psi[n] - hermite_route(n, x))) < 1e-10


def test_orthonormality_under_quadrature():
    t, w = np.polynomial.legendre.leggauss(200)
    x = 12.0 * t
    psi = fock_wavefunctions(20, x)
    gram = 12.0 * (psi * w) @ psi.T
    assert np.max(np.abs(gram - np.eye(21))) < 1e-10


def test_wavefunction_large_n_stays_finite():
    x = np.linspace(-50.0, 50.0, 101)
    vals = fock_wavefunctions(1000, x)
    assert np.all(np.isfinite(vals))
    assert np.max(np.abs(vals)) < 1.0


def test_wavefunction_guards():
    with pytest.raises(CutoffTooLargeError):
        fock_wavefunctions(10_001, 0.0)
    with pytest.raises(ValidationError):
        fock_wavefunctions(-1, 0.0)
    with pytest.raises(ValidationError):
        fock_wavefunctions(3, np.inf)
    with pytest.raises(ValidationError):
        fock_wavefunctions(2.5, 0.0)


def test_lossy_density_routes_agree():
    x = np.linspace(-6.0, 6.0, 61)
    for eta in (0.5, 0.9, 1.0):
        for n in (0, 1, 5, 12):
            a = lossy_fock_quadrature_density(n, x, eta)
            b = lossy_fock_quadrature_density_convolution(n, x, eta)
            assert np.max(np.abs(a - b)) < 1e-9


def test_lossy_density_reduces_to_ideal_at_unit_efficiency():
    x = np.linspace(-4.0, 4.0, 33)
    psi = fock_wavefunctions(7, x)[7]
    assert np.array_equal(lossy_fock_quadrature_density(7, x, 1.0), psi**2)


def test_lossy_density_even_in_x_exactly():
    x = np.linspace(0.1, 6.0, 40)
    for n in (1, 4, 9):
        left = lossy_fock_quadrature_density(n, -x, 0.9)
        right = lossy_fock_quadrature_density(n, x, 0.9)
        assert np.array_equal(left, right)
        left = lossy_fock_quadrature_density_convolution(n, -x, 0.7)
        right = lossy_fock_quadrature_density_convolution(n, x, 0.7)
        assert np.array_equal(left, right)


def test_lossy_density_nonnegative_and_normalized():
    grid = BinGrid(-10.0, 10.0, 1000)
    kernel = build_kernel_matrix(grid, 15, 0.8)
    assert np.all(kernel.entries >= 0.0)
    assert np.max(np.abs(kernel.column_deficits)) < 1e-9


def test_bin_grid_basics():
    grid = BinGrid(-2.0, 2.0, 8)
    assert grid.width == pytest.approx(0.5)
    assert grid.edges[0] == -2.0 and grid.edges[-1] == 2.0
    hist = Histogram.from_samples(grid, [-2.0, -1.99, 0.0, 1.99, 2.0, 2.1, -3.0])
    assert list(hist.counts) == [2, 0, 0, 0, 1, 0, 0, 2]
    assert hist.overflow == 2
    # symmetric grids mirror bit-exactly
    assert np.array_equal(grid.centers, -grid.centers[::-1])
    with pytest.raises(ValidationError):
        BinGrid(1.0, -1.0, 10)
    with pytest.raises(ValidationError):
        BinGrid(-1.0, 1.0, 0)


def test_bin_indices_clamp_to_last_bin_and_send_nan_out():
    grid = BinGrid(-8.0, 8.0, 16_000)
    below = np.nextafter(8.0, -np.inf)
    hist = Histogram.from_samples(grid, [below, 8.0, np.nan, np.inf])
    assert hist.counts[15_999] == 2 and hist.total == 2
    assert hist.overflow == 2


def test_kernel_mirror_symmetry_is_exact():
    grid = BinGrid(-7.0, 7.0, 350)
    kernel = build_kernel_matrix(grid, 12, 0.85)
    assert np.array_equal(kernel.entries, kernel.entries[::-1])


@pytest.mark.parametrize("x_min, x_max, bins, n_max", [
    (-7.0, 7.0, 140, 10),  # coarse bins
    (-6.0, 6.0, 121, 20),  # odd bin count: the middle bin straddles 0
    (-3.0, 5.0, 333, 15),  # asymmetric range
], ids=["coarse", "straddle", "asymmetric"])
def test_kernel_closed_form_matches_quadrature(x_min, x_max, bins, n_max):
    grid = BinGrid(x_min, x_max, bins)
    kernel = build_kernel_matrix(grid, n_max, 0.9, max_column_deficit=None)
    reference = gauss_legendre_bin_integrals(grid.edges, n_max, 0.9)
    assert np.max(np.abs(kernel.entries - reference)) < 1e-11
    assert np.all(kernel.entries >= 0.0)


def test_kernel_column_deficit_guard():
    grid = BinGrid(-2.0, 2.0, 200)
    with pytest.raises(ColumnDeficitError):
        build_kernel_matrix(grid, 30, 0.9)
    kernel = build_kernel_matrix(grid, 30, 0.9, max_column_deficit=None)
    assert kernel.column_deficits[30] > 0.5


def test_kernel_clipped_range_deficits_pinned():
    # The n=39, eta=0.9 kernel on [-8, 8]: the highest columns extend past
    # the binned range (support radius sqrt(79) > 8), so their integrals
    # fall measurably short of 1.
    grid = BinGrid(-8.0, 8.0, 16000)
    kernel = build_kernel_matrix(grid, 39, 0.9, max_column_deficit=None)
    deficits = kernel.column_deficits
    assert deficits[20] == pytest.approx(5.777e-8, rel=5e-3)
    assert deficits[39] == pytest.approx(0.19086, abs=5e-4)
    assert np.all(np.diff(deficits[20:]) > 0)


def test_kernel_validation():
    with pytest.raises(ValidationError):
        build_kernel_matrix(BinGrid(-5.0, 5.0, 100), 5, 0.0)
    with pytest.raises(ValidationError):
        build_kernel_matrix(BinGrid(-5.0, 5.0, 100), 5, 1.2)


def test_kernel_cache_round_trip(tmp_path):
    path = os.fspath(tmp_path / "kernel.bin")
    grid = BinGrid(-6.0, 6.0, 300)
    kernel = build_kernel_matrix(grid, 8, 0.75)
    save_kernel(path, kernel)
    loaded = load_kernel(path)
    assert loaded.grid == kernel.grid
    assert loaded.n_max == kernel.n_max
    assert loaded.eta == kernel.eta
    assert np.array_equal(loaded.entries, kernel.entries)
    assert np.array_equal(loaded.column_deficits, kernel.column_deficits)


def test_kernel_cache_hit_and_key_mismatch(tmp_path):
    path = os.fspath(tmp_path / "kernel.bin")
    grid = BinGrid(-6.0, 6.0, 120)
    kernel = build_kernel_matrix(grid, 5, 0.9)
    save_kernel(path, kernel)
    # poison one entry on disk; a true cache hit returns the poisoned value
    data = bytearray(open(path, "rb").read())
    data[64:72] = np.array([123.5], dtype="<f8").tobytes()
    open(path, "wb").write(bytes(data))
    hit = load_or_build_kernel(path, grid, 5, 0.9)
    assert hit.entries[0, 0] == 123.5
    # a different key ignores the cache and overwrites it
    rebuilt = load_or_build_kernel(path, grid, 6, 0.9)
    assert rebuilt.n_max == 6
    assert load_kernel(path).n_max == 6


def test_kernel_cache_hit_keeps_column_deficit_guard(tmp_path):
    path = os.fspath(tmp_path / "clipped.bin")
    grid = BinGrid(-2.0, 2.0, 200)
    built = load_or_build_kernel(path, grid, 30, 0.9, max_column_deficit=None)
    assert built.column_deficits[30] > 0.5
    with pytest.raises(ColumnDeficitError):
        load_or_build_kernel(path, grid, 30, 0.9, max_column_deficit=1e-6)
    with pytest.raises(ColumnDeficitError):
        load_or_build_kernel(path, grid, 30, 0.9)
    hit = load_or_build_kernel(path, grid, 30, 0.9, max_column_deficit=None)
    assert np.array_equal(hit.entries, built.entries)


def test_kernel_cache_rejects_malformed_files(tmp_path):
    short = os.fspath(tmp_path / "short.bin")
    open(short, "wb").write(b"EMTKERN1")
    with pytest.raises(FileFormatError):
        load_kernel(short)
    wrong = os.fspath(tmp_path / "wrong.bin")
    open(wrong, "wb").write(b"NOTAKERN" + b"\x00" * 100)
    with pytest.raises(FileFormatError):
        load_kernel(wrong)
    grid = BinGrid(-6.0, 6.0, 60)
    kernel = build_kernel_matrix(grid, 3, 1.0)
    truncated = os.fspath(tmp_path / "trunc.bin")
    save_kernel(truncated, kernel)
    blob = open(truncated, "rb").read()
    open(truncated, "wb").write(blob[:-16])
    with pytest.raises(FileFormatError):
        load_kernel(truncated)


@pytest.mark.parametrize("corrupt", [
    lambda blob: blob[:16] + np.array([np.nan], dtype="<f8").tobytes() + blob[24:],
    lambda blob: blob[:-3],
], ids=["nan-x-min", "partial-entry"])
def test_corrupt_kernel_cache_is_rebuilt(tmp_path, corrupt):
    path = os.fspath(tmp_path / "kernel.bin")
    grid = BinGrid(-6.0, 6.0, 60)
    kernel = build_kernel_matrix(grid, 3, 0.9)
    save_kernel(path, kernel)
    with open(path, "rb") as fh:
        blob = fh.read()
    with open(path, "wb") as fh:
        fh.write(corrupt(blob))
    with pytest.raises(FileFormatError):
        load_kernel(path)
    rebuilt = load_or_build_kernel(path, grid, 3, 0.9)
    assert np.array_equal(rebuilt.entries, kernel.entries)
    assert np.array_equal(load_kernel(path).entries, kernel.entries)
