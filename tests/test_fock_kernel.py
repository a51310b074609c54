import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from scipy.special import eval_hermite, gammaln
from scipy.stats import binom

import emtomo

from emtomo import (
    BinGrid,
    ColumnDeficitError,
    CutoffTooLargeError,
    FileFormatError,
    Histogram,
    KernelMatrix,
    ValidationError,
    build_kernel_matrix,
    fock_wavefunctions,
    load_kernel,
    load_or_build_kernel,
    lossy_fock_quadrature_density,
    save_kernel,
)
from emtomo.fock_kernel import _binomial_mixture_matrix
from .reference_routes import (
    gauss_legendre_bin_integrals,
    lossy_fock_quadrature_density_convolution,
    mirror_rows,
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


@pytest.mark.parametrize("n_max, eta", [(39, 0.9), (10, 0.85), (70, 0.5)])
def test_binomial_mixture_matches_binomial_pmf(n_max, eta):
    ns = np.arange(n_max + 1)
    reference = binom.pmf(ns[None, :], ns[:, None], eta)
    mixture = _binomial_mixture_matrix(n_max, eta)
    assert np.array_equal(mixture == 0.0, reference == 0.0)
    upper = reference > 0.0
    assert np.max(np.abs(mixture[upper] / reference[upper] - 1.0)) < 1e-13


def test_binomial_mixture_is_the_identity_at_unit_efficiency():
    assert np.array_equal(_binomial_mixture_matrix(30, 1.0), np.eye(31))


def test_import_leaves_scipy_stats_unloaded():
    # scipy.stats takes most of a cold import's time, and nothing needs it
    src = os.fspath(Path(emtomo.__file__).parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    code = "import sys, emtomo; print(sorted(m for m in sys.modules if m.startswith('scipy.stats')))"
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True,
                         check=True, timeout=120).stdout
    assert out.strip() == "[]"


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
    assert grid.rows == 4
    # bins of x hold [2, 0, 0, 0, 1, 0, 0, 2]; the bins of |x| fold them
    samples = np.array([-2.0, -1.99, 0.0, 1.99, 2.0, 2.1, -3.0])
    hist = Histogram(grid, *grid.counts_in_place(samples))
    assert list(hist.counts) == [1, 0, 0, 4]
    assert hist.overflow == 2
    # symmetric grids mirror bit-exactly
    centers = 0.5 * (grid.edges[:-1] + grid.edges[1:])
    assert np.array_equal(centers, -centers[::-1])
    with pytest.raises(ValidationError):
        BinGrid(1.0, -1.0, 10)
    with pytest.raises(ValidationError):
        BinGrid(-1.0, 1.0, 0)
    # a bin count that is not an integer is refused, not truncated
    for count in (2.7, np.float64(9.9), True, "10"):
        with pytest.raises(ValidationError, match="^bin_count must be an integer"):
            BinGrid(-1.0, 1.0, count)
    grid = BinGrid(-1.0, 1.0, np.int32(10))
    assert grid.bin_count == 10 and type(grid.bin_count) is int


def test_asymmetric_grid_rejected():
    # only a symmetric grid can bin |x|
    with pytest.raises(ValidationError, match="symmetric"):
        BinGrid(-6.0, 7.0, 130)


def test_bin_indices_clamp_to_last_bin_and_send_nan_out():
    grid = BinGrid(-8.0, 8.0, 16_000)
    below = np.nextafter(8.0, -np.inf)
    hist = Histogram(grid, *grid.counts_in_place(np.array([below, 8.0, np.nan, np.inf])))
    assert hist.counts[-1] == 2 and hist.total == 2
    assert hist.overflow == 2


# Dyadic grids, so every edge is exact: the even grid's bins are 0.5 wide and
# the odd grid's 1 wide, its middle bin [-0.5, 0.5].  Each maps the inner
# edges of |x| to the row that an edge opens and the row of the double just
# below it.  On the odd grid, 0.5 - 2**-54 joins the edge's row: adding 1/2
# gives the tie 1 - 2**-54, which rounds to 1.0.
EDGE_GRIDS = {
    "even": (BinGrid(-2.0, 2.0, 8), {0.5: (1, 0), 1.0: (2, 1), 1.5: (3, 2)}),
    "odd": (BinGrid(-2.5, 2.5, 5), {0.5: (1, 1), 1.5: (2, 1)}),
}


def _binned(grid, samples):
    """Counts and overflow of ``samples``, which never lose or invent a sample."""
    buf = np.array(samples, dtype=float)
    counts, overflow = grid.counts_in_place(buf)
    assert counts.size == grid.rows and np.all(counts >= 0)
    assert counts.sum() + overflow == len(samples)
    return counts, overflow


def _row(grid, x):
    counts, overflow = _binned(grid, [x])
    return None if overflow else int(np.flatnonzero(counts)[0])


@pytest.mark.parametrize("parity", list(EDGE_GRIDS))
def test_abs_x_bins_hold_the_range_ends_in_the_last_row(parity):
    grid, _ = EDGE_GRIDS[parity]
    for end in (grid.x_max, -grid.x_max):
        assert _row(grid, end) == grid.rows - 1
        assert _row(grid, np.nextafter(end, 0.0)) == grid.rows - 1
        assert _row(grid, np.nextafter(end, 2.0 * end)) is None


@pytest.mark.parametrize("parity", list(EDGE_GRIDS))
def test_abs_x_bins_open_a_row_at_each_mirror_edge(parity):
    grid, opens = EDGE_GRIDS[parity]
    assert _row(grid, 0.0) == _row(grid, -0.0) == 0
    samples, rows = [0.0, -0.0], [0, 0]
    for edge, (row, below_row) in opens.items():
        for x in (edge, -edge):
            below = np.nextafter(x, 0.0)
            assert _row(grid, x) == row
            assert _row(grid, np.nextafter(x, 2.0 * x)) == row
            assert _row(grid, below) == below_row
            assert _row(grid, np.nextafter(below, 0.0)) == row - 1
            samples += [x, np.nextafter(x, 2.0 * x), below, np.nextafter(below, 0.0)]
            rows += [row, row, below_row, row - 1]
    # binned together, they land where they land one at a time
    counts, overflow = _binned(grid, samples)
    assert np.array_equal(counts, np.bincount(rows, minlength=grid.rows)) and overflow == 0


@pytest.mark.parametrize("parity", list(EDGE_GRIDS))
def test_abs_x_bins_count_nan_and_inf_as_overflow(parity):
    grid, _ = EDGE_GRIDS[parity]
    for x in (np.nan, np.inf, -np.inf):
        assert _row(grid, x) is None
    counts, overflow = _binned(grid, [np.nan, 0.25, np.inf, -grid.x_max, -np.inf, -0.25])
    assert overflow == 3
    assert counts[0] == 2 and counts[-1] == 1 and counts.sum() == 3


@pytest.mark.parametrize("parity", list(EDGE_GRIDS))
def test_abs_x_bins_of_an_empty_buffer(parity):
    grid, _ = EDGE_GRIDS[parity]
    counts, overflow = _binned(grid, [])
    assert not counts.any() and overflow == 0


# -1e308 scales past the largest double, to inf, and numpy warns of that
@pytest.mark.filterwarnings("ignore:overflow encountered in multiply:RuntimeWarning")
@pytest.mark.parametrize("parity", list(EDGE_GRIDS))
def test_abs_x_bins_of_a_buffer_entirely_outside(parity):
    grid, _ = EDGE_GRIDS[parity]
    past = np.nextafter(grid.x_max, np.inf)
    counts, overflow = _binned(grid, [past, -past, 3.0, -1e308, np.nan, np.inf, -np.inf])
    assert not counts.any() and overflow == 7


@pytest.mark.parametrize("x_max, bins, n_max", [
    (7.0, 140, 10),  # coarse bins
    (6.0, 121, 20),  # odd bin count: the middle bin straddles 0
], ids=["coarse", "straddle"])
def test_kernel_closed_form_matches_quadrature(x_max, bins, n_max):
    grid = BinGrid(-x_max, x_max, bins)
    kernel = build_kernel_matrix(grid, n_max, 0.9, max_column_deficit=None)
    reference = gauss_legendre_bin_integrals(grid.edges, n_max, 0.9)
    assert np.max(np.abs(kernel.entries - reference[bins // 2:])) < 1e-11
    # the rows of |x| stand for all bins: the deficits count each lower bin once
    assert np.max(np.abs(kernel.column_deficits - (1.0 - reference.sum(axis=0)))) < 1e-10
    assert np.all(kernel.entries >= 0.0)


def test_kernel_column_deficit_guard():
    grid = BinGrid(-2.0, 2.0, 200)
    with pytest.raises(ColumnDeficitError):
        build_kernel_matrix(grid, 30, 0.9)
    kernel = build_kernel_matrix(grid, 30, 0.9, max_column_deficit=None)
    assert kernel.column_deficits[30] > 0.5
    # a NaN bound would pass every column, a negative one none
    for bound in (float("nan"), -1.0):
        with pytest.raises(ValidationError, match="max_column_deficit must be >= 0"):
            build_kernel_matrix(grid, 30, 0.9, max_column_deficit=bound)


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
    with pytest.raises(ValidationError, match="efficiency must be a number, got True"):
        build_kernel_matrix(BinGrid(-5.0, 5.0, 100), 3, True)
    kernel = build_kernel_matrix(BinGrid(-5.0, 5.0, 100), 3, 0.9)
    with pytest.raises(ValidationError, match=r"shape \(50, 3\) != \(50, 4\)"):
        KernelMatrix(grid=kernel.grid, n_max=3, eta=0.9, entries=kernel.entries[:, :3])


@pytest.mark.parametrize("bad", [-1e-300, np.nan, np.inf])
def test_kernel_entries_must_be_finite_and_nonnegative(bad):
    kernel = build_kernel_matrix(BinGrid(-6.0, 6.0, 60), 3, 0.9)
    entries = kernel.entries.copy()
    entries[5, 2] = bad
    with pytest.raises(ValidationError, match="finite and nonnegative"):
        KernelMatrix(grid=kernel.grid, n_max=3, eta=0.9, entries=entries)


def test_kernel_build_clamps_bin_integrals_rounded_below_zero():
    # near the zeros of psi_n a bin of width 1e-6 holds less than the
    # rounding of the tails it is the difference of, which can go below zero
    kernel = build_kernel_matrix(BinGrid(-0.01, 0.01, 20_000), 20, 1.0, max_column_deficit=None)
    assert kernel.entries.min() == 0.0


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
    data = bytearray(Path(path).read_bytes())
    data[64:72] = np.array([123.5], dtype="<f8").tobytes()
    Path(path).write_bytes(bytes(data))
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
    Path(short).write_bytes(b"EMTKERN1")
    with pytest.raises(FileFormatError):
        load_kernel(short)
    wrong = os.fspath(tmp_path / "wrong.bin")
    Path(wrong).write_bytes(b"NOTAKERN" + b"\x00" * 100)
    with pytest.raises(FileFormatError):
        load_kernel(wrong)
    grid = BinGrid(-6.0, 6.0, 60)
    kernel = build_kernel_matrix(grid, 3, 1.0)
    truncated = os.fspath(tmp_path / "trunc.bin")
    save_kernel(truncated, kernel)
    blob = Path(truncated).read_bytes()
    Path(truncated).write_bytes(blob[:-16])
    with pytest.raises(FileFormatError):
        load_kernel(truncated)
    negative = os.fspath(tmp_path / "negative.bin")  # header n_max -1, at bytes 40-47
    Path(negative).write_bytes(blob[:40] + (-1).to_bytes(8, "little", signed=True) + blob[48:])
    with pytest.raises(FileFormatError, match="invalid kernel dimensions 30 x 0"):
        load_kernel(negative)


def _as_version_1(blob):
    """The 60-bin, n_max 3 kernel below in the version-1 layout, which held all 60 rows."""
    rows = np.frombuffer(blob[64:], dtype="<f8").reshape(30, 4)
    return blob[:8] + (1).to_bytes(4, "little") + blob[12:64] + mirror_rows(rows, 60).tobytes()


@pytest.mark.parametrize("corrupt", [
    lambda blob: blob[:16] + np.array([np.nan], dtype="<f8").tobytes() + blob[24:],
    lambda blob: blob[:-3],
    _as_version_1,
    lambda blob: blob[:64] + np.array([-0.5], dtype="<f8").tobytes() + blob[72:],
    lambda blob: blob[:-8] + np.array([np.nan], dtype="<f8").tobytes(),
], ids=["nan-x-min", "partial-entry", "version-1", "negative-entry", "nan-entry"])
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
