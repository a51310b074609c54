import builtins
import os
import re
import tracemalloc

import numpy as np
import pytest
from scipy.special import erfc
from scipy.stats import binom, poisson

from emtomo import (
    BinGrid,
    CutoffTooLargeError,
    EmptyHistogramError,
    FileFormatError,
    Histogram,
    HomodyneRecord,
    StateSpec,
    TabulationRangeError,
    TruncationError,
    ValidationError,
    apply_loss_channel,
    build_kernel_matrix,
    cat_state,
    coherent_state,
    fock_state,
    load_record,
    lossy_fock_quadrature_density,
    quadrature_density,
    sample_homodyne,
    save_record_binary,
    save_record_text,
    shift_and_histogram,
    vacuum_state,
)
from emtomo import homodyne
from emtomo.homodyne import load_record_binary, load_record_text

from .reference_routes import (
    draws_in_draw_order,
    loss_channel_by_gammaln,
    quadrature_density_by_terms,
)
from .test_bit_identity import _tables


def random_state(rng, dim):
    b = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    rho = b @ b.conj().T
    rho /= np.trace(rho).real
    return StateSpec(dim, rho)


# ---------------------------------------------------------------- states


def test_coherent_state_poisson_diagonal():
    alpha = 0.8 + 0.4j
    st = coherent_state(alpha, 20)
    diag = np.real(np.diag(st.rho))
    expected = poisson.pmf(np.arange(20), abs(alpha) ** 2)
    assert np.max(np.abs(diag - expected)) < 1e-13
    # pure state
    assert np.trace(st.rho @ st.rho).real == pytest.approx(1.0, abs=1e-12)


def test_coherent_state_truncation_guard():
    with pytest.raises(TruncationError):
        coherent_state(2.0, 6)
    # the default dim, ceil(|alpha|^2 + 10 sqrt(|alpha|^2 + 1)) + 1, passes the guard
    for alpha, dim in ((0.5, 13), (1.0, 17), (2.0, 28), (3.0j, 42)):
        assert coherent_state(alpha).dim == dim


def test_fock_and_vacuum_states():
    st = fock_state(3, 6)
    assert np.real(np.diag(st.rho))[3] == 1.0
    assert fock_state(2).dim == 3
    with pytest.raises(TruncationError):
        fock_state(5, 4)
    assert np.real(np.diag(vacuum_state().rho))[0] == 1.0
    assert vacuum_state().dim == 1 and vacuum_state(4).dim == 4


@pytest.mark.parametrize("make", [
    vacuum_state, lambda dim: fock_state(0, dim), lambda dim: coherent_state(1.0, dim),
    lambda dim: cat_state(1.5j, np.pi, dim),
], ids=["vacuum", "fock", "coherent", "cat"])
@pytest.mark.parametrize("dim", [0, -1])
def test_state_dimension_below_one_refused(make, dim):
    with pytest.raises(ValidationError, match=f"^state dimension must be >= 1, got {dim}$"):
        make(dim)


def test_state_dimension_beyond_the_wavefunction_bound_refused(monkeypatch):
    def no_array(*args, **kwargs):
        raise AssertionError("a state array was built")

    monkeypatch.setattr(np, "zeros", no_array)
    # the top level of a 10002-level state is |10001>, past fock_kernel.MAX_FOCK_N
    for make in (lambda: fock_state(10001), lambda: vacuum_state(10002)):
        with pytest.raises(CutoffTooLargeError, match="^photon number 10001 exceeds"):
            make()


def test_odd_cat_occupies_only_odd_levels():
    st = cat_state(1.5j, np.pi, 26)
    diag = np.real(np.diag(st.rho))
    assert np.max(diag[::2]) < 1e-25
    assert diag[1::2].sum() == pytest.approx(1.0, abs=1e-12)
    even = np.real(np.diag(cat_state(1.5j, 0.0, 26).rho))
    assert np.max(even[1::2]) < 1e-25


@pytest.mark.parametrize("phase", [np.pi, -np.pi], ids=["pi", "-pi"])
@pytest.mark.parametrize("alpha, dim", [(1e-15, 4), (1e-8j, 4), (1.5j, 26)])
def test_odd_cat_even_levels_are_exactly_empty(alpha, dim, phase):
    # e^{i pi} rounds to -1 + 1.2e-16i; unless the even terms cancel exactly,
    # normalizing a tiny alpha's odd cat inflates that rounding in the vacuum
    rho = cat_state(alpha, phase, dim).rho
    assert np.all(rho[::2] == 0.0) and np.all(rho[:, ::2] == 0.0)


def test_cat_zero_amplitude_rejected():
    with pytest.raises(ValidationError, match=r"alpha=0 with relative_phase=pi has no content"):
        cat_state(0.0, np.pi, 8)


def test_state_spec_validation():
    good = np.array([[0.5, 0.1], [0.1, 0.5]], dtype=complex)
    StateSpec(2, good)
    with pytest.raises(ValidationError):
        StateSpec(2, np.array([[0.5, 0.2], [0.1, 0.5]], dtype=complex))  # not hermitian
    with pytest.raises(ValidationError):
        StateSpec(2, 2.0 * good)  # trace 2
    with pytest.raises(ValidationError):
        StateSpec(2, np.array([[1.5, 0.0], [0.0, -0.5]], dtype=complex))  # negative
    with pytest.raises(ValidationError):
        StateSpec(3, good)  # shape
    with pytest.raises(ValidationError, match="non-finite entries"):
        StateSpec(2, np.where(np.eye(2) == 1, good, np.nan))


# ---------------------------------------------------------------- loss


def test_loss_preserves_trace_and_positivity():
    rng = np.random.default_rng(17)
    for _ in range(10):
        st = random_state(rng, int(rng.integers(2, 12)))
        lossy = apply_loss_channel(st, float(rng.uniform(0.2, 1.0)))
        assert np.trace(lossy.rho).real == pytest.approx(1.0, abs=1e-12)
        assert np.min(np.linalg.eigvalsh(lossy.rho)) > -1e-12


def test_loss_on_vacuum_is_identity():
    vac = vacuum_state(4)
    lossy = apply_loss_channel(vac, 0.3)
    assert np.max(np.abs(lossy.rho - vac.rho)) < 1e-15


def test_loss_on_fock_gives_binomial_diagonal():
    st = fock_state(6, 7)
    lossy = apply_loss_channel(st, 0.85)
    expected = binom.pmf(np.arange(7), 6, 0.85)
    assert np.max(np.abs(np.real(np.diag(lossy.rho)) - expected)) < 1e-13


def test_loss_composition():
    rng = np.random.default_rng(7)
    st = random_state(rng, 10)
    twice = apply_loss_channel(apply_loss_channel(st, 0.9), 0.8)
    once = apply_loss_channel(st, 0.72)
    assert np.max(np.abs(twice.rho - once.rho)) < 1e-12


LOSS_STATES = pytest.mark.parametrize(
    "state", [cat_state(1.5j, np.pi, 26), coherent_state(3.0, 60)], ids=["cat", "coherent"])


@pytest.mark.parametrize("eta", [0.05, 0.5, 0.85, 0.9])
@LOSS_STATES
def test_loss_matches_gammaln_route(state, eta):
    lossy = apply_loss_channel(state, eta).rho
    assert np.max(np.abs(lossy - loss_channel_by_gammaln(state.rho, eta))) <= 1e-15


@LOSS_STATES
def test_loss_at_unit_efficiency_returns_rho(state):
    # equal entry for entry; a -0.0 of rho may come back as 0.0
    assert np.array_equal(apply_loss_channel(state, 1.0).rho, state.rho)


def test_loss_eta_validation():
    with pytest.raises(ValidationError):
        apply_loss_channel(vacuum_state(), 0.0)
    with pytest.raises(ValidationError):
        apply_loss_channel(vacuum_state(), 1.0001)


# ---------------------------------------------------------------- densities


def test_density_three_route_agreement_for_fock_state():
    x = np.linspace(-6.0, 6.0, 121)
    channel_route = quadrature_density(fock_state(5, 12), 0.3, x, eta=0.85)
    mixture_route = lossy_fock_quadrature_density(5, x, 0.85)
    assert np.max(np.abs(channel_route - mixture_route)) < 1e-12


def test_density_normalization_and_nonnegativity():
    x = np.linspace(-8.0, 8.0, 1601)
    st = cat_state(1.5j, np.pi, 26)
    for eta, theta in [(1.0, 0.0), (0.9, 0.7), (0.6, 2.2)]:
        h = quadrature_density(st, theta, x, eta)
        assert np.min(h) > -1e-12
        assert np.trapezoid(h, x) == pytest.approx(1.0, abs=1e-8)


def test_density_mean_follows_phase():
    eta = 0.81
    x = np.linspace(-8.0, 8.0, 1601)
    # a complex alpha makes rho complex, so the sign of the phase factor shows
    for alpha in (1.0, np.exp(1j * np.pi / 3)):
        st = coherent_state(alpha, 18)
        for theta in (0.0, np.pi / 3, 1.9):
            h = quadrature_density(st, theta, x, eta)
            mean = np.trapezoid(x * h, x)
            expected = np.sqrt(eta) * np.sqrt(2.0) * abs(alpha) * np.cos(theta - np.angle(alpha))
            assert mean == pytest.approx(expected, abs=1e-8)


@pytest.mark.parametrize("state, eta", [
    (cat_state(1.5j, np.pi, 26), 0.9),
    (coherent_state(1.1 - 0.8j, 20), 0.75),
], ids=["lossy-cat", "complex-coherent"])
@pytest.mark.parametrize("theta", [0.0, 0.7, np.pi / 2, 2.2, 3.1])
def test_density_matches_the_per_term_double_sum(state, eta, theta):
    x = np.linspace(-7.0, 7.0, 281)
    terms = quadrature_density_by_terms(state.rho, theta, x, eta)
    assert np.max(np.abs(terms.imag)) < 1e-13
    assert np.max(np.abs(quadrature_density(state, theta, x, eta) - terms.real)) < 1e-13


@pytest.mark.parametrize("dim", [1, 2, 9, 18])
@pytest.mark.parametrize("theta", [-np.pi, 0.0, 3.1, np.pi])
def test_harmonic_rows_match_the_per_term_double_sum_on_mixed_states(dim, theta):
    state = random_state(np.random.default_rng(dim), dim)
    x = np.linspace(-7.0, 7.0, 281)
    terms = quadrature_density_by_terms(state.rho, theta, x, 0.8)
    assert np.max(np.abs(terms.imag)) < 1e-13
    assert np.max(np.abs(quadrature_density(state, theta, x, 0.8) - terms.real)) < 1e-13


@pytest.mark.parametrize("theta", [np.nan, np.inf], ids=["nan", "inf"])
def test_density_refuses_a_non_finite_phase(theta):
    with pytest.raises(ValidationError, match=f"^phase theta must be finite, got {theta}$"):
        quadrature_density(vacuum_state(), theta, 0.0)


def test_vacuum_density_is_unit_variance_gaussian_scaled():
    x = np.linspace(-5.0, 5.0, 201)
    h = quadrature_density(vacuum_state(), 1.1, x, eta=0.77)
    assert np.max(np.abs(h - np.exp(-x * x) / np.sqrt(np.pi))) < 1e-12


# ---------------------------------------------------------------- sampling


def test_sampler_deterministic_and_seed_sensitive():
    st = coherent_state(1.0, 16)
    a = sample_homodyne(st, 3, 500, 0.9, 123)
    b = sample_homodyne(st, 3, 500, 0.9, 123)
    c = sample_homodyne(st, 3, 500, 0.9, 124)
    assert np.array_equal(a.xs, b.xs)
    assert not np.array_equal(a.xs, c.xs)


def test_sampler_per_phase_streams_are_stable():
    # adding more phases must not disturb the samples of existing ones
    st = vacuum_state()
    one = sample_homodyne(st, 1, 400, 0.8, 42)
    four = sample_homodyne(st, 4, 400, 0.8, 42)
    assert np.array_equal(one.xs, four.xs[:400])


def test_sampler_moments_match_lossy_state():
    st = fock_state(1, 4)
    eta = 0.8
    rec = sample_homodyne(st, 2, 100_000, eta, 777)
    # lossy single-photon quadrature variance is 1/2 + eta
    for j in range(2):
        xs = rec.xs[j * 100_000 : (j + 1) * 100_000]
        assert xs.mean() == pytest.approx(0.0, abs=0.02)
        assert xs.var() == pytest.approx(0.5 + eta, abs=0.03)


def test_sampler_histogram_close_to_exact_density():
    # total-variation distance between the empirical histogram and the
    # bin-integrated exact density, 1e6 vacuum samples over 200 bins
    grid = BinGrid(-6.0, 6.0, 200)
    rec = sample_homodyne(vacuum_state(), 4, 250_000, 1.0, 20240814)
    hist = Histogram(grid, *grid.counts_in_place(rec.xs.copy()))
    exact = build_kernel_matrix(grid, 0, 1.0).entries[:, 0]
    tv = 0.5 * np.sum(np.abs(hist.counts / hist.total - exact / exact.sum()))
    assert tv < 5e-3


def test_sampler_cdf_matches_exact_within_bins():
    # Kolmogorov-Smirnov distance of 200k vacuum samples to 0.5 erfc(-x),
    # which sees the shape inside any bin; 1.95/sqrt(n) is its 0.1% level
    n = 200_000
    xs = np.sort(sample_homodyne(vacuum_state(), 1, n, 1.0, 31).xs)
    cdf = 0.5 * erfc(-xs)
    ks = max(np.max(np.arange(1, n + 1) / n - cdf), np.max(cdf - np.arange(n) / n))
    assert ks < 1.95 / np.sqrt(n)


def test_sampler_widens_tabulation_range_when_needed(monkeypatch):
    st = coherent_state(1.5, 20)
    wide = sample_homodyne(st, 1, 20_000, 1.0, 9)
    monkeypatch.setattr(homodyne, "TAB_RANGE", 2.0)
    narrow = sample_homodyne(st, 1, 20_000, 1.0, 9)
    assert np.max(np.abs(narrow.xs)) > 2.0
    assert abs(narrow.xs.mean() - wide.xs.mean()) < 0.02


def test_sampler_gives_up_when_range_cannot_hold_density(monkeypatch):
    monkeypatch.setattr(homodyne, "TAB_RANGE", 0.01)
    with pytest.raises(TabulationRangeError):
        sample_homodyne(coherent_state(1.0, 16), 1, 10, 1.0, 1)


def test_bucketed_lookup_matches_draw_order_bitwise():
    # 300k draws put several in a typical one of the 65536 buckets; draws on
    # the bucket edges k/65536 and just below them, 0, the largest draw
    # below 1, and duplicates, in shuffled order, through tables with
    # zero-density stretches (clipped tails and a gap)
    grid, cdfs = _tables()
    rng = np.random.default_rng(65536)
    edges = np.arange(0, 65536, 97) / 65536.0
    u = np.concatenate((rng.random(300_000), edges, np.nextafter(edges[1:], 0.0),
                        [0.0, 0.0, 1.0 - 2.0 ** -53, 1.0 - 2.0 ** -53],
                        np.repeat(rng.random(2_000), 4)))
    rng.shuffle(u)
    assert np.median(np.bincount((u * 65536.0).astype(np.uint16), minlength=65536)) >= 4
    for cdf in cdfs:
        expected = draws_in_draw_order(u, cdf, grid)
        got = np.empty_like(u)
        homodyne._invert_table(u, cdf, grid, got)
        assert np.array_equal(got.view(np.int64), expected.view(np.int64))


def test_sampler_validation():
    st = vacuum_state()
    with pytest.raises(ValidationError):
        sample_homodyne(st, 0, 10, 1.0, 1)
    with pytest.raises(ValidationError):
        sample_homodyne(st, 1, 0, 1.0, 1)
    with pytest.raises(ValidationError):
        sample_homodyne(st, 1, 10, 0.0, 1)
    with pytest.raises(ValidationError, match="seed must be >= 0"):
        sample_homodyne(st, 1, 10, 1.0, -1)


# ---------------------------------------------------------------- shifting


def test_shift_subtracts_projected_displacement():
    record = HomodyneRecord(
        eta=0.81,
        thetas=np.array([0.0, np.pi]),
        xs=np.array([1.0, 1.0]),
        seed=0,
    )
    grid = BinGrid(-2.0, 2.0, 4)
    hist = shift_and_histogram(record, 1.0, 0.0, grid)
    # sqrt(eta) = 0.9, shifts are +0.9 and -0.9: samples land at 0.1 and 1.9
    assert list(hist.counts) == [1, 1]
    assert hist.overflow == 0
    # the p component projects through sin(theta); sin(pi/2) is exactly 1
    record = HomodyneRecord(
        eta=0.81, thetas=np.array([np.pi / 2]), xs=np.array([1.0]), seed=0,
    )
    hist = shift_and_histogram(record, 0.0, 1.0, grid)
    assert list(hist.counts) == [1, 0]


def test_shift_overflow_counted_and_empty_rejected():
    record = HomodyneRecord(
        eta=1.0,
        thetas=np.array([0.0, 0.0, 0.0]),
        xs=np.array([0.0, 0.1, 3.0]),
        seed=0,
    )
    grid = BinGrid(-1.0, 1.0, 10)
    hist = shift_and_histogram(record, 0.0, 0.0, grid)
    assert hist.overflow == 1
    assert hist.total == 2
    with pytest.raises(EmptyHistogramError):
        shift_and_histogram(record, 50.0, 0.0, grid)


def test_shift_by_nan_counts_every_sample_as_overflow():
    record = HomodyneRecord(
        eta=1.0, thetas=np.array([0.0, 0.0, 0.5]), xs=np.array([0.0, 0.1, 0.2]), seed=0,
    )
    with pytest.raises(EmptyHistogramError):
        shift_and_histogram(record, np.nan, 0.0, BinGrid(-1.0, 1.0, 10))


def test_shift_sample_just_below_right_edge_lands_in_last_bin():
    # on this grid (x - x_min) / width rounds up to bin_count for this sample
    below = np.nextafter(8.0, -np.inf)
    record = HomodyneRecord(
        eta=0.9, thetas=np.array([0.3, 0.3, 0.3]),
        xs=np.array([below, 8.0, 0.0]), seed=0,
    )
    hist = shift_and_histogram(record, 0.0, 0.0, BinGrid(-8.0, 8.0, 16_000))
    assert hist.counts[-1] == 2
    assert hist.total == 3
    assert hist.overflow == 0


# ---------------------------------------------------------------- record files


def sample_record():
    return HomodyneRecord(
        eta=0.9,
        thetas=np.array([0.0, 0.5, 1.5]),
        xs=np.array([0.123456789123456789, -2.5, 1.0 / 3.0]),
        seed=31337,
        source="unit-test record",
    )


def test_record_text_round_trip_is_exact(tmp_path):
    path = str(tmp_path / "rec.txt")
    rec = sample_record()
    save_record_text(path, rec)
    back = load_record_text(path)
    assert back.eta == rec.eta
    assert back.seed == rec.seed
    assert back.source == rec.source
    assert np.array_equal(back.thetas, rec.thetas)
    assert np.array_equal(back.xs, rec.xs)


@pytest.mark.parametrize("name", ["rec.gz", "rec.txt.bz2", "rec.xz", "rec.lzma"])
def test_text_record_named_like_a_compressed_file_reads_as_text(tmp_path, name):
    # np.loadtxt would decompress such a path, so the samples are parsed line by line
    path = str(tmp_path / name)
    rec = sample_record()
    save_record_text(path, rec)
    back = load_record_text(path)
    assert np.array_equal(back.thetas, rec.thetas)
    assert np.array_equal(back.xs, rec.xs)


def test_record_text_bytes_match_per_value_formatting(tmp_path, monkeypatch):
    thetas = np.array([0.0, 0.1, 0.5, 1.0, 1.5, 2.0, 2.5, 3.0, 3.1, np.pi])
    xs = np.array([-0.0, 5e-324, 1e308, -1e308, 1.0 / 3.0, -2.5, 1e-300, 2.0**-1022,
                   0.1 + 0.2, -7.0])
    rec = HomodyneRecord(eta=0.85, thetas=thetas, xs=xs, seed=2**70, source="a, b")
    monkeypatch.setattr(homodyne, "_SLICE", 4)  # 4 + 4 + a partial 2
    path = tmp_path / "rec.txt"
    save_record_text(str(path), rec)
    expected = "eta=0.84999999999999998\nseed=1180591620717411303424\nsource=a, b\n" + "".join(
        "{:.17g},{:.17g}\n".format(t, x) for t, x in zip(thetas.tolist(), xs.tolist()))
    assert path.read_bytes() == expected.encode()
    back = load_record_text(str(path))
    assert back.seed == 2**70
    assert np.array_equal(back.xs, xs) and np.signbit(back.xs[0])


def test_record_binary_round_trip_is_exact(tmp_path):
    path = str(tmp_path / "rec.bin")
    rec = sample_record()
    save_record_binary(path, rec)
    back = load_record_binary(path)
    assert back.eta == rec.eta
    assert back.seed == rec.seed
    assert back.source == rec.source
    assert np.array_equal(back.thetas, rec.thetas)
    assert np.array_equal(back.xs, rec.xs)


def test_record_format_sniffing(tmp_path):
    rec = sample_record()
    t = str(tmp_path / "rec.txt")
    b = str(tmp_path / "rec.bin")
    save_record_text(t, rec)
    save_record_binary(b, rec)
    assert np.array_equal(load_record(t).xs, load_record(b).xs)


class _FailsAfterHeader:
    """Stands in for a file whose first write (the header) succeeds and whose
    second stores half its data, then fails."""

    def __init__(self, fh):
        self._fh = fh
        self._writes = 0

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self._fh.close()

    def write(self, data):
        self._writes += 1
        if self._writes == 1:
            return self._fh.write(data)
        self._fh.write(data[: len(data) // 2])
        raise OSError("disk full")


@pytest.mark.parametrize("save", [save_record_text, save_record_binary], ids=["text", "binary"])
def test_failed_record_write_keeps_previous_record(tmp_path, monkeypatch, save):
    path = str(tmp_path / "rec")
    old = sample_record()
    save(path, old)
    new = HomodyneRecord(eta=0.8, thetas=np.zeros(1000), xs=np.linspace(-1.0, 1.0, 1000),
                         seed=1)
    real_open = builtins.open

    def failing_open(file, mode="r", *args, **kwargs):
        fh = real_open(file, mode, *args, **kwargs)
        return _FailsAfterHeader(fh) if "w" in mode else fh

    monkeypatch.setattr(builtins, "open", failing_open)
    with pytest.raises(OSError, match="disk full"):
        save(path, new)
    monkeypatch.undo()
    back = load_record(path)
    assert back.eta == old.eta
    assert np.array_equal(back.xs, old.xs)
    assert os.listdir(tmp_path) == ["rec"]


@pytest.mark.parametrize("source", ["run A\n0.5,0.7", "x\reta=0.5"], ids=["LF", "CR"])
def test_text_record_source_with_a_line_break_refused(tmp_path, source):
    # written verbatim, the first reloads with a third sample, the second with eta 0.5
    path = tmp_path / "rec.txt"
    save_record_text(str(path), sample_record())
    before = path.read_bytes()
    record = HomodyneRecord(eta=0.9, thetas=np.array([0.1, 0.2]), xs=np.array([0.3, 0.4]),
                            seed=1, source=source)
    with pytest.raises(ValidationError, match="line break"):
        save_record_text(str(path), record)
    assert path.read_bytes() == before
    assert os.listdir(tmp_path) == ["rec.txt"]
    save_record_binary(str(tmp_path / "rec.bin"), record)
    assert load_record(str(tmp_path / "rec.bin")).source == source


@pytest.mark.parametrize("source", ["x" * 63 + "\u00e9 tail", "x" * 63 + " tail"],
                         ids=["mid-character", "blank"])
def test_binary_record_cuts_a_long_source_on_a_character_boundary(tmp_path, source):
    # the 64-byte cut falls inside the two-byte e-acute, or just after a blank
    path = str(tmp_path / "rec.bin")
    record = HomodyneRecord(eta=0.9, thetas=np.array([0.1]), xs=np.array([0.3]), seed=1,
                            source=source)
    save_record_binary(path, record)
    assert load_record(path).source == "x" * 63


@pytest.mark.parametrize("save", [save_record_text, save_record_binary], ids=["text", "binary"])
@pytest.mark.parametrize("source", ["  padded  ", "padded\t", " padded"],
                         ids=["both-ends", "tab", "leading"])
def test_record_source_with_outer_whitespace_refused(tmp_path, save, source):
    # the text reader strips header values, so the formats would disagree
    path = tmp_path / "rec"
    save(str(path), sample_record())
    before = path.read_bytes()
    record = HomodyneRecord(eta=0.9, thetas=np.array([0.1, 0.2]), xs=np.array([0.3, 0.4]),
                            seed=1, source=source)
    with pytest.raises(ValidationError, match="whitespace"):
        save(str(path), record)
    assert path.read_bytes() == before
    assert os.listdir(tmp_path) == ["rec"]


@pytest.mark.parametrize("save", [save_record_text, save_record_binary], ids=["text", "binary"])
@pytest.mark.parametrize("source", ["abc\x00", "a\x00b"], ids=["trailing", "inner"])
def test_record_source_with_a_nul_refused(tmp_path, save, source):
    # a binary record pads its source field with NUL, so a trailing one would not come back
    path = tmp_path / "rec"
    save(str(path), sample_record())
    before = path.read_bytes()
    record = HomodyneRecord(eta=0.9, thetas=np.array([0.1, 0.2]), xs=np.array([0.3, 0.4]),
                            seed=1, source=source)
    with pytest.raises(ValidationError, match="NUL"):
        save(str(path), record)
    assert path.read_bytes() == before
    assert os.listdir(tmp_path) == ["rec"]


def test_record_malformed_files_rejected(tmp_path, monkeypatch):
    missing = tmp_path / "missing_header.txt"
    missing.write_text("seed=1\nsource=x\n0.0,1.0\n")
    with pytest.raises(FileFormatError):
        load_record_text(str(missing))
    bad_pair = tmp_path / "bad_pair.txt"
    bad_pair.write_text("eta=0.9\nseed=1\nsource=x\n0.0,1.0,2.0\n")
    with pytest.raises(FileFormatError):
        load_record_text(str(bad_pair))
    bad_value = tmp_path / "bad_value.txt"
    bad_value.write_text("eta=0.9\nseed=1\nsource=x\n0.0,abc\n")
    with pytest.raises(FileFormatError):
        load_record_text(str(bad_value))
    trunc = tmp_path / "trunc.bin"
    rec = sample_record()
    save_record_binary(str(trunc), rec)
    trunc.write_bytes(trunc.read_bytes()[:-8])
    with pytest.raises(FileFormatError):
        load_record_binary(str(trunc))
    foreign = tmp_path / "foreign.bin"
    foreign.write_bytes(b"NOTARECD" + trunc.read_bytes()[8:])
    with pytest.raises(FileFormatError, match="not a binary homodyne record"):
        load_record_binary(str(foreign))
    # a file that shrinks by one pair between the size check and the read
    shrunk = tmp_path / "shrunk.bin"
    save_record_binary(str(shrunk), rec)
    full = shrunk.stat().st_size
    shrunk.write_bytes(shrunk.read_bytes()[:-16])
    payload = 16 * rec.sample_count
    with monkeypatch.context() as m:
        m.setattr(homodyne.os, "fstat", lambda fd: os.stat_result((0,) * 6 + (full,) + (0,) * 3))
        with pytest.raises(FileFormatError, match=f"expected {payload} bytes of sample data, "
                                                  f"found {payload - 16}$"):
            load_record_binary(str(shrunk))


@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf], ids=["nan", "inf", "-inf"])
@pytest.mark.parametrize("index", [0, 4, 8], ids=["first", "middle", "last"])
@pytest.mark.parametrize("column", ["thetas", "xs"])
def test_record_with_a_non_finite_sample_refused(tmp_path, column, index, value):
    columns = {"thetas": np.linspace(0.0, 3.0, 9), "xs": np.linspace(-2.0, 2.0, 9)}
    with pytest.raises(ValidationError, match="^record contains non-finite samples$"):
        HomodyneRecord(eta=0.9, seed=1, **dict(columns, **{column: np.where(
            np.arange(9) == index, value, columns[column])}))
    text, binary = tmp_path / "rec.txt", tmp_path / "rec.bin"
    save_record_binary(str(binary), HomodyneRecord(eta=0.9, seed=1, **columns))
    data = bytearray(binary.read_bytes())
    pairs = np.frombuffer(data, dtype="<f8", offset=104).reshape(9, 2)
    pairs[index, ["thetas", "xs"].index(column)] = value
    binary.write_bytes(bytes(data))
    text.write_text("eta=0.9\nseed=1\n" + "".join(f"{t!r},{x!r}\n" for t, x in pairs.tolist()))
    for path, load in ((text, load_record_text), (binary, load_record_binary)):
        message = f"{path}: record contains non-finite samples"
        with pytest.raises(FileFormatError, match=f"^{re.escape(message)}$"):
            load(str(path))


def test_binary_round_trip_across_slices(tmp_path, monkeypatch):
    rng = np.random.default_rng(99)
    rec = HomodyneRecord(eta=0.7, thetas=np.repeat(rng.uniform(0.0, np.pi, 25), 4),
                         xs=rng.normal(0.0, 1.0, 100), seed=-12, source="sliced")
    path = str(tmp_path / "rec.bin")
    save_record_binary(path, rec)
    monkeypatch.setattr(homodyne, "_SLICE", 7)  # 100 samples: 14 slices and 2 left
    back = load_record_binary(path)
    assert (back.eta, back.seed, back.source) == (rec.eta, rec.seed, rec.source)
    assert np.array_equal(back.thetas, rec.thetas)
    assert np.array_equal(back.xs, rec.xs)


@pytest.mark.parametrize("save, load", [(save_record_text, load_record_text),
                                        (save_record_binary, load_record_binary)],
                         ids=["text", "binary"])
def test_record_bytes_survive_a_reload(tmp_path, monkeypatch, save, load):
    # with 7-sample slices, runs of 4 and 10 and a swept stretch straddle
    # slice edges, and runs of 0.0 and -0.0 sit side by side
    rng = np.random.default_rng(31)
    thetas = np.concatenate((np.repeat(rng.uniform(0.0, np.pi, 5), 4), np.zeros(10),
                             np.full(10, -0.0), rng.uniform(0.0, np.pi, 9), np.zeros(4)))
    rec = HomodyneRecord(eta=0.85, thetas=thetas, xs=rng.normal(0.0, 1.0, thetas.size),
                         seed=5, source="runs, slices")
    monkeypatch.setattr(homodyne, "_SLICE", 7)
    first, second = tmp_path / "first", tmp_path / "second"
    save(str(first), rec)
    save(str(second), load(str(first)))
    assert first.read_bytes() == second.read_bytes()
    if save is save_record_binary:
        # the pairs are the per-sample phases beside the xs, as written before
        pairs = np.column_stack((thetas, rec.xs)).astype("<f8").tobytes()
        assert first.read_bytes()[homodyne._RECORD_HEADER.size:] == pairs
    else:
        assert b"\n0," in first.read_bytes() and b"\n-0," in first.read_bytes()


@pytest.mark.parametrize("edit, found", [
    (lambda data: data[:-8], 1592),
    (lambda data: data + b"\0" * 8, 1608),
    (lambda data: data[:-1600], 0),
], ids=["truncated", "trailing", "no-samples"])
def test_binary_payload_size_errors(tmp_path, monkeypatch, edit, found):
    path = tmp_path / "rec.bin"
    save_record_binary(str(path), HomodyneRecord(
        eta=0.9, thetas=np.zeros(100), xs=np.ones(100), seed=1))
    path.write_bytes(edit(path.read_bytes()))
    monkeypatch.setattr(homodyne, "_SLICE", 7)
    message = f"{path}: expected 1600 bytes of sample data, found {found}"
    with pytest.raises(FileFormatError, match=f"^{re.escape(message)}$"):
        load_record_binary(str(path))


def _traced_peak(fn, *args):
    """Peak traced allocation of fn(*args) above what was live before it."""
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        result = fn(*args)
        return result, tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()


def test_reader_and_histogram_stay_within_record_size(tmp_path):
    count = 1_000_000
    rng = np.random.default_rng(5)
    rec = HomodyneRecord(eta=0.85, thetas=np.repeat(np.pi * np.arange(10) / 10, count // 10),
                         xs=rng.normal(0.0, 1.3, count), seed=3)
    path = str(tmp_path / "big.bin")
    save_record_binary(path, rec)
    del rec
    back, peak = _traced_peak(load_record_binary, path)
    # the record keeps 16 B per sample (thetas and xs); the reader may add 10%
    assert peak <= 1.1 * 16 * count
    hist, peak = _traced_peak(shift_and_histogram, back, 0.4, -0.2, BinGrid(-8.0, 8.0, 16_000))
    assert hist.total + hist.overflow == count
    assert peak <= 4e6


def test_per_sample_phases_hold_nothing_per_sample_while_binned():
    count = 1_000_000
    rng = np.random.default_rng(6)
    rec = HomodyneRecord(eta=0.85, thetas=rng.uniform(0.0, np.pi, count),
                         xs=rng.normal(0.0, 1.3, count), seed=3)
    hist, peak = _traced_peak(shift_and_histogram, rec, 0.4, -0.2, BinGrid(-8.0, 8.0, 16_000))
    assert hist.total + hist.overflow == count
    # a run per sample, held by the record: binning adds slice-sized temporaries only
    assert peak <= 4e6


def test_phase_run_search_holds_no_per_sample_mask():
    # one phase over 1M samples: one run, so all the constructor's search
    # holds beyond its 16-byte result is slice-sized
    thetas, xs = np.full(1_000_000, 0.3), np.zeros(1_000_000)
    rec, peak = _traced_peak(lambda: HomodyneRecord(eta=0.85, thetas=thetas, xs=xs, seed=3))
    assert list(rec.run_starts) == [0] and list(rec.run_phases) == [0.3]
    assert peak < 1e6


def test_swept_record_holds_16_bytes_a_sample_of_runs(tmp_path):
    # a new phase on every sample: 8 B of run start and 8 B of run phase each
    count = 1_000_000
    rng = np.random.default_rng(9)
    thetas, xs = rng.uniform(0.0, np.pi, count), rng.normal(0.0, 1.3, count)
    rec, peak = _traced_peak(lambda: HomodyneRecord(eta=0.85, thetas=thetas, xs=xs, seed=3))
    assert rec.run_starts.size == count and np.shares_memory(rec.xs, xs)
    assert peak <= 16 * count + 4e6
    path = str(tmp_path / "swept.bin")
    save_record_binary(path, rec)
    del rec, thetas, xs
    back, peak = _traced_peak(load_record_binary, path)
    # the loaded record's 24 B per sample (xs and runs), and slice-sized temporaries
    assert back.run_starts.size == count
    assert peak <= 24 * count + 4e6


def test_sampler_peak_does_not_grow_with_the_cpu_count(monkeypatch):
    # 64 phases of 500 events: the 64 tables (128 kB each) outweigh the
    # 512 kB record, so tables piling up behind the draws would show
    state = cat_state(1.5j, np.pi, 26)
    table = 8 * (2 * homodyne.TAB_RANGE / homodyne.TAB_STEP + 1)
    peaks = {}
    for cpus in (1, 2, 8):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid, cpus=cpus: set(range(cpus)))
        _, peaks[cpus] = _traced_peak(sample_homodyne, state, 64, 500, 0.9, 777)
    assert max(peaks[2], peaks[8]) <= peaks[1] + 8 * table


def test_sampler_draw_temporaries_stay_within_a_per_worker_allowance(monkeypatch):
    # 4 phases of 200k events: a drawing worker holds its draws, their order,
    # the sorted draws and their inverted values, 32 B per event of its phase,
    # beside the record's 8 B per sample of xs (its phases are runs) and a
    # grid's build: psi (d rows), the 2d - 1 harmonic rows and a (d - 1)-row
    # product buffer, 4d - 2 rows of 8 B per grid point
    state = coherent_state(1.0, 18)
    phases, events = 4, 200_000
    points = 2 * homodyne.TAB_RANGE / homodyne.TAB_STEP + 1
    tables = 8 * (4 * state.dim - 2) * points
    per_worker = 32 * events
    for cpus in (1, 8):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid, cpus=cpus: set(range(cpus)))
        _, peak = _traced_peak(sample_homodyne, state, phases, events, 0.85, 777)
        assert peak <= 8 * phases * events + tables + min(cpus, phases) * per_worker


def test_record_checks_finite_samples_without_a_mask(monkeypatch):
    count = 1_000_000
    rng = np.random.default_rng(8)
    thetas, xs = rng.uniform(0.0, np.pi, count), rng.normal(0.0, 1.3, count)
    # slices small enough that the run search's temporaries stay far below 1 MB
    monkeypatch.setattr(homodyne, "_SLICE", 1_000)
    rec, peak = _traced_peak(lambda: HomodyneRecord(eta=0.85, thetas=thetas, xs=xs, seed=3))
    assert np.shares_memory(rec.xs, xs)
    # a boolean mask of either column would take 1 MB beyond the runs' own bytes
    assert peak <= rec.run_starts.nbytes + rec.run_phases.nbytes + 64e3


def test_binary_writer_holds_no_copy_of_the_record(tmp_path):
    count = 1_000_000
    rng = np.random.default_rng(7)
    rec = HomodyneRecord(eta=0.85, thetas=np.repeat(np.pi * np.arange(10) / 10, count // 10),
                         xs=rng.normal(0.0, 1.3, count), seed=3)
    path = str(tmp_path / "big.bin")
    _, peak = _traced_peak(save_record_binary, path, rec)
    # a full (theta, x) copy would take 16 MB
    assert peak <= 4e6
    back = load_record_binary(path)
    assert np.array_equal(back.thetas, rec.thetas) and np.array_equal(back.xs, rec.xs)


def test_text_reader_stays_within_record_size(tmp_path):
    count = 1_000_000
    rng = np.random.default_rng(6)
    rec = HomodyneRecord(eta=0.85, thetas=np.repeat(np.pi * np.arange(10) / 10, count // 10),
                         xs=rng.normal(0.0, 1.3, count), seed=3)
    path = str(tmp_path / "big.txt")
    save_record_text(path, rec)
    back, peak = _traced_peak(load_record_text, path)
    assert np.array_equal(back.xs, rec.xs)
    # the record keeps 16 B per sample (thetas and xs); the reader may add 10%
    assert peak <= 1.1 * 16 * count


@pytest.mark.parametrize("final_newline", [True, False], ids=["terminated", "unterminated"])
def test_text_reader_sizes_its_array_to_the_samples(tmp_path, monkeypatch, final_newline):
    # one row of slack: numpy trims at most that row, so a freed record's
    # block fits the next record of its length
    path = tmp_path / "rec.txt"
    save_record_text(str(path), sample_record())
    if not final_newline:
        path.write_bytes(path.read_bytes()[:-1])
    asked = []
    loadtxt = np.loadtxt

    def spy(*args, **kwargs):
        asked.append(kwargs["max_rows"])
        return loadtxt(*args, **kwargs)

    monkeypatch.setattr(np, "loadtxt", spy)
    back = load_record_text(str(path))
    assert asked == [back.sample_count + 1]


def test_record_validation():
    with pytest.raises(ValidationError):
        HomodyneRecord(eta=0.0, thetas=np.array([0.0]), xs=np.array([1.0]), seed=0)
    with pytest.raises(ValidationError):
        HomodyneRecord(eta=0.9, thetas=np.array([0.0, 1.0]), xs=np.array([1.0]), seed=0)
    with pytest.raises(ValidationError):
        HomodyneRecord(eta=0.9, thetas=np.array([0.0]), xs=np.array([np.nan]), seed=0)
    with pytest.raises(ValidationError):
        HomodyneRecord(eta=0.9, thetas=np.array([]), xs=np.array([]), seed=0)
