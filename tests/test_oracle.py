import numpy as np
import pytest
from scipy.stats import poisson

from emtomo import (
    BinGrid,
    Histogram,
    StateSpec,
    TruncationError,
    ValidationError,
    apply_loss_channel,
    cat_state,
    coherent_state,
    displaced_photon_distribution,
    fock_state,
    oracle_wigner_grid,
    quadrature_density,
    s_ordered_quasidistribution,
    sample_homodyne,
    vacuum_state,
    wigner_exact,
    wigner_exact_grid,
)
from emtomo.oracle import _displacement_blocks

from .reference_routes import (
    displacement_by_expm,
    s_ordered_by_smoothing,
    wigner_by_fock_kernels,
)

ONE_OVER_PI = 1.0 / np.pi


def random_state(rng, dim):
    b = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    rho = b @ b.conj().T
    rho /= np.trace(rho).real
    return StateSpec(dim, rho)


# ------------------------------------------------------- displacement block


def test_displacement_zero_is_identity():
    block = _displacement_blocks(np.array([0.0j]), 5, 8)[0]
    assert np.array_equal(block, np.eye(5, 8))


def test_displacement_matches_matrix_exponential():
    for beta in (0.7, 2.0j, -1.5 + 0.5j, (3.0 + 3.0j) / np.sqrt(2.0)):
        mine = _displacement_blocks(np.array([beta]), 30, 30)[0]
        ref = displacement_by_expm(beta, 30, 30)
        assert np.max(np.abs(mine - ref)) < 1e-11


def test_displacement_columns_are_asymptotically_unit_norm():
    block = _displacement_blocks(np.array([(3.0 + 3.0j) / np.sqrt(2.0)]), 160, 25)[0]
    assert np.max(np.abs(1.0 - np.sum(np.abs(block) ** 2, axis=0))) < 1e-10


# ------------------------------------------------- displaced distributions


def test_displaced_vacuum_is_poisson():
    for q, p in [(0.6, -0.9), (2.0, 1.0), (0.0, 0.0)]:
        dist, tail = displaced_photon_distribution(vacuum_state(), q, p, 40)
        mean = 0.5 * (q * q + p * p)
        expected = poisson.pmf(np.arange(41), mean)
        assert np.max(np.abs(dist.probs - expected)) < 1e-10
        assert tail < 1e-10


def test_displaced_coherent_at_own_center_is_vacuum():
    alpha = 0.9 + 0.3j
    st = coherent_state(alpha, 20)
    q, p = np.sqrt(2.0) * alpha.real, np.sqrt(2.0) * alpha.imag
    dist, _tail = displaced_photon_distribution(st, q, p, 15)
    assert dist.probs[0] == pytest.approx(1.0, abs=1e-10)


def test_displaced_tail_guard():
    # one guard, naming the worst point, serves all three evaluators
    worst = r"at \(q=3, p=3\) leaves .* above n_max=6; raise the cutoff"
    with pytest.raises(TruncationError, match=worst):
        displaced_photon_distribution(vacuum_state(), 3.0, 3.0, 6)
    with pytest.raises(TruncationError, match=worst):
        wigner_exact_grid(vacuum_state(), [0.0, 3.0], [0.0, 3.0], 6)
    with pytest.raises(TruncationError, match=worst):
        s_ordered_quasidistribution(vacuum_state(), 3.0, 3.0, 1.0, 6)


def test_negative_cutoff_rejected():
    with pytest.raises(ValidationError, match="photon number"):
        wigner_exact(vacuum_state(), 0.0, 0.0, -1)
    with pytest.raises(ValidationError, match="photon number"):
        oracle_wigner_grid(vacuum_state(), [0.0], [0.0, 1.0], -1)


# ---------------------------------------------------------------- wigner


def test_wigner_of_vacuum_and_first_fock_state():
    pts = [(0.0, 0.0), (0.5, -0.5), (1.2, 0.3)]
    for q, p in pts:
        r2 = q * q + p * p
        w_vac = wigner_exact(vacuum_state(), q, p, 30)
        assert w_vac == pytest.approx(np.exp(-r2) / np.pi, abs=1e-12)
        w_one = wigner_exact(fock_state(1, 3), q, p, 30)
        assert w_one == pytest.approx((2.0 * r2 - 1.0) * np.exp(-r2) / np.pi, abs=1e-12)


def test_wigner_of_coherent_state_is_shifted_gaussian():
    alpha = 1.0 + 0.0j
    st = coherent_state(alpha, 18)
    for q, p in [(np.sqrt(2.0), 0.0), (0.0, 0.0), (1.0, -1.0)]:
        expected = np.exp(-((q - np.sqrt(2.0)) ** 2) - p * p) / np.pi
        assert wigner_exact(st, q, p, 40) == pytest.approx(expected, abs=1e-10)


def test_odd_cat_origin_value():
    st = cat_state(1.5j, np.pi, 26)
    assert wigner_exact(st, 0.0, 0.0, 30) == pytest.approx(-ONE_OVER_PI, abs=1e-10)
    even = cat_state(1.5j, 0.0, 26)
    assert wigner_exact(even, 0.0, 0.0, 30) == pytest.approx(ONE_OVER_PI, abs=1e-10)


def test_wigner_routes_agree_on_random_states():
    rng = np.random.default_rng(2718)
    pts = [(0.0, 0.0), (0.8, -0.3), (-1.1, 0.6), (1.9, 1.2)]
    for _ in range(6):
        st = random_state(rng, int(rng.integers(2, 10)))
        for q, p in pts:
            direct = wigner_exact(st, q, p, 50)
            kernel_route = wigner_by_fock_kernels(st.rho, q, p)
            assert direct == pytest.approx(kernel_route, abs=1e-8)


def test_wigner_magnitude_bound():
    rng = np.random.default_rng(31415)
    qs = rng.uniform(-2.5, 2.5, size=40)
    ps = rng.uniform(-2.5, 2.5, size=40)
    for _ in range(5):
        st = random_state(rng, 8)
        vals = wigner_exact_grid(st, qs, ps, 45)
        assert np.max(np.abs(vals)) <= ONE_OVER_PI + 1e-12


def test_wigner_marginal_recovers_quadrature_density():
    st = coherent_state(1.0, 20)
    t, w = np.polynomial.legendre.leggauss(160)
    half = 6.5
    pnodes = half * t
    for q in (-1.0, 0.0, 0.7, 1.8):
        wig = wigner_exact_grid(st, np.full(pnodes.size, q), pnodes, 60)
        marginal = half * float(w @ wig)
        assert marginal == pytest.approx(quadrature_density(st, 0.0, q), abs=1e-6)


# ------------------------------------------------------------- s-ordered


def test_husimi_vacuum_at_origin():
    val = s_ordered_quasidistribution(vacuum_state(), 0.0, 0.0, 1.0, 90)
    assert val == pytest.approx(1.0 / (2.0 * np.pi), abs=1e-12)


def test_s_ordered_approaches_wigner_as_s_vanishes():
    st = coherent_state(0.6 + 0.3j, 16)
    small = s_ordered_quasidistribution(st, 0.5, -0.2, 1e-4, 40)
    assert small == pytest.approx(wigner_exact(st, 0.5, -0.2, 40), abs=5e-5)


def test_s_ordered_matches_lossy_wigner_identity():
    # P_rho(q, p; -(1-eta)/eta) = eta * W_{L_eta rho}(sqrt(eta) q, sqrt(eta) p)
    st = cat_state(1.2j, np.pi, 22)
    eta = 0.85
    s = (1.0 - eta) / eta
    lossy = apply_loss_channel(st, eta)
    root = np.sqrt(eta)
    for q, p in [(0.0, 0.0), (0.5, -0.8), (1.0, 1.3)]:
        lhs = s_ordered_quasidistribution(st, q, p, s, 70)
        rhs = eta * wigner_exact(lossy, root * q, root * p, 70)
        assert lhs == pytest.approx(rhs, abs=1e-8)


SMOOTHING_S = (1.0 - 0.85) / 0.85
COHERENT = coherent_state(0.6 + 0.3j, 16)
ODD_CAT = cat_state(1.2j, np.pi, 22)


@pytest.mark.parametrize("state, s, q, p, n_max", [
    (vacuum_state(), 1.0, 1.0, -0.5, 90),
    (COHERENT, 1e-4, 0.5, -0.2, 30),
    (COHERENT, SMOOTHING_S, -0.7, 0.4, 44),
    (ODD_CAT, 1.0, 0.3, 0.8, 96),
    (ODD_CAT, SMOOTHING_S, 0.5, -0.8, 56),
    (ODD_CAT, 1e-4, 1.0, 1.3, 36),
], ids=["vacuum-husimi", "coherent-1e-4", "coherent-loss", "cat-husimi", "cat-loss",
        "cat-1e-4"])
def test_s_ordered_weighted_sum_matches_smoothing(state, s, q, p, n_max):
    # The smoothing's cutoff must cover its window's far corner; the weighted
    # sum needs only (q, p) itself.
    smoothed = s_ordered_by_smoothing(state, q, p, s, n_max)
    assert abs(s_ordered_quasidistribution(state, q, p, s, n_max) - smoothed) <= 1e-12


@pytest.mark.parametrize("s", [0.1, 1.0, 3.0])
def test_s_ordered_vacuum_closed_form_at_a_modest_cutoff(s):
    q, p = 1.0, -0.5
    expected = np.exp(-(q * q + p * p) / (1.0 + s)) / (np.pi * (1.0 + s))
    value = s_ordered_quasidistribution(vacuum_state(), q, p, s, 40)
    assert abs(value - expected) <= 1e-15


def test_phase_space_points_validated():
    with pytest.raises(ValidationError, match="equal length"):
        wigner_exact_grid(vacuum_state(), [0.0, 1.0], [0.0], 20)
    with pytest.raises(ValidationError, match="must be finite"):
        wigner_exact_grid(vacuum_state(), [0.0, np.nan], [0.0, 1.0], 20)


def test_s_ordered_validation():
    with pytest.raises(ValidationError):
        s_ordered_quasidistribution(vacuum_state(), 0.0, 0.0, 0.0, 20)


def test_smeared_value_reachable_from_binned_data_without_em():
    # Undoing the loss on the sample variance alone (no iteration, no EM)
    # must land on the exact s-ordered value at the origin for the vacuum.
    eta = 0.8
    s = (1.0 - eta) / eta
    rec = sample_homodyne(vacuum_state(), 4, 250_000, eta, 314159)
    grid = BinGrid(-6.0, 6.0, 600)
    hist = Histogram(grid, *grid.counts_in_place(rec.xs.copy()))
    # the bins of |x| give the second moment; the phase-averaged mean is 0
    upper = grid.edges[grid.bin_count // 2:]
    centers = 0.5 * (upper[:-1] + upper[1:])
    freqs = hist.counts / hist.total
    var = float(freqs @ centers**2) + grid.width**2 / 12.0
    v_ideal = (var - 0.5 * (1.0 - eta)) / eta
    estimate = 1.0 / (2.0 * np.pi * (v_ideal + 0.5 * s))
    oracle_value = s_ordered_quasidistribution(vacuum_state(), 0.0, 0.0, s, 40)
    assert estimate == pytest.approx(oracle_value, abs=2e-3)
