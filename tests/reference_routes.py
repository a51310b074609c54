"""Independent evaluation routes used only to arbitrate tests.

These deliberately avoid the code paths the package uses in production:
the Wigner function is assembled from the closed-form transform of |m><n|
rather than displaced photon statistics; displacement matrices come from
exponentiating the generator on a padded space rather than Laguerre
polynomials; the loss channel's binomial weights come from log-gamma rather
than Pascal's rule; the quadrature density comes from a complex double sum
over the density matrix rather than real matrix products; a lossy Fock
density comes from Gaussian smearing rather than the binomial mixture; the
mass it leaves outside a window comes from adaptive quadrature of its tails
rather than binned kernels; and its bin integrals come from fixed-order
Gauss-Legendre quadrature rather than the closed-form tail recurrence; and
s-ordered quasi-probabilities come from smoothing the Wigner function by
Gauss-Legendre quadrature rather than the weighted sum of one displaced
distribution.  psi_k comes from this file's own recurrences.

Four routes restate production arithmetic the slow, obvious way, so that a
faster production path can be required to match them bit for bit: an EM
loop that never flushes subnormal entries, allocates every temporary and
runs on the bins it is given (all bins, through :func:`mirror_rows`, or the
bins of |x|), a shifted histogram that evaluates cos and sin at every sample
and tests each |x| against the range on its own, with no spill bin, an
inverse-CDF lookup of a sampler's draws in the order they were drawn, and a
text-record reader that parses every line with ``float``.
"""

import numpy as np
from scipy.integrate import quad
from scipy.linalg import expm
from scipy.special import eval_genlaguerre, gammaln

from emtomo import FileFormatError, HomodyneRecord, ValidationError, wigner_exact_grid


def wigner_by_fock_kernels(rho: np.ndarray, q: float, p: float) -> float:
    """W(q, p) = sum_{mn} rho_mn K_mn with the Laguerre kernel closed form.

    K uses z = sqrt(2)(q + ip) and, for m >= n,
    K_mn = ((-1)^n / pi) sqrt(n!/m!) conj(z)^{m-n} exp(-|z|^2/2) L_n^{m-n}(|z|^2)
    so that Tr[rho Delta] pairs rho_mn with the (n, m) matrix element of the
    displaced parity operator.  Checked against expm-displaced parity sums.
    """
    d = rho.shape[0]
    r2 = q * q + p * p
    z = np.sqrt(2.0) * (q + 1j * p)
    m = np.arange(d)[:, None]
    n = np.arange(d)[None, :]
    lo = np.minimum(m, n)
    hi = np.maximum(m, n)
    k = hi - lo
    mag = np.exp(0.5 * (gammaln(lo + 1.0) - gammaln(hi + 1.0)) - r2)
    lag = eval_genlaguerre(lo, k, 2.0 * r2)
    base = np.where(m >= n, np.conj(z), z)
    base = np.where(k == 0, 1.0 + 0j, base)
    kern = ((-1.0) ** lo) / np.pi * mag * lag * base ** k.astype(float)
    return float(np.real(np.sum(rho * kern)))


def displacement_by_expm(beta: complex, rows: int, cols: int, pad: int = 260) -> np.ndarray:
    """<m|D(beta)|n> on a padded space via expm(beta a^dag - conj(beta) a)."""
    dim = max(rows, cols) + pad
    a = np.diag(np.sqrt(np.arange(1, dim)), 1)
    gen = beta * a.conj().T - np.conj(beta) * a
    return expm(gen)[:rows, :cols]


# Gauss-Legendre nodes per axis of the s-ordered smoothing integral.
S_ORDERED_QUAD_ORDER = 64


def s_ordered_by_smoothing(state, q: float, p: float, s_abs: float, n_max: int) -> float:
    """P(q, p; -s) by Gaussian convolution of the Wigner function,

        P(q, p; -s) = (1/(pi s)) int W(q', p') exp(-((q-q')^2+(p-p')^2)/s),

    over a window large enough that the neglected Gaussian tail is below
    1e-9 of the total.  W comes from ``wigner_exact_grid`` (which has its own
    arbiter, :func:`wigner_by_fock_kernels`), so this route arbitrates the
    weights of ``s_ordered_quasidistribution``.  The cutoff must cover the
    window's far corner.
    """
    s = float(s_abs)
    # Window where exp(-R^2/s) reaches 1e-12; |W| <= 1/pi keeps the
    # neglected mass well under 1e-9.
    radius = np.sqrt(s * np.log(1e12))
    t, w = np.polynomial.legendre.leggauss(S_ORDERED_QUAD_ORDER)
    qq = q + radius * t
    pp = p + radius * t
    qg, pg = np.meshgrid(qq, pp, indexing="ij")
    wg = np.outer(w, w) * radius * radius
    wig = wigner_exact_grid(state, qg.ravel(), pg.ravel(), n_max).reshape(qg.shape)
    gauss = np.exp(-((qg - q) ** 2 + (pg - p) ** 2) / s)
    return float(np.sum(wg * gauss * wig) / (np.pi * s))


# Nodes and half-width (in sigmas) of the convolution route's Gaussian window.
CONVOLUTION_QUAD_ORDER = 200
CONVOLUTION_TAIL_SIGMAS = 10.0


def _oscillator_wavefunction(k: int, x):
    """psi_k(x) (vacuum variance 1/2) by the three-term recurrence; x a float or array."""
    prev = 0.0
    cur = np.pi ** -0.25 * np.exp(-0.5 * x * x)
    for j in range(1, k + 1):
        prev, cur = cur, np.sqrt(2.0 / j) * x * cur - np.sqrt((j - 1.0) / j) * prev
    return cur


def lossy_fock_quadrature_density_convolution(n: int, x, eta: float) -> np.ndarray:
    """Quadrature density of |n> at efficiency eta by Gaussian smearing.

    Numerical convolution of eta^{-1/2} psi_n(x'/sqrt(eta))^2 with a
    Gaussian of variance (1-eta)/2, by Gauss-Legendre quadrature over
    +-10 sigma (the ideal density is bounded, so the neglected tail is far
    below 1e-12).  It arbitrates the binomial mixture of
    ``emtomo.fock_kernel.lossy_fock_quadrature_density`` and uses nothing
    of that module.  It evaluates |x| (the density is even), so the two
    routes stay comparable on symmetric grids.
    """
    xs = np.abs(np.asarray(x, dtype=float))
    if eta == 1.0:
        return _oscillator_wavefunction(n, xs) ** 2
    var = 0.5 * (1.0 - eta)
    sigma = np.sqrt(var)
    t, w = np.polynomial.legendre.leggauss(CONVOLUTION_QUAD_ORDER)
    u = CONVOLUTION_TAIL_SIGMAS * sigma * t  # offsets from x
    gauss = np.exp(-(u * u) / (2.0 * var)) / np.sqrt(2.0 * np.pi * var)
    pts = xs[..., None] - u  # shape x-shape + (quad order,)
    # density of the eta-scaled variable: psi_n(x'/sqrt(eta))^2 / sqrt(eta)
    ideal = _oscillator_wavefunction(n, pts / np.sqrt(eta)) ** 2 / np.sqrt(eta)
    return (CONVOLUTION_TAIL_SIGMAS * sigma) * np.sum(w * gauss * ideal, axis=-1)


def loss_channel_by_gammaln(rho: np.ndarray, eta: float) -> np.ndarray:
    """(L_eta rho)_{mn} with each weight sqrt(C(m+k,k) eta^m (1-eta)^k) from log-gamma.

    It arbitrates ``emtomo.homodyne.apply_loss_channel``, whose weights come
    from Pascal's rule in ``emtomo.fock_kernel``.
    """
    d = rho.shape[0]
    g = gammaln(np.arange(d + 1) + 1.0)
    out = np.zeros((d, d), dtype=complex)
    for k in range(d):
        m = np.arange(d - k)
        v = np.exp(0.5 * (g[m + k] - g[m] - g[k]) + 0.5 * m * np.log(eta)
                   + 0.5 * k * np.log1p(-eta))
        out[: d - k, : d - k] += np.outer(v, v) * rho[k:, k:]
    return out


def quadrature_density_by_terms(rho: np.ndarray, theta: float, x, eta: float) -> np.ndarray:
    """sum_{m,n} (L_eta rho)_mn e^{i(n-m) theta} psi_m(x) psi_n(x), term by term.

    A complex double sum over every entry of the lossy density matrix (from
    :func:`loss_channel_by_gammaln`) with psi from this file's recurrence.
    It returns the complex sum, whose imaginary part is rounding, and
    arbitrates ``emtomo.quadrature_density``, which takes the real part of
    the phased matrix before its real products.
    """
    lossy = loss_channel_by_gammaln(rho, eta)
    xs = np.asarray(x, dtype=float)
    psi = [_oscillator_wavefunction(k, xs) for k in range(rho.shape[0])]
    total = np.zeros(xs.shape, dtype=complex)
    for m in range(rho.shape[0]):
        for n in range(rho.shape[0]):
            total += lossy[m, n] * np.exp(1j * (n - m) * theta) * psi[m] * psi[n]
    return total


def gauss_legendre_bin_integrals(edges, n_max: int, eta: float) -> np.ndarray:
    """Integrals of each lossy Fock density over each bin, shape (bins, n_max + 1).

    Entry [nu, n] integrates sum_k C(n,k) eta^k (1-eta)^{n-k} psi_k(x)^2 over
    [edges[nu], edges[nu + 1]] with 64 Gauss-Legendre nodes per bin.  psi_k
    comes from its own three-term recurrence and the binomial weights from
    gammaln, so nothing of ``emtomo.fock_kernel`` is used: not its
    wavefunctions, not its erfc tail recurrence, not its mixture matrix.
    """
    t, w = np.polynomial.legendre.leggauss(64)
    edges = np.asarray(edges, dtype=float)
    half = 0.5 * np.diff(edges)
    x = 0.5 * (edges[:-1] + edges[1:])[:, None] + half[:, None] * t
    psi = [np.pi ** -0.25 * np.exp(-0.5 * x * x), np.zeros_like(x)]
    ideal = np.empty((edges.size - 1, n_max + 1))
    for k in range(n_max + 1):
        ideal[:, k] = half * (psi[0] ** 2 @ w)
        psi = [np.sqrt(2.0 / (k + 1)) * x * psi[0] - np.sqrt(k / (k + 1.0)) * psi[1], psi[0]]
    mixture = np.zeros((n_max + 1, n_max + 1))
    for n in range(n_max + 1):
        k = np.arange(n + 1)
        mixture[n, : n + 1] = (np.exp(gammaln(n + 1.0) - gammaln(k + 1.0) - gammaln(n - k + 1.0))
                               * eta ** k * (1.0 - eta) ** (n - k))
    return ideal @ mixture.T


def lossy_fock_mass_outside(n_max: int, eta: float, half_width: float) -> np.ndarray:
    """Mass of each lossy Fock density outside [-half_width, half_width].

    Returns an array of length n_max + 1 whose entry n is
    sum_k C(n,k) eta^k (1-eta)^{n-k} t_k with t_k = 2 int_{half_width}^inf
    psi_k(x)^2 dx, the tail of each mixture component (psi_k^2 is even).
    Each t_k comes from adaptive quadrature (``scipy.integrate.quad``) of a
    scalar three-term recurrence, so it shares nothing with
    ``emtomo.fock_kernel``: not its vectorised wavefunctions, not its
    fixed-order Gauss-Legendre bin integrals, not its binomial mixture
    matrix, and it does not use the erfc upper-tail recurrence for t_k.
    """
    tails = np.array([
        2.0 * quad(lambda x, k=k: _oscillator_wavefunction(k, x) ** 2,
                   half_width, np.inf, epsabs=1e-16, epsrel=1e-13, limit=400)[0]
        for k in range(n_max + 1)
    ])
    out = np.empty(n_max + 1)
    for n in range(n_max + 1):
        k = np.arange(n + 1)
        log_w = (gammaln(n + 1.0) - gammaln(k + 1.0) - gammaln(n - k + 1.0)
                 + k * np.log(eta) + (n - k) * np.log1p(-eta))
        out[n] = float(np.sum(np.exp(log_w) * tails[: n + 1]))
    return out


def em_unflushed(counts: np.ndarray, entries: np.ndarray, max_iter: int,
                 plateau_tol: float | None = None):
    """Plain EM from the flat start: (rho, final log-likelihood, iterations run).

    The iterate rho <- rho * A^T (p / A rho), renormalized by its sum, runs
    on the bins with counts exactly as the textbook loop writes it: every
    product is a fresh array, no buffer is reused, and entries that decay
    into subnormal floats are left in place rather than flushed to zero.
    Bins are used as given; nothing is folded.  With ``plateau_tol`` the
    loop stops at the first multiple of 100 iterations whose log-likelihood
    gain over the last 100 falls below it.  The rows keep the layout of
    ``entries`` (row- or column-major), which fixes the summation order of
    both products.  It calls nothing in ``emtomo.em``.
    """
    p = counts / counts.sum()
    active = p > 0
    a_act = entries[active]
    if np.isfortran(entries):
        a_act = np.asfortranarray(a_act)
    p_act = p[active]
    dim = entries.shape[1]
    rho = np.full(dim, 1.0 / dim)
    last = float(p_act @ np.log(a_act @ rho))
    for it in range(1, max_iter + 1):
        rho = rho * (a_act.T @ (p_act / (a_act @ rho)))
        rho /= rho.sum()
        if plateau_tol is not None and it % 100 == 0:
            cur = float(p_act @ np.log(a_act @ rho))
            if cur - last < plateau_tol:
                break
            last = cur
    return rho, float(p_act @ np.log(a_act @ rho)), it


def mirror_rows(rows: np.ndarray, bin_count: int) -> np.ndarray:
    """Kernel rows of all bins from the rows of |x|: a lower bin takes its mirror's row."""
    return np.concatenate((rows[::-1][: bin_count // 2], rows))


def shifted_per_sample(thetas, xs, eta, q, p):
    """x - sqrt(eta)(q cos theta + p sin theta), with cos and sin evaluated at
    every sample (no grouping of equal phases)."""
    return xs - np.sqrt(eta) * (q * np.cos(thetas) + p * np.sin(thetas))


def shifted_histogram_per_sample(thetas, xs, eta, q, p, x_max, bin_count):
    """Counts in the bins of |x| of a grid on [-x_max, x_max], and overflow,
    of the :func:`shifted_per_sample` values.

    Each sample is tested on its own: |x| <= x_max lands in row
    floor(|x| (bin_count / (2 x_max)) + (bin_count mod 2) / 2), clamped to
    the last row, and anything else, NaN included, counts as overflow.  It
    calls nothing in ``emtomo.fock_kernel`` or ``emtomo.homodyne``.
    """
    x = np.abs(shifted_per_sample(thetas, xs, eta, q, p))
    rows = bin_count - bin_count // 2
    inside = x <= x_max
    idx = np.floor(x[inside] * (bin_count / (2.0 * x_max)) + 0.5 * (bin_count % 2))
    counts = np.zeros(rows, dtype=np.int64)
    np.add.at(counts, np.minimum(idx.astype(np.int64), rows - 1), 1)
    return counts, int(np.count_nonzero(~inside))


def draws_in_draw_order(u: np.ndarray, cdf: np.ndarray, grid: np.ndarray) -> np.ndarray:
    """Uniform draws mapped through a sampler's CDF table, looked up in the
    order they were drawn: np.interp(u * cdf[-1], cdf, grid) on unsorted u."""
    return np.interp(u * cdf[-1], cdf, grid)


def load_record_text_per_line(path: str) -> HomodyneRecord:
    """A text record parsed one line at a time with ``float``; the reference
    that ``load_record_text`` must match in record and error message."""
    header: dict[str, str] = {}
    thetas: list[float] = []
    xs: list[float] = []
    # As in the binary reader's source field, undecodable bytes become U+FFFD,
    # so they fail to parse as numbers instead of raising UnicodeDecodeError.
    with open(path, "r", encoding="utf-8", errors="replace") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            # a header's value may hold commas (a cat state's source label)
            if "=" in line and "," not in line.partition("=")[0]:
                key, _, value = line.partition("=")
                header[key.strip()] = value.strip()
                continue
            parts = line.split(",")
            if len(parts) != 2:
                raise FileFormatError(f"{path}:{lineno}: expected 'theta,x', got {line!r}")
            try:
                thetas.append(float(parts[0]))
                xs.append(float(parts[1]))
            except ValueError as exc:
                raise FileFormatError(f"{path}:{lineno}: {exc}") from exc
    for key in ("eta", "seed"):
        if key not in header:
            raise FileFormatError(f"{path}: missing {key}= header")
    try:
        eta = float(header["eta"])
        seed = int(header["seed"])
    except ValueError as exc:
        raise FileFormatError(f"{path}: malformed header: {exc}") from exc
    try:
        return HomodyneRecord(eta=eta, thetas=np.asarray(thetas), xs=np.asarray(xs),
                              seed=seed, source=header.get("source", ""))
    except ValidationError as exc:
        raise FileFormatError(f"{path}: {exc}") from exc
