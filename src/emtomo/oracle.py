"""Reconstruction-independent reference values for validating the pipeline.

Everything here is computed directly from the density matrix, never from
histograms or EM output, so these values can arbitrate whether a
reconstruction is right.  The central object is the photon-number
distribution of the displaced state,

    rho_n(q, p) = <n| D(beta)^dag rho D(beta) |n>,    beta = (q + i p)/sqrt(2),

from which every s-ordered quasi-probability follows as one weighted sum
(Cahill & Glauber, Phys. Rev. 177, 1882 (1969)),

    P(q, p; -s) = sum_n ((s - 1)/(s + 1))^n rho_n(q, p) / (pi (1 + s)),

whose s = 0 case is the Wigner function W = (1/pi) sum_n (-1)^n rho_n.  That
sum is formed in one place, behind :func:`wigner_exact`,
:func:`wigner_exact_grid`, :func:`oracle_wigner_grid` and
:func:`s_ordered_quasidistribution`.  Phase-space coordinates are scaled so a
coherent state alpha is centered at (sqrt(2) Re alpha, sqrt(2) Im alpha) and
the vacuum Wigner function is exp(-q^2-p^2)/pi.

Displacement matrix elements use the associated-Laguerre closed form

    <m|D(beta)|n> = sqrt(n!/m!) beta^{m-n} e^{-|beta|^2/2} L_n^{(m-n)}(|beta|^2)

(for m >= n; the transpose-conjugate relation covers m < n) with the
factorial ratio evaluated through gammaln.  The textbook two-term
recurrences in m or n look cheaper but shed digits catastrophically beyond
|beta| of about 2 at the block sizes needed here, while this form stays at
machine precision (it is cross-checked against a matrix exponential in the
test suite).
"""

from __future__ import annotations

import numpy as np
from scipy.special import eval_genlaguerre, gammaln

from .em import PhotonDistribution
from .errors import TruncationError, ValidationError
from .fock_kernel import _check_order_n
from .homodyne import StateSpec
from .pipeline import WignerGrid

# Displaced-distribution mass allowed above the cutoff before refusing.
DISPLACED_TAIL_TOL = 1e-8


def _displacement_blocks(betas: np.ndarray, rows: int, cols: int) -> np.ndarray:
    """Blocks <m|D(beta)|n>, m < rows, n < cols, for each entry of ``betas``.

    Returns shape (len(betas), rows, cols).  The one builder of displacement
    blocks: the displaced distributions call it.
    """
    m = np.arange(rows)[:, None]
    n = np.arange(cols)[None, :]
    lo = np.minimum(m, n)
    hi = np.maximum(m, n)
    k = hi - lo
    log_ratio = 0.5 * (gammaln(lo + 1.0) - gammaln(hi + 1.0))
    x = np.abs(betas) ** 2
    lag = eval_genlaguerre(lo[None, :, :], k[None, :, :], x[:, None, None])
    mag = np.exp(log_ratio[None, :, :] - 0.5 * x[:, None, None]) * lag
    base = np.where(m[None, :, :] >= n[None, :, :], betas[:, None, None],
                    -np.conj(betas)[:, None, None])
    blocks = mag * base ** k[None, :, :]
    blocks[betas == 0] = np.eye(rows, cols)
    return blocks


def _displaced_diagonals(state: StateSpec, qs: np.ndarray, ps: np.ndarray,
                         n_max: int) -> tuple[np.ndarray, np.ndarray]:
    """Displaced photon distributions for a batch of phase-space points.

    Returns (probs, tails): probs has shape (len(qs), n_max + 1), tails the
    probability above the cutoff at each point (can be tiny-negative from
    rounding).
    """
    qs = np.asarray(qs, dtype=float).ravel()
    ps = np.asarray(ps, dtype=float).ravel()
    if qs.shape != ps.shape:
        raise ValidationError("q and p batches must have equal length")
    if not (np.all(np.isfinite(qs)) and np.all(np.isfinite(ps))):
        raise ValidationError("phase-space points must be finite")
    n_max = _check_order_n(n_max)
    d = state.dim
    cols = n_max + 1
    probs = np.empty((qs.size, cols))
    tails = np.empty(qs.size)
    # Chunked so the (points, d, cols) Laguerre workspace stays modest.
    chunk = max(1, int(2_000_000 / (d * cols)))
    for start in range(0, qs.size, chunk):
        qb = qs[start : start + chunk]
        pb = ps[start : start + chunk]
        blocks = _displacement_blocks((qb + 1j * pb) / np.sqrt(2.0), d, cols)
        # rho_n = (column n)^dag rho (column n)
        probs[start : start + chunk] = np.einsum(
            "pmn,mk,pkn->pn", blocks.conj(), state.rho, blocks
        ).real
        tails[start : start + chunk] = 1.0 - probs[start : start + chunk].sum(axis=1)
    return probs, tails


def _refuse_tails(qs, ps, tails: np.ndarray, n_max: int) -> None:
    """Raise :class:`TruncationError`, naming the worst point, when a tail
    exceeds ``DISPLACED_TAIL_TOL``."""
    at = int(np.argmax(tails))
    if tails[at] > DISPLACED_TAIL_TOL:
        q, p = np.ravel(qs)[at], np.ravel(ps)[at]
        raise TruncationError(
            f"displaced distribution at (q={q:g}, p={p:g}) leaves {tails[at]:.3g} "
            f"above n_max={n_max}; raise the cutoff"
        )


def displaced_photon_distribution(
    state: StateSpec, q: float, p: float, n_max: int,
) -> tuple[PhotonDistribution, float]:
    """Photon statistics of the state displaced to center (q, p) at origin.

    Returns the distribution over 0..n_max together with the probability
    mass above the cutoff.  Raises :class:`TruncationError` when that tail
    exceeds ``DISPLACED_TAIL_TOL``; the distribution is left un-renormalized
    (the tail is part of the answer, not an error to hide).
    """
    probs, tails = _displaced_diagonals(state, [q], [p], n_max)
    _refuse_tails([q], [p], tails, n_max)
    dist = PhotonDistribution(np.clip(probs[0], 0.0, None), atol=10.0 * DISPLACED_TAIL_TOL)
    return dist, max(float(tails[0]), 0.0)


def _quasi_and_tails(state: StateSpec, qs, ps, n_max: int,
                     s: float = 0.0) -> tuple[np.ndarray, np.ndarray]:
    """The oracle's one weighted sum P(q, p; -s), with the tails.

    s = 0 is the parity sum W = (1/pi) sum_n (-1)^n rho_n: its weights are
    exactly +-1 and its divisor exactly pi.  Callers decide what a tail
    above ``DISPLACED_TAIL_TOL`` means.
    """
    probs, tails = _displaced_diagonals(state, qs, ps, n_max)
    weights = ((s - 1.0) / (s + 1.0)) ** np.arange(n_max + 1)
    return (probs @ weights) / (np.pi * (1.0 + s)), tails


def wigner_exact(state: StateSpec, q: float, p: float, n_max: int) -> float:
    """Exact Wigner function value via the displaced parity expectation."""
    return float(wigner_exact_grid(state, [q], [p], n_max)[0])


def wigner_exact_grid(state: StateSpec, qs, ps, n_max: int) -> np.ndarray:
    """Vectorized :func:`wigner_exact`; raises :class:`TruncationError` on the worst tail."""
    values, tails = _quasi_and_tails(state, qs, ps, n_max)
    _refuse_tails(qs, ps, tails, n_max)
    return values


def oracle_wigner_grid(state: StateSpec, qs, ps, n_max: int) -> WignerGrid:
    """Exact Wigner values on a grid, shaped like a reconstruction result.

    Diagnostic columns carry zeros except rho_tail, which records the true
    probability the displaced distribution leaves above the cutoff.  Points
    whose tail exceeds ``DISPLACED_TAIL_TOL`` are not trustworthy at this
    cutoff; they come back NaN with a ``failures`` entry, mirroring how
    reconstruction grids fail soft.
    """
    qs = np.asarray(qs, dtype=float).ravel()
    ps = np.asarray(ps, dtype=float).ravel()
    qg, pg = np.meshgrid(qs, ps, indexing="ij")
    shape = qg.shape
    values, tails = _quasi_and_tails(state, qg.ravel(), pg.ravel(), n_max)
    values = values.reshape(shape)
    tails = np.clip(tails.reshape(shape), 0.0, None)
    untrusted = tails > DISPLACED_TAIL_TOL
    values[untrusted] = np.nan
    failures = {(int(i), int(j)): f"displaced tail {tails[i, j]:.3g} above n_max={n_max}"
                for i, j in zip(*np.nonzero(untrusted))}
    return WignerGrid(
        qs=qs, ps=ps, values=values,
        iterations=np.zeros(shape, dtype=np.int64),
        final_loglik=np.zeros(shape),
        overflow_fraction=np.zeros(shape),
        rho_tail=tails,
        failures=failures,
        meta={"kind": "oracle", "n_max": str(n_max)},
    )


def s_ordered_quasidistribution(
    state: StateSpec, q: float, p: float, s_abs: float, n_max: int,
) -> float:
    """Quasidistribution of negative order parameter -|s| at one point.

    The Wigner function smoothed by a Gaussian,

        P(q, p; -s) = (1/(pi s)) int W(q', p') exp(-((q-q')^2+(p-p')^2)/s),

    is the weighted sum of the displaced distribution at (q, p) itself, so
    the cutoff need only cover that point.  s_abs = 1 gives the Husimi
    function rho_0(q, p) / (2 pi); s_abs -> 0 approaches the Wigner
    function itself.
    """
    s = float(s_abs)
    if not (np.isfinite(s) and s > 0):
        raise ValidationError(f"s_abs must be positive, got {s_abs}")
    values, tails = _quasi_and_tails(state, [q], [p], n_max, s)
    _refuse_tails([q], [p], tails, n_max)
    return float(values[0])
