"""Expectation-maximization recovery of photon-number distributions.

Given a histogram of (phase-averaged, shifted) quadrature samples with bin
frequencies p_nu and a kernel A[nu][n] of bin-integrated n-photon densities,
the iteration

    rho_n  <-  rho_n * sum_nu A[nu][n] p_nu / (A rho)_nu

increases the log-likelihood  L(rho) = sum_nu p_nu ln (A rho)_nu  at every
step and converges to the maximum-likelihood photon-number distribution.
Bins with zero counts drop out of the update, and each iterate is
renormalized by its own sum to absorb the small probability the kernel
columns lose to the finite bin range.

The update is multiplicative, so photon levels the data does not support
shrink geometrically and, after a few hundred iterations, fall below the
smallest normal float (``np.finfo(float).tiny``, about 2.2e-308).  Products
with such subnormal entries are many times slower on common CPUs, so each
renormalized iterate flushes them to exactly 0.0.  A flushed entry times a
kernel value (at most 1) adds less than half an ulp to every model value
(A rho)_nu, to the iterate's sum and to the parity sum of a Wigner value,
so those, every log-likelihood and every later normal entry come out
bit-identical to the unflushed iteration, as long as no flushed level would
have grown back to a normal float.  That is not guaranteed in general (the
update scales an entry by its gradient over the iterate's sum, which can
exceed 1); ``tests/test_bit_identity.py`` checks it against the unflushed
loop on the criterion-5 record.

On a symmetric grid (x_min == -x_max) the kernel rows of mirror bins nu and
B-1-nu are bit-identical, and the phase-averaged model is even in x, so both
bins share one model value.  EM therefore adds the counts of each mirror pair
into the upper-half row (an odd grid's middle bin straddles 0 and is its own
mirror) and runs on half the bins: only the order of floating-point sums
changes, not the likelihood or the update.  EM refuses any other grid.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    CutoffTooLargeError,
    EmptyHistogramError,
    ModelZeroError,
    ValidationError,
)
from .fock_kernel import BinGrid, KernelMatrix

# Cadence (in iterations) of the log-likelihood trace and of the plateau
# test, which compares log-likelihood gains across windows of this many
# iterations.
PLATEAU_WINDOW = 100

# Iterate entries below this (the smallest normal float) are set to zero.
_TINY = np.finfo(float).tiny


@dataclass
class Histogram:
    """Binned quadrature samples.

    ``overflow`` counts samples that fell outside the grid and were dropped;
    it is carried along so downstream guards can reject reconstructions that
    lost too much data.
    """

    grid: BinGrid
    counts: np.ndarray
    overflow: int = 0

    def __post_init__(self):
        counts = np.asarray(self.counts)
        if counts.shape != (self.grid.bin_count,):
            raise ValidationError(
                f"counts shape {counts.shape} does not match {self.grid.bin_count} bins"
            )
        if np.any(counts < 0):
            raise ValidationError("histogram counts must be non-negative")
        self.counts = counts.astype(np.int64)
        self.overflow = int(self.overflow)

    @classmethod
    def from_samples(cls, grid: BinGrid, samples) -> "Histogram":
        counts, overflow = grid.counts_in_place(np.array(samples, dtype=float).ravel())
        return cls(grid=grid, counts=counts, overflow=overflow)

    @property
    def total(self) -> int:
        return int(self.counts.sum())


@dataclass
class PhotonDistribution:
    """A photon-number probability vector rho_0 .. rho_n_max."""

    probs: np.ndarray
    atol: float = 1e-12

    def __post_init__(self):
        probs = np.asarray(self.probs, dtype=float)
        if probs.ndim != 1 or probs.size == 0:
            raise ValidationError("photon distribution must be a nonempty vector")
        if not np.all(np.isfinite(probs)):
            raise ValidationError("photon distribution contains non-finite entries")
        if np.any(probs < 0):
            raise ValidationError("photon distribution has negative entries")
        if abs(probs.sum() - 1.0) > self.atol:
            raise ValidationError(
                f"photon distribution sums to {probs.sum()!r}, outside tolerance {self.atol}"
            )
        self.probs = probs

    def mean(self) -> float:
        return float(np.arange(self.probs.size) @ self.probs)


@dataclass
class EmDiagnostics:
    """Progress record of one EM run."""

    iterations_run: int
    trace_iterations: np.ndarray
    loglik_trace: np.ndarray
    final_loglik: float
    stop_reason: str  # "plateau" or "max-iterations"
    renorm_correction: float = 0.0  # largest |1 - sum| absorbed by renormalization


def _check_model(model: np.ndarray) -> None:
    """Raise :class:`ModelZeroError` unless every model value is positive.

    A NaN compares false and is caught too; an empty model (no bin with
    counts) passes.
    """
    if not model.min(initial=np.inf) > 0.0:
        raise ModelZeroError("model density vanishes on a bin with observed counts")


def _log_likelihood(a_act: np.ndarray, p_act: np.ndarray, rho: np.ndarray) -> float:
    """L = sum_nu p_nu ln (A rho)_nu over the bins with counts."""
    model = a_act @ rho
    _check_model(model)
    return float(p_act @ np.log(model))


def _em_iterate(a_act: np.ndarray, p_act: np.ndarray, rho: np.ndarray,
                model: np.ndarray, grad: np.ndarray) -> float:
    """Advance ``rho`` by one EM update in place; return its sum before renormalizing.

    ``a_act`` and ``p_act`` hold the kernel rows and frequencies of the bins
    with counts; ``model`` (one entry per such bin) and ``grad`` (one per
    photon level) are scratch buffers the caller reuses across iterations.
    Entries that fall below the smallest normal float are flushed to zero
    (see the module docstring for when that is exact).
    """
    np.dot(a_act, rho, out=model)
    # with no bins at all the update annihilates rho; the sum check reports it
    _check_model(model)
    np.divide(p_act, model, out=model)
    np.dot(a_act.T, model, out=grad)
    rho *= grad
    s = rho.sum()
    if not s > 0:
        raise ModelZeroError("update annihilated the distribution")
    rho /= s
    rho[rho < _TINY] = 0.0
    return float(s)


def reconstruct_photon_distribution(
    hist: Histogram,
    kernel: KernelMatrix,
    *,
    max_iter: int = 10_000,
    plateau_tol: float | None = None,
) -> tuple[PhotonDistribution, EmDiagnostics]:
    """Run EM from the flat start until plateau or the iteration budget.

    Parameters
    ----------
    hist, kernel
        Binned data and the matching response matrix (one symmetric grid).
    max_iter : int
        Iteration budget.
    plateau_tol : float or None
        If a float, stop once the log-likelihood gain over the trailing
        ``PLATEAU_WINDOW``-iteration window drops below it.  ``None``
        (default) disables the plateau rule and always runs ``max_iter``
        iterations, which is the right mode for reproducing fixed-iteration
        published runs.

    Returns
    -------
    (PhotonDistribution, EmDiagnostics)
        The diagnostic trace holds the log-likelihood at iteration 0, every
        ``PLATEAU_WINDOW`` iterations and the last iteration; the plateau
        rule compares its last two window entries.

    Notes
    -----
    The flat start is deliberate and not configurable: the update rescales
    each rho_n multiplicatively, so any entry started at zero stays zero
    forever.
    """
    if hist.grid != kernel.grid:
        raise ValidationError("histogram and kernel use different bin grids")
    if kernel.grid.x_min != -kernel.grid.x_max:
        raise ValidationError(f"EM needs a symmetric bin grid (x_min = -x_max), got {kernel.grid}")
    if max_iter < 1:
        raise ValidationError(f"max_iter must be >= 1, got {max_iter}")
    if hist.total == 0:
        raise EmptyHistogramError("histogram holds no counts")
    # Fold mirror bins into the upper half, from bin B // 2 up (module docstring).
    bins, half = kernel.grid.bin_count, kernel.grid.bin_count // 2
    counts = hist.counts[half:].copy()
    counts[bins - 2 * half:] += hist.counts[:half][::-1]
    p = counts / hist.total
    active = p > 0
    a_act = np.ascontiguousarray(kernel.entries[half:][active])
    p_act = p[active]
    dim = kernel.n_max + 1
    rho = np.full(dim, 1.0 / dim)
    trace_its = [0]
    trace_ll = [_log_likelihood(a_act, p_act, rho)]
    worst_renorm = 0.0
    stop_reason = "max-iterations"
    it = 0
    model = np.empty(p_act.size)
    grad = np.empty(dim)
    while it < max_iter:
        it += 1
        s = _em_iterate(a_act, p_act, rho, model, grad)
        worst_renorm = max(worst_renorm, abs(1.0 - s))
        at_window = it % PLATEAU_WINDOW == 0
        if not (at_window or it == max_iter):
            continue
        trace_its.append(it)
        trace_ll.append(_log_likelihood(a_act, p_act, rho))
        if at_window and plateau_tol is not None and trace_ll[-1] - trace_ll[-2] < plateau_tol:
            stop_reason = "plateau"
            break
    diag = EmDiagnostics(
        iterations_run=it,
        trace_iterations=np.asarray(trace_its, dtype=np.int64),
        loglik_trace=np.asarray(trace_ll, dtype=float),
        final_loglik=trace_ll[-1],
        stop_reason=stop_reason,
        renorm_correction=worst_renorm,
    )
    return PhotonDistribution(rho), diag


def default_cutoff(localization_radius: float) -> int:
    """Photon-number cutoff that covers a phase-space disc of given radius.

    A state localized within radius r of the origin (in the convention where
    a coherent state alpha sits at (sqrt(2) Re alpha, sqrt(2) Im alpha)) has
    negligible support above n = r^2 / 2, so the cutoff is ceil(r^2 / 2).  A
    relative epsilon keeps radii that land exactly on a ring (r = sqrt(2n))
    from rounding one level up through floating-point noise.
    """
    r = float(localization_radius)
    if not (np.isfinite(r) and r > 0):
        raise ValidationError(f"localization radius must be positive, got {r}")
    half_sq = 0.5 * r * r
    if not np.isfinite(half_sq):
        raise CutoffTooLargeError(f"localization radius {r:g} gives no finite cutoff")
    return int(math.ceil(half_sq - 1e-12 * max(1.0, half_sq)))
