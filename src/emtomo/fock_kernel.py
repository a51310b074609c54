"""Fock-state quadrature densities and binned measurement kernels.

Conventions
-----------
Quadratures are scaled so the vacuum variance is 1/2, i.e. the harmonic
oscillator eigenfunctions are

    psi_n(x) = (2^n n! sqrt(pi))^{-1/2} H_n(x) exp(-x^2/2),

and a Fock state |n> has quadrature support out to roughly sqrt(2n+1).
With detection efficiency ``eta`` the n-photon quadrature density becomes a
binomial mixture of ideal densities,

    A_n(x) = sum_k C(n,k) eta^k (1-eta)^{n-k} psi_k(x)^2,

which is the one form the package computes.  The equivalent
Gaussian-smearing form (convolving psi_n(x/sqrt(eta))^2 with a normal kernel
of variance (1-eta)/2) is an arbiter, so it lives with the other independent
routes in ``tests/reference_routes.py``.  :func:`fock_wavefunctions` is the
one psi recurrence here; the densities, the bin integrals and the phase
densities of :mod:`emtomo.homodyne` all evaluate it.

A :class:`KernelMatrix` collects per-bin integrals A[nu][n] of A_n over a
uniform :class:`BinGrid`; these are the response matrices consumed by the
expectation-maximization reconstruction.  Their bin integrals are exact
differences of an erfc-based upper-tail recurrence; no quadrature is involved.
"""

from __future__ import annotations

import logging
import numbers
import os
import struct
from dataclasses import dataclass, field
from typing import BinaryIO, Callable

import numpy as np
from scipy.special import erfc
from scipy.stats import binom

from .errors import ColumnDeficitError, CutoffTooLargeError, FileFormatError, ValidationError

logger = logging.getLogger(__name__)

# Above this the recurrence is still finite but callers almost certainly
# passed a nonsense cutoff; refuse instead of burning memory.
MAX_FOCK_N = 10_000

# Largest share of its mass a kernel column may lose to the finite bin range
# before a build or a cache hit is refused.
DEFAULT_MAX_COLUMN_DEFICIT = 1e-6

_KERNEL_MAGIC = b"EMTKERN1"
_KERNEL_VERSION = 1
_KERNEL_HEADER = struct.Struct("<8sIIddqqd8x")  # 64 bytes


def _check_order_n(n: int) -> int:
    if not isinstance(n, (int, np.integer)):
        raise ValidationError(f"photon number must be an integer, got {n!r}")
    if n < 0:
        raise ValidationError(f"photon number must be >= 0, got {n}")
    if n > MAX_FOCK_N:
        raise CutoffTooLargeError(
            f"photon number {n} exceeds the supported maximum {MAX_FOCK_N}"
        )
    return int(n)


def fock_wavefunctions(n_max: int, x) -> np.ndarray:
    """Evaluate psi_0 .. psi_n_max at the given quadrature values.

    Parameters
    ----------
    n_max : int
        Highest photon number to evaluate (inclusive).
    x : array_like
        Quadrature values; any shape.

    Returns
    -------
    ndarray
        Array of shape ``(n_max + 1,) + shape(x)`` with psi_n along axis 0.

    Notes
    -----
    Uses the stable three-term recurrence

        psi_n = sqrt(2/n) x psi_{n-1} - sqrt((n-1)/n) psi_{n-2},

    never forming Hermite polynomial coefficients, so it stays accurate and
    overflow-free for large n.  The recurrence maps x -> -x to an exact sign
    flip, so psi_n(-x) == (-1)^n psi_n(x) holds bit-for-bit.
    """
    n_max = _check_order_n(n_max)
    xs = np.asarray(x, dtype=float)
    if not np.all(np.isfinite(xs)):
        raise ValidationError("quadrature values must be finite")
    out = np.empty((n_max + 1,) + xs.shape, dtype=float)
    out[0] = np.pi ** (-0.25) * np.exp(-0.5 * xs * xs)
    if n_max >= 1:
        out[1] = np.sqrt(2.0) * xs * out[0]
    for n in range(2, n_max + 1):
        out[n] = np.sqrt(2.0 / n) * xs * out[n - 1] - np.sqrt((n - 1) / n) * out[n - 2]
    return out


def _binomial_mixture_matrix(n_max: int, eta: float) -> np.ndarray:
    """Lower-triangular M with M[n, k] = C(n,k) eta^k (1-eta)^(n-k)."""
    ns = np.arange(n_max + 1)
    return binom.pmf(ns[None, :], ns[:, None], eta)


def _check_eta(eta) -> float:
    """The one efficiency check: a real number (not a bool) in (0, 1]."""
    if isinstance(eta, bool) or not isinstance(eta, numbers.Real):
        raise ValidationError(f"efficiency must be a number, got {eta!r}")
    eta = float(eta)
    if not 0.0 < eta <= 1.0:
        raise ValidationError(f"efficiency must lie in (0, 1], got {eta}")
    return eta


def lossy_fock_quadrature_density(n: int, x, eta: float):
    """Quadrature density of Fock state |n> detected with efficiency eta.

    Computed as the binomial mixture sum_k C(n,k) eta^k (1-eta)^(n-k)
    psi_k(x)^2; for eta == 1 the weights are exactly 0 and 1, so this
    reduces to psi_n(x)^2 exactly.
    """
    n = _check_order_n(n)
    eta = _check_eta(eta)
    psi2 = fock_wavefunctions(n, x) ** 2
    weights = binom.pmf(np.arange(n + 1), n, eta)
    out = np.tensordot(weights, psi2, axes=(0, 0))
    return out if np.ndim(x) else float(out)


@dataclass(frozen=True)
class BinGrid:
    """Uniform binning of a quadrature interval.

    ``edges`` are built as center + (k - bin_count/2) * width, which makes a
    symmetric grid (x_min == -x_max) mirror-exact in floating point; several
    symmetry invariants of the kernel rely on that.
    """

    x_min: float
    x_max: float
    bin_count: int

    def __post_init__(self):
        object.__setattr__(self, "x_min", float(self.x_min))
        object.__setattr__(self, "x_max", float(self.x_max))
        if not (np.isfinite(self.x_min) and np.isfinite(self.x_max)):
            raise ValidationError("bin range must be finite")
        if not self.x_max > self.x_min:
            raise ValidationError(
                f"empty bin range: x_min={self.x_min}, x_max={self.x_max}"
            )
        if int(self.bin_count) < 1:
            raise ValidationError(f"bin_count must be >= 1, got {self.bin_count}")
        object.__setattr__(self, "bin_count", int(self.bin_count))

    @property
    def width(self) -> float:
        return (self.x_max - self.x_min) / self.bin_count

    @property
    def edges(self) -> np.ndarray:
        center = 0.5 * (self.x_min + self.x_max)
        offsets = (np.arange(self.bin_count + 1) - 0.5 * self.bin_count) * self.width
        return center + offsets

    def counts_in_place(self, buf: np.ndarray) -> tuple[np.ndarray, int]:
        """Per-bin counts and overflow of the float64 samples in ``buf``.

        A sample in [x_min, x_max] lands in bin floor((x - x_min) / width),
        clamped to the last bin: x_max itself, and samples just below it
        whose scaled offset rounds up to ``bin_count``, belong there.
        Samples outside the range, NaN included, count as overflow.  The
        bins are computed in ``buf``, whose contents are destroyed; the
        outside samples go to one spill bin past the grid, so a single
        bincount yields both results.
        """
        outside = ~((buf >= self.x_min) & (buf <= self.x_max))
        buf -= self.x_min
        buf /= self.width
        # In range buf >= 0, so the integer cast below truncates like floor.
        np.minimum(buf, self.bin_count - 1, out=buf)
        buf[outside] = self.bin_count
        counts = np.bincount(buf.astype(np.int64), minlength=self.bin_count + 1)
        return counts[:-1], int(counts[-1])


@dataclass(frozen=True)
class KernelMatrix:
    """Bin-integrated lossy Fock densities A[nu][n] on a :class:`BinGrid`."""

    grid: BinGrid
    n_max: int
    eta: float
    entries: np.ndarray  # shape (bin_count, n_max + 1)
    column_deficits: np.ndarray = field(init=False)  # 1 - column sums, shape (n_max + 1,)

    def __post_init__(self):
        expected = (self.grid.bin_count, self.n_max + 1)
        if self.entries.shape != expected:
            raise ValidationError(
                f"kernel entries shape {self.entries.shape} != {expected}"
            )
        object.__setattr__(self, "column_deficits", 1.0 - self.entries.sum(axis=0))


def _ideal_bin_integrals(grid: BinGrid, n_max: int) -> np.ndarray:
    """Exact per-bin integrals of psi_n^2, shape (bins, n_max+1).

    The upper tail G_n(x) = int_x^inf psi_n^2 obeys G_0 = erfc(x)/2 and
    G_n = G_{n-1} + psi_n psi_{n-1} / sqrt(2n).  A bin [a, b] holds
    G(a) - G(b) for a >= 0, G(|b|) - G(|a|) for b <= 0 and 1 - G(|a|) - G(b)
    when it straddles 0.  Only |edges| enter, so no tail is found by
    subtracting from 1 and mirror bins of a symmetric grid get bit-identical
    rows.
    """
    edges = grid.edges
    x = np.abs(edges)
    psi = fock_wavefunctions(n_max, x)
    tails = np.empty_like(psi)
    tails[0] = 0.5 * erfc(x)
    tails[1:] = psi[1:] * psi[:-1] / np.sqrt(2.0 * np.arange(1, n_max + 1))[:, None]
    np.cumsum(tails, axis=0, out=tails)  # row n is G_n
    left, right = tails[:, :-1], tails[:, 1:]
    out = np.where(edges[:-1] >= 0.0, left - right, right - left)
    straddle = (edges[:-1] < 0.0) & (edges[1:] > 0.0)
    out[:, straddle] = 1.0 - left[:, straddle] - right[:, straddle]
    return out.T


def build_kernel_matrix(
    grid: BinGrid,
    n_max: int,
    eta: float,
    *,
    max_column_deficit: float | None = DEFAULT_MAX_COLUMN_DEFICIT,
) -> KernelMatrix:
    """Integrate the lossy Fock densities over every bin of a grid.

    The bin integrals of psi_k^2 are exact (:func:`_ideal_bin_integrals`)
    and the lossy columns are their binomial mixtures.

    Parameters
    ----------
    grid : BinGrid
        Uniform quadrature binning.
    n_max : int
        Largest photon number (columns run 0 .. n_max).
    eta : float
        Detection efficiency in (0, 1].
    max_column_deficit : float or None
        Refuse (raise :class:`ColumnDeficitError`) if any column sums to less
        than ``1 - max_column_deficit``: the reconstruction silently loses
        probability when the grid does not cover the cutoff's support.  Pass
        ``None`` to skip the check, e.g. to reproduce published runs whose
        grid clips the highest columns.

    Returns
    -------
    KernelMatrix
    """
    n_max = _check_order_n(n_max)
    eta = _check_eta(eta)
    ideal = _ideal_bin_integrals(grid, n_max)
    entries = ideal @ _binomial_mixture_matrix(n_max, eta).T
    kernel = KernelMatrix(grid=grid, n_max=n_max, eta=eta, entries=entries)
    _check_column_deficits(kernel, max_column_deficit)
    return kernel


def _check_column_deficits(kernel: KernelMatrix, max_column_deficit: float | None) -> None:
    """Raise :class:`ColumnDeficitError` if a column lost more than allowed.

    Both a freshly built kernel and a cached one pass through here, so a
    cache written without the guard cannot get round it.  ``None`` skips
    the check.
    """
    if max_column_deficit is None:
        return
    deficits = kernel.column_deficits
    worst = int(np.argmax(deficits))
    if deficits[worst] > max_column_deficit:
        raise ColumnDeficitError(
            f"kernel column n={worst} sums to {1.0 - deficits[worst]:.6g} "
            f"(deficit {deficits[worst]:.3g} > {max_column_deficit:.3g}); "
            "widen the bin range or lower the cutoff"
        )


def _write_atomically(path: str, write: Callable[[BinaryIO], object]) -> None:
    """Replace ``path`` with what ``write`` puts in a binary file handle.

    ``write`` fills a temporary file in the same directory, which then
    replaces ``path``.  A reader sees the old file or the new one, never a
    partial write; a failure leaves the old file intact and removes the
    temporary file.
    """
    tmp = f"{path}.{os.getpid()}.tmp"
    try:
        with open(tmp, "wb") as fh:
            write(fh)
        os.replace(tmp, path)
    finally:
        if os.path.exists(tmp):
            os.remove(tmp)


def save_kernel(path: str, kernel: KernelMatrix) -> None:
    """Write a kernel to the binary cache format.

    Layout: a 64-byte little-endian header (magic ``EMTKERN1``, version,
    flags, x_min, x_max, bin_count, n_max, eta) followed by the entries as
    row-major float64.
    """
    header = _KERNEL_HEADER.pack(
        _KERNEL_MAGIC,
        _KERNEL_VERSION,
        0,
        kernel.grid.x_min,
        kernel.grid.x_max,
        kernel.grid.bin_count,
        kernel.n_max,
        kernel.eta,
    )
    data = header + np.ascontiguousarray(kernel.entries, dtype="<f8").tobytes()
    _write_atomically(path, lambda fh: fh.write(data))


def load_kernel(path: str) -> KernelMatrix:
    """Read a kernel cache file written by :func:`save_kernel`."""
    with open(path, "rb") as fh:
        header = fh.read(_KERNEL_HEADER.size)
        if len(header) != _KERNEL_HEADER.size:
            raise FileFormatError(f"{path}: truncated kernel header")
        magic, version, _flags, x_min, x_max, bins, n_max, eta = _KERNEL_HEADER.unpack(header)
        if magic != _KERNEL_MAGIC:
            raise FileFormatError(f"{path}: not a kernel cache file")
        if version != _KERNEL_VERSION:
            raise FileFormatError(f"{path}: unsupported kernel version {version}")
        raw = fh.read()
    if bins < 1 or n_max < 0:
        raise FileFormatError(f"{path}: invalid kernel dimensions {bins} x {n_max + 1}")
    if len(raw) != 8 * bins * (n_max + 1):
        raise FileFormatError(
            f"{path}: expected {8 * bins * (n_max + 1)} bytes of entries, found {len(raw)}"
        )
    entries = np.frombuffer(raw, dtype="<f8").reshape(bins, n_max + 1).astype(float)
    if not np.all(np.isfinite(entries)):
        raise FileFormatError(f"{path}: kernel entries contain non-finite values")
    try:
        grid = BinGrid(x_min, x_max, bins)
    except ValidationError as exc:
        raise FileFormatError(f"{path}: {exc}") from exc
    return KernelMatrix(grid=grid, n_max=int(n_max), eta=float(eta), entries=entries)


def load_or_build_kernel(
    path: str | None,
    grid: BinGrid,
    n_max: int,
    eta: float,
    *,
    max_column_deficit: float | None = DEFAULT_MAX_COLUMN_DEFICIT,
) -> KernelMatrix:
    """Fetch a kernel from a cache file, rebuilding on miss or key mismatch.

    ``max_column_deficit`` guards a cache hit exactly as it guards a build.
    """
    if path is None:
        return build_kernel_matrix(grid, n_max, eta, max_column_deficit=max_column_deficit)
    if os.path.exists(path):
        try:
            cached = load_kernel(path)
        except FileFormatError:
            logger.warning("kernel cache %s unreadable; rebuilding", path)
        else:
            if (
                cached.grid == grid
                and cached.n_max == n_max
                and cached.eta == float(eta)
            ):
                logger.debug("kernel cache hit: %s", path)
                _check_column_deficits(cached, max_column_deficit)
                return cached
            logger.info("kernel cache %s keyed differently; rebuilding", path)
    kernel = build_kernel_matrix(grid, n_max, eta, max_column_deficit=max_column_deficit)
    save_kernel(path, kernel)
    return kernel
