"""Homodyne measurement simulation for finite-dimensional states.

States are density matrices in the Fock basis (:class:`StateSpec`).  The
quadrature density at local-oscillator phase theta under detection
efficiency eta is

    h(x; theta) = sum_{m,n} (L_eta rho)_{mn} e^{i(n-m) theta} psi_m(x) psi_n(x),

where L_eta is the Fock-basis loss channel; equivalently the kernel of
Gaussian smearing applied to the scaled ideal density.  Sampling draws from
a tabulated density by inverse transform, with one child random stream per
phase so records are reproducible and per-phase streams are independent.
"""

from __future__ import annotations

import logging
import os
import struct
import warnings
from dataclasses import dataclass
from functools import partial
from itertools import chain

import numpy as np
from scipy.special import gammaln

from .em import Histogram
from .errors import (
    EmptyHistogramError,
    FileFormatError,
    TabulationRangeError,
    TruncationError,
    ValidationError,
)
from .fock_kernel import BinGrid, _check_eta, _write_atomically, fock_wavefunctions

logger = logging.getLogger(__name__)

_RECORD_MAGIC = b"EMTOREC1"
_RECORD_VERSION = 1
_RECORD_HEADER = struct.Struct("<8sIIdqq64s")

# Normalized population allowed above the truncation when building states.
STATE_TAIL_TOL = 1e-10
# Density mass allowed outside the tabulated sampling range.
TAB_TAIL_TOL = 1e-9
# Spacing of the sampling density table.
TAB_STEP = 1e-3
# Initial half-range of the sampling density table, before any widening.
TAB_RANGE = 8.0
# Sample lines a text record formats into one string per write.
_TEXT_LINES_PER_WRITE = 65536
# The ASCII separators, which numpy strips from a number and float() keeps
# unless the number holds a non-ASCII character.
_SEPARATORS = "\x1c\x1d\x1e\x1f"
# Samples the shifted histogram and the binary reader handle per slice.
_SLICE = 1 << 16


@dataclass
class StateSpec:
    """Density matrix in the Fock basis, validated on construction."""

    dim: int
    rho: np.ndarray

    def __post_init__(self):
        self.dim = int(self.dim)
        if self.dim < 1:
            raise ValidationError(f"state dimension must be >= 1, got {self.dim}")
        rho = np.asarray(self.rho, dtype=complex)
        if rho.shape != (self.dim, self.dim):
            raise ValidationError(
                f"density matrix shape {rho.shape} != ({self.dim}, {self.dim})"
            )
        if not np.all(np.isfinite(rho.view(float))):
            raise ValidationError("density matrix contains non-finite entries")
        if np.max(np.abs(rho - rho.conj().T)) > 1e-12:
            raise ValidationError("density matrix is not hermitian")
        if abs(np.trace(rho).real - 1.0) > 1e-10:
            raise ValidationError(f"density matrix trace {np.trace(rho).real!r} != 1")
        if np.min(np.linalg.eigvalsh(rho)) < -1e-10:
            raise ValidationError("density matrix has a negative eigenvalue")
        self.rho = rho


def _pure_state(amplitudes: np.ndarray, dim: int) -> StateSpec:
    """Truncate an amplitude vector to dim, guarding the discarded tail."""
    norm_sq = float(np.vdot(amplitudes, amplitudes).real)
    if norm_sq <= 0:
        raise ValidationError("state amplitudes vanish")
    tail = float(np.vdot(amplitudes[dim:], amplitudes[dim:]).real) / norm_sq
    if tail > STATE_TAIL_TOL:
        raise TruncationError(
            f"truncation to dim={dim} discards population {tail:.3g} "
            f"(> {STATE_TAIL_TOL:g}); raise dim"
        )
    c = amplitudes[:dim] / np.sqrt(np.vdot(amplitudes[:dim], amplitudes[:dim]).real)
    return StateSpec(dim=dim, rho=np.outer(c, c.conj()))


def vacuum_state(dim: int = 1) -> StateSpec:
    rho = np.zeros((dim, dim), dtype=complex)
    rho[0, 0] = 1.0
    return StateSpec(dim=dim, rho=rho)


def fock_state(n: int, dim: int | None = None) -> StateSpec:
    if n < 0:
        raise ValidationError(f"photon number must be >= 0, got {n}")
    if dim is None:
        dim = n + 1
    if n >= dim:
        raise TruncationError(f"Fock state |{n}> does not fit in dim={dim}")
    rho = np.zeros((dim, dim), dtype=complex)
    rho[n, n] = 1.0
    return StateSpec(dim=dim, rho=rho)


def _coherent_amplitudes(alpha: complex, count: int) -> np.ndarray:
    """c_n = exp(-|alpha|^2/2) alpha^n / sqrt(n!), evaluated in log space."""
    ns = np.arange(count)
    if alpha == 0:
        out = np.zeros(count, dtype=complex)
        out[0] = 1.0
        return out
    log_mag = -0.5 * abs(alpha) ** 2 + ns * np.log(abs(alpha)) - 0.5 * gammaln(ns + 1.0)
    return np.exp(log_mag) * np.exp(1j * ns * np.angle(alpha))


def coherent_state(alpha: complex, dim: int) -> StateSpec:
    """Coherent state |alpha> truncated to dim levels.

    dim should be at least |alpha|^2 + 10 sqrt(|alpha|^2 + 1); smaller values
    trip the truncation guard once the discarded Poisson tail exceeds 1e-10.
    """
    work = max(2 * dim, dim + 32)
    return _pure_state(_coherent_amplitudes(complex(alpha), work), dim)


def cat_state(alpha: complex, relative_phase: float, dim: int) -> StateSpec:
    """Superposition |alpha> + e^{i phi} |-alpha>, normalized and truncated.

    relative_phase = pi gives the odd cat (only odd photon numbers), 0 the
    even cat.
    """
    alpha = complex(alpha)
    phi = float(relative_phase)
    work = max(2 * dim, dim + 32)
    plus = _coherent_amplitudes(alpha, work)
    minus = _coherent_amplitudes(-alpha, work)
    amps = plus + np.exp(1j * phi) * minus
    if np.vdot(amps, amps).real < 1e-30:
        raise ValidationError(
            "cat amplitudes vanish (alpha=0 with relative_phase=pi has no content)"
        )
    return _pure_state(amps, dim)


def suggest_dim(kind: str, *, n: int | None = None, alpha: complex = 0j) -> int:
    """Truncation that keeps the state tail below the construction guard."""
    if kind == "vacuum":
        return 1
    if kind == "fock":
        return int(n) + 1
    mean = abs(alpha) ** 2
    return int(np.ceil(mean + 10.0 * np.sqrt(mean + 1.0))) + 1


def make_state(kind: str, dim: int | None = None, *, n: int | None = None,
               alpha: complex = 0j, relative_phase: float = 0.0) -> StateSpec:
    """Dispatch on a state-kind name; used by the command line layer."""
    if kind == "vacuum":
        return vacuum_state(dim if dim is not None else 1)
    if kind == "fock":
        if n is None:
            raise ValidationError("fock state needs a photon number n")
        return fock_state(int(n), dim)
    if dim is None:
        dim = suggest_dim(kind, alpha=alpha)
    if kind == "coherent":
        return coherent_state(alpha, dim)
    if kind == "cat":
        return cat_state(alpha, relative_phase, dim)
    raise ValidationError(f"unknown state kind {kind!r}")


def apply_loss_channel(state: StateSpec, eta: float) -> StateSpec:
    """Fock-basis beam-splitter loss of transmissivity eta.

    (L_eta rho)_{mn} = sum_k sqrt(C(m+k,k) C(n+k,k)) eta^{(m+n)/2} (1-eta)^k
    rho_{m+k, n+k}; trace is preserved to machine precision.
    """
    eta = _check_eta(eta)
    if eta == 1.0:
        return StateSpec(dim=state.dim, rho=state.rho.copy())
    d = state.dim
    g = gammaln(np.arange(d + 1) + 1.0)
    log_eta = np.log(eta)
    log_loss = np.log1p(-eta)
    out = np.zeros((d, d), dtype=complex)
    for k in range(d):
        m = np.arange(d - k)
        # sqrt(C(m+k, k)) eta^(m/2) (1-eta)^(k/2)
        v = np.exp(0.5 * (g[m + k] - g[m] - g[k]) + 0.5 * m * log_eta + 0.5 * k * log_loss)
        out[: d - k, : d - k] += np.outer(v, v) * state.rho[k:, k:]
    return StateSpec(dim=d, rho=out)


def _phase_density(rho: np.ndarray, theta: float, psi: np.ndarray) -> np.ndarray:
    """sum_{m,n} rho_mn e^{i(n-m) theta} psi_m psi_n at every column of ``psi``."""
    c = np.exp(1j * float(theta) * np.arange(rho.shape[0]))[:, None] * psi
    return np.einsum("mx,mx->x", c.conj(), rho @ c).real


def quadrature_density(state: StateSpec, theta: float, x, eta: float = 1.0):
    """Homodyne outcome density h(x; theta) at efficiency eta."""
    lossy = state if eta == 1.0 else apply_loss_channel(state, eta)
    xs = np.asarray(x, dtype=float)
    psi = fock_wavefunctions(lossy.dim - 1, xs.ravel())
    h = _phase_density(lossy.rho, theta, psi).reshape(xs.shape)
    return h if np.ndim(x) else float(h)


@dataclass
class HomodyneRecord:
    """Phase-tagged quadrature samples from one simulated (or real) run."""

    eta: float
    thetas: np.ndarray
    xs: np.ndarray
    seed: int
    source: str = ""

    def __post_init__(self):
        self.eta = _check_eta(self.eta)
        # reshape, unlike ravel, keeps a strided column (a text record's) a view
        thetas = np.asarray(self.thetas, dtype=float).reshape(-1)
        xs = np.asarray(self.xs, dtype=float).reshape(-1)
        if thetas.shape != xs.shape:
            raise ValidationError("thetas and xs must have equal length")
        if thetas.size == 0:
            raise ValidationError("record holds no samples")
        if not (np.all(np.isfinite(thetas)) and np.all(np.isfinite(xs))):
            raise ValidationError("record contains non-finite samples")
        self.thetas = thetas
        self.xs = xs
        self.seed = int(self.seed)

    @property
    def sample_count(self) -> int:
        return self.xs.size


def _tabulated_cdf(dens: np.ndarray, grid: np.ndarray):
    """Normalized piecewise-linear CDF over the tabulation grid."""
    dens = np.clip(dens, 0.0, None)
    dx = grid[1] - grid[0]
    seg = 0.5 * (dens[:-1] + dens[1:]) * dx
    cdf = np.concatenate([[0.0], np.cumsum(seg)])
    total = cdf[-1]
    return dens / total, cdf / total


def _invert_cdf(u: np.ndarray, dens: np.ndarray, cdf: np.ndarray, grid: np.ndarray) -> np.ndarray:
    """Inverse-transform sampling on a piecewise-linear density table."""
    dx = grid[1] - grid[0]
    idx = np.clip(np.searchsorted(cdf, u, side="right") - 1, 0, grid.size - 2)
    r = u - cdf[idx]
    d0 = dens[idx]
    slope = (dens[idx + 1] - d0) / dx
    # Within a cell the CDF is quadratic: r = d0 t + slope t^2 / 2.
    lin = np.abs(slope) < 1e-14
    safe_d0 = np.where(d0 > 0, d0, 1.0)
    safe_slope = np.where(lin, 1.0, slope)
    disc = np.sqrt(np.maximum(d0**2 + 2.0 * slope * r, 0.0))
    t = np.where(lin, r / safe_d0, (disc - d0) / safe_slope)
    return grid[idx] + np.clip(t, 0.0, dx)


def sample_homodyne(
    state: StateSpec,
    phase_count: int,
    events_per_phase: int,
    eta: float,
    seed: int,
    *,
    source: str | None = None,
) -> HomodyneRecord:
    """Draw homodyne samples at equally spaced phases in [0, pi).

    Per phase, the lossy density is tabulated on [-TAB_RANGE, TAB_RANGE] in
    steps of ``TAB_STEP`` (widened by half-steps of 1.5x, up to 8 times,
    while more than 1e-9 of the probability lies outside) and sampled by
    inverse transform.  Each
    phase uses its own child of ``numpy.random.SeedSequence(seed)``, so
    results are reproducible and independent across phases.
    """
    if phase_count < 1:
        raise ValidationError(f"phase_count must be >= 1, got {phase_count}")
    if events_per_phase < 1:
        raise ValidationError(f"events_per_phase must be >= 1, got {events_per_phase}")
    if seed < 0:
        raise ValidationError(f"seed must be >= 0, got {seed}")
    eta = _check_eta(eta)
    lossy = apply_loss_channel(state, eta)
    thetas = np.pi * np.arange(phase_count) / phase_count
    children = np.random.SeedSequence(seed).spawn(phase_count)

    def tab_grid(r: float) -> np.ndarray:
        points = int(np.ceil(2.0 * r / TAB_STEP)) + 1
        return np.linspace(-r, r, points)

    base_grid = tab_grid(TAB_RANGE)
    base_psi = fock_wavefunctions(lossy.dim - 1, base_grid)
    all_x = np.empty(phase_count * events_per_phase)
    for j, theta in enumerate(thetas):
        grid, psi = base_grid, base_psi
        radius = TAB_RANGE
        for attempt in range(9):
            dens = _phase_density(lossy.rho, theta, psi)
            outside = 1.0 - np.trapezoid(np.clip(dens, 0.0, None), grid)
            if outside <= TAB_TAIL_TOL:
                break
            if attempt == 8:
                raise TabulationRangeError(
                    f"density tail {outside:.3g} still outside [-{radius:g}, {radius:g}] "
                    "after widening; state may be unnormalizable at this truncation"
                )
            radius *= 1.5
            logger.debug("phase %d: widening tabulation range to %.3g", j, radius)
            grid = tab_grid(radius)
            psi = fock_wavefunctions(lossy.dim - 1, grid)
        dens, cdf = _tabulated_cdf(dens, grid)
        rng = np.random.default_rng(children[j])
        u = rng.random(events_per_phase)
        all_x[j * events_per_phase : (j + 1) * events_per_phase] = _invert_cdf(
            u, dens, cdf, grid
        )
    all_thetas = np.repeat(thetas, events_per_phase)
    if source is None:
        source = f"simulated dim={state.dim} eta={eta:g}"
    return HomodyneRecord(eta=eta, thetas=all_thetas, xs=all_x, seed=int(seed),
                          source=source)


def shift_and_histogram(record: HomodyneRecord, q: float, p: float,
                        grid: BinGrid) -> Histogram:
    """Bin x - sqrt(eta) (q cos theta + p sin theta) over the whole record.

    The shift centers the statistics of the state displaced by -(q + ip)
    (in phase-space coordinates), which is what makes a single phase-averaged
    histogram carry the displaced photon-number distribution.

    The record is shifted and binned in slices of ``_SLICE`` samples, so
    every temporary is slice-sized and none grows with the record.  The
    shift is evaluated once per run of equal phases (as
    :func:`sample_homodyne` writes them) and repeated over the run's
    samples; a run of one sample is a swept phase.  Every sample gets the
    arithmetic of a per-sample evaluation, so the counts do not depend on
    where the runs or slices end.
    """
    thetas, xs = record.thetas, record.xs
    scale = np.sqrt(record.eta)
    counts = np.zeros(grid.bin_count, dtype=np.int64)
    overflow = 0
    for start in range(0, xs.size, _SLICE):
        th = thetas[start : start + _SLICE]
        starts = np.concatenate(([0], np.flatnonzero(th[1:] != th[:-1]) + 1))
        run_shift = scale * (q * np.cos(th[starts]) + p * np.sin(th[starts]))
        shifted = np.repeat(run_shift, np.diff(starts, append=th.size))
        np.subtract(xs[start : start + _SLICE], shifted, out=shifted)
        slice_counts, slice_overflow = grid.counts_in_place(shifted)
        counts += slice_counts
        overflow += slice_overflow
    hist = Histogram(grid=grid, counts=counts, overflow=overflow)
    if hist.total == 0:
        raise EmptyHistogramError(
            "every shifted sample fell outside the bin grid"
        )
    return hist


def _check_source(source: str) -> None:
    """Refuse what a reader would not give back: outer whitespace, which the
    text reader strips from header values, and NUL, which pads the binary
    header's source field."""
    if source != source.strip():
        raise ValidationError(f"a source cannot start or end with whitespace: {source!r}")
    if "\x00" in source:
        raise ValidationError(f"a source cannot hold a NUL character: {source!r}")


def save_record_text(path: str, record: HomodyneRecord) -> None:
    """Plain-text record: eta=, seed=, source= headers, then theta,x lines.

    Streamed to a temporary file that is renamed over ``path``, so a failed
    write leaves any previous record intact.  A ``source`` holding a line
    break is refused: it would reload as other headers or samples.
    """
    if "\n" in record.source or "\r" in record.source:
        raise ValidationError(f"a text record's source cannot hold a line break: {record.source!r}")
    _check_source(record.source)

    def write(fh):
        fh.write(f"eta={record.eta:.17g}\nseed={record.seed}\n"
                 f"source={record.source}\n".encode())
        for start in range(0, record.sample_count, _TEXT_LINES_PER_WRITE):
            stop = start + _TEXT_LINES_PER_WRITE
            pairs = np.column_stack((record.thetas[start:stop], record.xs[start:stop]))
            fh.write(("%.17g,%.17g\n" * len(pairs) % tuple(pairs.ravel().tolist())).encode())

    _write_atomically(path, write)


def _header_line(line: str, header: dict[str, str]) -> bool:
    """Whether a stripped text-record line is blank, a comment or a header.

    A header is stored in ``header``.  Its value may hold commas (a cat
    state's source label): a line is a header when no comma precedes its "=".
    """
    if not line or line.startswith("#"):
        return True
    if "=" in line and "," not in line.partition("=")[0]:
        key, _, value = line.partition("=")
        header[key.strip()] = value.strip()
        return True
    return False


def _read_text_by_line(path: str, fh):
    """Header, thetas and xs of a text record, parsed one line at a time.

    This loop states the line grammar and words every malformed line's error.
    """
    header: dict[str, str] = {}
    thetas: list[float] = []
    xs: list[float] = []
    for lineno, raw in enumerate(fh, start=1):
        line = raw.strip()
        if _header_line(line, header):
            continue
        parts = line.split(",")
        if len(parts) != 2:
            raise FileFormatError(f"{path}:{lineno}: expected 'theta,x', got {line!r}")
        try:
            thetas.append(float(parts[0]))
            xs.append(float(parts[1]))
        except ValueError as exc:
            raise FileFormatError(f"{path}:{lineno}: {exc}") from exc
    return header, np.asarray(thetas), np.asarray(xs)


def _read_text_in_bulk(fh):
    """Header, thetas and xs of a text record whose samples numpy parses.

    Returns None when the lines after the header block are not all
    ``theta,x`` pairs that ``np.loadtxt`` reads, so the per-line loop must
    decide.  The samples are parsed straight from ``fh`` into one (n, 2)
    array, preallocated from the file's line count so that it never grows.
    """
    rows = 1
    for chunk in iter(partial(fh.read, 1 << 16), ""):
        if any(sep in chunk for sep in _SEPARATORS):
            return None
        rows += chunk.count("\n")
    fh.seek(0)
    header: dict[str, str] = {}
    for line in fh:
        if not _header_line(line.strip(), header):
            break
    else:
        return None  # no sample line
    with warnings.catch_warnings():
        # numpy notes that a blank line (skipped by both readers) is no row
        warnings.simplefilter("ignore", UserWarning)
        try:
            pairs = np.loadtxt(chain([line], fh), delimiter=",", comments=None, ndmin=2,
                               max_rows=rows)
        except ValueError:
            return None
    # Fewer rows than lines shows the parse reached the end of the file.
    if pairs.shape[1] != 2 or len(pairs) >= rows:
        return None
    return header, pairs[:, 0], pairs[:, 1]


def load_record_text(path: str) -> HomodyneRecord:
    """Read a text record written by :func:`save_record_text`.

    The header block is read line by line and the samples after it in one
    ``np.loadtxt`` pass, whose two columns become the record's thetas and
    xs.  A file that pass refuses or reads as other than two columns (a
    header or comment after the first sample, a whitespace-only line, a
    number such as ``1_0`` that ``float`` reads and numpy does not) is read
    again by the per-line loop, which gives the record or the error.
    """
    # As in the binary reader's source field, undecodable bytes become U+FFFD,
    # so they fail to parse as numbers instead of raising UnicodeDecodeError.
    with open(path, "r", encoding="utf-8", errors="replace") as fh:
        parsed = _read_text_in_bulk(fh)
        if parsed is None:
            fh.seek(0)
            parsed = _read_text_by_line(path, fh)
    header, thetas, xs = parsed
    for key in ("eta", "seed"):
        if key not in header:
            raise FileFormatError(f"{path}: missing {key}= header")
    try:
        eta = float(header["eta"])
        seed = int(header["seed"])
    except ValueError as exc:
        raise FileFormatError(f"{path}: malformed header: {exc}") from exc
    try:
        return HomodyneRecord(eta=eta, thetas=thetas, xs=xs,
                              seed=seed, source=header.get("source", ""))
    except ValidationError as exc:
        raise FileFormatError(f"{path}: {exc}") from exc


def save_record_binary(path: str, record: HomodyneRecord) -> None:
    """Binary record: 104-byte header then little-endian (theta, x) pairs.

    Streamed to a temporary file that is renamed over ``path``, so a failed
    write leaves any previous record intact.  The header keeps at most 64
    UTF-8 bytes of ``source``, cut on a character boundary.
    """
    if not -(1 << 63) <= record.seed < 1 << 63:
        raise ValidationError(f"seed {record.seed} does not fit a binary record's int64")
    _check_source(record.source)
    source = record.source.encode()[:64].decode("utf-8", "ignore").rstrip().encode()
    header = _RECORD_HEADER.pack(
        _RECORD_MAGIC, _RECORD_VERSION, 0, record.eta, record.seed,
        record.sample_count, source,
    )
    pairs = np.empty((record.sample_count, 2), dtype="<f8")
    pairs[:, 0] = record.thetas
    pairs[:, 1] = record.xs

    def write(fh):
        fh.write(header)
        fh.write(pairs)

    _write_atomically(path, write)


def load_record_binary(path: str) -> HomodyneRecord:
    """Read a binary record written by :func:`save_record_binary`.

    The payload size is checked against the header's sample count before
    any sample is read.  Samples are then read in slices of ``_SLICE``
    pairs into one reused buffer and split into the record's ``thetas`` and
    ``xs``, so the reader holds no full-length copy beyond those two arrays.
    """
    with open(path, "rb") as fh:
        header = fh.read(_RECORD_HEADER.size)
        if len(header) != _RECORD_HEADER.size:
            raise FileFormatError(f"{path}: truncated record header")
        magic, version, _flags, eta, seed, count, source = _RECORD_HEADER.unpack(header)
        if magic != _RECORD_MAGIC:
            raise FileFormatError(f"{path}: not a binary homodyne record")
        if version != _RECORD_VERSION:
            raise FileFormatError(f"{path}: unsupported record version {version}")
        found = os.fstat(fh.fileno()).st_size - _RECORD_HEADER.size
        if count < 1 or found != 16 * count:
            raise FileFormatError(
                f"{path}: expected {16 * count} bytes of sample data, found {found}"
            )
        thetas, xs = np.empty(count), np.empty(count)
        pairs = np.empty((min(_SLICE, count), 2), dtype="<f8")
        for start in range(0, count, _SLICE):
            chunk = pairs[: count - start]
            got = fh.readinto(chunk)
            if got != chunk.nbytes:  # the file shrank after the size check
                raise FileFormatError(
                    f"{path}: expected {16 * count} bytes of sample data, "
                    f"found {16 * start + got}"
                )
            stop = start + len(chunk)
            thetas[start:stop], xs[start:stop] = chunk.T
        del pairs, chunk  # freed before the record's checks allocate
    try:
        return HomodyneRecord(
            eta=float(eta), thetas=thetas, xs=xs,
            seed=int(seed), source=source.rstrip(b"\x00").decode("utf-8", "replace"),
        )
    except ValidationError as exc:
        raise FileFormatError(f"{path}: {exc}") from exc


def load_record(path: str) -> HomodyneRecord:
    """Load a record, sniffing text vs binary from the leading bytes."""
    with open(path, "rb") as fh:
        lead = fh.read(len(_RECORD_MAGIC))
    if lead == _RECORD_MAGIC:
        return load_record_binary(path)
    return load_record_text(path)
