"""Homodyne measurement simulation for finite-dimensional states.

States are density matrices in the Fock basis (:class:`StateSpec`).  The
quadrature density at local-oscillator phase theta under detection
efficiency eta is

    h(x; theta) = sum_{m,n} (L_eta rho)_{mn} e^{i(n-m) theta} psi_m(x) psi_n(x),

where L_eta is the Fock-basis loss channel, whose binomial weights are the
ones :mod:`emtomo.fock_kernel` mixes its densities with; equivalently the
kernel of Gaussian smearing applied to the scaled ideal density.  h is
real, so it is summed from the real part of the phased matrix.  Sampling
tabulates one CDF per phase on the calling thread and inverts it by linear
interpolation on a pool of one thread per CPU, with one child random stream
per phase so records are reproducible, per-phase streams are independent
and the record does not depend on the CPU count.  Draws are inverted in
sorted order and scattered back, which moves no sample: each depends only
on its own draw.  Histograms are binned on the calling thread.
"""

from __future__ import annotations

import logging
import os
import struct
import warnings
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from functools import partial
from typing import Callable

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
from .fock_kernel import (
    MAX_FOCK_N,
    BinGrid,
    _binomial_mixture_matrix,
    _check_eta,
    _check_order_n,
    _write_atomically,
    fock_wavefunctions,
)

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
# The ASCII separators, which numpy strips from a number and float() keeps
# unless the number holds a non-ASCII character.
_SEPARATORS = "\x1c\x1d\x1e\x1f"
# Path suffixes np.loadtxt decompresses (through numpy's DataSource).
_DECOMPRESSED_SUFFIXES = (".gz", ".bz2", ".xz", ".lzma")
# Samples the shifted histogram, the record writers and the binary reader
# handle per slice.
_SLICE = 1 << 16


@dataclass
class StateSpec:
    """Density matrix in the Fock basis, validated on construction."""

    dim: int
    rho: np.ndarray

    def __post_init__(self):
        self.dim = _check_dim(self.dim)
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


def _check_dim(dim) -> int:
    """A state dimension as an int, refused below 1 or with a top level
    beyond the wavefunctions' bound before any array is built."""
    dim = int(dim)
    if dim < 1:
        raise ValidationError(f"state dimension must be >= 1, got {dim}")
    _check_order_n(dim - 1)
    return dim


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


def vacuum_state(dim: int | None = None) -> StateSpec:
    return fock_state(0, dim)


def fock_state(n: int, dim: int | None = None) -> StateSpec:
    n = _check_order_n(n)
    dim = _check_dim(n + 1 if dim is None else dim)
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
    log_mag = -0.5 * abs(alpha) * abs(alpha) + ns * np.log(abs(alpha)) - 0.5 * gammaln(ns + 1.0)
    return np.exp(log_mag) * np.exp(1j * ns * np.angle(alpha))


def _amplitude_sizes(alpha, dim: int | None) -> tuple[complex, int, int]:
    """``alpha`` as a complex, ``dim`` and the longer length its amplitudes
    are evaluated to; ``dim`` defaults to a truncation whose discarded tail
    of |alpha> passes the guard."""
    alpha = complex(alpha)
    if not np.isfinite(alpha):
        raise ValidationError(f"alpha must be finite, got {alpha!r}")
    if dim is None:
        mean = abs(alpha) * abs(alpha)  # inf, where ** raises; the cap keeps dim an int
        dim = int(min(np.ceil(mean + 10.0 * np.sqrt(mean + 1.0)), MAX_FOCK_N + 1)) + 1
    dim = _check_dim(dim)
    return alpha, dim, max(2 * dim, dim + 32)


def coherent_state(alpha: complex, dim: int | None = None) -> StateSpec:
    """Coherent state |alpha> truncated to dim levels.

    dim defaults to ceil(|alpha|^2 + 10 sqrt(|alpha|^2 + 1)) + 1; a smaller
    dim trips the truncation guard once the discarded Poisson tail exceeds 1e-10.
    """
    alpha, dim, work = _amplitude_sizes(alpha, dim)
    return _pure_state(_coherent_amplitudes(alpha, work), dim)


def cat_state(alpha: complex, relative_phase: float, dim: int | None = None) -> StateSpec:
    """Superposition |alpha> + e^{i phi} |-alpha>, normalized and truncated.

    relative_phase = pi gives the odd cat (only odd photon numbers), 0 the
    even cat.  dim defaults as in :func:`coherent_state`.
    """
    phi = float(relative_phase)
    alpha, dim, work = _amplitude_sizes(alpha, dim)
    plus = _coherent_amplitudes(alpha, work)
    if abs(phi) == np.pi:  # e^{i phi} is -1 +- 1.2e-16i: cancel even n exactly
        amps = 2.0 * plus
        amps[::2] = 0.0
    else:
        amps = plus + np.exp(1j * phi) * _coherent_amplitudes(-alpha, work)
    if np.vdot(amps, amps).real < 1e-30:
        hint = " (alpha=0 with relative_phase=pi has no content)" if alpha == 0 else ""
        raise ValidationError(f"cat amplitudes vanish{hint}")
    return _pure_state(amps, dim)


def apply_loss_channel(state: StateSpec, eta: float) -> StateSpec:
    """Fock-basis beam-splitter loss of transmissivity eta.

    (L_eta rho)_{mn} = sum_k sqrt(C(m+k,k) C(n+k,k)) eta^{(m+n)/2} (1-eta)^k
    rho_{m+k, n+k}; trace is preserved to machine precision.  The weights
    C(m+k,k) eta^m (1-eta)^k are the k-th subdiagonal of the kernel's
    binomial mixture matrix, so eta == 1 returns rho exactly.
    """
    eta = _check_eta(eta)
    d = state.dim
    mixture = _binomial_mixture_matrix(d - 1, eta)
    out = np.zeros((d, d), dtype=complex)
    for k in range(d):
        v = np.sqrt(np.diagonal(mixture, -k))
        out[: d - k, : d - k] += np.outer(v, v) * state.rho[k:, k:]
    return StateSpec(dim=d, rho=out)


def _phase_density(rho: np.ndarray, theta: float, psi: np.ndarray) -> np.ndarray:
    """sum_{m,n} rho_mn e^{i(n-m) theta} psi_m psi_n at every column of ``psi``,
    as psi^T Re(phased rho) psi: the phased matrix is hermitian and psi real."""
    n = np.arange(rho.shape[0])
    phased = (rho * np.exp(1j * float(theta) * (n - n[:, None]))).real
    return np.einsum("mx,mx->x", psi, phased @ psi)


def quadrature_density(state: StateSpec, theta: float, x, eta: float = 1.0):
    """Homodyne outcome density h(x; theta) at efficiency eta."""
    if not np.isfinite(float(theta)):
        raise ValidationError(f"phase theta must be finite, got {theta!r}")
    lossy = apply_loss_channel(state, eta)
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


def _worker_count() -> int:
    """The CPUs this process may run on: its affinity set, where the OS
    keeps one, else every CPU."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no sched_getaffinity on this platform
        return os.cpu_count() or 1


def _invert_table(u: np.ndarray, cdf: np.ndarray, grid: np.ndarray, out: np.ndarray) -> None:
    """np.interp(u * cdf[-1], cdf, grid) into ``out``, looked up in sorted order."""
    order = np.argsort(u)
    out[order] = np.interp(u[order] * cdf[-1], cdf, grid)


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
    steps of ``TAB_STEP``, and its trapezoid sums are accumulated into one
    table of the CDF.  While the table's total leaves more than
    ``TAB_TAIL_TOL`` of the probability outside, the range is widened by
    half-steps of 1.5x, up to 8 times.  Samples are drawn by inverse
    transform: uniform draws scaled to the table's total are mapped back
    through the table by linear interpolation, in sorted order (which walks
    the table rather than bisecting it at random) scattered back to draw
    order.  The interpolation takes the last table entry at or below each
    draw whatever the search path, so the samples and their order are those
    of a lookup in draw order.  Each phase uses its own child of
    ``numpy.random.SeedSequence(seed)``, so results are reproducible and
    independent across phases.

    The tables are built in the calling thread (their matrix products
    already use the BLAS library's threads), and each phase's draws and
    their inversion go to a pool of one worker thread per CPU, a pool of
    one on one CPU.  Each phase draws from its own stream into its own
    samples, so the record does not depend on the worker count; a worker
    holds 32 B per event of its phase while it draws.  When draws are
    slower than tables (many events per phase, whose 16 B per sample of
    record dwarf the tables), up to ``phase_count`` tables of 8 B per grid
    point wait for a draw.  A table's error stops the tabulation at once; a
    draw's error reaches the caller after the remaining tables are built.
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

    def table(j: int) -> tuple[int, np.ndarray, np.ndarray]:
        grid, psi = base_grid, base_psi
        radius = TAB_RANGE
        for attempt in range(9):
            dens = np.clip(_phase_density(lossy.rho, thetas[j], psi), 0.0, None)
            cells = 0.5 * (dens[:-1] + dens[1:]) * (grid[1] - grid[0])
            cdf = np.concatenate(([0.0], np.cumsum(cells)))
            outside = 1.0 - cdf[-1]
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
        return j, cdf, grid

    def draw(tabled: tuple[int, np.ndarray, np.ndarray]) -> None:
        j, cdf, grid = tabled
        u = np.random.default_rng(children[j]).random(events_per_phase)
        _invert_table(u, cdf, grid, all_x[j * events_per_phase : (j + 1) * events_per_phase])

    # the calling thread builds the tables, so the draws get a thread per CPU
    with ThreadPoolExecutor(_worker_count()) as pool:
        list(pool.map(draw, map(table, range(phase_count))))
    all_thetas = np.repeat(thetas, events_per_phase)
    if source is None:
        source = f"simulated dim={state.dim} eta={eta:g}"
    return HomodyneRecord(eta=eta, thetas=all_thetas, xs=all_x, seed=int(seed),
                          source=source)


def _phase_run_starts(thetas: np.ndarray) -> np.ndarray:
    """First index of each run of equal phases, 8 B per run.

    The starts are marked one ``_SLICE`` at a time, in a pass that counts
    them and one that fills an array of exactly that size, so no temporary
    grows with the record.
    """
    size = thetas.size
    mask = np.empty(min(_SLICE, size), dtype=bool)

    def marked(start):
        stop = min(start + _SLICE, size)
        lo = max(start, 1)
        mask[0] = True  # index 0 starts a run; later slices overwrite it
        np.not_equal(thetas[lo:stop], thetas[lo - 1:stop - 1], out=mask[lo - start:stop - start])
        return mask[:stop - start]

    slices = range(0, size, _SLICE)
    starts = np.empty(sum(np.count_nonzero(marked(start)) for start in slices), dtype=np.int64)
    filled = 0
    for start in slices:
        found = np.flatnonzero(marked(start))
        np.add(found, start, out=starts[filled:filled + found.size])
        filled += found.size
    return starts


def shift_and_histogram(record: HomodyneRecord, q: float, p: float, grid: BinGrid, *,
                        run_starts: np.ndarray | None = None) -> Histogram:
    """Bin |x - sqrt(eta) (q cos theta + p sin theta)| over the whole record.

    The shift centers the statistics of the state displaced by -(q + ip)
    (in phase-space coordinates), which is what makes a single phase-averaged
    histogram carry the displaced photon-number distribution.

    The shift is evaluated once per run of equal phases (as
    :func:`sample_homodyne` writes them) and repeated over the run's
    samples; a run of one sample is a swept phase.  A scan passes each
    point the ``run_starts`` that :func:`_phase_run_starts` found once for
    ``record.thetas``; a call without them finds its own.  At 8 B per run,
    they are the one temporary that grows with a swept record.  The record
    is binned on the calling thread in slices of ``_SLICE`` samples.  Every
    sample gets the arithmetic of a per-sample evaluation, so the counts do
    not depend on where the runs or slices end.
    """
    thetas, xs = record.thetas, record.xs
    size = record.sample_count
    if run_starts is None:
        run_starts = _phase_run_starts(thetas)
    elif run_starts.size == 0 or run_starts[0] != 0 or run_starts[-1] >= size:
        raise ValidationError(f"run starts must begin at 0 and stay below {size}")
    scale = np.sqrt(record.eta)
    counts = np.zeros(grid.rows, dtype=np.int64)
    overflow = 0
    for start in range(0, size, _SLICE):
        stop = min(start + _SLICE, size)
        # the run holding ``start``, clipped to it, and every run begun before ``stop``
        runs = run_starts[np.searchsorted(run_starts, start, side="right") - 1:
                          np.searchsorted(run_starts, stop)]
        th = thetas[runs]
        run_shift = scale * (q * np.cos(th) + p * np.sin(th))
        shifted = np.repeat(run_shift, np.diff(runs.clip(start), append=stop))
        np.subtract(xs[start:stop], shifted, out=shifted)
        slice_counts, slice_overflow = grid.counts_in_place(shifted)
        counts += slice_counts
        overflow += slice_overflow
    hist = Histogram(grid=grid, counts=counts, overflow=overflow)
    if hist.total == 0:
        raise EmptyHistogramError(
            "every shifted sample fell outside the bin grid"
        )
    return hist


def _check_line_break(what: str, text: str) -> None:
    """Refuse text that a line break would split across lines."""
    if "\n" in text or "\r" in text:
        raise ValidationError(f"{what} cannot hold a line break: {text!r}")


def _check_line_text(what: str, text: str) -> None:
    """Refuse text that a file's line would not give back: a line break
    splits the line, and the readers strip outer whitespace."""
    _check_line_break(what, text)
    if text != text.strip():
        raise ValidationError(f"{what} cannot start or end with whitespace: {text!r}")


def _check_source(source: str) -> None:
    """Refuse what a reader would not give back: outer whitespace, which the
    text reader strips from header values, and NUL, which pads the binary
    header's source field."""
    if source != source.strip():
        raise ValidationError(f"a source cannot start or end with whitespace: {source!r}")
    if "\x00" in source:
        raise ValidationError(f"a source cannot hold a NUL character: {source!r}")


def _write_record(path: str, record: HomodyneRecord, header: bytes,
                  encode: Callable[[np.ndarray], object]) -> None:
    """Write ``header``, then each slice of ``_SLICE`` (theta, x) pairs as
    ``encode`` gives it, so no copy of the whole record is made."""
    def write(fh):
        fh.write(header)
        for start in range(0, record.sample_count, _SLICE):
            stop = start + _SLICE
            fh.write(encode(np.column_stack((record.thetas[start:stop], record.xs[start:stop]))))

    _write_atomically(path, write)


def save_record_text(path: str, record: HomodyneRecord) -> None:
    """Plain-text record: eta=, seed=, source= headers, then theta,x lines.

    Streamed to a temporary file that is renamed over ``path``, so a failed
    write leaves any previous record intact.  A ``source`` holding a line
    break is refused: it would reload as other headers or samples.
    """
    _check_source(record.source)
    _check_line_break("a text record's source", record.source)
    header = f"eta={record.eta:.17g}\nseed={record.seed}\nsource={record.source}\n"
    _write_record(path, record, header.encode(), lambda pairs: (
        "%.17g,%.17g\n" * len(pairs) % tuple(pairs.ravel().tolist())).encode())


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
    decide.  The samples are parsed from the path of ``fh``, which numpy
    reads in large chunks (an open file it would read line by line), into
    one (n, 2) array with one row more than the lines after the header: it
    never grows, a full array shows a parse that stopped early, and numpy
    trims at most that row, so a freed record's block still fits the next
    record of its length (a larger trim leaves it too small, and each load
    then takes fresh memory).  numpy decodes the path as strict UTF-8,
    so a file with an undecodable byte goes to the per-line loop too.
    """
    path = os.fsdecode(fh.name)
    if "://" in path or path.endswith(_DECOMPRESSED_SUFFIXES):
        return None  # numpy would fetch or decompress it
    lines = 0
    chunk = "\n"
    for chunk in iter(partial(fh.read, 1 << 16), ""):
        if any(sep in chunk for sep in _SEPARATORS):
            return None
        lines += chunk.count("\n")
    lines += not chunk.endswith("\n")  # an unterminated last line
    fh.seek(0)
    header: dict[str, str] = {}
    for skip, line in enumerate(fh):
        if not _header_line(line.strip(), header):
            break
    else:
        return None  # no sample line
    slots = lines - skip + 1
    with warnings.catch_warnings():
        # numpy notes that a blank line (skipped by both readers) is no row
        warnings.simplefilter("ignore", UserWarning)
        try:
            pairs = np.loadtxt(path, delimiter=",", comments=None, skiprows=skip, ndmin=2,
                               max_rows=slots, encoding="utf-8")
        except ValueError:  # UnicodeDecodeError included
            return None
    # An unfilled last row shows the parse reached the end of the file.
    if pairs.shape[1] != 2 or len(pairs) >= slots:
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

    Streamed as the text record is, a slice of ``_SLICE`` pairs at a time.
    The header keeps at most 64 UTF-8 bytes of ``source``, cut on a
    character boundary.
    """
    if not -(1 << 63) <= record.seed < 1 << 63:
        raise ValidationError(f"seed {record.seed} does not fit a binary record's int64")
    _check_source(record.source)
    source = record.source.encode()[:64].decode("utf-8", "ignore").rstrip().encode()
    header = _RECORD_HEADER.pack(
        _RECORD_MAGIC, _RECORD_VERSION, 0, record.eta, record.seed,
        record.sample_count, source,
    )
    _write_record(path, record, header, lambda pairs: pairs.astype("<f8", copy=False))


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
