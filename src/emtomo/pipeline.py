"""End-to-end Wigner reconstruction from homodyne records.

One phase-space point (q, p) costs one histogram of shifted samples plus one
EM run; the Wigner value is assembled from the recovered displaced
photon-number distribution as W = (1/pi) sum_n (-1)^n rho_n.  The grid scan
is the one place that recipe is written (the expensive kernel is built once
and shared; a single point is a 1x1 grid), failing soft on individual points
so a single pathological corner cannot destroy an overnight scan.

This module imports nothing from :mod:`emtomo.oracle`: the oracle is the
arbiter the pipeline is checked against, so the two sides share no
evaluation code.  The reconstruction's parity sum is
:func:`wigner_from_distribution`; the oracle's, and the exact grids shaped
like reconstruction results (``oracle_wigner_grid``), live in the oracle.
"""

from __future__ import annotations

import json
import logging
import numbers
from dataclasses import asdict, dataclass, field, fields
from datetime import datetime, timezone

import numpy as np

from .em import default_cutoff, reconstruct_photon_distribution
from .errors import FileFormatError, ModelZeroError, ShiftOverflowError, ValidationError
from .fock_kernel import (
    DEFAULT_MAX_COLUMN_DEFICIT,
    BinGrid,
    KernelMatrix,
    _check_column_deficits,
    _check_eta,
    _write_atomically,
    load_or_build_kernel,
)
from .homodyne import HomodyneRecord, _check_line_break, _check_line_text, shift_and_histogram

logger = logging.getLogger(__name__)

# Fraction of shifted samples allowed to fall off the bin grid before a
# point reconstruction is refused as unreliable.
MAX_OVERFLOW_FRACTION = 1e-3

# Accepted values of int, float and str config fields; bool is none of them.
_FIELD_TYPES = {"int": (numbers.Integral, "an integer"), "float": (numbers.Real, "a number"),
                "str": (str, "a string")}
_FLOAT_MAX = float(np.finfo(float).max)
# Config fields that count bins, axis steps or iterations; numpy sizes stop at intp.
_COUNT_FIELDS = ("bin_count", "q_steps", "p_steps", "max_iter")
_MAX_COUNT = int(np.iinfo(np.intp).max)
# A grid point's results, in grid-file column order after q and p.
_POINT_COLUMNS = ("values", "iterations", "final_loglik", "overflow_fraction", "rho_tail")


def wigner_from_distribution(probs) -> float:
    """Parity-weighted sum (1/pi) sum_n (-1)^n rho_n."""
    p = np.asarray(probs, dtype=float)
    signs = 1.0 - 2.0 * (np.arange(p.size) % 2)
    return float(signs @ p) / np.pi


@dataclass
class ReconstructionConfig:
    """Everything a grid reconstruction needs besides the record itself.

    The photon-number cutoff comes either from ``n_max`` directly or from
    ``localization_radius`` (the phase-space radius the state and all
    evaluation points live within) via ceil(r^2 / 2); set exactly one.
    """

    eta: float
    x_min: float = -8.0
    x_max: float = 8.0
    bin_count: int = 16000
    n_max: int | None = None
    localization_radius: float | None = None
    max_iter: int = 10_000
    plateau_tol: float | None = None
    q_min: float = -2.0
    q_max: float = 2.0
    q_steps: int = 21
    p_min: float = -2.0
    p_max: float = 2.0
    p_steps: int = 21
    record_path: str | None = None
    output_path: str | None = None
    kernel_cache: str | None = None
    max_column_deficit: float | None = DEFAULT_MAX_COLUMN_DEFICIT

    def __post_init__(self):
        for f in fields(self):
            _check_field_type(f.name, getattr(self, f.name))
        _check_eta(self.eta)
        if (self.n_max is None) == (self.localization_radius is None):
            raise ValidationError(
                "set exactly one of n_max and localization_radius"
            )
        if self.n_max is not None and self.n_max < 0:
            raise ValidationError(f"n_max must be >= 0, got {self.n_max}")
        for name in _COUNT_FIELDS:
            count = getattr(self, name)
            if not 1 <= count <= _MAX_COUNT:
                raise ValidationError(f"{name} must lie in [1, {_MAX_COUNT}], got {count}")
        self.bin_grid()  # refuses an empty or asymmetric bin range
        for name in ("q", "p"):
            lo = getattr(self, f"{name}_min")
            hi = getattr(self, f"{name}_max")
            steps = getattr(self, f"{name}_steps")
            if hi < lo:
                raise ValidationError(f"{name}_max < {name}_min")
            if hi == lo and steps > 1:
                raise ValidationError(f"degenerate {name} range with {steps} steps")

    def resolve_cutoff(self) -> int:
        if self.n_max is not None:
            return int(self.n_max)
        return default_cutoff(self.localization_radius)

    def bin_grid(self) -> BinGrid:
        return BinGrid(self.x_min, self.x_max, self.bin_count)

    def q_axis(self) -> np.ndarray:
        return np.linspace(float(self.q_min), float(self.q_max), self.q_steps)

    def p_axis(self) -> np.ndarray:
        return np.linspace(float(self.p_min), float(self.p_max), self.p_steps)

    @classmethod
    def from_dict(cls, data: dict) -> "ReconstructionConfig":
        known = {f.name for f in fields(cls)}
        unknown = set(data) - known
        if unknown:
            raise ValidationError(f"unknown config keys: {sorted(unknown)}")
        if "eta" not in data:
            raise ValidationError("config must set eta")
        return cls(**data)


def _check_field_type(name: str, value) -> None:
    """Refuse ``value`` unless it has the type of config field ``name``."""
    # the annotation as written ("int", "float | None", ...)
    kind, _, optional = ReconstructionConfig.__annotations__[name].partition(" | ")
    if value is None and optional:
        return
    accepted, label = _FIELD_TYPES[kind]
    if isinstance(value, bool) or not isinstance(value, accepted):
        raise ValidationError(f"{name} must be {label}, got {value!r}")
    # Written so that NaN fails it; an int beyond the float range fails too.
    if kind == "float" and not abs(value) <= _FLOAT_MAX:
        raise ValidationError(f"{name} must be finite, got {value!r}")
    if kind == "str":  # a path, which a grid file keeps in a meta line
        _check_line_text(name, value)


def _read_config_object(path: str) -> dict:
    """The JSON object of a config file, not yet validated as a config."""
    # Undecodable bytes become U+FFFD: invalid JSON or an unknown key.
    try:
        with open(path, "r", encoding="utf-8", errors="replace") as fh:
            data = json.load(fh)
    except json.JSONDecodeError as exc:
        raise ValidationError(f"{path}: not valid JSON: {exc}") from exc
    if not isinstance(data, dict):
        raise ValidationError(f"{path}: config must be a JSON object")
    return data


@dataclass
class WignerGrid:
    """Wigner values and per-point diagnostics on a rectangular grid."""

    qs: np.ndarray
    ps: np.ndarray
    values: np.ndarray  # shape (len(qs), len(ps)); NaN where a point failed
    iterations: np.ndarray
    final_loglik: np.ndarray
    overflow_fraction: np.ndarray
    rho_tail: np.ndarray  # mass of the top two photon levels: a truncation health measure
    failures: dict = field(default_factory=dict)  # (i, j) -> message
    meta: dict = field(default_factory=dict)

    def __post_init__(self):
        self.qs = np.asarray(self.qs, dtype=float).ravel()
        self.ps = np.asarray(self.ps, dtype=float).ravel()
        if self.qs.size == 0 or self.ps.size == 0:
            raise ValidationError("a Wigner grid needs at least one q and one p")
        shape = (self.qs.size, self.ps.size)
        for name in _POINT_COLUMNS:
            arr = np.asarray(getattr(self, name), dtype=float)
            if arr.shape != shape:
                raise ValidationError(f"{name} shape {arr.shape} != {shape}")
            setattr(self, name, arr)
        # Written so that NaN fails it; 2**63 is the first float past int64.
        its = self.iterations
        bad = its[~((its >= 0) & (its < 2.0**63) & (np.floor(its) == its))]
        if bad.size:
            raise ValidationError(f"an iteration count must be a whole number >= 0, got {bad[0]:g}")
        self.iterations = its.astype(np.int64)


def reconstruct_wigner_grid(
    record: HomodyneRecord,
    config: ReconstructionConfig,
    *,
    kernel: KernelMatrix | None = None,
) -> WignerGrid:
    """Scan the configured (q, p) grid, reconstructing every point.

    Each point shifts and bins the record, refuses more than
    ``MAX_OVERFLOW_FRACTION`` of it off the bin grid, runs EM and takes the
    parity sum.  The kernel is built (or loaded from ``config.kernel_cache``)
    once per scan; a caller's ``kernel`` must have the config's bin grid,
    cutoff and eta, and pass its ``max_column_deficit``.  Per-point numerical failures
    (overflow, every sample off the bin grid included, and a vanishing model) are
    recorded in ``failures`` and leave NaN in every float column and 0 in
    ``iterations``; they do not abort the scan unless every point fails.
    """
    if abs(config.eta - record.eta) > 1e-12:
        raise ValidationError(
            f"config efficiency {config.eta!r} does not match record efficiency "
            f"{record.eta!r}"
        )
    n_max = config.resolve_cutoff()
    if kernel is None:
        kernel = load_or_build_kernel(
            config.kernel_cache, config.bin_grid(), n_max, config.eta,
            max_column_deficit=config.max_column_deficit,
        )
    elif (kernel.grid, kernel.n_max, kernel.eta) != (config.bin_grid(), n_max, config.eta):
        raise ValidationError(
            f"kernel ({kernel.grid}, n_max={kernel.n_max}, eta={kernel.eta!r}) does not "
            f"match the config ({config.bin_grid()}, n_max={n_max}, eta={config.eta!r})"
        )
    else:
        _check_column_deficits(kernel, config.max_column_deficit)
    qs = config.q_axis()
    ps = config.p_axis()
    table = np.full((len(_POINT_COLUMNS), qs.size, ps.size), np.nan)
    table[_POINT_COLUMNS.index("iterations")] = 0
    failures: dict = {}
    last_error: Exception | None = None
    for i, q in enumerate(qs.tolist()):
        for j, p in enumerate(ps.tolist()):
            try:
                hist = shift_and_histogram(record, q, p, kernel.grid)
                overflow_fraction = hist.overflow / record.sample_count
                if overflow_fraction > MAX_OVERFLOW_FRACTION:
                    raise ShiftOverflowError(
                        f"{overflow_fraction:.3%} of shifted samples left the bin grid at "
                        f"(q={q:g}, p={p:g}) (limit {MAX_OVERFLOW_FRACTION:.1%}); widen the grid"
                    )
                dist, diag = reconstruct_photon_distribution(
                    hist, kernel, max_iter=config.max_iter, plateau_tol=config.plateau_tol,
                )
            except (ShiftOverflowError, ModelZeroError) as exc:
                failures[(i, j)] = str(exc)
                last_error = exc
                logger.warning("point (%g, %g) failed: %s", q, p, exc)
                continue
            table[:, i, j] = (wigner_from_distribution(dist.probs), diag.iterations_run,
                              diag.final_loglik, overflow_fraction, dist.probs[-2:].sum())
        logger.info("grid row %d/%d done", i + 1, qs.size)
    if len(failures) == qs.size * ps.size:
        raise type(last_error)(
            f"every grid point failed; last error: {last_error}"
        )
    meta = {str(k): _meta_str(v) for k, v in asdict(config).items()}
    meta["kind"] = "reconstruction"
    meta["n_max"] = _meta_str(n_max)
    return WignerGrid(qs=qs, ps=ps, **dict(zip(_POINT_COLUMNS, table)),
                      failures=failures, meta=meta)


def _meta_str(value) -> str:
    if value is None:
        return "none"
    if isinstance(value, float):
        # repr gives the shortest string that round-trips exactly
        return repr(value)
    return str(value)


_GRID_MAGIC_LINE = "# emtomo wigner grid v1"
_GRID_COLUMNS = "q p w " + " ".join(_POINT_COLUMNS[1:])


def save_wigner_grid(path: str, grid: WignerGrid) -> None:
    """Write a grid as a plain-text table: one row per point, q and p and
    then the point's columns in ``_POINT_COLUMNS`` order.

    Output is deterministic for identical inputs except the timestamp, which
    stays confined to its own comment line.  A meta key, meta value or
    failure note holding a line break or starting or ending with whitespace,
    or a meta key holding "=", is refused, and nothing is written: it would
    reload as other lines, as another key or stripped.  So is a failure key
    that is not a point (i, j) of the grid, which would not reload.
    """
    for key in grid.failures:
        if not (isinstance(key, tuple) and len(key) == 2 and all(
                isinstance(k, numbers.Integral) and not isinstance(k, bool) and 0 <= k < n
                for k, n in zip(key, grid.values.shape))):
            raise ValidationError(f"a grid failure key must be a point (i, j) of the "
                                  f"{grid.qs.size}x{grid.ps.size} grid, got {key!r}")
    lines = [_GRID_MAGIC_LINE]
    lines.append(f"# generated: {datetime.now(timezone.utc).isoformat()}")
    for key in sorted(grid.meta):
        if "=" in str(key):
            raise ValidationError(f"a grid meta key cannot hold '=': {key!r}")
        _check_line_text("a grid meta key", str(key))
        _check_line_text("a grid meta value", str(grid.meta[key]))
        lines.append(f"# meta {key}={grid.meta[key]}")
    lines.append(f"# q_steps: {grid.qs.size}")
    lines.append(f"# p_steps: {grid.ps.size}")
    for (i, j), message in sorted(grid.failures.items()):
        _check_line_text("a grid failure note", str(message))
        lines.append(f"# failed {i} {j} {message}")
    lines.append(f"# columns: {_GRID_COLUMNS}")
    # An iteration count below 2**53 is exact as a float, and .17g prints its digits.
    table = np.stack([getattr(grid, name) for name in _POINT_COLUMNS], axis=-1).tolist()
    for qv, row in zip(grid.qs.tolist(), table):
        for pv, point in zip(grid.ps.tolist(), row):
            lines.append(" ".join(f"{v:.17g}" for v in (qv, pv, *point)))
    data = ("\n".join(lines) + "\n").encode()
    _write_atomically(path, lambda fh: fh.write(data))


def load_wigner_grid(path: str) -> WignerGrid:
    """Read a grid table written by :func:`save_wigner_grid`; the columns
    after q and p follow ``_POINT_COLUMNS``."""
    meta: dict = {}
    failures: dict = {}
    q_steps = p_steps = None
    noted: list[tuple[int, int, int]] = []  # (line, i, j) of each failure note
    rows: list[list[float]] = []
    # Undecodable bytes become U+FFFD, so they fail to parse as numbers
    # instead of raising UnicodeDecodeError.
    with open(path, "r", encoding="utf-8", errors="replace") as fh:
        first = fh.readline().rstrip("\n")
        if first != _GRID_MAGIC_LINE:
            raise FileFormatError(f"{path}: not a wigner grid file")
        for lineno, raw in enumerate(fh, start=2):
            line = raw.strip()
            if not line:
                continue
            if line.startswith("#"):
                body = line[1:].strip()
                if body.startswith("meta "):
                    key, _, value = body[5:].partition("=")
                    meta[key.strip()] = value.strip()
                elif body.startswith("q_steps:"):
                    q_steps = _header_int(path, lineno, body.split(":", 1)[1])
                elif body.startswith("p_steps:"):
                    p_steps = _header_int(path, lineno, body.split(":", 1)[1])
                elif body.split(" ", 1)[0] == "failed":
                    parts = body.split(" ", 3)
                    if len(parts) < 3:
                        raise FileFormatError(f"{path}:{lineno}: no grid point in {line!r}")
                    i, j = (_header_int(path, lineno, v) for v in parts[1:3])
                    failures[(i, j)] = parts[3] if len(parts) > 3 else ""
                    noted.append((lineno, i, j))
                continue
            parts = line.split()
            if len(parts) != 2 + len(_POINT_COLUMNS):
                raise FileFormatError(f"{path}:{lineno}: expected "
                                      f"{2 + len(_POINT_COLUMNS)} columns, got {len(parts)}")
            try:
                rows.append([float(v) for v in parts])
            except ValueError as exc:
                raise FileFormatError(f"{path}:{lineno}: {exc}") from exc
    if q_steps is None or p_steps is None:
        raise FileFormatError(f"{path}: missing q_steps/p_steps headers")
    if q_steps < 1 or p_steps < 1:
        raise FileFormatError(f"{path}: q_steps and p_steps must be >= 1")
    for lineno, i, j in noted:
        if not (0 <= i < q_steps and 0 <= j < p_steps):
            raise FileFormatError(f"{path}:{lineno}: failure note for point ({i}, {j}) "
                                  f"outside the {q_steps}x{p_steps} grid")
    if len(rows) != q_steps * p_steps:
        raise FileFormatError(
            f"{path}: expected {q_steps * p_steps} rows, found {len(rows)}"
        )
    data = np.asarray(rows)
    qs = data[:: p_steps, 0]
    ps = data[:p_steps, 1]
    # Row k sits at grid point (k // p_steps, k % p_steps); compare refuses non-finite axes.
    at = np.column_stack((np.repeat(qs, p_steps), np.tile(ps, q_steps)))
    stray = np.flatnonzero(((data[:, :2] != at) & np.isfinite(data[:, :2]) & np.isfinite(at)).any(1))
    if stray.size:
        k = stray[0]
        raise FileFormatError(f"{path}: data row {k + 1} states (q={data[k, 0]:.17g}, "
                              f"p={data[k, 1]:.17g}), not its grid position "
                              f"(q={at[k, 0]:.17g}, p={at[k, 1]:.17g})")
    table = data[:, 2:].T.reshape(len(_POINT_COLUMNS), q_steps, p_steps)
    try:
        return WignerGrid(qs=qs, ps=ps, **dict(zip(_POINT_COLUMNS, table)),
                          failures=failures, meta=meta)
    except ValidationError as exc:
        raise FileFormatError(f"{path}: {exc}") from exc


def _header_int(path: str, lineno: int, text: str) -> int:
    try:
        return int(text)
    except ValueError:
        raise FileFormatError(
            f"{path}:{lineno}: expected an integer, got {text.strip()!r}"
        ) from None


def compare_wigner_grids(a: WignerGrid, b: WignerGrid) -> dict:
    """Error norms between two grids sharing the same axes.

    Points that are NaN in either grid (failed reconstructions) are skipped
    and counted.  Returns max_abs, rms, mean_abs, compared_points,
    skipped_points.
    """
    if a.qs.size != b.qs.size or a.ps.size != b.ps.size:
        raise ValidationError("grids have different shapes")
    # Written as "all close" so that a NaN axis value fails it.
    if not (np.all(np.abs(a.qs - b.qs) <= 1e-9) and np.all(np.abs(a.ps - b.ps) <= 1e-9)):
        raise ValidationError("grids are sampled at different points")
    diff = a.values - b.values
    ok = np.isfinite(diff)
    if not np.any(ok):
        raise ValidationError("grids share no finite points to compare")
    d = diff[ok]
    return {
        "max_abs": float(np.max(np.abs(d))),
        "rms": float(np.sqrt(np.mean(d * d))),
        "mean_abs": float(np.mean(np.abs(d))),
        "compared_points": int(d.size),
        "skipped_points": int(diff.size - d.size),
    }


def write_gnuplot_files(grid: WignerGrid, out_prefix: str) -> tuple[str, str]:
    """Emit a gnuplot-ready data file and driver script for a grid.

    Returns (data_path, script_path); run ``gnuplot <script>`` to render.
    """
    dat_path = f"{out_prefix}.dat"
    gp_path = f"{out_prefix}.gp"
    lines = ["# q p w"]
    for i, qv in enumerate(grid.qs):
        lines.extend(f"{qv:.17g} {pv:.17g} {grid.values[i, j]:.17g}"
                     for j, pv in enumerate(grid.ps))
        lines.append("")
    data = ("\n".join(lines) + "\n").encode()
    title = _gnuplot_string(f"Wigner function ({grid.meta.get('kind', 'wigner')})")
    script = (
        "set title %s\n"
        "set xlabel 'q'\n"
        "set ylabel 'p'\n"
        "set pm3d at s\n"
        "set hidden3d\n"
        "set contour base\n"
        "splot %s using 1:2:3 with pm3d notitle\n"
        "pause -1 'press return to close'\n" % (title, _gnuplot_string(dat_path))
    ).encode()
    _write_atomically(dat_path, lambda fh: fh.write(data))
    _write_atomically(gp_path, lambda fh: fh.write(script))
    return dat_path, gp_path


def _gnuplot_string(text: str) -> str:
    """``text`` as a single-quoted gnuplot string, which is read literally
    except that '' stands for one quote; a line break would end the command,
    so it is refused."""
    _check_line_break("a gnuplot string", text)
    return "'" + text.replace("'", "''") + "'"
