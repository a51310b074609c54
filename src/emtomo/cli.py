"""Command line front end.

Subcommands mirror the library pipeline: ``simulate`` writes a homodyne
record, ``reconstruct`` turns a record into a Wigner grid file, ``oracle``
writes the exact grid for a known state, ``compare`` reports error norms
between two grid files, and ``plot`` emits gnuplot artifacts for one.

All failures print a single machine-parsable line ``error: <category>:
<message>`` on stderr and exit with a category-specific code: 2 for command
line usage (argparse), 3 for configuration problems, 4 for unreadable or
malformed files, 5 for numerical-safety guards (an array too large to
allocate included), 6 for a tolerance violation in ``compare``.
"""

from __future__ import annotations

import argparse
import logging
import math
import sys

from . import __version__
from .errors import TomographyError, ValidationError
from .homodyne import (
    cat_state,
    coherent_state,
    fock_state,
    load_record,
    sample_homodyne,
    save_record_binary,
    save_record_text,
    vacuum_state,
)
from .oracle import oracle_wigner_grid
from .pipeline import (
    ReconstructionConfig,
    _check_field_type,
    _read_config_object,
    compare_wigner_grids,
    load_wigner_grid,
    reconstruct_wigner_grid,
    save_wigner_grid,
    write_gnuplot_files,
)

_EXIT_CODES = {"config": 3, "format": 4, "guard": 5, "tolerance": 6, "io": 4}


class ToleranceExceeded(TomographyError):
    category = "tolerance"


def _parse_complex(text: str) -> complex:
    try:
        return complex(text.replace(" ", ""))
    except ValueError:
        raise ValidationError(
            f"cannot parse {text!r} as a complex number (try e.g. '1.5j' or '0.3+0.2j')"
        ) from None


def _parse_phase(text: str) -> float:
    cleaned = text.strip().lower()
    if cleaned in ("pi", "+pi"):
        return math.pi
    if cleaned == "-pi":
        return -math.pi
    try:
        return float(text)
    except ValueError:
        raise ValidationError(f"cannot parse {text!r} as a phase (radians or 'pi')") from None


def _parse_deficit(text: str):
    if text.strip().lower() == "none":
        return None
    try:
        return float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"cannot parse {text!r} as a column-sum bound (number or 'none')"
        ) from None


def _parse_bound(text: str) -> float:
    try:
        bound = float(text)
    except ValueError:
        bound = math.nan
    # Written so that NaN fails it.
    if not 0.0 <= bound < math.inf:
        raise argparse.ArgumentTypeError(f"{text!r} is not a finite number >= 0")
    return bound


def _add_state_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--state", required=True,
                        choices=["vacuum", "fock", "coherent", "cat"],
                        help="state family to prepare")
    parser.add_argument("--n", type=int, default=None, help="photon number (fock)")
    parser.add_argument("--alpha", type=str, default=None,
                        help="complex amplitude, e.g. '1.5j' (coherent, cat)")
    parser.add_argument("--relative-phase", type=str, default="0",
                        help="cat superposition phase in radians, or 'pi'; '-pi' must be "
                             "joined to the flag: --relative-phase=-pi")
    parser.add_argument("--dim", type=int, default=None,
                        help="Fock-space truncation (default: sized from the state)")


def _build_state(args: argparse.Namespace):
    alpha = _parse_complex(args.alpha) if args.alpha is not None else None
    if args.state in ("coherent", "cat") and alpha is None:
        raise ValidationError(f"--alpha is required for --state {args.state}")
    if args.state == "fock" and args.n is None:
        raise ValidationError("--n is required for --state fock")
    phase = _parse_phase(args.relative_phase)
    if args.state == "vacuum":
        state, label = vacuum_state(args.dim), "vacuum"
    elif args.state == "fock":
        state, label = fock_state(args.n, args.dim), f"fock(n={args.n})"
    elif args.state == "coherent":
        state, label = coherent_state(alpha, args.dim), f"coherent(alpha={alpha})"
    else:
        state = cat_state(alpha, phase, args.dim)
        label = f"cat(alpha={alpha}, relative_phase={phase:g})"
    return state, f"{label} dim={state.dim}"


def _add_grid_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--q-min", type=float)
    parser.add_argument("--q-max", type=float)
    parser.add_argument("--q-steps", type=int)
    parser.add_argument("--p-min", type=float)
    parser.add_argument("--p-max", type=float)
    parser.add_argument("--p-steps", type=int)


def _given_fields(args: argparse.Namespace) -> dict:
    """The config fields set by flags; a flag left out sets no attribute."""
    return {k: v for k, v in vars(args).items() if k in ReconstructionConfig.__annotations__}


def _cmd_simulate(args: argparse.Namespace) -> int:
    state, label = _build_state(args)
    record = sample_homodyne(
        state, args.phases, args.events, args.eta, args.seed, source=label,
    )
    if args.format == "binary":
        save_record_binary(args.out, record)
    else:
        save_record_text(args.out, record)
    print(
        f"wrote {record.sample_count} samples ({args.phases} phases x "
        f"{args.events} events, eta={args.eta:g}) for {label} to {args.out}"
    )
    return 0


def _cmd_reconstruct(args: argparse.Namespace) -> int:
    # Validated once, after the file, the flags and the record's eta merge.
    data = _read_config_object(args.config) if "config" in args else {}
    data.update(_given_fields(args))
    if data.get("record_path") is None:
        raise ValidationError("no record file given (--record or config record_path)")
    _check_field_type("record_path", data["record_path"])
    record = load_record(data["record_path"])
    if data.get("eta") is None:
        data["eta"] = record.eta
    config = ReconstructionConfig.from_dict(data)
    if config.output_path is None:
        raise ValidationError("no output file given (--out or config output_path)")
    grid = reconstruct_wigner_grid(record, config)
    save_wigner_grid(config.output_path, grid)
    total = grid.qs.size * grid.ps.size
    print(
        f"reconstructed {total - len(grid.failures)}/{total} grid points "
        f"(n_max={config.resolve_cutoff()}, {record.sample_count} samples) "
        f"-> {config.output_path}"
    )
    if grid.failures:
        print(f"{len(grid.failures)} points failed; see comments in the grid file")
    return 0


def _cmd_oracle(args: argparse.Namespace) -> int:
    state, label = _build_state(args)
    # A lossless config checks the grid and cutoff flags as reconstruct does.
    config = ReconstructionConfig.from_dict({"eta": 1.0, **_given_fields(args)})
    n_max = config.resolve_cutoff()
    grid = oracle_wigner_grid(state, config.q_axis(), config.p_axis(), n_max)
    grid.meta["source"] = label
    save_wigner_grid(args.out, grid)
    print(f"wrote exact Wigner grid for {label} (n_max={n_max}) to {args.out}")
    return 0


def _cmd_compare(args: argparse.Namespace) -> int:
    a = load_wigner_grid(args.grid_a)
    b = load_wigner_grid(args.grid_b)
    norms = compare_wigner_grids(a, b)
    for key in ("max_abs", "rms", "mean_abs", "compared_points", "skipped_points"):
        print(f"{key} {norms[key]:.6g}" if isinstance(norms[key], float)
              else f"{key} {norms[key]}")
    if args.max_abs is not None and norms["max_abs"] > args.max_abs:
        raise ToleranceExceeded(
            f"max_abs {norms['max_abs']:.6g} exceeds bound {args.max_abs:g}"
        )
    return 0


def _cmd_plot(args: argparse.Namespace) -> int:
    grid = load_wigner_grid(args.grid)
    dat, gp = write_gnuplot_files(grid, args.out_prefix)
    print(f"wrote {dat} and {gp}; render with: gnuplot {gp}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="emtomo",
        description="Homodyne tomography: simulate records, reconstruct Wigner "
                    "functions by maximum likelihood, and check against exact values.",
    )
    parser.add_argument("--version", action="version", version=f"emtomo {__version__}")
    parser.add_argument("--verbose", action="store_true", help="log progress to stderr")
    sub = parser.add_subparsers(dest="command", required=True)

    sim = sub.add_parser("simulate", help="sample a homodyne record from a known state")
    _add_state_args(sim)
    sim.add_argument("--phases", type=int, required=True,
                     help="number of equally spaced phases in [0, pi)")
    sim.add_argument("--events", type=int, required=True, help="samples per phase")
    sim.add_argument("--eta", type=float, required=True, help="detection efficiency")
    sim.add_argument("--seed", type=int, default=0)
    sim.add_argument("--out", required=True, help="record file to write")
    sim.add_argument("--format", choices=["text", "binary"], default="text")
    sim.set_defaults(func=_cmd_simulate)

    # Here a flag left out sets no attribute, and a config field's flag has its name.
    rec = sub.add_parser("reconstruct", help="reconstruct a Wigner grid from a record",
                         argument_default=argparse.SUPPRESS)
    rec.add_argument("--record", dest="record_path", metavar="RECORD",
                     help="record file (text or binary)")
    rec.add_argument("--out", dest="output_path", metavar="OUT", help="grid file to write")
    rec.add_argument("--config", help="JSON file of config fields")
    rec.add_argument("--eta", type=float, help="detection efficiency (default: the record's)")
    rec.add_argument("--x-min", type=float)
    rec.add_argument("--x-max", type=float)
    rec.add_argument("--bin-count", type=int)
    rec.add_argument("--n-max", type=int, help="photon-number cutoff")
    rec.add_argument("--localization-radius", type=float,
                     help="phase-space radius to derive the cutoff from")
    rec.add_argument("--max-iter", type=int)
    rec.add_argument("--plateau-tol", type=float,
                     help="stop once the 100-iteration likelihood gain drops below this")
    _add_grid_args(rec)
    rec.add_argument("--kernel-cache", help="binary kernel cache file to reuse or create")
    rec.add_argument("--max-column-deficit", type=_parse_deficit,
                     help="kernel column-sum guard; 'none' disables")
    rec.set_defaults(func=_cmd_reconstruct)

    orc = sub.add_parser("oracle", help="write the exact Wigner grid of a known state",
                         argument_default=argparse.SUPPRESS)
    _add_state_args(orc)
    orc.add_argument("--n-max", type=int)
    orc.add_argument("--localization-radius", type=float)
    _add_grid_args(orc)
    orc.add_argument("--out", required=True)
    orc.set_defaults(func=_cmd_oracle)

    cmp_ = sub.add_parser("compare", help="error norms between two grid files")
    cmp_.add_argument("grid_a")
    cmp_.add_argument("grid_b")
    cmp_.add_argument("--max-abs", type=_parse_bound, default=None,
                      help="fail (exit 6) if the max abs difference exceeds this")
    cmp_.set_defaults(func=_cmd_compare)

    plt = sub.add_parser("plot", help="emit gnuplot data and script for a grid file")
    plt.add_argument("grid")
    plt.add_argument("--out-prefix", required=True)
    plt.set_defaults(func=_cmd_plot)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    logging.basicConfig(
        level=logging.INFO if args.verbose else logging.WARNING,
        format="%(levelname)s %(name)s: %(message)s",
    )
    try:
        return args.func(args)
    except TomographyError as exc:
        print(f"error: {exc.category}: {exc}", file=sys.stderr)
        return _EXIT_CODES.get(exc.category, 5)
    except OSError as exc:
        print(f"error: io: {exc}", file=sys.stderr)
        return _EXIT_CODES["io"]
    except MemoryError as exc:  # an array too large to allocate
        print(f"error: guard: {str(exc) or 'out of memory'}", file=sys.stderr)
        return _EXIT_CODES["guard"]


if __name__ == "__main__":
    sys.exit(main())
