#!/usr/bin/env python3
"""Benchmark entry point for emtomo.

Run from the repository root:

    python3 perfbench/run.py --workload cat-scan --seed 1 --seconds 50 --trace 0

It reconstructs Wigner grids from simulated homodyne records with the
sources under ``src/`` of the same checkout, checks every grid against the
exact oracle, prints each metric as ``metric <name> <value> <unit>`` and, as
the last line, one JSON object with ``correct``, ``attempted``, ``failed``
and ``metrics``.  ``--trace 0`` reports the end-to-end metrics, ``--trace 1``
the per-layer ones.  README.md lists both and the workloads.
"""

from __future__ import annotations

import argparse
import os
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
# Held fixed in every run and recorded in the provenance: BLAS threading
# changes EM speed (one thread beat two on this code's small matrix-vector
# products), so comparisons are only fair at one setting.
BLAS_THREADS = "1"
WORKLOAD_NAMES = ("cat-scan", "calib-plateau")


def _seconds(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError("--seconds must be >= 1")
    return value


def _seed(text: str) -> int:
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError("--seed must be >= 0")
    return value


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=_seed, default=0)
    parser.add_argument("--seconds", type=_seconds, default=50)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--report", default=None,
                        help="also write the full run report (JSON) to this file")
    # internal: the record-simulation child process
    parser.add_argument("--simulate", choices=WORKLOAD_NAMES, help=argparse.SUPPRESS)
    parser.add_argument("--into", help=argparse.SUPPRESS)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    if args.workload is None and args.simulate is None:
        print("error: --workload is required", file=sys.stderr)
        return 2
    src = ROOT / "src"
    if not (src / "emtomo" / "__init__.py").is_file():
        print(f"error: no emtomo sources at {src}", file=sys.stderr)
        return 2
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = BLAS_THREADS
    sys.path.insert(0, str(src))

    import emtomo

    if Path(emtomo.__file__).resolve().parent != (src / "emtomo").resolve():
        print(f"error: imported emtomo from {emtomo.__file__}, not {src}", file=sys.stderr)
        return 2

    import harness
    from workloads import WORKLOADS

    if args.simulate:
        harness.simulate_server(WORKLOADS[args.simulate], Path(args.into),
                                sys.stdin, sys.stdout)
        return 0
    report = harness.run(args.workload, args.seed, args.seconds, bool(args.trace),
                         ROOT, report_path=args.report)
    harness.emit(report, bool(args.trace))
    return 0


if __name__ == "__main__":
    sys.exit(main())
