#!/usr/bin/env python3
"""Write perfbench/baseline/BENCH_<workload>.json for every workload.

Run from the repository root:

    python3 perfbench/baseline.py --seed 1

Each file holds one untraced run (end-to-end metrics, also unscaled, and
the machine probe's mean) and one traced run (per-layer metrics, layer
shares, tracing overhead) of the same seed, with the provenance of both.
Compare two commits by diffing their files.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from run import WORKLOAD_NAMES  # noqa: E402

RUN_SECONDS = json.loads((HERE.parent / "BENCHMARK.json").read_text())["run_seconds"]


def _run(workload: str, seed: int, trace: int) -> dict:
    report = HERE.parent / ".perfbench" / f"report-{workload}-{trace}.json"
    subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(RUN_SECONDS), "--trace", str(trace),
         "--report", str(report)],
        check=True, stdout=subprocess.DEVNULL, timeout=600,
    )
    return json.loads(report.read_text())


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seed", type=int, default=1)
    args = parser.parse_args(argv)
    out = HERE / "baseline"
    out.mkdir(parents=True, exist_ok=True)
    for name in WORKLOAD_NAMES:
        plain = _run(name, args.seed, 0)
        traced = _run(name, args.seed, 1)
        shares = dict(traced["shares"])
        shares["setup_of_wall"] = plain["metrics"]["setup_s"] / plain["metrics"]["wall_s"]
        bench = {
            "workload": name,
            "seed": args.seed,
            "run_seconds": RUN_SECONDS,
            "correct": plain["correct"] and traced["correct"],
            "end_to_end": plain["metrics"],
            "end_to_end_measured": plain["measured"],
            "probe_s": plain["probe_s"],
            "end_to_end_samples": plain["samples"],
            "per_layer": traced["metrics"],
            "traced_jobs": traced["jobs"],
            "shares": shares,
            "provenance": {"untraced": plain["provenance"], "traced": traced["provenance"]},
        }
        path = out / f"BENCH_{name}.json"
        path.write_text(json.dumps(bench, indent=1, sort_keys=True) + "\n")
        print(f"wrote {path}: correct={bench['correct']} "
              + " ".join(f"{k}={v:.3g}" for k, v in shares.items()))
    return 0


if __name__ == "__main__":
    sys.exit(main())
