"""One benchmark run: simulate records, reconstruct them, check, measure.

A run is a single-process closed loop: one reconstruction job at a time, the
next starting when the last has written its grid file.  A job is what the
``reconstruct`` subcommand does, through the same public calls: load the
record file, build (or load) the kernel, scan the grid, write the grid file.

Untraced runs (``--trace 0``) report the end-to-end metrics, with timings
scaled by the speed a machine probe measures during the run.  Traced runs
(``--trace 1``) alternate an untraced and a traced job on the same record
and report the per-layer metrics of the traced ones plus the tracing
overhead.  The oracle is evaluated outside every timed region.
"""

from __future__ import annotations

import contextlib
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

import numpy as np
import scipy

import emtomo
from emtomo import (
    compare_wigner_grids,
    fock_kernel,
    load_record,
    load_wigner_grid,
    oracle_wigner_grid,
    reconstruct_wigner_grid,
    sample_homodyne,
    save_record_binary,
    save_record_text,
    save_wigner_grid,
)

from tracing import NullTracer, Tracer, duration, instrument, self_times, subtree
from workloads import WORKLOADS, Workload

RUN_PY = Path(__file__).resolve().parent / "run.py"

# name -> unit, for --trace 0 and --trace 1; BENCHMARK.json declares the same.
END_TO_END = {
    "wall_s": "s",
    "setup_s": "s",
    "points_per_s": "1/s",
    "simulate_s": "s",
    "rms_vs_oracle": "1",
    "max_abs_vs_oracle": "1",
    "ok_frac": "frac",
    "peak_rss_mb": "MB",
}
PER_LAYER = {
    "em.busy_s": "s",
    "em.iterations": "count",
    "em.us_per_iter": "us",
    "em.point_p50_ms": "ms",
    "em.point_p90_ms": "ms",
    "em.active_bins_mean": "count",
    "em.gflops_computed": "GFLOP/s",
    "em.plateau_frac": "frac",
    "homodyne.hist_s": "s",
    "homodyne.hist_ns_per_sample": "ns",
    "homodyne.binned_frac": "frac",
    "homodyne.sample_s": "s",
    "homodyne.record_write_s": "s",
    "homodyne.record_read_s": "s",
    "homodyne.record_bytes": "B",
    "fock_kernel.build_s": "s",
    "fock_kernel.cache_load_s": "s",
    "fock_kernel.cache_hits": "count",
    "fock_kernel.cache_misses": "count",
    "fock_kernel.bytes": "B",
    "fock_kernel.worst_deficit": "frac",
    "pipeline.scan_s": "s",
    "pipeline.self_s": "s",
    "pipeline.points": "count",
    "pipeline.failed": "count",
    "pipeline.grid_write_s": "s",
    "pipeline.grid_bytes": "B",
    "oracle.grid_s": "s",
    "trace.overhead_frac": "frac",
}


# ---------------------------------------------------------------- simulation

def simulate_record(workload: Workload, seed: int, into: Path) -> dict:
    """Sample one record and write it to ``into``; returns its timings."""
    save = save_record_text if workload.record_format == "text" else save_record_binary
    path = into / f"record-{seed}.{workload.record_format}"
    t0 = perf_counter()
    record = sample_homodyne(workload.make_state(), workload.phases,
                             workload.events, workload.eta, seed)
    t1 = perf_counter()
    save(str(path), record)
    t2 = perf_counter()
    return {"seed": seed, "path": str(path), "sample_s": t1 - t0,
            "write_s": t2 - t1, "bytes": path.stat().st_size}


# ------------------------------------------------------------- machine speed

# About the time of one MachineProbe.run on the baseline machine in a quiet
# phase.  Timings are reported at this machine speed (README.md, "Noise").
PROBE_REFERENCE_S = 0.100


class MachineProbe:
    """A fixed task owned by the benchmark that measures the machine's speed.

    It mixes the three kinds of work emtomo does: a shifted histogram of
    1M samples (vectorised, memory-bound), 1500 small matrix-vector products
    (EM-like) and parsing 20k text lines.  Its inputs come from a constant
    seed and it calls nothing in emtomo, so its time moves with the machine
    and never with the program under test.
    """

    def __init__(self):
        rng = np.random.default_rng(12345)
        self.xs = 2.0 * rng.normal(size=1_000_000)
        self.thetas = rng.uniform(0.0, np.pi, size=1_000_000)
        self.matrix = rng.uniform(size=(40, 1100))
        self.lines = [f"{t:.6f},{x:.6f}"
                      for t, x in zip(self.thetas[:20_000], self.xs[:20_000])]

    def run(self) -> float:
        t0 = perf_counter()
        shift = 0.3 * np.cos(self.thetas) + 0.2 * np.sin(self.thetas)
        idx = np.floor((self.xs - shift + 8.0) / 0.001).astype(np.int64)
        np.bincount(idx[(idx >= 0) & (idx < 16_000)], minlength=16_000)
        v = self.matrix[0]
        for _ in range(1500):
            w = self.matrix @ v
            v = self.matrix.T @ (w / w.sum())
        [tuple(map(float, line.split(","))) for line in self.lines]
        return perf_counter() - t0


def simulate_server(workload: Workload, into: Path, requests, replies) -> None:
    """Child side of :class:`Simulator`: one request line in, one JSON line out.

    A request is a record seed, or ``probe`` for one timed MachineProbe run.
    """
    probe = MachineProbe()
    for line in requests:
        if line.strip() == "probe":
            reply = {"probe_s": probe.run()}
        else:
            reply = simulate_record(workload, int(line), into)
        replies.write(json.dumps(reply) + "\n")
        replies.flush()


class Simulator:
    """Samples records and runs the machine probe in a child process.

    Keeping both out of the parent makes the parent's peak RSS that of
    reconstruction alone; keeping one child for the whole run lets simulation
    and the probe be timed between jobs without paying an interpreter start
    each time.  Requests are answered one at a time, never while a job runs.
    """

    def __init__(self, workload: Workload, into: Path):
        self._proc = subprocess.Popen(
            [sys.executable, str(RUN_PY), "--simulate", workload.name,
             "--into", str(into)],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True,
        )

    def _ask(self, request: str) -> dict:
        self._proc.stdin.write(f"{request}\n")
        self._proc.stdin.flush()
        line = self._proc.stdout.readline()
        if not line:
            raise RuntimeError(f"record simulation exited with {self._proc.wait()}")
        return json.loads(line)

    def make(self, seed: int) -> dict:
        return self._ask(str(seed))

    def probe(self) -> float:
        return self._ask("probe")["probe_s"]

    def close(self) -> None:
        self._proc.stdin.close()
        try:
            self._proc.wait(timeout=60)
        except subprocess.TimeoutExpired:
            self._proc.kill()
            self._proc.wait()
        self._proc.stdout.close()

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.close()


# ---------------------------------------------------------------------- jobs

def _setup(workload: Workload, record_path: str, out_path: str,
           kernel_cache: str | None, tracer):
    with tracer.span("homodyne.record_read"):
        record = load_record(record_path)
    config = workload.make_config(record_path, out_path, kernel_cache)
    with tracer.span("fock_kernel.load_or_build"):
        kernel = fock_kernel.load_or_build_kernel(
            config.kernel_cache, config.bin_grid(), config.resolve_cutoff(),
            config.eta, max_column_deficit=config.max_column_deficit,
        )
    return record, config, kernel


def setup_once(workload: Workload, record_path: str, kernel_cache: str | None) -> float:
    t0 = perf_counter()
    _setup(workload, record_path, os.devnull, kernel_cache, NullTracer())
    return perf_counter() - t0


def run_job(workload: Workload, record_path: str, out_path: str,
            kernel_cache: str | None, tracer) -> dict:
    """Record file on disk -> grid file written, timed in three parts."""
    t0 = perf_counter()
    with tracer.span("job"):
        record, config, kernel = _setup(workload, record_path, out_path,
                                         kernel_cache, tracer)
        t1 = perf_counter()
        with tracer.span("pipeline.scan") as scan:
            grid = reconstruct_wigner_grid(record, config, kernel=kernel)
            scan.update(points=workload.point_count, failed=len(grid.failures))
        t2 = perf_counter()
        with tracer.span("pipeline.grid_write") as write:
            save_wigner_grid(out_path, grid)
        t3 = perf_counter()
        write["bytes"] = os.path.getsize(out_path)
    return {"record": record_path, "grid": grid, "wall_s": t3 - t0,
            "setup_s": t1 - t0, "scan_s": t2 - t1, "write_s": t3 - t2,
            "points": workload.point_count}


def check_job(workload: Workload, job: dict, exact, out_path: str,
              first_values: dict) -> list:
    """Oracle gate, grid-file round trip and repeatability of one job."""
    grid = job["grid"]
    problems = list(workload.gate(grid, exact))
    if exact.failures:
        problems.append(f"oracle grid failed at {sorted(exact.failures)}")
    if not np.array_equal(load_wigner_grid(out_path).values, grid.values,
                          equal_nan=True):
        problems.append("grid file does not read back the reconstructed values")
    earlier = first_values.setdefault(job["record"], grid.values)
    if not np.array_equal(earlier, grid.values, equal_nan=True):
        problems.append("same record reconstructed to different values")
    return problems


# ------------------------------------------------------------------- metrics

def layer_metrics(job_spans: list, warmup_spans: list) -> dict:
    """Per-layer numbers of one traced job (``job_spans[0]`` is its root).

    Kernel builds and cache misses also count the warm-up that fills a kernel
    cache before timing, since a job that hits the cache builds nothing.
    Cache load time is the time in ``load_or_build_kernel`` outside its build
    and save calls: the cache probe plus the ``load_kernel`` read.
    """
    own = self_times(job_spans)

    def named(name, spans=job_spans):
        return [s for s in spans if s["name"] == name]

    em = named("em.reconstruct")
    hist = named("homodyne.hist")
    scan = named("pipeline.scan")[0]
    write = named("pipeline.grid_write")[0]
    lookups = named("fock_kernel.load_or_build")
    lookup_ids = {s["id"] for s in lookups}
    cache_load_s = sum(duration(s) for s in lookups) - sum(
        duration(s) for s in job_spans if s["parent"] in lookup_ids
        and s["name"] in ("fock_kernel.build", "fock_kernel.save"))
    kernels = named("fock_kernel.load") + named("fock_kernel.build")
    builds = named("fock_kernel.build", job_spans + warmup_spans)
    em_s = sum(duration(s) for s in em)
    its = sum(s["iterations"] for s in em)
    em_ms = [1e3 * duration(s) for s in em]
    hist_s = sum(duration(s) for s in hist)
    samples = sum(s["samples"] for s in hist)
    return {
        "em.busy_s": em_s,
        "em.iterations": its,
        "em.us_per_iter": 1e6 * em_s / its,
        "em.point_p50_ms": float(np.percentile(em_ms, 50)),
        "em.point_p90_ms": float(np.percentile(em_ms, 90)),
        "em.active_bins_mean": float(np.mean([s["active"] for s in em])),
        "em.gflops_computed": sum(4 * s["active"] * s["dim"] * s["iterations"]
                                  for s in em) / em_s / 1e9,
        "em.plateau_frac": sum(s["stop"] == "plateau" for s in em) / len(em),
        "homodyne.hist_s": hist_s,
        "homodyne.hist_ns_per_sample": 1e9 * hist_s / samples,
        "homodyne.binned_frac": 1.0 - sum(s["overflow"] for s in hist) / samples,
        "homodyne.record_read_s": duration(named("homodyne.record_read")[0]),
        "fock_kernel.build_s": sum(duration(s) for s in builds),
        "fock_kernel.cache_load_s": cache_load_s,
        "fock_kernel.cache_hits": len(named("fock_kernel.load")),
        "fock_kernel.cache_misses": len(builds),
        "fock_kernel.bytes": kernels[-1]["bytes"],
        "fock_kernel.worst_deficit": kernels[-1]["worst_deficit"],
        "pipeline.scan_s": duration(scan),
        "pipeline.self_s": own[scan["id"]],
        "pipeline.points": scan["points"],
        "pipeline.failed": scan["failed"],
        "pipeline.grid_write_s": duration(write),
        "pipeline.grid_bytes": write["bytes"],
    }


# ---------------------------------------------------------------- provenance

def provenance(root: Path, workload: Workload, seed: int, record_seeds: list) -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    digest = hashlib.sha256()
    for path in sorted((root / "src" / "emtomo").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    cpu = "unknown"
    with contextlib.suppress(OSError):
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    return {
        "workload": workload.name,
        "seed": seed,
        "record_seeds": record_seeds,
        "reference_seed": workload.reference_seed,
        "nproc": os.cpu_count(),
        "cpus_allowed": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "emtomo": emtomo.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_config": blas.get("openblas configuration", ""),
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS", "unset"),
        "git_commit": _git_commit(root),
        "src_sha256": digest.hexdigest(),
    }


def _git_commit(root: Path):
    if not (root / ".git").exists():
        return None
    try:
        proc = subprocess.run(["git", "-C", str(root), "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return proc.stdout.strip() or None


# ----------------------------------------------------------------------- run

def run(workload_name: str, seed: int, seconds: int, trace: bool, root: Path,
        report_path: str | None = None) -> dict:
    workload = WORKLOADS[workload_name]
    state_dir = root / ".perfbench"
    workdir = state_dir / f"work-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        report = _run(workload, seed, seconds, trace, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    if trace:
        spans = report.pop("spans")
        with open(state_dir / f"spans-{workload.name}.json", "w") as fh:
            json.dump(spans, fh)
    report["provenance"] = provenance(root, workload, seed, report["record_seeds"])
    if report_path:
        with open(report_path, "w") as fh:
            json.dump(report, fh, indent=1, sort_keys=True)
    return report


def _run(workload: Workload, seed: int, seconds: int, trace: bool, workdir: Path) -> dict:
    with Simulator(workload, workdir) as simulator:
        return _measure(workload, seed, seconds, trace, workdir, simulator)


def _measure(workload: Workload, seed: int, seconds: int, trace: bool,
             workdir: Path, simulator: Simulator) -> dict:
    deadline = perf_counter() + seconds
    record_seeds = workload.seeds_for(seed)
    reference = [] if trace else [workload.reference_seed]
    sims = [simulator.make(s) for s in reference + record_seeds]
    records = list(sims)

    probe = workload.make_config("-", "-", None)
    t0 = perf_counter()
    exact = oracle_wigner_grid(workload.make_state(), probe.q_axis(), probe.p_axis(),
                               workload.oracle_n_max)
    oracle_s = perf_counter() - t0

    tracer = Tracer()
    cache = str(workdir / "kernel.bin") if workload.warm_cache else None
    warmup_spans: list = []
    if cache:
        with instrument(tracer), tracer.span("warmup") as warm:
            _setup(workload, records[0]["path"], os.devnull, cache, tracer)
        warmup_spans = subtree(tracer.spans, warm["id"])

    out_path = str(workdir / "grid.txt")
    problems: list = []
    first_values: dict = {}
    attempted = failed = 0
    jobs: list = []
    setups: list = []
    traced_roots: list = []
    overheads: list = []
    simulations_due = 0.0
    probes: list = []

    def job_on(sim, tracer_):
        nonlocal attempted, failed
        job = run_job(workload, sim["path"], out_path, cache, tracer_)
        found = check_job(workload, job, exact, out_path, first_values)
        attempted += job["points"]
        failed += job["points"] if found else len(job["grid"].failures)
        problems.extend(f"record {sim['seed']}: {p}" for p in found)
        job["seed"] = sim["seed"]
        return job

    # Rounds take the run's records in turn, each at least once, while the
    # next round is expected to end before the deadline.
    rounds: list = []
    while len(rounds) < len(records) or perf_counter() + statistics.median(rounds) <= deadline:
        start = perf_counter()
        sim = records[len(rounds) % len(records)]
        if not trace:
            probes.append(simulator.probe())
        plain = job_on(sim, NullTracer())
        if trace:
            traced_roots.append(len(tracer.spans))
            with instrument(tracer):
                traced = job_on(sim, tracer)
            overheads.append(traced["wall_s"] / plain["wall_s"] - 1.0)
        else:
            # one more set-up sample and the workload's share of simulation
            # samples after every job, so that both spread over the whole run
            jobs.append(plain)
            setups.append(setup_once(workload, sim["path"], cache))
            simulations_due += workload.simulations_per_job
            while simulations_due >= 1.0:
                sims.append(simulator.make(sim["seed"]))
                simulations_due -= 1.0
            probes.append(simulator.probe())
        rounds.append(perf_counter() - start)

    report = {"workload": workload.name, "seed": seed, "record_seeds": record_seeds,
              "correct": not problems and failed == 0, "attempted": attempted,
              "failed": failed, "problems": problems}
    if not trace:
        ref_norms = compare_wigner_grids(jobs[0]["grid"], exact)
        measured = {
            "wall_s": statistics.median(j["wall_s"] for j in jobs),
            "setup_s": statistics.median(setups + [j["setup_s"] for j in jobs]),
            "points_per_s": statistics.median(j["points"] / j["scan_s"] for j in jobs),
            "simulate_s": statistics.median(s["sample_s"] + s["write_s"] for s in sims),
        }
        # On a shared machine other tenants can slow every timing by up to
        # ~1.4x for minutes at a time (README.md, "Noise").  Timings are
        # scaled to the machine speed at which the probe takes
        # PROBE_REFERENCE_S; its mean over the run estimates the speed.
        report["probe_s"] = statistics.fmean(probes)
        speed = PROBE_REFERENCE_S / report["probe_s"]
        report["measured"] = measured
        report["metrics"] = {
            "wall_s": measured["wall_s"] * speed,
            "setup_s": measured["setup_s"] * speed,
            "points_per_s": measured["points_per_s"] / speed,
            "simulate_s": measured["simulate_s"] * speed,
            "rms_vs_oracle": ref_norms["rms"],
            "max_abs_vs_oracle": ref_norms["max_abs"],
            "ok_frac": 1.0 - failed / attempted,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        report["samples"] = {
            "jobs": [{k: j[k] for k in ("seed", "wall_s", "setup_s", "scan_s")}
                     for j in jobs],
            "setup_s": setups,
            "probe_s": probes,
            "simulate": [{"seed": s["seed"], "s": s["sample_s"] + s["write_s"]}
                         for s in sims],
        }
        return report

    per_job = [layer_metrics(subtree(tracer.spans, tracer.spans[i]["id"]), warmup_spans)
               for i in traced_roots]
    # median_low keeps each value one a traced job actually produced
    metrics = {name: statistics.median_low([m[name] for m in per_job])
               for name in per_job[0]}
    metrics.update({
        "homodyne.sample_s": statistics.median(s["sample_s"] for s in records),
        "homodyne.record_write_s": statistics.median(s["write_s"] for s in records),
        "homodyne.record_bytes": records[0]["bytes"],
        "oracle.grid_s": oracle_s,
        "trace.overhead_frac": statistics.median(overheads),
    })
    report["metrics"] = {name: metrics[name] for name in PER_LAYER}
    report["jobs"] = len(traced_roots)
    scan = metrics["pipeline.scan_s"]
    report["shares"] = {
        "em_of_scan": metrics["em.busy_s"] / scan,
        "hist_of_scan": metrics["homodyne.hist_s"] / scan,
        "pipeline_self_of_scan": metrics["pipeline.self_s"] / scan,
    }
    report["spans"] = tracer.spans
    return report


def emit(report: dict, trace: bool) -> None:
    """Human-readable lines, then the one-line JSON result last."""
    units = PER_LAYER if trace else END_TO_END
    print("provenance " + json.dumps(report["provenance"], sort_keys=True))
    for problem in report["problems"]:
        print(f"problem {problem}")
    if "shares" in report:
        print("shares " + json.dumps(report["shares"], sort_keys=True))
    if "measured" in report:
        print(f"probe_s {report['probe_s']!r} (reference {PROBE_REFERENCE_S})")
        for name, value in report["measured"].items():
            print(f"measured {name} {value!r} {units[name]}")
    for name, value in report["metrics"].items():
        print(f"metric {name} {value!r} {units[name]}")
    print(json.dumps({
        "correct": report["correct"],
        "attempted": report["attempted"],
        "failed": report["failed"],
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in report["metrics"].items()},
    }))
