"""Tests of the benchmark itself.

Run from the repository root:

    python -m pytest -q perfbench/test_perfbench.py
"""

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

from emtomo import fock_kernel, oracle_wigner_grid, pipeline  # noqa: E402

import harness  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


def _declared():
    with open(ROOT / "BENCHMARK.json") as fh:
        return json.load(fh)


def _exact(workload):
    config = workload.make_config("-", "-", None)
    return oracle_wigner_grid(workload.make_state(), config.q_axis(), config.p_axis(),
                              workload.oracle_n_max)


def test_metric_names_and_units_match_benchmark_json():
    spec = _declared()
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == harness.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == harness.PER_LAYER
    names = [w["name"] for w in spec["workloads"]]
    assert names == list(WORKLOADS) == list(run.WORKLOAD_NAMES)
    for entry in spec["workloads"]:
        assert entry["why"] == WORKLOADS[entry["name"]].why
    assert spec["command"] == ["python3", "perfbench/run.py"]


# uniform shift of the exact grid that stays inside the workload's bound, and
# one that just leaves it (cat-scan: rms 0.03; calib-plateau: 0.02 at the
# centre)
@pytest.mark.parametrize("name, inside, outside", [
    ("cat-scan", 0.029, 0.031),
    ("calib-plateau", 0.019, 0.021),
])
def test_oracle_gate_passes_exact_and_fails_perturbed_grid(name, inside, outside):
    workload = WORKLOADS[name]
    exact = _exact(workload)
    assert workload.gate(exact, exact) == []
    for shift, ok in ((inside, True), (outside, False)):
        shifted = _exact(workload)
        shifted.values = shifted.values + shift
        assert (workload.gate(shifted, exact) == []) is ok, shift


def test_different_seed_gives_different_record_that_passes_gate(tmp_path):
    workload = WORKLOADS["cat-scan"]
    exact = _exact(workload)
    first, second = workload.seeds_for(1)[0], workload.seeds_for(2)[0]
    assert first != second
    records = [harness.simulate_record(workload, s, tmp_path) for s in (first, second)]
    data = [Path(r["path"]).read_bytes() for r in records]
    assert data[0] != data[1]
    (tmp_path / "again").mkdir()
    again = harness.simulate_record(workload, first, tmp_path / "again")
    assert Path(again["path"]).read_bytes() == data[0]
    for record in records:
        out = str(tmp_path / "grid.txt")
        job = harness.run_job(workload, record["path"], out, None, tracing.NullTracer())
        assert harness.check_job(workload, job, exact, out, {}) == []


def test_simulation_child_answers_probe_and_exits(tmp_path):
    with harness.Simulator(WORKLOADS["cat-scan"], tmp_path) as simulator:
        assert simulator.probe() > 0
    assert simulator._proc.returncode == 0


def test_instrument_restores_emtomo_functions_even_on_error():
    originals = {(m.__name__, a): getattr(m, a) for m, a, _, _ in tracing.WRAPPED}
    tracer = tracing.Tracer()
    with pytest.raises(RuntimeError):
        with tracing.instrument(tracer):
            for module, attr, _, _ in tracing.WRAPPED:
                assert getattr(module, attr) is not originals[(module.__name__, attr)]
            raise RuntimeError("boom")
    for module, attr, _, _ in tracing.WRAPPED:
        assert getattr(module, attr) is originals[(module.__name__, attr)]
    assert pipeline.shift_and_histogram is originals[("emtomo.pipeline",
                                                      "shift_and_histogram")]
    assert fock_kernel.build_kernel_matrix is originals[("emtomo.fock_kernel",
                                                         "build_kernel_matrix")]


def test_traced_job_spans_nest_and_layer_metrics_add_up(tmp_path):
    workload = WORKLOADS["cat-scan"]
    record = harness.simulate_record(workload, 5, tmp_path)
    cache = str(tmp_path / "kernel.bin")
    harness.setup_once(workload, record["path"], cache)
    tracer = tracing.Tracer()
    with tracing.instrument(tracer):
        harness.run_job(workload, record["path"], str(tmp_path / "g.txt"), cache, tracer)
    spans = tracer.spans
    assert spans[0]["name"] == "job" and spans[0]["parent"] is None
    ids = {s["id"] for s in spans}
    assert all(s["parent"] in ids for s in spans[1:])
    assert all(s["start"] <= s["end"] for s in spans)
    own = tracing.self_times(spans)
    assert sum(own.values()) == pytest.approx(tracing.duration(spans[0]), rel=1e-9)
    metrics = harness.layer_metrics(spans, [])
    assert set(metrics) | {"homodyne.sample_s", "homodyne.record_write_s",
                           "homodyne.record_bytes", "oracle.grid_s",
                           "trace.overhead_frac"} == set(harness.PER_LAYER)
    assert metrics["em.iterations"] == workload.point_count * 2_000
    assert metrics["pipeline.points"] == workload.point_count
    # the warm cache is read, and that read counts as cache load time
    (load,) = [s for s in spans if s["name"] == "fock_kernel.load"]
    assert metrics["fock_kernel.cache_hits"] == 1
    assert metrics["fock_kernel.cache_misses"] == 0
    assert metrics["fock_kernel.cache_load_s"] >= tracing.duration(load)
    # histogram and EM spans cover the scan but for the stated 1% slack
    assert metrics["pipeline.self_s"] < 0.01 * metrics["pipeline.scan_s"]


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "cat-scan", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120, env=env,
    )
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
