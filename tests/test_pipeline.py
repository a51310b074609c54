import ast
import builtins
import os
from dataclasses import asdict
from pathlib import Path

import numpy as np
import pytest

import emtomo.pipeline
from emtomo import (
    BinGrid,
    ColumnDeficitError,
    HomodyneRecord,
    ReconstructionConfig,
    ShiftOverflowError,
    ValidationError,
    WignerGrid,
    build_kernel_matrix,
    coherent_state,
    compare_wigner_grids,
    load_wigner_grid,
    oracle_wigner_grid,
    reconstruct_wigner_grid,
    sample_homodyne,
    save_kernel,
    save_wigner_grid,
    vacuum_state,
    wigner_exact,
    wigner_from_distribution,
    write_gnuplot_files,
)
from emtomo.pipeline import _read_config_object

from .grid_point import reconstruct_point

ONE_OVER_PI = 1.0 / np.pi


@pytest.fixture(scope="module")
def vacuum_record():
    return sample_homodyne(vacuum_state(), 4, 25_000, 0.85, 1001)


@pytest.fixture(scope="module")
def vacuum_kernel():
    return build_kernel_matrix(BinGrid(-9.0, 9.0, 900), 8, 0.85)


def small_config(**overrides):
    base = dict(
        eta=0.85, x_min=-9.0, x_max=9.0, bin_count=900, n_max=8,
        max_iter=300, q_min=-1.0, q_max=1.0, q_steps=3,
        p_min=-1.0, p_max=1.0, p_steps=3,
    )
    base.update(overrides)
    return ReconstructionConfig(**base)


def test_wigner_from_distribution_alternates_signs():
    assert wigner_from_distribution([1.0, 0.0]) == pytest.approx(ONE_OVER_PI)
    assert wigner_from_distribution([0.0, 1.0]) == pytest.approx(-ONE_OVER_PI)
    assert wigner_from_distribution([0.5, 0.5]) == pytest.approx(0.0, abs=1e-15)


def test_config_validation():
    with pytest.raises(ValidationError):
        small_config(eta=0.0)
    with pytest.raises(ValidationError):
        small_config(n_max=None)  # no cutoff source at all
    with pytest.raises(ValidationError):
        small_config(localization_radius=3.0)  # both cutoff sources
    with pytest.raises(ValidationError):
        small_config(q_steps=0)
    with pytest.raises(ValidationError):
        small_config(max_iter=0)
    cfg = small_config(n_max=None, localization_radius=4.0)
    assert cfg.resolve_cutoff() == 8


def test_config_json_round_trip(tmp_path):
    cfg = small_config(plateau_tol=1e-8, kernel_cache="k.bin")
    path = tmp_path / "cfg.json"
    import json

    path.write_text(json.dumps(asdict(cfg)))
    back = ReconstructionConfig.from_dict(_read_config_object(str(path)))
    assert back == cfg
    path.write_text("{not json")
    with pytest.raises(ValidationError):
        ReconstructionConfig.from_dict(_read_config_object(str(path)))
    path.write_text(json.dumps({"eta": 0.9, "n_max": 5, "bogus_key": 1}))
    with pytest.raises(ValidationError):
        ReconstructionConfig.from_dict(_read_config_object(str(path)))
    with pytest.raises(ValidationError, match="^config must set eta$"):
        ReconstructionConfig.from_dict({"n_max": 5})


def test_point_reconstruction_hits_vacuum_wigner(vacuum_record, vacuum_kernel):
    point = reconstruct_point(vacuum_record, 0.0, 0.0, vacuum_kernel, max_iter=2_000)
    assert point.values[0, 0] == pytest.approx(ONE_OVER_PI, abs=0.01)
    assert point.overflow_fraction[0, 0] == 0.0
    assert point.rho_tail[0, 0] < 1e-3
    assert point.iterations[0, 0] == 2_000
    off = reconstruct_point(vacuum_record, 1.0, 1.0, vacuum_kernel, max_iter=2_000)
    assert off.values[0, 0] == pytest.approx(wigner_exact(vacuum_state(), 1.0, 1.0, 20),
                                             abs=0.012)


def test_point_eta_mismatch_rejected(vacuum_record):
    kernel = build_kernel_matrix(BinGrid(-9.0, 9.0, 900), 8, 0.9)
    with pytest.raises(ValidationError):
        reconstruct_point(vacuum_record, 0.0, 0.0, kernel)


def test_point_overflow_guard(vacuum_record):
    tight = build_kernel_matrix(BinGrid(-1.0, 1.0, 100), 0, 0.85,
                                max_column_deficit=None)
    with pytest.raises(ShiftOverflowError):
        reconstruct_point(vacuum_record, 0.0, 0.0, tight, max_iter=5, max_column_deficit=None)


def test_reconstruction_magnitude_bound(vacuum_record, vacuum_kernel):
    for q, p in [(0.0, 0.0), (1.5, -0.5), (-2.0, 2.0)]:
        point = reconstruct_point(vacuum_record, q, p, vacuum_kernel, max_iter=400)
        assert abs(point.values[0, 0]) <= ONE_OVER_PI * (1.0 + 1e-6)


def test_grid_scan_matches_pointwise_calls(vacuum_record, vacuum_kernel):
    cfg = small_config(max_iter=150)
    grid = reconstruct_wigner_grid(vacuum_record, cfg, kernel=vacuum_kernel)
    # recompute a few points in scrambled order; purity means bit equality
    for i, j in [(2, 1), (0, 0), (1, 2)]:
        point = reconstruct_point(vacuum_record, float(grid.qs[i]), float(grid.ps[j]),
                                  vacuum_kernel, max_iter=150)
        assert point.values[0, 0] == grid.values[i, j]


def test_grid_scan_finds_the_phase_runs_once(monkeypatch, vacuum_record, vacuum_kernel):
    # the record finds its runs once, when it is built; the scan searches no
    # phases and expands none
    searches = []
    find = emtomo.homodyne._phase_runs

    def counted(size, slices):
        searches.append(size)
        return find(size, slices)

    monkeypatch.setattr(emtomo.homodyne, "_phase_runs", counted)
    record = HomodyneRecord(eta=vacuum_record.eta, thetas=vacuum_record.thetas,
                            xs=vacuum_record.xs, seed=vacuum_record.seed)
    assert searches == [record.sample_count]

    def expanded(self):
        raise AssertionError("the scan expanded the record's phases")

    monkeypatch.setattr(HomodyneRecord, "thetas", property(expanded))
    grid = reconstruct_wigner_grid(record, small_config(max_iter=20), kernel=vacuum_kernel)
    assert grid.values.shape == (3, 3) and not grid.failures
    assert searches == [record.sample_count]


def test_grid_fail_soft_records_failures(vacuum_record):
    # a grid too narrow for far displacement points: those overflow, the
    # near ones still reconstruct
    kernel = build_kernel_matrix(BinGrid(-4.0, 4.0, 400), 6, 0.85,
                                 max_column_deficit=None)
    cfg = ReconstructionConfig(
        eta=0.85, x_min=-4.0, x_max=4.0, bin_count=400, n_max=6, max_iter=50,
        q_min=0.0, q_max=3.5, q_steps=2, p_min=0.0, p_max=0.0, p_steps=1,
        max_column_deficit=None,
    )
    grid = reconstruct_wigner_grid(vacuum_record, cfg, kernel=kernel)
    assert (0, 0) not in grid.failures
    assert (1, 0) in grid.failures
    assert np.isnan(grid.values[1, 0])
    assert np.isfinite(grid.values[0, 0])
    # a failed point writes nothing: NaN in every float column, 0 iterations
    for column in (grid.values, grid.final_loglik, grid.overflow_fraction, grid.rho_tail):
        assert np.isnan(column[1, 0]) and np.isfinite(column[0, 0])
    assert grid.iterations[1, 0] == 0 and grid.iterations[0, 0] == 50


def test_grid_all_points_failing_raises(vacuum_record):
    kernel = build_kernel_matrix(BinGrid(-4.0, 4.0, 400), 6, 0.85,
                                 max_column_deficit=None)
    cfg = ReconstructionConfig(
        eta=0.85, x_min=-4.0, x_max=4.0, bin_count=400, n_max=6, max_iter=50,
        q_min=30.0, q_max=31.0, q_steps=2, p_min=0.0, p_max=0.0, p_steps=1,
        max_column_deficit=None,
    )
    with pytest.raises(ShiftOverflowError):
        reconstruct_wigner_grid(vacuum_record, cfg, kernel=kernel)


def test_grid_scan_survives_sample_just_below_right_edge():
    base = sample_homodyne(vacuum_state(), 2, 5_000, 1.0, 7)
    record = HomodyneRecord(
        eta=1.0, thetas=np.append(base.thetas, 0.0),
        xs=np.append(base.xs, np.nextafter(8.0, -np.inf)), seed=7,
    )
    config = ReconstructionConfig(
        eta=1.0, x_min=-8.0, x_max=8.0, bin_count=16_000, n_max=4,
        max_iter=200, q_min=0.0, q_max=0.0, q_steps=1,
        p_min=0.0, p_max=0.0, p_steps=1,
    )
    grid = reconstruct_wigner_grid(record, config)
    assert not grid.failures
    assert grid.overflow_fraction[0, 0] == 0.0
    assert abs(grid.values[0, 0] - ONE_OVER_PI) < 0.02


def test_grid_eta_mismatch_rejected(vacuum_record):
    cfg = small_config(eta=0.9)
    with pytest.raises(ValidationError):
        reconstruct_wigner_grid(vacuum_record, cfg)


@pytest.mark.parametrize("grid, n_max", [
    (BinGrid(-7.0, 7.0, 70), 8),
    (BinGrid(-9.0, 9.0, 900), 6),
], ids=["grid", "n_max"])
def test_grid_refuses_a_kernel_unlike_the_config(vacuum_record, grid, n_max):
    # the grid's meta would name the config's bins and cutoff, not the kernel's
    kernel = build_kernel_matrix(grid, n_max, 0.85, max_column_deficit=None)
    with pytest.raises(ValidationError, match="does not match the config"):
        reconstruct_wigner_grid(vacuum_record, small_config(), kernel=kernel)


def test_grid_refuses_a_caller_kernel_beyond_the_configs_bound(vacuum_record):
    # built unguarded, column 8 loses over a third of its mass outside [-3, 3]
    kernel = build_kernel_matrix(BinGrid(-3.0, 3.0, 300), 8, 0.85, max_column_deficit=None)
    assert kernel.column_deficits[8] > 0.3
    cfg = small_config(x_min=-3.0, x_max=3.0, bin_count=300, q_steps=1, p_steps=1)
    with pytest.raises(ColumnDeficitError, match="kernel column n=8"):
        reconstruct_wigner_grid(vacuum_record, cfg, kernel=kernel)


def test_oracle_grid_marks_truncation_failures():
    grid = oracle_wigner_grid(vacuum_state(), [0.0, 3.0], [0.0, 3.0], 6)
    assert np.isfinite(grid.values[0, 0])
    assert np.isnan(grid.values[1, 1])
    assert (1, 1) in grid.failures
    assert grid.rho_tail[1, 1] > 1e-8


def test_grid_with_an_empty_axis_rejected():
    # such a grid would save, but load_wigner_grid refuses q_steps == 0
    for qs, ps in (([], [0.0, 1.0]), ([0.0, 1.0], [])):
        with pytest.raises(ValidationError, match="at least one"):
            oracle_wigner_grid(vacuum_state(), qs, ps, 10)


def test_grid_file_round_trip(tmp_path, vacuum_record, vacuum_kernel):
    cfg = small_config(max_iter=60)
    grid = reconstruct_wigner_grid(vacuum_record, cfg, kernel=vacuum_kernel)
    grid.failures[(0, 1)] = "synthetic failure note"
    grid.values[0, 1] = np.nan
    path = str(tmp_path / "grid.txt")
    save_wigner_grid(path, grid)
    back = load_wigner_grid(path)
    assert np.array_equal(back.qs, grid.qs)
    assert np.array_equal(back.ps, grid.ps)
    assert np.array_equal(back.values, grid.values, equal_nan=True)
    assert np.array_equal(back.iterations, grid.iterations)
    assert np.array_equal(back.final_loglik, grid.final_loglik)
    assert back.failures[(0, 1)] == "synthetic failure note"
    assert back.meta["kind"] == "reconstruction"
    assert back.meta["n_max"] == "8"


def test_grid_built_from_lists_round_trips(tmp_path):
    grid = WignerGrid(qs=[0.0, 1.0], ps=[0.5], values=[[0.25], [float("nan")]],
                      iterations=[[7], [0]], final_loglik=[[-1.5], [float("nan")]],
                      overflow_fraction=[[0.0], [float("nan")]],
                      rho_tail=[[1e-9], [float("nan")]], failures={(1, 0): "failed"})
    assert grid.iterations.dtype == np.int64 and grid.values.dtype == float
    path = str(tmp_path / "grid.txt")
    save_wigner_grid(path, grid)
    back = load_wigner_grid(path)
    for name in ("values", "iterations", "final_loglik", "overflow_fraction", "rho_tail"):
        assert np.array_equal(getattr(back, name), getattr(grid, name), equal_nan=True)
    assert back.failures == {(1, 0): "failed"}


def test_grid_row_bytes_match_per_value_formatting(tmp_path):
    qs = np.array([-0.0, 1.0 / 3.0])
    ps = np.array([0.1 + 0.2, 2.0])
    columns = {  # point (0, 0) failed: NaN in every float column and 0 iterations
        "values": [[np.nan, -0.0], [5e-324, 1e308]],
        "iterations": [[0, 10**15], [2000, 7]],
        "final_loglik": [[np.nan, -1.5], [-0.0, -1e308]],
        "overflow_fraction": [[np.nan, 5e-324], [0.0, 1e-3]],
        "rho_tail": [[np.nan, 1e-300], [1.0 / 3.0, 1e308]],
    }
    grid = WignerGrid(qs=qs, ps=ps, failures={(0, 0): "failed"}, **columns)
    path = tmp_path / "grid.txt"
    save_wigner_grid(str(path), grid)
    header = b"# columns: q p w iterations final_loglik overflow_fraction rho_tail\n"
    assert path.read_bytes().count(header) == 1
    rows = path.read_bytes().split(header)[1]
    w, its, ll, ovf, tail = (np.asarray(v) for v in columns.values())
    expected = "".join(
        f"{q:.17g} {p:.17g} {w[i, j]:.17g} {int(its[i, j])} {ll[i, j]:.17g} "
        f"{ovf[i, j]:.17g} {tail[i, j]:.17g}\n"
        for i, q in enumerate(qs) for j, p in enumerate(ps))
    assert rows == expected.encode()
    back = load_wigner_grid(str(path))
    for name, column in columns.items():
        assert np.array_equal(getattr(back, name), column, equal_nan=True)
    assert np.signbit(back.values[0, 1]) and back.iterations[0, 1] == 10**15


def test_grid_file_deterministic_apart_from_timestamp(tmp_path, vacuum_record,
                                                      vacuum_kernel):
    cfg = small_config(max_iter=60)
    a = str(tmp_path / "a.txt")
    b = str(tmp_path / "b.txt")
    save_wigner_grid(a, reconstruct_wigner_grid(vacuum_record, cfg, kernel=vacuum_kernel))
    save_wigner_grid(b, reconstruct_wigner_grid(vacuum_record, cfg, kernel=vacuum_kernel))
    keep = lambda line: not line.startswith("# generated:")
    la = [l for l in Path(a).read_text().splitlines() if keep(l)]
    lb = [l for l in Path(b).read_text().splitlines() if keep(l)]
    assert la == lb


def test_grid_file_rejects_malformed(tmp_path):
    bad = tmp_path / "bad.txt"
    bad.write_text("not a grid\n")
    from emtomo import FileFormatError

    with pytest.raises(FileFormatError):
        load_wigner_grid(str(bad))
    headerless = tmp_path / "no_steps.txt"
    headerless.write_text("# emtomo wigner grid v1\n0 0 0 0 0 0 0\n")
    with pytest.raises(FileFormatError):
        load_wigner_grid(str(headerless))


def test_compare_grids_norms_and_validation():
    qs = np.linspace(-1, 1, 3)
    ps = np.linspace(-1, 1, 3)
    mk = lambda vals: WignerGrid(
        qs=qs, ps=ps, values=vals,
        iterations=np.zeros((3, 3), dtype=np.int64),
        final_loglik=np.zeros((3, 3)), overflow_fraction=np.zeros((3, 3)),
        rho_tail=np.zeros((3, 3)),
    )
    a = mk(np.zeros((3, 3)))
    b = mk(np.full((3, 3), 0.125))
    same = compare_wigner_grids(a, a)
    assert same["max_abs"] == 0.0 and same["rms"] == 0.0
    norms = compare_wigner_grids(a, b)
    assert norms["max_abs"] == pytest.approx(0.125)
    assert norms["rms"] == pytest.approx(0.125)
    assert norms["compared_points"] == 9
    vals = np.zeros((3, 3))
    vals[1, 1] = np.nan
    norms = compare_wigner_grids(a, mk(vals))
    assert norms["compared_points"] == 8
    assert norms["skipped_points"] == 1
    with pytest.raises(ValidationError, match="share no finite points"):
        compare_wigner_grids(a, mk(np.where(np.eye(3) == 1, np.nan, np.inf)))
    with pytest.raises(ValidationError):
        compare_wigner_grids(a, WignerGrid(
            qs=qs + 0.5, ps=ps, values=np.zeros((3, 3)),
            iterations=np.zeros((3, 3), dtype=np.int64),
            final_loglik=np.zeros((3, 3)), overflow_fraction=np.zeros((3, 3)),
            rho_tail=np.zeros((3, 3)),
        ))
    for axis in ("qs", "ps"):
        nan_axis = mk(np.zeros((3, 3)))
        setattr(nan_axis, axis, np.r_[np.nan, getattr(nan_axis, axis)[1:]])
        for pair in ((a, nan_axis), (nan_axis, a)):
            with pytest.raises(ValidationError, match="different points"):
                compare_wigner_grids(*pair)


def test_reconstruction_against_oracle_grid(vacuum_record, vacuum_kernel):
    cfg = small_config(max_iter=2_000)
    recon = reconstruct_wigner_grid(vacuum_record, cfg, kernel=vacuum_kernel)
    exact = oracle_wigner_grid(vacuum_state(), recon.qs, recon.ps, 20)
    norms = compare_wigner_grids(recon, exact)
    assert norms["max_abs"] < 0.02
    assert norms["skipped_points"] == 0


def test_gnuplot_emission(tmp_path):
    grid = oracle_wigner_grid(coherent_state(0.5, 12), np.linspace(-1, 1, 4),
                              np.linspace(-1, 1, 5), 20)
    prefix = str(tmp_path / "wig")
    dat, gp = write_gnuplot_files(grid, prefix)
    dat_lines = Path(dat).read_text().strip("\n").split("\n")
    # header + 4 blocks of 5 rows separated by blanks
    assert dat_lines[0].startswith("#")
    assert dat_lines.count("") == 3
    assert sum(1 for l in dat_lines if l and not l.startswith("#")) == 20
    script = Path(gp).read_text()
    assert "splot" in script and "pm3d" in script


def test_gnuplot_strings_are_quoted(tmp_path, monkeypatch):
    # inside gnuplot's single quotes only '' is special: it stands for one quote
    monkeypatch.chdir(tmp_path)
    grid = oracle_wigner_grid(vacuum_state(), [0.0], [0.0], 10)
    grid.meta["kind"] = "x)'; print system('echo INJECTED'); #"
    _, gp = write_gnuplot_files(grid, "it's")
    lines = Path(gp).read_text().splitlines()
    assert lines[0] == "set title 'Wigner function (x)''; print system(''echo INJECTED''); #)'"
    assert lines[6] == "splot 'it''s.dat' using 1:2:3 with pm3d notitle"


@pytest.mark.parametrize("kind, prefix", [("a\nb", "fig"), ("vacuum", "fi\rg")],
                         ids=["title", "data-path"])
def test_gnuplot_refuses_a_line_break(tmp_path, monkeypatch, kind, prefix):
    monkeypatch.chdir(tmp_path)
    grid = oracle_wigner_grid(vacuum_state(), [0.0], [0.0], 10)
    grid.meta["kind"] = kind
    with pytest.raises(ValidationError, match="line break"):
        write_gnuplot_files(grid, prefix)
    assert os.listdir(tmp_path) == []


# the reader would split the line, or strip what starts or ends it
@pytest.mark.parametrize("key, value, match", [
    ("record_path", "d/rec\n1 2 3.txt", "line break"),
    ("a\rb", "x", "line break"),
    (" a", "b", "key cannot start or end with whitespace"),
    ("a\t", "b", "key cannot start or end with whitespace"),
    ("a", "b ", "value cannot start or end with whitespace"),
    ("a", "\x1cb", "value cannot start or end with whitespace"),
], ids=["value", "key", "key-leading-blank", "key-trailing-tab", "value-trailing-blank",
        "value-leading-separator"])
def test_grid_meta_line_break_refused(tmp_path, key, value, match):
    grid = oracle_wigner_grid(vacuum_state(), [0.0], [0.0], 10)
    grid.meta[key] = value
    with pytest.raises(ValidationError, match=match):
        save_wigner_grid(str(tmp_path / "g.txt"), grid)
    assert os.listdir(tmp_path) == []


def test_grid_failure_note_line_break_refused(tmp_path):
    for note, match in [("bad\n1 2 3 4 5 6 7", "failure note cannot hold a line break"),
                        ("note  ", "failure note cannot start or end with whitespace"),
                        (" note", "failure note cannot start or end with whitespace")]:
        grid = oracle_wigner_grid(vacuum_state(), [0.0, 1.0], [0.0], 10)
        grid.failures[(0, 0)] = note
        with pytest.raises(ValidationError, match=match):
            save_wigner_grid(str(tmp_path / "g.txt"), grid)
        assert os.listdir(tmp_path) == []


def test_grid_meta_key_with_equals_refused(tmp_path):
    grid = oracle_wigner_grid(vacuum_state(), [0.0], [0.0], 10)
    grid.meta["a=b"] = "c"
    with pytest.raises(ValidationError, match="meta key cannot hold '='"):
        save_wigner_grid(str(tmp_path / "g.txt"), grid)
    assert os.listdir(tmp_path) == []


class _HalfWrittenFile:
    """Stands in for a file whose first write stores half its data, then fails."""

    def __init__(self, fh):
        self._fh = fh

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self._fh.close()

    def write(self, data):
        self._fh.write(data[: len(data) // 2])
        raise OSError("disk full")


def _contents(directory):
    return {name: (directory / name).read_bytes() for name in sorted(os.listdir(directory))}


@pytest.mark.parametrize("kind", ["kernel", "grid", "gnuplot"])
def test_failed_write_keeps_previous_file(tmp_path, monkeypatch, kind):
    path = str(tmp_path / "out")
    kernel = build_kernel_matrix(BinGrid(-6.0, 6.0, 60), 3, 0.9)
    grid = oracle_wigner_grid(vacuum_state(), [0.0, 0.5], [0.0, 0.5], 10)
    save = {"kernel": lambda: save_kernel(path, kernel),
            "grid": lambda: save_wigner_grid(path, grid),
            "gnuplot": lambda: write_gnuplot_files(grid, path)}[kind]
    save()
    before = _contents(tmp_path)
    assert list(before) == (["out.dat", "out.gp"] if kind == "gnuplot" else ["out"])
    real_open = builtins.open

    def failing_open(file, mode="r", *args, **kwargs):
        fh = real_open(file, mode, *args, **kwargs)
        return _HalfWrittenFile(fh) if "w" in mode else fh

    monkeypatch.setattr(builtins, "open", failing_open)
    with pytest.raises(OSError, match="disk full"):
        save()
    monkeypatch.undo()
    assert _contents(tmp_path) == before


def test_pipeline_imports_nothing_from_oracle():
    # The oracle arbitrates the pipeline, so the two share no evaluation code.
    with open(emtomo.pipeline.__file__) as fh:
        tree = ast.parse(fh.read())
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            imported.add("." * node.level + (node.module or ""))
            imported.update(f"{node.module}.{alias.name}" for alias in node.names)
        elif isinstance(node, ast.Import):
            imported.update(alias.name for alias in node.names)
    assert imported and not [m for m in imported if "oracle" in m.split(".")]


def test_no_module_imports_a_name_it_never_uses():
    # __init__.py imports names to re-export them; every other module uses its imports
    package = os.path.dirname(emtomo.pipeline.__file__)
    modules = [n for n in sorted(os.listdir(package)) if n.endswith(".py") and n != "__init__.py"]
    unused = []
    for name in modules:
        with open(os.path.join(package, name)) as fh:
            tree = ast.parse(fh.read())
        bound = set()
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                bound.update(alias.asname or alias.name.split(".")[0] for alias in node.names)
            elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
                bound.update(alias.asname or alias.name for alias in node.names)
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        unused += [f"{name}: {imported}" for imported in sorted(bound - used)]
    assert "pipeline.py" in modules
    assert unused == []
