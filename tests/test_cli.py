import os
import re
import shlex
from pathlib import Path

import numpy as np
import pytest

from emtomo import load_record, load_wigner_grid
from emtomo.cli import build_parser, main


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    d = tmp_path_factory.mktemp("cli")
    rc = main([
        "simulate", "--state", "vacuum", "--phases", "4", "--events", "4000",
        "--eta", "0.85", "--seed", "7", "--out", str(d / "rec.txt"),
    ])
    assert rc == 0
    return d


def recon_args(workdir, out="grid.txt", **extra):
    argv = [
        "reconstruct", "--record", str(workdir / "rec.txt"),
        "--out", str(workdir / out),
        "--x-min", "-7", "--x-max", "7", "--bin-count", "560",
        "--n-max", "6", "--max-iter", "400",
        "--q-min", "-1", "--q-max", "1", "--q-steps", "2",
        "--p-min", "-1", "--p-max", "1", "--p-steps", "2",
    ]
    for flag, value in extra.items():
        argv += [f"--{flag.replace('_', '-')}", str(value)]
    return argv


def test_simulate_writes_readable_record(workdir, capsys):
    record = load_record(str(workdir / "rec.txt"))
    assert record.sample_count == 16000
    assert record.eta == 0.85
    rc = main([
        "simulate", "--state", "coherent", "--alpha", "0.5+0.25j",
        "--phases", "1", "--events", "100", "--eta", "0.9",
        "--out", str(workdir / "rec.bin"), "--format", "binary",
    ])
    assert rc == 0
    assert "coherent(alpha=(0.5+0.25j))" in capsys.readouterr().out
    assert load_record(str(workdir / "rec.bin")).sample_count == 100


def test_full_pipeline_round(workdir, capsys):
    assert main(recon_args(workdir)) == 0
    out = capsys.readouterr().out
    assert "reconstructed 4/4 grid points" in out
    grid = load_wigner_grid(str(workdir / "grid.txt"))
    assert grid.values.shape == (2, 2)
    assert not grid.failures

    rc = main([
        "oracle", "--state", "vacuum", "--n-max", "20",
        "--q-min", "-1", "--q-max", "1", "--q-steps", "2",
        "--p-min", "-1", "--p-max", "1", "--p-steps", "2",
        "--out", str(workdir / "exact.txt"),
    ])
    assert rc == 0

    rc = main(["compare", str(workdir / "grid.txt"), str(workdir / "exact.txt")])
    out = capsys.readouterr().out
    assert rc == 0
    lines = dict(l.split(" ", 1) for l in out.strip().splitlines())
    assert float(lines["max_abs"]) < 0.03
    assert lines["compared_points"] == "4"

    rc = main(["plot", str(workdir / "grid.txt"),
               "--out-prefix", str(workdir / "fig")])
    assert rc == 0
    assert (workdir / "fig.dat").exists()
    assert (workdir / "fig.gp").exists()


def test_readme_cat_flow_reads_its_own_record(tmp_path, capsys):
    # README's simulate -> reconstruct flow, on a smaller record and grid:
    # the cat's source label puts a comma in the text record's header
    rec = tmp_path / "cat.rec"
    assert main([
        "simulate", "--state", "cat", "--alpha", "1.5j", "--relative-phase", "pi",
        "--phases", "4", "--events", "500", "--eta", "0.9", "--seed", "777",
        "--out", str(rec),
    ]) == 0
    assert "source=cat(alpha=1.5j, relative_phase=" in rec.read_text()
    out = tmp_path / "cat_recon.txt"
    assert main([
        "reconstruct", "--record", str(rec), "--out", str(out),
        "--x-min", "-13", "--x-max", "13", "--bin-count", "260", "--n-max", "12",
        "--max-iter", "50", "--q-min", "-1", "--q-max", "1", "--q-steps", "2",
        "--p-min", "-1", "--p-max", "1", "--p-steps", "2",
    ]) == 0
    assert "reconstructed 4/4 grid points" in capsys.readouterr().out
    assert load_record(str(rec)).source.startswith("cat(alpha=1.5j, relative_phase=")


def test_reconstruct_defaults_eta_from_record(workdir):
    assert main(recon_args(workdir, out="grid_eta.txt")) == 0
    grid = load_wigner_grid(str(workdir / "grid_eta.txt"))
    assert grid.meta["eta"] == "0.85"


def test_kernel_cache_created_and_reused(workdir):
    cache = workdir / "kern.bin"
    assert main(recon_args(workdir, out="g1.txt", kernel_cache=cache)) == 0
    assert cache.exists()
    stamp = cache.stat().st_mtime_ns
    assert main(recon_args(workdir, out="g2.txt", kernel_cache=cache)) == 0
    assert cache.stat().st_mtime_ns == stamp
    a = load_wigner_grid(str(workdir / "g1.txt"))
    b = load_wigner_grid(str(workdir / "g2.txt"))
    assert np.array_equal(a.values, b.values)


def test_config_file_with_flag_overrides(workdir, tmp_path):
    import json

    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({
        "eta": 0.85, "x_min": -7, "x_max": 7, "bin_count": 560,
        "n_max": 6, "max_iter": 100,
        "q_min": -1, "q_max": 1, "q_steps": 2,
        "p_min": -1, "p_max": 1, "p_steps": 2,
    }))
    rc = main([
        "reconstruct", "--config", str(cfg),
        "--record", str(workdir / "rec.txt"),
        "--out", str(tmp_path / "g.txt"), "--max-iter", "150",
    ])
    assert rc == 0
    grid = load_wigner_grid(str(tmp_path / "g.txt"))
    assert grid.meta["max_iter"] == "150"


def test_usage_errors_exit_2(capsys):
    with pytest.raises(SystemExit) as exc:
        main([])
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        main(["simulate", "--state", "vacuum"])  # missing required flags
    assert exc.value.code == 2
    capsys.readouterr()


def test_version_flag(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--version"])
    assert exc.value.code == 0
    assert capsys.readouterr().out.startswith("emtomo ")


def test_config_errors_exit_3(workdir, tmp_path, capsys):
    rc = main([
        "simulate", "--state", "coherent", "--phases", "1", "--events", "10",
        "--eta", "0.9", "--out", str(tmp_path / "x.txt"),
    ])  # coherent without --alpha
    assert rc == 3
    assert capsys.readouterr().err.startswith("error: config:")

    rc = main([
        "simulate", "--state", "coherent", "--alpha", "spam", "--phases", "1",
        "--events", "10", "--eta", "0.9", "--out", str(tmp_path / "x.txt"),
    ])
    assert rc == 3

    argv = recon_args(workdir, out="never.txt")
    del argv[argv.index("--n-max"):argv.index("--n-max") + 2]
    assert main(argv) == 3  # no cutoff source

    assert main(recon_args(workdir, out="never.txt", eta=0.9)) == 3  # eta mismatch

    bad = tmp_path / "bad.json"
    bad.write_text("{oops")
    rc = main([
        "reconstruct", "--config", str(bad), "--record", str(workdir / "rec.txt"),
        "--out", str(tmp_path / "never.txt"),
    ])
    assert rc == 3
    capsys.readouterr()


@pytest.mark.parametrize("flags", [
    ["--seed", "-1"],
    ["--seed", "99999999999999999999", "--format", "binary"],
], ids=["negative", "beyond-int64-binary"])
def test_simulate_seed_errors_exit_3(tmp_path, capsys, flags):
    out = tmp_path / "rec"
    rc = main(["simulate", "--state", "vacuum", "--phases", "1", "--events", "10",
               "--eta", "0.9", *flags, "--out", str(out)])
    assert rc == 3
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: config:")
    assert not out.exists()


def test_format_errors_exit_4(tmp_path, capsys):
    mangled = tmp_path / "mangled.txt"
    mangled.write_text("theta x\n0.0 nonsense\n")
    rc = main([
        "reconstruct", "--record", str(mangled), "--out", str(tmp_path / "g.txt"),
        "--n-max", "4",
    ])
    assert rc == 4
    assert capsys.readouterr().err.startswith("error: format:")
    rc = main(["plot", str(mangled), "--out-prefix", str(tmp_path / "f")])
    assert rc == 4
    capsys.readouterr()


def test_missing_file_exits_4(tmp_path, capsys):
    rc = main([
        "reconstruct", "--record", str(tmp_path / "absent.txt"),
        "--out", str(tmp_path / "g.txt"), "--n-max", "4",
    ])
    assert rc == 4
    assert capsys.readouterr().err.startswith("error: io:")


def test_guard_errors_exit_5(workdir, tmp_path, capsys):
    # column 30 loses 12% of its mass outside [-7, 7], so the kernel refuses
    rc = main(recon_args(workdir, out="never.txt", n_max=30))
    assert rc == 5
    err = capsys.readouterr().err
    assert err.startswith("error: guard:")
    # r^2 / 2 overflows to inf, which no cutoff can cover
    cfg = small_config_file(tmp_path / "cfg.json", n_max=None, localization_radius=1e200)
    rc = main(["reconstruct", "--config", cfg, "--record", str(workdir / "rec.txt"),
               "--out", str(tmp_path / "never.txt")])
    assert rc == 5
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: guard:")
    assert not (tmp_path / "never.txt").exists()
    # the same run goes through once the guard is lifted
    rc = main(recon_args(workdir, out="unguarded.txt", n_max=30,
                         max_column_deficit="none", max_iter=20))
    assert rc == 0
    capsys.readouterr()


def test_tolerance_exit_6(workdir, tmp_path, capsys):
    rc = main([
        "oracle", "--state", "fock", "--n", "1", "--n-max", "24",
        "--q-min", "-1", "--q-max", "1", "--q-steps", "2",
        "--p-min", "-1", "--p-max", "1", "--p-steps", "2",
        "--out", str(tmp_path / "fock.txt"),
    ])
    assert rc == 0
    rc = main(["compare", str(workdir / "grid.txt"), str(tmp_path / "fock.txt"),
               "--max-abs", "1e-6"])
    assert rc == 6
    assert capsys.readouterr().err.startswith("error: tolerance:")


def test_oracle_localization_radius_cutoff(tmp_path, capsys):
    rc = main([
        "oracle", "--state", "vacuum", "--localization-radius", "4",
        "--q-min", "0", "--q-max", "1", "--q-steps", "2",
        "--p-min", "0", "--p-max", "1", "--p-steps", "2",
        "--out", str(tmp_path / "v.txt"),
    ])
    assert rc == 0
    assert "n_max=8" in capsys.readouterr().out
    grid = load_wigner_grid(str(tmp_path / "v.txt"))
    assert grid.values[0, 0] == pytest.approx(1.0 / np.pi, abs=1e-10)


@pytest.mark.parametrize("flags", [
    ["--n-max", "-1"],
    ["--n-max", "10", "--q-steps", "0"],
    ["--n-max", "10", "--q-steps", "-1"],
    ["--n-max", "10", "--p-steps", "100000000000000000000"],
    ["--n-max", "10", "--q-min", "2", "--q-max", "-2"],
    ["--n-max", "5", "--localization-radius", "4"],
], ids=["n_max-negative", "q_steps-zero", "q_steps-negative", "p_steps-huge",
        "q-axis-reversed", "two-cutoffs"])
def test_oracle_flag_errors_exit_3(tmp_path, capsys, flags):
    out = tmp_path / "o.txt"
    rc = main(["oracle", "--state", "vacuum", *flags, "--out", str(out)])
    assert rc == 3
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: config:")
    assert not out.exists()


def test_readme_commands_parse():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    commands = []
    for block in re.findall(r"^```sh\n(.*?)^```", readme, re.M | re.S):
        for line in block.replace("\\\n", " ").splitlines():
            if line.startswith("emtomo "):
                commands.append(shlex.split(line)[1:])
    assert {argv[0] for argv in commands} == {
        "simulate", "reconstruct", "oracle", "compare", "plot"}
    parser = build_parser()
    for argv in commands:
        parser.parse_args(argv)


def small_config_file(path, **fields):
    import json

    data = {
        "x_min": -7, "x_max": 7, "bin_count": 560, "n_max": 6, "max_iter": 100,
        "q_min": -1, "q_max": 1, "q_steps": 2, "p_min": -1, "p_max": 1, "p_steps": 2,
    }
    data.update(fields)
    path.write_text(json.dumps(data))
    return str(path)


def test_config_without_eta_takes_the_records(workdir, tmp_path, capsys):
    rc = main([
        "reconstruct", "--config", small_config_file(tmp_path / "cfg.json"),
        "--record", str(workdir / "rec.txt"), "--out", str(tmp_path / "g.txt"),
    ])
    assert rc == 0, capsys.readouterr().err
    assert load_wigner_grid(str(tmp_path / "g.txt")).meta["eta"] == "0.85"


@pytest.mark.parametrize("field, value", [
    ("eta", "0.85"),
    ("eta", True),
    ("n_max", 5.7),
    ("bin_count", "560"),
    ("q_steps", True),
    ("x_min", "-7"),
    ("plateau_tol", False),
    ("max_column_deficit", float("nan")),
    ("plateau_tol", float("nan")),
    ("q_min", -float("inf")),
    pytest.param("q_max", 10**400, id="q_max-10**400"),
    ("n_max", -1),
    ("bin_count", 10**20),
    ("q_steps", 10**20),
    ("p_steps", 10**20),
    ("max_iter", 10**20),
])
def test_config_value_types_checked(workdir, tmp_path, capsys, field, value):
    rc = main([
        "reconstruct", "--config", small_config_file(tmp_path / "cfg.json", **{field: value}),
        "--record", str(workdir / "rec.txt"), "--out", str(tmp_path / "never.txt"),
    ])
    assert rc == 3
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: config:")
    assert field in err[0]
    assert not (tmp_path / "never.txt").exists()


def test_config_asymmetric_grid_exits_3(workdir, tmp_path, capsys):
    rc = main([
        "reconstruct", "--config", small_config_file(tmp_path / "cfg.json", x_max=8),
        "--record", str(workdir / "rec.txt"), "--out", str(tmp_path / "never.txt"),
    ])
    assert rc == 3
    err = capsys.readouterr().err
    assert "Traceback" not in err
    lines = err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: config:")
    assert "symmetric" in lines[0]
    assert not (tmp_path / "never.txt").exists()


@pytest.mark.parametrize("value", [["a"], 1.5, {"a": 1}], ids=["list", "float", "object"])
@pytest.mark.parametrize("field", ["record_path", "output_path", "kernel_cache"])
def test_config_path_types_checked(workdir, tmp_path, monkeypatch, capsys, field, value):
    # An int or a bool would name a file descriptor of this process, so none is used.
    monkeypatch.chdir(tmp_path)
    paths = {"record_path": str(workdir / "rec.txt"), "output_path": "never.txt"}
    paths[field] = value
    rc = main(["reconstruct", "--config", small_config_file(tmp_path / "cfg.json", **paths)])
    assert rc == 3
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: config:")
    assert field in err[0]
    assert sorted(os.listdir(tmp_path)) == ["cfg.json"]


def test_compare_rejects_a_nan_axis(tmp_path, capsys):
    exact = tmp_path / "exact.txt"
    assert main([
        "oracle", "--state", "vacuum", "--n-max", "20",
        "--q-min", "-1", "--q-max", "1", "--q-steps", "2",
        "--p-min", "-1", "--p-max", "1", "--p-steps", "2", "--out", str(exact),
    ]) == 0
    lines = exact.read_text().splitlines()
    first = next(k for k, line in enumerate(lines) if not line.startswith("#"))
    lines[first] = " ".join(["nan"] + lines[first].split()[1:])
    bad = tmp_path / "bad.txt"
    bad.write_text("\n".join(lines) + "\n")
    capsys.readouterr()
    assert main(["compare", str(exact), str(exact)]) == 0
    assert "compared_points 4" in capsys.readouterr().out
    for argv in (["compare", str(bad), str(exact)], ["compare", str(exact), str(bad)]):
        assert main(argv) == 3
        captured = capsys.readouterr()
        err = captured.err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: config:")
        assert "max_abs" not in captured.out


def _swap_rows(rows):
    # points (0, 1) and (2, 1): q = -1 and q = 1 at p = 0
    rows[1], rows[7] = rows[7], rows[1]


def _move_row(rows):
    rows[4] = " ".join(["9.5", "-7"] + rows[4].split()[2:])


@pytest.mark.parametrize("edit", [_swap_rows, _move_row], ids=["swapped-rows", "off-axis-row"])
def test_grid_row_off_its_grid_position_is_a_format_error(tmp_path, capsys, edit):
    exact = tmp_path / "exact.txt"
    assert main([
        "oracle", "--state", "coherent", "--alpha", "0.7", "--n-max", "20",
        "--q-min", "-1", "--q-max", "1", "--q-steps", "3",
        "--p-min", "-1", "--p-max", "1", "--p-steps", "3", "--out", str(exact),
    ]) == 0
    lines = exact.read_text().splitlines()
    rows = [line for line in lines if not line.startswith("#")]
    edit(rows)
    bad = tmp_path / "bad.txt"
    bad.write_text("\n".join([line for line in lines if line.startswith("#")] + rows) + "\n")
    capsys.readouterr()
    for argv in (["compare", str(bad), str(exact)],
                 ["plot", str(bad), "--out-prefix", str(tmp_path / "fig")]):
        assert main(argv) == 4
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: format:")
        assert "not its grid position" in err[0]


def _drop_rows(text):
    return "\n".join(l for l in text.splitlines() if l.startswith("#")) + "\n"


@pytest.mark.parametrize("edit", [
    lambda t: t.replace("# q_steps: 2", "# q_steps: abc"),
    lambda t: t.replace("# columns:", "# failed x y boom\n# columns:"),
    lambda t: _drop_rows(t.replace("# q_steps: 2", "# q_steps: 0")),
    lambda t: _drop_rows(t.replace("# p_steps: 2", "# p_steps: 0")),
], ids=["q_steps-not-int", "failed-not-int", "q_steps-zero", "p_steps-zero"])
def test_malformed_grid_header_is_a_format_error(tmp_path, capsys, edit):
    exact = tmp_path / "exact.txt"
    assert main([
        "oracle", "--state", "vacuum", "--n-max", "10",
        "--q-min", "-1", "--q-max", "1", "--q-steps", "2",
        "--p-min", "-1", "--p-max", "1", "--p-steps", "2", "--out", str(exact),
    ]) == 0
    bad = tmp_path / "bad.txt"
    bad.write_text(edit(exact.read_text()))
    assert bad.read_text() != exact.read_text()
    capsys.readouterr()
    for argv in (["compare", str(bad), str(exact)],
                 ["plot", str(bad), "--out-prefix", str(tmp_path / "fig")]):
        assert main(argv) == 4
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: format:")
