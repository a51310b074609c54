import ast
import importlib
import os
import re
import shlex
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

import emtomo
from emtomo import HomodyneRecord, load_record, load_wigner_grid, save_record_binary
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
    capsys.readouterr()

    rc = main(["compare", str(workdir / "grid.txt"), str(workdir / "exact.txt")])
    out = capsys.readouterr().out
    assert rc == 0
    lines = dict(l.split(" ", 1) for l in out.strip().splitlines())
    assert list(lines) == ["max_abs", "rms", "mean_abs", "compared_points", "skipped_points"]
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
    with pytest.raises(SystemExit) as exc:
        main(["oracle", "--state", "squeezed", "--n-max", "4", "--out", "never.txt"])
    assert exc.value.code == 2
    # "-pi" after a space reads as an option, so --relative-phase has no value
    for command in ("simulate", "oracle"):
        with pytest.raises(SystemExit) as exc:
            main(_state_run(command, ["--state", "cat", "--alpha", "1", "--relative-phase",
                                      "-pi"], "never.txt"))
        assert exc.value.code == 2
        assert "--relative-phase: expected one argument" in capsys.readouterr().err


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
    # a bound that no column passes is a config mistake, not a guard failure
    capsys.readouterr()
    assert main(recon_args(workdir, out="never.txt", max_column_deficit=-1)) == 3
    err = capsys.readouterr().err.splitlines()
    assert err == ["error: config: max_column_deficit must be >= 0, got -1.0"]
    assert not (workdir / "never.txt").exists()

    bad = tmp_path / "bad.json"
    bad.write_text("{oops")
    rc = main([
        "reconstruct", "--config", str(bad), "--record", str(workdir / "rec.txt"),
        "--out", str(tmp_path / "never.txt"),
    ])
    assert rc == 3
    capsys.readouterr()

    listed = tmp_path / "list.json"
    listed.write_text("[1, 2]")
    argv = ["reconstruct", "--config", str(listed), "--record", str(workdir / "rec.txt"),
            "--out", str(tmp_path / "never.txt")]
    assert main(argv) == 3
    assert capsys.readouterr().err.splitlines() == [
        f"error: config: {listed}: config must be a JSON object"]
    for flag, lost in (("--record", "record"), ("--out", "output")):
        argv = recon_args(workdir, out="never.txt")
        del argv[argv.index(flag):argv.index(flag) + 2]
        assert main(argv) == 3
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith(f"error: config: no {lost} file given")
    grids = []
    for q_steps in ("2", "3"):
        grids.append(str(tmp_path / f"oracle{q_steps}.txt"))
        assert main(["oracle", "--state", "vacuum", "--n-max", "20", "--q-min", "-1",
                     "--q-max", "1", "--q-steps", q_steps, "--p-min", "-1", "--p-max", "1",
                     "--p-steps", "2", "--out", grids[-1]]) == 0
    capsys.readouterr()
    assert main(["compare", *grids]) == 3
    assert capsys.readouterr().err.splitlines() == ["error: config: grids have different shapes"]
    assert not (tmp_path / "never.txt").exists()


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
    binary = tmp_path / "rec.bin"
    save_record_binary(str(binary), HomodyneRecord(eta=0.9, thetas=[0.0, 1.0],
                                                   xs=[0.1, 0.2], seed=1))
    version_2 = bytearray(binary.read_bytes())
    version_2[8:12] = (2).to_bytes(4, "little")  # the header's version field
    for data, message in ((binary.read_bytes()[:103], "truncated record header"),
                          (bytes(version_2), "unsupported record version 2")):
        binary.write_bytes(data)
        rc = main(["reconstruct", "--record", str(binary), "--out", str(tmp_path / "g.txt"),
                   "--n-max", "4"])
        assert rc == 4
        assert capsys.readouterr().err.splitlines() == [f"error: format: {binary}: {message}"]
    assert not (tmp_path / "g.txt").exists()


def _text_record(path, source):
    path.write_bytes(b"eta=0.9\nseed=1\nsource=" + source + b"\n0.1,0.3\n0.2,0.4\n")


def _binary_record(path, source):
    save_record_binary(str(path), HomodyneRecord(eta=0.9, thetas=[0.1, 0.2], xs=[0.3, 0.4],
                                                 seed=1))
    data = bytearray(path.read_bytes())
    data[40:104] = source.ljust(64, b"\x00")  # the header's source field
    path.write_bytes(bytes(data))


@pytest.mark.parametrize("write, source, message", [
    (_text_record, b"a\x00b", "cannot hold a NUL character: 'a\\x00b'"),
    (_binary_record, b"run A\n0.5", "cannot hold a line break: 'run A\\n0.5'"),
    (_binary_record, b" padded", "cannot start or end with whitespace: ' padded'"),
], ids=["text-nul", "binary-line-break", "binary-leading-blank"])
def test_record_file_with_an_unwritable_source_exits_4(tmp_path, capsys, write, source, message):
    # the record checks its source when it is read, as it does its samples
    record = tmp_path / "rec"
    write(record, source)
    rc = main(["reconstruct", "--record", str(record), "--out", str(tmp_path / "g.txt"),
               "--n-max", "4"])
    assert rc == 4
    assert capsys.readouterr().err.splitlines() == [
        f"error: format: {record}: a record's source {message}"]
    assert os.listdir(tmp_path) == ["rec"]


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


def test_sample_past_the_largest_double_exits_5_without_a_warning(tmp_path):
    # 1e308 scales past the largest double when binned: it is overflow, and
    # stderr holds the guard error alone, not numpy's warning of the product
    record = tmp_path / "huge.txt"
    record.write_text("eta=0.9\nseed=1\n0,1e308\n")
    env = dict(os.environ, PYTHONWARNINGS="default",
               PYTHONPATH=os.pathsep.join(filter(None, [
                   str(Path(emtomo.__file__).parents[1]), os.environ.get("PYTHONPATH")])))
    run = subprocess.run(
        [sys.executable, "-m", "emtomo", "reconstruct", "--record", str(record),
         "--out", str(tmp_path / "never.txt"), "--n-max", "2", "--q-steps", "1",
         "--p-steps", "1", "--bin-count", "100"],
        env=env, capture_output=True, text=True, timeout=120)
    assert run.returncode == 5
    assert "RuntimeWarning" not in run.stderr
    assert run.stderr.splitlines()[-1].startswith("error: guard:")


# 10^15 elements lie past a 47-bit address space, so numpy refuses the
# array before it allocates; a merely large size could be granted lazily.
@pytest.mark.parametrize("field", ["bin_count", "q_steps"])
def test_unallocatable_array_exits_5(workdir, capsys, field):
    rc = main(recon_args(workdir, out=f"never-{field}.txt", **{field: 10**15}))
    assert rc == 5
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: guard: Unable to allocate")
    assert not (workdir / f"never-{field}.txt").exists()


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
    # a bound that every difference passes, or none, is a usage error
    for bound in ("nan", "-1", "inf", "x"):
        with pytest.raises(SystemExit) as exc:
            main(["compare", str(workdir / "grid.txt"), str(tmp_path / "fock.txt"),
                  "--max-abs", bound])
        assert exc.value.code == 2
        assert "not a finite number >= 0" in capsys.readouterr().err


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


_KINDS = {
    "vacuum": ["--state", "vacuum"],
    "fock": ["--state", "fock", "--n", "2"],
    "coherent": ["--state", "coherent", "--alpha", "0.5+0.25j"],
    "cat": ["--state", "cat", "--alpha", "1.5j", "--relative-phase", "pi"],
    # a value starting with "-" reaches the flag only when joined to it
    "cat-minus-pi": ["--state", "cat", "--alpha", "1.5j", "--relative-phase=-pi"],
}
_ORIGIN = ["--n-max", "40", "--q-min", "0", "--q-max", "0", "--q-steps", "1",
           "--p-min", "0", "--p-max", "0", "--p-steps", "1"]


def _state_run(command, flags, out):
    if command == "simulate":
        return ["simulate", *flags, "--phases", "2", "--events", "50", "--eta", "0.9",
                "--out", str(out)]
    return ["oracle", *flags, *_ORIGIN, "--out", str(out)]


@pytest.mark.parametrize("kind, dim, label", [
    ("vacuum", None, "vacuum dim=1"),
    ("vacuum", "3", "vacuum dim=3"),
    ("fock", None, "fock(n=2) dim=3"),
    ("fock", "5", "fock(n=2) dim=5"),
    ("coherent", None, "coherent(alpha=(0.5+0.25j)) dim=13"),
    ("coherent", "20", "coherent(alpha=(0.5+0.25j)) dim=20"),
    ("cat", None, "cat(alpha=1.5j, relative_phase=3.14159) dim=22"),
    ("cat", "26", "cat(alpha=1.5j, relative_phase=3.14159) dim=26"),
    ("cat-minus-pi", None, "cat(alpha=1.5j, relative_phase=-3.14159) dim=22"),
])
def test_state_flags_give_the_source_label(tmp_path, capsys, kind, dim, label):
    flags = _KINDS[kind] + ([] if dim is None else ["--dim", dim])
    rec, grid = tmp_path / "rec.txt", tmp_path / "grid.txt"
    assert main(_state_run("simulate", flags, rec)) == 0
    assert f" for {label} to " in capsys.readouterr().out
    assert load_record(str(rec)).source == label
    assert main(_state_run("oracle", flags, grid)) == 0
    assert f" for {label} (n_max=40) " in capsys.readouterr().out
    assert load_wigner_grid(str(grid)).meta["source"] == label


@pytest.mark.parametrize("command", ["simulate", "oracle"])
@pytest.mark.parametrize("flags", [
    *(_KINDS[kind] + ["--dim", dim] for kind in _KINDS for dim in ("0", "-1")),
    ["--state", "fock"],
    ["--state", "coherent"],
    ["--state", "cat", "--relative-phase", "pi"],
    ["--state", "vacuum", "--alpha", "spam"],
    ["--state", "vacuum", "--relative-phase", "spam"],
], ids=[*(f"{kind}-dim{dim}" for kind in _KINDS for dim in ("0", "-1")), "fock-no-n",
        "coherent-no-alpha", "cat-no-alpha", "vacuum-bad-alpha", "vacuum-bad-phase"])
def test_state_flag_errors_exit_3(tmp_path, capsys, command, flags):
    out = tmp_path / "out.txt"
    assert main(_state_run(command, flags, out)) == 3
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: config:")
    if "--dim" in flags:
        assert err[0].startswith("error: config: state dimension must be >= 1")
    assert not out.exists()


@pytest.mark.parametrize("command", ["simulate", "oracle"])
@pytest.mark.parametrize("kind", _KINDS)
def test_state_dimension_beyond_the_wavefunction_bound_exits_5(tmp_path, capsys, monkeypatch,
                                                                 command, kind):
    def no_array(*args, **kwargs):
        raise AssertionError("a state array was built")

    for name in ("zeros", "outer"):
        monkeypatch.setattr(np, name, no_array)
    out = tmp_path / "out.txt"
    assert main(_state_run(command, _KINDS[kind] + ["--dim", "10002"], out)) == 5
    err = capsys.readouterr().err.splitlines()
    assert err == ["error: guard: photon number 10001 exceeds the supported maximum 10000"]
    assert not out.exists()


@pytest.mark.parametrize("command", ["simulate", "oracle"])
@pytest.mark.parametrize("state", ["coherent", "cat"])
@pytest.mark.parametrize("alpha, dim, code, error", [
    ("nan", None, 3, ("config", "alpha must be finite")),
    ("inf", None, 3, ("config", "alpha must be finite")),
    ("infj", "10", 3, ("config", "alpha must be finite")),
    ("1e200", None, 5, ("guard", "exceeds the supported maximum")),
    ("1e200", "10", 3, ("config", "amplitudes vanish")),
], ids=["nan", "inf", "infj-dim10", "1e200", "1e200-dim10"])
def test_unusable_alpha_ends_in_one_error_line(tmp_path, capsys, command, state, alpha, dim,
                                              code, error):
    flags = ["--state", state, f"--alpha={alpha}"] + ([] if dim is None else ["--dim", dim])
    out = tmp_path / "out.txt"
    assert main(_state_run(command, flags, out)) == code
    err = capsys.readouterr().err.splitlines()
    category, words = error
    assert len(err) == 1 and err[0].startswith(f"error: {category}: ") and words in err[0]
    assert "alpha=0" not in err[0]  # the cat's hint is for alpha 0 alone
    assert not out.exists()


def test_readme_library_imports_are_exported():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    names = []
    for block in re.findall(r"^```python\n(.*?)^```", readme, re.M | re.S):
        for node in ast.walk(ast.parse(block)):
            if isinstance(node, ast.ImportFrom) and node.module.split(".")[0] == "emtomo":
                names += [(node.module, alias.name) for alias in node.names]
    assert names
    for module, name in names:
        assert hasattr(importlib.import_module(module), name), f"{module}.{name}"


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


def test_readme_test_pointers_exist():
    # README cites tests as the proof of its rules; a renamed test must not
    # leave a pointer to nothing
    root = Path(__file__).resolve().parents[1]
    readme = (root / "README.md").read_text()
    files = re.findall(r"\btests/\w+\.py\b", readme)
    assert files
    for name in files:
        assert (root / name).is_file(), name
    defined = set()
    for path in [*root.glob("tests/*.py"), *root.glob("perfbench/*.py")]:
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.FunctionDef) and node.name.startswith("test_"):
                defined.add(node.name)
    cited = set(re.findall(r"\btest_\w+", re.sub(r"\btests/\w+\.py\b", "", readme)))
    assert cited
    assert cited <= defined, sorted(cited - defined)


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


@pytest.mark.parametrize("body, line", [
    ("1,2\neta=0.6\n", 6), ("1,2\n# note\n", 6), ("1,2\n \t\n", 6), ("1_0,2\n", 5),
    ("\u0661,2\n", 5), ("1,2\neta=0.6\nseed=2\nsource=b\n3,4\n", 6),
], ids=["header-after-data", "comment-after-data", "whitespace-line", "underscore",
        "arabic-indic-digit", "concatenated-records"])
def test_text_records_outside_the_grammar_exit_4(tmp_path, capsys, body, line):
    # each loads under a per-line float parse; the reader's grammar refuses
    # it, naming the file line of the first sample line outside it
    record = tmp_path / "rec.txt"
    record.write_text("eta=0.9\nseed=1\nsource=a\n0.5,1.5\n" + body, encoding="utf-8")
    rc = main(["reconstruct", "--record", str(record), "--out", str(tmp_path / "g.txt"),
               "--n-max", "4"])
    assert rc == 4
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith(f"error: format: {record}:{line}: ")
    assert not (tmp_path / "g.txt").exists()


# a line break would split the path's meta line in the grid file, the
# grid reader strips what starts or ends that line, and no file name holds a NUL
@pytest.mark.parametrize("value", [["a"], 1.5, {"a": 1}, "d/rec\n1 2 3 4 5 6 7.txt", "rec\r.txt",
                                   " rec.txt", "rec.txt ", "rec\x00.txt"],
                         ids=["list", "float", "object", "newline", "carriage-return",
                              "leading-blank", "trailing-blank", "nul"])
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


@pytest.mark.parametrize("count", ["2.5", "-3", "nan", "1e300"])
def test_grid_iteration_count_not_a_whole_number_is_a_format_error(tmp_path, capsys, count):
    # a cast to int64 would load these as 2, -3 and the most negative int64
    exact = tmp_path / "exact.txt"
    assert main([
        "oracle", "--state", "vacuum", "--n-max", "10",
        "--q-min", "-1", "--q-max", "1", "--q-steps", "2",
        "--p-min", "-1", "--p-max", "1", "--p-steps", "2", "--out", str(exact),
    ]) == 0
    lines = exact.read_text().splitlines()
    last = lines[-1].split()
    last[3] = count  # the iterations column
    bad = tmp_path / "bad.txt"
    bad.write_text("\n".join(lines[:-1] + [" ".join(last)]) + "\n")
    capsys.readouterr()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for argv in (["compare", str(bad), str(exact)],
                     ["plot", str(bad), "--out-prefix", str(tmp_path / "fig")]):
            assert main(argv) == 4
            captured = capsys.readouterr()
            assert captured.err.splitlines() == [
                f"error: format: {bad}: an iteration count must be a whole number >= 0, "
                f"got {float(count):g}"]
            assert captured.out == ""


def _drop_rows(text):
    return "\n".join(l for l in text.splitlines() if l.startswith("#")) + "\n"


@pytest.mark.parametrize("edit", [
    lambda t: t.replace("# q_steps: 2", "# q_steps: abc"),
    lambda t: t.replace("# columns:", "# failed x y boom\n# columns:"),
    lambda t: t.replace("# columns:", "# failed 2\n# columns:"),
    lambda t: t.replace("# columns:", "# failed 7 9 bogus\n# columns:"),
    lambda t: _drop_rows(t.replace("# q_steps: 2", "# q_steps: 0")),
    lambda t: _drop_rows(t.replace("# p_steps: 2", "# p_steps: 0")),
], ids=["q_steps-not-int", "failed-not-int", "failed-one-index", "failed-off-grid",
        "q_steps-zero", "p_steps-zero"])
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
