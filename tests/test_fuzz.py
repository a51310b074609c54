"""Seeded fuzz test of the files behind the command line.

Valid grid, text-record, binary-record and kernel-cache files are mutated
a fixed number of times with a fixed seed; ``compare``, ``plot`` and
``reconstruct`` (reading the mutant as its record, then as its kernel
cache) run on every mutant.  JSON config files, one with ``n_max`` and one
with ``localization_radius``, are mutated the same way and read by
``reconstruct --config``.  Each run must succeed or end in a documented
exit code with exactly one ``error:`` line on stderr, never a traceback.
"""

import json
import re

import numpy as np
import pytest

from emtomo import (
    BinGrid,
    build_kernel_matrix,
    oracle_wigner_grid,
    sample_homodyne,
    save_record_binary,
    save_kernel,
    save_record_text,
    save_wigner_grid,
    vacuum_state,
)
from emtomo.cli import main

MUTANTS_PER_FILE = 60
DOCUMENTED_EXIT_CODES = {3, 4, 5}
# Values a corrupted field is most likely to trip a parser on.
NASTY_TOKENS = ["", "abc", "0", "-1", "1e999", "-1e999", "nan", "inf", "1.5",
                "99999999999999999999", "0x10", "=", ",", ":", "#", "# q_steps: 0",
                "# failed x y boom", "\x00", "é"]


def _mutate_text(data: bytes, rng: np.random.Generator) -> bytes:
    lines = data.split(b"\n")
    op = rng.integers(6)
    at = int(rng.integers(len(lines)))
    token = NASTY_TOKENS[int(rng.integers(len(NASTY_TOKENS)))].encode()
    if op == 0:  # replace a line
        lines[at] = token
    elif op == 1:  # delete a line
        del lines[at]
    elif op == 2:  # duplicate a line
        lines.insert(at, lines[at])
    elif op == 3:  # replace one field of a line, keeping the separators
        parts = re.split(rb"([ ,:=])", lines[at])
        parts[2 * int(rng.integers(len(parts) // 2 + 1))] = token
        lines[at] = b"".join(parts)
    elif op == 4:  # truncate
        return data[: int(rng.integers(len(data)))]
    else:  # splice in raw bytes, not necessarily UTF-8
        pos = int(rng.integers(len(data)))
        return data[:pos] + rng.bytes(int(rng.integers(1, 8))) + data[pos:]
    return b"\n".join(lines)


def _mutate_binary(data: bytes, rng: np.random.Generator) -> bytes:
    out = bytearray(data)
    op = rng.integers(3)
    if op == 0:  # overwrite bytes, mostly in the 104-byte header
        for _ in range(int(rng.integers(1, 5))):
            limit = 104 if rng.random() < 0.75 else len(out)
            out[int(rng.integers(limit))] = int(rng.integers(256))
    elif op == 1:  # truncate
        del out[int(rng.integers(len(out))):]
    else:  # append junk
        out += rng.bytes(int(rng.integers(1, 24)))
    return bytes(out)


def _as_json_value(token: str):
    """The token as JSON would read it ("1e999" is inf), else the token as a string."""
    try:
        return json.loads(token)
    except ValueError:
        return token


@pytest.fixture(scope="module")
def valid_files(tmp_path_factory):
    d = tmp_path_factory.mktemp("fuzz")
    record = sample_homodyne(vacuum_state(), 2, 150, 0.9, 5)
    save_record_text(str(d / "record.txt"), record)
    save_record_binary(str(d / "record.bin"), record)
    grid = oracle_wigner_grid(vacuum_state(), [-0.5, 0.5], [-0.5, 0.0, 0.5], 12)
    grid.failures[(1, 2)] = "shifted samples left the grid"
    grid.values[1, 2] = np.nan
    save_wigner_grid(str(d / "grid.txt"), grid)
    save_kernel(str(d / "kernel.bin"), build_kernel_matrix(BinGrid(-6.0, 6.0, 120), 3, 0.9))
    return d


def _problem(argv, capsys):
    """Why ``main(argv)`` did not end cleanly, or None if it did."""
    try:
        rc = main(argv)
    except Exception as exc:  # noqa: BLE001 - a traceback is the finding
        return f"{argv[0]}: {type(exc).__name__}: {exc}"
    errors = [line for line in capsys.readouterr().err.splitlines()
              if line.startswith("error:")]
    if rc == 0 and not errors:
        return None
    if rc not in DOCUMENTED_EXIT_CODES or len(errors) != 1:
        return f"{argv[0]}: exit {rc}, errors {errors}"
    return None


@pytest.mark.parametrize("name, seed", [
    ("grid.txt", 101), ("record.txt", 202), ("record.bin", 303), ("kernel.bin", 404),
])
def test_mutated_files_fail_cleanly(valid_files, tmp_path, capsys, name, seed):
    valid = valid_files / name
    original = valid.read_bytes()
    mutate = _mutate_binary if name.endswith(".bin") else _mutate_text
    rng = np.random.default_rng(seed)
    problems = []
    reconstruct = ["reconstruct", "--out", str(tmp_path / "out.txt"),
                   "--x-min", "-6", "--x-max", "6", "--bin-count", "120", "--n-max", "3",
                   "--max-iter", "20", "--q-min", "0", "--q-max", "0", "--q-steps", "1",
                   "--p-min", "0", "--p-max", "0.5", "--p-steps", "2"]
    for k in range(MUTANTS_PER_FILE):
        mutant = tmp_path / f"mutant-{k}-{name}"
        mutant.write_bytes(mutate(original, rng))
        for argv in (
            ["compare", str(mutant), str(valid_files / "grid.txt")],
            ["plot", str(mutant), "--out-prefix", str(tmp_path / "plot")],
            reconstruct + ["--record", str(mutant)],
            # last: an unreadable cache is rebuilt over the mutant
            reconstruct + ["--record", str(valid_files / "record.txt"),
                           "--kernel-cache", str(mutant)],
        ):
            problem = _problem(argv, capsys)
            if problem:
                problems.append(f"{mutant.name} {problem}")
    assert not problems, "\n".join(problems)


@pytest.mark.parametrize("cutoff, seed", [
    ({"n_max": 3}, 505), ({"localization_radius": 2.5}, 606),
], ids=["n_max", "localization_radius"])
def test_mutated_configs_fail_cleanly(valid_files, tmp_path, capsys, cutoff, seed):
    config = {"eta": 0.9, "x_min": -6, "x_max": 6, "bin_count": 120, **cutoff,
              "max_iter": 20, "plateau_tol": 1e-9, "max_column_deficit": 1e-6,
              "q_min": 0, "q_max": 0, "q_steps": 1, "p_min": 0, "p_max": 0.5, "p_steps": 2}
    # Every field set to every token, then mangled text with one field per
    # line, so line mutations hit single fields.
    mutants = [json.dumps({**config, key: _as_json_value(token)}).encode()
               for key in config for token in NASTY_TOKENS]
    rng = np.random.default_rng(seed)
    text = json.dumps(config, indent=0).encode()
    mutants += [_mutate_text(text, rng) for _ in range(MUTANTS_PER_FILE)]
    problems = []
    for k, data in enumerate(mutants):
        mutant = tmp_path / f"mutant-{k}.json"
        mutant.write_bytes(data)
        problem = _problem(["reconstruct", "--config", str(mutant),
                            "--record", str(valid_files / "record.txt"),
                            "--out", str(tmp_path / "out.txt")], capsys)
        if problem:
            problems.append(f"{mutant.name} {problem}")
    assert not problems, "\n".join(problems)
