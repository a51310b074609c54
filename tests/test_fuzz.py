"""Seeded fuzz test of the files behind the command line.

Valid grid, text-record, binary-record and kernel-cache files are mutated
a fixed number of times with a fixed seed; ``compare``, ``plot`` and
``reconstruct`` (reading the mutant as its record, then as its kernel
cache) run on every mutant.  JSON config files, one with ``n_max`` and one
with ``localization_radius``, are mutated the same way and read by
``reconstruct --config``.  Each run must succeed or end in a documented
exit code with exactly one ``error:`` line on stderr, never a traceback.
Text-record mutants and named edge cases must also read exactly as the
per-line reference reader reads them.
"""

import json
import re
import warnings

import numpy as np
import pytest

from emtomo import (
    BinGrid,
    FileFormatError,
    build_kernel_matrix,
    oracle_wigner_grid,
    sample_homodyne,
    save_record_binary,
    save_kernel,
    save_record_text,
    save_wigner_grid,
    vacuum_state,
)
from emtomo import homodyne
from emtomo.cli import main

from .reference_routes import load_record_text_per_line

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


def _text_read(load, path):
    """What ``load(path)`` makes of a text record: its fields, or its error."""
    try:
        rec = load(path)
    except FileFormatError as exc:
        return str(exc)
    return rec.eta, rec.seed, rec.source, rec.thetas.tobytes(), rec.xs.tobytes()


HEAD = "eta=0.9\nseed=1\nsource=s, with a comma\n"


@pytest.mark.parametrize("text, bulk", [
    (HEAD + "0.5,1.5\n1,-0\n", True),
    (HEAD + "0.5,1.5\neta=0.7\n1,2\n", False),
    (HEAD + "0.5,1.5\n# note\n1,2\n", False),
    (HEAD + "0.5,1.5\n\n1,2\n\n", True),
    (HEAD + "0.5,1.5\n \t\n1,2\n", False),
    ((HEAD + "0.5,1.5\n1,2\n").replace("\n", "\r\n"), True),
    (HEAD + "0.5,1.5\n1,2", True),
    (HEAD + "0.5,1.5\n1_0,2\n", False),
    (HEAD + "0.5,1.5\n\u0661,2\n", False),
    (HEAD + "0.5,1.5\n1\x1c,2\n", False),
    (HEAD + "0.5,1.5,\n1,2\n", False),
    (HEAD + "0.5,1.5,2.5\n1,2,3\n", False),
    (HEAD + "0.5\n1\n", False),
    (HEAD, False),
    (HEAD + "0.5,nan\n", True),
    (HEAD + "1e999,0.5\n", True),
], ids=["clean", "header-after-data", "mid-body-comment", "blank-lines", "whitespace-line",
        "crlf", "no-final-newline", "underscore", "arabic-indic-digit", "ascii-separator",
        "trailing-comma", "three-fields", "one-field", "header-only", "nan", "1e999"])
def test_text_reader_matches_per_line_reader(tmp_path, monkeypatch, text, bulk):
    path = tmp_path / "rec.txt"
    path.write_bytes(text.encode())
    parses = []
    in_bulk = homodyne._read_text_in_bulk

    def spy(fh):
        parses.append(in_bulk(fh))
        return parses[-1]

    monkeypatch.setattr(homodyne, "_read_text_in_bulk", spy)
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # no numpy warning may escape the reader
        got = _text_read(homodyne.load_record_text, str(path))
    assert got == _text_read(load_record_text_per_line, str(path))
    assert (parses[0] is not None) == bulk
    if text == HEAD:
        assert got == f"{path}: record holds no samples"


def test_text_reader_matches_per_line_reader_on_mutants(valid_files, tmp_path):
    original = (valid_files / "record.txt").read_bytes()
    rng = np.random.default_rng(707)
    mismatches = []
    for k in range(10 * MUTANTS_PER_FILE):
        mutant = tmp_path / f"mutant-{k}.txt"
        data = _mutate_text(original, rng)
        if k % 2 and data:  # every other mutant is mutated twice
            data = _mutate_text(data, rng)
        mutant.write_bytes(data)
        got = _text_read(homodyne.load_record_text, str(mutant))
        if got != _text_read(load_record_text_per_line, str(mutant)):
            mismatches.append(f"{mutant.name}: {data!r}")
    assert not mismatches, "\n".join(mismatches)
