"""The command line's bytes against the committed golden, tests/golden/cli_digest.txt.

The golden is the output of tools/cli_digest.py: one line per argument vector
with the exit code and a sha256 of stdout, stderr and the --out file. Here the
vectors run in process through cli.run, each in its own working directory at
80 columns; a few also run as fresh `python -m trigsum.cli` processes, which
is the path the golden was made on. Regenerate the golden with

    python tools/cli_digest.py . > tests/golden/cli_digest.txt

when a change to the command line's output is intended.
"""

import io
import os
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import cli_digest
import pytest

from trigsum.cli import run

ROOT = Path(__file__).resolve().parents[1]
GOLDEN = (ROOT / "tests" / "golden" / "cli_digest.txt").read_text().splitlines()

VECTORS = cli_digest.vectors()


def in_process_line(argv, cwd):
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = run(argv)
    return cli_digest.digest_line(argv, code, out.getvalue().encode(), err.getvalue().encode(),
                                  cwd)


def test_golden_lists_every_vector():
    assert GOLDEN[-1] == f"# {len(VECTORS)} vectors"
    assert len(GOLDEN) == len(VECTORS) + 1


def test_in_process_output_matches_golden(tmp_path, monkeypatch):
    monkeypatch.setenv("COLUMNS", "80")
    lines = []
    for i, argv in enumerate(VECTORS):
        cwd = tmp_path / str(i)
        cwd.mkdir()
        monkeypatch.chdir(cwd)
        lines.append(in_process_line(argv, cwd))
    assert lines == GOLDEN[:-1]


#: Vectors that also run as fresh processes: help, each subcommand's output
#: and an --out file, as `python -m trigsum.cli` imports them.
FRESH = [
    ["--help"],
    ["construct", "--alpha", "0.9", "--n", "7", "--format", "json", "--out", cli_digest.OUT],
    ["sum", "--phi", "1.0", "--m", "50", "--method", "lagrange"],
    ["verify", "--pair", "LagrangeVsNaive", "--angle-min", "0.1", "--angle-max", "1.0",
     "--steps", "25", "--counts", "1,x"],
    ["orbit", "--n", "3", "--steps", "33", "--format", "svg"],
]


@pytest.mark.parametrize("argv", FRESH, ids=[argv[0] for argv in FRESH])
def test_fresh_process_output_matches_golden(argv):
    assert argv in VECTORS
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src"), "COLUMNS": "80"}
    assert cli_digest.digest(argv, env) == GOLDEN[VECTORS.index(argv)]
