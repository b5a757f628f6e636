"""Digest what the trigsum command line of a source tree prints, vector by vector.

    python tools/cli_digest.py TREE
    diff <(python tools/cli_digest.py A) <(python tools/cli_digest.py B)

Runs a fixed list of argument vectors through `python -m trigsum.cli`, with
TREE/src on PYTHONPATH, COLUMNS=80 and a fresh temporary working directory
for each, and prints one line per vector: the exit code, a sha256 of stdout,
stderr and the --out file (when one was written), and the vector. Two trees
whose command lines behave the same print the same lines. `bench` runs only
in its error cases, because its timings differ from run to run. Uses the
standard library only.
"""

from __future__ import annotations

import hashlib
import os
import shlex
import subprocess
import sys
import tempfile
from pathlib import Path

SUBCOMMANDS = ("construct", "sum", "verify", "orbit", "bench")
PAIRS = ("LagrangeVsNaive", "HalfangleVsNaive", "LagrangeVsHalfangle", "EvenVsNaive",
         "OddVsNaive", "ProjectionVsClosedForm", "DecompositionVsHalfangle")
METHODS = ("auto", "lagrange", "halfangle", "naive")
PI = "3.141592653589793"
HALF_PI = "1.5707963267948966"
QUARTER_PI = "0.7853981633974483"
#: Angles at or past the edge of the domain: 1e308 times a count overflows,
#: except for `sum --method auto`, which reduces it first.
BAD_ANGLES = ("nan", "inf", "1e308")
OUT = "out.txt"


def _grid(lo: str, hi: str, steps: str = "25", counts: str = "1,2,8,33") -> list[str]:
    return ["--angle-min", lo, "--angle-max", hi, "--steps", steps, "--counts", counts]


def vectors() -> list[list[str]]:
    """Every argument vector, in a fixed order."""
    out: list[list[str]] = [[], ["--help"], ["-h"], ["--version"], ["nosuch"]]
    out += [[sub, "--help"] for sub in SUBCOMMANDS]
    out += [[sub] for sub in SUBCOMMANDS]

    # construct
    for alpha in ("0.9", QUARTER_PI, "2.5", "5.9", "-0.9"):
        for start in ("x", "e"):
            for fmt in ("csv", "json"):
                out.append(["construct", "--alpha", alpha, "--n", "7",
                            "--start-line", start, "--format", fmt])
    out += [["construct", "--alpha", "1.3", "--n", n] for n in ("1", "40")]
    out += [["construct", "--alpha", alpha, "--n", "5"]
            for alpha in (*BAD_ANGLES, "0", HALF_PI, PI)]
    out += [["construct", "--alpha", "0.9", "--n", n] for n in ("0", "-1", "x")]
    out.append(["construct", "--alpha", "0.9", "--n", "3", "--format", "svg"])
    out.append(["construct", "--alpha", "0.9", "--n", "3", "--start-line", "y"])

    # sum
    for phi in ("1.0", "0", PI, "-2.5", "3e-9", "100.5"):
        for m in ("1", "50"):
            out += [["sum", "--phi", phi, "--m", m, "--method", method] for method in METHODS]
    for threshold in ("0", "nan", "-1"):
        out += [["sum", "--phi", "1.0", "--m", "10", "--method", method, "--threshold", threshold]
                for method in METHODS]
    out += [["sum", "--phi", phi, "--m", "5", "--method", method]
            for phi in BAD_ANGLES for method in METHODS]
    out += [["sum", "--phi", "1.0", "--m", m] for m in ("0", "-3", "10" * 200)]
    out.append(["sum", "--phi", "1.0", "--m", "5", "--method", "fast"])
    out.append(["sum", "--phi", "one", "--m", "5"])

    # verify
    for pair in PAIRS:
        plain = ["verify", "--pair", pair, *_grid("0.05", "6.2")]
        out += [plain, plain + ["--rows"], plain + ["--guard", "0"]]
    lagrange = ["verify", "--pair", "LagrangeVsNaive"]
    out += [
        lagrange + _grid("1.0", "1.0"),
        lagrange + _grid("2.0", "1.0"),
        lagrange + _grid("0.1", "1.0", steps="1"),
        lagrange + _grid("nan", "1.0"),
        lagrange + _grid("0.1", "inf"),
        lagrange + _grid("-1e308", "1e308", steps="3"),  # a negative number in exponent form
        lagrange + ["--angle-min=-1e308", "--angle-max", "1e308", "--steps", "3",
                    "--counts", "1,2"],
        lagrange + _grid("0.1", "1.0", counts="10" * 200),
        lagrange + _grid("0.1", "1.0") + ["--guard", "nan"],
        ["verify", "--pair", "NoSuchPair", *_grid("0.1", "1.0")],
    ]
    out += [lagrange + _grid("0.1", "1.0", counts=counts) for counts in ("", ",", "0", "1,x", "-1")]

    # negative numbers in exponent form, for every option that takes a float
    out += [
        ["sum", "--phi", "-1e-5", "--m", "3"],
        ["sum", "--phi", "-2.5E+3", "--m", "7", "--method", "lagrange"],
        ["sum", "--phi", "-.5e1", "--m", "4", "--method", "naive"],
        ["sum", "--phi", "1.0", "--m", "3", "--threshold", "-1e-3"],
        ["construct", "--alpha", "-.5e1", "--n", "6"],
        lagrange + _grid("-2.5E+1", "-1e-1"),
        lagrange + _grid("0.1", "1.0") + ["--guard", "-1e-2"],
        ["orbit", "--n", "3", "--alpha-min", "-1e0", "--alpha-max", "-1e-1", "--steps", "9",
         "--format", "csv"],
    ]

    # -inf, -infinity and -nan in any case, for every option that takes a float
    out += [
        ["sum", "--phi", "-inf", "--m", "3"],
        ["sum", "--phi", "-NaN", "--m", "3", "--method", "naive"],
        ["sum", "--phi", "1.0", "--m", "3", "--threshold", "-Infinity"],
        ["construct", "--alpha", "-INF", "--n", "6"],
        lagrange + _grid("-inf", "1.0"),
        lagrange + _grid("0.1", "-nan"),
        lagrange + _grid("0.1", "1.0") + ["--guard", "-inf"],
        ["orbit", "--n", "3", "--alpha-min", "-nan", "--format", "csv"],
        ["orbit", "--n", "3", "--alpha-max", "-Inf", "--format", "svg"],
    ]

    # orbit
    for n in ("1", "3", "5"):
        out += [["orbit", "--n", n, "--steps", "33", "--format", fmt]
                for fmt in ("csv", "json", "svg")]
    out += [
        ["orbit", "--n", "4", "--alpha-min", "0.5", "--alpha-max", "2.5", "--steps", "2",
         "--format", "svg"],
        ["orbit", "--n", "2", "--format", "csv"],
        ["orbit", "--n", "0", "--steps", "9", "--format", "csv"],
        ["orbit", "--n", "3", "--steps", "1", "--format", "csv"],
        ["orbit", "--n", "3", "--alpha-min", "1.0", "--alpha-max", "1.0", "--format", "json"],
        ["orbit", "--n", "3", "--alpha-min", "nan", "--format", "csv"],
        ["orbit", "--n", "3", "--alpha-max", "inf", "--format", "svg"],
        ["orbit", "--n", "3", "--format", "png"],
    ]

    # bench: error cases only
    out += [["bench", "--m", m, "--repeats", repeats]
            for m, repeats in (("0", "5"), ("-5", "5"), ("10", "0"), ("10" * 200, "5"), ("x", "5"))]

    # --out, including a path that cannot be written
    out += [
        ["construct", "--alpha", "0.9", "--n", "7", "--out", OUT],
        ["construct", "--alpha", "0.9", "--n", "7", "--format", "json", "--out", OUT],
        ["construct", "--alpha", "nan", "--n", "7", "--out", OUT],
        ["sum", "--phi", "1.0", "--m", "50", "--out", OUT],
        ["verify", "--pair", "LagrangeVsHalfangle", *_grid("0.05", "6.2"), "--rows", "--out", OUT],
        *(["orbit", "--n", "3", "--steps", "33", "--format", fmt, "--out", OUT]
          for fmt in ("csv", "json", "svg")),
        ["orbit", "--n", "0", "--format", "svg", "--out", OUT],
        ["orbit", "--n", "3", "--steps", "33", "--format", "svg", "--out", "missing/dir/out.svg"],
    ]
    return out


def sha256_parts(*parts: bytes | None) -> str:
    """Hex sha256 of parts, each length-prefixed (None as "-"), so no two
    different sequences of parts hash alike by moving bytes between them."""
    h = hashlib.sha256()
    for part in parts:
        h.update(b"-" if part is None else b"%d:" % len(part) + part)
    return h.hexdigest()


def digest_line(argv: list[str], code: int, stdout: bytes, stderr: bytes, cwd: str) -> str:
    """The line of one vector, from its exit code, its output and the --out
    file it left in its working directory cwd, if any."""
    out_file = Path(cwd, OUT)
    written = out_file.read_bytes() if out_file.exists() else None
    hashed = sha256_parts(stdout, stderr, written)
    return f"{code} {hashed} {shlex.join(argv) or '(no arguments)'}"


def digest(argv: list[str], env: dict[str, str]) -> str:
    """Run one vector in a fresh process and working directory; returns its line."""
    with tempfile.TemporaryDirectory(prefix="cli-digest-") as cwd:
        proc = subprocess.run([sys.executable, "-m", "trigsum.cli", *argv], cwd=cwd, env=env,
                              capture_output=True, timeout=300)
        return digest_line(argv, proc.returncode, proc.stdout, proc.stderr, cwd)


def main() -> None:
    if len(sys.argv) != 2:
        sys.exit("usage: python tools/cli_digest.py TREE")
    src = Path(sys.argv[1], "src").resolve()
    if not (src / "trigsum" / "cli.py").is_file():
        sys.exit(f"no trigsum/cli.py under {src}")
    env = {**os.environ, "PYTHONPATH": str(src), "COLUMNS": "80"}
    argvs = vectors()
    for argv in argvs:
        print(digest(argv, env), flush=True)
    print(f"# {len(argvs)} vectors")


if __name__ == "__main__":
    main()
