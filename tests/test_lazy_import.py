"""Imports load only what is used.

`import trigsum` loads no submodule, and each CLI subcommand imports only
the modules it runs. The test process has long imported everything, so the
module sets are checked in fresh interpreters: `python -X importtime` lists
on stderr every module a process imports.
"""

import json
import subprocess
import sys
from importlib import import_module

import pytest

import trigsum
from trigsum import cli

#: Every trigsum submodule a subcommand loads, by subcommand.
LOADED = {
    "construct": {"angle", "chebyshev", "errors", "formatting", "geometry"},
    "sum": {"angle", "errors", "formatting", "kernels"},
    "verify": {"angle", "errors", "formatting", "kernels", "verify"},
    "orbit": {"angle", "chebyshev", "errors", "formatting", "geometry", "kernels", "orbit"},
    "bench": {"angle", "bench", "errors", "formatting", "kernels"},
}

#: The one verify pair that walks the construction, and what it loads.
PROJECTION = "ProjectionVsClosedForm"
LOADED[PROJECTION] = LOADED["verify"] | {"chebyshev", "geometry"}

#: dataclasses and the largest module it pulls in; the value types of the
#: sum, construct, orbit and bench paths do without them.
DATACLASSES = {"dataclasses", "inspect"}

BENCH = ["bench", "--m", "100", "--repeats", "10"]

VERIFY = ["verify", "--pair", "LagrangeVsHalfangle", "--angle-min", "0.05",
          "--angle-max", "6.2", "--steps", "20", "--counts", "1,8,64"]

ARGVS = [
    ["construct", "--alpha", "0.9", "--n", "7"],
    ["construct", "--alpha", "0.7853981633974483", "--n", "3", "--format", "json"],
    *(["sum", "--phi", "1.0", "--m", "50", "--method", method]
      for method in ("auto", "lagrange", "halfangle", "naive")),
    VERIFY,
    VERIFY + ["--rows"],
    ["verify", "--pair", PROJECTION, "--angle-min", "0.05", "--angle-max", "1.5",
     "--steps", "20", "--counts", "1,8,64"],
    *(["orbit", "--n", "3", "--steps", "33", "--format", fmt] for fmt in ("csv", "json", "svg")),
]


def imported(stderr: str) -> set[str]:
    """Every module `python -X importtime` reports on stderr."""
    return {line.rsplit("|", 1)[1].strip() for line in stderr.splitlines()
            if line.startswith("import time:")}


def fresh(args: list[str]) -> tuple[subprocess.CompletedProcess, set[str]]:
    """Run `python -X importtime *args`; returns the process and the trigsum
    submodules it imported."""
    proc = subprocess.run([sys.executable, "-X", "importtime", *args],
                          capture_output=True, text=True, timeout=120)
    names = imported(proc.stderr)
    return proc, {name[len("trigsum."):] for name in names if name.startswith("trigsum.")}


@pytest.mark.parametrize("argv", ARGVS, ids=" ".join)
def test_subcommand_in_a_fresh_process(capsys, argv):
    proc, loaded = fresh(["-m", "trigsum.cli", *argv])
    code = cli.run(argv)
    assert (proc.returncode, proc.stdout) == (code, capsys.readouterr().out)
    assert code == 0
    assert loaded == LOADED[PROJECTION if PROJECTION in argv else argv[0]]


@pytest.mark.parametrize(
    "argv", [argv for argv in ARGVS if argv[0] in ("sum", "construct", "orbit")] + [BENCH],
    ids=" ".join)
def test_value_types_load_no_dataclasses(argv):
    proc, _ = fresh(["-m", "trigsum.cli", *argv])
    assert proc.returncode == 0
    assert not imported(proc.stderr) & DATACLASSES


def test_bench_in_a_fresh_process(capsys):
    proc, loaded = fresh(["-m", "trigsum.cli", *BENCH])
    assert cli.run(BENCH) == proc.returncode == 0
    assert list(json.loads(proc.stdout)) == list(json.loads(capsys.readouterr().out))
    assert loaded == LOADED["bench"]


def test_top_level_help_loads_only_errors_and_formatting():
    proc, loaded = fresh(["-m", "trigsum.cli", "--help"])
    assert proc.returncode == 0
    assert loaded == {"errors", "formatting"}


@pytest.mark.parametrize("command", sorted(cli._SUBCOMMANDS))
def test_subcommand_help_loads_its_modules(command):
    proc, loaded = fresh(["-m", "trigsum.cli", command, "--help"])
    assert proc.returncode == 0
    assert loaded == LOADED[command]


def test_import_trigsum_loads_no_submodule():
    proc, loaded = fresh(["-c", "import trigsum"])
    assert proc.returncode == 0
    assert loaded == set()


def test_kernels_loads_neither_mpmath_nor_numpy():
    # both reductions, and the split's pieces, take pi from a committed integer
    proc, loaded = fresh(["-c", "import trigsum.kernels"])
    assert proc.returncode == 0, proc.stderr
    assert loaded == {"angle", "errors", "kernels"}
    assert not {"mpmath", "numpy", "fractions", "decimal"} & imported(proc.stderr)


def test_submodules_import_from_the_package():
    code = ("import sys\n"
            "from trigsum import geometry, kernels, orbit, verify\n"
            "import trigsum\n"
            "assert kernels is sys.modules['trigsum.kernels'] is trigsum.kernels\n"
            "assert trigsum.bench.measure is trigsum.measure\n")
    proc, loaded = fresh(["-c", code])
    assert proc.returncode == 0, proc.stderr
    assert {"geometry", "kernels", "orbit", "verify", "bench"} <= loaded


@pytest.mark.parametrize("module", sorted(trigsum._EXPORTS))
def test_exports_are_the_defining_modules_objects(module):
    source = import_module(f"trigsum.{module}")
    for name in trigsum._EXPORTS[module]:
        value = getattr(trigsum, name)
        assert value is getattr(source, name)
        if callable(value):  # a class or function, defined where the table says
            assert value.__module__ == source.__name__


def test_star_import_binds_exactly_all():
    namespace: dict = {}
    exec("from trigsum import *", namespace)
    del namespace["__builtins__"]
    assert sorted(namespace) == sorted(trigsum.__all__)
    assert set(trigsum.__all__) <= set(dir(trigsum))


def test_unknown_names_raise_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        trigsum.no_such_name
    assert not hasattr(trigsum, "no_such_name")
    assert not hasattr(cli, "no_such_name")
