"""numpy is loaded only by callers that pass arrays.

chebyshev looks for ndarrays without importing numpy; these tests pin its
results, values and types, to the eager-import implementation, and check
that the scalar CLI paths never load numpy.
"""

import subprocess
import sys

import numpy as np
import pytest

from trigsum import chebyshev_u, u_sequence


def reference_u(degree, x):
    """chebyshev_u as written with numpy imported up front."""
    if isinstance(x, np.ndarray):
        u_prev = np.ones_like(x, dtype=float)
    else:
        x = float(x)
        u_prev = 1.0
    if degree == 0:
        return u_prev
    u = 2.0 * x
    for _ in range(degree - 1):
        u_prev, u = u, 2.0 * x * u - u_prev
    return u


def reference_sequence(max_deg, x):
    """u_sequence as written with numpy imported up front."""
    if isinstance(x, np.ndarray):
        values = [np.ones_like(x, dtype=float)]
    else:
        x = float(x)
        values = [1.0]
    if max_deg == 0:
        return values
    values.append(2.0 * x)
    for _ in range(max_deg - 1):
        values.append(2.0 * x * values[-1] - values[-2])
    return values


def one_line_repr(x):
    """repr(x) with each run of whitespace, newlines included, as one space."""
    return " ".join(repr(x).split())


INPUTS = [
    0.3,
    -1.0,
    2,
    0,
    np.float64(0.3),
    np.float32(0.7),
    np.int64(-2),
    np.array(0.45),
    np.array([-1.0, -0.2, 0.0, 0.5, 1.0]),
    np.array([[1, 2], [3, -4]]),
    np.array([0.25, 0.5], dtype=np.float32),
]


def same(got, expected):
    if type(got) is not type(expected):
        return False
    if isinstance(expected, np.ndarray):
        return got.dtype == expected.dtype and got.shape == expected.shape and (
            got.tobytes() == expected.tobytes()
        )
    return got.hex() == expected.hex()


@pytest.mark.parametrize("degree", [0, 1, 2, 7])
@pytest.mark.parametrize("x", INPUTS, ids=one_line_repr)
def test_chebyshev_u_matches_eager_numpy_version(degree, x):
    assert same(chebyshev_u(degree, x), reference_u(degree, x))


@pytest.mark.parametrize("max_deg", [0, 1, 5])
@pytest.mark.parametrize("x", INPUTS, ids=one_line_repr)
def test_u_sequence_matches_eager_numpy_version(max_deg, x):
    got, expected = u_sequence(max_deg, x), reference_sequence(max_deg, x)
    assert len(got) == len(expected)
    assert all(same(g, e) for g, e in zip(got, expected))


def test_scalar_cli_paths_do_not_import_numpy():
    code = (
        "import contextlib, io, sys\n"
        "import trigsum, trigsum.cli\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    assert trigsum.cli.run(['sum', '--phi', '1.0', '--m', '10']) == 0\n"
        "    assert trigsum.cli.run(['orbit', '--n', '5', '--steps', '64', '--format', 'svg']) == 0\n"
        "print('numpy' in sys.modules)\n"
    )
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "False\n"


def test_the_library_runs_without_numpy():
    # a None entry in sys.modules makes every `import numpy` raise ImportError
    code = (
        "import contextlib, importlib, io, math, pkgutil, sys\n"
        "sys.modules['numpy'] = None\n"
        "import trigsum\n"
        "for info in pkgutil.iter_modules(trigsum.__path__):\n"
        "    importlib.import_module(f'trigsum.{info.name}')\n"
        "from trigsum import (Angle, ConstructionConfig, EmitFormat, GridSpec, ResidualPair,\n"
        "                     SumSpec, cli, construct_points, emit, orbit_samples,\n"
        "                     residual_sweep, sum_auto)\n"
        "assert math.isfinite(sum_auto(SumSpec(Angle(1.0), 50)).value)\n"
        "assert len(construct_points(ConstructionConfig(Angle(0.9), 7)).points) == 8\n"
        "svg = emit(orbit_samples(3, 0.0, 6.0, 33), EmitFormat.SVG)\n"
        "assert svg.startswith(b'<svg')\n"
        "report = residual_sweep(GridSpec(0.05, 1.5, 20, (1, 8, 64)),\n"
        "                        ResidualPair.PROJECTION_VS_CLOSED_FORM)\n"
        "assert report.evaluated == 60\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    assert cli.run(['bench', '--m', '100', '--repeats', '10']) == 0\n"
    )
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          timeout=120)
    assert proc.returncode == 0, proc.stderr
