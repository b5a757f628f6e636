"""Run the suite from a checkout: child processes import trigsum from src/.

pyproject.toml puts src/ on sys.path of the test process; the tests that
start `python -m trigsum.cli` need it in PYTHONPATH too.

Criterion 8 (test_acceptance.py) times a million-term naive sum in one
single-threaded child that takes most of the suite's wall time. When the
test is selected, its child starts as soon as collection ends, the test
runs last and waits for it, so the child runs beside the other tests.
On Linux the child is killed when pytest ends, however it ends:
pytest_sessionfinish does not run when pytest is stopped by a signal.
"""

import ctypes
import os
import signal
import subprocess
import sys
from pathlib import Path

import pytest

SRC = str(Path(__file__).resolve().parents[1] / "src")
_paths = [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]
if SRC not in _paths:
    os.environ["PYTHONPATH"] = os.pathsep.join([SRC, *_paths])

CRITERION_8 = "test_08_closed_form_speedup"
#: 1112 repeats leave 1001 timed evaluations after the 10% warmup.
CRITERION_8_ARGV = [sys.executable, "-m", "trigsum.cli", "bench",
                    "--m", "1000000", "--repeats", "1112"]
_children: dict[str, subprocess.Popen] = {}
#: prctl option (linux/prctl.h): the signal a child gets when its parent ends.
PR_SET_PDEATHSIG = 1


def _die_with_parent():
    """A preexec_fn that has Linux SIGKILL the child when its parent ends."""
    libc = ctypes.CDLL(None, use_errno=True)
    libc.prctl.argtypes, libc.prctl.restype = (ctypes.c_int, ctypes.c_ulong), ctypes.c_int
    parent = os.getpid()

    def preexec():
        libc.prctl(PR_SET_PDEATHSIG, signal.SIGKILL)
        if os.getppid() != parent:  # the parent ended before prctl took hold
            os._exit(1)

    return preexec


def pytest_collection_modifyitems(items):
    items.sort(key=lambda item: item.name == CRITERION_8)  # stable: criterion 8 last


def pytest_collection_finish(session):
    if not session.config.option.collectonly and any(
            item.name == CRITERION_8 for item in session.items):
        _children[CRITERION_8] = subprocess.Popen(
            CRITERION_8_ARGV, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
            preexec_fn=_die_with_parent() if sys.platform == "linux" else None)


@pytest.fixture
def criterion_8_run() -> subprocess.CompletedProcess:
    """Criterion 8's child, started when collection ended, run to its end."""
    proc = _children[CRITERION_8]
    stdout, stderr = proc.communicate()
    return subprocess.CompletedProcess(proc.args, proc.returncode, stdout, stderr)


def pytest_sessionfinish(session):
    for proc in _children.values():
        if proc.poll() is None:  # criterion 8 did not wait for it to end
            proc.kill()
            proc.communicate()
