"""conftest.py's criterion-8 child ends with the pytest that started it."""

import os
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


def _state_and_parent(pid):
    """(state, ppid) from /proc/<pid>/stat, or None once the pid is gone."""
    try:
        stat = Path(f"/proc/{pid}/stat").read_text()
    except OSError:
        return None
    state, ppid = stat.rsplit(")", 1)[1].split()[:2]
    return state, int(ppid)


def _alive(pid):
    found = _state_and_parent(pid)
    return found is not None and found[0] != "Z"


def _bench_child(parent):
    """The pid of parent's live `trigsum.cli bench` child, or None."""
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        found = _state_and_parent(entry)
        if found is None or found[1] != parent or found[0] == "Z":
            continue
        try:
            argv = Path(f"/proc/{entry}/cmdline").read_bytes().split(b"\0")
        except OSError:
            continue
        if b"trigsum.cli" in argv and b"bench" in argv:
            return int(entry)
    return None


def _wait_for(condition, seconds):
    deadline = time.monotonic() + seconds
    while not (found := condition()) and time.monotonic() < deadline:
        time.sleep(0.05)
    return found


@pytest.mark.skipif(sys.platform != "linux", reason="reads /proc; the parent-death signal is Linux's")
def test_criterion_8_child_ends_when_pytest_is_terminated():
    session = subprocess.Popen(
        [sys.executable, "-m", "pytest", "tests/test_acceptance.py", "-k", "08",
         "-p", "no:cacheprovider"],
        cwd=ROOT, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
        start_new_session=True)
    try:
        child = _wait_for(lambda: session.poll() is None and _bench_child(session.pid), 30)
        assert child, "criterion 8's child did not start"
        session.send_signal(signal.SIGTERM)
        session.wait(10)
        assert _wait_for(lambda: not _alive(child), 3), "criterion 8's child outlived pytest"
    finally:
        try:
            os.killpg(session.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        session.wait()
