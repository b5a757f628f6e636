"""Run the suite from a checkout: child processes import trigsum from src/.

pyproject.toml puts src/ on sys.path of the test process; the tests that
start `python -m trigsum.cli` need it in PYTHONPATH too.
"""

import os
from pathlib import Path

SRC = str(Path(__file__).resolve().parents[1] / "src")
_paths = [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]
if SRC not in _paths:
    os.environ["PYTHONPATH"] = os.pathsep.join([SRC, *_paths])
