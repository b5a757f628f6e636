"""The library's bits against the committed golden, tests/golden/lib_digest.txt.

The golden is the output of tools/lib_digest.py: one line per library call,
with the .hex() of each float the call returns, a sha256 of any writer text,
or the exception it raised. Here the same calls run in this process.
Regenerate the golden with

    python tools/lib_digest.py . > tests/golden/lib_digest.txt

when a change to the library's output is intended.
"""

from pathlib import Path

import lib_digest

GOLDEN = (Path(__file__).resolve().parent / "golden" / "lib_digest.txt").read_text().splitlines()
CALLS = lib_digest.calls()


def test_golden_lists_every_call():
    assert GOLDEN[-1] == f"# {len(CALLS)} vectors"
    assert len(GOLDEN) == len(CALLS) + 1


def test_in_process_output_matches_golden():
    namespace = lib_digest.library()
    assert [lib_digest.digest_line(call, namespace) for call in CALLS] == GOLDEN[:-1]
