"""Run one benchmark workload against the trigsum sources of this checkout.

    python3 perfbench/run.py --workload point_stream --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 20 --trace 0

Imports trigsum from ./src of the checkout (never an installed copy) and
exits with code 2 when it is missing. The last line of stdout is the result
object (correct, attempted, failed, metrics); the line before it is the full
report with the environment record. With --trace 1 the per-layer metrics are
reported and the spans are written under .perfbench_out/.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORKLOAD_NAMES = ("point_stream", "near_singular", "sweep", "cli")


def _parse(argv: list[str] | None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOAD_NAMES + ("all",), required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not args.seconds > 0:
        parser.error("--seconds must be positive")
    return args


def _run_all(args: argparse.Namespace) -> int:
    """Each workload in its own process, so peak RSS and warm state stay per
    workload; prints every report, then one merged result line."""
    merged = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOAD_NAMES:
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)],
            capture_output=True, text=True, check=False)
        if proc.returncode != 0:
            sys.stderr.write(proc.stderr)
            return proc.returncode
        *_, report, last = proc.stdout.splitlines()
        print(report)
        result = json.loads(last)
        merged["correct"] = merged["correct"] and result["correct"]
        merged["attempted"] += result["attempted"]
        merged["failed"] += result["failed"]
        for metric, entry in result["metrics"].items():
            merged["metrics"][f"{name}.{metric}"] = entry
    print(json.dumps(merged))
    return 0


def main(argv: list[str] | None = None) -> int:
    args = _parse(argv)
    if not (SRC / "trigsum" / "__init__.py").is_file():
        print(f"error: no trigsum sources under {SRC}", file=sys.stderr)
        return 2
    if args.workload == "all":
        return _run_all(args)
    # The script's own directory would shadow stdlib-like module names.
    sys.path[:1] = [str(SRC), str(ROOT)]
    import trigsum

    if Path(trigsum.__file__).resolve().parent != SRC / "trigsum":
        print(f"error: trigsum imported from {trigsum.__file__}, not {SRC}", file=sys.stderr)
        return 2
    from perfbench.harness import run

    result, report = run(args.workload, ROOT, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(report))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
