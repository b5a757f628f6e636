"""Run alternating pairs of one benchmark workload on two checkouts and compare.

    python3 tools/ab_pairs.py PARENT CHANGE --workload near_singular --seed 1
    python3 tools/ab_pairs.py PARENT CHANGE --workload sweep --seed 2 \\
        --pairs 10 --out sweep.json

Runs the command that BENCHMARK.json names (`python3 perfbench/run.py`) with
`--workload W --seed S --seconds N --trace 0` in each checkout, N being
BENCHMARK.json's `run_seconds`, pair by pair: the parent first in even
pairs (from 0), the change first in odd ones. Both sides run with
PYTHONDONTWRITEBYTECODE=1, and a checkout that already holds
src/trigsum/__pycache__ is refused, since a stale bytecode cache times
other code than the sources. Prints each run's end-to-end metrics, `failed`
and `attempted`, then per metric both medians and both quartiles, the
change's wins by the metric's `better` field, and whether the claim rule
holds for it: at least 10 pairs, the change better in at least 90% of them
(9 of 10), and its median better than the parent's by more than the
parent's interquartile range. Fewer pairs are compared but never make a
claim. --out writes the runs and the summary as JSON. Uses the standard
library only.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SIDES = ("parent", "change")
#: The claim rule's share of pairs the change must win (9 of 10).
WIN_SHARE = 0.9
#: The fewest pairs the claim rule judges.
CLAIM_PAIRS = 10


def check_checkout(tree: Path) -> None:
    """Raise SystemExit unless tree holds trigsum sources and no bytecode cache."""
    if not (tree / "src" / "trigsum" / "__init__.py").is_file():
        raise SystemExit(f"error: no trigsum sources under {tree / 'src'}")
    cache = tree / "src" / "trigsum" / "__pycache__"
    if cache.exists():
        raise SystemExit(f"error: {cache} exists; remove it so the run times the sources")


def run_once(tree: Path, command: list[str], workload: str, seed: int,
             seconds: float) -> dict:
    """One benchmark run in tree: its result line (correct, attempted, failed,
    metrics)."""
    check_checkout(tree)
    proc = subprocess.run(
        [*command, "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        cwd=tree, capture_output=True, text=True, check=False,
        env={**os.environ, "PYTHONDONTWRITEBYTECODE": "1"})
    if proc.returncode != 0:
        raise SystemExit(f"error: the run in {tree} exited {proc.returncode}:\n{proc.stderr}")
    return json.loads(proc.stdout.splitlines()[-1])


def summarize(parent_runs: list[float], change_runs: list[float], better: str) -> dict:
    """Compare one metric over pairs: parent_runs[i] and change_runs[i] are
    pair i. better is "higher" or "lower"."""
    if len(parent_runs) != len(change_runs) or len(parent_runs) < 2:
        raise ValueError("need at least two pairs, one value a side each")
    sign = {"higher": 1.0, "lower": -1.0}[better]
    p_q1, p_median, p_q3 = statistics.quantiles(parent_runs, n=4, method="inclusive")
    c_q1, c_median, c_q3 = statistics.quantiles(change_runs, n=4, method="inclusive")
    pairs = len(parent_runs)
    wins = sum(sign * (c - p) > 0 for p, c in zip(parent_runs, change_runs))
    gain = sign * (c_median - p_median)
    return {
        "better": better,
        "parent_median": p_median, "parent_q1": p_q1, "parent_q3": p_q3,
        "change_median": c_median, "change_q1": c_q1, "change_q3": c_q3,
        "change_vs_parent": (c_median - p_median) / p_median if p_median else None,
        "change_better_pairs": wins,
        "pairs": pairs,
        "claim_rule_holds": (pairs >= CLAIM_PAIRS and wins >= WIN_SHARE * pairs
                             and gain > p_q3 - p_q1),
        "parent_runs": parent_runs,
        "change_runs": change_runs,
    }


def summarize_runs(runs: list[dict], end_to_end: list[dict]) -> dict:
    """Per end-to-end metric, the summary over runs (each {"side", "metrics"})."""
    by_side = {side: [r for r in runs if r["side"] == side] for side in SIDES}
    return {
        metric["name"]: summarize(
            *([r["metrics"][metric["name"]] for r in by_side[side]] for side in SIDES),
            metric["better"])
        for metric in end_to_end
    }


def _verdict(s: dict) -> str:
    if s["pairs"] < CLAIM_PAIRS:
        return f"not judged below {CLAIM_PAIRS} pairs"
    return "holds" if s["claim_rule_holds"] else "does not hold"


def format_summary(summary: dict) -> list[str]:
    lines = []
    for name, s in summary.items():
        change = s["change_vs_parent"]
        lines.append(
            f"{name}: parent {s['parent_median']:.6g} [{s['parent_q1']:.6g}, "
            f"{s['parent_q3']:.6g}]  change {s['change_median']:.6g} "
            f"[{s['change_q1']:.6g}, {s['change_q3']:.6g}]  "
            f"{'n/a' if change is None else f'{change:+.2%}'}  "
            f"change {s['better']} in {s['change_better_pairs']}/{s['pairs']}  "
            f"claim rule {_verdict(s)}")
    return lines


def _parse(argv: list[str] | None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent", type=Path)
    parser.add_argument("change", type=Path)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--out", type=Path)
    args = parser.parse_args(argv)
    if args.pairs < 2:
        parser.error("--pairs must be at least 2")
    return args


def main(argv: list[str] | None = None) -> int:
    args = _parse(argv)
    trees = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    for tree in trees.values():
        check_checkout(tree)
    benchmark = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [metric["name"] for metric in benchmark["end_to_end"]]
    runs = []
    for pair in range(args.pairs):
        for side in SIDES if pair % 2 == 0 else SIDES[::-1]:
            result = run_once(trees[side], benchmark["command"], args.workload,
                              args.seed, benchmark["run_seconds"])
            metrics = {name: result["metrics"][name]["value"] for name in names}
            runs.append({"pair": pair, "side": side, "correct": result["correct"],
                         "attempted": result["attempted"], "failed": result["failed"],
                         "metrics": metrics})
            print(f"pair {pair} {side}: "
                  + " ".join(f"{name}={value:.6g}" for name, value in metrics.items())
                  + f" failed={result['failed']} attempted={result['attempted']}",
                  flush=True)
    summary = summarize_runs(runs, benchmark["end_to_end"])
    print("\n".join(format_summary(summary)))
    if args.out:
        args.out.write_text(json.dumps({
            "command": [*benchmark["command"], "--workload", args.workload,
                        "--seed", str(args.seed), "--seconds", str(benchmark["run_seconds"]),
                        "--trace", "0"],
            "order": "parent first in even pairs (from 0), change first in odd ones",
            "runs": runs, "summary": summary}, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
