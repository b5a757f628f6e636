"""Print the benchmark trajectory from the committed BENCH_*.json files.

    python3 tools/trajectory.py

Reads every BENCH_<pr>.json in the repository root, in numeric PR order, and
in each the series whose key is exactly <workload>_seed_<n> for a workload of
BENCHMARK.json; other keys (traced series, first or second series, notes) are
skipped. Prints one block per workload: one row per end-to-end metric of
BENCHMARK.json, one column per <pr>/<seed>, each cell the change side's median
of that series, or `-` where the series lacks the metric.

The files hold their summaries in four layouts:
(A) summary[m]["change"]["median"] (BENCH_11);
(B) summary["metrics"][m]["change_median"] (BENCH_16 to 24);
(C) summary[m]["change_median"], the layout of `tools/ab_pairs.py --out`
    (BENCH_25 on; every new file holds one such object per series);
(D) no summary: the median of pairs[i]["change"]["summary"]["metrics"][m]["value"]
    (BENCH_13 to 15).
Uses the standard library only.
"""

from __future__ import annotations

import json
import re
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
BENCH_FILE = re.compile(r"BENCH_(\d+)\.json")


def bench_files(root: Path) -> list[tuple[int, Path]]:
    """(pr, path) of each BENCH_<pr>.json in root, in numeric PR order."""
    found = ((BENCH_FILE.fullmatch(path.name), path) for path in root.iterdir())
    return sorted((int(match[1]), path) for match, path in found if match)


def change_median(series: dict, metric: str) -> float | None:
    """The change side's median of metric in one series, or None where the
    series does not hold it."""
    summary = series.get("summary")
    if summary is None:  # (D)
        values = [pair["change"]["summary"]["metrics"][metric]["value"]
                  for pair in series["pairs"]
                  if metric in pair["change"]["summary"]["metrics"]]
        return statistics.median(values) if values else None
    entry = summary.get("metrics", summary).get(metric)  # (B), else (A) or (C)
    if entry is None:
        return None
    return entry["change_median"] if "change_median" in entry else entry["change"]["median"]


def read_trajectory(root: Path, workloads: list[str],
                    metrics: list[str]) -> dict[str, list[tuple[str, dict]]]:
    """{workload: [("<pr>/<seed>", {metric: change median or None})]} over
    root's BENCH files, in PR and then seed order."""
    key = re.compile(rf"({'|'.join(map(re.escape, workloads))})_seed_(\d+)")
    columns: dict[str, list[tuple[tuple[int, int], dict]]] = {w: [] for w in workloads}
    for pr, path in bench_files(root):
        for name, series in json.loads(path.read_text()).items():
            match = key.fullmatch(name)
            if match:
                columns[match[1]].append(
                    ((pr, int(match[2])), {m: change_median(series, m) for m in metrics}))
    return {workload: [(f"{pr}/{seed}", cells)
                       for (pr, seed), cells in sorted(found, key=lambda column: column[0])]
            for workload, found in columns.items()}


def _cell(value: float | None) -> str:
    if value is None:
        return "-"
    return f"{value:.0f}" if abs(value) >= 1000 else f"{value:.4g}"


def format_trajectory(trajectory: dict[str, list[tuple[str, dict]]],
                      end_to_end: list[dict]) -> list[str]:
    """One block per workload: a header of <pr>/<seed> columns, then one row
    per metric ("name [unit]"), with a blank line between blocks."""
    lines = []
    for workload, columns in trajectory.items():
        rows = [[workload, *(label for label, _ in columns)]]
        rows += [[f"{m['name']} [{m['unit']}]", *(_cell(cells[m["name"]]) for _, cells in columns)]
                 for m in end_to_end]
        widths = [max(map(len, column)) for column in zip(*rows)]
        if lines:
            lines.append("")
        lines += ["  ".join([row[0].ljust(widths[0])]
                            + [cell.rjust(width) for cell, width in zip(row[1:], widths[1:])])
                  for row in rows]
    return lines


def main() -> int:
    benchmark = json.loads((ROOT / "BENCHMARK.json").read_text())
    trajectory = read_trajectory(ROOT, [w["name"] for w in benchmark["workloads"]],
                                 [m["name"] for m in benchmark["end_to_end"]])
    print("\n".join(format_trajectory(trajectory, benchmark["end_to_end"])))
    return 0


if __name__ == "__main__":
    sys.exit(main())
