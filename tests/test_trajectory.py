"""tools/trajectory.py on fixed numbers, and on the repository's own BENCH files."""

import json

import pytest

import trajectory

METRICS = ["ops_per_s", "op_p50_ms"]
END_TO_END = [{"name": "ops_per_s", "unit": "1/s"}, {"name": "op_p50_ms", "unit": "ms"}]


def layout_a(ops, p50):
    return {"summary": {"ops_per_s": {"change": {"median": ops}},
                        "op_p50_ms": {"change": {"median": p50}}}}


def layout_b(ops, p50):
    return {"summary": {"metrics": {"ops_per_s": {"change_median": ops},
                                    "op_p50_ms": {"change_median": p50}}}}


def layout_c(ops, p50):
    return {"summary": {"ops_per_s": {"change_median": ops},
                        "op_p50_ms": {"change_median": p50}}}


def layout_d(ops_runs, p50_runs):
    return {"pairs": [
        {"change": {"summary": {"metrics": {"ops_per_s": {"value": ops},
                                            "op_p50_ms": {"value": p50}}}}}
        for ops, p50 in zip(ops_runs, p50_runs)]}


def write(root, pr, series):
    (root / f"BENCH_{pr}.json").write_text(json.dumps(series))


def test_each_layout_gives_the_change_median_in_pr_and_seed_order(tmp_path):
    write(tmp_path, 11, {"sweep_seed_2": layout_a(65.0, 14.5), "sweep_seed_1": layout_a(66.0, 14.6)})
    write(tmp_path, 13, {"sweep_seed_1": layout_d([64.0, 70.0, 65.0], [15.0, 13.0, 14.0])})
    write(tmp_path, 16, {"sweep_seed_1": layout_b(65.5, 14.75)})
    write(tmp_path, 25, {"sweep_seed_1": layout_c(72.25, 14.25)})
    found = trajectory.read_trajectory(tmp_path, ["sweep"], METRICS)
    assert found == {"sweep": [
        ("11/1", {"ops_per_s": 66.0, "op_p50_ms": 14.6}),
        ("11/2", {"ops_per_s": 65.0, "op_p50_ms": 14.5}),
        ("13/1", {"ops_per_s": 65.0, "op_p50_ms": 14.0}),
        ("16/1", {"ops_per_s": 65.5, "op_p50_ms": 14.75}),
        ("25/1", {"ops_per_s": 72.25, "op_p50_ms": 14.25}),
    ]}


def test_prs_sort_by_number_not_by_name(tmp_path):
    write(tmp_path, 11, {"cli_seed_1": layout_c(12.0, 80.0)})
    write(tmp_path, 9, {"cli_seed_1": layout_c(9.0, 90.0)})
    write(tmp_path, 100, {"cli_seed_1": layout_c(14.0, 70.0)})
    (tmp_path / "BENCHMARK.json").write_text("{}")
    assert [pr for pr, _ in trajectory.bench_files(tmp_path)] == [9, 11, 100]
    found = trajectory.read_trajectory(tmp_path, ["cli"], METRICS)
    assert [label for label, _ in found["cli"]] == ["9/1", "11/1", "100/1"]


def test_only_exact_workload_seed_keys_are_read(tmp_path):
    write(tmp_path, 28, {
        "near_singular_seed_1": layout_c(238.6, 0.004),
        "near_singular_traced_seed_1": layout_c(1.0, 1.0),
        "cli_seed_1_ten_pairs": layout_c(2.0, 2.0),
        "first_series": {"near_singular_seed_1": layout_c(3.0, 3.0)},
        "sweep_seed_1": layout_c(78.9, 13.7),
        "what": "notes are skipped too",
    })
    found = trajectory.read_trajectory(tmp_path, ["near_singular", "sweep", "cli"], METRICS)
    assert found == {
        "near_singular": [("28/1", {"ops_per_s": 238.6, "op_p50_ms": 0.004})],
        "sweep": [("28/1", {"ops_per_s": 78.9, "op_p50_ms": 13.7})],
        "cli": [],
    }


def test_a_metric_a_file_lacks_prints_as_a_dash(tmp_path):
    write(tmp_path, 14, {"point_stream_seed_1": layout_d([236314.2], [0.0039])})
    write(tmp_path, 29, {"point_stream_seed_1": {"summary": {"ops_per_s": {"change_median": 290819.3}}}})
    found = trajectory.read_trajectory(tmp_path, ["point_stream"], METRICS)
    assert found["point_stream"][1] == ("29/1", {"ops_per_s": 290819.3, "op_p50_ms": None})
    assert trajectory.format_trajectory(found, END_TO_END) == [
        "point_stream       14/1    29/1",
        "ops_per_s [1/s]  236314  290819",
        "op_p50_ms [ms]   0.0039       -",
    ]


def test_blocks_are_separated_by_a_blank_line():
    found = {"sweep": [("29/1", {"ops_per_s": 81.92})], "cli": [("29/1", {"ops_per_s": 13.98})]}
    assert trajectory.format_trajectory(found, END_TO_END[:1]) == [
        "sweep             29/1",
        "ops_per_s [1/s]  81.92",
        "",
        "cli               29/1",
        "ops_per_s [1/s]  13.98",
    ]


@pytest.fixture(scope="module")
def committed():
    benchmark = json.loads((trajectory.ROOT / "BENCHMARK.json").read_text())
    return trajectory.read_trajectory(
        trajectory.ROOT, [w["name"] for w in benchmark["workloads"]],
        [m["name"] for m in benchmark["end_to_end"]])


def test_every_committed_bench_file_gives_an_ops_per_s_series(committed):
    # a file in a layout the reader does not know drops out of every row
    read = {int(label.split("/")[0])
            for columns in committed.values()
            for label, cells in columns if cells["ops_per_s"] is not None}
    assert read == {pr for pr, _ in trajectory.bench_files(trajectory.ROOT)}


@pytest.mark.parametrize("workload, column, ops_per_s", [
    ("sweep", "11/1", 66.06),            # layout A
    ("point_stream", "14/1", 236314.0),  # layout D
    ("near_singular", "18/1", 222.44),   # layout B
    ("sweep", "29/1", 81.92),            # layout C
])
def test_committed_series_read_their_pinned_change_median(committed, workload, column,
                                                          ops_per_s):
    cells = dict(committed[workload])[column]
    assert round(cells["ops_per_s"], 2 if ops_per_s < 1000 else 0) == ops_per_s
