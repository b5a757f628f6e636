"""tools/ab_pairs.py's summary, on fixed numbers (no benchmark is run)."""

import pytest

import ab_pairs

PARENT = [216.0, 218.0, 219.0, 219.5, 220.0, 220.5, 221.0, 221.3, 217.0, 219.2]
GAIN = [234.7 - 219.1 + p for p in PARENT]


def test_summary_quartiles_and_medians_of_each_side():
    s = ab_pairs.summarize([1.0, 2.0, 3.0, 4.0, 5.0], [2.0, 4.0, 6.0, 8.0, 10.0], "higher")
    assert (s["parent_q1"], s["parent_median"], s["parent_q3"]) == (2.0, 3.0, 4.0)
    assert (s["change_q1"], s["change_median"], s["change_q3"]) == (4.0, 6.0, 8.0)
    assert s["change_vs_parent"] == 1.0
    assert s["pairs"] == 5 and s["change_better_pairs"] == 5
    assert s["parent_runs"] == [1.0, 2.0, 3.0, 4.0, 5.0]


def test_claim_holds_with_every_pair_won_and_a_gap_beyond_the_iqr():
    s = ab_pairs.summarize(PARENT, GAIN, "higher")
    assert s["change_better_pairs"] == 10
    assert s["claim_rule_holds"]


def test_claim_needs_nine_wins_in_ten():
    nine = GAIN[:9] + [PARENT[9] - 1.0]
    assert ab_pairs.summarize(PARENT, nine, "higher")["claim_rule_holds"]
    eight = GAIN[:8] + [PARENT[8] - 1.0, PARENT[9] - 1.0]
    s = ab_pairs.summarize(PARENT, eight, "higher")
    assert s["change_better_pairs"] == 8
    assert not s["claim_rule_holds"]


def test_claim_needs_ten_pairs_even_when_every_pair_is_won():
    for pairs in (2, 5, 9):
        s = ab_pairs.summarize(PARENT[:pairs], GAIN[:pairs], "higher")
        assert s["change_better_pairs"] == pairs
        assert s["change_median"] - s["parent_median"] > s["parent_q3"] - s["parent_q1"]
        assert not s["claim_rule_holds"]
        assert "claim rule not judged below 10 pairs" in ab_pairs.format_summary({"m": s})[0]


def test_claim_needs_a_median_gap_beyond_the_parents_iqr():
    # every pair won by 0.5, while the parent's runs spread over 2.1
    s = ab_pairs.summarize(PARENT, [p + 0.5 for p in PARENT], "higher")
    assert s["change_better_pairs"] == 10
    assert s["parent_q3"] - s["parent_q1"] > 0.5
    assert not s["claim_rule_holds"]


def test_lower_is_better_counts_the_other_way():
    fall = [p - 20.0 for p in PARENT]
    s = ab_pairs.summarize(PARENT, fall, "lower")
    assert s["change_better_pairs"] == 10 and s["claim_rule_holds"]
    s = ab_pairs.summarize(PARENT, fall, "higher")
    assert s["change_better_pairs"] == 0 and not s["claim_rule_holds"]


def test_ties_are_not_wins():
    s = ab_pairs.summarize(PARENT, list(PARENT), "higher")
    assert s["change_better_pairs"] == 0 and not s["claim_rule_holds"]


def test_summarize_runs_reads_each_metric_by_side_and_its_better_field():
    end_to_end = [{"name": "ops_per_s", "better": "higher"},
                  {"name": "op_tail_ms", "better": "lower"}]
    runs = []
    for pair in range(3):
        for side, ops, tail in (("parent", 200.0 + pair, 30.0), ("change", 230.0 + pair, 29.0)):
            runs.append({"pair": pair, "side": side,
                         "metrics": {"ops_per_s": ops, "op_tail_ms": tail}})
    summary = ab_pairs.summarize_runs(runs, end_to_end)
    assert summary["ops_per_s"]["parent_runs"] == [200.0, 201.0, 202.0]
    assert summary["ops_per_s"]["change_runs"] == [230.0, 231.0, 232.0]
    assert summary["ops_per_s"]["change_better_pairs"] == 3
    assert summary["op_tail_ms"]["better"] == "lower"
    assert summary["op_tail_ms"]["change_better_pairs"] == 3
    lines = ab_pairs.format_summary(summary)
    assert lines[0].startswith("ops_per_s: parent 201 [200.5, 201.5]  change 231 ")
    assert "change higher in 3/3  claim rule not judged below 10 pairs" in lines[0]
    assert not summary["ops_per_s"]["claim_rule_holds"]


def test_summary_needs_matched_pairs():
    with pytest.raises(ValueError):
        ab_pairs.summarize([1.0, 2.0], [1.0], "higher")
    with pytest.raises(ValueError):
        ab_pairs.summarize([1.0], [2.0], "higher")


def test_checkout_with_a_bytecode_cache_is_refused(tmp_path):
    package = tmp_path / "src" / "trigsum"
    package.mkdir(parents=True)
    (package / "__init__.py").write_text("")
    ab_pairs.check_checkout(tmp_path)
    (package / "__pycache__").mkdir()
    with pytest.raises(SystemExit, match="__pycache__"):
        ab_pairs.check_checkout(tmp_path)
    with pytest.raises(SystemExit, match="no trigsum sources"):
        ab_pairs.check_checkout(tmp_path / "elsewhere")
