from bench.compare import compare, judge

BASE = [100.0, 101.0, 99.0, 100.5, 99.5, 100.2, 99.8, 100.1, 99.9, 100.3]


def test_same_values_are_unchanged():
    verdict = judge(BASE, list(BASE), "lower", 0.10)
    assert verdict.verdict == "unchanged"
    assert verdict.wins == 0 and verdict.pairs == 10


def test_clear_win_on_ten_pairs_is_improved():
    faster = [v * 0.8 for v in BASE]
    verdict = judge(BASE, faster, "lower", 0.10)
    assert verdict.verdict == "improved"
    assert verdict.wins == 10 and verdict.gain > 0.19


def test_higher_is_better_direction():
    assert judge(BASE, [v * 1.2 for v in BASE], "higher", 0.10).verdict == "improved"
    assert judge(BASE, [v * 1.2 for v in BASE], "lower", 0.10).verdict == "regressed"


def test_a_win_needs_nine_of_ten_pairs():
    change = [v * 0.8 for v in BASE]
    change[0] = change[1] = BASE[0] * 2  # two pairs lost, median still lower
    assert judge(BASE, change, "lower", 0.10).verdict == "unchanged"


def test_a_win_needs_the_medians_apart_by_more_than_the_parent_spread():
    change = [v - 0.05 for v in BASE]  # wins every pair, by far less than the IQR
    assert judge(BASE, change, "lower", 0.10).verdict == "unchanged"


def test_fewer_than_ten_pairs_cannot_claim_a_win():
    assert judge(BASE[:5], [v * 0.8 for v in BASE[:5]], "lower", 0.10).verdict == "unresolved"


def test_worse_by_more_than_the_bound_regresses():
    verdict = judge(BASE, [v * 1.15 for v in BASE], "lower", 0.10)
    assert verdict.verdict == "regressed"
    assert verdict.gain < -0.10


def test_spread_wider_than_the_bound_is_unresolved():
    noisy = [50.0, 150.0, 80.0, 120.0, 60.0, 140.0, 100.0, 90.0, 110.0, 100.0]
    verdict = judge(noisy, [v * 1.05 for v in noisy], "lower", 0.10)
    assert verdict.spread > 0.10
    assert verdict.verdict == "unresolved"


def test_wide_spread_but_every_change_run_better_is_improved():
    noisy = [50.0, 150.0, 80.0, 120.0, 60.0, 140.0, 100.0, 90.0, 110.0, 100.0]
    assert judge(noisy, [v / 10 for v in noisy], "lower", 0.10).verdict == "improved"


def test_metric_without_bound_gets_no_verdict():
    assert judge(BASE, [v * 2 for v in BASE], "lower", None).verdict == "-"


def _run(seed, value, failed=0, correct=True, f1=0.25):
    return {
        "seed": seed,
        "workloads": {
            "w": {
                "correct": correct,
                "attempted": 100,
                "failed": failed,
                "end_to_end": {"ops_per_s": value},
                "info": {"f1": f1},
            }
        },
    }


SPEC = {
    "end_to_end": [{"name": "ops_per_s", "unit": "1/s", "better": "higher", "bound": 0.1}],
    "per_layer": [],
}


def test_error_rate_rise_is_flagged():
    parent = [_run(seed, 100.0) for seed in range(5)]
    change = [_run(seed, 100.0, failed=1 if seed == 3 else 0) for seed in range(5)]
    rows, flags = compare(parent, change, SPEC)
    assert [row[3].verdict for row in rows if row[1] == "end_to_end"] == ["unchanged"]
    assert flags == ["w: error rate rose from 0 to 0.01"]


def test_incorrect_change_run_is_flagged_and_equal_sets_are_clean():
    parent = [_run(seed, 100.0) for seed in range(5)]
    assert compare(parent, parent, SPEC)[1] == []
    change = [_run(seed, 100.0, correct=seed != 2) for seed in range(5)]
    assert compare(parent, change, SPEC)[1] == ["w: a change run failed its correctness checks"]


def test_any_per_seed_change_in_f1_is_flagged():
    parent = [_run(seed, 100.0, f1=0.2 + seed / 100) for seed in range(5)]
    change = [_run(seed, 100.0, f1=0.2 + seed / 100) for seed in range(5)]
    assert compare(parent, change, SPEC)[1] == []
    change[3] = _run(3, 100.0, f1=0.2301)
    assert compare(parent, change, SPEC)[1] == ["w: f1 on seed 3 changed from 0.23 to 0.2301"]
    # Seeds only one side ran are not compared.
    assert compare(parent, [_run(9, 100.0, f1=0.9)], SPEC)[1] == []
