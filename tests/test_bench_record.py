import importlib.util
import json
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
spec = importlib.util.spec_from_file_location("bench_record", ROOT / "tools" / "bench_record.py")
bench_record = importlib.util.module_from_spec(spec)
spec.loader.exec_module(bench_record)


def test_median_and_quartiles():
    s = bench_record.side([5.0, 1.0, 4.0, 2.0, 3.0])
    assert s["runs"] == [5.0, 1.0, 4.0, 2.0, 3.0]
    assert (s["q1"], s["median"], s["q3"]) == (1.5, 3.0, 4.5)
    assert bench_record.side([1.0, 2.0, 3.0, 4.0])["median"] == 2.5


def test_pairs_won_counts_strict_wins_in_the_better_direction():
    parent, change = [10.0, 10.0, 10.0, 10.0], [9.0, 10.0, 11.0, 8.0]
    assert bench_record.compare(parent, change, "s", "lower")["pairs_won"] == 2
    assert bench_record.compare(parent, change, "1/s", "higher")["pairs_won"] == 1
    entry = bench_record.compare([2.0, 2.0], [1.0, 1.0], "s", "lower")
    assert entry["change_pct"] == -50.0
    with pytest.raises(ValueError):
        bench_record.compare([1.0, 2.0], [1.0], "s", "lower")


def _entry(parent, change, better="lower"):
    return bench_record.compare(parent, change, "s", better)


def test_claim_needs_nine_tenths_of_the_pairs_and_a_gap_past_the_spread():
    parent = [1.00, 1.01, 1.02, 1.03, 1.04, 1.05, 1.06, 1.07, 1.08, 1.09]
    ahead = [p - 0.2 for p in parent]
    assert bench_record.claim_met(_entry(parent, ahead))
    # nine of ten pairs won is enough, eight is not
    assert bench_record.claim_met(_entry(parent, ahead[:9] + [2.0]))
    assert not bench_record.claim_met(_entry(parent, ahead[:8] + [2.0, 2.0]))
    # every pair won, but the medians differ by less than the parent's quartile spread
    assert not bench_record.claim_met(_entry(parent, [p - 0.01 for p in parent]))
    # a gain of a higher-is-better metric must go up
    assert bench_record.claim_met(_entry(parent, [p + 0.2 for p in parent], "higher"))
    assert not bench_record.claim_met(_entry(parent, ahead, "higher"))
    # every pair won, but fewer than ten pairs
    assert not bench_record.claim_met(_entry(parent[:9], ahead[:9]))


def test_the_recorded_landscape_entry_is_reproduced():
    record = json.loads((ROOT / "BENCH_landscape_relation.json").read_text())
    for workload in record["workloads"].values():
        for entry in workload.values():
            again = bench_record.compare(entry["parent"]["runs"], entry["change"]["runs"], entry["unit"], entry["better"])
            assert (again["pairs_won"], again["change_pct"]) == (entry["pairs_won"], entry["change_pct"])
            for name in ("parent", "change"):
                stats = [again[name][k] for k in ("median", "q1", "q3")]
                assert stats == pytest.approx([entry[name][k] for k in ("median", "q1", "q3")])
    claim = record["claim"]
    assert bench_record.claim_met(record["workloads"][claim["workload"]][claim["metric"]]) == claim["met"]


def test_main_runs_ten_pairs_at_the_benchmarks_run_length(tmp_path, monkeypatch):
    benchmark = (ROOT / "BENCHMARK.json").read_text()
    for name in ("parent", "change"):
        (tmp_path / name / "perfbench").mkdir(parents=True)
        (tmp_path / name / "perfbench" / "run.py").write_text("")
        (tmp_path / name / "BENCHMARK.json").write_text(benchmark)
    metrics = [m["name"] for m in json.loads(benchmark)["end_to_end"]]
    calls = []

    def fake_run(directory, workload, seconds):
        calls.append((directory.name, seconds))
        return {m: 1.0 if directory.name == "parent" else 0.5 for m in metrics}

    monkeypatch.setattr(bench_record, "run_once", fake_run)
    out = tmp_path / "BENCH_t.json"
    argv = ["--parent", str(tmp_path / "parent"), "--parent-id", "P", "--change", str(tmp_path / "change"),
            "--change-id", "C", "--workload", "verify", "--claim", "verify:wall_s", "--out", str(out)]
    assert bench_record.main(argv) == 0
    run_seconds = json.loads(benchmark)["run_seconds"]
    assert calls[:4] == [("parent", run_seconds), ("change", run_seconds), ("change", run_seconds),
                         ("parent", run_seconds)]
    record = json.loads(out.read_text())
    assert record["pairs"] == len(calls) // 2 == bench_record.PAIRS
    assert record["claim"]["met"]
