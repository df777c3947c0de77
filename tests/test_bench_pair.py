import importlib.util
import json
import sys
from pathlib import Path

import pytest

TOOL = Path(__file__).resolve().parents[1] / "tools" / "bench_pair.py"
spec = importlib.util.spec_from_file_location("bench_pair", TOOL)
bench_pair = importlib.util.module_from_spec(spec)
spec.loader.exec_module(bench_pair)

ENVIRONMENT = {"python": "3.11.7", "numpy": "2.4.6", "pyyaml": "6.0.2", "nproc": 2,
               "cpu": "Test CPU", "git_dirty": False}
BOUNDS = {"norm_wall_s": 0.25, "peak_rss_mb": 0.05}


def record(workload, seed, wall, rss, sha, failed=0, **environment):
    return {"workload": workload, "seed": seed, "seconds": 30.0, "trace": 0,
            "environment": {**ENVIRONMENT, "git_sha": sha, **environment},
            "metrics": {"setup_s": {"value": 0.25, "unit": "s"},
                        "norm_wall_s": {"value": wall, "unit": "s"},
                        "peak_rss_mb": {"value": rss, "unit": "MB"}},
            "raw_wall_s": {"n": 3, "median": 2 * wall},
            "attempted": 10, "failed": failed, "errors": []}


def pair(seed, base, change, workload="fleet_ladder"):
    return {"workload": workload, "seed": seed, "first": "base",
            "base": base, "change": change}


def test_paired_ratios_and_wins():
    pairs = [pair(0, {"norm_wall_s": 4.0, "peak_rss_mb": 50.0},
                  {"norm_wall_s": 3.0, "peak_rss_mb": 50.0}),
             pair(1, {"norm_wall_s": 4.0, "peak_rss_mb": 50.0},
                  {"norm_wall_s": 5.0, "peak_rss_mb": 51.0}),
             pair(2, {"norm_wall_s": 2.0, "peak_rss_mb": 50.0},
                  {"norm_wall_s": 1.0, "peak_rss_mb": 49.0}),
             pair(0, {"norm_wall_s": 0.3, "peak_rss_mb": 36.0},
                  {"norm_wall_s": 0.3, "peak_rss_mb": 36.0}, workload="tab1_sweep")]
    stats = bench_pair.paired(pairs, BOUNDS)
    assert list(stats) == ["fleet_ladder", "tab1_sweep"]
    ladder = stats["fleet_ladder"]
    assert ladder["seeds"] == [0, 1, 2]
    # ratios 0.75, 1.25, 0.5: median 0.75; a tie is nobody's win; base
    # quartiles 2 and 4
    assert ladder["metrics"]["norm_wall_s"] == {
        "n": 3, "median_ratio": 0.75, "wins": 2, "base_spread": 2.0, "median_gap": 1.0,
        "claim_holds": False, "within_bound": True}
    assert ladder["metrics"]["peak_rss_mb"] == {
        "n": 3, "median_ratio": 1.0, "wins": 1, "base_spread": 0.0, "median_gap": 0.0,
        "claim_holds": False, "within_bound": True}
    assert stats["tab1_sweep"]["metrics"]["norm_wall_s"] == {
        "n": 1, "median_ratio": 1.0, "wins": 0, "base_spread": 0.0, "median_gap": 0.0,
        "claim_holds": False, "within_bound": True}


# ten base walls with quartiles 10 and 11: a spread of 1
BASE_WALLS = [10.0] * 5 + [11.0] * 5


@pytest.mark.parametrize("change, holds", [
    ([w - 2 for w in BASE_WALLS], True),
    ([w - 2 for w in BASE_WALLS[:9]] + [12.0], True),  # 9 wins of 10 suffice
    ([w - 2 for w in BASE_WALLS[:8]] + BASE_WALLS[8:], False),  # ties win nothing
    ([w - 0.5 for w in BASE_WALLS], False),  # a gap inside the base's spread
], ids=["clear", "nine_wins", "eight_wins", "narrow_gap"])
def test_claim_needs_nine_tenths_and_a_gap_past_the_spread(change, holds):
    pairs = [pair(seed, {"norm_wall_s": b}, {"norm_wall_s": c})
             for seed, (b, c) in enumerate(zip(BASE_WALLS, change))]
    wall = bench_pair.paired(pairs, BOUNDS)["fleet_ladder"]["metrics"]["norm_wall_s"]
    assert wall["base_spread"] == 1.0
    assert wall["claim_holds"] is holds


@pytest.mark.parametrize("rss, within", [(52.4, True), (52.6, False)])
def test_end_to_end_metric_within_its_bound(rss, within):
    pairs = [pair(seed, {"peak_rss_mb": 50.0, "raw_wall_s": 4.0},
                  {"peak_rss_mb": rss, "raw_wall_s": 9.0}) for seed in range(10)]
    metrics = bench_pair.paired(pairs, BOUNDS)["fleet_ladder"]["metrics"]
    assert metrics["peak_rss_mb"]["within_bound"] is within
    assert "within_bound" not in metrics["raw_wall_s"]  # no bound: not end to end


def test_pair_values_add_raw_wall():
    values = bench_pair.pair_values(record("fleet_ladder", 0, 4.0, 50.0, "abc"))
    assert values == {"setup_s": 0.25, "norm_wall_s": 4.0, "peak_rss_mb": 50.0,
                      "raw_wall_s": 8.0}


def fake_runs(monkeypatch, failed=0, sha=None):
    """Fakes git and the runs of both sides; the change side's seed 1 has
    `failed` failed operations and, if `sha` is given, that git sha.
    Returns the list the runs are logged to."""
    calls = []

    def fake_run(tree, workload, seed, seconds):
        side = "change" if tree == bench_pair.ROOT else "base"
        calls.append((side, seed, seconds))
        wall = 4.0 if side == "base" else 3.0 + seed / 10
        odd = (side, seed) == ("change", 1)
        return record(workload, seed, wall, 50.0, sha if odd and sha else f"{side}-sha",
                      failed=failed if odd else 0)

    monkeypatch.setattr(bench_pair, "git", lambda *args: "base123")
    monkeypatch.setattr(bench_pair, "run_bench", fake_run)
    return calls


LADDER_ARGS = ["--workload", "fleet_ladder", "--seeds", "0", "1", "2", "--seconds", "1"]


@pytest.mark.parametrize("failed, code", [(0, 0), (1, 1)])
def test_sides_alternate_and_summarize(monkeypatch, tmp_path, capsys, failed, code):
    calls = fake_runs(monkeypatch, failed)
    out = tmp_path / "BENCH.json"
    assert bench_pair.main(["--out", str(out), *LADDER_ARGS]) == code
    assert calls == [("base", 0, 1.0), ("change", 0, 1.0), ("change", 1, 1.0),
                     ("base", 1, 1.0), ("base", 2, 1.0), ("change", 2, 1.0)]
    summary = json.loads(out.read_text())
    assert summary["base"]["git_sha"] == "base-sha"
    assert summary["change"]["git_sha"] == "change-sha"
    assert summary["change"]["workloads"]["fleet_ladder"]["failed"] == failed
    assert [p["first"] for p in summary["pairs"]] == ["base", "change", "base"]
    wall = summary["paired"]["fleet_ladder"]["metrics"]["norm_wall_s"]
    assert wall == {"n": 3, "median_ratio": 3.1 / 4.0, "wins": 3, "base_spread": 0.0,
                    "median_gap": 4.0 - 3.1, "claim_holds": True, "within_bound": True}
    assert ("norm_wall_s: change/base 0.775, change lower in 3/3, median gap 0.9 against "
            "base spread 0, claim holds, within its bound") in capsys.readouterr().out


def test_failed_run_writes_nothing(monkeypatch, tmp_path, capsys):
    def broken_run(tree, workload, seed, seconds):
        raise bench_pair.RunError("benchmark/run.py exited 2")

    monkeypatch.setattr(bench_pair, "git", lambda *args: "base123")
    monkeypatch.setattr(bench_pair, "run_bench", broken_run)
    out = tmp_path / "BENCH.json"
    argv = ["--out", str(out), "--workload", "tab1_sweep", "--seeds", "0", "--seconds", "1"]
    assert bench_pair.main(argv) == 2
    assert capsys.readouterr().err == "error: benchmark/run.py exited 2\n"
    assert not out.exists()


def test_unwritable_out_is_refused_before_any_run(monkeypatch, tmp_path, capsys):
    calls = fake_runs(monkeypatch)
    out = tmp_path / "missing" / "B.json"
    assert bench_pair.main(["--out", str(out), *LADDER_ARGS]) == 2
    error = capsys.readouterr().err.splitlines()
    assert len(error) == 1 and error[0].startswith("error: ") and str(out) in error[0]
    assert calls == [] and not out.parent.exists()


def test_mixed_side_writes_nothing(monkeypatch, tmp_path, capsys):
    fake_runs(monkeypatch, sha="other-sha")
    out = tmp_path / "BENCH.json"
    assert bench_pair.main(["--out", str(out), *LADDER_ARGS]) == 2
    *progress, error = capsys.readouterr().err.splitlines()
    assert len(progress) == 3 and error.startswith("error: ") and "git_sha" in error
    assert not out.exists()


def test_tool_is_loaded_by_path():
    assert not any(Path(entry).resolve() == TOOL.parent for entry in sys.path)


def test_summary_per_workload():
    records = [(f"seed {seed}", record("fleet_ladder", seed, wall, 40.0 + seed, "abc123",
                                       failed=seed == 2))
               for seed, wall in enumerate([4.0, 1.0, 3.0, 2.0, 5.0])]
    records.append(("sweep", record("tab1_sweep", 0, 0.3, 36.0, "abc123")))
    summary = bench_pair.summarize(records)
    assert summary["git_sha"] == "abc123" and summary["git_dirty"] is False
    assert summary["environment"] == {k: v for k, v in ENVIRONMENT.items()
                                      if not k.startswith("git_")}
    assert list(summary["workloads"]) == ["fleet_ladder", "tab1_sweep"]
    ladder = summary["workloads"]["fleet_ladder"]
    assert ladder["seeds"] == [0, 1, 2, 3, 4]
    assert (ladder["attempted"], ladder["failed"]) == (50, 1)
    assert ladder["metrics"]["norm_wall_s"] == {"n": 5, "median": 3.0, "q1": 1.5,
                                               "q3": 4.5, "unit": "s"}
    assert ladder["metrics"]["peak_rss_mb"]["unit"] == "MB"
    single = summary["workloads"]["tab1_sweep"]["metrics"]["norm_wall_s"]
    assert single == {"n": 1, "median": 0.3, "q1": 0.3, "q3": 0.3, "unit": "s"}


@pytest.mark.parametrize("field, value", [("git_sha", "def456"), ("git_dirty", True),
                                          ("numpy", "1.26.4"), ("cpu", "Other CPU")])
def test_mixed_records_are_refused(field, value):
    records = [("first", record("tab1_sweep", 0, 0.3, 36.0, "abc123")),
               ("odd", record("oracle_verify", 1, 1.6, 43.0, "abc123", **{field: value}))]
    with pytest.raises(bench_pair.RecordError, match=f"^odd differ .* in {field};"):
        bench_pair.summarize(records)


def test_every_odd_record_is_named():
    records = [(f"record {seed}", record("tab1_sweep", seed, 0.3, 36.0, sha))
               for seed, sha in enumerate(["abc123", "def456", "abc123", "def456"])]
    with pytest.raises(bench_pair.RecordError) as refused:
        bench_pair.summarize(records)
    message = str(refused.value)
    assert "record 1" in message and "record 3" in message
    assert "record 0" not in message and "record 2" not in message


def test_traced_record_is_refused():
    traced = {**record("tab1_sweep", 0, 0.3, 36.0, "abc123"), "trace": 1}
    with pytest.raises(bench_pair.RecordError, match="not a --trace 0 benchmark record"):
        bench_pair.summarize([("traced", traced)])


def test_no_records_are_refused():
    with pytest.raises(bench_pair.RecordError, match="no records given"):
        bench_pair.summarize([])
