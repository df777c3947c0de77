import json
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "tools"))
import bench_pair  # noqa: E402

ENVIRONMENT = {"python": "3.11.7", "numpy": "2.4.6", "pyyaml": "6.0.2", "nproc": 2,
               "cpu": "Test CPU", "git_dirty": False}


def record(workload, seed, wall, rss, sha, failed=0):
    return {"workload": workload, "seed": seed, "seconds": 30.0, "trace": 0,
            "environment": {**ENVIRONMENT, "git_sha": sha},
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
    stats = bench_pair.paired(pairs)
    assert list(stats) == ["fleet_ladder", "tab1_sweep"]
    ladder = stats["fleet_ladder"]
    assert ladder["seeds"] == [0, 1, 2]
    # ratios 0.75, 1.25, 0.5: median 0.75; a tie is nobody's win
    assert ladder["metrics"]["norm_wall_s"] == {"n": 3, "median_ratio": 0.75, "wins": 2}
    assert ladder["metrics"]["peak_rss_mb"] == {"n": 3, "median_ratio": 1.0, "wins": 1}
    assert stats["tab1_sweep"]["metrics"]["norm_wall_s"] == {
        "n": 1, "median_ratio": 1.0, "wins": 0}


def test_pair_values_add_raw_wall():
    values = bench_pair.pair_values(record("fleet_ladder", 0, 4.0, 50.0, "abc"))
    assert values == {"setup_s": 0.25, "norm_wall_s": 4.0, "peak_rss_mb": 50.0,
                      "raw_wall_s": 8.0}


@pytest.mark.parametrize("failed, code", [(0, 0), (1, 1)])
def test_sides_alternate_and_summarize(monkeypatch, tmp_path, capsys, failed, code):
    calls = []

    def fake_git(*args):
        if args[0] == "rev-parse":
            return "base123"
        return ""

    def fake_run(tree, workload, seed, seconds):
        side = "change" if tree == bench_pair.ROOT else "base"
        calls.append((side, seed, seconds))
        wall = 4.0 if side == "base" else 3.0 + seed / 10
        return record(workload, seed, wall, 50.0, f"{side}-sha",
                      failed=failed if (side, seed) == ("change", 1) else 0)

    monkeypatch.setattr(bench_pair, "git", fake_git)
    monkeypatch.setattr(bench_pair, "run_bench", fake_run)
    out = tmp_path / "BENCH.json"
    argv = ["--out", str(out), "--workload", "fleet_ladder", "--seeds", "0", "1", "2",
            "--seconds", "1"]
    assert bench_pair.main(argv) == code
    assert calls == [("base", 0, 1.0), ("change", 0, 1.0), ("change", 1, 1.0),
                     ("base", 1, 1.0), ("base", 2, 1.0), ("change", 2, 1.0)]
    summary = json.loads(out.read_text())
    assert summary["base"]["git_sha"] == "base-sha"
    assert summary["change"]["git_sha"] == "change-sha"
    assert summary["change"]["workloads"]["fleet_ladder"]["failed"] == failed
    assert [p["first"] for p in summary["pairs"]] == ["base", "change", "base"]
    wall = summary["paired"]["fleet_ladder"]["metrics"]["norm_wall_s"]
    assert wall == {"n": 3, "median_ratio": 3.1 / 4.0, "wins": 3}
    assert "norm_wall_s: change/base 0.775, change lower in 3/3" in capsys.readouterr().out


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
