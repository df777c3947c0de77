import importlib.util
import json
from pathlib import Path

import pytest

TOOL = Path(__file__).resolve().parents[1] / "tools" / "bench_summary.py"
spec = importlib.util.spec_from_file_location("bench_summary", TOOL)
bench_summary = importlib.util.module_from_spec(spec)
spec.loader.exec_module(bench_summary)

ENVIRONMENT = {"python": "3.11.7", "numpy": "2.4.6", "pyyaml": "6.0.2", "nproc": 2,
               "cpu": "Test CPU", "git_sha": "abc123", "git_dirty": False}


def record(tmp_path, workload, seed, wall, failed=0, **environment):
    data = {"workload": workload, "seed": seed, "seconds": 30.0, "trace": 0,
            "environment": {**ENVIRONMENT, **environment},
            "metrics": {"setup_s": {"value": 0.25, "unit": "s"},
                        "norm_wall_s": {"value": wall, "unit": "s"},
                        "peak_rss_mb": {"value": 40.0 + seed, "unit": "MB"}},
            "attempted": 10, "failed": failed, "errors": []}
    path = tmp_path / f"{workload}-seed{seed}-trace0.json"
    path.write_text(json.dumps(data))
    return str(path)


def test_summary_per_workload(tmp_path):
    paths = [record(tmp_path, "fleet_ladder", seed, wall, failed=seed == 2)
             for seed, wall in enumerate([4.0, 1.0, 3.0, 2.0, 5.0])]
    paths.append(record(tmp_path, "tab1_sweep", 0, 0.3))
    out = tmp_path / "BENCH.json"
    assert bench_summary.main(["--out", str(out), *paths]) == 0
    summary = json.loads(out.read_text())
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
def test_mixed_records_are_refused(tmp_path, capsys, field, value):
    paths = [record(tmp_path, "tab1_sweep", 0, 0.3),
             record(tmp_path, "oracle_verify", 1, 1.6, **{field: value})]
    out = tmp_path / "BENCH.json"
    assert bench_summary.main(["--out", str(out), *paths]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and field in err and err.count("\n") == 1
    assert not out.exists()


def test_every_odd_record_is_named(tmp_path, capsys):
    paths = [record(tmp_path, "tab1_sweep", seed, 0.3, git_sha=sha)
             for seed, sha in enumerate(["abc123", "def456", "abc123", "def456"])]
    out = tmp_path / "BENCH.json"
    assert bench_summary.main(["--out", str(out), *paths]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert paths[1] in err and paths[3] in err
    assert paths[0] not in err and paths[2] not in err
    assert not out.exists()


def test_traced_record_is_refused(tmp_path, capsys):
    path = Path(record(tmp_path, "tab1_sweep", 0, 0.3))
    data = json.loads(path.read_text())
    path.write_text(json.dumps({**data, "trace": 1}))
    out = tmp_path / "BENCH.json"
    assert bench_summary.main(["--out", str(out), str(path)]) == 2
    assert "not a --trace 0 benchmark record" in capsys.readouterr().err
    assert not out.exists()
