import importlib.util
import math
import sys
from pathlib import Path

import pytest

from coldpipe import dp_scheduler

TOOL = Path(__file__).resolve().parents[1] / "tools" / "plan_digest.py"
spec = importlib.util.spec_from_file_location("plan_digest", TOOL)
plan_digest = importlib.util.module_from_spec(spec)
spec.loader.exec_module(plan_digest)


@pytest.fixture
def digest(monkeypatch, capsys):
    """main's output lines on 20 suite instances, tab1 and fleet 0 at each
    size of the ladder, with sys.path and the loaded fleet module undone
    afterwards."""
    monkeypatch.setattr(sys, "path", list(sys.path))
    monkeypatch.setitem(sys.modules, "fleet", None)
    monkeypatch.setattr(plan_digest, "SUITE_SEEDS", (0,))
    monkeypatch.setattr(plan_digest, "SUITE_COUNT", 20)
    monkeypatch.setattr(plan_digest, "FLEETS", range(1))

    def run(*args):
        assert plan_digest.main(list(args)) == 0
        return capsys.readouterr().out.splitlines()
    return run


def test_one_digest_per_group_that_one_ulp_changes(monkeypatch, digest):
    lines = digest()
    assert [line.split()[:2] for line in lines] == [
        ["suite", "20"], ["tab1", "6"], ["ladder", "3"]]
    assert digest() == lines
    solve = dp_scheduler.solve

    def later(tables):
        result = solve(tables)
        return dp_scheduler.SolveResult(math.nextafter(result.makespan_s, math.inf),
                                        result.plan)
    monkeypatch.setattr(dp_scheduler, "solve", later)
    assert all(a != b for a, b in zip(digest(), lines))


def test_another_checkout_must_supply_coldpipe(digest, tmp_path):
    # coldpipe is already imported from this checkout, so a root without
    # its own src/coldpipe would hash this one's plans
    with pytest.raises(SystemExit, match="not from"):
        digest("--root", str(tmp_path))
