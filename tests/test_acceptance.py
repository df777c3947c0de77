"""Acceptance suite: one test per release criterion, each printing a
PASS/FAIL line (run with `pytest -s tests/test_acceptance.py` to see them
on success).  Tolerances are fixed here, not calibrated elsewhere.
"""

import random
import time
from fractions import Fraction

from coldpipe import cost_tables, dp_scheduler
from coldpipe.cli import main
from coldpipe.device_model import link_rate
from coldpipe.experiment import (RELATIVE_TOLERANCE, average_improvement_pct,
                                 random_instance_suite, run_sweep,
                                 verify_suite)
from coldpipe.model_profile import (ModelConfig, attn_flops, build_profiles,
                                    activation_bytes, ffn_flops,
                                    layer_param_bytes)
from coldpipe.timeline import evaluate
from conftest import TAB1_CONFIG, make_device, make_tables, tab1_scenario

CONFIG = str(TAB1_CONFIG)
REL = 1e-9


def report(number: int, name: str, ok: bool, detail: str = "") -> None:
    print(f"ACCEPTANCE {number} ({name}): {'PASS' if ok else 'FAIL'}"
          f"{'  ' + detail if detail else ''}")
    assert ok, f"criterion {number} ({name}) failed: {detail}"


def _tables_for(scenario, t):
    profiles = build_profiles(scenario.model, t)
    return cost_tables.build(profiles, list(scenario.devices), t)


def test_criterion_1_oracle_equivalence():
    # verify_suite compares each makespan with the oracle's and replays the
    # solver's plan, both to RELATIVE_TOLERANCE
    assert RELATIVE_TOLERANCE == REL
    start = time.perf_counter()
    outcomes = verify_suite(random_instance_suite(100, seed=0))
    elapsed = time.perf_counter() - start
    mismatches = [f"{o.index}: {o.detail}" for o in outcomes if not o.ok]
    ok = len(outcomes) == 100 and not mismatches and elapsed < 10.0
    report(1, "oracle equivalence", ok,
           f"100 instances, {elapsed:.2f} s" + "; ".join(mismatches))


def test_criterion_2_dominance():
    rows = run_sweep(tab1_scenario())
    by_token = {}
    for r in rows:
        by_token.setdefault(r.token_length, {})[r.strategy] = r.makespan_s
    violations = []
    for t, cells in sorted(by_token.items()):
        dp = cells["optimal_dp"]
        for s in ("even", "heuristic", "single_device"):
            if dp > cells[s] * (1 + REL):
                violations.append(f"t={t}: dp {dp} > {s} {cells[s]}")
    report(2, "dominance over baselines", not violations, "; ".join(violations))


def test_criterion_3_quantitative_reproduction():
    rows = run_sweep(tab1_scenario())
    by_token = {}
    for r in rows:
        by_token.setdefault(r.token_length, {})[r.strategy] = r.makespan_s
    per_baseline = []
    for t, cells in sorted(by_token.items()):
        dp = cells["optimal_dp"]
        for s in ("even", "heuristic", "single_device"):
            per_baseline.append((t, s, (cells[s] - dp) / cells[s] * 100.0))
    avg = average_improvement_pct(rows)
    out_of_band = [f"t={t} vs {s}: {v:.2f}%" for t, s, v in per_baseline
                   if not 5.0 <= v <= 60.0]
    ok = 10.0 <= avg <= 25.0 and not out_of_band
    lo = min(v for _, _, v in per_baseline)
    hi = max(v for _, _, v in per_baseline)
    report(3, "quantitative reproduction", ok,
           f"avg vs best baseline {avg:.2f}% (band [10, 25]); per-baseline "
           f"range [{lo:.2f}%, {hi:.2f}%] (band [5, 60])"
           + ("; out of band: " + "; ".join(out_of_band) if out_of_band else ""))


def test_criterion_4_allocation_shifts_to_strong_device():
    scenario = tab1_scenario()
    shares = {}
    for t in (256, 8192):
        tables = _tables_for(scenario, t)
        plan = dp_scheduler.solve(tables).plan
        shares[t] = plan.layer_share(0)  # device index 0 = strongest
    ok = shares[8192] > shares[256]
    report(4, "allocation shift with load", ok,
           f"strongest device holds {shares[256]} layers at t=256, "
           f"{shares[8192]} at t=8192")


def test_criterion_5_timeline_invariant_suite():
    rng = random.Random(123)
    failures = 0
    checked = 0
    for _ in range(1000):
        num_layers = rng.randint(1, 10)
        num_devices = rng.randint(1, 4)
        rows = [(rng.uniform(1e9, 1e14), rng.uniform(0, 1e9),
                 rng.uniform(1e6, 1e10)) for _ in range(num_layers)]
        devices = [make_device(i, peak=rng.uniform(1e10, 1e15),
                               disk=rng.uniform(1e7, 1e11), memory=1e18,
                               dist=rng.uniform(0.5, 30.0))
                   for i in range(num_devices)]
        tables = make_tables(rows, devices, t=rng.randint(1, 8192))
        n_stages = rng.randint(1, min(num_devices, num_layers))
        order = rng.sample(range(num_devices), n_stages)
        bounds = sorted(rng.sample(range(1, num_layers), n_stages - 1))
        starts = [1] + [b + 1 for b in bounds]
        ends = bounds + [num_layers]
        plan = dp_scheduler.Plan(stages=tuple(
            dp_scheduler.PlanStage(order[k], starts[k], ends[k])
            for k in range(n_stages)))
        tl = evaluate(plan, tables)
        finish_prev = 0.0
        for s in tl.stages:
            checked += 1
            ok = (s.start_s == max(s.load_s, finish_prev)
                  and s.finish_s == (s.start_s + s.comm_s) + s.comp_s
                  and s.wait_s == max(0.0, finish_prev - s.load_s)
                  and s.wait_s >= 0.0
                  and s.load_s <= s.start_s)
            failures += 0 if ok else 1
            finish_prev = s.finish_s
        if tl.makespan_s != tl.stages[-1].finish_s:
            failures += 1
    report(5, "timeline invariants", failures == 0,
           f"1000 plans, {checked} stages, {failures} violations")


def _oracle_attn(cfg, t):
    qk_proj = Fraction(4) * t * cfg.d_head * cfg.d_model * cfg.h_q
    kv_proj = Fraction(4) * t * cfg.d_head * cfg.d_model * cfg.h_kv
    scores = Fraction(4) * t * t * cfg.d_head * cfg.h_q
    return qk_proj + kv_proj + scores


def _oracle_ffn(cfg, t):
    one_proj = Fraction(2) * t * cfg.d_model * cfg.d_ff
    return one_proj + one_proj + one_proj


def _oracle_params(cfg):
    q_and_o = 2 * cfg.d_model * (cfg.h_q * cfg.d_head)
    k_and_v = 2 * cfg.d_model * (cfg.h_kv * cfg.d_head)
    ffn = 3 * (cfg.d_model * cfg.d_ff)
    return Fraction(cfg.bytes_per_element) * (q_and_o + k_and_v + ffn)


def test_criterion_6_model_formulas_exact():
    rng = random.Random(2024)
    bad = []
    for n in range(20):
        h_q = rng.randint(1, 64)
        cfg = ModelConfig(d_model=rng.randint(1, 8192), h_q=h_q,
                          h_kv=rng.randint(1, h_q),
                          d_head=rng.randint(1, 256),
                          d_ff=rng.randint(1, 65536),
                          num_layers=rng.randint(1, 100),
                          bytes_per_element=rng.choice([1, 2, 4]))
        t = rng.randint(1, 100000)
        checks = (
            (attn_flops(cfg, t), _oracle_attn(cfg, t)),
            (ffn_flops(cfg, t), _oracle_ffn(cfg, t)),
            (layer_param_bytes(cfg), _oracle_params(cfg)),
            (activation_bytes(cfg, t),
             Fraction(cfg.bytes_per_element) * t * cfg.d_model),
        )
        for got, want in checks:
            if Fraction(got) != want:
                bad.append(f"config {n}: {got} != {want}")
    report(6, "model formula exactness", not bad,
           f"20 configs x 4 formulas" + "; ".join(bad))


def test_criterion_7_link_budget():
    device1 = tab1_scenario().devices[0]
    rate = link_rate(device1.radio, "up")
    target = 1.72e9  # hand-derived from the dBm/dB budget
    ok = abs(rate - target) <= 0.01 * target
    report(7, "link budget", ok, f"uplink {rate:.6g} bits/s vs {target:.3g}")


def test_criterion_8_solver_performance():
    scenario = tab1_scenario()
    tables = _tables_for(scenario, 2048)
    start = time.perf_counter()
    dp_scheduler.solve(tables)
    small = time.perf_counter() - start

    rng = random.Random(7)
    devices = [make_device(i, peak=rng.uniform(1e13, 2e14),
                           disk=rng.uniform(1e9, 6e9), memory=1e18,
                           dist=rng.uniform(1.0, 10.0)) for i in range(10)]
    cfg = ModelConfig(d_model=2048, h_q=16, h_kv=4, d_head=128, d_ff=8192,
                      num_layers=60)
    big_tables = cost_tables.build(build_profiles(cfg, 2048), devices, 2048)
    start = time.perf_counter()
    dp_scheduler.solve(big_tables)
    big = time.perf_counter() - start
    ok = small < 1.0 and big < 60.0
    report(8, "solver performance", ok,
           f"K=4,L=40: {small:.3f} s (< 1  s); K=10,L=60: {big:.2f} s (< 60 s)")


def test_criterion_9_sweep_determinism(tmp_path, capsys):
    first = tmp_path / "one.csv"
    second = tmp_path / "two.csv"
    assert main(["sweep", "--config", CONFIG, "--out", str(first)]) == 0
    assert main(["sweep", "--config", CONFIG, "--out", str(second)]) == 0
    capsys.readouterr()
    ok = first.read_bytes() == second.read_bytes()
    report(9, "sweep determinism", ok,
           f"{first.stat().st_size} bytes, byte-identical={ok}")
