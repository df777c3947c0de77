import hashlib
import json
import os
import re
import shlex
import shutil
import subprocess
import sys
import tracemalloc
import warnings
import xml.etree.ElementTree as ET
from pathlib import Path

import pytest

from coldpipe.cli import main
from coldpipe.timeline import StageTiming, Timeline

from conftest import TAB1_CONFIG

CONFIG = str(TAB1_CONFIG)


def run(argv, capsys):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_solve_smoke(capsys):
    code, out, _ = run(["solve", "--config", CONFIG, "--tokens", "2048",
                        "--strategy", "optimal_dp"], capsys)
    assert code == 0
    assert "makespan" in out
    assert "Device" in out


def test_solve_writes_json(tmp_path, capsys):
    out_path = tmp_path / "plan.json"
    code, _, _ = run(["solve", "--config", CONFIG, "--tokens", "2048",
                      "--strategy", "even", "--out", str(out_path)], capsys)
    assert code == 0
    payload = json.loads(out_path.read_text())
    assert payload["strategy"] == "even"
    assert len(payload["plan"]) == 4
    assert payload["timeline"]["makespan_s"] == payload["makespan_s"]


def test_solve_json_keys_follow_the_record_fields(tmp_path, capsys):
    out_path = tmp_path / "plan.json"
    assert run(["solve", "--config", CONFIG, "--tokens", "2048",
                "--strategy", "optimal_dp", "--out", str(out_path)], capsys)[0] == 0
    timeline = json.loads(out_path.read_text())["timeline"]
    assert list(timeline) == list(Timeline._fields)
    assert timeline["stages"]
    for stage in timeline["stages"]:
        assert list(stage) == list(StageTiming._fields)


def test_unknown_strategy_is_usage_error(capsys):
    code, _, err = run(["solve", "--config", CONFIG, "--tokens", "2048",
                        "--strategy", "alchemy"], capsys)
    assert code == 1
    assert "alchemy" in err


def test_brute_force_guard_refusal(capsys):
    code, _, err = run(["solve", "--config", CONFIG, "--tokens", "2048",
                        "--strategy", "brute_force"], capsys)
    assert code == 1
    assert "brute force" in err


def test_bad_tokens_usage_error(capsys):
    code, _, _ = run(["solve", "--config", CONFIG, "--tokens", "0"], capsys)
    assert code == 1


@pytest.mark.parametrize("tokens", ["647246", "1" + "0" * 200],
                         ids=["first-inexact", "1e200"])
def test_tokens_past_float64_exactness_usage_error(capsys, tokens):
    code, out, err = run(["solve", "--config", CONFIG, "--tokens", tokens],
                         capsys)
    assert code == 1
    assert out == ""
    assert err.startswith(f"error: token count {tokens} ")
    assert err.count("\n") == 1


def test_config_tokens_past_float64_exactness_config_error(tmp_path, capsys):
    cfg = _edited_tab1(tmp_path, "  - 8192", "  - 1" + "0" * 200)
    code, out, err = run(["sweep", "--config", cfg,
                          "--out", str(tmp_path / "r.csv")], capsys)
    assert code == 2
    assert out == ""
    assert err.startswith("config error: token count 1" + "0" * 200 + " ")
    assert err.count("\n") == 1


def test_config_error_exit_code(tmp_path, capsys):
    bad = tmp_path / "bad.yaml"
    bad.write_text("model: {d_model: 5120}\n")  # missing sections
    code, _, err = run(["solve", "--config", str(bad), "--tokens", "64"], capsys)
    assert code == 2
    assert "config error" in err


def test_infeasible_exit_code_and_diagnostic(tmp_path, capsys):
    text = Path(CONFIG).read_text().replace("memory_gb: 20.0", "memory_gb: 0.1")
    text = text.replace("memory_gb: 10.0", "memory_gb: 0.1")
    text = text.replace("memory_gb: 8.0", "memory_gb: 0.1")
    cfg = tmp_path / "tiny.yaml"
    cfg.write_text(text)
    code, _, err = run(["solve", "--config", str(cfg), "--tokens", "2048"], capsys)
    assert code == 3
    assert "memory headroom" in err
    assert "Device 1" in err
    for argv in (["sweep", "--out", str(tmp_path / "r.csv")],
                 ["gantt", "--tokens", "2048", "--format", "ascii"]):
        code, out, err = run([*argv, "--config", str(cfg)], capsys)
        assert code == 3
        assert out == ""
        assert err.startswith("infeasible: ") and err.count("\n") == 1


def test_sweep_writes_csv(tmp_path, capsys):
    out = tmp_path / "r.csv"
    code, stdout, _ = run(["sweep", "--config", CONFIG, "--out", str(out)], capsys)
    assert code == 0
    lines = out.read_text().splitlines()
    assert lines[0] == ("token_length,strategy,makespan_s,load_s_total,"
                        "comm_s_total,comp_s_total,wait_s_total,improvement_pct")
    assert len(lines) == 25  # header + 6 token lengths x 4 strategies
    assert "average improvement" in stdout


def test_sweep_deterministic(tmp_path, capsys):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    assert run(["sweep", "--config", CONFIG, "--out", str(a)], capsys)[0] == 0
    assert run(["sweep", "--config", CONFIG, "--out", str(b)], capsys)[0] == 0
    assert a.read_bytes() == b.read_bytes()


def test_gantt_svg_well_formed(tmp_path, capsys):
    out = tmp_path / "chart.svg"
    code, _, _ = run(["gantt", "--config", CONFIG, "--tokens", "8192",
                      "--strategy", "even", "--format", "svg",
                      "--out", str(out)], capsys)
    assert code == 0
    root = ET.fromstring(out.read_text())
    assert root.tag.endswith("svg")
    rects = [el for el in root.iter() if el.tag.endswith("rect")]
    assert len(rects) > 8  # bars for 4 stages plus legend swatches
    # long-token even split makes the weak devices wait: hatched gaps
    # appear for stages beyond the legend swatch
    assert out.read_text().count("url(#wait)") >= 3


def test_gantt_single_device_two_bars(tmp_path, capsys):
    out = tmp_path / "single.svg"
    code, _, _ = run(["gantt", "--config", CONFIG, "--tokens", "2048",
                      "--strategy", "single_device", "--out", str(out)], capsys)
    assert code == 0
    text = out.read_text()
    assert text.count("#4C72B0") == 2  # one load bar + one legend swatch
    assert text.count("#DD8452") == 1  # comm appears only in the legend


def test_gantt_ascii_fixed_width(capsys):
    code, out, _ = run(["gantt", "--config", CONFIG, "--tokens", "8192",
                        "--strategy", "even", "--format", "ascii"], capsys)
    assert code == 0
    bar_lines = [l for l in out.splitlines() if l.rstrip().endswith("|")]
    assert len(bar_lines) == 4
    assert all(len(l) == 80 for l in bar_lines)


def test_verify_smoke(capsys):
    code, out, _ = run(["verify", "--count", "5", "--seed", "1"], capsys)
    assert code == 0
    assert out.count("ok") >= 5
    assert "5/5 instances passed" in out


def test_verify_prints_each_instance_once_checked(capsys, monkeypatch):
    # `verify | head -1` must not wait for the whole suite: the first line
    # is out before the second instance is checked
    from coldpipe import baselines

    true_brute_force, calls = baselines.brute_force, []

    def second_call_fails(tables):
        calls.append(tables)
        if len(calls) == 2:
            raise RuntimeError("the second instance")
        return true_brute_force(tables)

    monkeypatch.setattr(baselines, "brute_force", second_call_fails)
    with pytest.raises(RuntimeError, match="the second instance"):
        main(["verify", "--count", "3"])
    assert capsys.readouterr().out.startswith("instance 000: ok (")


def test_verify_makes_only_the_instances_it_checks(monkeypatch):
    # making a million instances up front would take minutes and gigabytes:
    # with stdout closed before the first line, verify makes one and exits
    from coldpipe import experiment

    true_random_device, made = experiment._random_device, []

    def counted(rng, idx):
        if idx == 0:  # the first device of a new instance
            made.append(idx)
            assert len(made) == 1, "verify made a second instance"
        return true_random_device(rng, idx)

    monkeypatch.setattr(experiment, "_random_device", counted)
    read_end, write_end = os.pipe()
    os.close(read_end)
    with open(write_end, "w") as closed:
        monkeypatch.setattr(sys, "stdout", closed)
        assert main(["verify", "--count", "1000000"]) == 141
    assert len(made) == 1


def test_verify_zero_count_usage_error(capsys):
    code, _, _ = run(["verify", "--count", "0"], capsys)
    assert code == 1


def test_verify_detects_injected_solver_fault(capsys, monkeypatch):
    from coldpipe import dp_scheduler
    from coldpipe.dp_scheduler import SolveResult

    true_solve = dp_scheduler.solve

    def skewed(tables):
        result = true_solve(tables)
        return SolveResult(makespan_s=result.makespan_s * 1.05,
                           plan=result.plan)

    monkeypatch.setattr(dp_scheduler, "solve", skewed)
    code, out, _ = run(["verify", "--count", "4", "--seed", "2"], capsys)
    assert code == 4
    assert "MISMATCH" in out


def test_dump_config_round_trip(tmp_path, capsys):
    out = tmp_path / "dumped.yaml"
    code, _, _ = run(["dump-config", "--config", CONFIG, "--out", str(out)], capsys)
    assert code == 0
    assert out.read_text() == Path(CONFIG).read_text()
    redumped = tmp_path / "again.yaml"
    code, _, _ = run(["dump-config", "--config", str(out),
                      "--out", str(redumped)], capsys)
    assert code == 0
    assert redumped.read_bytes() == out.read_bytes()


def test_missing_subcommand_usage_error(capsys):
    assert run([], capsys)[0] == 1


def test_readme_quick_start_commands_succeed(tmp_path, capsys, monkeypatch):
    # every coldpipe command in README's sh blocks
    readme = (TAB1_CONFIG.parents[1] / "README.md").read_text()
    blocks = re.findall(r"```sh\n(.*?)```", readme, re.S)
    commands = [shlex.split(line)[1:]
                for block in blocks
                for line in block.replace("\\\n", " ").splitlines()
                if line.startswith("coldpipe ")]
    assert commands
    shutil.copytree(TAB1_CONFIG.parent, tmp_path / "configs")
    monkeypatch.chdir(tmp_path)
    for argv in commands:
        assert run(argv, capsys)[0] == 0, argv


def _edited_tab1(tmp_path, old, new):
    """tab1.yaml with the first occurrence of `old` replaced by `new`."""
    text = Path(CONFIG).read_text()
    assert old in text
    path = tmp_path / "edited.yaml"
    path.write_text(text.replace(old, new, 1))
    return str(path)


def _tab1_bytes(old: bytes, new: bytes) -> bytes:
    text = TAB1_CONFIG.read_bytes()
    assert old in text
    return text.replace(old, new, 1)


@pytest.mark.parametrize("text, message", [
    # PyYAML's own report of this flow sequence left open is 8 lines
    (b"model: [1, 2\n", "expected ',' or ']', but got '<stream end>' (line 2, column 1)"),
    # bytes that are no UTF-8 text, whatever the locale
    (_tab1_bytes(b"model:", b"model: \xff\xfe"),
     "unacceptable byte 0xff: invalid start byte (line 1, column 8)"),
    # a control character, placed after a two-byte character on its line
    (_tab1_bytes(b"  h_kv: 8", b"  h_kv: \xc3\xa9\x078"),
     "unacceptable character #x0007: special characters are not allowed "
     "(line 4, column 10)"),
    # the same in UTF-16, whose byte order mark PyYAML reads
    (b"\xff\xfe" + _tab1_bytes(b"  h_kv: 8", b"  h_kv: \x078").decode().encode("utf-16-le"),
     "unacceptable character #x0007: special characters are not allowed "
     "(line 4, column 9)"),
    # a repeated key would silently replace device 1's 20 GB with 0.1 GB
    (_tab1_bytes(b"  memory_gb: 20.0\n", b"  memory_gb: 20.0\n  memory_gb: 0.1\n"),
     "duplicate key 'memory_gb' (line 24, column 3)"),
], ids=["unclosed_flow", "not_utf8", "control_char", "control_char_utf16",
     "repeated_key"])
def test_malformed_yaml_is_one_line_config_error(tmp_path, capsys, text, message):
    cfg = tmp_path / "bad.yaml"
    cfg.write_bytes(text)
    code, out, err = run(["solve", "--config", str(cfg), "--tokens", "2048"], capsys)
    assert code == 2
    assert out == ""
    assert err == f"config error: {cfg}: invalid YAML: {message}\n"


def test_repeated_token_length_is_config_error(tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    cfg = _edited_tab1(tmp_path, "  - 512\n", "  - 512\n  - 256\n")
    code, out, err = run(["sweep", "--config", cfg, "--out", "r.csv"], capsys)
    assert code == 2
    assert out == ""
    assert err == "config error: token_lengths lists 256 twice\n"
    assert not (tmp_path / "r.csv").exists()


def test_model_preset_is_unknown_key(tmp_path, capsys):
    cfg = _edited_tab1(tmp_path, "model:\n", "model:\n  preset: qwen3_14b\n")
    code, out, err = run(["solve", "--config", cfg, "--tokens", "2048"], capsys)
    assert code == 2
    assert out == ""
    assert err == "config error: model.preset: unknown key\n"


def src_env():
    """The environment with this tree's src/ first on PYTHONPATH."""
    return {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [str(TAB1_CONFIG.parents[1] / "src"),
                      os.environ.get("PYTHONPATH")]))}


def test_closed_stdout_exits_quietly():
    env = src_env()
    proc = subprocess.Popen(
        [sys.executable, "-m", "coldpipe.cli", "solve", "--config", CONFIG,
         "--tokens", "2048"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env)
    proc.stdout.close()  # the reader quits before the first line arrives
    err = proc.stderr.read()
    proc.stderr.close()
    assert proc.wait(timeout=60) == 141
    assert err == b""


@pytest.mark.parametrize("modules, prefix", [
    # concurrent.futures costs milliseconds and memory at every start, and
    # nothing in coldpipe needs it
    ("coldpipe.cli", "concurrent"),
    # the package root imports nothing, so these modules stand alone
    ("coldpipe.errors, coldpipe.device_model, coldpipe.model_profile", "numpy"),
], ids=["cli", "leaf-modules"])
def test_import_loads_no_unneeded_module(modules, prefix):
    probe = (f"import sys, {modules}; "
             f"print(sorted(m for m in sys.modules if m.startswith({prefix!r})))")
    done = subprocess.run([sys.executable, "-c", probe], env=src_env(), timeout=60,
                          capture_output=True, text=True, check=True)
    assert done.stdout == "[]\n"


def test_zero_link_rate_is_config_error(tmp_path, capsys):
    # device 2's uplink power is the only tx_power_up_dbm of 18.0
    cfg = _edited_tab1(tmp_path, "tx_power_up_dbm: 18.0", "tx_power_up_dbm: -2000.0")
    code, out, err = run(["solve", "--config", cfg, "--tokens", "2048"], capsys)
    assert code == 2
    assert out == ""
    assert err.count("\n") == 1
    assert "config error" in err and "device 2" in err and "link rate" in err


@pytest.mark.parametrize("command", [
    ["solve", "--tokens", "2048"],
    ["solve", "--tokens", "2048", "--strategy", "even"],
    ["sweep", "--out", "r.csv"],
    ["gantt", "--tokens", "2048", "--strategy", "even", "--format", "ascii"],
    ["gantt", "--tokens", "2048", "--strategy", "even", "--format", "svg"],
], ids=["solve", "solve-even", "sweep", "gantt-ascii", "gantt-svg"])
@pytest.mark.parametrize("old, new, what", [
    ("peak_tflops: 165.0", "peak_tflops: 1.0e-310", "computing all 40 layers takes inf s"),
    ("disk_read_mb_s: 5000.0", "disk_read_mb_s: 1.0e-310",
     "reading all 40 layers from disk takes inf s"),
], ids=["compute", "disk"])
def test_rate_too_small_for_finite_plan_times_is_config_error(
        tmp_path, capsys, monkeypatch, command, old, new, what):
    monkeypatch.chdir(tmp_path)
    cfg = _edited_tab1(tmp_path, old, new)
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # numpy's overflow warning included
        code, out, err = run([*command, "--config", cfg], capsys)
    assert code == 2
    assert out == ""
    assert err == (f"config error: device 1: {what}, "
                   "too slow for plan times to stay finite\n")
    assert not (tmp_path / "r.csv").exists()


@pytest.mark.parametrize("command", [["solve", "--tokens", "2048"], ["sweep", "--out", "r.csv"]],
                         ids=["solve", "sweep"])
@pytest.mark.parametrize("old, new, device", [
    ("tx_power_up_dbm: 18.0", "tx_power_up_dbm: 1.0e+300", 2),
    ("ref_gain_db: -47.2", "ref_gain_db: 4000.0", 1),
    ("distance_m: 3.0", "distance_m: 1.0e-300", 2),
    ("noise_dbm_per_hz: -174.0", "noise_dbm_per_hz: -4000.0", 1),
], ids=["tx-power", "ref-gain", "distance", "noise"])
def test_out_of_range_radio_value_is_config_error(tmp_path, capsys, monkeypatch,
                                                  command, old, new, device):
    # each edit overflows a float or zeroes the noise power
    monkeypatch.chdir(tmp_path)
    cfg = _edited_tab1(tmp_path, old, new)
    code, out, err = run([*command, "--config", cfg], capsys)
    assert code == 2
    assert out == ""
    assert err.startswith("config error: ") and err.count("\n") == 1
    assert f"device {device} " in err and "link rate" in err


@pytest.mark.parametrize("value", [".nan", ".inf", "-.inf",
                                   pytest.param("1" + "0" * 400, id="huge-int")])
def test_non_finite_number_is_config_error(tmp_path, capsys, value):
    cfg = _edited_tab1(tmp_path, "peak_tflops: 165.0", f"peak_tflops: {value}")
    code, out, err = run(["solve", "--config", cfg, "--tokens", "2048"], capsys)
    assert code == 2
    assert out == ""
    assert "devices[0].peak_tflops" in err and "finite" in err


TINY_CONFIG = """\
model:
  d_model: 512
  h_q: 8
  h_kv: 2
  d_head: 64
  d_ff: 2048
  num_layers: 6
  bytes_per_element: 2
radio:
  efficiency: 0.5
  bandwidth_mhz: 160.0
  noise_dbm_per_hz: -174.0
  ref_distance_m: 1.0
  path_loss_exp: 3.0
  ref_gain_db: -47.2
  tx_power_down_dbm: 25.0
devices:
- {id: 1, peak_tflops: 40.0, util_ceiling: 0.5, util_rate_per_token: 6.0e-4,
   disk_read_mb_s: 3000.0, memory_gb: 4.0, tx_power_up_dbm: 20.0, distance_m: 2.0}
- {id: 2, peak_tflops: 10.0, util_ceiling: 0.8, util_rate_per_token: 1.5e-3,
   disk_read_mb_s: 1500.0, memory_gb: 2.0, tx_power_up_dbm: 16.0, distance_m: 5.0}
experiment:
  token_lengths: [128, 1024]
  strategies: [optimal_dp, brute_force, even]
"""


def test_sweep_with_brute_force_strategy(tmp_path, capsys):
    cfg = tmp_path / "tiny.yaml"
    cfg.write_text(TINY_CONFIG)
    out = tmp_path / "tiny.csv"
    code, _, _ = run(["sweep", "--config", str(cfg), "--out", str(out)], capsys)
    assert code == 0
    lines = out.read_text().splitlines()
    assert len(lines) == 7  # header + 2 token lengths x 3 strategies
    makespans = {}
    for line in lines[1:]:
        fields = line.split(",")
        makespans[(fields[0], fields[1])] = float(fields[2])
    for t in ("128", "1024"):
        assert makespans[(t, "optimal_dp")] == makespans[(t, "brute_force")]
        assert makespans[(t, "optimal_dp")] <= makespans[(t, "even")]


# sha256 of the output bytes at t=8192, recorded before the Gantt renderers
# were moved onto `StageTiming.phases` and `solve --out` onto the timeline
# records' own field order (now their NamedTuple `_asdict()`); the bytes have
# not changed since: (gantt svg, gantt ascii, solve --out JSON).
PINNED_8192 = {
    "optimal_dp": (
        "c606480ee037d4c87cb985c8d73b1f8cad2ebe121e2eec1e0c7397a3ecea9240",
        "2cf95f38c327a13b205925bfc98c78fcb1fa3cb40f00fd1081513d7d45f73982",
        "146b429432ce5d7315fa09a53c044f8b089838ef877648da8521ca76d811e505"),
    "even": (
        "9c833fed676637186d662449841bae6bc50a23686420d376b63914d96a7fedfd",
        "e996929b2a7eb2cd21fc691ee2b68b74a7cd074eebbede67128a2fc473e6f23a",
        "abff6960bd6d7063ff82ac9aa03244ac374bbbdcfdf176beee9e97741acd8c26"),
}


@pytest.mark.parametrize("strategy", sorted(PINNED_8192))
def test_output_bytes_pinned(tmp_path, capsys, strategy):
    cell = ["--config", CONFIG, "--tokens", "8192", "--strategy", strategy]
    svg, js = tmp_path / "chart.svg", tmp_path / "plan.json"
    assert run(["gantt", *cell, "--format", "svg", "--out", str(svg)], capsys)[0] == 0
    code, ascii_chart, _ = run(["gantt", *cell, "--format", "ascii"], capsys)
    assert code == 0
    assert run(["solve", *cell, "--out", str(js)], capsys)[0] == 0
    digests = tuple(hashlib.sha256(data).hexdigest() for data in
                    (svg.read_bytes(), ascii_chart.encode(), js.read_bytes()))
    assert digests == PINNED_8192[strategy]


UNWRITABLE_OUT = {
    "solve": ["solve", "--config", CONFIG, "--tokens", "256"],
    "sweep": ["sweep", "--config", CONFIG],
    "gantt": ["gantt", "--config", CONFIG, "--tokens", "256"],
    "dump-config": ["dump-config", "--config", CONFIG],
}


@pytest.mark.parametrize("target", ["missing-parent", "directory"])
@pytest.mark.parametrize("command", sorted(UNWRITABLE_OUT))
def test_unwritable_out_is_one_line_error(tmp_path, capsys, command, target):
    out = tmp_path / "out"
    if target == "directory":
        out.mkdir()
    else:
        out = out / "missing" / "x.out"
    before = sorted(tmp_path.rglob("*"))
    code, _, err = run([*UNWRITABLE_OUT[command], "--out", str(out)], capsys)
    assert code == 1
    assert err.startswith(f"error: cannot write {out}: ") and err.count("\n") == 1
    assert sorted(tmp_path.rglob("*")) == before  # no temp file left behind


def test_existing_tmp_file_survives_out(tmp_path, capsys):
    out = tmp_path / "out.yaml"
    bystander = tmp_path / "out.yaml.tmp"
    bystander.write_bytes(b"user data\n")
    code, _, _ = run(["dump-config", "--config", CONFIG, "--out", str(out)], capsys)
    assert code == 0
    assert bystander.read_bytes() == b"user data\n"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["out.yaml", "out.yaml.tmp"]
    assert out.stat().st_mode & 0o777 == 0o666 & ~_umask()


def _umask():
    mask = os.umask(0)
    os.umask(mask)
    return mask


def test_fleet_over_table_byte_limit_is_one_line_error(tmp_path, capsys):
    # 25 devices would need about 172 GB of DP tables; the refusal comes
    # from the size estimate, before any table is allocated
    text = Path(CONFIG).read_text()
    head, rest = text.split("devices:\n", 1)
    device, tail = rest.split("- id: 2\n", 1)[0], rest.split("experiment:", 1)[1]
    devices = "".join(device.replace("id: 1", f"id: {k}", 1) for k in range(1, 26))
    cfg = tmp_path / "big.yaml"
    cfg.write_text(f"{head}devices:\n{devices}experiment:{tail}")
    tracemalloc.start()
    try:
        code, out, err = run(["solve", "--config", str(cfg), "--tokens", "256",
                              "--strategy", "optimal_dp"], capsys)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 1
    assert out == ""
    assert err.startswith("error: 25 devices and 40 layers need ") and err.count("\n") == 1
    assert "over the limit of 4,294,967,296 bytes" in err
    assert peak < 50e6


@pytest.mark.parametrize("strategy", ["optimal_dp", "even"])
def test_model_over_cost_table_byte_limit_is_one_line_error(tmp_path, capsys, strategy):
    # 20,000 layers on 4 devices would need about 36.8 GB of cost tables;
    # the refusal comes from the size estimate, before any table is allocated.
    # A trillion layers is refused before the trillion layer profiles are made
    for num_layers, need in ((20000, "36,806,240,252"),
                             (10**12, "92,000,000,000,312,000,000,000,252")):
        cfg = tmp_path / "deep.yaml"
        cfg.write_text(Path(CONFIG).read_text().replace("num_layers: 40",
                                                        f"num_layers: {num_layers}"))
        tracemalloc.start()
        try:
            code, out, err = run(["solve", "--config", str(cfg), "--tokens", "256",
                                  "--strategy", strategy], capsys)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == 1
        assert out == ""
        assert err.startswith(f"error: 4 devices and {num_layers} layers need {need} bytes ")
        assert err.count("\n") == 1
        assert "bytes of cost tables, over the limit of 4,294,967,296 bytes" in err
        assert peak < 50e6


def test_limit_error_is_a_value_error():
    from coldpipe.errors import ColdpipeError, LimitError
    assert issubclass(LimitError, ValueError)
    assert issubclass(LimitError, ColdpipeError)


def test_internal_value_error_propagates(monkeypatch):
    from coldpipe import dp_scheduler

    def broken(*args, **kwargs):
        raise ValueError("broadcast")

    monkeypatch.setattr(dp_scheduler, "compute_table", broken)
    with pytest.raises(ValueError, match="broadcast"):
        main(["solve", "--config", CONFIG, "--tokens", "2048"])


def test_structural_plan_error_propagates(monkeypatch):
    from coldpipe import dp_scheduler
    from coldpipe.errors import PlanError

    def faulty(tables):
        raise PlanError("devices reused across stages: [0, 0]")

    monkeypatch.setattr(dp_scheduler, "solve", faulty)
    with pytest.raises(PlanError, match="reused"):
        main(["solve", "--config", CONFIG, "--tokens", "2048"])


def test_infeasible_static_baseline_prints_diagnostic(tmp_path, capsys):
    text = Path(CONFIG).read_text()
    for gb in ("20.0", "10.0", "8.0"):
        text = text.replace(f"memory_gb: {gb}", "memory_gb: 4.0")
    cfg = tmp_path / "small.yaml"
    cfg.write_text(text)
    code, out, err = run(["solve", "--config", str(cfg), "--tokens", "2048",
                          "--strategy", "even"], capsys)
    assert code == 3
    assert out == ""
    assert err.startswith("infeasible: ")
    assert "per-device memory headroom:" in err
