#!/usr/bin/env python3
"""The coldpipe benchmark.

    python3 benchmark/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a coldpipe tree; it needs nothing built.

Workloads, each the `coldpipe` CLI as a user runs it, one fresh
`python -m coldpipe.cli` process per command with PYTHONPATH=src (and no
other PYTHON* variable):
  tab1_sweep     `sweep --config configs/tab1.yaml`, the paper's headline
                 experiment (6 token lengths x 4 strategies, K=4, L=40)
  fleet_ladder   `solve --tokens 2048 --out ...` on benchmark-generated fleets
                 of K = 8, 10, 12 devices, L=60, unlimited memory
  oracle_verify  `verify --count N --seed <seed>`, N about 300 instances,
                 chosen per seed so that every seed's oracle does equal work

--trace 0 is a closed loop from this one process, one child at a time; it
starts passes over the workload's commands until --seconds have passed and
reports the end-to-end metrics:
  setup_s      median time of a fresh interpreter that imports coldpipe.cli
  norm_wall_s  median wall time of one pass over the workload's commands
  peak_rss_mb  largest max-RSS of the workload's children (os.wait4), 1e6 B
Both times are rescaled to one host speed: a fixed reference (reference.py)
is timed before and after every timed child, and the child's wall time is
divided by how much slower than usual the reference ran (see `Reference`).
Raw wall times go to the record in .bench_out/.
--trace 1 runs all three workloads in this process through `cli.main`,
alternately untraced and with spans around each layer (tracing.py), and
reports the per-layer metrics; the traced run is the same on every workload.

Every command's output is checked against references in ref/ (see
make_refs.py); a failed check counts a failed operation.  The last line of
stdout is the result JSON; a fuller record, with the environment, input
hashes, plans and sample quartiles, goes to .bench_out/.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from collections import defaultdict
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
TAB1_CONFIG = "configs/tab1.yaml"
VERIFY_EVALUATIONS = 36000  # about 300 instances
VERIFY_MAX_COUNT = 2000
SETUP_SAMPLES = 9
IMPORTTIME_SAMPLES = 5
TRACE_ROUNDS = 2
MAKESPAN_REL_TOL = 1e-9
IMPORT_PROBE = "import coldpipe.cli, coldpipe; print(coldpipe.__file__)"
WORKLOADS = ("tab1_sweep", "fleet_ladder", "oracle_verify")
# How each workload's commands are rescaled to one host speed (`Reference`):
# by the reference program's start-up alone where the command is mostly
# interpreter start-up and imports, and by start-up plus compute where it
# is mostly compute.  The import probes of setup_s use start-up alone.
REFERENCE_KIND = {"tab1_sweep": "startup", "fleet_ladder": "mixed",
                  "oracle_verify": "mixed"}
# Median seconds of each kind of reference run on the host the benchmark was
# written on (2-vCPU shared Xeon VM, Python 3.11.7); rescaled times are at
# that host's usual speed.
REFERENCE_S = {"startup": 0.35, "mixed": 0.65}
COMPUTE_ROUNDS = 3  # reference.compute() calls in a mixed reference run
# Un-suffixed per-layer metrics sum these runs of the traced tour; the
# fleet_ladder runs report through the per-K (.kNN) metrics.
SMALL_RUNS = ("tab1_sweep", "oracle_verify")
# (span, statistic) pairs reported as `span.statistic` over SMALL_RUNS.
SMALL_RUN_METRICS = (
    ("config.load_scenario", "s"),
    ("cli.rows_to_csv", "s"),
    ("model_profile.build_profiles", "s"), ("model_profile.build_profiles", "calls"),
    ("cost_tables.build", "s"), ("cost_tables.build", "calls"),
    ("dp_scheduler.compute_table", "s"), ("dp_scheduler.compute_table", "calls"),
    ("dp_scheduler.best_final_state", "s"),
    ("dp_scheduler.reconstruct", "s"),
    ("dp_scheduler.validate_plan", "s"), ("dp_scheduler.validate_plan", "calls"),
    ("dp_scheduler.solve", "self_s"),
    ("baselines.brute_force", "s"), ("baselines.brute_force", "calls"),
    ("baselines.plan_for_strategy", "s"),
    ("timeline.evaluate", "s"), ("timeline.evaluate", "calls"),
    ("experiment.run_sweep", "self_s"),
    ("experiment.verify_suite", "self_s"),
    ("experiment.random_instance_suite", "s"),
)


@dataclass
class Command:
    """One CLI invocation and the check of its output."""

    run: str                                  # workload, or workload.kNN
    argv: list[str]                           # arguments after `coldpipe`
    check: Callable[[int, str], str | None]   # (exit code, stdout) -> error
    record: dict = field(default_factory=dict)


@dataclass
class Child:
    wall_s: float
    rss_mb: float
    code: int
    stdout: str
    stderr: str


# ---------------------------------------------------------------------------
# Inputs and checks.

def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def tab1_commands(work: Path, inputs: dict) -> list[Command]:
    ref = (HERE / "ref" / "tab1_sweep.csv").read_bytes()
    inputs[TAB1_CONFIG] = sha256((ROOT / TAB1_CONFIG).read_bytes())
    inputs["ref/tab1_sweep.csv"] = sha256(ref)
    out = work / "sweep.csv"

    def check(code: int, stdout: str) -> str | None:
        if code != 0:
            return f"sweep exited {code}"
        csv = out.read_bytes()
        out.unlink()
        if csv != ref:
            return "sweep CSV differs from ref/tab1_sweep.csv"
        return None

    argv = ["sweep", "--config", TAB1_CONFIG, "--out", str(out.relative_to(ROOT))]
    return [Command("tab1_sweep", argv, check)]


def _solve_check(out: Path, expected: float, tables, scenario, record: dict):
    """Check one `solve --out` result: the reference makespan, a valid plan,
    and a timeline replay of that plan to the same makespan."""
    from coldpipe.dp_scheduler import Plan, PlanStage, validate_plan
    from coldpipe.timeline import evaluate

    import fleet

    index_of = {dev.id: d for d, dev in enumerate(scenario.devices)}

    def check(code: int, stdout: str) -> str | None:
        if code != 0:
            return f"solve exited {code}"
        payload = json.loads(out.read_text())
        out.unlink()
        makespan = payload["makespan_s"]
        stages = [(s["device_id"], s["start_layer"], s["end_layer"]) for s in payload["plan"]]
        record["makespan_s"] = makespan
        record["plan"] = fleet.plan_string(stages)
        if not math.isclose(makespan, expected, rel_tol=MAKESPAN_REL_TOL, abs_tol=0.0):
            return f"makespan {makespan!r} != reference {expected!r}"
        plan = Plan(stages=tuple(PlanStage(index_of[d], a, b) for d, a, b in stages))
        validate_plan(plan, tables)
        replay = evaluate(plan, tables).makespan_s
        if not math.isclose(replay, makespan, rel_tol=MAKESPAN_REL_TOL, abs_tol=0.0):
            return f"plan replays to {replay!r}, solve reported {makespan!r}"
        return None
    return check


def fleet_commands(work: Path, inputs: dict, seed: int) -> list[Command]:
    from coldpipe import config, cost_tables
    from coldpipe.model_profile import build_profiles

    import fleet

    ref_bytes = (HERE / "ref" / "fleet_ladder.json").read_bytes()
    inputs["ref/fleet_ladder.json"] = sha256(ref_bytes)
    refs = json.loads(ref_bytes)["fleets"][str(fleet.fleet_index(seed))]
    commands = []
    for k in fleet.LADDER:
        rung = f"k{k:02d}"
        path = work / f"fleet_{rung}.yaml"
        scenario = fleet.fleet_scenario(seed, k)
        text = config.dump_scenario(scenario)
        path.write_text(text)
        if config.load_scenario(path) != scenario:
            raise RuntimeError(f"{path.name} does not reload to the generated fleet")
        inputs[f"fleet_{rung}.yaml"] = sha256(text.encode())
        tables = cost_tables.build(build_profiles(scenario.model, fleet.TOKENS),
                                   list(scenario.devices), fleet.TOKENS)
        out = work / f"plan_{rung}.json"
        argv = ["solve", "--config", str(path.relative_to(ROOT)),
                "--tokens", str(fleet.TOKENS), "--out", str(out.relative_to(ROOT))]
        record: dict = {}
        check = _solve_check(out, refs[rung]["makespan_s"], tables, scenario, record)
        commands.append(Command(f"fleet_ladder.{rung}", argv, check, record))
    return commands


def oracle_evaluations(instances):
    """Yield, per instance, the timeline evaluations `verify` must make: one
    per memory-feasible oracle candidate, plus one replay of the solver's
    plan when there is any."""
    from coldpipe import baselines, cost_tables
    from coldpipe.model_profile import build_profiles

    for inst in instances:
        sc = inst.scenario
        t = sc.token_lengths[0]
        tables = cost_tables.build(build_profiles(sc.model, t), list(sc.devices), t)
        fits = tables.memory_bytes
        feasible = sum(
            all(tables.mem_footprint(s.start_layer, s.end_layer) <= fits[s.device]
                for s in plan.stages)
            for plan in baselines.enumerate_plans(tables.num_devices, tables.num_layers))
        yield feasible + (feasible > 0)


def verify_commands(seed: int, inputs: dict) -> list[Command]:
    """`verify --count N --seed seed`, with N the shortest prefix of the
    seed's suite whose oracle makes VERIFY_EVALUATIONS timeline evaluations.
    Those evaluations are most of the command's time, so equal evaluations
    give every seed the same work; a fixed count would not (the evaluations
    of 300 instances spread by a quarter between seeds)."""
    from coldpipe import config, experiment

    suite = experiment.random_instance_suite(VERIFY_MAX_COUNT, seed=seed)
    evaluations = 0
    for count, n in enumerate(oracle_evaluations(suite), start=1):
        evaluations += n
        if evaluations >= VERIFY_EVALUATIONS:
            break
    else:
        raise RuntimeError(f"seed {seed}: {VERIFY_MAX_COUNT} instances make only "
                           f"{evaluations} evaluations")
    dumped = "---\n".join(config.dump_scenario(inst.scenario) for inst in suite[:count])
    inputs[f"verify_suite(count={count}, seed={seed})"] = sha256(dumped.encode())
    summary = f"{count}/{count} instances passed"

    def check(code: int, stdout: str) -> str | None:
        if code != 0:
            return f"verify exited {code}"
        last = stdout.rstrip("\n").rsplit("\n", 1)[-1]
        return None if last == summary else f"verify ended with {last!r}"

    argv = ["verify", "--count", str(count), "--seed", str(seed)]
    return [Command("oracle_verify", argv, check,
                    {"instances": count, "oracle_evaluations": evaluations})]


def workload_commands(workload: str, seed: int, work: Path, inputs: dict) -> list[Command]:
    if workload == "tab1_sweep":
        return tab1_commands(work, inputs)
    if workload == "fleet_ladder":
        return fleet_commands(work, inputs, seed)
    return verify_commands(seed, inputs)


def run_check(command: Command, code: int, stdout: str) -> str | None:
    try:
        return command.check(code, stdout)
    except Exception as err:  # a malformed output is a failed operation
        return f"{type(err).__name__}: {err}"


# ---------------------------------------------------------------------------
# Environment.

def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as info:
            for line in info:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor()


def git_state() -> tuple[str | None, bool | None]:
    def git(*args: str) -> str | None:
        try:
            done = subprocess.run(["git", "-C", str(ROOT), *args], capture_output=True,
                                  text=True, check=False)
        except OSError:
            return None
        return done.stdout.strip() if done.returncode == 0 else None

    top = git("rev-parse", "--show-toplevel")
    if top is None or Path(top).resolve() != ROOT:
        return None, None
    return git("rev-parse", "HEAD"), bool(git("status", "--porcelain"))


def environment() -> dict:
    import numpy
    import yaml

    sha, dirty = git_state()
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "pyyaml": yaml.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu_model(),
        "git_sha": sha,
        "git_dirty": dirty,
    }


def check_source(path: str, who: str) -> None:
    """Refuse to measure a coldpipe that is not this tree's src/ copy."""
    if not Path(path).resolve().is_relative_to(SRC.resolve()):
        raise SystemExit(f"error: {who} imported coldpipe from {path}, not from {SRC}")


# ---------------------------------------------------------------------------
# Child processes (--trace 0 and the import probes).

# Children see no PYTHON* variable but PYTHONPATH: a setting such as
# PYTHONDONTWRITEBYTECODE would make every start recompile coldpipe.  The
# reference program does not see PYTHONPATH either: it must not depend on
# the tree it measures.
REF_ENV = {k: v for k, v in os.environ.items() if not k.startswith("PYTHON")}
CHILD_ENV = {**REF_ENV, "PYTHONPATH": str(SRC)}


def run_child(args: list[str], work: Path, env: dict = CHILD_ENV) -> Child:
    out_path, err_path = work / "child.out", work / "child.err"
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen([sys.executable, *args], cwd=ROOT, env=env,
                                stdin=subprocess.DEVNULL, stdout=out, stderr=err)
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return Child(wall_s=wall, rss_mb=usage.ru_maxrss * 1024 / 1e6,
                 code=proc.returncode, stdout=out_path.read_text(),
                 stderr=err_path.read_text())


def import_probe(work: Path, extra: tuple[str, ...] = ()) -> Child:
    child = run_child([*extra, "-c", IMPORT_PROBE], work)
    if child.code != 0:
        raise SystemExit(f"error: importing coldpipe.cli failed:\n{child.stderr}")
    check_source(child.stdout.strip(), "the child interpreter")
    return child


class Reference:
    """Reference runs of one kind, before and after every child timed, to
    rescale the child's wall time to one host speed.

    A shared host's speed drifts by tens of percent over seconds to minutes
    as other tenants come and go.  So a child's wall time is multiplied by
    REFERENCE_S[kind] over the mean time of the reference runs just before
    and after it.  A `startup` run is reference.py as a child process,
    mostly interpreter start-up and imports.  A `mixed` run adds the time
    of reference.compute() in this process.  Start-up (page faults, file
    reads) and compute were seen to drift apart by a fifth for minutes at a
    time, so commands that are mostly compute are rescaled by both."""

    def __init__(self, kind: str, work: Path) -> None:
        self.kind, self.work = kind, work
        self.output: str | None = None
        self.samples: list[float] = []
        self.run()  # warm-up: byte-code caches and page cache
        self.run()

    def run(self) -> None:
        child = run_child([str(HERE / "reference.py")], self.work, REF_ENV)
        if child.code != 0:
            raise SystemExit(f"error: reference.py exited {child.code}:\n{child.stderr}")
        outputs, seconds = [child.stdout], child.wall_s
        if self.kind == "mixed":
            import reference

            start = time.perf_counter()
            outputs += [repr(reference.compute()) + "\n" for _ in range(COMPUTE_ROUNDS)]
            seconds += time.perf_counter() - start
        if any(out != (self.output or out) for out in outputs):
            raise SystemExit(f"error: the reference computed {outputs!r}, "
                             f"not {self.output!r}")
        self.output = outputs[0]
        self.samples.append(seconds)

    def time(self, start: Callable[[], Child]) -> tuple[Child, float]:
        """Run one child; return it and its rescaled wall time."""
        child = start()
        self.run()
        return child, child.wall_s * REFERENCE_S[self.kind] / statistics.mean(self.samples[-2:])


def quartiles(values: list[float]) -> dict:
    if len(values) < 2:
        return {"n": len(values), "median": values[0]}
    q1, med, q3 = statistics.quantiles(values, n=4)
    return {"n": len(values), "q1": q1, "median": med, "q3": q3, "max": max(values)}


def measure_e2e(workload: str, commands: list[Command], seconds: float,
                work: Path) -> tuple[dict, dict]:
    import_probe(work)  # warm-up: byte-code caches and page cache
    startup = Reference("startup", work)
    probes = [startup.time(lambda: import_probe(work)) for _ in range(SETUP_SAMPLES)]
    setup = [norm for _, norm in probes]
    kind = REFERENCE_KIND[workload]
    ref = startup if kind == "startup" else Reference(kind, work)
    passes: list[float] = []
    raw_passes: list[float] = []
    per_run: dict[str, list[float]] = {c.run: [] for c in commands}
    peak_rss = 0.0
    attempted = failed = 0
    errors: list[str] = []
    start = time.perf_counter()
    while time.perf_counter() - start < seconds:
        total = raw = 0.0
        for command in commands:
            child, norm = ref.time(
                lambda: run_child(["-m", "coldpipe.cli", *command.argv], work))
            attempted += 1
            error = run_check(command, child.code, child.stdout)
            if error:
                failed += 1
                errors.append(f"{command.run}: {error}\n{child.stderr[-2000:]}")
            total += norm
            raw += child.wall_s
            per_run[command.run].append(norm)
            peak_rss = max(peak_rss, child.rss_mb)
        passes.append(total)
        raw_passes.append(raw)

    metrics = {
        "setup_s": {"value": statistics.median(setup), "unit": "s"},
        "norm_wall_s": {"value": statistics.median(passes), "unit": "s"},
        "peak_rss_mb": {"value": peak_rss, "unit": "MB"},
    }
    record = {
        "attempted": attempted + len(setup), "failed": failed, "errors": errors,
        "setup_s": quartiles(setup), "norm_wall_s": quartiles(passes),
        "command_norm_wall_s": {run: quartiles(v) for run, v in per_run.items()},
        "raw_setup_s": quartiles([child.wall_s for child, _ in probes]),
        "raw_wall_s": quartiles(raw_passes),
        "reference_s": {r.kind: quartiles(r.samples) for r in {startup, ref}},
        "setup_share_of_wall": statistics.median(setup) / statistics.median(passes),
    }
    return metrics, record


# ---------------------------------------------------------------------------
# Traced run (--trace 1).

def import_times(work: Path) -> dict:
    """Median cumulative import seconds of numpy, yaml and the rest of
    coldpipe.cli, from `python -X importtime`."""
    samples = {"numpy": [], "yaml": [], "coldpipe": []}
    for _ in range(IMPORTTIME_SAMPLES):
        child = import_probe(work, ("-X", "importtime"))
        cumulative = {}
        for line in child.stderr.splitlines():
            if line.startswith("import time:") and "|" in line:
                _, cum, name = line[len("import time:"):].split("|")
                if cum.strip().isdigit():
                    cumulative.setdefault(name.strip(), int(cum) / 1e6)
        samples["numpy"].append(cumulative["numpy"])
        samples["yaml"].append(cumulative["yaml"])
        samples["coldpipe"].append(cumulative["coldpipe.cli"] - cumulative["numpy"]
                                   - cumulative["yaml"])
    return {f"import.{name}_s": statistics.median(v) for name, v in samples.items()}


def run_in_process(command: Command, tracer=None) -> tuple[float, str | None]:
    """Run one command through `cli.main` in this process, traced if a
    tracer is given; return its seconds and its check's error."""
    from coldpipe import cli

    stdout, stderr = io.StringIO(), io.StringIO()
    if tracer:
        tracer.install()
    try:
        start = time.perf_counter()
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            try:
                if tracer:
                    code = tracer.call(command.run, cli.main, command.argv)
                else:
                    code = cli.main(command.argv)
            except Exception:  # a crash is a failed operation, as in a child
                traceback.print_exc()
                code = -1
        elapsed = time.perf_counter() - start
    finally:
        if tracer:
            tracer.uninstall()
    error = run_check(command, code, stdout.getvalue())
    return elapsed, error and f"{command.run}: {error}\n{stderr.getvalue()[-2000:]}"


def dp_counters(table) -> dict:
    """Exact counts from a filled DpTable, as (value, unit).  above_opt_frac
    is the share of finite states above the optimum: work an exact bound
    on the makespan could skip."""
    values = table.values
    finite = values[values < math.inf]
    optimum = values[:, table.num_layers, :].min()
    return {
        "states": (values.size, "count"),
        "table_bytes": (values.nbytes + table.split.nbytes + table.prev_device.nbytes,
                        "bytes"),
        "reachable_frac": (finite.size / values.size, "ratio"),
        "above_opt_frac": (int((finite > optimum).sum()) / finite.size, "ratio"),
    }


def measure_traced(commands: list[Command], work: Path, out_dir: Path,
                   stem: str) -> tuple[dict, dict]:
    import tracing

    metrics: dict[str, dict] = {}

    def put(name: str, value, unit: str) -> None:
        metrics[name] = {"value": value, "unit": unit}

    for name, value in import_times(work).items():
        put(name, value, "s")

    # Each command runs untraced then traced, TRACE_ROUNDS times; the spans
    # are the last round's.  The overhead compares each side's fastest runs
    # of the SMALL_RUNS commands, which hold all but a few spans; on the
    # fleet commands it would be lost in the noise of the DP fill.
    seconds = {False: defaultdict(list), True: defaultdict(list)}
    errors = []
    for _ in range(TRACE_ROUNDS):
        tracer = tracing.Tracer()
        for command in commands:
            for traced in (False, True):
                elapsed, error = run_in_process(command, tracer if traced else None)
                seconds[traced][command.run].append(elapsed)
                errors += [error] if error else []
    tracer.write(out_dir / f"{stem}.spans.jsonl.gz")
    fastest = {traced: sum(min(runs[run]) for run in SMALL_RUNS)
               for traced, runs in seconds.items()}

    sm = tracing.Summary(tracer.spans)
    for span, stat in SMALL_RUN_METRICS:
        unit = "count" if stat == "calls" else "s"
        put(f"{span}.{stat}", sm.get(span, stat, SMALL_RUNS), unit)
    put("baselines.brute_force.candidates",
        sum(tracer.counts[(run, "baselines.enumerate_plans")] for run in SMALL_RUNS), "count")
    fleet_runs = sorted(run for run, _ in tracer.kept if run.startswith("fleet_ladder."))
    for run in fleet_runs:
        rung = run.split(".", 1)[1]
        put(f"dp_scheduler.compute_table.s.{rung}",
            sm.get("dp_scheduler.compute_table", "s", [run]), "s")
        table = tracer.kept[(run, "dp_scheduler.compute_table")]
        for name, (value, unit) in dp_counters(table).items():
            put(f"dp_scheduler.{name}.{rung}", value, unit)
    put("trace.overhead_s", fastest[True] - fastest[False], "s")
    k12 = ["fleet_ladder.k12"]
    put("share.fleet_ladder.compute_table_k12",
        sm.get("dp_scheduler.compute_table", "s", k12) / sm.get(tracing.ROOT_SPAN, "s", k12),
        "ratio")
    verify = ["oracle_verify"]
    put("share.oracle_verify.brute_force",
        sm.get("baselines.brute_force", "s", verify) / sm.get(tracing.ROOT_SPAN, "s", verify),
        "ratio")

    expected = next(c.record["oracle_evaluations"] for c in commands
                    if c.run == "oracle_verify")
    observed = sm.get("timeline.evaluate", "calls", verify)
    if observed != expected:
        errors.append(f"self-check: oracle_verify made {observed} timeline.evaluate "
                      f"calls, expected {expected}")
    record = {
        "attempted": 2 * TRACE_ROUNDS * len(commands) + 1, "failed": len(errors),
        "errors": errors,
        "in_process_s": {("traced" if t else "untraced"): dict(v) for t, v in seconds.items()},
        "evaluate_calls": {"observed": observed, "expected": expected},
        "spans": len(tracer.spans),
    }
    return metrics, record


# ---------------------------------------------------------------------------

def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "coldpipe" / "cli.py").is_file() or not (ROOT / TAB1_CONFIG).is_file():
        print(f"error: {ROOT} is not a coldpipe tree (no src/coldpipe/cli.py or "
              f"{TAB1_CONFIG})", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import coldpipe

    check_source(coldpipe.__file__, "the benchmark")

    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    out_dir = ROOT / ".bench_out"
    work = ROOT / ".bench_work" / f"{stem}-{os.getpid()}"
    out_dir.mkdir(exist_ok=True)
    work.mkdir(parents=True)
    try:
        inputs: dict[str, str] = {}
        if args.trace:
            commands = [c for w in WORKLOADS
                        for c in workload_commands(w, args.seed, work, inputs)]
            metrics, record = measure_traced(commands, work, out_dir, stem)
        else:
            commands = workload_commands(args.workload, args.seed, work, inputs)
            metrics, record = measure_e2e(args.workload, commands, args.seconds, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):
            work.parent.rmdir()  # only if no other run is using it

    outputs = {c.run: c.record for c in commands}
    full = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
            "trace": args.trace, "environment": environment(), "inputs": inputs,
            "commands": outputs, "metrics": metrics, **record}
    (out_dir / f"{stem}.json").write_text(json.dumps(full, indent=1) + "\n")
    for error in record["errors"]:
        print(f"FAILED {error}", file=sys.stderr)
    for run, fields in outputs.items():
        if fields:
            print(f"{run}: " + ", ".join(f"{k} {v}" for k, v in fields.items()))
    print(json.dumps({"correct": record["failed"] == 0, "attempted": record["attempted"],
                      "failed": record["failed"], "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
