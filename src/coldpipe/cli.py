"""Command-line front end.

Subcommands:
  solve        plan one (token length, strategy) cell and print the schedule
  sweep        run the configured token-length sweep, write a CSV
  gantt        render one cell as an SVG or ASCII Gantt chart
  verify       solver-vs-oracle check on randomized small instances
  dump-config  write a normalized copy of a config file

Exit codes: 0 ok; 1 usage, an unwritable --out or a LimitError; 2 ConfigError;
3 InfeasibleError; 4 verification failure; 141 stdout closed early.  `main`
sets every one of them except verify's 4, which `cmd_verify` returns.  Any
other exception is a fault of the tool and leaves main with its traceback.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import os
import sys
from itertools import islice
from pathlib import Path

from . import baselines, config, experiment
from .errors import ConfigError, InfeasibleError, LimitError
from .gantt import render_ascii, render_svg
from .timeline import Timeline

CSV_COLUMNS = ("token_length", "strategy", "makespan_s", "load_s_total",
               "comm_s_total", "comp_s_total", "wait_s_total", "improvement_pct")

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_CONFIG = 2
EXIT_INFEASIBLE = 3
EXIT_VERIFY = 4
EXIT_PIPE = 141  # 128 + SIGPIPE, as a shell reports a reader that quit early


def _positive_int(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        value = 0
    if value < 1:
        raise argparse.ArgumentTypeError(f"expected an integer >= 1, got {text!r}")
    return value


def _atomic_write(path: Path, data: str) -> None:
    """Write through a new, uniquely named temp file beside `path`; on failure
    it is removed, `path` is left as it was, and the OSError names `path`."""
    tmp = path.with_name(f"{path.name}.{os.urandom(6).hex()}.tmp")
    fd = -1
    try:
        fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
        with open(fd, "w") as out:
            out.write(data)
        os.replace(tmp, path)
    except OSError as err:
        if fd >= 0:
            tmp.unlink(missing_ok=True)
        raise OSError(f"cannot write {path}: {err.strerror}") from None


def _fmt(value: float) -> str:
    return format(value, ".9g")


def _emit(out: str | None, text: str, note: str = "") -> None:
    """Write `text` to the file `out` and say so, or print it if no --out."""
    if out:
        _atomic_write(Path(out), text)
        print(f"wrote {out}{note}")
    else:
        print(text, end="")


def _load_cell(args):
    """Cost tables of the --config scenario at --tokens, and device labels."""
    tables = experiment.build_tables(config.load_scenario(args.config), args.tokens)
    return tables, [f"Device {dev.id}" for dev in tables.devices]


def _print_timeline(labels, timeline: Timeline) -> None:
    header = (f"{'stage':>5}  {'device':>8}  {'layers':>9}  {'load_s':>10}  "
              f"{'comm_s':>10}  {'comp_s':>10}  {'start_s':>10}  "
              f"{'finish_s':>10}  {'wait_s':>10}")
    print(header)
    for n, s in enumerate(timeline.stages, start=1):
        layers = f"{s.start_layer}-{s.end_layer}"
        print(f"{n:>5}  {labels[s.device]:>8}  {layers:>9}  "
              f"{s.load_s:>10.6f}  {s.comm_s:>10.6f}  {s.comp_s:>10.6f}  "
              f"{s.start_s:>10.6f}  {s.finish_s:>10.6f}  {s.wait_s:>10.6f}")
    print(f"makespan: {timeline.makespan_s:.6f} s")
    waits = "  ".join(f"{s.wait_s:.6f}" for s in timeline.stages)
    print(f"obstructive wait total: {timeline.total_wait_s:.6f} s  (per stage: {waits})")


def cmd_solve(args) -> int:
    tables, labels = _load_cell(args)
    try:
        timeline = experiment.run_cell(args.strategy, tables)
    except InfeasibleError as err:
        headroom = [f"  {label}: {dev.memory_bytes / 1e9:.2f} GB holds at most "
                    f"{tables.max_hostable_layers(d)} of {tables.num_layers} layers"
                    for d, (label, dev) in enumerate(zip(labels, tables.devices))]
        raise InfeasibleError("\n".join(
            [str(err), "per-device memory headroom:", *headroom])) from err
    print(f"token length {args.tokens}, strategy {args.strategy}")
    _print_timeline(labels, timeline)
    if args.out:
        payload = {
            "token_length": args.tokens,
            "strategy": args.strategy,
            "makespan_s": timeline.makespan_s,
            "plan": [
                {"device_id": tables.devices[s.device].id,
                 "start_layer": s.start_layer, "end_layer": s.end_layer}
                for s in timeline.stages
            ],
            "timeline": {**timeline._asdict(),
                         "stages": [s._asdict() for s in timeline.stages]},
        }
        _emit(args.out, json.dumps(payload, indent=2) + "\n")
    return EXIT_OK


def rows_to_csv(rows) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(CSV_COLUMNS)
    for row in rows:
        tl = row.timeline
        improvement = "" if row.improvement_pct is None else _fmt(row.improvement_pct)
        writer.writerow([
            row.token_length, row.strategy, _fmt(row.makespan_s),
            _fmt(tl.total_load_s), _fmt(tl.total_comm_s),
            _fmt(tl.total_comp_s), _fmt(tl.total_wait_s), improvement,
        ])
    return buf.getvalue()


def cmd_sweep(args) -> int:
    rows = experiment.run_sweep(config.load_scenario(args.config))
    _emit(args.out, rows_to_csv(rows), f" ({len(rows)} rows)")
    dp_rows = [r for r in rows if r.strategy == "optimal_dp"
               and r.improvement_pct is not None]
    if dp_rows:
        for r in dp_rows:
            print(f"  t={r.token_length:>6}: optimal {r.makespan_s:.4f} s, "
                  f"improvement over best baseline {r.improvement_pct:.2f}%")
        avg = experiment.average_improvement_pct(rows)
        print(f"average improvement over per-token best baseline: {avg:.2f}%")
    return EXIT_OK


def cmd_gantt(args) -> int:
    tables, labels = _load_cell(args)
    render = render_svg if args.format == "svg" else render_ascii
    _emit(args.out, render(experiment.run_cell(args.strategy, tables), labels,
                           title=f"{args.strategy} @ {args.tokens} tokens"))
    return EXIT_OK


def cmd_verify(args) -> int:
    instances = islice(experiment.random_instances(args.seed), args.count)
    failures = 0
    for index, instance in enumerate(instances):
        # one instance made and checked at a time, each line printed as soon
        # as it is known
        (o,) = experiment.verify_suite([instance])
        status = "ok" if o.ok else "MISMATCH"
        print(f"instance {index:03d}: {status} ({o.detail})", flush=True)
        failures += 0 if o.ok else 1
    print(f"{args.count - failures}/{args.count} instances passed")
    return EXIT_OK if failures == 0 else EXIT_VERIFY


def cmd_dump_config(args) -> int:
    _emit(args.out, config.dump_scenario(config.load_scenario(args.config)))
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="coldpipe", description="Cold-start-aware pipeline scheduling for "
                                     "LLM inference on heterogeneous edge devices.")
    sub = parser.add_subparsers(dest="command", required=True)
    scenario = argparse.ArgumentParser(add_help=False)
    scenario.add_argument("--config", required=True)
    cell = argparse.ArgumentParser(add_help=False, parents=[scenario])
    cell.add_argument("--tokens", type=_positive_int, required=True)
    cell.add_argument("--strategy", default="optimal_dp", choices=baselines.STRATEGIES)

    solve = sub.add_parser("solve", parents=[cell],
                           help="plan one cell and print the schedule")
    solve.add_argument("--out", help="also write plan + timeline as JSON")
    solve.set_defaults(func=cmd_solve)

    sweep = sub.add_parser("sweep", parents=[scenario],
                           help="run the configured sweep, write CSV")
    sweep.add_argument("--out", default="sweep.csv")
    sweep.set_defaults(func=cmd_sweep)

    gantt = sub.add_parser("gantt", parents=[cell],
                           help="render one cell as a Gantt chart")
    gantt.add_argument("--format", default="svg", choices=("svg", "ascii"))
    gantt.add_argument("--out", help="output file (default: stdout for ascii)")
    gantt.set_defaults(func=cmd_gantt)

    verify = sub.add_parser("verify",
                            help="check the solver against the brute-force oracle")
    verify.add_argument("--seed", type=int, default=0)
    verify.add_argument("--count", type=_positive_int, default=100)
    verify.set_defaults(func=cmd_verify)

    dump = sub.add_parser("dump-config", parents=[scenario],
                          help="write a normalized config")
    dump.add_argument("--out")
    dump.set_defaults(func=cmd_dump_config)

    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as err:  # --help exits 0; argparse's usage errors exit 2
        return EXIT_USAGE if err.code == 2 else err.code
    try:
        code = args.func(args)
        sys.stdout.flush()
        return code
    except BrokenPipeError:
        # Point stdout at devnull so the interpreter's final flush is silent.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return EXIT_PIPE
    except (LimitError, OSError) as err:  # OSError: an unwritable --out
        print(f"error: {err}", file=sys.stderr)
        return EXIT_USAGE
    except ConfigError as err:
        print(f"config error: {err}", file=sys.stderr)
        return EXIT_CONFIG
    except InfeasibleError as err:
        print(f"infeasible: {err}", file=sys.stderr)
        return EXIT_INFEASIBLE


if __name__ == "__main__":
    sys.exit(main())
