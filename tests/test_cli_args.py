"""What each subcommand parses: defaults, choices, type conversions and
required arguments, pinned as the namespace `build_parser` returns."""

import pytest

from coldpipe import cli
from coldpipe.baselines import STRATEGIES

C = ["--config", "fleet.yaml"]

PARSED = [
    (["solve", *C, "--tokens", "2048"],
     dict(command="solve", config="fleet.yaml", tokens=2048,
          strategy="optimal_dp", out=None), cli.cmd_solve),
    (["solve", "--tokens", "007", "--strategy", "even", "--out", "p.json", *C],
     dict(command="solve", config="fleet.yaml", tokens=7, strategy="even",
          out="p.json"), cli.cmd_solve),
    (["sweep", *C],
     dict(command="sweep", config="fleet.yaml", out="sweep.csv"), cli.cmd_sweep),
    (["sweep", *C, "--out", "r.csv"],
     dict(command="sweep", config="fleet.yaml", out="r.csv"), cli.cmd_sweep),
    (["gantt", *C, "--tokens", "1"],
     dict(command="gantt", config="fleet.yaml", tokens=1, strategy="optimal_dp",
          format="svg", out=None), cli.cmd_gantt),
    (["gantt", *C, "--tokens", "64", "--strategy", "brute_force",
      "--format", "ascii", "--out", "c.txt"],
     dict(command="gantt", config="fleet.yaml", tokens=64, strategy="brute_force",
          format="ascii", out="c.txt"), cli.cmd_gantt),
    (["verify"], dict(command="verify", seed=0, count=100), cli.cmd_verify),
    (["verify", "--seed", "-3", "--count", "5"],
     dict(command="verify", seed=-3, count=5), cli.cmd_verify),
    (["dump-config", *C],
     dict(command="dump-config", config="fleet.yaml", out=None), cli.cmd_dump_config),
    (["dump-config", *C, "--out", "d.yaml"],
     dict(command="dump-config", config="fleet.yaml", out="d.yaml"),
     cli.cmd_dump_config),
]


@pytest.mark.parametrize("argv, expected, func", PARSED,
                         ids=[" ".join(argv) for argv, _, _ in PARSED])
def test_parsed_namespace(argv, expected, func):
    parsed = vars(cli.build_parser().parse_args(argv))
    assert parsed.pop("func") is func
    assert parsed == expected


@pytest.mark.parametrize("command", ["solve", "gantt"])
@pytest.mark.parametrize("strategy", STRATEGIES)
def test_every_strategy_is_a_choice(command, strategy):
    args = cli.build_parser().parse_args(
        [command, *C, "--tokens", "8", "--strategy", strategy])
    assert args.strategy == strategy


USAGE_ERRORS = [
    ([], "coldpipe", "the following arguments are required: command"),
    (["plan"], "coldpipe", "argument command: invalid choice: 'plan'"),
    (["solve", "--tokens", "8"], "coldpipe solve",
     "the following arguments are required: --config"),
    (["solve", *C], "coldpipe solve",
     "the following arguments are required: --tokens"),
    (["solve"], "coldpipe solve",
     "the following arguments are required: --config, --tokens"),
    (["solve", *C, "--tokens", "0"], "coldpipe solve",
     "argument --tokens: expected an integer >= 1, got '0'"),
    (["solve", *C, "--tokens", "2.5"], "coldpipe solve",
     "argument --tokens: expected an integer >= 1, got '2.5'"),
    (["solve", *C, "--tokens", "8", "--strategy", "alchemy"], "coldpipe solve",
     "argument --strategy: invalid choice: 'alchemy'"),
    (["sweep"], "coldpipe sweep", "the following arguments are required: --config"),
    (["sweep", *C, "--tokens", "8"], "coldpipe", "unrecognized arguments: --tokens 8"),
    (["gantt", *C], "coldpipe gantt",
     "the following arguments are required: --tokens"),
    (["gantt", *C, "--tokens", "8", "--format", "png"], "coldpipe gantt",
     "argument --format: invalid choice: 'png'"),
    (["gantt", *C, "--tokens", "8", "--strategy", "alchemy"], "coldpipe gantt",
     "argument --strategy: invalid choice: 'alchemy'"),
    (["verify", "--count", "0"], "coldpipe verify",
     "argument --count: expected an integer >= 1, got '0'"),
    (["verify", "--seed", "x"], "coldpipe verify",
     "argument --seed: invalid int value: 'x'"),
    (["dump-config"], "coldpipe dump-config",
     "the following arguments are required: --config"),
]


@pytest.mark.parametrize("argv, prog, message", USAGE_ERRORS,
                         ids=[" ".join(argv) or "no-command" for argv, _, _ in USAGE_ERRORS])
def test_usage_error_exits_1(capsys, argv, prog, message):
    assert cli.main(argv) == cli.EXIT_USAGE
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith(f"usage: {prog} ")
    assert f"\n{prog}: error: {message}" in err
    assert err.endswith("\n")
