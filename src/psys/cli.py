"""Command-line interface.

Exit codes are a stable contract:
  0  success
  1  usage error, unparseable input, or output that could not be written
  2  the input parsed but failed validation
  3  a budget ran out before reaching a verdict
  4  a property or verification check failed

Machine-readable results go to standard output (JSON, or the documented
line formats); diagnostics and violations go to standard error.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import json
import os
import sys
from pathlib import Path
from typing import Optional, Sequence

from . import dsl, rm
from .engine import POLICIES, Engine, trace_to_lines
from .explore import (
    DEFAULT_MAX_BRANCHES,
    DEFAULT_MAX_CONFIGS,
    DEFAULT_MAX_DEPTH,
    DEFAULT_MAX_TOTAL_OBJECTS,
    ExploreBudget,
    explore,
)
from .measures import classify, profile
from .model import interaction_rule_text, validate
from .multiset import EMPTY, MultisetSyntaxError, parse_multiset

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_INVALID = 2
EXIT_BUDGET = 3
EXIT_MISMATCH = 4


class _CliFailure(Exception):
    def __init__(self, code: int):
        self.code = code


class _Parser(argparse.ArgumentParser):
    """argparse exits 2 on usage errors; our contract reserves 2 for
    validation failures, so remap to 1."""

    commands: dict[str, "_Parser"]  # the top parser's: each command's own parser

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


def _at_least(low: int):
    """argparse type: an integer of at least `low`; _Parser turns a bad one into exit 1."""

    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
        if value < low:
            raise argparse.ArgumentTypeError(f"must be at least {low}, got {value}")
        return value

    return parse


def _read_text(path: str) -> str:
    try:
        with open(path, encoding="utf-8", errors="replace") as f:
            return f.read()
    except OSError:
        pass
    # Read again as pathlib reads the path, so that `t.psys/` still means
    # `t.psys` and the message names the same path as ever.
    try:
        return Path(path).read_text(encoding="utf-8", errors="replace")
    except OSError as err:
        print(f"error: cannot read {path}: {err}", file=sys.stderr)
        raise _CliFailure(EXIT_USAGE) from err


def _parsed(path: str, parse):
    """Parse the file at `path` with `parse`.

    On failure print each diagnostic as `path:line:col: code: message` and exit 1.
    """
    value, diags = parse(_read_text(path))
    if diags:
        for diag in diags:
            print(f"{path}:{diag}", file=sys.stderr)
        raise _CliFailure(EXIT_USAGE)
    return value


def _validated_system(path: str):
    sys_ = _parsed(path, dsl.parse_system)
    report = validate(sys_)
    for violation in report.violations:
        print(f"{path}: {violation}", file=sys.stderr)
    if not report.ok:
        raise _CliFailure(EXIT_INVALID)
    return sys_


def cmd_validate(args) -> int:
    report = validate(_parsed(args.file, dsl.parse_system))
    if args.pretty:
        print(str(report))
    else:
        violations = [
            {"code": v.code, "severity": v.severity, "location": v.location, "message": v.message}
            for v in report.violations
        ]
        print(json.dumps({"ok": report.ok, "violations": violations}))
    return EXIT_OK if report.ok else EXIT_INVALID


def cmd_run(args) -> int:
    input_objects = EMPTY
    if args.region is not None and args.accept is None:
        print("error: --region requires --accept", file=sys.stderr)
        return EXIT_USAGE
    if args.accept is not None:
        if args.region is None:
            print("error: --accept requires --region", file=sys.stderr)
            return EXIT_USAGE
        try:
            input_objects = parse_multiset(args.accept)
        except MultisetSyntaxError as err:
            print(f"error: bad --accept multiset: {err}", file=sys.stderr)
            return EXIT_USAGE
    engine = Engine(_validated_system(args.file))
    try:
        start = engine.initial(input_objects, args.region)
    except ValueError as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_USAGE
    trace = engine._running(start, args.seed, args.max_steps, args.policy)
    write = sys.stdout.write
    for line in trace_to_lines(engine, trace):
        write(line + "\n")
    if args.accept is not None:
        print(json.dumps({"accept": "accepted" if trace.halted else "budget_exhausted"}))
    return EXIT_OK if trace.halted else EXIT_BUDGET


def cmd_explore(args) -> int:
    sys_ = _validated_system(args.file)
    budget = ExploreBudget(
        max_depth=args.max_depth,
        max_total_objects=args.max_objects,
        max_branches=args.max_branches,
        max_configs=args.max_configs,
    )
    outcome = explore(sys_, budget)
    print(json.dumps(outcome.as_dict(), indent=2 if args.pretty else None))
    return EXIT_OK if outcome.exhausted else EXIT_BUDGET


def cmd_profile(args) -> int:
    sys_ = _validated_system(args.file)
    measured = profile(sys_)
    if args.pretty:
        for key, value in measured.as_dict().items():
            print(f"{key:18} {value}")
    else:
        print(json.dumps(measured.as_dict()))
    return EXIT_OK


def cmd_classify(args) -> int:
    for rule in _parsed(args.file, dsl.parse_interactions):
        if args.pretty:
            print(f"{interaction_rule_text(rule):48} {classify(rule)}")
        else:
            print(classify(rule))
    return EXIT_OK


def _load_machine(path: str) -> tuple[rm.RegisterMachine, rm.CompiledSystem]:
    """The machine at `path` and its compiled system; exit 2 when it cannot compile."""
    machine = _parsed(path, dsl.parse_machine)
    try:
        return machine, rm.compile_machine(machine)
    except rm.CompileError as err:
        for problem in err.problems:
            print(f"{path}: {problem}", file=sys.stderr)
        raise _CliFailure(EXIT_INVALID) from err


def cmd_compile_rm(args) -> int:
    _, compiled = _load_machine(args.file)
    text = dsl.print_system(compiled.system)
    if args.output is None:
        sys.stdout.write(text)
    else:
        try:
            Path(args.output).write_text(text, encoding="utf-8")
        except OSError as err:
            print(f"error: cannot write {args.output}: {err}", file=sys.stderr)
            return EXIT_USAGE
        print(
            json.dumps(
                {
                    "output": args.output,
                    "rules": len(compiled.system.rules),
                    "objects": len(compiled.system.alphabet),
                    "max_antiport_size": compiled.certificate,
                }
            )
        )
    return EXIT_OK


def cmd_rm_verify(args) -> int:
    machine, compiled = _load_machine(args.file)
    report = rm.verify_compilation(machine, value_bound=args.bound, compiled=compiled)
    print(json.dumps(report.as_dict(), indent=2 if args.pretty else None))
    for message in report.messages:
        print(message, file=sys.stderr)
    if report.ok:
        return EXIT_OK
    return EXIT_BUDGET if report.inconclusive else EXIT_MISMATCH


@functools.cache
def build_parser() -> _Parser:
    """The psys argument parser, built once per process."""
    parser = _Parser(
        prog="psys",
        description="Simulate, explore and analyze symport/antiport P systems.",
    )
    sub = parser.add_subparsers(metavar="command")

    p = sub.add_parser("validate", help="check a system file for rule violations")
    p.add_argument("file")
    p.add_argument("--pretty", action="store_true", help="human-readable report")
    p.set_defaults(func=cmd_validate)

    p = sub.add_parser(
        "run",
        help="run one computation, streaming its trace one line per step"
        " in memory that does not grow with --max-steps",
    )
    p.add_argument("file")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--max-steps", type=_at_least(0), default=10_000)
    p.add_argument(
        "--policy",
        choices=POLICIES,
        default="enumerate-uniform",
        help="enumerate-uniform lists every maximal step and picks one; a step whose"
        " listing overflows 10,000 falls back to greedy-random, after up to 640,000"
        " search leaves where enabled rules compete for objects (about 0.7 s per step"
        " on an 8-cell ring). Use greedy-random for wide systems",
    )
    p.add_argument(
        "--accept",
        metavar="MULTISET",
        help="accepting mode: add this input and report whether the system halts",
    )
    p.add_argument("--region", type=int, help="region receiving the --accept input")
    p.set_defaults(func=cmd_run)

    p = sub.add_parser("explore", help="enumerate halting results within budgets")
    p.add_argument("file")
    p.add_argument("--max-depth", type=_at_least(1), default=DEFAULT_MAX_DEPTH)
    p.add_argument("--max-objects", type=_at_least(1), default=DEFAULT_MAX_TOTAL_OBJECTS)
    p.add_argument("--max-branches", type=_at_least(1), default=DEFAULT_MAX_BRANCHES)
    p.add_argument("--max-configs", type=_at_least(1), default=DEFAULT_MAX_CONFIGS)
    p.add_argument("--pretty", action="store_true")
    p.set_defaults(func=cmd_explore)

    p = sub.add_parser("profile", help="descriptional-complexity summary")
    p.add_argument("file")
    p.add_argument("--pretty", action="store_true")
    p.set_defaults(func=cmd_profile)

    p = sub.add_parser("classify", help="classify interaction rules, one per line")
    p.add_argument("file")
    p.add_argument("--pretty", action="store_true")
    p.set_defaults(func=cmd_classify)

    p = sub.add_parser("compile-rm", help="compile a register machine to a system file")
    p.add_argument("file")
    p.add_argument("-o", "--output", help="write the system here instead of stdout")
    p.set_defaults(func=cmd_compile_rm)

    p = sub.add_parser("rm-verify", help="bounded equivalence audit of the compiler")
    p.add_argument("file")
    p.add_argument("--bound", type=_at_least(0), default=8)
    p.add_argument("--pretty", action="store_true")
    p.set_defaults(func=cmd_rm_verify)

    parser.commands = sub.choices
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    argv = sys.argv[1:] if argv is None else list(argv)
    command = parser.commands.get(argv[0]) if argv else None
    if command is None:
        args = parser.parse_args(argv)
    else:
        # What the top parser does with a leading command name, without
        # first scanning every argument against its own options.
        args, extra = command.parse_known_args(argv[1:])
        if extra:
            parser.error(f"unrecognized arguments: {' '.join(extra)}")
    if not hasattr(args, "func"):
        parser.print_help(sys.stderr)
        return EXIT_USAGE
    try:
        return args.func(args)
    except _CliFailure as failure:
        return failure.code
    except OSError as err:
        # Files are read and written with their own messages; what reaches
        # here is standard output closed or full, which also ends a run.
        _silence_stdout()
        with contextlib.suppress(OSError):
            print(f"error: cannot write output: {err}", file=sys.stderr)
        return EXIT_USAGE
    except ValueError as err:
        # Only Python's limit of `sys.get_int_max_str_digits()` digits is
        # caught; lines written before the failing one stay on stdout.
        if "integer string conversion" not in str(err):
            raise
        limit = sys.get_int_max_str_digits()
        print(f"error: cannot write output: a count has more than {limit} digits", file=sys.stderr)
        return EXIT_USAGE


def _silence_stdout() -> None:
    """Point a failed stdout at the null device, so the flush at exit does not fail again."""
    try:
        fd = sys.stdout.fileno()
    except (AttributeError, OSError, ValueError):
        return
    null = os.open(os.devnull, os.O_WRONLY)
    os.dup2(null, fd)
    os.close(null)


if __name__ == "__main__":
    sys.exit(main())
