import contextlib
import json
import os
import random
import select
import subprocess
import sys
import tracemalloc
from collections import Counter
from pathlib import Path

import pytest

from psys import cli, dsl
from psys.engine import Engine, trace_to_lines
from psys.multiset import Multiset, parse_multiset

from gen import random_cell_system, random_shared_system, random_system, random_tissue_system

RING = Path(__file__).resolve().parent.parent / "perfbench" / "inputs" / "ring.psys"


VALID = """\
@model cell
@objects a
@env a
@membranes 1
@init 1: empty
@rules 1: (a, out; a, in)
@output 1
"""

DRAIN = """\
@model cell
@objects a
@env
@membranes 1
@init 1: a^2
@rules 1: (a, out)
@output 1
"""

PERPETUAL = VALID.replace("@init 1: empty", "@init 1: a")

TWO_BRANCH = """\
@model cell
@objects a b
@env b
@membranes 1
@init 1: a
@rules 1: (a, out)
@rules 1: (a, out; b, in)
@output 1
"""

MACHINE = """\
registers 1
output r1
start p0
p0: ADD r1 -> p0 | ph
ph: HALT
"""


def invoke(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def put(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return str(path)


def test_exit_code_constants():
    assert (cli.EXIT_OK, cli.EXIT_USAGE, cli.EXIT_INVALID) == (0, 1, 2)
    assert (cli.EXIT_BUDGET, cli.EXIT_MISMATCH) == (3, 4)


def test_no_arguments_prints_help(capsys):
    code, _, err = invoke(capsys, )
    assert code == 1
    assert "usage" in err


def test_unknown_command_exits_one(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["frobnicate"])
    assert exc.value.code == 1


def test_validate_ok(tmp_path, capsys):
    code, out, _ = invoke(capsys, "validate", put(tmp_path, "s.psys", VALID))
    assert code == 0
    assert json.loads(out) == {"ok": True, "violations": []}


def test_validate_reports_violations(tmp_path, capsys):
    bad = VALID.replace("(a, out; a, in)", "(a, in)")
    code, out, _ = invoke(capsys, "validate", put(tmp_path, "s.psys", bad))
    assert code == 2
    payload = json.loads(out)
    assert payload["ok"] is False
    assert payload["violations"][0]["code"] == "V001"


def test_validate_pretty(tmp_path, capsys):
    bad = VALID.replace("(a, out; a, in)", "(a, in)")
    code, out, _ = invoke(capsys, "validate", "--pretty", put(tmp_path, "s.psys", bad))
    assert code == 2
    assert "V001" in out


def test_paths_read_and_fail_as_pathlib_reads_them(tmp_path, capsys):
    good = put(tmp_path, "s.psys", VALID)
    assert invoke(capsys, "validate", good + "/")[0] == 0  # pathlib drops the slash
    for path in ("", str(tmp_path), f"{tmp_path}/./missing.psys", f"{tmp_path}//missing.psys"):
        with pytest.raises(OSError) as err:
            Path(path).read_text()
        message = f"error: cannot read {path}: {err.value}\n"
        assert invoke(capsys, "validate", path) == (1, "", message)


def test_validate_unparseable(tmp_path, capsys):
    code, _, err = invoke(capsys, "validate", put(tmp_path, "s.psys", "garbage\n"))
    assert code == 1
    assert "D0" in err


def test_validate_reports_a_parser_bug_in_one_line(tmp_path, capsys, monkeypatch):
    def broken(text, out):
        raise KeyError("boom")

    monkeypatch.setattr(dsl, "_parse_system_inner", broken)
    path = put(tmp_path, "s.psys", VALID)
    code, out, err = invoke(capsys, "validate", path)
    assert (code, out) == (1, "")
    assert err == f"{path}:0:0: D011: internal parser error: KeyError('boom')\n"


def test_missing_file(capsys):
    code, _, err = invoke(capsys, "validate", "/nonexistent/x.psys")
    assert code == 1
    assert "cannot read" in err


def test_run_halting_trace(tmp_path, capsys):
    code, out, _ = invoke(capsys, "run", put(tmp_path, "s.psys", DRAIN))
    assert code == 0
    lines = out.strip().split("\n")
    assert json.loads(lines[0]) == {"step": 0, "regions": {"1": {"a": 2}}, "env": {}}
    assert json.loads(lines[-1]) == {"halted": True, "steps": 1, "result": 0}


def test_run_budget_exhausted(tmp_path, capsys):
    path = put(tmp_path, "s.psys", PERPETUAL)
    code, out, _ = invoke(capsys, "run", path, "--max-steps", "5")
    assert code == 3
    final = json.loads(out.strip().split("\n")[-1])
    assert final["halted"] is False
    assert "result" not in final


def test_run_rejects_invalid_system(tmp_path, capsys):
    bad = VALID.replace("(a, out; a, in)", "(a, in)")
    code, _, err = invoke(capsys, "run", put(tmp_path, "s.psys", bad))
    assert code == 2
    assert "V001" in err


def test_run_accepting_mode(tmp_path, capsys):
    path = put(tmp_path, "s.psys", DRAIN)
    code, out, _ = invoke(capsys, "run", path, "--accept", "a^2", "--region", "1")
    assert code == 0
    assert json.loads(out.strip().split("\n")[-1]) == {"accept": "accepted"}

    code, out, _ = invoke(
        capsys, "run", put(tmp_path, "p.psys", PERPETUAL),
        "--accept", "a", "--region", "1", "--max-steps", "10",
    )
    assert code == 3
    assert json.loads(out.strip().split("\n")[-1]) == {"accept": "budget_exhausted"}



def test_run_accepting_mode_keeps_objects_outside_the_alphabet(tmp_path, capsys):
    path = put(tmp_path, "s.psys", DRAIN)
    code, out, err = invoke(capsys, "run", path, "--accept", "zzz^2", "--region", "1")
    assert code == 0 and err == ""
    records = [json.loads(line) for line in out.splitlines()]
    assert records[0]["regions"] == {"1": {"a": 2, "zzz": 2}}
    assert records[-3]["regions"] == {"1": {"zzz": 2}}
    assert records[-2] == {"halted": True, "steps": 1, "result": 2}
    assert records[-1] == {"accept": "accepted"}

def test_run_accept_usage_errors(tmp_path, capsys):
    path = put(tmp_path, "s.psys", DRAIN)
    code, _, err = invoke(capsys, "run", path, "--accept", "a")
    assert code == 1 and "--region" in err
    code, _, err = invoke(capsys, "run", path, "--accept", "a^0", "--region", "1")
    assert code == 1 and "multiset" in err
    code, out, err = invoke(capsys, "run", path, "--accept", "a", "--region", "9")
    assert (code, out) == (1, "")
    assert err.splitlines() == ["error: no region labeled 9"]


def test_run_region_without_accept_exits_one(tmp_path, capsys):
    code, out, err = invoke(capsys, "run", put(tmp_path, "s.psys", DRAIN), "--region", "5")
    assert code == 1 and out == ""
    assert err.splitlines() == ["error: --region requires --accept"]


@pytest.mark.parametrize(
    "flags, message",
    [
        (["--region", "1"], "error: --region requires --accept"),
        (["--accept", "a^0", "--region", "1"], "error: bad --accept multiset: "),
        (["--accept", "a^" + "9" * 5_000, "--region", "1"], "error: bad --accept multiset: "),
    ],
    ids=["region-alone", "bad-accept", "accept-past-int-digit-limit"],
)
def test_run_flag_errors_come_before_reading_the_file(tmp_path, capsys, flags, message):
    # Exit 1 like argparse's own usage errors, not 2 for the system failing validation.
    path = put(tmp_path, "bad.psys", VALID.replace("(a, out; a, in)", "(a, in)"))
    code, out, err = invoke(capsys, "run", path, *flags)
    assert (code, out) == (1, "")
    assert len(err.splitlines()) == 1 and err.startswith(message)


def test_explore_two_branches(tmp_path, capsys):
    code, out, _ = invoke(capsys, "explore", put(tmp_path, "s.psys", TWO_BRANCH))
    assert code == 0
    payload = json.loads(out)
    assert payload["results"] == [0, 1]
    assert payload["exhausted"] is True



def test_parser_is_built_once_and_keeps_no_state_between_calls(tmp_path, capsys):
    cli.build_parser.cache_clear()
    path = put(tmp_path, "s.psys", TWO_BRANCH)
    code, pretty, _ = invoke(capsys, "explore", path, "--pretty")
    assert code == 0 and pretty.count("\n") > 1
    code, plain, _ = invoke(capsys, "explore", path)
    assert code == 0 and plain.count("\n") == 1
    assert json.loads(pretty) == json.loads(plain)
    assert cli.build_parser.cache_info().misses == 1

def test_explore_budget_starved(tmp_path, capsys):
    path = put(tmp_path, "s.psys", TWO_BRANCH)
    code, out, _ = invoke(capsys, "explore", path, "--max-branches", "1")
    assert code == 3
    assert json.loads(out)["exhausted"] is False


def test_profile_output(tmp_path, capsys):
    code, out, _ = invoke(capsys, "profile", put(tmp_path, "s.psys", VALID))
    assert code == 0
    payload = json.loads(out)
    assert payload["max_antiport_size"] == 1
    assert payload["num_rules"] == 1
    assert payload["antiport_measure"] == "max"
    code, out, _ = invoke(capsys, "profile", "--pretty", put(tmp_path, "s.psys", VALID))
    assert code == 0 and "max_antiport_size" in out


def test_classify_lines(tmp_path, capsys):
    rules = (
        "(a,1)(b,1) -> (a,1)(b,2)\n"
        "(a,1)(b,2) -> (a,2)(b,1)\n"
        "(a,1)(b,1) -> (a,2)(b,2)\n"
        "(a,1)(b,2) -> (a,1)(b,2)\n"
        "(a,1) -> (a,2)\n"
    )
    code, out, _ = invoke(capsys, "classify", put(tmp_path, "r.irules", rules))
    assert code == 0
    assert out.split("\n")[:-1] == [
        "ConditionalUniportOut",
        "Antiport1",
        "Symport2",
        "NoOp",
        "Uniport",
    ]


def test_classify_bad_rule(tmp_path, capsys):
    code, _, err = invoke(capsys, "classify", put(tmp_path, "r.irules", "(a,1) ->\n"))
    assert code == 1
    assert "D009" in err


def test_compile_rm_to_stdout(tmp_path, capsys):
    code, out, _ = invoke(capsys, "compile-rm", put(tmp_path, "m.rm", MACHINE))
    assert code == 0
    assert out.startswith("@model cell\n")
    assert "@output 1" in out


def test_compile_rm_to_file(tmp_path, capsys):
    source = put(tmp_path, "m.rm", MACHINE)
    target = str(tmp_path / "m.psys")
    code, out, _ = invoke(capsys, "compile-rm", source, "-o", target)
    assert code == 0
    summary = json.loads(out)
    assert summary["output"] == target
    assert summary["max_antiport_size"] == 2
    assert summary["rules"] >= 2

    code, out, _ = invoke(capsys, "validate", target)
    assert code == 0


def test_compile_rm_rejects_broken_machine(tmp_path, capsys):
    broken = MACHINE.replace("p0: ADD r1 -> p0 | ph", "p0: ADD r9 -> p0 | ph")
    code, _, err = invoke(capsys, "compile-rm", put(tmp_path, "m.rm", broken))
    assert code == 2
    assert "register" in err


@pytest.mark.parametrize("command", ["compile-rm", "rm-verify"])
def test_machine_commands_reject_gadget_name_collisions(tmp_path, capsys, command):
    text = "registers 1\noutput r1\nstart p\np: SUB r1 -> p_1 | h\np_1: HALT\nh: HALT\n"
    path = put(tmp_path, "m.rm", text)
    code, out, err = invoke(capsys, command, path)
    assert (code, out) == (2, "")
    assert err == f"{path}: object name collisions: ['p_1']; rename the machine labels\n"


@pytest.mark.parametrize("command", ["compile-rm", "rm-verify"])
def test_machine_commands_need_a_register(tmp_path, capsys, command):
    path = put(tmp_path, "m.rm", "registers 0\noutput r1\nstart p\np: HALT\n")
    code, out, err = invoke(capsys, command, path)
    assert (code, out) == (2, "")
    assert err == f"{path}: need at least one register, got 0\n"


@pytest.mark.parametrize("command", ["compile-rm", "rm-verify"])
def test_machine_commands_print_one_line_per_problem(tmp_path, capsys, command):
    path = put(tmp_path, "m.rm", "registers 1\noutput r3\nstart p\np: ADD r2 -> q | h\nh: HALT\n")
    code, out, err = invoke(capsys, command, path)
    assert (code, out) == (2, "")
    assert err.splitlines() == [
        f"{path}: output register r3 out of range",
        f"{path}: p: register r2 out of range",
        f"{path}: p: jump target 'q' is not defined",
    ]


@pytest.mark.parametrize("command", ["compile-rm", "rm-verify"])
def test_machine_commands_refuse_a_label_named_empty(tmp_path, capsys, command):
    text = "registers 1\noutput r1\nstart empty\nempty: ADD r1 -> empty | h\nh: HALT\n"
    path = put(tmp_path, "m.rm", text)
    code, out, err = invoke(capsys, command, path)
    assert (code, out) == (2, "")
    assert err == f"{path}: label 'empty' is not a valid object name\n"


def test_rm_verify_checks_its_machine_once(tmp_path, capsys, monkeypatch):
    calls = []
    checked = cli.rm.machine_problems
    monkeypatch.setattr(cli.rm, "machine_problems", lambda m: calls.append(m) or checked(m))
    code, _, _ = invoke(capsys, "rm-verify", put(tmp_path, "m.rm", MACHINE), "--bound", "3")
    assert code == 0
    assert len(calls) == 1


def test_rm_verify_reports_a_machine_outside_normal_form(tmp_path, capsys):
    text = "registers 2\noutput r1\nstart p\np: ADD r2 -> h | h\nh: HALT\n"
    path = put(tmp_path, "m.rm", text)
    code, out, err = invoke(capsys, "rm-verify", path, "--bound", "3")
    assert code == 4
    assert json.loads(out)["ok"] is False
    assert err.splitlines() == [
        "halt at h leaves non-output registers {'r2': 1}; "
        "the machine is not in compiler normal form",
        "values produced by the machine only: [0]",
        "values produced by the compiled system only: [1]",
    ]


SEED77 = """\
registers 2
output r1
start p0
p0: ADD r1 -> p0 | p2
p1: ADD r1 -> p1 | p0
p2: SUB r1 -> p3 | p1
p3: HALT
"""


def test_rm_verify_exits_three_when_a_cut_walk_may_hide_the_value(tmp_path, capsys):
    code, out, err = invoke(capsys, "rm-verify", put(tmp_path, "m.rm", SEED77), "--bound", "8")
    assert code == 3
    assert json.loads(out)["ok"] is False
    assert err == (
        "no mismatch proven: values produced by the compiled system only: [8], "
        "but the machine's walk was cut by a budget\n"
    )


def test_rm_verify_exits_four_on_a_wrong_compilation(tmp_path, capsys, monkeypatch):
    # sub_drain with the Sub's exits swapped in the compiled system only:
    # both walks finish, so the differing values prove a mismatch.
    text = "registers 1\noutput r1\nstart p0\np0: ADD r1 -> p1 | p1\np1: ADD r1 -> q0 | q0\n"
    wrong = dsl.parse_machine(text + "q0: SUB r1 -> ph | q0\nph: HALT\n")[0]
    compile_machine = cli.rm.compile_machine
    monkeypatch.setattr(cli.rm, "compile_machine", lambda m: compile_machine(wrong))
    path = put(tmp_path, "m.rm", text + "q0: SUB r1 -> q0 | ph\nph: HALT\n")
    code, out, err = invoke(capsys, "rm-verify", path, "--bound", "4")
    assert code == 4
    assert json.loads(out)["ok"] is False
    assert err.splitlines() == [
        "values produced by the machine only: [0]",
        "values produced by the compiled system only: [1]",
    ]


def test_validate_reports_a_membrane_named_twice(tmp_path, capsys):
    path = put(tmp_path, "t.psys", VALID.replace("@membranes 1", "@membranes 1(2 2)"))
    code, out, err = invoke(capsys, "validate", path)
    assert (code, out) == (1, "")
    assert err == f"{path}:4:16: D007: membrane 2 appears twice\n"


def test_validate_reports_membrane_labels_past_the_membrane_count(tmp_path, capsys):
    # N membranes take the labels 1..N in any order; the parser names each
    # other label where the file wrote it, not a renumbered membrane.
    for shape, labels in (("5", {12: 5}), ("3(5)", {12: 3, 14: 5})):
        path = put(tmp_path, "t.psys", VALID.replace("@membranes 1", f"@membranes {shape}"))
        code, out, err = invoke(capsys, "validate", path)
        assert (code, out) == (1, "")
        n = len(labels)
        assert err.splitlines() == [
            f"{path}:4:{at}: D007: membrane {label} is not in 1..{n}" for at, label in labels.items()
        ]
    path = put(tmp_path, "t.psys", VALID.replace("@membranes 1", "@membranes 2(1)"))
    code, out, err = invoke(capsys, "validate", path)
    assert (code, err) == (0, "")


def test_compile_rm_unwritable_output_exits_one(tmp_path, capsys):
    source = put(tmp_path, "m.rm", MACHINE)
    code, out, err = invoke(capsys, "compile-rm", source, "-o", str(tmp_path))
    assert code == 1 and out == ""
    assert err.startswith(f"error: cannot write {tmp_path}:") and err.count("\n") == 1


def test_rm_verify_agrees(tmp_path, capsys):
    path = put(tmp_path, "m.rm", MACHINE)
    code, out, _ = invoke(capsys, "rm-verify", path, "--bound", "4")
    assert code == 0
    payload = json.loads(out)
    assert payload["ok"] is True
    assert payload["machine_results"] == [1, 2, 3, 4]


@pytest.mark.parametrize(
    "flag", ["--max-depth", "--max-objects", "--max-branches", "--max-configs"]
)
@pytest.mark.parametrize("value", ["0", "-3"])
def test_explore_budgets_below_one_exit_one(tmp_path, capsys, flag, value):
    path = put(tmp_path, "s.psys", TWO_BRANCH)
    with pytest.raises(SystemExit) as exc:
        cli.main(["explore", path, flag, value])
    assert exc.value.code == 1
    err = capsys.readouterr().err
    assert f"argument {flag}: must be at least 1, got {value}" in err
    assert "Traceback" not in err


def test_rm_verify_bound_must_not_be_negative(tmp_path, capsys):
    path = put(tmp_path, "m.rm", MACHINE)
    with pytest.raises(SystemExit) as exc:
        cli.main(["rm-verify", path, "--bound", "-3"])
    assert exc.value.code == 1
    assert "argument --bound: must be at least 0, got -3" in capsys.readouterr().err
    code, out, _ = invoke(capsys, "rm-verify", path, "--bound", "0")
    assert code == 0 and json.loads(out)["bound"] == 0


def test_run_max_steps_must_not_be_negative(tmp_path, capsys):
    path = put(tmp_path, "s.psys", DRAIN)
    with pytest.raises(SystemExit) as exc:
        cli.main(["run", path, "--max-steps", "-1"])
    assert exc.value.code == 1
    assert "argument --max-steps: must be at least 0, got -1" in capsys.readouterr().err
    code, out, _ = invoke(capsys, "run", path, "--max-steps", "0")
    assert code == 3 and json.loads(out.splitlines()[-1]) == {"halted": False, "steps": 0}


def _reference_main(argv):
    """cli.main with every argv read by the top parser, as argparse alone would."""
    parser = cli.build_parser()
    args = parser.parse_args(argv)
    if not hasattr(args, "func"):
        parser.print_help(sys.stderr)
        return cli.EXIT_USAGE
    try:
        return args.func(args)
    except cli._CliFailure as failure:
        return failure.code


def _outcome(main, argv, capsys):
    """(exit code, stdout, stderr) of main(argv)."""
    try:
        code = main(argv)
    except SystemExit as exc:  # argparse usage errors and --help
        code = exc.code
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_argv_fuzz_maps_every_input_to_an_exit_code(tmp_path, capsys, monkeypatch):
    """Every argv exits with a documented code, and cli.main's direct
    dispatch to a command's parser answers exactly as the top parser would."""
    monkeypatch.chdir(tmp_path)  # compile-rm -o writes relative paths here
    files = [
        put(tmp_path, "t.psys", TWO_BRANCH),
        put(tmp_path, "p.psys", PERPETUAL),
        put(tmp_path, "m.rm", MACHINE),
        put(tmp_path, "r.irules", "(a,1)(b,2) -> (a,2)(b,1)\n"),
        put(tmp_path, "bad.psys", VALID.replace("@rules 1: (a, out; a, in)", "@rules 1: (a, in)")),
        put(tmp_path, "junk.txt", "@model ???\n"),
        str(tmp_path / "missing.psys"),
        str(tmp_path),
    ]
    # Mostly flags the command knows, so that runs get past argument parsing.
    flags = {
        "validate": ["--pretty"],
        "run": ["--seed", "--max-steps", "--policy", "--accept", "--region"],
        "explore": ["--max-depth", "--max-objects", "--max-branches", "--max-configs", "--pretty"],
        "profile": ["--pretty"],
        "classify": ["--pretty"],
        "compile-rm": ["-o"],
        "rm-verify": ["--bound", "--pretty"],
        "frobnicate": ["--help"],
    }
    anywhere = sorted({flag for known in flags.values() for flag in known})
    values = [
        "0", "1", "3", "-3", "x", "", "2.5", "a", "a b", "a^0", "empty", "greedy-random",
        "out.psys",
    ]
    values += files
    rng = random.Random(5150)
    argvs = [
        ["explore", files[0], "--bogus"],
        ["--pretty", "explore", files[0]],
        ["explore", "--help"],
        ["frobnicate"],
        [],
    ]
    for _ in range(300):
        command = rng.choice(sorted(flags))
        argv = [command] if rng.random() < 0.95 else []
        argv += [rng.choice(files)] if rng.random() < 0.9 else []
        for _ in range(rng.randint(0, 4)):
            flag = rng.choice(flags[command] if rng.random() < 0.8 else anywhere)
            argv.append(flag)
            if flag not in ("--pretty", "--help") or rng.random() < 0.1:
                argv.append(rng.choice(values))
        if rng.random() < 0.2:
            rng.shuffle(argv)
        argvs.append(argv)
    codes = []
    for argv in argvs:
        outcome = _outcome(cli.main, argv, capsys)
        assert outcome == _outcome(_reference_main, argv, capsys), argv
        code, _, err = outcome
        assert code in (0, 1, 2, 3, 4), argv
        assert "Traceback" not in err, argv
        codes.append(code)
    assert {0, 1, 2, 3} <= set(codes)


def test_seeded_runs_are_byte_identical(tmp_path):
    path = put(
        tmp_path,
        "s.psys",
        TWO_BRANCH.replace("@init 1: a", "@init 1: a^4"),
    )
    argv = [
        sys.executable, "-m", "psys", "run", path, "--seed", "11", "--max-steps", "50",
    ]
    first = subprocess.run(argv, capture_output=True)
    second = subprocess.run(argv, capture_output=True)
    assert first.returncode == second.returncode
    assert first.stdout == second.stdout
    assert first.stdout.startswith(b'{"step": 0')


def test_streamed_run_prints_the_collected_trace(tmp_path, capsys):
    rng = random.Random(1212)
    makers = (random_cell_system, random_tissue_system, random_shared_system)
    seen = {"zero": 0, "early": 0, "budget": 0, "fallback": 0, "accepted": 0, "outside": 0}
    for k in range(150):
        # Rules are numbered in file order, so the engine is built from the text.
        text = dsl.print_system(makers[k % 3](rng))
        path = put(tmp_path, f"s{k}.psys", text)
        sys_ = dsl.parse_system(text)[0]
        eng = Engine(sys_)
        seed, steps = rng.randrange(1_000), rng.choice((0, 1, 4, 12))
        flags = ["--seed", str(seed), "--max-steps", str(steps)]
        for policy in ("enumerate-uniform", "greedy-random"):
            code, out, err = invoke(capsys, "run", path, *flags, "--policy", policy)
            trace = eng.run(seed, steps, policy)
            assert out.splitlines() == list(trace_to_lines(eng, trace))
            assert (code, err) == (0 if trace.halted else 3, "")
            seen["zero"] += steps == 0
            seen["early"] += trace.halted and trace.steps_taken < steps
            seen["budget"] += not trace.halted
        # The CLI's cap is fixed, so a small cap is compared on the engine's own stream.
        streamed = eng._running(eng.initial(), seed, steps, "enumerate-uniform", cap=1)
        trace = eng.run(seed, steps, "enumerate-uniform", cap=1)
        assert list(trace_to_lines(eng, streamed)) == list(trace_to_lines(eng, trace))
        seen["fallback"] += any(step.note for step in trace.steps)

        given = f"zz^2 {rng.choice(sorted(sys_.alphabet))}"
        region = rng.choice(list(eng.labels))
        policy = rng.choice(("enumerate-uniform", "greedy-random"))
        code, out, err = invoke(
            capsys, "run", path, *flags, "--policy", policy,
            "--accept", given, "--region", str(region),
        )
        status, trace = eng.run_accepting(parse_multiset(given), region, seed, steps, policy)
        assert out.splitlines() == [*trace_to_lines(eng, trace), json.dumps({"accept": status})]
        assert (code, err) == (0 if status == "accepted" else 3, "")
        seen["accepted"] += status == "accepted"
        seen["outside"] += trace.steps_taken > 0
    assert min(seen.values()) >= 10, seen


def _run_peaks(*argv):
    """Exit codes and tracemalloc peaks of `psys run` for 4,000 and 20,000 steps.

    Both runs are long enough for bounded per-call tables (such as the
    trace writer's 32-entry text tables) to have filled, so the gap
    between them is growth with the run, not a table filling up.
    """

    def peak(steps):
        with open(os.devnull, "w") as sink, contextlib.redirect_stdout(sink):
            tracemalloc.start()
            try:
                code = cli.main(["run", *argv, "--max-steps", str(steps)])
                return code, tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

    peak(1)  # the first call builds the argument parser and fills import caches
    return peak(4_000), peak(20_000)


def test_run_memory_does_not_grow_with_max_steps():
    (short_code, short), (long_code, long) = _run_peaks(
        str(RING), "--policy", "greedy-random", "--seed", "7"
    )
    assert short_code == long_code == 3
    assert long <= short + 64 * 1024, (short, long)


# r3's multiplicity grows by one each step, so every step's choice is new.
GROWING = """\
@model tissue
@objects a g
@env a g
@cells 2
@init 1: g
@rules: (1, g / g a, 0)
@rules: (1, a, 2)
@rules: (2, a / a, 0)
@output 2
"""


def test_run_memory_does_not_grow_while_multiplicities_grow(tmp_path):
    path = put(tmp_path, "growing.psys", GROWING)
    (short_code, short), (long_code, long) = _run_peaks(path, "--policy", "greedy-random")
    assert short_code == long_code == 3
    assert long <= short + 64 * 1024, (short, long)


def _oracle_lines(eng, trace):
    """The trace's lines as json.dumps writes its records, built from multisets and rule ids."""

    def contents(c):
        return {
            "regions": {str(label): dict(ms.items()) for label, ms in sorted(c.regions.items())},
            "env": dict(c.env.finite.items()),
        }

    c = trace.initial
    records = [{"step": 0, **contents(c)}]
    for t, step in enumerate(trace.steps, start=1):
        c = step.after
        choice = [{"rule": eng.rules[i].rid, "n": m} for i, m in step.choice.applications]
        records.append({"step": t, "choice": choice, **contents(c)})
        if step.note:
            records[-1]["note"] = step.note
    records.append({"halted": trace.halted, "steps": len(trace.steps)})
    if trace.halted:
        records[-1]["result"] = sum(k for _, k in c.regions[eng.output].items())
    return [json.dumps(record, separators=(", ", ": ")) for record in records]


def test_trace_lines_match_records_built_from_multisets():
    rng = random.Random(2023)
    # Input names outside every generated alphabet, two of them needing escapes.
    outside = Multiset({"zz": 2, 'q"\\': 1, "é": 1})
    seen = {"greedy": 0, "fallback": 0, "result": 0, "outside": 0}
    for k in range(300):
        sys_ = random_shared_system(rng) if k % 2 else random_system(rng)
        eng = Engine(sys_)
        seed, steps = rng.randrange(1_000), rng.randint(1, 12)
        given = outside + Multiset([rng.choice(sorted(sys_.alphabet))])
        traces = [
            eng.run(seed, steps, "greedy-random"),
            eng.run(seed, steps, "enumerate-uniform", cap=1),
            eng.run_accepting(given, rng.choice(list(eng.labels)), seed, steps)[1],
        ]
        for trace in traces:
            assert list(trace_to_lines(eng, trace)) == _oracle_lines(eng, trace)
        seen["greedy"] += traces[0].steps_taken > 0
        seen["fallback"] += any(step.note for step in traces[1].steps)
        seen["result"] += sum(trace.halted for trace in traces)
        seen["outside"] += traces[2].steps_taken > 0
    assert min(seen.values()) >= 25, seen
    # More distinct values of n for one rule, and of a count for one slot,
    # than the 32 that trace_to_lines keeps for each rule and each slot.
    eng = Engine(dsl.parse_system(GROWING)[0])
    trace = eng.run(0, 120, "greedy-random")
    pairs = {pair for step in trace.steps for pair in step.choice.applications}
    assert max(Counter(index for index, _ in pairs).values()) > 32
    values = [{c._counts[i] for c in trace.configurations()} for i in range(len(eng._start))]
    assert max(map(len, values)) > 32
    assert list(trace_to_lines(eng, trace)) == _oracle_lines(eng, trace)


def test_run_stops_at_the_first_failed_write_to_a_closed_pipe(tmp_path):
    # 650 rules keep every step slow enough that a run which printed only at
    # its end would still be stepping at the deadline, in well under 100 MB.
    names = [chr(c) for c in range(ord("a"), ord("z") + 1)]
    rules = "".join(f"@rules 1: ({x}, out; {y}, in)\n" for x in names for y in names if x != y)
    path = put(
        tmp_path,
        "loop.psys",
        f"@model cell\n@objects {' '.join(names)}\n@env {' '.join(names)}\n"
        f"@membranes 1\n@init 1: a\n{rules}@output 1\n",
    )
    argv = [sys.executable, "-m", "psys", "run", path, "--policy", "greedy-random",
            "--max-steps", "100000"]
    with subprocess.Popen(argv, stdout=subprocess.PIPE, stderr=subprocess.PIPE) as child:
        try:
            assert select.select([child.stdout], [], [], 15)[0], "no trace line within 15 s"
            assert child.stdout.readline().startswith(b'{"step": 0')
            child.stdout.close()
            code = child.wait(timeout=15)
        finally:
            child.kill()
        err = child.stderr.read().decode()
    assert code == 1
    assert "Traceback" not in err and "Exception ignored" not in err
    assert err.splitlines() == ["error: cannot write output: [Errno 32] Broken pipe"]


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs a device that is always full")
def test_run_into_a_full_device_exits_one(tmp_path):
    path = put(tmp_path, "p.psys", PERPETUAL)
    with open("/dev/full", "w") as full:
        done = subprocess.run(
            [sys.executable, "-m", "psys", "run", path, "--max-steps", "1000"],
            stdout=full,
            stderr=subprocess.PIPE,
            timeout=60,
        )
    err = done.stderr.decode()
    assert done.returncode == 1
    assert err.splitlines() == ["error: cannot write output: [Errno 28] No space left on device"]


def test_run_lists_more_rules_in_play_than_the_recursion_limit(tmp_path, capsys):
    n = sys.getrecursionlimit() + 100
    names = [f"b{i}" for i in range(1, n + 1)]
    rules = "".join(f"@rules 1: (a, out; {name}, in)\n" for name in names)
    path = put(
        tmp_path,
        "many.psys",
        f"@model cell\n@objects a {' '.join(names)}\n@env {' '.join(names)}\n"
        f"@membranes 1\n@init 1: a\n{rules}@output 1\n",
    )
    code, out, err = invoke(capsys, "run", path, "--max-steps", "1")
    assert code == 0 and err == ""
    assert len(out.splitlines()) == 3


@pytest.mark.skipif(
    not getattr(sys, "get_int_max_str_digits", lambda: 0)(),
    reason="needs Python's limit on integer string conversion",
)
def test_a_count_too_long_to_print_ends_in_one_error_line(tmp_path, capsys):
    # `str()` refuses an int of more than `limit` digits. Doubling a count of
    # `limit` digits reaches `limit + 1` digits after four steps.
    limit = sys.get_int_max_str_digits()
    doubling = DRAIN.replace("@env", "@env a").replace("(a, out)", "(a, out; a^2, in)")
    path = put(tmp_path, "grow.psys", doubling.replace("a^2\n", f"a^1{'0' * (limit - 1)}\n"))
    message = f"error: cannot write output: a count has more than {limit} digits\n"
    code, out, err = invoke(capsys, "run", path)
    assert code == 1
    assert len(out.splitlines()) == 4 and json.loads(out.splitlines()[-1])["step"] == 3
    assert err == message
    # Two counts that each print, and their sum that does not, in a halted start.
    nines = "9" * limit
    halted = DRAIN.replace("@rules 1: (a, out)\n", "")
    path = put(tmp_path, "sum.psys", halted.replace("a^2\n", f"a^{nines} a^{nines}\n"))
    # The same sum as the input of an accepting run.
    drain = put(tmp_path, "drain.psys", DRAIN)
    accepting = ["run", drain, "--accept", f"a^{nines} a^{nines}", "--region", "1"]
    for argv in (["explore", path], ["run", path], accepting):
        code, out, err = invoke(capsys, *argv)
        assert (code, out, err) == (1, "", message), argv[:2]
    # A rule whose size is that sum: `profile` prints its size, while `run`
    # and `explore` never print the rule, which does not fit the start.
    path = put(tmp_path, "size.psys", DRAIN.replace("(a, out)", f"(a^{nines} a^{nines}, out)"))
    for flags in ([], ["--pretty"]):
        code, _, err = invoke(capsys, "profile", path, *flags)
        assert (code, len(err.splitlines())) == (1, 1), flags
    for command in ("run", "explore"):
        code, _, err = invoke(capsys, command, path)
        assert (code, err) == (0, ""), command


@pytest.mark.skipif(
    not getattr(sys, "get_int_max_str_digits", lambda: 0)(),
    reason="needs Python's limit on integer string conversion",
)
def test_a_rule_too_long_to_write_fails_validation_at_its_number(tmp_path, capsys):
    # The rule's text does not print, so its violation names the rule by number.
    nines = "9" * sys.get_int_max_str_digits()
    path = put(
        tmp_path,
        "loop.psys",
        "@model tissue\n@objects a\n@env\n@cells 1\n@init 1: a\n"
        f"@rules: (1, a^{nines} a^{nines}, 1)\n@output 1\n",
    )
    line = "V006 [error] rule 1: rule endpoints must differ"
    code, out, err = invoke(capsys, "validate", path)
    assert (code, err) == (2, "")
    violation = {"code": "V006", "severity": "error", "location": "rule 1"}
    assert json.loads(out)["violations"] == [violation | {"message": "rule endpoints must differ"}]
    assert invoke(capsys, "validate", path, "--pretty") == (2, line + "\n", "")
    for command in ("run", "explore", "profile"):
        code, out, err = invoke(capsys, command, path)
        assert (code, out, err) == (2, "", f"{path}: {line}\n"), command
