"""The benchmark's per-layer tracer still reaches every layer it times.

`perfbench/tracer.py` wraps psys names from the outside. If a change
renames or bypasses one of them, that layer's metric reads 0 and nothing
fails. This test runs one explore, one rm-verify and one run under the
tracer in a child interpreter and checks that every layer's span fired.

The walk memoizes count tuples, so no CLI path hashes a `Configuration`:
the `configuration.hash` span must stay silent. A walk that went back to
a memo of configurations would fire it.
"""

import json
import subprocess
import sys
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"

SYSTEM = """\
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

CHILD = """\
import contextlib, io, json, sys
sys.path.insert(0, sys.argv[1])
from tracer import Tracer
from psys import cli
tracer = Tracer()
tracer.install()
main = tracer.span("cli.main", cli.main)
with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
    codes = [main(argv) for argv in json.loads(sys.argv[2])]
print(json.dumps({"codes": codes, "spans": sorted({span[0] for span in tracer.spans})}))
"""

LAYERS = {
    "dsl.parse",
    "model.validate",
    "engine.init",
    "engine.maximal_steps",
    "engine.apply",
    "explore",
    "rm.compile",
    "cli.trace",
}


def test_every_traced_layer_fires(tmp_path):
    system, machine = tmp_path / "s.psys", tmp_path / "m.rm"
    system.write_text(SYSTEM)
    machine.write_text(MACHINE)
    argvs = [
        ["explore", str(system)],
        ["rm-verify", str(machine), "--bound", "2"],
        ["run", str(system), "--max-steps", "3"],
    ]
    done = subprocess.run(
        [sys.executable, "-B", "-c", CHILD, str(PERFBENCH), json.dumps(argvs)],
        capture_output=True,
        text=True,
        check=True,
    )
    report = json.loads(done.stdout)
    assert report["codes"] == [0, 0, 0]
    assert LAYERS - set(report["spans"]) == set()
    assert "configuration.hash" not in report["spans"]
