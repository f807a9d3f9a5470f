"""Seeded runs do not depend on which supported CPython runs them.

`engine._shuffle` copies the loop of CPython's private `Random._randbelow`,
so a CPython that draws differently would change every seeded greedy trace
while the tests still pass on the interpreter running them. These tests find
every other CPython >= 3.10 that starts (`python3.N` on PATH and pyenv's
`versions/*/bin/python`) and compare `_shuffle` and a few seeded
`python -m psys run` outputs there with this interpreter's. They also
compare the reprs of parsed systems, an `rm-verify` report and the modules
that `import psys.cli` loads, since psys's value classes build their
methods without `dataclasses`.
"""

import os
import random
import re
import subprocess
import sys
from pathlib import Path

import pytest

from psys import dsl

from gen import random_shared_system
from test_record import IMPORT_PROBE

ROOT = Path(__file__).resolve().parent.parent
RING = ROOT / "perfbench" / "inputs" / "ring.psys"
TRANSFER = ROOT / "perfbench" / "inputs" / "transfer.rm"
ENV = {**os.environ, "PYTHONPATH": str(ROOT / "src")}

PROBE = (
    "import os, sys; print(sys.implementation.name, sys.version_info >= (3, 10),"
    " sys.version.split()[0], os.path.realpath(sys.executable))"
)

SHUFFLE_MISMATCHES = """
import random
from psys.engine import _draws, _shuffle
bad = 0
for n in range(70):
    for seed in range(8):
        expected, got = list(range(n)), list(range(n))
        reference, rng = random.Random(seed), random.Random(seed)
        reference.shuffle(expected)
        _shuffle(got, _draws(n), rng)
        bad += got != expected or rng.getstate() != reference.getstate()
print(bad)
"""


def candidates():
    for folder in os.environ.get("PATH", "").split(os.pathsep):
        for path in Path(folder or os.curdir).glob("python3.*"):
            if re.fullmatch(r"python3\.\d+", path.name):
                yield path
    pyenv = Path(os.environ.get("PYENV_ROOT") or Path.home() / ".pyenv")
    yield from pyenv.glob("versions/*/bin/python")


def other_interpreters() -> list[tuple[str, str]]:
    """(version, executable) of every CPython >= 3.10 that starts, other than this one."""
    seen, found = {os.path.realpath(sys.executable)}, []
    for path in sorted(set(candidates())):
        try:
            probe = subprocess.run(
                [str(path), "-c", PROBE],
                stdin=subprocess.DEVNULL, capture_output=True, text=True, timeout=30,
            )
        except (OSError, subprocess.TimeoutExpired):
            continue
        fields = probe.stdout.rstrip("\n").split(" ", 3)
        if probe.returncode == 0 and fields[:2] == ["cpython", "True"] and fields[3] not in seen:
            seen.add(fields[3])
            found.append((fields[2], fields[3]))
    return found


def run(python: str, argv: list[str]) -> subprocess.CompletedProcess:
    return subprocess.run(
        [python, "-B", *argv], env=ENV, stdin=subprocess.DEVNULL, capture_output=True, timeout=120
    )


def test_seeded_runs_agree_across_supported_pythons(tmp_path):
    pythons = other_interpreters()
    if not pythons:
        pytest.skip("no other CPython >= 3.10 starts")
    # Two maximal steps at every other configuration, so each seeded run draws.
    shared = tmp_path / "shared.psys"
    shared.write_text(dsl.print_system(random_shared_system(random.Random(1))))
    runs = [
        ["-m", "psys", "run", str(path), "--policy", policy, "--seed", "7", "--max-steps", steps]
        for path, policy, steps in (
            (RING, "greedy-random", "300"),
            (shared, "greedy-random", "40"),
            (shared, "enumerate-uniform", "40"),
        )
    ]
    expected = [run(sys.executable, argv) for argv in runs]
    assert all(not out.stderr for out in expected)
    for version, python in pythons:
        shuffle = run(python, ["-c", SHUFFLE_MISMATCHES])
        assert (shuffle.returncode, shuffle.stdout) == (0, b"0\n"), (version, python, shuffle)
        for argv, reference in zip(runs, expected):
            got = run(python, argv)
            assert (got.returncode, got.stdout, got.stderr) == (
                reference.returncode, reference.stdout, reference.stderr,
            ), (version, python, argv)


# The repr of a parsed cell, tissue and interaction system. Sets print in an
# order that differs between versions, so they are sorted into lists first.
REPRS = """
import sys
from pathlib import Path
from psys import InteractionSystem, dsl
CELL = "@model cell\\n@objects a b c\\n@env c\\n@membranes 1(2 3(4))\\n@init 2: a^2 b\\n"
cell, _ = dsl.parse_system(CELL + "@rules 2: (a, out; b c, in)\\n@rules 4: (c, in)\\n@output 4\\n")
tissue, _ = dsl.parse_system(Path(sys.argv[1]).read_text())
rules, _ = dsl.parse_interactions("(a,1)(b,2) -> (a,2)(b,1)\\n(a,0) -> (a,2)\\n")
interaction = InteractionSystem(["a", "b"], 2, {1: cell.init[2]}, [], rules, 2)
for system in (cell, tissue, interaction):
    system.alphabet, system.env_support = sorted(system.alphabet), sorted(system.env_support)
    print(repr(system))
"""


def test_values_and_imports_agree_across_supported_pythons():
    pythons = other_interpreters()
    if not pythons:
        pytest.skip("no other CPython >= 3.10 starts")
    probes = [
        ["-c", REPRS, str(RING)],
        ["-m", "psys", "rm-verify", str(TRANSFER), "--bound", "8"],
        IMPORT_PROBE,
    ]
    expected = [run(sys.executable, argv) for argv in probes]
    assert [(out.returncode, out.stderr) for out in expected] == [(0, b"")] * 3
    assert expected[0].stdout.count(b"PSystem(alphabet=") == 2
    assert expected[2].stdout == b"[]\n"
    for version, python in pythons:
        for argv, reference in zip(probes, expected):
            got = run(python, argv)
            assert (got.returncode, got.stdout, got.stderr) == (
                reference.returncode, reference.stdout, reference.stderr,
            ), (version, python, argv[:2])
