"""Seeded runs do not depend on which supported CPython runs them.

`engine._shuffle` copies the loop of CPython's private `Random._randbelow`,
so a CPython that draws differently would change every seeded greedy trace
while the tests still pass on the interpreter running them. This test finds
every other CPython >= 3.10 that starts (`python3.N` on PATH and pyenv's
`versions/*/bin/python`) and compares `_shuffle` and a few seeded
`python -m psys run` outputs there with this interpreter's.
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

ROOT = Path(__file__).resolve().parent.parent
RING = ROOT / "perfbench" / "inputs" / "ring.psys"
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
