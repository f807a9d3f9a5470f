import os
from pathlib import Path

import _acceptance_log

SRC = Path(__file__).resolve().parent.parent / "src"


def pytest_configure(config):
    # pyproject.toml puts src on this interpreter's path only; the tests that
    # start `python -m psys` need the same package in the child interpreter.
    paths = [str(SRC), os.environ.get("PYTHONPATH", "")]
    os.environ["PYTHONPATH"] = os.pathsep.join(path for path in paths if path)


def pytest_terminal_summary(terminalreporter):
    if _acceptance_log.LINES:
        terminalreporter.section("acceptance criteria")
        for line in _acceptance_log.LINES:
            terminalreporter.write_line(line)
