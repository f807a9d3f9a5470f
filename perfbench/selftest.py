"""Self-test of the psys benchmark.

    python3 perfbench/selftest.py

Runs a short traced run of every workload twice, each in a fresh
interpreter, and fails unless both runs check every output clean and
report identical counts: every `*.calls`, `multiset.constructions`,
`explore.visited`, `engine.maximal_steps.choices` and every other count,
and `cli.stdout_bytes`.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
WORKLOADS = ("explore-random", "rm-verify", "run-greedy")


def traced_run(workload: str) -> dict:
    argv = [sys.executable, str(HERE / "run.py"), "--workload", workload,
            "--seed", "1", "--seconds", "1", "--trace", "1"]
    done = subprocess.run(argv, capture_output=True, text=True, timeout=600, cwd=HERE.parent)
    if done.returncode != 0:
        raise SystemExit(f"{workload}: exit {done.returncode}\n{done.stderr}")
    return json.loads(done.stdout.splitlines()[-1])


def main() -> int:
    bad = 0
    for workload in WORKLOADS:
        first, second = traced_run(workload), traced_run(workload)
        counts = [name for name, m in first["metrics"].items() if m["unit"] in ("count", "B")]
        differ = [name for name in counts
                  if first["metrics"][name]["value"] != second["metrics"][name]["value"]]
        clean = all(r["correct"] and r["failed"] == 0 for r in (first, second))
        print(f"{workload}: {len(counts)} counts, "
              f"{'identical' if not differ else 'differ: ' + ', '.join(differ)}; "
              f"failed_ops {first['failed']} and {second['failed']}")
        bad += bool(differ) or not clean
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
