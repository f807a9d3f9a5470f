"""psys benchmark: time real CLI invocations and check every output.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload NAME --record

Each workload calls `psys.cli.main(argv)` in this process, with `src/` on
the path and standard output and error captured. A run first sets up
several times, each in a fresh child interpreter (import psys, then parse
and validate or compile every input and build its Engine). Then it
repeats passes over all the workload's invocations while another pass
fits in `--seconds`, checking every output against `reference.json`.
Between passes it times a fixed calibration workload, and every time it
reports is scaled to the speed that workload had where the benchmark was
defined (see `calibration_chunk`). The last line of standard output is
one JSON object: end-to-end metrics with `--trace 0`, per-layer metrics
from the outside-in tracer with `--trace 1`. `--record` rewrites the
workload's entry in `reference.json` from one pass; use it only at a
commit whose outputs are known to be right.
"""

from __future__ import annotations

import argparse
import gc
import io
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
OUT = HERE / "out"
# Set up at least this many times, and for at least this long, per run.
SETUP_REPEATS = 9
SETUP_SECONDS = 2.0
# Median seconds of one calibration chunk on the machine where the benchmark
# was defined (2-core Xeon VM, Python 3.11.7); times are scaled to it.
CALIBRATION_REFERENCE_S = 0.04
# Calibrate for about this share of each pass, in chunks.
CALIBRATION_SHARE = 0.1
CALIBRATION_NAMES = [f"o{i}" for i in range(16)]
CALIBRATION_STEPS = 2000


def calibration_chunk() -> float:
    """Seconds of one fixed piece of pure-Python work shaped like psys's own.

    Multisets as dicts, sorted tuples as keys of a growing memo dict, JSON
    lines: the interpreter paths the workloads take. On a shared 2-core VM
    the host's speed drifted by 15-30% for minutes at a time; this chunk
    slows and recovers with it, while its own code never changes. Scaling
    every time by CALIBRATION_REFERENCE_S / (median chunk time of the run)
    takes most of that drift out of the comparison of two commits run on
    the same host. The collector is off while it runs, so no setting made
    by the code under test can change its work.
    """
    names, seen, lines, x = CALIBRATION_NAMES, {}, [], 12345
    enabled = gc.isenabled()
    gc.disable()
    began = time.perf_counter()
    for step in range(CALIBRATION_STEPS):
        counts: dict[str, int] = {}
        for _ in range(12):
            x = (x * 1103515245 + 12345) & 0x7FFFFFFF
            name = names[x % 16]
            counts[name] = counts.get(name, 0) + 1
        key = tuple(sorted(counts.items()))
        seen[key] = seen.get(key, 0) + 1
        lines.append(json.dumps({"step": step, "cells": counts}, sort_keys=True))
    elapsed = time.perf_counter() - began
    if enabled:
        gc.enable()
    return elapsed


def set_up_here(kind: str, paths: list[str]) -> None:
    """One set-up, in this fresh interpreter: print its seconds.

    Import psys, then parse and validate (or compile) every input and
    build its Engine.
    """
    started = time.perf_counter()
    from psys import dsl, engine, model, rm

    for path in paths:
        text = Path(path).read_text(encoding="utf-8")
        if kind == "rm":
            machine, _ = dsl.parse_machine(text)
            system = rm.compile_machine(machine).system
        else:
            system, _ = dsl.parse_system(text)
            if not model.validate(system).ok:
                raise RuntimeError(f"{path} does not validate")
        engine.Engine(system)
    print(time.perf_counter() - started)


def set_up(workload) -> float:
    """Seconds of one set-up, run in a child interpreter as a user's process pays it."""
    code = "import sys; sys.path[:0] = sys.argv[1:3]; import run; run.set_up_here(sys.argv[3], sys.argv[4:])"
    argv = [sys.executable, "-c", code, str(SRC), str(HERE), workload.kind, *map(str, workload.files)]
    done = subprocess.run(argv, capture_output=True, text=True, timeout=120, check=True)
    return float(done.stdout)


def run_pass(main, argvs) -> tuple[float, list[float], list]:
    """One pass over the invocations: wall time, per-invocation latency, outputs."""
    latencies, outputs = [], []
    started = time.perf_counter()
    for argv in argvs:
        out, err = io.StringIO(), io.StringIO()
        begun = time.perf_counter()
        try:
            with redirect_stdout(out), redirect_stderr(err):
                code = main(argv)
        except SystemExit as exc:
            code = exc.code
        except Exception:  # a crash is a failed invocation, not a failed benchmark
            code = "raised: " + traceback.format_exc(limit=1).strip().splitlines()[-1]
        latencies.append(time.perf_counter() - begun)
        outputs.append((code, out.getvalue()))
    return time.perf_counter() - started, latencies, outputs


class Passes:
    """What a run measured over its passes."""

    def __init__(self):
        self.walls: list[float] = []
        self.latencies: list[list[float]] = []
        self.calibrations: list[float] = []
        self.attempted = 0
        self.failed = 0

    def calibrate(self, seconds: float) -> None:
        """Run calibration chunks for about `seconds`; at least one."""
        deadline = time.perf_counter() + seconds
        self.calibrations.append(calibration_chunk())
        while time.perf_counter() < deadline:
            self.calibrations.append(calibration_chunk())

    def scale(self) -> float:
        """Factor that turns this run's seconds into seconds at the reference speed."""
        return CALIBRATION_REFERENCE_S / statistics.median(self.calibrations)

    def add(self, wall, latencies, ok) -> None:
        self.walls.append(wall)
        self.latencies.append(latencies)
        self.attempted += len(ok)
        self.failed += ok.count(False)


def measure(main, workload, reference, seconds, passes: Passes, tracer=None) -> list:
    """Repeat passes while another one fits in `seconds`; always at least one."""
    deadline = time.perf_counter() + seconds
    layers = []
    while True:
        gc.collect()
        if tracer is not None:
            tracer.reset()
        wall, latencies, outputs = run_pass(main, workload.argvs)
        ok = workload.check(outputs, reference)
        for good, argv, (code, _) in zip(ok, workload.argvs, outputs):
            if not good:
                print(f"# failed: psys {' '.join(argv)} (exit {code})", file=sys.stderr)
        passes.add(wall, latencies, ok)
        passes.calibrate(CALIBRATION_SHARE * wall)
        if tracer is not None:
            stdout_bytes = sum(len(stdout.encode()) for _, stdout in outputs)
            layers.append(tracer.pass_metrics(wall, stdout_bytes))
        if time.perf_counter() + statistics.median(passes.walls) > deadline:
            return layers


def tail(values: list[float]) -> tuple[float, str]:
    """Highest percentile with at least ten samples beyond it, or the maximum."""
    ordered = sorted(values)
    n = len(ordered)
    if n <= 10:
        return ordered[-1], f"max of {n}"
    return ordered[n - 11], f"p{100 * (n - 10) / n:g} of {n}"


def end_to_end(reference, setups, passes: Passes, steps: int) -> tuple[dict, list[str]]:
    """Times scaled to the calibration's reference speed; the raw ones in a comment line."""
    scale = passes.scale()
    raw_wall = statistics.median(passes.walls)
    wall = scale * raw_wall
    # Per input, the median over passes; then across inputs.
    per_input = [scale * statistics.median(column) for column in zip(*passes.latencies)]
    tail_s, tail_of = tail(per_input)
    configs = reference["configs_per_pass"]
    raw_setup = statistics.median(setups)
    values = {
        "wall_s": (wall, "s", f"median of {len(passes.walls)} passes"),
        "op_p50_ms": (
            1000 * statistics.median(per_input), "ms", f"median of {len(per_input)} per-input medians"
        ),
        "op_tail_ms": (1000 * tail_s, "ms", f"{tail_of} per-input medians"),
        "configs_per_s": (configs / wall, "1/s", f"{configs} configurations per pass"),
        "setup_s": (scale * raw_setup, "s", f"median of {len(setups)} set-ups"),
        "peak_rss_mb": (
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB", "this process"
        ),
    }
    lines = [f"{name:14} {value:.6g} {unit:4} {note}" for name, (value, unit, note) in values.items()]
    if steps:
        lines.append(f"{'steps_per_s':14} {steps / wall:.6g} 1/s  {steps} steps per pass")
    lines.append(
        f"# times above are scaled by {scale:.4f}: calibration median "
        f"{statistics.median(passes.calibrations):.6f} s of {len(passes.calibrations)} chunks, "
        f"reference {CALIBRATION_REFERENCE_S} s; unscaled wall_s {raw_wall:.6g}, setup_s {raw_setup:.6g}"
    )
    lines.append("# pass walls, unscaled (s): " + " ".join(f"{w:.3f}" for w in passes.walls))
    share = passes.failed / passes.attempted
    lines.append(f"{'failed_ops':14} {share:.6g} share {passes.failed} of {passes.attempted}")
    return {name: {"value": value, "unit": unit} for name, (value, unit, _) in values.items()}, lines


def unit_of(name: str) -> str:
    for suffix, unit in (("share", "share"), ("ratio", "ratio"), ("bytes", "B")):
        if name.endswith(suffix):
            return unit
    return "count"


def per_layer(layers: list[dict], untraced: Passes, traced: Passes) -> tuple[dict, list[str]]:
    """Medians over the traced passes; counts should be equal in every pass."""
    lines, metrics = [], {}
    for name in layers[0]:
        samples = [layer[name] for layer in layers]
        unit = unit_of(name)
        if unit == "count" and len(set(samples)) > 1:
            lines.append(f"# warning: {name} differs between passes: {samples}")
        metrics[name] = {"value": statistics.median(samples), "unit": unit}
    traced_wall = statistics.median(traced.walls)
    metrics["trace.pass_s"] = {"value": traced.scale() * traced_wall, "unit": "s"}
    # Each half scaled by its own calibration, so drift between them cancels.
    metrics["trace.overhead_ratio"] = {
        "value": traced.scale() * traced_wall / (untraced.scale() * statistics.median(untraced.walls)),
        "unit": "ratio",
    }
    lines += [f"{name:42} {m['value']:.6g} {m['unit']}" for name, m in metrics.items()]
    return metrics, lines


def reference_text(reference_all: dict) -> str:
    """JSON with one reference output per line, so a re-recording diffs by invocation."""
    entries = []
    for name, entry in reference_all.items():
        head = {key: value for key, value in entry.items() if key != "outputs"}
        outputs = ",\n   ".join(json.dumps(output) for output in entry["outputs"])
        entries.append(
            f" {json.dumps(name)}: {json.dumps(head)[:-1]}, \"outputs\": [\n   {outputs}\n ]}}"
        )
    return "{\n" + ",\n".join(entries) + "\n}\n"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record", action="store_true", help="rewrite reference.json")
    args = parser.parse_args(argv)

    if not (SRC / "psys" / "cli.py").is_file():
        print(f"error: no psys sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import workloads
    from tracer import Tracer

    if args.workload not in workloads.KINDS:
        print(f"error: unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    workload = workloads.build(args.workload, args.seed, OUT / "inputs" / args.workload)
    reference_all = workloads.load_reference()
    reference = reference_all.get(args.workload, {})
    if not args.record and reference.get("inputs_sha256") != workload.digest:
        print(f"error: the {args.workload} inputs differ from the pinned ones", file=sys.stderr)
        return 2

    from psys.cli import main

    if args.record:
        _, _, outputs = run_pass(main, workload.argvs)
        tracer = Tracer()
        tracer.install()
        wall, _, _ = run_pass(tracer.span("cli.main", main), workload.argvs)
        layer = tracer.pass_metrics(wall, 0)
        configs = layer["explore.visited"] or outputs[0][1].count('{"step": ')
        reference_all[args.workload] = {
            "inputs_sha256": workload.digest,
            "configs_per_pass": configs,
            "outputs": [workload.observe(code, stdout) for code, stdout in outputs],
        }
        workloads.REFERENCE.write_text(reference_text(reference_all), encoding="utf-8")
        print(f"recorded {len(outputs)} outputs and {configs} configurations per pass")
        return 0

    untraced, setups = Passes(), []
    while not args.trace and (len(setups) < SETUP_REPEATS or sum(setups) < SETUP_SECONDS):
        setups.append(set_up(workload))
        untraced.calibrate(0)  # one chunk, so the scale covers the set-ups too

    print(f"# psys benchmark: {args.workload}, seed {args.seed}, {args.seconds:g} s, trace {args.trace}")
    print(
        f"# python {platform.python_version()}, nproc {os.cpu_count()}, {platform.platform()}, "
        f"hash seed {os.environ.get('PYTHONHASHSEED', 'random')}"
    )
    if args.trace:
        # Half the time untraced, for the overhead ratio; half traced.
        measure(main, workload, reference, args.seconds / 2, untraced)
        tracer = Tracer()
        tracer.install()
        traced = Passes()
        layers = measure(
            tracer.span("cli.main", main), workload, reference, args.seconds / 2, traced, tracer
        )
        tracer.write(OUT / f"spans-{args.workload}.jsonl")
        metrics, lines = per_layer(layers, untraced, traced)
        attempted = untraced.attempted + traced.attempted
        failed = untraced.failed + traced.failed
    else:
        measure(main, workload, reference, args.seconds, untraced)
        steps = workloads.RUN_STEPS if workload.kind == "run" else 0
        metrics, lines = end_to_end(reference, setups, untraced, steps)
        attempted, failed = untraced.attempted, untraced.failed
    print("\n".join(lines))
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
