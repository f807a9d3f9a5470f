"""Inputs of the psys benchmark workloads, and the checks on their outputs.

Every workload is a list of `psys` CLI invocations over pinned inputs:
criterion 8's population comes from the copy of its generator below; the
ring system and the five register machines are files in `inputs/`. The
canonical text of every input is hashed and compared with the digest in
`reference.json` before anything is timed, so an edit to the generator,
the pinned files or the DSL printer cannot silently change a workload.

`--seed` draws an order-preserving renaming of the object names (of the
instruction labels, for machines). The program sees different bytes for
every seed, but the renamed files sort exactly like the canonical ones, so
every seed does the same work and has the same reference answers.
"""

from __future__ import annotations

import hashlib
import json
import random
import re
import string
from dataclasses import dataclass
from pathlib import Path

from psys.dsl import parse_machine, parse_system, print_machine, print_system
from psys.model import (
    CellAntiport,
    CellPSystem,
    CellRule,
    MembraneStructure,
    SymportIn,
    SymportOut,
    encode_cell_as_tissue,
)
from psys.multiset import Multiset

HERE = Path(__file__).resolve().parent
INPUTS = HERE / "inputs"
REFERENCE = HERE / "reference.json"

# Criterion 8's budget, except --max-objects: at 24 one system of the
# population takes 9 s per side, so a pass would not fit a run. At 12 the
# same system still spends most of the pass enumerating over-budget
# configurations.
EXPLORE_ARGS = (
    "--max-depth", "10", "--max-objects", "12",
    "--max-branches", "1500", "--max-configs", "30000",
)
# Bound 32, not 48: shorter passes give the four small machines enough
# latency samples per run for a steady median.
RM_ARGS = ("--bound", "32")
RUN_STEPS = 2000
RUN_ARGS = ("--policy", "greedy-random", "--seed", "7", "--max-steps", str(RUN_STEPS))
MACHINES = ("halt_only", "add_loop", "even_numbers", "sub_drain", "transfer")

# The documented JSON fields; keys added later do not count as changes.
EXPLORE_FIELDS = ("results", "exhausted", "halting_leaves", "cut_branches", "visited")
RM_FIELDS = ("ok", "machine_results", "system_results")

KINDS = {"explore-random": "explore", "rm-verify": "rm", "run-greedy": "run"}
_IDENT = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")


# --- criterion 8's generator, as in tests/gen.py --------------------------


def _random_multiset(rng, names, low=1, high=2, max_count=3) -> Multiset:
    size = rng.randint(low, high)
    counts: dict[str, int] = {}
    for _ in range(size):
        name = rng.choice(names)
        if counts.get(name, 0) < max_count:
            counts[name] = counts.get(name, 0) + 1
    return Multiset(counts)


def _random_cell_system(rng, max_regions=3, max_rules=5, max_objects=6, max_count=3):
    n = rng.randint(1, max_regions)
    structure = MembraneStructure(n, {i: rng.randint(1, i - 1) for i in range(2, n + 1)})
    k = rng.randint(1, max_objects)
    names = [f"o{i}" for i in range(1, k + 1)]
    env = {name for name in names if rng.random() < 0.4}
    non_env = [name for name in names if name not in env]

    rules = []
    for _ in range(rng.randint(0, max_rules)):
        region = rng.randint(1, structure.n)
        pick = rng.random()
        if pick < 0.35:
            objects = _random_multiset(rng, names, max_count=max_count)
            if region == structure.skin and set(objects.support()) <= env:
                if not non_env:
                    continue
                objects = objects + Multiset({rng.choice(non_env): 1})
            rules.append(CellRule(region, SymportIn(objects)))
        elif pick < 0.7:
            rules.append(
                CellRule(region, SymportOut(_random_multiset(rng, names, max_count=max_count)))
            )
        else:
            out = _random_multiset(rng, names, max_count=max_count)
            inn = _random_multiset(rng, names, max_count=max_count)
            rules.append(CellRule(region, CellAntiport(out, inn)))

    init = {
        label: _random_multiset(rng, names, low=0, high=3, max_count=max_count)
        for label in range(1, structure.n + 1)
    }
    return CellPSystem(
        alphabet=names,
        structure=structure,
        init=init,
        env_support=env,
        rules=rules,
        output=rng.choice(structure.leaves()),
    )


def criterion8_population(seed: int = 108, count: int = 200) -> list[CellPSystem]:
    rng = random.Random(seed)
    return [_random_cell_system(rng) for _ in range(count)]


# --- building a workload --------------------------------------------------


@dataclass
class Workload:
    name: str
    kind: str  # "explore" | "rm" | "run"
    files: list[Path]  # renamed inputs, one per invocation
    argvs: list[list[str]]
    digest: str  # sha256 of the canonical input texts
    restore: dict[str, str]  # renamed -> canonical names (run-greedy only)

    def observe(self, code, stdout: str):
        """The parts of one invocation's output that the reference pins."""
        if self.kind == "run":
            # Map the renamed objects back, so every seed has the same bytes.
            canonical = re.sub(
                r'"([A-Z]{3}[0-9]{2})"',
                lambda m: f'"{self.restore.get(m.group(1), m.group(1))}"',
                stdout,
            )
            return [code, hashlib.sha256(canonical.encode()).hexdigest()]
        fields = EXPLORE_FIELDS if self.kind == "explore" else RM_FIELDS
        try:
            report = json.loads(stdout)
            return [code, {key: report[key] for key in fields}]
        except (ValueError, KeyError, TypeError):
            return [code, None]

    def check(self, outputs, reference: dict) -> list[bool]:
        """Per invocation: does its output match the reference and the independent checks?"""
        observed = [self.observe(code, stdout) for code, stdout in outputs]
        if len(observed) != len(reference["outputs"]):
            return [False] * len(outputs)
        ok = [got == want for got, want in zip(observed, reference["outputs"])]
        if self.kind == "explore":
            # Criterion 8: a cell system and its tissue twin agree.
            for i in range(0, len(observed), 2):
                cell, twin = observed[i][1], observed[i + 1][1]
                agree = (
                    cell is not None
                    and twin is not None
                    and (cell["results"], cell["exhausted"])
                    == (twin["results"], twin["exhausted"])
                )
                ok[i] = ok[i] and agree
                ok[i + 1] = ok[i + 1] and agree
        elif self.kind == "rm":
            ok = [good and got[1]["ok"] is True for good, got in zip(ok, observed)]
        else:
            # The ring never halts, so every run uses its whole step budget.
            for i, (_, stdout) in enumerate(outputs):
                try:
                    summary = json.loads(stdout.rstrip("\n").rpartition("\n")[2])
                except ValueError:
                    summary = {}
                ok[i] = ok[i] and summary == {"halted": False, "steps": RUN_STEPS}
        return ok


def canonical_inputs(name: str) -> list[tuple[str, str]]:
    """(file name, canonical text) for every invocation of the workload."""
    if name == "explore-random":
        out = []
        for i, system in enumerate(criterion8_population()):
            out.append((f"{i:03d}-cell.psys", print_system(system)))
            out.append((f"{i:03d}-tissue.psys", print_system(encode_cell_as_tissue(system))))
        return out
    if name == "rm-verify":
        return [
            (f"{m}.rm", (INPUTS / f"{m}.rm").read_text(encoding="utf-8")) for m in MACHINES
        ]
    if name == "run-greedy":
        return [("ring.psys", (INPUTS / "ring.psys").read_text(encoding="utf-8"))]
    raise ValueError(f"unknown workload {name!r}")


def digest(inputs: list[tuple[str, str]]) -> str:
    h = hashlib.sha256()
    for file_name, text in inputs:
        h.update(file_name.encode() + b"\0" + text.encode() + b"\0")
    return h.hexdigest()


def _fresh_names(rng: random.Random, count: int) -> list[str]:
    """Sorted, distinct, equally long identifiers: three capitals, two digits.

    Equal length keeps every comparison of rule texts as it was; capitals
    never collide with DSL keywords or with the lowercase trace keys.
    """
    names: set[str] = set()
    while len(names) < count:
        names.add("".join(rng.choices(string.ascii_uppercase, k=3)) + f"{rng.randrange(100):02d}")
    return sorted(names)


def _rename(kind: str, text: str, rng: random.Random) -> tuple[str, dict[str, str]]:
    if kind == "rm":
        machine, _ = parse_machine(text)
        originals = sorted(machine.instructions)
    else:
        system, _ = parse_system(text)
        originals = sorted(system.alphabet)
    mapping = dict(zip(originals, _fresh_names(rng, len(originals))))
    renamed = _IDENT.sub(lambda m: mapping.get(m.group(0), m.group(0)), text)
    # The printers sort rules and labels; printing the parsed file back to
    # the same bytes proves the renaming kept every order.
    if kind == "rm":
        back = print_machine(parse_machine(renamed)[0])
    else:
        back = print_system(parse_system(renamed)[0])
    if back != renamed:
        raise RuntimeError("renaming changed the canonical order of an input")
    return renamed, mapping


def build(name: str, seed: int, directory: Path) -> Workload:
    """Write the seed's renamed inputs under `directory` and list the invocations."""
    kind = KINDS[name]
    inputs = canonical_inputs(name)
    rng = random.Random(seed)
    directory.mkdir(parents=True, exist_ok=True)
    files, argvs, restore = [], [], {}
    for file_name, text in inputs:
        renamed, mapping = _rename(kind, text, rng)
        path = directory / file_name
        path.write_text(renamed, encoding="utf-8")
        files.append(path)
        if kind == "explore":
            argvs.append(["explore", str(path), *EXPLORE_ARGS])
        elif kind == "rm":
            argvs.append(["rm-verify", str(path), *RM_ARGS])
        else:
            argvs.append(["run", str(path), *RUN_ARGS])
            restore = {new: old for old, new in mapping.items()}
    return Workload(name, kind, files, argvs, digest(inputs), restore)


def load_reference() -> dict:
    return json.loads(REFERENCE.read_text(encoding="utf-8"))
