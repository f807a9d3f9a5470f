"""One-point mutation audit of the breadth-first walk, the engine's
construction and loops, and the register-machine walk and compiler audit.

Makes every one-point mutant of `psys.explore._walk` and
`psys.explore.check_deterministic`; of `Engine._generated_step`,
`_expand`, `_contended`, `_listing` and `maximal_steps`; of
`Engine.__init__`, `_enabled`, `_greedy_pass`, `apply`, `_steps` and
`psys.engine._shuffle`; and of `psys.rm._machine_reach` and
`verify_compilation`: a comparison swapped (`<` and `<=`,
`>` and `>=`, `==` and `!=`, `is` and `is not`, `in` and `not in`), a
`+` turned into `-` or back (in augmented assignments too, so `+= 1`
becomes `-= 1`), or an int constant raised by one (so `+= 1` also
becomes `+= 2`). Each mutant is written into a temporary copy of the
tree, and its module's tests run against it from inside that copy, since
`pyproject.toml`'s pytest `pythonpath` wins over `PYTHONPATH`. Each group
meets the tests that `AUDITS` names for it. A target is a function's name,
or `Class.method` for a method whose name other classes share. A mutant the
tests fail on, or time out on, is killed.

A surviving mutant must be on EQUIVALENT, with the reason it cannot
change what the mutated function returns. Any other survivor, and any
EQUIVALENT entry that no longer names a surviving mutant, makes the
script exit 1.

Run it from anywhere as `python tests/mutants.py`. It tests one mutant
at a time, a few seconds each, and prints each mutant's name and fate:
171 mutants, about eight minutes on two cores.

pytest does not collect this file: it collects only `test_*.py`.
"""

from __future__ import annotations

import ast
import os
import resource
import shutil
import subprocess
import sys
import tempfile
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
# (module, its mutated functions, the tests run against each mutant)
AUDITS = (
    (
        Path("src/psys/explore.py"),
        ("_walk", "check_deterministic"),
        ("tests/test_explore.py", "tests/test_golden.py"),
    ),
    (
        Path("src/psys/engine.py"),
        ("_generated_step", "_expand", "_contended", "_listing", "maximal_steps"),
        ("tests/test_engine.py", "tests/test_rm.py"),
    ),
    (
        # test_golden.py's digests pin the greedy draws.
        Path("src/psys/engine.py"),
        ("Engine.__init__", "_enabled", "_greedy_pass", "apply", "_steps", "_shuffle"),
        ("tests/test_engine.py", "tests/test_golden.py"),
    ),
    (
        Path("src/psys/rm.py"),
        ("_machine_reach", "verify_compilation"),
        ("tests/test_rm.py",),
    ),
)
COPIED = ("src", "tests", "perfbench/inputs", "README.md", "pyproject.toml")
MEMORY_LIMIT = 1 << 30
TIMEOUT = 60  # seconds; each pair of files takes about 5 s unmutated

SWAPS = {
    ast.Lt: ast.LtE, ast.LtE: ast.Lt, ast.Gt: ast.GtE, ast.GtE: ast.Gt,
    ast.Eq: ast.NotEq, ast.NotEq: ast.Eq, ast.Is: ast.IsNot, ast.IsNot: ast.Is,
    ast.In: ast.NotIn, ast.NotIn: ast.In, ast.Add: ast.Sub, ast.Sub: ast.Add,
}
SYMBOLS = {
    ast.Lt: "<", ast.LtE: "<=", ast.Gt: ">", ast.GtE: ">=", ast.Eq: "==",
    ast.NotEq: "!=", ast.Is: "is", ast.IsNot: "is not", ast.In: "in",
    ast.NotIn: "not in", ast.Add: "+", ast.Sub: "-",
}

# Mutants that survive because they cannot change any outcome, verdict or
# witness, each with the reason.
EQUIVALENT = {
    "_walk: `limit = -1` 1 -> 2": (
        "a count vector's total is at least 0, so a limit of -2 is below every total as -1 is"
    ),
    "_generated_step: `flags = [f\"u{slot}\" for slot, rules in sorted(takers.items()) "
    "if len(rules) > 1]` > -> >=": (
        "a slot only one rule takes from also gets a flag, set to 0 and never read"
    ),
    "_generated_step: `terms[slot].append((\"+ \" if delta > 0 else \"- \") + term)` > -> >=": (
        "net tables drop zero deltas, so no delta is 0"
    ),
    "_generated_step: `f\"p[{slot}]{''.join(f' {term}' for term in added)}\" "
    "if len(added) <= 64` 64 -> 65": (
        "a slot with 65 terms is summed by a chain of `+` instead of sum(): the same value"
    ),
    "_generated_step: `f\"p[{slot}]{''.join(f' {term}' for term in added)}\" "
    "if len(added) <= 64` <= -> <": (
        "a slot with 64 terms is summed by sum() instead of a chain of `+`: the same value"
    ),
    "_listing: `counts = [0] * len(needs)` 0 -> 1": (
        "the first descent starts at position 0 and sets every count"
    ),
    "_listing: `if fits < m:` < -> <=": "m takes the value it already has",
    "_listing: `for i in range(start - 1, -1, -1):` 1 -> 2 #2": (
        "the test also reaches needs[-1], the last rule, which sits at its top and never fits"
    ),
    "_enabled: `if fits < bound:` < -> <=": (
        "bound is at least 1 here, so fits == bound keeps bound and does not break"
    ),
    "_greedy_pass: `if fits < bound:` < -> <=": (
        "bound is at least 1 here, so fits == bound keeps bound and does not break"
    ),
}


class Mutator(ast.NodeTransformer):
    """Counts the mutation sites of the target functions in source order and
    applies the one numbered `chosen`, recording every site's name."""

    def __init__(self, targets: tuple[str, ...], lines: list[str], chosen: int = -1):
        self.targets, self.lines, self.chosen = targets, lines, chosen
        self.names: list[str] = []
        self.seen: Counter[str] = Counter()
        self.function = self.owner = None

    def visit_ClassDef(self, node):
        self.owner = node.name
        self.generic_visit(node)
        self.owner = None
        return node

    def visit_FunctionDef(self, node):
        qualified = f"{self.owner}.{node.name}"
        if node.name not in self.targets and qualified not in self.targets:
            return node
        self.function = node.name if node.name in self.targets else qualified
        node.body = [self.visit(statement) for statement in node.body]
        self.function = None
        return node

    def _site(self, node, before, after) -> bool:
        if self.function is None:
            return False
        line = self.lines[node.lineno - 1].strip()
        name = f"{self.function}: `{line}` {before} -> {after}"
        self.seen[name] += 1
        self.names.append(name if self.seen[name] == 1 else f"{name} #{self.seen[name]}")
        return len(self.names) - 1 == self.chosen

    def _swap(self, node, op):
        new = SWAPS[type(op)]
        return new() if self._site(node, SYMBOLS[type(op)], SYMBOLS[new]) else op

    def visit_Compare(self, node):
        self.generic_visit(node)
        node.ops = [self._swap(node, op) if type(op) in SWAPS else op for op in node.ops]
        return node

    def visit_BinOp(self, node):
        self.generic_visit(node)
        if type(node.op) in (ast.Add, ast.Sub):
            node.op = self._swap(node, node.op)
        return node

    def visit_AugAssign(self, node):
        self.generic_visit(node)
        if type(node.op) in (ast.Add, ast.Sub):
            node.op = self._swap(node, node.op)
        return node

    def visit_Constant(self, node):
        if type(node.value) is int and self._site(node, node.value, node.value + 1):
            return ast.copy_location(ast.Constant(node.value + 1), node)
        return node


def mutant(source: str, targets: tuple[str, ...], chosen: int = -1) -> tuple[str, list[str]]:
    """The module with site `chosen` of `targets` mutated, and the names of all sites."""
    mutator = Mutator(targets, source.splitlines(), chosen)
    tree = ast.fix_missing_locations(mutator.visit(ast.parse(source)))
    return ast.unparse(tree), mutator.names


def limit_memory():
    resource.setrlimit(resource.RLIMIT_AS, (MEMORY_LIMIT, MEMORY_LIMIT))


def run_tests(tree: Path, tests: tuple[str, ...]) -> str:
    """Run `tests` on the tree as it stands: passed, failed or timed out."""
    env = {key: value for key, value in os.environ.items() if key != "PYTHONPATH"}
    env["PYTHONDONTWRITEBYTECODE"] = "1"
    argv = [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider", *tests]
    try:
        done = subprocess.run(
            argv, cwd=tree, env=env, capture_output=True, timeout=TIMEOUT,
            preexec_fn=limit_memory,
        )
    except subprocess.TimeoutExpired:
        return "timed out"
    return "passed" if done.returncode == 0 else "failed"


def main() -> int:
    with tempfile.TemporaryDirectory() as scratch:
        tree = Path(scratch)
        for name in COPIED:
            copy = shutil.copytree if (ROOT / name).is_dir() else shutil.copy
            copy(ROOT / name, tree / name)
        for cache in list(tree.rglob("__pycache__")):
            shutil.rmtree(cache)
        names, survivors = [], []
        for module, targets, tests in AUDITS:
            source = (ROOT / module).read_text(encoding="utf-8")
            unmutated, sites = mutant(source, targets)
            target = tree / module
            target.write_text(unmutated, encoding="utf-8")
            if run_tests(tree, tests) != "passed":
                print(f"the tests do not pass on the unmutated {module}; nothing to audit")
                return 2
            for index, name in enumerate(sites):
                target.write_text(mutant(source, targets, index)[0], encoding="utf-8")
                result = run_tests(tree, tests)
                verdict = "SURVIVED" if result == "passed" else "killed"
                print(f"{verdict} ({result}): {name}", flush=True)
                if result == "passed":
                    survivors.append(name)
            target.write_text(unmutated, encoding="utf-8")
            names += sites
    unexplained = [name for name in survivors if name not in EQUIVALENT]
    stale = [name for name in EQUIVALENT if name not in survivors]
    print(f"{len(names)} mutants: {len(names) - len(survivors)} killed, {len(survivors)} survived")
    for name in unexplained:
        print(f"survivor not on the equivalent list: {name}")
    for name in stale:
        print(f"equivalent-list entry that did not survive: {name}")
    return 1 if unexplained or stale else 0


if __name__ == "__main__":
    sys.exit(main())
