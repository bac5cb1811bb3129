"""Scoped mutation testing for noarb's checks.

Each mutant changes one operator in one named function of ``src/noarb``:
``<`` and ``<=``, ``>`` and ``>=``, ``==`` and ``!=``, ``and`` and ``or``
swap, and a ``not`` is dropped.  The operators are found with the standard
library's ``ast`` and changed in the source text, so every other line and
every line number stay as they are.  For each mutant the named test modules
run, with ``-x`` and a time limit per run, on a copy of ``src``, ``tests``,
``demos`` and ``pytest.ini`` in a temporary directory; the working tree is
never written.  A mutant whose tests fail or time out is killed; one whose
tests pass survives, and each survivor's file, line and operator change is
printed.

Run from the repository root::

    python tools/mutants.py                  # every target in TARGETS
    python tools/mutants.py lp._satisfies    # some of them

A target is ``module.function`` or ``module.Class.method``, with the module
named inside ``noarb``; add one to ``TARGETS`` with its test modules.  Exit
status: 0 when every mutant is killed, 1 when one survives, 2 when the
unmutated copy fails its tests or a target is not found.
"""

from __future__ import annotations

import argparse
import ast
import os
import re
import shutil
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

#: The targets, each with the test modules that run against it.
TARGETS = {
    "lp.LpProblem._store": ["tests/test_lp.py"],
    "lp._lowest": ["tests/test_lp.py"],
    "lp._Simplex.__init__": ["tests/test_lp.py"],
    "lp._satisfies": ["tests/test_lp.py"],
    "lp._dual_objective": ["tests/test_lp.py"],
    "separation._verified_average": ["tests/test_separation.py"],
    "separation._is_separating": ["tests/test_separation.py"],
    "separation.separate_at": ["tests/test_separation.py"],
    "market._one_step": ["tests/test_market.py"],
    "market._budget_ceiling": ["tests/test_market.py"],
    "market._verified_arbitrage": ["tests/test_market.py"],
    "cones.minkowski": ["tests/test_cones.py"],
    "cones.semisolid_member": ["tests/test_cones.py"],
    "cones.capped": ["tests/test_cones.py", "tests/test_separation.py"],
    "cones.covers": ["tests/test_cones.py", "tests/test_separation.py"],
}

_SWAPS = {ast.Lt: ("<", "<="), ast.LtE: ("<=", "<"), ast.Gt: (">", ">="),
          ast.GtE: (">=", ">"), ast.Eq: ("==", "!="), ast.NotEq: ("!=", "==")}
_BOOL = {ast.And: ("and", "or"), ast.Or: ("or", "and")}
#: Seconds per test run: a mutant that makes the simplex cycle is killed
#: by the limit, since ``lp`` has no pivot cap.
TIMEOUT_S = 120


@dataclass(frozen=True)
class Mutant:
    path: Path      # relative to ROOT
    line: int       # 1-based, of the operator
    column: int     # 1-based, in characters
    old: str
    new: str
    start: int      # byte offsets of the operator in the file
    end: int

    def __str__(self) -> str:
        change = f"drop '{self.old}'" if not self.new else f"'{self.old}' -> '{self.new}'"
        return f"{self.path}:{self.line}:{self.column}: {change}"


def _find_function(tree: ast.Module, qualname: str):
    scope, node = tree.body, None
    for part in qualname.split("."):
        node = next((n for n in scope if isinstance(n, (ast.FunctionDef, ast.ClassDef))
                     and n.name == part), None)
        if node is None:
            return None
        scope = node.body
    return node if isinstance(node, ast.FunctionDef) else None


def _offset(line_starts: list[int], lineno: int, col: int) -> int:
    return line_starts[lineno - 1] + col


def _operator_in(source: bytes, start: int, end: int, token: str) -> int | None:
    """The byte offset of ``token`` in source[start:end], outside comments
    and not part of a longer operator or name; None when absent."""
    gap = source[start:end].decode()
    code = "\n".join(line.split("#", 1)[0] for line in gap.split("\n"))
    if token.isalpha():
        pattern = rf"\b{token}\b"
    else:  # '<' must not match '<=' or '<<', nor '=' inside '=='
        pattern = rf"(?<![<>=!]){re.escape(token)}(?![<>=])"
    match = re.search(pattern, code)
    if match is None:
        return None
    return start + len(code[:match.start()].encode())


def mutants_of(root: Path, target: str) -> list[Mutant]:
    """Every single-operator mutant of one target in the tree at ``root``,
    in source order."""
    module, _, qualname = target.partition(".")
    path = Path("src") / "noarb" / f"{module}.py"
    source = (root / path).read_bytes()
    tree = ast.parse(source)
    function = _find_function(tree, qualname)
    if function is None:
        raise LookupError(f"{target}: no such function in {path}")
    line_starts, total = [], 0
    for line in source.split(b"\n"):
        line_starts.append(total)
        total += len(line) + 1

    def at(node, end=False):
        if end:
            return _offset(line_starts, node.end_lineno, node.end_col_offset)
        return _offset(line_starts, node.lineno, node.col_offset)

    found = []

    def add(lo, hi, old, new):
        pos = _operator_in(source, lo, hi, old)
        if pos is not None:
            line = source.count(b"\n", 0, pos) + 1
            column = len(source[line_starts[line - 1]:pos].decode()) + 1
            found.append(Mutant(path, line, column, old, new, pos, pos + len(old.encode())))

    for node in ast.walk(function):
        if isinstance(node, ast.Compare):
            operands = [node.left, *node.comparators]
            for op, left, right in zip(node.ops, operands, operands[1:]):
                if type(op) in _SWAPS:
                    add(at(left, True), at(right), *_SWAPS[type(op)])
        elif isinstance(node, ast.BoolOp):
            for left, right in zip(node.values, node.values[1:]):
                add(at(left, True), at(right), *_BOOL[type(node.op)])
        elif isinstance(node, ast.UnaryOp) and isinstance(node.op, ast.Not):
            add(at(node), at(node.operand), "not", "")
    return sorted(set(found), key=lambda m: m.start)


def _copy_tree(dest: Path) -> None:
    ignore = shutil.ignore_patterns("__pycache__", "*.pyc", "*.egg-info")
    for name in ("src", "tests", "demos"):
        shutil.copytree(ROOT / name, dest / name, ignore=ignore)
    shutil.copy(ROOT / "pytest.ini", dest / "pytest.ini")


def _run_tests(copy: Path, tests: list[str]) -> str:
    """'passed', 'failed' or 'timeout'."""
    command = [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider", *tests]
    # no bytecode cache: a mutant and its restored source can share a size
    # and an mtime second, and a cached .pyc would then run the wrong one
    env = {**os.environ, "PYTHONDONTWRITEBYTECODE": "1"}
    try:
        done = subprocess.run(command, cwd=copy, env=env, stdout=subprocess.DEVNULL,
                              stderr=subprocess.DEVNULL, timeout=TIMEOUT_S)
    except subprocess.TimeoutExpired:
        return "timeout"
    return "passed" if done.returncode == 0 else "failed"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("targets", nargs="*", metavar="TARGET",
                        help=f"one of {', '.join(TARGETS)} (default: all)")
    args = parser.parse_args(argv)
    unknown = [t for t in args.targets if t not in TARGETS]
    if unknown:
        parser.error(f"not in TARGETS: {', '.join(unknown)}")
    plan = {t: TARGETS[t] for t in (args.targets or TARGETS)}

    survivors = []
    with tempfile.TemporaryDirectory(prefix="noarb-mutants-") as tmp:
        # mutants are found and applied in the copy, so the working tree may
        # change while they run
        copy = Path(tmp)
        _copy_tree(copy)
        try:
            mutants = {target: mutants_of(copy, target) for target in plan}
        except LookupError as exc:
            print(f"mutants: {exc}", file=sys.stderr)
            return 2
        for tests in {tuple(t) for t in plan.values()}:
            if _run_tests(copy, list(tests)) != "passed":
                print(f"mutants: {' '.join(tests)} fail on the unmutated tree", file=sys.stderr)
                return 2
        for target, found in mutants.items():
            for mutant in found:
                original = (copy / mutant.path).read_bytes()
                mutated = original[:mutant.start] + mutant.new.encode() + original[mutant.end:]
                (copy / mutant.path).write_bytes(mutated)
                began = time.monotonic()
                result = _run_tests(copy, plan[target])
                (copy / mutant.path).write_bytes(original)
                verdict = "SURVIVED" if result == "passed" else f"killed ({result})"
                print(f"{verdict:16} {target}  {mutant}  [{time.monotonic() - began:.1f} s]",
                      flush=True)
                if result == "passed":
                    survivors.append((target, mutant))
    total = sum(len(found) for found in mutants.values())
    print(f"{total - len(survivors)} of {total} mutants killed")
    for target, mutant in survivors:
        print(f"survivor: {mutant}  ({target})")
    return 1 if survivors else 0


if __name__ == "__main__":
    sys.exit(main())
