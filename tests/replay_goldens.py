"""Replay every golden CLI case of ``test_cli.CASES`` through a command, one
fresh process per run: once with ``--json`` against the case's ``.json``
golden and once without against its ``.txt`` golden, each with the exit code
the case expects.  Tier-1 runs the same cases in one process, sharing one
parser.

    PYTHONPATH=src python tests/replay_goldens.py python -m noarb
    python tests/replay_goldens.py noarb      # the installed console script

Prints one line per run and a diff for each that differs; exits 1 if any does.
"""

from __future__ import annotations

import difflib
import subprocess
import sys

from test_cli import CASES, GOLDEN


def main(command: list[str]) -> int:
    failed = 0
    for name, expected_exit, argv in CASES:
        for flags, suffix in ((["--json"], "json"), ([], "txt")):
            proc = subprocess.run([*command, *flags, *argv], capture_output=True, text=True)
            golden = (GOLDEN / f"{name}.{suffix}").read_text()
            diff = "".join(difflib.unified_diff(
                golden.splitlines(True), proc.stdout.splitlines(True),
                f"tests/golden/{name}.{suffix}", f"{name} ({suffix})"))
            ok = proc.returncode == expected_exit and not diff
            print(f"{'ok  ' if ok else 'FAIL'} {name}.{suffix}: "
                  f"exit {proc.returncode} (expected {expected_exit})")
            if not ok:
                print(diff + proc.stderr)
                failed += 1
    return int(failed > 0)


if __name__ == "__main__":
    if len(sys.argv) < 2:
        sys.exit(__doc__)
    sys.exit(main(sys.argv[1:]))
