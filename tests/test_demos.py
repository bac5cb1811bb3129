"""Each demo, run as a script in its own process, prints the bytes recorded
in ``tests/golden/demos/<name>.txt``."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import noarb

DEMOS = sorted((Path(__file__).parents[1] / "demos").glob("*.py"))
GOLDEN = Path(__file__).parent / "golden" / "demos"


def test_every_demo_has_a_golden():
    assert [d.stem for d in DEMOS] == sorted(g.stem for g in GOLDEN.glob("*.txt"))


@pytest.mark.parametrize("demo", DEMOS, ids=[d.stem for d in DEMOS])
def test_demo_prints_its_golden_bytes(demo):
    # the child imports the same package as this process, installed or not
    src = str(Path(noarb.__file__).parents[1])
    env = {**os.environ, "PYTHONIOENCODING": "utf-8", "PYTHONPATH": os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")]))}
    proc = subprocess.run([sys.executable, str(demo)], capture_output=True, env=env,
                          timeout=300)
    assert proc.returncode == 0, proc.stderr.decode()
    assert proc.stdout == (GOLDEN / f"{demo.stem}.txt").read_bytes()
