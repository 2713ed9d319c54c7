"""Every demo runs end to end at small sizes in a fresh interpreter."""

import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


def run_demo(name, *args):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, str(ROOT / "demos" / name), *args],
        capture_output=True,
        text=True,
        env=env,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def test_cost_threshold_demo():
    assert "verdicts at n =" in run_demo("cost_threshold.py")


@pytest.mark.parametrize("args", [(), ("--n", "12", "--m", "4"), ("--n", "5", "--m", "2")])
def test_walkthrough_explicit_product_matches(args):
    # the demo embeds and multiplies out every block of plan.factors by hand
    out = run_demo("decompose_walkthrough.py", *args)
    error = float(re.search(r"explicit embedding error:\s+(\S+)", out).group(1))
    assert error <= 1e-13


def test_every_demo_is_run_here():
    # a demo without a test here drifts from the library unnoticed
    assert sorted(p.name for p in (ROOT / "demos").glob("*.py")) == [
        "cost_threshold.py",
        "decompose_walkthrough.py",
    ]
