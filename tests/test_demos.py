"""Every demo runs end to end at small sizes in a fresh interpreter."""

import os
import re
import subprocess
import sys
import xml.etree.ElementTree as ET
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SMALL = ["--matrices", "2", "--perturbations", "2"]


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


@pytest.mark.parametrize("name", ["noise_sweep.py", "size_scaling.py"])
def test_sweep_demos_write_charts_that_parse(name, tmp_path):
    run_demo(name, *SMALL, "--out", str(tmp_path))
    charts = list(tmp_path.glob("*.svg"))
    assert charts
    for chart in charts:
        assert ET.parse(chart).getroot().tag == "{http://www.w3.org/2000/svg}svg"


def test_cost_threshold_demo():
    assert "verdicts at n =" in run_demo("cost_threshold.py")


@pytest.mark.parametrize("args", [(), ("--n", "12", "--m", "4"), ("--n", "5", "--m", "2")])
def test_walkthrough_explicit_product_matches(args):
    # the demo embeds and multiplies out every Factor of plan.factors by hand
    out = run_demo("decompose_walkthrough.py", *args)
    error = float(re.search(r"explicit embedding error:\s+(\S+)", out).group(1))
    assert error <= 1e-13
