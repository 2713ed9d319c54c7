"""The public surface: root exports, module exports, and the README's code."""

import importlib
import pkgutil
import re
import shlex
import tomllib
from pathlib import Path

import pytest

import multiport
from multiport.cli import main

ROOT = Path(__file__).resolve().parents[1]
README = ROOT / "README.md"

MODULES = ["multiport"] + [
    f"multiport.{info.name}" for info in pkgutil.iter_modules(multiport.__path__)
]


def test_root_exports_what_callers_reach_through_it():
    assert sorted(multiport.__all__) == [
        "calibrate_sigma",
        "component_fidelity_estimate",
        "decompose",
        "factor_count_bound",
        "haar_random_unitary",
        "json_to_plan",
        "plan_to_json",
        "reconstruct",
        "sweep_noise",
        "sweep_size",
        "verify",
    ]


@pytest.mark.parametrize("name", MODULES)
def test_every_export_resolves(name):
    module = importlib.import_module(name)
    assert len(set(module.__all__)) == len(module.__all__)
    for attr in module.__all__:
        assert hasattr(module, attr), f"{name}.{attr}"


def readme_python_blocks():
    return re.findall(r"^```python\n(.*?)^```$", README.read_text(), re.M | re.S)


def test_readme_has_two_python_blocks():
    assert len(readme_python_blocks()) == 2


@pytest.mark.parametrize("index", [0, 1])
def test_readme_python_block_runs(index, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    exec(compile(readme_python_blocks()[index], f"README.md block {index}", "exec"), {})


def readme_cli_commands():
    """The ``multiport ...`` lines of the README's CLI block, continuations joined."""
    blocks = re.findall(r"^```sh\n(.*?)^```$", README.read_text(), re.M | re.S)
    (block,) = [b for b in blocks if b.startswith("multiport ")]
    return [shlex.split(line) for line in block.replace("\\\n", " ").splitlines()]


def test_readme_cli_block_runs(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    commands = readme_cli_commands()
    assert len(commands) == 7 and all(argv[0] == "multiport" for argv in commands)
    for argv in commands:
        assert main(argv[1:]) == 0, (argv, capsys.readouterr().err)


def test_readme_decompose_summary_is_what_its_commands_print(tmp_path, monkeypatch, capsys):
    """The README's ``random`` and ``decompose`` commands print its summary
    block; ``max_error`` is matched as a rounding-level number only, since
    its last digits depend on the numpy and BLAS build."""
    intro = "`multiport decompose` checks the plan it writes and prints a summary"
    after = README.read_text().split(intro, 1)[1]
    documented = re.search(r"^```text\n(.*?)^```$", after, re.M | re.S)[1].splitlines()
    monkeypatch.chdir(tmp_path)
    random_argv, decompose_argv = readme_cli_commands()[:2]
    assert main(random_argv[1:]) == 0
    capsys.readouterr()
    assert main(decompose_argv[1:]) == 0
    printed = capsys.readouterr().out.splitlines()
    assert len(printed) == len(documented)
    for line, expected in zip(printed, documented):
        if expected.startswith("max_error = "):
            assert re.fullmatch(r"max_error = \d\.\d{3}e-1[5-7]", line), line
            assert re.fullmatch(r"max_error = \d\.\d{3}e-1[5-7]", expected), expected
        else:
            assert line == expected


def test_readme_states_the_floors_of_pyproject():
    project = tomllib.loads((ROOT / "pyproject.toml").read_text())["project"]
    stated = re.search(
        r"Requires\s+Python\s+>=\s+(\S+)\s+and\s+numpy\s+>=\s+(\S+?),.*?scipy\s+>=\s+(\S+)\s",
        README.read_text(),
        re.S,
    )
    python, numpy, scipy = stated.groups()
    assert project["requires-python"] == f">={python}"
    assert f"numpy>={numpy}" in project["dependencies"]
    assert f"scipy>={scipy}" in project["optional-dependencies"]["test"]
