"""No syntax or standard-library name newer than the Python floor, 3.11.

Parsing with the 3.11 grammar and flagging the 3.12–3.14 names this code could
plausibly reach for fails a slip on whatever Python runs the tests, even in a
branch no test executes; only a run on 3.11 shows that the code works there.
"""

import ast
import tomllib
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
FLOOR = (3, 11)
SCANNED = sorted(
    p for pattern in ("src/multiport/*.py", "demos/*.py", "tests/*.py") for p in ROOT.glob(pattern)
)

# Modules and module-level names added in 3.12, 3.13 and 3.14, by full dotted path.
NEW_NAMES = {
    "itertools.batched", "math.sumprod", "os.path.splitroot", "os.path.isjunction",
    "random.binomialvariate", "typing.override", "typing.TypeAliasType",
    "collections.abc.Buffer", "types.get_original_bases", "sys.monitoring",
    "copy.replace", "warnings.deprecated", "math.fma", "os.process_cpu_count", "re.PatternError",
    "typing.ReadOnly", "typing.TypeIs", "typing.NoDefault", "dbm.sqlite3",
    "annotationlib", "compression", "string.templatelib", "concurrent.interpreters",
}
# Methods that only newer objects have, whatever the object is called.
NEW_METHODS = {"full_match", "from_uri", "is_junction"}
# Keywords added to functions that 3.11 already has; ``add_*`` are methods.
NEW_KEYWORDS = {
    "shutil.rmtree": {"onexc"}, "tempfile.TemporaryDirectory": {"delete"}, "add_parser": {"deprecated"},
    "argparse.ArgumentParser": {"suggest_on_error", "color"}, "add_argument": {"deprecated"},
}


def newer_python_names(source: str) -> list[str]:
    """The names of ``source`` that 3.11 lacks, as ``line: name``; newer syntax raises."""
    tree = ast.parse(source, feature_version=FLOOR)
    bound = {}  # local name -> the dotted path it is bound to
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                top = alias.name.split(".")[0]
                bound[alias.asname or top] = alias.name if alias.asname else top
                if alias.name in NEW_NAMES:
                    found.append(f"{node.lineno}: {alias.name}")
        elif isinstance(node, ast.ImportFrom) and node.module and not node.level:
            for alias in node.names:
                bound[alias.asname or alias.name] = f"{node.module}.{alias.name}"
            for path in {node.module} | {f"{node.module}.{a.name}" for a in node.names}:
                if path in NEW_NAMES:
                    found.append(f"{node.lineno}: {path}")

    def resolved(expr):
        parts = []
        while isinstance(expr, ast.Attribute):
            parts.append(expr.attr)
            expr = expr.value
        if isinstance(expr, ast.Name) and expr.id in bound:
            return ".".join([bound[expr.id]] + parts[::-1])

    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute):
            if node.attr in NEW_METHODS:
                found.append(f"{node.lineno}: .{node.attr}")
            if resolved(node) in NEW_NAMES:
                found.append(f"{node.lineno}: {resolved(node)}")
        elif isinstance(node, ast.Call):
            func = node.func
            path = resolved(func) or (f".{func.attr}" if isinstance(func, ast.Attribute) else None)
            new = NEW_KEYWORDS.get(path, set()) | NEW_KEYWORDS.get(path and path[1:], set())
            for keyword in node.keywords:
                if keyword.arg in new:
                    found.append(f"{node.lineno}: {path}({keyword.arg}=...)")
    return sorted(set(found), key=lambda s: int(s.split(":")[0]))


def test_the_scan_covers_the_package_and_demos_at_the_declared_floor():
    names = {p.relative_to(ROOT).as_posix() for p in SCANNED}
    assert {"src/multiport/cli.py", "src/multiport/linalg.py", "tests/test_cli.py"} <= names
    assert any(name.startswith("demos/") for name in names)
    project = tomllib.loads((ROOT / "pyproject.toml").read_text())["project"]
    assert project["requires-python"] == ">={}.{}".format(*FLOOR)


@pytest.mark.parametrize("path", SCANNED, ids=lambda p: p.relative_to(ROOT).as_posix())
def test_no_name_newer_than_the_python_floor(path):
    assert newer_python_names(path.read_text()) == []


@pytest.mark.parametrize(
    "source, expected",
    [
        ("import itertools\nx = itertools.batched(a, 2)", ["2: itertools.batched"]),
        ("from typing import override", ["1: typing.override"]),
        ("import os.path\nx = os.path.splitroot(p)", ["2: os.path.splitroot"]),
        ("from os import path as q\nx = q.isjunction(p)", ["2: os.path.isjunction"]),
        ("import copy as c\nx = c.replace(obj, a=1)", ["2: copy.replace"]),
        ("from string.templatelib import Template", ["1: string.templatelib"]),
        ("x = ROOT.full_match('*.py')", ["1: .full_match"]),
        ("import shutil\nshutil.rmtree(d, onexc=f)", ["2: shutil.rmtree(onexc=...)"]),
        ("from shutil import rmtree as r\nr(d, onexc=f)", ["2: shutil.rmtree(onexc=...)"]),
        ("p.add_argument('--x', deprecated=True)", ["1: .add_argument(deprecated=...)"]),
        # what 3.11 has, and mentions that are not code
        ("import tomllib, math\nx = math.prod(tomllib.loads(s)['a'])", []),
        ("import shutil, os\nshutil.rmtree(d, onerror=f)\nfor r in os.walk(d): pass", []),
        ('"""itertools.batched"""\n# x.full_match\ns = "copy.replace"', []),
    ],
)
def test_scan_flags_names_python_3_11_lacks(source, expected):
    assert newer_python_names(source) == expected
