"""No numpy name newer than the declared floor, ``numpy>=1.24``, in the code.

This scans the source for names that numpy added in 1.25 or 2.x, so a
slip such as ``ndarray.mT`` fails here, on whatever numpy runs the tests.
It does not show that the code runs on numpy 1.24: only a test run on that
version does.  Names, not behaviour, are checked; the list is the array-API
additions of numpy 2.0 and the few others this code could plausibly reach
for.
"""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
SCANNED = sorted(
    p for pattern in ("src/multiport/*.py", "demos/*.py", "tests/*.py") for p in ROOT.glob(pattern)
)

# Attributes that only numpy 2 arrays have, whatever the array is called.
NEW_ARRAY_ATTRIBUTES = {"mT", "to_device"}
# Module-level names, by full dotted path.
NEW_NAMES = {
    f"numpy.{name}"
    for name in (
        # numpy 1.25
        "exceptions", "dtypes",
        # numpy 2.0 and later
        "acos", "acosh", "asin", "asinh", "atan", "atanh", "atan2", "astype",
        "bitwise_count", "bitwise_invert", "bitwise_left_shift", "bitwise_right_shift",
        "concat", "cumulative_prod", "cumulative_sum", "isdtype", "long", "ulong",
        "matrix_transpose", "matvec", "permute_dims", "pow", "strings", "trapezoid",
        "unique_all", "unique_counts", "unique_inverse", "unique_values", "unstack",
        "vecdot", "vecmat",
        "linalg.cross", "linalg.diagonal", "linalg.matmul", "linalg.matrix_norm",
        "linalg.matrix_transpose", "linalg.outer", "linalg.svdvals", "linalg.tensordot",
        "linalg.trace", "linalg.vecdot", "linalg.vector_norm",
    )
}
# Keywords that numpy 2 added to functions that numpy 1.24 already has.
NEW_KEYWORDS = {"numpy.asarray": {"copy"}, "numpy.reshape": {"copy", "shape"}}


def _dotted(node):
    """``a.b.c`` of an attribute chain as ``["a", "b", "c"]``, or ``None``."""
    parts = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if not isinstance(node, ast.Name):
        return None
    return [node.id] + parts[::-1]


def newer_numpy_names(source: str) -> list[str]:
    """The names of ``source`` that numpy 1.24 lacks, as ``line: name``."""
    tree = ast.parse(source)
    bound = {}  # local name -> the numpy path it is bound to
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name.split(".")[0] == "numpy":
                    if alias.asname:
                        bound[alias.asname] = alias.name
                    else:
                        bound["numpy"] = "numpy"
        elif isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "numpy":
            for alias in node.names:
                path = f"{node.module}.{alias.name}"
                bound[alias.asname or alias.name] = path
                if path in NEW_NAMES:
                    found.append(f"{node.lineno}: {path}")

    def resolved(expr):
        parts = _dotted(expr)
        if parts is None or parts[0] not in bound:
            return None
        return ".".join([bound[parts[0]]] + parts[1:])

    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute):
            if node.attr in NEW_ARRAY_ATTRIBUTES:
                found.append(f"{node.lineno}: .{node.attr}")
            path = resolved(node)
            if path in NEW_NAMES:
                found.append(f"{node.lineno}: {path}")
        elif isinstance(node, ast.Call):
            path = resolved(node.func) or (
                bound.get(node.func.id) if isinstance(node.func, ast.Name) else None
            )
            for keyword in node.keywords:
                if keyword.arg in NEW_KEYWORDS.get(path, ()):
                    found.append(f"{node.lineno}: {path}({keyword.arg}=...)")
    return sorted(set(found), key=lambda s: int(s.split(":")[0]))


def test_the_scan_covers_the_package_and_demos():
    names = {p.relative_to(ROOT).as_posix() for p in SCANNED}
    assert {"src/multiport/decomposition.py", "src/multiport/linalg.py", "tests/test_cli.py"} <= names
    assert any(name.startswith("demos/") for name in names)


@pytest.mark.parametrize("path", SCANNED, ids=lambda p: p.relative_to(ROOT).as_posix())
def test_no_name_newer_than_the_numpy_floor(path):
    assert newer_numpy_names(path.read_text()) == []


@pytest.mark.parametrize(
    "source, expected",
    [
        ("import numpy as np\ng = np.conj(b).mT @ b", ["2: .mT"]),
        ("import numpy as np\nx = np.concat([a, b])", ["2: numpy.concat"]),
        ("import numpy\nx = numpy.linalg.vector_norm(a)", ["2: numpy.linalg.vector_norm"]),
        ("import numpy.linalg as la\nx = la.vecdot(a, b)", ["2: numpy.linalg.vecdot"]),
        ("from numpy import trapezoid as t\nx = t(y)", ["1: numpy.trapezoid"]),
        ("from numpy import linalg\nx = linalg.matrix_norm(a)", ["2: numpy.linalg.matrix_norm"]),
        ("import numpy as np\nx = np.asarray(a, copy=False)", ["2: numpy.asarray(copy=...)"]),
        ("from numpy import asarray\nx = asarray(a, copy=None)", ["2: numpy.asarray(copy=...)"]),
        ("import numpy as np\nnp.isdtype(a.dtype, 'real floating')", ["2: numpy.isdtype"]),
        # what 1.24 has, and mentions that are not code
        ("import numpy as np\nx = np.concatenate([a, np.asarray(b, dtype=float)])", []),
        ("import numpy as np\nx = np.linalg.norm(a).swapaxes(-1, -2)", []),
        ('"""np.concat and .mT"""\n# x.mT\ns = "np.vecdot"', []),
        ("concat = list\nx = concat(a)", []),
    ],
)
def test_scan_flags_names_numpy_1_24_lacks(source, expected):
    assert newer_numpy_names(source) == expected
