"""The benchmark's own tests.

    python3 -m pytest perfbench

The smoke runs check the output contract: every metric BENCHMARK.json names
is printed with its unit, on every workload, traced and untraced.  The rest
check the pieces that decide correctness without running the program.
"""

import json
import os
import shutil
import subprocess
import sys
import types

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import tracing  # noqa: E402
import workloads  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
    SPEC = json.load(fh)


def _run(cwd, workload, trace, seed=3):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", "1", "--trace", str(trace), "--smoke"],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_smoke_run_prints_every_metric_with_its_unit(workload, trace):
    proc = _run(ROOT, workload, trace)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["attempted"] >= 1
    expected = SPEC["per_layer" if trace else "end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in expected}
    for m in expected:
        got = result["metrics"][m["name"]]
        assert set(got) == {"value", "unit"}
        assert got["unit"] == m["unit"], m["name"]
        assert isinstance(got["value"], (int, float))
    if not trace:
        assert all(result["metrics"][m["name"]]["value"] > 0 for m in expected)


def test_benchmark_fails_without_the_package(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run(tmp_path, "compile", 0)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""


def test_tracer_links_parents_reports_absent_names_and_restores():
    mod = types.ModuleType("fake_layer")

    def leaf(x):
        return x + 1

    def outer(x):
        return mod.leaf(x) + mod.leaf(x)

    mod.leaf, mod.outer = leaf, outer
    sys.modules["fake_layer"] = mod
    tracer = tracing.Tracer()
    tracer.install([
        ("fake_layer", "outer", "a.outer", None),
        ("fake_layer", "leaf", "b.leaf", lambda args, kwargs, result: {"items": result}),
        ("fake_layer", "deleted", "c.gone", None),
    ])
    try:
        assert mod.outer(1) == 4
    finally:
        tracer.uninstall()
    assert mod.leaf is leaf and mod.outer is outer
    assert tracer.absent == ["fake_layer.deleted"]
    assert [(s[0], s[1]) for s in tracer.spans] == [("a.outer", -1), ("b.leaf", 0), ("b.leaf", 0)]
    summary = tracer.summary()
    assert summary["b.leaf"]["calls"] == 2 and summary["b.leaf"]["items"] == 4
    outer_span = tracer.spans[0]
    children = sum(s[3] - s[2] for s in tracer.spans[1:])
    assert summary["a.outer"]["self_s"] == pytest.approx(outer_span[3] - outer_span[2] - children)


@pytest.mark.parametrize("name", ["noise-sweep", "size-sweep"])
def test_reference_check_accepts_the_reference_and_flags_a_shifted_cell(name):
    wl = workloads.make_workload(name, seed=1)
    _, cells = workloads.read_sweep_csv(os.path.join(workloads.REFERENCE_DIR, name + ".csv"))
    ref = {wl._key(c): c for c in cells}
    assert all(wl._against_reference(c, ref[wl._key(c)]) is None for c in cells)
    assert wl._trend_violations(cells) == []
    moved = dict(cells[-1], fu=cells[-1]["fu"] - 10 * workloads.REFERENCE_SIGMAS * cells[-1]["fu_se"])
    assert wl._against_reference(moved, ref[wl._key(moved)]) == "fu_vs_reference"


def test_benchmark_json_names_only_known_workloads():
    assert {w["name"] for w in SPEC["workloads"]} <= set(workloads.WORKLOADS)


def test_compile_mix_covers_every_pair_and_structured_kind_with_a_fixed_quarter():
    cycle = workloads.compile_cycle(workloads.COMPILE_PAIRS)
    assert {(n, m) for n, m, _ in cycle} == set(workloads.COMPILE_PAIRS)
    structured = [kind for _, _, kind in cycle if kind != "haar"]
    assert set(structured) == set(workloads.STRUCTURED_KINDS)
    assert 4 * len(structured) == len(cycle)
    assert (100, 2, "haar") in cycle


def test_compile_check_tallies_near_degenerate_misses_apart_from_failures():
    wl = workloads.make_workload("compile", seed=1)
    near = workloads.NEAR_DEGENERATE_KINDS[0]
    requests = [
        {"kind": "haar", "gate": [], "wrong": []},
        {"kind": near, "gate": ["roundtrip_above_eps_gate"], "wrong": []},
        {"kind": near, "raised": "DecompositionError: residual"},
        {"kind": "block-diagonal", "gate": ["roundtrip_above_eps_gate"], "wrong": []},
        {"kind": near, "gate": ["reload_not_bit_identical"], "wrong": ["reload_not_bit_identical"]},
    ]
    outcome = wl.check([{"requests": requests}])
    assert (outcome.attempted, outcome.failed) == (5, 1)
    assert outcome.reasons == {"block-diagonal: roundtrip_above_eps_gate": 1}
    assert sum(outcome.known_defects.values()) == 3
    assert not outcome.correct


def test_percentile_is_harrell_davis_and_passes_a_single_value_through():
    assert workloads.percentile([0.7], 90) == 0.7
    values = [1.0, 2.0, 3.0, 4.0, 5.0]
    assert workloads.percentile(values, 50) == pytest.approx(3.0)
    assert 4.0 < workloads.percentile(values, 90) < 5.0
