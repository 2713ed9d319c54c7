"""End-to-end acceptance suite.

One test per acceptance property, each designed to run green at desk scale
(the whole file finishes in a couple of minutes).  The statistical tests use
fixed master seeds so every run exercises the identical Monte-Carlo stream;
ordering assertions leave three pooled standard errors of slack so they are
robust to reasonable seed changes as well.
"""

import time

import numpy as np
import pytest

from multiport import cli
from multiport.decomposition import decompose, factor_count_bound, reconstruct
from multiport.linalg import _haar
from multiport.robustness import (
    calibrate_sigma,
    component_fidelity_estimate,
    fidelity,
    sweep_noise,
    sweep_size,
)
from multiport.serialize import sweep_results_to_csv


def _pooled_slack(a, b):
    """Three pooled standard errors for comparing two fidelity means."""
    return 3.0 * float(np.hypot(a.std_error, b.std_error))


class _Case:
    def __init__(self, kind, n, m, u, plan, elapsed):
        self.kind = kind
        self.n = n
        self.m = m
        self.u = u
        self.plan = plan
        self.elapsed = elapsed
        self.rebuilt = reconstruct(plan)


@pytest.fixture(scope="module")
def case_suite():
    """200 randomized decompositions shared by the round-trip criteria.

    Mostly Haar inputs across 2 <= m <= n <= 30, with a slice of m = 2 cases
    forced in (the pairwise scheme has an exact factor count to check) and
    every tenth case swapped for a permutation or identity edge case.
    """
    rng = np.random.default_rng(20260825)
    cases = []
    t0 = time.perf_counter()
    for k in range(200):
        n = int(rng.integers(2, 31))
        m = int(rng.integers(2, n + 1))
        if k % 10 == 8:
            kind = "permutation"
            u = np.eye(n, dtype=complex)[rng.permutation(n)]
        elif k % 10 == 9:
            kind = "identity"
            u = np.eye(n, dtype=complex)
        else:
            kind = "haar"
            u = _haar(rng.standard_normal((n, n, 2)))
            if k % 10 < 3:
                m = 2
        t1 = time.perf_counter()
        plan = decompose(u, m)
        cases.append(_Case(kind, n, m, u, plan, time.perf_counter() - t1))
    total = time.perf_counter() - t0
    return cases, total


def test_round_trip_accuracy_over_randomized_suite(case_suite):
    cases, total = case_suite
    worst_err = 0.0
    worst_fid = 1.0
    for c in cases:
        err = float(np.max(np.abs(c.rebuilt - c.u)))
        fid = fidelity(c.u, c.rebuilt)
        assert err <= 1e-9 * c.n, (c.kind, c.n, c.m, err)
        assert fid >= 1.0 - 1e-10, (c.kind, c.n, c.m, fid)
        worst_err = max(worst_err, err / c.n)
        worst_fid = min(worst_fid, fid)
    assert total < 30.0, f"suite took {total:.1f}s"
    print(
        f"PASS: 200/200 round trips, worst err/n = {worst_err:.3e}, "
        f"worst fidelity = {worst_fid:.12f}, {total:.1f}s"
    )


def test_factor_counts_within_bound(case_suite):
    cases, _ = case_suite
    exact = 0
    for c in cases:
        count = len(c.plan.sizes)
        assert count <= factor_count_bound(c.n, c.m), (c.kind, c.n, c.m, count)
        if c.kind == "haar" and c.m == 2:
            assert count == c.n * (c.n - 1) // 2, (c.n, count)
            exact += 1
    assert exact >= 20, "suite lost its pairwise Haar coverage"
    print(f"PASS: all counts within bound, {exact} exact pairwise counts")


def test_structural_zero_postconditions_hold(case_suite):
    # A factor of size s with base row b on 0-based columns c stamps the
    # entries (b - s + i, c[j]), j < i < s, to exact zeros.  No entry is
    # stamped twice, every stamp lies below the diagonal, and on a dense
    # input the stamps tile the strict lower triangle.
    cases, _ = case_suite
    for c in cases:
        stamps = np.zeros((c.n, c.n), dtype=int)
        plan = c.plan
        ends = np.cumsum(plan.sizes).tolist()
        for s, b, end in zip(plan.sizes.tolist(), plan.base_rows.tolist(), ends):
            cols = plan.columns[end - s : end] - 1
            i, j = np.tril_indices(s, -1)
            stamps[b - s + i, cols[j]] += 1  # a factor's own stamps are distinct
        assert stamps.max(initial=0) <= 1, (c.kind, c.n, c.m)
        assert not np.triu(stamps).any(), (c.kind, c.n, c.m)
        if c.kind == "haar":
            np.testing.assert_array_equal(stamps, np.tri(c.n, k=-1, dtype=int))
    print("PASS: stamps disjoint and below the diagonal, tiling it on dense inputs")


def test_fidelity_worked_examples():
    vals = (
        fidelity(np.eye(3), np.eye(3)),
        fidelity(np.eye(3), np.exp(0.7j) * np.eye(3)),
        fidelity(np.eye(2), np.diag([1.0, -1.0])),
        fidelity(np.eye(2), np.diag([1.0, 1j])),
    )
    expected = (1.0, 1.0, 0.0, 0.5)
    for got, want in zip(vals, expected):
        assert got == pytest.approx(want, abs=1e-12)
    print(f"PASS: fidelity examples {vals} match {expected}")


def test_noise_sweep_orders_block_sizes_at_matched_quality():
    """Ordering of whole-matrix fidelity across block sizes, n = 20.

    For each block size the noise grid is calibrated so a single full-size
    block averages each target quality level; larger blocks must then give a
    no-worse matrix fidelity at every matched level, and per block size the
    matrix fidelity must fall as the block quality falls.
    """
    seed = 52001
    levels = (0.999, 0.99, 0.97, 0.95, 0.90, 0.85)
    sizes = (2, 3, 5, 10)
    rows = {}
    for mi, m in enumerate(sizes):
        sigmas = []
        for li, level in enumerate(levels):
            cal = calibrate_sigma(
                m, level, 0.002
            )
            assert abs(cal.achieved - level) <= 0.002, (m, level)
            sigmas.append(cal.sigma)
        rows[m] = sweep_noise(20, [m], sigmas, 20, 5, seed=seed)

    for m in sizes:
        for prev, cur, level in zip(rows[m], rows[m][1:], levels[1:]):
            assert cur.fu.mean < prev.fu.mean, (m, level)
            assert cur.fq.mean < prev.fq.mean, (m, level)
        for r, level in zip(rows[m], levels):
            # Pooled block fidelity includes undersized remainder blocks,
            # which degrade less at fixed sigma, so it can only sit above
            # the calibrated full-block level.
            assert r.fq.mean >= level - 0.02, (m, level, r.fq.mean)

    for li, level in enumerate(levels):
        for m_lo, m_hi in zip(sizes, sizes[1:]):
            lo, hi = rows[m_lo][li], rows[m_hi][li]
            slack = _pooled_slack(lo.fu, hi.fu)
            assert hi.fu.mean >= lo.fu.mean - slack, (level, m_lo, m_hi)
    span =", ".join(
        f"m={m}: {rows[m][0].fu.mean:.3f}..{rows[m][-1].fu.mean:.3f}" for m in sizes
    )
    print(f"PASS: matrix fidelity ordered in m at all 6 levels ({span})")


def test_size_sweep_at_calibrated_component_quality():
    """Matrix fidelity versus size at block quality 0.95 +/- 0.0005.

    Each block size is calibrated once, the calibration is re-checked with
    an independent seed, and the matrix fidelity must fall with n per block
    size while rising with block size at fixed n.
    """
    seed = 62002
    t0 = time.perf_counter()
    results = sweep_size(
        [2, 3, 5, 10], [2, 3, 5, 10, 20, 30], 0.95, 0.0005, 20, 5, seed=seed
    )
    cells = {(r.m, r.n): r for r in results}

    sigma_by_m = {}
    for r in results:
        sigma_by_m.setdefault(r.m, r.sigma)
    for m, sigma in sigma_by_m.items():
        # an independent seed, derived from the master seed
        recheck_seed = int(np.random.SeedSequence([seed, 99, m]).generate_state(1, np.uint64)[0])
        check = component_fidelity_estimate(m, sigma, 300_000, recheck_seed)
        assert 0.9495 <= check.mean <= 0.9505, (m, sigma, check.mean)

    for m in (2, 3, 5, 10):
        seq = [cells[(m, n)] for n in dict.fromkeys((m, 10, 20, 30)) if n >= m]
        for a, b in zip(seq, seq[1:]):
            assert b.fu.mean <= a.fu.mean + _pooled_slack(a.fu, b.fu), (m, a.n, b.n)
    for n in (10, 20, 30):
        row = [cells[(m, n)] for m in (2, 3, 5, 10) if m <= n]
        for a, b in zip(row, row[1:]):
            assert b.fu.mean >= a.fu.mean - _pooled_slack(a.fu, b.fu), (n, a.m, b.m)

    elapsed = time.perf_counter() - t0
    assert elapsed < 300.0, f"size sweep took {elapsed:.0f}s"
    edge = ", ".join(
        f"m={m}: {cells[(m, 30)].fu.mean:.3f}" for m in (2, 3, 5, 10)
    )
    print(f"PASS: 4 calibrations verified independently, n=30 column {edge}, "
          f"{elapsed:.0f}s")


def test_cost_threshold_on_both_sides(capsys):
    # Break-even per-block cost for m = 3 is 3x the pairwise cost at large
    # n; probe 5% on either side at n = 200.
    assert cli.main(
        ["cost", "--n", "200", "--m", "3", "--cm", "2.85", "--c2", "1.0"]
    ) == 0
    cheap = capsys.readouterr().out
    assert "advantageous = True" in cheap
    assert "large-n break-even c_m = 3" in cheap

    assert cli.main(
        ["cost", "--n", "200", "--m", "3", "--cm", "3.15", "--c2", "1.0"]
    ) == 0
    dear = capsys.readouterr().out
    assert "advantageous = False" in dear
    print("PASS: c_m = 2.85 advantageous, c_m = 3.15 not, at n = 200")


def test_sweep_reruns_are_byte_identical(tmp_path):
    first = sweep_noise(6, [2, 3], [0.0, 0.05], 3, 2, seed=11)
    second = sweep_noise(6, [2, 3], [0.0, 0.05], 3, 2, seed=11)
    config = {"seed": 11}
    assert sweep_results_to_csv(first, config) == sweep_results_to_csv(second, config)

    sized = [
        sweep_size([2], [2, 4], 0.95, 0.01, 2, 2, seed=5)
        for _ in range(2)
    ]
    assert sweep_results_to_csv(sized[0]) == sweep_results_to_csv(sized[1])

    paths = [tmp_path / "a.csv", tmp_path / "b.csv"]
    for path in paths:
        code = cli.main(
            [
                "sweep-noise", "--n", "5", "--m-list", "2", "--sigmas", "0.0,0.1",
                "--matrices", "2", "--perturbations", "2", "--seed", "3",
                "--out", str(path),
            ]
        )
        assert code == 0
    assert paths[0].read_bytes() == paths[1].read_bytes()
    print("PASS: noise and size sweeps byte-identical on rerun (library and CLI)")
