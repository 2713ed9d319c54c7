"""The three benchmark workloads, their inputs and their output checks.

Why these three (see README.md for the full reasoning):

* ``size-sweep`` is the paper's size-scaling figure through the CLI.  Noise
  calibration (Monte-Carlo probes built on Haar QR) does most of its work;
  decomposition is a few percent.  It exercises the calibration path.  It
  is not in BENCHMARK.json: its single long job cannot be timed steadily.
* ``noise-sweep`` is the paper's noise figure through the CLI.  Its sigmas
  are fixed, so calibration is bypassed and the per-factor noise path
  (perturb, compose, pool statistics) does most of the work.  A change to
  calibration should leave it unchanged.
* ``compile`` is a closed loop of compile requests (decompose, verify,
  write plan, read plan, rebuild) on inputs this file generates.  It
  stresses decomposition and plan serialization and never enters the noise
  code.  Its near-degenerate inputs show a known precision defect, which is
  tallied apart from the failed operations (see NEAR_DEGENERATE_KINDS).

Each workload runs "jobs" in a closed loop: one job is one CLI sweep
invocation, or one cycle of compile requests.  A job returns a record; the
checks run on the records after the timed loop.
"""

from __future__ import annotations

import contextlib
import io
import math
import os
import time
import xml.etree.ElementTree as ET

import numpy as np
import scipy.linalg

HERE = os.path.dirname(os.path.abspath(__file__))
REFERENCE_DIR = os.path.join(HERE, "reference")

# Sweep-cell and calibration checks, in standard errors.  Six keeps the
# chance of a false alarm over every cell of every run far below one in a
# thousand while still catching a wrong noise model or a broken decomposition.
REFERENCE_SIGMAS = 6.0
# The acceptance suite's slack for its trend checks.
TREND_SIGMAS = 3.0
# Monte-Carlo trials for the independent re-check of each calibrated sigma.
RECHECK_TRIALS = 50_000
# A compile request must round-trip within this multiple of n * eps.  Haar
# inputs at n <= 100 land at 0.03-0.2 n*eps on numpy 2.4 / OpenBLAS.
ROUNDTRIP_EPS_MULTIPLE = 4.0

# The README's noise sweep with 2 matrices per cell instead of 20: every
# layer keeps its share of the job, and a job of about 1 s repeats 20-30
# times per run.  Short jobs let the host reference readings around each
# job track the host's speed (see worker.host_normalized); the checks pool
# the jobs of a run, so each cell still rests on 200 or more samples.
NOISE_SWEEP_ARGS = [
    "sweep-noise", "--n", "20", "--m-list", "2,3,5,10",
    "--sigmas", "0.0,0.05,0.1,0.2", "--matrices", "2", "--perturbations", "5",
]
# The README's size sweep with fewer samples per cell and a looser
# calibration window (0.005 instead of 0.0005); all four block sizes and the
# full calibration stay.  At 0.005 the number of calibration probes does not
# depend on the seed (7, 2, 3 and 7 probes for m = 2, 3, 5, 10 on every seed
# tried); at 0.0005 it varies by up to two probes per block size.  A job
# takes 35-50 s, one calibration of m = 10 alone over 30 s, so its time
# cannot be steadied on a shared host and BENCHMARK.json leaves it out; it
# stays runnable for the traced calibration profile and its output checks.
SIZE_SWEEP_ARGS = [
    "sweep-size", "--m-list", "2,3,5,10", "--n-list", "2,3,5,10,20,30",
    "--target-fq", "0.95", "--fq-tol", "0.005", "--matrices", "6", "--perturbations", "4",
]
# Compile mix: every (n, m) pair gets three Haar requests and one structured
# request per cycle, so a fixed quarter of the requests is structured.
COMPILE_PAIRS = [(n, m) for n in (32, 64, 100) for m in (2, 3, 4)]
STRUCTURED_KINDS = ("perm-expm-1e-6", "perm-expm-1e-8", "perm-expm-1e-10", "block-diagonal", "phase-only")
# Near-degenerate inputs (a permutation times expm(i eps H)) hit a known
# defect, ROADMAP item 3: the decomposer treats entries at or below its zero
# threshold (1e-9 n) as cleared, so the round trip loses about eps instead
# of reaching machine precision, and verify passes with as little as 1%
# headroom.  They stay in every cycle and are timed and checked like the
# rest, but a missed gate on them is tallied as a known defect (report
# "known_defects", per-layer "decomposition.eps_gate_misses"), not as a
# failed operation: how many miss depends on the draw (4-5 of the 6 per
# cycle), so as failures they would make the failed count of unchanged code
# vary from run to run, and hide a new failure among them.  Once item 3
# lands their tally should read 0 and they can be gated like the other kinds.
NEAR_DEGENERATE_KINDS = STRUCTURED_KINDS[:3]

SMOKE_NOISE_ARGS = [
    "sweep-noise", "--n", "5", "--m-list", "2,3", "--sigmas", "0.0,0.1",
    "--matrices", "2", "--perturbations", "2",
]
SMOKE_SIZE_ARGS = [
    "sweep-size", "--m-list", "2,3", "--n-list", "2,3,4", "--target-fq", "0.9",
    "--fq-tol", "0.02", "--matrices", "2", "--perturbations", "2",
]
SMOKE_COMPILE_PAIRS = [(6, 2), (6, 3), (8, 2), (8, 3), (8, 4)]


def derived_seed(*parts: int) -> int:
    """A 32-bit seed that is a pure function of non-negative integer parts."""
    return int(np.random.SeedSequence([int(p) for p in parts]).generate_state(1)[0])


def _arg(argv, flag):
    return argv[argv.index(flag) + 1]


def _ints(text):
    return [int(v) for v in text.split(",")]


def percentile(values, q):
    """Harrell-Davis estimate of the q-th percentile, q in [0, 100].

    It weights every order statistic instead of interpolating between two.
    A compile cycle's top decile is a handful of requests of near-equal
    size, and which of them sits at the interpolated rank changes with host
    noise: over six seeds the interpolated p90 spread 15% (interquartile
    range over median), this estimate 5%.
    """
    import scipy.stats.mstats  # late: it adds 40 MB to the peak RSS read before this

    values = np.asarray(values, dtype=float)
    if values.size == 1:
        return float(values[0])
    return float(scipy.stats.mstats.hdquantiles(values, prob=[q / 100.0])[0])


class Outcome:
    """What the checks found: operations attempted and failed, wrong outputs."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.wrong = []  # outputs that break a promise the program makes
        self.reasons = {}  # failure reason -> count
        self.known_defects = {}  # gate missed on a known-defect input -> count

    def fail(self, reason, wrong=False, count=1):
        self.failed += count
        self.reasons[reason] = self.reasons.get(reason, 0) + count
        if wrong:
            self.wrong.append(reason)

    def known_defect(self, reason):
        self.known_defects[reason] = self.known_defects.get(reason, 0) + 1

    @property
    def correct(self):
        return not self.wrong


# --------------------------------------------------------------------------
# Sweeps


def read_sweep_csv(path):
    """Parse a sweep CSV into (config comments, list of cell dicts)."""
    config, cells, header = {}, [], None
    with open(path, encoding="ascii") as fh:
        for line in fh:
            line = line.strip()
            if line.startswith("#"):
                key, _, value = line[1:].partition("=")
                config[key.strip()] = value.strip()
            elif header is None:
                header = line.split(",")
            elif line:
                row = dict(zip(header, line.split(",")))
                cells.append({
                    "n": int(row["n"]), "m": int(row["m"]), "sigma": float(row["sigma"]),
                    "fq": float(row["fq_mean"]), "fq_se": float(row["fq_stderr"]),
                    "fu": float(row["fu_mean"]), "fu_se": float(row["fu_stderr"]),
                    "samples": int(row["samples"]),
                })
    return config, cells


class SweepWorkload:
    """One CLI sweep per job, driven through ``multiport.cli.main(argv)``."""

    def __init__(self, name, argv, seed, smoke):
        self.name = name
        self.argv = list(argv)
        self.seed = seed
        self.smoke = smoke
        self.m_list = _ints(_arg(argv, "--m-list"))
        if name == "noise-sweep":
            sigmas = [float(s) for s in _arg(argv, "--sigmas").split(",")]
            self.cells_per_job = len(self.m_list) * len(sigmas)
        else:
            n_list = _ints(_arg(argv, "--n-list"))
            self.cells_per_job = sum(1 for m in self.m_list for n in n_list if n >= m)

    def job(self, index, out_dir, host_probe, tag=""):
        from multiport import cli

        job_seed = derived_seed(self.seed, index)
        stem = os.path.join(out_dir, f"{self.name}-{index}{tag}")
        argv = self.argv + ["--seed", str(job_seed), "--out", stem + ".csv", "--svg", stem + ".svg"]
        host_ref = [host_probe()]
        start = time.perf_counter()
        with contextlib.redirect_stdout(io.StringIO()):
            code = cli.main(argv)
        wall = time.perf_counter() - start
        host_ref.append(host_probe())
        return {"seed": job_seed, "returncode": code, "wall_s": wall, "host_ref_s": host_ref,
                "requests": [{"latency_s": wall}], "csv": stem + ".csv", "svg": stem + ".svg"}

    def check(self, records):
        outcome = Outcome()
        jobs = []  # (record, cells) of every job whose CLI call succeeded
        for record in records:
            outcome.attempted += self.cells_per_job
            if record["returncode"] != 0:
                outcome.fail("cli_exit_nonzero", count=self.cells_per_job)
                continue
            _, cells = read_sweep_csv(record["csv"])
            if len(cells) != self.cells_per_job:
                outcome.fail("cell_count", wrong=True, count=self.cells_per_job)
                continue
            if not _is_svg(record["svg"]):
                outcome.fail("svg_invalid", wrong=True)
            for cell in cells:
                if cell["sigma"] == 0.0 and max(abs(cell["fu"] - 1.0), abs(cell["fq"] - 1.0)) > 1e-12:
                    outcome.fail("sigma0_not_exact", wrong=True)
            jobs.append((record, cells))
        # Noise-sweep jobs share their sigmas, so their cells pool into one
        # estimate per cell before the statistical checks.  Size-sweep sigmas
        # come from each job's own calibration, so each job stands alone.
        if self.name == "noise-sweep" and jobs:
            groups = [(len(jobs), jobs[0][0]["seed"], _pool([cells for _, cells in jobs]))]
        else:
            groups = [(1, record["seed"], cells) for record, cells in jobs]
        for n_jobs, seed, cells in groups:
            for reason in self._statistical_failures(cells, seed).values():
                outcome.fail(reason, wrong=True, count=n_jobs)
        return outcome

    def _statistical_failures(self, cells, seed):
        """Cell key -> first failed check, for the checks that need full sizes."""
        bad = {}
        if self.smoke:
            return bad
        _, ref_cells = read_sweep_csv(os.path.join(REFERENCE_DIR, self.name + ".csv"))
        reference = {self._key(c): c for c in ref_cells}
        for cell in cells:
            reason = self._against_reference(cell, reference.get(self._key(cell)))
            if reason:
                bad[self._key(cell)] = reason
        for key in self._trend_violations(cells):
            bad.setdefault(key, "trend")
        if self.name == "size-sweep":
            for m in self._miscalibrated(cells, seed):
                for cell in cells:
                    if cell["m"] == m:
                        bad.setdefault(self._key(cell), "calibration_recheck")
        return bad

    def _key(self, cell):
        # Fixed sigmas identify noise-sweep cells; size-sweep sigmas are
        # calibrated, so a correct change to calibration may move them.
        if self.name == "noise-sweep":
            return (cell["n"], cell["m"], cell["sigma"])
        return (cell["n"], cell["m"])

    def _against_reference(self, cell, ref):
        if ref is None:
            return "cell_missing_from_reference"
        if self.name == "noise-sweep":
            fq_slack, expected_fu, ref_fu_se = 0.0, ref["fu"], ref["fu_se"]
        else:
            # Two calibrations may each land anywhere within +/- fq_tol, so
            # block fidelities may differ by up to 2 fq_tol; matrix fidelity
            # then follows log(fu) proportional to (1 - fq) to first order.
            fq_slack = 2.0 * float(_arg(self.argv, "--fq-tol"))
            ratio = (1.0 - cell["fq"]) / (1.0 - ref["fq"])
            expected_fu = ref["fu"] ** ratio
            ref_fu_se = ref["fu_se"] * ratio * expected_fu / ref["fu"]
        if abs(cell["fq"] - ref["fq"]) > REFERENCE_SIGMAS * math.hypot(cell["fq_se"], ref["fq_se"]) + fq_slack:
            return "fq_vs_reference"
        if abs(cell["fu"] - expected_fu) > REFERENCE_SIGMAS * math.hypot(cell["fu_se"], ref_fu_se):
            return "fu_vs_reference"
        return None

    def _trend_violations(self, cells):
        """The acceptance suite's ordering checks, with its 3-SE slack."""
        def slack(a, b):
            return TREND_SIGMAS * math.hypot(a["fu_se"], b["fu_se"])

        out = []
        if self.name == "noise-sweep":
            by_m = {}
            for c in cells:
                by_m.setdefault(c["m"], []).append(c)
            for row in by_m.values():
                row.sort(key=lambda c: c["sigma"])
                for a, b in zip(row, row[1:]):  # fidelity falls as noise grows
                    if not (b["fu"] < a["fu"] and b["fq"] < a["fq"]):
                        out.append(self._key(b))
            for sigma in sorted({c["sigma"] for c in cells}):  # and rises with m
                row = sorted((c for c in cells if c["sigma"] == sigma), key=lambda c: c["m"])
                out += [self._key(b) for a, b in zip(row, row[1:]) if b["fu"] < a["fu"] - slack(a, b)]
            return out
        cell = {(c["m"], c["n"]): c for c in cells}
        n_grid = sorted({c["n"] for c in cells})
        for m in self.m_list:  # matrix fidelity falls with n ...
            seq = [cell[(m, n)] for n in dict.fromkeys([m] + [n for n in n_grid if n >= 10]) if (m, n) in cell]
            out += [self._key(b) for a, b in zip(seq, seq[1:]) if b["fu"] > a["fu"] + slack(a, b)]
        for n in (n for n in n_grid if n >= 10):  # ... and rises with m
            row = [cell[(m, n)] for m in self.m_list if (m, n) in cell]
            out += [self._key(b) for a, b in zip(row, row[1:]) if b["fu"] < a["fu"] - slack(a, b)]
        return out

    def _miscalibrated(self, cells, job_seed):
        """Block sizes whose calibrated sigma misses the target on a fresh seed."""
        import multiport as mp

        target = float(_arg(self.argv, "--target-fq"))
        window = float(_arg(self.argv, "--fq-tol"))
        trials = RECHECK_TRIALS // 10 if self.smoke else RECHECK_TRIALS
        sigma_by_m = {c["m"]: c["sigma"] for c in cells}
        bad = []
        for m, sigma in sigma_by_m.items():
            est = mp.component_fidelity_estimate(m, sigma, trials, derived_seed(job_seed, 99, m))
            if abs(est.mean - target) > window + REFERENCE_SIGMAS * est.std_error:
                bad.append(m)
        return bad


def _pool(cell_lists):
    """Equal-weight pool of same-sized, independent jobs' estimates per cell."""
    pooled = []
    for group in zip(*cell_lists):
        k = len(group)
        cell = dict(group[0], samples=sum(c["samples"] for c in group))
        for stat in ("fq", "fu"):
            cell[stat] = sum(c[stat] for c in group) / k
            cell[stat + "_se"] = math.sqrt(sum(c[stat + "_se"] ** 2 for c in group)) / k
        pooled.append(cell)
    return pooled


def _is_svg(path):
    try:
        root = ET.parse(path).getroot()
    except (OSError, ET.ParseError):
        return False
    return root.tag == "{http://www.w3.org/2000/svg}svg"


# --------------------------------------------------------------------------
# Compile


def _haar(rng, n):
    z = (rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))) / math.sqrt(2.0)
    q, r = np.linalg.qr(z)
    d = np.diagonal(r)
    return q * (d / np.abs(d))


def make_input(rng, n, kind):
    """One compile input; only numpy/scipy are used, never the package."""
    if kind == "haar":
        return _haar(rng, n)
    if kind.startswith("perm-expm-"):
        eps = float(kind[len("perm-expm-"):])
        a = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        h = (a + a.conj().T) / 2.0
        return np.eye(n)[rng.permutation(n)] @ scipy.linalg.expm(1j * eps * h)
    if kind == "block-diagonal":
        sizes = []
        while sum(sizes) < n:
            sizes.append(min(int(rng.integers(1, 9)), n - sum(sizes)))
        return scipy.linalg.block_diag(*(_haar(rng, s) for s in sizes)).astype(np.complex128)
    if kind == "phase-only":
        return np.diag(np.exp(1j * rng.uniform(-np.pi, np.pi, n)))
    raise ValueError(f"unknown input kind {kind!r}")


def compile_cycle(pairs):
    """The fixed request mix of one cycle: (n, m, kind) triples."""
    return [
        (n, m, kind)
        for i, (n, m) in enumerate(pairs)
        for kind in ("haar", "haar", "haar", STRUCTURED_KINDS[i % len(STRUCTURED_KINDS)])
    ]


class CompileWorkload:
    """Closed loop of compile requests through the package's public names."""

    name = "compile"

    def __init__(self, seed, smoke):
        self.seed = seed
        self.requests = compile_cycle(SMOKE_COMPILE_PAIRS if smoke else COMPILE_PAIRS)

    def job(self, index, out_dir, host_probe, tag=""):
        import multiport as mp

        results, host_ref = [], []
        for r, (n, m, kind) in enumerate(self.requests):
            u = make_input(np.random.default_rng([self.seed, index, r]), n, kind)
            host_ref.append(host_probe())
            results.append(self._request(mp, u, n, m, kind))
        host_ref.append(host_probe())
        return {"seed": self.seed, "cycle": index, "requests": results, "host_ref_s": host_ref,
                "wall_s": sum(res["latency_s"] for res in results)}

    @staticmethod
    def _request(mp, u, n, m, kind):
        """decompose -> verify -> plan_to_json -> json_to_plan -> rebuild and compare."""
        res = {"kind": kind}
        start = time.perf_counter()
        try:
            plan = mp.decompose(u, m)
            report = mp.verify(plan, u)
            text = mp.plan_to_json(plan)
            loaded = mp.json_to_plan(text)
            rebuilt = mp.reconstruct(loaded)
            err = float(np.abs(rebuilt - u).max())
        except Exception as exc:  # a raising request is a failed request
            res["latency_s"] = time.perf_counter() - start
            res["raised"] = f"{type(exc).__name__}: {exc}"
            return res
        res["latency_s"] = time.perf_counter() - start
        # Untimed: the gate and the program's own promises.
        eps = np.finfo(np.float64).eps
        count, bound = len(plan.factors), mp.factor_count_bound(n, m)
        res.update(err=err, factors=count, verify_passed=report.passed)
        gate = []
        if err > ROUNDTRIP_EPS_MULTIPLE * n * eps:
            gate.append("roundtrip_above_eps_gate")
        if count > bound:
            gate.append("factor_count_above_bound")
        if kind == "haar" and m == 2 and count != n * (n - 1) // 2:
            gate.append("pairwise_count_not_exact")
        if not np.array_equal(mp.decomposition.reconstruct(plan), rebuilt):  # untraced name
            gate.append("reload_not_bit_identical")
        if not report.passed:
            gate.append("verify_failed")
        res["gate"] = gate
        # Wrong outputs: verify vouching for a plan it should reject, or a
        # plan file that does not read back to the same plan.
        wrong = []
        if report.passed and not (err <= report.tol and count <= bound):
            wrong.append("verify_passed_bad_plan")
        if "reload_not_bit_identical" in gate:
            wrong.append("reload_not_bit_identical")
        res["wrong"] = wrong
        return res

    def check(self, records):
        outcome = Outcome()
        for record in records:
            for res in record["requests"]:
                outcome.attempted += 1
                outcome.wrong += res.get("wrong", [])
                missed = ["raised " + res["raised"].split(":")[0]] if "raised" in res else res["gate"]
                if not missed:
                    continue
                reason = f"{res['kind']}: " + "+".join(missed)
                if res["kind"] in NEAR_DEGENERATE_KINDS:
                    outcome.known_defect(reason)
                else:
                    outcome.fail(reason)
        return outcome


def make_workload(name, seed, smoke=False):
    if name == "compile":
        return CompileWorkload(seed, smoke)
    if name == "noise-sweep":
        return SweepWorkload(name, SMOKE_NOISE_ARGS if smoke else NOISE_SWEEP_ARGS, seed, smoke)
    if name == "size-sweep":
        return SweepWorkload(name, SMOKE_SIZE_ARGS if smoke else SIZE_SWEEP_ARGS, seed, smoke)
    raise ValueError(f"unknown workload {name!r}")


WORKLOADS = ("size-sweep", "noise-sweep", "compile")
