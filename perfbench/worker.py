"""Run one workload in this (fresh) process and print its result as JSON.

Started by run.py; not meant to be called by hand.  With ``--trace 0`` it
runs jobs in a closed loop for ``--seconds`` (always at least one whole
job) and reports end-to-end metrics.  With ``--trace 1`` it runs job 0 once
untraced and once traced, reports the per-layer metrics of the traced job,
the tracing overhead (traced minus untraced host-normalised wall time), and
writes the spans to ``.perfbench_out/<workload>-trace1/trace.json``.

Outputs are checked after the timed work, never inside it.
"""

from __future__ import annotations

import argparse
import ctypes
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time

import numpy as np
import scipy

import tracing
import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


# About what host_reference_s() takes on the 2-core host the benchmark was
# tuned on when that host runs fast.  End-to-end times are reported in
# seconds of such a host (see host_normalized).
HOST_REF_NOMINAL_S = 0.05


def host_reference_s():
    """Time a fixed numpy loop that never touches the package: small QRs and
    products, Python-overhead bound like the package itself (about 50 ms).

    Matrices stay at 4 x 4 so OpenBLAS never threads: a threaded call waits
    for a second core, and on a shared host that wait can cost 20x, which
    says nothing about how fast the package's own (mostly serial) work runs.
    """
    rng = np.random.default_rng(20230921)
    small = rng.standard_normal((2000, 4, 4)) + 1j * rng.standard_normal((2000, 4, 4))
    start = time.perf_counter()
    for a in small:
        q, r = np.linalg.qr(a)
        a @ q
    return time.perf_counter() - start


def blas_threads():
    """Thread count of each OpenBLAS loaded (numpy and scipy bundle their own)."""
    try:
        with open("/proc/self/maps", encoding="ascii", errors="replace") as fh:
            paths = sorted({line.split()[-1] for line in fh if "openblas" in line.lower()})
    except OSError:
        return {}
    threads = {}
    for path in paths:
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for prefix in ("scipy_openblas", "openblas"):
            fn = getattr(lib, f"{prefix}_get_num_threads64_", None) or getattr(lib, f"{prefix}_get_num_threads", None)
            if fn is not None:
                fn.restype = ctypes.c_int
                threads[os.path.basename(path)] = int(fn())
                break
    return threads


def source_digest():
    """SHA-256 over the package sources: identifies the code under test even
    in a checkout that is not a git repository."""
    digest = hashlib.sha256()
    src = os.path.join(ROOT, "src", "multiport")
    for name in sorted(os.listdir(src)):
        if name.endswith(".py"):
            digest.update(name.encode())
            with open(os.path.join(src, name), "rb") as fh:
                digest.update(fh.read())
    return digest.hexdigest()


def git_commit():
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return None
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() or None


def environment(seed):
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": blas_threads(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "git_commit": git_commit(),
        "source_sha256": source_digest(),
        "seed": seed,
    }


def peak_rss_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0  # KiB on Linux


def host_normalized(record):
    """Request latencies in seconds of the nominal host.

    Shared hosts drift between speeds that differ by up to 2x, over seconds
    and over minutes, so raw wall times of identical runs spread by 20-35%.
    The host reference loop is timed right before and right after every
    request; dividing each latency by the mean of those two readings (and
    multiplying by the loop's nominal time) cancels most of that drift.  The
    raw times stay in the report.
    """
    ref = record["host_ref_s"]
    return [normalize(req["latency_s"], ref[i], ref[i + 1]) for i, req in enumerate(record["requests"])]


def normalize(seconds, ref_before, ref_after):
    """``seconds`` measured between two host readings, in nominal-host seconds."""
    return seconds * 2.0 * HOST_REF_NOMINAL_S / (ref_before + ref_after)


def end_to_end(records):
    """Job time and request latency percentiles, median over the run's jobs."""
    latencies = [host_normalized(r) for r in records]
    return {
        "wall_s": (statistics.median(sum(lat) for lat in latencies), "s"),
        "request_ms_p50": (1000.0 * statistics.median(workloads.percentile(lat, 50) for lat in latencies), "ms"),
        "request_ms_p90": (1000.0 * statistics.median(workloads.percentile(lat, 90) for lat in latencies), "ms"),
    }


def per_layer(tracer, traced, untraced, host_ref):
    summary = tracer.summary()
    metrics = tracing.layer_metrics(summary)
    errs = [res["err"] for res in traced["requests"] if "err" in res]
    metrics["decomposition.roundtrip_err_max"] = (max(errs) if errs else 0.0, "1")
    metrics["decomposition.eps_gate_misses"] = (
        sum(1 for res in traced["requests"] if "raised" in res or "roundtrip_above_eps_gate" in res.get("gate", ())), "count")
    metrics["host.ref_s"] = (host_ref, "s")
    # Host-normalised like the end-to-end times: raw differences of two
    # single jobs mostly measure the host's speed changes.
    overhead = sum(host_normalized(traced)) - sum(host_normalized(untraced))
    metrics["trace.overhead_s"] = (overhead, "s")
    split = tracing.layer_split(summary, traced["wall_s"], tracer.top_level_s())
    return metrics, summary, split


def main(argv=None):
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--smoke", action="store_true")
    args = parser.parse_args(argv)

    import multiport  # noqa: F401  (fail before timing anything if absent)

    out_dir = os.path.join(ROOT, ".perfbench_out", f"{args.workload}-trace{args.trace}")
    shutil.rmtree(out_dir, ignore_errors=True)
    os.makedirs(out_dir)
    env = environment(args.seed)
    env["host_ref_s_before"] = host_reference_s()
    workload = workloads.make_workload(args.workload, args.seed, args.smoke)

    report = {"workload": args.workload, "smoke": args.smoke, "env": env}
    if args.trace:
        untraced = workload.job(0, out_dir, host_reference_s, "-untraced")
        tracer = tracing.Tracer()
        tracer.install()
        try:
            traced = workload.job(0, out_dir, host_reference_s, "-traced")
        finally:
            tracer.uninstall()
        records = [untraced, traced]
    else:
        records = []
        start = time.perf_counter()
        while not records or time.perf_counter() - start < args.seconds:
            records.append(workload.job(len(records), out_dir, host_reference_s))
        report["peak_rss_mb"] = peak_rss_mb()
    env["host_ref_s_after"] = host_reference_s()
    outcome = workload.check(records)

    if args.trace:
        host_ref = statistics.mean([env["host_ref_s_before"], env["host_ref_s_after"]])
        metrics, summary, split = per_layer(tracer, traced, untraced, host_ref)
        report.update(untraced_wall_s=untraced["wall_s"], traced_wall_s=traced["wall_s"],
                      absent=tracer.absent, spans=len(tracer.spans), layer_self_s=split)
        tracer.write(os.path.join(out_dir, "trace.json"), workload=args.workload, seed=args.seed, summary=summary)
    else:
        metrics = end_to_end(records)
        metrics["peak_rss_mb"] = (report["peak_rss_mb"], "MB")
        report["jobs"] = [
            {"wall_s": r["wall_s"], "host_ref_s": r["host_ref_s"], "latency_s": [q["latency_s"] for q in r["requests"]]}
            for r in records
        ]
    report.update(attempted=outcome.attempted, failed=outcome.failed,
                  failed_frac=outcome.failed / max(outcome.attempted, 1),
                  failure_reasons=outcome.reasons, known_defects=outcome.known_defects,
                  wrong_outputs=outcome.wrong[:20])
    with open(os.path.join(out_dir, "report.json"), "w", encoding="utf-8") as fh:
        json.dump(report, fh, indent=1)
    print("report " + json.dumps(report))
    result = {
        "correct": outcome.correct,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
