"""Outside-in tracing: wrap the module-global names one layer calls another by.

Nothing inside ``multiport`` is edited.  Python resolves a module-level name
such as ``robustness.perturb_factor`` when the calling line runs, so
replacing that binding with a timing wrapper records every call made through
it.  Spans stay in memory as ``[name, parent, start, end, attrs]`` lists
(``parent`` is the index of the enclosing span, -1 at top level) and are
written out once, after the traced job.

A name the package no longer defines is reported as absent rather than
raising, so the table below can outlive refactors that delete a function.
"""

from __future__ import annotations

import functools
import importlib
import json
import time
from collections import defaultdict


def _haar_matrices(args, kwargs, result):
    count = kwargs["count"] if "count" in kwargs else (args[2] if len(args) > 2 else None)
    return {"matrices": 1 if count is None else int(count)}


def _plan_factors(args, kwargs, result):
    return {"factors": len(result.factors)}


def _calibration_probes(args, kwargs, result):
    return {"probes": int(result.probes)}


def _text_bytes(args, kwargs, result):
    return {"bytes": len(result)}


def _svg_bytes(args, kwargs, result):
    svg = kwargs["svg_text"] if "svg_text" in kwargs else args[1]
    return {"bytes": len(svg)}


# (module, attribute, span name, attrs recorded from (args, kwargs, result)).
# Span names are "<layer>.<operation>"; the layer is the module whose code
# the call enters.  The first block is how the sweeps reach each layer, the
# last how the compile workload's requests do (through the package root).
WRAPS = (
    ("multiport.cli", "sweep_noise", "robustness.sweep", None),
    ("multiport.cli", "sweep_size", "robustness.sweep", None),
    ("multiport.cli", "save_sweep_results", "serialize.csv", None),
    ("multiport.cli", "save_chart", "svgchart.save_chart", _svg_bytes),
    ("multiport.robustness", "calibrate_sigma", "robustness.calibrate", _calibration_probes),
    ("multiport.robustness", "component_fidelity_estimate", "robustness.estimate", None),
    ("multiport.robustness", "perturb_factor", "robustness.perturb_factor", None),
    ("multiport.robustness", "decompose", "decomposition.decompose", _plan_factors),
    ("multiport.robustness", "haar_random_unitary", "linalg.haar_random_unitary", None),
    ("multiport.robustness", "sample_haar", "linalg.sample_haar", _haar_matrices),
    ("multiport.linalg", "sample_haar", "linalg.sample_haar", _haar_matrices),
    ("multiport.decomposition", "rq_decompose", "linalg.rq", None),
    ("multiport", "decompose", "decomposition.decompose", _plan_factors),
    ("multiport", "verify", "decomposition.verify", None),
    ("multiport", "reconstruct", "decomposition.reconstruct", None),
    ("multiport", "plan_to_json", "serialize.plan_write", _text_bytes),
    ("multiport", "json_to_plan", "serialize.plan_read", None),
)


class Tracer:
    """Records one span per call through each wrapped name.

    Single-threaded by design: the parent of a span is whatever span is open
    when the call starts.
    """

    def __init__(self):
        self.spans = []
        self.absent = []
        self._open = []
        self._patched = []

    def install(self, wraps=WRAPS):
        for module_name, attr, span_name, measure in wraps:
            module = importlib.import_module(module_name)
            original = getattr(module, attr, None)
            if original is None:
                self.absent.append(f"{module_name}.{attr}")
                continue
            setattr(module, attr, self._wrap(original, span_name, measure))
            self._patched.append((module, attr, original))

    def uninstall(self):
        for module, attr, original in reversed(self._patched):
            setattr(module, attr, original)
        self._patched.clear()

    def _wrap(self, fn, span_name, measure):
        spans, open_spans = self.spans, self._open

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [span_name, open_spans[-1] if open_spans else -1, time.perf_counter(), 0.0, None]
            open_spans.append(len(spans))
            spans.append(span)
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                span[4] = {"error": type(exc).__name__}
                raise
            finally:
                span[3] = time.perf_counter()
                open_spans.pop()
            if measure is not None:
                span[4] = measure(args, kwargs, result)
            return result

        return traced

    def summary(self):
        """Per span name: calls, total seconds, self seconds, summed attrs, errors."""
        child_s = defaultdict(float)
        for name, parent, start, end, attrs in self.spans:
            if parent >= 0:
                child_s[parent] += end - start
        table = defaultdict(lambda: defaultdict(float))
        for index, (name, parent, start, end, attrs) in enumerate(self.spans):
            row = table[name]
            row["calls"] += 1
            row["s"] += end - start
            row["self_s"] += end - start - child_s[index]
            for key, value in (attrs or {}).items():
                if key == "error":
                    row["errors"] += 1
                else:
                    row[key] += value
        return {name: dict(row) for name, row in table.items()}

    def top_level_s(self):
        return sum(end - start for _, parent, start, end, _ in self.spans if parent < 0)

    def write(self, path, **header):
        origin = self.spans[0][2] if self.spans else 0.0
        spans = [
            [name, parent, round(start - origin, 9), round(end - origin, 9), attrs]
            for name, parent, start, end, attrs in self.spans
        ]
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(dict(header, absent=self.absent, spans=spans), fh)


def layer_split(summary, job_wall_s, top_level_s):
    """Self time per layer, plus what no wrapped name covered (CLI and glue)."""
    layers = defaultdict(float)
    for name, row in summary.items():
        layers[name.split(".", 1)[0]] += row["self_s"]
    layers["unwrapped"] = job_wall_s - top_level_s
    return dict(layers)


# Per-layer metrics read off the span summary: (metric, span name, summary
# key, unit).  Counters the workload measures itself (round-trip error) are
# added by the worker.
SPAN_METRICS = (
    ("linalg.sample_haar.calls", "linalg.sample_haar", "calls", "count"),
    ("linalg.sample_haar.matrices", "linalg.sample_haar", "matrices", "count"),
    ("linalg.sample_haar.s", "linalg.sample_haar", "s", "s"),
    ("linalg.rq.calls", "linalg.rq", "calls", "count"),
    ("linalg.rq.s", "linalg.rq", "s", "s"),
    ("decomposition.decompose.calls", "decomposition.decompose", "calls", "count"),
    ("decomposition.decompose.factors", "decomposition.decompose", "factors", "count"),
    ("decomposition.decompose.s", "decomposition.decompose", "s", "s"),
    ("decomposition.verify.s", "decomposition.verify", "s", "s"),
    ("decomposition.errors", "decomposition.decompose", "errors", "count"),
    ("robustness.calibrate.calls", "robustness.calibrate", "calls", "count"),
    ("robustness.calibrate.probes", "robustness.calibrate", "probes", "count"),
    ("robustness.calibrate.s", "robustness.calibrate", "s", "s"),
    ("robustness.estimate.calls", "robustness.estimate", "calls", "count"),
    ("robustness.estimate.s", "robustness.estimate", "s", "s"),
    ("robustness.perturb_factor.calls", "robustness.perturb_factor", "calls", "count"),
    ("robustness.perturb_factor.s", "robustness.perturb_factor", "s", "s"),
    ("robustness.sweep.self_s", "robustness.sweep", "self_s", "s"),
    ("serialize.plan_write.s", "serialize.plan_write", "s", "s"),
    ("serialize.plan_write.bytes", "serialize.plan_write", "bytes", "bytes"),
    ("serialize.plan_read.s", "serialize.plan_read", "s", "s"),
    ("serialize.csv.s", "serialize.csv", "s", "s"),
    ("svgchart.save_chart.s", "svgchart.save_chart", "s", "s"),
    ("svgchart.save_chart.bytes", "svgchart.save_chart", "bytes", "bytes"),
)


def layer_metrics(summary):
    """Metric name -> (value, unit); a span that never ran reads 0."""
    out = {name: (summary.get(span, {}).get(key, 0), unit) for name, span, key, unit in SPAN_METRICS}
    factors = out["decomposition.decompose.factors"][0]
    seconds = out["decomposition.decompose.s"][0]
    out["decomposition.decompose.us_per_factor"] = (1e6 * seconds / factors if factors else 0.0, "us")
    return out
