"""In-memory spans around the program's layer functions, and the metrics derived from them.

The traced client wraps each layer's public functions under every name a
``bidirmr`` module looks them up by (``bidirmr.simulation.test_direction``,
``bidirmr.focusing.std_quantile``, ...), so the program itself is unchanged.
A span is ``[name, start, end, parent, invocation, count]``: ``parent`` is
the index of the enclosing span (-1 at top level), ``invocation`` the index
of the CLI call it belongs to, and ``count`` the work the call did (rows,
ids, resampled values), when the layer has such a count.

Importing this module does not import the program; :meth:`Tracer.install`
does, in the client process only.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import sys
import time


def _resampled(fn):
    signature = inspect.signature(fn)

    def count(args, kwargs, result):
        bound = signature.bind(*args, **kwargs)
        bound.apply_defaults()
        return int(bound.arguments["n_boot"]) * len(bound.arguments["ratios"])

    return count


# (span name, defining module, attribute, count factory). The count factory
# gets the original function and returns count(args, kwargs, result).
TARGETS = (
    ("cli.main", "bidirmr.cli", "main", None),
    ("gwasio.load_gwas", "bidirmr.gwasio", "load_gwas", lambda fn: lambda a, k, r: r.n),
    ("gwasio.harmonize", "bidirmr.gwasio", "harmonize",
     lambda fn: lambda a, k, r: [len(r), (a[0] if a else k["exposure"]).n]),
    ("gwasio.write_tsv_rows", "bidirmr.gwasio", "write_tsv_rows",
     lambda fn: lambda a, k, r: len(a[2] if len(a) > 2 else k["rows"])),
    ("gwasio.emit_report", "bidirmr.gwasio", "emit_report", None),
    ("focusing.test_direction", "bidirmr.focusing", "test_direction",
     lambda fn: lambda a, k, r: r.focused_size),
    ("focusing.bootstrap_median_sd", "bidirmr.focusing", "bootstrap_median_sd", _resampled),
    ("focusing.Panel.from_arrays", "bidirmr.focusing", "Panel.from_arrays", None),
    ("focusing.Panel.indices_of", "bidirmr.focusing", "Panel.indices_of",
     lambda fn: lambda a, k, r: len(r)),
    ("truncnorm.std_quantile", "bidirmr.truncnorm", "std_quantile", None),
    ("truncnorm.truncnorm_var", "bidirmr.truncnorm", "truncnorm_var", None),
    ("benchmarks.overall_ivw", "bidirmr.benchmarks", "overall_ivw", None),
    ("benchmarks.mr_median", "bidirmr.benchmarks", "mr_median", None),
    ("benchmarks.mr_egger", "bidirmr.benchmarks", "mr_egger", None),
    ("simulation.synthetic_seed", "bidirmr.simulation", "synthetic_seed", None),
    ("simulation.generate_truth", "bidirmr.simulation", "generate_truth", None),
    ("simulation.enforce_separation", "bidirmr.simulation", "enforce_separation", None),
    ("simulation.simulate_panel", "bidirmr.simulation", "simulate_panel", None),
    ("simulation.run_scenario", "bidirmr.simulation", "run_scenario", None),
    ("model.reduced_form", "bidirmr.model", "reduced_form", None),
    ("model.iv_class_masks", "bidirmr.model", "iv_class_masks", None),
)


class Tracer:
    """Records spans in memory; :meth:`dump` writes them out once the run ends."""

    def __init__(self):
        self.spans: list[list] = []
        self.invocation = 0
        self._stack: list[int] = []

    def wrap(self, name, fn, count=None):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, self.invocation, None]
            stack.append(len(spans))
            spans.append(span)
            span[1] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                stack.pop()
            if count is not None:
                span[5] = count(args, kwargs, result)
            return result

        return traced

    def install(self) -> None:
        """Wrap every target under each ``bidirmr`` module name bound to it."""
        for name, module_name, attr, count_factory in TARGETS:
            module = importlib.import_module(module_name)
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(module, cls_name)
                raw = cls.__dict__[meth]
                is_classmethod = isinstance(raw, classmethod)
                fn = raw.__func__ if is_classmethod else raw
                count = count_factory(fn) if count_factory else None
                wrapped = self.wrap(name, fn, count)
                setattr(cls, meth, classmethod(wrapped) if is_classmethod else wrapped)
                continue
            fn = getattr(module, attr)
            count = count_factory(fn) if count_factory else None
            wrapped = self.wrap(name, fn, count)
            for mod_name, mod in list(sys.modules.items()):
                if mod_name.split(".")[0] == "bidirmr" and getattr(mod, attr, None) is fn:
                    setattr(mod, attr, wrapped)

    def dump(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")


def load_spans(path: str) -> list[list]:
    with open(path, encoding="utf-8") as fh:
        return [json.loads(line) for line in fh]


# Per-layer metrics: (metric name, span name, kind). Kinds: busy (total
# seconds inside the call, outermost calls only), self (duration minus the
# time direct child spans cover), calls, count (sum of the span counts),
# mean_count, and share (sum of first count over sum of second).
LAYER_METRICS = (
    ("cli.main.busy_s", "cli.main", "busy"),
    ("cli.self_s", "cli.main", "self"),
    ("gwasio.load_gwas.busy_s", "gwasio.load_gwas", "busy"),
    ("gwasio.load_gwas.rows", "gwasio.load_gwas", "count"),
    ("gwasio.harmonize.busy_s", "gwasio.harmonize", "busy"),
    ("gwasio.harmonize.kept_share", "gwasio.harmonize", "share"),
    ("gwasio.write_tsv_rows.busy_s", "gwasio.write_tsv_rows", "busy"),
    ("gwasio.write_tsv_rows.rows", "gwasio.write_tsv_rows", "count"),
    ("gwasio.emit_report.busy_s", "gwasio.emit_report", "busy"),
    ("focusing.test_direction.busy_s", "focusing.test_direction", "busy"),
    ("focusing.test_direction.calls", "focusing.test_direction", "calls"),
    ("focusing.test_direction.focused_size", "focusing.test_direction", "mean_count"),
    ("focusing.bootstrap_median_sd.busy_s", "focusing.bootstrap_median_sd", "busy"),
    ("focusing.bootstrap_median_sd.values_resampled", "focusing.bootstrap_median_sd", "count"),
    ("focusing.Panel.from_arrays.busy_s", "focusing.Panel.from_arrays", "busy"),
    ("focusing.Panel.from_arrays.calls", "focusing.Panel.from_arrays", "calls"),
    ("focusing.Panel.indices_of.busy_s", "focusing.Panel.indices_of", "busy"),
    ("focusing.Panel.indices_of.ids", "focusing.Panel.indices_of", "count"),
    ("truncnorm.std_quantile.calls", "truncnorm.std_quantile", "calls"),
    ("truncnorm.truncnorm_var.calls", "truncnorm.truncnorm_var", "calls"),
    ("benchmarks.overall_ivw.busy_s", "benchmarks.overall_ivw", "busy"),
    ("benchmarks.mr_median.busy_s", "benchmarks.mr_median", "busy"),
    ("benchmarks.mr_egger.busy_s", "benchmarks.mr_egger", "busy"),
    ("simulation.synthetic_seed.busy_s", "simulation.synthetic_seed", "busy"),
    ("simulation.generate_truth.busy_s", "simulation.generate_truth", "busy"),
    ("simulation.enforce_separation.busy_s", "simulation.enforce_separation", "busy"),
    ("simulation.simulate_panel.busy_s", "simulation.simulate_panel", "busy"),
    ("simulation.run_scenario.self_s", "simulation.run_scenario", "self"),
    ("model.reduced_form.busy_s", "model.reduced_form", "busy"),
    ("model.iv_class_masks.busy_s", "model.iv_class_masks", "busy"),
)

UNITS = {"busy": "s", "self": "s", "calls": "count", "count": "count",
         "mean_count": "count", "share": "ratio"}


def layer_metrics(spans: list[list], rounds: int) -> dict[str, float]:
    """Per-layer metrics per round of the workload's operations.

    Totals (busy and self seconds, calls, counts) are divided by ``rounds``;
    means and shares are not. A layer the workload never calls reads 0.
    """
    child_time = [0.0] * len(spans)
    for span in spans:
        if span[3] >= 0:
            child_time[span[3]] += span[2] - span[1]

    def outermost(i):
        name, parent = spans[i][0], spans[i][3]
        while parent >= 0:
            if spans[parent][0] == name:
                return False
            parent = spans[parent][3]
        return True

    by_name: dict[str, list[int]] = {}
    for i, span in enumerate(spans):
        by_name.setdefault(span[0], []).append(i)

    out = {}
    for metric, name, kind in LAYER_METRICS:
        idx = by_name.get(name, [])
        if kind == "busy":
            value = sum(spans[i][2] - spans[i][1] for i in idx if outermost(i)) / rounds
        elif kind == "self":
            value = sum(spans[i][2] - spans[i][1] - child_time[i] for i in idx) / rounds
        elif kind == "calls":
            value = len(idx) / rounds
        elif kind == "count":
            value = sum(spans[i][5] or 0 for i in idx) / rounds
        elif kind == "mean_count":
            value = sum(spans[i][5] or 0 for i in idx) / len(idx) if idx else 0.0
        else:
            pairs = [spans[i][5] for i in idx if spans[i][5] is not None]
            total = sum(b for _, b in pairs)
            value = sum(a for a, _ in pairs) / total if total else 0.0
        out[metric] = float(value)
    return out
