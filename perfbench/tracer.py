"""Spans recorded from outside the program.

The tracer replaces public functions at the module attributes their callers
look up at call time (``emanet.cli.parse_participant``,
``emanet.permtest.correlation_matrix``, ...) with timing wrappers, and
wraps ``emanet.cli.child_rng`` so the generators it returns time their
methods: that is how index draws are measured.  An attribute a later change
removes is skipped, so its spans read 0 instead of erroring.

Spans are kept in memory as (name, start_ns, end_ns, parent, op) tuples;
``parent`` is the index of the enclosing span or -1.
"""

from __future__ import annotations

import importlib
import time
from collections import defaultdict

# (module, attribute, span name).  The layer is the span name's prefix.
WRAPS = (
    ("emanet.cli", "main", "cli.main"),
    ("emanet.cli", "parse_participant", "ingest.parse"),
    ("emanet.cli", "backfill_emas", "ingest.backfill"),
    ("emanet.cli", "eligibility", "ingest.eligibility"),
    ("emanet.cli", "categorize", "contexts.categorize"),
    ("emanet.contexts", "categorize", "contexts.categorize"),
    ("emanet.cli", "baseline_pool", "contexts.baseline_pool"),
    ("emanet.cli", "run_context_permutation", "permtest.context_run"),
    ("emanet.cli", "run_baseline_permutation", "permtest.baseline_run"),
    ("emanet.permtest", "ema_matrix", "permtest.ema_matrix"),
    ("emanet.cli", "compare_to_baseline", "stats.ttest"),
    ("emanet.stats", "mean", "stats.moments"),
    ("emanet.stats", "sample_std", "stats.moments"),
    ("emanet.stats", "t_sf", "stats.t_sf"),
    ("emanet.permtest", "correlation_matrix", "netcore.kernel"),
    ("emanet.netcore", "correlation_matrix", "netcore.kernel"),
    ("emanet.permtest", "upper_triangle_sum", "netcore.connectivity"),
    ("emanet.cli", "pearson_network", "netcore.network"),
    ("emanet.cli", "export_network", "netcore.export"),
)
DRAW_SPAN = "permtest.draw"


class Tracer:
    def __init__(self):
        self.spans = []
        self.op = 0
        self.usable = []  # (EMA days, days) per backfill result
        self._stack = []
        self._saved = []

    def timed(self, name, fn):
        spans, stack, clock = self.spans, self._stack, time.perf_counter_ns

        def wrapper(*args, **kwargs):
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[index] = (name, start, end, parent, self.op)

        return wrapper

    def install(self):
        for module_name, attr, name in WRAPS:
            module = importlib.import_module(module_name)
            fn = getattr(module, attr, None)
            if callable(fn):
                self._replace(module, attr, self._observed(name, fn))
        cli = importlib.import_module("emanet.cli")
        child_rng = getattr(cli, "child_rng", None)
        if callable(child_rng):
            self._replace(cli, "child_rng", lambda *a, **kw: TimedGenerator(child_rng(*a, **kw), self))

    def uninstall(self):
        while self._saved:
            module, attr, fn = self._saved.pop()
            setattr(module, attr, fn)

    def _replace(self, module, attr, wrapper):
        self._saved.append((module, attr, getattr(module, attr)))
        setattr(module, attr, wrapper)

    def _observed(self, name, fn):
        wrapper = self.timed(name, fn)
        if name != "ingest.backfill":
            return wrapper

        def backfill(*args, **kwargs):
            ds = wrapper(*args, **kwargs)
            records = getattr(ds, "records", ())
            self.usable.append((sum(1 for r in records if getattr(r, "ema", None) is not None), len(records)))
            return ds

        return backfill


class TimedGenerator:
    """Stands in for a numpy Generator; every method call is a draw span."""

    def __init__(self, generator, tracer: Tracer):
        self._generator = generator
        self._tracer = tracer

    def __getattr__(self, name):
        attr = getattr(self._generator, name)
        if callable(attr):
            attr = self._tracer.timed(DRAW_SPAN, attr)
            setattr(self, name, attr)
        return attr


def per_op(spans) -> dict:
    """op -> {"total": {name: ns}, "self": {name: ns}, "calls": {name: n}}."""
    covered = [0] * len(spans)
    for name, start, end, parent, op in spans:
        if parent >= 0:
            covered[parent] += end - start
    ops = defaultdict(lambda: {"total": defaultdict(int), "self": defaultdict(int), "calls": defaultdict(int)})
    for i, (name, start, end, parent, op) in enumerate(spans):
        agg = ops[op]
        agg["total"][name] += end - start
        agg["self"][name] += end - start - covered[i]
        agg["calls"][name] += 1
    return ops


def write_spans(spans, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("op,name,start_ns,end_ns,parent\n")
        for name, start, end, parent, op in spans:
            fh.write(f"{op},{name},{start},{end},{parent}\n")
