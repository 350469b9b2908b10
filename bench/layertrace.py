"""Spans and counts around batchlab's layer boundaries, kept in memory.

``Tracer.install`` wraps public functions of each layer where the calling
module looks them up (``map_chunks`` as imported into simulators,
moment_zeta and ensemble; ``expected_time_fast`` in batch_exact and
ensemble; ...), so calls the program makes between its own layers are
recorded too.  ``uninstall`` puts the originals back, so untraced passes in
the same process run unwrapped code.

A span is (id, parent, name, start, end).  Worker threads started by
``map_chunks`` get a ``rng.chunk`` span whose parent is the ``map_chunks``
span, so nesting survives the thread hop.  A span's self time is its
duration minus the union of its children's intervals; the self time of a
chunk belongs to the layer that called ``map_chunks``, since the chunk body
is that layer's code.
"""

from __future__ import annotations

import itertools
import threading
import time
from collections import Counter, defaultdict
from dataclasses import dataclass


@dataclass
class Span:
    id: int
    parent: int | None
    name: str
    start: float
    end: float = 0.0


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self.counts: Counter = Counter()
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._lock = threading.Lock()
        self._patches: list = []

    # -- recording -----------------------------------------------------

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def begin(self, name: str, parent: int | None = None) -> Span:
        stack = self._stack()
        if parent is None and stack:
            parent = stack[-1].id
        span = Span(next(self._ids), parent, name, time.perf_counter())
        stack.append(span)
        return span

    def end(self, span: Span) -> None:
        span.end = time.perf_counter()
        self._stack().pop()
        with self._lock:
            self.spans.append(span)

    def count(self, name: str, value) -> None:
        with self._lock:
            self.counts[name] += value

    def reset(self) -> None:
        self.spans, self.counts = [], Counter()

    # -- wrapping --------------------------------------------------------

    def wrap(self, fn, name, before=None, after=None):
        """``fn`` inside a span; ``before(*args, **kw)`` and ``after(result)``
        record counts.  ``name`` may be a callable of the arguments."""
        tracer = self

        def traced(*args, **kwargs):
            if before is not None:
                before(*args, **kwargs)
            span = tracer.begin(name(*args, **kwargs) if callable(name) else name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.end(span)
            if after is not None:
                after(result)
            return result

        traced.__wrapped__ = fn
        return traced

    def patch(self, owner, attr: str, wrapper) -> None:
        original = getattr(owner, attr)
        self._patches.append((owner, attr, original))
        setattr(owner, attr, wrapper)

    def install(self) -> None:
        """Wrap every layer boundary the benchmark reports on."""
        from batchlab import (batch_exact, cli, distributions, ensemble,
                              harness, moment_zeta, simulators)

        count = self.count
        dist_cls = distributions.OverlapDistribution
        self.patch(dist_cls, "sample", self.wrap(
            dist_cls.sample, "distributions.sample",
            before=lambda self_, n, rng: count("distributions.draws", int(n))))
        self.patch(dist_cls, "moments", self.wrap(
            dist_cls.moments, "distributions.moments",
            before=lambda self_, k: count("distributions.moment_orders",
                                          int(getattr(k, "size", 1)))))

        traced_map = self._wrap_map_chunks(simulators.map_chunks)
        for module in (simulators, moment_zeta, ensemble):
            self.patch(module, "map_chunks", traced_map)

        def trials_before(algorithm, dist, n, trials, *a, **kw):
            count("simulators.trials", int(trials))

        traced_runs = self.wrap(
            simulators.run_trials, lambda algorithm, *a, **kw: f"simulators.{algorithm}",
            before=trials_before,
            after=lambda batch: count("simulators.censored", batch.censored))
        for module in (simulators, harness):
            self.patch(module, "run_trials", traced_runs)
        self.patch(simulators, "geometric_steps", self.wrap(
            simulators.geometric_steps, "simulators.geometric_steps",
            before=lambda p, rng: count("simulators.geometric_draws", int(p.size))))

        traced_bulk = self.wrap(
            batch_exact.expected_time_bulk, "batch_exact.bulk",
            before=lambda P, *a, **kw: count("batch_exact.bulk_rows", len(P)))
        traced_fast = self.wrap(
            batch_exact.expected_time_fast, "batch_exact.fast",
            before=lambda p: count("batch_exact.fast_rows", 1))
        for module in (batch_exact, ensemble):
            self.patch(module, "expected_time_bulk", traced_bulk)
            self.patch(module, "expected_time_fast", traced_fast)
        traced_series = self.wrap(batch_exact.expected_time_series,
                                  "batch_exact.series")
        self.patch(batch_exact, "expected_time_series", traced_series)
        self.patch(cli, "expected_time_series", traced_series)
        traced_n_delta = self.wrap(batch_exact.n_delta, "batch_exact.n_delta")
        self.patch(batch_exact, "n_delta", traced_n_delta)
        self.patch(cli, "exact_n_delta", traced_n_delta)

        traced_zeta = self.wrap(
            moment_zeta.zeta, "moment_zeta.zeta",
            after=lambda z: count("moment_zeta.k_used", z.k_used))
        for module in (moment_zeta, ensemble):
            self.patch(module, "zeta", traced_zeta)
        self.patch(moment_zeta, "verify_zeta_expectation", self.wrap(
            moment_zeta.verify_zeta_expectation, "moment_zeta.verify"))

        traced_series_time = self.wrap(
            ensemble.expected_time_moment_series, "ensemble.moment_series",
            after=lambda r: count("ensemble.j_used", r.j_used))
        for module in (ensemble, harness):
            self.patch(module, "expected_time_moment_series", traced_series_time)
        for attr, name in (("alpha1_decomposition", "ensemble.alpha1"),
                           ("extreme_value", "ensemble.extreme_value"),
                           ("regime_window_check", "ensemble.regime_window")):
            self.patch(ensemble, attr, self.wrap(getattr(ensemble, attr), name))
        for attr, name in (("run_scaling", "harness.run_scaling"),
                           ("compare_algorithms", "harness.compare")):
            self.patch(harness, attr, self.wrap(getattr(harness, attr), name))
        self.patch(cli, "main", self.wrap(cli.main, "cli.main"))

    def _wrap_map_chunks(self, map_chunks):
        tracer = self

        def traced_map_chunks(fn, n_items, threads=1, **kw):
            span = tracer.begin("rng.map_chunks")

            def chunk(i, lo, hi):
                tracer.count("rng.chunks", 1)
                inner = tracer.begin("rng.chunk", parent=span.id)
                try:
                    return fn(i, lo, hi)
                finally:
                    tracer.end(inner)

            try:
                return map_chunks(chunk, n_items, threads=threads, **kw)
            finally:
                tracer.end(span)

        traced_map_chunks.__wrapped__ = map_chunks
        return traced_map_chunks

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)


# ----------------------------------------------------------------------
# per-layer figures from the recorded spans
# ----------------------------------------------------------------------


def _covered(intervals) -> float:
    """Length of the union of (start, end) intervals."""
    total, reach = 0.0, None
    for start, end in sorted(intervals):
        if reach is None or start > reach:
            total += end - start
            reach = end
        elif end > reach:
            total += end - reach
            reach = end
    return total


def layer_times(spans: list[Span]) -> tuple[dict, dict]:
    """(inclusive, self) seconds per span name.

    Inclusive time counts only the outermost span of a name, so recursion
    (a scaled law's moments calling its inner law's) is not counted twice.
    Chunk self time is credited to the nearest enclosing span that is not
    part of the rng layer.
    """
    by_id = {s.id: s for s in spans}
    children = defaultdict(list)
    for s in spans:
        if s.parent is not None:
            children[s.parent].append((s.start, s.end))

    def ancestors(s):
        while s.parent is not None and s.parent in by_id:
            s = by_id[s.parent]
            yield s

    inclusive, self_time = defaultdict(float), defaultdict(float)
    for s in spans:
        own = (s.end - s.start) - _covered(children[s.id])
        owner = s.name
        if s.name == "rng.chunk":
            owner = next((a.name for a in ancestors(s)
                          if not a.name.startswith("rng.")), s.name)
        self_time[owner] += own
        if all(a.name != s.name for a in ancestors(s)):
            inclusive[s.name] += s.end - s.start
    return dict(inclusive), dict(self_time)


def fast_rows_outside_bulk(spans: list[Span]) -> int:
    """expected_time_fast calls not made from inside expected_time_bulk."""
    by_id = {s.id: s for s in spans}
    outside = 0
    for s in spans:
        if s.name != "batch_exact.fast":
            continue
        p = by_id.get(s.parent)
        while p is not None and p.name != "batch_exact.bulk":
            p = by_id.get(p.parent)
        outside += p is None
    return outside


def per_layer_metrics(tracer: Tracer) -> dict:
    """The benchmark's per-layer metrics from one traced pass."""
    inclusive, own = layer_times(tracer.spans)
    c = tracer.counts
    evaluated = c["batch_exact.bulk_rows"] + fast_rows_outside_bulk(tracer.spans)
    seconds = {
        "distributions.sample_s": inclusive.get("distributions.sample", 0.0),
        "distributions.moments_s": inclusive.get("distributions.moments", 0.0),
        "rng.map_chunks_self_s": own.get("rng.map_chunks", 0.0),
        "simulators.batch_s": inclusive.get("simulators.batch", 0.0),
        "simulators.geometric_steps_s": inclusive.get("simulators.geometric_steps", 0.0),
        "simulators.memoryless_s": inclusive.get("simulators.memoryless", 0.0),
        "simulators.full_memory_s": inclusive.get("simulators.full_memory", 0.0),
        "batch_exact.bulk_s": inclusive.get("batch_exact.bulk", 0.0),
        "batch_exact.fast_s": inclusive.get("batch_exact.fast", 0.0),
        "batch_exact.series_s": inclusive.get("batch_exact.series", 0.0),
        "batch_exact.n_delta_s": inclusive.get("batch_exact.n_delta", 0.0),
        "moment_zeta.zeta_s": inclusive.get("moment_zeta.zeta", 0.0),
        "moment_zeta.verify_s": inclusive.get("moment_zeta.verify", 0.0),
        "ensemble.moment_series_s": inclusive.get("ensemble.moment_series", 0.0),
        "ensemble.alpha1_s": inclusive.get("ensemble.alpha1", 0.0),
        "ensemble.extreme_value_self_s": own.get("ensemble.extreme_value", 0.0),
        "ensemble.regime_window_self_s": own.get("ensemble.regime_window", 0.0),
        "harness.run_scaling_self_s": own.get("harness.run_scaling", 0.0),
        "harness.compare_self_s": own.get("harness.compare", 0.0),
        "cli.main_self_s": own.get("cli.main", 0.0),
    }
    counts = {
        "distributions.draws": c["distributions.draws"],
        "distributions.moment_orders": c["distributions.moment_orders"],
        "rng.chunks": c["rng.chunks"],
        "simulators.geometric_draws": c["simulators.geometric_draws"],
        "simulators.trials": c["simulators.trials"],
        "simulators.censored": c["simulators.censored"],
        "batch_exact.bulk_rows": c["batch_exact.bulk_rows"],
        "batch_exact.fast_rows": c["batch_exact.fast_rows"],
        "batch_exact.fast_row_share": (c["batch_exact.fast_rows"] / evaluated
                                       if evaluated else 0.0),
        "moment_zeta.k_used": c["moment_zeta.k_used"],
        "ensemble.j_used": c["ensemble.j_used"],
    }
    return {**seconds, **counts}


def unit_of(metric: str) -> str:
    """Unit of a per-layer metric, from its name."""
    if metric.endswith("_s"):
        return "s"
    return "ratio" if metric.endswith("_share") else "count"
