"""In-memory spans and counters for the traced benchmark run.

A span is (name, start, end, parent span, query id).  The benchmark's
query code opens spans around each public call it makes into the
program; ``installed`` additionally wraps a few program functions for
the length of the traced run (the public ``Factor`` methods, the
min-fill step inside ``build_junction_tree`` and the forward/backward
sweep inside ``hmm.posteriors``) and restores them afterwards.  The
timed run uses ``NULL`` instead, whose spans do nothing.
"""

from __future__ import annotations

import statistics
from contextlib import contextmanager
from time import perf_counter

from beliefprop import hmm, jtree
from beliefprop.factor import Factor
from beliefprop.propagation import CompiledQuery

FACTOR_METHODS = (
    "multiply",
    "marginalize_sum",
    "marginalize_max",
    "expand",
    "restrict",
    "rescaled_unit_max",
)


class _Span:
    __slots__ = ("tracer", "name", "index")

    def __init__(self, tracer: "Tracer", name: str):
        self.tracer = tracer
        self.name = name

    def __enter__(self) -> "_Span":
        tr = self.tracer
        self.index = len(tr.names)
        tr.names.append(self.name)
        tr.parents.append(tr.stack[-1] if tr.stack else -1)
        tr.queries.append(tr.query)
        tr.ends.append(0.0)
        tr.stack.append(self.index)
        tr.starts.append(perf_counter())
        return self

    def __exit__(self, *exc) -> None:
        tr = self.tracer
        tr.ends[self.index] = perf_counter()
        tr.stack.pop()


class _NullSpan:
    __slots__ = ()

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, *exc) -> None:
        return None


class NullTracer:
    """Tracing off: spans cost one call and record nothing."""

    _span = _NullSpan()

    def span(self, name: str) -> _NullSpan:
        return self._span

    def count(self, key: str, amount: float = 1) -> None:
        return None


NULL = NullTracer()


class Tracer:
    """Spans in parallel lists plus per-query counters."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.parents: list[int] = []
        self.queries: list[int] = []
        self.stack: list[int] = []
        self.query = -1
        self.counts: dict[int, dict[str, float]] = {}
        self.home_clusters: dict[int, set[int]] = {}

    def span(self, name: str) -> _Span:
        return _Span(self, name)

    def begin_query(self, query: int) -> None:
        self.query = query
        self.counts[query] = {}
        self.home_clusters[query] = set()

    def count(self, key: str, amount: float = 1) -> None:
        c = self.counts[self.query]
        c[key] = c.get(key, 0) + amount

    def innermost(self) -> str | None:
        return self.names[self.stack[-1]] if self.stack else None

    def write(self, path) -> None:
        """One tab-separated line per span, in the order spans opened."""
        with open(path, "w") as fh:
            fh.write("query\tspan\tparent\tname\tstart_s\tend_s\n")
            for i, name in enumerate(self.names):
                fh.write(
                    f"{self.queries[i]}\t{i}\t{self.parents[i]}\t{name}\t"
                    f"{self.starts[i]:.9f}\t{self.ends[i]:.9f}\n"
                )

    # -- analysis ------------------------------------------------------

    def per_query(self) -> dict[int, dict[str, float]]:
        """Per query: total ms in each span name, outermost factor ms,
        propagation self ms, query ms and top-level span coverage.

        Each query is expected to sit inside one root span named
        "query"; its direct children are the top-level spans.
        """
        out: dict[int, dict[str, float]] = {}
        child_ms = [0.0] * len(self.names)
        dur = [(e - s) * 1e3 for s, e in zip(self.starts, self.ends)]
        for i, p in enumerate(self.parents):
            if p >= 0:
                child_ms[p] += dur[i]
        for i, name in enumerate(self.names):
            q = out.setdefault(self.queries[i], {})
            q[name + ".ms"] = q.get(name + ".ms", 0.0) + dur[i]
            p = self.parents[i]
            if name.startswith("factor."):
                if p < 0 or not self.names[p].startswith("factor."):
                    q["factor.ms"] = q.get("factor.ms", 0.0) + dur[i]
            elif name.startswith("propagation."):
                q["propagation.self_ms"] = (
                    q.get("propagation.self_ms", 0.0) + dur[i] - child_ms[i]
                )
            if name == "query":
                q["query_ms"] = dur[i]
                q["span_coverage"] = child_ms[i] / dur[i] if dur[i] > 0 else 1.0
        return out


def median_where_present(rows: list[dict[str, float]], key: str) -> float:
    """Median over the queries that reached ``key``; 0.0 when none did."""
    vals = [r[key] for r in rows if key in r]
    return float(statistics.median(vals)) if vals else 0.0


@contextmanager
def installed(tracer: Tracer):
    """Wrap the program's layer entry points for one traced run."""
    saved: list[tuple[object, str, object]] = []

    def patch(owner, attr, wrapper):
        saved.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, wrapper)

    def factor_wrapper(method):
        name = "factor." + method.__name__

        def wrapper(self, *args, **kwargs):
            with tracer.span(name):
                out = method(self, *args, **kwargs)
            entries = self.values.size + out.values.size
            if args and isinstance(args[0], Factor):
                entries += args[0].values.size
            tracer.count("factor.calls")
            tracer.count("factor.out_entries", out.values.size)
            tracer.count("factor.bytes_computed", 8 * entries)
            return out

        return wrapper

    def span_wrapper(fn, name):
        def wrapper(*args, **kwargs):
            with tracer.span(name):
                return fn(*args, **kwargs)

        return wrapper

    compute_message = CompiledQuery.compute_message
    cluster_marginal = CompiledQuery.cluster_marginal

    def counted_message(self, j, k, semiring="sum"):
        msg = compute_message(self, j, k, semiring)
        tracer.count("propagation.messages")
        tracer.count("propagation.message_entries", msg.values.size)
        return msg

    def counted_marginal(self, j):
        if tracer.innermost() == "propagation.posteriors":
            tracer.count("readout.cluster_marginals")
            tracer.home_clusters[tracer.query].add(j)
        return cluster_marginal(self, j)

    try:
        for m in FACTOR_METHODS:
            patch(Factor, m, factor_wrapper(getattr(Factor, m)))
        patch(jtree, "min_fill_cliques",
              span_wrapper(jtree.min_fill_cliques, "jtree.min_fill_cliques"))
        patch(hmm, "forward_backward",
              span_wrapper(hmm.forward_backward, "hmm.forward_backward"))
        patch(CompiledQuery, "compute_message", counted_message)
        patch(CompiledQuery, "cluster_marginal", counted_marginal)
        yield tracer
    finally:
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)
