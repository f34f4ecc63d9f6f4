"""In-memory span recorder for the traced benchmark run.

A span is (name, parent index, op id, start, end) in `perf_counter`
seconds.  The benchmark opens spans around its own calls into stnac, and
`Tracer.install` wraps the stnac functions that those calls reach
internally, so the whole tree of one operation is recorded without any
change to the package.  `install` returns a function that restores every
wrapped attribute.

A span's self time is its duration minus the durations of its direct
children; summed over all spans of a pass, self times add up to the
durations of the root spans, which are the timed operations.  Those are
longer than untraced operations by the tracer's own cost, which
`call_costs` measures per span and per counted call.
"""

from __future__ import annotations

import statistics
import time
from collections import Counter
from contextlib import contextmanager, nullcontext

clock = time.perf_counter


class NullTracer:
    """The untraced run: spans cost one no-op context manager each."""

    enabled = False

    def span(self, name: str):
        return nullcontext()

    def new_op(self) -> None:
        pass


class Tracer:
    enabled = True

    def __init__(self) -> None:
        self.spans: list[list] = []  # [name, parent, op, start, end]
        self.stack: list[int] = []
        self.counts: Counter = Counter()
        self.results: dict[int, object] = {}  # span index -> wrapped return value
        self.op = 0

    def new_op(self) -> None:
        self.op += 1

    def _open(self, name: str) -> int:
        idx = len(self.spans)
        parent = self.stack[-1] if self.stack else -1
        self.spans.append([name, parent, self.op, clock(), 0.0])
        self.stack.append(idx)
        return idx

    def _close(self, idx: int) -> None:
        self.spans[idx][4] = clock()
        self.stack.pop()

    @contextmanager
    def span(self, name: str):
        idx = self._open(name)
        try:
            yield
        finally:
            self._close(idx)

    def wrap(self, name: str, fn, keep_result: bool = False):
        def wrapper(*args, **kwargs):
            idx = self._open(name)
            try:
                out = fn(*args, **kwargs)
            finally:
                self._close(idx)
            if keep_result:
                self.results[idx] = out
            return out

        return wrapper

    def wrap_handler(self, prefix: str, fn):
        """SolverAgent.on_message: one span name per message kind."""

        def wrapper(agent, msg):
            idx = self._open(f"{prefix}.{msg.kind.value}")
            try:
                return fn(agent, msg)
            finally:
                self._close(idx)

        return wrapper

    def wrap_count(self, name: str, fn):
        """Count calls without a span: interval() runs too often to time."""
        counts = self.counts

        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    def install(self, solver, distributed):
        """Wrap the package's internal layer boundaries; returns the undo."""
        agent = distributed.SolverAgent
        patches = [
            (solver, "build_arcs", self.wrap("solver.build_arcs", solver.build_arcs)),
            (solver, "propagate", self.wrap("solver.propagate", solver.propagate, True)),
            (distributed, "agent_view", self.wrap("distributed.agent_view", distributed.agent_view)),
            (distributed, "echo_setup", self.wrap("distributed.echo_setup", distributed.echo_setup)),
            (
                distributed,
                "run_simulation",
                self.wrap("distributed.run_simulation", distributed.run_simulation, True),
            ),
            (distributed, "build_arcs", self.wrap("distributed.build_arcs", distributed.build_arcs)),
            (distributed, "interval", self.wrap_count("distributed.interval", distributed.interval)),
            (agent, "on_start", self.wrap("SolverAgent.on_start", agent.on_start)),
            (agent, "on_message", self.wrap_handler("SolverAgent.on_message", agent.on_message)),
        ]
        saved = [(obj, attr, obj.__dict__[attr]) for obj, attr, _ in patches]
        for obj, attr, fn in patches:
            setattr(obj, attr, fn)

        def restore() -> None:
            for obj, attr, fn in saved:
                setattr(obj, attr, fn)

        return restore

    def reset(self) -> None:
        self.spans.clear()
        self.stack.clear()
        self.counts.clear()
        self.results.clear()

    def summary(self) -> "SpanSummary":
        return SpanSummary(self)

    def dump(self, path, op: int) -> None:
        """Tab-separated spans of one operation: index, parent, op, name, start, end."""
        with open(path, "w", encoding="utf-8") as fp:
            fp.write("index\tparent\top\tname\tstart_s\tend_s\n")
            for i, (name, parent, span_op, start, end) in enumerate(self.spans):
                if span_op == op:
                    fp.write(f"{i}\t{parent}\t{op}\t{name}\t{start:.9f}\t{end:.9f}\n")


def _noop() -> None:
    pass


def call_costs(calls: int = 20000) -> tuple[float, float]:
    """Seconds that one wrapped call and one counted call add to the call
    of a no-op function; their medians over five tries."""
    tracer = Tracer()
    wrapped = tracer.wrap("cost", _noop)
    counted = tracer.wrap_count("cost", _noop)
    costs = []
    for _ in range(5):
        t0 = clock()
        for _ in range(calls):
            _noop()
        t1 = clock()
        for _ in range(calls):
            wrapped()
        t2 = clock()
        for _ in range(calls):
            counted()
        t3 = clock()
        tracer.reset()
        costs.append(((t2 - t1 - (t1 - t0)) / calls, (t3 - t2 - (t1 - t0)) / calls))
    return (
        statistics.median(c[0] for c in costs),
        statistics.median(c[1] for c in costs),
    )


class SpanSummary:
    """Per-name totals of one pass: inclusive time, self time, call count."""

    def __init__(self, tracer: Tracer) -> None:
        spans = tracer.spans
        child = [0.0] * len(spans)
        for name, parent, _op, start, end in spans:
            if parent >= 0:
                child[parent] += end - start
        self.total: Counter = Counter()
        self.self_time: Counter = Counter()
        self.calls: Counter = Counter()
        self.by_parent: Counter = Counter()  # (name, parent name) -> inclusive time
        self.calls_by_parent: Counter = Counter()
        for i, (name, parent, _op, start, end) in enumerate(spans):
            dur = end - start
            self.total[name] += dur
            self.self_time[name] += dur - child[i]
            self.calls[name] += 1
            pname = spans[parent][0] if parent >= 0 else None
            self.by_parent[(name, pname)] += dur
            self.calls_by_parent[(name, pname)] += 1
        self.spans = len(spans)
        self.counted = sum(tracer.counts.values())
        self.self_sum = sum(self.self_time.values())
        self.root_sum = sum(end - start for _n, parent, _o, start, end in spans if parent < 0)
        self.counts = Counter(tracer.counts)
        self.propagate_checks: Counter = Counter()  # parent name -> checks
        self.sim_steps = 0
        for idx, out in tracer.results.items():
            name, parent = spans[idx][0], spans[idx][1]
            if name == "solver.propagate":
                self.propagate_checks[spans[parent][0] if parent >= 0 else None] += out[3]
            elif name == "distributed.run_simulation":
                self.sim_steps += out.steps

    def overhead_frac(self, span_cost: float, count_cost: float) -> float:
        """The tracer's cost in this pass over the pass's untraced time."""
        cost = self.spans * span_cost + self.counted * count_cost
        return cost / (self.root_sum - cost)

    def prefixed(self, prefix: str) -> float:
        return sum(t for name, t in self.total.items() if name.startswith(prefix))
