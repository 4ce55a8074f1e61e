"""In-memory span tracer that wraps rpbandits' public entry points.

Each wrapped call records a span (id, parent id, name, start, end) and may
bump counters read from its arguments or result.  Wrappers are installed
under the name the caller looks up, e.g. `rpbandits.policy.compute_design`,
so the program runs unchanged and only the benchmark's process pays for
them.  Spans stay in memory; `dump` writes them once, at the end.

Pool workers forked by `run_sweep` inherit the wrappers.  Each worker
starts an empty span list whose root spans point at the span that was open
in the parent at fork time, and writes its spans to `<spans_dir>/<pid>.json`
when the worker exits.  The main process dumps its own at the end, and
`load_all` merges every file.
"""

import functools
import json
import multiprocessing.util
import os
import time
from collections import Counter

# The policy layer's entry points, as run_cell looks them up in the harness.
POLICY_RUNNERS = ("run_elimination", "run_vanilla_elimination", "run_nonrobust_elimination")


class Tracer:
    def __init__(self, spans_dir: str):
        self.spans_dir = spans_dir
        self._reset(fork_parent=None)
        multiprocessing.util.register_after_fork(self, Tracer._after_fork)

    def _reset(self, fork_parent):
        self.pid = os.getpid()
        self.fork_parent = fork_parent
        self.spans: list[list] = []  # [id, parent, name, start_ns, end_ns]
        self.stack: list[list] = []
        self.counters: Counter = Counter()
        self._next = 0

    def _after_fork(self):
        parent = self.stack[-1][0] if self.stack else None
        self._reset(fork_parent=parent)
        # Runs at worker exit, after the pool has sent its last task.
        multiprocessing.util.Finalize(self, self.dump, exitpriority=10)

    def open(self, name: str) -> list:
        parent = self.stack[-1][0] if self.stack else self.fork_parent
        self._next += 1
        span = [f"{self.pid}:{self._next}", parent, name, time.perf_counter_ns(), 0]
        self.stack.append(span)
        return span

    def close(self, span: list) -> None:
        span[4] = time.perf_counter_ns()
        popped = self.stack.pop()
        if popped is not span:
            raise RuntimeError(f"span {span[2]} closed out of order")
        self.spans.append(span)

    def count(self, key: str, amount=1) -> None:
        self.counters[key] += amount

    def dump(self) -> None:
        """Write this process's spans and counters, once."""
        if not self.spans and not self.counters:
            return
        os.makedirs(self.spans_dir, exist_ok=True)
        path = os.path.join(self.spans_dir, f"{self.pid}.json")
        with open(path, "w") as fh:
            json.dump({"pid": self.pid, "spans": self.spans,
                       "counters": dict(self.counters)}, fh)

    def wrap(self, owner, attr: str, name: str, on_result=None, on_error=None) -> None:
        """Replace owner.attr with a wrapper recording span `name`.

        on_result(args, kwargs, result) and on_error(args, kwargs, exc) run
        after the span closes, so their cost is not charged to it.
        """
        orig = getattr(owner, attr)

        @functools.wraps(orig)
        def wrapper(*args, **kwargs):
            span = self.open(name)
            try:
                result = orig(*args, **kwargs)
            except Exception as exc:
                self.close(span)
                if on_error is not None:
                    on_error(args, kwargs, exc)
                raise
            self.close(span)
            if on_result is not None:
                on_result(args, kwargs, result)
            return result

        setattr(owner, attr, wrapper)


def install(tracer: Tracer) -> None:
    """Wrap every layer's entry point at the name its caller looks up."""
    from rpbandits import env, errors, harness, policy, robust

    t = tracer

    def design_out(args, kwargs, design):
        t.count("design.arms_in", args[0].count)
        t.count("design.support_out", len(design.weights))

    def filter_out(args, kwargs, result):
        diag = result[1]
        t.count("robust.filter.points", len(args[0]))
        t.count("robust.filter.removed", diag.removed_count)
        t.count("robust.filter.iterations", diag.iterations)

    def filter_err(args, kwargs, exc):
        t.count("robust.filter.points", len(args[0]))
        if isinstance(exc, errors.TooManyRemoved) and exc.diagnostics is not None:
            t.count("robust.filter.removed", exc.diagnostics.removed_count)
            t.count("robust.filter.iterations", exc.diagnostics.iterations)

    def fallback(args, kwargs, exc):
        if isinstance(exc, errors.TooManyRemoved):
            t.count("robust.filter.fallbacks")

    def played(args, kwargs, reports):
        t.count("env.plays", args[1].total)
        t.count("env.reports", len(reports))

    def policy_out(args, kwargs, trace):
        t.count("policy.rounds", len(trace.rounds))
        for rec in trace.rounds:
            t.count("policy.eliminated", len(rec.active_before) - len(rec.active_after))
            if rec.gamma is not None and rec.gamma >= 1.0:
                t.count("policy.vacuous_rounds")

    def trace_bytes(args, kwargs, payload):
        t.count("harness.trace_bytes", len(payload))

    t.wrap(policy, "compute_design", "design.compute_design", on_result=design_out)
    t.wrap(policy, "build_coreset", "design.build_coreset")
    t.wrap(policy, "robust_least_squares", "robust.robust_least_squares", on_error=fallback)
    t.wrap(policy, "vanilla_least_squares", "robust.vanilla_least_squares")
    t.wrap(robust, "spectral_filter", "robust.spectral_filter",
           on_result=filter_out, on_error=filter_err)
    t.wrap(env.LearnerEnv, "play_batch", "env.play_batch", on_result=played)
    t.wrap(env, "laplace_icdf", "privacy.laplace_icdf")
    for runner in POLICY_RUNNERS:
        t.wrap(harness, runner, "policy.run", on_result=policy_out)
    for fn in ("validate_config", "resolve_instance", "run_sweep", "run_cell",
               "summarize", "write_summary_csv", "emit_plotdata"):
        t.wrap(harness, fn, f"harness.{fn}")
    t.wrap(harness, "trace_to_bytes", "harness.trace_to_bytes", on_result=trace_bytes)


def load_all(spans_dir: str) -> tuple[list[list], Counter]:
    """Spans and counters of every process that dumped into spans_dir."""
    spans, counters = [], Counter()
    for fname in sorted(os.listdir(spans_dir)):
        with open(os.path.join(spans_dir, fname)) as fh:
            data = json.load(fh)
        spans.extend(data["spans"])
        counters.update(data["counters"])
    return spans, counters


def self_times(spans: list[list]) -> dict[str, float]:
    """Span id -> self time in seconds: duration minus same-process children.

    A child in another process (a pool worker under run_sweep) ran
    concurrently with its parent's span, so it is not subtracted.
    """
    self_ns = {s[0]: s[4] - s[3] for s in spans}
    for sid, parent, _name, start, end in spans:
        if parent is not None and parent.split(":")[0] == sid.split(":")[0]:
            self_ns[parent] -= end - start
    return {sid: ns / 1e9 for sid, ns in self_ns.items()}
