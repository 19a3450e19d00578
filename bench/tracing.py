"""Spans around the package's calls, recorded from the benchmark's side.

`instrument(tracer)` rebinds the names through which the package's modules
call each other (e.g. `plausible.farthest_point`, `simulation.sample_from`)
to wrappers that time each call, and restores them on exit; nothing in
src/ is changed. The program is single-threaded with no queues, so no
layer waits on another and there is no wait time to record.

Calls are of two sorts. A stored span (an operation, cli.main, a Chebyshev
solve, one sampler draw, ...) is kept in memory as (id, name, start, end,
parent id, operation id) and written out at the end. A hot call (farthest
point, projection, Forecast validation, ...) runs up to millions of times,
so it only adds to per-name counters; its time still counts as child time
of the enclosing span. A layer's self time is the time of its calls minus
the time of the calls they make into wrapped functions; helpers that are
not wrapped (l2_dist_sq, contains, ...) count toward their caller.
"""

import contextlib
import functools
import math
import time

from expert_screening import analyzer, cli, contracts, plausible, scenario, simplex, simulation

LAYERS = ("simplex", "scoring", "plausible", "contracts", "analyzer", "simulation",
          "scenario", "cli", "bench")


def theta_kind(theta):
    if isinstance(theta, plausible.FiniteSet):
        return "finite"
    return "uncut" if theta.is_uncut() else "clipped"


class Tracer:
    def __init__(self):
        self.stack = []      # frames: [start, child seconds, nearest stored span id]
        self.stats = {}      # name -> [calls, total seconds, self seconds]
        self.observed = {}   # name -> list of values seen in arguments or results
        self.spans = []      # (id, name, start, end, parent id, operation id)
        self.op = 0
        self._next_id = 1

    def call(self, name, stored, fn, *args, **kwargs):
        stack = self.stack
        parent = stack[-1][2] if stack else 0
        sid = parent
        if stored:
            sid = self._next_id
            self._next_id += 1
        frame = [0.0, 0.0, sid]
        stack.append(frame)
        t0 = frame[0] = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            t1 = time.perf_counter()
            stack.pop()
            dur = t1 - t0
            st = self.stats.get(name)
            if st is None:
                st = self.stats[name] = [0, 0.0, 0.0]
            st[0] += 1
            st[1] += dur
            st[2] += dur - frame[1]
            if stack:
                stack[-1][1] += dur
            if stored:
                self.spans.append((sid, name, t0, t1, parent, self.op))

    def observe(self, name, value):
        self.observed.setdefault(name, []).append(value)

    def mean_per_call(self, name, scale=1e6):
        st = self.stats.get(name)
        return st[1] / st[0] * scale if st else 0.0

    def dump(self):
        return {
            "fields": ["id", "name", "start_s", "end_s", "parent", "op"],
            "spans": self.spans,
            "calls": {k: {"calls": v[0], "total_s": v[1], "self_s": v[2]}
                      for k, v in sorted(self.stats.items())},
        }


def _wrap(tracer, fn, name, stored, label=None, after=None):
    @functools.wraps(fn)
    def traced(*args, **kwargs):
        full = f"{name}.{label(*args, **kwargs)}" if label else name
        result = tracer.call(full, stored, fn, *args, **kwargs)
        if after:
            after(full, result, *args, **kwargs)
        return result
    return traced


@contextlib.contextmanager
def instrument(tracer):
    """Rebind the package's internal call sites to traced wrappers."""
    def kind(theta, *a, **k):
        return theta_kind(theta)

    def n_states(theta, *a, **k):
        return f"n{theta.n}"

    def after_chebyshev(name, res, *a, **k):
        tracer.observe(name.replace("chebyshev", "chebyshev_iters"), res.iterations)
        tracer.observe(name.replace("chebyshev", "certified"), float(res.certified))

    def after_oracle(name, res, theta, c, grid_k=50, *a, **k):
        tracer.observe("analyzer.oracle_grid_points", math.comb(grid_k + theta.n - 1, theta.n - 1))

    sites = [
        (cli, "main", "cli.main", True, None, None),
        (simulation, "run_tournament", "simulation.run_tournament", True, None, None),
        (cli, "load_scenario", "scenario.load_scenario", True, None, None),
        (scenario, "load_scenario", "scenario.load_scenario", True, None, None),
        (cli, "uninformed_maxmin", "analyzer.uninformed_maxmin", True, None, None),
        (cli, "oracle_maxmin", "analyzer.oracle_maxmin", True, None, after_oracle),
        (simulation, "uninformed_maxmin", "analyzer.uninformed_maxmin", True, None, None),
        (simulation, "decide_acceptance", "simulation.decide_acceptance", True, None, None),
        (analyzer, "chebyshev", "plausible.chebyshev", True, kind, after_chebyshev),
        (simulation, "chebyshev", "plausible.chebyshev", True, kind, after_chebyshev),
        (analyzer, "grid_enumerate", "simplex.grid_enumerate", True, None, None),
        (plausible, "grid_enumerate", "simplex.grid_enumerate", True, None, None),
        (simulation, "sample_from", "plausible.sample_from", True, n_states, None),
        (plausible, "farthest_point", "plausible.farthest_point", False, kind, None),
        (analyzer, "farthest_point", "plausible.farthest_point", False, kind, None),
        (plausible, "project_to_simplex", "simplex.project_to_simplex", False, None, None),
        (plausible, "sample_simplex_uniform", "simplex.sample_simplex_uniform", False, None, None),
        (simulation, "sample_simplex_uniform", "simplex.sample_simplex_uniform", False, None, None),
        (simulation, "sample_state", "simulation.sample_state", False, None, None),
        (simulation, "realized_payoff", "contracts.realized_payoff", False, None, None),
        (contracts, "brier", "scoring.brier", False, None, None),
        (simplex.Forecast, "__post_init__", "simplex.Forecast", False, None, None),
    ]
    saved = []
    try:
        for owner, attr, name, stored, label, after in sites:
            orig = getattr(owner, attr)
            saved.append((owner, attr, orig))
            setattr(owner, attr, _wrap(tracer, orig, name, stored, label, after))
        yield tracer
    finally:
        for owner, attr, orig in reversed(saved):
            setattr(owner, attr, orig)


def _mean(values):
    return sum(values) / len(values) if values else 0.0


def loop_self_seconds(tracer):
    """Mean run_tournament time minus its direct decide_acceptance and
    Chebyshev-announcement children."""
    runs = {s[0]: s[3] - s[2] for s in tracer.spans if s[1] == "simulation.run_tournament"}
    excluded = dict.fromkeys(runs, 0.0)
    for sid, name, t0, t1, parent, _ in tracer.spans:
        if parent in runs and (name == "simulation.decide_acceptance"
                               or name.startswith("plausible.chebyshev.")):
            excluded[parent] += t1 - t0
    return _mean([runs[k] - excluded[k] for k in runs])


def per_layer_metrics(tracer, ops, exact_abs_err):
    """Per-layer metrics of a traced run. A metric whose call never happens
    on the workload reads 0."""
    t = tracer
    m = {}
    for kind in ("finite", "uncut", "clipped"):
        m[f"plausible.chebyshev_ms.{kind}"] = (t.mean_per_call(f"plausible.chebyshev.{kind}", 1e3), "ms")
        m[f"plausible.chebyshev_iters.{kind}"] = (
            _mean(t.observed.get(f"plausible.chebyshev_iters.{kind}", [])), "count")
        m[f"plausible.certified_share.{kind}"] = (
            _mean(t.observed.get(f"plausible.certified.{kind}", [])), "share")
        m[f"plausible.farthest_point_us.{kind}"] = (
            t.mean_per_call(f"plausible.farthest_point.{kind}"), "us")
    m["simplex.project_to_simplex_us"] = (t.mean_per_call("simplex.project_to_simplex"), "us")
    m["analyzer.uninformed_maxmin_ms"] = (t.mean_per_call("analyzer.uninformed_maxmin", 1e3), "ms")
    m["analyzer.oracle_maxmin_ms"] = (t.mean_per_call("analyzer.oracle_maxmin", 1e3), "ms")
    m["analyzer.oracle_grid_points"] = (
        _mean(t.observed.get("analyzer.oracle_grid_points", [])), "count")
    m["simplex.grid_enumerate_ms"] = (t.mean_per_call("simplex.grid_enumerate", 1e3), "ms")
    m["analyzer.exact_abs_err"] = (max(exact_abs_err, default=0.0), "1")
    m["simulation.run_tournament_s"] = (t.mean_per_call("simulation.run_tournament", 1.0), "s")
    m["simulation.decide_acceptance_ms"] = (
        t.mean_per_call("simulation.decide_acceptance", 1e3), "ms")
    m["simulation.loop_self_s"] = (loop_self_seconds(t), "s")
    m["simulation.sample_state_us"] = (t.mean_per_call("simulation.sample_state"), "us")
    m["contracts.realized_payoff_us"] = (t.mean_per_call("contracts.realized_payoff"), "us")
    for n in (3, 5, 8):
        m[f"plausible.sample_from_ms.n{n}"] = (t.mean_per_call(f"plausible.sample_from.n{n}", 1e3), "ms")
    m["simplex.sample_simplex_uniform_us"] = (t.mean_per_call("simplex.sample_simplex_uniform"), "us")
    m["simplex.forecast_new_us"] = (t.mean_per_call("simplex.Forecast"), "us")
    m["scenario.load_ms"] = (t.mean_per_call("scenario.load_scenario", 1e3), "ms")
    self_s = dict.fromkeys(LAYERS, 0.0)
    for name, (_, _, s) in t.stats.items():
        self_s[name.split(".", 1)[0]] += s
    for layer in LAYERS:
        m[f"self_ms_per_op.{layer}"] = (self_s[layer] / max(ops, 1) * 1e3, "ms")
    return m
