"""Span tracing of conic_lab's six modules, installed from outside the program.

``Tracer.install`` rebinds every public function of each module, and every
name another conic_lab module imported from it, to a wrapper, so nested
calls get parent spans. A wrapper records a span (id, parent, pass, job,
name, start, end) and adds to its function's call count, total time and self
time (duration minus the time spent in wrapped calls it made). Helpers that
run more than about 10^4 times per pass (``HOT``) only add to the totals.
Spans stay in memory until the run writes them out. ``uninstall`` restores
the original functions, so untraced passes run the program untouched.

Counters are computed at the same boundaries from call arguments and
results; none of them reads a clock, so they repeat exactly for one seed.
"""

import importlib
import inspect
import itertools
import math
import time
from collections import Counter

LAYERS = ("modcore", "conic", "census", "expsum", "dioph", "cli")

# Private functions wrapped as well: the census residue-table builders.
PRIVATE = {"census._sqrt_table", "census._legendre_table"}

HOT = {
    "modcore.is_prime",
    "modcore.as_coeffs",
    "modcore.validate_coeffs",
    "modcore.jacobi",
    "modcore.mod_inverse",
    "modcore.sqrt_mod_prime_power",
    "modcore.sqrt_all_roots",
    "conic.param_case1",
}


def _arg(args, kwargs, index, name, default=None):
    return args[index] if len(args) > index else kwargs.get(name, default)


def _count_smoothed(ctr, args, kwargs, result):
    w = _arg(args, kwargs, 3, "w")
    if w is None or w.kind == "gaussian":  # the sharp kind is counted by count_sharp
        half = math.floor((6.0 if w is None else w.truncation_radius) * _arg(args, kwargs, 2, "N"))
        ctr["census.pair_visits"] += max(half, 0) ** 2


def _count_sharp(ctr, args, kwargs, result):
    ctr["census.pair_visits"] += max(int(_arg(args, kwargs, 2, "N")), 0) ** 2


def _smallest(ctr, args, kwargs, result):
    m = result[0] if result else 0
    ctr["census.shell_pairs"] += m * (m + 1) * (2 * m + 1) // 3 + m * (m + 1) // 2  # sum k(2k+1)


def _table(ctr, args, kwargs, result):
    # Computed, not measured: 8 bytes per entry of each residue table built.
    ctr["census.table_bytes"] += result.nbytes


def _family(ctr, args, kwargs, result):
    ctr["conic.pairs_materialized"] += len(result.pairs)


def _enumeration(ctr, args, kwargs, result):
    ctr["conic.pairs_materialized"] += len(result)


def _direct_sum(ctr, args, kwargs, result):
    pp = _arg(args, kwargs, 2, "pp")
    ctr["expsum.direct_terms"] += pp.p ** (pp.n - 1)


def _count_f(ctr, args, kwargs, result):
    ctr["dioph.countF_terms"] += _arg(args, kwargs, 2, "X")


# Counters of successful calls, keyed by the wrapped function.
HOOKS = {
    "census.count_smoothed": _count_smoothed,
    "census.count_sharp": _count_sharp,
    "census.smallest_solution": _smallest,
    "census._sqrt_table": _table,
    "census._legendre_table": _table,
    "census.sqrt_count_table": _table,
    "conic.build_case1_family": _family,
    "conic.build_case2_family": _family,
    "conic.enumerate_pair_solutions": _enumeration,
    "expsum.direct_S_alpha": _direct_sum,
    "dioph.count_F": _count_f,
}

# Closed-form evaluations; an attempt is ok when it returns a value.
CLOSED_FORMS = {"expsum.closed_form_E", "expsum.cochrane_evaluate"}


class Tracer:
    def __init__(self):
        self.stats = {}  # qualified name -> [calls, total_s, self_s]
        self.counters = Counter()
        self.spans = []
        self.job = None
        self.pass_no = None
        self._stack = []  # [child_s, span id] per active wrapped call
        self._ids = itertools.count()
        self._patches = []

    def _wrap(self, qual, fn):
        stats = self.stats.setdefault(qual, [0, 0.0, 0.0])
        hot, hook = qual in HOT, HOOKS.get(qual)
        closed_form = qual in CLOSED_FORMS
        stack, spans, ids, counters, clock = self._stack, self.spans, self._ids, self.counters, time.perf_counter

        def wrapper(*args, **kwargs):
            parent = stack[-1][1] if stack else None
            sid = parent if hot else next(ids)
            frame = [0.0, sid]
            stack.append(frame)
            ok = False
            start = clock()
            try:
                result = fn(*args, **kwargs)
                ok = True
                return result
            finally:
                end = clock()
                stack.pop()
                elapsed = end - start
                if stack:
                    stack[-1][0] += elapsed
                stats[0] += 1
                stats[1] += elapsed
                stats[2] += elapsed - frame[0]
                if not hot:
                    spans.append((sid, parent, self.pass_no, self.job, qual, start, end))
                if closed_form:
                    counters["expsum.closed_form_attempts"] += 1
                    counters["expsum.closed_form_ok"] += ok
                if hook and ok:
                    hook(counters, args, kwargs, result)

        return wrapper

    def install(self, package):
        modules = {layer: importlib.import_module(f"{package.__name__}.{layer}") for layer in LAYERS}
        namespaces = [package, *modules.values()]
        for layer, module in modules.items():
            for name, fn in list(vars(module).items()):
                qual = f"{layer}.{name}"
                if not (inspect.isfunction(fn) and fn.__module__ == module.__name__):
                    continue
                if name.startswith("_") and qual not in PRIVATE:
                    continue
                wrapper = self._wrap(qual, fn)
                for ns in namespaces:
                    for attr, value in list(vars(ns).items()):
                        if value is fn:
                            setattr(ns, attr, wrapper)
                            self._patches.append((ns, attr, fn))

    def uninstall(self):
        for ns, attr, fn in reversed(self._patches):
            setattr(ns, attr, fn)
        self._patches.clear()

    def reset(self):
        """Zero the per-pass totals and counters; spans are kept."""
        for stats in self.stats.values():
            stats[:] = [0, 0.0, 0.0]
        self.counters.clear()

    def snapshot(self):
        """Per-pass totals: ({name: (calls, total_s, self_s)}, counters)."""
        return ({q: tuple(s) for q, s in self.stats.items() if s[0]}, dict(self.counters))


# Unit of each per-layer metric, by the part of its name after the layer.
UNITS = {"calls": "count", "self_s": "s", "share": "1", "pair_visits": "count",
         "pair_visits_per_s": "1/s", "shell_pairs": "count", "table_bytes": "B",
         "pairs_materialized": "count", "direct_terms": "count", "countF_terms": "count",
         "supported_frac": "1", "emit_s": "s", "wall_s": "s", "unattributed_s": "s",
         "overhead_s": "s"}


def layer_metrics(stats, counters, wall):
    """The per-layer metrics of one traced pass of ``wall`` seconds."""
    out = {}
    attributed = 0.0
    for layer in LAYERS:
        mine = [s for q, s in stats.items() if q.split(".", 1)[0] == layer]
        self_s = sum(s[2] for s in mine)
        attributed += self_s
        out[f"{layer}.calls"] = sum(s[0] for s in mine)
        out[f"{layer}.self_s"] = self_s
        out[f"{layer}.share"] = self_s / wall
    visits = counters.get("census.pair_visits", 0)
    out["census.pair_visits"] = visits
    out["census.pair_visits_per_s"] = visits / out["census.self_s"] if visits else 0.0
    for name in ("census.shell_pairs", "census.table_bytes", "conic.pairs_materialized",
                 "expsum.direct_terms", "dioph.countF_terms"):
        out[name] = counters.get(name, 0)
    attempts = counters.get("expsum.closed_form_attempts", 0)
    out["expsum.supported_frac"] = counters["expsum.closed_form_ok"] / attempts if attempts else 0.0
    out["cli.emit_s"] = stats.get("cli.emit", (0, 0.0, 0.0))[1]
    out["trace.wall_s"] = wall
    out["trace.unattributed_s"] = wall - attributed
    return out


# Which end-to-end metric, on which workload, each per-layer metric should move.
MOVES = {
    "<layer>.calls, <layer>.self_s, <layer>.share": "wall_s and cpu_s on every workload that reaches the layer",
    "census.pair_visits": "wall_s, cpu_s on scan; slightly on verify; nothing on smallest",
    "census.pair_visits_per_s": "wall_s, cpu_s on scan; slightly on verify; nothing on smallest",
    "census.shell_pairs": "query_p80_s, query_p50_s, wall_s on smallest",
    "census.table_bytes": "peak_rss_mb on scan",
    "conic.pairs_materialized": "wall_s on verify; nothing on scan or smallest",
    "expsum.direct_terms": "wall_s on verify; nothing on scan or smallest",
    "dioph.countF_terms": "wall_s on verify; nothing on scan or smallest",
    "expsum.supported_frac": "useful closed-form outcomes per attempt on verify",
    "cli.self_s, cli.emit_s": "setup_s, and part of wall_s on verify",
    "trace.overhead_s": "none: tracing cost, traced minus untraced wall_s",
}
