"""Per-layer metrics from the spans ``tracer.py`` writes.

A span's self time is its duration minus the durations of its direct
children. Every ``_s`` metric below is a self time summed over the run, so
the layers add up to the traced wall time less what no probe covers.
"""

from collections import Counter, defaultdict

from tracer import PROBES

CLASSES = ("NotCompilable", "InfiniteLoop", "RuntimeErrorDiffers",
           "FunctionallyDegraded", "MoreExpensive", "Identical",
           "LessExpensive")

SELF_TIME = {
    "corpus.load_problem_s": "corpus.load_problem",
    "corpus.diff_s": "corpus.diff",
    "lang.edit.replace_s": "lang.edit.replace",
    "lang.edit.delete_s": "lang.edit.delete",
    "lang.check.static_check_s": "lang.check.static_check",
    "runtime.ir.compile_s": "runtime.ir.compile",
    "runtime.exec.run_suite_s": "runtime.exec.run_suite",
    "runtime.exec.baseline_s": "runtime.exec.baseline",
    "profiler.profile_s": "profiler.profile",
    "mutation.exhaustive_self_s": "mutation.exhaustive",
    "mutation.deletion_self_s": "mutation.deletion",
    "mutation.classify_s": "mutation.classify",
    "evaluation.rank_s": "evaluation.rank",
    "evaluation.bootstrap_s": "evaluation.bootstrap",
    "cli.report_s": "cli.cmd_evaluate",
}

CALLS = {
    "lang.edit.replace_calls": "lang.edit.replace",
    "lang.check.calls": "lang.check.static_check",
    "runtime.ir.compile_calls": "runtime.ir.compile",
    "runtime.exec.run_suite_calls": "runtime.exec.run_suite",
}


def layer_of(span_name):
    return span_name.rsplit(".", 1)[0]


def summarise(trace):
    """(self seconds, total seconds, calls) per span name, self seconds per
    (problem, layer), and counts summed over problems."""
    spans = trace["spans"]
    child_time = [0.0] * len(spans)
    for name, _problem, start, end, parent in spans:
        if parent >= 0:
            child_time[parent] += end - start
    own, total, calls = Counter(), Counter(), Counter()
    by_problem = defaultdict(Counter)
    for i, (name, problem, start, end, _parent) in enumerate(spans):
        self_s = end - start - child_time[i]
        own[name] += self_s
        total[name] += end - start
        calls[name] += 1
        by_problem[problem][layer_of(name)] += self_s
    counts = Counter()
    for per_problem in trace["counts"].values():
        counts.update(per_problem)
    return own, total, calls, by_problem, counts


def present_names(trace):
    """Span names with at least one probe installed."""
    absent = set(trace["absent"])
    return {name for name, module, attr in PROBES
            if f"{module}.{attr}" not in absent}


def metrics(trace, pool_trace, pool_jobs):
    """Per-layer metrics of a jobs-1 trace. ``pool_trace`` is a trace of the
    same workload at ``pool_jobs`` workers. Returns ({metric: (value, unit)},
    [absent metric names])."""
    own, total, calls, _, counts = summarise(trace)
    present = present_names(trace)
    out, absent = {}, []

    def put(metric, needs, value, unit):
        """A metric is absent when a probe it needs is, or when it is a
        ratio over calls that never happened."""
        try:
            if all(n in present for n in needs):
                out[metric] = (value(), unit)
                return
        except ZeroDivisionError:
            pass
        absent.append(metric)

    for metric, name in SELF_TIME.items():
        put(metric, [name], lambda name=name: own[name], "s")
    for metric, name in CALLS.items():
        put(metric, [name], lambda name=name: calls[name], "count")
    check = "lang.check.static_check"
    put("lang.check.reject_ratio", [check],
        lambda: counts["lang.check.rejects"] / calls[check], "ratio")
    run = "runtime.exec.run_suite"
    steps = counts["runtime.exec.steps"]
    put("runtime.exec.steps", [run], lambda: steps, "count")
    put("runtime.exec.steps_per_call", [run],
        lambda: steps / calls[run], "count")
    put("runtime.exec.msteps_per_s", [run],
        lambda: steps / own[run] / 1e6, "Msteps/s")
    for klass in CLASSES:
        put(f"mutation.class.{klass}",
            ["mutation.exhaustive", "mutation.deletion"],
            lambda klass=klass: counts[f"mutation.class.{klass}"], "count")
    exhaustive = "mutation.exhaustive"
    pool_total = summarise(pool_trace)[1][exhaustive]
    put("mutation.pool_efficiency", [exhaustive],
        lambda: total[exhaustive] / (pool_jobs * pool_total), "ratio")
    return out, absent


def notes(trace_data):
    """Self time per layer, as a share of the traced wall, and per problem."""
    own, _, _, by_problem, _ = summarise(trace_data)
    wall = trace_data["wall_s"]
    per_layer = {}
    for name, seconds in own.items():
        layer = layer_of(name)
        per_layer[layer] = per_layer.get(layer, 0.0) + seconds
    per_layer["(unprobed)"] = wall - sum(per_layer.values())
    lines = [f"layer {layer:<14} {seconds:9.3f} s  {100 * seconds / wall:5.1f}%"
             for layer, seconds in sorted(per_layer.items(),
                                          key=lambda kv: -kv[1])]
    for problem, split in sorted(by_problem.items()):
        top = ", ".join(f"{layer} {seconds:.2f}"
                        for layer, seconds in split.most_common(4))
        lines.append(f"problem {problem or '(none)'}: {top}")
    return lines
