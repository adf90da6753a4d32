"""Traced in-process ``perfloc evaluate``, and the engine throughput probe.

    python3 perfbench/tracer.py trace OUT.json evaluate --corpus C --out O ...
    python3 perfbench/tracer.py engines OUT.json PROBLEM_DIR...

``trace`` wraps the public functions of each layer at the name its caller
looks up (``mutation.py`` binds ``run_suite`` at import, so the probe wraps
``perfloc.mutation.run_suite``, not ``perfloc.runtime.exec.run_suite``),
calls ``perfloc.cli.main`` and writes the spans it recorded. A probe whose
module or attribute no longer exists is listed as absent and skipped. The
perfloc source is not modified. Run with ``src`` on ``PYTHONPATH``.
"""

import importlib
import json
import os
import sys
import time
from collections import Counter

# (span name, module the caller lives in, attribute the caller looks up).
# The span name's prefix up to its last dot is the layer.
PROBES = (
    ("cli.cmd_evaluate", "perfloc.cli", "cmd_evaluate"),
    ("corpus.load_problem", "perfloc.cli", "load_problem"),
    ("corpus.diff", "perfloc.corpus", "diff_improvement_nodes"),
    ("mutation.combined", "perfloc.cli", "combined_analysis"),
    ("mutation.exhaustive", "perfloc.mutation", "exhaustive_analysis"),
    ("mutation.deletion", "perfloc.mutation", "deletion_analysis"),
    ("mutation.classify", "perfloc.mutation", "classify_variant"),
    ("lang.edit.replace", "perfloc.mutation", "replace_node"),
    ("lang.edit.delete", "perfloc.mutation", "delete_statement"),
    ("lang.edit.delete", "perfloc.mutation", "empty_function_body"),
    ("lang.check.static_check", "perfloc.mutation", "static_check"),
    ("lang.check.static_check", "perfloc.profiler", "static_check"),
    ("runtime.ir.compile", "perfloc.mutation", "compile_program"),
    ("runtime.ir.compile", "perfloc.profiler", "build_ir"),
    ("runtime.exec.run_suite", "perfloc.mutation", "run_suite"),
    ("runtime.exec.baseline", "perfloc.mutation", "baseline_limits"),
    ("profiler.profile", "perfloc.cli", "profile"),
    ("profiler.profile", "perfloc.cli", "profile_scores"),
    ("evaluation.rank", "perfloc.cli", "fractional_rank"),
    ("evaluation.rank", "perfloc.cli", "percent_rank_error"),
    ("evaluation.rank", "perfloc.cli", "accuracy_table"),
    ("evaluation.rank", "perfloc.cli", "summary_table"),
    ("evaluation.bootstrap", "perfloc.cli", "bootstrap_diff"),
)


def _classes(result):
    return Counter(f"mutation.class.{v.classification}"
                   for v in result.variants)


# Counts taken from a call's return value, at the same boundary as its span.
NOTES = {
    "lang.check.static_check":
        lambda result: {"lang.check.rejects": int(bool(result))},
    "runtime.exec.run_suite":
        lambda result: {"runtime.exec.steps": result.total_cost},
    "mutation.exhaustive": _classes,
    "mutation.deletion": _classes,
}


class Tracer:
    """Spans are [name, problem, start, end, parent index]; a span is
    appended when its call starts, so a parent precedes its children. The
    problem is the directory of the last ``load_problem`` call, which is the
    problem ``evaluate`` is working on."""

    def __init__(self):
        self.spans = []
        self.stack = []
        self.problem = ""
        self.counts = {}
        self.absent = []

    def install(self):
        for name, module_name, attr in PROBES:
            try:
                module = importlib.import_module(module_name)
                fn = getattr(module, attr)
            except (ImportError, AttributeError):
                self.absent.append(f"{module_name}.{attr}")
                continue
            setattr(module, attr, self._wrap(name, fn))

    def _wrap(self, name, fn):
        note = NOTES.get(name)
        starts_problem = name == "corpus.load_problem"
        spans, stack, clock = self.spans, self.stack, time.perf_counter

        def traced(*args, **kwargs):
            if starts_problem:
                self.problem = os.path.basename(os.path.normpath(args[0]))
            span = [name, self.problem, 0.0, 0.0, stack[-1] if stack else -1]
            stack.append(len(spans))
            spans.append(span)
            span[2] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[3] = clock()
                stack.pop()
            if note is not None:
                counts = self.counts.setdefault(self.problem, Counter())
                counts.update(note(result))
            return result

        return traced


def trace(out_path, cli_args):
    tracer = Tracer()
    tracer.install()
    from perfloc import cli
    from perfloc.runtime import ENGINE_NAME
    start = time.perf_counter()
    code = cli.main(cli_args)
    wall = time.perf_counter() - start
    with open(out_path, "w", encoding="utf-8") as fh:
        json.dump({"engine": ENGINE_NAME, "exit_code": code, "wall_s": wall,
                   "spans": tracer.spans, "counts": tracer.counts,
                   "absent": tracer.absent}, fh)
    return code


def engines(out_path, problem_dirs, seconds=1.0):
    """Msteps/s of every engine that imports, running each problem's
    original over its suite; every engine must reproduce the baseline cost."""
    from perfloc.corpus import load_problem
    from perfloc.runtime import engine_py
    from perfloc.runtime.exec import (
        baseline_limits, compile_program, run_suite,
    )
    available = [("py", engine_py)]
    try:
        from perfloc.runtime import _engine
        available.append(("c", _engine))
    except ImportError:
        pass
    jobs = []
    for directory in problem_dirs:
        problem = load_problem(directory)
        ir = compile_program(problem.original)
        limits, base = baseline_limits(ir, problem.suite)
        jobs.append((problem.name, ir, problem.suite, limits, base.total_cost))
    report = {"msteps_per_s": {}, "disagreements": []}
    for label, engine in available:
        steps = 0
        start = time.perf_counter()
        while True:
            for name, ir, suite, limits, cost in jobs:
                result = run_suite(ir, suite, limits, engine=engine)
                if result.total_cost != cost:
                    report["disagreements"].append(
                        f"{label} engine: {name} cost {result.total_cost} "
                        f"!= baseline {cost}")
                steps += result.total_cost
            elapsed = time.perf_counter() - start
            if elapsed >= seconds:
                break
        report["msteps_per_s"][label] = steps / elapsed / 1e6
    report["disagreements"] = sorted(set(report["disagreements"]))
    with open(out_path, "w", encoding="utf-8") as fh:
        json.dump(report, fh)
    return 0


def main(argv):
    mode, out_path, rest = argv[0], argv[1], argv[2:]
    if mode == "trace":
        return trace(out_path, rest)
    if mode == "engines":
        return engines(out_path, rest)
    raise SystemExit(f"unknown mode {mode!r}")


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
