"""The benchmark's per-layer probes must all find their targets, and still
see every step of the exhaustive loop.

``perfbench/tracer.py`` wraps each layer at the module and name its caller
looks up, and reports a probe whose target is gone as absent rather than
failing. The first two tests read the tracer's ``PROBES`` table from its
source, without running the tracer, so that a rename which would silently
drop a per-layer metric, or a probe that is never called and so reads 0,
fails here instead. The others wrap the ``perfloc.mutation`` bindings the
way the tracer does and count the calls.
"""

import ast
import importlib
import os
import shutil
from collections import Counter

from perfloc import cli, mutation
from perfloc.lang.check import Holes
from perfloc.lang.parser import Parser

from conftest import CORPUS_DIR

TRACER = os.path.join(os.path.dirname(__file__), os.pardir, "perfbench",
                      "tracer.py")


def probes():
    with open(TRACER, encoding="utf-8") as fh:
        tree = ast.parse(fh.read())
    (table,) = [node.value for node in tree.body
                if isinstance(node, ast.Assign)
                and [t.id for t in node.targets] == ["PROBES"]]
    return ast.literal_eval(table)


def test_every_benchmark_probe_resolves():
    table = probes()
    assert len(table) > 20
    missing = [(span, module, attr) for span, module, attr in table
               if not hasattr(importlib.import_module(module), attr)]
    assert missing == []


def counting(calls, name, fn):
    def wrapper(*args, **kwargs):
        calls[name] += 1
        return fn(*args, **kwargs)
    return wrapper


def test_every_benchmark_probe_fires(tmp_path, monkeypatch):
    # The problems of the exec-heavy workload, with their committed suites.
    corpus = tmp_path / "corpus"
    for name in ("bubble_loops", "insertion"):
        shutil.copytree(os.path.join(CORPUS_DIR, name), corpus / name)
    calls = Counter()
    table = probes()
    for _, module_name, attr in table:
        module = importlib.import_module(module_name)
        monkeypatch.setattr(module, attr, counting(
            calls, (module_name, attr), getattr(module, attr)))
    assert cli.main(["evaluate", "--corpus", str(corpus),
                     "--out", str(tmp_path / "out")]) == 0
    assert [(module_name, attr) for _, module_name, attr in table
            if not calls[module_name, attr]] == []


LOOP_BINDINGS = ("replace_node", "static_check", "compile_program",
                 "run_suite", "run_patch", "classify_variant",
                 "baseline_limits")


def test_the_probes_see_every_step_of_the_exhaustive_loop(bubble_loops,
                                                          monkeypatch):
    calls = Counter()
    for name in LOOP_BINDINGS:
        monkeypatch.setattr(mutation, name,
                            counting(calls, name, getattr(mutation, name)))
    program = bubble_loops.original
    holes = Holes(program)
    verdicts = Counter(holes.fit(d.target, d.donor, d.donor_id)[0]
                       for d in mutation.exhaustive_descriptors(program))
    proven, accepted = verdicts[False], verdicts[True]
    result = mutation.exhaustive_analysis(
        mutation.baseline(program, bubble_loops.suite))
    generated, compiled = (result.cost.variants_generated,
                           result.cost.compiled)
    assert 0 < compiled < generated
    assert (generated, proven, accepted) == (794, 474, 317)
    full_path = generated - proven - accepted
    assert calls == {
        # a variant its hole proves non-compilable is never built or
        # checked, and one it accepts runs as a splice of the original's
        # IR; both are still classified
        "replace_node": full_path,
        "static_check": full_path,
        "classify_variant": generated,
        # the original is lowered once more, for its baseline, whose runs
        # go through baseline_limits; an accepted variant runs as a patch
        # on the prepared original, and a built one through run_suite
        "compile_program": compiled - accepted + 1,
        "run_suite": compiled - accepted, "run_patch": accepted,
        "baseline_limits": 1,
    }


def test_a_combined_analysis_has_one_baseline(bubble_loops, monkeypatch):
    calls = Counter()
    for name in ("baseline_limits", "prepare"):
        monkeypatch.setattr(mutation, name,
                            counting(calls, name, getattr(mutation, name)))
    program = bubble_loops.original
    compile_program = mutation.compile_program

    def lowering(variant):
        calls["lowers the original"] += variant is program
        return compile_program(variant)

    monkeypatch.setattr(mutation, "compile_program", lowering)
    mutation.combined_analysis(mutation.baseline(program, bubble_loops.suite))
    # deletion and exhaustive read one lowering and one bootstrap run of
    # the original; only the exhaustive loop prepares it for its patches
    assert calls == {"baseline_limits": 1, "prepare": 1,
                     "lowers the original": 1}


def test_the_exhaustive_loop_never_reparses(bubble_loops, monkeypatch):
    def refuse(self):
        raise AssertionError("the exhaustive loop parsed program text")

    monkeypatch.setattr(Parser, "parse_program", refuse)
    result = mutation.exhaustive_analysis(
        mutation.baseline(bubble_loops.original, bubble_loops.suite))
    assert result.cost.variants_generated == len(result.variants) > 0
