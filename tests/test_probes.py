"""The benchmark's per-layer probes must all find their targets.

``perfbench/tracer.py`` wraps each layer at the module and name its caller
looks up, and reports a probe whose target is gone as absent rather than
failing. This test reads the tracer's ``PROBES`` table from its source,
without running the tracer, so that a rename which would silently drop a
per-layer metric fails here instead.
"""

import ast
import importlib
import os

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
