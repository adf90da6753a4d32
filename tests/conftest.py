"""Shared fixtures plus the criteria reporter.

Criterion tests append one "PASS criterion-N ..." / "FAIL criterion-N ..."
line each via record(); the lines are printed after the run so they stay
visible even when pytest captures stdout.
"""

import os
import shlex
import shutil
import sysconfig
from array import array

import pytest
from hypothesis import settings

from perfloc.corpus import load_problem, problem_dirs
from perfloc.runtime import engine_py, exec as execution

# Every run of the suite draws the same Hypothesis examples.
settings.register_profile("derandomized", derandomize=True)
settings.load_profile("derandomized")

CORPUS_DIR = os.path.join(os.path.dirname(__file__), os.pardir, "corpus")

# Every report's bytes: the five evaluate reports, and for each corpus
# problem localize's combined nodes.csv and variants.csv and profile's
# profile.csv. A digest changes only on purpose, named in CHANGES.md.
REPORT_DIGESTS = os.path.join(os.path.dirname(__file__),
                              "report_digests.json")

_CRITERIA_LINES: list[str] = []


def record(line: str) -> None:
    _CRITERIA_LINES.append(line)


def check(criterion: str, ok: bool, detail: str) -> bool:
    record(f"{'PASS' if ok else 'FAIL'} {criterion}: {detail}")
    return ok


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if _CRITERIA_LINES:
        terminalreporter.section("acceptance criteria")
        for line in _CRITERIA_LINES:
            terminalreporter.write_line(line)


@pytest.fixture(scope="session")
def problems():
    return {os.path.basename(d): load_problem(d)
            for d in problem_dirs(CORPUS_DIR)}


@pytest.fixture(scope="session")
def bubble_loops(problems):
    return problems["bubble_loops"]


@pytest.fixture(scope="session")
def c_engine():
    """The compiled engine. A test that needs it skips only where it cannot
    be built: no C compiler on PATH and PERFLOC_ENGINE is not ``c``.
    Anywhere else a failed build fails the test."""
    try:
        from perfloc.runtime import _engine
    except ImportError as exc:
        compiler = shlex.split(sysconfig.get_config_var("CC") or "cc")[0]
        forced = os.environ.get("PERFLOC_ENGINE", "").strip().lower() == "c"
        if shutil.which(compiler) is None and not forced:
            pytest.skip(f"no C compiler ({compiler}) to build the engine")
        pytest.fail(f"the compiled engine did not build: {exc}")
    return _engine


@pytest.fixture(scope="session", params=["py", "c"])
def engine(request):
    """Each engine in turn: ``engine_py``, then the compiled one."""
    if request.param == "py":
        return engine_py
    return request.getfixturevalue("c_engine")


def run_tests(ir, suite, limits, engine=None, counts=None):
    """The (status, steps, error, final array) row of each test, run on
    ``engine``, by default the active one; ``counts`` holds an array per
    test."""
    return (engine or execution._ENGINE).run_tests(ir, suite, limits, counts)


def reached_tests(program, ir, suite, limits, engine=None):
    """For each node of ``program``, the tests on which ``ir``, lowered
    from it, enters the node's nearest enclosing statement, or every test
    for a node outside any statement: one counted run of the suite, each
    test under its own limit and with its own counts."""
    entered = [array("q", [0]) * len(ir.kind) for _ in suite]
    run_tests(ir, suite, limits, engine, entered)
    every = tuple(range(len(suite)))
    return [tuple(k for k in every if entered[k][s]) if s >= 0 else every
            for s in map(program.enclosing_statement,
                         range(len(program.nodes)))]


def corpus_source(name: str) -> str:
    path = os.path.join(CORPUS_DIR, name, "original.mini")
    with open(path, "r", encoding="utf-8") as fh:
        return fh.read()
