"""Shared fixtures plus the criteria reporter.

Criterion tests append one "PASS criterion-N ..." / "FAIL criterion-N ..."
line each via record(); the lines are printed after the run so they stay
visible even when pytest captures stdout.
"""

import os
import shlex
import shutil
import sysconfig

import pytest

from perfloc.corpus import load_problem, problem_dirs

CORPUS_DIR = os.path.join(os.path.dirname(__file__), os.pardir, "corpus")

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


def corpus_source(name: str) -> str:
    path = os.path.join(CORPUS_DIR, name, "original.mini")
    with open(path, "r", encoding="utf-8") as fh:
        return fh.read()
