"""Benchmark problems: loading, improvement-node annotation, suite
generation, and validation.

A problem directory holds ``original.mini``, one or more ``improved-*.mini``
variants, ``problem.json`` (name, notes, designated improved version,
documented improvement percentage) and a generated ``suite.json``.

Improvement nodes come from an AST diff of the original against the
designated improved version: the two trees are aligned top-down and the
smallest set of original nodes that cannot be matched is flagged. The
aligner knows four moves per node pair: match (same kind and payload,
children aligned as sequences), unwrap-original (the improved version
dropped a wrapper; the wrapper and its non-surviving children are flagged),
unwrap-improved (the improved version added a wrapper around existing code;
the wrapped original node is flagged), and give-up (flag the whole original
subtree). Sequence alignment may also drop original statements (flagging
their subtrees) or absorb inserted improved statements (flagging the parent,
since an insertion has no original node of its own). Ties prefer moves in
the order just given, so the result is deterministic.
"""

from __future__ import annotations

import json
import os
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Sequence

from .lang.ast import AstNode, Program
from .lang.check import static_check
from .lang.parser import ParseError, parse_program
from .runtime.exec import (
    TestCase, baseline_limits, compile_program, run_suite, BaselineDiverged,
)
from .runtime.ir import HEAP_LIMIT, INT_MIN

DEFAULT_SEED = 20220822
CORPUS_VERSION = "1"
SIZES = tuple(range(1, 11))
ORDERINGS = ("sorted", "reverse", "random")
VALUE_RANGE = 100

PROBLEM_NAMES = (
    "insertion", "bubble", "bubble_loops", "selection", "selection2",
    "shell", "radix", "quick", "cocktail", "merge", "heap",
)


class CorpusInvalid(Exception):
    def __init__(self, failures: list[str]):
        self.failures = failures
        super().__init__("; ".join(failures))


@dataclass(frozen=True)
class ProblemSpec:
    name: str
    original: Program
    improved: tuple[Program, ...]
    designated: int                     # index into improved
    annotation: frozenset[int]
    suite: tuple[TestCase, ...]
    notes: str
    improvement_pct: Optional[float]    # documentation only


# test generation ----------------------------------------------------------

def generate_tests(seed: int = DEFAULT_SEED) -> list[TestCase]:
    """One sorted, one reverse-sorted and one random array per size 1..10.
    Expected outputs come from the host sort, never from a corpus program."""
    rng = random.Random(seed)
    tests = []
    for size in SIZES:
        values = [rng.randrange(VALUE_RANGE) for _ in range(size)]
        for ordering in ORDERINGS:
            if ordering == "sorted":
                arr = sorted(values)
            elif ordering == "reverse":
                arr = sorted(values, reverse=True)
            else:
                arr = [rng.randrange(VALUE_RANGE) for _ in range(size)]
            tests.append(TestCase(tuple(arr), (size,), tuple(sorted(arr))))
    return tests


def suite_to_json(suite: Sequence[TestCase]) -> str:
    rows = [{"input": list(t.input_array), "args": list(t.extra_args),
             "expected": list(t.expected_output)} for t in suite]
    return json.dumps(rows, indent=1) + "\n"


class SuiteInvalid(ValueError):
    """A suite file that is not a list of well-formed cases."""


def _int32_list(row: dict, key: str, where: str) -> tuple[int, ...]:
    values = row.get(key)
    if not isinstance(values, list):
        raise SuiteInvalid(f"{where}: {key!r} must be a list of ints")
    for v in values:
        # bool is a subclass of int, but true is not a test value
        if type(v) is not int or not INT_MIN <= v < -INT_MIN:
            raise SuiteInvalid(
                f"{where}: {key!r} holds {json.dumps(v)}, not an int32")
    return tuple(values)


def suite_from_json(text: str, program: Program) -> list[TestCase]:
    """Parse a suite for ``program``, rejecting anything the engines could
    not run as given: every value an int32 (no bools or floats),
    ``expected`` as long as ``input``, ``input`` no longer than the heap,
    and one value in ``args`` for each parameter of the entry function
    after the array."""
    try:
        rows = json.loads(text)
    except json.JSONDecodeError as exc:
        raise SuiteInvalid(f"not JSON: {exc}")
    if not isinstance(rows, list):
        raise SuiteInvalid("a suite must be a list of cases")
    entry = program.functions[program.entry_index()]
    suite = []
    for i, row in enumerate(rows):
        where = f"case {i}"
        if not isinstance(row, dict):
            raise SuiteInvalid(f"{where}: not an object")
        inp = _int32_list(row, "input", where)
        expected = _int32_list(row, "expected", where)
        args = _int32_list(row, "args", where)
        if len(expected) != len(inp):
            raise SuiteInvalid(
                f"{where}: 'expected' has {len(expected)} values, "
                f"'input' {len(inp)}")
        if len(inp) > HEAP_LIMIT:
            raise SuiteInvalid(
                f"{where}: 'input' has {len(inp)} values, over the heap "
                f"limit of {HEAP_LIMIT}")
        if len(args) != len(entry.params) - 1:
            raise SuiteInvalid(
                f"{where}: 'args' has {len(args)} values, but "
                f"{entry.name!r} takes {len(entry.params) - 1} after the "
                f"array")
        suite.append(TestCase(inp, args, expected))
    return suite


# AST diff -----------------------------------------------------------------

def _subtree_ids(node: AstNode) -> frozenset[int]:
    return frozenset(n.node_id for n in node.walk())


def _better(a, b):
    """Smaller flag set wins; exact content breaks ties deterministically."""
    if a is None:
        return b
    if b is None:
        return a
    ka = (len(a), tuple(sorted(a)))
    kb = (len(b), tuple(sorted(b)))
    return a if ka <= kb else b


def _align(o: AstNode, m: AstNode, memo: dict,
           seq_memo: dict) -> frozenset[int]:
    key = (o.node_id, m.node_id)
    if key in memo:
        return memo[key]
    # keep recursion well-founded before taking any recursive option
    memo[key] = _subtree_ids(o)
    best = None
    if o.kind == m.kind and o.payload() == m.payload():
        best = _better(best, _align_seq(o.children, m.children, o, memo,
                                        seq_memo))
    for child in o.children:
        dropped = _subtree_ids(o) - _subtree_ids(child)
        best = _better(best, dropped | _align(child, m, memo, seq_memo))
    for child in m.children:
        best = _better(best, frozenset((o.node_id,))
                       | _align(o, child, memo, seq_memo))
    best = _better(best, _subtree_ids(o))
    memo[key] = best
    return best


def _align_seq(os: list[AstNode], ms: list[AstNode], parent: AstNode,
               memo: dict, seq_memo: dict) -> frozenset[int]:
    key = (parent.node_id, tuple(n.node_id for n in os),
           tuple(n.node_id for n in ms))
    if key in seq_memo:
        return seq_memo[key]
    if not os and not ms:
        result = frozenset()
    elif not os:
        result = frozenset((parent.node_id,))
    elif not ms:
        result = frozenset().union(*(_subtree_ids(n) for n in os))
    else:
        result = _better(
            _better(_align(os[0], ms[0], memo, seq_memo)
                    | _align_seq(os[1:], ms[1:], parent, memo, seq_memo),
                    _subtree_ids(os[0])
                    | _align_seq(os[1:], ms, parent, memo, seq_memo)),
            frozenset((parent.node_id,))
            | _align_seq(os, ms[1:], parent, memo, seq_memo))
    seq_memo[key] = result
    return result


def diff_improvement_nodes(original: Program,
                           improved: Program) -> frozenset[int]:
    # The memos are plain locals, not closure cells, so they are freed as
    # soon as the diff returns rather than at the next cyclic collection.
    memo: dict[tuple[int, int], frozenset[int]] = {}
    seq_memo: dict[tuple, frozenset[int]] = {}
    flags: frozenset[int] = frozenset()
    n_funcs = max(len(original.functions), len(improved.functions))
    for i in range(n_funcs):
        if i >= len(improved.functions):
            flags |= _subtree_ids(original.functions[i])
        elif i < len(original.functions):
            flags |= _align(original.functions[i], improved.functions[i],
                            memo, seq_memo)
    return flags


# loading and validation ---------------------------------------------------

def _read(path: str) -> str:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise CorpusInvalid([f"{path}: unreadable ({exc})"])


def load_program(path: str) -> Program:
    """Read, parse and check one program file."""
    try:
        program = parse_program(_read(path))
    except ParseError as exc:
        raise CorpusInvalid([f"{path}: {exc}"])
    violations = static_check(program)
    if violations:
        raise CorpusInvalid([f"{path}: does not compile: {violations[0]}"])
    return program


def load_suite(path: str, program: Program) -> tuple[TestCase, ...]:
    """Read a suite file for ``program`` (see ``suite_from_json``)."""
    try:
        return tuple(suite_from_json(_read(path), program))
    except SuiteInvalid as exc:
        raise CorpusInvalid([f"{path}: bad test suite: {exc}"])


def load_problem(directory: str) -> ProblemSpec:
    """Raises CorpusInvalid, naming the file, on anything it cannot use."""
    meta_path = os.path.join(directory, "problem.json")
    try:
        meta = json.loads(_read(meta_path))
    except json.JSONDecodeError as exc:
        raise CorpusInvalid([f"{meta_path}: not JSON ({exc})"])
    if not isinstance(meta, dict) or not isinstance(meta.get("name"), str):
        raise CorpusInvalid([f"{meta_path}: needs a \"name\" string"])
    original = load_program(os.path.join(directory, "original.mini"))
    improved_names = sorted(
        f for f in os.listdir(directory)
        if f.startswith("improved-") and f.endswith(".mini"))
    if not improved_names:
        raise CorpusInvalid([f"{directory}: no improved versions"])
    improved = tuple(load_program(os.path.join(directory, f))
                     for f in improved_names)
    designated_name = meta.get("improved", improved_names[0])
    if designated_name not in improved_names:
        raise CorpusInvalid(
            [f"{directory}: designated version {designated_name} missing"])
    designated = improved_names.index(designated_name)
    suite = load_suite(os.path.join(directory, "suite.json"), original)
    annotation = diff_improvement_nodes(original, improved[designated])
    pct = meta.get("improvement_pct")
    return ProblemSpec(
        name=meta["name"], original=original, improved=improved,
        designated=designated, annotation=frozenset(annotation),
        suite=suite, notes=meta.get("notes", ""),
        improvement_pct=pct)


def problem_dirs(corpus_dir: str) -> list[str]:
    return sorted(
        os.path.join(corpus_dir, d) for d in os.listdir(corpus_dir)
        if os.path.isdir(os.path.join(corpus_dir, d))
        and os.path.exists(os.path.join(corpus_dir, d, "problem.json")))


def measured_improvement(problem: ProblemSpec) -> tuple[Fraction, int, int]:
    """(fractional saving, original cost, designated improved cost)."""
    ir = compile_program(problem.original)
    limits, base = baseline_limits(ir, problem.suite)
    improved_ir = compile_program(problem.improved[problem.designated])
    result = run_suite(improved_ir, problem.suite, limits)
    saving = Fraction(base.total_cost - result.total_cost, base.total_cost)
    return saving, base.total_cost, result.total_cost


def validate_problem(directory: str) -> list[str]:
    failures = []
    try:
        problem = load_problem(directory)
    except CorpusInvalid as exc:
        return exc.failures
    name = problem.name
    for test in problem.suite:
        if tuple(sorted(test.input_array)) != test.expected_output:
            failures.append(f"{name}: suite expectation is not sorted input")
            break
    try:
        ir = compile_program(problem.original)
        limits, base = baseline_limits(ir, problem.suite)
    except BaselineDiverged as exc:
        failures.append(f"{name}: original fails its suite ({exc})")
        return failures
    for i, imp in enumerate(problem.improved):
        result = run_suite(compile_program(imp), problem.suite, limits)
        if result.correctness != 1:
            failures.append(
                f"{name}: improved version {i} correctness "
                f"{result.correctness}")
        if result.total_cost >= base.total_cost:
            failures.append(
                f"{name}: improved version {i} cost {result.total_cost} "
                f"not below original {base.total_cost}")
    if not problem.annotation:
        failures.append(f"{name}: empty improvement annotation")
    n_nodes = len(problem.original.nodes)
    for node in problem.annotation:
        if not 0 <= node < n_nodes:
            failures.append(f"{name}: annotation node {node} out of range")
    return failures


def validate_corpus(corpus_dir: str) -> dict[str, list[str]]:
    """Per-problem failure lists; raises CorpusInvalid if any are non-empty
    or the corpus directory has no problems."""
    dirs = problem_dirs(corpus_dir)
    if not dirs:
        raise CorpusInvalid([f"{corpus_dir}: no problems found"])
    report = {}
    failures = []
    for d in dirs:
        problems = validate_problem(d)
        report[os.path.basename(d)] = problems
        failures.extend(problems)
    if failures:
        raise CorpusInvalid(failures)
    return report
