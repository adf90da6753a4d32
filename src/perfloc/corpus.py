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
since an insertion has no original node of its own). Of all the sets these
moves can flag, the aligner takes the one with the fewest nodes, then the
one holding the lowest node id in which the sets differ. That order is
total, so the result does not depend on the order the moves are tried.
Structurally equal subtrees align at once with the empty set, the least
set of all, without trying any move.
"""

from __future__ import annotations

import json
import os
import random
from dataclasses import dataclass
from typing import Optional, Sequence

from .lang.ast import (
    Program, TYPE_ARRAY, TYPE_BOOL, TYPE_INT, structurally_equal,
)
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
    """Parse a suite for ``program``, rejecting an empty suite and anything
    the engines could not run as given: an entry function that does not
    take an ``int[]`` and then only ``int`` or ``bool`` parameters, a value
    that is not an int32 (JSON bools and floats included), ``expected`` not
    as long as ``input``, ``input`` longer than the heap, and ``args``
    without one value for each parameter after the array, 0 or 1 for a
    ``bool``."""
    try:
        rows = json.loads(text)
    except json.JSONDecodeError as exc:
        raise SuiteInvalid(f"not JSON: {exc}")
    if not isinstance(rows, list):
        raise SuiteInvalid("a suite must be a list of cases")
    if not rows:
        raise SuiteInvalid("a suite needs at least one case")
    entry = program.functions[program.entry_index()]
    types = [t for t, _ in entry.params or []]
    if types[:1] != [TYPE_ARRAY] \
            or not set(types[1:]) <= {TYPE_INT, TYPE_BOOL}:
        raise SuiteInvalid(
            f"entry function {entry.name!r} must take an int[] and then "
            f"only int or bool parameters")
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
        if len(args) != len(types) - 1:
            raise SuiteInvalid(
                f"{where}: 'args' has {len(args)} values, but "
                f"{entry.name!r} takes {len(types) - 1} after the array")
        for value, (ptype, name) in zip(args, entry.params[1:]):
            if ptype == TYPE_BOOL and value not in (0, 1):
                raise SuiteInvalid(
                    f"{where}: 'args' gives bool {name!r} {value}, not 0 "
                    f"or 1")
        suite.append(TestCase(inp, args, expected))
    return suite


# AST diff -----------------------------------------------------------------
#
# A flag set is an int over the original's n nodes, node i at bit n - 1 - i,
# so union is |, size is bit_count() and a lower id is a higher bit.

def _rank(flags: int) -> tuple[int, int]:
    """Fewer nodes first, then the set holding the lowest differing id:
    a total order, so the least candidate never depends on their order."""
    return flags.bit_count(), -flags


class _Aligner:
    """One diff's tables and memo. Ids index the two programs' tables;
    ``sub[i]`` is the flag set of original node i's subtree. One memo
    serves both aligners: ``align`` keys are pairs, ``align_seq`` keys
    4-tuples. Nothing refers back to the aligner, so its memo is freed as
    soon as the diff returns rather than at the next cyclic collection."""

    def __init__(self, original: Program, improved: Program):
        self.o_nodes, self.o_first = original.nodes, original.first
        self.m_nodes, self.m_first = improved.nodes, improved.first
        n = len(self.o_nodes)
        sub = [0] * n
        # breadth-first ids: every child's id is above its parent's
        for i in range(n - 1, -1, -1):
            flags = 1 << (n - 1 - i)
            f = self.o_first[i]
            for c in range(f, f + len(self.o_nodes[i].children)):
                flags |= sub[c]
            sub[i] = flags
        self.sub = sub
        self.memo: dict[tuple[int, ...], int] = {}

    def align(self, oi: int, mi: int) -> int:
        """The least flag set aligning original node ``oi`` with improved
        node ``mi``."""
        key = (oi, mi)
        memo = self.memo
        if key not in memo:
            o, m = self.o_nodes[oi], self.m_nodes[mi]
            if o.structural_hash() == m.structural_hash() and \
                    structurally_equal(o, m):
                memo[key] = 0  # the empty set ranks below every other
                return 0
            sub = self.sub
            whole = sub[oi]
            own = 1 << (len(sub) - 1 - oi)
            candidates = [whole]
            if o.kind == m.kind and o.payload() == m.payload():
                candidates.append(self.align_seq(oi, mi, 0, 0))
            of, mf = self.o_first[oi], self.m_first[mi]
            candidates.extend(whole & ~sub[c] | self.align(c, mi)
                              for c in range(of, of + len(o.children)))
            candidates.extend(own | self.align(oi, c)
                              for c in range(mf, mf + len(m.children)))
            memo[key] = min(candidates, key=_rank)
        return memo[key]

    def align_seq(self, oi: int, mi: int, i: int, j: int) -> int:
        """The least flag set aligning the children of original node ``oi``
        from position ``i`` on with those of improved node ``mi`` from
        position ``j`` on."""
        key = (oi, mi, i, j)
        memo = self.memo
        if key not in memo:
            more_o = i < len(self.o_nodes[oi].children)
            more_m = j < len(self.m_nodes[mi].children)
            oc, mc = self.o_first[oi] + i, self.m_first[mi] + j
            candidates = []
            if more_o and more_m:
                candidates.append(self.align(oc, mc)
                                  | self.align_seq(oi, mi, i + 1, j + 1))
            if more_o:
                candidates.append(self.sub[oc]
                                  | self.align_seq(oi, mi, i + 1, j))
            if more_m:
                # an insertion has no original node, so it flags the parent
                candidates.append(1 << (len(self.sub) - 1 - oi)
                                  | self.align_seq(oi, mi, i, j + 1))
            memo[key] = min(candidates, key=_rank) if candidates else 0
        return memo[key]


def diff_improvement_nodes(original: Program,
                           improved: Program) -> frozenset[int]:
    aligner = _Aligner(original, improved)
    sub = aligner.sub
    n = len(sub)
    flags = 0
    for k in range(len(original.functions)):  # function k is node k
        if k < len(improved.functions):
            flags |= aligner.align(k, k)
        else:
            flags |= sub[k]
    return frozenset(i for i in range(n) if flags >> (n - 1 - i) & 1)


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


def _problem_meta(directory: str) -> dict:
    meta_path = os.path.join(directory, "problem.json")
    try:
        meta = json.loads(_read(meta_path))
    except json.JSONDecodeError as exc:
        raise CorpusInvalid([f"{meta_path}: not JSON ({exc})"])
    if not isinstance(meta, dict) or not isinstance(meta.get("name"), str):
        raise CorpusInvalid([f"{meta_path}: needs a \"name\" string"])
    return meta


def load_problem(directory: str) -> ProblemSpec:
    """Raises CorpusInvalid, naming the file, on anything it cannot use."""
    meta = _problem_meta(directory)
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
        designated=designated, annotation=annotation,
        suite=suite, notes=meta.get("notes", ""),
        improvement_pct=pct)


def problem_dirs(corpus_dir: str) -> list[str]:
    """The problem directories, sorted. Raises CorpusInvalid if two give
    the same problem name, since the reports key problems by name."""
    try:
        names = os.listdir(corpus_dir)
    except OSError as exc:
        raise CorpusInvalid([f"{corpus_dir}: unreadable ({exc.strerror})"])
    dirs = sorted(
        os.path.join(corpus_dir, d) for d in names
        if os.path.isdir(os.path.join(corpus_dir, d))
        and os.path.exists(os.path.join(corpus_dir, d, "problem.json")))
    owners: dict[str, str] = {}
    for directory in dirs:
        try:
            name = _problem_meta(directory)["name"]
        except CorpusInvalid:
            continue    # load_problem reports it with the problem
        if name in owners:
            raise CorpusInvalid([
                f"{os.path.join(directory, 'problem.json')}: problem name "
                f"{name!r} is already used by {owners[name]}"])
        owners[name] = directory
    return dirs


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
