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
set of all, without trying any move. The search is exact: a branch and
bound skips only the moves that provably flag more nodes than the best
set found so far (see "AST diff" below).
"""

from __future__ import annotations

import json
import os
import random
from typing import NamedTuple, Optional, Sequence

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


class ProblemSpec(NamedTuple):
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
#
# Contract. The diff returns, of all the flag sets the moves in the module
# docstring can build, the least under ``_rank``: exactly the set an
# unpruned search over every move would return. It gets there by branch
# and bound. ``align(o, m, cap)`` returns the least set aligning o with m
# when that set has at most ``cap`` nodes, and None otherwise; the
# sequence walk does the same for the children of o and m from positions
# (i, j) on. A move is skipped only when a lower bound on the size of
# every set it can build is strictly above ``limit``, the smaller of the
# cap and the best size found so far: such a move cannot give the least
# set. A move that may tie the best is built in full, and ``_rank``
# decides. The memo keeps every exact result, and for a key whose set was
# above its cap, the largest cap that failed, so a call with a cap no
# larger fails at once.
#
# Why each bound is admissible:
# - Every node a set leaves unflagged is matched to an improved node of
#   the same kind and payload, no two to the same one (by induction over
#   the moves). So aligning o with m flags at least size(o) - size(m)
#   nodes, and ``align`` fails at once when that is above its cap.
# - Siblings' subtrees are disjoint and a deleted child flags its whole
#   subtree, so with ro original and rm improved children left, at least
#   ro - rm children are deleted at one bit or more each. When rm > ro,
#   some insertion flags the parent, whose bit lies in no child's subtree.
# - A match's own alignment, a deletion's subtree and an unwrapped
#   original child's wrapper (``whole & ~sub[c]``) are disjoint from
#   anything the rest of that move can flag. So the rest is called with
#   the limit less their size, and a match's head with the limit less the
#   rest's bound.
# - An insertion, and an unwrapped improved child ``own | align(o, c)``,
#   flag the parent's own bit, which the rest may already hold. Their
#   size may equal the rest's, so the rest gets the whole limit, and an
#   insertion's bound counts the parent's bit once, beside the rest's
#   deletions. "1 plus the rest's bound" is no bound here: it turned the
#   ``bubble`` -> ``bubble_loops`` diff from {1} into {2}.
#
# Depth. ``align`` recurses once per level of nesting in the two trees.
# The sequence walk keeps each pending position pair on a list of its own,
# as a generator, so a block of any length costs no Python stack: a flat
# program of thousands of statements diffs like a short one.

def _rank(flags: int) -> tuple[int, int]:
    """Fewer nodes first, then the set holding the lowest differing id:
    a total order, so the least candidate never depends on their order."""
    return flags.bit_count(), -flags


def _subtree_sizes(program: Program) -> list[int]:
    """The node count of every node's subtree."""
    nodes, first = program.nodes, program.first
    sizes = [1] * len(nodes)
    for i in range(len(nodes) - 1, -1, -1):
        f = first[i]
        sizes[i] += sum(sizes[f:f + len(nodes[i].children)])
    return sizes


class _Aligner:
    """One diff's tables and memo. Ids index the two programs' tables;
    ``sub[i]`` is the flag set of original node i's subtree, and
    ``o_size``/``m_size`` hold the two programs' subtree sizes. ``memo``
    holds exact results and ``failed`` the largest cap each key exceeded;
    ``align`` keys are pairs, sequence keys 4-tuples. Nothing refers back
    to the aligner, so its memo is freed as soon as the diff returns
    rather than at the next cyclic collection."""

    def __init__(self, original: Program, improved: Program):
        self.o_nodes, self.o_first = original.nodes, original.first
        self.m_nodes, self.m_first = improved.nodes, improved.first
        self.o_size = _subtree_sizes(original)
        self.m_size = _subtree_sizes(improved)
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
        self.failed: dict[tuple[int, ...], int] = {}

    def align(self, oi: int, mi: int, cap: int) -> Optional[int]:
        """The least flag set aligning original node ``oi`` with improved
        node ``mi``, or None when it has more than ``cap`` nodes."""
        key = (oi, mi)
        flags = self.memo.get(key)
        if flags is not None:
            return flags if flags.bit_count() <= cap else None
        if self.failed.get(key, -1) >= cap \
                or self.o_size[oi] - self.m_size[mi] > cap:
            return None
        o, m = self.o_nodes[oi], self.m_nodes[mi]
        if o.structural_hash() == m.structural_hash() and \
                structurally_equal(o, m):
            self.memo[key] = 0  # the empty set ranks below every other
            return 0
        sub = self.sub
        whole = sub[oi]
        own = 1 << (len(sub) - 1 - oi)
        best = whole
        limit = min(cap, self.o_size[oi])
        if o.kind == m.kind and o.payload() == m.payload():
            flags = self.align_seq(oi, mi, limit)
            if flags is not None and _rank(flags) < _rank(best):
                best, limit = flags, min(limit, flags.bit_count())
        of = self.o_first[oi]
        for c in range(of, of + len(o.children)):
            fixed = self.o_size[oi] - self.o_size[c]
            if fixed <= limit:
                flags = self.align(c, mi, limit - fixed)
                if flags is not None:
                    flags |= whole & ~sub[c]
                    if _rank(flags) < _rank(best):
                        best, limit = flags, min(limit, flags.bit_count())
        mf = self.m_first[mi]
        for c in range(mf, mf + len(m.children)):
            flags = self.align(oi, c, limit)
            if flags is not None:
                flags |= own
                if _rank(flags) < _rank(best):
                    best, limit = flags, min(limit, flags.bit_count())
        if best.bit_count() > cap:
            self.failed[key] = cap
            return None
        self.memo[key] = best
        return best

    def align_seq(self, oi: int, mi: int, cap: int) -> Optional[int]:
        """The least flag set aligning the children of original node
        ``oi`` with those of improved node ``mi``, or None when it has more
        than ``cap`` nodes. Each position pair is a generator that yields
        the position pair and cap it needs next and is sent the answer,
        so the walk's depth lives in ``stack``, not on Python's."""
        o_kids = len(self.o_nodes[oi].children)
        m_kids = len(self.m_nodes[mi].children)
        of, mf = self.o_first[oi], self.m_first[mi]

        def bound(i: int, j: int) -> int:
            """A lower bound on the size of any alignment from (i, j) on:
            the deletions it must make, and the parent's bit if it must
            insert."""
            ro, rm = o_kids - i, m_kids - j
            return max(0, ro - rm) + (rm > ro)

        sub, memo, failed = self.sub, self.memo, self.failed
        own = 1 << (len(sub) - 1 - oi)

        def cell(i: int, j: int, cap: int):
            key = (oi, mi, i, j)
            best = memo.get(key)
            if best is not None:
                return best if best.bit_count() <= cap else None
            if failed.get(key, -1) >= cap or bound(i, j) > cap:
                return None
            if i == o_kids and j == m_kids:
                memo[key] = 0
                return 0
            limit = cap
            if i < o_kids and j < m_kids:               # match
                rest_bound = bound(i + 1, j + 1)
                if rest_bound <= limit:
                    head = self.align(of + i, mf + j, limit - rest_bound)
                    if head is not None:
                        rest = yield i + 1, j + 1, limit - head.bit_count()
                        if rest is not None:
                            best = head | rest
                            limit = best.bit_count()
            if i < o_kids:                              # delete
                gone = self.o_size[of + i]
                if gone + bound(i + 1, j) <= limit:
                    rest = yield i + 1, j, limit - gone
                    if rest is not None:
                        flags = sub[of + i] | rest
                        if best is None or _rank(flags) < _rank(best):
                            best, limit = flags, flags.bit_count()
            if j < m_kids:                              # insert
                if 1 + max(0, (o_kids - i) - (m_kids - j - 1)) <= limit:
                    rest = yield i, j + 1, limit
                    if rest is not None:
                        flags = own | rest
                        if best is None or _rank(flags) < _rank(best):
                            best = flags
            if best is None or best.bit_count() > cap:
                failed[key] = cap
                return None
            memo[key] = best
            return best

        stack = [cell(0, 0, cap)]
        answer = None
        while stack:
            try:
                call = stack[-1].send(answer)
            except StopIteration as done:
                stack.pop()
                answer = done.value
            else:
                stack.append(cell(*call))
                answer = None
        return answer


def diff_improvement_nodes(original: Program,
                           improved: Program) -> frozenset[int]:
    aligner = _Aligner(original, improved)
    sub = aligner.sub
    n = len(sub)
    flags = 0
    for k in range(len(original.functions)):  # function k is node k
        if k < len(improved.functions):
            flags |= aligner.align(k, k, n)  # giving up always fits
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
    """Read, parse and check one program file. The first violation is
    reported at its node's source position, as a parse error is."""
    try:
        program = parse_program(_read(path))
    except ParseError as exc:
        raise CorpusInvalid([f"{path}: {exc}"])
    violations = static_check(program)
    if violations:
        code, node_id, message = violations[0]
        node = program.nodes[node_id]
        raise CorpusInvalid(
            [f"{path}: {node.line}:{node.col}: {code}: {message}"])
    return program


def _entry_params(program: Program) -> str:
    entry = program.functions[program.entry_index()]
    return ", ".join(t for t, _ in entry.params or [])


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
    # the suite runs every improved version too
    params = _entry_params(original)
    for name, program in zip(improved_names, improved):
        if _entry_params(program) != params:
            raise CorpusInvalid([
                f"{os.path.join(directory, name)}: entry function takes "
                f"({_entry_params(program)}), not the original's "
                f"({params})"])
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
