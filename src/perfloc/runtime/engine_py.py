"""Pure-Python interpreter engine.

The compiled engine mirrors this file operation for operation; the two must
produce identical (status, steps, heap) for every input, which a test
enforces. Semantics frozen here:

- Cost events: +1 at every statement entry (Block, VarDecl, Assign, If, For,
  While, Return, ExprStmt) and +1 at every expression-node evaluation, counted
  pre-order (node before its children). Operator nodes and binding
  occurrences (VarDecl names, IncDec operands, bare assignment targets, the
  for-counter update) cost nothing.
- The step counter is checked as increment-then-compare: the run times out
  the moment the counter reaches the limit, even on what would have been the
  final event.
- Ints are 32-bit two's complement; arithmetic wraps. Division truncates
  toward zero; INT_MIN / -1 wraps back to INT_MIN and INT_MIN % -1 is 0.
  Division or modulo by zero raises the DivideByZero outcome.
- ``x++``/``x--`` evaluate to the value before the update.
- && and || short-circuit; the unevaluated side costs nothing.
- Assignment to an element evaluates array, index, then value, and bounds
  checks at the store. Assignment to a variable evaluates only the value.
- A for loop evaluates its init once (in the enclosing scope), stores it,
  then alternates condition / body / silent counter update.
- Calls evaluate arguments left to right, then enter the callee's body,
  the one child of its row, in a frame of ``ir.n_slots`` zeroed cells
  that starts with the arguments. More than 512 live frames raises
  StackOverflow.
- newArray(n) zero-fills; n < 0, or growing the heap past 2^20 ints, raises
  IndexOutOfBounds. Uninitialised variables read as 0 (= false = the empty
  array reference).

``run_tests`` runs a whole IR on a suite and returns a row per test.
``prepare`` and ``run_patch`` run variants given as a ``runtime.ir.Patch``
on a prepared original, on a subset of the tests, and return a
four-number summary; ``runtime.ir.summarize`` gives the same four
numbers for ``run_tests`` rows, and ``runtime.exec`` builds every
``Summary`` of a whole run from it. ``run_tests`` and
``prepare`` validate the IR, and ``run_patch`` each patch, as ``engine.c``
does, so that both raise ValueError on the same malformed input.
"""

from __future__ import annotations

import operator
import sys

from .ir import (
    Patch, ProgramIR, apply_patch, summarize,
    STATUS_COMPLETED, STATUS_TIMEOUT, STATUS_ERROR,
    OP_FUNC, OP_BLOCK, OP_VARDECL, OP_ASSIGN, OP_IF, OP_FOR, OP_WHILE,
    OP_RETURN, OP_EXPRSTMT, OP_BINARY, OP_UNARY, OP_INCDEC, OP_CALL,
    OP_INDEX, OP_IDENT, OP_INTLIT, OP_BOOLLIT, OP_OPER,
    BOP_ADD, BOP_SUB, BOP_MUL, BOP_DIV, BOP_MOD, BOP_LT, BOP_LE, BOP_GT,
    BOP_GE, BOP_EQ, BOP_NE, BOP_AND, BOP_OR,
    HEAP_LIMIT, ARRAY_SHIFT, LEN_MASK, STACK_LIMIT, pack_array, wrap32,
)

ERR_NONE = 0
ERR_INDEX = 1
ERR_DIV = 2
ERR_STACK = 3

_MIN_RECURSION = 200000


class _Timeout(Exception):
    pass


class _Fault(Exception):
    def __init__(self, code):
        self.code = code


class _Return(Exception):
    def __init__(self, value):
        self.value = value


def run(ir: ProgramIR, entry: int, args: list, heap: list,
        step_limit: int, counts=None):
    """Execute function ``entry`` with ``args`` already packed/encoded and
    ``heap`` holding any argument arrays. Returns (status, steps, error).
    ``heap`` is mutated in place and holds the final array contents.

    ``counts``, when given, must hold one int cell per node (a list or an
    ``array('q')``); every statement entry bumps its node's cell (the
    profiler's data source). Python's recursion limit is raised to
    ``_MIN_RECURSION`` only while the program runs."""
    kind = ir.kind
    pa = ir.a
    pb = ir.b
    first = ir.first
    nch = ir.nch
    n_slots = ir.n_slots

    state = [0]  # steps

    def tick():
        state[0] += 1
        if state[0] == step_limit:
            raise _Timeout

    def call(f, argv, depth):
        frame = [0] * n_slots
        for i, v in enumerate(argv):
            frame[i] = v
        try:
            exec_stmt(first[f], frame, depth)
        except _Return as r:
            return r.value
        return None

    def exec_block(i, frame, depth):
        lo = first[i]
        for c in range(lo, lo + nch[i]):
            exec_stmt(c, frame, depth)

    def exec_stmt(i, frame, depth):
        tick()
        if counts is not None:
            counts[i] += 1
        k = kind[i]
        if k == OP_ASSIGN:
            t = first[i]
            if kind[t] == OP_IDENT:
                frame[pa[t]] = eval_expr(t + 1, frame, depth)
            else:
                tick()  # the Index node itself
                ref = eval_expr(first[t], frame, depth)
                idx = eval_expr(first[t] + 1, frame, depth)
                value = eval_expr(t + 1, frame, depth)
                off = ref >> ARRAY_SHIFT
                length = ref & LEN_MASK
                if idx < 0 or idx >= length:
                    raise _Fault(ERR_INDEX)
                heap[off + idx] = value
        elif k == OP_IF:
            if eval_expr(first[i], frame, depth):
                lo = first[i] + 1
                for c in range(lo, lo + pa[i]):
                    exec_stmt(c, frame, depth)
            else:
                lo = first[i] + 1 + pa[i]
                for c in range(lo, first[i] + nch[i]):
                    exec_stmt(c, frame, depth)
        elif k == OP_FOR:
            slot = pa[i]
            step = pb[i]
            frame[slot] = eval_expr(first[i], frame, depth)
            cond = first[i] + 1
            lo = first[i] + 2
            hi = first[i] + nch[i]
            while eval_expr(cond, frame, depth):
                for c in range(lo, hi):
                    exec_stmt(c, frame, depth)
                frame[slot] = wrap32(frame[slot] + step)
        elif k == OP_WHILE:
            cond = first[i]
            lo = cond + 1
            hi = cond + nch[i]
            while eval_expr(cond, frame, depth):
                for c in range(lo, hi):
                    exec_stmt(c, frame, depth)
        elif k == OP_VARDECL:
            if pb[i]:
                frame[pa[i]] = eval_expr(first[i] + 1, frame, depth)
        elif k == OP_EXPRSTMT:
            eval_expr(first[i], frame, depth)
        elif k == OP_BLOCK:
            exec_block(i, frame, depth)
        elif k == OP_RETURN:
            if pb[i]:
                raise _Return(eval_expr(first[i], frame, depth))
            raise _Return(None)

    def eval_expr(i, frame, depth):
        tick()
        k = kind[i]
        if k == OP_IDENT:
            return frame[pa[i]]
        if k == OP_INTLIT or k == OP_BOOLLIT:
            return pa[i]
        if k == OP_BINARY:
            op = pa[i]
            l = eval_expr(first[i] + 1, frame, depth)
            if op == BOP_AND:
                if not l:
                    return 0
                return eval_expr(first[i] + 2, frame, depth)
            if op == BOP_OR:
                if l:
                    return 1
                return eval_expr(first[i] + 2, frame, depth)
            r = eval_expr(first[i] + 2, frame, depth)
            if op == BOP_ADD:
                return wrap32(l + r)
            if op == BOP_SUB:
                return wrap32(l - r)
            if op == BOP_MUL:
                return wrap32(l * r)
            if op == BOP_LT:
                return 1 if l < r else 0
            if op == BOP_LE:
                return 1 if l <= r else 0
            if op == BOP_GT:
                return 1 if l > r else 0
            if op == BOP_GE:
                return 1 if l >= r else 0
            if op == BOP_EQ:
                return 1 if l == r else 0
            if op == BOP_NE:
                return 1 if l != r else 0
            if r == 0:
                raise _Fault(ERR_DIV)
            q = l // r
            if q < 0 and q * r != l:
                q += 1
            if op == BOP_DIV:
                return wrap32(q)
            return l - q * r
        if k == OP_INDEX:
            ref = eval_expr(first[i], frame, depth)
            idx = eval_expr(first[i] + 1, frame, depth)
            off = ref >> ARRAY_SHIFT
            length = ref & LEN_MASK
            if idx < 0 or idx >= length:
                raise _Fault(ERR_INDEX)
            return heap[off + idx]
        if k == OP_INCDEC:
            slot = pa[first[i] + 1]
            old = frame[slot]
            frame[slot] = wrap32(old + pb[i])
            return old
        if k == OP_UNARY:
            v = eval_expr(first[i] + 1, frame, depth)
            if pa[i] == 0:
                return wrap32(-v)
            return 0 if v else 1
        if k == OP_CALL:
            findex = pa[i]
            lo = first[i]
            if findex < 0:
                n = eval_expr(lo, frame, depth)
                if n < 0 or len(heap) + n > HEAP_LIMIT:
                    raise _Fault(ERR_INDEX)
                off = len(heap)
                heap.extend([0] * n)
                return (off << ARRAY_SHIFT) | n
            argv = [eval_expr(c, frame, depth) for c in range(lo, lo + pb[i])]
            if depth + 1 >= STACK_LIMIT:
                raise _Fault(ERR_STACK)
            return call(findex, argv, depth + 1)
        raise AssertionError(f"unexpected opcode {k}")

    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(max(limit, _MIN_RECURSION))
    try:
        call(entry, args, 0)
    except _Timeout:
        return STATUS_TIMEOUT, state[0], ERR_NONE
    except _Fault as f:
        return STATUS_ERROR, state[0], f.code
    finally:
        sys.setrecursionlimit(limit)
    return STATUS_COMPLETED, state[0], ERR_NONE


def run_tests(ir: ProgramIR, tests, limits, counts=None):
    """Run the entry function on every test, each under its own step limit.
    Returns one (status, steps, error, final array) tuple per test; the final
    array is the input array's cells after a completed run, None otherwise.
    ``counts``, when given, holds one counts array per test, which tests
    may share, and each test's ``run`` bumps its own. ``ir`` is validated
    as ``engine.c`` validates it (ValueError if malformed)."""
    # a non-int raises TypeError, as engine.c's int conversion does
    if not 1 <= operator.index(ir.n_slots) < 1 << 31:
        raise ValueError("malformed IR: frame size")
    if not (0 <= ir.entry < len(ir.kind) and ir.kind[ir.entry] == OP_FUNC):
        raise ValueError("malformed IR: entry")
    _check_rows(ir, range(len(ir.kind)), "IR")
    return _run_tests(ir, tests, limits, counts)


def _run_tests(ir, tests, limits, counts=None):
    results = []
    tallies = [None] * len(tests) if counts is None else counts
    for test, limit, tally in zip(tests, limits, tallies, strict=True):
        heap = list(test.input_array)
        args = [pack_array(0, len(heap))] + list(test.extra_args)
        status, steps, err = run(ir, ir.entry, args, heap, limit, tally)
        final = tuple(heap[:len(test.input_array)]) \
            if status == STATUS_COMPLETED else None
        results.append((status, steps, err, final))
    return results


# the suite as a patch runs it --------------------------------------------

def _min_children(k, b):
    """Minimum children of each opcode the engines step into."""
    if k in (OP_ASSIGN, OP_FOR, OP_UNARY, OP_INDEX, OP_INCDEC):
        return 2
    if k == OP_BINARY:
        return 3
    if k in (OP_IF, OP_WHILE, OP_EXPRSTMT):
        return 1
    if k == OP_VARDECL:
        return 2 if b else 0
    if k == OP_RETURN:
        return 1 if b else 0
    return 0


def _bad_row(ir, i):
    """Why row ``i`` of ``ir`` is unsafe to run, or None: every index the
    engines follow from it must stay inside the rows and a frame, and a
    call must enter a function's row (``engine.c``'s ``bad_row``)."""
    kind, a, b, first, nch = ir.kind, ir.a, ir.b, ir.first, ir.nch
    k, lo, width, ai = kind[i], first[i], nch[i], a[i]
    if not 0 <= k <= OP_OPER:
        return "unknown opcode"
    if width < 0 or (width > 0 and not 0 <= lo <= len(kind) - width):
        return "child range outside the rows"
    if width < _min_children(k, b[i]):
        return "too few children"
    if k == OP_FUNC and width != 1:
        return "function body"
    if k == OP_ASSIGN and kind[lo] != OP_IDENT and nch[lo] < 2:
        return "assignment target"
    if k == OP_INCDEC and (kind[lo + 1] != OP_IDENT
                           or not 0 <= a[lo + 1] < ir.n_slots):
        return "increment operand"
    if k == OP_IF and not 0 <= ai < width:
        return "then-branch length"
    if k == OP_CALL and (not -1 <= ai < len(kind) or b[i] != width
                         or (ai == -1 and width != 1)
                         or (ai >= 0 and (kind[ai] != OP_FUNC
                                          or width > ir.n_slots))):
        return "call"
    if k in (OP_FOR, OP_VARDECL) and not 0 <= ai < ir.n_slots:
        return "frame slot"
    # a VarDecl's name holds -1; it is never read
    if k == OP_IDENT and not -1 <= ai < ir.n_slots:
        return "frame slot"
    return None


def _check_rows(ir, rows, what):
    for i in rows:
        why = _bad_row(ir, i)
        if why is not None:
            raise ValueError(f"malformed {what}: {why} at node {i}")


def prepare(ir: ProgramIR, tests, limits):
    """A handle on ``ir`` and ``tests`` for ``run_patch``: each test gets
    its step limit from ``limits``, and every test runs once, through
    ``run_tests``, which validates ``ir``, to record ``ir``'s own outcome
    on it. The handle also keeps each row's parent, the row whose child
    range holds it, or -1."""
    tests, limits = tuple(tests), tuple(limits)
    runs = tuple(run_tests(ir, tests, limits))
    parent = [-1] * len(ir.kind)
    for i, (lo, width) in enumerate(zip(ir.first, ir.nch)):
        parent[lo:lo + width] = [i] * width
    return ir, tests, limits, runs, parent


def run_patch(handle, patch: Patch, tests):
    """Run the tests numbered ``tests`` (increasing indices into the
    prepared suite) on the prepared program with ``patch`` applied, and
    return (total_steps, n_correct, any_timeout, any_error) over the whole
    suite: a test left out counts the prepared program's own outcome.
    Only what the patch can change is validated: its appended rows, the
    row it replaces, which must not be or become a function's, and that
    row's parent, whose checks read it. A malformed patch raises
    ValueError. The handle itself never changes."""
    ir, suite, limits, base, parent = handle
    row, cells = patch.row, patch.cells
    rows = list(range(len(ir.kind), len(ir.kind) + len(patch.kind)))
    if row != -1:
        if not (0 <= row < len(ir.kind) and len(cells) == 5
                and all(-1 << 31 <= cells[k] < 1 << 31
                        for k in (0, 2, 3, 4))):
            raise ValueError("malformed patch: replaced row")
        if OP_FUNC in (ir.kind[row], cells[0]):
            raise ValueError(f"malformed patch: function row at node {row}")
        rows += [row] if parent[row] == -1 else [row, parent[row]]
    variant = apply_patch(ir, patch)
    _check_rows(variant, rows, "patch")
    listed = list(tests)
    if any(not 0 <= t < len(suite) for t in listed) \
            or any(s >= t for s, t in zip(listed, listed[1:])):
        raise ValueError("tests must be increasing test indices")
    rows = list(base)
    runs = _run_tests(variant, [suite[t] for t in listed],
                      [limits[t] for t in listed])
    for t, run in zip(listed, runs):
        rows[t] = run
    return summarize(rows, suite)
