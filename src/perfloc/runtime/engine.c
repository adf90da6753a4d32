/* Compiled interpreter engine: a C99 CPython extension.

   Mirror of engine_py.run, operation for operation: the same opcodes, the
   same pre-order step events, the same increment-then-compare step limit,
   int32 wrap, truncating division (INT_MIN / -1 wraps to INT_MIN),
   STACK_LIMIT, HEAP_LIMIT and zero-filled newArray. Any semantic change
   must be made in both files; the parity tests compare them on a slice of
   every corpus problem's variants.

   run_tests(ir, values, layout, counts=None) runs a whole suite in one
   call. ``ir`` is a runtime.ir.ProgramIR; runtime/_engine.py packs the
   suite into ``values``, an array('i') of each test's input array,
   expected output and extra args in turn, and ``layout``, an array('q')
   of each test's three lengths and step limit. Only the suite bounds that
   guard memory are checked here. It returns one (status, steps, error,
   final array or None) tuple per test, with the status and error codes
   of engine_py. ``counts``, when not None, is a writable array('q') with
   one cell per node; every statement entry adds one to its node's cell.

   prepare(ir, values, layout) copies and validates the IR and the suite
   once and runs the suite once, keeping the program's own outcome on
   every test; it returns a handle. run_patch(handle, patch, tests)
   applies a runtime.ir.Patch in place: its rows go after the program's,
   and the one row it rewrites (the target's parent) takes its new a, b
   and first. Only the appended rows and the rewritten row are validated.
   Every frame has the IR's n_slots cells, patched or not, so the stack of
   STACK_LIMIT frames is allocated once, at load. It runs the tests
   numbered in ``tests`` (increasing), counts the program's own outcome
   for every other test, undoes the patch, and returns (total_steps,
   n_correct, any_timeout, any_error). A malformed IR or patch raises
   ValueError, and the handle is left as it was.

   A failed allocation raises MemoryError; it is never reported as a run
   outcome. runtime/_engine.py compiles this file on first import. */

#define PY_SSIZE_T_CLEAN
#include <Python.h>

#include <stdint.h>
#include <stdlib.h>
#include <string.h>

enum {
    OP_FUNC, OP_BLOCK, OP_VARDECL, OP_ASSIGN, OP_IF, OP_FOR, OP_WHILE,
    OP_RETURN, OP_EXPRSTMT, OP_BINARY, OP_UNARY, OP_INCDEC, OP_CALL,
    OP_INDEX, OP_IDENT, OP_INTLIT, OP_BOOLLIT, OP_OPER, N_OPS
};

enum {
    BOP_ADD, BOP_SUB, BOP_MUL, BOP_DIV, BOP_MOD, BOP_LT, BOP_LE, BOP_GT,
    BOP_GE, BOP_EQ, BOP_NE, BOP_AND, BOP_OR
};

/* How a statement or expression ended. ST_RETURN unwinds to the call;
   ST_NOMEM unwinds to run_tests, which raises MemoryError. */
enum { ST_OK, ST_TIMEOUT, ST_FAULT, ST_RETURN, ST_NOMEM };

enum { STATUS_COMPLETED, STATUS_TIMEOUT, STATUS_ERROR };
enum { ERR_NONE, ERR_INDEX, ERR_DIV, ERR_STACK };

#define HEAP_LIMIT (1 << 20)
#define ARRAY_SHIFT 21
#define LEN_MASK ((1 << ARRAY_SHIFT) - 1)
#define STACK_LIMIT 512
#define LOCAL_ARGS 8

typedef struct {
    const int32_t *kind;
    const int64_t *a;
    const int32_t *b;
    const int32_t *first;
    const int32_t *nch;
    int n_slots;            /* every frame's size */
    int64_t steps;
    int64_t limit;
    int32_t *heap;
    int64_t heap_len;
    int64_t heap_cap;
    int64_t *stack;         /* frames, one per live call, bump-allocated */
    int64_t *counts;        /* per node: statement entries, or NULL */
    int64_t sp;
    int fault;
    int64_t retval;
} Ctx;

#define TICK(ctx) \
    do { if (++(ctx)->steps == (ctx)->limit) return ST_TIMEOUT; } while (0)
#define CHECK(st) do { int s_ = (st); if (s_ != ST_OK) return s_; } while (0)

static int exec_stmt(Ctx *ctx, int i, int64_t *frame, int depth);
static int eval_expr(Ctx *ctx, int i, int64_t *frame, int depth,
                     int64_t *out);

static inline int64_t wrap32(int64_t v)
{
    return ((v + 0x80000000LL) & 0xFFFFFFFFLL) - 0x80000000LL;
}

static int grow_heap(Ctx *ctx, int64_t need)
{
    int64_t cap = ctx->heap_cap;
    int32_t *p;
    if (need <= cap)
        return 0;
    while (cap < need)
        cap = cap > 0 ? cap * 2 : 64;
    p = realloc(ctx->heap, (size_t)cap * sizeof(int32_t));
    if (p == NULL)
        return -1;
    ctx->heap = p;
    ctx->heap_cap = cap;
    return 0;
}

/* The heap cell of element ``idx`` of array ``ref``, or NULL after
   recording an IndexOutOfBounds fault. The heap_len test never fails for
   a checked program; it keeps an ill-typed IR, whose ``ref`` is not an
   array, inside the heap. */
static inline int32_t *element(Ctx *ctx, int64_t ref, int64_t idx)
{
    uint64_t at = (uint64_t)((ref >> ARRAY_SHIFT) + idx);
    if (idx < 0 || idx >= (ref & LEN_MASK) || at >= (uint64_t)ctx->heap_len) {
        ctx->fault = ERR_INDEX;
        return NULL;
    }
    return ctx->heap + at;
}

/* Run the body of function row ``f``, the row's one child. */
static int call_fn(Ctx *ctx, int f, const int64_t *argv, int argc, int depth)
{
    int n = ctx->n_slots;
    int64_t *frame = ctx->stack + ctx->sp;
    int st;
    memmove(frame, argv, (size_t)argc * sizeof(int64_t));
    memset(frame + argc, 0, (size_t)(n - argc) * sizeof(int64_t));
    ctx->sp += n;
    ctx->retval = 0;
    st = exec_stmt(ctx, ctx->first[f], frame, depth);
    ctx->sp -= n;
    return st == ST_RETURN ? ST_OK : st;
}

static int exec_range(Ctx *ctx, int lo, int hi, int64_t *frame, int depth)
{
    for (int c = lo; c < hi; c++)
        CHECK(exec_stmt(ctx, c, frame, depth));
    return ST_OK;
}

static int exec_stmt(Ctx *ctx, int i, int64_t *frame, int depth)
{
    int first = ctx->first[i];
    int64_t v, ref, idx;
    int32_t *cell;
    TICK(ctx);
    if (ctx->counts != NULL)
        ctx->counts[i]++;
    switch (ctx->kind[i]) {
    case OP_ASSIGN:
        if (ctx->kind[first] == OP_IDENT) {
            CHECK(eval_expr(ctx, first + 1, frame, depth, &v));
            frame[ctx->a[first]] = v;
            return ST_OK;
        }
        TICK(ctx);  /* the Index node itself */
        CHECK(eval_expr(ctx, ctx->first[first], frame, depth, &ref));
        CHECK(eval_expr(ctx, ctx->first[first] + 1, frame, depth, &idx));
        CHECK(eval_expr(ctx, first + 1, frame, depth, &v));
        if ((cell = element(ctx, ref, idx)) == NULL)
            return ST_FAULT;
        *cell = (int32_t)v;
        return ST_OK;
    case OP_IF:
        CHECK(eval_expr(ctx, first, frame, depth, &v));
        if (v)
            return exec_range(ctx, first + 1, first + 1 + (int)ctx->a[i],
                              frame, depth);
        return exec_range(ctx, first + 1 + (int)ctx->a[i],
                          first + ctx->nch[i], frame, depth);
    case OP_FOR: {
        int slot = (int)ctx->a[i];
        CHECK(eval_expr(ctx, first, frame, depth, &v));
        frame[slot] = v;
        for (;;) {
            CHECK(eval_expr(ctx, first + 1, frame, depth, &v));
            if (!v)
                return ST_OK;
            CHECK(exec_range(ctx, first + 2, first + ctx->nch[i], frame,
                             depth));
            frame[slot] = wrap32(frame[slot] + ctx->b[i]);
        }
    }
    case OP_WHILE:
        for (;;) {
            CHECK(eval_expr(ctx, first, frame, depth, &v));
            if (!v)
                return ST_OK;
            CHECK(exec_range(ctx, first + 1, first + ctx->nch[i], frame,
                             depth));
        }
    case OP_VARDECL:
        if (ctx->b[i]) {
            CHECK(eval_expr(ctx, first + 1, frame, depth, &v));
            frame[ctx->a[i]] = v;
        }
        return ST_OK;
    case OP_EXPRSTMT:
        return eval_expr(ctx, first, frame, depth, &v);
    case OP_BLOCK:
        return exec_range(ctx, first, first + ctx->nch[i], frame, depth);
    case OP_RETURN:
        ctx->retval = 0;
        if (ctx->b[i]) {
            CHECK(eval_expr(ctx, first, frame, depth, &v));
            ctx->retval = v;
        }
        return ST_RETURN;
    }
    return ST_OK;
}

static int eval_binary(Ctx *ctx, int i, int64_t *frame, int depth,
                       int64_t *out)
{
    int op = (int)ctx->a[i];
    int first = ctx->first[i];
    int64_t l, r;
    CHECK(eval_expr(ctx, first + 1, frame, depth, &l));
    if (op == BOP_AND) {
        if (!l) {
            *out = 0;
            return ST_OK;
        }
        return eval_expr(ctx, first + 2, frame, depth, out);
    }
    if (op == BOP_OR) {
        if (l) {
            *out = 1;
            return ST_OK;
        }
        return eval_expr(ctx, first + 2, frame, depth, out);
    }
    CHECK(eval_expr(ctx, first + 2, frame, depth, &r));
    switch (op) {
    case BOP_ADD: *out = wrap32(l + r); return ST_OK;
    case BOP_SUB: *out = wrap32(l - r); return ST_OK;
    case BOP_MUL: *out = wrap32(l * r); return ST_OK;
    case BOP_LT: *out = l < r; return ST_OK;
    case BOP_LE: *out = l <= r; return ST_OK;
    case BOP_GT: *out = l > r; return ST_OK;
    case BOP_GE: *out = l >= r; return ST_OK;
    case BOP_EQ: *out = l == r; return ST_OK;
    case BOP_NE: *out = l != r; return ST_OK;
    }
    if (r == 0) {
        ctx->fault = ERR_DIV;
        return ST_FAULT;
    }
    /* int32 operands held in int64: C truncates toward zero, and
       INT_MIN / -1 does not overflow before the wrap. */
    *out = op == BOP_DIV ? wrap32(l / r) : l % r;
    return ST_OK;
}

static int eval_call(Ctx *ctx, int i, int64_t *frame, int depth,
                     int64_t *out)
{
    int f = (int)ctx->a[i];
    int lo = ctx->first[i];
    int argc = ctx->b[i];
    int64_t local[LOCAL_ARGS], *argv = local, n, off;
    int st = ST_OK;
    if (f < 0) {  /* newArray */
        CHECK(eval_expr(ctx, lo, frame, depth, &n));
        if (n < 0 || ctx->heap_len + n > HEAP_LIMIT) {
            ctx->fault = ERR_INDEX;
            return ST_FAULT;
        }
        if (grow_heap(ctx, ctx->heap_len + n) != 0)
            return ST_NOMEM;
        off = ctx->heap_len;
        memset(ctx->heap + off, 0, (size_t)n * sizeof(int32_t));
        ctx->heap_len += n;
        *out = (off << ARRAY_SHIFT) | n;
        return ST_OK;
    }
    if (argc > LOCAL_ARGS) {
        argv = malloc((size_t)argc * sizeof(int64_t));
        if (argv == NULL)
            return ST_NOMEM;
    }
    for (int c = 0; c < argc && st == ST_OK; c++)
        st = eval_expr(ctx, lo + c, frame, depth, &argv[c]);
    if (st == ST_OK && depth + 1 >= STACK_LIMIT) {
        ctx->fault = ERR_STACK;
        st = ST_FAULT;
    }
    if (st == ST_OK)
        st = call_fn(ctx, f, argv, argc, depth + 1);
    if (argv != local)
        free(argv);
    *out = ctx->retval;
    return st;
}

static int eval_expr(Ctx *ctx, int i, int64_t *frame, int depth,
                     int64_t *out)
{
    int first = ctx->first[i];
    int64_t ref, idx, v;
    int32_t *cell;
    TICK(ctx);
    switch (ctx->kind[i]) {
    case OP_IDENT:
        *out = frame[ctx->a[i]];
        return ST_OK;
    case OP_INTLIT:
    case OP_BOOLLIT:
        *out = ctx->a[i];
        return ST_OK;
    case OP_BINARY:
        return eval_binary(ctx, i, frame, depth, out);
    case OP_INDEX:
        CHECK(eval_expr(ctx, first, frame, depth, &ref));
        CHECK(eval_expr(ctx, first + 1, frame, depth, &idx));
        if ((cell = element(ctx, ref, idx)) == NULL)
            return ST_FAULT;
        *out = *cell;
        return ST_OK;
    case OP_INCDEC: {
        int64_t old = frame[ctx->a[i]];
        frame[ctx->a[i]] = wrap32(old + ctx->b[i]);
        *out = old;
        return ST_OK;
    }
    case OP_UNARY:
        CHECK(eval_expr(ctx, first + 1, frame, depth, &v));
        *out = ctx->a[i] == 0 ? wrap32(-v) : !v;
        return ST_OK;
    case OP_CALL:
        return eval_call(ctx, i, frame, depth, out);
    }
    *out = 0;
    return ST_OK;
}

/* ---- the Python boundary ------------------------------------------------ */

/* One test of a packed suite, in the program's copy of its values: the
   input array, expected output and extra args, the step limit, and the
   prepared program's own outcome on it. */
typedef struct {
    const int32_t *input;
    int64_t n_input;
    const int32_t *expected;
    int64_t n_expected;
    const int32_t *extra;
    int argc;               /* the input array's reference, then the extra */
    int64_t limit;
    int64_t base_steps;
    int base_passed, base_timeout, base_error;
} Test;

typedef struct {
    Ctx ctx;
    void *col[5];           /* kind, a, b, first, nch: owned copies */
    Py_ssize_t n;           /* the program's rows; a patch's follow them */
    Py_ssize_t cap;         /* rows the columns have room for */
    int entry;
    int32_t *values;        /* the packed suite's values: owned copy */
    Test *tests;
    Py_ssize_t n_tests;
    Py_buffer counts;       /* held when counts_view is set */
    int counts_view;
} Program;

static const char *const ARRAY_FIELDS[5] = {"kind", "a", "b", "first", "nch"};
static const Py_ssize_t ITEMSIZE[5] = {4, 8, 4, 4, 4};

static const char HANDLE[] = "perfloc.runtime._engine.handle";

static void release_program(Program *p)
{
    for (int k = 0; k < 5; k++)
        PyMem_Free(p->col[k]);
    if (p->counts_view)
        PyBuffer_Release(&p->counts);
    if (p->ctx.stack != NULL)
        PyMem_Free(p->ctx.stack - 1);
    PyMem_Free(p->values);
    PyMem_Free(p->tests);
    free(p->ctx.heap);
}

/* Room for ``rows`` rows in every column. On failure the columns still
   hold the program's rows, and the engine still points at them. */
static int grow_rows(Program *p, Py_ssize_t rows)
{
    Py_ssize_t cap = Py_MAX(rows, 2 * p->cap);
    int k;
    if (rows <= p->cap)
        return 0;
    for (k = 0; k < 5; k++) {
        void *col = PyMem_Realloc(p->col[k], (size_t)cap * ITEMSIZE[k]);
        if (col == NULL)
            break;
        p->col[k] = col;
    }
    p->ctx.kind = p->col[0];
    p->ctx.a = p->col[1];
    p->ctx.b = p->col[2];
    p->ctx.first = p->col[3];
    p->ctx.nch = p->col[4];
    if (k < 5) {
        PyErr_NoMemory();
        return -1;
    }
    p->cap = cap;
    return 0;
}

/* Copy the five row arrays of ``src``, a ProgramIR or a Patch, to rows
   ``at`` onward; returns how many rows they hold, or -1 with an exception
   set. */
static Py_ssize_t put_rows(Program *p, PyObject *src, Py_ssize_t at)
{
    Py_ssize_t rows = 0;
    for (int k = 0; k < 5; k++) {
        Py_buffer view;
        PyObject *obj = PyObject_GetAttrString(src, ARRAY_FIELDS[k]);
        int ok;
        if (obj == NULL)
            return -1;
        if (PyObject_GetBuffer(obj, &view, PyBUF_SIMPLE) < 0) {
            Py_DECREF(obj);
            return -1;
        }
        Py_DECREF(obj);
        if (k == 0)
            rows = view.len / ITEMSIZE[0];
        ok = view.len == rows * ITEMSIZE[k]
             && (k > 0 || grow_rows(p, at + rows) == 0);
        if (ok && rows > 0)
            memcpy((char *)p->col[k] + at * ITEMSIZE[k], view.buf,
                   (size_t)view.len);
        PyBuffer_Release(&view);
        if (!ok) {
            if (!PyErr_Occurred())
                PyErr_Format(PyExc_TypeError, "%s must hold one %zd-byte "
                             "int per row", ARRAY_FIELDS[k], ITEMSIZE[k]);
            return -1;
        }
    }
    return rows;
}

/* Minimum children of each opcode the engine steps into. */
static int min_children(const Ctx *c, Py_ssize_t i)
{
    switch (c->kind[i]) {
    case OP_ASSIGN: case OP_FOR: case OP_UNARY: case OP_INDEX: return 2;
    case OP_BINARY: return 3;
    case OP_IF: case OP_WHILE: case OP_EXPRSTMT: return 1;
    case OP_VARDECL: return c->b[i] ? 2 : 0;
    case OP_RETURN: return c->b[i] ? 1 : 0;
    }
    return 0;
}

/* Why row ``i`` of a program of ``rows`` rows is unsafe to run, or NULL:
   every index the engine follows from it must stay inside the rows and a
   frame, and a call must enter a function's row, so that a malformed IR
   raises ValueError instead of reading out of bounds (heap accesses are
   bounded by element()). */
static const char *bad_row(const Program *p, Py_ssize_t rows, Py_ssize_t i)
{
    const Ctx *c = &p->ctx;
    int k = c->kind[i], first = c->first[i], nch = c->nch[i];
    int64_t a = c->a[i];
    if (k < 0 || k >= N_OPS)
        return "unknown opcode";
    if (nch < 0 || (nch > 0 && (first < 0 || first > rows - nch)))
        return "child range outside the rows";
    if (nch < min_children(c, i))
        return "too few children";
    if (k == OP_FUNC && nch != 1)
        return "function body";
    if (k == OP_ASSIGN && c->kind[first] != OP_IDENT && c->nch[first] < 2)
        return "assignment target";
    if (k == OP_IF && (a < 0 || a >= nch))
        return "then-branch length";
    if (k == OP_CALL && (a < -1 || a >= rows || c->b[i] != nch
                         || (a == -1 && nch != 1)
                         || (a >= 0 && (c->kind[a] != OP_FUNC
                                        || nch > c->n_slots))))
        return "call";
    if ((k == OP_FOR || k == OP_INCDEC || k == OP_VARDECL)
            && (a < 0 || a >= c->n_slots))
        return "frame slot";
    /* a VarDecl's name holds -1; it is never read */
    if (k == OP_IDENT && (a < -1 || a >= c->n_slots))
        return "frame slot";
    return NULL;
}

static int bad_rows(const Program *p, const char *what, Py_ssize_t rows,
                    Py_ssize_t lo, Py_ssize_t hi)
{
    for (Py_ssize_t i = lo; i < hi; i++) {
        const char *why = bad_row(p, rows, i);
        if (why != NULL) {
            PyErr_Format(PyExc_ValueError, "malformed %s: %s at node %zd",
                         what, why, i);
            return -1;
        }
    }
    return 0;
}

static long long int_attr(PyObject *obj, const char *name)
{
    PyObject *value = PyObject_GetAttrString(obj, name);
    long long v;
    if (value == NULL)
        return -1;
    v = PyLong_AsLongLong(value);
    Py_DECREF(value);
    return v;
}

/* Copy and validate the IR's rows, and allocate the stack: STACK_LIMIT
   frames, one per depth, after a leading cell, which is where a slot of -1
   points. On failure an exception is set and the caller still releases. */
static int load_program(PyObject *ir, Program *p)
{
    long long entry, n_slots;
    p->n = put_rows(p, ir, 0);
    if (p->n < 0)
        return -1;
    n_slots = int_attr(ir, "n_slots");
    entry = PyErr_Occurred() ? -1 : int_attr(ir, "entry");
    if (PyErr_Occurred())
        return -1;
    if (n_slots < 1 || n_slots > INT32_MAX) {
        PyErr_SetString(PyExc_ValueError, "malformed IR: frame size");
        return -1;
    }
    p->ctx.n_slots = (int)n_slots;
    if (entry < 0 || entry >= p->n || p->ctx.kind[entry] != OP_FUNC) {
        PyErr_SetString(PyExc_ValueError, "malformed IR: entry");
        return -1;
    }
    p->entry = (int)entry;
    if (bad_rows(p, "IR", p->n, 0, p->n) < 0)
        return -1;
    p->ctx.stack = PyMem_Malloc(((size_t)STACK_LIMIT * n_slots + 1)
                                * sizeof(int64_t));
    if (p->ctx.stack == NULL) {
        PyErr_NoMemory();
        return -1;
    }
    *p->ctx.stack++ = 0;
    return 0;
}

/* A view of ``obj``, which must be an array of struct format ``format``
   (``flags`` adds PyBUF_WRITABLE); -1 with TypeError otherwise. */
static int int_buffer(PyObject *obj, int flags, const char *format,
                      Py_ssize_t itemsize, Py_buffer *view, const char *what)
{
    if (PyObject_GetBuffer(obj, view, flags | PyBUF_FORMAT) == 0) {
        if (view->itemsize == itemsize && view->format != NULL
                && strcmp(view->format, format) == 0)
            return 0;
        PyBuffer_Release(view);
    }
    PyErr_Format(PyExc_TypeError, "%s must be an array('%s')", what, format);
    return -1;
}

/* Borrow ``counts``, which must be a writable array('q') with one cell per
   node. */
static int load_counts(PyObject *counts, Program *p)
{
    if (int_buffer(counts, PyBUF_WRITABLE, "q", 8, &p->counts, "counts") < 0)
        return -1;
    p->counts_view = 1;
    if (p->counts.len != p->n * 8) {
        PyErr_SetString(PyExc_TypeError, "counts must hold one cell per node");
        return -1;
    }
    p->ctx.counts = p->counts.buf;
    return 0;
}

/* Why the packed suite is unsafe to run, or NULL: its lengths must be
   non-negative and add up to the ``left`` values, every input must fit
   the heap, and the extra args must leave the entry frame a cell for the
   input array. */
static const char *bad_suite(const Program *p, const int64_t *layout,
                             Py_ssize_t left)
{
    for (Py_ssize_t t = 0; t < p->n_tests; t++, layout += 4) {
        for (int k = 0; k < 3; k++)
            left = layout[k] < 0 || left < 0 ? -1 : left - layout[k];
        if (left < 0)
            break;
        if (layout[0] > HEAP_LIMIT)
            return "input_array exceeds the heap";
        if (layout[2] >= p->ctx.n_slots)
            return "more arguments than the entry function's frame";
    }
    return left ? "malformed suite: lengths that are negative or do not add "
                  "up to the values" : NULL;
}

/* Copy and check the suite ``values`` and ``layout`` pack, four layout
   cells per test: its input, expected and extra-args lengths and its
   step limit. */
static int load_suite(Program *p, PyObject *values_obj, PyObject *layout_obj)
{
    Py_buffer values, layout;
    const int64_t *row;
    const char *why;
    int st = -1;
    if (int_buffer(values_obj, 0, "i", 4, &values, "values") < 0)
        return -1;
    if (int_buffer(layout_obj, 0, "q", 8, &layout, "layout") < 0) {
        PyBuffer_Release(&values);
        return -1;
    }
    p->n_tests = layout.len / 32;
    why = layout.len % 32 ? "malformed suite: four layout cells per test"
                          : bad_suite(p, layout.buf, values.len / 4);
    if (why != NULL) {
        PyErr_SetString(PyExc_ValueError, why);
    } else if ((p->values = PyMem_Malloc(values.len)) == NULL
               || (p->tests = PyMem_Calloc(p->n_tests, sizeof(Test)))
                  == NULL) {
        PyErr_NoMemory();
    } else {
        const int32_t *at = memcpy(p->values, values.buf, values.len);
        row = layout.buf;
        for (Test *t = p->tests; t < p->tests + p->n_tests; t++, row += 4) {
            t->n_input = row[0];
            t->n_expected = row[1];
            t->argc = (int)row[2] + 1;
            t->limit = row[3];
            t->input = at;
            t->expected = t->input + row[0];
            t->extra = t->expected + row[1];
            at = t->extra + row[2];
        }
        st = 0;
    }
    PyBuffer_Release(&values);
    PyBuffer_Release(&layout);
    return st;
}

/* Run test ``t`` from a fresh heap and stack; its final array is then
   heap[0 .. t->n_input). */
static int run_test(Program *p, const Test *t)
{
    Ctx *ctx = &p->ctx;
    if (grow_heap(ctx, Py_MAX(t->n_input, 1)) != 0)
        return ST_NOMEM;
    if (t->n_input > 0)
        memcpy(ctx->heap, t->input, (size_t)t->n_input * sizeof(int32_t));
    ctx->heap_len = t->n_input;
    ctx->limit = t->limit;
    ctx->steps = 0;
    ctx->sp = 0;
    ctx->fault = ERR_NONE;
    /* the arguments go straight into the entry's frame; the input array
       sits at heap offset 0 */
    ctx->stack[0] = t->n_input;
    for (int k = 1; k < t->argc; k++)
        ctx->stack[k] = t->extra[k - 1];
    return call_fn(ctx, p->entry, ctx->stack, t->argc, 0);
}

/* Whether a run of ``t`` that ended with ``st`` left its expected
   output. */
static int passed(const Program *p, const Test *t, int st)
{
    return st == ST_OK && t->n_expected == t->n_input
           && (t->n_input == 0
               || memcmp(p->ctx.heap, t->expected,
                         (size_t)t->n_input * sizeof(int32_t)) == 0);
}

/* Run one test; returns its (status, steps, error, final array) tuple. */
static PyObject *run_one(Program *p, const Test *t)
{
    Ctx *ctx = &p->ctx;
    PyObject *final;
    switch (run_test(p, t)) {
    case ST_NOMEM:
        return PyErr_NoMemory();
    case ST_TIMEOUT:
        return Py_BuildValue("(iLiO)", STATUS_TIMEOUT,
                             (long long)ctx->steps, ERR_NONE, Py_None);
    case ST_FAULT:
        return Py_BuildValue("(iLiO)", STATUS_ERROR, (long long)ctx->steps,
                             ctx->fault, Py_None);
    }
    final = PyTuple_New(t->n_input);
    if (final == NULL)
        return NULL;
    for (Py_ssize_t k = 0; k < t->n_input; k++) {
        PyObject *item = PyLong_FromLong(ctx->heap[k]);
        if (item == NULL) {
            Py_DECREF(final);
            return NULL;
        }
        PyTuple_SET_ITEM(final, k, item);
    }
    return Py_BuildValue("(iLiN)", STATUS_COMPLETED, (long long)ctx->steps,
                         ERR_NONE, final);
}

static PyObject *run_tests(PyObject *self, PyObject *args)
{
    PyObject *ir, *values, *layout, *counts = Py_None, *results = NULL;
    Program p;
    (void)self;
    if (!PyArg_ParseTuple(args, "OOO|O:run_tests", &ir, &values, &layout,
                          &counts))
        return NULL;
    memset(&p, 0, sizeof(p));
    if (load_program(ir, &p) == 0 && load_suite(&p, values, layout) == 0
            && (counts == Py_None || load_counts(counts, &p) == 0))
        results = PyList_New(p.n_tests);
    for (Py_ssize_t t = 0; results != NULL && t < p.n_tests; t++) {
        PyObject *row = run_one(&p, &p.tests[t]);
        if (row == NULL)
            Py_CLEAR(results);
        else
            PyList_SET_ITEM(results, t, row);
    }
    release_program(&p);
    return results;
}

static void free_handle(PyObject *handle)
{
    Program *p = PyCapsule_GetPointer(handle, HANDLE);
    release_program(p);
    PyMem_Free(p);
}

static PyObject *prepare(PyObject *self, PyObject *args)
{
    PyObject *ir, *values, *layout, *handle;
    Program *p;
    (void)self;
    if (!PyArg_ParseTuple(args, "OOO:prepare", &ir, &values, &layout))
        return NULL;
    p = PyMem_Calloc(1, sizeof(Program));
    if (p == NULL)
        return PyErr_NoMemory();
    if (load_program(ir, p) < 0 || load_suite(p, values, layout) < 0)
        goto fail;
    for (Py_ssize_t t = 0; t < p->n_tests; t++) {
        Test *test = &p->tests[t];
        int st = run_test(p, test);
        if (st == ST_NOMEM) {
            PyErr_NoMemory();
            goto fail;
        }
        test->base_steps = p->ctx.steps;
        test->base_passed = passed(p, test, st);
        test->base_timeout = st == ST_TIMEOUT;
        test->base_error = st == ST_FAULT;
    }
    handle = PyCapsule_New(p, HANDLE, free_handle);
    if (handle != NULL)
        return handle;
fail:
    release_program(p);
    PyMem_Free(p);
    return NULL;
}

/* Swap row ``i``'s a, b and first with ``cells``: once to rewrite the
   row, and once more to restore it. */
static void swap_row(Program *p, Py_ssize_t i, int64_t cells[3])
{
    int64_t *a = p->col[1];
    int32_t *b = p->col[2], *first = p->col[3];
    int64_t old[3] = {a[i], b[i], first[i]};
    a[i] = cells[0];
    b[i] = (int32_t)cells[1];
    first[i] = (int32_t)cells[2];
    memcpy(cells, old, sizeof(old));
}

/* Add the outcome of a test to the summary (steps, passed, timeout,
   error). */
#define SUM(steps_, passed_, timeout_, error_) \
    do { steps += (steps_); n_passed += (passed_); \
         any_timeout |= (timeout_); any_error |= (error_); } while (0)

static PyObject *run_patch(PyObject *self, PyObject *args)
{
    static const char *const FIELDS[4] = {
        "parent", "parent_a", "parent_b", "parent_first"};
    PyObject *handle, *patch, *tests, *listed, *result = NULL;
    Program *p;
    Py_ssize_t m, prev = -1, t, parent;
    long long field[4];
    int64_t cells[3];
    int swapped = 0;
    int64_t steps = 0;
    Py_ssize_t n_passed = 0;
    int any_timeout = 0, any_error = 0;
    (void)self;
    if (!PyArg_ParseTuple(args, "OOO:run_patch", &handle, &patch, &tests))
        return NULL;
    p = PyCapsule_GetPointer(handle, HANDLE);
    if (p == NULL)
        return NULL;
    for (int k = 0; k < 4; k++)
        if ((field[k] = int_attr(patch, FIELDS[k])) == -1 && PyErr_Occurred())
            return NULL;
    parent = (Py_ssize_t)field[0];
    if (parent != -1 && (parent < 0 || parent >= p->n
                         || field[2] < INT32_MIN || field[2] > INT32_MAX
                         || field[3] < INT32_MIN || field[3] > INT32_MAX)) {
        PyErr_SetString(PyExc_ValueError, "malformed patch: parent row");
        return NULL;
    }
    listed = PySequence_Fast(tests, "tests must be a sequence");
    if (listed == NULL)
        return NULL;
    m = put_rows(p, patch, p->n);
    if (m < 0)
        goto done;
    if (parent != -1) {
        memcpy(cells, field + 1, sizeof(cells));
        swap_row(p, parent, cells);
        swapped = 1;
    }
    /* prepare validated the program's rows; of those, only the rewritten
       row has changed */
    if (bad_rows(p, "patch", p->n + m, p->n, p->n + m) < 0
            || (swapped && bad_rows(p, "patch", p->n + m, parent,
                                    parent + 1) < 0))
        goto done;

    for (Py_ssize_t j = 0; j < PySequence_Fast_GET_SIZE(listed); j++) {
        Test *test;
        int st;
        t = PyLong_AsSsize_t(PySequence_Fast_GET_ITEM(listed, j));
        if (t == -1 && PyErr_Occurred())
            goto done;
        if (t <= prev || t >= p->n_tests) {
            PyErr_SetString(PyExc_ValueError,
                            "tests must be increasing test indices");
            goto done;
        }
        for (prev++; prev < t; prev++)
            SUM(p->tests[prev].base_steps, p->tests[prev].base_passed,
                p->tests[prev].base_timeout, p->tests[prev].base_error);
        test = &p->tests[t];
        st = run_test(p, test);
        if (st == ST_NOMEM) {
            PyErr_NoMemory();
            goto done;
        }
        SUM(p->ctx.steps, passed(p, test, st), st == ST_TIMEOUT,
            st == ST_FAULT);
    }
    for (prev++; prev < p->n_tests; prev++)
        SUM(p->tests[prev].base_steps, p->tests[prev].base_passed,
            p->tests[prev].base_timeout, p->tests[prev].base_error);
    result = Py_BuildValue("(LnOO)", (long long)steps, n_passed,
                           any_timeout ? Py_True : Py_False,
                           any_error ? Py_True : Py_False);
done:
    /* restore the program: its rows end at p->n again */
    if (swapped)
        swap_row(p, parent, cells);
    Py_DECREF(listed);
    return result;
}

static PyMethodDef methods[] = {
    {"run_tests", run_tests, METH_VARARGS,
     "run_tests(ir, values, layout, counts=None)"
     " -> [(status, steps, error, final)]\n\n"
     "Run every test of a packed suite with its step limit; see "
     "_engine.run_tests."},
    {"prepare", prepare, METH_VARARGS,
     "prepare(ir, values, layout) -> handle\n\n"
     "Validate the IR, copy the packed suite and run it once; see "
     "_engine.prepare."},
    {"run_patch", run_patch, METH_VARARGS,
     "run_patch(handle, patch, tests)"
     " -> (total_steps, n_correct, any_timeout, any_error)\n\n"
     "Run the listed tests on the prepared program with a patch applied; "
     "see engine_py.run_patch."},
    {NULL, NULL, 0, NULL},
};

static PyModuleDef_Slot slots[] = {{0, NULL}};

static struct PyModuleDef engine_module = {
    PyModuleDef_HEAD_INIT, "_engine",
    "Compiled interpreter engine; mirror of engine_py.", 0, methods, slots,
    NULL, NULL, NULL,
};

PyMODINIT_FUNC PyInit__engine(void)
{
    return PyModuleDef_Init(&engine_module);
}
