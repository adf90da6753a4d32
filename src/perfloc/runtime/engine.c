/* Compiled interpreter engine: a C99 CPython extension.

   Mirror of engine_py.run, operation for operation: the same opcodes, the
   same pre-order step events, the same increment-then-compare step limit,
   int32 wrap, truncating division (INT_MIN / -1 wraps to INT_MIN),
   STACK_LIMIT, HEAP_LIMIT and zero-filled newArray. Any semantic change
   must be made in both files; the parity tests compare them on a slice of
   every corpus problem's variants.

   run_tests(ir, tests, limits) runs a whole suite in one call: ``ir`` is a
   runtime.ir.ProgramIR, each test has ``input_array`` and ``extra_args``,
   and ``limits`` holds one step limit per test. It returns one
   (status, steps, error, final array or None) tuple per test, with the
   status and error codes of engine_py. A failed allocation raises
   MemoryError; it is never reported as a run outcome.

   runtime/_engine.py compiles this file on first import. */

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
    int32_t *fbody;         /* per function: body block id */
    int32_t *fslots;        /* per function: frame size */
    int64_t steps;
    int64_t limit;
    int32_t *heap;
    int64_t heap_len;
    int64_t heap_cap;
    int64_t *stack;         /* frames, one per live call, bump-allocated */
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

static int call_fn(Ctx *ctx, int f, const int64_t *argv, int argc, int depth)
{
    int n = ctx->fslots[f];
    int64_t *frame = ctx->stack + ctx->sp;
    int st;
    memcpy(frame, argv, (size_t)argc * sizeof(int64_t));
    memset(frame + argc, 0, (size_t)(n - argc) * sizeof(int64_t));
    ctx->sp += n;
    ctx->retval = 0;
    st = exec_stmt(ctx, ctx->fbody[f], frame, depth);
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

typedef struct {
    Py_buffer views[5];     /* kind, a, b, first, nch */
    int n_views;
    Ctx ctx;
    Py_ssize_t n;           /* nodes */
    int nf;                 /* functions */
    int entry;
    int64_t *args;          /* the entry function's arguments */
} Program;

static const char *const ARRAY_FIELDS[5] = {"kind", "a", "b", "first", "nch"};
static const Py_ssize_t ITEMSIZE[5] = {4, 8, 4, 4, 4};

static void release_program(Program *p)
{
    for (int k = 0; k < p->n_views; k++)
        PyBuffer_Release(&p->views[k]);
    PyMem_Free(p->ctx.fbody);
    PyMem_Free(p->ctx.fslots);
    if (p->ctx.stack != NULL)
        PyMem_Free(p->ctx.stack - 1);
    PyMem_Free(p->args);
    free(p->ctx.heap);
}

static int bad_ir(const char *what, Py_ssize_t i)
{
    PyErr_Format(PyExc_ValueError, "malformed IR: %s at node %zd", what, i);
    return -1;
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

/* Every index the engine follows stays inside the IR, the function table
   and the frame stack, so a malformed IR raises ValueError instead of
   reading out of bounds (heap accesses are bounded by element()). */
static int validate(const Program *p, int max_slots)
{
    const Ctx *c = &p->ctx;
    for (Py_ssize_t i = 0; i < p->n; i++) {
        int k = c->kind[i], first = c->first[i], nch = c->nch[i];
        int64_t a = c->a[i];
        if (k < 0 || k >= N_OPS)
            return bad_ir("unknown opcode", i);
        if (nch < 0 || (nch > 0 && (first < 0 || first > p->n - nch)))
            return bad_ir("child range outside the IR", i);
        if (nch < min_children(c, i))
            return bad_ir("too few children", i);
        if (k == OP_ASSIGN && c->kind[first] != OP_IDENT
                && c->nch[first] < 2)
            return bad_ir("assignment target", i);
        if (k == OP_IF && (a < 0 || a >= nch))
            return bad_ir("then-branch length", i);
        if (k == OP_CALL && (a < -1 || a >= p->nf || c->b[i] != nch
                             || (a == -1 && nch != 1)
                             || (a >= 0 && nch > c->fslots[a])))
            return bad_ir("call", i);
        if ((k == OP_FOR || k == OP_INCDEC || k == OP_VARDECL)
                && (a < 0 || a >= max_slots))
            return bad_ir("frame slot", i);
        /* a VarDecl's name holds -1; it is never read */
        if (k == OP_IDENT && (a < -1 || a >= max_slots))
            return bad_ir("frame slot", i);
    }
    return 0;
}

static long int_attr(PyObject *obj, const char *name)
{
    PyObject *value = PyObject_GetAttrString(obj, name);
    long v;
    if (value == NULL)
        return -1;
    v = PyLong_AsLong(value);
    Py_DECREF(value);
    return v;
}

/* Borrow the IR's arrays, copy its function table and allocate the frame
   stack. On failure an exception is set and the caller still releases. */
static int load_program(PyObject *ir, Program *p)
{
    PyObject *obj, *functions;
    long entry;
    int max_slots = 1;
    for (int k = 0; k < 5; k++) {
        obj = PyObject_GetAttrString(ir, ARRAY_FIELDS[k]);
        if (obj == NULL)
            return -1;
        if (PyObject_GetBuffer(obj, &p->views[k], PyBUF_SIMPLE) < 0) {
            Py_DECREF(obj);
            return -1;
        }
        Py_DECREF(obj);
        p->n_views++;
        if (p->views[k].len != p->views[0].len / 4 * ITEMSIZE[k]
                || p->views[k].len % ITEMSIZE[k] != 0) {
            PyErr_Format(PyExc_TypeError, "ir.%s must hold one %zd-byte "
                         "int per node", ARRAY_FIELDS[k], ITEMSIZE[k]);
            return -1;
        }
    }
    p->n = p->views[0].len / 4;
    p->ctx.kind = p->views[0].buf;
    p->ctx.a = p->views[1].buf;
    p->ctx.b = p->views[2].buf;
    p->ctx.first = p->views[3].buf;
    p->ctx.nch = p->views[4].buf;

    obj = PyObject_GetAttrString(ir, "functions");
    if (obj == NULL)
        return -1;
    functions = PySequence_Fast(obj, "ir.functions must be a sequence");
    Py_DECREF(obj);
    if (functions == NULL)
        return -1;
    p->nf = (int)Py_MIN(PySequence_Fast_GET_SIZE(functions), INT32_MAX);
    p->ctx.fbody = PyMem_Malloc((p->nf + 1) * sizeof(int32_t));
    p->ctx.fslots = PyMem_Malloc((p->nf + 1) * sizeof(int32_t));
    if (p->ctx.fbody == NULL || p->ctx.fslots == NULL) {
        Py_DECREF(functions);
        PyErr_NoMemory();
        return -1;
    }
    for (int f = 0; f < p->nf; f++) {
        PyObject *info = PySequence_Fast_GET_ITEM(functions, f);
        long body = int_attr(info, "body");
        long slots = PyErr_Occurred() ? -1 : int_attr(info, "n_slots");
        if (PyErr_Occurred()) {
            Py_DECREF(functions);
            return -1;
        }
        if (body < 0 || body >= p->n || slots < 1 || slots > INT32_MAX) {
            Py_DECREF(functions);
            PyErr_Format(PyExc_ValueError, "malformed IR: function %d", f);
            return -1;
        }
        p->ctx.fbody[f] = (int32_t)body;
        p->ctx.fslots[f] = (int32_t)slots;
        max_slots = Py_MAX(max_slots, (int)slots);
    }
    Py_DECREF(functions);

    entry = int_attr(ir, "entry");
    if (PyErr_Occurred())
        return -1;
    if (entry < 0 || entry >= p->nf) {
        PyErr_SetString(PyExc_ValueError, "malformed IR: entry");
        return -1;
    }
    p->entry = (int)entry;
    if (validate(p, max_slots) < 0)
        return -1;

    /* Frames nest, one per depth below STACK_LIMIT, and each fits in
       max_slots cells; the leading cell is where a slot of -1 points. */
    p->ctx.stack = PyMem_Malloc(((size_t)STACK_LIMIT * max_slots + 1)
                                * sizeof(int64_t));
    p->args = PyMem_Malloc(p->ctx.fslots[p->entry] * sizeof(int64_t));
    if (p->ctx.stack == NULL || p->args == NULL) {
        PyErr_NoMemory();
        return -1;
    }
    *p->ctx.stack++ = 0;
    return 0;
}

/* The int32 value of ``item`` into ``out``; -1 with an exception set if it
   is not an int or does not fit. */
static int as_int32(PyObject *item, const char *what, int64_t *out)
{
    long long v = PyLong_AsLongLong(item);
    if (v == -1 && PyErr_Occurred())
        return -1;
    if (v < INT32_MIN || v > INT32_MAX) {
        PyErr_Format(PyExc_OverflowError, "%s value %lld is not an int32",
                     what, v);
        return -1;
    }
    *out = v;
    return 0;
}

/* Put a test's input array on the heap at offset 0 and its arguments in
   p->args; returns the argument count, or -1 with an exception set. */
static int load_test(Program *p, PyObject *test)
{
    Ctx *ctx = &p->ctx;
    PyObject *obj, *fast;
    Py_ssize_t n, k;
    int64_t v;
    int argc = -1;

    obj = PyObject_GetAttrString(test, "input_array");
    if (obj == NULL)
        return -1;
    fast = PySequence_Fast(obj, "input_array must be a sequence");
    Py_DECREF(obj);
    if (fast == NULL)
        return -1;
    n = PySequence_Fast_GET_SIZE(fast);
    if (n > HEAP_LIMIT) {
        PyErr_SetString(PyExc_ValueError, "input_array exceeds the heap");
        goto done;
    }
    if (grow_heap(ctx, n > 0 ? n : 1) != 0) {
        PyErr_NoMemory();
        goto done;
    }
    for (k = 0; k < n; k++) {
        if (as_int32(PySequence_Fast_GET_ITEM(fast, k), "input_array",
                     &v) < 0)
            goto done;
        ctx->heap[k] = (int32_t)v;
    }
    ctx->heap_len = n;
    Py_DECREF(fast);

    obj = PyObject_GetAttrString(test, "extra_args");
    if (obj == NULL)
        return -1;
    fast = PySequence_Fast(obj, "extra_args must be a sequence");
    Py_DECREF(obj);
    if (fast == NULL)
        return -1;
    if (PySequence_Fast_GET_SIZE(fast) >= ctx->fslots[p->entry]) {
        PyErr_SetString(PyExc_ValueError,
                        "more arguments than the entry function's frame");
        goto done;
    }
    p->args[0] = (int64_t)n;   /* the input array: offset 0, length n */
    for (k = 0; k < PySequence_Fast_GET_SIZE(fast); k++)
        if (as_int32(PySequence_Fast_GET_ITEM(fast, k), "extra_args",
                     &p->args[k + 1]) < 0)
            goto done;
    argc = (int)k + 1;
done:
    Py_DECREF(fast);
    return argc;
}

/* Run one test; returns its (status, steps, error, final array) tuple. */
static PyObject *run_one(Program *p, PyObject *test, PyObject *limit)
{
    Ctx *ctx = &p->ctx;
    Py_ssize_t n_input;
    PyObject *final;
    int argc, st;

    ctx->limit = PyLong_AsLongLong(limit);
    if (ctx->limit == -1 && PyErr_Occurred())
        return NULL;
    argc = load_test(p, test);
    if (argc < 0)
        return NULL;
    n_input = ctx->heap_len;
    ctx->steps = 0;
    ctx->sp = 0;
    ctx->fault = ERR_NONE;
    st = call_fn(ctx, p->entry, p->args, argc, 0);
    switch (st) {
    case ST_NOMEM:
        return PyErr_NoMemory();
    case ST_TIMEOUT:
        return Py_BuildValue("(iLiO)", STATUS_TIMEOUT,
                             (long long)ctx->steps, ERR_NONE, Py_None);
    case ST_FAULT:
        return Py_BuildValue("(iLiO)", STATUS_ERROR, (long long)ctx->steps,
                             ctx->fault, Py_None);
    }
    final = PyTuple_New(n_input);
    if (final == NULL)
        return NULL;
    for (Py_ssize_t k = 0; k < n_input; k++) {
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
    PyObject *ir, *tests, *limits, *results = NULL;
    PyObject *tests_fast = NULL, *limits_fast = NULL;
    Program p;
    Py_ssize_t n_tests;
    (void)self;
    if (!PyArg_ParseTuple(args, "OOO:run_tests", &ir, &tests, &limits))
        return NULL;
    tests_fast = PySequence_Fast(tests, "tests must be a sequence");
    if (tests_fast == NULL)
        return NULL;
    limits_fast = PySequence_Fast(limits, "limits must be a sequence");
    if (limits_fast == NULL) {
        Py_DECREF(tests_fast);
        return NULL;
    }
    n_tests = PySequence_Fast_GET_SIZE(tests_fast);
    memset(&p, 0, sizeof(p));
    if (PySequence_Fast_GET_SIZE(limits_fast) != n_tests)
        PyErr_SetString(PyExc_ValueError, "need one step limit per test");
    else if (load_program(ir, &p) == 0)
        results = PyList_New(n_tests);
    for (Py_ssize_t t = 0; results != NULL && t < n_tests; t++) {
        PyObject *row = run_one(&p, PySequence_Fast_GET_ITEM(tests_fast, t),
                                PySequence_Fast_GET_ITEM(limits_fast, t));
        if (row == NULL)
            Py_CLEAR(results);
        else
            PyList_SET_ITEM(results, t, row);
    }
    release_program(&p);
    Py_DECREF(tests_fast);
    Py_DECREF(limits_fast);
    return results;
}

static PyMethodDef methods[] = {
    {"run_tests", run_tests, METH_VARARGS,
     "run_tests(ir, tests, limits) -> [(status, steps, error, final)]\n\n"
     "Run every test with its step limit; see engine_py.run_tests."},
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
