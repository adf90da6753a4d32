/* Compiled interpreter engine: a C99 CPython extension.

   It gives the results of engine_py.run, step for step: the same pre-order
   step events, the same increment-then-compare step limit, int32 wrap,
   truncating division (INT_MIN / -1 wraps to INT_MIN), STACK_LIMIT,
   HEAP_LIMIT and zero-filled newArray. Any semantic change must be made in
   both files; the parity tests compare them on a slice of every corpus
   problem's variants, and at every step limit of a program that uses every
   opcode.

   Instructions. The validated rows are lowered once to one linear array of
   instructions for a stack machine, and one dispatch loop, run(), runs it:
   computed goto under __GNUC__ (direct threading: each instruction holds
   its handler's label), a switch over the same opcode table otherwise, or
   when PERFLOC_SWITCH_DISPATCH is defined. Each instruction is an opcode,
   a step count and two operands. The nodes that step before they act
   (pre-order) give their steps to the next instruction emitted, so an
   instruction first takes its ``ticks`` and stops the run with Timeout
   once the count reaches the limit, then acts. Only the opcodes that open
   a node's code take steps; the rest act on operands that are already
   there. A statement's step is taken by the statement's first
   instruction, or by a TICK at its end when it emits none (`int x;`), so
   no step crosses a statement, a jump or a jump target. A lowering for
   counted runs opens every statement with a COUNT that takes its step and
   then adds one to its node's cell.

   Expressions push one value; Binary ops pop two and push one, but a leaf
   operand (an identifier or a literal) is read by the op itself, from its
   frame slot or as a constant, and so are both leaves of an Index; && and
   || jump past their right operand with the left's value, or 1; If is JZ or
   JNZ over its branches; For and While are inverted, a jump to the
   condition at the bottom and JNZ back to the body, so one iteration
   costs one branch. Jumps are relative, so a row's code runs the same
   wherever it is copied; a CALL names its callee's entry by index.

   The explicit stack. A run's whole state is data in Ctx: one array of
   int64 cells holds every live frame, n_slots cells each, with the
   operands of its expressions above it; a call's arguments, pushed by the
   caller, become the first cells of the callee's frame. A second array
   holds one return point per live call (the code index to resume and the
   caller's frame, both as offsets), STACK_LIMIT of them. Loop state is the
   counter's frame cell. No C function calls itself while a program runs,
   so neither recursion in the program nor a deeply nested expression
   grows the C stack; the value stack is sized from the deepest operand
   stack the lowering saw.

   Patches. prepare lowers the program once and keeps, for every row it
   reached, its jump point (the index of the row's first instruction), the
   end of its code, the steps pending when it began, the operand height
   there, and its parent. A runtime.ir.Patch appends rows and replaces one
   row of the program whole: for a splice the target's own row, whose
   first points at the appended rows, for an operator its parent's.
   run_patch swaps the row's five cells in, links the patch, and swaps
   them back after the run. Linking lowers anew only the replaced row,
   after the program's code, copying the code of the program's rows it
   reaches; a row with no code of its own (a leaf its parent's op reads,
   an assignment's variable) and an assignment's element target hand this
   to the row above them, whose code reads theirs. The replaced row itself
   is lowered fresh wherever it is reached. The old code's jump point then
   becomes a jump to the new code, which ends with a jump back to the old
   code's end. After the run both are undone; a whole function is never
   lowered for a patch.

   Validation. run_tests and prepare check every row of the IR before
   anything runs, and run_patch the rows a patch can change: the appended
   rows, the replaced row, and its parent, whose checks read it (an
   assignment's target kind, an increment's operand slot). Every index the
   engine follows must stay inside the rows and a frame, and a call must
   enter a function's row; a patch may not replace a function's row, nor
   make a row one. Lowering also refuses an IR whose code would reach a
   node twice (a cycle, or a subtree shared by two parents), which no
   lowered program has. A malformed IR or patch raises ValueError, and a
   prepared handle is left as it was.

   run_tests(ir, values, layout, counts=None) runs a whole suite in one
   call. ``ir`` is a runtime.ir.ProgramIR; runtime/_engine.py packs the
   suite into ``values``, an array('i') of each test's input array,
   expected output and extra args in turn, and ``layout``, an array('q')
   of each test's three lengths and step limit. Only the suite bounds that
   guard memory are checked here. It returns one (status, steps, error,
   final array or None) tuple per test, with the status and error codes
   of engine_py. ``counts``, when not None, holds one writable array('q')
   per test, with one cell per node; every statement entry of the test's
   run adds one to its node's cell. Tests may share an array.

   prepare(ir, values, layout) copies, validates and lowers the IR, copies
   the suite, and runs it once, keeping the program's own outcome on every
   test; it returns a handle. run_patch(handle, patch, tests) runs the tests
   numbered in ``tests`` (increasing) on the patched program, counts the
   program's own outcome for every other test, undoes the patch, and
   returns (total_steps, n_correct, any_timeout, any_error).

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

/* How a run ended. ST_NOMEM makes run_tests raise MemoryError. */
enum { ST_OK, ST_TIMEOUT, ST_FAULT, ST_NOMEM };

enum { STATUS_COMPLETED, STATUS_TIMEOUT, STATUS_ERROR };
enum { ERR_NONE, ERR_INDEX, ERR_DIV, ERR_STACK };

#define HEAP_LIMIT (1 << 20)
#define ARRAY_SHIFT 21
#define LEN_MASK ((1 << ARRAY_SHIFT) - 1)
#define STACK_LIMIT 512
#define CODE_LIMIT (INT32_MAX / 2)

#if defined(__GNUC__) && !defined(PERFLOC_SWITCH_DISPATCH)
#define THREADED 1
#else
#define THREADED 0
#endif

/* The Binary operators that are not && or ||, in operator-code order, with
   a suffix: a plain one pops both operands; _L and _K pop the left one and
   take the right from a frame slot (x) or a constant (y); _LL and _LK take
   the left from slot x too, and push. */
#define ARITH(X, S) \
    X(ADD##S) X(SUB##S) X(MUL##S) X(DIV##S) X(MOD##S) X(LT##S) X(LE##S) \
    X(GT##S) X(GE##S) X(EQ##S) X(NE##S)

/* The opcodes, in two groups: those before ADD open a node's code, or
   read a leaf operand whose step comes just before, and take the steps
   pending before them; the rest never take steps. INDEX_L .. INDEX_LK
   are INDEX with its operands read as ARITH's suffixes read them. */
#define INSTRUCTIONS(X) \
    X(TICK) X(COUNT) X(PUSH_LOCAL) X(PUSH_CONST) X(INCDEC) X(JMP) \
    X(RET_VOID) ARITH(X, _L) ARITH(X, _K) ARITH(X, _LL) ARITH(X, _LK) \
    X(INDEX_L) X(INDEX_K) X(INDEX_LL) X(INDEX_LK) \
    ARITH(X, ) X(NEG) X(NOT) X(AND) X(OR) X(INDEX) X(NEWARRAY) X(CALL) \
    X(RET) X(END_FN) X(HALT) X(STORE_LOCAL) X(STORE_INDEX) X(POP) X(JZ) \
    X(JNZ) X(STEP)

#define OPCODE(name) I_##name,
enum { INSTRUCTIONS(OPCODE) N_INS };
#define TAKES_STEPS(ins) ((ins) < I_ADD)

/* How an ARITH op or an INDEX reads its operands: the suffixes, and the
   first opcode of each. */
enum { MODE_STACK, MODE_L, MODE_K, MODE_LL, MODE_LK };
static const int16_t ARITH_INS[5] = {I_ADD, I_ADD_L, I_ADD_K, I_ADD_LL,
                                     I_ADD_LK};
static const int16_t INDEX_INS[5] = {I_INDEX, I_INDEX_L, I_INDEX_K,
                                     I_INDEX_LL, I_INDEX_LK};

/* Each opcode's change to the operand stack's height; CALL's is 1 - argc. */
#define PUSHES(name) [I_##name] = 1,
#define POPS(name) [I_##name] = -1,
static const int8_t EFFECT[N_INS] = {
    ARITH(PUSHES, _LL) ARITH(PUSHES, _LK) ARITH(POPS, )
    [I_PUSH_LOCAL] = 1, [I_PUSH_CONST] = 1, [I_INCDEC] = 1,
    [I_INDEX_LL] = 1, [I_INDEX_LK] = 1, [I_AND] = -1, [I_OR] = -1,
    [I_INDEX] = -1, [I_RET] = -1, [I_STORE_LOCAL] = -1,
    [I_STORE_INDEX] = -3, [I_POP] = -1, [I_JZ] = -1, [I_JNZ] = -1,
};
#undef PUSHES
#undef POPS

/* One instruction. ``x`` is a frame slot, a relative jump, a node (COUNT)
   or an argument count (CALL); ``y`` a constant, a second slot, a step
   (+1 or -1) or a callee's entry. */
typedef struct {
#if THREADED
    const void *op;
#else
    int op;
#endif
    int32_t ticks;
    int32_t x;
    int64_t y;
} Ins;

/* A return point: where the caller resumes, and its frame, as offsets. */
typedef struct {
    int64_t pc;
    int64_t fp;
} Frame;

/* The state of a run. The run loop keeps it in locals and writes the
   counters back when it stops. */
typedef struct {
    Ins *code;
    int n_slots;            /* every frame's size */
    int64_t *stack;         /* a leading cell, then frames and operands */
    Py_ssize_t stack_cells;
    Frame *frames;          /* STACK_LIMIT return points */
    int32_t *heap;
    int64_t heap_len;
    int64_t heap_cap;
    int64_t *counts;        /* per node: statement entries, or NULL */
    int64_t steps;
    int64_t limit;
    int fault;
} Ctx;

#if THREADED
static const void *const *LABELS;   /* each opcode's handler, from run() */
#endif

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

/* ---- the run loop ------------------------------------------------------- */

#if THREADED
#define DO(name) L_##name:
#define NEXT goto *pc->op
#else
#define DO(name) case I_##name:
#define NEXT continue
#endif
/* Take this instruction's steps; Timeout once they reach the limit. */
#define TAKE() do { if ((steps += pc->ticks) >= limit) goto timeout; } while (0)
/* Each ARITH operator: its value of l and r, and what it checks first. */
#define ZERO if (r == 0) goto div_fault;
#define OPERATORS(X) \
    X(ADD, wrap32(l + r), ) X(SUB, wrap32(l - r), ) \
    X(MUL, wrap32(l * r), ) X(DIV, wrap32(l / r), ZERO) \
    X(MOD, l % r, ZERO) X(LT, l < r, ) X(LE, l <= r, ) X(GT, l > r, ) \
    X(GE, l >= r, ) X(EQ, l == r, ) X(NE, l != r, )
/* int32 operands held in int64: C truncates toward zero, and INT_MIN / -1
   does not overflow before the wrap. */
#define OPERATOR(name, value, check) \
    DO(name) l = sp[-2]; r = sp[-1]; check sp--; sp[-1] = (value); \
        pc++; NEXT; \
    DO(name##_L) TAKE(); l = sp[-1]; r = fp[pc->x]; check \
        sp[-1] = (value); pc++; NEXT; \
    DO(name##_K) TAKE(); l = sp[-1]; r = pc->y; check sp[-1] = (value); \
        pc++; NEXT; \
    DO(name##_LL) TAKE(); l = fp[pc->x]; r = fp[pc->y]; check \
        *sp++ = (value); pc++; NEXT; \
    DO(name##_LK) TAKE(); l = fp[pc->x]; r = pc->y; check \
        *sp++ = (value); pc++; NEXT;
/* INDEX of array l at r, left on the stack, or IndexOutOfBounds. */
#define LOAD(push) \
    if ((at = element(l, r, heap_len)) < 0) \
        goto index_fault; \
    push heap[at]; \
    pc++; \
    NEXT;

/* The heap cell of element ``idx`` of array ``ref``, as an offset, or -1.
   The heap_len test never fails for a checked program; it keeps an
   ill-typed IR, whose ``ref`` is not an array, inside the heap. */
static inline int64_t element(int64_t ref, int64_t idx, int64_t heap_len)
{
    uint64_t at = (uint64_t)((ref >> ARRAY_SHIFT) + idx);
    if (idx < 0 || idx >= (ref & LEN_MASK) || at >= (uint64_t)heap_len)
        return -1;
    return (int64_t)at;
}

/* Run the code from ``entry`` in a frame whose first ``argc`` cells the
   caller has filled. ctx == NULL only publishes the handlers' labels. */
static int run(Ctx *ctx, int64_t entry, int argc)
{
#if THREADED
#define HANDLER(name) &&L_##name,
    static const void *const labels[N_INS] = { INSTRUCTIONS(HANDLER) };
#undef HANDLER
#endif
    const Ins *code, *pc;
    int64_t *base, *fp, *sp;
    Frame *rp, *rp_end;
    int64_t steps = 0, limit, retval = 0, v, l, r, at, n;
    int64_t *counts;
    int32_t *heap;
    int64_t heap_len;
    int n_slots;
    if (ctx == NULL) {
#if THREADED
        LABELS = labels;
#endif
        return ST_OK;
    }
    code = ctx->code;
    base = ctx->stack + 1;
    n_slots = ctx->n_slots;
    fp = base;
    memset(fp + argc, 0, (size_t)(n_slots - argc) * sizeof(int64_t));
    sp = fp + n_slots;
    rp = ctx->frames;
    rp_end = rp + STACK_LIMIT;
    rp->pc = 0;             /* code[0] is HALT */
    rp->fp = 0;
    rp++;
    limit = ctx->limit > 0 ? ctx->limit : INT64_MAX;  /* <= 0: never */
    counts = ctx->counts;
    heap = ctx->heap;
    heap_len = ctx->heap_len;
    pc = code + entry;
#if THREADED
    NEXT;
#else
    for (;;) {
        switch (pc->op) {
#endif
        DO(TICK) TAKE(); pc++; NEXT;
        DO(COUNT) TAKE(); counts[pc->x]++; pc++; NEXT;
        DO(PUSH_LOCAL) TAKE(); *sp++ = fp[pc->x]; pc++; NEXT;
        DO(PUSH_CONST) TAKE(); *sp++ = pc->y; pc++; NEXT;
        DO(INCDEC)
            TAKE();
            v = fp[pc->x];
            fp[pc->x] = wrap32(v + pc->y);
            *sp++ = v;
            pc++;
            NEXT;
        DO(JMP) TAKE(); pc += pc->x; NEXT;
        DO(RET_VOID) TAKE(); retval = 0; goto ret;
        OPERATORS(OPERATOR)
        DO(NEG) sp[-1] = wrap32(-sp[-1]); pc++; NEXT;
        DO(NOT) sp[-1] = !sp[-1]; pc++; NEXT;
        DO(AND)     /* a false left operand is the value */
            if (sp[-1] == 0) {
                pc += pc->x;
                NEXT;
            }
            sp--;
            pc++;
            NEXT;
        DO(OR)
            if (sp[-1] != 0) {
                sp[-1] = 1;
                pc += pc->x;
                NEXT;
            }
            sp--;
            pc++;
            NEXT;
        DO(INDEX) l = sp[-2]; r = sp[-1]; sp--; LOAD(sp[-1] =)
        DO(INDEX_L) TAKE(); l = sp[-1]; r = fp[pc->x]; LOAD(sp[-1] =)
        DO(INDEX_K) TAKE(); l = sp[-1]; r = pc->y; LOAD(sp[-1] =)
        DO(INDEX_LL) TAKE(); l = fp[pc->x]; r = fp[pc->y]; LOAD(*sp++ =)
        DO(INDEX_LK) TAKE(); l = fp[pc->x]; r = pc->y; LOAD(*sp++ =)
        DO(STORE_INDEX)
            sp -= 3;
            if ((at = element(sp[0], sp[1], heap_len)) < 0)
                goto index_fault;
            heap[at] = (int32_t)sp[2];
            pc++;
            NEXT;
        DO(NEWARRAY)
            n = sp[-1];
            if (n < 0 || heap_len + n > HEAP_LIMIT)
                goto index_fault;
            if (grow_heap(ctx, heap_len + n) != 0)
                goto nomem;
            heap = ctx->heap;
            memset(heap + heap_len, 0, (size_t)n * sizeof(int32_t));
            sp[-1] = (heap_len << ARRAY_SHIFT) | n;
            heap_len += n;
            pc++;
            NEXT;
        DO(CALL)    /* the arguments are the top pc->x operands */
            if (rp == rp_end)
                goto stack_fault;
            rp->pc = pc + 1 - code;
            rp->fp = fp - base;
            rp++;
            fp = sp - pc->x;
            memset(sp, 0, (size_t)(n_slots - pc->x) * sizeof(int64_t));
            sp = fp + n_slots;
            retval = 0;
            pc = code + pc->y;
            NEXT;
        DO(RET) retval = sp[-1]; goto ret;
        DO(END_FN) goto ret;    /* the value of the last call returned */
        DO(HALT) goto done;
        DO(STORE_LOCAL) fp[pc->x] = *--sp; pc++; NEXT;
        DO(POP) sp--; pc++; NEXT;
        DO(JZ) pc += *--sp ? 1 : pc->x; NEXT;
        DO(JNZ) pc += *--sp ? pc->x : 1; NEXT;
        DO(STEP) fp[pc->x] = wrap32(fp[pc->x] + pc->y); pc++; NEXT;
#if !THREADED
        }
#endif
    ret:
        sp = fp;
        rp--;
        fp = base + rp->fp;
        pc = code + rp->pc;
        *sp++ = retval;
        NEXT;
#if !THREADED
    }
#endif
timeout:
    ctx->steps = limit;
    return ST_TIMEOUT;
div_fault:
    ctx->fault = ERR_DIV;
    goto fault;
stack_fault:
    ctx->fault = ERR_STACK;
    goto fault;
index_fault:
    ctx->fault = ERR_INDEX;
fault:
    ctx->steps = steps;
    return ST_FAULT;
nomem:
    return ST_NOMEM;
done:
    ctx->steps = steps;
    ctx->heap_len = heap_len;
    return ST_OK;
}

/* ---- the program and its rows ------------------------------------------- */

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

/* The columns of the rows: the IR's five, then what the program's lowering
   keeps of each row it reached (AT .. UP), then what a lowering uses. */
enum {
    C_KIND, C_A, C_B, C_FIRST, C_NCH,
    C_AT,       /* the row's jump point: its first instruction, or -1 */
    C_END,      /* the instruction after its code */
    C_PRE,      /* steps pending when its code began */
    C_DEPTH,    /* operand height there */
    C_DEEP,     /* the most its code adds to that height */
    C_UP,       /* the row that lowered it */
    C_CLS,      /* how it was lowered (CTX_*), or CTX_UNSEEN */
    C_MARK,     /* the last lowering that reached it */
    C_ENTRY,    /* a function row's entry, or -1 */
    N_COLS
};
static const char *const ARRAY_FIELDS[5] = {"kind", "a", "b", "first", "nch"};
#define ITEMSIZE(col) ((col) == C_A ? 8 : 4)

/* How a row is lowered: a statement, an expression that pushes its value,
   an assignment's element target (pushes array and index), a function
   (its body, then END_FN), or a row with no code of its own. */
enum { CTX_UNSEEN = -1, CTX_STMT, CTX_EXPR, CTX_LVALUE, CTX_FUNC, CTX_NONE };

typedef struct {
    Ctx ctx;
    void *col[N_COLS];
    int32_t *kind, *b, *first, *nch, *at, *end, *pre, *depth, *deep, *up,
        *cls, *mark, *entry_of;
    int64_t *a;
    Py_ssize_t n;           /* the program's rows; a patch's follow them */
    Py_ssize_t cap;         /* rows the columns have room for */
    int entry;              /* the entry function's code */
    Py_ssize_t n_code;      /* instructions in use */
    Py_ssize_t code_len;    /* the program's own; a patch's follow them */
    Py_ssize_t code_cap;
    int height;             /* the program's deepest operand stack */
    int32_t epoch;          /* lowerings so far */
    int32_t *values;        /* the packed suite's values: owned copy */
    Test *tests;
    Py_ssize_t n_tests;
    Py_buffer *counts;      /* per test, when counting */
    Py_ssize_t n_counts;    /* views held */
} Program;

static const char HANDLE[] = "perfloc.runtime._engine.handle";

/* ``buf``, an array of ``*cap`` items, grown to at least ``need``; NULL
   with MemoryError, leaving ``buf`` as it was. */
static void *grown(void *buf, Py_ssize_t *cap, Py_ssize_t need, size_t item)
{
    Py_ssize_t n = Py_MAX(need, 2 * *cap + 16);
    void *p = PyMem_Realloc(buf, (size_t)n * item);
    if (p == NULL) {
        PyErr_NoMemory();
        return NULL;
    }
    *cap = n;
    return p;
}

/* Whether ``buf`` has room for ``need`` items, growing it if not; needs a
   ``void *tmp`` in scope. */
#define RESERVE(buf, cap, need) \
    ((need) <= (cap) \
     || ((tmp = grown((buf), &(cap), (need), sizeof *(buf))) != NULL \
         && ((buf) = tmp, 1)))

static void release_program(Program *p)
{
    for (int k = 0; k < N_COLS; k++)
        PyMem_Free(p->col[k]);
    for (Py_ssize_t t = 0; t < p->n_counts; t++)
        PyBuffer_Release(&p->counts[t]);
    PyMem_Free(p->counts);
    PyMem_Free(p->ctx.code);
    PyMem_Free(p->ctx.stack);
    PyMem_Free(p->ctx.frames);
    PyMem_Free(p->values);
    PyMem_Free(p->tests);
    free(p->ctx.heap);
}

/* Room for ``rows`` rows in every column. On failure the columns still
   hold the program's rows. */
static int grow_rows(Program *p, Py_ssize_t rows)
{
    Py_ssize_t cap = Py_MAX(rows, 2 * p->cap);
    int k;
    if (rows <= p->cap)
        return 0;
    for (k = 0; k < N_COLS; k++) {
        void *col = PyMem_Realloc(p->col[k], (size_t)cap * ITEMSIZE(k));
        if (col == NULL)
            break;
        p->col[k] = col;
    }
    p->kind = p->col[C_KIND];
    p->a = p->col[C_A];
    p->b = p->col[C_B];
    p->first = p->col[C_FIRST];
    p->nch = p->col[C_NCH];
    p->at = p->col[C_AT];
    p->end = p->col[C_END];
    p->pre = p->col[C_PRE];
    p->depth = p->col[C_DEPTH];
    p->deep = p->col[C_DEEP];
    p->up = p->col[C_UP];
    p->cls = p->col[C_CLS];
    p->mark = p->col[C_MARK];
    p->entry_of = p->col[C_ENTRY];
    if (k < N_COLS) {
        PyErr_NoMemory();
        return -1;
    }
    p->cap = cap;
    return 0;
}

/* Copy the five row arrays of ``src``, a ProgramIR or a Patch, to rows
   ``at`` onward, as rows no lowering has reached; returns how many rows
   they hold, or -1 with an exception set. */
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
            rows = view.len / ITEMSIZE(0);
        ok = view.len == rows * ITEMSIZE(k)
             && (k > 0 || grow_rows(p, at + rows) == 0);
        if (ok && rows > 0)
            memcpy((char *)p->col[k] + at * ITEMSIZE(k), view.buf,
                   (size_t)view.len);
        PyBuffer_Release(&view);
        if (!ok) {
            if (!PyErr_Occurred())
                PyErr_Format(PyExc_TypeError, "%s must hold one %d-byte "
                             "int per row", ARRAY_FIELDS[k], ITEMSIZE(k));
            return -1;
        }
    }
    for (Py_ssize_t i = at; i < at + rows; i++) {
        p->at[i] = p->up[i] = p->entry_of[i] = -1;
        p->cls[i] = CTX_UNSEEN;
        p->mark[i] = 0;
    }
    return rows;
}

/* Minimum children of each opcode the engine steps into. */
static int min_children(const Program *p, Py_ssize_t i)
{
    switch (p->kind[i]) {
    case OP_ASSIGN: case OP_FOR: case OP_UNARY: case OP_INDEX:
    case OP_INCDEC: return 2;
    case OP_BINARY: return 3;
    case OP_IF: case OP_WHILE: case OP_EXPRSTMT: return 1;
    case OP_VARDECL: return p->b[i] ? 2 : 0;
    case OP_RETURN: return p->b[i] ? 1 : 0;
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
    int k = p->kind[i], first = p->first[i], nch = p->nch[i];
    int n_slots = p->ctx.n_slots;
    int64_t a = p->a[i];
    if (k < 0 || k >= N_OPS)
        return "unknown opcode";
    if (nch < 0 || (nch > 0 && (first < 0 || first > rows - nch)))
        return "child range outside the rows";
    if (nch < min_children(p, i))
        return "too few children";
    if (k == OP_FUNC && nch != 1)
        return "function body";
    if (k == OP_ASSIGN && p->kind[first] != OP_IDENT && p->nch[first] < 2)
        return "assignment target";
    if (k == OP_INCDEC && (p->kind[first + 1] != OP_IDENT
                           || p->a[first + 1] < 0
                           || p->a[first + 1] >= n_slots))
        return "increment operand";
    if (k == OP_IF && (a < 0 || a >= nch))
        return "then-branch length";
    if (k == OP_CALL && (a < -1 || a >= rows || p->b[i] != nch
                         || (a == -1 && nch != 1)
                         || (a >= 0 && (p->kind[a] != OP_FUNC
                                        || nch > n_slots))))
        return "call";
    if ((k == OP_FOR || k == OP_VARDECL) && (a < 0 || a >= n_slots))
        return "frame slot";
    /* a VarDecl's name holds -1; it is never read */
    if (k == OP_IDENT && (a < -1 || a >= n_slots))
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

/* ---- lowering ----------------------------------------------------------- */

/* What a lowering does next; a row's lowering pushes its steps in reverse
   onto the stack of these, so no C function calls itself here either. */
enum {
    A_ROW,      /* lower row x in context ctx; y is its parent */
    A_END,      /* row x's code ends; y is the height its parent had seen */
    A_TICK,     /* one step, taken by the next instruction */
    A_COUNT,    /* a statement's step, and its count */
    A_EMIT,     /* instruction ins with operands x and y */
    A_JUMP,     /* instruction ins to label x */
    A_LABEL,    /* label x is here */
    A_FLUSH     /* the end of a statement: no step may cross it */
};

typedef struct {
    int8_t what;
    int8_t ctx;
    int16_t ins;
    int32_t x;
    int64_t y;
} Act;

typedef struct {
    Py_ssize_t placed;      /* the instruction it names, or -1 */
    Py_ssize_t jump;        /* a jump to it, emitted before it was placed */
} Label;

typedef struct {
    Program *p;
    const char *what;       /* "IR" or "patch", for errors */
    int counting;           /* open every statement with COUNT */
    int patching;           /* keep the rows' places; copy code when not */
    Py_ssize_t divert;      /* patching: the row whose code is replaced */
    Py_ssize_t replaced;    /* patching: the row the patch replaced */
    int32_t pending;        /* steps not yet taken by an instruction */
    int32_t height;         /* operand height after the last instruction */
    int32_t deepest;        /* the most since the current row began */
    int32_t top;            /* the most anywhere */
    Act *acts, *seq;
    Py_ssize_t n_acts, cap_acts, n_seq, cap_seq;
    Label *labels;
    Py_ssize_t n_labels, cap_labels;
    int32_t *calls;         /* fresh CALLs, whose y still names a row */
    Py_ssize_t n_calls, cap_calls;
    int32_t *funcs;         /* appended function rows to lower */
    Py_ssize_t n_funcs, cap_funcs;
} Lower;

static void free_lower(Lower *L)
{
    PyMem_Free(L->acts);
    PyMem_Free(L->seq);
    PyMem_Free(L->labels);
    PyMem_Free(L->calls);
    PyMem_Free(L->funcs);
}

static int fail(Lower *L, const char *why, Py_ssize_t row)
{
    PyErr_Format(PyExc_ValueError, "malformed %s: %s at node %zd", L->what,
                 why, row);
    return -1;
}

static Ins instruction(int ins, int32_t ticks, int32_t x, int64_t y)
{
    Ins made;
#if THREADED
    made.op = LABELS[ins];
#else
    made.op = ins;
#endif
    made.ticks = ticks;
    made.x = x;
    made.y = y;
    return made;
}

/* Emit instruction ``ins``. It takes the pending steps if it can; if not,
   a TICK before it does. */
static int emit(Lower *L, int ins, int32_t x, int64_t y)
{
    Program *p = L->p;
    void *tmp;
    int tick = !TAKES_STEPS(ins) && L->pending > 0;
    if (p->n_code + tick >= CODE_LIMIT)
        return fail(L, "code too large", 0);
    if (!RESERVE(p->ctx.code, p->code_cap, p->n_code + 1 + tick))
        return -1;
    if (tick)
        p->ctx.code[p->n_code++] = instruction(I_TICK, L->pending, 0, 0);
    p->ctx.code[p->n_code] = instruction(ins, TAKES_STEPS(ins) ? L->pending
                                                                : 0, x, y);
    L->pending = 0;
    if (ins == I_CALL) {
        if (!RESERVE(L->calls, L->cap_calls, L->n_calls + 1))
            return -1;
        L->calls[L->n_calls++] = (int32_t)p->n_code;
    }
    p->n_code++;
    L->height += ins == I_CALL ? 1 - x : EFFECT[ins];
    L->deepest = Py_MAX(L->deepest, L->height);
    L->top = Py_MAX(L->top, L->height);
    return 0;
}

/* Place label ``k`` here, after an instruction that takes any pending
   steps, so a jump to it never takes them. */
static int place(Lower *L, Py_ssize_t k)
{
    Program *p = L->p;
    Label *label = &L->labels[k];
    if (L->pending > 0 && emit(L, I_TICK, 0, 0) < 0)
        return -1;
    label->placed = p->n_code;
    if (label->jump >= 0)
        p->ctx.code[label->jump].x = (int32_t)(p->n_code - label->jump);
    return 0;
}

static int jump(Lower *L, int ins, Py_ssize_t k)
{
    Label *label = &L->labels[k];
    Py_ssize_t here = L->p->n_code + (!TAKES_STEPS(ins) && L->pending > 0);
    if (label->placed >= 0)
        return emit(L, ins, (int32_t)(label->placed - here), 0);
    label->jump = here;
    return emit(L, ins, 0, 0);
}

static Py_ssize_t new_label(Lower *L)
{
    void *tmp;
    if (!RESERVE(L->labels, L->cap_labels, L->n_labels + 1))
        return -1;
    L->labels[L->n_labels].placed = L->labels[L->n_labels].jump = -1;
    return L->n_labels++;
}

static int seq(Lower *L, int what, int ctx, int ins, int64_t x, int64_t y)
{
    void *tmp;
    if (!RESERVE(L->seq, L->cap_seq, L->n_seq + 1))
        return -1;
    L->seq[L->n_seq++] = (Act){(int8_t)what, (int8_t)ctx, (int16_t)ins,
                               (int32_t)x, y};
    return 0;
}

#define SEQ(what, ctx, ins, x, y) \
    do { if (seq(L, what, ctx, ins, x, y) < 0) return -1; } while (0)
#define ROW(row, ctx) SEQ(A_ROW, ctx, 0, row, r)
#define ROWS(lo, hi, ctx) \
    do { for (Py_ssize_t c_ = (lo); c_ < (hi); c_++) ROW(c_, ctx); } \
    while (0)
#define EMIT(ins, x, y) SEQ(A_EMIT, 0, ins, x, y)
#define JUMP(ins, label) SEQ(A_JUMP, 0, ins, label, 0)
#define LABEL(label) SEQ(A_LABEL, 0, 0, label, 0)

/* Mark row ``r`` reached in context ``ctx``; a row reached twice in one
   lowering is refused. The program's own lowering keeps its place. */
static int reach(Lower *L, Py_ssize_t r, int ctx, Py_ssize_t parent)
{
    Program *p = L->p;
    if (p->mark[r] == p->epoch)
        return fail(L, "a node reached twice", r);
    p->mark[r] = p->epoch;
    if (!L->patching) {
        p->cls[r] = ctx;
        p->up[r] = (int32_t)parent;
        p->at[r] = ctx == CTX_NONE ? -1 : (int32_t)p->n_code;
        p->pre[r] = L->pending;
        p->depth[r] = L->height;
    }
    return 0;
}

/* Copy the program's code of row ``src`` here: its first instruction takes
   the steps pending here instead of those pending where it stood. */
static int copy_row(Lower *L, Py_ssize_t src)
{
    Program *p = L->p;
    Py_ssize_t len = p->end[src] - p->at[src];
    void *tmp;
    if (!RESERVE(p->ctx.code, p->code_cap, p->n_code + len))
        return -1;
    memcpy(p->ctx.code + p->n_code, p->ctx.code + p->at[src],
           (size_t)len * sizeof(Ins));
    p->ctx.code[p->n_code].ticks += L->pending - p->pre[src];
    L->pending = 0;
    p->n_code += len;
    L->deepest = Py_MAX(L->deepest, L->height + p->deep[src]);
    L->top = Py_MAX(L->top, L->height + p->deep[src]);
    L->height += p->cls[src] == CTX_EXPR ? 1
                 : p->cls[src] == CTX_LVALUE ? 2 : 0;
    return 0;
}

/* How an operand is read when it is a leaf: from its frame slot, as a
   constant, or (0) by its own code. */
static int leaf(const Program *p, Py_ssize_t row)
{
    int k = p->kind[row];
    return k == OP_IDENT ? MODE_L
           : k == OP_INTLIT || k == OP_BOOLLIT ? MODE_K : 0;
}

/* The steps of row ``r``, a Binary of ARITH operator ``bop``, or an Index
   (``bop`` -1), with operands ``lhs`` and ``rhs``: a leaf right operand is
   read by the op itself, and so is a slot left operand beside it. A leaf
   read so has no code of its own; the op takes its step. */
static int operands(Lower *L, Py_ssize_t r, Py_ssize_t lhs, Py_ssize_t rhs,
                    int bop)
{
    Program *p = L->p;
    int mode = leaf(p, rhs);
    int64_t x = 0, y = 0;
    if (mode == MODE_STACK) {
        ROW(lhs, CTX_EXPR);
        ROW(rhs, CTX_EXPR);
    } else {
        if (leaf(p, lhs) == MODE_L) {
            if (reach(L, lhs, CTX_NONE, r) < 0)
                return -1;
            SEQ(A_TICK, 0, 0, 0, 0);
            x = p->a[lhs];
            mode = mode == MODE_L ? MODE_LL : MODE_LK;
        } else {
            ROW(lhs, CTX_EXPR);
        }
        if (reach(L, rhs, CTX_NONE, r) < 0)
            return -1;
        SEQ(A_TICK, 0, 0, 0, 0);
        if (mode == MODE_L)
            x = p->a[rhs];
        else
            y = p->a[rhs];
    }
    EMIT(bop < 0 ? INDEX_INS[mode] : ARITH_INS[mode] + bop, x, y);
    return 0;
}

/* Begin row ``r`` in context ``ctx``: push its steps, in reverse, so that
   they run in order. A patch's lowering copies the program's code of the
   rows it reaches, but for the row it diverts at and the row the patch
   replaced, and refuses to copy code that holds the divert point (then
   the patched rows hold a cycle). */
static int begin_row(Lower *L, Py_ssize_t r, int ctx, Py_ssize_t parent)
{
    Program *p = L->p;
    int k = p->kind[r];
    Py_ssize_t first = p->first[r], nch = p->nch[r];
    int64_t a = p->a[r];
    int32_t b = p->b[r], seen;
    void *tmp;
    if (L->patching && r < p->n && r != L->divert && r != L->replaced
            && p->cls[r] == ctx && p->at[r] >= 0) {
        for (Py_ssize_t up = L->divert; up >= 0; up = p->up[up])
            if (up == r)
                return fail(L, "a node reached twice", r);
        return copy_row(L, r);
    }
    if (reach(L, r, ctx, parent) < 0)
        return -1;
    L->n_seq = 0;
    seen = L->deepest;
    L->deepest = L->height;
    switch (ctx) {
    case CTX_FUNC:
        if (!L->patching || r >= p->n)
            p->entry_of[r] = (int32_t)p->n_code;
        ROW(first, CTX_STMT);
        EMIT(I_END_FN, 0, 0);
        break;
    case CTX_LVALUE:        /* the Index node's own step */
        SEQ(A_TICK, 0, 0, 0, 0);
        ROW(first, CTX_EXPR);
        ROW(first + 1, CTX_EXPR);
        break;
    case CTX_STMT:
        SEQ(L->counting ? A_COUNT : A_TICK, 0, 0, r, 0);
        switch (k) {
        case OP_ASSIGN:
            if (p->kind[first] == OP_IDENT) {
                if (reach(L, first, CTX_NONE, r) < 0)
                    return -1;
                ROW(first + 1, CTX_EXPR);
                EMIT(I_STORE_LOCAL, p->a[first], 0);
            } else {
                ROW(first, CTX_LVALUE);
                ROW(first + 1, CTX_EXPR);
                EMIT(I_STORE_INDEX, 0, 0);
            }
            break;
        case OP_IF: {
            Py_ssize_t mid = first + 1 + a, hi = first + nch;
            Py_ssize_t done = new_label(L), other = new_label(L);
            if (done < 0 || other < 0)
                return -1;
            ROW(first, CTX_EXPR);
            if (mid == hi) {
                JUMP(I_JZ, done);
                ROWS(first + 1, mid, CTX_STMT);
            } else if (mid == first + 1) {
                JUMP(I_JNZ, done);
                ROWS(mid, hi, CTX_STMT);
            } else {
                JUMP(I_JZ, other);
                ROWS(first + 1, mid, CTX_STMT);
                JUMP(I_JMP, done);
                LABEL(other);
                ROWS(mid, hi, CTX_STMT);
            }
            LABEL(done);
            break;
        }
        case OP_FOR:
        case OP_WHILE: {
            Py_ssize_t body = new_label(L), cond = new_label(L);
            Py_ssize_t test = k == OP_FOR ? first + 1 : first;
            if (body < 0 || cond < 0)
                return -1;
            if (k == OP_FOR) {
                ROW(first, CTX_EXPR);
                EMIT(I_STORE_LOCAL, a, 0);
            }
            JUMP(I_JMP, cond);
            LABEL(body);
            ROWS(test + 1, first + nch, CTX_STMT);
            if (k == OP_FOR)
                EMIT(I_STEP, a, b);
            LABEL(cond);
            ROW(test, CTX_EXPR);
            JUMP(I_JNZ, body);
            break;
        }
        case OP_VARDECL:
            if (nch > 0 && reach(L, first, CTX_NONE, r) < 0)
                return -1;
            if (b) {
                ROW(first + 1, CTX_EXPR);
                EMIT(I_STORE_LOCAL, a, 0);
            }
            break;
        case OP_EXPRSTMT:
            ROW(first, CTX_EXPR);
            EMIT(I_POP, 0, 0);
            break;
        case OP_BLOCK:
            ROWS(first, first + nch, CTX_STMT);
            break;
        case OP_RETURN:
            if (b) {
                ROW(first, CTX_EXPR);
                EMIT(I_RET, 0, 0);
            } else {
                EMIT(I_RET_VOID, 0, 0);
            }
            break;
        }
        SEQ(A_FLUSH, 0, 0, 0, 0);
        break;
    case CTX_EXPR:
        SEQ(A_TICK, 0, 0, 0, 0);
        switch (k) {
        case OP_IDENT:
            EMIT(I_PUSH_LOCAL, a, 0);
            break;
        case OP_INTLIT:
        case OP_BOOLLIT:
            EMIT(I_PUSH_CONST, 0, a);
            break;
        case OP_BINARY:
            if (reach(L, first, CTX_NONE, r) < 0)
                return -1;
            if (a == BOP_AND || a == BOP_OR) {
                Py_ssize_t done = new_label(L);
                if (done < 0)
                    return -1;
                ROW(first + 1, CTX_EXPR);
                JUMP(a == BOP_AND ? I_AND : I_OR, done);
                ROW(first + 2, CTX_EXPR);
                LABEL(done);
            } else {   /* engine_py reads an unknown operator as % */
                int op = a >= 0 && a < BOP_AND ? (int)a : BOP_MOD;
                if (operands(L, r, first + 1, first + 2, op) < 0)
                    return -1;
            }
            break;
        case OP_UNARY:
            if (reach(L, first, CTX_NONE, r) < 0)
                return -1;
            ROW(first + 1, CTX_EXPR);
            EMIT(a == 0 ? I_NEG : I_NOT, 0, 0);
            break;
        case OP_INDEX:
            if (operands(L, r, first, first + 1, -1) < 0)
                return -1;
            break;
        case OP_INCDEC:     /* its operand's row holds the slot */
            for (Py_ssize_t c = first; c < first + nch; c++)
                if (reach(L, c, CTX_NONE, r) < 0)
                    return -1;
            EMIT(I_INCDEC, p->a[first + 1], b);
            break;
        case OP_CALL:
            if (a < 0) {
                ROW(first, CTX_EXPR);
                EMIT(I_NEWARRAY, 0, 0);
            } else {
                ROWS(first, first + nch, CTX_EXPR);
                EMIT(I_CALL, nch, a);
            }
            break;
        default:            /* a statement's row read as a value */
            EMIT(I_PUSH_CONST, 0, 0);
        }
        break;
    }
    SEQ(A_END, 0, 0, r, seen);
    if (!RESERVE(L->acts, L->cap_acts, L->n_acts + L->n_seq))
        return -1;
    for (Py_ssize_t s = L->n_seq; s-- > 0;)
        L->acts[L->n_acts++] = L->seq[s];
    return 0;
}

/* Run the lowering's stack of steps until it is empty. */
static int drain(Lower *L)
{
    Program *p = L->p;
    void *tmp;
    while (L->n_acts > 0) {
        Act act = L->acts[--L->n_acts];
        int st = 0;
        switch (act.what) {
        case A_ROW:
            st = begin_row(L, act.x, act.ctx, (Py_ssize_t)act.y);
            break;
        case A_END:
            if (!L->patching) {
                p->end[act.x] = (int32_t)p->n_code;
                p->deep[act.x] = L->deepest - p->depth[act.x];
                if (p->end[act.x] == p->at[act.x])
                    p->at[act.x] = -1;
            }
            L->deepest = Py_MAX(L->deepest, (int32_t)act.y);
            break;
        case A_TICK:
            L->pending++;
            break;
        case A_COUNT:
            L->pending++;
            st = emit(L, I_COUNT, act.x, 0);
            break;
        case A_EMIT:
            st = emit(L, act.ins, act.x, act.y);
            if (st == 0 && act.ins == I_CALL && act.y >= p->n
                    && p->entry_of[act.y] == -1) {
                /* an appended function, lowered after the patch's row */
                p->entry_of[act.y] = -2;
                if (!RESERVE(L->funcs, L->cap_funcs, L->n_funcs + 1))
                    return -1;
                L->funcs[L->n_funcs++] = (int32_t)act.y;
            }
            break;
        case A_JUMP:
            st = jump(L, act.ins, act.x);
            break;
        case A_LABEL:
            st = place(L, act.x);
            break;
        case A_FLUSH:
            if (L->pending > 0)
                st = emit(L, I_TICK, 0, 0);
            break;
        }
        if (st < 0)
            return -1;
    }
    return 0;
}

/* Lower function row ``f`` from an empty operand stack. */
static int lower_function(Lower *L, Py_ssize_t f)
{
    L->height = L->deepest = 0;
    return begin_row(L, f, CTX_FUNC, -1) < 0 ? -1 : drain(L);
}

/* Point every fresh CALL at its callee's entry. */
static void link_calls(Lower *L)
{
    Ins *code = L->p->ctx.code;
    for (Py_ssize_t c = 0; c < L->n_calls; c++)
        code[L->calls[c]].y = L->p->entry_of[code[L->calls[c]].y];
}

/* Lower every function of the program, after a HALT at code[0], where the
   entry's return point leads. */
static int lower_program(Program *p, int counting)
{
    Lower L = {.p = p, .what = "IR", .counting = counting};
    int st = 0;
    p->epoch++;
    st = emit(&L, I_HALT, 0, 0);
    for (Py_ssize_t f = 0; st == 0 && f < p->n; f++)
        if (p->kind[f] == OP_FUNC)
            st = lower_function(&L, f);
    if (st == 0) {
        link_calls(&L);
        p->code_len = p->n_code;
        p->height = L.top;
    }
    free_lower(&L);
    return st;
}

/* Room on the value stack for STACK_LIMIT frames whose operands reach
   ``height``, after the leading cell, where a slot of -1 of the entry's
   frame points. */
static int reserve_stack(Program *p, int height)
{
    Py_ssize_t need = 1 + (Py_ssize_t)STACK_LIMIT * (p->ctx.n_slots + height);
    void *tmp;
    if (RESERVE(p->ctx.stack, p->ctx.stack_cells, need)) {
        p->ctx.stack[0] = 0;
        return 0;
    }
    return -1;
}

/* ---- the Python boundary ------------------------------------------------ */

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

/* Copy, validate and lower the IR's rows, and allocate the stacks. On
   failure an exception is set and the caller still releases. */
static int load_program(PyObject *ir, Program *p, int counting)
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
    if (entry < 0 || entry >= p->n || p->kind[entry] != OP_FUNC) {
        PyErr_SetString(PyExc_ValueError, "malformed IR: entry");
        return -1;
    }
    if (bad_rows(p, "IR", p->n, 0, p->n) < 0
            || lower_program(p, counting) < 0
            || reserve_stack(p, p->height) < 0)
        return -1;
    p->entry = p->entry_of[entry];
    p->ctx.frames = PyMem_Malloc(STACK_LIMIT * sizeof(Frame));
    if (p->ctx.frames == NULL) {
        PyErr_NoMemory();
        return -1;
    }
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

/* Borrow ``counts``, which must hold, per test, a writable array('q') with
   one cell per node. */
static int load_counts(PyObject *counts, Program *p)
{
    PyObject *listed = PySequence_Fast(counts, "counts must be a sequence");
    int st = -1;
    if (listed == NULL)
        return -1;
    if (PySequence_Fast_GET_SIZE(listed) != p->n_tests) {
        PyErr_SetString(PyExc_TypeError, "counts must hold one array per "
                                         "test");
    } else if ((p->counts = PyMem_Calloc(Py_MAX(p->n_tests, 1),
                                         sizeof(Py_buffer))) == NULL) {
        PyErr_NoMemory();
    } else {
        st = 0;
        for (; st == 0 && p->n_counts < p->n_tests; p->n_counts++) {
            Py_buffer *view = &p->counts[p->n_counts];
            st = int_buffer(PySequence_Fast_GET_ITEM(listed, p->n_counts),
                            PyBUF_WRITABLE, "q", 8, view, "counts");
            if (st < 0)
                break;
            if (view->len != p->n * 8) {
                PyErr_SetString(PyExc_TypeError,
                                "counts must hold one cell per node");
                st = -1;
            }
        }
    }
    Py_DECREF(listed);
    return st;
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
    ctx->fault = ERR_NONE;
    /* the arguments go straight into the entry's frame; the input array
       sits at heap offset 0 */
    ctx->stack[1] = t->n_input;
    for (int k = 1; k < t->argc; k++)
        ctx->stack[1 + k] = t->extra[k - 1];
    return run(ctx, p->entry, t->argc);
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
    if (load_program(ir, &p, counts != Py_None) == 0
            && load_suite(&p, values, layout) == 0
            && (counts == Py_None || load_counts(counts, &p) == 0))
        results = PyList_New(p.n_tests);
    for (Py_ssize_t t = 0; results != NULL && t < p.n_tests; t++) {
        PyObject *row;
        if (p.counts != NULL)
            p.ctx.counts = p.counts[t].buf;
        row = run_one(&p, &p.tests[t]);
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
    if (load_program(ir, p, 0) < 0 || load_suite(p, values, layout) < 0)
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

/* Swap row ``i``'s five cells with ``cells``: once to replace the row,
   and once more to restore it. */
static void swap_row(Program *p, Py_ssize_t i, int64_t cells[5])
{
    int64_t old[5] = {p->kind[i], p->a[i], p->b[i], p->first[i], p->nch[i]};
    p->kind[i] = (int32_t)cells[0];
    p->a[i] = cells[1];
    p->b[i] = (int32_t)cells[2];
    p->first[i] = (int32_t)cells[3];
    p->nch[i] = (int32_t)cells[4];
    memcpy(cells, old, sizeof(old));
}

/* Link a patch whose rows follow the program's and that replaced row
   ``row``: lower the new code of the row it diverts at, the replaced row
   or the row above whose code reads it, and make that row's jump point a
   jump to it. Returns the jump point, -1 when the patch changes no code
   the program runs, or -2 with an exception set. ``saved`` keeps the
   instruction the jump replaced. */
static Py_ssize_t link_patch(Program *p, Py_ssize_t row, Ins *saved)
{
    Lower L = {.p = p, .what = "patch", .patching = 1, .replaced = row};
    Py_ssize_t divert = row, point;
    int st;
    if (row == -1 || p->cls[row] == CTX_UNSEEN)
        return -1;
    /* an Assign's store depends on its target's kind */
    while (p->at[divert] < 0 || p->cls[divert] == CTX_LVALUE)
        divert = p->up[divert];
    p->epoch++;
    L.divert = divert;
    L.pending = p->pre[divert];
    L.height = L.deepest = L.top = p->depth[divert];
    st = begin_row(&L, divert, p->cls[divert], -1);
    if (st == 0)
        st = drain(&L);
    if (st == 0)
        st = emit(&L, I_JMP, (int32_t)(p->end[divert] - p->n_code), 0);
    for (Py_ssize_t f = 0; st == 0 && f < L.n_funcs; f++)
        st = lower_function(&L, L.funcs[f]);
    if (st == 0) {
        link_calls(&L);
        st = reserve_stack(p, Py_MAX(p->height, L.top));
    }
    free_lower(&L);
    if (st < 0)
        return -2;
    point = p->at[divert];
    *saved = p->ctx.code[point];
    p->ctx.code[point] = instruction(I_JMP, 0,
                                     (int32_t)(p->code_len - point), 0);
    return point;
}

/* Read the patch's replaced row and its new cells into ``row`` and
   ``cells``; -1 with an exception set when they are not a row of the
   program and five cells that fit its columns. */
static int replaced_row(const Program *p, PyObject *patch, Py_ssize_t *row,
                        int64_t cells[5])
{
    PyObject *obj, *listed;
    long long r = int_attr(patch, "row");
    int ok;
    if (r == -1 && PyErr_Occurred())
        return -1;
    *row = (Py_ssize_t)r;
    if (r == -1)
        return 0;
    if ((obj = PyObject_GetAttrString(patch, "cells")) == NULL)
        return -1;
    listed = PySequence_Fast(obj, "cells must be a sequence");
    Py_DECREF(obj);
    if (listed == NULL)
        return -1;
    ok = r >= 0 && r < p->n && PySequence_Fast_GET_SIZE(listed) == 5;
    for (int k = 0; ok && k < 5; k++) {
        cells[k] = PyLong_AsLongLong(PySequence_Fast_GET_ITEM(listed, k));
        if (cells[k] == -1 && PyErr_Occurred()) {
            Py_DECREF(listed);
            return -1;
        }
        ok = k == 1 || (cells[k] >= INT32_MIN && cells[k] <= INT32_MAX);
    }
    Py_DECREF(listed);
    if (!ok) {
        PyErr_SetString(PyExc_ValueError, "malformed patch: replaced row");
        return -1;
    }
    if (p->kind[r] == OP_FUNC || cells[0] == OP_FUNC) {
        PyErr_Format(PyExc_ValueError, "malformed patch: function row at "
                     "node %zd", *row);
        return -1;
    }
    return 0;
}

/* Add the outcome of a test to the summary (steps, passed, timeout,
   error). */
#define SUM(steps_, passed_, timeout_, error_) \
    do { steps += (steps_); n_passed += (passed_); \
         any_timeout |= (timeout_); any_error |= (error_); } while (0)

static PyObject *run_patch(PyObject *self, PyObject *args)
{
    PyObject *handle, *patch, *tests, *listed, *result = NULL;
    Program *p;
    Py_ssize_t m, prev = -1, t, row, up, point = -1;
    int64_t cells[5];
    Ins saved;
    int64_t steps = 0;
    Py_ssize_t n_passed = 0;
    int any_timeout = 0, any_error = 0;
    (void)self;
    if (!PyArg_ParseTuple(args, "OOO:run_patch", &handle, &patch, &tests))
        return NULL;
    p = PyCapsule_GetPointer(handle, HANDLE);
    if (p == NULL || replaced_row(p, patch, &row, cells) < 0)
        return NULL;
    if (row != -1)
        swap_row(p, row, cells);
    listed = PySequence_Fast(tests, "tests must be a sequence");
    if (listed == NULL || (m = put_rows(p, patch, p->n)) < 0)
        goto done;
    /* prepare validated the program's rows; of those, only the replaced
       row and the parent whose checks read it can have changed */
    up = row != -1 ? p->up[row] : -1;
    if (bad_rows(p, "patch", p->n + m, p->n, p->n + m) < 0
            || (row != -1 && bad_rows(p, "patch", p->n + m, row, row + 1) < 0)
            || (up >= 0 && bad_rows(p, "patch", p->n + m, up, up + 1) < 0))
        goto done;
    point = link_patch(p, row, &saved);
    if (point == -2)
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
    /* restore the program: its rows end at p->n, its code at code_len */
    if (point >= 0)
        p->ctx.code[point] = saved;
    p->n_code = p->code_len;
    if (row != -1)
        swap_row(p, row, cells);
    Py_XDECREF(listed);
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
     "Validate and lower the IR, copy the packed suite and run it once; "
     "see _engine.prepare."},
    {"run_patch", run_patch, METH_VARARGS,
     "run_patch(handle, patch, tests)"
     " -> (total_steps, n_correct, any_timeout, any_error)\n\n"
     "Run the listed tests on the prepared program with a patch applied; "
     "see engine_py.run_patch."},
    {NULL, NULL, 0, NULL},
};

static int exec_module(PyObject *module)
{
    (void)module;
    return run(NULL, 0, 0);
}

static PyModuleDef_Slot slots[] = {
    {Py_mod_exec, (void *)exec_module},
    {0, NULL},
};

static struct PyModuleDef engine_module = {
    PyModuleDef_HEAD_INIT, "_engine",
    "Compiled interpreter engine; mirror of engine_py.", 0, methods, slots,
    NULL, NULL, NULL,
};

PyMODINIT_FUNC PyInit__engine(void)
{
    return PyModuleDef_Init(&engine_module);
}
