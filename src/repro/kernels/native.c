/* Native unit kernels of the supernodal factorization and solve.
 *
 * factorize_panels_{d,z}: for each listed panel, ascending — apply the
 * updates of its source panels in ascending source order (GEMM into
 * scratch, scatter-subtract through the couple plan's rows_local; a tiny
 * couple is one fused loop that subtracts each product entry straight
 * into the target), then factor the diagonal block and solve the panel
 * TRSM(s): with LAPACK and BLAS, or in plain loops for a narrow panel.
 * A panel the row-block partition splits runs as its tasks do, one after
 * the other: its diagonal task, then each row block.
 *
 * factorize_block_{d,z}: one task of a split panel.  Rows [0, width) are
 * its diagonal task: the updates into the diagonal block, then its
 * factorization and nothing else.  A row range below it is a row-block
 * task: the updates into those rows, then their TRSM(s).
 *
 * solve_panels_{d,z}: the forward (listed panels ascending) or backward
 * (descending) steps of the left-looking triangular solve, over the same
 * plan and arenas, on x in place.
 *
 * One call per unit, made through ctypes, so the GIL is released for the
 * whole unit.  See repro/kernels/native.py (loader, argument checks) and
 * docs/solver_internals.md (layouts, the hand-back contract).
 *
 * run_dag: every task of a task DAG in one call.  The caller is worker
 * 0 and up to n_workers - 1 pthreads join it, each started when a task is
 * ready that no parked worker will take; a finishing task decrements its
 * successors' counters and queues the ones that reach zero, under one
 * mutex.  A task is (lo, hi, kind, panel): the forward or backward solve
 * steps of panels[lo..hi), a factorize_panels call over panels[lo..hi),
 * or a factorize_block call on rows [lo, hi) of panel `panel`.
 *
 * csc_matvec_{d,z}: A x for a CSC matrix, adding in stored order.
 *
 * The couple plan the calls above follow was proven in range before
 * (graph/analysis.c: repro_check_plan, kernels/indexcache.py:
 * CoupleMapCache.validate).
 *
 * Panels are row-major h x w, i.e. column-major w x h matrices with
 * leading dimension w holding the transpose; every BLAS/LAPACK call below
 * is written in those column-major terms.
 *
 * The pivot policy (perturb a tiny pivot, or raise) lives in Python only.
 * The diagonal block is factored in a scratch copy and committed only if
 * every pivot is one the Python column loop would keep as it is: finite,
 * nonzero and not under the threshold (LL^T: positive).  A narrow block
 * (width <= NARROW) is eliminated here without pivoting, as that loop
 * does; a wider one goes to LAPACK, and is committed only if LAPACK
 * succeeded and interchanged nothing.  Otherwise the panel is handed back
 * with its updates applied and its diagonal block untouched.
 *
 * counters: NULL, or 2 N_PHASES int64 per calling thread that the calls
 * above add each phase's nanoseconds and call count to.
 *
 * The file includes itself twice: once for double, once for double
 * complex.  No -ffast-math: the finite tests must hold.
 */
#ifndef REPRO_BODY

#define _GNU_SOURCE /* CPU affinity of the executor's workers */
#include <complex.h>
#include <math.h>
#include <pthread.h>
#include <sched.h>
#include <stdint.h>
#include <stdlib.h>
#include <string.h>
#include <time.h>
#ifndef CPU_SETSIZE
#define CPU_SETSIZE 1 /* no worker binding off Linux */
#endif

typedef struct {
    int64_t n_cblk;
    const int64_t *height, *width; /* per panel */
    const int64_t *offset;         /* panel -> element offset in L / U */
    const int64_t *d_off;          /* panel -> offset in D (cblk_ptr) */
    const int64_t *tgt_ptr;        /* target -> its couples, ascending source */
    const int32_t *src, *i0, *i1;  /* per couple */
    const int64_t *rl_ptr;         /* couple -> its slice of rows_local */
    const int64_t *rows_local;
    const int64_t *row_ptr, *rows; /* panel -> its global factor rows */
    int64_t max_mn, max_nw, max_w; /* scratch sizing, see native.py */
} plan_t;

enum { LLT = 0, LDLT = 1, LU = 2 };
enum { GEMM, TRSM, POTRF, SYTRF, GETRF, GEMV, TRSV, N_FN };

/* Panels at most this wide factor their diagonal block and solve their
 * TRSM(s) in plain loops, with no BLAS or LAPACK call; couples of at most
 * TINY multiply-adds per side ((b - a) n w) are one fused product and
 * scatter.  Both from a sweep on a 2-core x86-64 host
 * (docs/performance.md, "Small factorizations"). */
#define NARROW 16
#define TINY 2048

/* Both bounds, for the tests (kernels/native.py: kernel_bounds). */
const int64_t repro_kernel_bounds[2] = {NARROW, TINY};

/* The phases the counters time, each as (nanoseconds, calls). */
enum { PH_GEMM, PH_SCATTER, PH_FUSED, PH_SCALE, PH_DIAG, PH_TRSM, N_PHASES };

/* LAPACK workspace of ?sytrf, in elements per column of the block. */
#define SYTRF_NB 64

/* Entry points taken from scipy.linalg.cython_blas / cython_lapack:
 * [0, N_FN) for double, [N_FN, 2 N_FN) for double complex. */
static void *blas[2 * N_FN];

void repro_init(void **pointers) { memcpy(blas, pointers, sizeof blas); }

int64_t repro_work_len(const plan_t *p)
{
    return p->max_mn + p->max_nw + p->max_w * p->max_w + SYTRF_NB * p->max_w + 1;
}

/* The first i in [0, n) with rl[i] >= row, rl ascending (n if none). */
static int64_t first_at_least(const int64_t *rl, int64_t n, int64_t row)
{
    int64_t lo = 0, hi = n;
    while (lo < hi) {
        int64_t mid = lo + (hi - lo) / 2;
        if (rl[mid] < row)
            lo = mid + 1;
        else
            hi = mid;
    }
    return lo;
}

static int64_t now_ns(void)
{
    struct timespec ts;
    clock_gettime(CLOCK_MONOTONIC, &ts);
    return (int64_t)ts.tv_sec * 1000000000LL + ts.tv_nsec;
}

/* A phase's start (0 when not counted), and its end: add the time since
 * t0 and one call to its counters. */
static inline int64_t tick(const int64_t *counters)
{
    return counters ? now_ns() : 0;
}

static inline void tock(int64_t *counters, int phase, int64_t t0)
{
    if (counters) {
        counters[2 * phase] += now_ns() - t0;
        counters[2 * phase + 1]++;
    }
}

/* x . y without C99 Annex G: gcc's inline complex product calls libgcc
 * on a NaN result, and that check costs more than the product. */
static inline double complex cmul(double complex x, double complex y)
{
    double a = creal(x), b = cimag(x), c = creal(y), e = cimag(y);
    return CMPLX(a * c - b * e, a * e + b * c);
}

#define REPRO_BODY

#define T double
#define S(name) name##_d
#define BASE 0
#define MODULUS(x) fabs(x)
#define MUL(x, y) ((x) * (y))
#define HAVE_POTRF 1
#include "native.c"
#undef T
#undef S
#undef BASE
#undef MODULUS
#undef MUL
#undef HAVE_POTRF

#define T double complex
#define S(name) name##_z
#define BASE N_FN
#define MODULUS(x) cabs(x)
#define MUL(x, y) cmul(x, y)
#define HAVE_POTRF 0 /* complex LL^T is rejected in Python (TypeError) */
#include "native.c"

/* ---------------------------------------------------------------- */
/* The DAG executor                                                  */
/* ---------------------------------------------------------------- */

/* A validated task DAG (see native.py: DagTasks). */
typedef struct {
    int64_t n_tasks;
    const int64_t *succ_ptr, *succ_list; /* CSR successors */
    const int64_t *n_deps;               /* in-degree of every task */
    const int64_t *task;                 /* n_tasks x 4: lo, hi, kind, panel */
} dag_t;

enum { FORWARD = 0, BACKWARD = 1, PANELS = 2, BLOCK = 3 };

/* The arguments of solve_panels_{d,z} every solve task shares; a task
 * adds its panel range, its sweep and its worker's gather buffer. */
typedef struct {
    const plan_t *plan;
    int64_t ft, nrhs, complex_, gather_len; /* gather_len: per worker */
    void *L, *U, *D, *x, *slab, *gather;
    const int64_t *panels;
} solve_t;

/* Called, with the GIL taken, when C hands a diagonal block back: Python
 * factors it and finishes the task, kind PANELS from panels[lo + at] on,
 * kind BLOCK (at 0) on panel `panel`.  Returns nonzero when it raised. */
typedef int (*handback_t)(int64_t kind, int64_t lo, int64_t hi,
                          int64_t panel, int64_t at, int64_t worker);

/* The arguments of factorize_{panels,block}_{d,z} every factorization
 * task shares; a task adds its panels or its block, and its worker's
 * scratch. */
typedef struct {
    const plan_t *plan;
    int64_t ft, complex_;
    void *L, *U, *D;
    const int64_t *panels, *block_ptr, *block_rows;
    double threshold;
    void *const *work;        /* per worker */
    int *const *ipiv;         /* per worker */
    int64_t *const *counters; /* per worker, each NULL or 2 N_PHASES */
    handback_t handback;
} facto_t;

/* Rows of (task, worker, t0, t1), times in ns since the call began.
 * rows == NULL: not recorded.  n counts past cap on overflow. */
typedef struct {
    int64_t *rows;
    int64_t cap, n;
} log_t;

typedef struct {
    log_t task, publish, park, wake, fault;
} trace_t;

/* A parked worker re-checks the ready set at least this often, so a
 * lost wakeup costs a short delay, never a hang. */
#define PARK_NS 20000000LL

typedef struct exec exec_t;

typedef struct {
    exec_t *e;
    int w;
} worker_arg_t;

struct exec {
    const dag_t *dag;
    const solve_t *solve;
    const facto_t *facto;
    trace_t *trace; /* NULL: no clock is read for the trace */
    pthread_mutex_t mu;
    pthread_cond_t cv;
    int64_t *deps_left, *ready, *owner;
    int64_t n_ready, n_done, n_parked, start;
    int overflow, failed; /* failed: a hand-back raised, pop no more */
    /* Workers 1 .. n_started - 1 run in threads[]; n_workers caps them. */
    pthread_t *threads;
    worker_arg_t *args;
    int64_t n_workers, n_started;
    int cpus[CPU_SETSIZE], n_cpus;
};

static int64_t since(const exec_t *e) { return now_ns() - e->start; }

/* Append a row (mutex held). */
static void log_row(exec_t *e, log_t *log, int64_t task, int64_t worker,
                    int64_t t0, int64_t t1)
{
    if (!log->rows)
        return;
    if (log->n >= log->cap) {
        e->overflow = 1;
    } else {
        int64_t *r = log->rows + 4 * log->n;
        r[0] = task, r[1] = worker, r[2] = t0, r[3] = t1;
    }
    log->n++;
}

/* The ready set: work stealing's order over one array, oldest first:
 * each task is tagged with the worker that released it (the sources with
 * worker 0), and a worker pops the newest task it released, else steals
 * the oldest.  One worker pops LIFO. */
static void push(exec_t *e, int64_t t, int64_t w)
{
    int64_t i = e->n_ready++;
    e->ready[i] = t, e->owner[i] = w;
}

static int64_t pop(exec_t *e, int64_t w)
{
    int64_t n = --e->n_ready;
    int64_t i = n; /* the newest of w's, else 0: the oldest */
    while (i > 0 && e->owner[i] != w)
        i--;
    int64_t t = e->ready[i];
    size_t tail = (size_t)(n - i) * sizeof(int64_t);
    memmove(e->ready + i, e->ready + i + 1, tail);
    memmove(e->owner + i, e->owner + i + 1, tail);
    return t;
}

static void run_solve(const solve_t *b, int64_t lo, int64_t hi, int backward,
                      int worker)
{
    if (b->complex_)
        repro_solve_panels_z(b->plan, (int)b->ft, b->L, b->U, b->D, b->x,
                             b->nrhs, b->slab, b->panels + lo, hi - lo,
                             backward,
                             (double complex *)b->gather
                                 + worker * b->gather_len);
    else
        repro_solve_panels_d(b->plan, (int)b->ft, b->L, b->U, b->D, b->x,
                             b->nrhs, b->slab, b->panels + lo, hi - lo,
                             backward,
                             (double *)b->gather + worker * b->gather_len);
}

/* Task t on worker w.  Returns nonzero when its hand-back raised. */
static int run_task(const exec_t *e, int64_t t, int w)
{
    const int64_t *task = e->dag->task + 4 * t;
    int64_t lo = task[0], hi = task[1], kind = task[2], panel = task[3];
    if (kind == FORWARD || kind == BACKWARD) {
        run_solve(e->solve, lo, hi, kind == BACKWARD, w);
        return 0;
    }
    const facto_t *f = e->facto;
    int ft = (int)f->ft;
    void *scratch = f->work[w];
    int64_t *cnt = f->counters[w];
    int64_t at; /* where C handed a block back; hi - lo: nowhere */
    if (kind == PANELS && f->complex_)
        at = repro_factorize_panels_z(f->plan, ft, f->L, f->U, f->D,
                                      f->panels + lo, hi - lo, 0, f->block_ptr,
                                      f->block_rows, f->threshold, scratch,
                                      f->ipiv[w], cnt);
    else if (kind == PANELS)
        at = repro_factorize_panels_d(f->plan, ft, f->L, f->U, f->D,
                                      f->panels + lo, hi - lo, 0, f->block_ptr,
                                      f->block_rows, f->threshold, scratch,
                                      f->ipiv[w], cnt);
    else if (f->complex_)
        at = repro_factorize_block_z(f->plan, ft, f->L, f->U, f->D, panel, lo,
                                     hi, f->threshold, scratch, f->ipiv[w],
                                     cnt)
                 ? hi - lo
                 : 0;
    else
        at = repro_factorize_block_d(f->plan, ft, f->L, f->U, f->D, panel, lo,
                                     hi, f->threshold, scratch, f->ipiv[w],
                                     cnt)
                 ? hi - lo
                 : 0;
    if (at == hi - lo)
        return 0;
    return f->handback(kind, lo, hi, panel, at, w);
}

static void work(exec_t *e, int w);

static void *worker_main(void *arg)
{
    worker_arg_t *a = arg;
    work(a->e, a->w);
    return NULL;
}

/* Start the next worker (mutex held), bound to CPU
 * cpus[w % n_cpus] (n_cpus < 2: left to the kernel), as PaStiX, StarPU
 * and PaRSEC bind their workers.  Left alone, a fresh thread shares its
 * parent's CPU for a while, which serializes a short solve.  A worker
 * starts only when a ready task waits for it: one that could only park
 * would cost its start and, at the end, its wakeup to exit, which waits
 * for its CPU when another process holds that.  If the thread cannot
 * start, the run goes on with the workers there are. */
static void start_worker(exec_t *e)
{
    int64_t w = e->n_started;
    worker_arg_t *a = &e->args[w];
    *a = (worker_arg_t){e, (int)w};
    pthread_attr_t attr;
    pthread_attr_init(&attr);
#ifdef __linux__
    if (e->n_cpus > 1) {
        cpu_set_t one;
        CPU_ZERO(&one);
        CPU_SET(e->cpus[w % e->n_cpus], &one);
        pthread_attr_setaffinity_np(&attr, sizeof one, &one);
    }
#endif
    if (pthread_create(&e->threads[w], &attr, worker_main, a) == 0)
        e->n_started++;
    else
        e->n_workers = w; /* start no more */
    pthread_attr_destroy(&attr);
}

/* The CPUs this process may run on, starting with the caller's (worker
 * 0's), so that the other workers land on the others first. */
static int worker_cpus(int *cpus)
{
    int n = 0;
#ifdef __linux__
    cpu_set_t allowed;
    int here = sched_getcpu();
    if (sched_getaffinity(0, sizeof allowed, &allowed) != 0)
        return 0;
    if (here >= 0 && CPU_ISSET(here, &allowed))
        cpus[n++] = here;
    for (int c = 0; c < CPU_SETSIZE; c++)
        if (CPU_ISSET(c, &allowed) && c != here)
            cpus[n++] = c;
#else
    (void)cpus;
#endif
    return n;
}

/* The worker loop: pop, run, publish.  The mutex orders memory: a task's
 * writes precede the unlock that publishes it, and every successor is
 * popped under a later lock of the same mutex.  A failed task publishes
 * nothing: the loop ends once the tasks in flight are done. */
static void work(exec_t *e, int w)
{
    const dag_t *d = e->dag;
    trace_t *tr = e->trace;
    pthread_mutex_lock(&e->mu);
    for (;;) {
        if (e->n_ready == 0 && e->n_done < d->n_tasks && !e->failed) {
            int64_t t0 = tr ? since(e) : 0;
            e->n_parked++;
            while (e->n_ready == 0 && e->n_done < d->n_tasks && !e->failed) {
                int64_t deadline = now_ns() + PARK_NS;
                struct timespec ts = {deadline / 1000000000LL,
                                      deadline % 1000000000LL};
                pthread_cond_timedwait(&e->cv, &e->mu, &ts);
            }
            e->n_parked--;
            if (tr && tr->park.rows)
                log_row(e, &tr->park, -1, w, t0, since(e));
        }
        if (e->n_done >= d->n_tasks || e->failed)
            break;
        int64_t t = pop(e, w);
        if (e->n_ready > e->n_parked && e->n_started < e->n_workers)
            start_worker(e);
        pthread_mutex_unlock(&e->mu);

        int64_t t0 = tr ? since(e) : 0;
        int failed = run_task(e, t, w);
        int64_t t1 = tr ? since(e) : 0;

        pthread_mutex_lock(&e->mu);
        if (failed) {
            e->failed = 1;
            if (tr)
                log_row(e, &tr->fault, t, w, t0, t1);
            pthread_cond_broadcast(&e->cv);
            continue;
        }
        if (tr)
            log_row(e, &tr->task, t, w, t0, t1);
        int64_t released = 0;
        for (int64_t i = d->succ_ptr[t]; i < d->succ_ptr[t + 1]; i++) {
            int64_t s = d->succ_list[i];
            if (--e->deps_left[s] == 0) {
                push(e, s, w);
                released++;
            }
        }
        e->n_done++;
        if (tr && tr->publish.rows) {
            int64_t now = since(e);
            log_row(e, &tr->publish, t, w, now, now);
        }
        if (e->n_done == d->n_tasks) {
            pthread_cond_broadcast(&e->cv);
            continue;
        }
        /* This worker runs one released task itself; each further one
         * wakes a parked worker, if there is one. */
        for (int64_t i = 1; i < released && i <= e->n_parked; i++) {
            pthread_cond_signal(&e->cv);
            if (tr && tr->wake.rows) {
                int64_t now = since(e);
                log_row(e, &tr->wake, -1, w, now, now);
            }
        }
    }
    pthread_mutex_unlock(&e->mu);
}

/* Run every task of d: solve tasks on `solve`, factorization tasks on
 * `facto`.  Returns 0, -1 when out of memory (nothing ran), -2 when a
 * trace log overflowed (every task ran; the rows past cap are counted,
 * not written) or -3 when a hand-back raised (no task started after it). */
int64_t repro_run_dag(const dag_t *d, const solve_t *solve,
                      const facto_t *facto, int64_t n_workers, trace_t *trace)
{
    exec_t e = {.dag = d, .solve = solve, .facto = facto, .trace = trace,
                .n_workers = n_workers, .n_started = 1};
    if (d->n_tasks == 0)
        return 0;
    e.deps_left = malloc((size_t)d->n_tasks * sizeof(int64_t));
    e.ready = malloc((size_t)d->n_tasks * sizeof(int64_t));
    e.owner = malloc((size_t)d->n_tasks * sizeof(int64_t));
    e.threads = malloc((size_t)n_workers * sizeof(pthread_t));
    e.args = malloc((size_t)n_workers * sizeof(worker_arg_t));
    if (!e.deps_left || !e.ready || !e.owner || !e.threads || !e.args) {
        free(e.deps_left), free(e.ready), free(e.owner), free(e.threads),
            free(e.args);
        return -1;
    }
    pthread_condattr_t attr;
    pthread_condattr_init(&attr);
    pthread_condattr_setclock(&attr, CLOCK_MONOTONIC);
    pthread_cond_init(&e.cv, &attr);
    pthread_condattr_destroy(&attr);
    pthread_mutex_init(&e.mu, NULL);
    if (trace)
        e.start = now_ns();
    memcpy(e.deps_left, d->n_deps, (size_t)d->n_tasks * sizeof(int64_t));
    for (int64_t t = 0; t < d->n_tasks; t++)
        if (d->n_deps[t] == 0)
            push(&e, t, 0);

    e.n_cpus = n_workers > 1 ? worker_cpus(e.cpus) : 0;
    work(&e, 0); /* worker 0 is this thread */
    /* No worker starts once work() has returned: starts happen under the
     * mutex, with a pop, and nothing is popped after the last task or a
     * failure. */
    for (int64_t w = 1; w < e.n_started; w++)
        pthread_join(e.threads[w], NULL);

    pthread_cond_destroy(&e.cv);
    pthread_mutex_destroy(&e.mu);
    free(e.deps_left), free(e.ready), free(e.owner), free(e.threads),
        free(e.args);
    return e.failed ? -3 : e.overflow ? -2 : 0;
}

/* ---------------------------------------------------------------- */
/* Sparse matrix times dense block                                   */
/* ---------------------------------------------------------------- */

/* out (n_rows x k, row-major, zeroed) += A x, x n_cols x k row-major:
 * column by column, entry by entry in stored order — the order
 * np.add.at adds in, so every output element gets the same sums.  One
 * column (k = 1) runs without an inner loop, a block two columns per
 * step: the same products and sums, without a loop's overhead around
 * each entry. */
void repro_csc_matvec_d(int64_t n_cols, const int64_t *colptr,
                        const int64_t *rowind, const double *val,
                        const double *x, int64_t k, double *out)
{
    if (k == 1) {
        for (int64_t j = 0; j < n_cols; j++)
            for (int64_t e = colptr[j]; e < colptr[j + 1]; e++)
                out[rowind[e]] += val[e] * x[j];
        return;
    }
    for (int64_t j = 0; j < n_cols; j++)
        for (int64_t e = colptr[j]; e < colptr[j + 1]; e++) {
            double v = val[e], *o = out + rowind[e] * k;
            const double *xj = x + j * k;
            int64_t r = 0;
            for (; r + 2 <= k; r += 2) {
                double a = v * xj[r], b = v * xj[r + 1];
                o[r] += a;
                o[r + 1] += b;
            }
            if (r < k)
                o[r] += v * xj[r];
        }
}

/* The same on interleaved (re, im) pairs.  The product is NumPy's v * x:
 * fused != 0 rounds re = vr xr - vi xi and im = vr xi + vi xr once each
 * (fma, as NumPy's FMA loops do), else each product separately.  On
 * x86-64 a second clone is compiled for FMA hardware, picked at load
 * time, so that fma() is an instruction there rather than a libm call;
 * the rounding is the same either way. */
#if defined(__x86_64__) && defined(__GNUC__)
__attribute__((target_clones("fma", "default")))
#endif
void repro_csc_matvec_z(int64_t n_cols, const int64_t *colptr,
                        const int64_t *rowind, const double *val,
                        const double *x, int64_t k, double *out, int fused)
{
    for (int64_t j = 0; j < n_cols; j++)
        for (int64_t e = colptr[j]; e < colptr[j + 1]; e++) {
            double vr = val[2 * e], vi = val[2 * e + 1];
            double *o = out + 2 * rowind[e] * k;
            const double *xj = x + 2 * j * k;
            for (int64_t r = 0; r < k; r++) {
                double xr = xj[2 * r], xi = xj[2 * r + 1];
                if (fused) {
                    o[2 * r] += fma(vr, xr, -(vi * xi));
                    o[2 * r + 1] += fma(vr, xi, vi * xr);
                } else {
                    o[2 * r] += vr * xr - vi * xi;
                    o[2 * r + 1] += vr * xi + vi * xr;
                }
            }
        }
}

#else /* REPRO_BODY: one scalar type T */

typedef void (*S(gemm_t))(char *, char *, int *, int *, int *, T *, T *, int *,
                          T *, int *, T *, T *, int *);
typedef void (*S(trsm_t))(char *, char *, char *, char *, int *, int *, T *,
                          T *, int *, T *, int *);
typedef void (*S(potrf_t))(char *, int *, T *, int *, int *);
typedef void (*S(sytrf_t))(char *, int *, T *, int *, int *, T *, int *, int *);
typedef void (*S(getrf_t))(int *, int *, T *, int *, int *, int *);
typedef void (*S(gemv_t))(char *, int *, int *, T *, T *, int *, T *, int *,
                          T *, T *, int *);
typedef void (*S(trsv_t))(char *, char *, char *, int *, T *, int *, T *,
                          int *);

/* out (rows x n, row-major) = a (rows x w) . b (n x w)^T */
static void S(product)(T *a, T *b, int rows, int n, int w, T *out)
{
    T one = 1, zero = 0;
    ((S(gemm_t))blas[BASE + GEMM])("T", "N", &n, &rows, &w, &one, b, &w, a, &w,
                                   &zero, out, &n);
}

/* panel[rl[i], rl[j]] -= out[i, j]; the column map is the head of the
 * couple's row map (the facing rows land in the diagonal block). */
static void S(scatter)(T *panel, int64_t wt, const int64_t *rl_rows,
                       const int64_t *rl_cols, int64_t rows, int64_t n,
                       const T *out)
{
    for (int64_t i = 0; i < rows; i++) {
        T *dst = panel + rl_rows[i] * wt;
        const T *val = out + i * n;
        for (int64_t j = 0; j < n; j++)
            dst[rl_cols[j]] -= val[j];
    }
}

/* The product and scatter above as one loop, for a tiny couple: each
 * entry of a (rows x w) . b (n x w)^T, the rows of a scaled by d first
 * when d != NULL (L.D.L^T; scaled: room for w), is summed in a register
 * and subtracted straight from panel[rl[i], rl[j]]. */
static void S(fused)(T *panel, int64_t wt, const int64_t *rl_rows,
                     const int64_t *rl_cols, int64_t rows, int64_t n,
                     int64_t w, const T *a, const T *b, const T *d, T *scaled)
{
    for (int64_t i = 0; i < rows; i++) {
        const T *row = a + i * w;
        if (d) {
            for (int64_t q = 0; q < w; q++)
                scaled[q] = MUL(row[q], d[q]);
            row = scaled;
        }
        T *dst = panel + rl_rows[i] * wt;
        int64_t j = 0;
        for (; j + 4 <= n; j += 4) { /* four independent sums */
            const T *c0 = b + j * w, *c1 = c0 + w, *c2 = c1 + w, *c3 = c2 + w;
            T s0 = 0, s1 = 0, s2 = 0, s3 = 0;
            for (int64_t q = 0; q < w; q++) {
                s0 += MUL(row[q], c0[q]);
                s1 += MUL(row[q], c1[q]);
                s2 += MUL(row[q], c2[q]);
                s3 += MUL(row[q], c3[q]);
            }
            dst[rl_cols[j]] -= s0;
            dst[rl_cols[j + 1]] -= s1;
            dst[rl_cols[j + 2]] -= s2;
            dst[rl_cols[j + 3]] -= s3;
        }
        for (; j < n; j++) {
            const T *col = b + j * w;
            T acc = 0;
            for (int64_t q = 0; q < w; q++)
                acc += MUL(row[q], col[q]);
            dst[rl_cols[j]] -= acc;
        }
    }
}

/* Every update landing in rows [r0, r1) of panel t, ascending source.
 * A couple's tail rows that land there are one slice [a, b) of its
 * rows_local (ascending): only their product with the facing rows is
 * formed and scattered, on the L side and (LU) the U side — through GEMM
 * and scratch, or fused for a tiny couple. */
static void S(update)(const plan_t *p, int ft, T *L, T *U, const T *D,
                      int64_t t, int64_t r0, int64_t r1, T *work,
                      int64_t *cnt)
{
    T *out = work, *scaled = work + p->max_mn;
    int64_t wt = p->width[t];
    for (int64_t c = p->tgt_ptr[t]; c < p->tgt_ptr[t + 1]; c++) {
        int64_t k = p->src[c], w = p->width[k];
        int64_t i0 = p->i0[c], n = p->i1[c] - i0;
        int64_t m = p->height[k] - w - i0;
        const int64_t *rl = p->rows_local + p->rl_ptr[c];
        int64_t a = first_at_least(rl, m, r0), b = first_at_least(rl, m, r1);
        if (a == b)
            continue;
        T *tail = L + p->offset[k] + (w + i0) * w; /* m x w; first n rows face t */
        T *rows = tail + a * w, *facing = tail;
        T *utail = U ? U + p->offset[k] + (w + i0) * w : NULL;
        int64_t u = a > n ? a : n; /* U side: rows strictly below t's block */
        int64_t t0 = tick(cnt);
        if ((b - a) * n * w <= TINY) {
            S(fused)(L + p->offset[t], wt, rl + a, rl, b - a, n, w, rows,
                     ft == LU ? utail : facing,
                     ft == LDLT ? D + p->d_off[k] : NULL, scaled);
            if (ft == LU && b > u)
                S(fused)(U + p->offset[t], wt, rl + u, rl, b - u, n, w,
                         utail + u * w, tail, NULL, scaled);
            tock(cnt, PH_FUSED, t0);
            continue;
        }
        if (ft == LDLT) { /* L.D.L^T: scale the shorter operand by D */
            const T *d = D + p->d_off[k];
            T **side = b - a < n ? &rows : &facing;
            const T *from = *side;
            for (int64_t j = 0; j < (b - a < n ? b - a : n); j++)
                for (int64_t q = 0; q < w; q++)
                    scaled[j * w + q] = MUL(from[j * w + q], d[q]);
            *side = scaled;
            tock(cnt, PH_SCALE, t0);
        } else if (ft == LU) {
            facing = utail;
        }
        t0 = tick(cnt);
        S(product)(rows, facing, (int)(b - a), (int)n, (int)w, out);
        tock(cnt, PH_GEMM, t0);
        t0 = tick(cnt);
        S(scatter)(L + p->offset[t], wt, rl + a, rl, b - a, n, out);
        tock(cnt, PH_SCATTER, t0);
        if (ft == LU && b > u) {
            t0 = tick(cnt);
            S(product)(utail + u * w, tail, (int)(b - u), (int)n, (int)w, out);
            tock(cnt, PH_GEMM, t0);
            t0 = tick(cnt);
            S(scatter)(U + p->offset[t], wt, rl + u, rl, b - u, n, out);
            tock(cnt, PH_SCATTER, t0);
        }
    }
}

/* x (rows x w, row-major) = x . A^-1 for the row-major w x w upper
 * triangle A of tri (row j's entries right of the diagonal: the
 * multipliers of y[j]), one row at a time, in one pass: y[j] = x[j] .
 * inv[j] (inv NULL: a unit diagonal), then x[q] -= y[j] A[j, q] for every
 * q > j — an axpy per column, not a dot product, so no sum waits on the
 * one before.  With d_inv (L.D.L^T) each row leaves scaled by it. */
static void S(solve_rows)(const T *tri, int64_t w, const T *inv,
                          const T *d_inv, T *x, int64_t rows)
{
    for (int64_t r = 0; r < rows; r++) {
        T *xr = x + r * w;
        for (int64_t j = 0; j < w; j++) {
            T y = inv ? MUL(xr[j], inv[j]) : xr[j];
            const T *aj = tri + j * w;
            xr[j] = y;
            for (int64_t q = j + 1; q < w; q++)
                xr[q] -= MUL(y, aj[q]);
        }
        if (d_inv)
            for (int64_t j = 0; j < w; j++)
                xr[j] = MUL(xr[j], d_inv[j]);
    }
}

/* The panel TRSM(s) of rows [r0, r1) of panel k, below its factored
 * diagonal block.  A narrow panel solves them in solve_rows, a wider one
 * with BLAS; both use the factor's scratch past its update buffers. */
static void S(trsm_rows)(const plan_t *p, int ft, T *L, T *U, const T *D,
                         int64_t k, int64_t r0, int64_t r1, T *work,
                         int64_t *cnt)
{
    int64_t w = p->width[k], rows = r1 - r0;
    T *blk = L + p->offset[k], *x = blk + r0 * w;
    T *tri = work + p->max_mn + p->max_nw; /* w x w */
    T *inv = tri + p->max_w * p->max_w;    /* w */
    int iw = (int)w, ib = (int)rows;
    T one = 1;
    S(trsm_t) trsm = (S(trsm_t))blas[BASE + TRSM];
    if (rows <= 0)
        return;
    int64_t t0 = tick(cnt);
    if (ft == LDLT) { /* D^-1 */
        const T *d = D + p->d_off[k];
        for (int64_t q = 0; q < w; q++)
            inv[q] = 1 / d[q];
    } else if (w <= NARROW) { /* the diagonal of L11 (LL^T) or U11 (LU) */
        for (int64_t q = 0; q < w; q++)
            inv[q] = 1 / blk[q * w + q];
    }
    if (w <= NARROW && ft != LU) {
        /* L21 = A21 . L11^-T (L.D.L^T: unit, then . D^-1) */
        for (int64_t j = 0; j < w; j++)
            for (int64_t q = j + 1; q < w; q++)
                tri[j * w + q] = blk[q * w + j];
        S(solve_rows)(tri, w, ft == LLT ? inv : NULL,
                      ft == LDLT ? inv : NULL, x, rows);
    } else if (w <= NARROW) {
        /* L21 = A21 . U11^-1; U12^T = A12^T . L11^-T (unit lower) */
        S(solve_rows)(blk, w, inv, NULL, x, rows);
        for (int64_t j = 0; j < w; j++)
            for (int64_t q = j + 1; q < w; q++)
                tri[j * w + q] = blk[q * w + j];
        S(solve_rows)(tri, w, NULL, NULL, U + p->offset[k] + r0 * w, rows);
    } else if (ft == LLT) { /* L21 = A21 . L11^-T */
        trsm("L", "U", "T", "N", &iw, &ib, &one, blk, &iw, x, &iw);
    } else if (ft == LDLT) { /* L21 = A21 . L11^-T . D^-1 */
        trsm("L", "U", "T", "U", &iw, &ib, &one, blk, &iw, x, &iw);
        for (int64_t r = 0; r < rows; r++)
            for (int64_t q = 0; q < w; q++)
                x[r * w + q] = MUL(x[r * w + q], inv[q]);
    } else {
        /* L21 = A21 . U11^-1; U12^T = A12^T . L11^-T (unit lower) */
        trsm("L", "L", "N", "N", &iw, &ib, &one, blk, &iw, x, &iw);
        trsm("L", "U", "T", "U", &iw, &ib, &one, blk, &iw,
             U + p->offset[k] + r0 * w, &iw);
    }
    tock(cnt, PH_TRSM, t0);
}

/* Would the Python column loop keep this pivot as it is?  Not when it is
 * zero, under the threshold, Inf or NaN: it perturbs or raises. */
static int S(pivot_ok)(T pivot, double threshold)
{
    double size = MODULUS(pivot);
    return size > 0 && size >= threshold && size < INFINITY;
}

/* Did LAPACK do what static pivoting does?  (PR 15's _static_pivots_ok.) */
static int S(pivots_ok)(const T *s, int64_t w, const int *ipiv, int info,
                        double threshold)
{
    if (info != 0)
        return 0;
    for (int64_t i = 0; i < w; i++)
        if (ipiv[i] != i + 1 || !S(pivot_ok)(s[i + i * w], threshold))
            return 0; /* interchange, 2x2 block, tiny, Inf or NaN pivot */
    return 1;
}

/* The w x w row-major block s, eliminated in place right-looking without
 * pivoting: kernels/dense.py's column loops of ldlt_nopiv (the diagonal
 * of D on the diagonal, unit L below it) and getrf_nopiv (packed L\U),
 * and Cholesky (L on and below the diagonal).  LL^T and LDL^T read and
 * write the lower triangle only.  Returns 0 at the first pivot that loop
 * would perturb or reject (LL^T: one that is not positive and finite). */
static int S(eliminate)(T *s, int64_t w, int ft, double threshold)
{
    for (int64_t j = 0; j < w; j++) {
        T *sj = s + j * w;
        T piv = sj[j];
        if (ft == LLT) {
#if HAVE_POTRF
            if (!(piv > 0 && piv < INFINITY))
                return 0;
            sj[j] = piv = sqrt(piv);
#else
            return 0;
#endif
        } else if (!S(pivot_ok)(piv, threshold)) {
            return 0;
        }
        for (int64_t i = j + 1; i < w; i++)
            s[i * w + j] /= piv;
        for (int64_t i = j + 1; i < w; i++) {
            T *si = s + i * w;
            if (ft == LU) {
                for (int64_t q = j + 1; q < w; q++)
                    si[q] -= MUL(si[j], sj[q]);
                continue;
            }
            T lij = ft == LDLT ? MUL(si[j], piv) : si[j];
            for (int64_t q = j + 1; q <= i; q++)
                si[q] -= MUL(lij, s[q * w + j]);
        }
    }
    return 1;
}

/* Factor the diagonal block of panel k, and with whole != 0 solve its
 * TRSM(s) as well.  Returns 0 to hand the panel back to Python, untouched. */
static int S(factor)(const plan_t *p, int ft, T *L, T *U, T *D, int64_t k,
                     double threshold, T *work, int *ipiv, int whole,
                     int64_t *cnt)
{
    int64_t w = p->width[k];
    T *blk = L + p->offset[k];
    T *s = work + p->max_mn + p->max_nw; /* w x w */
    T *lapack_work = s + p->max_w * p->max_w;
    int iw = (int)w, info = 0;
    int lwork = (int)(SYTRF_NB * p->max_w + 1);
    int64_t t0 = tick(cnt);

    if (ft == LLT && !HAVE_POTRF)
        return 0;
    if (w <= NARROW) {
        memcpy(s, blk, (size_t)(w * w) * sizeof(T));
        if (!S(eliminate)(s, w, ft, threshold))
            return 0;
        if (ft == LDLT) {
            T *d = D + p->d_off[k];
            for (int64_t i = 0; i < w; i++) {
                d[i] = s[i * w + i];
                for (int64_t j = 0; j < w; j++)
                    blk[i * w + j] = j < i ? s[i * w + j] : (j == i ? 1 : 0);
            }
        } else if (ft == LLT) {
            for (int64_t i = 0; i < w; i++)
                for (int64_t j = 0; j < w; j++)
                    blk[i * w + j] = j <= i ? s[i * w + j] : 0;
        } else {
            memcpy(blk, s, (size_t)(w * w) * sizeof(T));
        }
    } else if (ft == LLT) {
        /* Only the row-major lower triangle is valid: that is the
         * column-major upper one, and U^T U with U stored there is the
         * row-major lower Cholesky factor. */
        memcpy(s, blk, (size_t)(w * w) * sizeof(T));
        ((S(potrf_t))blas[BASE + POTRF])("U", &iw, s, &iw, &info);
        if (info != 0)
            return 0;
        for (int64_t i = 0; i < w; i++)
            if (!(MODULUS(s[i + i * w]) < INFINITY))
                return 0; /* a NaN/Inf anywhere reaches a pivot */
        for (int64_t i = 0; i < w; i++)
            for (int64_t j = 0; j < w; j++)
                blk[i * w + j] = j <= i ? s[i * w + j] : 0;
    } else {
        /* ?sytrf('U') on the row-major block would eliminate backwards
         * and ?getrf of it would factor the transpose, so lay the block
         * out column-major (sytrf reads the lower triangle only). */
        for (int64_t i = 0; i < w; i++)
            for (int64_t j = 0; j < w; j++)
                s[i + j * w] = blk[i * w + j];
        if (ft == LDLT)
            ((S(sytrf_t))blas[BASE + SYTRF])("L", &iw, s, &iw, ipiv,
                                             lapack_work, &lwork, &info);
        else
            ((S(getrf_t))blas[BASE + GETRF])(&iw, &iw, s, &iw, ipiv, &info);
        if (!S(pivots_ok)(s, w, ipiv, info, threshold))
            return 0;
        if (ft == LDLT) {
            T *d = D + p->d_off[k];
            for (int64_t i = 0; i < w; i++) {
                d[i] = s[i + i * w];
                for (int64_t j = 0; j < w; j++)
                    blk[i * w + j] = j < i ? s[i + j * w] : (j == i ? 1 : 0);
            }
        } else {
            for (int64_t i = 0; i < w; i++) /* packed L\U, row-major */
                for (int64_t j = 0; j < w; j++)
                    blk[i * w + j] = s[i + j * w];
        }
    }
    tock(cnt, PH_DIAG, t0);
    if (whole)
        S(trsm_rows)(p, ft, L, U, D, k, w, p->height[k], work, cnt);
    return 1;
}

/* One task of split panel k: rows [0, width) are its diagonal task (the
 * updates into the diagonal block, then its factorization only; returns 0
 * to hand the block back to Python, updates applied, block untouched),
 * any range [r0, r1) below them a row block (its updates, then its
 * TRSM(s); returns 1). */
int64_t S(repro_factorize_block)(const plan_t *p, int ft, T *L, T *U, T *D,
                                 int64_t k, int64_t r0, int64_t r1,
                                 double threshold, T *work, int *ipiv,
                                 int64_t *cnt)
{
    S(update)(p, ft, L, U, D, k, r0, r1, work, cnt);
    if (r0 == 0)
        return S(factor)(p, ft, L, U, D, k, threshold, work, ipiv, 0, cnt);
    S(trsm_rows)(p, ft, L, U, D, k, r0, r1, work, cnt);
    return 1;
}

/* Factorize panels[start..n).  A panel with row blocks (block_ptr[k] <
 * block_ptr[k + 1]: the boundaries block_rows[block_ptr[k]..block_ptr[k +
 * 1]], from its width to its height) runs its diagonal task, then each
 * row block; any other panel runs whole.  block_ptr == NULL: no panel is
 * split.  Returns n, or the position of a panel whose diagonal block is
 * handed back to Python (updates applied, block untouched): the caller
 * factors it, runs a split panel's row blocks, and re-enters at that
 * position + 1. */
int64_t S(repro_factorize_panels)(const plan_t *p, int ft, T *L, T *U, T *D,
                                  const int64_t *panels, int64_t n,
                                  int64_t start, const int64_t *block_ptr,
                                  const int64_t *block_rows, double threshold,
                                  T *work, int *ipiv, int64_t *cnt)
{
    for (int64_t i = start; i < n; i++) {
        int64_t k = panels[i];
        int64_t lo = block_ptr ? block_ptr[k] : 0;
        int64_t hi = block_ptr ? block_ptr[k + 1] : 0;
        if (lo == hi) {
            S(update)(p, ft, L, U, D, k, 0, p->height[k], work, cnt);
            if (!S(factor)(p, ft, L, U, D, k, threshold, work, ipiv, 1, cnt))
                return i;
            continue;
        }
        if (!S(repro_factorize_block)(p, ft, L, U, D, k, 0, p->width[k],
                                      threshold, work, ipiv, cnt))
            return i;
        for (int64_t j = lo; j + 1 < hi; j++)
            S(repro_factorize_block)(p, ft, L, U, D, k, block_rows[j],
                                     block_rows[j + 1], threshold, work, ipiv,
                                     cnt);
    }
    return n;
}

/* x holds n x nrhs row-major, so a segment of w rows is the column-major
 * nrhs x w matrix X^T (leading dimension nrhs): a left solve op(A) X = B
 * is the right solve X^T op(A)^T = B^T below.  With one right-hand side
 * the same solves and products are ?trsv / ?gemv on the plain vector, or
 * plain loops for a panel at most NARROW wide (no BLAS call: most panels
 * of a small solve are a few columns wide, and a call costs more than
 * its arithmetic); the backward loops read x[rows below k] in place.
 * slab[k], the product L21 . y_k of panel k, holds below x nrhs elements
 * at (row_ptr[k] - d_off[k]) . nrhs: the running sum of height - width.
 *
 * Without a slab arena (slab == NULL: one sweep over every panel in
 * ascending order) the forward step is right-looking instead: L21 . y_k
 * goes to the gather buffer and straight into the rows below k.  Every row
 * receives the same values in the same ascending source order, so the
 * bits are those of the left-looking steps. */

/* Forward step of panel k: subtract the slabs of its sources in ascending
 * source order, y_k = L11^-1 x[f:l], then slab[k] = L21 . y_k. */
static void S(forward)(const plan_t *p, int ft, T *L, T *x, int64_t nrhs,
                       T *slab, int64_t k, T *gather)
{
    int64_t w = p->width[k], below = p->height[k] - w;
    T *xk = x + p->d_off[k] * nrhs, *blk = L + p->offset[k];
    for (int64_t c = p->tgt_ptr[k]; slab && c < p->tgt_ptr[k + 1]; c++) {
        int64_t j = p->src[c], i0 = p->i0[c], n = p->i1[c] - i0;
        const int64_t *cols = p->rows_local + p->rl_ptr[c];
        const T *s = slab + (p->row_ptr[j] - p->d_off[j] + i0) * nrhs;
        for (int64_t i = 0; i < n; i++) {
            T *dst = xk + cols[i] * nrhs;
            for (int64_t r = 0; r < nrhs; r++)
                dst[r] -= s[i * nrhs + r];
        }
    }
    T *out = slab ? slab + (p->row_ptr[k] - p->d_off[k]) * nrhs : gather;
    char *diag = ft == LLT ? "N" : "U";
    int iw = (int)w, ib = (int)below, ir = (int)nrhs, inc = 1;
    T one = 1, zero = 0;
    if (nrhs == 1 && w <= NARROW) {
        for (int64_t i = 0; i < w; i++) { /* y_k = L11^-1 x[f:l] */
            const T *li = blk + i * w;
            T s = xk[i];
            for (int64_t j = 0; j < i; j++)
                s -= MUL(li[j], xk[j]);
            xk[i] = ft == LLT ? s / li[i] : s;
        }
        for (int64_t i = 0; i < below; i++) { /* L21 . y_k */
            const T *li = blk + (w + i) * w;
            T s = MUL(li[0], xk[0]);
            for (int64_t j = 1; j < w; j++)
                s += MUL(li[j], xk[j]);
            out[i] = s;
        }
    } else if (nrhs == 1) {
        /* L11 is the column-major upper triangle's transpose */
        ((S(trsv_t))blas[BASE + TRSV])("U", "T", diag, &iw, blk, &iw, xk, &inc);
        if (below)
            ((S(gemv_t))blas[BASE + GEMV])("T", &iw, &ib, &one, blk + w * w,
                                           &iw, xk, &inc, &zero, out, &inc);
    } else {
        ((S(trsm_t))blas[BASE + TRSM])("R", "U", "N", diag, &ir, &iw, &one,
                                       blk, &iw, xk, &ir);
        if (below)
            ((S(gemm_t))blas[BASE + GEMM])("N", "N", &ir, &ib, &iw, &one, xk,
                                           &ir, blk + w * w, &iw, &zero, out,
                                           &ir);
    }
    if (!slab) {
        const int64_t *rows = p->rows + p->row_ptr[k] + w;
        for (int64_t i = 0; i < below; i++) {
            T *dst = x + rows[i] * nrhs;
            for (int64_t r = 0; r < nrhs; r++)
                dst[r] -= out[i * nrhs + r];
        }
    }
}

/* Backward step of panel k: x[f:l] = op(diag)^-1 (D^-1 x[f:l] - tall^T .
 * x[rows below k]), tall = L21 (U21 for LU); op(diag) = L11^T, or U11 for
 * LU (the packed block's upper triangle: column-major lower). */
static void S(backward)(const plan_t *p, int ft, T *L, T *U, const T *D,
                        T *x, int64_t nrhs, int64_t k, T *gather)
{
    int64_t w = p->width[k], below = p->height[k] - w;
    T *xk = x + p->d_off[k] * nrhs, *blk = L + p->offset[k];
    int iw = (int)w, ib = (int)below, ir = (int)nrhs, inc = 1;
    T one = 1, minus_one = -1;
    if (ft == LDLT) {
        const T *d = D + p->d_off[k];
        for (int64_t q = 0; q < w; q++)
            for (int64_t r = 0; r < nrhs; r++)
                xk[q * nrhs + r] /= d[q];
    }
    const int64_t *rows = p->rows + p->row_ptr[k] + w;
    T *tall = (ft == LU ? U : L) + p->offset[k] + w * w;
    if (nrhs == 1 && w <= NARROW) {
        for (int64_t i = 0; i < below; i++) { /* - tall^T . x[rows] */
            const T *ti = tall + i * w;
            T xi = x[rows[i]];
            for (int64_t j = 0; j < w; j++)
                xk[j] -= MUL(ti[j], xi);
        }
        if (ft == LU) { /* U11 x = ..., row i of U11 right of the diagonal */
            for (int64_t i = w - 1; i >= 0; i--) {
                const T *ui = blk + i * w;
                T s = xk[i];
                for (int64_t j = i + 1; j < w; j++)
                    s -= MUL(ui[j], xk[j]);
                xk[i] = s / ui[i];
            }
            return;
        }
        for (int64_t i = w - 1; i >= 0; i--) { /* L11^T x = ... */
            const T *li = blk + i * w;
            T y = ft == LLT ? xk[i] / li[i] : xk[i];
            xk[i] = y;
            for (int64_t j = 0; j < i; j++)
                xk[j] -= MUL(li[j], y);
        }
        return;
    }
    if (below) {
        for (int64_t i = 0; i < below; i++) {
            const T *src = x + rows[i] * nrhs;
            for (int64_t r = 0; r < nrhs; r++)
                gather[i * nrhs + r] = src[r];
        }
        if (nrhs == 1)
            ((S(gemv_t))blas[BASE + GEMV])("N", &iw, &ib, &minus_one, tall,
                                           &iw, gather, &inc, &one, xk, &inc);
        else
            ((S(gemm_t))blas[BASE + GEMM])("N", "T", &ir, &iw, &ib, &minus_one,
                                           gather, &ir, tall, &iw, &one, xk,
                                           &ir);
    }
    char *uplo = ft == LU ? "L" : "U", *diag = ft == LDLT ? "U" : "N";
    if (nrhs == 1)
        ((S(trsv_t))blas[BASE + TRSV])(uplo, ft == LU ? "T" : "N", diag, &iw,
                                       blk, &iw, xk, &inc);
    else
        ((S(trsm_t))blas[BASE + TRSM])("R", uplo, ft == LU ? "N" : "T", diag,
                                       &ir, &iw, &one, blk, &iw, xk, &ir);
}

/* Forward steps of panels[0..n) ascending, or backward steps descending;
 * gather holds max(height - width) x nrhs elements, slab is NULL or the
 * slab arena (see above).  No right-hand side: nothing to do (and BLAS
 * would reject a zero leading dimension). */
void S(repro_solve_panels)(const plan_t *p, int ft, T *L, T *U, const T *D,
                           T *x, int64_t nrhs, T *slab, const int64_t *panels,
                           int64_t n, int backward, T *gather)
{
    if (nrhs <= 0)
        return;
    if (backward)
        for (int64_t i = n - 1; i >= 0; i--)
            S(backward)(p, ft, L, U, D, x, nrhs, panels[i], gather);
    else
        for (int64_t i = 0; i < n; i++)
            S(forward)(p, ft, L, x, nrhs, slab, panels[i], gather);
}

#endif /* REPRO_BODY */
