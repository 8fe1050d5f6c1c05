/* Native analysis: the ordering and the symbolic passes as single calls.
 *
 *   repro_nested_dissection  the default nested dissection of
 *                            ordering/nested_dissection.py (level-set
 *                            separators, mindeg or natural leaves)
 *   repro_minimum_degree     ordering/mindeg.py
 *   repro_etree / repro_postorder / repro_column_counts
 *                            symbolic/etree.py, symbolic/colcount.py
 *   repro_supernode_rows     symbolic/supernodes.py (supernode_row_sets)
 *   repro_amalgamate         symbolic/supernodes.py (amalgamate)
 *   repro_permute_pattern    sparse/csc.py (SparseMatrixCSC.permute)
 *   repro_couple_plan        kernels/indexcache.py (the couple plan)
 *   repro_assembly_map       core/factor.py (AssemblyMap)
 *
 * Each is called through ctypes (GIL released) from repro/graph/native.py,
 * which checks every array before its pointer crosses.  The Python bodies
 * stay as fallback and oracle: the results here are identical to theirs,
 * element for element, so every tie-break below is the Python one.
 *
 * No static state: every call allocates its O(n + nnz) work arrays and
 * frees them before returning, so concurrent calls are independent.
 */
#include <stdint.h>
#include <stdlib.h>
#include <string.h>

typedef int64_t i64;

enum {
    OK = 0,
    NO_MEMORY = -1,
    /* An adjacency that is not symmetric broke an invariant; the caller
     * runs the Python body on it instead. */
    INCONSISTENT = -2
};

/* ------------------------------------------------------------------ */
/* Minimum degree on one region of a graph                            */
/* ------------------------------------------------------------------ */

/* Work arrays shared by the ordering entry points.  `region[v]` names the
 * region a vertex belongs to; an adjacency entry counts only when both
 * ends carry the same label, which is how a region of the original graph
 * stands in for the relabelled induced subgraph of the Python driver. */
typedef struct {
    const i64 *xadj, *adjncy, *vwgt;
    i64 *region;
    i64 *mark, *inr; /* stamp arrays: w is marked iff mark[w] == stamp */
    i64 stamp;
    /* breadth-first search */
    i64 *level, *queue;
    /* minimum degree: the quotient graph lives in `slot`, vertex u owning
     * [xadj[u], xadj[u+1]): plain neighbours from the front, adjacent
     * elements from the back (their number never exceeds the room). */
    i64 *slot, *plen, *elen, *degree;
    i64 *heap, *hpos;
    i64 *evars, *estart, *esize; /* element -> its variables, in an arena */
    i64 ecap;
    /* nested dissection */
    i64 *tmp, *seplist, *stack;
    double *level_w;
    int8_t *side, *target;
    void *block;
} work_t;

static int work_alloc(work_t *w, i64 n, const i64 *xadj, const i64 *adjncy,
                      const i64 *vwgt, int dissect)
{
    i64 nnz = xadj[n];
    size_t words = (size_t)(12 * n + 2 * nnz + 2);
    size_t bytes;
    char *p;
    if (dissect)
        words += (size_t)(5 * n + 4);
    bytes = words * sizeof(i64) + (dissect ? (size_t)(n + 1) * sizeof(double)
                                             + 2 * (size_t)n : 0);
    memset(w, 0, sizeof *w);
    w->block = p = malloc(bytes ? bytes : 1);
    if (!p)
        return NO_MEMORY;
    w->xadj = xadj;
    w->adjncy = adjncy;
    w->vwgt = vwgt;
    w->ecap = nnz + 1;
#define TAKE(field, type, count) \
    (w->field = (type *)p, p += (size_t)(count) * sizeof(type))
    TAKE(region, i64, n);
    TAKE(mark, i64, n);
    TAKE(inr, i64, n);
    TAKE(level, i64, n);
    TAKE(queue, i64, n);
    TAKE(plen, i64, n);
    TAKE(elen, i64, n);
    TAKE(degree, i64, n);
    TAKE(heap, i64, n);
    TAKE(hpos, i64, n);
    TAKE(estart, i64, n);
    TAKE(esize, i64, n);
    TAKE(slot, i64, nnz + 1);
    TAKE(evars, i64, nnz + 1);
    if (dissect) {
        TAKE(tmp, i64, n);
        TAKE(seplist, i64, n + 1);
        TAKE(stack, i64, 3 * (n + 1));
        TAKE(level_w, double, n + 1);
        TAKE(side, int8_t, n);
        TAKE(target, int8_t, n);
    }
#undef TAKE
    memset(w->mark, 0, (size_t)n * sizeof(i64));
    memset(w->inr, 0, (size_t)n * sizeof(i64));
    w->stamp = 0;
    return OK;
}

/* Indexed binary heap of vertices keyed by (degree, id). */
static int heap_less(const work_t *w, i64 a, i64 b)
{
    return w->degree[a] < w->degree[b]
           || (w->degree[a] == w->degree[b] && a < b);
}

static void heap_up(work_t *w, i64 i)
{
    i64 v = w->heap[i];
    while (i > 0) {
        i64 parent = (i - 1) / 2, u = w->heap[parent];
        if (!heap_less(w, v, u))
            break;
        w->heap[i] = u;
        w->hpos[u] = i;
        i = parent;
    }
    w->heap[i] = v;
    w->hpos[v] = i;
}

static void heap_down(work_t *w, i64 i, i64 size)
{
    i64 v = w->heap[i];
    for (;;) {
        i64 child = 2 * i + 1, u;
        if (child >= size)
            break;
        if (child + 1 < size && heap_less(w, w->heap[child + 1], w->heap[child]))
            child++;
        u = w->heap[child];
        if (!heap_less(w, u, v))
            break;
        w->heap[i] = u;
        w->hpos[u] = i;
        i = child;
    }
    w->heap[i] = v;
    w->hpos[v] = i;
}

/* Order the `size` vertices of `list` (one region, label `rid`) by exact
 * external minimum degree, lowest id on ties, into `out` (which may be
 * `list`).  Eliminated vertices become elements; forming one absorbs the
 * elements adjacent to its pivot. */
static int minimum_degree(work_t *w, const i64 *list, i64 size, i64 rid,
                          i64 *out)
{
    const i64 *xadj = w->xadj, *adjncy = w->adjncy;
    i64 *slot = w->slot, *rbuf = w->queue;
    i64 etop = 0, hsize = size, k, i, j;

    for (k = 0; k < size; k++) {
        i64 u = list[k], len = 0, s = ++w->stamp;
        for (i = xadj[u]; i < xadj[u + 1]; i++) {
            i64 x = adjncy[i];
            if (w->region[x] == rid && w->mark[x] != s) {
                w->mark[x] = s;
                slot[xadj[u] + len++] = x;
            }
        }
        w->plen[u] = w->degree[u] = len;
        w->elen[u] = 0;
        w->esize[u] = -1;
        w->heap[k] = u;
        w->hpos[u] = k;
    }
    for (k = size / 2 - 1; k >= 0; k--)
        heap_down(w, k, size);

    for (k = 0; k < size; k++) {
        i64 v = w->heap[0], rs = ++w->stamp, nr = 0, top;
        /* pop v */
        hsize--;
        if (hsize > 0) {
            w->heap[0] = w->heap[hsize];
            w->hpos[w->heap[0]] = 0;
            heap_down(w, 0, hsize);
        }
        w->degree[v] = -1;

        /* r = reach(v): plain neighbours plus the variables of the
         * adjacent elements, which the new element v absorbs. */
        w->inr[v] = rs;
        for (i = 0; i < w->plen[v]; i++) {
            i64 x = slot[xadj[v] + i];
            if (w->inr[x] != rs) {
                if (w->degree[x] < 0)
                    return INCONSISTENT;
                w->inr[x] = rs;
                rbuf[nr++] = x;
            }
        }
        top = xadj[v + 1] - 1;
        for (j = 0; j < w->elen[v]; j++) {
            i64 e = slot[top - j];
            const i64 *vars = w->evars + w->estart[e];
            for (i = 0; i < w->esize[e]; i++) {
                i64 x = vars[i];
                if (w->inr[x] != rs) {
                    w->inr[x] = rs;
                    rbuf[nr++] = x;
                }
            }
            w->esize[e] = -1;
        }
        w->plen[v] = w->elen[v] = 0;

        /* Store the new element; compact the arena when it is full (the
         * live lists never add up to more than the region's edges). */
        if (etop + nr > w->ecap) {
            i64 to = 0;
            for (i = 0; i < k; i++) {
                i64 e = out[i];
                if (w->esize[e] < 0)
                    continue;
                memmove(w->evars + to, w->evars + w->estart[e],
                        (size_t)w->esize[e] * sizeof(i64));
                w->estart[e] = to;
                to += w->esize[e];
            }
            etop = to;
            if (etop + nr > w->ecap)
                return INCONSISTENT;
        }
        memcpy(w->evars + etop, rbuf, (size_t)nr * sizeof(i64));
        w->estart[v] = etop;
        w->esize[v] = nr;
        etop += nr;
        out[k] = v;

        for (j = 0; j < nr; j++) {
            i64 u = rbuf[j], base = xadj[u], len = 0, elen = 0, us, d;
            /* u loses v, and its plain neighbours inside the new element
             * become redundant. */
            for (i = 0; i < w->plen[u]; i++) {
                i64 x = slot[base + i];
                if (w->inr[x] != rs)
                    slot[base + len++] = x;
            }
            w->plen[u] = len;
            top = xadj[u + 1] - 1;
            for (i = 0; i < w->elen[u]; i++) {
                i64 e = slot[top - i];
                if (w->esize[e] >= 0)
                    slot[top - elen++] = e;
            }
            if (base + len > top - elen)
                return INCONSISTENT;
            slot[top - elen++] = v;
            w->elen[u] = elen;

            /* |reach(u)|: r without u, the plain neighbours (all outside
             * r now), the variables of the other elements. */
            us = ++w->stamp;
            d = nr - 1;
            for (i = 0; i < len; i++) {
                w->mark[slot[base + i]] = us;
                d++;
            }
            for (i = 0; i + 1 < elen; i++) {
                i64 e = slot[top - i], t;
                const i64 *vars = w->evars + w->estart[e];
                for (t = 0; t < w->esize[e]; t++) {
                    i64 x = vars[t];
                    if (w->inr[x] != rs && w->mark[x] != us) {
                        w->mark[x] = us;
                        d++;
                    }
                }
            }
            if (d < w->degree[u]) {
                w->degree[u] = d;
                heap_up(w, w->hpos[u]);
            } else {
                w->degree[u] = d;
                heap_down(w, w->hpos[u], hsize);
            }
        }
    }
    return OK;
}

i64 repro_minimum_degree(i64 n, const i64 *xadj, const i64 *adjncy,
                         i64 *iperm)
{
    work_t w;
    i64 v;
    int status = work_alloc(&w, n, xadj, adjncy, NULL, 0);
    if (status != OK)
        return status;
    for (v = 0; v < n; v++) {
        w.region[v] = 0;
        iperm[v] = v;
    }
    status = minimum_degree(&w, iperm, n, 0, iperm);
    free(w.block);
    return status;
}

/* ------------------------------------------------------------------ */
/* Nested dissection                                                  */
/* ------------------------------------------------------------------ */

/* The defaults of pseudo_peripheral_vertex, level_set_separator and
 * thin_separator, which are what nested_dissection runs with. */
#define PERIPHERAL_SWEEPS 8
#define MAX_IMBALANCE 3.0
#define THIN_PASSES 4

/* Breadth-first search from `root` inside region `rid`: levels in
 * `level`, visit order in `queue`; returns how many vertices it reached. */
static i64 bfs(work_t *w, i64 root, i64 rid)
{
    const i64 *xadj = w->xadj, *adjncy = w->adjncy;
    i64 s = ++w->stamp, head = 0, tail = 0, i;
    w->queue[tail++] = root;
    w->mark[root] = s;
    w->level[root] = 0;
    while (head < tail) {
        i64 u = w->queue[head++], next = w->level[u] + 1;
        for (i = xadj[u]; i < xadj[u + 1]; i++) {
            i64 x = adjncy[i];
            if (w->region[x] == rid && w->mark[x] != s) {
                w->mark[x] = s;
                w->level[x] = next;
                w->queue[tail++] = x;
            }
        }
    }
    return tail;
}

/* Split the connected region `list` into separator / A / B (side 0 / 1 /
 * 2); counts[side] receives the sizes.  level_set_separator() of
 * graph/separator.py on the induced subgraph, whose vertex 0 is list[0]. */
static int separate(work_t *w, const i64 *list, i64 size, i64 rid,
                    i64 counts[3])
{
    const i64 *xadj = w->xadj, *adjncy = w->adjncy, *vwgt = w->vwgt;
    i64 ecc, sweep, i, k, depth, lev, best = -1, ns = 0, pass;
    i64 wa_int = 0, wb_int = 0;
    double total = 0.0, cum = 0.0, best_score = 0.0;
    int best_infeasible = 0;

    /* George-Liu: restart from a minimum-degree vertex of the deepest
     * level (lowest id on ties) until the eccentricity stops growing.
     * The level structure kept is always the last one computed. */
    if (bfs(w, list[0], rid) != size)
        return INCONSISTENT;
    ecc = w->level[w->queue[size - 1]];
    for (sweep = 0; sweep < PERIPHERAL_SWEEPS; sweep++) {
        i64 cand = -1, cand_deg = 0, new_ecc;
        for (k = size - 1; k >= 0 && w->level[w->queue[k]] == ecc; k--) {
            i64 u = w->queue[k], deg = 0;
            for (i = xadj[u]; i < xadj[u + 1]; i++)
                deg += w->region[adjncy[i]] == rid;
            if (cand < 0 || deg < cand_deg || (deg == cand_deg && u < cand)) {
                cand = u;
                cand_deg = deg;
            }
        }
        if (bfs(w, cand, rid) != size)
            return INCONSISTENT;
        new_ecc = w->level[w->queue[size - 1]];
        if (new_ecc <= ecc)
            break;
        ecc = new_ecc;
    }
    depth = w->level[w->queue[size - 1]];

    /* The interior level minimising |level| * (1 + imbalance): feasible
     * levels first, then the lowest score, then the lowest level — in
     * double, operation for operation as NumPy evaluates it. */
    for (i = 0; i <= depth; i++)
        w->level_w[i] = 0.0;
    for (k = 0; k < size; k++) {
        double weight = (double)vwgt[list[k]];
        w->level_w[w->level[list[k]]] += weight;
        total += weight;
    }
    for (lev = 1; lev < depth; lev++) {
        double wa, ws, wb, hi, lo, imbalance, score;
        int infeasible;
        cum += w->level_w[lev - 1];
        wa = cum;
        ws = w->level_w[lev];
        wb = total - wa - ws;
        if (wa == 0.0 || wb == 0.0)
            continue;
        hi = wa > wb ? wa : wb;
        lo = wa < wb ? wa : wb;
        imbalance = hi / (lo > 1.0 ? lo : 1.0);
        score = ws * (1.0 + imbalance);
        infeasible = imbalance > MAX_IMBALANCE;
        if (best < 0 || infeasible < best_infeasible
            || (infeasible == best_infeasible && score < best_score)) {
            best = lev;
            best_infeasible = infeasible;
            best_score = score;
        }
    }

    counts[0] = counts[1] = counts[2] = 0;
    if (best < 0) {
        /* No interior level (two-level structure): N(v) separates
         * v = list[0] from the rest. */
        i64 v = list[0];
        for (k = 0; k < size; k++)
            w->side[list[k]] = 2;
        for (i = xadj[v]; i < xadj[v + 1]; i++)
            if (w->region[adjncy[i]] == rid)
                w->side[adjncy[i]] = 0;
        w->side[v] = 1;
        for (k = 0; k < size; k++)
            counts[w->side[list[k]]]++;
        return OK;
    }

    for (k = 0; k < size; k++) {
        i64 u = list[k], l = w->level[u];
        if (l == best) {
            w->side[u] = 0;
            w->seplist[ns++] = u;
        } else if (l < best) {
            w->side[u] = 1;
            counts[1]++;
            wa_int += vwgt[u];
        } else {
            w->side[u] = 2;
            counts[2]++;
            wb_int += vwgt[u];
        }
    }

    /* Thinning: a separator vertex touching one side only joins it, one
     * touching neither joins the lighter side; every vertex of a pass
     * decides on the sides as they were when the pass began. */
    for (pass = 0; pass < THIN_PASSES && ns > 0; pass++) {
        int8_t lighter = wa_int <= wb_int ? 1 : 2, any = 0;
        i64 kept = 0;
        for (k = 0; k < ns; k++) {
            i64 u = w->seplist[k];
            int has_a = 0, has_b = 0;
            for (i = xadj[u]; i < xadj[u + 1]; i++) {
                i64 x = adjncy[i];
                if (w->region[x] != rid)
                    continue;
                has_a |= w->side[x] == 1;
                has_b |= w->side[x] == 2;
            }
            w->target[k] = has_a ? (has_b ? 0 : 1) : (has_b ? 2 : lighter);
            any |= w->target[k];
        }
        if (!any)
            break;
        for (k = 0; k < ns; k++) {
            i64 u = w->seplist[k];
            w->side[u] = w->target[k];
            if (w->target[k] == 1) {
                counts[1]++;
                wa_int += vwgt[u];
            } else if (w->target[k] == 2) {
                counts[2]++;
                wb_int += vwgt[u];
            } else {
                w->seplist[kept++] = u;
            }
        }
        ns = kept;
    }
    counts[0] = ns;
    return OK;
}

/* Give the vertices of `list` a fresh region label (or -1: final). */
static void relabel(work_t *w, const i64 *list, i64 size, i64 rid)
{
    i64 k;
    for (k = 0; k < size; k++)
        w->region[list[k]] = rid;
}

/* The whole default nested dissection.  A region's vertex list is kept,
 * ascending, in the very slice of `iperm` the region will fill: every
 * split and every grouping by component below is stable, so "lowest
 * local id" in the Python driver's relabelled subgraphs is "lowest
 * original id" here and no subgraph is ever built. */
i64 repro_nested_dissection(i64 n, const i64 *xadj, const i64 *adjncy,
                            const i64 *vwgt, i64 leaf_size, int leaf_mindeg,
                            i64 *iperm)
{
    work_t w;
    i64 sp = 0, next_rid = 1, v, k;
    int status = work_alloc(&w, n, xadj, adjncy, vwgt, 1);
    if (status != OK)
        return status;
    for (v = 0; v < n; v++) {
        w.region[v] = 0;
        iperm[v] = v;
    }
    if (n > 0) {
        w.stack[0] = 0;
        w.stack[1] = n;
        w.stack[2] = 0;
        sp = 1;
    }
    while (sp > 0 && status == OK) {
        i64 lo, size, connected, rid, counts[3], *list, at[3];
        sp--;
        lo = w.stack[3 * sp];
        size = w.stack[3 * sp + 1];
        connected = w.stack[3 * sp + 2];
        list = iperm + lo;
        rid = w.region[list[0]];

        if (!connected) {
            /* Components in order of their smallest vertex. */
            i64 base = w.stamp, ncomp = 0, *csize = w.seplist;
            for (k = 0; k < size; k++) {
                i64 reached, q;
                if (w.mark[list[k]] > base)
                    continue;
                reached = bfs(&w, list[k], rid);
                if (ncomp == 0 && reached == size)
                    break; /* connected: the common case */
                for (q = 0; q < reached; q++)
                    w.level[w.queue[q]] = ncomp;
                csize[ncomp++] = reached;
            }
            if (ncomp > 1) {
                /* Grouped by component, ascending inside each — already
                 * final for components of one or two vertices. */
                i64 first = 0, c;
                for (c = 0; c < ncomp; c++) {
                    i64 count = csize[c];
                    csize[c] = first;
                    first += count;
                }
                csize[ncomp] = first;
                memcpy(w.tmp, list, (size_t)size * sizeof(i64));
                for (k = 0; k < size; k++)
                    list[csize[w.level[w.tmp[k]]]++] = w.tmp[k];
                /* csize[c] is now the end of component c. */
                first = 0;
                for (c = 0; c < ncomp; c++) {
                    i64 count = csize[c] - first;
                    if (count > 2) {
                        relabel(&w, list + first, count, next_rid++);
                        w.stack[3 * sp] = lo + first;
                        w.stack[3 * sp + 1] = count;
                        w.stack[3 * sp + 2] = 1;
                        sp++;
                    } else {
                        relabel(&w, list + first, count, -1);
                    }
                    first = csize[c];
                }
                continue;
            }
        }

        counts[0] = 0;
        if (size > leaf_size && size > 1)
            status = separate(&w, list, size, rid, counts);
        if (status != OK)
            break;
        if (counts[0] == 0 || counts[1] == 0 || counts[2] == 0) {
            /* A leaf, or separation failed (dense or tiny region). */
            if (leaf_mindeg && size > 2)
                status = minimum_degree(&w, list, size, rid, list);
            continue;
        }

        /* Layout: [A | B | separator], each ascending. */
        at[1] = 0;
        at[2] = counts[1];
        at[0] = counts[1] + counts[2];
        memcpy(w.tmp, list, (size_t)size * sizeof(i64));
        for (k = 0; k < size; k++)
            list[at[w.side[w.tmp[k]]]++] = w.tmp[k];
        relabel(&w, list + counts[1], counts[2], next_rid++);
        relabel(&w, list + counts[1] + counts[2], counts[0], -1);
        w.stack[3 * sp] = lo;
        w.stack[3 * sp + 1] = counts[1];
        w.stack[3 * sp + 2] = 0;
        sp++;
        w.stack[3 * sp] = lo + counts[1];
        w.stack[3 * sp + 1] = counts[2];
        w.stack[3 * sp + 2] = 0;
        sp++;
    }
    free(w.block);
    return status;
}

/* ------------------------------------------------------------------ */
/* Elimination tree, postorder, column counts, supernode row sets      */
/* ------------------------------------------------------------------ */

/* Liu's algorithm with path compression on a symmetric pattern. */
i64 repro_etree(i64 n, const i64 *colptr, const i64 *rowind, i64 *parent)
{
    i64 *ancestor = malloc((size_t)(n + 1) * sizeof(i64)), k, p;
    if (!ancestor)
        return NO_MEMORY;
    for (k = 0; k < n; k++) {
        parent[k] = ancestor[k] = -1;
        for (p = colptr[k]; p < colptr[k + 1]; p++) {
            i64 i = rowind[p];
            while (i != -1 && i < k) {
                i64 next = ancestor[i];
                ancestor[i] = k;
                if (next == -1)
                    parent[i] = k;
                i = next;
            }
        }
    }
    free(ancestor);
    return OK;
}

/* Depth-first postorder, children in ascending order.  Returns how many
 * nodes it placed (fewer than n: `parent` is not a forest). */
i64 repro_postorder(i64 n, const i64 *parent, i64 *post)
{
    i64 *head = malloc((size_t)(3 * n + 1) * sizeof(i64)), *next, *stack;
    i64 v, count = 0;
    if (!head)
        return NO_MEMORY;
    next = head + n;
    stack = next + n;
    for (v = 0; v < n; v++)
        head[v] = next[v] = -1;
    for (v = n - 1; v >= 0; v--) {
        i64 p = parent[v];
        if (p >= 0) {
            next[v] = head[p];
            head[p] = v;
        }
    }
    for (v = 0; v < n; v++) {
        i64 sp = 0;
        if (parent[v] != -1)
            continue;
        stack[sp++] = v;
        while (sp > 0) {
            i64 node = stack[sp - 1], child = head[node];
            if (child != -1) {
                head[node] = next[child];
                stack[sp++] = child;
            } else {
                post[count++] = node;
                sp--;
            }
        }
    }
    free(head);
    return count;
}

/* Gilbert-Ng-Peyton column counts (cs_counts).  `post` must be a
 * postorder of `parent` — checked by the caller, it is what makes every
 * loop below terminate. */
i64 repro_column_counts(i64 n, const i64 *colptr, const i64 *rowind,
                        const i64 *parent, const i64 *post, i64 *counts)
{
    i64 *first = malloc((size_t)(4 * n + 1) * sizeof(i64));
    i64 *maxfirst, *prevleaf, *ancestor, *delta = counts, k, p;
    if (!first)
        return NO_MEMORY;
    maxfirst = first + n;
    prevleaf = maxfirst + n;
    ancestor = prevleaf + n;
    for (k = 0; k < n; k++) {
        first[k] = maxfirst[k] = prevleaf[k] = -1;
        ancestor[k] = k;
    }
    /* Pass 1: first descendants and leaf deltas. */
    for (k = 0; k < n; k++) {
        i64 j = post[k];
        delta[j] = first[j] == -1;
        while (j != -1 && first[j] == -1) {
            first[j] = k;
            j = parent[j];
        }
    }
    /* Pass 2: for each neighbour i > j decide whether j is a (first or
     * subsequent) leaf of i's row subtree. */
    for (k = 0; k < n; k++) {
        i64 j = post[k], pj = parent[j], fj = first[j];
        if (pj != -1)
            delta[pj]--;
        for (p = colptr[j]; p < colptr[j + 1]; p++) {
            i64 i = rowind[p], jprev;
            if (i <= j || fj <= maxfirst[i])
                continue;
            maxfirst[i] = fj;
            jprev = prevleaf[i];
            prevleaf[i] = j;
            delta[j]++;
            if (jprev != -1) {
                i64 q = jprev, s = jprev;
                while (q != ancestor[q])
                    q = ancestor[q];
                while (s != q) {
                    i64 up = ancestor[s];
                    ancestor[s] = q;
                    s = up;
                }
                delta[q]--;
            }
        }
        if (pj != -1)
            ancestor[j] = pj;
    }
    /* Pass 3: accumulate up the tree. */
    for (k = 0; k < n; k++) {
        i64 j = post[k];
        if (parent[j] != -1)
            counts[parent[j]] += counts[j];
    }
    free(first);
    return OK;
}

/* Below-supernode row structure, row by row: row i belongs to every
 * supernode on the path from the supernode of each entry A(i, j) below
 * its supernode's columns up to (not including) the supernode holding
 * column i; a supernode's parent is the owner of the first row it
 * received.  Rows arrive ascending, so every set comes out sorted without
 * a sort.  `rows` == NULL: only count, into `ptr[1:]`; otherwise `ptr`
 * holds the offsets and `rows` is filled. */
i64 repro_supernode_rows(i64 n, const i64 *colptr, const i64 *rowind,
                         i64 n_sn, const i64 *snptr, i64 *ptr, i64 *rows,
                         i64 *parent_sn)
{
    i64 *mark = malloc((size_t)(n + 2 * n_sn + colptr[n] + 2) * sizeof(i64));
    i64 *fill, *rptr, *rsn, s, i, j, p;
    if (!mark)
        return NO_MEMORY;
    fill = mark + n_sn;
    rptr = fill + n_sn;  /* n + 1: row -> its entries below a supernode */
    rsn = rptr + n + 1;  /* ... as the supernodes of their columns */
    memset(rptr, 0, (size_t)(n + 1) * sizeof(i64));
    for (s = 0; s < n_sn; s++)
        for (j = snptr[s]; j < snptr[s + 1]; j++)
            for (p = colptr[j]; p < colptr[j + 1]; p++)
                if (rowind[p] >= snptr[s + 1])
                    rptr[rowind[p] + 1]++;
    for (i = 0; i < n; i++)
        rptr[i + 1] += rptr[i];
    for (s = 0; s < n_sn; s++)
        for (j = snptr[s]; j < snptr[s + 1]; j++)
            for (p = colptr[j]; p < colptr[j + 1]; p++)
                if (rowind[p] >= snptr[s + 1])
                    rsn[rptr[rowind[p]]++] = s;
    /* rptr[i] is now the end of row i's entries, rptr[i - 1] their start. */
    for (s = 0; s < n_sn; s++) {
        mark[s] = parent_sn[s] = -1;
        fill[s] = 0;
    }
    s = 0; /* the supernode holding column i */
    for (i = 0; i < n; i++) {
        i64 t;
        while (snptr[s + 1] <= i)
            s++;
        for (p = i ? rptr[i - 1] : 0; p < rptr[i]; p++) {
            for (t = rsn[p]; t != s && mark[t] != i; t = parent_sn[t]) {
                mark[t] = i;
                if (fill[t] == 0)
                    parent_sn[t] = s;
                if (rows)
                    rows[ptr[t] + fill[t]] = i;
                fill[t]++;
            }
        }
    }
    if (!rows)
        memcpy(ptr + 1, fill, (size_t)n_sn * sizeof(i64));
    free(mark);
    return OK;
}

/* ------------------------------------------------------------------ */
/* Amalgamation                                                        */
/* ------------------------------------------------------------------ */

/* One merge candidate, ordered as the Python tuple (fill, c, p, vc, vp):
 * the key is a total order, so the pop order does not depend on how the
 * heap breaks ties. */
typedef struct {
    i64 fill, c, p, vc, vp;
} merge_t;

static int merge_less(const merge_t *a, const merge_t *b)
{
    if (a->fill != b->fill)
        return a->fill < b->fill;
    if (a->c != b->c)
        return a->c < b->c;
    if (a->p != b->p)
        return a->p < b->p;
    if (a->vc != b->vc)
        return a->vc < b->vc;
    return a->vp < b->vp;
}

typedef struct {
    merge_t *item;
    i64 size, cap;
} merge_heap_t;

static int merge_push(merge_heap_t *h, merge_t m)
{
    i64 i;
    if (h->size == h->cap) {
        merge_t *grown = realloc(h->item, (size_t)(2 * h->cap) * sizeof m);
        if (!grown)
            return NO_MEMORY;
        h->item = grown;
        h->cap *= 2;
    }
    for (i = h->size++; i > 0; i = (i - 1) / 2) {
        merge_t *up = &h->item[(i - 1) / 2];
        if (!merge_less(&m, up))
            break;
        h->item[i] = *up;
    }
    h->item[i] = m;
    return OK;
}

static merge_t merge_pop(merge_heap_t *h)
{
    merge_t top = h->item[0], last = h->item[--h->size];
    i64 i = 0, c;
    while ((c = 2 * i + 1) < h->size) {
        if (c + 1 < h->size && merge_less(&h->item[c + 1], &h->item[c]))
            c++;
        if (!merge_less(&h->item[c], &last))
            break;
        h->item[i] = h->item[c];
        i = c;
    }
    if (h->size)
        h->item[i] = last;
    return top;
}

/* nnz of one supernode of the (lower) factor. */
static i64 sn_nnz(i64 width, i64 nrows)
{
    return width * (width + 1) / 2 + width * nrows;
}

typedef struct {
    i64 *fcol, *lcol, *nrows, *parent, *version, *head, *next;
    char *alive;
    merge_heap_t heap;
} amalg_t;

/* Queue merging child c into parent p at its current versions. */
static int amalg_push(amalg_t *a, i64 c, i64 p)
{
    i64 wc = a->lcol[c] - a->fcol[c], wp = a->lcol[p] - a->fcol[p];
    merge_t m;
    m.fill = sn_nnz(wc + wp, a->nrows[p]) - sn_nnz(wc, a->nrows[c])
             - sn_nnz(wp, a->nrows[p]);
    m.c = c;
    m.p = p;
    m.vc = a->version[c];
    m.vp = a->version[p];
    return merge_push(&a->heap, m);
}

/* Cheapest-fill-first merging of children into their parents
 * (symbolic/supernodes.py, amalgamate): supernode s spans columns
 * [snptr[s], snptr[s+1]), has ptr[s+1] - ptr[s] rows below them and
 * parent_sn[s] > s (or -1).  A merge grows the parent downwards over the
 * contiguous child and keeps the parent's rows; merges stop at the first
 * one that costs more than the remaining budget, ratio x nnz(L).  The
 * survivors go to `keep`, ascending (which is ascending first column);
 * returns their number. */
i64 repro_amalgamate(i64 n_sn, const i64 *snptr, const i64 *ptr,
                     const i64 *parent_sn, double ratio, i64 *keep)
{
    amalg_t a;
    i64 *block, s, g, n_keep = 0, total = 0;
    double budget;
    int status = OK;
    if (n_sn == 0)
        return 0;
    block = malloc((size_t)(7 * n_sn) * sizeof(i64) + (size_t)n_sn);
    a.heap.cap = n_sn + 1;
    a.heap.size = 0;
    a.heap.item = malloc((size_t)a.heap.cap * sizeof(merge_t));
    if (!block || !a.heap.item) {
        free(block);
        free(a.heap.item);
        return NO_MEMORY;
    }
    a.fcol = block;
    a.lcol = a.fcol + n_sn;
    a.nrows = a.lcol + n_sn;
    a.parent = a.nrows + n_sn;
    a.version = a.parent + n_sn;
    a.head = a.version + n_sn;
    a.next = a.head + n_sn;
    a.alive = (char *)(a.next + n_sn);
    for (s = 0; s < n_sn; s++) {
        a.fcol[s] = snptr[s];
        a.lcol[s] = snptr[s + 1];
        a.nrows[s] = ptr[s + 1] - ptr[s];
        a.parent[s] = parent_sn[s];
        a.version[s] = 0;
        a.head[s] = -1;
        a.alive[s] = 1;
        total += sn_nnz(a.lcol[s] - a.fcol[s], a.nrows[s]);
    }
    for (s = 0; s < n_sn; s++)
        if (a.parent[s] >= 0) {
            a.next[s] = a.head[a.parent[s]];
            a.head[a.parent[s]] = s;
        }
    budget = ratio * (double)total;
    for (s = 0; s < n_sn && status == OK; s++)
        if (a.parent[s] >= 0 && a.lcol[s] == a.fcol[a.parent[s]])
            status = amalg_push(&a, s, a.parent[s]);

    while (status == OK && a.heap.size) {
        merge_t m = merge_pop(&a.heap);
        i64 c = m.c, p = m.p, gp, *link;
        if (!(a.alive[c] && a.alive[p]))
            continue;
        if (a.version[c] != m.vc || a.version[p] != m.vp)
            continue;
        if ((double)m.fill > budget)
            break; /* the cheapest remaining merge exceeds the budget */
        /* Merge c into p: p grows downwards and keeps its rows. */
        budget -= (double)m.fill;
        a.fcol[p] = a.fcol[c];
        a.alive[c] = 0;
        a.version[p]++;
        for (g = a.head[c]; g >= 0;) {
            i64 after = a.next[g];
            if (a.alive[g]) {
                a.parent[g] = p;
                a.next[g] = a.head[p];
                a.head[p] = g;
            }
            g = after;
        }
        a.head[c] = -1;
        /* New candidate pairs involving the grown parent. */
        gp = a.parent[p];
        if (gp >= 0 && a.alive[gp] && a.lcol[p] == a.fcol[gp])
            status = amalg_push(&a, p, gp);
        for (link = &a.head[p]; status == OK && *link >= 0;) {
            g = *link;
            if (!a.alive[g]) {
                *link = a.next[g]; /* drop a merged child from the list */
                continue;
            }
            if (a.lcol[g] == a.fcol[p])
                status = amalg_push(&a, g, p);
            link = &a.next[g];
        }
    }
    if (status == OK) {
        for (s = 0; s < n_sn; s++)
            if (a.alive[s]) {
                /* The survivors must tile the columns. */
                if (a.fcol[s] != (n_keep ? a.lcol[keep[n_keep - 1]]
                                         : snptr[0]))
                    status = INCONSISTENT;
                keep[n_keep++] = s;
            }
        if (n_keep && a.lcol[keep[n_keep - 1]] != snptr[n_sn])
            status = INCONSISTENT;
    }
    free(block);
    free(a.heap.item);
    return status == OK ? n_keep : status;
}

/* ------------------------------------------------------------------ */
/* The plans of a fresh factorization: couple plan, assembly map,      */
/* symmetric permutation                                               */
/* ------------------------------------------------------------------ */

/* The first i in [0, n) with a[i] >= x (n if none), a ascending. */
static i64 lower_bound(const i64 *a, i64 n, i64 x)
{
    i64 lo = 0, hi = n;
    while (lo < hi) {
        i64 mid = lo + (hi - lo) / 2;
        if (a[mid] < x)
            lo = mid + 1;
        else
            hi = mid;
    }
    return lo;
}

/* Where the rows of one panel sit among them: after place_panel(pl, k),
 * row r is the pos[r]-th row of panel k iff stamp[r] == k.  A panel's
 * rows ascend (a repeated row keeps its first place); the scatter of one
 * panel's rows makes every later lookup in it a load, not a search. */
typedef struct {
    const i64 *row_ptr, *rows;
    i64 *pos, *stamp;
} place_t;

static int place_init(place_t *pl, i64 n, const i64 *row_ptr, const i64 *rows)
{
    i64 r;
    pl->row_ptr = row_ptr;
    pl->rows = rows;
    pl->pos = malloc((size_t)(2 * n + 1) * sizeof(i64));
    if (!pl->pos)
        return NO_MEMORY;
    pl->stamp = pl->pos + n;
    for (r = 0; r < n; r++)
        pl->stamp[r] = -1;
    return OK;
}

static void place_panel(place_t *pl, i64 k)
{
    i64 i;
    for (i = pl->row_ptr[k + 1] - 1; i >= pl->row_ptr[k]; i--) {
        pl->pos[pl->rows[i]] = i - pl->row_ptr[k];
        pl->stamp[pl->rows[i]] = k;
    }
}

/* The position among panel k's rows of the first at least r (its height
 * if none) — the searchsorted of the Python bodies — with k placed. */
static i64 place_find(const place_t *pl, i64 k, i64 r)
{
    if (pl->stamp[r] == k)
        return pl->pos[r];
    return lower_bound(pl->rows + pl->row_ptr[k],
                       pl->row_ptr[k + 1] - pl->row_ptr[k], r);
}

/* The update couples of a symbol in (source, target) order, as
 * dag/builder.py's update_couples enumerates them: a couple is a maximal
 * run of equal (owner, face) among the off-diagonal bloks, `m` the rows
 * of the owner's off-diagonal bloks from the run on, `n` the run's. */
typedef struct {
    i64 n_cblk;
    const i64 *blok_ptr, *frow, *lrow, *face;
    i64 k, b, left; /* owner, next blok, owner's off-diagonal rows from b */
} couples_t;

static void couples_start(couples_t *it, i64 k)
{
    i64 b;
    it->k = k;
    it->left = 0;
    if (k >= it->n_cblk)
        return;
    it->b = it->blok_ptr[k];
    for (b = it->b; b < it->blok_ptr[k + 1]; b++)
        if (it->face[b] != k)
            it->left += it->lrow[b] - it->frow[b];
}

static int couples_next(couples_t *it, i64 *src, i64 *tgt, i64 *m, i64 *n)
{
    while (it->k < it->n_cblk) {
        i64 k = it->k, end = it->blok_ptr[k + 1], b = it->b, f;
        while (b < end && it->face[b] == k)
            b++;
        if (b == end) {
            couples_start(it, k + 1);
            continue;
        }
        f = it->face[b];
        *src = k;
        *tgt = f;
        *m = it->left;
        *n = 0;
        for (; b < end; b++) {
            if (it->face[b] == k)
                continue; /* a diagonal blok does not end the run */
            if (it->face[b] != f)
                break;
            *n += it->lrow[b] - it->frow[b];
            it->left -= it->lrow[b] - it->frow[b];
        }
        it->b = b;
        return 1;
    }
    return 0;
}

/* kernels/indexcache.py's couple plan.  Count mode (src == NULL): the
 * number of couples and of row-map entries into counts[0..1].  Fill mode:
 * every array, the caller's, sized from the counts.  A counting sort on
 * the target gives the (target, source) order; rows_local[.] is the
 * position of each tail row of the source among the target's rows, read
 * from the target's placed rows.  INCONSISTENT: a tail that does not fit
 * its panel (the Python body decides what that means). */
i64 repro_couple_plan(i64 n, i64 n_cblk, const i64 *blok_ptr,
                      const i64 *frow, const i64 *lrow, const i64 *face,
                      const i64 *width,
                      const i64 *row_ptr, const i64 *rows, i64 *counts,
                      int32_t *src, int32_t *tgt, int32_t *i0, int32_t *i1,
                      i64 *tgt_ptr, i64 *src_ptr, int32_t *by_src,
                      i64 *rl_ptr, i64 *rows_local)
{
    couples_t it = {n_cblk, blok_ptr, frow, lrow, face, 0, 0, 0};
    place_t pl;
    i64 k, t, m, nf, c, g, n_couples = 0, n_rows = 0, *cursor;

    if (!src) {
        for (couples_start(&it, 0); couples_next(&it, &k, &t, &m, &nf);) {
            if (m < 0 || m > row_ptr[k + 1] - row_ptr[k] - width[k])
                return INCONSISTENT;
            n_couples++;
            n_rows += m;
        }
        counts[0] = n_couples;
        counts[1] = n_rows;
        return OK;
    }
    n_couples = counts[0];
    cursor = malloc((size_t)(n_cblk + 1) * sizeof(i64));
    if (!cursor || place_init(&pl, n, row_ptr, rows) != OK) {
        free(cursor);
        return NO_MEMORY;
    }
    memset(tgt_ptr, 0, (size_t)(n_cblk + 1) * sizeof(i64));
    memset(src_ptr, 0, (size_t)(n_cblk + 1) * sizeof(i64));
    for (couples_start(&it, 0); couples_next(&it, &k, &t, &m, &nf);) {
        tgt_ptr[t + 1]++;
        src_ptr[k + 1]++;
    }
    for (k = 0; k < n_cblk; k++) {
        tgt_ptr[k + 1] += tgt_ptr[k];
        src_ptr[k + 1] += src_ptr[k];
        cursor[k] = tgt_ptr[k];
    }
    rl_ptr[0] = 0;
    g = 0;
    for (couples_start(&it, 0); couples_next(&it, &k, &t, &m, &nf); g++) {
        i64 below = row_ptr[k + 1] - row_ptr[k] - width[k];
        c = cursor[t]++;
        by_src[g] = (int32_t)c;
        src[c] = (int32_t)k;
        tgt[c] = (int32_t)t;
        i0[c] = (int32_t)(below - m);
        i1[c] = (int32_t)(below - m + nf);
        rl_ptr[c + 1] = m;
    }
    for (c = 0; c < n_couples; c++)
        rl_ptr[c + 1] += rl_ptr[c];
    for (t = 0; t < n_cblk; t++) {
        if (tgt_ptr[t] < tgt_ptr[t + 1])
            place_panel(&pl, t);
        for (c = tgt_ptr[t]; c < tgt_ptr[t + 1]; c++) {
            i64 j, len = rl_ptr[c + 1] - rl_ptr[c];
            const i64 *tail = rows + row_ptr[src[c] + 1] - len;
            for (j = 0; j < len; j++)
                rows_local[rl_ptr[c] + j] = place_find(&pl, t, tail[j]);
        }
    }
    free(cursor);
    free(pl.pos);
    return OK;
}

/* core/factor.py's assembly map: where each entry of a CSC pattern lands
 * in the factor arenas.  Entry (i, j) with i at or below the first column
 * of j's panel k goes to L: panel k, the row holding i, column j (read
 * from k's placed rows).  Otherwise, for LU only, it goes to U,
 * transposed: panel u of row i, the row holding j, column i (a search).
 * Count mode (L_src == NULL): the entry counts of each side into
 * counts[0..1].  Fill mode: the source indices and arena positions.
 * MISSING: the entry counts[2] has no row to land in. */
enum { MISSING = -3 };

i64 repro_assembly_map(i64 n, const i64 *colptr, const i64 *rowind,
                       const i64 *cblk_ptr, const i64 *col2cblk,
                       const i64 *offset, const i64 *width,
                       const i64 *row_ptr, const i64 *rows, int lu,
                       i64 *counts, i64 *L_src, i64 *L_dst, i64 *U_src,
                       i64 *U_dst)
{
    i64 j, e, nl = 0, nu = 0, placed = -1, status = OK;
    place_t pl;
    if (!L_src) {
        for (j = 0; j < n; j++)
            for (e = colptr[j]; e < colptr[j + 1]; e++) {
                if (rowind[e] >= cblk_ptr[col2cblk[j]])
                    nl++;
                else
                    nu += lu;
            }
        counts[0] = nl;
        counts[1] = nu;
        return OK;
    }
    if (place_init(&pl, n, row_ptr, rows) != OK)
        return NO_MEMORY;
    for (j = 0; j < n && status == OK; j++) {
        i64 k = col2cblk[j], fcol = cblk_ptr[k];
        for (e = colptr[j]; e < colptr[j + 1]; e++) {
            i64 i = rowind[e], u, at;
            if (i >= fcol) {
                if (k != placed)
                    place_panel(&pl, placed = k);
                if (pl.stamp[i] != k)
                    break;
                L_src[nl] = e;
                L_dst[nl++] = offset[k] + pl.pos[i] * width[k] + (j - fcol);
            } else if (lu) {
                u = col2cblk[i];
                at = place_find(&pl, u, j);
                if (at == row_ptr[u + 1] - row_ptr[u]
                    || rows[row_ptr[u] + at] != j)
                    break;
                U_src[nu] = e;
                U_dst[nu++] = offset[u] + at * width[u] + (i - cblk_ptr[u]);
            }
        }
        if (e < colptr[j + 1]) {
            counts[2] = e;
            status = MISSING;
        }
    }
    free(pl.pos);
    return status;
}

/* P A P^T of a CSC pattern, perm[old] = new, in O(n + nnz): a counting
 * sort of the entries by new row, then a stable one by new column, so
 * rows ascend within every column.  Writes the new pattern and, unless
 * src is NULL, the index of every entry's source entry.  Returns the
 * number of entries whose coordinates repeat the entry before them (0 for
 * a pattern without duplicates). */
typedef struct {
    i64 col, src;
} by_row_t;

i64 repro_permute_pattern(i64 n, const i64 *colptr, const i64 *rowind,
                          const i64 *perm, i64 *out_colptr, i64 *out_rowind,
                          i64 *src)
{
    i64 nnz = colptr[n], j, e, r, dups = 0;
    i64 *row_end = malloc((size_t)(2 * n + 1) * sizeof(i64)), *cursor;
    by_row_t *by_row = malloc((size_t)(nnz ? nnz : 1) * sizeof(by_row_t));
    if (!row_end || !by_row) {
        free(row_end);
        free(by_row);
        return NO_MEMORY;
    }
    cursor = row_end + n + 1;
    memset(row_end, 0, (size_t)(n + 1) * sizeof(i64));
    out_colptr[0] = 0;
    for (e = 0; e < nnz; e++)
        row_end[perm[rowind[e]] + 1]++;
    for (j = 0; j < n; j++) {
        row_end[j + 1] += row_end[j];
        out_colptr[perm[j] + 1] = colptr[j + 1] - colptr[j];
    }
    for (j = 0; j < n; j++) {
        cursor[j] = out_colptr[j];
        out_colptr[j + 1] += out_colptr[j];
    }
    /* By new row; row_end[r] moves from the start to the end of row r.
     * One record per entry: one cache line written, not two. */
    for (j = 0; j < n; j++)
        for (e = colptr[j]; e < colptr[j + 1]; e++) {
            by_row_t *at = by_row + row_end[perm[rowind[e]]]++;
            at->col = perm[j];
            at->src = e;
        }
    /* By new column, rows ascending. */
    for (r = 0, e = 0; r < n; r++)
        for (; e < row_end[r]; e++) {
            i64 at = cursor[by_row[e].col]++;
            out_rowind[at] = r;
            if (src)
                src[at] = by_row[e].src;
        }
    free(row_end);
    free(by_row);
    for (j = 0; j < n; j++)
        for (e = out_colptr[j] + 1; e < out_colptr[j + 1]; e++)
            dups += out_rowind[e] == out_rowind[e - 1];
    return dups;
}
