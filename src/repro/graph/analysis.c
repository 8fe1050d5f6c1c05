/* Native analysis: the ordering and the symbolic passes as single calls.
 *
 *   repro_symmetrize         analysis pass 1: the pattern of A + A^T with a
 *                            full diagonal (sparse/csc.py,
 *                            symmetrize_pattern + with_full_diagonal)
 *   repro_order              analysis pass 2: nested dissection (or a given
 *                            permutation), elimination tree, postorder,
 *                            the permuted pattern and its column counts
 *                            (symbolic/analyze.py)
 *   repro_block_symbol       analysis pass 3: supernodes, their row sets,
 *                            amalgamation, splitting and the SymbolMatrix
 *                            arrays (symbolic/supernodes.py, splitting.py,
 *                            structures.py)
 *   repro_nested_dissection  the default nested dissection of
 *                            ordering/dissection.py (level-set
 *                            separators, minimum-degree leaves)
 *   repro_permute_pattern    sparse/csc.py (SparseMatrixCSC.permute)
 *   repro_factor_plan        what a first factorization reads: the panel
 *                            layout and the couple plan
 *                            (kernels/indexcache.py), flops_total and
 *                            nnz, the row blocks and the unit DAG in the
 *                            executor's form (dag/builder.py)
 *   repro_check_plan         the couple plan's bounds checks
 *                            (CoupleMapCache.validate)
 *   repro_assembly_map       core/factor.py (AssemblyMap)
 *
 * Each is called through ctypes (GIL released) from repro/graph/native.py,
 * which checks every array before its pointer crosses.  The single steps
 * the passes take (minimum degree, elimination tree, postorder, column
 * counts, supernode row sets, amalgamation) are static: their Python
 * bodies (ordering/mindeg.py, symbolic/etree.py, colcount.py,
 * supernodes.py) stay as fallback and oracle, and the results here are
 * identical to theirs, element for element, so every tie-break below is
 * the Python one.
 *
 * No static state: every call allocates its O(n + nnz) work arrays and
 * frees them before returning, so concurrent calls are independent.
 */
#include <math.h>
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

/* Work arrays of one ordering.  `region[v]` names the region a vertex
 * belongs to; an adjacency entry counts only when both ends carry the
 * same label, which is how a region of the original graph stands in for
 * the relabelled induced subgraph of the Python driver.  Self-loops (a
 * pattern's diagonal) are skipped; `vwgt` NULL weighs every vertex 1. */
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
    /* nested dissection: `kids` receives a region's sub-regions */
    i64 *tmp, *seplist, *kids;
    double *level_w;
    int8_t *side, *target;
    void *block;
} work_t;

#define WEIGHT(w, u) ((w)->vwgt ? (w)->vwgt[u] : 1)

static int work_alloc(work_t *w, i64 n, const i64 *xadj, const i64 *adjncy,
                      const i64 *vwgt, i64 *region, int dissect)
{
    i64 nnz = xadj[n];
    size_t words = (size_t)(11 * n + 2 * nnz + 2);
    size_t bytes;
    char *p;
    if (dissect)
        words += (size_t)(3 * n + 11);
    bytes = words * sizeof(i64) + (dissect ? (size_t)(n + 1) * sizeof(double)
                                             + 2 * (size_t)n : 0);
    memset(w, 0, sizeof *w);
    w->block = p = malloc(bytes ? bytes : 1);
    if (!p)
        return NO_MEMORY;
    w->xadj = xadj;
    w->adjncy = adjncy;
    w->vwgt = vwgt;
    w->region = region;
    w->ecap = nnz + 1;
#define TAKE(field, type, count) \
    (w->field = (type *)p, p += (size_t)(count) * sizeof(type))
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
        TAKE(kids, i64, n + 9); /* components of > 2 vertices, or A and B */
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

/* Regions of at most this many vertices (every leaf of the default
 * nested dissection) keep each vertex set as a 128-bit mask. */
#define SMALL_REGION 128

typedef uint64_t set_t[2];

#define SET_HAS(set, l) (((set)[(l) >> 6] >> ((l) & 63)) & 1)
#define SET_ADD(set, l) ((set)[(l) >> 6] |= (uint64_t)1 << ((l) & 63))
#define SET_DEL(set, l) ((set)[(l) >> 6] &= ~((uint64_t)1 << ((l) & 63)))
#define SET_FIRST(set) \
    ((set)[0] ? __builtin_ctzll((set)[0]) : 64 + __builtin_ctzll((set)[1]))
#define FOR_EACH(l, set, word, bits)                                   \
    for (word = 0; word < 2; word++)                                   \
        for (bits = (set)[word];                                       \
             bits && ((l) = 64 * word + __builtin_ctzll(bits), 1);     \
             bits &= bits - 1)

/* Set bits of x, without the libgcc call __builtin_popcountll makes on
 * a base x86-64 target. */
static i64 popcount64(uint64_t x)
{
    x -= (x >> 1) & 0x5555555555555555ull;
    x = (x & 0x3333333333333333ull) + ((x >> 2) & 0x3333333333333333ull);
    x = (x + (x >> 4)) & 0x0f0f0f0f0f0f0f0full;
    return (i64)((x * 0x0101010101010101ull) >> 56);
}

/* The uneliminated vertices by degree: bucket[d] holds those of degree d,
 * `nonempty` the degrees with any.  Local ids ascend with vertex ids, so
 * the lowest id of the lowest degree is two first-bit searches. */
typedef struct {
    set_t bucket[SMALL_REGION], nonempty;
} degree_sets_t;

static void degree_add(degree_sets_t *ds, i64 l, i64 d)
{
    SET_ADD(ds->bucket[d], l);
    SET_ADD(ds->nonempty, d);
}

static void degree_del(degree_sets_t *ds, i64 l, i64 d)
{
    SET_DEL(ds->bucket[d], l);
    if (!(ds->bucket[d][0] | ds->bucket[d][1]))
        SET_DEL(ds->nonempty, d);
}

/* The adjacency of a region of at most SMALL_REGION vertices, listed
 * ascending, as masks over local ids (positions in `list`), into `adj`.
 * INCONSISTENT: the list does not ascend or the adjacency is not
 * symmetric (the general loops decide what that means). */
static int small_adjacency(work_t *w, const i64 *list, i64 size, i64 rid,
                           set_t *adj)
{
    const i64 *xadj = w->xadj, *adjncy = w->adjncy;
    i64 k, i, l, word;
    uint64_t bits;
    for (k = 0; k < size; k++) {
        if (k && list[k] <= list[k - 1])
            return INCONSISTENT;
        w->hpos[list[k]] = k;
    }
    for (k = 0; k < size; k++) {
        i64 u = list[k];
        adj[k][0] = adj[k][1] = 0;
        for (i = xadj[u]; i < xadj[u + 1]; i++) {
            i64 x = adjncy[i];
            if (x != u && w->region[x] == rid)
                SET_ADD(adj[k], w->hpos[x]);
        }
    }
    for (k = 0; k < size; k++)
        FOR_EACH(l, adj[k], word, bits)
            if (!SET_HAS(adj[l], k))
                return INCONSISTENT;
    return OK;
}

/* Whether the masks connect all `size` vertices. */
static int small_connected(const set_t *adj, i64 size)
{
    set_t seen = {1, 0}, frontier = {1, 0};
    i64 l, word;
    uint64_t bits;
    while (frontier[0] | frontier[1]) {
        set_t next = {0, 0};
        FOR_EACH(l, frontier, word, bits) {
            next[0] |= adj[l][0];
            next[1] |= adj[l][1];
        }
        frontier[0] = next[0] & ~seen[0];
        frontier[1] = next[1] & ~seen[1];
        seen[0] |= frontier[0];
        seen[1] |= frontier[1];
    }
    return popcount64(seen[0]) + popcount64(seen[1]) == size;
}

/* minimum_degree() on small_adjacency()'s masks (which it consumes): the
 * same exact external degrees, so the same order, with every reach,
 * element and degree a few mask operations.  `out` may be `list`. */
static void small_minimum_degree(const i64 *list, i64 size, set_t *adj,
                                 i64 *out)
{
    set_t elems[SMALL_REGION], vars[SMALL_REGION], alive = {0, 0};
    degree_sets_t ds;
    i64 degree[SMALL_REGION], order[SMALL_REGION], k, l, e, word;
    uint64_t bits, ebits;
    memset(&ds, 0, sizeof ds);
    for (k = 0; k < size; k++) {
        elems[k][0] = elems[k][1] = 0;
        degree[k] = popcount64(adj[k][0]) + popcount64(adj[k][1]);
        degree_add(&ds, k, degree[k]);
    }
    for (k = 0; k < size; k++) {
        i64 d = SET_FIRST(ds.nonempty), v = SET_FIRST(ds.bucket[d]);
        set_t r;
        degree_del(&ds, v, d);
        /* r = reach(v); the elements adjacent to v die in the new one. */
        r[0] = adj[v][0];
        r[1] = adj[v][1];
        FOR_EACH(e, elems[v], word, ebits) {
            r[0] |= vars[e][0];
            r[1] |= vars[e][1];
        }
        SET_DEL(r, v);
        alive[0] &= ~elems[v][0];
        alive[1] &= ~elems[v][1];
        SET_ADD(alive, v);
        vars[v][0] = r[0];
        vars[v][1] = r[1];
        order[k] = v;
        FOR_EACH(l, r, word, bits) {
            set_t reach;
            i64 w2;
            uint64_t b2;
            /* l loses v and its plain neighbours inside r; its elements
             * are the live ones and v. */
            adj[l][0] &= ~r[0];
            adj[l][1] &= ~r[1];
            SET_DEL(adj[l], v);
            elems[l][0] &= alive[0];
            elems[l][1] &= alive[1];
            SET_ADD(elems[l], v);
            reach[0] = adj[l][0];
            reach[1] = adj[l][1];
            FOR_EACH(e, elems[l], w2, b2) {
                reach[0] |= vars[e][0];
                reach[1] |= vars[e][1];
            }
            SET_DEL(reach, l);
            degree_del(&ds, l, degree[l]);
            degree[l] = popcount64(reach[0]) + popcount64(reach[1]);
            degree_add(&ds, l, degree[l]);
        }
    }
    for (k = 0; k < size; k++)
        order[k] = list[order[k]];
    memcpy(out, order, (size_t)size * sizeof(i64));
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

    if (size <= SMALL_REGION) {
        set_t adj[SMALL_REGION];
        if (small_adjacency(w, list, size, rid, adj) == OK) {
            small_minimum_degree(list, size, adj, out);
            return OK;
        }
    }

    for (k = 0; k < size; k++) {
        i64 u = list[k], len = 0, s = ++w->stamp;
        for (i = xadj[u]; i < xadj[u + 1]; i++) {
            i64 x = adjncy[i];
            if (x != u && w->region[x] == rid && w->mark[x] != s) {
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
            if (w->mark[x] != s && w->region[x] == rid) {
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
 * graph/separator.py on the induced subgraph, whose vertex 0 is list[0].
 * `have_bfs`: the search from list[0] is in `level` / `queue` already
 * (the component check ran it). */
static int separate(work_t *w, const i64 *list, i64 size, i64 rid,
                    int have_bfs, i64 counts[3])
{
    const i64 *xadj = w->xadj, *adjncy = w->adjncy;
    i64 ecc, sweep, i, k, depth, lev, best = -1, ns = 0, pass;
    i64 wa_int = 0, wb_int = 0;
    double total = 0.0, cum = 0.0, best_score = 0.0;
    int best_infeasible = 0;

    /* George-Liu: restart from a minimum-degree vertex of the deepest
     * level (lowest id on ties) until the eccentricity stops growing.
     * The level structure kept is always the last one computed. */
    if (!have_bfs && bfs(w, list[0], rid) != size)
        return INCONSISTENT;
    ecc = w->level[w->queue[size - 1]];
    for (sweep = 0; sweep < PERIPHERAL_SWEEPS; sweep++) {
        i64 cand = -1, cand_deg = 0, new_ecc;
        for (k = size - 1; k >= 0 && w->level[w->queue[k]] == ecc; k--) {
            i64 u = w->queue[k], deg = 0;
            for (i = xadj[u]; i < xadj[u + 1]; i++)
                deg += adjncy[i] != u && w->region[adjncy[i]] == rid;
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
        double weight = (double)WEIGHT(w, list[k]);
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
            wa_int += WEIGHT(w, u);
        } else {
            w->side[u] = 2;
            counts[2]++;
            wb_int += WEIGHT(w, u);
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
                wa_int += WEIGHT(w, u);
            } else if (w->target[k] == 2) {
                counts[2]++;
                wb_int += WEIGHT(w, u);
            } else {
                w->seplist[kept++] = u;
            }
        }
        ns = kept;
    }
    counts[0] = ns;
    return OK;
}

/* Give the vertices of `list` region label `rid` (-1: final). */
static void relabel(work_t *w, const i64 *list, i64 size, i64 rid)
{
    i64 k;
    for (k = 0; k < size; k++)
        w->region[list[k]] = rid;
}

/* Queue sub-region iperm[lo, lo + size) in w->kids. */
static void add_kid(work_t *w, i64 *n_kids, i64 lo, i64 size, i64 connected)
{
    w->kids[3 * *n_kids] = lo;
    w->kids[3 * *n_kids + 1] = size;
    w->kids[3 * *n_kids + 2] = connected;
    (*n_kids)++;
}

/* One region of the nested dissection: the vertices iperm[lo, lo + size),
 * ascending, all labelled lo + 1.  It is split into components, or into
 * A, B and a separator, or ordered as a leaf, in place; its sub-regions
 * go to w->kids, each labelled one plus the first position of its slice.
 * Live regions hold disjoint slices, so their labels are distinct, and a
 * finished leaf keeps a label no later region can take. */
static int dissect_region(work_t *w, i64 *iperm, i64 leaf_size, i64 lo,
                          i64 size, i64 connected, i64 *n_kids)
{
    i64 rid = lo + 1, counts[3], at[3], *list = iperm + lo, k;
    int have_bfs = 0, status = OK;
    *n_kids = 0;

    if (!connected && size > 2 && size <= leaf_size && size <= SMALL_REGION) {
        /* A leaf: its masks answer the component check too. */
        set_t adj[SMALL_REGION];
        if (small_adjacency(w, list, size, rid, adj) == OK
            && small_connected(adj, size)) {
            small_minimum_degree(list, size, adj, list);
            return OK;
        }
    }
    if (!connected) {
        /* Components in order of their smallest vertex. */
        i64 base = w->stamp, ncomp = 0, *csize = w->seplist;
        for (k = 0; k < size; k++) {
            i64 reached, q;
            if (w->mark[list[k]] > base)
                continue;
            reached = bfs(w, list[k], rid);
            if (ncomp == 0 && reached == size) {
                have_bfs = 1; /* connected, the common case: separate() */
                break;        /* starts from this very search */
            }
            for (q = 0; q < reached; q++)
                w->level[w->queue[q]] = ncomp;
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
            memcpy(w->tmp, list, (size_t)size * sizeof(i64));
            for (k = 0; k < size; k++)
                list[csize[w->level[w->tmp[k]]]++] = w->tmp[k];
            /* csize[c] is now the end of component c. */
            first = 0;
            for (c = 0; c < ncomp; c++) {
                i64 count = csize[c] - first;
                if (count > 2) {
                    relabel(w, list + first, count, lo + first + 1);
                    add_kid(w, n_kids, lo + first, count, 1);
                } else {
                    relabel(w, list + first, count, -1);
                }
                first = csize[c];
            }
            return OK;
        }
    }

    counts[0] = 0;
    if (size > leaf_size && size > 1)
        status = separate(w, list, size, rid, have_bfs, counts);
    if (status != OK)
        return status;
    if (counts[0] == 0 || counts[1] == 0 || counts[2] == 0) {
        /* A leaf, or separation failed (dense or tiny region). */
        return size > 2 ? minimum_degree(w, list, size, rid, list) : OK;
    }

    /* Layout: [A | B | separator], each ascending; A keeps the label. */
    at[1] = 0;
    at[2] = counts[1];
    at[0] = counts[1] + counts[2];
    memcpy(w->tmp, list, (size_t)size * sizeof(i64));
    for (k = 0; k < size; k++)
        list[at[w->side[w->tmp[k]]]++] = w->tmp[k];
    relabel(w, list + counts[1], counts[2], lo + counts[1] + 1);
    relabel(w, list + counts[1] + counts[2], counts[0], -1);
    add_kid(w, n_kids, lo, counts[1], 0);
    add_kid(w, n_kids, lo + counts[1], counts[2], 0);
    return OK;
}

/* The whole default nested dissection.  A region's vertex list is kept,
 * ascending, in the very slice of `iperm` the region will fill: every
 * split and every grouping by component is stable, so "lowest local id"
 * in the Python driver's relabelled subgraphs is "lowest original id"
 * here and no subgraph is ever built.  The regions wait on a stack of
 * (lo, size, connected), popped last in first out as the driver does. */
static int nested_dissection(i64 n, const i64 *xadj, const i64 *adjncy,
                             const i64 *vwgt, i64 leaf_size, i64 *iperm)
{
    i64 *region = malloc((size_t)(4 * n + 3) * sizeof(i64)), *stack;
    i64 sp = 0, v;
    work_t w;
    int status;
    if (!region)
        return NO_MEMORY;
    stack = region + n;
    status = work_alloc(&w, n, xadj, adjncy, vwgt, region, 1);
    if (status != OK) {
        free(region);
        return status;
    }
    for (v = 0; v < n; v++) {
        region[v] = 1;
        iperm[v] = v;
    }
    if (n > 0) {
        stack[0] = 0;
        stack[1] = n;
        stack[2] = 0;
        sp = 1;
    }
    while (sp > 0 && status == OK) {
        i64 n_kids, k;
        sp--;
        status = dissect_region(&w, iperm, leaf_size, stack[3 * sp],
                                stack[3 * sp + 1], stack[3 * sp + 2],
                                &n_kids);
        for (k = 0; k < 3 * n_kids; k++)
            stack[3 * sp + k] = w.kids[k];
        sp += n_kids;
    }
    free(w.block);
    free(region);
    return status;
}

i64 repro_nested_dissection(i64 n, const i64 *xadj, const i64 *adjncy,
                            const i64 *vwgt, i64 leaf_size, i64 *iperm)
{
    return nested_dissection(n, xadj, adjncy, vwgt, leaf_size, iperm);
}

/* ------------------------------------------------------------------ */
/* Elimination tree, postorder, column counts, supernode row sets      */
/* ------------------------------------------------------------------ */

/* Liu's algorithm with path compression on a symmetric pattern, read in
 * the order iperm (new -> old; perm its inverse), or as it is when iperm
 * is NULL: the tree does not depend on the order of a column's entries,
 * so the reordered pattern need not be built.  `ancestor`: n words. */
static void etree(i64 n, const i64 *colptr, const i64 *rowind,
                  const i64 *iperm, const i64 *perm, i64 *parent,
                  i64 *ancestor)
{
    i64 k, p;
    for (k = 0; k < n; k++) {
        i64 j = iperm ? iperm[k] : k;
        parent[k] = ancestor[k] = -1;
        for (p = colptr[j]; p < colptr[j + 1]; p++) {
            i64 i = perm ? perm[rowind[p]] : rowind[p];
            while (i != -1 && i < k) {
                i64 next = ancestor[i];
                ancestor[i] = k;
                if (next == -1)
                    parent[i] = k;
                i = next;
            }
        }
    }
}

/* Depth-first postorder, children in ascending order.  Returns how many
 * nodes it placed (fewer than n: `parent` is not a forest). */
static i64 postorder(i64 n, const i64 *parent, i64 *post)
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
 * postorder of `parent` — repro_order passes a postordered tree, and that
 * is what makes every loop below terminate. */
static i64 column_counts(i64 n, const i64 *colptr, const i64 *rowind,
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
 * received.  The pattern is symmetric, as for every symbolic pass, so the
 * entries of row i below their supernodes are the entries of column i
 * above the first column of i's own supernode.  Rows arrive ascending, so
 * every set comes out sorted without a sort.  fill[s] receives the size
 * of set s; unless `rows` is NULL the set is written to rows[ptr[s] ...],
 * at most ptr[s + 1] - ptr[s] rows of it (a slot sized from column counts
 * overflows only if they are wrong). */
static int row_sets(i64 n, const i64 *colptr, const i64 *rowind, i64 n_sn,
                    const i64 *snptr, const i64 *ptr, i64 *rows,
                    i64 *parent_sn, i64 *fill)
{
    i64 *mark = malloc((size_t)(n + n_sn + 1) * sizeof(i64));
    i64 *col2sn, s, i, p;
    if (!mark)
        return NO_MEMORY;
    col2sn = mark + n_sn;
    for (s = 0; s < n_sn; s++) {
        mark[s] = parent_sn[s] = -1;
        fill[s] = 0;
        for (i = snptr[s]; i < snptr[s + 1]; i++)
            col2sn[i] = s;
    }
    for (i = 0; i < n; i++) {
        i64 si = col2sn[i], first = snptr[si], t;
        for (p = colptr[i]; p < colptr[i + 1]; p++) {
            if (rowind[p] >= first)
                continue;
            for (t = col2sn[rowind[p]]; t != si && mark[t] != i;
                 t = parent_sn[t]) {
                mark[t] = i;
                if (fill[t] == 0)
                    parent_sn[t] = si;
                if (rows && ptr[t] + fill[t] < ptr[t + 1])
                    rows[ptr[t] + fill[t]] = i;
                fill[t]++;
            }
        }
    }
    free(mark);
    return OK;
}

/* ------------------------------------------------------------------ */
/* Amalgamation                                                        */
/* ------------------------------------------------------------------ */

/* The merge candidates, one per child: child c of parent p (contiguous,
 * both alive) at key (fill, c).  The Python loop keeps every pushed
 * (fill, c, p, vc, vp) in a heap and skips the stale ones; the valid ones
 * are exactly these — one per child, at the current versions — so popping
 * the least (fill, c) here is popping its least valid tuple.  An indexed
 * binary heap of keys: `pos[c]` is c's slot, -1 when c has no candidate. */
typedef struct {
    i64 fill, c;
} cand_t;

typedef struct {
    cand_t *heap;
    i64 *pos, size;
} candidates_t;

static int cand_less(cand_t a, cand_t b)
{
    return a.fill < b.fill || (a.fill == b.fill && a.c < b.c);
}

static void cand_place(candidates_t *h, i64 i, cand_t item)
{
    h->heap[i] = item;
    h->pos[item.c] = i;
}

static void cand_sift(candidates_t *h, i64 i)
{
    cand_t item = h->heap[i];
    i64 child;
    while (i > 0 && cand_less(item, h->heap[(i - 1) / 2])) {
        cand_place(h, i, h->heap[(i - 1) / 2]);
        i = (i - 1) / 2;
    }
    while ((child = 2 * i + 1) < h->size) {
        if (child + 1 < h->size
            && cand_less(h->heap[child + 1], h->heap[child]))
            child++;
        if (!cand_less(h->heap[child], item))
            break;
        cand_place(h, i, h->heap[child]);
        i = child;
    }
    cand_place(h, i, item);
}

static void cand_remove(candidates_t *h, i64 c)
{
    i64 i = h->pos[c];
    if (i < 0)
        return;
    h->pos[c] = -1;
    if (i < --h->size) {
        cand_place(h, i, h->heap[h->size]);
        cand_sift(h, i);
    }
}

/* nnz of one supernode of the (lower) factor. */
static i64 sn_nnz(i64 width, i64 nrows)
{
    return width * (width + 1) / 2 + width * nrows;
}

/* The merge state: a merged supernode points at the one that absorbed it
 * (`into`, path-compressed), so an alive supernode's parent is the root
 * of its original parent; `ends[c]` lists the supernodes whose columns
 * end at column c, which is where a grown parent finds its contiguous
 * children without scanning all of them. */
typedef struct {
    i64 *fcol, *lcol, *nrows, *parent, *into, *ends, *next;
    char *alive;
    candidates_t cand;
} amalg_t;

/* The alive supernode that holds supernode s now. */
static i64 amalg_root(amalg_t *a, i64 s)
{
    i64 root = s, up;
    while (a->into[root] >= 0)
        root = a->into[root];
    for (; s != root; s = up) {
        up = a->into[s];
        a->into[s] = root;
    }
    return root;
}

/* (Re)queue merging child c into parent p, at their current sizes. */
static void amalg_offer(amalg_t *a, i64 c, i64 p)
{
    candidates_t *h = &a->cand;
    i64 wc = a->lcol[c] - a->fcol[c], wp = a->lcol[p] - a->fcol[p];
    cand_t item;
    item.fill = sn_nnz(wc + wp, a->nrows[p]) - sn_nnz(wc, a->nrows[c])
                - sn_nnz(wp, a->nrows[p]);
    item.c = c;
    if (h->pos[c] < 0)
        h->pos[c] = h->size++;
    h->heap[h->pos[c]] = item;
    cand_sift(h, h->pos[c]);
}

/* The alive children of p whose columns end at column `col`. */
#define FOR_EACH_ENDING(a, g, col, p)                                    \
    for (g = (a)->ends[col]; g >= 0; g = (a)->next[g])                  \
        if ((a)->alive[g] && (a)->parent[g] >= 0                        \
            && amalg_root(a, (a)->parent[g]) == (p))

/* Cheapest-fill-first merging of children into their parents
 * (symbolic/supernodes.py, amalgamate): supernode s spans columns
 * [snptr[s], snptr[s+1]), has ptr[s+1] - ptr[s] rows below them and
 * parent_sn[s] > s (or -1).  A merge grows the parent downwards over the
 * contiguous child and keeps the parent's rows; merges stop at the first
 * one that costs more than the remaining budget, ratio x nnz(L).  After a
 * merge of c into p the candidates that change are p's into its parent,
 * the children that ended where p began (no longer contiguous, unless c
 * had no columns) and those that end where p now begins — the ones the
 * Python loop finds among all of p's children.  The survivors go to
 * `keep` in ascending first column; returns their number. */
static i64 amalgamate(i64 n_sn, const i64 *snptr, const i64 *ptr,
                      const i64 *parent_sn, double ratio, i64 *keep)
{
    amalg_t a;
    i64 *block, s, g, n_keep = 0, total = 0, n_cols;
    double budget;
    int status = OK;
    if (n_sn == 0)
        return 0;
    n_cols = snptr[n_sn] + 1;
    block = malloc((size_t)(9 * n_sn + n_cols) * sizeof(i64) + (size_t)n_sn);
    if (!block)
        return NO_MEMORY;
    a.fcol = block;
    a.lcol = a.fcol + n_sn;
    a.nrows = a.lcol + n_sn;
    a.parent = a.nrows + n_sn;
    a.into = a.parent + n_sn;
    a.next = a.into + n_sn;
    a.cand.heap = (cand_t *)(a.next + n_sn);
    a.cand.pos = (i64 *)(a.cand.heap + n_sn);
    a.ends = a.cand.pos + n_sn;
    a.alive = (char *)(a.ends + n_cols);
    a.cand.size = 0;
    for (g = 0; g < n_cols; g++)
        a.ends[g] = -1;
    for (s = n_sn - 1; s >= 0; s--) {
        a.fcol[s] = snptr[s];
        a.lcol[s] = snptr[s + 1];
        a.nrows[s] = ptr[s + 1] - ptr[s];
        a.parent[s] = parent_sn[s];
        a.into[s] = a.cand.pos[s] = -1;
        a.alive[s] = 1;
        a.next[s] = a.ends[a.lcol[s]];
        a.ends[a.lcol[s]] = s;
        total += sn_nnz(a.lcol[s] - a.fcol[s], a.nrows[s]);
    }
    budget = ratio * (double)total;
    for (s = 0; s < n_sn; s++)
        if (a.parent[s] >= 0 && a.lcol[s] == a.fcol[a.parent[s]])
            amalg_offer(&a, s, a.parent[s]);

    while (a.cand.size) {
        cand_t top = a.cand.heap[0];
        i64 c = top.c, p = amalg_root(&a, a.parent[c]), gp;
        if ((double)top.fill > budget)
            break; /* the cheapest remaining merge exceeds the budget */
        /* Merge c into p: p grows downwards and keeps its rows. */
        budget -= (double)top.fill;
        cand_remove(&a.cand, c);
        FOR_EACH_ENDING(&a, g, a.fcol[p], p)
            cand_remove(&a.cand, g);
        a.fcol[p] = a.fcol[c];
        a.alive[c] = 0;
        a.into[c] = p;
        gp = a.parent[p] < 0 ? -1 : amalg_root(&a, a.parent[p]);
        if (gp >= 0 && a.lcol[p] == a.fcol[gp])
            amalg_offer(&a, p, gp);
        FOR_EACH_ENDING(&a, g, a.fcol[p], p)
            amalg_offer(&a, g, p);
    }
    /* The survivors, stably by first column (index order, but around
     * supernodes without columns), must tile the columns. */
    for (s = 0; s < n_sn; s++)
        if (a.alive[s]) {
            for (g = n_keep++; g > 0 && a.fcol[keep[g - 1]] > a.fcol[s]; g--)
                keep[g] = keep[g - 1];
            keep[g] = s;
        }
    for (g = 1; g < n_keep; g++)
        if (a.fcol[keep[g]] != a.lcol[keep[g - 1]])
            status = INCONSISTENT;
    free(block);
    return status == OK ? n_keep : status;
}

/* ------------------------------------------------------------------ */
/* The plans of a fresh factorization: the factorization's plan of a  */
/* symbol, the assembly map, the symmetric permutation                 */
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
 * row r is the at[r].pos-th row of panel k iff at[r].stamp == k (both
 * int32: the callers check that panel ids and heights fit).  A panel's
 * rows ascend (a repeated row keeps its first place); the scatter of one
 * panel's rows makes every later lookup in it a load, not a search. */
typedef struct {
    const i64 *row_ptr, *rows;
    struct {
        int32_t pos, stamp;
    } *at; /* per row: its place, and the panel placed last */
} place_t;

static int place_init(place_t *pl, i64 n, const i64 *row_ptr, const i64 *rows)
{
    i64 r;
    pl->row_ptr = row_ptr;
    pl->rows = rows;
    pl->at = malloc((size_t)(n + 1) * sizeof(*pl->at));
    if (!pl->at)
        return NO_MEMORY;
    for (r = 0; r < n; r++)
        pl->at[r].stamp = -1;
    return OK;
}

static void place_panel(place_t *pl, i64 k)
{
    i64 i;
    for (i = pl->row_ptr[k + 1] - 1; i >= pl->row_ptr[k]; i--) {
        pl->at[pl->rows[i]].pos = (int32_t)(i - pl->row_ptr[k]);
        pl->at[pl->rows[i]].stamp = (int32_t)k;
    }
}

/* The position among panel k's rows of the first at least r (its height
 * if none) — the searchsorted of the Python bodies — with k placed. */
static i64 place_find(const place_t *pl, i64 k, i64 r)
{
    if (pl->at[r].stamp == k)
        return pl->at[r].pos;
    return lower_bound(pl->rows + pl->row_ptr[k],
                       pl->row_ptr[k + 1] - pl->row_ptr[k], r);
}

/* The factorization's plan (dag/builder.py, factor_plan): one pass over
 * a symbol builds what a first factorization reads, into arrays of the
 * same values as the NumPy builders' — the PanelLayout
 * (kernels/indexcache.py), the couple plan, checked as
 * CoupleMapCache.validate checks it, the factorization's flop count and
 * factor size (kernels/cost.py flops_total, SymbolMatrix.nnz), the row
 * blocks (dag/builder.py row_blocks) and the unit DAG in the executor's
 * form (dag/builder.py _build_unit, runtime/threaded.py _executor_tasks),
 * checked as kernels/native.py's DagTasks checks it. */

/* The checks of kernels/indexcache.py's CoupleMapCache.validate, in its
 * PLAN_CHECKS order (1-based). */
enum {
    CHECK_TGT_PTR = 1, CHECK_ORDER, CHECK_ASCENDING, CHECK_SLICE,
    CHECK_RL_PTR, CHECK_RANGE, CHECK_ROWS, CHECK_FACING
};

/* A couple plan over a symbol's layout, as the checks read it. */
typedef struct {
    i64 n_cblk, n_couples, n_local;
    const i64 *height, *width, *row_ptr, *rows, *tgt_ptr, *rl_ptr,
        *rows_local;
    const int32_t *src, *tgt, *i0, *i1;
} plan_view_t;

/* The checks of the couple plan's pointers and scalars: CHECK_TGT_PTR,
 * then CHECK_ORDER, CHECK_ASCENDING and CHECK_SLICE over every couple,
 * then CHECK_RL_PTR; 0 or the first that fails. */
static i64 check_couples(const plan_view_t *v)
{
    i64 t, c, fail = 0, K = v->n_cblk, C = v->n_couples;

    if (v->tgt_ptr[0] != 0 || v->tgt_ptr[K] != C)
        return CHECK_TGT_PTR;
    for (t = 0; t < K; t++)
        if (v->tgt_ptr[t + 1] < v->tgt_ptr[t])
            return CHECK_TGT_PTR;
    for (t = 0; t < K; t++)
        for (c = v->tgt_ptr[t]; c < v->tgt_ptr[t + 1]; c++)
            if (v->tgt[c] != t)
                return CHECK_TGT_PTR;

    for (c = 0; c < C && fail != CHECK_ORDER; c++) {
        i64 code = 0, k = v->src[c];
        if (!(0 <= k && k < v->tgt[c]))
            code = CHECK_ORDER;
        else if (c && v->tgt[c] == v->tgt[c - 1] && !(k > v->src[c - 1]))
            code = CHECK_ASCENDING;
        else if (!(0 <= v->i0[c] && v->i0[c] < v->i1[c]
                   && v->i1[c] <= v->height[k] - v->width[k]))
            code = CHECK_SLICE;
        if (code && (!fail || code < fail))
            fail = code;
    }
    if (fail)
        return fail;

    if (v->rl_ptr[0] != 0 || v->rl_ptr[C] != v->n_local)
        return CHECK_RL_PTR;
    for (c = 0; c < C; c++)
        if (v->rl_ptr[c + 1] - v->rl_ptr[c]
            != v->height[v->src[c]] - v->width[v->src[c]] - v->i0[c])
            return CHECK_RL_PTR;
    return 0;
}

/* The checks of couple c's row map, which check_couples has proven in
 * bounds: CHECK_RANGE (at once: a later check of the entry may not be
 * safe to make), CHECK_ROWS and CHECK_FACING; 0 or the first that
 * fails. */
static i64 check_rows(const plan_view_t *v, i64 c)
{
    i64 k = v->src[c], t = v->tgt[c], j;
    i64 m = v->rl_ptr[c + 1] - v->rl_ptr[c], n = v->i1[c] - v->i0[c];
    uint64_t height = (uint64_t)v->height[t];
    int other = 0, facing = 0; /* a row that differs; a facing row below */
    const i64 *rl = v->rows_local + v->rl_ptr[c];
    const i64 *target = v->rows + v->row_ptr[t];
    const i64 *tail = v->rows + v->row_ptr[k] + v->width[k] + v->i0[c];
    for (j = 0; j < m; j++) {
        if ((uint64_t)rl[j] >= height)
            return CHECK_RANGE;
        other |= target[rl[j]] != tail[j];
        facing |= (j < n) & (rl[j] >= v->width[t]);
    }
    return other ? CHECK_ROWS : facing ? CHECK_FACING : 0;
}

/* The scratch sizes of a checked plan into out[0..2]: the largest m * n
 * and n * width of a couple, and the widest panel. */
static void plan_maxima(const plan_view_t *v, i64 *out)
{
    i64 c, t;
    out[0] = out[1] = out[2] = 0;
    for (c = 0; c < v->n_couples; c++) {
        i64 m = v->rl_ptr[c + 1] - v->rl_ptr[c], n = v->i1[c] - v->i0[c];
        if (m * n > out[0])
            out[0] = m * n;
        if (n * v->width[v->src[c]] > out[1])
            out[1] = n * v->width[v->src[c]];
    }
    for (t = 0; t < v->n_cblk; t++)
        if (v->width[t] > out[2])
            out[2] = v->width[t];
}

/* Every index the kernels follow through a couple plan, proven in range:
 * 0 and the scratch sizes max_mn, max_nw, max_w in out[0..2], or the
 * first check that fails — the one the NumPy checks, each over every
 * couple in turn, report.  The caller has checked the lengths and
 * dtypes; the layout (height, width, row_ptr, rows) is the symbol's
 * own.  The plan pass below makes the same checks on the plan it
 * builds, each couple's row map while it is at hand. */
i64 repro_check_plan(i64 n_cblk, i64 n_couples, const i64 *height,
                     const i64 *width, const i64 *row_ptr, const i64 *rows,
                     const i64 *tgt_ptr, const int32_t *src,
                     const int32_t *tgt, const int32_t *i0,
                     const int32_t *i1, const i64 *rl_ptr, i64 n_local,
                     const i64 *rows_local, i64 *out)
{
    plan_view_t v = {n_cblk, n_couples, n_local, height, width, row_ptr,
                     rows, tgt_ptr, rl_ptr, rows_local, src, tgt, i0, i1};
    i64 c, code, fail = check_couples(&v);
    if (fail)
        return fail;
    for (c = 0; c < n_couples; c++) {
        code = check_rows(&v, c);
        if (code == CHECK_RANGE)
            return code;
        if (code && (!fail || code < fail))
            fail = code;
    }
    if (fail)
        return fail;
    plan_maxima(&v, out);
    return 0;
}

/* numpy's sum of a float64 vector (its pairwise_sum): blocks of at most
 * 128 summed in eight interleaved accumulators, larger runs halved at a
 * multiple of eight, so that a total here is numpy's, bit for bit. */
static double pairwise_sum(const double *a, i64 n)
{
    double r[8], res = 0.;
    i64 i, j, half;
    if (n < 8) {
        for (i = 0; i < n; i++)
            res += a[i];
        return res;
    }
    if (n > 128) {
        half = n / 2;
        half -= half % 8;
        return pairwise_sum(a, half) + pairwise_sum(a + half, n - half);
    }
    for (j = 0; j < 8; j++)
        r[j] = a[j];
    for (i = 8; i < n - n % 8; i += 8)
        for (j = 0; j < 8; j++)
            r[j] += a[i + j];
    res = ((r[0] + r[1]) + (r[2] + r[3])) + ((r[4] + r[5]) + (r[6] + r[7]));
    for (; i < n; i++)
        res += a[i];
    return res;
}

enum { LLT, LDLT, LU };

/* kernels/cost.py's flop counts as numpy evaluates them on int64 arrays:
 * powers in integers, then each operation in double, left to right. */
static double flops_gemm(i64 m, i64 n, i64 k)
{
    return 2.0 * (double)m * (double)n * (double)k;
}

static double flops_panel(i64 w, i64 b, int ft)
{
    double trsm = 1.0 * (double)b * (double)w * (double)w;
    if (ft == LDLT)
        return (double)(w * w * w) / 3.0 + (double)(w * w) + trsm
               + 1.0 * (double)w * (double)b;
    if (ft == LU)
        return 2.0 * (double)(w * w * w) / 3.0 - (double)(w * w) / 2.0
               - (double)w / 6.0 + 2.0 * trsm;
    return (double)(w * w * w) / 3.0 + (double)(w * w) / 2.0
           + (double)w / 6.0 + trsm;
}

static double flops_update(i64 m, i64 n, i64 w, int ft, int recompute_ld)
{
    double gemm = flops_gemm(m, n, w);
    if (ft == LDLT)
        return gemm + (recompute_ld ? 1.0 * (double)n * (double)w : 0.0);
    if (ft == LU)
        return gemm + flops_gemm(m > n ? m - n : 0, n, w);
    return gemm;
}

/* The first i in [0, n) with a[i] >= x (n if none), a ascending. */
static i64 lower_bound_f(const double *a, i64 n, double x)
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

/* The number of a[0 .. n) at most x, a ascending. */
static i64 count_upto(const i64 *a, i64 n, i64 x)
{
    i64 lo = 0, hi = n;
    while (lo < hi) {
        i64 mid = lo + (hi - lo) / 2;
        if (a[mid] <= x)
            lo = mid + 1;
        else
            hi = mid;
    }
    return lo;
}

/* A symbol's layout and couple plan, the caller's arrays, and what the
 * pass derives from them. */
typedef struct {
    i64 n_cblk;
    const i64 *blok_ptr, *face;
    i64 *width, *height, *below, *row_ptr, *tgt_ptr, *rl_ptr, *rows_local;
    int32_t *src, *tgt, *i0, *i1, *by_src;
    i64 *block_ptr, *block_rows;
    double *weight; /* per panel: own flops + the updates it receives */
} fplan_t;

/* The unit DAG in the executor's form, until the caller has room. */
typedef struct {
    i64 n_rows, n_tasks, n_edges, n_cblk;
    i64 *block_rows, *unit_panels, *unit_ptr, *cblk, *row_range,
        *succ_ptr, *succ_list, *n_deps, *records, *order;
    int8_t *kind;
} unit_dag_t;

static void unit_dag_free(unit_dag_t *d)
{
    if (!d)
        return;
    free(d->block_rows);
    free(d->unit_panels);
    free(d->unit_ptr);
    free(d->cblk);
    free(d->row_range);
    free(d->succ_ptr);
    free(d->succ_list);
    free(d->n_deps);
    free(d->records);
    free(d->order);
    free(d->kind);
    free(d);
}

/* dag/builder.py's _balanced_bounds: the nb + 1 boundaries of panel k's
 * row blocks, from its width to its height, cut where the running flops
 * of its rows (the update GEMMs each row receives, then its TRSM) cross
 * j / nb of the total, at least one row per block. */
static int balanced_bounds(const fplan_t *p, i64 k, i64 nb, int ft,
                           i64 *out)
{
    i64 w = p->width[k], h = p->height[k], c, e, j, prev = 0;
    double trsm = 1.0 * 1.0 * (double)w * (double)w, own, *cum;
    cum = calloc((size_t)(h - w), sizeof(double));
    if (!cum)
        return NO_MEMORY;
    own = ft == LDLT ? trsm + 1.0 * (double)w * 1.0
                     : ft == LU ? 2.0 * trsm : trsm;
    for (c = p->tgt_ptr[k]; c < p->tgt_ptr[k + 1]; c++) {
        double add = (ft == LU ? 2.0 : 1.0)
                     * flops_gemm(1, p->i1[c] - p->i0[c], p->width[p->src[c]]);
        for (e = p->rl_ptr[c]; e < p->rl_ptr[c + 1]; e++)
            if (p->rows_local[e] >= w)
                cum[p->rows_local[e] - w] += add;
    }
    for (j = 0; j < h - w; j++) {
        cum[j] = own + cum[j];
        if (j)
            cum[j] = cum[j - 1] + cum[j];
    }
    out[0] = w;
    for (j = 1; j < nb; j++) {
        double share = cum[h - w - 1] * (double)j / (double)nb;
        i64 cut = lower_bound_f(cum, h - w, share) + 1;
        if (cut < prev + 1)
            cut = prev + 1;
        if (cut > h - w - (nb - j))
            cut = h - w - (nb - j);
        out[j] = w + (prev = cut);
    }
    out[nb] = h;
    free(cum);
    return OK;
}

/* dag/builder.py's row_blocks: a panel splits when its weight reaches
 * min_split and its below rows span at least two blocks of row_block. */
static int row_blocks(fplan_t *p, int ft, i64 row_block, double min_split)
{
    i64 k, K = p->n_cblk;
    p->block_ptr[0] = 0;
    for (k = 0; k < K; k++) {
        i64 nb = (p->below[k] + row_block - 1) / row_block;
        if (nb < 2 || !(p->weight[k] >= min_split))
            nb = 0;
        p->block_ptr[k + 1] = p->block_ptr[k] + (nb ? nb + 1 : 0);
    }
    p->block_rows = malloc((size_t)(p->block_ptr[K] + 1) * sizeof(i64));
    if (!p->block_rows)
        return NO_MEMORY;
    for (k = 0; k < K; k++) {
        i64 nb = p->block_ptr[k + 1] - p->block_ptr[k] - 1;
        if (nb > 0 && balanced_bounds(p, k, nb, ft,
                                      p->block_rows + p->block_ptr[k]) != OK)
            return NO_MEMORY;
    }
    return OK;
}

typedef struct {
    i64 *head, *tail, n, cap;
} edges_t;

static int edge(edges_t *e, i64 head, i64 tail)
{
    if (e->n == e->cap) {
        i64 cap = 2 * e->cap + 16;
        i64 *h = realloc(e->head, (size_t)cap * sizeof(i64));
        if (!h)
            return NO_MEMORY;
        e->head = h;
        h = realloc(e->tail, (size_t)cap * sizeof(i64));
        if (!h)
            return NO_MEMORY;
        e->tail = h;
        e->cap = cap;
    }
    e->head[e->n] = head;
    e->tail[e->n++] = tail;
    return OK;
}

/* dag/builder.py's _block_edges: edges from split panel c's row blocks
 * to its split tree parent p's tasks, as offsets from each panel's DIAG
 * (0 the DIAG, 1 + j row block j), shifted by tc and tp.  A block of c
 * holding a row facing p precedes p's DIAG only; any other block, each
 * block of p its rows land in. */
static int block_edges(const fplan_t *p, i64 c, i64 q, i64 tc, i64 tq,
                       edges_t *e)
{
    i64 lo = p->tgt_ptr[q], hi = p->tgt_ptr[q + 1], cp = lo, j, o, b;
    const i64 *cb = p->block_rows + p->block_ptr[c];
    const i64 *qb = p->block_rows + p->block_ptr[q];
    i64 ncb = p->block_ptr[c + 1] - p->block_ptr[c];
    i64 nqb = p->block_ptr[q + 1] - p->block_ptr[q];
    char *seen;
    while (cp < hi && p->src[cp] < c)
        cp++;
    if (cp == hi || p->src[cp] != c)
        return INCONSISTENT;
    seen = calloc((size_t)(ncb * nqb), 1);
    if (!seen)
        return NO_MEMORY;
    for (j = 0; j < p->rl_ptr[cp + 1] - p->rl_ptr[cp]; j++) {
        o = count_upto(cb, ncb, p->width[c] + j);
        b = count_upto(qb, nqb, p->rows_local[p->rl_ptr[cp] + j]);
        if (o >= ncb || b >= nqb) {
            free(seen);
            return INCONSISTENT;
        }
        seen[o * nqb + b] = 1;
    }
    for (o = 0; o < ncb; o++)
        for (b = 0; b < nqb; b++)
            if (seen[o * nqb + b] && (b == 0 || !seen[o * nqb])
                && edge(e, tc + o, tq + b) != OK) {
                free(seen);
                return NO_MEMORY;
            }
    free(seen);
    return OK;
}

/* The task kinds of dag/tasks.py's TaskKind, and of the executor. */
enum { PANEL1D = 2, SUBTREE = 3, DIAG = 4, ROWS = 5 };
enum { PANELS = 2, BLOCK = 3 };

/* kernels/native.py's DagTasks checks, on the executor's arrays: the
 * successor CSR and its range, the in-degrees, the task kinds, the panel
 * ranges and block rows, and acyclicity — the LIFO Kahn order, into
 * d->order, must reach every task.  info[0..1]: the bit set of the task
 * kinds and the largest panel range end. */
static int check_dag(const unit_dag_t *d, const i64 *width,
                     const i64 *height, i64 *info)
{
    i64 n = d->n_tasks, t, e, top = 0, pos = 0, *indeg, *stack;
    if (d->succ_ptr[0] != 0 || d->succ_ptr[n] != d->n_edges)
        return INCONSISTENT;
    for (t = 0; t < n; t++)
        if (d->succ_ptr[t + 1] < d->succ_ptr[t])
            return INCONSISTENT;
    indeg = calloc((size_t)(2 * n + 1), sizeof(i64));
    if (!indeg)
        return NO_MEMORY;
    stack = indeg + n;
    info[0] = info[1] = 0;
    for (t = 0; t < n; t++) {
        const i64 *r = d->records + 4 * t;
        for (e = d->succ_ptr[t]; e < d->succ_ptr[t + 1]; e++) {
            if (!(0 <= d->succ_list[e] && d->succ_list[e] < n))
                goto inconsistent;
            indeg[d->succ_list[e]]++;
        }
        if (!(0 <= r[2] && r[2] <= BLOCK))
            goto inconsistent;
        info[0] |= (i64)1 << r[2];
        if (r[2] != BLOCK) {
            if (!(0 <= r[0] && r[0] <= r[1] && r[1] <= d->n_cblk))
                goto inconsistent;
            if (r[1] > info[1])
                info[1] = r[1];
        } else if (!(0 <= r[3] && r[3] < d->n_cblk)
                   || !((r[0] == 0 && r[1] == width[r[3]])
                        || (width[r[3]] <= r[0] && r[0] < r[1]
                            && r[1] <= height[r[3]]))) {
            goto inconsistent;
        }
    }
    for (t = 0; t < n; t++)
        if (indeg[t] != d->n_deps[t])
            goto inconsistent;
    for (t = 0; t < n; t++)
        if (!indeg[t])
            stack[top++] = t;
    while (top) {
        t = stack[--top];
        d->order[pos++] = t;
        for (e = d->succ_ptr[t]; e < d->succ_ptr[t + 1]; e++)
            if (!--indeg[d->succ_list[e]])
                stack[top++] = d->succ_list[e];
    }
    free(indeg);
    return pos == n ? OK : INCONSISTENT;
inconsistent:
    free(indeg);
    return INCONSISTENT;
}

/* dag/builder.py's unit_partition and _build_unit, in the executor's
 * form (runtime/threaded.py's _executor_tasks).  The panels are grouped
 * into units: every maximal subtree of the supernode tree whose weight
 * is at most `threshold` (a split panel weighs infinitely much), every
 * other panel alone.  A task per unit — a split panel's unit a DIAG and
 * a ROWS task per block — and edges along the unit tree. */
static int unit_dag(const fplan_t *p, double threshold, unit_dag_t *d)
{
    i64 K = p->n_cblk, k, u, t, U = 0, n_tasks, e, status = NO_MEMORY;
    i64 *parent = malloc((size_t)(6 * K + 2) * sizeof(i64));
    i64 *group, *unit_of, *roots, *first, *size;
    double *sub = malloc((size_t)(K + 1) * sizeof(double));
    edges_t ed = {NULL, NULL, 0, 0};
    if (!parent || !sub)
        goto done;
    group = parent + K;
    unit_of = group + K;
    roots = unit_of + K;
    size = roots + K;
    first = size + K; /* per unit: where its panels, then its tasks, start */

    /* supernode_parent and fused_subtree_groups */
    for (k = 0; k < K; k++) {
        i64 b = p->blok_ptr[k] + 1;
        parent[k] = b < p->blok_ptr[k + 1] ? p->face[b] : -1;
        sub[k] = p->block_ptr[k + 1] > p->block_ptr[k] ? INFINITY
                                                       : p->weight[k];
        group[k] = -1;
    }
    for (k = 0; k < K; k++)
        if (parent[k] >= 0)
            sub[parent[k]] += sub[k];
    for (k = K - 1; k >= 0; k--)
        if (!(sub[k] > threshold))
            group[k] = parent[k] >= 0 && group[parent[k]] >= 0
                           ? group[parent[k]] : k;

    /* unit_partition: units numbered by their topmost panel */
    for (k = 0; k < K; k++) {
        i64 top = group[k] >= 0 ? group[k] : k;
        if (top == k) {
            roots[U] = k;
            size[U] = 0;
            unit_of[k] = U++;
        }
    }
    for (k = 0; k < K; k++)
        size[unit_of[k] = unit_of[group[k] >= 0 ? group[k] : k]]++;
    d->unit_panels = malloc((size_t)(K + 1) * sizeof(i64));
    if (!d->unit_panels)
        goto done;
    first[0] = 0;
    for (u = 0; u < U; u++)
        first[u + 1] = first[u] + size[u];
    for (k = 0; k < K; k++)
        d->unit_panels[first[unit_of[k]]++] = k;

    /* Tasks in unit order: a unit's one task, or its DIAG then ROWS. */
    first[0] = 0;
    for (u = 0; u < U; u++) {
        i64 nb = p->block_ptr[roots[u] + 1] - p->block_ptr[roots[u]];
        first[u + 1] = first[u] + (nb ? nb : 1);
    }
    n_tasks = d->n_tasks = first[U];
    d->kind = malloc((size_t)(n_tasks + 1));
    d->unit_ptr = malloc((size_t)(n_tasks + 1) * sizeof(i64));
    d->cblk = malloc((size_t)(n_tasks + 1) * sizeof(i64));
    d->row_range = malloc((size_t)(2 * n_tasks + 1) * sizeof(i64));
    d->succ_ptr = calloc((size_t)(n_tasks + 2), sizeof(i64));
    d->n_deps = calloc((size_t)(n_tasks + 1), sizeof(i64));
    d->records = malloc((size_t)(4 * n_tasks + 1) * sizeof(i64));
    d->order = malloc((size_t)(n_tasks + 1) * sizeof(i64));
    if (!d->kind || !d->unit_ptr || !d->cblk || !d->row_range
        || !d->succ_ptr || !d->n_deps || !d->records || !d->order)
        goto done;
    d->unit_ptr[0] = 0;
    for (u = 0; u < U; u++) {
        i64 r = roots[u], nb = p->block_ptr[r + 1] - p->block_ptr[r] - 1;
        const i64 *bounds = p->block_rows + p->block_ptr[r];
        for (t = first[u]; t < first[u + 1]; t++) {
            i64 j = t - first[u];
            d->cblk[t] = r;
            d->kind[t] = nb < 0 ? (size[u] > 1 ? SUBTREE : PANEL1D)
                                : j ? ROWS : DIAG;
            d->unit_ptr[t + 1] = d->unit_ptr[t] + (j ? 0 : size[u]);
            d->row_range[2 * t] = nb < 0 ? 0 : j ? bounds[j - 1] : 0;
            d->row_range[2 * t + 1] = nb < 0 ? 0 : j ? bounds[j] : p->width[r];
        }
    }

    /* Edges: every last task of a child unit -> the parent unit's first
     * task, unless both are split (block_edges); a DIAG -> its ROWS. */
    for (u = 0; u < U; u++) {
        i64 up = parent[roots[u]], a, both;
        if (up < 0)
            continue;
        a = unit_of[up];
        both = first[u + 1] - first[u] > 1 && first[a + 1] - first[a] > 1;
        if (!both)
            for (t = first[u] + (first[u + 1] - first[u] > 1);
                 t < first[u + 1]; t++)
                if (edge(&ed, t, first[a]) != OK)
                    goto done;
    }
    for (t = 0; t < n_tasks; t++)
        if (d->kind[t] == ROWS && edge(&ed, first[unit_of[d->cblk[t]]], t) != OK)
            goto done;
    for (u = 0; u < U; u++) {
        i64 up = parent[roots[u]], a;
        if (up < 0)
            continue;
        a = unit_of[up];
        if (first[u + 1] - first[u] > 1 && first[a + 1] - first[a] > 1
            && (status = block_edges(p, roots[u], roots[a], first[u],
                                     first[a], &ed)) != OK)
            goto done;
    }
    status = NO_MEMORY;

    /* CSR by head, stable: within a head, the edges in the order above */
    d->n_edges = ed.n;
    d->succ_list = malloc((size_t)(ed.n + 1) * sizeof(i64));
    if (!d->succ_list)
        goto done;
    for (e = 0; e < ed.n; e++) {
        d->succ_ptr[ed.head[e] + 1]++;
        d->n_deps[ed.tail[e]]++;
    }
    for (t = 0; t < n_tasks; t++)
        d->succ_ptr[t + 1] += d->succ_ptr[t];
    {
        i64 *cursor = malloc((size_t)(n_tasks + 1) * sizeof(i64));
        if (!cursor)
            goto done;
        memcpy(cursor, d->succ_ptr, (size_t)(n_tasks + 1) * sizeof(i64));
        for (e = 0; e < ed.n; e++)
            d->succ_list[cursor[ed.head[e]]++] = ed.tail[e];
        free(cursor);
    }
    for (t = 0; t < n_tasks; t++) {
        i64 *r = d->records + 4 * t, block = d->kind[t] >= DIAG;
        r[0] = block ? d->row_range[2 * t] : d->unit_ptr[t];
        r[1] = block ? d->row_range[2 * t + 1] : d->unit_ptr[t + 1];
        r[2] = block ? BLOCK : PANELS;
        r[3] = d->cblk[t];
    }
    status = OK;
done:
    free(parent);
    free(sub);
    free(ed.head);
    free(ed.tail);
    return (int)status;
}

/* What repro_factor_plan reports in info[]. */
enum {
    INFO_COUPLES, INFO_LOCAL, INFO_ROWS, INFO_MAX_MN, INFO_MAX_NW,
    INFO_MAX_W, INFO_NNZ, INFO_BLOCK_ROWS, INFO_TASKS, INFO_EDGES,
    INFO_KINDS, INFO_MAX_HI
};

/* The factorization's plan of a symbol (see the top of this section),
 * into the caller's arrays: the layout (width, height, below, offset,
 * row_ptr, rows), the couple plan (src, tgt, i0, i1, tgt_ptr, src_ptr,
 * by_src, rl_ptr, rows_local) and the row blocks' pointers, arrays[0..15].
 * Count mode (fill == 0) writes the K-long ones (arrays[0..4], [10],
 * [11]; the others may be NULL) and the couple, row-map entry and layout
 * row counts into info[0..2] — or returns INCONSISTENT for a symbol this
 * pass does not build for: pointers that do not run from 0 to the blok
 * and column counts, a panel without bloks, a blok its owner array does
 * not give its panel, a face or a col2cblk entry that is no panel, a
 * blok reversed or outside [0, n), a panel with fewer rows than columns,
 * a tail that does not fit its panel, a size past int32; the NumPy
 * builders decide what it means.  Fill mode, after count mode on the
 * same arrays: the rest of the layout and the couple plan, checked
 * (INCONSISTENT if a check fails), with its scratch sizes in info[3..5].
 * With a factotype ft >= 0 (LLT, LDLT, LU; `mult` 4 for a complex dtype)
 * also the factor's nnz into info[6], flops_total into flops[0] and the
 * row blocks: their pointers into arrays[15], their boundaries, info[7]
 * of them, kept in *handle.  With `units` > 0 (FUSE_UNITS_PER_WORKER *
 * n_workers) also the unit DAG, fused up to flops[1] = max(total weight
 * / units, min_unit): info[8..9] tasks and edges, kept in *handle, and
 * the task kinds and largest panel range end its check found in
 * info[10..11].  repro_factor_plan_take copies *handle out. */
i64 repro_factor_plan(i64 n, i64 n_cblk, i64 n_blok, const i64 *blok_ptr,
                      const i64 *frow, const i64 *lrow, const i64 *face,
                      const i64 *owner, const i64 *cblk_ptr,
                      const i64 *col2cblk, int ft, double mult,
                      i64 row_block, double min_split, double units,
                      double min_unit, i64 *info, double *flops,
                      void **arrays, int fill, void **handle)
{
    fplan_t p = {.n_cblk = n_cblk, .blok_ptr = blok_ptr, .face = face};
    plan_view_t v;
    unit_dag_t *d = NULL;
    place_t pl;
    int rejected = 0;
    i64 K = n_cblk, k, b, t, c, g, *cursor, *src_ptr, *rows;
    i64 n_couples = 0, n_local = 0, lower = 0;
    double *pf = NULL, *uf = NULL;
    int status = NO_MEMORY;

    *handle = NULL;
    p.width = arrays[0];
    p.height = arrays[1];
    p.below = arrays[2];
    p.row_ptr = arrays[4];
    p.tgt_ptr = arrays[10];
    src_ptr = arrays[11];
    if (!fill) {
        /* One pass over the bloks: their checks, the layout's K-long
         * arrays, and the couples per source and per target.  A couple
         * is a maximal run of equal (owner, face) among the off-diagonal
         * bloks (a diagonal blok does not end a run), its tail `m` the
         * owner's off-diagonal rows from the run on: the `left` rows of
         * the panel less the rows before the run. */
        i64 *offset = arrays[3];
        if (blok_ptr[0] != 0 || blok_ptr[K] != n_blok || cblk_ptr[0] != 0
            || cblk_ptr[K] != n)
            return INCONSISTENT;
        for (k = 0; k < K; k++)
            if (blok_ptr[k + 1] <= blok_ptr[k] || cblk_ptr[k + 1] < cblk_ptr[k])
                return INCONSISTENT;
        for (g = 0; g < n; g++)
            if (!(0 <= col2cblk[g] && col2cblk[g] < K))
                return INCONSISTENT;
        memset(p.tgt_ptr, 0, (size_t)(K + 1) * sizeof(i64));
        offset[0] = p.row_ptr[0] = src_ptr[0] = 0;
        for (k = 0; k < K; k++) {
            i64 h = 0, left = 0, runs = 0, before = 0, f = -1;
            for (b = blok_ptr[k]; b < blok_ptr[k + 1]; b++) {
                if (!(owner[b] == k && 0 <= face[b] && face[b] < K
                      && 0 <= frow[b] && frow[b] <= lrow[b] && lrow[b] <= n))
                    return INCONSISTENT;
                h += lrow[b] - frow[b];
                if (face[b] == k)
                    continue;
                if (face[b] != f) {
                    f = face[b];
                    runs++;
                    before += left;
                    p.tgt_ptr[f + 1]++;
                }
                left += lrow[b] - frow[b];
            }
            p.width[k] = cblk_ptr[k + 1] - cblk_ptr[k];
            p.height[k] = h;
            p.below[k] = h - p.width[k];
            if (p.below[k] < 0 || (runs && left > p.below[k]))
                return INCONSISTENT;
            p.row_ptr[k + 1] = p.row_ptr[k] + h;
            offset[k + 1] = offset[k] + h * p.width[k];
            src_ptr[k + 1] = src_ptr[k] + runs;
            n_local += runs * left - before;
        }
        for (k = 0; k < K; k++)
            p.tgt_ptr[k + 1] += p.tgt_ptr[k];
        if (K >= INT32_MAX || p.row_ptr[K] >= INT32_MAX)
            return INCONSISTENT;
        info[INFO_COUPLES] = src_ptr[K];
        info[INFO_LOCAL] = n_local;
        info[INFO_ROWS] = p.row_ptr[K];
        return OK;
    }
    p.src = arrays[6];
    p.tgt = arrays[7];
    p.i0 = arrays[8];
    p.i1 = arrays[9];
    p.by_src = arrays[12];
    p.rl_ptr = arrays[13];
    p.rows_local = arrays[14];
    n_couples = info[INFO_COUPLES];
    rows = arrays[5];
    v = (plan_view_t){K, n_couples, info[INFO_LOCAL], p.height, p.width,
                      p.row_ptr, rows, p.tgt_ptr, p.rl_ptr, p.rows_local,
                      p.src, p.tgt, p.i0, p.i1};
    cursor = malloc((size_t)(K + 1) * sizeof(i64));
    if (!cursor || place_init(&pl, n, p.row_ptr, rows) != OK) {
        free(cursor);
        return NO_MEMORY;
    }
    memcpy(cursor, p.tgt_ptr, (size_t)(K + 1) * sizeof(i64));

    /* The rows of each panel, and its couples in (source, target) order,
     * each placed at its target's cursor: the (target, source) order. */
    for (k = 0, g = 0; k < K; k++) {
        i64 left = 0, f = -1, r = p.row_ptr[k];
        for (b = blok_ptr[k]; b < blok_ptr[k + 1]; b++) {
            for (t = frow[b]; t < lrow[b]; t++)
                rows[r++] = t;
            if (face[b] != k)
                left += lrow[b] - frow[b];
        }
        for (b = blok_ptr[k], c = -1; b < blok_ptr[k + 1]; b++) {
            if (face[b] == k)
                continue;
            if (face[b] != f) {
                f = face[b];
                c = cursor[f]++;
                p.by_src[g++] = (int32_t)c;
                p.src[c] = (int32_t)k;
                p.tgt[c] = (int32_t)f;
                p.i0[c] = p.i1[c] = (int32_t)(p.below[k] - left);
                p.rl_ptr[c + 1] = left;
            }
            p.i1[c] += (int32_t)(lrow[b] - frow[b]);
            left -= lrow[b] - frow[b];
        }
    }
    p.rl_ptr[0] = 0;
    for (c = 0; c < n_couples; c++)
        p.rl_ptr[c + 1] += p.rl_ptr[c];

    /* The row maps, target by target: rows_local[.] is the position of
     * each tail row of a source among the target's placed rows, checked
     * while it is at hand. */
    for (t = 0; t < K; t++) {
        if (p.tgt_ptr[t] < p.tgt_ptr[t + 1])
            place_panel(&pl, t);
        for (c = p.tgt_ptr[t]; c < p.tgt_ptr[t + 1]; c++) {
            i64 j, len = p.rl_ptr[c + 1] - p.rl_ptr[c];
            const i64 *tail = rows + p.row_ptr[p.src[c] + 1] - len;
            for (j = 0; j < len; j++)
                p.rows_local[p.rl_ptr[c] + j] = place_find(&pl, t, tail[j]);
            rejected |= check_rows(&v, c) != 0;
        }
    }
    free(cursor);
    free(pl.at);
    if (rejected || check_couples(&v))
        return INCONSISTENT;
    plan_maxima(&v, info + INFO_MAX_MN);
    if (ft < 0)
        return OK;

    /* flops_total and nnz: the panels, then the couples in plan order,
     * each summed as numpy sums; the weights: the updates a panel
     * receives added in source order, as bincount adds them. */
    pf = malloc((size_t)(2 * K + 1) * sizeof(double));
    uf = malloc((size_t)(n_couples + 1) * sizeof(double));
    d = calloc(1, sizeof(unit_dag_t));
    if (!pf || !uf || !d)
        goto done;
    p.weight = pf + K;
    for (k = 0; k < K; k++) {
        i64 w = p.width[k];
        pf[k] = flops_panel(w, p.below[k], ft);
        p.weight[k] = 0.0;
        lower += w * (w + 1) / 2 + w * p.below[k];
    }
    info[INFO_NNZ] = ft == LU ? 2 * lower - n : lower;
    for (c = 0; c < n_couples; c++)
        uf[c] = flops_update(p.below[p.src[c]] - p.i0[c], p.i1[c] - p.i0[c],
                             p.width[p.src[c]], ft, 0);
    flops[0] = (pairwise_sum(pf, K) + pairwise_sum(uf, n_couples)) * mult;
    for (g = 0; g < n_couples; g++) {
        c = p.by_src[g];
        p.weight[p.tgt[c]] += mult * flops_update(
            p.below[p.src[c]] - p.i0[c], p.i1[c] - p.i0[c],
            p.width[p.src[c]], ft, 1);
    }
    for (k = 0; k < K; k++)
        p.weight[k] = mult * pf[k] + p.weight[k];

    p.block_ptr = arrays[15];
    status = row_blocks(&p, ft, row_block, min_split);
    d->block_rows = p.block_rows;
    if (status != OK)
        goto done;
    d->n_rows = info[INFO_BLOCK_ROWS] = p.block_ptr[K];
    d->n_cblk = K;
    if (units > 0) {
        double threshold = pairwise_sum(p.weight, K) / units;
        if (min_unit > threshold)
            threshold = min_unit;
        flops[1] = threshold;
        if ((status = unit_dag(&p, threshold, d)) != OK
            || (status = check_dag(d, p.width, p.height,
                                   info + INFO_KINDS)) != OK)
            goto done;
        info[INFO_TASKS] = d->n_tasks;
        info[INFO_EDGES] = d->n_edges;
    }
    status = OK;
done:
    free(pf);
    free(uf);
    if (status != OK)
        unit_dag_free(d);
    else
        *handle = d;
    return status;
}

/* Copy repro_factor_plan's *handle into the caller's arrays (sized from
 * its info) and free it: the row-block boundaries, then with the unit
 * DAG its unit_panels, kind, unit_ptr, cblk, row_range, succ_ptr,
 * succ_list, n_deps, the executor's (lo, hi, kind, panel) records and
 * the LIFO Kahn order.  `arrays` NULL: only free it. */
void repro_factor_plan_take(void *handle, void **arrays)
{
    unit_dag_t *d = handle;
    i64 n = d->n_tasks;
    if (arrays) {
        memcpy(arrays[0], d->block_rows, (size_t)d->n_rows * sizeof(i64));
        if (d->order) {
            memcpy(arrays[1], d->unit_panels, (size_t)d->n_cblk * sizeof(i64));
            memcpy(arrays[2], d->kind, (size_t)n);
            memcpy(arrays[3], d->unit_ptr, (size_t)(n + 1) * sizeof(i64));
            memcpy(arrays[4], d->cblk, (size_t)n * sizeof(i64));
            memcpy(arrays[5], d->row_range, (size_t)(2 * n) * sizeof(i64));
            memcpy(arrays[6], d->succ_ptr, (size_t)(n + 1) * sizeof(i64));
            memcpy(arrays[7], d->succ_list,
                   (size_t)d->n_edges * sizeof(i64));
            memcpy(arrays[8], d->n_deps, (size_t)n * sizeof(i64));
            memcpy(arrays[9], d->records, (size_t)(4 * n) * sizeof(i64));
            memcpy(arrays[10], d->order, (size_t)n * sizeof(i64));
        }
    }
    unit_dag_free(d);
}

/* core/factor.py's assembly map: where each entry of a CSC pattern lands
 * in the factor arenas.  Entry (i, j) with i at or below the first column
 * of j's panel k goes to L: panel k, the row holding i, column j (read
 * from k's placed rows).  Otherwise, for LU only, it goes to U,
 * transposed: panel u of row i, the row holding j, column i — where its
 * transpose (j, i) lands in L.  The upper entries are sorted by row i (a
 * transpose of that side, O(n + nnz)), so that each panel u is placed
 * once and every lookup in it is a load, not a search.
 * Count mode (L_src == NULL): the entry counts of each side into
 * counts[0..1], or INCONSISTENT for pattern arrays that are not a CSC
 * pattern of nnz entries (the Python body decides what they mean).  Fill
 * mode, with those counts: the source indices and arena positions.
 * MISSING: the entry counts[2] has no row to land in (the first one). */
enum { MISSING = -3 };

i64 repro_assembly_map(i64 n, i64 nnz, const i64 *colptr,
                       const i64 *rowind, const i64 *cblk_ptr,
                       const i64 *col2cblk, const i64 *offset,
                       const i64 *width, const i64 *row_ptr, const i64 *rows,
                       int lu, i64 *counts, i64 *L_src, i64 *L_dst,
                       i64 *U_src, i64 *U_dst)
{
    i64 j, e, u, nl = 0, nu = 0, placed = -1, missing = -1;
    i64 *by_row, *slot, start;
    place_t pl;
    if (!L_src) {
        if (colptr[0] != 0 || colptr[n] != nnz)
            return INCONSISTENT;
        for (j = 0; j < n; j++)
            if (colptr[j + 1] < colptr[j])
                return INCONSISTENT;
        for (j = 0; j < n; j++)
            for (e = colptr[j]; e < colptr[j + 1]; e++) {
                if (!(0 <= rowind[e] && rowind[e] < n))
                    return INCONSISTENT;
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
    /* by_row[i + 1]: the upper entries of row i, then where they end in
     * slot, the upper entries grouped by row.  Up to the first missing
     * lower entry, U_dst holds each upper entry's column. */
    by_row = malloc((size_t)(n + 2 + (lu ? counts[1] : 0)) * sizeof(i64));
    if (!by_row) {
        free(pl.at);
        return NO_MEMORY;
    }
    memset(by_row, 0, (size_t)(n + 1) * sizeof(i64));
    slot = by_row + n + 1;
    for (j = 0; j < n && missing < 0; j++) {
        i64 k = col2cblk[j], fcol = cblk_ptr[k];
        for (e = colptr[j]; e < colptr[j + 1]; e++) {
            i64 i = rowind[e];
            if (i >= fcol) {
                if (k != placed)
                    place_panel(&pl, placed = k);
                if (pl.at[i].stamp != k) {
                    missing = e;
                    break;
                }
                L_src[nl] = e;
                L_dst[nl++] = offset[k] + pl.at[i].pos * width[k] + (j - fcol);
            } else if (lu) {
                U_src[nu] = e;
                U_dst[nu++] = j;
                by_row[i + 1]++;
            }
        }
    }
    for (j = 0; j < n && lu; j++)
        by_row[j + 1] += by_row[j];
    for (e = 0; e < nu; e++)
        slot[by_row[rowind[U_src[e]]]++] = e;
    /* Row i's entries are now slot[by_row[i - 1] .. by_row[i]). */
    start = 0;
    for (u = 0; u < (lu && n ? col2cblk[n - 1] + 1 : 0); u++) {
        i64 i, f = cblk_ptr[u], end = by_row[cblk_ptr[u + 1] - 1];
        if (start < end)
            place_panel(&pl, u);
        for (i = f; start < end; i++)
            for (; start < by_row[i]; start++) {
                i64 t = slot[start], col = U_dst[t];
                if (pl.at[col].stamp != u) {
                    if (missing < 0 || U_src[t] < missing)
                        missing = U_src[t];
                    continue;
                }
                U_dst[t] = offset[u] + pl.at[col].pos * width[u] + (i - f);
            }
    }
    free(by_row);
    free(pl.at);
    if (missing >= 0) {
        counts[2] = missing;
        return MISSING;
    }
    return OK;
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

/* ------------------------------------------------------------------ */
/* The analysis in three passes (symbolic/analyze.py)                  */
/* ------------------------------------------------------------------ */

/* Pass 1 when A's pattern is symmetric (the common case): A plus the
 * diagonal entries it lacks, in one sweep.  Entry (r, j)'s transpose is
 * the next unvisited entry of column r — columns are visited ascending
 * and rows ascend — and checking that it is (j, r) proves the symmetry
 * entry by entry.  Returns the entries written, or -1 at the first
 * entry that breaks the symmetry or the ascent of its column. */
static i64 symmetrize_symmetric(i64 n, const i64 *colptr, const i64 *rowind,
                                i64 *out_colptr, i64 *out_rowind,
                                i64 *tsrc, i64 *seen)
{
    i64 j, e, out = 0;
    memset(seen, 0, (size_t)n * sizeof(i64));
    out_colptr[0] = 0;
    for (j = 0; j < n; j++) {
        int diag = 0;
        for (e = colptr[j]; e < colptr[j + 1]; e++) {
            i64 r = rowind[e], t;
            if (e > colptr[j] && r <= rowind[e - 1])
                return -1;
            if (!diag && r >= j) {
                if (r > j) {
                    out_rowind[out] = j;
                    tsrc[out++] = -1;
                }
                diag = 1;
            }
            t = colptr[r] + seen[r]++;
            if (t >= colptr[r + 1] || rowind[t] != j)
                return -1;
            out_rowind[out] = r;
            tsrc[out++] = t;
        }
        if (!diag) {
            out_rowind[out] = j;
            tsrc[out++] = -1;
        }
        out_colptr[j + 1] = out;
    }
    return out;
}

/* Pass 1: the pattern of A + A^T with every diagonal entry, rows strictly
 * ascending in every column, in O(n + nnz).  tsrc[e] is the index in A of
 * the transpose of entry e — of A(j, r) for entry (r, j) — or -1 where A
 * has none; pass 2 writes its pattern from the transposes.  A symmetric
 * pattern takes one sweep (symmetrize_symmetric); any other, A^T by one
 * counting sort of the entries by row (columns ascend within a row), then
 * per column a merge of A's column, A^T's column and the diagonal.  The
 * output arrays hold 2 nnz(A) + n entries; returns how many were written,
 * or INCONSISTENT when a column of A is not strictly ascending (the
 * Python body decides what that means). */
i64 repro_symmetrize(i64 n, const i64 *colptr, const i64 *rowind,
                     i64 *out_colptr, i64 *out_rowind, i64 *tsrc)
{
    i64 nnz = colptr[n], j, e, out = 0;
    i64 *row_end = malloc((size_t)(n + 1) * sizeof(i64));
    by_row_t *by_row;
    if (!row_end)
        return NO_MEMORY;
    out = symmetrize_symmetric(n, colptr, rowind, out_colptr, out_rowind,
                               tsrc, row_end);
    if (out >= 0) {
        free(row_end);
        return out;
    }
    by_row = malloc((size_t)(nnz ? nnz : 1) * sizeof(by_row_t));
    if (!by_row) {
        free(row_end);
        return NO_MEMORY;
    }
    out = 0;
    memset(row_end, 0, (size_t)(n + 1) * sizeof(i64));
    for (e = 0; e < nnz; e++)
        row_end[rowind[e] + 1]++;
    for (j = 0; j < n; j++)
        row_end[j + 1] += row_end[j];
    /* row_end[r] moves from the start to the end of row r. */
    for (j = 0; j < n; j++)
        for (e = colptr[j]; e < colptr[j + 1]; e++) {
            by_row_t *at = by_row + row_end[rowind[e]]++;
            at->col = j;
            at->src = e;
        }
    out_colptr[0] = 0;
    for (j = 0; j < n; j++) {
        i64 a = colptr[j], a_end = colptr[j + 1];
        i64 t = j ? row_end[j - 1] : 0, t_end = row_end[j];
        int diag = 0;
        for (;;) {
            i64 r = INT64_MAX, from = -1;
            if (a < a_end)
                r = rowind[a];
            if (t < t_end && by_row[t].col < r)
                r = by_row[t].col;
            if (!diag && j < r)
                r = j;
            if (r == INT64_MAX)
                break;
            if (a < a_end && rowind[a] == r) {
                a++;
                if (a < a_end && rowind[a] <= r) {
                    free(row_end);
                    free(by_row);
                    return INCONSISTENT;
                }
            }
            if (t < t_end && by_row[t].col == r)
                from = by_row[t++].src;
            diag |= r == j;
            out_rowind[out] = r;
            tsrc[out++] = from;
        }
        out_colptr[j + 1] = out;
    }
    free(row_end);
    free(by_row);
    return out;
}

/* Pass 2 on a pattern from pass 1: the fill-reducing order, then the
 * elimination tree of the reordered pattern, read through the
 * permutation without building it, its postorder, the composed
 * permutation `perm` (old -> new), the tree relabelled in it (`parent`,
 * parent[j] > j), the reordered pattern and its column counts.  `given`
 * (old -> new) replaces nested dissection.  The pattern is symmetric, so
 * its reordering is that of its transpose, which one counting sort
 * writes with rows ascending: reading the columns in the new order,
 * entry (i, j) puts row perm[j] into column perm[i].  value_map[f] is
 * then `tsrc` (pass 1's index in A of each entry's transpose) of the
 * entry that wrote f: the index in A of f itself.  INCONSISTENT: the
 * pattern is not symmetric. */
i64 repro_order(i64 n, const i64 *colptr, const i64 *rowind,
                const i64 *tsrc, i64 leaf_size, const i64 *given,
                i64 *perm, i64 *parent, i64 *counts, i64 *out_colptr,
                i64 *out_rowind, i64 *value_map)
{
    i64 *iperm1 = malloc((size_t)(5 * n + 1) * sizeof(i64));
    i64 *perm1, *parent1, *post, *scratch, k, p, placed;
    int status = OK;
    if (!iperm1)
        return NO_MEMORY;
    perm1 = iperm1 + n;
    parent1 = perm1 + n;
    post = parent1 + n;
    scratch = post + n;
    if (given) {
        for (k = 0; k < n; k++)
            iperm1[given[k]] = k;
    } else {
        status = nested_dissection(n, colptr, rowind, NULL, leaf_size,
                                   iperm1);
    }
    if (status != OK)
        goto done;
    for (k = 0; k < n; k++)
        perm1[iperm1[k]] = k;

    etree(n, colptr, rowind, iperm1, perm1, parent1, scratch);
    placed = postorder(n, parent1, post);
    if (placed != n) {
        status = placed < 0 ? (int)placed : INCONSISTENT;
        goto done;
    }
    /* scratch: the rank of every node in the postorder; iperm1 becomes
     * the composed gather form. */
    for (k = 0; k < n; k++) {
        scratch[post[k]] = k;
        post[k] = iperm1[post[k]];
    }
    for (k = 0; k < n; k++) {
        perm[post[k]] = k;
        parent[scratch[k]] = parent1[k] < 0 ? -1 : scratch[parent1[k]];
    }
    for (k = 0; k < n; k++)
        if (parent[k] != -1 && parent[k] <= k)
            status = INCONSISTENT;
    if (status != OK)
        goto done;

    /* The reordered transpose: column perm[i] gets the rows of row i,
     * which arrive ascending; scratch: the cursor of every column. */
    memset(out_colptr, 0, (size_t)(n + 1) * sizeof(i64));
    for (p = 0; p < colptr[n]; p++)
        out_colptr[perm[rowind[p]] + 1]++;
    for (k = 0; k < n; k++) {
        out_colptr[k + 1] += out_colptr[k];
        scratch[k] = out_colptr[k];
    }
    for (k = 0; k < n; k++) {
        i64 j = post[k];
        for (p = colptr[j]; p < colptr[j + 1]; p++) {
            i64 at = scratch[perm[rowind[p]]]++;
            out_rowind[at] = k;
            value_map[at] = tsrc[p];
        }
    }
    /* The postordered tree is its own postorder. */
    for (k = 0; k < n; k++)
        scratch[k] = k;
    status = (int)column_counts(n, out_colptr, out_rowind, parent, scratch,
                                counts);
done:
    free(iperm1);
    return status;
}

/* Pass 3's result, until the caller has room for it. */
typedef struct {
    i64 n_cblk, n_blok, n;
    /* cblk_ptr, blok_ptr, face_ptr: n_cblk + 1; frow, lrow, face, owner:
     * n_blok; face_list: n_blok - n_cblk; col2cblk: n */
    i64 *cblk_ptr, *blok_ptr, *frow, *lrow, *face, *owner, *col2cblk,
        *face_ptr, *face_list;
} symbol_t;

/* Row set sizes that differ from the column counts. */
enum { MISMATCH = -4 };

/* The runs of panel k's below rows: [lo, hi) of its own supernode (the
 * columns of the panels after k, when a split made them rows of k), then
 * set[0 .. len).  A run ends at a row gap or a new facing panel.  Writes
 * the runs from blok b on when `sym->frow` is set; returns their number. */
static i64 panel_runs(symbol_t *sym, i64 k, i64 b, i64 lo, i64 hi,
                      const i64 *set, i64 len)
{
    const i64 *col2cblk = sym->col2cblk;
    i64 runs = 0, prev = -2, i, r;
    for (i = 0; i < hi - lo + len; i++) {
        r = i < hi - lo ? lo + i : set[i - (hi - lo)];
        if (r != prev + 1 || col2cblk[r] != col2cblk[prev]) {
            if (sym->frow) {
                sym->frow[b + runs] = r;
                sym->face[b + runs] = col2cblk[r];
                sym->owner[b + runs] = k;
            }
            runs++;
        }
        if (sym->frow)
            sym->lrow[b + runs - 1] = r + 1;
        prev = r;
    }
    return runs;
}

/* How many panels split_supernodes() cuts a supernode of w columns into:
 * enough for max_width (0: no splitting), at most one column each. */
static i64 split_count(i64 w, i64 max_width)
{
    i64 m;
    if (max_width <= 0)
        return 1;
    m = (w + max_width - 1) / max_width;
    return m < w ? m : w;
}

/* Pass 3 on pass 2's pattern, tree and counts: fundamental supernodes,
 * their row sets in one fill pass into slots sized from the column counts
 * (MISMATCH, with info[2..4] = the first supernode whose set does not
 * fit, its size and the count-derived one), amalgamation (`merge`: at
 * `ratio`), splitting (`max_width` > 0: panels at most that wide) and
 * the SymbolMatrix arrays, with the facing index.
 * The result stays in *out, info[0..1] = its panel and blok counts, until
 * repro_block_symbol_take copies it out.  INCONSISTENT: amalgamation
 * left a partition that does not tile the columns. */
i64 repro_block_symbol(i64 n, const i64 *colptr, const i64 *rowind,
                       const i64 *parent, const i64 *counts, int merge,
                       double ratio, i64 max_width, i64 *info,
                       void **out)
{
    i64 *snptr = malloc((size_t)(3 * n + 3) * sizeof(i64));
    i64 *ptr, *parent_sn, *fill = NULL, *keep = NULL, *rows = NULL;
    i64 *panels, *cursor, n_sn = 0, n_keep, K = 0, n_blok = 0, s, j, k, b;
    symbol_t *sym = NULL;
    int status = OK;
    *out = NULL;
    if (!snptr)
        return NO_MEMORY;
    ptr = snptr + n + 1;
    parent_sn = ptr + n + 1;

    /* Fundamental supernodes: column j continues column j - 1's iff it
     * is its parent and its count is one less. */
    for (j = 0; j < n; j++)
        if (j == 0 || !(parent[j - 1] == j && counts[j - 1] == counts[j] + 1))
            snptr[n_sn++] = j;
    snptr[n_sn] = n;

    /* Row sets, in slots sized counts[first column] - width. */
    ptr[0] = 0;
    for (s = 0; s < n_sn; s++) {
        i64 size = counts[snptr[s]] - (snptr[s + 1] - snptr[s]);
        ptr[s + 1] = ptr[s] + (size > 0 ? size : 0);
    }
    fill = malloc((size_t)(3 * n_sn + 1) * sizeof(i64));
    rows = malloc((size_t)(ptr[n_sn] + 1) * sizeof(i64));
    if (!fill || !rows) {
        status = NO_MEMORY;
        goto done;
    }
    keep = fill + n_sn;
    panels = keep + n_sn;
    status = row_sets(n, colptr, rowind, n_sn, snptr, ptr, rows, parent_sn,
                      fill);
    if (status != OK)
        goto done;
    for (s = 0; s < n_sn; s++) {
        i64 expected = counts[snptr[s]] - (snptr[s + 1] - snptr[s]);
        if (fill[s] != expected) {
            info[2] = s;
            info[3] = fill[s];
            info[4] = expected;
            status = MISMATCH;
            goto done;
        }
    }

    /* Amalgamation keeps whole supernodes: survivor keep[i] spans
     * columns [panels[i], panels[i + 1]) above its own row set. */
    if (merge) {
        n_keep = amalgamate(n_sn, snptr, ptr, parent_sn, ratio, keep);
        if (n_keep < 0) {
            status = (int)n_keep;
            goto done;
        }
    } else {
        for (s = 0; s < n_sn; s++)
            keep[s] = s;
        n_keep = n_sn;
    }
    panels[0] = 0;
    for (s = 0; s < n_keep; s++)
        panels[s + 1] = snptr[keep[s] + 1];

    sym = calloc(1, sizeof *sym);
    if (!sym) {
        status = NO_MEMORY;
        goto done;
    }
    *out = sym;
    /* Splitting: the panel count of every survivor, then the panels. */
    for (s = 0; s < n_keep; s++)
        K += split_count(panels[s + 1] - panels[s], max_width);
    sym->n = n;
    sym->n_cblk = K;
    sym->cblk_ptr = malloc((size_t)(4 * (K + 1) + n) * sizeof(i64));
    if (!sym->cblk_ptr) {
        status = NO_MEMORY;
        goto done;
    }
    sym->blok_ptr = sym->cblk_ptr + K + 1;
    sym->face_ptr = sym->blok_ptr + K + 1;
    sym->col2cblk = sym->face_ptr + K + 1;
    for (s = 0, k = 0; s < n_keep; s++) {
        i64 f = panels[s], w = panels[s + 1] - f, base, extra, i;
        i64 m = split_count(w, max_width);
        /* Near-equal widths: the first w % m panels one column wider. */
        base = w / m;
        extra = w % m;
        for (i = 0; i < m; i++, k++) {
            sym->cblk_ptr[k] = f;
            f += base + (i < extra);
        }
    }
    sym->cblk_ptr[K] = n;
    for (k = 0; k < K; k++)
        for (j = sym->cblk_ptr[k]; j < sym->cblk_ptr[k + 1]; j++)
            sym->col2cblk[j] = k;

    /* Bloks: count, then write; `s` follows the survivor of panel k. */
    for (int write = 0; write < 2; write++) {
        for (k = 0, s = 0, b = 0; k < K; k++) {
            i64 l, *set;
            while (panels[s + 1] <= sym->cblk_ptr[k])
                s++;
            l = panels[s + 1];
            set = rows + ptr[keep[s]];
            if (write) {
                sym->blok_ptr[k] = b;
                sym->frow[b] = sym->cblk_ptr[k];
                sym->lrow[b] = sym->cblk_ptr[k + 1];
                sym->face[b] = sym->owner[b] = k;
            }
            b += 1 + panel_runs(sym, k, b + 1, sym->cblk_ptr[k + 1], l, set,
                                ptr[keep[s] + 1] - ptr[keep[s]]);
        }
        if (!write) {
            n_blok = b;
            sym->n_blok = n_blok;
            sym->frow = malloc((size_t)(5 * n_blok - K + 1) * sizeof(i64));
            if (!sym->frow) {
                status = NO_MEMORY;
                goto done;
            }
            sym->lrow = sym->frow + n_blok;
            sym->face = sym->lrow + n_blok;
            sym->owner = sym->face + n_blok;
            sym->face_list = sym->owner + n_blok;
        }
    }
    sym->blok_ptr[K] = n_blok;

    /* The off-diagonal bloks facing each panel, ascending. */
    memset(sym->face_ptr, 0, (size_t)(K + 1) * sizeof(i64));
    for (b = 0; b < n_blok; b++)
        if (sym->face[b] != sym->owner[b])
            sym->face_ptr[sym->face[b] + 1]++;
    cursor = sym->col2cblk + n;
    for (k = 0; k < K; k++) {
        sym->face_ptr[k + 1] += sym->face_ptr[k];
        cursor[k] = sym->face_ptr[k];
    }
    for (b = 0; b < n_blok; b++)
        if (sym->face[b] != sym->owner[b])
            sym->face_list[cursor[sym->face[b]]++] = b;
    info[0] = K;
    info[1] = n_blok;
done:
    free(snptr);
    free(fill);
    free(rows);
    if (status != OK && sym) {
        free(sym->cblk_ptr);
        free(sym->frow);
        free(sym);
        *out = NULL;
    }
    return status;
}

/* Copy pass 3's result into the caller's arrays (sized from info) and
 * free it; `cblk_ptr` NULL: only free it. */
void repro_block_symbol_take(void *handle, i64 *cblk_ptr, i64 *blok_ptr,
                             i64 *frow, i64 *lrow, i64 *face, i64 *owner,
                             i64 *col2cblk, i64 *face_ptr, i64 *face_list)
{
    symbol_t *sym = handle;
    size_t K1 = (size_t)(sym->n_cblk + 1) * sizeof(i64);
    size_t nb = (size_t)sym->n_blok * sizeof(i64);
    if (cblk_ptr) {
        memcpy(cblk_ptr, sym->cblk_ptr, K1);
        memcpy(blok_ptr, sym->blok_ptr, K1);
        memcpy(face_ptr, sym->face_ptr, K1);
        memcpy(frow, sym->frow, nb);
        memcpy(lrow, sym->lrow, nb);
        memcpy(face, sym->face, nb);
        memcpy(owner, sym->owner, nb);
        memcpy(face_list, sym->face_list,
               (size_t)(sym->n_blok - sym->n_cblk) * sizeof(i64));
        memcpy(col2cblk, sym->col2cblk, (size_t)sym->n * sizeof(i64));
    }
    free(sym->cblk_ptr);
    free(sym->frow);
    free(sym);
}
