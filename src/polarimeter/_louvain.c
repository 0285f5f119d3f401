/* Louvain level loop for polarimeter.community, loaded through ctypes.

   It mirrors the pure-Python path in community.py operation for operation,
   so partitions and per-pass modularities are bit-identical to it:

   - every float sum runs in the order the Python code uses, and the build
     turns off FMA contraction (-ffp-contract=off) and fast-math;
   - the node visit order continues CPython's MT19937 stream from
     random.Random(seed).getstate(), drawing exactly what random.shuffle
     draws;
   - the best community is the highest score, ties going to the lowest id.

   Build (one library with _archive.c, as _native.py builds it):
   cc -O2 -ffp-contract=off -shared -fPIC -o LIB _louvain.c _archive.c -lm
*/

#include <math.h>
#include <stdint.h>
#include <stdlib.h>

/* ---- CPython's MT19937 (Modules/_randommodule.c) ----------------------- */

#define MT_N 624
#define MT_M 397

typedef struct {
    uint32_t state[MT_N];
    int64_t index;
} mt19937;

static uint32_t genrand_uint32(mt19937 *mt)
{
    static const uint32_t mag01[2] = {0x0U, 0x9908b0dfU};
    uint32_t *s = mt->state;
    uint32_t y;
    if (mt->index >= MT_N) {
        int kk;
        for (kk = 0; kk < MT_N - MT_M; kk++) {
            y = (s[kk] & 0x80000000U) | (s[kk + 1] & 0x7fffffffU);
            s[kk] = s[kk + MT_M] ^ (y >> 1) ^ mag01[y & 0x1U];
        }
        for (; kk < MT_N - 1; kk++) {
            y = (s[kk] & 0x80000000U) | (s[kk + 1] & 0x7fffffffU);
            s[kk] = s[kk + (MT_M - MT_N)] ^ (y >> 1) ^ mag01[y & 0x1U];
        }
        y = (s[MT_N - 1] & 0x80000000U) | (s[0] & 0x7fffffffU);
        s[MT_N - 1] = s[MT_M - 1] ^ (y >> 1) ^ mag01[y & 0x1U];
        mt->index = 0;
    }
    y = s[mt->index++];
    y ^= (y >> 11);
    y ^= (y << 7) & 0x9d2c5680U;
    y ^= (y << 15) & 0xefc60000U;
    y ^= (y >> 18);
    return y;
}

/* Random._randbelow(n) for any int64 n >= 2: rejection sampling on
   getrandbits(k), k = n.bit_length(). For k <= 32 that is the top k bits
   of one 32-bit draw; above, as in CPython, one whole draw is the low word
   and the top k - 32 bits of the next draw are the high word. */
static int64_t randbelow(mt19937 *mt, int64_t n)
{
    int k = 0;
    for (int64_t x = n; x; x >>= 1)
        k++;
    uint64_t r;
    do {
        if (k <= 32) {
            r = genrand_uint32(mt) >> (32 - k);
        } else {
            r = genrand_uint32(mt);
            r |= (uint64_t)(genrand_uint32(mt) >> (64 - k)) << 32;
        }
    } while (r >= (uint64_t)n);
    return (int64_t)r;
}

/* Random.shuffle over 0..n-1. */
static void shuffle_range(mt19937 *mt, int64_t *order, int64_t n)
{
    for (int64_t i = 0; i < n; i++)
        order[i] = i;
    for (int64_t i = n - 1; i > 0; i--) {
        int64_t j = randbelow(mt, i + 1);
        int64_t t = order[i];
        order[i] = order[j];
        order[j] = t;
    }
}

/* ---- arithmetic as CPython does it ------------------------------------- */

/* CPython evaluates x ** 2 as libm pow(|x|, 2.0); calling pow through a
   volatile pointer keeps the compiler from folding it into x * x, which
   may round differently. */
static double (*volatile const libm_pow)(double, double) = pow;

static double square(double x)
{
    return libm_pow(fabs(x), 2.0);
}

/* ---- one level of the graph -------------------------------------------- */

typedef struct {
    int64_t n;
    int64_t *indptr;
    int64_t *indices;
    double *weights;
    double *loops;
} level_graph;

/* Scratch arrays, each sized for the level-0 node count. */
typedef struct {
    int64_t *node2com, *order, *touched, *members, *offsets;
    double *degree, *tot, *internal, *acc;
    unsigned char *mark;
} scratch;

/* _degrees: weighted degree per node, self-loops counted twice. */
static void degrees(const level_graph *g, double *degree)
{
    for (int64_t u = 0; u < g->n; u++) {
        double d = 2.0 * g->loops[u];
        for (int64_t j = g->indptr[u]; j < g->indptr[u + 1]; j++)
            d += g->weights[j];
        degree[u] = d;
    }
}

static double current_q(int64_t n, const double *internal, const double *tot,
                        double two_m)
{
    double q = 0.0;
    for (int64_t c = 0; c < n; c++)
        q += internal[c] / two_m - square(tot[c] / two_m);
    return q;
}

typedef struct {
    int64_t capacity, count;
    int32_t *level;
    double *q;
} pass_records;

/* _one_level: local moves until a pass yields no improvement above
   min_gain; leaves the community of each node in s->node2com and returns
   the modularity reached. */
static double one_level(const level_graph *g, double m, double min_gain,
                        mt19937 *mt, scratch *s, int32_t level,
                        pass_records *rec)
{
    const int64_t n = g->n;
    const double two_m = 2.0 * m;
    int64_t *node2com = s->node2com;
    double *degree = s->degree, *tot = s->tot, *internal = s->internal;
    double *nbw = s->acc;
    unsigned char *mark = s->mark;

    degrees(g, degree);
    for (int64_t u = 0; u < n; u++) {
        node2com[u] = u;
        tot[u] = degree[u];
        internal[u] = 2.0 * g->loops[u];
    }
    double q = current_q(n, internal, tot, two_m);
    for (;;) {
        shuffle_range(mt, s->order, n);
        int64_t moved = 0;
        for (int64_t i = 0; i < n; i++) {
            const int64_t u = s->order[i];
            const int64_t cu = node2com[u];
            const double ku = degree[u];
            int64_t nt = 0;
            for (int64_t j = g->indptr[u]; j < g->indptr[u + 1]; j++) {
                const int64_t cv = node2com[g->indices[j]];
                if (!mark[cv]) {
                    mark[cv] = 1;
                    nbw[cv] = 0.0;
                    s->touched[nt++] = cv;
                }
                nbw[cv] += g->weights[j];
            }
            if (!mark[cu]) {
                mark[cu] = 1;
                nbw[cu] = 0.0;
                s->touched[nt++] = cu;
            }

            tot[cu] -= ku;
            internal[cu] -= 2.0 * nbw[cu] + 2.0 * g->loops[u];

            int64_t best_c = -1;
            double best_score = 0.0;
            for (int64_t t = 0; t < nt; t++) {
                const int64_t c = s->touched[t];
                const double score = nbw[c] - tot[c] * ku / two_m;
                if (best_c < 0 || score > best_score
                    || (score == best_score && c < best_c)) {
                    best_c = c;
                    best_score = score;
                }
                mark[c] = 0;
            }

            tot[best_c] += ku;
            internal[best_c] += 2.0 * nbw[best_c] + 2.0 * g->loops[u];
            node2com[u] = best_c;
            if (best_c != cu)
                moved++;
        }

        const double new_q = current_q(n, internal, tot, two_m);
        if (rec->count < rec->capacity) {
            rec->level[rec->count] = level;
            rec->q[rec->count] = new_q;
        }
        rec->count++;
        const double gain = new_q - q;
        q = new_q;
        if (moved == 0 || gain <= min_gain)
            return q;
    }
}

/* _renumber: relabel to dense 0..k-1 by order of first appearance; map is
   scratch of at least max(labels) + 1 entries. Returns k. */
static int64_t renumber(int64_t *labels, int64_t n, int64_t *map)
{
    int64_t k = 0;
    for (int64_t i = 0; i < n; i++)
        map[labels[i]] = -1;
    for (int64_t i = 0; i < n; i++) {
        if (map[labels[i]] < 0)
            map[labels[i]] = k++;
        labels[i] = map[labels[i]];
    }
    return k;
}

static int compare_int64(const void *a, const void *b)
{
    const int64_t x = *(const int64_t *)a, y = *(const int64_t *)b;
    return (x > y) - (x < y);
}

/* _aggregate: collapse communities into super-nodes. Each community's
   members are visited in ascending node order, so every loop and edge sum
   adds its terms in the order the Python code does. */
static void aggregate(const level_graph *g, const int64_t *node2com,
                      int64_t n_comms, scratch *s, level_graph *out)
{
    int64_t *offsets = s->offsets, *members = s->members;
    double *acc = s->acc;
    unsigned char *mark = s->mark;

    for (int64_t c = 0; c <= n_comms; c++)
        offsets[c] = 0;
    for (int64_t u = 0; u < g->n; u++)
        offsets[node2com[u] + 1]++;
    for (int64_t c = 0; c < n_comms; c++)
        offsets[c + 1] += offsets[c];
    for (int64_t u = 0; u < g->n; u++)
        members[offsets[node2com[u]]++] = u;
    /* offsets[c] now ends community c; its start is offsets[c - 1] */

    int64_t e = 0;
    out->n = n_comms;
    out->indptr[0] = 0;
    for (int64_t c = 0; c < n_comms; c++) {
        double loop = 0.0;
        int64_t nt = 0;
        for (int64_t i = c ? offsets[c - 1] : 0; i < offsets[c]; i++) {
            const int64_t u = members[i];
            loop += g->loops[u];
            for (int64_t j = g->indptr[u]; j < g->indptr[u + 1]; j++) {
                const int64_t v = g->indices[j];
                const int64_t cv = node2com[v];
                if (cv == c) {
                    if (u < v)
                        loop += g->weights[j];
                } else {
                    if (!mark[cv]) {
                        mark[cv] = 1;
                        acc[cv] = 0.0;
                        s->touched[nt++] = cv;
                    }
                    acc[cv] += g->weights[j];
                }
            }
        }
        qsort(s->touched, (size_t)nt, sizeof(int64_t), compare_int64);
        for (int64_t t = 0; t < nt; t++) {
            const int64_t cv = s->touched[t];
            out->indices[e] = cv;
            out->weights[e] = acc[cv];
            e++;
            mark[cv] = 0;
        }
        out->indptr[c + 1] = e;
        out->loops[c] = loop;
    }
}

/* ---- entry point -------------------------------------------------------- */

/* Run Louvain to completion on the symmetric CSR graph (indptr, indices,
   weights) of n nodes and total edge weight m, with the MT19937 state
   (state, index) of random.Random(seed).getstate(). The level loop is that
   of community._louvain_python.

   Writes each node's community (dense by first appearance) to assignment
   and returns their count k, or -1 when memory runs out. Pass records
   (level, modularity) go to pass_level/pass_q up to capacity; *passes gets
   the total number of passes, which may exceed capacity. */
int64_t louvain_levels(int64_t n, const int64_t *indptr, const int64_t *indices,
                       const double *weights, double m, double min_gain,
                       const uint32_t *state, int64_t index,
                       int64_t *assignment, int64_t capacity,
                       int32_t *pass_level, double *pass_q, int64_t *passes)
{
    const int64_t nnz = indptr[n];
    mt19937 mt;
    for (int i = 0; i < MT_N; i++)
        mt.state[i] = state[i];
    mt.index = index;
    pass_records rec = {capacity, 0, pass_level, pass_q};

    /* Every array of the run comes from one zeroed block, so each stays
       8-byte aligned: first the int64 arrays (four of n entries, three of
       n + 1, two of nnz), then the doubles (seven of n, two of nnz), then
       the n mark bytes. zero_loops are the level-0 graph's self-loops; the
       level buffers bufs[0] and bufs[1] take turns holding the aggregate. */
    const int64_t words = 11 * n + 3 * (n + 1) + 4 * nnz;
    int64_t *block = calloc((size_t)words * 8 + (size_t)n, 1), *ip = block;
    if (!block)
        return -1;
    scratch s;
    level_graph bufs[2];
    s.node2com = ip, ip += n;
    s.order = ip, ip += n;
    s.touched = ip, ip += n;
    s.members = ip, ip += n;
    s.offsets = ip, ip += n + 1;
    for (int b = 0; b < 2; b++) {
        bufs[b].indptr = ip, ip += n + 1;
        bufs[b].indices = ip, ip += nnz;
    }
    double *zero_loops = (double *)ip, *dp = zero_loops + n;
    s.degree = dp, dp += n;
    s.tot = dp, dp += n;
    s.internal = dp, dp += n;
    s.acc = dp, dp += n;
    for (int b = 0; b < 2; b++) {
        bufs[b].weights = dp, dp += nnz;
        bufs[b].loops = dp, dp += n;
    }
    s.mark = (unsigned char *)dp;

    level_graph g = {n, (int64_t *)indptr, (int64_t *)indices,
                     (double *)weights, zero_loops};
    for (int64_t i = 0; i < n; i++)
        assignment[i] = i;
    double prev_q = 0.0; /* modularity of the singleton partition */
    degrees(&g, s.degree);
    for (int64_t u = 0; u < n; u++)
        prev_q -= square(s.degree[u] / (2.0 * m));
    for (int32_t level = 0;; level++) {
        double q = one_level(&g, m, min_gain, &mt, &s, level, &rec);
        int64_t n_comms = renumber(s.node2com, g.n, s.members);
        for (int64_t i = 0; i < n; i++)
            assignment[i] = s.node2com[assignment[i]];
        if (q - prev_q <= min_gain || n_comms == g.n)
            break;
        prev_q = q;
        level_graph *next = &bufs[level % 2];
        aggregate(&g, s.node2com, n_comms, &s, next);
        g = *next;
    }
    const int64_t k = renumber(assignment, n, s.members);
    *passes = rec.count;
    free(block);
    return k;
}
