/* Compiled kernels. grow_forest, the C twin of kernels.grow_forest_py, grows
 * a whole forest in one call (a CART is a forest of one tree that takes
 * every row once and searches every feature): it sorts each feature's rows
 * once (presort), then for each tree t draws the bootstrap and the node
 * features from the tree's own generator, numpy's
 * default_rng(SeedSequence([seed, t])) repeated here (seed_state, pcg64),
 * and grows the tree from the presorted rows, so no node sorts anything.
 * It hands the trees out as one node table, which paydev.model.Nodes keeps
 * as it is and forest_sum reads: forest_sum predicts a whole forest, or one
 * CART, in one call, imputing missing values as it walks, as
 * kernels.forest_sum_py does through numpy. impute_median fills each
 * column's missing values with its median. The split search keeps the numpy
 * search's (kernels.best_split) order of work and int64 score expression,
 * so the trees are bit-identical (build without FMA contraction or
 * fast-math). Its trees grow on up to 4 threads, each taking the next tree
 * with its own scratch space, and land in tree order, so the thread count
 * changes no byte. A forest of n rows over p features holds the presort's p
 * * n 8-byte entries, and each thread p * n more, while it grows.
 * Functions return 0 (grow_forest: the node count), -1 when out of memory,
 * -2 when a node index is out of range, -3 when a label is neither 0 nor 1,
 * -4 where the entries cannot number the rows or numpy would draw
 * otherwise.
 *
 * scan_canonical and scan_git_log, two grammars over one scanning protocol,
 * read the canonical lines and the git-log records that the Python readers
 * would accept, in exactly the layout their writers give; they decline
 * everything else, raise nothing and copy out only the strings.
 *
 * sort_histories, local_calendar and activity are the History pass of
 * features.histories, to_local and developer_features: they sort and gather
 * each identity's commits, calendar them in local time (day, hour and
 * weekday) and compute one History's developer features, giving bit for bit
 * what their Python twins in paydev.features give; commit_rows gives each
 * commit's feature row. impute_median and activity take every median
 * through middle.
 *
 * logit_fit and logit_proba fit and score the logistic regression, and auc
 * ranks scores for roc_auc, each repeating its stdlib twin operation for
 * operation: every sum runs in index order from 0.0, and exp and log1p come
 * from libm, as Python's math module takes them. */

#include <math.h>
#include <pthread.h>
#include <stdatomic.h>
#include <stdint.h>
#include <stdlib.h>
#include <string.h>

/* ---------------------------------------------------------------- generator
 * numpy's SeedSequence (NEP 19: a pool of four words, hash-mixed from the
 * entropy) and its PCG64 (O'Neill, "PCG", 2014: a 128-bit LCG with the
 * XSL-RR 128/64 output, seeded from four 64-bit SeedSequence words), with
 * numpy's next_uint32, which hands out each 64-bit draw as two halves, low
 * first. */

static uint32_t hashmix(uint32_t value, uint32_t *hash)
{
    value ^= *hash;
    *hash *= 0x931e8875u;
    value *= *hash;
    return value ^ value >> 16;
}

static uint32_t mix(uint32_t x, uint32_t y)
{
    uint32_t r = 0xca01f9ddu * x - 0x4973f715u * y;
    return r ^ r >> 16;
}

/* SeedSequence(entropy).generate_state(n_out) into out, for the entropy
 * given as its n uint32 words: each int's words, least significant first,
 * as numpy splits it. */
void seed_state(const uint32_t *entropy, int64_t n, uint32_t *out, int64_t n_out)
{
    uint32_t pool[4], hash = 0x43b0d7e5u;
    for (int i = 0; i < 4; i++)
        pool[i] = hashmix(i < n ? entropy[i] : 0, &hash);
    for (int src = 0; src < 4; src++)
        for (int dst = 0; dst < 4; dst++)
            if (src != dst)
                pool[dst] = mix(pool[dst], hashmix(pool[src], &hash));
    for (int64_t src = 4; src < n; src++)
        for (int dst = 0; dst < 4; dst++)
            pool[dst] = mix(pool[dst], hashmix(entropy[src], &hash));
    hash = 0x8b51f9ddu;
    for (int64_t i = 0; i < n_out; i++) {
        uint32_t value = pool[i % 4] ^ hash;
        hash *= 0x58f38dedu;
        value *= hash;
        out[i] = value ^ value >> 16;
    }
}

typedef unsigned __int128 u128;

typedef struct {
    u128 state, inc;
    int has_uint32;
    uint32_t uinteger;
} pcg64;

#define PCG_MULT ((u128)2549297995355413924ULL << 64 | 4865540595714422341ULL)

static uint64_t pcg64_next64(pcg64 *g)
{
    g->state = g->state * PCG_MULT + g->inc;
    uint64_t x = (uint64_t)(g->state >> 64) ^ (uint64_t)g->state;
    unsigned rot = (unsigned)(g->state >> 122);
    return x >> rot | x << (-rot & 63);
}

static uint32_t pcg64_next32(pcg64 *g)
{
    if (g->has_uint32) {
        g->has_uint32 = 0;
        return g->uinteger;
    }
    uint64_t next = pcg64_next64(g);
    g->has_uint32 = 1;
    g->uinteger = (uint32_t)(next >> 32);
    return (uint32_t)next;
}

/* numpy's default_rng(SeedSequence(entropy)), entropy as in seed_state: its
 * bit generator g. */
static void pcg64_seed(pcg64 *g, const uint32_t *entropy, int64_t n)
{
    uint32_t w[8];
    uint64_t v[4];
    seed_state(entropy, n, w, 8);
    for (int i = 0; i < 4; i++)
        v[i] = (uint64_t)w[2 * i + 1] << 32 | w[2 * i];
    g->inc = ((u128)v[2] << 64 | v[3]) << 1 | 1;
    g->state = g->inc;  /* one step from 0 */
    g->state += (u128)v[0] << 64 | v[1];
    g->state = g->state * PCG_MULT + g->inc;
    g->has_uint32 = 0;
    g->uinteger = 0;
}

/* numpy's random_bounded_uint64(rng, 0, max, 0, 0) for max < 2**32 - 1:
 * Lemire's bounded draw over next_uint32 */
static int64_t bounded(pcg64 *g, int64_t max)
{
    if (max == 0)
        return 0;
    uint32_t excl = (uint32_t)max + 1;
    uint64_t m = (uint64_t)pcg64_next32(g) * excl;
    if ((uint32_t)m < excl) {
        uint32_t threshold = (UINT32_MAX - (uint32_t)max) % excl;
        while ((uint32_t)m < threshold)
            m = (uint64_t)pcg64_next32(g) * excl;
    }
    return (int64_t)(m >> 32);
}

/* numpy's random_interval(rng, max) for max <= 0xffffffff: the first
 * next_uint32 draw, masked to the smallest all-ones mask covering max, that
 * is at most max. */
static int64_t interval(pcg64 *g, int64_t max)
{
    uint32_t mask = (uint32_t)max, value;
    mask |= mask >> 1;
    mask |= mask >> 2;
    mask |= mask >> 4;
    mask |= mask >> 8;
    mask |= mask >> 16;
    while ((value = pcg64_next32(g) & mask) > (uint64_t)max)
        ;
    return value;
}

/* Generator.choice(p, k, replace=False) when numpy takes Floyd's algorithm
 * (p <= 10000 or k <= p // 50): Floyd's draws, then numpy's shuffle of the
 * result. seen[0..p) must be zero on entry and is zero again on return. */
static void draw_features(pcg64 *g, int64_t p, int64_t k, int64_t *out, uint8_t *seen)
{
    for (int64_t j = p - k; j < p; j++) {
        int64_t v = bounded(g, j);
        if (seen[v])
            v = j;
        seen[v] = 1;
        out[j - (p - k)] = v;
    }
    for (int64_t i = k - 1; i > 0; i--) {
        int64_t j = bounded(g, i), t = out[j];
        out[j] = out[i];
        out[i] = t;
    }
    for (int64_t i = 0; i < k; i++)
        seen[out[i]] = 0;
}

/* The bootstrap of n rows: copies[r] = how often
 * np.sort(rng.integers(0, n, size=n)) holds row r, from numpy's draws for
 * n - 1 < 2**32 - 1. */
static void draw_rows(pcg64 *g, int64_t n, int64_t *copies)
{
    memset(copies, 0, n * sizeof(int64_t));
    for (int64_t i = 0; i < n; i++)
        copies[bounded(g, n - 1)]++;
}

/* The draws of numpy's default_rng(SeedSequence(entropy)), entropy as in
 * seed_state: kind 0 gives k next_uint64 values, kind 1 k next_uint32
 * values, kind 2 the sorted bootstrap of n rows (n values) and kind 3 Floyd's
 * choice(n, k, replace=False). Kind 4 draws for n groups of sizes[0..n)
 * values: for each group of m, a = np.arange(m); rng.shuffle(a) (Fisher-Yates
 * from the end, over random_interval) and then rng.integers(k), m + 1 values,
 * for m <= 2**32 and 1 <= k < 2**32. state gets the generator's state
 * after them: state and inc, each as its high and low 64 bits, has_uint32
 * and uinteger. Returns 0, or -1 when out of memory. */
int draws(const uint32_t *entropy, int64_t n_entropy, int64_t kind, int64_t n, int64_t k,
          const int64_t *sizes, uint64_t *out, uint64_t *state)
{
    pcg64 g;
    pcg64_seed(&g, entropy, n_entropy);
    if (kind == 0 || kind == 1) {
        for (int64_t i = 0; i < k; i++)
            out[i] = kind == 0 ? pcg64_next64(&g) : pcg64_next32(&g);
    } else if (kind == 4) {
        for (int64_t c = 0; c < n; c++) {
            int64_t m = sizes[c];
            for (int64_t i = 0; i < m; i++)
                out[i] = (uint64_t)i;
            for (int64_t i = m - 1; i > 0; i--) {
                int64_t j = interval(&g, i);
                uint64_t t = out[j];
                out[j] = out[i];
                out[i] = t;
            }
            out[m] = (uint64_t)bounded(&g, k - 1);
            out += m + 1;
        }
    } else {
        int64_t *v = malloc((n > 0 ? n : 1) * sizeof(int64_t));
        uint8_t *seen = calloc(n > 0 ? n : 1, 1);
        if (v == NULL || seen == NULL) {
            free(v);
            free(seen);
            return -1;
        }
        if (kind == 2) {
            draw_rows(&g, n, v);
            for (int64_t r = 0, i = 0; r < n; r++)
                for (int64_t c = 0; c < v[r]; c++)
                    out[i++] = (uint64_t)r;
        } else {
            draw_features(&g, n, k, v, seen);
            for (int64_t i = 0; i < k; i++)
                out[i] = (uint64_t)v[i];
        }
        free(v);
        free(seen);
    }
    uint64_t after[6] = {(uint64_t)(g.state >> 64), (uint64_t)g.state, (uint64_t)(g.inc >> 64),
                         (uint64_t)g.inc, (uint64_t)g.has_uint32, g.uinteger};
    memcpy(state, after, sizeof(after));
    return 0;
}

/* ------------------------------------------------------------- imputation */

/* The k-th smallest of v[0..n), none of them NaN, with v reordered so that
 * none before k is larger and none after it smaller: Wirth's selection,
 * with the median of three as the pivot. */
static double select_kth(double *v, int64_t n, int64_t k)
{
    int64_t lo = 0, hi = n - 1;
    while (lo < hi) {
        double a = v[lo], b = v[lo + (hi - lo) / 2], c = v[hi];
        double x = a < b ? (b < c ? b : a < c ? c : a) : (a < c ? a : b < c ? c : b);
        int64_t i = lo, j = hi;
        do {
            while (v[i] < x)
                i++;
            while (x < v[j])
                j--;
            if (i <= j) {
                double t = v[i];
                v[i++] = v[j];
                v[j--] = t;
            }
        } while (i <= j);
        if (j < k)
            lo = i;
        if (k < i)
            hi = j;
    }
    return v[k];
}

/* The median of v[0..c), none of them NaN, reordering v; 0.0 where c is 0.
 * The two middle values a and b give (0.0 + a + b) / 2, np.median's value
 * (its sum turns -0.0 into 0.0), where that sum is finite, and
 * a / 2 + b / 2, which stays finite, where it is not. */
static double middle(double *v, int64_t c)
{
    if (c < 1)
        return 0.0;
    double b = select_kth(v, c, c / 2), a = b;
    if (c % 2 == 0) {  /* a: the largest value below rank c / 2 */
        a = v[0];
        for (int64_t i = 1; i < c / 2; i++)
            a = v[i] > a ? v[i] : a;
    }
    double total = 0.0 + a + b;
    return isfinite(total) ? total / 2 : a / 2 + b / 2;
}

/* out = X (n x p, row after row) with each NaN of column k replaced by
 * median[k], the middle of the column's other values. */
int impute_median(const double *X, int64_t n, int64_t p, double *out, double *median)
{
    double *v = malloc((n > 0 ? n : 1) * sizeof(double));
    if (v == NULL)
        return -1;
    for (int64_t k = 0; k < p; k++) {
        int64_t c = 0;
        for (int64_t r = 0; r < n; r++)
            if (!isnan(X[r * p + k]))
                v[c++] = X[r * p + k];
        median[k] = middle(v, c);
        for (int64_t r = 0; r < n; r++)
            out[r * p + k] = isnan(X[r * p + k]) ? median[k] : X[r * p + k];
    }
    free(v);
    return 0;
}

/* ------------------------------------------------------------------ forests */

/* The threshold between neighbouring distinct values a < b: their midpoint,
 * or a where the midpoint is not in [a, b) (it rounds up to b when a and b
 * are adjacent doubles, and overflows to -inf or inf past the largest
 * doubles), so that `x <= threshold` sends exactly the rows up to a left.
 * Keep in sync with kernels.threshold_between. */
static double threshold_between(double a, double b)
{
    double mid = (a + b) / 2.0;
    return a <= mid && mid < b ? mid : a;
}

static double node_score(int64_t n, int64_t pos)
{
    int64_t neg = n - pos;
    return (double)(n * n - pos * pos - neg * neg) / (double)n;
}

/* A double's sort key: the keys' unsigned order is the doubles' order, with
 * every NaN last, where numpy sorts NaN. -0.0 and 0.0 share a key, so they
 * keep their row order, as in numpy's stable sort: a threshold that falls
 * at the last zero of a run then has the twin's sign. */
static uint64_t sort_key(double v)
{
    uint64_t bits;
    if (isnan(v))
        return UINT64_MAX;
    v += 0.0; /* -0.0 becomes 0.0 */
    memcpy(&bits, &v, sizeof(bits));
    return bits >> 63 ? ~bits : bits | (uint64_t)1 << 63;
}

/* A sort key and what travels with it through radix_sort */
typedef struct { uint64_t key, val; } Pair;

/* Sorts a[0..n) by key, equal keys in their order: an LSD radix sort with
 * 8-bit digits that skips each digit all keys share, through the n pairs of
 * scratch at `to`. Returns where the sorted pairs are, a or to. */
static Pair *radix_sort(Pair *a, Pair *to, int64_t n)
{
    int64_t count[8][256] = {{0}};
    for (int64_t i = 0; i < n; i++)
        for (int d = 0; d < 8; d++)
            count[d][a[i].key >> 8 * d & 255]++;
    for (int d = 0; d < 8 && n > 0; d++) {
        int64_t *c = count[d];
        if (c[a[0].key >> 8 * d & 255] == n)
            continue;
        for (int64_t b = 0, at = 0; b < 256; b++) {
            int64_t size = c[b];
            c[b] = at;
            at += size;
        }
        for (int64_t i = 0; i < n; i++)
            to[c[a[i].key >> 8 * d & 255]++] = a[i];
        Pair *t = a;
        a = to;
        to = t;
    }
    return a;
}

/* One of a tree's rows in one feature's order, as rank << 32 | row << 1 | y:
 * rank numbers the feature's distinct sort keys from 0 up, so -0.0 and 0.0
 * share a rank, and every NaN shares the last one. Rows fit in 31 bits. */
typedef uint64_t Entry;
#define RANK(e) ((e) >> 32)
#define ROW(e) ((int64_t)((e) >> 1 & 0x7fffffff))

/* sorted[k * n ..) = the entries of the rows 0..n-1, each once, in ascending
 * order of column k of X (n x p, row after row), equal values in row order.
 * pairs holds 2n pairs of scratch. */
static void presort(const double *X, int64_t n, int64_t p, const int8_t *y, Entry *sorted,
                    Pair *pairs)
{
    for (int64_t k = 0; k < p && n > 0; k++) {
        for (int64_t r = 0; r < n; r++)
            pairs[r] = (Pair){sort_key(X[r * p + k]), (uint64_t)r << 1 | (uint64_t)y[r]};
        const Pair *a = radix_sort(pairs, pairs + n, n);
        Entry *e = sorted + k * n;
        uint64_t rank = 0;
        e[0] = a[0].val;
        for (int64_t i = 1; i < n; i++) {
            rank += a[i].key != a[i - 1].key;
            e[i] = rank << 32 | a[i].val;
        }
    }
}

typedef struct { int64_t node, start, end, depth; } Job;

/* The scratch space of one thread that grows trees of n rows over p
 * features, which each of its trees reuses: its seed words, how often the
 * tree holds each row, its entries, its node arrays (capacity 2n - 1) and
 * its importance */
typedef struct {
    uint32_t *entropy;
    int64_t *copies, *feats, *feature, *left, *right, *count, *npos;
    double *threshold, *importance;
    Entry *ent, *tmp;
    uint8_t *goes_left, *seen;
    Job *stack;
} Scratch;

static void free_scratch(Scratch *s)
{
    void *parts[] = {s->entropy, s->copies, s->feats, s->feature, s->left, s->right, s->count,
                     s->npos, s->threshold, s->importance, s->ent, s->tmp, s->goes_left,
                     s->seen, s->stack};
    for (size_t k = 0; k < sizeof(parts) / sizeof(parts[0]); k++)
        free(parts[k]);
}

/* Allocates s for trees of n rows over p features, seeded from n_seed
 * words and the tree's number; 0, or -1 when out of memory, with s freed. */
static int alloc_scratch(Scratch *s, int64_t n, int64_t p, int64_t n_seed)
{
    int64_t cap = n > 0 ? n : 1, wide = p > 0 ? p : 1;
    *s = (Scratch){
        .entropy = malloc((n_seed + 2) * sizeof(uint32_t)),
        .copies = malloc(cap * sizeof(int64_t)),
        .feats = malloc(wide * sizeof(int64_t)),
        .feature = malloc(2 * cap * sizeof(int64_t)),
        .left = malloc(2 * cap * sizeof(int64_t)),
        .right = malloc(2 * cap * sizeof(int64_t)),
        .count = malloc(2 * cap * sizeof(int64_t)),
        .npos = malloc(2 * cap * sizeof(int64_t)),
        .threshold = malloc(2 * cap * sizeof(double)),
        .importance = malloc(wide * sizeof(double)),
        .ent = malloc((wide * cap + 2) * sizeof(Entry)),
        .tmp = malloc(cap * sizeof(Entry)),
        .goes_left = malloc(cap),
        .seen = calloc(wide, 1),
        .stack = malloc((cap + 1) * sizeof(Job)),  /* live jobs hold disjoint rows */
    };
    if (s->entropy && s->copies && s->feats && s->feature && s->left && s->right && s->count
        && s->npos && s->threshold && s->importance && s->ent && s->tmp && s->goes_left
        && s->seen && s->stack)
        return 0;
    free_scratch(s);
    return -1;
}

static int cmp_int64(const void *a, const void *b)
{
    int64_t x = *(const int64_t *)a, y = *(const int64_t *)b;
    return (x > y) - (x < y);
}

/* Grows one tree over the rows of X (n x p, labels y) that s->copies
 * counts, n in all, into s's node arrays, and returns its node count; the
 * split gains go to s->importance. sorted[k * n ..) holds presort's entries
 * of the rows in ascending order of feature k. maxdepth < 0 means
 * unbounded. rng NULL searches every feature at every node; otherwise each
 * node draws mtry < p features from rng, as
 * np.sort(rng.choice(p, mtry, replace=False)) would. Preorder DFS with the
 * left child first; a split node's children are the next two node rows.
 *
 * Feature k's entries ent[k * n .. (k + 1) * n) hold the tree's rows in
 * feature k's order, each as often as the tree holds it. A node owns the
 * same span of every feature's entries, so its split search reads each
 * candidate feature's span in sorted order, and a kept split
 * stable-partitions every span by the side each row goes to. Only
 * neighbouring entries of distinct ranks are split between, so a NaN is not
 * split from the NaN after it, where `<=` could not tell them apart; the
 * order among equal values changes neither the counts nor the threshold
 * there, which is taken from the two rows' values in X. So the splits are
 * those of kernels.best_split, and its int64 score expression is kept. */
static int64_t grow_tree(const double *X, int64_t n, int64_t p, const int8_t *y,
                         const Entry *sorted, int64_t minsplit, double cp, int64_t maxdepth,
                         int64_t mtry, pcg64 *rng, Scratch *s)
{
    int64_t cap = n > 0 ? n : 1, *feats = s->feats, *feature = s->feature, *left = s->left,
            *right = s->right, *count = s->count, *npos = s->npos;
    double *threshold = s->threshold, *importance = s->importance;
    Entry *ent = s->ent, *tmp = s->tmp;
    uint8_t *goes_left = s->goes_left;
    Job *stack = s->stack;

    int64_t pos_root = 0;
    for (int64_t r = 0; r < n; r++)
        pos_root += s->copies[r] * y[r];
    for (int64_t k = 0; k < p; k++) {
        Entry *e = ent + k * cap;
        for (const Entry *x = sorted + k * n, *end = x + n; x < end; x++) {
            /* most rows are held 0, 1 or 2 times, so two copies are written
             * without a branch; later entries overwrite the copies a row does
             * not need (after the last feature, 2 spare entries take them) */
            int64_t c = s->copies[ROW(*x)];
            e[0] = *x;
            e[1] = *x;
            for (int64_t t = 2; t < c; t++)
                e[t] = *x;
            e += c;
        }
        importance[k] = 0.0;
        feats[k] = k;
    }

    int64_t root_err = n - (pos_root > n - pos_root ? pos_root : n - pos_root);
    feature[0] = left[0] = right[0] = -1;
    threshold[0] = 0.0;
    count[0] = n;
    npos[0] = pos_root;
    int64_t m = 1, top = 0;
    stack[top++] = (Job){0, 0, n, 0};
    while (top > 0) {
        Job job = stack[--top];
        int64_t nn = count[job.node], pos = npos[job.node], neg = nn - pos;
        if (pos == 0 || pos == nn || nn < minsplit)
            continue;
        if (maxdepth >= 0 && job.depth >= maxdepth)
            continue;
        if (rng != NULL) {
            draw_features(rng, p, mtry, feats, s->seen);
            qsort(feats, mtry, sizeof(int64_t), cmp_int64);
        }

        /* ties break to the lowest feature, then the lowest threshold; the
         * rows up to `at` of the best feature go left */
        int64_t f = -1, at = 0, pos_l = 0;
        double child_score = node_score(nn, pos);
        for (int64_t k = 0; k < mtry; k++) {
            const Entry *e = ent + feats[k] * cap + job.start;
            if (RANK(e[0]) == RANK(e[nn - 1]))  /* constant in this node */
                continue;
            int64_t pl = 0;
            for (int64_t i = 0; i + 1 < nn; i++) {
                pl += e[i] & 1;
                if (RANK(e[i]) == RANK(e[i + 1]))
                    continue;
                int64_t nl = i + 1, ql = nl - pl, nr = nn - nl, pr = pos - pl, qr = neg - ql;
                double score = (double)(nl * nl - pl * pl - ql * ql) / (double)nl
                             + (double)(nr * nr - pr * pr - qr * qr) / (double)nr;
                if (score < child_score) {
                    f = feats[k];
                    at = i;
                    pos_l = pl;
                    child_score = score;
                }
            }
        }
        if (f < 0)
            continue;

        const Entry *e = ent + f * cap + job.start;
        double thr = threshold_between(X[ROW(e[at]) * p + f], X[ROW(e[at + 1]) * p + f]);
        int64_t nl = at + 1, nr = nn - nl, pos_r = pos - pos_l;

        /* rpart-style pruning: relative misclassification improvement >= cp */
        int64_t err_node = nn - (pos > neg ? pos : neg);
        int64_t err_children = nl - (pos_l > nl - pos_l ? pos_l : nl - pos_l)
                             + nr - (pos_r > nr - pos_r ? pos_r : nr - pos_r);
        if (root_err > 0 && (double)(err_node - err_children) / (double)root_err < cp)
            continue;

        /* stable partition of every feature's span, without a branch: the
         * left rows keep their order in place, the rest follow in order. The
         * split feature's span is partitioned already. A feature constant in
         * this node is constant in every node below it, where the search
         * skips it, so its span is left as it is. */
        for (int64_t i = 0; i < nn; i++)
            goes_left[ROW(e[i])] = i < nl;
        for (int64_t k = 0; k < p; k++) {
            Entry *span = ent + k * cap + job.start;
            if (k == f || RANK(span[0]) == RANK(span[nn - 1]))
                continue;
            int64_t l = 0, r = 0;
            for (int64_t i = 0; i < nn; i++) {
                Entry x = span[i];
                int64_t g = goes_left[ROW(x)];
                span[l] = x;
                tmp[r] = x;
                l += g;
                r += 1 - g;
            }
            memcpy(span + l, tmp, r * sizeof(Entry));
        }

        importance[f] += node_score(nn, pos) - child_score;
        int64_t child = m;
        m += 2;
        feature[job.node] = f;
        threshold[job.node] = thr;
        left[job.node] = child;
        right[job.node] = child + 1;
        for (int64_t c = child; c < m; c++) {
            feature[c] = left[c] = right[c] = -1;
            threshold[c] = 0.0;
        }
        count[child] = nl;
        npos[child] = pos_l;
        count[child + 1] = nr;
        npos[child + 1] = pos_r;
        stack[top++] = (Job){child + 1, job.start + nl, job.end, job.depth + 1};
        stack[top++] = (Job){child, job.start, job.start + nl, job.depth + 1};
    }
    return m;
}

/* Frees the node table that grow_forest hands out. */
void free_table(void **col)
{
    for (int k = 0; k < 7; k++)
        free(col[k]);
}

/* grow_forest's threads: at most this many grow one forest */
#define MAX_THREADS 4

/* One grown tree: its m nodes' feature, threshold, left, right, count and
 * npos arrays, one after another, then its importance vector */
typedef struct {
    int64_t m;
    char *block;
} Grown;

/* What the threads growing one forest share: the fit, the next tree to
 * take, each tree grown, and whether an allocation failed */
typedef struct {
    const double *X;
    const int8_t *y;
    const Entry *sorted;
    int64_t n, p, n_trees, n_seed, mtry, minsplit, maxdepth, bootstrap, drawn;
    double cp;
    Grown *grown;
    atomic_int_fast64_t next;
    atomic_int failed;
} Forest;

/* One thread: the forest it grows trees of, and its own scratch space,
 * whose entropy starts with the forest's seed words */
typedef struct {
    Forest *forest;
    Scratch s;
} Worker;

/* One thread's work: takes the forest's next tree t until none is left or
 * an allocation fails anywhere, seeds it from [seed, t], draws its
 * bootstrap and grows it into grown[t]. */
static void *grow_trees(void *arg)
{
    Forest *F = ((Worker *)arg)->forest;
    Scratch *s = &((Worker *)arg)->s;
    int64_t tree;
    while (!atomic_load(&F->failed) && (tree = atomic_fetch_add(&F->next, 1)) < F->n_trees) {
        pcg64 rng;
        int64_t words = F->n_seed;
        s->entropy[words++] = (uint32_t)tree;
        if (tree >> 32)
            s->entropy[words++] = (uint32_t)(tree >> 32);
        if (F->bootstrap || F->drawn)
            pcg64_seed(&rng, s->entropy, words);
        if (F->bootstrap)
            draw_rows(&rng, F->n, s->copies);
        else
            for (int64_t r = 0; r < F->n; r++)
                s->copies[r] = 1;
        int64_t m = grow_tree(F->X, F->n, F->p, F->y, F->sorted, F->minsplit, F->cp,
                              F->maxdepth, F->drawn ? F->mtry : F->p, F->drawn ? &rng : NULL, s);
        char *block = malloc((6 * m + F->p) * 8);
        if (block == NULL) {
            atomic_store(&F->failed, 1);
            break;
        }
        const void *from[7] = {s->feature, s->threshold, s->left, s->right, s->count, s->npos,
                               s->importance};
        for (int k = 0; k < 7; k++)
            memcpy(block + 8 * m * k, from[k], 8 * (k < 6 ? m : F->p));
        F->grown[tree] = (Grown){m, block};
    }
    return NULL;
}

/* Grows n_trees trees over the n x p matrix X (row after row) with labels y
 * and returns their node count. out[0..7) gets the node table, which
 * free_table frees: the int64 or double arrays feature, threshold, left,
 * right, count and npos, one tree after another (each tree numbers its nodes
 * from 0), and roots, where roots[t] is tree t's first node and
 * roots[n_trees] the node count. Tree t draws from numpy's
 * default_rng(SeedSequence([seed, t])), seed given as its n_seed uint32
 * words: its bootstrap rows np.sort(rng.integers(0, n, size=n)) (without
 * bootstrap, every row once), then at each node np.sort(rng.choice(p, mtry,
 * replace=False)) for mtry < p; a tree that searches every feature and takes
 * every row draws nothing. importance[0..p) gets the mean over the trees of
 * each tree's split gains, added up in tree order. After one presort, up to
 * `threads` threads (at most MAX_THREADS and one per tree; the calling one
 * among them) each take the next tree; as every tree draws from its own
 * generator and lands in tree order, their number changes no byte. Declines
 * (-4) n > 2**31 - 1 rows, which entries cannot number, and a forest whose
 * draws numpy makes otherwise: mtry > p / 50 features of p > 10000. */
int64_t grow_forest(const double *X, int64_t n, int64_t p, const int8_t *y, int64_t n_trees,
                    const uint32_t *seed, int64_t n_seed, int64_t bootstrap, int64_t mtry,
                    int64_t minsplit, double cp, int64_t maxdepth, int64_t threads,
                    double *importance, void **out)
{
    int64_t drawn = mtry < p;
    if (n > INT32_MAX || (drawn && p > 10000 && mtry > p / 50))
        return -4;
    for (int64_t r = 0; r < n; r++)
        if (y[r] != 0 && y[r] != 1)
            return -3;
    int64_t cap = n > 0 ? n : 1, m = 0;
    Forest F = {.X = X, .y = y, .n = n, .p = p, .n_trees = n_trees, .n_seed = n_seed,
                .mtry = mtry, .minsplit = minsplit, .maxdepth = maxdepth,
                .bootstrap = bootstrap, .drawn = drawn, .cp = cp};
    atomic_init(&F.next, 0);
    atomic_init(&F.failed, 0);
    Entry *sorted = malloc((p > 0 ? p : 1) * cap * sizeof(Entry));
    Pair *pairs = malloc(2 * cap * sizeof(Pair));
    F.grown = calloc(n_trees, sizeof(Grown));
    if (sorted && pairs && F.grown) {
        presort(X, n, p, y, sorted, pairs);
        F.sorted = sorted;
    }
    free(pairs);

    /* every thread's scratch space is allocated here, in the calling thread */
    Worker w[MAX_THREADS];
    pthread_t id[MAX_THREADS];
    int64_t workers = threads < n_trees ? threads : n_trees, ready = 0, started = 1;
    workers = workers < 1 ? 1 : workers > MAX_THREADS ? MAX_THREADS : workers;
    while (ready < workers && F.sorted != NULL && alloc_scratch(&w[ready].s, n, p, n_seed) == 0) {
        w[ready].forest = &F;
        memcpy(w[ready++].s.entropy, seed, n_seed * sizeof(uint32_t));
    }
    if (ready < workers) {
        atomic_store(&F.failed, 1);
    } else {
        while (started < workers
               && pthread_create(&id[started], NULL, grow_trees, &w[started]) == 0)
            started++;
        grow_trees(&w[0]);
        for (int64_t k = 1; k < started; k++)
            pthread_join(id[k], NULL);
    }
    for (int64_t k = 0; k < ready; k++)
        free_scratch(&w[k].s);
    free(sorted);

    int failed = atomic_load(&F.failed);
    for (int64_t t = 0; t < n_trees && !failed; t++)
        m += F.grown[t].m;
    for (int k = 0; k < 7; k++)
        out[k] = failed ? NULL : malloc(8 * (k < 6 ? m : n_trees + 1));
    for (int k = 0; k < 7; k++)
        failed |= out[k] == NULL;
    for (int64_t k = 0; k < p; k++)
        importance[k] = 0.0;
    int64_t *roots = out[6];
    for (int64_t t = 0, at = 0; F.grown != NULL && t < n_trees; t++) {
        Grown g = F.grown[t];
        if (!failed) {
            for (int k = 0; k < 6; k++)
                memcpy((char *)out[k] + 8 * at, g.block + 8 * g.m * k, 8 * g.m);
            const double *gain = (const double *)(g.block + 48 * g.m);
            for (int64_t k = 0; k < p; k++)
                importance[k] += gain[k];
            roots[t] = at;
            at += g.m;
        }
        free(g.block);
    }
    free(F.grown);
    if (failed) {
        for (int k = 0; k < 7; k++) {
            free(out[k]);
            out[k] = NULL;
        }
        return -1;
    }
    roots[n_trees] = m;
    for (int64_t k = 0; k < p; k++)
        importance[k] /= (double)n_trees;
    return m;
}

/* out[r] = the mean over trees, summed in tree order, of pos / n at the leaf
 * that row r of X (n_rows x p) reaches, where a NaN in column f compares as
 * impute[f]. The trees are grow_forest's node table as it hands it out: the
 * node arrays feature, threshold, left, right, count and npos, where tree t
 * owns nodes roots[t] .. roots[t + 1] - 1 and numbers them from 0, and
 * roots[0] = 0. Returns 0, or -2 when a tree has no nodes or ends past the
 * table, or an inner node's feature is out of range or one of its children
 * is not a later node of its tree. */
int forest_sum(const double *X, int64_t n_rows, int64_t p, const double *impute,
               const int64_t *feature, const double *threshold, const int64_t *left,
               const int64_t *right, const int64_t *count, const int64_t *npos,
               const int64_t *roots, int64_t n_trees, double *out)
{
    for (int64_t r = 0; r < n_rows; r++)
        out[r] = 0.0;
    for (int64_t t = 0; t < n_trees; t++) {
        int64_t base = roots[t], m = roots[t + 1] - base;
        if (m < 1 || roots[t + 1] > roots[n_trees])
            return -2;
        for (int64_t j = 0; j < m; j++) {
            int64_t i = base + j;
            if (feature[i] >= 0 && (feature[i] >= p || left[i] <= j || left[i] >= m
                                    || right[i] <= j || right[i] >= m))
                return -2;
        }
        for (int64_t r = 0; r < n_rows; r++) {
            const double *x = X + r * p;
            int64_t i = base;
            while (feature[i] >= 0) {
                int64_t f = feature[i];
                double v = isnan(x[f]) ? impute[f] : x[f];
                i = base + (v <= threshold[i] ? left[i] : right[i]);
            }
            out[r] += (double)npos[i] / (double)count[i];
        }
    }
    for (int64_t r = 0; r < n_rows; r++)
        out[r] /= (double)n_trees;
    return 0;
}

/* ----------------------------------------------------------- record scanners
 * scan_canonical and scan_git_log share one protocol and differ only in
 * their grammar (canonical_line, git_record). Each reads the items of
 * data[start..end) from start, up to the first item it declines, at most cap
 * items, and while their strings fit the text_cap bytes of text. Item k's
 * four ints go to ints[k], ints[cap + k], ints[2 cap + k] and ints[3 cap + k]
 * (timestamp, offset, lines added, lines deleted) and its strings, each
 * followed by '\n', to text. Returns the number of items taken; info[0] is
 * the offset of the first item not taken (end when all were) and info[1] the
 * bytes written to text. An item is taken only when its grammar reads it,
 * its offset is within +-1440 minutes and its local time falls in years
 * 1-9999; any other item, valid or not, is declined and left to the Python
 * reader, which alone raises errors. */

#define LOCAL_MIN (-62135596800LL)
#define LOCAL_MAX 253402300799LL

/* An item's grammar: reads the item at p, which starts before stop, puts its
 * four ints in v and copies its strings out with copy(), and returns where
 * the next item starts, or NULL to decline the item. */
typedef const char *(*grammar)(const char *p, const char *stop, int64_t *v, char **out,
                               const char *text_end);

static int64_t scan(grammar item, const char *data, int64_t start, int64_t end, int64_t cap,
                    int64_t *ints, char *text, int64_t text_cap, int64_t *info)
{
    const char *p = data + start, *stop = data + end, *next;
    char *out = text, *o = text;
    int64_t n = 0, v[4];
    while (n < cap && p < stop && (next = item(p, stop, v, &o, text + text_cap)) != NULL
           && v[1] >= -1440 && v[1] <= 1440 && v[0] + 60 * v[1] >= LOCAL_MIN
           && v[0] + 60 * v[1] <= LOCAL_MAX) {
        for (int k = 0; k < 4; k++)
            ints[k * cap + n] = v[k];
        n++;
        p = next;
        out = o;
    }
    info[0] = p - data;
    info[1] = out - text;
    return n;
}

/* 40 lowercase hex digits at s, followed by close before end */
static int sha(const char *s, const char *end, char close)
{
    if (end - s < 41 || s[40] != close)
        return 0;
    for (int i = 0; i < 40; i++)
        if (!((s[i] >= '0' && s[i] <= '9') || (s[i] >= 'a' && s[i] <= 'f')))
            return 0;
    return 1;
}

/* -?[0-9]{1,18} at *p into *v, with no leading zero unless `zeros`; *p
 * moves past it. 18 digits fit an int64. */
static int integer(const char **p, const char *end, int zeros, int64_t *v)
{
    const char *q = *p + (*p < end && **p == '-'), *digits = q;
    uint64_t x = 0;
    while (q < end && *q >= '0' && *q <= '9' && q - digits < 19)
        x = x * 10 + (uint64_t)(*q++ - '0');
    int64_t nd = q - digits;
    if (nd == 0 || nd > 18 || (!zeros && nd > 1 && digits[0] == '0'))
        return 0;
    *v = digits > *p ? -(int64_t)x : (int64_t)x;
    *p = q;
    return 1;
}

/* s[0..e) and a '\n' appended to *out, lowercased when `lower`, if they fit
 * before text_end. */
static int copy(char **out, const char *text_end, const char *s, const char *e, int lower)
{
    if (text_end - *out <= e - s)
        return 0;
    memcpy(*out, s, e - s);
    for (char *c = *out; lower && c < *out + (e - s); c++)
        *c = *c >= 'A' && *c <= 'Z' ? *c + ('a' - 'A') : *c;
    *out += e - s;
    *(*out)++ = '\n';
    return 1;
}

/* ---------------------------------------------------------- canonical lines
 * A canonical line, as ingest.write_canonical writes it:
 *
 *   {"sha": "<s>", "author_name": "<s>", "author_email": "<s>",
 *    "timestamp_utc": <i>, "tz_offset_minutes": <i>, "lines_added": <i>,
 *    "lines_deleted": <i>, "message": "<s>"}\n
 *
 * on one line, or the same line ended by "\r\n", whose '\r' the JSON reader
 * takes for white space. canonical_line takes a line only in that exact
 * layout, with every string printable ASCII holding no '"' or '\', so that
 * it stands for itself; the sha 40 lowercase hex digits; every int
 * -?(0|[1-9][0-9]*) of at most 18 digits; and only when the value checks of
 * ingest._checked_row pass: line counts >= -1 and no A-Z in the email (scan
 * checks the offset and the local time). Its strings are the sha, name,
 * email and message. */

/* Moves *p past the literal s when the bytes at *p are s. */
static int literal(const char **p, const char *end, const char *s)
{
    size_t n = strlen(s);
    if ((size_t)(end - *p) < n || memcmp(*p, s, n) != 0)
        return 0;
    *p += n;
    return 1;
}

/* A string's characters up to its closing quote, copied out; *p moves past
 * the quote. upper says whether A-Z may appear. */
static int string(const char **p, const char *end, char **out, const char *text_end, int upper)
{
    const char *q = *p;
    for (; q < end && *q != '"'; q++) {
        unsigned char c = (unsigned char)*q;
        if (c < 0x20 || c > 0x7e || c == '\\' || (!upper && c >= 'A' && c <= 'Z'))
            return 0;
    }
    if (q == end || !copy(out, text_end, *p, q, 0))
        return 0;
    *p = q + 1;
    return 1;
}

static const char *canonical_line(const char *p, const char *stop, int64_t *v, char **out,
                                  const char *text_end)
{
    if (literal(&p, stop, "{\"sha\": \"") && sha(p, stop, '"') && string(&p, stop, out, text_end, 1)
        && literal(&p, stop, ", \"author_name\": \"") && string(&p, stop, out, text_end, 1)
        && literal(&p, stop, ", \"author_email\": \"") && string(&p, stop, out, text_end, 0)
        && literal(&p, stop, ", \"timestamp_utc\": ") && integer(&p, stop, 0, &v[0])
        && literal(&p, stop, ", \"tz_offset_minutes\": ") && integer(&p, stop, 0, &v[1])
        && literal(&p, stop, ", \"lines_added\": ") && integer(&p, stop, 0, &v[2])
        && literal(&p, stop, ", \"lines_deleted\": ") && integer(&p, stop, 0, &v[3])
        && literal(&p, stop, ", \"message\": \"") && string(&p, stop, out, text_end, 1)
        && (literal(&p, stop, "}\n") || literal(&p, stop, "}\r\n"))
        && v[2] >= -1 && v[3] >= -1)
        return p;
    return NULL;
}

int64_t scan_canonical(const char *data, int64_t start, int64_t end, int64_t cap,
                       int64_t *ints, char *text, int64_t text_cap, int64_t *info)
{
    return scan(canonical_line, data, start, end, cap, ints, text, text_cap, info);
}

/* ---------------------------------------------------------- git-log records
 * A record of ingest.GIT_EXPORT_COMMAND's export, from its 0x1E sentinel:
 *
 *   \x1e<%H>\x1f<%an>\x1f<%ae>\x1f<%at>\x1f<%ad>\n<numstat lines>
 *
 * up to the next 0x1E or the end of the data. git_record takes a record only
 * when the sha is 40 lowercase hex digits; the name and the email are
 * printable ASCII; %at is -?[0-9]{1,18}; the last space-separated token of
 * %ad, which holds no 0x1F, is [+-]hhmm; and every numstat line is empty or
 * (digits|-)\t(digits|-)\t<path> with at most 18 digits per count and sums
 * that fit an int64. Its strings are the sha, the name and the lowercased
 * email. Any other record is left to ingest._parse_header and
 * ingest._parse_numstat, which read such records the same way. */

/* The end of a printable-ASCII field that a 0x1F ends, or NULL. */
static const char *printable(const char *p, const char *end)
{
    while (p < end && *p >= 0x20 && *p <= 0x7e)
        p++;
    return p < end && *p == 0x1f ? p : NULL;
}

/* One numstat count, digits or '-' (*v = -1), followed by a tab. */
static int count(const char **p, const char *end, int64_t *v)
{
    if (*p < end && **p == '-') {
        *v = -1;
        (*p)++;
    } else if (!integer(p, end, 1, v)) {
        return 0;
    }
    return *p < end && *(*p)++ == '\t';
}

static const char *git_record(const char *p, const char *stop, int64_t *v, char **out,
                              const char *text_end)
{
    const char *hash = p + 1, *rec_end = memchr(hash, 0x1e, stop - hash);
    if (rec_end == NULL)
        rec_end = stop;
    const char *name = hash + 41, *name_end, *email_end, *q;
    if (!sha(hash, rec_end, 0x1f) || (name_end = printable(name, rec_end)) == NULL
        || (email_end = printable(name_end + 1, rec_end)) == NULL)
        return NULL;
    q = email_end + 1;
    if (!integer(&q, rec_end, 1, &v[0]) || q == rec_end || *q != 0x1f)
        return NULL;
    const char *ad = q + 1, *ad_end = memchr(ad, '\n', rec_end - ad);
    if (ad_end == NULL)
        ad_end = rec_end;
    if (memchr(ad, 0x1f, ad_end - ad) != NULL || ad_end - ad < 5)
        return NULL;
    const char *z = ad_end - 5;
    if ((z[0] != '+' && z[0] != '-') || (z > ad && z[-1] != ' '))
        return NULL;
    for (int i = 1; i < 5; i++)
        if (z[i] < '0' || z[i] > '9')
            return NULL;
    v[1] = ((z[1] - '0') * 10 + (z[2] - '0')) * 60 + (z[3] - '0') * 10 + (z[4] - '0');
    v[1] = z[0] == '-' ? -v[1] : v[1];

    /* numstat lines, from the line after the header to the record's end */
    int64_t added = 0, deleted = 0;
    int numeric = 0, binary = 0;
    for (const char *line = ad_end + (ad_end < rec_end), *line_end; line < rec_end;
         line = line_end + 1) {
        if ((line_end = memchr(line, '\n', rec_end - line)) == NULL)
            line_end = rec_end;
        int64_t a, d;
        if (line_end == line)
            continue;
        if (!count(&line, line_end, &a) || !count(&line, line_end, &d) || line == line_end)
            return NULL;
        if (a < 0 || d < 0) {
            binary = 1;
        } else {
            if (added > INT64_MAX - a || deleted > INT64_MAX - d)
                return NULL;
            added += a;
            deleted += d;
            numeric = 1;
        }
    }
    v[2] = binary && !numeric ? -1 : added;
    v[3] = binary && !numeric ? -1 : deleted;
    if (!copy(out, text_end, hash, hash + 40, 0) || !copy(out, text_end, name, name_end, 0)
        || !copy(out, text_end, name_end + 1, email_end, 1))
        return NULL;
    return rec_end;
}

int64_t scan_git_log(const char *data, int64_t start, int64_t end, int64_t cap,
                     int64_t *ints, char *text, int64_t text_cap, int64_t *info)
{
    return scan(git_record, data, start, end, cap, ints, text, text_cap, info);
}

/* ---------------------------------------------------------------- histories
 * sort_histories and local_calendar build the columns of features.histories;
 * activity computes one History's developer features. Their Python twins in
 * paydev.features give the same values, bit for bit. */

typedef struct { int64_t ts, at, row; } Stamp;

static int cmp_stamp(const void *a, const void *b)
{
    const Stamp *x = a, *y = b;
    if (x->ts != y->ts)
        return (x->ts > y->ts) - (x->ts < y->ts);
    return (x->at > y->at) - (x->at < y->at);
}

/* Identity i owns the next sizes[i] entries of rows[0..n), rows of an
 * n_commits-row commit table in sha order. Sorts each identity's rows
 * stably by timestamp in place, so that they run in (timestamp, sha) order,
 * and writes per entry its row's timestamp to ts, its offset to off and its
 * changed lines to lines: added + deleted as doubles, NaN where either is
 * below 0 (a binary-only commit). Returns 0, -1 when out of memory, -2 when
 * a row is out of range or the sizes do not add up to n. */
int sort_histories(int64_t *rows, int64_t n, const int64_t *sizes, int64_t n_ids,
                   const int64_t *timestamp, const int64_t *offset, const int64_t *added,
                   const int64_t *deleted, int64_t n_commits, int64_t *ts, int64_t *off,
                   double *lines)
{
    int64_t total = 0, widest = 1;
    for (int64_t i = 0; i < n_ids; i++) {
        if (sizes[i] < 0)
            return -2;
        total += sizes[i];
        widest = sizes[i] > widest ? sizes[i] : widest;
    }
    if (total != n)
        return -2;
    for (int64_t j = 0; j < n; j++)
        if (rows[j] < 0 || rows[j] >= n_commits)
            return -2;
    Stamp *st = malloc(widest * sizeof(Stamp));
    if (st == NULL)
        return -1;
    for (int64_t i = 0, start = 0; i < n_ids; start += sizes[i++]) {
        int64_t *r = rows + start;
        for (int64_t j = 0; j < sizes[i]; j++)
            st[j] = (Stamp){timestamp[r[j]], j, r[j]};
        qsort(st, sizes[i], sizeof(Stamp), cmp_stamp);
        for (int64_t j = 0; j < sizes[i]; j++)
            r[j] = st[j].row;
    }
    free(st);
    for (int64_t j = 0; j < n; j++) {
        int64_t r = rows[j];
        ts[j] = timestamp[r];
        off[j] = offset[r];
        lines[j] = added[r] >= 0 && deleted[r] >= 0 ? (double)added[r] + (double)deleted[r]
                                                    : NAN;
    }
    return 0;
}

/* The civil calendar of ts[k] shifted by off[k] minutes, for k < n, as three
 * rows of cal: day (since 1970-01-01), hour and weekday (Monday = 0).
 * Returns 0, -1 when an offset is outside +-1440 (checked first, for every
 * k), -2 when a local time falls outside years 1-9999. */
int local_calendar(const int64_t *ts, const int64_t *off, int64_t n, int64_t *cal)
{
    for (int64_t k = 0; k < n; k++)
        if (off[k] < -1440 || off[k] > 1440)
            return -1;
    for (int64_t k = 0; k < n; k++) {
        /* wraps as numpy's int64 would; a wrapped value is far out of range */
        int64_t local = (int64_t)((uint64_t)ts[k] + (uint64_t)(60 * off[k]));
        if (local < LOCAL_MIN || local > LOCAL_MAX)
            return -2;
        int64_t day = local / 86400 - (local % 86400 < 0);
        cal[k] = day;
        cal[n + k] = (local - 86400 * day) / 3600;
        cal[2 * n + k] = ((day + 3) % 7 + 7) % 7;
    }
    return 0;
}

/* The number of distinct values of v[0..n), n >= 1, sorted in place. */
static int64_t distinct(int64_t *v, int64_t n)
{
    qsort(v, n, sizeof(int64_t), cmp_int64);
    int64_t d = 1;
    for (int64_t k = 1; k < n; k++)
        d += v[k] != v[k - 1];
    return d;
}

/* The weekday hour of nearest rank pct (the ceil(m * pct / 100)-th smallest,
 * at least the first) among the m weekday hours counted in bucket[0..24). */
static int64_t nearest_rank(const int64_t *bucket, int64_t m, int64_t pct)
{
    int64_t k = (m * pct + 99) / 100, seen = 0, h = 0;
    k = k > 1 ? k : 1;
    while ((seen += bucket[h]) < k)
        h++;
    return h;
}

/* The developer features of one History of n >= 1 commits, from its columns
 * (ts in ascending order; lines NaN for a binary-only commit): ints gets
 * period, days, weeks, commits, most_active_hour, beginning_regular,
 * length_regular and end_regular; reals gets timediff, loc_per_commit and the
 * weekend, night, morning, afternoon, evening and office shares. A week is
 * counted by its Monday, day - weekday, so that weeks are ISO weeks. Medians
 * of an even count are the mean of the two middle values (middle); the
 * regular window runs between the nearest-rank 10th and 90th percentiles of
 * the weekday (Monday-Friday) hours, 0 to 0 without any. Returns 0, -1 when
 * out of memory, -2 when n < 1 or an hour is outside 0-23. */
int activity(int64_t n, const int64_t *ts, const int64_t *day, const int64_t *hour,
             const int64_t *weekday, const double *lines, int64_t *ints, double *reals)
{
    if (n < 1)
        return -2;
    int64_t all[24] = {0}, work[24] = {0}, working = 0;
    for (int64_t k = 0; k < n; k++) {
        if (hour[k] < 0 || hour[k] > 23)
            return -2;
        all[hour[k]]++;
        if (weekday[k] < 5) {
            work[hour[k]]++;
            working++;
        }
    }
    int64_t *v = malloc(n * sizeof(int64_t));
    double *x = malloc(n * sizeof(double));
    if (v == NULL || x == NULL) {
        free(v);
        free(x);
        return -1;
    }

    int64_t lo = day[0], hi = day[0];
    for (int64_t k = 0; k < n; k++) {
        lo = day[k] < lo ? day[k] : lo;
        hi = day[k] > hi ? day[k] : hi;
        v[k] = day[k];
    }
    ints[0] = hi - lo;
    ints[1] = distinct(v, n);
    for (int64_t k = 0; k < n; k++)
        v[k] = day[k] - weekday[k];
    ints[2] = distinct(v, n);
    ints[3] = n;
    int64_t top = 0;
    for (int h = 1; h < 24; h++)
        top = all[h] > all[top] ? h : top;
    ints[4] = top;
    int64_t begin = working ? nearest_rank(work, working, 10) : 0;
    int64_t end = working ? nearest_rank(work, working, 90) : 0;
    ints[5] = begin;
    ints[6] = end - begin;
    ints[7] = end;

    /* the median gap between neighbouring commits, in days, and the median
     * changed lines: both finite and >= 0, so middle's 0.0 + a + b is the
     * twin's a + b */
    for (int64_t k = 0; k + 1 < n; k++)
        x[k] = (double)(ts[k + 1] - ts[k]) / 86400.0;
    reals[0] = middle(x, n - 1);
    int64_t m = 0;
    for (int64_t k = 0; k < n; k++)
        if (!isnan(lines[k]))
            x[m++] = lines[k];
    reals[1] = middle(x, m);
    free(v);
    free(x);

    int64_t night = 0, morning = 0, afternoon = 0, evening = 0, office = 0;
    for (int h = 0; h < 24; h++) {
        night += h < 6 ? all[h] : 0;
        morning += h >= 6 && h < 12 ? all[h] : 0;
        afternoon += h >= 12 && h < 18 ? all[h] : 0;
        evening += h >= 18 ? all[h] : 0;
        office += h >= 8 && h < 17 ? all[h] : 0;
    }
    reals[2] = (double)(n - working) / (double)n;
    reals[3] = (double)night / (double)n;
    reals[4] = (double)morning / (double)n;
    reals[5] = (double)afternoon / (double)n;
    reals[6] = (double)evening / (double)n;
    reals[7] = (double)office / (double)n;
    return 0;
}

/* The 15 per-commit features (features.COMMIT_FEATURE_COLUMNS) of a History
 * of n commits, row after row, into out[0..15 n): the weekend flag, the hour,
 * the night, morning, afternoon, evening and office (8-17) flags, the changed
 * lines (fill[0], the developer's loc_per_commit, where NaN), the days since
 * the previous commit (fill[1], the developer's timediff, for the first) and
 * the developer's six shares fill[2..8). */
void commit_rows(int64_t n, const int64_t *ts, const int64_t *hour, const int64_t *weekday,
                 const double *lines, const double *fill, double *out)
{
    for (int64_t k = 0; k < n; k++, out += 15) {
        int64_t h = hour[k];
        out[0] = weekday[k] >= 5;
        out[1] = (double)h;
        out[2] = h < 6;
        out[3] = h >= 6 && h < 12;
        out[4] = h >= 12 && h < 18;
        out[5] = h >= 18;
        out[6] = h >= 8 && h < 17;
        out[7] = isnan(lines[k]) ? fill[0] : lines[k];
        out[8] = k ? (double)(ts[k] - ts[k - 1]) / 86400.0 : fill[1];
        memcpy(out + 9, fill + 2, 6 * sizeof(double));
    }
}

/* -------------------------------------------------------------------- logit */

#define LN2 0.6931471805599453

/* np.logaddexp(0, z) */
static double softplus(double z)
{
    if (z == 0.0)
        return LN2;
    if (z < 0.0)
        return log1p(exp(z));
    if (z > 0.0)
        return z + log1p(exp(-z));
    return z;  /* NaN */
}

static double sigmoid(double z)
{
    if (z >= 0.0)
        return 1.0 / (1.0 + exp(-z));
    double e = exp(z);
    return e / (1.0 + e);
}

/* The penalized negative log-likelihood at the weights w[0..q) of the rows of
 * X1 (n x q, its last column all ones, whose weight, the intercept, the ridge
 * l2 leaves out) with labels y; z gets each row's margin and grad the
 * gradient. */
static double loss_grad(const double *X1, int64_t n, int64_t q, const double *y, double l2,
                        const double *w, double *z, double *grad)
{
    double loss = 0.0, ridge = 0.0;
    for (int64_t j = 0; j < q; j++)
        grad[j] = 0.0;
    for (int64_t i = 0; i < n; i++) {
        const double *x = X1 + i * q;
        double s = 0.0;
        for (int64_t j = 0; j < q; j++)
            s += x[j] * w[j];
        z[i] = s;
        loss += softplus(s) - y[i] * s;
        double r = sigmoid(s) - y[i];
        for (int64_t j = 0; j < q; j++)
            grad[j] += x[j] * r;
    }
    for (int64_t j = 0; j + 1 < q; j++) {
        ridge += w[j] * w[j];
        grad[j] += l2 * w[j];
    }
    return loss + 0.5 * l2 * ridge;
}

static int small_gradient(const double *grad, int64_t q, double tol)
{
    for (int64_t j = 0; j < q; j++)
        if (!(fabs(grad[j]) <= tol))
            return 0;
    return 1;
}

/* x solving A x = b (A q x q row after row; A and b are overwritten), by
 * Gaussian elimination with partial pivoting (the first largest |value| in
 * the column) and back substitution. Returns -1, leaving x as it was, at an
 * exactly zero pivot. */
static int solve(double *A, double *b, int64_t q, double *x)
{
    for (int64_t c = 0; c < q; c++) {
        int64_t piv = c;
        for (int64_t r = c + 1; r < q; r++)
            if (fabs(A[r * q + c]) > fabs(A[piv * q + c]))
                piv = r;
        if (A[piv * q + c] == 0.0)
            return -1;
        for (int64_t k = 0; k < q && piv != c; k++) {
            double t = A[c * q + k];
            A[c * q + k] = A[piv * q + k];
            A[piv * q + k] = t;
        }
        double t = b[c];
        b[c] = b[piv];
        b[piv] = t;
        for (int64_t r = c + 1; r < q; r++) {
            double f = A[r * q + c] / A[c * q + c];
            for (int64_t k = c + 1; k < q; k++)
                A[r * q + k] -= f * A[c * q + k];
            b[r] -= f * b[c];
        }
    }
    for (int64_t c = q - 1; c >= 0; c--) {
        double s = b[c];
        for (int64_t k = c + 1; k < q; k++)
            s -= A[c * q + k] * x[k];
        x[c] = s / A[c * q + c];
    }
    return 0;
}

/* The logistic regression of labels (0 or 1) on X (n x p, no NaN), as
 * paydev.ml.logit.fit_logit fits it. Each column is standardized by its mean
 * and population standard deviation (a scale of 0 becomes 1); then damped
 * Newton steps from w = 0 minimize the loss of loss_grad, with the ridge l2
 * on the p coefficients and not on the intercept w[p]. A step solves the
 * Hessian (row weights max(p (1 - p), 1e-12), l2 on the coefficients'
 * diagonal) against the gradient, or is the gradient where a pivot is 0, and
 * halves up to 60 times until the loss is at most the last one plus
 * 1e-12 (1 + |loss|); a fit stops when every |gradient| is at most tol, after
 * max_iter steps or when no step is taken. mean, scale and w (p + 1) get the
 * fit, and history the loss before the first step and after each, at most
 * cap of them; info gets the steps tried (n_iter), whether the fit converged
 * and how many losses there were. Returns 0, -1 when out of memory, or -2,
 * fitting nothing, when a column's mean or scale is not finite. */
int logit_fit(const double *X, int64_t n, int64_t p, const int8_t *labels, double l2,
              int64_t max_iter, double tol, double *mean, double *scale, double *w,
              double *history, int64_t cap, int64_t *info)
{
    int64_t q = p + 1, bad = 0;
    for (int64_t j = 0; j < p; j++) {
        double s = 0.0, v = 0.0;
        for (int64_t i = 0; i < n; i++)
            s += X[i * p + j];
        mean[j] = s / (double)n;
        for (int64_t i = 0; i < n; i++) {
            double d = X[i * p + j] - mean[j];
            v += d * d;
        }
        scale[j] = sqrt(v / (double)n);
        bad |= !isfinite(mean[j]) || !isfinite(scale[j]);
    }
    if (bad)
        return -2;
    double *X1 = malloc(n * q * sizeof(double)), *y = malloc(n * sizeof(double));
    double *z = malloc(n * sizeof(double)), *z_new = malloc(n * sizeof(double));
    double *work = malloc((2 * q * q + 5 * q) * sizeof(double));
    if (!X1 || !y || !z || !z_new || !work) {
        free(X1), free(y), free(z), free(z_new), free(work);
        return -1;
    }
    double *H = work, *A = H + q * q, *b = A + q * q, *grad = b + q, *grad_new = grad + q;
    double *step = grad_new + q, *w_new = step + q;
    for (int64_t j = 0; j < p; j++)
        scale[j] = scale[j] == 0.0 ? 1.0 : scale[j];
    for (int64_t i = 0; i < n; i++) {
        for (int64_t j = 0; j < p; j++)
            X1[i * q + j] = (X[i * p + j] - mean[j]) / scale[j];
        X1[i * q + p] = 1.0;
        y[i] = labels[i];
    }
    for (int64_t j = 0; j < q; j++)
        w[j] = 0.0;
    double loss = loss_grad(X1, n, q, y, l2, w, z, grad);
    int64_t count = 0, it = 0, converged = 0;
    if (count < cap)
        history[count] = loss;
    count++;
    for (int64_t k = 1; k <= max_iter; k++) {
        it = k;
        if (small_gradient(grad, q, tol)) {
            converged = 1;
            break;
        }
        for (int64_t j = 0; j < q * q; j++)
            H[j] = 0.0;
        for (int64_t i = 0; i < n; i++) {
            const double *x = X1 + i * q;
            double prob = sigmoid(z[i]), v = prob * (1.0 - prob);
            double weight = v > 1e-12 ? v : 1e-12;
            for (int64_t j = 0; j < q; j++) {
                double a = x[j] * weight;
                for (int64_t c = j; c < q; c++)
                    H[j * q + c] += a * x[c];
            }
        }
        for (int64_t j = 0; j < q; j++)
            for (int64_t c = 0; c < j; c++)
                H[j * q + c] = H[c * q + j];
        for (int64_t j = 0; j < p; j++)
            H[j * q + j] += l2;
        memcpy(A, H, q * q * sizeof(double));
        memcpy(b, grad, q * sizeof(double));
        if (solve(A, b, q, step))
            memcpy(step, grad, q * sizeof(double));
        double t = 1.0, loss_new = 0.0;
        int accepted = 0;
        for (int halving = 0; halving < 60 && !accepted; halving++) {
            for (int64_t j = 0; j < q; j++)
                w_new[j] = w[j] - t * step[j];
            loss_new = loss_grad(X1, n, q, y, l2, w_new, z_new, grad_new);
            accepted = loss_new <= loss + 1e-12 * (1.0 + fabs(loss));
            t *= 0.5;
        }
        if (!accepted)
            break;
        double *swap = z;
        z = z_new;
        z_new = swap;
        memcpy(w, w_new, q * sizeof(double));
        memcpy(grad, grad_new, q * sizeof(double));
        loss = loss_new;
        if (count < cap)
            history[count] = loss;
        count++;
    }
    if (!converged && small_gradient(grad, q, tol))
        converged = 1;
    info[0] = it;
    info[1] = converged;
    info[2] = count;
    free(X1), free(y), free(z), free(z_new), free(work);
    return 0;
}

/* out[r] = sigmoid(z) for row r of X (n_rows x p), with z the sum from 0.0,
 * in column order, of ((x - mean[j]) / scale[j]) coef[j], where a NaN x in
 * column j takes impute[j], plus the intercept. */
void logit_proba(const double *X, int64_t n_rows, int64_t p, const double *impute,
                 const double *mean, const double *scale, const double *coef, double intercept,
                 double *out)
{
    for (int64_t r = 0; r < n_rows; r++) {
        const double *x = X + r * p;
        double s = 0.0;
        for (int64_t j = 0; j < p; j++)
            s += ((isnan(x[j]) ? impute[j] : x[j]) - mean[j]) / scale[j] * coef[j];
        out[r] = sigmoid(s + intercept);
    }
}

/* ---------------------------------------------------------------------- auc */

/* roc_auc's Mann-Whitney AUC of scores[0..n) against labels[0..n) (1 is
 * positive, any other value negative): the rank sum of the positives, where
 * each run of tied scores (one sort_key: -0.0 ties 0.0, and NaN ties NaN and
 * ranks last) takes its average 1-based rank, less n_pos (n_pos + 1) / 2,
 * over n_pos n_neg. Average ranks are multiples of 1/2, so the rank sum is
 * exact in any order. Returns 0, -1 when out of memory, -2 when a class is
 * missing. */
int auc(const double *scores, const int8_t *labels, int64_t n, double *out)
{
    int64_t n_pos = 0;
    for (int64_t i = 0; i < n; i++)
        n_pos += labels[i] == 1;
    if (n_pos == 0 || n_pos == n)
        return -2;
    Pair *pairs = malloc(2 * n * sizeof(Pair));
    if (pairs == NULL)
        return -1;
    for (int64_t i = 0; i < n; i++)
        pairs[i] = (Pair){sort_key(scores[i]), labels[i] == 1};
    const Pair *a = radix_sort(pairs, pairs + n, n);
    double rank_sum = 0.0;
    for (int64_t i = 0, j; i < n; i = j) {
        int64_t pos = 0;
        for (j = i; j < n && a[j].key == a[i].key; j++)
            pos += (int64_t)a[j].val;
        rank_sum += (double)pos * ((double)(i + 1 + j) / 2.0);
    }
    free(pairs);
    *out = (rank_sum - (double)(n_pos * (n_pos + 1)) / 2.0) / (double)(n_pos * (n - n_pos));
    return 0;
}
