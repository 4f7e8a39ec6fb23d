/* Compiled tree kernel: grow_tree, the C twin of tree._grow_tree_py, which
 * grows a whole tree in one call, and choice, its feature draw. split_rows
 * keeps the numpy search's (kernels.best_split) order of work and int64
 * score expression, so the trees are bit-identical (build without FMA
 * contraction or fast-math). Functions return 0 (grow_tree: the node count),
 * -1 when out of memory, -2 when a row index is out of range. */
#include <stdint.h>
#include <stdlib.h>
#include <string.h>

/* numpy's bitgen_t (numpy/random/bitgen.h), the C face of a Generator's
 * bit generator */
typedef struct {
    void *state;
    uint64_t (*next_uint64)(void *st);
    uint32_t (*next_uint32)(void *st);
    double (*next_double)(void *st);
    uint64_t (*next_raw)(void *st);
} bitgen_t;

typedef struct { double v; int64_t cy; } ValY;

/* Stable bottom-up merge sort: insertion-sorted runs of 16, then merges
 * between a and tmp. Returns whichever buffer holds the sorted data. */
static ValY *sort_valy(ValY *a, ValY *tmp, int64_t n)
{
    for (int64_t lo = 0; lo < n; lo += 16) {
        int64_t hi = lo + 16 < n ? lo + 16 : n;
        for (int64_t i = lo + 1; i < hi; i++) {
            ValY x = a[i];
            int64_t j = i;
            for (; j > lo && a[j - 1].v > x.v; j--)
                a[j] = a[j - 1];
            a[j] = x;
        }
    }
    for (int64_t w = 16; w < n; w *= 2) {
        for (int64_t lo = 0; lo < n; lo += 2 * w) {
            int64_t mid = lo + w < n ? lo + w : n, hi = lo + 2 * w < n ? lo + 2 * w : n;
            for (int64_t i = lo, j = mid, k = lo; k < hi; k++)
                tmp[k] = j == hi || (i < mid && a[i].v <= a[j].v) ? a[i++] : a[j++];
        }
        ValY *t = a; a = tmp; tmp = t;
    }
    return a;
}

static double node_score(int64_t n, int64_t pos)
{
    int64_t neg = n - pos;
    return (double)(n * n - pos * pos - neg * neg) / (double)n;
}

/* kernels.best_split over n valid rows holding pos positives; buf holds
 * 2n ValY */
static void split_rows(const double *X, int64_t p, const int8_t *y, const int64_t *idx,
                       int64_t n, int64_t pos, const int64_t *feats, int64_t n_feats,
                       ValY *buf, int64_t *out_f, double *out_thr, double *out_score)
{
    int64_t neg = n - pos, best_f = -1;
    double best_score = node_score(n, pos), best_thr = 0.0;
    for (int64_t k = 0; k < n_feats; k++) {
        for (int64_t i = 0; i < n; i++)
            buf[i] = (ValY){X[idx[i] * p + feats[k]], y[idx[i]]};
        ValY *s = sort_valy(buf, buf + n, n);
        int64_t pl = 0;
        for (int64_t i = 0; i + 1 < n; i++) {
            pl += s[i].cy;
            if (s[i].v == s[i + 1].v)
                continue;
            int64_t nl = i + 1, ql = nl - pl, nr = n - nl, pr = pos - pl, qr = neg - ql;
            double score = (double)(nl * nl - pl * pl - ql * ql) / (double)nl
                         + (double)(nr * nr - pr * pr - qr * qr) / (double)nr;
            if (score < best_score) {
                best_f = feats[k];
                best_thr = (s[i].v + s[i + 1].v) / 2.0;
                best_score = score;
            }
        }
    }
    *out_f = best_f;
    *out_thr = best_thr;
    *out_score = best_score;
}

/* numpy's random_bounded_uint64(rng, 0, max, 0, 0) for max < 2**32 - 1:
 * Lemire's bounded draw over next_uint32 */
static int64_t bounded(bitgen_t *rng, int64_t max)
{
    if (max == 0)
        return 0;
    uint32_t excl = (uint32_t)max + 1;
    uint64_t m = (uint64_t)rng->next_uint32(rng->state) * excl;
    if ((uint32_t)m < excl) {
        uint32_t threshold = (UINT32_MAX - (uint32_t)max) % excl;
        while ((uint32_t)m < threshold)
            m = (uint64_t)rng->next_uint32(rng->state) * excl;
    }
    return (int64_t)(m >> 32);
}

/* Generator.choice(p, k, replace=False) when numpy takes Floyd's algorithm
 * (p <= 10000 or k <= p // 50): Floyd's draws, then numpy's shuffle of the
 * result. seen[0..p) must be zero on entry and is zero again on return. */
static void draw_features(bitgen_t *rng, int64_t p, int64_t k, int64_t *out, uint8_t *seen)
{
    for (int64_t j = p - k; j < p; j++) {
        int64_t v = bounded(rng, j);
        if (seen[v])
            v = j;
        seen[v] = 1;
        out[j - (p - k)] = v;
    }
    for (int64_t i = k - 1; i > 0; i--) {
        int64_t j = bounded(rng, i), t = out[j];
        out[j] = out[i];
        out[i] = t;
    }
    for (int64_t i = 0; i < k; i++)
        seen[out[i]] = 0;
}

int choice(bitgen_t *rng, int64_t p, int64_t k, int64_t *out)
{
    uint8_t *seen = calloc(p > 0 ? p : 1, 1);
    if (seen == NULL)
        return -1;
    draw_features(rng, p, k, out, seen);
    free(seen);
    return 0;
}

typedef struct { int64_t node, start, end, depth; } Job;

static int cmp_int64(const void *a, const void *b)
{
    int64_t x = *(const int64_t *)a, y = *(const int64_t *)b;
    return (x > y) - (x < y);
}

/* Grows one tree over rows idx[0..n) into node arrays of capacity
 * c = max(2n - 1, 1): threshold[0..c) and the int64 block ints[0..5c), which
 * holds the rows feature, left, right, count and npos one after another.
 * Split gains accumulate into importance[0..p). maxdepth < 0 means
 * unbounded. rng NULL (or mtry >= p) searches every feature at every
 * node; otherwise each node draws mtry features from rng, as
 * np.sort(rng.choice(p, mtry, replace=False)) would. Preorder DFS with the
 * left child first; a split node's children are the next two node rows. */
int64_t grow_tree(const double *X, int64_t n_rows, int64_t p, const int8_t *y,
                  const int64_t *idx, int64_t n, int64_t minsplit, double cp,
                  int64_t maxdepth, int64_t mtry, bitgen_t *rng, int64_t *ints,
                  double *threshold, double *importance)
{
    for (int64_t i = 0; i < n; i++)
        if (idx[i] < 0 || idx[i] >= n_rows)
            return -2;
    int64_t c = n > 0 ? 2 * n - 1 : 1;
    int64_t *feature = ints, *left = ints + c, *right = ints + 2 * c, *count = ints + 3 * c,
            *npos = ints + 4 * c;
    if (rng == NULL || mtry >= p) {
        rng = NULL;
        mtry = p;
    }
    int64_t cap = n > 0 ? n : 1;
    int64_t *rows = malloc(2 * cap * sizeof(int64_t));
    int64_t *feats = malloc((p > 0 ? p : 1) * sizeof(int64_t));
    ValY *buf = malloc(2 * cap * sizeof(ValY));
    Job *stack = malloc((cap + 1) * sizeof(Job));  /* live jobs hold disjoint rows */
    uint8_t *seen = calloc(p > 0 ? p : 1, 1);
    int64_t m = -1;
    if (rows == NULL || feats == NULL || buf == NULL || stack == NULL || seen == NULL)
        goto done;

    int64_t *tmp = rows + cap;
    memcpy(rows, idx, n * sizeof(int64_t));
    for (int64_t k = 0; k < p; k++)
        feats[k] = k;
    int64_t pos_root = 0;
    for (int64_t i = 0; i < n; i++)
        pos_root += y[rows[i]];
    int64_t root_err = n - (pos_root > n - pos_root ? pos_root : n - pos_root);
    feature[0] = left[0] = right[0] = -1;
    threshold[0] = 0.0;
    count[0] = n;
    npos[0] = pos_root;
    m = 1;
    int64_t top = 0;
    stack[top++] = (Job){0, 0, n, 0};
    while (top > 0) {
        Job job = stack[--top];
        int64_t nn = count[job.node], pos = npos[job.node];
        if (pos == 0 || pos == nn || nn < minsplit)
            continue;
        if (maxdepth >= 0 && job.depth >= maxdepth)
            continue;
        if (rng != NULL) {
            draw_features(rng, p, mtry, feats, seen);
            qsort(feats, mtry, sizeof(int64_t), cmp_int64);
        }
        int64_t f;
        double thr, child_score;
        split_rows(X, p, y, rows + job.start, nn, pos, feats, mtry, buf, &f, &thr,
                   &child_score);
        if (f < 0)
            continue;

        /* stable partition: rows going left keep their order in place, the
         * rest follow in order */
        int64_t nl = 0, nr = 0, pos_l = 0;
        for (int64_t i = job.start; i < job.end; i++) {
            int64_t r = rows[i];
            if (X[r * p + f] <= thr) {
                rows[job.start + nl++] = r;
                pos_l += y[r];
            } else {
                tmp[nr++] = r;
            }
        }
        memcpy(rows + job.start + nl, tmp, nr * sizeof(int64_t));
        int64_t pos_r = pos - pos_l;

        /* rpart-style pruning: relative misclassification improvement >= cp */
        int64_t err_node = nn - (pos > nn - pos ? pos : nn - pos);
        int64_t err_children = nl - (pos_l > nl - pos_l ? pos_l : nl - pos_l)
                             + nr - (pos_r > nr - pos_r ? pos_r : nr - pos_r);
        if (root_err > 0 && (double)(err_node - err_children) / (double)root_err < cp)
            continue;

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

done:
    free(rows);
    free(feats);
    free(buf);
    free(stack);
    free(seen);
    return m;
}
