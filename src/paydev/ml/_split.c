/* Compiled split-search kernel, the C twin of _split_py.best_split: same
 * contract, same int64 score expression, bit-identical results (build
 * without FMA contraction or fast-math). Returns 0, -1 when out of memory,
 * -2 when a row or feature index is out of range. */
#include <stdint.h>
#include <stdlib.h>

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

int best_split(const double *X, int64_t n_rows, int64_t p, const int8_t *y,
               const int64_t *idx, int64_t n, const int64_t *feats, int64_t n_feats,
               int64_t *out_f, double *out_thr, double *out_score)
{
    int64_t pos = 0, best_f = -1;
    for (int64_t i = 0; i < n; i++) {
        if (idx[i] < 0 || idx[i] >= n_rows)
            return -2;
        pos += y[idx[i]];
    }
    for (int64_t k = 0; k < n_feats; k++)
        if (feats[k] < 0 || feats[k] >= p)
            return -2;
    int64_t neg = n - pos;
    double best_score = (double)(n * n - pos * pos - neg * neg) / (double)n, best_thr = 0.0;

    ValY *buf = malloc(2 * (n > 0 ? n : 1) * sizeof(ValY));
    if (buf == NULL)
        return -1;
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
    free(buf);
    *out_f = best_f;
    *out_thr = best_thr;
    *out_score = best_score;
    return 0;
}
