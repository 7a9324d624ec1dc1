/* Compiled WENO row kernel: WenoScheme.combine (numerics/weno.py) of the
 * plus windows of F+ plus its mirror image on F-, one pass per interface.
 *
 * Every expression below is the NumPy combination's, operation for
 * operation and in its order, so that with -ffp-contract=off (and never
 * -ffast-math) the result is bitwise the reference.  No coefficient
 * lives here: the stencil tables, the linear weights, BETA_K, eps / 6
 * and WENO_EPS_FLOOR are arguments (repro/numerics/native.py passes the
 * Python objects' values).
 *
 * Layout: fp / fm are (n, R) and out is (nif, R), C-contiguous — the
 * sweep axis first, everything else flattened into R contiguous
 * columns, which is how ConvectiveFlux.divergence stores the split
 * fluxes.  Interface j reads rows start + j .. start + j + 5.
 *
 * The loop over the R columns only vectorises with scalar temporaries
 * and restrict row pointers that are function *parameters* (local
 * arrays v[6], b[4] end in "complicated access pattern"; restrict on
 * block-scope pointers is dropped and the 12 run-time alias checks
 * exceed gcc's limit).
 */
#include <stddef.h>

#define INLINE static inline __attribute__((always_inline))

struct tables {
    double c[4][3], d1[4][3], d2[4][3], w[4];
    double eps6, floor, beta_k, limit, cap;
};

/* ((a T0 + b T1) + c T2): the two `+=` passes of the NumPy code */
#define DOT(T, a, b, c) ((a) * (T)[0] + (b) * (T)[1] + (c) * (T)[2])

INLINE double beta(const struct tables *t, int r, double eps,
                   double a, double b, double c)
{
    double p = DOT(t->d1[r], a, b, c), s = DOT(t->d2[r], a, b, c);
    return (p * p + s * s * t->beta_k) / eps;
}

/* 1 + beta -> squared -> w / that */
INLINE double alpha(double w, double b)
{
    b += 1.0;
    return w / (b * b);
}

/* np.minimum / np.maximum return NaN when either operand is one; these
 * return `b` then, which keeps a NaN that sits in the later operand
 * (the downwind stencil's).  A NaN or inf anywhere in the window makes
 * eps NaN or inf and with it an alpha of stencils 0..2 or, through
 * these, of stencil 3: the result is NaN in both implementations. */
#define MIN(a, b) ((a) < (b) ? (a) : (b))
#define MAX(a, b) ((a) > (b) ? (a) : (b))

INLINE double combine(const struct tables *t, int nst, int limited,
                      double v0, double v1, double v2,
                      double v3, double v4, double v5)
{
    double eps = (v0 * v0 + v1 * v1 + v2 * v2 + v3 * v3 + v4 * v4 + v5 * v5)
                 * t->eps6 + t->floor;
    double b0 = beta(t, 0, eps, v0, v1, v2);
    double b1 = beta(t, 1, eps, v1, v2, v3);
    double b2 = beta(t, 2, eps, v2, v3, v4);
    double a0 = alpha(t->w[0], b0);
    double a1 = alpha(t->w[1], b1);
    double a2 = alpha(t->w[2], b2);
    double sum = a0 + a1 + a2;
    double num = DOT(t->c[0], v0, v1, v2) * a0 + DOT(t->c[1], v1, v2, v3) * a1
                 + DOT(t->c[2], v2, v3, v4) * a2;
    if (nst == 4) {
        double b3 = beta(t, 3, eps, v3, v4, v5);
        double a3 = alpha(t->w[3], b3);
        double cap = sum * t->cap;
        a3 = MIN(cap, a3);              /* downwind-weight cap */
        if (limited) {                  /* relative-smoothness limiter */
            double bcut = (MIN(MIN(b0, b1), b2) + 1.0) * t->limit;
            double bmax = MAX(MAX(MAX(b0, b1), b2), b3);
            a3 = bmax > bcut ? 0.0 : a3;
        }
        sum += a3;
        num += DOT(t->c[3], v3, v4, v5) * a3;
    }
    return num / sum;
}

/* one interface: restrict only binds on parameters */
INLINE void row(const struct tables *t, int nst, int limited, ptrdiff_t R,
                const double *restrict p0, const double *restrict p1,
                const double *restrict p2, const double *restrict p3,
                const double *restrict p4, const double *restrict p5,
                const double *restrict m0, const double *restrict m1,
                const double *restrict m2, const double *restrict m3,
                const double *restrict m4, const double *restrict m5,
                double *restrict o)
{
    for (ptrdiff_t i = 0; i < R; i++)
        o[i] = combine(t, nst, limited,
                       p0[i], p1[i], p2[i], p3[i], p4[i], p5[i])
             + combine(t, nst, limited,
                       m0[i], m1[i], m2[i], m3[i], m4[i], m5[i]);
}

INLINE void rows(const struct tables *t, int nst, int limited,
                 const double *fp, const double *fm, double *out,
                 ptrdiff_t nif, ptrdiff_t R, ptrdiff_t start)
{
    for (ptrdiff_t j = 0; j < nif; j++) {
        const double *p = fp + (start + j) * R, *m = fm + (start + j) * R;
        /* the minus part is the mirror image: the reversed window of F- */
        row(t, nst, limited, R,
            p, p + R, p + 2 * R, p + 3 * R, p + 4 * R, p + 5 * R,
            m + 5 * R, m + 4 * R, m + 3 * R, m + 2 * R, m + R, m,
            out + j * R);
    }
}

/* C, D1, D2: stencil_tables(nst), (nst, 3) each; w: linear_weights();
 * eps6 = scheme.eps / 6; limit = scheme.downwind_limit (<= 0: off). */
void weno_rows(const double *fp, const double *fm, double *out,
               ptrdiff_t nif, ptrdiff_t R, ptrdiff_t start, int nst,
               const double *C, const double *D1, const double *D2,
               const double *w, double eps6, double floor, double beta_k,
               double limit)
{
    struct tables t = {.eps6 = eps6, .floor = floor, .beta_k = beta_k,
                       .limit = limit};
    for (int r = 0; r < nst; r++) {
        t.w[r] = w[r];
        for (int k = 0; k < 3; k++) {
            t.c[r][k] = C[3 * r + k];
            t.d1[r][k] = D1[3 * r + k];
            t.d2[r][k] = D2[3 * r + k];
        }
    }
    if (nst == 4) {
        t.cap = w[3] / (1.0 - w[3]);
        if (limit > 0)
            rows(&t, 4, 1, fp, fm, out, nif, R, start);
        else
            rows(&t, 4, 0, fp, fm, out, nif, R, start);
    } else
        rows(&t, 3, 0, fp, fm, out, nif, R, start);
}
