/* One direction of the WENO sweep, weno_sweep() near the end: pre-pass
 * flux_split(), row kernel weno_rows(), flux difference; then ComputeDt's
 * max_rate(), which shares the pre-pass's cell arithmetic.  The row kernel:
 * WenoScheme.combine (numerics/weno.py) of the plus windows of F+ plus
 * its mirror image on F-, one pass per interface.
 *
 * Every expression below is the NumPy combination's, operation for
 * operation and in its order, so that with -ffp-contract=off (and never
 * -ffast-math) the result is bitwise the reference.  No coefficient
 * lives here: the stencil tables, the linear weights, BETA_K, eps / 6
 * and WENO_EPS_FLOOR are arguments (repro/numerics/native.py passes the
 * Python objects' values).
 *
 * Two divides per combination, which bound the kernel: 1 / eps_eff and
 * num / sum.  The weights are alpha_r = w_r prod_{s!=r} (1 + beta_s)^2,
 * w_r / (1 + beta_r)^2 times a factor common to all r that num / sum
 * cancels.  beta_s / eps_eff <= 6 / WENO_EPS times the top eigenvalue of
 * stencil s's quadratic form (31 downwind, <= 12.8 upwind): a factor is
 * < 3.5e8 (< 6e7 upwind) and a product of three < 1.2e24.
 *
 * Layout: fp / fm are (n, R) and out is (nif, R), C-contiguous — the
 * sweep axis first, everything else flattened into R contiguous
 * columns, which is how ConvectiveFlux.divergence stores the split
 * fluxes.  Interface j reads rows start + j .. start + j + 5.
 *
 * The column loop only vectorises with scalar temporaries and restrict
 * row pointers that are function *parameters* (local arrays end in
 * "complicated access pattern"; restrict on block-scope pointers is
 * dropped and 12 run-time alias checks exceed gcc's limit).
 */
#include <math.h>
#include <stddef.h>
#include <stdint.h>
#include <string.h>

#define INLINE static inline __attribute__((always_inline))
#define IN const double *restrict
#define OUT double *restrict

struct tables {
    double c[4][3], d1[4][3], d2[4][3], w[4];
    double eps6, floor, beta_k, limit, cap;
};

/* ((a T0 + b T1) + c T2): the two `+=` passes of the NumPy code */
#define DOT(T, a, b, c) ((a) * (T)[0] + (b) * (T)[1] + (c) * (T)[2])

INLINE double beta(const struct tables *t, int r, double inv,
                   double a, double b, double c)
{
    double p = DOT(t->d1[r], a, b, c), s = DOT(t->d2[r], a, b, c);
    return (p * p + s * s * t->beta_k) * inv;
}

/* (1 + beta)^2: a stencil's factor in the other stencils' weights */
#define SQ1(b) (((b) + 1.0) * ((b) + 1.0))

/* np.minimum / np.maximum return NaN when either operand is one, these
 * `b`; no result depends on it: a NaN in the window or an inf a stencil
 * reads makes a beta NaN, its factor every other weight, and the result */
#define MIN(a, b) ((a) < (b) ? (a) : (b))
#define MAX(a, b) ((a) > (b) ? (a) : (b))

INLINE double combine(const struct tables *t, int nst, int limited,
                      double v0, double v1, double v2,
                      double v3, double v4, double v5)
{
    double inv = 1.0 / ((v0 * v0 + v1 * v1 + v2 * v2 + v3 * v3
                         + v4 * v4 + v5 * v5) * t->eps6 + t->floor);
    double b0 = beta(t, 0, inv, v0, v1, v2);
    double b1 = beta(t, 1, inv, v1, v2, v3);
    double b2 = beta(t, 2, inv, v2, v3, v4);
    double b3 = nst == 4 ? beta(t, 3, inv, v3, v4, v5) : 0.0;
    /* g3 = 1 with three stencils: x * 1.0 is x, NumPy's missing pass */
    double g0 = SQ1(b0), g1 = SQ1(b1), g2 = SQ1(b2), g3 = SQ1(b3);
    double a0 = t->w[0] * g1 * g2 * g3;
    double a1 = t->w[1] * g0 * g2 * g3;
    double a2 = t->w[2] * g0 * g1 * g3;
    double sum = a0 + a1 + a2;
    double num = DOT(t->c[0], v0, v1, v2) * a0 + DOT(t->c[1], v1, v2, v3) * a1
                 + DOT(t->c[2], v2, v3, v4) * a2;
    if (nst == 4) {
        double a3 = t->w[3] * g0 * g1 * g2;
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
                IN p0, IN p1, IN p2, IN p3, IN p4, IN p5,
                IN m0, IN m1, IN m2, IN m3, IN m4, IN m5, OUT o)
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
    memcpy(t.c, C, sizeof t.c[0] * nst);    /* (nst, 3) each */
    memcpy(t.d1, D1, sizeof t.d1[0] * nst);
    memcpy(t.d2, D2, sizeof t.d2[0] * nst);
    memcpy(t.w, w, sizeof t.w[0] * nst);
    if (nst == 4) {
        t.cap = w[3] / (1.0 - w[3]);
        if (limit > 0)
            rows(&t, 4, 1, fp, fm, out, nif, R, start);
        else
            rows(&t, 4, 0, fp, fm, out, nif, R, start);
    } else
        rows(&t, 3, 0, fp, fm, out, nif, R, start);
}

/* ---- the pointwise pre-pass: Lax-Friedrichs alpha, curvilinear flux and
 * the split F+- = (Fhat +- alpha J U) / 2, stored sweep axis first ----
 *
 * lax_friedrichs_split (numerics/fluxes.py) for an ideal gas with one
 * species and no transported scalar, every expression in NumPy's order:
 * sum() and einsum() accumulate from +0.0, `0.5 * s / rho` is
 * `(0.5 s) / rho`.  gamma, the pressure floor and the energy form are
 * arguments.
 *
 * Layout: u is (dim + 2, B, n0, n1, n2), J (B, n0, n1, n2) and each of
 * the dim components of m, `mc` elements apart, (B, n0, n1, n2), all
 * C-contiguous (n0 = 1 in 2-D).  fp / fm are (n_d, dim + 2, B, *valid
 * transverse): what the row kernel above reads.  pv, the primitives pass
 * A reads, is (dim + 1, B, n0, n1, n2): the velocities, then a.
 */
enum { TY = 8, TZ = 64 };   /* the transposition tile of the last sweep */

/* one cell's pressure from its conserved values */
INLINE double pressure(int dim, double gamma, double rho, double q0,
                       double q1, double q2, double E)
{
    double s = q0 * q0 + q1 * q1;
    return (gamma - 1.0) * (E - 0.5 * (dim == 3 ? s + q2 * q2 : s) / rho);
}

/* a = sqrt(gamma max(p, floor) / rho): np.maximum keeps a NaN p */
#define SOUND(p, rho) sqrt(gamma * ((p) < floor ? floor : (p)) / (rho))
/* Uhat = m . v and (|Uhat| + a |m|) / J, the sums einsum's from +0.0 */
#define UHAT(g0, g1, g2, v0, v1, v2) \
    (dim == 3 ? 0.0 + g0 * v0 + g1 * v1 + g2 * v2 : 0.0 + g0 * v0 + g1 * v1)
#define WAVE(uh, a, g0, g1, g2, Jc) \
    ((fabs(uh) + (a) * sqrt(0.0 + g0 * g0 + g1 * g1 + g2 * g2)) / (Jc))

/* gcc vectorises an integer max reduction but, without
 * -ffinite-math-only, not a floating one: doubles are compared through
 * the int64 that orders as they do (its own inverse on the bits); KEEP
 * adds l to the max mx and notes a NaN, kept() is their max (NaN when
 * one was, as ndarray.max) */
#define ORDERED(k) ((k) ^ (((k) >> 63) & INT64_MAX))
#define KEEP(l, mx, nan) do { double l_ = (l); int64_t k_; \
    memcpy(&k_, &l_, sizeof k_); k_ = ORDERED(k_); \
    mx = k_ > mx ? k_ : mx; nan |= l_ != l_; } while (0)

INLINE double kept(int64_t mx, int64_t nan)
{
    double x;
    mx = ORDERED(mx);
    memcpy(&x, &mx, sizeof x);
    return nan ? NAN : x;
}

/* pass A's first half, once per state: n cells' velocities and a */
INLINE void primitives(int dim, double gamma, double floor, ptrdiff_t n,
                       IN r, IN q0, IN q1, IN q2, IN e,
                       OUT v0, OUT v1, OUT v2, OUT va)
{
    for (ptrdiff_t i = 0; i < n; i++) {
        double rho = 0.0 + r[i];
        double p = pressure(dim, gamma, rho, q0[i], q1[i], q2[i], e[i]);
        v0[i] = q0[i] / rho, v1[i] = q1[i] / rho;
        if (dim == 3)
            v2[i] = q2[i] / rho;
        va[i] = SOUND(p, rho);
    }
}

/* pass A's second half, per direction: max over n cells of
 * (|Uhat| + a |m|) / J, NaN when one is */
INLINE double speed(int dim, ptrdiff_t n, IN v0, IN v1, IN v2, IN va,
                    IN m0, IN m1, IN m2, IN J)
{
    int64_t mx = INT64_MIN, nan = 0;
    for (ptrdiff_t i = 0; i < n; i++) {
        double g0 = m0[i], g1 = m1[i], g2 = dim == 3 ? m2[i] : 0.0;
        KEEP(WAVE(UHAT(g0, g1, g2, v0[i], v1[i], v2[i]), va[i], g0, g1, g2,
                  J[i]), mx, nan);
    }
    return kept(mx, nan);
}

#define SPLIT(P, M, f, q) do { double ju = (q) * Jc * alpha, fh = (f); \
    P[i] = (fh + ju) * 0.5; M[i] = (fh - ju) * 0.5; } while (0)

/* pass B, one row: flux and split */
INLINE void split_row(int dim, double gamma, int distributed, double alpha,
                      ptrdiff_t n,
                      IN r, IN q0, IN q1, IN q2, IN e,
                      IN m0, IN m1, IN m2, IN J,
                      OUT fr, OUT f0, OUT f1, OUT f2, OUT fe,
                      OUT br, OUT b0, OUT b1, OUT b2, OUT be)
{
    for (ptrdiff_t i = 0; i < n; i++) {
        double rho = 0.0 + r[i], a0 = q0[i], a1 = q1[i], a2 = q2[i];
        double E = e[i], Jc = J[i], g0 = m0[i], g1 = m1[i];
        double g2 = dim == 3 ? m2[i] : 0.0;
        double p = pressure(dim, gamma, rho, a0, a1, a2, E);
        double uh = UHAT(g0, g1, g2, (a0 / rho), (a1 / rho), (a2 / rho));
        SPLIT(fr, br, r[i] * uh, r[i]);
        SPLIT(f0, b0, a0 * uh + g0 * p, a0);
        SPLIT(f1, b1, a1 * uh + g1 * p, a1);
        if (dim == 3)
            SPLIT(f2, b2, a2 * uh + g2 * p, a2);
        SPLIT(fe, be, distributed ? E * uh + p * uh : (E + p) * uh, E);
    }
}

/* the components (rho, q0, q1, q2, E) of u or F+-, and those of m, behind
 * one first element; in 2-D the third of each repeats the second, unused */
#define U5(r, cs) r, r + cs, r + 2 * cs, r + dim * cs, r + (dim + 1) * cs
#define M3(g) g, g + mc, g + (dim - 1) * mc
/* the velocities and a of the primitives, the same way */
#define V4(p, cs) p, p + cs, p + (dim - 1) * cs, p + dim * cs

/* the cells a sweep along d works on: per axis the ghost rows skipped
 * (none along d), the cells left and their stride in one sweep-major
 * plane — the transverse cells of one member, whose count is returned */
INLINE ptrdiff_t crop(const ptrdiff_t *n, int d, ptrdiff_t ng, ptrdiff_t *lo,
                      ptrdiff_t *v, ptrdiff_t *os)
{
    ptrdiff_t plane = 1;
    for (int t = 2; t >= 0; t--) {
        lo[t] = t != d && n[t + 1] > 1 ? ng : 0;
        v[t] = n[t + 1] - 2 * lo[t];
        if (t != d) {
            os[t] = plane;
            plane *= v[t];
        }
    }
    return plane;
}

/* member b of the batch: its alpha over its full grown array (its
 * primitives computed first if `fill`, else read), then the cells
 * without the ghost rows of the transverse axes */
INLINE void member(int dim, ptrdiff_t b, const double *u, const double *m,
                   ptrdiff_t mc, const double *J, const ptrdiff_t *n, int d,
                   ptrdiff_t ng, double gamma, double floor, int distributed,
                   double *alpha, double *fp, double *fm, double *pv,
                   int fill)
{
    ptrdiff_t n1 = n[2], n2 = n[3], N = n[1] * n1 * n2, cs = n[0] * N;
    ptrdiff_t lo[3], v[3], os[3], plane = crop(n, d, ng, lo, v, os);
    u += b * N, m += b * N, J += b * N, pv += b * N;
    if (fill)
        primitives(dim, gamma, floor, N, U5(u, cs), V4(pv, cs));
    *alpha = speed(dim, N, V4(pv, cs), M3(m), J);

    ptrdiff_t sc = n[0] * plane;    /* one component of one sweep index */
    os[d] = (dim + 2) * sc;
#define ROW(i, nz, fp, fm, sc) split_row( \
    dim, gamma, distributed, *alpha, nz, U5((u + i), cs), M3((m + i)), \
    J + i, U5((fp), sc), U5((fm), sc))
    for (ptrdiff_t i0 = 0; i0 < v[0]; i0++)
        for (ptrdiff_t i1 = 0; i1 < v[1]; i1 += d == 2 ? TY : 1)
            for (ptrdiff_t i2 = 0; i2 < v[2]; i2 += d == 2 ? TZ : v[2]) {
                ptrdiff_t i = ((i0 + lo[0]) * n1 + i1 + lo[1]) * n2 + lo[2] + i2;
                ptrdiff_t o = b * plane + i0 * os[0] + i1 * os[1] + i2 * os[2];
                if (d != 2) {
                    ROW(i, v[2], fp + o, fm + o, sc);
                    continue;
                }
                /* the sweep axis is the unit-stride one: TY rows of it
                 * into a tile, the tile out transposed, so that the far
                 * apart sweep-major stores are TY wide */
                double tile[2 * 5 * TY * TZ];
                ptrdiff_t ny = v[1] - i1 < TY ? v[1] - i1 : TY;
                ptrdiff_t nz = v[2] - i2 < TZ ? v[2] - i2 : TZ;
                for (ptrdiff_t y = 0; y < ny; y++)
                    ROW(i + y * n2, nz, tile + y * TZ,
                        tile + 5 * TY * TZ + y * TZ, TY * TZ);
                for (int k = 0; k < 2 * 5; k++) {   /* F+ then F- */
                    const double *src = tile + k * TY * TZ;
                    double *dst = (k < 5 ? fp : fm) + o + k % 5 * sc;
                    if (k % 5 < dim + 2)
                        for (ptrdiff_t z = 0; z < nz; z++)
                            for (ptrdiff_t y = 0; y < ny; y++)
                                dst[z * os[2] + y] = src[y * TZ + z];
                }
            }
}

/* n = (B, n0, n1, n2); d: the sweep axis among the three; alpha: one per
 * member, `as` apart (0: nobody reads them); pv: the primitives, written
 * (fill) or read */
void flux_split(const double *u, const double *m, ptrdiff_t mc,
                const double *J, const ptrdiff_t *n, int dim, int d,
                ptrdiff_t ng, double gamma, double floor, int distributed,
                double *alpha, ptrdiff_t as, double *fp, double *fm,
                double *pv, int fill)
{
#define MEMBER(dim) member(dim, b, u, m, mc, J, n, d, ng, gamma, floor, \
    distributed, alpha + b * as, fp, fm, pv, fill)
    for (ptrdiff_t b = 0; b < n[0]; b++)
        dim == 3 ? MEMBER(3) : MEMBER(2);
}

/* ---- the post-pass: out = [out +] -(f[i+1] - f[i]) / J, from the
 * sweep-major interfaces into u's axis order, in the order NumPy's
 * subtract, divide, negative and add passes have ---- */
INLINE void diff_row(int add, ptrdiff_t n, ptrdiff_t fs, IN f0, IN f1, IN J,
                     OUT o)
{
    for (ptrdiff_t i = 0; i < n; i++) {
        double x = -((f1[i * fs] - f0[i * fs]) / J[i]);
        o[i] = add ? o[i] + x : x;
    }
}

/* One direction of -(1/J) d(Fhat)/d(xi) in one call: the arguments of
 * flux_split (n by value) and of weno_rows, between them their scratch —
 * fp, fm as flux_split fills them, fi (nv + 1, dim + 2, B, *valid
 * transverse) the interfaces of the valid region — then the right-hand
 * side (dim + 2, B, *valid) written (add: added to), and the primitives
 * pass A computes into pv (fill) or reads from it.  ng >= 3. */
void weno_sweep(const double *u, const double *m, ptrdiff_t mc,
                const double *J, ptrdiff_t B, ptrdiff_t n0, ptrdiff_t n1,
                ptrdiff_t n2, int dim, int d, ptrdiff_t ng, double gamma,
                double pfloor, int distributed, double *fp, double *fm,
                double *fi, int nst, const double *C, const double *D1,
                const double *D2, const double *w, double eps6, double floor,
                double beta_k, double limit, double *out, int add,
                double *pv, int fill)
{
    ptrdiff_t n[4] = {B, n0, n1, n2}, lo[3], v[3], os[3];
    ptrdiff_t plane = crop(n, d, ng, lo, v, os), R = (dim + 2) * B * plane;
    double alpha;
    flux_split(u, m, mc, J, n, dim, d, ng, gamma, pfloor, distributed,
               &alpha, 0, fp, fm, pv, fill);
    lo[d] = ng, v[d] -= 2 * ng, os[d] = R;   /* now the valid cells of d too */
    weno_rows(fp, fm, fi, v[d] + 1, R, ng - 3, nst, C, D1, D2, w, eps6, floor,
              beta_k, limit);
    for (ptrdiff_t cb = 0; cb < (dim + 2) * B; cb++)    /* component, member */
        for (ptrdiff_t i0 = 0; i0 < v[0]; i0++)
            for (ptrdiff_t i1 = 0; i1 < v[1]; i1++) {
                const double *f = fi + cb * plane + i0 * os[0] + i1 * os[1];
                const double *Jr = J + ((cb % B * n0 + i0 + lo[0]) * n1
                                        + i1 + lo[1]) * n2 + lo[2];
                double *o = out + ((cb * v[0] + i0) * v[1] + i1) * v[2];
                if (d == 2)     /* interfaces of one row are R apart */
                    diff_row(add, v[2], R, f, f + R, Jr, o);
                else if (add)
                    diff_row(1, v[2], 1, f, f + R, Jr, o);
                else
                    diff_row(0, v[2], 1, f, f + R, Jr, o);
            }
}

/* ---- ComputeDt: local_max_rate (numerics/cfl.py), per member the max
 * over its cells of sum_d (|Uhat_d| + a |m_d|) / J, `(w0 + w1) + w2` ---- */
INLINE void rate_row(int dim, double gamma, double floor, ptrdiff_t n,
                     const double *u, ptrdiff_t cs, const double *const *m,
                     ptrdiff_t im, ptrdiff_t mc, const double *J,
                     int64_t *top, int64_t *bad)
{
    int64_t mx = *top, nan = *bad;
    for (ptrdiff_t i = 0; i < n; i++) {
        double rho = 0.0 + u[i], q0 = u[cs + i], q1 = u[2 * cs + i];
        double q2 = dim == 3 ? u[3 * cs + i] : 0.0, E = u[(dim + 1) * cs + i];
        double p = pressure(dim, gamma, rho, q0, q1, q2, E), l = 0.0;
        double a = SOUND(p, rho), v0 = q0 / rho, v1 = q1 / rho, v2 = q2 / rho;
        for (int d = 0; d < dim; d++) {
            const double *g = m[d] + im + i;
            double g0 = g[0], g1 = g[mc], g2 = dim == 3 ? g[2 * mc] : 0.0;
            double w = WAVE(UHAT(g0, g1, g2, v0, v1, v2), a, g0, g1, g2, J[i]);
            l = d ? l + w : w;
        }
        KEEP(l, mx, nan);
    }
    *top = mx, *bad = nan;
}

/* n = (B, n0, n1, n2) cells, unit-stride along n2; m: each direction's;
 * s: the element strides of u (component, member, n0, n1), of every m
 * (the same four) and of J (member, n0, n1); rate: one per member */
void max_rate(const double *u, const double *const *m, const double *J,
              const ptrdiff_t *n, const ptrdiff_t *s, int dim, double gamma,
              double floor, double *rate)
{
    for (ptrdiff_t b = 0; b < n[0]; b++) {
        int64_t mx = INT64_MIN, nan = 0;
        for (ptrdiff_t i0 = 0; i0 < n[1]; i0++)
            for (ptrdiff_t i1 = 0; i1 < n[2]; i1++) {
                const double *r = u + b * s[1] + i0 * s[2] + i1 * s[3];
                const double *j = J + b * s[8] + i0 * s[9] + i1 * s[10];
                ptrdiff_t im = b * s[5] + i0 * s[6] + i1 * s[7];
#define RATE(dim) rate_row(dim, gamma, floor, n[3], r, s[0], m, im, s[4], j, \
                           &mx, &nan)
                dim == 3 ? RATE(3) : RATE(2);
            }
        rate[b] = kept(mx, nan);
    }
}
