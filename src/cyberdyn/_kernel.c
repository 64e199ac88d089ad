/* The compiled kernels of both engines and of the graph generators:
 * skip-ahead stepping of the attack-defense Markov chain on numpy's PCG64
 * (cyb_run), the pair generators' coin loop on the same generator
 * (cyb_pairs) and forward-Euler stepping of the mean-field model (cyb_sum,
 * cyb_mf, at the end of the file). The loader trusts this file only once
 * each of them has reproduced its numpy loop byte for byte, generator end
 * state included.
 *
 * One step of the chain draws random(n) and flips node v when its draw,
 * the v-th double of the step, falls below v's flip probability. A node
 * whose flip probability is 0 cannot flip whatever it draws, so its draw is
 * skipped instead of made. PCG64 is a 128-bit LCG (s -> a s + c) with an
 * output function on top; d steps of it are s -> A_d s + C_d with
 * A_d = a^d and C_d = c (a^(d-1) + ... + 1) (Brown 1994, "Random number
 * generation with arbitrary strides"). A table of (A_d, C_d) for d = 0..n
 * makes every skip one multiply-add, so each active node draws exactly the
 * double random(n) would give it, and each step leaves the generator where
 * random(n) would.
 *
 * The flip probabilities come precomputed from numpy: node v with k blue
 * neighbours reads prob[2 * (indptr[v] + v + k) + colour] (colour 0 red,
 * 1 blue). The kernel's only float work is the compare and blue / n.
 *
 * The generator is numpy's pcg64_state, read through
 * bit_generator.ctypes.state_address. Its layout and numpy's
 * next_double = (next64 >> 11) * 2^-53 are numpy internals; the loader's
 * runs against the numpy loops, which draw with rng.random, check both.
 */
#include <stdint.h>
#include <stdlib.h>
#include <string.h>
#include <math.h>

typedef __uint128_t u128;

typedef struct {
    u128 state;
    u128 inc;
} pcg64_random_t;

typedef struct {
    pcg64_random_t *pcg_state;
    int has_uint32;
    uint32_t uinteger;
} pcg64_state;

#define PCG_MULT (((u128)2549297995355413924ULL << 64) + 4865540595714422341ULL)

enum { EXIT_HORIZON, EXIT_BLUE, EXIT_RED, EXIT_FROZEN, EXIT_NO_MEMORY = -1 };

/* The XSL-RR output of a state the LCG has just stepped to. */
static inline double draw(u128 s)
{
    uint64_t x = (uint64_t)(s >> 64) ^ (uint64_t)s;
    unsigned rot = (unsigned)(s >> 122);
    uint64_t r = (x >> rot) | (x << ((-rot) & 63u));
    return (double)(r >> 11) * (1.0 / 9007199254740992.0);
}

/* jump[2d], jump[2d + 1] = A_d, C_d for d = 0..n. */
static u128 *jump_table(u128 inc, int64_t n)
{
    u128 *jump = malloc(2 * (size_t)(n + 1) * sizeof(u128));
    if (jump == NULL)
        return NULL;
    jump[0] = 1;
    jump[1] = 0;
    for (int64_t d = 1; d <= n; d++) {
        jump[2 * d] = jump[2 * d - 2] * PCG_MULT;
        jump[2 * d + 1] = jump[2 * d - 1] * PCG_MULT + inc;
    }
    return jump;
}

static inline u128 skip(const u128 *jump, u128 s, int64_t d)
{
    return jump[2 * d] * s + jump[2 * d + 1];
}

#define PROB(v) prob[2 * (indptr[v] + (v) + count[v]) + xi[v]]

/* Set or clear v's active bit to match its flip probability. */
static inline void refresh(int64_t v, const int64_t *indptr, const double *prob,
                           const int64_t *count, const uint8_t *xi, uint64_t *active,
                           int64_t *n_active)
{
    uint64_t bit = (uint64_t)1 << (v & 63);
    int now = PROB(v) != 0.0;
    if (now != ((active[v >> 6] & bit) != 0)) {
        active[v >> 6] ^= bit;
        *n_active += now ? 1 : -1;
    }
}

/* Step the chain from xi (updated in place) for at most `steps` steps,
 * writing mean_xi[0..steps] and, when snaps is not NULL, xi at each step of
 * snap_idx. Returns the exit reason and writes the steps executed and the
 * flips made to stats[0], stats[1]. */
int cyb_run(int64_t n, const int64_t *indptr, const int64_t *indices, const double *prob,
            uint8_t *xi, int64_t steps, double *mean_xi, const int64_t *snap_idx,
            int64_t n_snaps, uint8_t *snaps, void *bitgen_state, int64_t *stats)
{
    pcg64_random_t *rng = ((pcg64_state *)bitgen_state)->pcg_state;
    int64_t words = (n + 63) / 64;
    int64_t *count = calloc((size_t)n, sizeof(int64_t));
    int64_t *flips = malloc((size_t)n * sizeof(int64_t));
    uint64_t *active = calloc((size_t)words, sizeof(uint64_t));
    u128 *jump = jump_table(rng->inc, n);
    if (count == NULL || flips == NULL || active == NULL || jump == NULL) {
        free(count);
        free(flips);
        free(active);
        free(jump);
        return EXIT_NO_MEMORY;
    }

    int64_t blue = 0, n_active = 0, n_flips = 0;
    for (int64_t v = 0; v < n; v++) {
        blue += xi[v];
        for (int64_t e = indptr[v]; e < indptr[v + 1]; e++)
            count[v] += xi[indices[e]];
    }
    for (int64_t v = 0; v < n; v++)
        refresh(v, indptr, prob, count, xi, active, &n_active);

    u128 s = rng->state;
    int64_t step = 0, next_snap = 0;
    int code = EXIT_HORIZON;
    for (;;) {
        mean_xi[step] = (double)blue / (double)n;
        if (snaps != NULL && next_snap < n_snaps && step == snap_idx[next_snap]) {
            memcpy(snaps + next_snap * n, xi, (size_t)n);
            next_snap++;
        }
        if (blue == n || blue == 0) {
            code = blue ? EXIT_BLUE : EXIT_RED;
            break;
        }
        if (step == steps)
            break;
        if (n_active == 0) {
            code = EXIT_FROZEN;
            break;
        }
        /* Node v's draw is the (v + 1)-th LCG step of this step's block. */
        int64_t n_flipped = 0, at = 0;
        for (int64_t w = 0; w < words; w++) {
            for (uint64_t bits = active[w]; bits; bits &= bits - 1) {
                int64_t v = (w << 6) + __builtin_ctzll(bits);
                s = skip(jump, s, v + 1 - at);
                at = v + 1;
                if (draw(s) < PROB(v))
                    flips[n_flipped++] = v;
            }
        }
        s = skip(jump, s, n - at);
        step++;
        if (n_flipped == 0)
            continue;
        /* Flips apply after the whole pass; then only the flipped nodes and
         * their neighbours can change activity. */
        for (int64_t i = 0; i < n_flipped; i++) {
            int64_t v = flips[i];
            xi[v] ^= 1;
            int64_t sign = xi[v] ? 1 : -1;
            blue += sign;
            for (int64_t e = indptr[v]; e < indptr[v + 1]; e++)
                count[indices[e]] += sign;
        }
        for (int64_t i = 0; i < n_flipped; i++) {
            int64_t v = flips[i];
            refresh(v, indptr, prob, count, xi, active, &n_active);
            for (int64_t e = indptr[v]; e < indptr[v + 1]; e++)
                refresh(indices[e], indptr, prob, count, xi, active, &n_active);
        }
        n_flips += n_flipped;
    }

    if (code != EXIT_HORIZON) { /* hold the final state to the horizon */
        for (int64_t k = step + 1; k <= steps; k++)
            mean_xi[k] = mean_xi[step];
        if (snaps != NULL)
            for (int64_t j = next_snap; j < n_snaps; j++)
                memcpy(snaps + j * n, xi, (size_t)n);
    }
    rng->state = s;
    stats[0] = step;
    stats[1] = n_flips;
    free(count);
    free(flips);
    free(active);
    free(jump);
    return code;
}

/* ------------------------------------------------------------------------
 * The coin loop of graphgen's pair generators, draw for draw as numpy's.
 *
 * Row u < n is node u's coin pass: one double per partner v > u, in node
 * order, as rng.random(n - u - 1) draws them. Row n + u is node u's
 * isolated-node redraw: when u has no edge at its turn, it draws full rows
 * of n doubles (its own coin drawn and ignored), as rng.random(n) does,
 * until one links it, at most `tries` times. A node with no edge at its
 * turn had none after the coin pass, since edges are never removed, so
 * this is numpy's walk over the initially isolated nodes. The pair (u, v)
 * links when its double falls below p (PAIRS_ER), below
 * min(w[u] * w[v] / total, 1.0) (PAIRS_CHUNG_LU) or below
 * c[u] == c[v] ? p : p_out (PAIRS_CLUSTERED).
 *
 * A row runs on four LCG lanes, each stepped four states at a time by
 * (A_4, C_4), so that no multiply waits on the one before.
 */

enum { PAIRS_ER, PAIRS_CHUNG_LU, PAIRS_CLUSTERED };

typedef struct {
    double p, p_out, total;
    const double *w;
    const int64_t *c;
    int64_t *degree, *edges, m; /* edges holds m (u, v) pairs */
} pair_run;

static inline __attribute__((always_inline)) double
pair_prob(int kind, const pair_run *r, int64_t u, int64_t v)
{
    if (kind == PAIRS_ER)
        return r->p;
    if (kind == PAIRS_CHUNG_LU) {
        double q = r->w[u] * r->w[v] / r->total;
        return q < 1.0 ? q : 1.0;
    }
    return r->c[u] == r->c[v] ? r->p : r->p_out;
}

static inline __attribute__((always_inline)) void
coin(int kind, pair_run *r, int64_t u, int64_t v, u128 s)
{
    if (draw(s) < pair_prob(kind, r, u, v) && v != u) {
        r->edges[2 * r->m] = u;
        r->edges[2 * r->m + 1] = v;
        r->m++;
        r->degree[u]++;
        r->degree[v]++;
    }
}

/* Node u's coins for the partners lo..n-1 from state s; returns the state
 * of its last draw. */
static inline __attribute__((always_inline)) u128
coin_row(int kind, pair_run *r, int64_t n, int64_t u, int64_t lo, u128 s, u128 inc,
         u128 a4, u128 c4)
{
    int64_t v = lo;
    if (n - v >= 4) {
        u128 l0 = PCG_MULT * s + inc;
        u128 l1 = PCG_MULT * l0 + inc;
        u128 l2 = PCG_MULT * l1 + inc;
        u128 l3 = PCG_MULT * l2 + inc;
        for (;;) {
            coin(kind, r, u, v, l0);
            coin(kind, r, u, v + 1, l1);
            coin(kind, r, u, v + 2, l2);
            coin(kind, r, u, v + 3, l3);
            s = l3;
            v += 4;
            if (n - v < 4)
                break;
            l0 = a4 * l0 + c4;
            l1 = a4 * l1 + c4;
            l2 = a4 * l2 + c4;
            l3 = a4 * l3 + c4;
        }
    }
    for (; v < n; v++) {
        s = PCG_MULT * s + inc;
        coin(kind, r, u, v, s);
    }
    return s;
}

static inline __attribute__((always_inline)) int64_t
pair_rows(int kind, pair_run *r, int64_t n, int64_t tries, int64_t row, int64_t cap,
          pcg64_random_t *rng)
{
    u128 inc = rng->inc, s = rng->state;
    u128 a2 = PCG_MULT * PCG_MULT, a4 = a2 * a2;
    u128 c4 = (a2 * PCG_MULT + a2 + PCG_MULT + 1) * inc; /* C_4 = c (a^3 + a^2 + a + 1) */
    for (; row < 2 * n; row++) {
        int64_t u = row < n ? row : row - n, lo = row < n ? u + 1 : 0;
        if (row >= n && r->degree[u] != 0) /* linked already: no redraw */
            continue;
        if (cap - r->m < n - lo) /* the row might not fit */
            break;
        if (row < n) {
            s = coin_row(kind, r, n, u, lo, s, inc, a4, c4);
            continue;
        }
        int64_t t = 0;
        while (r->degree[u] == 0 && t++ < tries)
            s = coin_row(kind, r, n, u, 0, s, inc, a4, c4);
        if (r->degree[u] == 0) {
            row = -1 - u;
            break;
        }
    }
    rng->state = s;
    return row;
}

/* Draw rows row..2n-1 into edges (room for cap pairs, m of them used),
 * counting each node's edges in degree. Returns 2n when every row is done,
 * the row it stopped at when that row might not fit in edges (make room and
 * call again from it), or -1 - u when node u stayed isolated after `tries`
 * redraws. The generator is left after the last row drawn. */
int64_t cyb_pairs(int64_t n, int64_t kind, double p, double p_out, const double *w,
                  double total, const int64_t *c, int64_t tries, int64_t row,
                  int64_t *degree, int64_t *edges, int64_t cap, int64_t *m,
                  void *bitgen_state)
{
    pcg64_random_t *rng = ((pcg64_state *)bitgen_state)->pcg_state;
    pair_run r = {p, p_out, total, w, c, degree, edges, *m};
    switch (kind) {
    case PAIRS_ER:
        row = pair_rows(PAIRS_ER, &r, n, tries, row, cap, rng);
        break;
    case PAIRS_CHUNG_LU:
        row = pair_rows(PAIRS_CHUNG_LU, &r, n, tries, row, cap, rng);
        break;
    default:
        row = pair_rows(PAIRS_CLUSTERED, &r, n, tries, row, cap, rng);
    }
    *m = r.m;
    return row;
}

/* ------------------------------------------------------------------------
 * Forward-Euler stepping of the mean-field model, in the order and with the
 * roundings of meanfield's numpy loop.
 *
 * np.add.reduce sums a contiguous float64 array pairwise: blocks of at most
 * 128 with eight accumulators, halves rounded down to multiples of 8, added
 * to the identity 0.0. scipy's csr_matvec sums each row in stored order from
 * 0.0; y is that sum times inv_deg. The update is delta = theta - B,
 * delta *= dt, B += delta: three roundings, which the loader's
 * -ffp-contract=off keeps three. min and max return NaN when any entry is
 * NaN, as numpy's do, and the clamp leaves NaN and -0.0 as np.clip does.
 */

static double pairwise_sum(const double *a, int64_t n)
{
    if (n < 8) {
        double res = 0.0;
        for (int64_t i = 0; i < n; i++)
            res += a[i];
        return res;
    }
    if (n <= 128) {
        double r[8];
        int64_t i;
        for (int j = 0; j < 8; j++)
            r[j] = a[j];
        for (i = 8; i < n - (n % 8); i += 8)
            for (int j = 0; j < 8; j++)
                r[j] += a[i + j];
        double res = ((r[0] + r[1]) + (r[2] + r[3])) + ((r[4] + r[5]) + (r[6] + r[7]));
        for (; i < n; i++)
            res += a[i];
        return res;
    }
    int64_t n2 = n / 2;
    n2 -= n2 % 8;
    return pairwise_sum(a, n2) + pairwise_sum(a + n2, n - n2);
}

/* np.add.reduce(a[:n]): the loader's check. */
double cyb_sum(const double *a, int64_t n)
{
    return 0.0 + pairwise_sum(a, n);
}

/* y[v] = (sum of B over v's row, in stored order) * inv_deg[v], four rows
 * at a time; each row keeps its own order. */
static void neighbour_means(int64_t n, const int64_t *indptr, const int64_t *indices,
                            const double *inv_deg, const double *B, double *y)
{
    int64_t v = 0;
    for (; v + 4 <= n; v += 4) {
        const int64_t *r0 = indices + indptr[v], *r1 = indices + indptr[v + 1],
                      *r2 = indices + indptr[v + 2], *r3 = indices + indptr[v + 3];
        int64_t l0 = r1 - r0, l1 = r2 - r1, l2 = r3 - r2, l3 = indptr[v + 4] - indptr[v + 3];
        int64_t m = l0 < l1 ? l0 : l1;
        m = m < l2 ? m : l2;
        m = m < l3 ? m : l3;
        double s0 = 0.0, s1 = 0.0, s2 = 0.0, s3 = 0.0;
        int64_t k;
        for (k = 0; k < m; k++) {
            s0 += B[r0[k]];
            s1 += B[r1[k]];
            s2 += B[r2[k]];
            s3 += B[r3[k]];
        }
        for (int64_t j = k; j < l0; j++)
            s0 += B[r0[j]];
        for (int64_t j = k; j < l1; j++)
            s1 += B[r1[j]];
        for (int64_t j = k; j < l2; j++)
            s2 += B[r2[j]];
        for (int64_t j = k; j < l3; j++)
            s3 += B[r3[j]];
        y[v] = s0 * inv_deg[v];
        y[v + 1] = s1 * inv_deg[v + 1];
        y[v + 2] = s2 * inv_deg[v + 2];
        y[v + 3] = s3 * inv_deg[v + 3];
    }
    for (; v < n; v++) {
        double s = 0.0;
        for (int64_t e = indptr[v]; e < indptr[v + 1]; e++)
            s += B[indices[e]];
        y[v] = s * inv_deg[v];
    }
}

/* The chains of running minima and maxima below run four lanes apiece, so
 * that no chain waits on the latency of the one before. min and max are
 * exact, so the lanes give numpy's result: the Euler update never makes a
 * -0.0 (B + delta is -0.0 only if both are, and delta = (theta - B) dt is
 * -0.0 only if B is +0.0), and NaN is flagged apart. */
typedef struct {
    double lo, hi, dmin, dmax;
    int nan;
} lane;

static inline void euler_one(lane *l, double *b, double theta, double dt, int track)
{
    double d = theta - *b;
    if (track) {
        l->dmax = d > l->dmax ? d : l->dmax;
        l->dmin = d < l->dmin ? d : l->dmin;
    }
    d *= dt;
    double x = *b + d;
    *b = x;
    l->lo = x < l->lo ? x : l->lo;
    l->hi = x > l->hi ? x : l->hi;
    l->nan |= x != x;
}

/* B += (theta - B) dt; the extremes of the new B, a NaN flag and, when
 * `track`, the extremes of theta - B. */
static lane euler_pass(int64_t n, double *B, const double *theta, double dt, int track)
{
    lane l[4];
    for (int j = 0; j < 4; j++)
        l[j] = (lane){INFINITY, -INFINITY, INFINITY, -INFINITY, 0};
    int64_t v = 0;
    for (; v + 4 <= n; v += 4) {
        euler_one(&l[0], B + v, theta[v], dt, track);
        euler_one(&l[1], B + v + 1, theta[v + 1], dt, track);
        euler_one(&l[2], B + v + 2, theta[v + 2], dt, track);
        euler_one(&l[3], B + v + 3, theta[v + 3], dt, track);
    }
    for (; v < n; v++)
        euler_one(&l[0], B + v, theta[v], dt, track);
    for (int j = 1; j < 4; j++) {
        l[0].lo = l[j].lo < l[0].lo ? l[j].lo : l[0].lo;
        l[0].hi = l[j].hi > l[0].hi ? l[j].hi : l[0].hi;
        l[0].dmin = l[j].dmin < l[0].dmin ? l[j].dmin : l[0].dmin;
        l[0].dmax = l[j].dmax > l[0].dmax ? l[j].dmax : l[0].dmax;
        l[0].nan |= l[j].nan;
    }
    return l[0];
}

static inline double nearer(double m, double y, double cut_lo, double cut_hi)
{
    double a = fabs(y - cut_lo), b = fabs(y - cut_hi);
    m = a < m ? a : m;
    return b < m ? b : m;
}

/* The hard threshold's rates of y into theta (1 above cut_hi, 0 below
 * cut_lo, 1/2 between, as np.where gives them), and the least distance
 * from an entry of y to a cut. */
static double hard_rates(int64_t n, const double *y, double cut_lo, double cut_hi,
                         double *theta)
{
    double m[4] = {INFINITY, INFINITY, INFINITY, INFINITY};
    for (int64_t v = 0; v < n; v++)
        theta[v] = y[v] > cut_hi ? 1.0 : (y[v] < cut_lo ? 0.0 : 0.5);
    int64_t v = 0;
    for (; v + 4 <= n; v += 4)
        for (int j = 0; j < 4; j++)
            m[j] = nearer(m[j], y[v + j], cut_lo, cut_hi);
    for (; v < n; v++)
        m[0] = nearer(m[0], y[v], cut_lo, cut_hi);
    double a = m[0] < m[1] ? m[0] : m[1], b = m[2] < m[3] ? m[2] : m[3];
    return a < b ? a : b;
}

/* One integration, shared with Python (meanfield._MFRun mirrors it field
 * for field). The first block is input; the second is the loop state, which
 * persists across the calls of a run. */
typedef struct {
    int64_t n, steps;
    const int64_t *indptr, *indices;
    const double *inv_deg;
    double *B, *theta, *y;
    double dt, slack;
    int64_t hard; /* the rate is 0 below cut_lo, 1 above cut_hi, 1/2 between */
    double cut_lo, cut_hi;
    double *mean_blue, *min_B, *max_B;
    const int64_t *snap_idx;
    int64_t n_snaps;
    double *states;

    int64_t step, next_eval, next_snap, rate_evals;
    int64_t resume;   /* theta and margin hold the rates of `step` */
    double margin;    /* the flat margin less the slack */
    double lo, hi;    /* min and max of B */
    int64_t node;     /* the escaped node */
} mf_run;

enum { MF_DONE, MF_RATES, MF_ESCAPED };

#define BOX_SLACK 1e-12

/* Step r from r->step until the horizon (MF_DONE), a rate evaluation that
 * Python must make (MF_RATES: y holds the neighbour means; set theta and
 * margin, then call again) or a state outside [-1e-12, 1 + 1e-12]
 * (MF_ESCAPED: B holds the escaped state, r->node the first offending node
 * and r->step the step that moved it). */
int cyb_mf(mf_run *r)
{
    const int64_t n = r->n;
    double *B = r->B, *theta = r->theta, *y = r->y;
    const double dt = r->dt;
    for (;;) {
        const int64_t step = r->step;
        double margin = 0.0;
        int evaluate;
        if (r->resume) {
            r->resume = 0;
            evaluate = 1;
            margin = r->margin;
        } else {
            r->mean_blue[step] = (0.0 + pairwise_sum(B, n)) / (double)n;
            r->min_B[step] = r->lo;
            r->max_B[step] = r->hi;
            if (r->next_snap < r->n_snaps && step == r->snap_idx[r->next_snap]) {
                memcpy(r->states + r->next_snap * n, B, (size_t)n * sizeof(double));
                r->next_snap++;
            }
            if (step == r->steps)
                return MF_DONE;
            evaluate = step == r->next_eval;
            if (evaluate) {
                neighbour_means(n, r->indptr, r->indices, r->inv_deg, B, y);
                r->rate_evals++;
                r->next_eval = step + 1;
                if (!r->hard) {
                    r->resume = 1;
                    return MF_RATES;
                }
                double m = hard_rates(n, y, r->cut_lo, r->cut_hi, theta);
                margin = m - r->slack;
            }
        }

        int skip = evaluate && margin > 0;
        lane acc = euler_pass(n, B, theta, dt, skip);
        double lo = acc.lo, hi = acc.hi, dmin = acc.dmin, dmax = acc.dmax;
        if (acc.nan)
            lo = hi = NAN;
        if (skip) {
            double drift = -dmin > dmax ? -dmin : dmax;
            if (drift < margin) {
                r->next_eval = r->steps; /* theta can no longer change */
            } else {
                double q = margin / (dt * drift), room = (double)(r->steps - step - 1);
                r->next_eval = q < room ? step + 1 + (int64_t)q : r->steps;
            }
        }
        if (lo < -BOX_SLACK || hi > 1.0 + BOX_SLACK) {
            double bad = lo < -BOX_SLACK ? lo : hi;
            int64_t v = 0;
            while (B[v] != bad)
                v++;
            r->node = v;
            return MF_ESCAPED;
        }
        if (!(lo >= 0.0 && hi <= 1.0)) {
            for (int64_t v = 0; v < n; v++)
                B[v] = B[v] < 0.0 ? 0.0 : (B[v] > 1.0 ? 1.0 : B[v]);
            lo = 0.0 > lo ? 0.0 : lo; /* Python's min(max(lo, 0.0), 1.0) */
            lo = 1.0 < lo ? 1.0 : lo;
            hi = 0.0 > hi ? 0.0 : hi;
            hi = 1.0 < hi ? 1.0 : hi;
        }
        r->lo = lo;
        r->hi = hi;
        r->step = step + 1;
    }
}
