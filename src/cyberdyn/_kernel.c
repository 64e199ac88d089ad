/* Skip-ahead stepping of the attack-defense Markov chain on numpy's PCG64.
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
 * next_double = (next64 >> 11) * 2^-53 are numpy internals; the loader
 * checks both against rng.random(n) before it trusts this file.
 */
#include <stdint.h>
#include <stdlib.h>
#include <string.h>

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

/* Draw the doubles at positions pos[0] < ... < pos[m-1] of one block of n
 * and leave the generator at the end of the block: the loader's check. */
int cyb_probe(void *bitgen_state, int64_t n, const int64_t *pos, int64_t m, double *out)
{
    pcg64_random_t *rng = ((pcg64_state *)bitgen_state)->pcg_state;
    u128 *jump = jump_table(rng->inc, n);
    if (jump == NULL)
        return EXIT_NO_MEMORY;
    u128 s = rng->state;
    int64_t at = 0;
    for (int64_t i = 0; i < m; i++) {
        s = skip(jump, s, pos[i] + 1 - at);
        out[i] = draw(s);
        at = pos[i] + 1;
    }
    rng->state = skip(jump, s, n - at);
    free(jump);
    return 0;
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
