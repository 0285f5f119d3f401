/* Stochastic block model draw for polarimeter.synthetic, loaded through
   ctypes.

   It draws exactly what synthetic.py's numpy loop draws, so the two give
   the same edges in the same order:

   - numpy's PCG64 generator, seeded as np.random.default_rng(seed) seeds
     it: SeedSequence's pool mix of the seed's little-endian 32-bit words,
     four 64-bit words from the pool, then PCG64's set_seed;
   - one double per candidate pair, (x >> 11) * 2^-53, an edge when it is
     below the pair's probability;
   - each block's pairs in np.triu_indices order, then each block pair
     a < b in row-major (u, v) order, and no cross pair when p_out is 0.

   Build (one library with _louvain.c and _archive.c, as _native.py builds
   it):
   cc -O2 -ffp-contract=off -shared -fPIC -o LIB _louvain.c _archive.c _sbm.c -lm
*/

#include <stdint.h>

/* ---- numpy's SeedSequence (numpy/random/bit_generator.pyx) -------------- */

#define POOL_SIZE 4
#define INIT_A 0x43b0d7e5U
#define MULT_A 0x931e8875U
#define INIT_B 0x8b51f9ddU
#define MULT_B 0x58f38dedU
#define MIX_MULT_L 0xca01f9ddU
#define MIX_MULT_R 0x4973f715U

static uint32_t hashmix(uint32_t value, uint32_t *hash_const)
{
    value ^= *hash_const;
    *hash_const *= MULT_A;
    value *= *hash_const;
    return value ^ (value >> 16);
}

static uint32_t mix(uint32_t x, uint32_t y)
{
    uint32_t r = MIX_MULT_L * x - MIX_MULT_R * y;
    return r ^ (r >> 16);
}

/* SeedSequence(entropy).generate_state(4, np.uint64), for `n` >= 1 entropy
   words. */
static void generate_state(const uint32_t *entropy, int64_t n, uint64_t out[4])
{
    uint32_t pool[POOL_SIZE], h = INIT_A;
    for (int i = 0; i < POOL_SIZE; i++)
        pool[i] = hashmix(i < n ? entropy[i] : 0, &h);
    for (int src = 0; src < POOL_SIZE; src++)
        for (int dst = 0; dst < POOL_SIZE; dst++)
            if (src != dst)
                pool[dst] = mix(pool[dst], hashmix(pool[src], &h));
    for (int64_t src = POOL_SIZE; src < n; src++)
        for (int dst = 0; dst < POOL_SIZE; dst++)
            pool[dst] = mix(pool[dst], hashmix(entropy[src], &h));

    /* eight 32-bit words from the cycled pool, read as four little-endian
       64-bit words */
    h = INIT_B;
    for (int i = 0; i < 8; i++) {
        uint32_t w = pool[i % POOL_SIZE] ^ h;
        h *= MULT_B;
        w *= h;
        w ^= w >> 16;
        if (i % 2 == 0)
            out[i / 2] = w;
        else
            out[i / 2] |= (uint64_t)w << 32;
    }
}

/* ---- numpy's PCG64 (numpy/random/src/pcg64) ----------------------------- */

typedef unsigned __int128 u128;

typedef struct {
    u128 state, inc;
} pcg64;

#define PCG_MULTIPLIER \
    (((u128)2549297995355413924ULL << 64) | (u128)4865540595714422341ULL)

static void pcg64_step(pcg64 *rng)
{
    rng->state = rng->state * PCG_MULTIPLIER + rng->inc;
}

/* pcg64_set_seed: the first word of each pair is the high half. */
static void pcg64_seed(pcg64 *rng, const uint64_t words[4])
{
    u128 initstate = ((u128)words[0] << 64) | words[1];
    u128 initseq = ((u128)words[2] << 64) | words[3];
    rng->state = 0;
    rng->inc = (initseq << 1) | 1;
    pcg64_step(rng);
    rng->state += initstate;
    pcg64_step(rng);
}

/* Generator.random(): step, then the XSL-RR output of the new state. */
static double next_double(pcg64 *rng)
{
    pcg64_step(rng);
    uint64_t value = (uint64_t)(rng->state >> 64) ^ (uint64_t)rng->state;
    unsigned rot = (unsigned)(rng->state >> 122);
    uint64_t x = (value >> rot) | (value << ((-rot) & 63));
    return (double)(x >> 11) * (1.0 / 9007199254740992.0);
}

/* ---- the draw ------------------------------------------------------------ */

/* Record the edge (u, v) as hit number `count`, if the buffer has room. */
static int64_t keep(int64_t *ends, int64_t capacity, int64_t count, int64_t u, int64_t v)
{
    if (count < capacity) {
        ends[2 * count] = u;
        ends[2 * count + 1] = v;
    }
    return count + 1;
}

/* Draw `blocks` blocks of `size` nodes, seeded from the `seed_words` words
   of `seed`. The first `capacity` edges go to `ends` as interleaved global
   (u, v) ends; the return is the count of all edges drawn, which the caller
   compares with `capacity` to know whether every edge was kept. */
int64_t sbm_draw(int64_t blocks, int64_t size, double p_in, double p_out,
                 const uint32_t *seed, int64_t seed_words,
                 int64_t capacity, int64_t *ends)
{
    uint64_t words[4];
    pcg64 rng;
    generate_state(seed, seed_words, words);
    pcg64_seed(&rng, words);

    int64_t count = 0;
    for (int64_t b = 0; b < blocks; b++) {
        const int64_t offset = b * size;
        for (int64_t u = 0; u < size; u++)
            for (int64_t v = u + 1; v < size; v++)
                if (next_double(&rng) < p_in)
                    count = keep(ends, capacity, count, offset + u, offset + v);
    }
    if (p_out > 0.0)
        for (int64_t a = 0; a < blocks; a++)
            for (int64_t b = a + 1; b < blocks; b++)
                for (int64_t u = 0; u < size; u++)
                    for (int64_t v = 0; v < size; v++)
                        if (next_double(&rng) < p_out)
                            count = keep(ends, capacity, count, a * size + u, b * size + v);
    return count;
}
