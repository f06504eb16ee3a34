/* Compiled sweep kernels for the Prism reproduction.
 *
 * Each function mirrors one fused numpy sweep *bit for bit*:
 *
 *   - int64 additions/multiplications wrap exactly like numpy's int64
 *     (we accumulate in uint64_t, whose wraparound is defined behaviour
 *     and identical to two's-complement int64);
 *   - reductions use floored modulo (numpy's np.mod), not C's truncated
 *     `%`, and happen at exactly the points the numpy kernels reduce;
 *   - the PSU mask stream is the same SHA-256 counter-mode stream as
 *     `SeededPRG`: block c = SHA256(key32 || LE64(c)), 8 little-endian
 *     bytes per draw, `(raw % span) + low`.  Draw offsets are absolute,
 *     so shards seek the stream exactly like `integers_at`.
 *
 * The Python loader gates this backend on little-endian hosts; the
 * draw extraction below assumes LE layout.
 */

#include <stdint.h>
#include <string.h>

#if defined(__x86_64__) && defined(__GNUC__)
#define REPRO_SHA_NI_COMPILED 1
#include <immintrin.h>
#include <cpuid.h>
#endif

/* ---- SHA-256 (FIPS 180-4) ------------------------------------------- */

static const uint32_t SHA_K[64] = {
    0x428a2f98u, 0x71374491u, 0xb5c0fbcfu, 0xe9b5dba5u,
    0x3956c25bu, 0x59f111f1u, 0x923f82a4u, 0xab1c5ed5u,
    0xd807aa98u, 0x12835b01u, 0x243185beu, 0x550c7dc3u,
    0x72be5d74u, 0x80deb1feu, 0x9bdc06a7u, 0xc19bf174u,
    0xe49b69c1u, 0xefbe4786u, 0x0fc19dc6u, 0x240ca1ccu,
    0x2de92c6fu, 0x4a7484aau, 0x5cb0a9dcu, 0x76f988dau,
    0x983e5152u, 0xa831c66du, 0xb00327c8u, 0xbf597fc7u,
    0xc6e00bf3u, 0xd5a79147u, 0x06ca6351u, 0x14292967u,
    0x27b70a85u, 0x2e1b2138u, 0x4d2c6dfcu, 0x53380d13u,
    0x650a7354u, 0x766a0abbu, 0x81c2c92eu, 0x92722c85u,
    0xa2bfe8a1u, 0xa81a664bu, 0xc24b8b70u, 0xc76c51a3u,
    0xd192e819u, 0xd6990624u, 0xf40e3585u, 0x106aa070u,
    0x19a4c116u, 0x1e376c08u, 0x2748774cu, 0x34b0bcb5u,
    0x391c0cb3u, 0x4ed8aa4au, 0x5b9cca4fu, 0x682e6ff3u,
    0x748f82eeu, 0x78a5636fu, 0x84c87814u, 0x8cc70208u,
    0x90befffau, 0xa4506cebu, 0xbef9a3f7u, 0xc67178f2u,
};

#define ROTR(x, n) (((x) >> (n)) | ((x) << (32 - (n))))

static void sha256_compress(uint32_t state[8], const uint8_t block[64]) {
    uint32_t w[64];
    int i;
    for (i = 0; i < 16; i++) {
        w[i] = ((uint32_t)block[4 * i] << 24)
             | ((uint32_t)block[4 * i + 1] << 16)
             | ((uint32_t)block[4 * i + 2] << 8)
             | ((uint32_t)block[4 * i + 3]);
    }
    for (i = 16; i < 64; i++) {
        uint32_t s0 = ROTR(w[i - 15], 7) ^ ROTR(w[i - 15], 18) ^ (w[i - 15] >> 3);
        uint32_t s1 = ROTR(w[i - 2], 17) ^ ROTR(w[i - 2], 19) ^ (w[i - 2] >> 10);
        w[i] = w[i - 16] + s0 + w[i - 7] + s1;
    }
    uint32_t a = state[0], b = state[1], c = state[2], d = state[3];
    uint32_t e = state[4], f = state[5], g = state[6], h = state[7];
    for (i = 0; i < 64; i++) {
        uint32_t s1 = ROTR(e, 6) ^ ROTR(e, 11) ^ ROTR(e, 25);
        uint32_t ch = (e & f) ^ (~e & g);
        uint32_t t1 = h + s1 + ch + SHA_K[i] + w[i];
        uint32_t s0 = ROTR(a, 2) ^ ROTR(a, 13) ^ ROTR(a, 22);
        uint32_t maj = (a & b) ^ (a & c) ^ (b & c);
        uint32_t t2 = s0 + maj;
        h = g; g = f; f = e; e = d + t1;
        d = c; c = b; b = a; a = t1 + t2;
    }
    state[0] += a; state[1] += b; state[2] += c; state[3] += d;
    state[4] += e; state[5] += f; state[6] += g; state[7] += h;
}

#ifdef REPRO_SHA_NI_COMPILED
/* Hardware SHA-256 compression via the SHA-NI extension.  Same
 * interface as the scalar compressor; selected at runtime by CPUID. */
__attribute__((target("sha,ssse3,sse4.1")))
static void sha256_compress_ni(uint32_t state[8], const uint8_t block[64]) {
    const __m128i MASK = _mm_set_epi64x(
        0x0c0d0e0f08090a0bULL, 0x0405060700010203ULL);
    __m128i STATE0, STATE1, TMP, MSG;
    __m128i MSG0, MSG1, MSG2, MSG3;

    /* Load state (a,b,c,d / e,f,g,h) and permute into the layout the
     * sha256rnds2 instruction expects. */
    TMP = _mm_loadu_si128((const __m128i *)&state[0]);
    STATE1 = _mm_loadu_si128((const __m128i *)&state[4]);
    TMP = _mm_shuffle_epi32(TMP, 0xB1);        /* CDAB */
    STATE1 = _mm_shuffle_epi32(STATE1, 0x1B);  /* EFGH */
    STATE0 = _mm_alignr_epi8(TMP, STATE1, 8);  /* ABEF */
    STATE1 = _mm_blend_epi16(STATE1, TMP, 0xF0); /* CDGH */

    const __m128i ABEF_SAVE = STATE0;
    const __m128i CDGH_SAVE = STATE1;

    /* Rounds 0-3 */
    MSG0 = _mm_loadu_si128((const __m128i *)(block + 0));
    MSG0 = _mm_shuffle_epi8(MSG0, MASK);
    MSG = _mm_add_epi32(MSG0, _mm_set_epi64x(
        0xE9B5DBA5B5C0FBCFULL, 0x71374491428A2F98ULL));
    STATE1 = _mm_sha256rnds2_epu32(STATE1, STATE0, MSG);
    MSG = _mm_shuffle_epi32(MSG, 0x0E);
    STATE0 = _mm_sha256rnds2_epu32(STATE0, STATE1, MSG);

    /* Rounds 4-7 */
    MSG1 = _mm_loadu_si128((const __m128i *)(block + 16));
    MSG1 = _mm_shuffle_epi8(MSG1, MASK);
    MSG = _mm_add_epi32(MSG1, _mm_set_epi64x(
        0xAB1C5ED5923F82A4ULL, 0x59F111F13956C25BULL));
    STATE1 = _mm_sha256rnds2_epu32(STATE1, STATE0, MSG);
    MSG = _mm_shuffle_epi32(MSG, 0x0E);
    STATE0 = _mm_sha256rnds2_epu32(STATE0, STATE1, MSG);
    MSG0 = _mm_sha256msg1_epu32(MSG0, MSG1);

    /* Rounds 8-11 */
    MSG2 = _mm_loadu_si128((const __m128i *)(block + 32));
    MSG2 = _mm_shuffle_epi8(MSG2, MASK);
    MSG = _mm_add_epi32(MSG2, _mm_set_epi64x(
        0x550C7DC3243185BEULL, 0x12835B01D807AA98ULL));
    STATE1 = _mm_sha256rnds2_epu32(STATE1, STATE0, MSG);
    MSG = _mm_shuffle_epi32(MSG, 0x0E);
    STATE0 = _mm_sha256rnds2_epu32(STATE0, STATE1, MSG);
    MSG1 = _mm_sha256msg1_epu32(MSG1, MSG2);

    MSG3 = _mm_loadu_si128((const __m128i *)(block + 48));
    MSG3 = _mm_shuffle_epi8(MSG3, MASK);

/* One 4-round group with message-schedule updates: CUR feeds the
 * round keys, NXT picks up CUR's tail via alignr + msg2, PRV absorbs
 * CUR through msg1 for a later group. */
#define QROUND(CUR, NXT, PRV, KHI, KLO)                                  \
    do {                                                                 \
        MSG = _mm_add_epi32(CUR, _mm_set_epi64x(KHI, KLO));              \
        STATE1 = _mm_sha256rnds2_epu32(STATE1, STATE0, MSG);             \
        TMP = _mm_alignr_epi8(CUR, PRV, 4);                              \
        NXT = _mm_add_epi32(NXT, TMP);                                   \
        NXT = _mm_sha256msg2_epu32(NXT, CUR);                            \
        MSG = _mm_shuffle_epi32(MSG, 0x0E);                              \
        STATE0 = _mm_sha256rnds2_epu32(STATE0, STATE1, MSG);             \
        PRV = _mm_sha256msg1_epu32(PRV, CUR);                            \
    } while (0)

    QROUND(MSG3, MSG0, MSG2, 0xC19BF1749BDC06A7ULL, 0x80DEB1FE72BE5D74ULL);
    QROUND(MSG0, MSG1, MSG3, 0x240CA1CC0FC19DC6ULL, 0xEFBE4786E49B69C1ULL);
    QROUND(MSG1, MSG2, MSG0, 0x76F988DA5CB0A9DCULL, 0x4A7484AA2DE92C6FULL);
    QROUND(MSG2, MSG3, MSG1, 0xBF597FC7B00327C8ULL, 0xA831C66D983E5152ULL);
    QROUND(MSG3, MSG0, MSG2, 0x1429296706CA6351ULL, 0xD5A79147C6E00BF3ULL);
    QROUND(MSG0, MSG1, MSG3, 0x53380D134D2C6DFCULL, 0x2E1B213827B70A85ULL);
    QROUND(MSG1, MSG2, MSG0, 0x92722C8581C2C92EULL, 0x766A0ABB650A7354ULL);
    QROUND(MSG2, MSG3, MSG1, 0xC76C51A3C24B8B70ULL, 0xA81A664BA2BFE8A1ULL);
    QROUND(MSG3, MSG0, MSG2, 0x106AA070F40E3585ULL, 0xD6990624D192E819ULL);
    QROUND(MSG0, MSG1, MSG3, 0x34B0BCB52748774CULL, 0x1E376C0819A4C116ULL);
    QROUND(MSG1, MSG2, MSG0, 0x682E6FF35B9CCA4FULL, 0x4ED8AA4A391C0CB3ULL);
    QROUND(MSG2, MSG3, MSG1, 0x8CC7020884C87814ULL, 0x78A5636F748F82EEULL);

#undef QROUND

    /* Rounds 60-63 */
    MSG = _mm_add_epi32(MSG3, _mm_set_epi64x(
        0xC67178F2BEF9A3F7ULL, 0xA4506CEB90BEFFFAULL));
    STATE1 = _mm_sha256rnds2_epu32(STATE1, STATE0, MSG);
    MSG = _mm_shuffle_epi32(MSG, 0x0E);
    STATE0 = _mm_sha256rnds2_epu32(STATE0, STATE1, MSG);

    STATE0 = _mm_add_epi32(STATE0, ABEF_SAVE);
    STATE1 = _mm_add_epi32(STATE1, CDGH_SAVE);

    /* Permute back to a,b,c,d / e,f,g,h and store. */
    TMP = _mm_shuffle_epi32(STATE0, 0x1B);       /* FEBA */
    STATE1 = _mm_shuffle_epi32(STATE1, 0xB1);    /* DCHG */
    STATE0 = _mm_blend_epi16(TMP, STATE1, 0xF0); /* DCBA */
    STATE1 = _mm_alignr_epi8(STATE1, TMP, 8);    /* HGFE */
    _mm_storeu_si128((__m128i *)&state[0], STATE0);
    _mm_storeu_si128((__m128i *)&state[4], STATE1);
}
#endif /* REPRO_SHA_NI_COMPILED */

typedef void (*sha_compress_fn)(uint32_t state[8], const uint8_t block[64]);

/* Resolve the best available compressor once, lazily. */
static sha_compress_fn resolve_sha(void) {
#ifdef REPRO_SHA_NI_COMPILED
    unsigned int eax, ebx, ecx, edx;
    if (__get_cpuid_count(7, 0, &eax, &ebx, &ecx, &edx)
        && (ebx & (1u << 29)))
        return sha256_compress_ni;
#endif
    return sha256_compress;
}

static sha_compress_fn sha_compress_best = 0;

/* Stream block c = SHA256(key[32] || LE64(c)).  The 40-byte message
 * pads into a single 64-byte chunk (0x80, zeros, 320-bit BE length),
 * so each block costs exactly one compression.  The key and padding
 * are constant across a stream, so hot loops prepare the message once
 * with prg_block_init and only rewrite the counter per block. */
static void prg_block_init(const uint8_t *key, uint8_t block[64]) {
    memcpy(block, key, 32);
    block[40] = 0x80;
    memset(block + 41, 0, 21);
    block[62] = 0x01;  /* message length: 320 bits, big-endian */
    block[63] = 0x40;
    if (!sha_compress_best)
        sha_compress_best = resolve_sha();
}

static void prg_block_ctr(uint8_t block[64], uint64_t counter,
                          uint8_t out[32]) {
    uint32_t state[8] = {
        0x6a09e667u, 0xbb67ae85u, 0x3c6ef372u, 0xa54ff53au,
        0x510e527fu, 0x9b05688cu, 0x1f83d9abu, 0x5be0cd19u,
    };
    int i;
    for (i = 0; i < 8; i++)
        block[32 + i] = (uint8_t)(counter >> (8 * i));
    sha_compress_best(state, block);
    for (i = 0; i < 8; i++) {
        out[4 * i] = (uint8_t)(state[i] >> 24);
        out[4 * i + 1] = (uint8_t)(state[i] >> 16);
        out[4 * i + 2] = (uint8_t)(state[i] >> 8);
        out[4 * i + 3] = (uint8_t)state[i];
    }
}

/* numpy's np.mod: floored modulo, non-negative for positive modulus. */
static inline int64_t floormod(int64_t x, int64_t m) {
    int64_t r = x % m;
    return r < 0 ? r + m : r;
}

/* Exact floored modulo by the Mersenne prime M = 2^31 - 1 without a
 * division: 2^31 ≡ 1 (mod M), so x = (x>>31)*2^31 + (x&M) ≡ (x>>31) +
 * (x&M).  Arithmetic shift makes the identity hold for negative x too
 * (x>>31 is floor(x / 2^31)).  Two folds bring any int64 into
 * [-2, M+1]; the conditionals finish the reduction. */
static inline int64_t mod_mersenne31(int64_t x) {
    const int64_t M = ((int64_t)1 << 31) - 1;
    x = (x >> 31) + (x & M);
    x = (x >> 31) + (x & M);
    if (x >= M) x -= M;
    if (x < 0) x += M;
    return x;
}

/* ---- Eq. 11 Mersenne-31 span (scalar + AVX-512) ---------------------- */

typedef void (*agg_mersenne_fn)(const int64_t **shares, int64_t nshares,
                                const int64_t *z, int64_t lo, int64_t hi,
                                int64_t *out);

/* Scalar Mersenne-31 aggregation span; same reduction points as the
 * generic loop, division-free. */
static void agg_mersenne_span(const int64_t **shares, int64_t nshares,
                              const int64_t *z, int64_t lo, int64_t hi,
                              int64_t *out) {
    const int64_t M = ((int64_t)1 << 31) - 1;
    int64_t i, j;
    for (i = lo; i < hi; i++) {
        int64_t acc = 0;
        int64_t zi = z[i];
        for (j = 0; j < nshares; j++) {
            int64_t x = (int64_t)((uint64_t)shares[j][i] * (uint64_t)zi);
            x = mod_mersenne31(x);
            acc += x;
            if (acc >= M)
                acc -= M;
        }
        out[i] = acc;
    }
}

#ifdef REPRO_SHA_NI_COMPILED
/* Share-major traversal with branchless reduction so gcc can
 * auto-vectorize the row loop (vpmullq + 64-bit shifts need AVX-512DQ).
 * Per element the (j-ordered) reduction sequence is identical to the
 * scalar span, so results stay bit-identical. */
__attribute__((target("avx512f,avx512dq,avx512vl")))
static void agg_mersenne_span_avx512(const int64_t **shares, int64_t nshares,
                                     const int64_t *z, int64_t lo, int64_t hi,
                                     int64_t *out) {
    const int64_t M = ((int64_t)1 << 31) - 1;
    int64_t i, j;
    memset(out + lo, 0, (size_t)(hi - lo) * sizeof(int64_t));
    for (j = 0; j < nshares; j++) {
        const int64_t *s = shares[j];
        for (i = lo; i < hi; i++) {
            int64_t x = (int64_t)((uint64_t)s[i] * (uint64_t)z[i]);
            x = (x >> 31) + (x & M);
            x = (x >> 31) + (x & M);
            x -= M & -(int64_t)(x >= M);
            x += M & (x >> 63);
            int64_t acc = out[i] + x;
            out[i] = acc - (M & -(int64_t)(acc >= M));
        }
    }
}

__attribute__((target("xsave")))
static uint64_t read_xcr0(void) {
    return __builtin_ia32_xgetbv(0);
}

static int cpu_has_avx512dq(void) {
    unsigned int eax, ebx, ecx, edx;
    if (!__get_cpuid(1, &eax, &ebx, &ecx, &edx) || !(ecx & (1u << 27)))
        return 0;  /* no OSXSAVE */
    if ((read_xcr0() & 0xE6) != 0xE6)
        return 0;  /* OS doesn't save XMM|YMM|opmask|ZMM state */
    if (!__get_cpuid_count(7, 0, &eax, &ebx, &ecx, &edx))
        return 0;
    return (ebx & (1u << 16))      /* AVX512F */
        && (ebx & (1u << 17))      /* AVX512DQ */
        && (ebx & (1u << 31));     /* AVX512VL */
}
#endif /* REPRO_SHA_NI_COMPILED */

static agg_mersenne_fn resolve_agg_mersenne(void) {
#ifdef REPRO_SHA_NI_COMPILED
    if (cpu_has_avx512dq())
        return agg_mersenne_span_avx512;
#endif
    return agg_mersenne_span;
}

static agg_mersenne_fn agg_mersenne_best = 0;

/* ---- exported kernels ------------------------------------------------ */

/* Stream bytes [start, start + nbytes) of the counter-mode generator. */
void repro_prg_fill(const uint8_t *key, uint64_t start, uint64_t nbytes,
                    uint8_t *out) {
    uint8_t msg[64];
    uint8_t block[32];
    uint64_t counter = start / 32;
    uint64_t skip = start % 32;
    uint64_t produced = 0;
    prg_block_init(key, msg);
    while (produced < nbytes) {
        uint64_t take = 32 - skip;
        if (take > nbytes - produced)
            take = nbytes - produced;
        if (skip == 0 && take == 32) {
            /* Block-aligned: write straight into the caller's buffer. */
            prg_block_ctr(msg, counter++, out + produced);
        } else {
            prg_block_ctr(msg, counter++, block);
            memcpy(out + produced, block + skip, take);
        }
        produced += take;
        skip = 0;
    }
}

/* out[i] = (sum_j shares[j][i]) mod m  over i in [lo, hi). */
void repro_sum_mod_span(const int64_t **shares, int64_t nshares,
                        int64_t lo, int64_t hi, int64_t modulus,
                        int64_t *out) {
    int64_t i, j;
    for (i = lo; i < hi; i++) {
        uint64_t acc = 0;
        for (j = 0; j < nshares; j++)
            acc += (uint64_t)shares[j][i];
        out[i] = floormod((int64_t)acc, modulus);
    }
}

/* Fused Eq. 3 / Eq. 7 row span:
 * out[i] = table[(sum_j shares[j][i] - m_share) mod delta]. */
void repro_psi_span(const int64_t **shares, int64_t nshares,
                    int64_t lo, int64_t hi, int64_t m_share, int64_t delta,
                    const int64_t *table, int64_t *out) {
    int64_t i, j;
    for (i = lo; i < hi; i++) {
        uint64_t acc = 0;
        for (j = 0; j < nshares; j++)
            acc += (uint64_t)shares[j][i];
        acc -= (uint64_t)m_share;
        out[i] = table[floormod((int64_t)acc, delta)];
    }
}

/* Cell-restricted repro_psi_span: the span indexes the cells array,
 * the gathered cells index the full share vectors. */
void repro_psi_cells_span(const int64_t **shares, int64_t nshares,
                          const int64_t *cells, int64_t lo, int64_t hi,
                          int64_t m_share, int64_t delta,
                          const int64_t *table, int64_t *out) {
    int64_t i, j;
    for (i = lo; i < hi; i++) {
        int64_t cell = cells[i];
        uint64_t acc = 0;
        for (j = 0; j < nshares; j++)
            acc += (uint64_t)shares[j][cell];
        acc -= (uint64_t)m_share;
        out[i] = table[floormod((int64_t)acc, delta)];
    }
}

/* Eq. 18 row span with the mask stream generated in place:
 * out[i] = (summed[i] * ((draw(draw_base + i) % (delta-1)) + 1)) mod delta,
 * where draw(d) is u64 little-endian bytes [8d, 8d+8) of the stream —
 * exactly SeededPRG.integers_at(draw_base + lo, hi - lo, 1, delta). */
void repro_psu_span(const int64_t *summed, int64_t lo, int64_t hi,
                    const uint8_t *key, uint64_t draw_base, int64_t delta,
                    int64_t *out) {
    uint64_t span = (uint64_t)(delta - 1);
    uint8_t msg[64];
    uint8_t block[32];
    uint64_t have_block = 0;
    uint64_t blk = 0;
    int64_t i;
    prg_block_init(key, msg);
    for (i = lo; i < hi; i++) {
        uint64_t d = draw_base + (uint64_t)i;
        uint64_t b = d >> 2;  /* four u64 draws per 32-byte block */
        uint64_t raw;
        int64_t mask;
        if (!have_block || b != blk) {
            prg_block_ctr(msg, b, block);
            blk = b;
            have_block = 1;
        }
        memcpy(&raw, block + 8 * (d & 3), 8);
        mask = (int64_t)(raw % span) + 1;
        out[i] = floormod(
            (int64_t)((uint64_t)summed[i] * (uint64_t)mask), delta);
    }
}

/* Fused Eq. 11 row span with numpy's per-term reduction order:
 * acc starts at 0; per share j: acc = (acc + (s[i]*z[i] mod p)) mod p. */
void repro_agg_span(const int64_t **shares, int64_t nshares,
                    const int64_t *z, int64_t lo, int64_t hi, int64_t p,
                    int64_t *out) {
    int64_t i, j;
    if (p == ((int64_t)1 << 31) - 1) {
        /* The repo's field prime.  The Mersenne fold computes the same
         * floored modulo as the generic loop, division-free; each
         * per-term accumulate stays below 2p, so one conditional
         * subtract is the whole reduction. */
        if (!agg_mersenne_best)
            agg_mersenne_best = resolve_agg_mersenne();
        agg_mersenne_best(shares, nshares, z, lo, hi, out);
        return;
    }
    for (i = lo; i < hi; i++) {
        uint64_t acc = 0;
        int64_t zi = z[i];
        for (j = 0; j < nshares; j++) {
            int64_t prod = (int64_t)((uint64_t)shares[j][i] * (uint64_t)zi);
            acc += (uint64_t)floormod(prod, p);
            acc = (uint64_t)floormod((int64_t)acc, p);
        }
        out[i] = (int64_t)acc;
    }
}
