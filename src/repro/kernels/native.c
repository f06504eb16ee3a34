/* Compiled sweep kernels for the Prism reproduction.
 *
 * Each function mirrors one numpy span builder of
 * repro/entities/server.py *bit for bit*:
 *
 *   - every operand is an unsigned vector at the width of its modulus
 *     (uint8/uint16 additive shares, uint16/uint32 group elements,
 *     uint32 Shamir shares); sums and products are formed in a type
 *     wide enough that they never wrap, so plain unsigned arithmetic
 *     computes exactly what numpy computes;
 *   - a server's equations take a column's owners only through their
 *     sum, so one span sums them (repro_sum_mod_span: mod delta for
 *     additive shares, mod p for Shamir shares) and every other server
 *     span reads one owner-summed vector per row;
 *   - the Eq. 3 / Eq. 7 sweep gathers from a folded table indexed by
 *     the summed share (the caller folded the "minus A(m), mod delta"
 *     into it), so it needs no division per element;
 *   - the PSU mask stream is the same SHA-256 counter-mode stream as
 *     `SeededPRG`: block c = SHA256(key32 || LE64(c)), 8 little-endian
 *     bytes per draw, `(raw % span) + low`.  Draw offsets are absolute,
 *     so shards seek the stream exactly like `integers_at`.  One
 *     generator, prg_blocks, writes the stream for both the PRG fill
 *     and the PSU sweep, in chunks of up to 64 blocks; with SHA-NI it
 *     hashes four counters at a time so their round chains overlap;
 *   - the owner sum, the PSU span and the Eq. 11 span at a generic
 *     prime reduce without a division: a Barrett quotient estimate is
 *     the quotient or one less, so one conditional subtract gives the
 *     exact remainder (mod_barrett).
 *
 * Two owner-side spans mirror the numpy references of
 * repro/crypto/shamir.py and repro/entities/owner.py the same way: the
 * Shamir combine (dealing and Lagrange) and the pointwise product of
 * PSI finalisation and verification.
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

/* Whether the host has the SHA extensions (SHA-NI, CPUID leaf 7). */
static int cpu_has_sha_ni(void) {
#ifdef REPRO_SHA_NI_COMPILED
    unsigned int eax, ebx, ecx, edx;
    if (__get_cpuid_count(7, 0, &eax, &ebx, &ecx, &edx)
        && (ebx & (1u << 29)))
        return 1;
#endif
    return 0;
}

/* 1 when the stream is hashed with SHA-NI; -1 until first asked. */
static int prg_ni = -1;

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
    if (prg_ni < 0)
        prg_ni = cpu_has_sha_ni();
}

static const uint32_t SHA_IV[8] = {
    0x6a09e667u, 0xbb67ae85u, 0x3c6ef372u, 0xa54ff53au,
    0x510e527fu, 0x9b05688cu, 0x1f83d9abu, 0x5be0cd19u,
};

static void prg_block_ctr(uint8_t block[64], uint64_t counter,
                          uint8_t out[32]) {
    uint32_t state[8];
    int i;
    memcpy(state, SHA_IV, sizeof(state));
    for (i = 0; i < 8; i++)
        block[32 + i] = (uint8_t)(counter >> (8 * i));
    sha256_compress(state, block);
    for (i = 0; i < 8; i++) {
        out[4 * i] = (uint8_t)(state[i] >> 24);
        out[4 * i + 1] = (uint8_t)(state[i] >> 16);
        out[4 * i + 2] = (uint8_t)(state[i] >> 8);
        out[4 * i + 3] = (uint8_t)state[i];
    }
}

#ifdef REPRO_SHA_NI_COMPILED
/* Four independent stream blocks through one SHA-NI round sequence.
 * Each lane's sha256rnds2 waits on its own previous pair, so issuing
 * the four lanes' rounds side by side overlaps those latency chains.
 * Round group g (rounds 4g..4g+3) feeds message words CUR, plus the
 * round constants, to two sha256rnds2; groups 3-14 finish the next
 * words NXT (alignr + msg2) and groups 1-14 start PRV's (msg1).  The
 * state lives in the ABEF / CDGH layout sha256rnds2 expects. */
#define NI_LANES 4

static inline __attribute__((always_inline, target("sha,ssse3,sse4.1")))
void ni_lanes_group(__m128i S0[NI_LANES], __m128i S1[NI_LANES],
                    const __m128i CUR[NI_LANES], __m128i NXT[NI_LANES],
                    __m128i PRV[NI_LANES], int g) {
    const __m128i K = _mm_loadu_si128((const __m128i *)&SHA_K[4 * g]);
    __m128i MSG[NI_LANES];
    int l;
    for (l = 0; l < NI_LANES; l++) {
        MSG[l] = _mm_add_epi32(CUR[l], K);
        S1[l] = _mm_sha256rnds2_epu32(S1[l], S0[l], MSG[l]);
    }
    if (g >= 3 && g <= 14)
        for (l = 0; l < NI_LANES; l++)
            NXT[l] = _mm_sha256msg2_epu32(
                _mm_add_epi32(NXT[l], _mm_alignr_epi8(CUR[l], PRV[l], 4)),
                CUR[l]);
    for (l = 0; l < NI_LANES; l++)
        S0[l] = _mm_sha256rnds2_epu32(S0[l], S1[l],
                                      _mm_shuffle_epi32(MSG[l], 0x0E));
    if (g >= 1 && g <= 14)
        for (l = 0; l < NI_LANES; l++)
            PRV[l] = _mm_sha256msg1_epu32(PRV[l], CUR[l]);
}

/* Blocks first .. first + n - 1 of the stream `msg` (prepared by
 * prg_block_init), NI_LANES at a time; a last group of fewer than
 * NI_LANES blocks hashes spare lanes and stores only the blocks asked
 * for. */
__attribute__((target("sha,ssse3,sse4.1")))
static void prg_blocks_ni(const uint8_t msg[64], uint64_t first,
                          uint64_t n, uint8_t *out) {
    const __m128i MASK = _mm_set_epi64x(  /* byte-swap each word */
        0x0c0d0e0f08090a0bULL, 0x0405060700010203ULL);
    const __m128i M0 = _mm_shuffle_epi8(
        _mm_loadu_si128((const __m128i *)(msg + 0)), MASK);
    const __m128i M1 = _mm_shuffle_epi8(
        _mm_loadu_si128((const __m128i *)(msg + 16)), MASK);
    const __m128i M3 = _mm_shuffle_epi8(
        _mm_loadu_si128((const __m128i *)(msg + 48)), MASK);
    const __m128i TAIL = _mm_loadu_si128((const __m128i *)(msg + 32));
    /* The IV in the ABEF / CDGH layout sha256rnds2 expects. */
    __m128i TMP = _mm_shuffle_epi32(
        _mm_loadu_si128((const __m128i *)&SHA_IV[0]), 0xB1);
    __m128i CDGH = _mm_shuffle_epi32(
        _mm_loadu_si128((const __m128i *)&SHA_IV[4]), 0x1B);
    const __m128i ABEF = _mm_alignr_epi8(TMP, CDGH, 8);
    CDGH = _mm_blend_epi16(CDGH, TMP, 0xF0);
    uint64_t j;
    int l;
    for (j = 0; j < n; j += NI_LANES) {
        __m128i S0[NI_LANES], S1[NI_LANES];
        __m128i W0[NI_LANES], W1[NI_LANES], W2[NI_LANES], W3[NI_LANES];
        for (l = 0; l < NI_LANES; l++) {
            S0[l] = ABEF;
            S1[l] = CDGH;
            W0[l] = M0;
            W1[l] = M1;
            /* Words 8-9 are the little-endian counter, 10-11 padding. */
            W2[l] = _mm_shuffle_epi8(
                _mm_insert_epi64(TAIL, (long long)(first + j + l), 0), MASK);
            W3[l] = M3;
        }
        ni_lanes_group(S0, S1, W0, W1, W3, 0);
        ni_lanes_group(S0, S1, W1, W2, W0, 1);
        ni_lanes_group(S0, S1, W2, W3, W1, 2);
        ni_lanes_group(S0, S1, W3, W0, W2, 3);
        ni_lanes_group(S0, S1, W0, W1, W3, 4);
        ni_lanes_group(S0, S1, W1, W2, W0, 5);
        ni_lanes_group(S0, S1, W2, W3, W1, 6);
        ni_lanes_group(S0, S1, W3, W0, W2, 7);
        ni_lanes_group(S0, S1, W0, W1, W3, 8);
        ni_lanes_group(S0, S1, W1, W2, W0, 9);
        ni_lanes_group(S0, S1, W2, W3, W1, 10);
        ni_lanes_group(S0, S1, W3, W0, W2, 11);
        ni_lanes_group(S0, S1, W0, W1, W3, 12);
        ni_lanes_group(S0, S1, W1, W2, W0, 13);
        ni_lanes_group(S0, S1, W2, W3, W1, 14);
        ni_lanes_group(S0, S1, W3, W0, W2, 15);
        for (l = 0; l < NI_LANES && j + (uint64_t)l < n; l++) {
            /* Add the IV, permute back to a..d / e..h, store big-endian. */
            __m128i A = _mm_add_epi32(S0[l], ABEF);
            __m128i B = _mm_add_epi32(S1[l], CDGH);
            uint8_t *dst = out + 32 * (j + (uint64_t)l);
            A = _mm_shuffle_epi32(A, 0x1B);
            B = _mm_shuffle_epi32(B, 0xB1);
            _mm_storeu_si128((__m128i *)dst,
                             _mm_shuffle_epi8(_mm_blend_epi16(A, B, 0xF0),
                                              MASK));
            _mm_storeu_si128((__m128i *)(dst + 16),
                             _mm_shuffle_epi8(_mm_alignr_epi8(B, A, 8),
                                              MASK));
        }
    }
}
#endif /* REPRO_SHA_NI_COMPILED */

/* Stream blocks first .. first + n - 1 into out (32 bytes each): the
 * one generator behind the PRG fill and the PSU mask sweep. */
static void prg_blocks(uint8_t msg[64], uint64_t first, uint64_t n,
                       uint8_t *out) {
    uint64_t j;
#ifdef REPRO_SHA_NI_COMPILED
    if (prg_ni) {
        prg_blocks_ni(msg, first, n, out);
        return;
    }
#endif
    for (j = 0; j < n; j++)
        prg_block_ctr(msg, first + j, out + 32 * j);
}

/* Blocks per prg_blocks call in the fill and sweep loops: 2 KB of
 * stream on the stack. */
#define PRG_CHUNK 64

/* x mod d without a division (Barrett).  With c = floor((2^64-1)/d),
 * q = floor(x*c / 2^64) satisfies x/d - 1 < q <= x/d, since
 * x*c >= x*(2^64 - d)/d = x*2^64/d - x and x < 2^64.  So q is the
 * quotient or one less, and x - q*d < 2d needs one conditional
 * subtract.  Exact for every x < 2^64 and d >= 1. */
static inline uint64_t mod_barrett(uint64_t x, uint64_t d, uint64_t c) {
#ifdef __SIZEOF_INT128__
    uint64_t r = x - (uint64_t)(((unsigned __int128)x * c) >> 64) * d;
    return r >= d ? r - d : r;
#else
    (void)c;
    return x % d;
#endif
}

#ifdef REPRO_SHA_NI_COMPILED
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

/* ---- Eq. 11 Mersenne-31 span ------------------------------------------ */

/* out[i] = s[i] * z[i] mod M, M = 2^31 - 1, without a division: each
 * factor is below M, so x = s * z < 2^62, and 2^31 = 1 (mod M) gives
 * x = (x>>31) + (x&M) (mod M).  Two folds bring x below M + 2; one
 * masked subtract finishes.  The loop has no branch, so the compiler
 * vectorizes it (the uint32 x uint32 -> uint64 product is vpmuludq);
 * one body serves each target below. */
static inline __attribute__((always_inline)) void agg_mersenne_body(
        const uint32_t *s, const uint32_t *z, int64_t lo, int64_t hi,
        uint32_t *out) {
    const uint64_t M = ((uint64_t)1 << 31) - 1;
    int64_t i;
    for (i = lo; i < hi; i++) {
        uint64_t x = (uint64_t)s[i] * z[i];
        x = (x >> 31) + (x & M);
        x = (x >> 31) + (x & M);
        out[i] = (uint32_t)(x - (M & -(uint64_t)(x >= M)));
    }
}

typedef void (*agg_fn)(const uint32_t *s, const uint32_t *z, int64_t lo,
                       int64_t hi, uint32_t *out);

static void agg_mersenne(const uint32_t *s, const uint32_t *z, int64_t lo,
                         int64_t hi, uint32_t *out) {
    agg_mersenne_body(s, z, lo, hi, out);
}

#ifdef REPRO_SHA_NI_COMPILED
__attribute__((target("avx512f,avx512dq,avx512vl")))
static void agg_mersenne_avx512(const uint32_t *s, const uint32_t *z,
                                int64_t lo, int64_t hi, uint32_t *out) {
    agg_mersenne_body(s, z, lo, hi, out);
}
#endif

static agg_fn agg_mersenne_best = 0;

/* ---- Eq. 3 / Eq. 7 folded-table spans -------------------------------- */

/* Elements per block: the Eq. 3/7 span checks and then gathers a block
 * while it is in L1, and the owner sum and the §3.1 combine accumulate
 * block by block. */
#define PSI_BLOCK 2048

/* One instantiation per (share type S, output type O): out[i] =
 * table[v(i)] over [lo, hi), v(i) = share[cells[i]] when `cells` is
 * non-null, else share[i].  Each block's largest value is checked
 * before the block is gathered; a value outside the table (a share not
 * mod delta) returns -1, so a malformed store can never read out of
 * bounds. */
#define DEFINE_PSI_SPAN(NAME, S, O)                                        \
static int NAME(const void *share_v, const int64_t *cells, int64_t lo,     \
                int64_t hi, const void *table_v, int64_t table_len,        \
                void *out_v) {                                             \
    const S *share = (const S *)share_v;                                   \
    const O *table = (const O *)table_v;                                   \
    O *out = (O *)out_v;                                                   \
    S gathered[PSI_BLOCK];                                                 \
    int64_t base, k;                                                       \
    for (base = lo; base < hi; base += PSI_BLOCK) {                        \
        int64_t n = hi - base < PSI_BLOCK ? hi - base : PSI_BLOCK;         \
        const S *v = share + base;                                         \
        S top = 0;                                                         \
        if (cells) {                                                       \
            for (k = 0; k < n; k++)                                        \
                gathered[k] = share[cells[base + k]];                      \
            v = gathered;                                                  \
        }                                                                  \
        for (k = 0; k < n; k++)                                            \
            top = v[k] > top ? v[k] : top;                                 \
        if ((int64_t)top >= table_len)                                     \
            return -1;                                                     \
        for (k = 0; k < n; k++)                                            \
            out[base + k] = table[v[k]];                                   \
    }                                                                      \
    return 0;                                                              \
}

DEFINE_PSI_SPAN(psi_u8_o16, uint8_t, uint16_t)
DEFINE_PSI_SPAN(psi_u8_o32, uint8_t, uint32_t)
DEFINE_PSI_SPAN(psi_u16_o16, uint16_t, uint16_t)
DEFINE_PSI_SPAN(psi_u16_o32, uint16_t, uint32_t)

/* ---- Eq. 18 spans ---------------------------------------------------- */

/* One instantiation per residue type S, with W the unsigned type that
 * holds a sum of shares and a product of two residues. */
#define DEFINE_PSU_SPANS(SUFFIX, S, W)                                      \
static void sum_mod_##SUFFIX(const void **shares_v, int64_t nshares,       \
                             int64_t lo, int64_t hi, int64_t modulus,      \
                             void *out_v) {                                \
    const S **shares = (const S **)shares_v;                               \
    S *out = (S *)out_v;                                                   \
    const uint64_t m = (uint64_t)modulus, cm = UINT64_MAX / m;             \
    W acc[PSI_BLOCK];                                                      \
    int64_t base, k, j;                                                    \
    for (base = lo; base < hi; base += PSI_BLOCK) {                        \
        int64_t n = hi - base < PSI_BLOCK ? hi - base : PSI_BLOCK;         \
        memset(acc, 0, (size_t)n * sizeof(W));                             \
        for (j = 0; j < nshares; j++) {                                    \
            const S *sp = shares[j] + base;                                \
            for (k = 0; k < n; k++)                                        \
                acc[k] += sp[k];                                           \
        }                                                                  \
        for (k = 0; k < n; k++)                                            \
            out[base + k] = (S)mod_barrett(acc[k], m, cm);                 \
    }                                                                      \
}                                                                          \
static void psu_##SUFFIX(const void *summed_v, int64_t lo, int64_t hi,     \
                         const uint8_t *key, uint64_t draw_base,           \
                         int64_t delta, void *out_v) {                     \
    const S *summed = (const S *)summed_v;                                 \
    S *out = (S *)out_v;                                                   \
    const uint64_t d = (uint64_t)delta, span = d - 1;                      \
    const uint64_t cd = UINT64_MAX / d, cs = UINT64_MAX / span;            \
    uint64_t raw[4 * PRG_CHUNK];  /* four u64 draws per 32-byte block */   \
    uint8_t msg[64];                                                       \
    int64_t i = lo, k;                                                     \
    prg_block_init(key, msg);                                              \
    while (i < hi) {                                                       \
        uint64_t first = draw_base + (uint64_t)i;                          \
        int64_t skip = (int64_t)(first & 3);                               \
        int64_t n = hi - i < 4 * PRG_CHUNK - skip                          \
            ? hi - i : 4 * PRG_CHUNK - skip;                               \
        prg_blocks(msg, first >> 2, (uint64_t)(skip + n + 3) >> 2,         \
                   (uint8_t *)raw);                                        \
        for (k = 0; k < n; k++) {                                          \
            uint64_t mask = mod_barrett(raw[skip + k], span, cs) + 1;      \
            out[i + k] = (S)mod_barrett((uint64_t)summed[i + k] * mask,    \
                                        d, cd);                            \
        }                                                                  \
        i += n;                                                            \
    }                                                                      \
}

DEFINE_PSU_SPANS(u8, uint8_t, uint32_t)
DEFINE_PSU_SPANS(u16, uint16_t, uint32_t)
DEFINE_PSU_SPANS(u32, uint32_t, uint64_t)

/* ---- owner spans ----------------------------------------------------- */

/* Shamir combine over the Mersenne prime, block by block: each product
 * w * v (both below 2^32, at most 2^31 - 1 for reduced operands) is
 * folded once to below 2^33, so a block accumulator of any realistic
 * term count cannot wrap; one full fold per element finishes.  Every
 * output row of a block is formed while the block's operands are in
 * cache, so dealing all shares reads each vector from memory once.  A
 * vector of `sizes[k] == 8` holds the int64 coefficient draws, whose
 * values are field elements, so their low 32 bits are the value.
 * Every loop is branch-free so the compiler vectorizes it; one body
 * serves each target below. */
static inline __attribute__((always_inline)) void combine_mersenne_body(
        const void **vectors, const int64_t *sizes, int64_t nvec,
        const uint64_t *weights, int64_t nout, int64_t lo, int64_t hi,
        uint32_t **outs) {
    const uint64_t M = ((uint64_t)1 << 31) - 1;
    uint64_t acc[PSI_BLOCK];
    int64_t base, r, k, j;
    for (base = lo; base < hi; base += PSI_BLOCK) {
        int64_t n = hi - base < PSI_BLOCK ? hi - base : PSI_BLOCK;
        for (r = 0; r < nout; r++) {
            uint32_t *out = outs[r] + base;
            memset(acc, 0, (size_t)n * sizeof(uint64_t));
            for (k = 0; k < nvec; k++) {
                const uint32_t w = (uint32_t)weights[r * nvec + k];
                if (sizes[k] == 8) {
                    const uint64_t *v = (const uint64_t *)vectors[k] + base;
                    for (j = 0; j < n; j++) {
                        uint64_t x = (uint64_t)w * (uint32_t)v[j];
                        acc[j] += (x >> 31) + (x & M);
                    }
                } else {
                    const uint32_t *v = (const uint32_t *)vectors[k] + base;
                    for (j = 0; j < n; j++) {
                        uint64_t x = (uint64_t)w * v[j];
                        acc[j] += (x >> 31) + (x & M);
                    }
                }
            }
            for (j = 0; j < n; j++) {
                uint64_t x = acc[j];
                x = (x >> 31) + (x & M);
                x = (x >> 31) + (x & M);
                out[j] = (uint32_t)(x - (M & -(uint64_t)(x >= M)));
            }
        }
    }
}

typedef void (*combine_fn)(const void **vectors, const int64_t *sizes,
                           int64_t nvec, const uint64_t *weights,
                           int64_t nout, int64_t lo, int64_t hi,
                           uint32_t **outs);

static void combine_mersenne(const void **vectors, const int64_t *sizes,
                             int64_t nvec, const uint64_t *weights,
                             int64_t nout, int64_t lo, int64_t hi,
                             uint32_t **outs) {
    combine_mersenne_body(vectors, sizes, nvec, weights, nout, lo, hi, outs);
}

#ifdef REPRO_SHA_NI_COMPILED
__attribute__((target("avx512f,avx512dq,avx512vl")))
static void combine_mersenne_avx512(const void **vectors,
                                    const int64_t *sizes, int64_t nvec,
                                    const uint64_t *weights, int64_t nout,
                                    int64_t lo, int64_t hi,
                                    uint32_t **outs) {
    combine_mersenne_body(vectors, sizes, nvec, weights, nout, lo, hi, outs);
}
#endif

static combine_fn combine_mersenne_best = 0;

/* Any other field prime below 2^32: each product fits uint64 and is
 * reduced once, so a sum of reduced terms cannot wrap either. */
static void combine_generic(const void **vectors, const int64_t *sizes,
                            int64_t nvec, const uint64_t *weights,
                            int64_t nout, int64_t lo, int64_t hi,
                            uint64_t p, uint32_t **outs) {
    int64_t i, r, k;
    for (i = lo; i < hi; i++) {
        for (r = 0; r < nout; r++) {
            uint64_t acc = 0;
            for (k = 0; k < nvec; k++) {
                uint64_t v = sizes[k] == 8
                    ? ((const uint64_t *)vectors[k])[i]
                    : ((const uint32_t *)vectors[k])[i];
                acc += weights[r * nvec + k] * v % p;
            }
            outs[r][i] = (uint32_t)(acc % p);
        }
    }
}

/* ---- exported kernels ------------------------------------------------ */

/* Stream bytes [start, start + nbytes) of the counter-mode generator. */
void repro_prg_fill(const uint8_t *key, uint64_t start, uint64_t nbytes,
                    uint8_t *out) {
    uint8_t msg[64];
    uint8_t chunk[32 * PRG_CHUNK];
    uint64_t counter = start / 32;
    uint64_t skip = start % 32;
    uint64_t produced = 0;
    prg_block_init(key, msg);
    while (produced < nbytes) {
        uint64_t blocks = (skip + (nbytes - produced) + 31) / 32;
        uint64_t take;
        if (blocks > PRG_CHUNK)
            blocks = PRG_CHUNK;
        take = 32 * blocks - skip;
        if (take > nbytes - produced)
            take = nbytes - produced;
        prg_blocks(msg, counter, blocks, chunk);
        memcpy(out + produced, chunk + skip, take);
        counter += blocks;
        produced += take;
        skip = 0;
    }
}

/* Eq. 3 / Eq. 7 row span over one owner-summed vector: out[i] =
 * table[share[c(i)]], c(i) = cells[i] when `cells` is non-null, else i.
 * `share_size` is 1 or 2 bytes, `out_size` (also the table's) 2 or 4.
 * Returns 0, or -1 when a share overruns the table. */
int repro_psi_span(const void *share, int64_t share_size,
                   const int64_t *cells, int64_t lo, int64_t hi,
                   const void *table, int64_t table_len, int64_t out_size,
                   void *out) {
    if (share_size == 1)
        return (out_size == 2 ? psi_u8_o16 : psi_u8_o32)(
            share, cells, lo, hi, table, table_len, out);
    return (out_size == 2 ? psi_u16_o16 : psi_u16_o32)(
        share, cells, lo, hi, table, table_len, out);
}

/* out[i] = (sum_j shares[j][i]) mod m over i in [lo, hi); shares and
 * out are `size`-byte unsigned residues. */
void repro_sum_mod_span(const void **shares, int64_t nshares, int64_t size,
                        int64_t lo, int64_t hi, int64_t modulus,
                        void *out) {
    if (size == 1)
        sum_mod_u8(shares, nshares, lo, hi, modulus, out);
    else if (size == 2)
        sum_mod_u16(shares, nshares, lo, hi, modulus, out);
    else
        sum_mod_u32(shares, nshares, lo, hi, modulus, out);
}

/* Eq. 18 row span with the mask stream generated in place:
 * out[i] = (summed[i] * ((draw(draw_base + i) % (delta-1)) + 1)) mod delta,
 * where draw(d) is u64 little-endian bytes [8d, 8d+8) of the stream —
 * exactly SeededPRG.integers_at(draw_base + lo, hi - lo, 1, delta).
 * `summed` and `out` are `size`-byte residues mod delta. */
void repro_psu_span(const void *summed, int64_t size, int64_t lo, int64_t hi,
                    const uint8_t *key, uint64_t draw_base, int64_t delta,
                    void *out) {
    if (size == 1)
        psu_u8(summed, lo, hi, key, draw_base, delta, out);
    else if (size == 2)
        psu_u16(summed, lo, hi, key, draw_base, delta, out);
    else
        psu_u32(summed, lo, hi, key, draw_base, delta, out);
}

/* Eq. 11 row span over one owner-summed vector of uint32 field
 * elements: out[i] = share[i] * z[i] mod p, the product in uint64. */
void repro_agg_span(const uint32_t *share, const uint32_t *z, int64_t lo,
                    int64_t hi, int64_t p, uint32_t *out) {
    const uint64_t m = (uint64_t)p, c = UINT64_MAX / m;
    int64_t i;
    if (p == ((int64_t)1 << 31) - 1) {
        /* The repo's field prime: the Mersenne fold, no division. */
        if (!agg_mersenne_best) {
            agg_mersenne_best = agg_mersenne;
#ifdef REPRO_SHA_NI_COMPILED
            if (cpu_has_avx512dq())
                agg_mersenne_best = agg_mersenne_avx512;
#endif
        }
        agg_mersenne_best(share, z, lo, hi, out);
        return;
    }
    for (i = lo; i < hi; i++)
        out[i] = (uint32_t)mod_barrett((uint64_t)share[i] * z[i], m, c);
}

/* §3.1 Shamir combine span over uint32 field elements:
 * outs[r][i] = sum_k weights[r][k] * v_k[i] mod p over i in [lo, hi),
 * the one linear combination behind dealing (row r evaluates each
 * cell's polynomial at point r + 1) and Lagrange interpolation at 0
 * (one row).  `weights` is row-major, nout x nvec; `sizes[k]` is 4 for
 * a uint32 vector or 8 for the int64 coefficient draws; every value and
 * weight is a field element of a prime p below 2^32. */
void repro_combine_span(const void **vectors, const int64_t *sizes,
                        int64_t nvec, const uint64_t *weights, int64_t nout,
                        int64_t lo, int64_t hi, int64_t p, uint32_t **outs) {
    if (p == ((int64_t)1 << 31) - 1) {
        if (!combine_mersenne_best) {
            combine_mersenne_best = combine_mersenne;
#ifdef REPRO_SHA_NI_COMPILED
            if (cpu_has_avx512dq())
                combine_mersenne_best = combine_mersenne_avx512;
#endif
        }
        combine_mersenne_best(vectors, sizes, nvec, weights, nout, lo, hi,
                              outs);
    } else
        combine_generic(vectors, sizes, nvec, weights, nout, lo, hi,
                        (uint64_t)p, outs);
}

/* Eq. 4 / Eq. 8-10 owner product span: out[i] = a[i] * b[i] mod m over
 * i in [lo, hi).  a, b and out are `size`-byte unsigned values (2 or
 * 4); the product is formed in uint64, so it never wraps, and reduced
 * without a division (mod_barrett). */
void repro_mul_mod_span(const void *a, const void *b, int64_t size,
                        int64_t lo, int64_t hi, int64_t modulus, void *out) {
    const uint64_t m = (uint64_t)modulus, c = UINT64_MAX / m;
    int64_t i;
    if (size == 2) {
        const uint16_t *x = (const uint16_t *)a, *y = (const uint16_t *)b;
        uint16_t *o = (uint16_t *)out;
        for (i = lo; i < hi; i++)
            o[i] = (uint16_t)mod_barrett((uint32_t)x[i] * y[i], m, c);
    } else {
        const uint32_t *x = (const uint32_t *)a, *y = (const uint32_t *)b;
        uint32_t *o = (uint32_t *)out;
        for (i = lo; i < hi; i++)
            o[i] = (uint32_t)mod_barrett((uint64_t)x[i] * y[i], m, c);
    }
}

/* Fisher-Yates over out[0..n) (a caller-filled arange), fed the n - 1
 * non-negative draws of SeededPRG.shuffle_indices: for i from n-1 down
 * to 1, j = draws[n-1-i] mod (i + 1), then swap out[i] and out[j]. */
void repro_shuffle(const int64_t *draws, int64_t *out, int64_t n) {
    int64_t i;
    for (i = n - 1; i > 0; i--) {
        const uint64_t j = (uint64_t)draws[n - 1 - i] % (uint64_t)(i + 1);
        const int64_t t = out[i];
        out[i] = out[j];
        out[j] = t;
    }
}
