#include "crypto/sha256.h"

#include <cstring>

#if defined(__x86_64__)
#include <cpuid.h>
#include <immintrin.h>
#endif

#include "base/log.h"
#include "crypto/reference.h"

namespace occlum::crypto {

namespace {

constexpr uint32_t kK[64] = {
    0x428a2f98, 0x71374491, 0xb5c0fbcf, 0xe9b5dba5,
    0x3956c25b, 0x59f111f1, 0x923f82a4, 0xab1c5ed5,
    0xd807aa98, 0x12835b01, 0x243185be, 0x550c7dc3,
    0x72be5d74, 0x80deb1fe, 0x9bdc06a7, 0xc19bf174,
    0xe49b69c1, 0xefbe4786, 0x0fc19dc6, 0x240ca1cc,
    0x2de92c6f, 0x4a7484aa, 0x5cb0a9dc, 0x76f988da,
    0x983e5152, 0xa831c66d, 0xb00327c8, 0xbf597fc7,
    0xc6e00bf3, 0xd5a79147, 0x06ca6351, 0x14292967,
    0x27b70a85, 0x2e1b2138, 0x4d2c6dfc, 0x53380d13,
    0x650a7354, 0x766a0abb, 0x81c2c92e, 0x92722c85,
    0xa2bfe8a1, 0xa81a664b, 0xc24b8b70, 0xc76c51a3,
    0xd192e819, 0xd6990624, 0xf40e3585, 0x106aa070,
    0x19a4c116, 0x1e376c08, 0x2748774c, 0x34b0bcb5,
    0x391c0cb3, 0x4ed8aa4a, 0x5b9cca4f, 0x682e6ff3,
    0x748f82ee, 0x78a5636f, 0x84c87814, 0x8cc70208,
    0x90befffa, 0xa4506ceb, 0xbef9a3f7, 0xc67178f2,
};

inline uint32_t
rotr(uint32_t x, int n)
{
    return (x >> n) | (x << (32 - n));
}

inline uint32_t
big_sigma0(uint32_t x)
{
    return rotr(x, 2) ^ rotr(x, 13) ^ rotr(x, 22);
}

inline uint32_t
big_sigma1(uint32_t x)
{
    return rotr(x, 6) ^ rotr(x, 11) ^ rotr(x, 25);
}

inline uint32_t
small_sigma0(uint32_t x)
{
    return rotr(x, 7) ^ rotr(x, 18) ^ (x >> 3);
}

inline uint32_t
small_sigma1(uint32_t x)
{
    return rotr(x, 17) ^ rotr(x, 19) ^ (x >> 10);
}

/** The reference compression: FIPS 180-4 §6.2.2 over one block. */
void
compress_scalar(uint32_t state[8], const uint8_t block[64])
{
    uint32_t w[64];
    for (int i = 0; i < 16; ++i) {
        w[i] = (uint32_t(block[4 * i]) << 24) |
               (uint32_t(block[4 * i + 1]) << 16) |
               (uint32_t(block[4 * i + 2]) << 8) |
               uint32_t(block[4 * i + 3]);
    }
    for (int i = 16; i < 64; i += 2) {
        w[i] = w[i - 16] + small_sigma0(w[i - 15]) + w[i - 7] +
               small_sigma1(w[i - 2]);
        w[i + 1] = w[i - 15] + small_sigma0(w[i - 14]) + w[i - 6] +
                   small_sigma1(w[i - 1]);
    }

    uint32_t a = state[0], b = state[1], c = state[2], d = state[3];
    uint32_t e = state[4], f = state[5], g = state[6], h = state[7];

    // One round with the working variables permuted in place of the
    // h=g; g=f; ... rotation chain; eight of these bring the names
    // back into position, so the loop is unrolled 8 rounds per step.
#define OCC_SHA256_ROUND(a, b, c, d, e, f, g, h, i)                     \
    do {                                                                \
        uint32_t t1 = h + big_sigma1(e) + ((e & f) ^ (~e & g)) +        \
                      kK[i] + w[i];                                     \
        uint32_t t2 = big_sigma0(a) + ((a & b) ^ (a & c) ^ (b & c));    \
        d += t1;                                                        \
        h = t1 + t2;                                                    \
    } while (0)

    for (int i = 0; i < 64; i += 8) {
        OCC_SHA256_ROUND(a, b, c, d, e, f, g, h, i + 0);
        OCC_SHA256_ROUND(h, a, b, c, d, e, f, g, i + 1);
        OCC_SHA256_ROUND(g, h, a, b, c, d, e, f, i + 2);
        OCC_SHA256_ROUND(f, g, h, a, b, c, d, e, i + 3);
        OCC_SHA256_ROUND(e, f, g, h, a, b, c, d, i + 4);
        OCC_SHA256_ROUND(d, e, f, g, h, a, b, c, i + 5);
        OCC_SHA256_ROUND(c, d, e, f, g, h, a, b, i + 6);
        OCC_SHA256_ROUND(b, c, d, e, f, g, h, a, i + 7);
    }
#undef OCC_SHA256_ROUND

    state[0] += a;
    state[1] += b;
    state[2] += c;
    state[3] += d;
    state[4] += e;
    state[5] += f;
    state[6] += g;
    state[7] += h;
}

#if defined(__x86_64__)
/**
 * The same compression on the SHA-NI extensions, over `n` consecutive
 * blocks with the chaining value held in registers between them. The
 * state lives as two lanes, ABEF and CDGH, the order sha256rnds2
 * takes; each round group adds four K constants to four schedule
 * words and runs four rounds. Schedule words beyond the first 16 are
 * derived four at a time: msg1 adds sigma0 terms, alignr supplies the
 * W[t-7] terms and msg2 adds the sigma1 terms.
 */
__attribute__((target("sha,sse4.1,ssse3"))) void
compress_shani(uint32_t state[8], const uint8_t *blocks, size_t n)
{
    // Byte-swap each big-endian message word into a 32-bit lane.
    const __m128i bswap =
        _mm_set_epi64x(0x0c0d0e0f08090a0bll, 0x0405060700010203ll);
    __m128i dcba = _mm_loadu_si128(reinterpret_cast<__m128i *>(state));
    __m128i hgfe =
        _mm_loadu_si128(reinterpret_cast<__m128i *>(state + 4));
    __m128i cdab = _mm_shuffle_epi32(dcba, 0xb1);
    __m128i efgh = _mm_shuffle_epi32(hgfe, 0x1b);
    __m128i abef = _mm_alignr_epi8(cdab, efgh, 8);
    __m128i cdgh = _mm_blend_epi16(efgh, cdab, 0xf0);

    for (; n > 0; --n, blocks += 64) {
        const __m128i abef_in = abef;
        const __m128i cdgh_in = cdgh;
        __m128i w[4];
#pragma GCC unroll 16
        for (int j = 0; j < 16; ++j) {
            if (j < 4) {
                w[j] = _mm_shuffle_epi8(
                    _mm_loadu_si128(reinterpret_cast<const __m128i *>(
                        blocks + 16 * j)),
                    bswap);
            } else {
                __m128i t = _mm_sha256msg1_epu32(w[j & 3], w[(j + 1) & 3]);
                t = _mm_add_epi32(
                    t, _mm_alignr_epi8(w[(j + 3) & 3], w[(j + 2) & 3], 4));
                w[j & 3] = _mm_sha256msg2_epu32(t, w[(j + 3) & 3]);
            }
            __m128i wk = _mm_add_epi32(
                w[j & 3],
                _mm_loadu_si128(reinterpret_cast<const __m128i *>(
                    kK + 4 * j)));
            cdgh = _mm_sha256rnds2_epu32(cdgh, abef, wk);
            abef = _mm_sha256rnds2_epu32(abef, cdgh,
                                         _mm_shuffle_epi32(wk, 0x0e));
        }
        abef = _mm_add_epi32(abef, abef_in);
        cdgh = _mm_add_epi32(cdgh, cdgh_in);
    }

    __m128i feba = _mm_shuffle_epi32(abef, 0x1b);
    __m128i dchg = _mm_shuffle_epi32(cdgh, 0xb1);
    _mm_storeu_si128(reinterpret_cast<__m128i *>(state),
                     _mm_blend_epi16(feba, dchg, 0xf0));
    _mm_storeu_si128(reinterpret_cast<__m128i *>(state + 4),
                     _mm_alignr_epi8(dchg, feba, 8));
}

/** CPUID leaf 7 EBX bit 29 (SHA), plus the SSSE3/SSE4.1 shuffles the
 *  kernel uses (leaf 1 ECX bits 9 and 19). */
bool
detect_sha_ni()
{
    unsigned a, b, c, d;
    if (!__get_cpuid(1, &a, &b, &c, &d) || !(c & (1u << 9)) ||
        !(c & (1u << 19))) {
        return false;
    }
    return __get_cpuid_count(7, 0, &a, &b, &c, &d) && (b & (1u << 29));
}
#else
bool
detect_sha_ni()
{
    return false;
}
#endif

const bool g_has_sha_ni = detect_sha_ni();

} // namespace

void
Sha256::reset()
{
    state_[0] = 0x6a09e667;
    state_[1] = 0xbb67ae85;
    state_[2] = 0x3c6ef372;
    state_[3] = 0xa54ff53a;
    state_[4] = 0x510e527f;
    state_[5] = 0x9b05688c;
    state_[6] = 0x1f83d9ab;
    state_[7] = 0x5be0cd19;
    buffered_ = 0;
    total_len_ = 0;
}

Sha256Midstate
Sha256::midstate() const
{
    OCC_CHECK_MSG(buffered_ == 0,
                  "midstate only exists on a 64-byte block boundary");
    Sha256Midstate m;
    for (int i = 0; i < 8; ++i) {
        m.state[i] = state_[i];
    }
    m.total_len = total_len_;
    return m;
}

void
Sha256::resume(const Sha256Midstate &m)
{
    for (int i = 0; i < 8; ++i) {
        state_[i] = m.state[i];
    }
    buffered_ = 0;
    total_len_ = m.total_len;
}

const Sha256Midstate &
Sha256::initial_midstate()
{
    static const Sha256Midstate m = [] {
        Sha256 h;
        return h.midstate();
    }();
    return m;
}

bool
Sha256::same_state(const Sha256 &other) const
{
    return std::memcmp(state_, other.state_, sizeof(state_)) == 0 &&
           total_len_ == other.total_len_ &&
           buffered_ == other.buffered_ &&
           std::memcmp(buffer_, other.buffer_, buffered_) == 0;
}

bool
Sha256::has_sha_ni()
{
    return g_has_sha_ni;
}

void
Sha256::compress(const uint8_t *blocks, size_t n)
{
#if defined(__x86_64__)
    if (g_has_sha_ni && !reference_mode()) {
        compress_shani(state_, blocks, n);
        return;
    }
#endif
    for (size_t i = 0; i < n; ++i) {
        compress_scalar(state_, blocks + 64 * i);
    }
}

void
Sha256::update(const uint8_t *data, size_t len)
{
    if (len == 0) {
        return; // an empty Bytes may pass a null `data`
    }
    total_len_ += len;
    // Top up a partially filled buffer first.
    if (buffered_ != 0) {
        size_t take = std::min(len, sizeof(buffer_) - buffered_);
        std::memcpy(buffer_ + buffered_, data, take);
        buffered_ += take;
        data += take;
        len -= take;
        if (buffered_ == sizeof(buffer_)) {
            compress(buffer_, 1);
            buffered_ = 0;
        }
    }
    // Full blocks straight from the input, no staging copy.
    if (size_t blocks = len / sizeof(buffer_)) {
        compress(data, blocks);
        data += blocks * sizeof(buffer_);
        len -= blocks * sizeof(buffer_);
    }
    if (len > 0) {
        std::memcpy(buffer_, data, len);
        buffered_ = len;
    }
}

Sha256Digest
Sha256::finish()
{
    uint64_t bit_len = total_len_ * 8;
    // Pad in place: 0x80, zeros to 56 mod 64, then the bit length.
    // Spills into a second compression when fewer than 9 bytes of the
    // current block remain.
    buffer_[buffered_++] = 0x80;
    if (buffered_ > 56) {
        std::memset(buffer_ + buffered_, 0, sizeof(buffer_) - buffered_);
        compress(buffer_, 1);
        buffered_ = 0;
    }
    std::memset(buffer_ + buffered_, 0, 56 - buffered_);
    for (int i = 0; i < 8; ++i) {
        buffer_[56 + i] = static_cast<uint8_t>(bit_len >> (56 - 8 * i));
    }
    compress(buffer_, 1);
    buffered_ = 0;

    Sha256Digest out;
    for (int i = 0; i < 8; ++i) {
        out[4 * i] = static_cast<uint8_t>(state_[i] >> 24);
        out[4 * i + 1] = static_cast<uint8_t>(state_[i] >> 16);
        out[4 * i + 2] = static_cast<uint8_t>(state_[i] >> 8);
        out[4 * i + 3] = static_cast<uint8_t>(state_[i]);
    }
    return out;
}

} // namespace occlum::crypto
