#include "crypto/aes.h"

#include <cstring>

#if defined(__x86_64__)
#include <cpuid.h>
#include <immintrin.h>
#endif

#include "crypto/reference.h"

namespace occlum::crypto {

namespace {

/** GF(2^8) multiply by x (i.e. {02}) modulo x^8+x^4+x^3+x+1. */
inline uint8_t
xtime(uint8_t a)
{
    return static_cast<uint8_t>((a << 1) ^ ((a & 0x80) ? 0x1b : 0x00));
}

/** Full GF(2^8) multiplication. */
uint8_t
gmul(uint8_t a, uint8_t b)
{
    uint8_t p = 0;
    while (b) {
        if (b & 1) {
            p ^= a;
        }
        a = xtime(a);
        b >>= 1;
    }
    return p;
}

/** The AES S-box, computed once from first principles. */
const std::array<uint8_t, 256> &
sbox()
{
    static const std::array<uint8_t, 256> s = [] {
        // Multiplicative inverses via exhaustive search (256^2 ops,
        // done once at startup).
        uint8_t inv[256] = {0};
        for (int a = 1; a < 256; ++a) {
            for (int b = 1; b < 256; ++b) {
                if (gmul(uint8_t(a), uint8_t(b)) == 1) {
                    inv[a] = uint8_t(b);
                    break;
                }
            }
        }
        // Affine transform: b ^ rot1(b) ^ rot2(b) ^ rot3(b) ^ rot4(b)
        // ^ 0x63, with rotN = left-rotate by N bits.
        auto rotl8 = [](uint8_t v, int n) {
            return static_cast<uint8_t>((v << n) | (v >> (8 - n)));
        };
        std::array<uint8_t, 256> t{};
        for (int i = 0; i < 256; ++i) {
            uint8_t x = inv[i];
            t[i] = static_cast<uint8_t>(x ^ rotl8(x, 1) ^ rotl8(x, 2) ^
                                        rotl8(x, 3) ^ rotl8(x, 4) ^ 0x63);
        }
        return t;
    }();
    return s;
}

inline void
store_be32(uint8_t *p, uint32_t w)
{
    p[0] = uint8_t(w >> 24);
    p[1] = uint8_t(w >> 16);
    p[2] = uint8_t(w >> 8);
    p[3] = uint8_t(w);
}

#if defined(__x86_64__)
/** The 11 round keys, loaded from the byte-order schedule. */
__attribute__((target("aes,sse4.1"))) inline void
load_round_keys(const uint8_t *round_keys, __m128i rk[11])
{
    for (int r = 0; r < 11; ++r) {
        rk[r] = _mm_loadu_si128(
            reinterpret_cast<const __m128i *>(round_keys + 16 * r));
    }
}

/** One block: AddRoundKey, aesenc x9, aesenclast. */
__attribute__((target("aes,sse4.1"))) inline __m128i
encrypt_ni(const __m128i rk[11], __m128i b)
{
    b = _mm_xor_si128(b, rk[0]);
    for (int r = 1; r < 10; ++r) {
        b = _mm_aesenc_si128(b, rk[r]);
    }
    return _mm_aesenclast_si128(b, rk[10]);
}

__attribute__((target("aes,sse4.1"))) void
encrypt_block_ni(const uint8_t *round_keys, const uint8_t in[16],
                 uint8_t out[16])
{
    __m128i rk[11];
    load_round_keys(round_keys, rk);
    __m128i b = _mm_loadu_si128(reinterpret_cast<const __m128i *>(in));
    _mm_storeu_si128(reinterpret_cast<__m128i *>(out), encrypt_ni(rk, b));
}

/** The counter block iv || be32(c), from `base` = iv || 0 (pinsrd). */
__attribute__((target("aes,sse4.1"))) inline __m128i
counter_block(__m128i base, uint32_t c)
{
    return _mm_insert_epi32(base, int(__builtin_bswap32(c)), 3);
}

/** XOR 16 bytes of `in` with the keystream block into `out`. */
__attribute__((target("aes,sse4.1"))) inline void
xor_block(const uint8_t *in, uint8_t *out, __m128i ks)
{
    __m128i d = _mm_loadu_si128(reinterpret_cast<const __m128i *>(in));
    _mm_storeu_si128(reinterpret_cast<__m128i *>(out), _mm_xor_si128(d, ks));
}

/**
 * CTR mode on AES-NI. Eight counter blocks go through each round
 * together, so each block's aesenc latency hides behind the other
 * seven. The uint32_t counter wraps mod 2^32 wherever it falls.
 */
__attribute__((target("aes,sse4.1"))) void
ctr_crypt_ni(const uint8_t *round_keys, const uint8_t iv[12],
             uint32_t counter, const uint8_t *in, uint8_t *out, size_t len)
{
    __m128i rk[11];
    load_round_keys(round_keys, rk);
    uint8_t nonce[16] = {0};
    std::memcpy(nonce, iv, 12);
    const __m128i base =
        _mm_loadu_si128(reinterpret_cast<const __m128i *>(nonce));

    size_t off = 0;
    for (; len - off >= 128; off += 128, counter += 8) {
        // Unrolled over j, so the eight blocks stay in registers.
        __m128i b[8];
#pragma GCC unroll 8
        for (int j = 0; j < 8; ++j) {
            b[j] = _mm_xor_si128(counter_block(base, counter + j), rk[0]);
        }
        for (int r = 1; r < 10; ++r) {
#pragma GCC unroll 8
            for (int j = 0; j < 8; ++j) {
                b[j] = _mm_aesenc_si128(b[j], rk[r]);
            }
        }
#pragma GCC unroll 8
        for (int j = 0; j < 8; ++j) {
            xor_block(in + off + 16 * j, out + off + 16 * j,
                      _mm_aesenclast_si128(b[j], rk[10]));
        }
    }
    for (; len - off >= 16; off += 16) {
        xor_block(in + off, out + off,
                  encrypt_ni(rk, counter_block(base, counter++)));
    }
    if (off < len) {
        uint8_t ks[16];
        _mm_storeu_si128(reinterpret_cast<__m128i *>(ks),
                         encrypt_ni(rk, counter_block(base, counter)));
        for (size_t i = 0; off + i < len; ++i) {
            out[off + i] = in[off + i] ^ ks[i];
        }
    }
}

/** CPUID leaf 1: ECX bit 25 (AES) and bit 19 (SSE4.1, for pinsrd). */
const bool g_has_aes_ni = [] {
    unsigned a, b, c, d;
    return __get_cpuid(1, &a, &b, &c, &d) && (c & (1u << 25)) &&
           (c & (1u << 19));
}();
#else
const bool g_has_aes_ni = false;
#endif

} // namespace

Aes128::Aes128(const Key128 &key)
{
    // Key expansion (FIPS 197 §5.2), Nk=4, Nr=10, on bytes: word i is
    // w[4i..4i+3], which leaves each round key in AES byte order.
    const std::array<uint8_t, 256> &s = sbox();
    uint8_t *w = round_keys_.data();
    std::memcpy(w, key.data(), 16);
    uint8_t rcon = 0x01;
    for (int i = 4; i < 44; ++i) {
        uint8_t t[4];
        std::memcpy(t, w + 4 * (i - 1), 4);
        if (i % 4 == 0) {
            // RotWord, SubWord, then Rcon into the leading byte.
            uint8_t t0 = t[0];
            t[0] = static_cast<uint8_t>(s[t[1]] ^ rcon);
            t[1] = s[t[2]];
            t[2] = s[t[3]];
            t[3] = s[t0];
            rcon = xtime(rcon);
        }
        for (int k = 0; k < 4; ++k) {
            w[4 * i + k] = static_cast<uint8_t>(w[4 * (i - 4) + k] ^ t[k]);
        }
    }
}

bool
Aes128::has_aes_ni()
{
    return g_has_aes_ni;
}

void
Aes128::encrypt_block(const uint8_t in[16], uint8_t out[16]) const
{
#if defined(__x86_64__)
    if (g_has_aes_ni && !reference_mode()) {
        encrypt_block_ni(round_keys_.data(), in, out);
        return;
    }
#endif
    encrypt_block_ref(in, out);
}

void
Aes128::encrypt_block_ref(const uint8_t in[16], uint8_t out[16]) const
{
    const std::array<uint8_t, 256> &s = sbox();
    uint8_t state[16];
    std::memcpy(state, in, 16);

    auto add_round_key = [&](int round) {
        for (int i = 0; i < 16; ++i) {
            state[i] ^= round_keys_[16 * round + i];
        }
    };
    auto sub_bytes = [&]() {
        for (int i = 0; i < 16; ++i) {
            state[i] = s[state[i]];
        }
    };
    auto shift_rows = [&]() {
        // State is column-major: state[4*c + r].
        uint8_t tmp[16];
        for (int c = 0; c < 4; ++c) {
            for (int r = 0; r < 4; ++r) {
                tmp[4 * c + r] = state[4 * ((c + r) % 4) + r];
            }
        }
        std::memcpy(state, tmp, 16);
    };
    auto mix_columns = [&]() {
        for (int c = 0; c < 4; ++c) {
            uint8_t *col = &state[4 * c];
            uint8_t a0 = col[0], a1 = col[1], a2 = col[2], a3 = col[3];
            col[0] = uint8_t(xtime(a0) ^ (xtime(a1) ^ a1) ^ a2 ^ a3);
            col[1] = uint8_t(a0 ^ xtime(a1) ^ (xtime(a2) ^ a2) ^ a3);
            col[2] = uint8_t(a0 ^ a1 ^ xtime(a2) ^ (xtime(a3) ^ a3));
            col[3] = uint8_t((xtime(a0) ^ a0) ^ a1 ^ a2 ^ xtime(a3));
        }
    };

    add_round_key(0);
    for (int round = 1; round < 10; ++round) {
        sub_bytes();
        shift_rows();
        mix_columns();
        add_round_key(round);
    }
    sub_bytes();
    shift_rows();
    add_round_key(10);

    std::memcpy(out, state, 16);
}

void
Aes128::ctr_crypt(const std::array<uint8_t, 12> &iv, uint32_t counter0,
                  const uint8_t *in, uint8_t *out, size_t len) const
{
#if defined(__x86_64__)
    if (g_has_aes_ni && !reference_mode()) {
        ctr_crypt_ni(round_keys_.data(), iv.data(), counter0, in, out, len);
        return;
    }
#endif
    uint8_t counter_block[16];
    std::memcpy(counter_block, iv.data(), 12);
    uint32_t counter = counter0;
    for (size_t off = 0; off < len; off += 16) {
        store_be32(counter_block + 12, counter++);
        uint8_t keystream[16];
        encrypt_block_ref(counter_block, keystream);
        size_t n = std::min<size_t>(16, len - off);
        for (size_t i = 0; i < n; ++i) {
            out[off + i] = in[off + i] ^ keystream[i];
        }
    }
}

} // namespace occlum::crypto
