#include "crypto/aes.h"

#include <cstring>

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

inline uint32_t
rotr32(uint32_t w, int n)
{
    return (w >> n) | (w << (32 - n));
}

/**
 * The AES S-box and encryption T-tables, computed once from first
 * principles. te0[x] packs the MixColumns column {02,01,01,03}·S[x]
 * big-endian; te1..te3 are byte rotations of te0, so one 32-bit
 * lookup per state byte performs SubBytes+ShiftRows+MixColumns.
 */
struct SboxTables {
    uint8_t sbox[256];
    uint32_t te0[256];
    uint32_t te1[256];
    uint32_t te2[256];
    uint32_t te3[256];

    SboxTables()
    {
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
        for (int i = 0; i < 256; ++i) {
            uint8_t x = inv[i];
            // Affine transform: b ^ rot1(b) ^ rot2(b) ^ rot3(b) ^
            // rot4(b) ^ 0x63, with rotN = left-rotate by N bits.
            auto rotl8 = [](uint8_t v, int n) {
                return static_cast<uint8_t>((v << n) | (v >> (8 - n)));
            };
            sbox[i] = static_cast<uint8_t>(x ^ rotl8(x, 1) ^ rotl8(x, 2) ^
                                           rotl8(x, 3) ^ rotl8(x, 4) ^
                                           0x63);
        }
        for (int i = 0; i < 256; ++i) {
            uint8_t s = sbox[i];
            uint8_t s2 = xtime(s);
            uint8_t s3 = static_cast<uint8_t>(s2 ^ s);
            te0[i] = (uint32_t(s2) << 24) | (uint32_t(s) << 16) |
                     (uint32_t(s) << 8) | uint32_t(s3);
            te1[i] = rotr32(te0[i], 8);
            te2[i] = rotr32(te0[i], 16);
            te3[i] = rotr32(te0[i], 24);
        }
    }
};

const SboxTables &
tables()
{
    static const SboxTables t;
    return t;
}

inline uint32_t
sub_word(uint32_t w)
{
    const uint8_t *s = tables().sbox;
    return (uint32_t(s[(w >> 24) & 0xff]) << 24) |
           (uint32_t(s[(w >> 16) & 0xff]) << 16) |
           (uint32_t(s[(w >> 8) & 0xff]) << 8) |
           uint32_t(s[w & 0xff]);
}

inline uint32_t
rot_word(uint32_t w)
{
    return (w << 8) | (w >> 24);
}

inline uint32_t
load_be32(const uint8_t *p)
{
    return (uint32_t(p[0]) << 24) | (uint32_t(p[1]) << 16) |
           (uint32_t(p[2]) << 8) | uint32_t(p[3]);
}

inline void
store_be32(uint8_t *p, uint32_t w)
{
    p[0] = uint8_t(w >> 24);
    p[1] = uint8_t(w >> 16);
    p[2] = uint8_t(w >> 8);
    p[3] = uint8_t(w);
}

} // namespace

Aes128::Aes128(const Key128 &key)
{
    // Key expansion (FIPS 197 §5.2), Nk=4, Nr=10.
    for (int i = 0; i < 4; ++i) {
        round_keys_[i] = (uint32_t(key[4 * i]) << 24) |
                         (uint32_t(key[4 * i + 1]) << 16) |
                         (uint32_t(key[4 * i + 2]) << 8) |
                         uint32_t(key[4 * i + 3]);
    }
    uint32_t rcon = 0x01;
    for (int i = 4; i < 44; ++i) {
        uint32_t temp = round_keys_[i - 1];
        if (i % 4 == 0) {
            temp = sub_word(rot_word(temp)) ^ (rcon << 24);
            rcon = xtime(static_cast<uint8_t>(rcon));
        }
        round_keys_[i] = round_keys_[i - 4] ^ temp;
    }
}

void
Aes128::encrypt_block(const uint8_t in[16], uint8_t out[16]) const
{
    if (reference_mode()) {
        encrypt_block_ref(in, out);
    } else {
        encrypt_block_tt(in, out);
    }
}

void
Aes128::encrypt_block_tt(const uint8_t in[16], uint8_t out[16]) const
{
    const SboxTables &t = tables();
    const uint32_t *rk = round_keys_.data();

    // State as four big-endian column words; each word's MSB is row 0,
    // matching the reference path's column-major byte layout.
    uint32_t s0 = load_be32(in) ^ rk[0];
    uint32_t s1 = load_be32(in + 4) ^ rk[1];
    uint32_t s2 = load_be32(in + 8) ^ rk[2];
    uint32_t s3 = load_be32(in + 12) ^ rk[3];

    uint32_t t0, t1, t2, t3;
    for (int round = 1; round < 10; ++round) {
        rk += 4;
        t0 = t.te0[s0 >> 24] ^ t.te1[(s1 >> 16) & 0xff] ^
             t.te2[(s2 >> 8) & 0xff] ^ t.te3[s3 & 0xff] ^ rk[0];
        t1 = t.te0[s1 >> 24] ^ t.te1[(s2 >> 16) & 0xff] ^
             t.te2[(s3 >> 8) & 0xff] ^ t.te3[s0 & 0xff] ^ rk[1];
        t2 = t.te0[s2 >> 24] ^ t.te1[(s3 >> 16) & 0xff] ^
             t.te2[(s0 >> 8) & 0xff] ^ t.te3[s1 & 0xff] ^ rk[2];
        t3 = t.te0[s3 >> 24] ^ t.te1[(s0 >> 16) & 0xff] ^
             t.te2[(s1 >> 8) & 0xff] ^ t.te3[s2 & 0xff] ^ rk[3];
        s0 = t0;
        s1 = t1;
        s2 = t2;
        s3 = t3;
    }

    // Final round: SubBytes + ShiftRows + AddRoundKey, no MixColumns.
    const uint8_t *s = t.sbox;
    rk += 4;
    t0 = (uint32_t(s[s0 >> 24]) << 24) |
         (uint32_t(s[(s1 >> 16) & 0xff]) << 16) |
         (uint32_t(s[(s2 >> 8) & 0xff]) << 8) |
         uint32_t(s[s3 & 0xff]);
    t1 = (uint32_t(s[s1 >> 24]) << 24) |
         (uint32_t(s[(s2 >> 16) & 0xff]) << 16) |
         (uint32_t(s[(s3 >> 8) & 0xff]) << 8) |
         uint32_t(s[s0 & 0xff]);
    t2 = (uint32_t(s[s2 >> 24]) << 24) |
         (uint32_t(s[(s3 >> 16) & 0xff]) << 16) |
         (uint32_t(s[(s0 >> 8) & 0xff]) << 8) |
         uint32_t(s[s1 & 0xff]);
    t3 = (uint32_t(s[s3 >> 24]) << 24) |
         (uint32_t(s[(s0 >> 16) & 0xff]) << 16) |
         (uint32_t(s[(s1 >> 8) & 0xff]) << 8) |
         uint32_t(s[s2 & 0xff]);
    store_be32(out, t0 ^ rk[0]);
    store_be32(out + 4, t1 ^ rk[1]);
    store_be32(out + 8, t2 ^ rk[2]);
    store_be32(out + 12, t3 ^ rk[3]);
}

void
Aes128::encrypt_block_ref(const uint8_t in[16], uint8_t out[16]) const
{
    const uint8_t *sbox = tables().sbox;
    uint8_t state[16];
    std::memcpy(state, in, 16);

    auto add_round_key = [&](int round) {
        for (int c = 0; c < 4; ++c) {
            uint32_t rk = round_keys_[4 * round + c];
            state[4 * c] ^= uint8_t(rk >> 24);
            state[4 * c + 1] ^= uint8_t(rk >> 16);
            state[4 * c + 2] ^= uint8_t(rk >> 8);
            state[4 * c + 3] ^= uint8_t(rk);
        }
    };
    auto sub_bytes = [&]() {
        for (int i = 0; i < 16; ++i) {
            state[i] = sbox[state[i]];
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
    uint8_t counter_block[16];
    std::memcpy(counter_block, iv.data(), 12);
    uint32_t counter = counter0;
    size_t off = 0;

    if (!reference_mode()) {
        // Fast path: 4 counter blocks of keystream per iteration,
        // XORed 64 bits at a time (memcpy keeps it alignment-safe;
        // compilers lower it to plain loads/stores).
        uint8_t keystream[64];
        while (len - off >= sizeof(keystream)) {
            for (int b = 0; b < 4; ++b) {
                store_be32(counter_block + 12, counter++);
                encrypt_block_tt(counter_block, keystream + 16 * b);
            }
            for (size_t i = 0; i < sizeof(keystream); i += 8) {
                uint64_t data, ks;
                std::memcpy(&data, in + off + i, 8);
                std::memcpy(&ks, keystream + i, 8);
                data ^= ks;
                std::memcpy(out + off + i, &data, 8);
            }
            off += sizeof(keystream);
        }
    }

    while (off < len) {
        store_be32(counter_block + 12, counter++);
        uint8_t keystream[16];
        encrypt_block(counter_block, keystream);
        size_t n = std::min<size_t>(16, len - off);
        for (size_t i = 0; i < n; ++i) {
            out[off + i] = in[off + i] ^ keystream[i];
        }
        off += n;
    }
}

} // namespace occlum::crypto
