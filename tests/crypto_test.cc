/**
 * @file
 * Unit tests for the crypto substrate against published vectors:
 * FIPS 180-4 (SHA-256), RFC 4231 (HMAC-SHA-256), FIPS 197 and
 * SP 800-38A (AES-128 / CTR).
 */
#include <gtest/gtest.h>

#include <algorithm>
#include <random>
#include <string>
#include <vector>

#include "base/bytes.h"
#include "crypto/aes.h"
#include "crypto/hmac.h"
#include "crypto/reference.h"
#include "crypto/sha256.h"

namespace occlum::crypto {
namespace {

Bytes
str_bytes(const std::string &s)
{
    return Bytes(s.begin(), s.end());
}

std::string
digest_hex(const Sha256Digest &d)
{
    return to_hex(d.data(), d.size());
}

/** Restores the crypto mode it found when it goes out of scope, so a
 *  test that flips the mode cannot leak it into later tests (the
 *  OCCLUM_CRYPTO_REFERENCE=1 CI leg depends on that). */
class ScopedCryptoMode
{
  public:
    ScopedCryptoMode() : saved_(reference_mode()) {}
    ~ScopedCryptoMode() { set_reference_mode(saved_); }
    ScopedCryptoMode(const ScopedCryptoMode &) = delete;
    ScopedCryptoMode &operator=(const ScopedCryptoMode &) = delete;

  private:
    bool saved_;
};

/** Runs the body under both crypto implementations (the fast paths
 *  — AES-NI and SHA-NI where CPUID has them — and the scalar
 *  reference), restoring the mode afterwards. */
template <typename Fn>
void
for_both_modes(Fn &&body)
{
    ScopedCryptoMode restore;
    for (bool reference : {false, true}) {
        SCOPED_TRACE(reference ? "reference mode" : "fast mode");
        set_reference_mode(reference);
        body(reference);
    }
}

// ---- SHA-256 (FIPS 180-4 examples) -----------------------------------

TEST(Sha256, EmptyString)
{
    for_both_modes([&](bool) {
        EXPECT_EQ(digest_hex(Sha256::digest(Bytes{})),
                  "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b"
                  "7852b855");
    });
}

TEST(Sha256, Abc)
{
    for_both_modes([&](bool) {
        EXPECT_EQ(digest_hex(Sha256::digest(str_bytes("abc"))),
                  "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61"
                  "f20015ad");
    });
}

TEST(Sha256, TwoBlockMessage)
{
    for_both_modes([&](bool) {
        EXPECT_EQ(digest_hex(Sha256::digest(str_bytes(
                      "abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnop"
                      "nopq"))),
                  "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd4"
                  "19db06c1");
    });
}

TEST(Sha256, MillionAs)
{
    for_both_modes([&](bool) {
        Sha256 h;
        Bytes chunk(1000, 'a');
        for (int i = 0; i < 1000; ++i) {
            h.update(chunk);
        }
        EXPECT_EQ(digest_hex(h.finish()),
                  "cdc76e5c9914fb9281a1c7e284d73e67f1809a48a497200e046d39cc"
                  "c7112cd0");
    });
}

TEST(Sha256, IncrementalMatchesOneShot)
{
    for_both_modes([&](bool) {
        Bytes data;
        for (int i = 0; i < 999; ++i) {
            data.push_back(static_cast<uint8_t>(i * 37));
        }
        Sha256 h;
        // Uneven chunking exercises the internal buffering.
        size_t off = 0;
        size_t sizes[] = {1, 63, 64, 65, 127, 500, 179};
        for (size_t s : sizes) {
            size_t n = std::min(s, data.size() - off);
            h.update(data.data() + off, n);
            off += n;
        }
        ASSERT_EQ(off, data.size());
        EXPECT_EQ(h.finish(), Sha256::digest(data));
    });
}

TEST(Sha256, PaddingBoundaries)
{
    for_both_modes([&](bool) {
        // Lengths straddling the 55/56/64-byte padding edges.
        for (size_t len : {54u, 55u, 56u, 57u, 63u, 64u, 65u, 119u, 120u}) {
            Bytes data(len, 0x5a);
            Sha256 a;
            a.update(data);
            Sha256 b;
            for (auto byte : data) {
                b.update(&byte, 1);
            }
            EXPECT_EQ(a.finish(), b.finish()) << "len=" << len;
        }
    });
}

// ---- HMAC-SHA-256 (RFC 4231) -------------------------------------------

TEST(Hmac, Rfc4231Case1)
{
    for_both_modes([&](bool) {
        Bytes key(20, 0x0b);
        Bytes data = str_bytes("Hi There");
        EXPECT_EQ(to_hex(hmac_sha256(key, data).data(), 32),
                  "b0344c61d8db38535ca8afceaf0bf12b881dc200c9833da726e9376c"
                  "2e32cff7");
    });
}

TEST(Hmac, Rfc4231Case2)
{
    for_both_modes([&](bool) {
        Bytes key = str_bytes("Jefe");
        Bytes data = str_bytes("what do ya want for nothing?");
        EXPECT_EQ(to_hex(hmac_sha256(key, data).data(), 32),
                  "5bdcc146bf60754e6a042426089575c75a003f089d2739839dec58b9"
                  "64ec3843");
    });
}

TEST(Hmac, Rfc4231Case3)
{
    for_both_modes([&](bool) {
        Bytes key(20, 0xaa);
        Bytes data(50, 0xdd);
        EXPECT_EQ(to_hex(hmac_sha256(key, data).data(), 32),
                  "773ea91e36800e46854db8ebd09181a72959098b3ef8c122d9635514"
                  "ced565fe");
    });
}

TEST(Hmac, Rfc4231Case6LongKey)
{
    for_both_modes([&](bool) {
        Bytes key(131, 0xaa);
        Bytes data = str_bytes("Test Using Larger Than Block-Size Key - "
                               "Hash Key First");
        EXPECT_EQ(to_hex(hmac_sha256(key, data).data(), 32),
                  "60e431591ee0b67f0d8a26aacbf5b77f8e0bc6213728c5140546040f"
                  "0ee37f54");
    });
}

TEST(Hmac, DigestEqualConstantTime)
{
    Sha256Digest a = Sha256::digest(str_bytes("x"));
    Sha256Digest b = a;
    EXPECT_TRUE(digest_equal(a, b));
    b[31] ^= 1;
    EXPECT_FALSE(digest_equal(a, b));
}

// ---- AES-128 (FIPS 197 / SP 800-38A) -------------------------------------

Key128
key_from_hex(const std::string &hex)
{
    Bytes raw = from_hex(hex);
    Key128 key{};
    std::copy(raw.begin(), raw.end(), key.begin());
    return key;
}

TEST(Aes128, Fips197Example)
{
    for_both_modes([&](bool) {
        Aes128 aes(key_from_hex("000102030405060708090a0b0c0d0e0f"));
        Bytes pt = from_hex("00112233445566778899aabbccddeeff");
        uint8_t ct[16];
        aes.encrypt_block(pt.data(), ct);
        EXPECT_EQ(to_hex(ct, 16), "69c4e0d86a7b0430d8cdb78070b4c55a");
    });
}

TEST(Aes128, Sp800_38aBlock)
{
    // SP 800-38A F.1.1 AES-128 ECB block 1.
    for_both_modes([&](bool) {
        Aes128 aes(key_from_hex("2b7e151628aed2a6abf7158809cf4f3c"));
        Bytes pt = from_hex("6bc1bee22e409f96e93d7e117393172a");
        uint8_t ct[16];
        aes.encrypt_block(pt.data(), ct);
        EXPECT_EQ(to_hex(ct, 16), "3ad77bb40d7a3660a89ecaf32466ef97");
    });
}

TEST(Aes128, CtrRoundTrip)
{
    Aes128 aes(key_from_hex("2b7e151628aed2a6abf7158809cf4f3c"));
    std::array<uint8_t, 12> iv = {1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12};
    Bytes pt;
    for (int i = 0; i < 1000; ++i) {
        pt.push_back(static_cast<uint8_t>(i * 13));
    }
    Bytes ct = aes.ctr_crypt(iv, 0, pt);
    EXPECT_NE(ct, pt);
    Bytes back = aes.ctr_crypt(iv, 0, ct);
    EXPECT_EQ(back, pt);
}

TEST(Aes128, CtrCounterContinuity)
{
    // Encrypting [A|B] at counter 0 equals encrypting A at counter 0
    // and B at counter len(A)/16 when A is block-aligned.
    Aes128 aes(key_from_hex("000102030405060708090a0b0c0d0e0f"));
    std::array<uint8_t, 12> iv{};
    Bytes data(64, 0xab);
    Bytes whole = aes.ctr_crypt(iv, 0, data);

    Bytes first(data.begin(), data.begin() + 32);
    Bytes second(data.begin() + 32, data.end());
    Bytes part1 = aes.ctr_crypt(iv, 0, first);
    Bytes part2 = aes.ctr_crypt(iv, 2, second);
    part1.insert(part1.end(), part2.begin(), part2.end());
    EXPECT_EQ(part1, whole);
}

TEST(Aes128, DistinctIvDistinctStream)
{
    Aes128 aes(key_from_hex("000102030405060708090a0b0c0d0e0f"));
    Bytes zeros(32, 0);
    std::array<uint8_t, 12> iv1{}, iv2{};
    iv2[0] = 1;
    EXPECT_NE(aes.ctr_crypt(iv1, 0, zeros), aes.ctr_crypt(iv2, 0, zeros));
}

// ---- Known-answer batteries for the rebuilt fast paths ------------------

// SP 800-38A F.5.1 CTR-AES128.Encrypt: counter block
// f0f1f2f3f4f5f6f7f8f9fafbfcfdfeff = IV f0..fb, counter 0xfcfdfeff.
const char *kSpCtrKey = "2b7e151628aed2a6abf7158809cf4f3c";
const std::array<uint8_t, 12> kSpCtrIv = {0xf0, 0xf1, 0xf2, 0xf3,
                                          0xf4, 0xf5, 0xf6, 0xf7,
                                          0xf8, 0xf9, 0xfa, 0xfb};
constexpr uint32_t kSpCtrCounter0 = 0xfcfdfeff;
const char *kSpCtrPlain =
    "6bc1bee22e409f96e93d7e117393172a"
    "ae2d8a571e03ac9c9eb76fac45af8e51"
    "30c81c46a35ce411e5fbc1191a0a52ef"
    "f69f2445df4f9b17ad2b417be66c3710";
const char *kSpCtrCipher =
    "874d6191b620e3261bef6864990db6ce"
    "9806f66b7970fdff8617187bb9fffdff"
    "5ae4df3edbd5d35e5b4f09020db03eab"
    "1e031dda2fbe03d1792170a0f3009cee";

TEST(Aes128Kat, Sp800_38aCtrMultiBlock)
{
    for_both_modes([&](bool reference) {
        Aes128 aes(key_from_hex(kSpCtrKey));
        Bytes ct = aes.ctr_crypt(kSpCtrIv, kSpCtrCounter0,
                                 from_hex(kSpCtrPlain));
        EXPECT_EQ(to_hex(ct.data(), ct.size()), kSpCtrCipher)
            << "reference=" << reference;
    });
}

TEST(Aes128Kat, CtrNonBlockAlignedLengths)
{
    // CTR is a stream: a length-L encryption must be the L-byte
    // prefix of the full-vector ciphertext, for any L (including
    // lengths that end mid-block and mid-keystream-batch).
    Bytes plain = from_hex(kSpCtrPlain);
    Bytes full = from_hex(kSpCtrCipher);
    for_both_modes([&](bool reference) {
        Aes128 aes(key_from_hex(kSpCtrKey));
        for (size_t len : {1u, 5u, 15u, 17u, 31u, 33u, 47u, 60u, 63u}) {
            Bytes part(plain.begin(), plain.begin() + len);
            Bytes ct = aes.ctr_crypt(kSpCtrIv, kSpCtrCounter0, part);
            EXPECT_EQ(ct, Bytes(full.begin(), full.begin() + len))
                << "reference=" << reference << " len=" << len;
        }
    });
}

TEST(Aes128Kat, CtrCounterWrap)
{
    // The 32-bit block counter wraps modulo 2^32. 20 blocks plus a
    // 7-byte partial block from 0xfffffffa put the wrap between the
    // sixth and seventh block of the first 8-block batch. Every
    // keystream block must be E(iv || be32(counter)) for the wrapped
    // counter, and the stream must equal the pre-wrap head followed
    // by a fresh stream from counter 0.
    std::array<uint8_t, 12> iv = {9, 8, 7, 6, 5, 4, 3, 2, 1, 0, 1, 2};
    constexpr uint32_t kStart = 0xfffffffa;
    constexpr size_t kLen = 20 * 16 + 7;
    const size_t head_len = 16 * (0x100000000ull - kStart);
    Bytes zeros(kLen, 0);
    Bytes crossing[2];
    for_both_modes([&](bool reference) {
        Aes128 aes(key_from_hex(kSpCtrKey));
        Bytes ks = aes.ctr_crypt(iv, kStart, zeros);
        for (size_t blk = 0; blk * 16 < kLen; ++blk) {
            uint8_t counter_block[16], want[16];
            std::copy(iv.begin(), iv.end(), counter_block);
            uint32_t c = kStart + static_cast<uint32_t>(blk);
            for (int i = 0; i < 4; ++i) {
                counter_block[12 + i] = static_cast<uint8_t>(c >> (24 - 8 * i));
            }
            aes.encrypt_block(counter_block, want);
            size_t n = std::min<size_t>(16, kLen - 16 * blk);
            EXPECT_EQ(to_hex(ks.data() + 16 * blk, n), to_hex(want, n))
                << "block " << blk;
        }

        Bytes pre = aes.ctr_crypt(
            iv, kStart, Bytes(zeros.begin(), zeros.begin() + head_len));
        Bytes post =
            aes.ctr_crypt(iv, 0, Bytes(zeros.begin() + head_len, zeros.end()));
        pre.insert(pre.end(), post.begin(), post.end());
        EXPECT_EQ(ks, pre);
        crossing[reference] = ks;
    });
    EXPECT_EQ(crossing[0], crossing[1]);
}

TEST(Aes128Kat, AesNiMatchesReferenceOnRandomInputs)
{
    // Seeded random CTR calls: lengths of 0-8 KiB (every fourth an
    // exact multiple of the 128-byte batch), counter starts (every
    // third within 8 of 2^32, so the wrap lands inside a batch),
    // unaligned in/out pointers and in-place calls, plus one block
    // through encrypt_block. The reference half (in-place and
    // unaligned calls agree with a plain call) runs everywhere; the
    // hardware half compares the AES-NI kernel with the reference and
    // is skipped on CPUs without AES-NI. Bytes around the output
    // window must stay untouched in both.
    ScopedCryptoMode restore;
    std::mt19937_64 rng(20261016);
    constexpr uint8_t kGuard = 0xcd;
    for (int trial = 0; trial < 256; ++trial) {
        SCOPED_TRACE("trial " + std::to_string(trial));
        Key128 key{};
        for (auto &b : key) {
            b = static_cast<uint8_t>(rng());
        }
        std::array<uint8_t, 12> iv{};
        for (auto &b : iv) {
            b = static_cast<uint8_t>(rng());
        }
        uint32_t counter0 = trial % 3 == 0
                                ? static_cast<uint32_t>(0xffffffffu - rng() % 8)
                                : static_cast<uint32_t>(rng());
        size_t len = trial % 4 == 0 ? 128 * (rng() % 65)
                                    : rng() % (8 * 1024 + 1);
        Bytes data(len);
        for (auto &b : data) {
            b = static_cast<uint8_t>(rng());
        }
        const size_t in_off = rng() % 16;
        const size_t out_off = rng() % 16;
        Bytes block(16);
        for (auto &b : block) {
            b = static_cast<uint8_t>(rng());
        }

        auto check = [&](bool reference, const Bytes &want,
                         const std::string &want_block) {
            set_reference_mode(reference);
            SCOPED_TRACE(reference ? "reference mode" : "AES-NI mode");
            Aes128 aes(key);
            Bytes in(len + 16);
            std::copy(data.begin(), data.end(), in.begin() + in_off);
            Bytes out(len + 32, kGuard);
            aes.ctr_crypt(iv, counter0, in.data() + in_off,
                          out.data() + 16 + out_off, len);
            EXPECT_EQ(Bytes(out.begin() + 16 + out_off,
                            out.begin() + 16 + out_off + len),
                      want);
            for (size_t i = 0; i < out.size(); ++i) {
                if (i < 16 + out_off || i >= 16 + out_off + len) {
                    ASSERT_EQ(out[i], kGuard) << "byte " << i;
                }
            }
            // In place, at an unaligned offset.
            aes.ctr_crypt(iv, counter0, in.data() + in_off,
                          in.data() + in_off, len);
            EXPECT_EQ(Bytes(in.begin() + in_off, in.begin() + in_off + len),
                      want);
            uint8_t ct[16];
            aes.encrypt_block(block.data(), ct);
            EXPECT_EQ(to_hex(ct, 16), want_block);
        };

        set_reference_mode(true);
        Aes128 ref(key);
        const Bytes want = ref.ctr_crypt(iv, counter0, data);
        uint8_t ref_block[16];
        ref.encrypt_block(block.data(), ref_block);
        const std::string want_block = to_hex(ref_block, 16);
        check(true, want, want_block);
        if (Aes128::has_aes_ni()) {
            check(false, want, want_block);
        }
    }
    if (!Aes128::has_aes_ni()) {
        GTEST_SKIP() << "CPU lacks AES-NI: hardware half not run";
    }
}

TEST(Sha256Kat, NistBoundaryLengths)
{
    for_both_modes([&](bool) {
        // 55 bytes: longest message whose padding fits one block;
        // 56 bytes: shortest that spills the length into a second block;
        // 64 bytes: exactly one compression plus a full padding block.
        EXPECT_EQ(digest_hex(Sha256::digest(Bytes(55, 'a'))),
                  "9f4390f8d30c2dd92ec9f095b65e2b9ae9b0a925a5258e241c9f1e91"
                  "0f734318");
        EXPECT_EQ(digest_hex(Sha256::digest(Bytes(56, 'a'))),
                  "b35439a4ac6f0948b6d6f9e3c6af0f5f590ce20f1bde7090ef797068"
                  "6ec6738a");
        EXPECT_EQ(digest_hex(Sha256::digest(Bytes(64, 'a'))),
                  "ffe054fe7ae0cb6dc65c3af9b61d5209f439851db43d0ba5997337df"
                  "154668eb");
    });
}

TEST(Sha256Kat, MidstateSaveResume)
{
    for_both_modes([&](bool) {
        // Hashing [A|B] equals capturing the midstate after the 64-byte-
        // aligned prefix A and resuming it in a different hasher.
        Bytes a(128, 0x11);
        Bytes b(77, 0x22);
        Sha256 whole;
        whole.update(a);
        whole.update(b);

        Sha256 prefix;
        prefix.update(a);
        Sha256Midstate m = prefix.midstate();
        Sha256 resumed;
        resumed.resume(m);
        resumed.update(b);
        EXPECT_EQ(whole.finish(), resumed.finish());

        // The cached initial midstate is the empty-hash state.
        Sha256 fresh;
        fresh.resume(Sha256::initial_midstate());
        fresh.update(b);
        EXPECT_EQ(fresh.finish(), Sha256::digest(b));
    });
}

TEST(Sha256, SameStateComparesOnlyTheBufferedPrefix)
{
    // x and y absorb the same 69 bytes, but their block buffers differ
    // past the 5 live bytes: x's still holds 0xAA from before reset()
    // (its full block went straight from the input), y's holds the
    // 0x01 block it staged. Only the live prefix counts.
    Sha256 x;
    x.update(Bytes(32, 0xAA));
    x.reset();
    x.update(Bytes(64, 0x01));
    Sha256 y;
    y.update(Bytes(63, 0x01));
    y.update(Bytes(1, 0x01));
    EXPECT_TRUE(x.same_state(y));
    x.update(Bytes(5, 0x07));
    y.update(Bytes(5, 0x07));
    EXPECT_TRUE(x.same_state(y));
    EXPECT_EQ(Sha256(x).finish(), Sha256(y).finish());

    // A differing buffered byte, chaining value or length is not the
    // same state.
    Sha256 longer = x;
    longer.update(Bytes(1, 0x07));
    EXPECT_FALSE(x.same_state(longer));
    Sha256 other_block;
    other_block.update(Bytes(64, 0x02));
    other_block.update(Bytes(5, 0x07));
    EXPECT_FALSE(x.same_state(other_block));
    Sha256 other_byte;
    other_byte.update(Bytes(64, 0x01));
    other_byte.update(Bytes(4, 0x07));
    other_byte.update(Bytes(1, 0x08));
    EXPECT_FALSE(x.same_state(other_byte));
}

TEST(Sha256Kat, ShaNiMatchesReferenceOnRandomSplits)
{
    // Seeded random messages of 0-8 KiB, absorbed through random
    // update() boundaries. The reference half (split invariance of
    // the scalar path) runs everywhere; the SHA-NI half compares the
    // hardware kernel with it, including midstates captured in one
    // mode and resumed in the other, and is skipped on CPUs without
    // the SHA extensions.
    ScopedCryptoMode restore;
    std::mt19937_64 rng(20261016);
    for (int trial = 0; trial < 200; ++trial) {
        SCOPED_TRACE("trial " + std::to_string(trial));
        Bytes data(rng() % (8 * 1024 + 1));
        for (auto &b : data) {
            b = static_cast<uint8_t>(rng());
        }
        std::vector<size_t> cuts;
        for (size_t off = 0; off < data.size();) {
            size_t n = std::min<size_t>(1 + rng() % 300, data.size() - off);
            cuts.push_back(n);
            off += n;
        }
        auto split_digest = [&](bool reference) {
            set_reference_mode(reference);
            Sha256 h;
            size_t off = 0;
            for (size_t n : cuts) {
                h.update(data.data() + off, n);
                off += n;
            }
            return h.finish();
        };
        // Hash the first `prefix` bytes (a 64-byte multiple) in one
        // mode, then resume the midstate and finish in the other.
        size_t prefix = data.size() / 128 * 64;
        auto cross_digest = [&](bool first_reference) {
            set_reference_mode(first_reference);
            Sha256 head;
            head.update(data.data(), prefix);
            Sha256Midstate m = head.midstate();
            set_reference_mode(!first_reference);
            Sha256 tail;
            tail.resume(m);
            tail.update(data.data() + prefix, data.size() - prefix);
            return tail.finish();
        };

        set_reference_mode(true);
        const Sha256Digest want = Sha256::digest(data);
        EXPECT_EQ(split_digest(true), want);
        if (Sha256::has_sha_ni()) {
            EXPECT_EQ(split_digest(false), want);
            EXPECT_EQ(cross_digest(true), want);
            EXPECT_EQ(cross_digest(false), want);
        }
    }
    if (!Sha256::has_sha_ni()) {
        GTEST_SKIP() << "CPU lacks SHA-NI: hardware half not run";
    }
}

TEST(HmacKat, Rfc4231Case4)
{
    for_both_modes([&](bool) {
        Bytes key;
        for (uint8_t b = 0x01; b <= 0x19; ++b) {
            key.push_back(b);
        }
        Bytes data(50, 0xcd);
        EXPECT_EQ(to_hex(hmac_sha256(key, data).data(), 32),
                  "82558a389a443c0ea4cc819899f2083a85f0faa3e578f8077a2e3ff4"
                  "6729665b");
    });
}

TEST(HmacKat, Rfc4231Case7LongKeyLongData)
{
    for_both_modes([&](bool) {
        Bytes key(131, 0xaa);
        Bytes data = str_bytes(
            "This is a test using a larger than block-size key and a "
            "larger than block-size data. The key needs to be hashed "
            "before being used by the HMAC algorithm.");
        EXPECT_EQ(to_hex(hmac_sha256(key, data).data(), 32),
                  "9b09ffa71b942fcb27635fbcd5b0e944bfdc63644f0713938a7f5153"
                  "5c3a35e2");
    });
}

TEST(HmacKat, HmacKeyMatchesOneShot)
{
    for_both_modes([&](bool) {
        // The midstate-caching HmacKey must agree with the free function
        // for short keys, exactly-block-size keys, and >64-byte keys
        // (which are hashed down first), with midstates on and off.
        bool saved = HmacKey::midstate_enabled();
        for (bool midstate : {true, false}) {
            HmacKey::set_midstate_enabled(midstate);
            for (size_t key_len : {1u, 20u, 63u, 64u, 65u, 131u}) {
                Bytes key(key_len, 0);
                for (size_t i = 0; i < key_len; ++i) {
                    key[i] = static_cast<uint8_t>(i * 31 + 7);
                }
                HmacKey hk(key.data(), key.size());
                for (size_t data_len : {0u, 1u, 50u, 64u, 200u}) {
                    Bytes data(data_len, 0);
                    for (size_t i = 0; i < data_len; ++i) {
                        data[i] = static_cast<uint8_t>(i ^ key_len);
                    }
                    EXPECT_EQ(hk.mac(data),
                              hmac_sha256(key.data(), key.size(),
                                          data.data(), data.size()))
                        << "midstate=" << midstate << " key=" << key_len
                        << " data=" << data_len;
                }
            }
        }
        HmacKey::set_midstate_enabled(saved);
    });
}

TEST(HmacKat, StreamingMatchesOneShot)
{
    for_both_modes([&](bool) {
        Bytes key(32, 0x42);
        HmacKey hk(key.data(), key.size());
        Bytes part1(100, 0x01), part2(28, 0x02);
        Sha256 inner = hk.begin();
        inner.update(part1);
        inner.update(part2);
        Sha256Digest streamed = hk.finish(inner);

        Bytes whole = part1;
        whole.insert(whole.end(), part2.begin(), part2.end());
        EXPECT_EQ(streamed, hk.mac(whole));
    });
}

TEST(Hmac, HkdfExpandLabelIsLabeledHmac)
{
    Sha256Digest secret;
    for (size_t i = 0; i < secret.size(); ++i) {
        secret[i] = static_cast<uint8_t>(i * 3);
    }
    // Definitionally HMAC(secret, label)...
    const char label[] = "key.c2s.enc";
    Bytes label_bytes(label, label + sizeof label - 1);
    EXPECT_EQ(hkdf_expand_label(secret, label),
              hmac_sha256(Bytes(secret.begin(), secret.end()),
                          label_bytes));
    // ...so distinct labels partition into independent subkeys, and
    // distinct secrets never collide on a label.
    EXPECT_NE(hkdf_expand_label(secret, "key.c2s.enc"),
              hkdf_expand_label(secret, "key.s2c.enc"));
    Sha256Digest other = secret;
    other[0] ^= 1;
    EXPECT_NE(hkdf_expand_label(secret, label),
              hkdf_expand_label(other, label));
}

} // namespace
} // namespace occlum::crypto
