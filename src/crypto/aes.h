/**
 * @file
 * AES-128 block cipher and CTR-mode stream encryption (FIPS 197 /
 * SP 800-38A), implemented from scratch.
 *
 * The S-box is derived at static-initialization time from the GF(2^8)
 * multiplicative inverse and the affine transform, which removes the
 * risk of a typo in a 256-entry literal table. The FIPS 197 §5.2 key
 * expansion runs once per key and stores the 11 round keys in AES
 * byte order, read by both implementations. On CPUs whose CPUID
 * reports AES-NI (leaf 1 ECX bit 25) an aesenc/aesenclast kernel
 * encrypts blocks and runs CTR mode with 8 counter blocks in flight;
 * otherwise, or when the crypto-wide reference mode is on
 * (crypto/reference.h, env OCCLUM_CRYPTO_REFERENCE=1), the byte-wise
 * reference runs. Both are differentially tested bit-identical.
 *
 * CTR mode is used by the encrypted file system and by the EIP
 * baseline's encrypted IPC streams. Tested against FIPS 197 and
 * SP 800-38A vectors.
 */
#ifndef OCCLUM_CRYPTO_AES_H
#define OCCLUM_CRYPTO_AES_H

#include <array>
#include <cstddef>
#include <cstdint>

#include "base/bytes.h"
#include "crypto/hmac.h"

namespace occlum::crypto {

/** AES-128 with a fixed expanded key schedule. */
class Aes128
{
  public:
    explicit Aes128(const Key128 &key);

    /** Encrypt one 16-byte block in place (out may alias in). */
    void encrypt_block(const uint8_t in[16], uint8_t out[16]) const;

    /**
     * CTR-mode keystream XOR: encrypts or decrypts (the operation is
     * symmetric). The counter block is iv (96-bit nonce) || 32-bit
     * big-endian block counter starting at `counter0` (wrapping mod
     * 2^32, per SP 800-38A's incrementing function on 32 bits).
     */
    void ctr_crypt(const std::array<uint8_t, 12> &iv, uint32_t counter0,
                   const uint8_t *in, uint8_t *out, size_t len) const;

    Bytes
    ctr_crypt(const std::array<uint8_t, 12> &iv, uint32_t counter0,
              const Bytes &in) const
    {
        Bytes out(in.size());
        ctr_crypt(iv, counter0, in.data(), out.data(), in.size());
        return out;
    }

    /** True if this CPU has AES-NI, i.e. the hardware kernel runs
     *  whenever reference mode is off. */
    static bool has_aes_ni();

  private:
    void encrypt_block_ref(const uint8_t in[16], uint8_t out[16]) const;

    /** Round key r is bytes [16r, 16r + 16). */
    std::array<uint8_t, 11 * 16> round_keys_;
};

} // namespace occlum::crypto

#endif // OCCLUM_CRYPTO_AES_H
