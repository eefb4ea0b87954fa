/**
 * @file
 * CRC-32 used by the HMC packet tail for link-level data integrity.
 *
 * The HMC specification protects every packet with a 32-bit CRC using
 * the Koopman polynomial 0x741B8CD7. The Add-CRC / verify stages of the
 * controller pipeline (Fig. 14, stages 6 and the RX mirror) compute
 * this over header + payload.
 *
 * Two implementations compute the same CRC:
 *  - Crc32, a portable slicing-by-8 table loop over any byte stream.
 *    It is the reference every faster path is tested against, and
 *    the fallback on hosts without carry-less multiply.
 *  - the packet-CRC kernel in protocol/fields.cc, which folds 16-byte
 *    blocks with PCLMULQDQ when the CPU has it. Its constants come
 *    from crcFoldConstants() below.
 */

#ifndef HMCSIM_PROTOCOL_CRC_HH
#define HMCSIM_PROTOCOL_CRC_HH

#include <cstddef>
#include <cstdint>

namespace hmcsim
{

/** Koopman CRC-32 polynomial specified for HMC packets. */
constexpr std::uint32_t hmcCrcPolynomial = 0x741B8CD7u;

/**
 * Incremental CRC-32 (reflected form) over a byte stream.
 */
class Crc32
{
  public:
    Crc32();

    /** Feed @p len bytes. */
    void update(const void *data, std::size_t len);

    /** Finalized CRC of everything fed so far (does not reset). */
    std::uint32_t value() const { return ~state; }

    /** Restart the computation. */
    void reset();

    /** One-shot convenience. */
    static std::uint32_t compute(const void *data, std::size_t len);

  private:
    std::uint32_t state;
};

/**
 * Constants for folding a reflected CRC-32 with carry-less multiply,
 * after Gopal et al., "Fast CRC Computation for Generic Polynomials
 * Using PCLMULQDQ Instruction" (Intel, 2009). The folding constants
 * are x^n mod P(x), bit-reflected and shifted left by one to absorb
 * the extra factor of x a reflected carry-less product carries; for
 * the IEEE polynomial 0x04C11DB7 they are the constants of the Linux
 * crc32-pclmul kernel.
 */
struct CrcFoldConstants
{
    /** x^(128+32) mod P: folds the low (earlier) quadword 128 bits on. */
    std::uint64_t r3;
    /** x^(128-32) mod P: folds the high quadword 128 bits on, and
     *  128 bits down to 64. */
    std::uint64_t r4;
    /** x^64 mod P: folds 64 bits down to 32. */
    std::uint64_t r5;
    /** P(x) itself, reflected over 33 bits. */
    std::uint64_t p;
    /** Barrett constant floor(x^64 / P(x)), reflected over 33 bits. */
    std::uint64_t u;
};

namespace crc_detail
{

/** Reverse the low @p bits bits of @p v. */
constexpr std::uint64_t
reflect(std::uint64_t v, unsigned bits)
{
    std::uint64_t r = 0;
    for (unsigned i = 0; i < bits; ++i) {
        r = (r << 1) | (v & 1u);
        v >>= 1;
    }
    return r;
}

/** x^n mod P(x) in normal bit order, P(x) = x^32 + @p poly. */
constexpr std::uint32_t
xPowMod(unsigned n, std::uint32_t poly)
{
    std::uint32_t r = 1;
    for (unsigned i = 0; i < n; ++i)
        r = (r << 1) ^ ((r & 0x80000000u) != 0 ? poly : 0u);
    return r;
}

/** A folding constant: reflect32(x^n mod P) << 1. */
constexpr std::uint64_t
foldConstant(unsigned n, std::uint32_t poly)
{
    return reflect(xPowMod(n, poly), 32) << 1;
}

/** floor(x^64 / P(x)) by long division (33-bit quotient). */
constexpr std::uint64_t
barrettQuotient(std::uint32_t poly)
{
    const std::uint64_t full = (std::uint64_t{1} << 32) | poly;
    std::uint64_t rem = std::uint64_t{1} << 32;
    std::uint64_t q = 0;
    for (int j = 32; j >= 0; --j) {
        if (j < 32)
            rem <<= 1;
        if ((rem >> 32) & 1u) {
            q |= std::uint64_t{1} << j;
            rem ^= full;
        }
    }
    return q;
}

} // namespace crc_detail

/** Folding constants of the reflected CRC-32 of polynomial @p poly. */
constexpr CrcFoldConstants
crcFoldConstants(std::uint32_t poly)
{
    using namespace crc_detail;
    return {foldConstant(128 + 32, poly), foldConstant(128 - 32, poly),
            foldConstant(64, poly),
            reflect((std::uint64_t{1} << 32) | poly, 33),
            reflect(barrettQuotient(poly), 33)};
}

} // namespace hmcsim

#endif // HMCSIM_PROTOCOL_CRC_HH
