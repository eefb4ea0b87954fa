/**
 * @file
 * Unit tests for the packet protocol: Table II flit arithmetic, raw-
 * byte accounting, effective-bandwidth math, CRC (the portable Crc32
 * and the packet-CRC kernel against it), and the tag pool.
 */

#include <gtest/gtest.h>

#include <cstring>
#include <set>

#include "protocol/crc.hh"
#include "protocol/fields.hh"
#include "protocol/packet.hh"
#include "protocol/tag_pool.hh"
#include "sim/random.hh"

namespace hmcsim
{
namespace
{

// ---- Table II -------------------------------------------------------

TEST(PacketSizes, ReadRequestIsOneFlit)
{
    for (Bytes payload = 16; payload <= 128; payload += 16)
        EXPECT_EQ(requestFlits(Command::Read, payload), 1u);
}

TEST(PacketSizes, WriteResponseIsOneFlit)
{
    for (Bytes payload = 16; payload <= 128; payload += 16)
        EXPECT_EQ(responseFlits(Command::Write, payload), 1u);
}

TEST(PacketSizes, ReadResponseCarriesDataPlusOverhead)
{
    EXPECT_EQ(responseFlits(Command::Read, 16), 2u);
    EXPECT_EQ(responseFlits(Command::Read, 32), 3u);
    EXPECT_EQ(responseFlits(Command::Read, 64), 5u);
    EXPECT_EQ(responseFlits(Command::Read, 128), 9u);
}

TEST(PacketSizes, WriteRequestCarriesDataPlusOverhead)
{
    EXPECT_EQ(requestFlits(Command::Write, 16), 2u);
    EXPECT_EQ(requestFlits(Command::Write, 128), 9u);
}

TEST(PacketSizes, TableIIRange)
{
    // "Total Size: 1 flit requests, 2~9 flit responses" for reads.
    for (Bytes payload = 16; payload <= 128; payload += 16) {
        const unsigned resp = responseFlits(Command::Read, payload);
        EXPECT_GE(resp, 2u);
        EXPECT_LE(resp, 9u);
        const unsigned wreq = requestFlits(Command::Write, payload);
        EXPECT_GE(wreq, 2u);
        EXPECT_LE(wreq, 9u);
    }
}

TEST(PacketSizes, NonPowerOfTwoPayloadsRoundUpToFlits)
{
    EXPECT_EQ(dataFlits(48), 3u);
    EXPECT_EQ(dataFlits(80), 5u);
    EXPECT_EQ(dataFlits(112), 7u);
    EXPECT_EQ(dataFlits(1), 1u);
    EXPECT_EQ(dataFlits(0), 0u);
}

TEST(PacketSizes, TransactionByteAccounting)
{
    // Read 128 B: 1-flit request + 9-flit response = 160 B on the
    // links; this is the paper's "raw bandwidth" accounting unit.
    EXPECT_EQ(transactionBytes(Command::Read, 128), 160u);
    EXPECT_EQ(transactionBytes(Command::Write, 128), 160u);
    EXPECT_EQ(transactionBytes(Command::Read, 32), 64u);
    EXPECT_EQ(transactionBytes(Command::Read, 16), 48u);
}

TEST(PacketSizes, EffectiveBandwidthFractions)
{
    // Sec. IV-D: 128 B -> 89 %, 16 B -> 50 %.
    EXPECT_NEAR(effectiveBandwidthFraction(128), 128.0 / 144.0, 1e-12);
    EXPECT_NEAR(effectiveBandwidthFraction(16), 0.5, 1e-12);
    // Monotonically increasing in payload.
    double prev = 0.0;
    for (Bytes payload = 16; payload <= 128; payload += 16) {
        const double f = effectiveBandwidthFraction(payload);
        EXPECT_GT(f, prev);
        prev = f;
    }
}

TEST(Packet, HelperMethodsMatchFreeFunctions)
{
    Packet pkt;
    pkt.cmd = Command::Write;
    pkt.payload = 96;
    EXPECT_EQ(pkt.reqFlits(), requestFlits(Command::Write, 96));
    EXPECT_EQ(pkt.respBytes(), responseBytes(Command::Write, 96));
}

TEST(Packet, Names)
{
    EXPECT_STREQ(commandName(Command::Read), "READ");
    EXPECT_STREQ(requestMixName(RequestMix::ReadModifyWrite), "rw");
    EXPECT_STREQ(requestMixName(RequestMix::WriteOnly), "wo");
}

TEST(Packet, MixNamesRoundTripThroughTheParser)
{
    for (const RequestMix mix :
         {RequestMix::ReadOnly, RequestMix::WriteOnly,
          RequestMix::ReadModifyWrite, RequestMix::Atomic}) {
        RequestMix parsed = mix == RequestMix::ReadOnly
                                ? RequestMix::Atomic
                                : RequestMix::ReadOnly;
        ASSERT_TRUE(parseRequestMix(requestMixName(mix), parsed))
            << requestMixName(mix);
        EXPECT_EQ(parsed, mix);
    }
    // Unknown names fail and leave the output untouched.
    RequestMix parsed = RequestMix::WriteOnly;
    EXPECT_FALSE(parseRequestMix("RO", parsed));
    EXPECT_FALSE(parseRequestMix("", parsed));
    EXPECT_FALSE(parseRequestMix("?", parsed));
    EXPECT_EQ(parsed, RequestMix::WriteOnly);
}

// ---- CRC ------------------------------------------------------------

TEST(Crc32, DeterministicAndDataDependent)
{
    const char a[] = "hybrid memory cube";
    const char b[] = "hybrid memory cubf";
    EXPECT_EQ(Crc32::compute(a, sizeof(a)), Crc32::compute(a, sizeof(a)));
    EXPECT_NE(Crc32::compute(a, sizeof(a)), Crc32::compute(b, sizeof(b)));
}

TEST(Crc32, IncrementalMatchesOneShot)
{
    const unsigned char data[64] = {1, 2, 3, 4, 5, 6, 7, 8, 9};
    Crc32 crc;
    crc.update(data, 10);
    crc.update(data + 10, 54);
    EXPECT_EQ(crc.value(), Crc32::compute(data, 64));
}

TEST(Crc32, ResetRestartsComputation)
{
    const unsigned char data[16] = {0xAB};
    Crc32 crc;
    crc.update(data, 16);
    const std::uint32_t first = crc.value();
    crc.reset();
    crc.update(data, 16);
    EXPECT_EQ(crc.value(), first);
}

TEST(Crc32, DetectsSingleBitFlipsInAFlit)
{
    unsigned char flit[16] = {0x12, 0x34, 0x56, 0x78, 0x9A, 0xBC,
                              0xDE, 0xF0, 0x11, 0x22, 0x33, 0x44,
                              0x55, 0x66, 0x77, 0x88};
    const std::uint32_t good = Crc32::compute(flit, sizeof(flit));
    for (int byte = 0; byte < 16; ++byte) {
        for (int bit = 0; bit < 8; ++bit) {
            flit[byte] ^= static_cast<unsigned char>(1 << bit);
            EXPECT_NE(Crc32::compute(flit, sizeof(flit)), good)
                << "undetected flip at byte " << byte << " bit " << bit;
            flit[byte] ^= static_cast<unsigned char>(1 << bit);
        }
    }
}

TEST(Crc32, EmptyInput)
{
    EXPECT_EQ(Crc32::compute(nullptr, 0), Crc32().value());
}

TEST(Crc32, FoldConstantsMatchPublishedValues)
{
    // For the IEEE polynomial the formulas must give the constants of
    // the Linux crc32-pclmul kernel...
    constexpr CrcFoldConstants ieee = crcFoldConstants(0x04C11DB7u);
    EXPECT_EQ(ieee.r3, 0x1751997d0u);
    EXPECT_EQ(ieee.r4, 0x0ccaa009eu);
    EXPECT_EQ(ieee.r5, 0x163cd6124u);
    EXPECT_EQ(ieee.p, 0x1db710641u);
    EXPECT_EQ(ieee.u, 0x1f7011641u);
    // ...and these for the HMC Koopman polynomial.
    constexpr CrcFoldConstants hmc = crcFoldConstants(hmcCrcPolynomial);
    EXPECT_EQ(hmc.r3, 0x7b4bc878u);
    EXPECT_EQ(hmc.r4, 0x14b0602f8u);
    EXPECT_EQ(hmc.r5, 0x18c5564cu);
    EXPECT_EQ(hmc.p, 0x1d663b05du);
    EXPECT_EQ(hmc.u, 0x17d232cdu);
}

// ---- Packet CRC -----------------------------------------------------

/** packetCrc's definition fed through the portable Crc32: the header,
 *  then payload/8 splitMix64 words seeded from the packet identity. */
std::uint32_t
referencePacketCrc(const Packet &pkt, std::uint64_t header_bits)
{
    Crc32 crc;
    crc.update(&header_bits, sizeof(header_bits));
    std::uint64_t state = pkt.id ^ (pkt.addr << 1);
    for (Bytes i = 0; i < pkt.payload / 8; ++i) {
        const std::uint64_t word = splitMix64(state);
        crc.update(&word, sizeof(word));
    }
    return crc.value();
}

TEST(PacketCrc, MatchesCrc32ReferenceOnRandomPackets)
{
    // Every 8-byte step of payload (odd and even word counts take
    // different block alignments in the folding kernel), with random
    // identity and header bits, through the dispatched kernel and
    // through the portable slicing-by-8 path it falls back to.
    Xoshiro256StarStar rng(2024);
    std::size_t checked = 0;
    for (Bytes payload = 0; payload <= 128; payload += 8) {
        for (int i = 0; i < 6000; ++i) {
            Packet pkt;
            pkt.id = rng.next();
            pkt.addr = rng.next();
            pkt.payload = payload;
            const std::uint64_t header = rng.next();
            const std::uint32_t want = referencePacketCrc(pkt, header);
            ASSERT_EQ(packetCrc(pkt, header), want)
                << "payload " << payload << " id " << pkt.id << " addr "
                << pkt.addr << " header " << header;
            ASSERT_EQ(packetCrcPortable(pkt, header), want)
                << "portable, payload " << payload << " id " << pkt.id;
            ++checked;
        }
    }
    EXPECT_GE(checked, 100000u);
}

TEST(PacketCrc, KnownAnswers)
{
    // Stamped CRCs of fixed packets: a change here changes every
    // stamped packet, not just a kernel.
    struct Case
    {
        std::uint64_t id;
        Addr addr;
        Bytes payload;
        Command cmd;
        std::uint64_t header;
        std::uint32_t crc;
    };
    const Case cases[] = {
        {0, 0, 0, Command::Read, 0x00000000000000afull, 0xaa4b38dau},
        {1, 0x12345680, 16, Command::Read, 0x00091a2b400010b0ull,
         0x8814da39u},
        {42, 0x3FFFFFFF0, 64, Command::Write, 0x01fffffff802a28bull,
         0x32e4f788u},
        {0xDEADBEEF, 0x2A5A5A5A0, 128, Command::Write,
         0x0152d2d2d06ef48full, 0x8790f6e2u},
        {7, 0x100, 16, Command::Atomic, 0x0000000080007112ull, 0x58aad002u},
        {123456789, 0x155555550, 32, Command::Read, 0x00aaaaaaa85150b1ull,
         0xda586b45u},
    };
    for (const Case &c : cases) {
        Packet pkt;
        pkt.id = c.id;
        pkt.addr = c.addr;
        pkt.payload = c.payload;
        pkt.cmd = c.cmd;
        pkt.tag = static_cast<std::uint16_t>(c.id & 0x7FF);
        const std::uint64_t header =
            encodeRequestHeader(makeRequestHeader(pkt));
        EXPECT_EQ(header, c.header) << "id " << c.id;
        EXPECT_EQ(packetCrc(pkt, header), c.crc) << "id " << c.id;
        EXPECT_EQ(packetCrcPortable(pkt, header), c.crc) << "id " << c.id;
        EXPECT_EQ(referencePacketCrc(pkt, header), c.crc) << "id " << c.id;
    }
}

// ---- Tag pool --------------------------------------------------------

TEST(TagPool, StartsFull)
{
    TagPool pool(64);
    EXPECT_TRUE(pool.available());
    EXPECT_EQ(pool.capacity(), 64u);
    EXPECT_EQ(pool.inUse(), 0u);
}

TEST(TagPool, ExhaustsAtDepth)
{
    TagPool pool(64);
    std::set<std::uint16_t> tags;
    for (int i = 0; i < 64; ++i)
        tags.insert(pool.allocate());
    EXPECT_EQ(tags.size(), 64u); // all distinct
    EXPECT_FALSE(pool.available());
    EXPECT_EQ(pool.inUse(), 64u);
}

TEST(TagPool, ReleaseMakesTagAvailableAgain)
{
    TagPool pool(2);
    const auto t0 = pool.allocate();
    const auto t1 = pool.allocate();
    EXPECT_FALSE(pool.available());
    pool.release(t0);
    EXPECT_TRUE(pool.available());
    const auto t2 = pool.allocate();
    EXPECT_EQ(t2, t0);
    pool.release(t1);
    pool.release(t2);
    EXPECT_EQ(pool.inUse(), 0u);
}

TEST(TagPool, TagsAreInRange)
{
    TagPool pool(16);
    for (int i = 0; i < 16; ++i)
        EXPECT_LT(pool.allocate(), 16u);
}

class TagPoolChurn : public ::testing::TestWithParam<unsigned>
{
};

TEST_P(TagPoolChurn, AllocateReleaseCyclesPreserveCapacity)
{
    const unsigned depth = GetParam();
    TagPool pool(depth);
    for (int cycle = 0; cycle < 100; ++cycle) {
        std::vector<std::uint16_t> held;
        for (unsigned i = 0; i < depth; ++i)
            held.push_back(pool.allocate());
        EXPECT_FALSE(pool.available());
        for (auto tag : held)
            pool.release(tag);
        EXPECT_EQ(pool.inUse(), 0u);
    }
}

INSTANTIATE_TEST_SUITE_P(Depths, TagPoolChurn,
                         ::testing::Values(1u, 2u, 8u, 64u, 256u));

} // namespace
} // namespace hmcsim
