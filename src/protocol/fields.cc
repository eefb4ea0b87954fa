#include "protocol/fields.hh"

#include "protocol/crc.hh"
#include "sim/logging.hh"
#include "sim/random.hh"

#if defined(__x86_64__) && defined(__GNUC__)
#include <immintrin.h>
#define HMCSIM_HAVE_CLMUL_KERNEL 1
#endif

namespace hmcsim
{

namespace
{

constexpr std::uint64_t
mask(unsigned bits)
{
    return bits >= 64 ? ~0ULL : ((1ULL << bits) - 1);
}

} // namespace

std::uint64_t
encodeRequestHeader(const RequestHeader &header)
{
    std::uint64_t bits = 0;
    bits |= (static_cast<std::uint64_t>(header.cmd) & mask(7)) << 0;
    bits |= (static_cast<std::uint64_t>(header.lng) & mask(5)) << 7;
    bits |= (static_cast<std::uint64_t>(header.tag) & mask(11)) << 12;
    bits |= (static_cast<std::uint64_t>(header.adrs) & mask(34)) << 23;
    bits |= (static_cast<std::uint64_t>(header.cub) & mask(3)) << 57;
    return bits;
}

RequestHeader
decodeRequestHeader(std::uint64_t bits)
{
    RequestHeader header;
    header.cmd = static_cast<std::uint8_t>((bits >> 0) & mask(7));
    header.lng = static_cast<std::uint8_t>((bits >> 7) & mask(5));
    header.tag = static_cast<std::uint16_t>((bits >> 12) & mask(11));
    header.adrs = (bits >> 23) & mask(34);
    header.cub = static_cast<std::uint8_t>((bits >> 57) & mask(3));
    return header;
}

std::uint64_t
encodePacketTail(const PacketTail &tail)
{
    std::uint64_t bits = 0;
    bits |= (static_cast<std::uint64_t>(tail.crc) & mask(32)) << 0;
    bits |= (static_cast<std::uint64_t>(tail.rtc) & mask(5)) << 32;
    bits |= (static_cast<std::uint64_t>(tail.slid) & mask(3)) << 37;
    bits |= (static_cast<std::uint64_t>(tail.seq) & mask(3)) << 40;
    bits |= (static_cast<std::uint64_t>(tail.frp) & mask(8)) << 43;
    bits |= (static_cast<std::uint64_t>(tail.rrp) & mask(8)) << 51;
    return bits;
}

PacketTail
decodePacketTail(std::uint64_t bits)
{
    PacketTail tail;
    tail.crc = static_cast<std::uint32_t>((bits >> 0) & mask(32));
    tail.rtc = static_cast<std::uint8_t>((bits >> 32) & mask(5));
    tail.slid = static_cast<std::uint8_t>((bits >> 37) & mask(3));
    tail.seq = static_cast<std::uint8_t>((bits >> 40) & mask(3));
    tail.frp = static_cast<std::uint8_t>((bits >> 43) & mask(8));
    tail.rrp = static_cast<std::uint8_t>((bits >> 51) & mask(8));
    return tail;
}

CommandCode
commandCode(Command cmd, Bytes payload)
{
    const unsigned flits = dataFlits(payload);
    switch (cmd) {
      case Command::Read:
        return static_cast<CommandCode>(
            static_cast<std::uint8_t>(CommandCode::RD16) + flits - 1);
      case Command::Write:
        return static_cast<CommandCode>(
            static_cast<std::uint8_t>(CommandCode::WR16) + flits - 1);
      case Command::Atomic:
        return CommandCode::Atomic2Add8;
    }
    return CommandCode::Error;
}

Command
commandClass(std::uint8_t code)
{
    const auto rd16 = static_cast<std::uint8_t>(CommandCode::RD16);
    const auto wr16 = static_cast<std::uint8_t>(CommandCode::WR16);
    if (code >= rd16 && code < rd16 + 8)
        return Command::Read;
    if (code >= wr16 && code < wr16 + 8)
        return Command::Write;
    if (code == static_cast<std::uint8_t>(CommandCode::Atomic2Add8))
        return Command::Atomic;
    fatal("unknown command code 0x%02x", code);
}

Bytes
payloadForCode(std::uint8_t code)
{
    const auto rd16 = static_cast<std::uint8_t>(CommandCode::RD16);
    const auto wr16 = static_cast<std::uint8_t>(CommandCode::WR16);
    if (code >= rd16 && code < rd16 + 8)
        return static_cast<Bytes>(code - rd16 + 1) * 16;
    if (code >= wr16 && code < wr16 + 8)
        return static_cast<Bytes>(code - wr16 + 1) * 16;
    if (code == static_cast<std::uint8_t>(CommandCode::Atomic2Add8))
        return 16;
    fatal("unknown command code 0x%02x", code);
}

RequestHeader
makeRequestHeader(const Packet &pkt, std::uint8_t cub)
{
    RequestHeader header;
    header.cub = cub;
    header.adrs = pkt.addr & mask(34);
    header.tag = static_cast<std::uint16_t>(pkt.tag & mask(11));
    header.lng = static_cast<std::uint8_t>(pkt.reqFlits());
    header.cmd = static_cast<std::uint8_t>(
        commandCode(pkt.cmd, pkt.payload));
    return header;
}

std::uint32_t
packetCrcPortable(const Packet &pkt, std::uint64_t header_bits)
{
    // The encoded header, then payload/8 words of a deterministic
    // pseudo-payload derived from the packet identity (distinct
    // packets get distinct protected bytes).
    Crc32 crc;
    crc.update(&header_bits, sizeof(header_bits));
    std::uint64_t state = pkt.id ^ (pkt.addr << 1);
    const unsigned payload_words =
        static_cast<unsigned>(pkt.payload / 8);
    for (unsigned i = 0; i < payload_words; ++i) {
        const std::uint64_t word = splitMix64(state);
        crc.update(&word, sizeof(word));
    }
    return crc.value();
}

namespace
{

#ifdef HMCSIM_HAVE_CLMUL_KERNEL

constexpr CrcFoldConstants foldK = crcFoldConstants(hmcCrcPolynomial);

/**
 * The same CRC as packetCrcPortable, folded with carry-less multiply
 * and fused with the pseudo-payload generator, so no byte ever goes
 * through memory or a table.
 *
 * A reflected CRC register that starts at ~0 equals one that starts
 * at 0 with ~0 xored into the first four message bytes, and leading
 * zero bytes leave a zero register at zero. So the message (8-byte
 * header + 8-byte words) is zero-padded at the front to whole 16-byte
 * blocks; each block folds into a 128-bit accumulator with two
 * multiplies, and the accumulator reduces to 32 bits with one more
 * fold and a Barrett step (Gopal et al., crc.hh).
 */
__attribute__((target("pclmul"))) std::uint32_t
packetCrcClmul(const Packet &pkt, std::uint64_t header_bits)
{
    const auto block = [](std::uint64_t first, std::uint64_t second) {
        return _mm_set_epi64x(static_cast<long long>(second),
                              static_cast<long long>(first));
    };
    std::uint64_t state = pkt.id ^ (pkt.addr << 1);
    const unsigned payload_words =
        static_cast<unsigned>(pkt.payload / 8);
    const std::uint64_t head = header_bits ^ 0xFFFFFFFFull;

    const bool odd = payload_words % 2 != 0;
    __m128i acc = odd ? block(head, splitMix64(state)) : block(0, head);
    unsigned i = odd ? 1 : 0;
    const __m128i k34 = block(foldK.r3, foldK.r4);
    for (; i < payload_words; i += 2) {
        const std::uint64_t w0 = splitMix64(state);
        const std::uint64_t w1 = splitMix64(state);
        const __m128i lo = _mm_clmulepi64_si128(acc, k34, 0x00);
        const __m128i hi = _mm_clmulepi64_si128(acc, k34, 0x11);
        acc = _mm_xor_si128(_mm_xor_si128(lo, hi), block(w0, w1));
    }

    // 128 -> 64 bits: fold the low quadword onto the high one.
    const __m128i mask32 = _mm_set_epi32(0, -1, 0, -1);
    acc = _mm_xor_si128(_mm_srli_si128(acc, 8),
                        _mm_clmulepi64_si128(acc, k34, 0x10));
    // 64 -> 32 bits (plus the 32 the Barrett step consumes).
    const __m128i k5 = block(foldK.r5, 0);
    acc = _mm_xor_si128(
        _mm_srli_si128(acc, 4),
        _mm_clmulepi64_si128(_mm_and_si128(acc, mask32), k5, 0x00));
    // Barrett reduction to the 32-bit register.
    const __m128i pu = block(foldK.p, foldK.u);
    __m128i t = _mm_clmulepi64_si128(_mm_and_si128(acc, mask32), pu, 0x10);
    t = _mm_clmulepi64_si128(_mm_and_si128(t, mask32), pu, 0x00);
    acc = _mm_xor_si128(acc, t);
    const auto reg = static_cast<std::uint32_t>(
        _mm_cvtsi128_si32(_mm_srli_si128(acc, 4)));
    return ~reg;
}

bool
cpuHasClmul()
{
    __builtin_cpu_init();
    return __builtin_cpu_supports("pclmul");
}

/** Chosen once from the CPU. Both kernels give the same CRC, so a
 *  call made before this is initialized is still correct. */
const bool useClmul = cpuHasClmul();

#endif // HMCSIM_HAVE_CLMUL_KERNEL

} // namespace

std::uint32_t
packetCrc(const Packet &pkt, std::uint64_t header_bits)
{
#ifdef HMCSIM_HAVE_CLMUL_KERNEL
    if (useClmul)
        return packetCrcClmul(pkt, header_bits);
#endif
    return packetCrcPortable(pkt, header_bits);
}

} // namespace hmcsim
