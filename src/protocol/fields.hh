/**
 * @file
 * Bit-level packet header/tail encoding.
 *
 * HMC packets carry an 8-byte header and an 8-byte tail (Sec. II-B).
 * This module packs and unpacks the fields the protocol needs --
 * command, length, tag, 34-bit address, cube id in the header;
 * sequence numbers, retry pointers, and the CRC in the tail. Field
 * widths follow the HMC specification; bit positions are documented
 * here and round-trip tested rather than asserted against silicon.
 *
 * The timing model works on byte counts, so these encoders sit on the
 * correctness path: they give the CRC real bytes to protect and the
 * retry/flow-control machinery real fields to operate on.
 *
 * packetCrc runs twice per request (the controller stamps the tail,
 * the cube verifies it), so it is a folding kernel over carry-less
 * multiply on hosts that have PCLMULQDQ, chosen at run time; elsewhere
 * it feeds the portable Crc32 (protocol/crc.hh). Both give the same
 * CRC.
 */

#ifndef HMCSIM_PROTOCOL_FIELDS_HH
#define HMCSIM_PROTOCOL_FIELDS_HH

#include <cstdint>

#include "protocol/packet.hh"

namespace hmcsim
{

/** Command encodings (a representative subset of the spec's table). */
enum class CommandCode : std::uint8_t
{
    RD16 = 0x30, ///< ..RD128 = 0x37 (RD16 + flits-1)
    WR16 = 0x08, ///< ..WR128 = 0x0F
    Atomic2Add8 = 0x12,
    RdResponse = 0x38,
    WrResponse = 0x39,
    Error = 0x3E,
};

/** Decoded request header fields. */
struct RequestHeader
{
    std::uint8_t cub;   ///< Cube id (3 bits, chained devices).
    Addr adrs;          ///< 34-bit address.
    std::uint16_t tag;  ///< 11-bit request tag.
    std::uint8_t lng;   ///< Packet length in flits (5 bits).
    std::uint8_t cmd;   ///< Command (7 bits).
};

/** Decoded tail fields. */
struct PacketTail
{
    std::uint32_t crc;  ///< CRC-32 over header + payload.
    std::uint8_t rtc;   ///< Return token count (5 bits).
    std::uint8_t slid;  ///< Source link id (3 bits).
    std::uint8_t seq;   ///< 3-bit sequence number.
    std::uint8_t frp;   ///< Forward retry pointer (8 bits).
    std::uint8_t rrp;   ///< Return retry pointer (8 bits).
};

/**
 * Header layout (64 bits):
 *   [6:0]   CMD     [11:7]  LNG     [22:12] TAG
 *   [56:23] ADRS    [59:57] CUB     [63:60] reserved
 */
std::uint64_t encodeRequestHeader(const RequestHeader &header);
RequestHeader decodeRequestHeader(std::uint64_t bits);

/**
 * Tail layout (64 bits):
 *   [31:0]  CRC     [36:32] RTC     [39:37] SLID
 *   [42:40] SEQ     [50:43] FRP     [58:51] RRP   [63:59] reserved
 */
std::uint64_t encodePacketTail(const PacketTail &tail);
PacketTail decodePacketTail(std::uint64_t bits);

/** Command code for a request packet. */
CommandCode commandCode(Command cmd, Bytes payload);

/** Inverse of commandCode: the command class of a code. */
Command commandClass(std::uint8_t code);

/** Payload size a request command code implies. */
Bytes payloadForCode(std::uint8_t code);

/** Build the on-the-wire header for a request packet. */
RequestHeader makeRequestHeader(const Packet &pkt, std::uint8_t cub = 0);

/**
 * Compute the tail CRC of a packet: the HMC CRC-32 (crc.hh) of the
 * encoded header followed by payload/8 words of a deterministic
 * pseudo-payload, splitMix64 over pkt.id ^ (pkt.addr << 1). The
 * simulator does not track data bytes; the pseudo-payload gives the
 * CRC real, distinct bytes to protect.
 */
std::uint32_t packetCrc(const Packet &pkt, std::uint64_t header_bits);

/**
 * packetCrc through the portable slicing-by-8 Crc32: the path
 * packetCrc takes on hosts without carry-less multiply. Exposed so
 * tests run it on every host.
 */
std::uint32_t packetCrcPortable(const Packet &pkt, std::uint64_t header_bits);

} // namespace hmcsim

#endif // HMCSIM_PROTOCOL_FIELDS_HH
