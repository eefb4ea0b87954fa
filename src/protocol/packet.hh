/**
 * @file
 * HMC packet-protocol definitions (HMC 1.1 specification, Sec. II-B).
 *
 * The HMC link protocol moves packets built from 16-byte flits. Every
 * packet carries one flit of overhead (8 B header + 8 B tail); data
 * payloads span 0 to 8 flits. Table II of the paper:
 *
 *   Type        Read-req  Read-resp  Write-req  Write-resp
 *   Data        empty     1..8 flits 1..8 flits empty
 *   Overhead    1 flit    1 flit     1 flit     1 flit
 *   Total       1 flit    2..9 flits 2..9 flits 1 flit
 */

#ifndef HMCSIM_PROTOCOL_PACKET_HH
#define HMCSIM_PROTOCOL_PACKET_HH

#include <cstdint>
#include <string>

#include "sim/types.hh"

namespace hmcsim
{

/** Size of one flit in bytes. */
constexpr Bytes flitBytes = 16;

/** Packet overhead: 8 B header + 8 B tail = one flit. */
constexpr Bytes packetOverheadBytes = 16;

/** Maximum data payload per packet (8 flits). */
constexpr Bytes maxPayloadBytes = 128;

/** Request commands modeled by the simulator. */
enum class Command : std::uint8_t
{
    Read,      ///< RD16..RD128: payload returns in the response.
    Write,     ///< WR16..WR128: payload travels in the request.
    Atomic,    ///< Dual 8-byte add-immediate style atomics (HMC spec).
};

/** Human-readable command name. */
const char *commandName(Command cmd);

/** The three GUPS request mixes studied by the paper (Sec. III-B),
 *  plus in-memory atomics (the PIM-style alternative to rw). */
enum class RequestMix : std::uint8_t
{
    ReadOnly,        ///< ro
    WriteOnly,       ///< wo
    ReadModifyWrite, ///< rw: a read followed by a dependent write.
    Atomic,          ///< HMC atomic update commands (extension).
};

const char *requestMixName(RequestMix mix);

/** Parse a requestMixName() string; false when unrecognized. */
bool parseRequestMix(const std::string &name, RequestMix &out);

/** Number of data flits needed for @p payload bytes (rounded up). */
constexpr unsigned
dataFlits(Bytes payload)
{
    return static_cast<unsigned>((payload + flitBytes - 1) / flitBytes);
}

/** Request packet size in flits (Table II). */
constexpr unsigned
requestFlits(Command cmd, Bytes payload)
{
    switch (cmd) {
      case Command::Read:
        return 1;
      case Command::Write:
        return 1 + dataFlits(payload);
      case Command::Atomic:
        return 2; // 16 B immediate operand.
    }
    return 0;
}

/** Response packet size in flits (Table II). */
constexpr unsigned
responseFlits(Command cmd, Bytes payload)
{
    switch (cmd) {
      case Command::Read:
        return 1 + dataFlits(payload);
      case Command::Write:
        return 1;
      case Command::Atomic:
        return 1;
    }
    return 0;
}

/** Request packet size in bytes, including header and tail. */
constexpr Bytes
requestBytes(Command cmd, Bytes payload)
{
    return static_cast<Bytes>(requestFlits(cmd, payload)) * flitBytes;
}

/** Response packet size in bytes, including header and tail. */
constexpr Bytes
responseBytes(Command cmd, Bytes payload)
{
    return static_cast<Bytes>(responseFlits(cmd, payload)) * flitBytes;
}

/**
 * Raw link bytes a complete transaction moves in both directions.
 * This is the accounting the paper uses for "raw bandwidth".
 */
constexpr Bytes
transactionBytes(Command cmd, Bytes payload)
{
    return requestBytes(cmd, payload) + responseBytes(cmd, payload);
}

/**
 * Fraction of raw link bytes that is user data (Sec. IV-D):
 * 128 B requests reach 128/(128+16) = 89 %; 16 B requests only 50 %.
 */
constexpr double
effectiveBandwidthFraction(Bytes payload)
{
    return static_cast<double>(payload) /
           static_cast<double>(payload + packetOverheadBytes);
}

/**
 * An in-flight transaction. The same object describes the request on
 * the TX path and the response on the RX path; the simulator moves it
 * by value through event closures.
 */
struct Packet
{
    /** Monotonic id, unique within one simulated system. */
    std::uint64_t id = 0;
    Command cmd = Command::Read;
    /** Cube address (34-bit field in the request header). */
    Addr addr = 0;
    /** Data payload in bytes (16..128, multiple of 16). */
    Bytes payload = 0;
    /** Issuing GUPS port. */
    std::uint8_t port = 0;
    /** Tag from the port's read tag pool (reads/atomics only). */
    std::uint16_t tag = 0;
    /** External link the packet uses (0 or 1 on the AC-510). */
    std::uint8_t link = 0;

    // Decoded by the address mapper when entering the cube.
    std::uint8_t quadrant = 0;
    std::uint8_t vault = 0;
    std::uint8_t bank = 0;
    std::uint32_t row = 0;

    /** Set in the response header when the cube signals thermal
     *  shutdown (Sec. IV-C: head/tail carries failure indication). */
    bool thermalFailure = false;

    /** Encoded request header (see protocol/fields.hh); stamped by
     *  the controller TX path, verified at the cube. 0 = unstamped. */
    std::uint64_t headerBits = 0;
    /** Tail CRC protecting header + payload. */
    std::uint32_t tailCrc = 0;

    // Timestamps for latency deconstruction (Fig. 14 / Sec. IV-E).
    Tick tIssued = 0;      ///< Submitted to the HMC controller.
    Tick tLinkTx = 0;      ///< Started serializing onto the link.
    Tick tVaultArrive = 0; ///< Entered the vault controller queue.
    Tick tBankStart = 0;   ///< DRAM bank began the access (0 when the
                           ///< cube refused the request, e.g. thermal
                           ///< shutdown).
    Tick tDramDone = 0;    ///< DRAM access finished.
    Tick tResponse = 0;    ///< Response received by the port.

    unsigned reqFlits() const { return requestFlits(cmd, payload); }
    unsigned respFlits() const { return responseFlits(cmd, payload); }
    Bytes reqBytes() const { return requestBytes(cmd, payload); }
    Bytes respBytes() const { return responseBytes(cmd, payload); }
};

} // namespace hmcsim

#endif // HMCSIM_PROTOCOL_PACKET_HH
