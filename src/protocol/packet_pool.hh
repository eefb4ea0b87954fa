// lint:file(hot-path) -- event-core file: allocation-free callables (no std::function) and HMCSIM_DCHECK-only invariants, enforced by hmcsim-lint.
/**
 * @file
 * Free-list pool for in-flight packets.
 *
 * The event-core overhaul (docs/performance.md) forbids per-event
 * heap traffic on the steady-state path. Packets used to ride through
 * the controller's TX/RX pipeline *by value inside event captures*,
 * which both exceeded the Event inline budget (sim/event.hh) and made
 * every hop copy ~150 bytes. Components now acquire a pooled Packet
 * once per transaction, thread a pointer through their event
 * captures, and release it when the transaction retires.
 *
 * The pool grows in blocks and never shrinks: after the warm-up
 * transient every acquire is a free-list pop, so a steady-state
 * schedule/fire/complete cycle performs zero allocations (enforced by
 * tests/test_event_queue.cc).
 *
 * Threading: one pool per simulated system, same contract as the
 * EventQueue that drives it (see host/ac510.hh) -- never shared
 * across threads.
 */

#ifndef HMCSIM_PROTOCOL_PACKET_POOL_HH
#define HMCSIM_PROTOCOL_PACKET_POOL_HH

#include <algorithm>
#include <cstddef>
#include <memory>
#include <type_traits>
#include <vector>

#include "protocol/packet.hh"
#include "sim/check.hh"

namespace hmcsim
{

static_assert(std::is_trivially_copyable_v<Packet>,
              "Packet must stay trivially copyable: pooled slots are "
              "recycled by plain assignment");

/** A per-simulator free-list pool of Packet slots. */
class PacketPool
{
  public:
    /** @param block_packets Slots added per growth step. */
    explicit PacketPool(std::size_t block_packets = 256)
        : blockPackets(block_packets ? block_packets : 1)
    {
    }

    PacketPool(const PacketPool &) = delete;
    PacketPool &operator=(const PacketPool &) = delete;

    /**
     * Take a slot holding a copy of @p init (a fresh default Packet
     * unless given): a caller with a packet in hand copies it once
     * instead of clearing the slot and then overwriting it. Amortized
     * allocation-free: a new block is carved only when the free list
     * is empty, which stops happening once the in-flight high-water
     * mark is reached.
     */
    Packet *
    acquire(const Packet &init = Packet{})
    {
        if (freeList.empty())
            grow();
        Packet *slot = freeList.back();
        freeList.pop_back();
        *slot = init;
        ++numAcquired;
        const std::size_t live = numAcquired - numReleased;
        if (live > _highWater)
            _highWater = live;
        return slot;
    }

    /** Return @p slot to the free list. */
    void
    release(Packet *slot)
    {
        ++numReleased;
        freeList.push_back(slot);
    }

    /** Slots currently checked out. */
    std::size_t live() const { return numAcquired - numReleased; }

    /** Most slots ever simultaneously checked out. */
    std::size_t highWater() const { return _highWater; }

    /** Total slots owned (live + free). */
    std::size_t capacity() const { return blocks.size() * blockPackets; }

    /** Growth steps taken (1 after the first acquire; stable once
     *  warm -- the perf harness watches this). */
    std::size_t blocksAllocated() const { return blocks.size(); }

    /**
     * Become a deep copy of @p src for simulator fork (sim/snapshot.hh):
     * replicate every block byte-for-byte, register each source block's
     * extent in @p fixup so captured Packet pointers can be translated,
     * and rebuild the free list through that translation. Must be
     * called on a fresh pool; read-only on @p src.
     */
    template <typename Fixup>
    void
    cloneFrom(const PacketPool &src, Fixup &fixup)
    {
        HMCSIM_DCHECK(blocks.empty() && numAcquired == 0,
                      "pool clone target must be fresh");
        blockPackets = src.blockPackets;
        blocks.reserve(src.blocks.size());
        for (const auto &src_block : src.blocks) {
            blocks.push_back(std::make_unique<Packet[]>(blockPackets));
            Packet *base = blocks.back().get();
            std::copy(src_block.get(), src_block.get() + blockPackets,
                      base);
            fixup.mapRange(src_block.get(),
                           src_block.get() + blockPackets, base);
        }
        freeList.reserve(src.freeList.size());
        for (Packet *slot : src.freeList)
            freeList.push_back(fixup.translate(slot));
        numAcquired = src.numAcquired;
        numReleased = src.numReleased;
        _highWater = src._highWater;
    }

  private:
    void
    grow()
    {
        blocks.push_back(std::make_unique<Packet[]>(blockPackets));
        Packet *base = blocks.back().get();
        freeList.reserve(freeList.size() + blockPackets);
        for (std::size_t i = blockPackets; i > 0; --i)
            freeList.push_back(base + (i - 1));
    }

    std::size_t blockPackets;
    std::vector<std::unique_ptr<Packet[]>> blocks;
    std::vector<Packet *> freeList;
    std::size_t numAcquired = 0;
    std::size_t numReleased = 0;
    std::size_t _highWater = 0;
};

} // namespace hmcsim

#endif // HMCSIM_PROTOCOL_PACKET_POOL_HH
