/**
 * @file
 * Pointer translation and event cloning for simulator snapshot/fork.
 *
 * A warmed simulator is forked by value-copying every component's
 * state into a freshly built twin (src/host/ac510.cc). Two kinds of
 * state cannot be copied bit-for-bit: pointers into the source world
 * (component `this` pointers, pooled Packet slots) and the pending
 * events that capture them. This header provides both halves:
 *
 *  - SnapshotFixup: an old-world -> new-world address map. Components
 *    and pool blocks register their source/destination extents; any
 *    pointer captured by pending state is then translated through it.
 *  - EventRelocator + cloneEventQueue(): pending events are recognized
 *    by their Event invoke thunk (sim/event.hh invokeAs<T> -- the
 *    per-type thunk address is the capture's runtime identity), their
 *    capture bytes are memcpy'd, and a per-type relocate hook rewrites
 *    the embedded pointers through the fixup map. An event whose type
 *    is not in the relocator table is fatal: forking is only supported
 *    for the audited main-path capture set (docs/performance.md).
 *
 * Everything here is read-only on the source simulator, so multiple
 * worker threads may fork the same quiescent warm module concurrently
 * (exercised by the TSan CI job).
 */

#ifndef HMCSIM_SIM_SNAPSHOT_HH
#define HMCSIM_SIM_SNAPSHOT_HH

#include <cstdint>
#include <cstring>
#include <type_traits>
#include <vector>

#include "sim/check.hh"
#include "sim/event.hh"
#include "sim/event_queue.hh"

namespace hmcsim
{

/**
 * Old-world -> new-world address translation for snapshot restore.
 *
 * Mappings are either single objects or contiguous ranges (e.g. a
 * PacketPool block); translate() resolves a source pointer to the
 * same offset in the destination extent. The handful of mappings a
 * simulator registers (one controller, a few ports, a few pool
 * blocks) makes a linear scan faster than any associative container,
 * and keeps iteration order deterministic.
 */
class SnapshotFixup
{
  public:
    /** Map the single object at @p from onto @p to. */
    template <typename T>
    void
    mapObject(const T *from, T *to)
    {
        mapRange(from, from + 1, to);
    }

    /** Map the extent [@p from, @p from_end) onto the extent starting
     *  at @p to (same length, same element type). */
    template <typename T>
    void
    mapRange(const T *from, const T *from_end, T *to)
    {
        ranges.push_back({reinterpret_cast<std::uintptr_t>(from),
                          reinterpret_cast<std::uintptr_t>(from_end),
                          reinterpret_cast<std::uintptr_t>(to)});
    }

    /**
     * Translate a source-world pointer into the forked world.
     * Null maps to null; an unmapped non-null pointer is fatal --
     * it would silently alias the source simulator.
     */
    template <typename T>
    T *
    translate(T *old) const
    {
        if (old == nullptr)
            return nullptr;
        const auto p = reinterpret_cast<std::uintptr_t>(old);
        for (const auto &r : ranges) {
            if (p >= r.begin && p < r.end)
                return reinterpret_cast<T *>(r.target + (p - r.begin));
        }
        HMCSIM_CHECK(false,
                     "snapshot fork: pointer %p not covered by any "
                     "registered source extent",
                     static_cast<const void *>(old));
        return nullptr;
    }

  private:
    struct Range
    {
        std::uintptr_t begin;
        std::uintptr_t end;
        std::uintptr_t target;
    };

    std::vector<Range> ranges;
};

/**
 * How to clone one known event-capture type: identified by its invoke
 * thunk, relocated by rewriting its captured pointers through the
 * fixup map. Build entries with makeEventRelocator<T>().
 */
struct EventRelocator
{
    Event::InvokeFn invoke;
    void (*relocate)(void *capture, const SnapshotFixup &fixup);
    const char *name;
};

/**
 * Relocator entry for capture type @p T, which must be trivially
 * copyable and provide `void relocate(const SnapshotFixup &)`
 * rewriting every captured pointer.
 */
template <typename T>
EventRelocator
makeEventRelocator(const char *name)
{
    static_assert(std::is_trivially_copyable_v<T>,
                  "forked event captures must be trivially copyable");
    return {&Event::invokeAs<T>,
            [](void *capture, const SnapshotFixup &fixup) {
                static_cast<T *>(capture)->relocate(fixup);
            },
            name};
}

/**
 * Re-create every pending event of @p src inside @p dst (which must
 * be freshly constructed). Each clone is scheduled at its source
 * (when, seq) and the source's counters and execution position are
 * adopted, so the forked queue executes the identical (when, seq)
 * order and a slot reserved in the source stays valid. Fatal on an
 * event type missing from @p relocators or on a non-trivial capture.
 */
void cloneEventQueue(const EventQueue &src, EventQueue &dst,
                     const SnapshotFixup &fixup,
                     const std::vector<EventRelocator> &relocators);

} // namespace hmcsim

#endif // HMCSIM_SIM_SNAPSHOT_HH
