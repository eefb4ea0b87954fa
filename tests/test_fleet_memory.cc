/**
 * @file
 * Peak live heap of a fleet run, per request (docs/service.md,
 * "Memory"). Every operator new in this binary is counted in bytes,
 * so the test can measure the most heap runFleet holds at once and
 * assert how fast that grows with the request count. A run's fixed
 * cost (four simulated nodes, the thread pool) cancels in the
 * difference between two request counts; what is left is what the
 * run holds per request: each node's arrival ticks, its sojourn
 * samples and the aggregate's copy of them.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <cstddef>
#include <cstdlib>
#include <new>

// GCC pairs the replaced operator new with the library operator
// delete across inlining and misreports the malloc/free replacement
// pattern below as mismatched.
#if defined(__GNUC__) && !defined(__clang__)
#pragma GCC diagnostic ignored "-Wmismatched-new-delete"
#endif

#include "service/fleet.hh"

// ---------------------------------------------------------------------
// Byte-counting global operator new/delete: each block carries its
// size in a header so delete can subtract it. Atomic because the
// fleet's thread pool allocates from its workers.
// ---------------------------------------------------------------------

namespace
{

/** Header size; keeps the returned pointer at malloc's alignment. */
constexpr std::size_t headerBytes = alignof(std::max_align_t);

std::atomic<std::size_t> g_liveBytes{0};
std::atomic<std::size_t> g_peakBytes{0};

void *
countedAlloc(std::size_t size)
{
    void *raw = std::malloc(size + headerBytes);
    if (!raw)
        throw std::bad_alloc();
    *static_cast<std::size_t *>(raw) = size;
    const std::size_t live = g_liveBytes.fetch_add(size) + size;
    std::size_t peak = g_peakBytes.load();
    while (live > peak && !g_peakBytes.compare_exchange_weak(peak, live)) {
    }
    return static_cast<unsigned char *>(raw) + headerBytes;
}

void
countedFree(void *p) noexcept
{
    if (!p)
        return;
    void *raw = static_cast<unsigned char *>(p) - headerBytes;
    g_liveBytes.fetch_sub(*static_cast<std::size_t *>(raw));
    std::free(raw);
}

} // namespace

void *operator new(std::size_t size) { return countedAlloc(size); }
void *operator new[](std::size_t size) { return countedAlloc(size); }
void operator delete(void *p) noexcept { countedFree(p); }
void operator delete(void *p, std::size_t) noexcept { countedFree(p); }
void operator delete[](void *p) noexcept { countedFree(p); }
void operator delete[](void *p, std::size_t) noexcept { countedFree(p); }

namespace hmcsim
{
namespace
{

/** The fleet-lowload shape: four nodes, Poisson arrivals at 2e7 req/s,
 *  16 B reads, one job. */
FleetConfig
lowLoadFleet(std::uint64_t requests)
{
    FleetConfig cfg;
    cfg.numNodes = 4;
    cfg.requests = requests;
    cfg.arrival.kind = ArrivalKind::Poisson;
    cfg.arrival.ratePerSec = 2e7;
    cfg.router = RouterPolicy::Uniform;
    cfg.jobs = 1;
    cfg.node.requestSize = 16;
    return cfg;
}

/** Most heap bytes live at once during runFleet(@p cfg), above what
 *  was live before it; the result stays alive until the peak is read. */
std::size_t
peakHeapOfRun(const FleetConfig &cfg)
{
    const std::size_t before = g_liveBytes.load();
    g_peakBytes.store(before);
    const FleetResult res = runFleet(cfg);
    EXPECT_EQ(res.aggregate.requests, cfg.requests);
    return g_peakBytes.load() - before;
}

} // namespace

TEST(FleetMemory, PeakHeapPerRequestStaysBounded)
{
    constexpr std::uint64_t small = 50000;
    constexpr std::uint64_t large = 200000;
    const std::size_t peakSmall = peakHeapOfRun(lowLoadFleet(small));
    const std::size_t peakLarge = peakHeapOfRun(lowLoadFleet(large));
    ASSERT_GT(peakLarge, peakSmall);
    const double bytesPerRequest =
        static_cast<double>(peakLarge - peakSmall) /
        static_cast<double>(large - small);
    // The peak is the merge: node sojourn samples (8 B) and the
    // aggregate's copy (8 B), both sized exactly; this layout measures
    // 15.7 B. Holding the 24 B routed stream (57 B), keeping served
    // shards alive (26.5 B) or growing the sample buffers by doubling
    // (22.5 B) each breaks the bound.
    EXPECT_LE(bytesPerRequest, 20.0)
        << "peak heap " << peakSmall << " B at " << small
        << " requests, " << peakLarge << " B at " << large;
    RecordProperty("bytes_per_request",
                   std::to_string(bytesPerRequest));
}

} // namespace hmcsim
