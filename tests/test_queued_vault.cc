/**
 * @file
 * Tests for the event-driven queued vault, including cross-validation
 * against the analytic VaultController.
 */

#include <gtest/gtest.h>

#include <functional>
#include <vector>

#include "hmc/queued_vault.hh"
#include "hmc/vault_controller.hh"
#include "sim/random.hh"

namespace hmcsim
{
namespace
{

Packet
read128(unsigned bank, std::uint32_t row, Addr addr = 0)
{
    Packet pkt;
    pkt.cmd = Command::Read;
    pkt.payload = 128;
    pkt.bank = static_cast<std::uint8_t>(bank);
    pkt.row = row;
    pkt.addr = addr;
    return pkt;
}

/** Drive both models with the same arrival schedule; return the
 *  completion times of each. */
struct CrossRun
{
    std::vector<Tick> analytic;
    std::vector<Tick> queued;
};

CrossRun
crossValidate(const std::vector<std::pair<Tick, Packet>> &arrivals,
              const VaultConfig &cfg = VaultConfig{})
{
    CrossRun out;

    // Analytic model: completions computed at arrival.
    VaultController analytic(cfg);
    for (const auto &[when, pkt] : arrivals)
        out.analytic.push_back(analytic.service(pkt, when));

    // Queued model: completions delivered by events.
    EventQueue queue;
    QueuedVaultConfig qcfg;
    qcfg.base = cfg;
    std::vector<std::pair<std::uint64_t, Tick>> done;
    QueuedVaultController queued(
        qcfg, queue, [&done](const Packet &pkt, Tick at) {
            done.emplace_back(pkt.id, at);
        });
    // Arrival packets live outside the event captures: a by-value
    // Packet no longer fits the Event inline budget (sim/event.hh).
    std::vector<Packet> stamped;
    stamped.reserve(arrivals.size());
    std::uint64_t id = 0;
    for (const auto &[when, pkt] : arrivals) {
        (void)when;
        stamped.push_back(pkt);
        stamped.back().id = id++;
    }
    for (std::size_t i = 0; i < arrivals.size(); ++i) {
        const Packet *pkt = &stamped[i];
        queue.schedule(arrivals[i].first, [&queued, pkt] {
            ASSERT_TRUE(queued.offer(*pkt));
        });
    }
    queue.runToCompletion();

    out.queued.resize(done.size());
    for (const auto &[pkt_id, at] : done)
        out.queued.at(pkt_id) = at;
    return out;
}

TEST(QueuedVault, SingleBankMatchesAnalyticExactly)
{
    std::vector<std::pair<Tick, Packet>> arrivals;
    for (int i = 0; i < 200; ++i)
        arrivals.emplace_back(i * 1000, read128(0, i));
    const CrossRun run = crossValidate(arrivals);
    ASSERT_EQ(run.analytic.size(), run.queued.size());
    for (std::size_t i = 0; i < run.analytic.size(); ++i)
        EXPECT_EQ(run.analytic[i], run.queued[i]) << "request " << i;
}

TEST(QueuedVault, PerBankSerializedMatchesAnalyticExactly)
{
    // Round-robin across banks with arrivals spaced so data-ready
    // order equals arrival order: both models must agree exactly, on
    // every storage engine (both time the TSV bus at the backend's
    // busBytesPerSecond(), which for DDR4 is not beatBytes / tBeat).
    std::vector<std::pair<Tick, Packet>> arrivals;
    for (int i = 0; i < 256; ++i)
        arrivals.emplace_back(i * 60000, read128(i % 16, i / 16));
    for (const BackendKind kind :
         {BackendKind::HmcDram, BackendKind::Ddr4, BackendKind::Nvm}) {
        SCOPED_TRACE(backendName(kind));
        VaultConfig cfg;
        cfg.backend.kind = kind;
        const CrossRun run = crossValidate(arrivals, cfg);
        ASSERT_EQ(run.analytic.size(), run.queued.size());
        for (std::size_t i = 0; i < run.analytic.size(); ++i)
            EXPECT_EQ(run.analytic[i], run.queued[i]) << "request " << i;
    }
}

TEST(QueuedVault, SaturatedRandomThroughputWithinTolerance)
{
    // Mixed random traffic at saturation: bus-arbitration order
    // differs between the models, but sustained throughput must
    // agree within a few percent.
    Xoshiro256StarStar rng(5);
    std::vector<std::pair<Tick, Packet>> arrivals;
    for (int i = 0; i < 4000; ++i) {
        arrivals.emplace_back(
            i * 2000, read128(static_cast<unsigned>(rng.nextBounded(16)),
                              static_cast<std::uint32_t>(
                                  rng.nextBounded(4096)),
                              rng.nextBounded(1u << 20) * 32));
    }
    const CrossRun run = crossValidate(arrivals);
    const Tick analytic_end =
        *std::max_element(run.analytic.begin(), run.analytic.end());
    const Tick queued_end =
        *std::max_element(run.queued.begin(), run.queued.end());
    const double ratio = static_cast<double>(analytic_end) /
                         static_cast<double>(queued_end);
    EXPECT_NEAR(ratio, 1.0, 0.03);
}

TEST(QueuedVault, FiniteQueueBackpressures)
{
    EventQueue queue;
    QueuedVaultConfig cfg;
    cfg.perBankQueueDepth = 4;
    unsigned completed = 0;
    QueuedVaultController vault(
        cfg, queue, [&completed](const Packet &, Tick) { ++completed; });

    // Flood bank 0 at time zero: depth 4 plus the one in service.
    unsigned accepted = 0;
    for (int i = 0; i < 20; ++i)
        accepted += vault.offer(read128(0, i));
    EXPECT_LT(accepted, 20u);
    EXPECT_GE(accepted, 4u);
    EXPECT_EQ(vault.stats().rejected, 20u - accepted);
    queue.runToCompletion();
    EXPECT_EQ(completed, accepted);
}

TEST(QueuedVault, QueueDrainsAndReaccepts)
{
    EventQueue queue;
    QueuedVaultConfig cfg;
    cfg.perBankQueueDepth = 2;
    QueuedVaultController vault(cfg, queue,
                                [](const Packet &, Tick) {});
    for (int i = 0; i < 3; ++i)
        vault.offer(read128(0, i));
    EXPECT_FALSE(vault.offer(read128(0, 99)));
    queue.runToCompletion();
    EXPECT_EQ(vault.queueDepth(0), 0u);
    EXPECT_TRUE(vault.offer(read128(0, 100)));
}

TEST(QueuedVault, BusBusyTimeMatchesWorkDone)
{
    EventQueue queue;
    QueuedVaultConfig cfg;
    QueuedVaultController vault(cfg, queue,
                                [](const Packet &, Tick) {});
    const int n = 50;
    for (int i = 0; i < n; ++i)
        vault.offer(read128(i % 16, 0));
    queue.runToCompletion();
    // Each 128 B read moves 4 data beats + 1 command beat = 160 bus
    // bytes at 10 GB/s = 16 ns.
    EXPECT_EQ(vault.stats().busBusy,
              static_cast<Tick>(n) * nsToTicks(16.0));
    EXPECT_EQ(vault.stats().completed, static_cast<std::uint64_t>(n));
}

TEST(QueuedVault, BusStageBackpressureBoundsOccupancy)
{
    // With a finite bank-to-bus stage, a saturating source cannot
    // pile unbounded work between the banks and the bus.
    EventQueue queue;
    QueuedVaultConfig cfg;
    cfg.perBankQueueDepth = 8;
    cfg.busQueueLimit = 4;
    std::uint64_t completed = 0;
    double residence_sum = 0.0;
    QueuedVaultController *vault_ptr = nullptr;
    std::function<void()> refill;
    QueuedVaultController vault(
        cfg, queue, [&](const Packet &pkt, Tick at) {
            ++completed;
            residence_sum += ticksToUs(at - pkt.tVaultArrive);
            refill();
        });
    vault_ptr = &vault;
    refill = [&] {
        for (unsigned b = 0; b < 8; ++b) {
            Packet pkt;
            pkt.cmd = Command::Read;
            pkt.payload = 128;
            pkt.bank = static_cast<std::uint8_t>(b);
            pkt.row = static_cast<std::uint32_t>(completed + b);
            vault_ptr->offer(pkt);
        }
    };
    queue.schedule(0, refill);
    queue.runUntil(500 * tickUs);
    ASSERT_GT(completed, 1000u);
    // Mean residence stays bounded (queue depth x service), far from
    // the unbounded growth an infinite stage would show.
    EXPECT_LT(residence_sum / static_cast<double>(completed), 5.0);
}

TEST(QueuedVault, DistinctBanksOverlapLikeAnalytic)
{
    // 8 requests to 8 banks complete far sooner than 8 to one bank.
    EventQueue q1, q2;
    QueuedVaultConfig cfg;
    Tick last_spread = 0, last_single = 0;
    QueuedVaultController spread(
        cfg, q1, [&](const Packet &, Tick at) { last_spread = at; });
    QueuedVaultController single(
        cfg, q2, [&](const Packet &, Tick at) { last_single = at; });
    for (int i = 0; i < 8; ++i) {
        spread.offer(read128(i, 0));
        single.offer(read128(0, i));
    }
    q1.runToCompletion();
    q2.runToCompletion();
    EXPECT_LT(last_spread, last_single);
}

} // namespace
} // namespace hmcsim
