/**
 * @file
 * Tests of the invariant-checker subsystem itself: each checker must
 * fire on a deliberately seeded violation and stay quiet on a healthy
 * system. Checkers are the safety net for every other refactor, so
 * they get direct coverage here.
 */

#include <cstdint>
#include <deque>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "dram/bank.hh"
#include "dram/timings.hh"
#include "hmc/queued_vault.hh"
#include "host/ac510.hh"
#include "host/experiment.hh"
#include "link/flow_control.hh"
#include "protocol/tag_pool.hh"
#include "sim/check.hh"
#include "sim/event_queue.hh"
#include "sim/random.hh"
#include "sim/stat_registry.hh"

namespace hmcsim
{
namespace
{

/** Collects violation dumps instead of aborting. */
struct CapturingRegistry
{
    CheckerRegistry registry;
    std::vector<std::string> reports;

    CapturingRegistry()
    {
        registry.setFailureHandler(
            [this](const std::string &report) {
                reports.push_back(report);
            });
    }
};

// ---------------------------------------------------------------------------
// CheckerRegistry mechanics
// ---------------------------------------------------------------------------

TEST(CheckerRegistry, QuietCheckersReportNothing)
{
    CapturingRegistry cap;
    cap.registry.addLambda("always.ok",
                           [](Tick) { return std::string(); });
    cap.registry.runAll(123);
    EXPECT_TRUE(cap.reports.empty());
    EXPECT_EQ(cap.registry.checksRun(), 1u);
    EXPECT_EQ(cap.registry.violations(), 0u);
}

TEST(CheckerRegistry, ViolationDumpNamesCheckerAndTick)
{
    CapturingRegistry cap;
    cap.registry.addLambda("healthy", [](Tick) { return std::string(); });
    cap.registry.addLambda("broken.counter", [](Tick) {
        return std::string("count went negative");
    });
    cap.registry.runAll(4567);

    ASSERT_EQ(cap.reports.size(), 1u);
    EXPECT_NE(cap.reports[0].find("tick 4567"), std::string::npos);
    EXPECT_NE(cap.reports[0].find("broken.counter"), std::string::npos);
    EXPECT_NE(cap.reports[0].find("count went negative"),
              std::string::npos);
    // The dump lists sibling checker status for context.
    EXPECT_NE(cap.reports[0].find("healthy"), std::string::npos);
    EXPECT_EQ(cap.registry.violations(), 1u);
}

// ---------------------------------------------------------------------------
// Event-queue time monotonicity
// ---------------------------------------------------------------------------

TEST(EventQueueInvariants, PastTickScheduleDies)
{
    EventQueue queue;
    queue.schedule(100, [] {});
    queue.runToCompletion();
    ASSERT_EQ(queue.now(), 100u);
    // Enqueueing an event before now() is the seeded violation: the
    // always-on check must abort the process.
    EXPECT_DEATH(queue.schedule(50, [] {}),
                 "scheduling event in the past");
}

TEST(EventQueueInvariants, CheckersRunAtDrainPoints)
{
    EventQueue queue;
    CapturingRegistry cap;
    std::uint64_t sweeps = 0;
    cap.registry.addLambda("count.sweeps", [&sweeps](Tick) {
        ++sweeps;
        return std::string();
    });
    queue.setCheckers(&cap.registry, 1);

    queue.schedule(10, [] {});
    queue.schedule(20, [] {});
    queue.runToCompletion();
    // One sweep per executed event plus one at the final drain.
    EXPECT_EQ(sweeps, 3u);
}

TEST(EventQueueInvariants, CheckEveryNThrottlesSweeps)
{
    EventQueue queue;
    CapturingRegistry cap;
    std::uint64_t sweeps = 0;
    cap.registry.addLambda("count.sweeps", [&sweeps](Tick) {
        ++sweeps;
        return std::string();
    });
    queue.setCheckers(&cap.registry, 4);

    for (Tick t = 1; t <= 8; ++t)
        queue.schedule(t, [] {});
    queue.runToCompletion();
    // Two throttled sweeps (after events 4 and 8) plus the drain.
    EXPECT_EQ(sweeps, 3u);
}

TEST(EventQueueInvariants, ViolationFiresAtOffendingTick)
{
    EventQueue queue;
    CapturingRegistry cap;
    bool broken = false;
    cap.registry.addLambda("trip.wire", [&broken](Tick) {
        return broken ? std::string("tripped") : std::string();
    });
    queue.setCheckers(&cap.registry, 1);

    queue.schedule(10, [] {});
    queue.schedule(20, [&broken] { broken = true; });
    queue.schedule(30, [] {});
    queue.runToCompletion();

    // The sweep after the tick-20 event catches the violation there,
    // not at 30 and not at the end of the run.
    ASSERT_FALSE(cap.reports.empty());
    EXPECT_NE(cap.reports[0].find("tick 20"), std::string::npos);
}

// ---------------------------------------------------------------------------
// Flow-control token conservation
// ---------------------------------------------------------------------------

TEST(TokenInvariants, ConservationHoldsThroughTraffic)
{
    TokenFlowControl fc(64);
    std::uint64_t in_flight = 0;
    TokenConservationChecker checker("link0.tokens", fc,
                                     [&in_flight] { return in_flight; });

    ASSERT_TRUE(fc.consume(9));
    in_flight += 9;
    ASSERT_TRUE(fc.consume(5));
    in_flight += 5;
    EXPECT_EQ(checker.check(0), "");

    fc.returnTokens(9);
    in_flight -= 9;
    EXPECT_EQ(checker.check(0), "");
}

TEST(TokenInvariants, LeakedTokensFire)
{
    TokenFlowControl fc(64);
    std::uint64_t in_flight = 0;
    TokenConservationChecker checker("link0.tokens", fc,
                                     [&in_flight] { return in_flight; });

    // Seeded violation: consume tokens without accounting the packet
    // as in flight -- the model "lost" 9 flits of credit.
    ASSERT_TRUE(fc.consume(9));
    const std::string report = checker.check(0);
    EXPECT_NE(report.find("token conservation broken"),
              std::string::npos);
    EXPECT_NE(report.find("leaked"), std::string::npos);
}

TEST(TokenInvariants, DuplicatedTokensFire)
{
    TokenFlowControl fc(64);
    // Seeded violation: claim flits are in flight that never consumed
    // tokens (the dual bug: returning credit twice).
    TokenConservationChecker checker("link0.tokens", fc,
                                     [] { return std::uint64_t(7); });
    const std::string report = checker.check(0);
    EXPECT_NE(report.find("duplicated"), std::string::npos);
}

TEST(TokenInvariants, OverReturnDies)
{
    TokenFlowControl fc(8);
    ASSERT_TRUE(fc.consume(4));
    EXPECT_DEATH(fc.returnTokens(5),
                 "token return exceeds buffer capacity");
}

// ---------------------------------------------------------------------------
// Tag pool: leaks and live-tag reuse
// ---------------------------------------------------------------------------

TEST(TagPoolInvariants, HealthyPoolValidates)
{
    TagPool pool(8);
    const std::uint16_t a = pool.allocate();
    const std::uint16_t b = pool.allocate();
    EXPECT_EQ(pool.validate(), "");
    pool.release(a);
    pool.release(b);
    EXPECT_EQ(pool.validate(), "");
}

TEST(TagPoolInvariants, LiveTagReuseFires)
{
    TagPool pool(8);
    std::uint64_t outstanding = 0;
    TagPoolChecker checker("port0.tags", pool,
                           [&outstanding] { return outstanding; });

    const std::uint16_t tag = pool.allocate();
    ++outstanding;
    EXPECT_EQ(checker.check(0), "");

    // Seeded violation: the response handler releases a tag while the
    // request is still counted outstanding -- the next allocate()
    // would hand the same identity to two live reads.
    pool.release(tag);
    const std::string report = checker.check(0);
    EXPECT_NE(report.find("tag accounting mismatch"), std::string::npos);
    EXPECT_NE(report.find("tag reuse"), std::string::npos);
}

TEST(TagPoolInvariants, TagLeakFires)
{
    TagPool pool(8);
    std::uint64_t outstanding = 0;
    TagPoolChecker checker("port0.tags", pool,
                           [&outstanding] { return outstanding; });

    // Seeded violation: a tag is allocated but the owner forgot the
    // request (e.g. dropped the packet without releasing) -- the pool
    // slowly drains and the port chokes.
    (void)pool.allocate();
    const std::string report = checker.check(0);
    EXPECT_NE(report.find("tag leak"), std::string::npos);
}

TEST(TagPoolInvariants, DoubleReleaseDies)
{
    TagPool pool(4);
    std::vector<std::uint16_t> tags;
    for (int i = 0; i < 4; ++i)
        tags.push_back(pool.allocate());
    pool.release(tags[0]);
    pool.release(tags[1]);
    pool.release(tags[2]);
    pool.release(tags[3]);
    EXPECT_DEATH(pool.release(tags[0]), "double release");
}

// ---------------------------------------------------------------------------
// Bank state-machine legality
// ---------------------------------------------------------------------------

TEST(BankInvariants, ClosedPageStaysLegalUnderTraffic)
{
    Bank bank;
    const DramTimings t = hmcGen2Timings();
    Tick ready = 0;
    for (std::uint32_t row = 0; row < 16; ++row) {
        const BankAccessResult res =
            bank.access(t, PagePolicy::Closed, ready, row, 32,
                        row % 2 == 0);
        ready = res.bankFree;
        EXPECT_EQ(bank.validate(PagePolicy::Closed), "");
    }
}

TEST(BankInvariants, OpenRowUnderClosedPolicyFires)
{
    Bank bank;
    const DramTimings t = hmcGen2Timings();
    // Seeded violation: drive the bank with open-page semantics (the
    // row stays open) while the vault believes it runs closed-page.
    bank.access(t, PagePolicy::Open, 0, 7, 32, false);
    const std::string report = bank.validate(PagePolicy::Closed);
    EXPECT_NE(report.find("left row 7 open"), std::string::npos);

    BankStateChecker checker(
        "vault0.banks", PagePolicy::Closed,
        [&bank]() -> const std::vector<Bank> & {
            static std::vector<Bank> banks;
            banks.assign(1, bank);
            return banks;
        });
    EXPECT_NE(checker.check(0).find("bank 0"), std::string::npos);
}

TEST(BankInvariants, OpenPageRowStateIsLegal)
{
    Bank bank;
    const DramTimings t = hmcGen2Timings();
    bank.access(t, PagePolicy::Open, 0, 7, 32, false);
    EXPECT_EQ(bank.validate(PagePolicy::Open), "");
}

// ---------------------------------------------------------------------------
// Vault queue occupancy bounds
// ---------------------------------------------------------------------------

TEST(VaultInvariants, QueuedVaultStaysWithinBounds)
{
    // Every storage engine behind finite bank queues and a finite bus
    // stage, under a mixed read/write/atomic load with multi-us quiet
    // gaps (refresh catch-up on the DRAM engines, drained write rings
    // on NVM) and the checker sweep after every event.
    for (const BackendKind kind :
         {BackendKind::HmcDram, BackendKind::Ddr4, BackendKind::Nvm}) {
        SCOPED_TRACE(backendName(kind));
        EventQueue queue;
        QueuedVaultConfig cfg;
        cfg.base.backend.kind = kind;
        cfg.base.refreshEnabled = true;
        cfg.perBankQueueDepth = 4;
        cfg.busQueueLimit = 4;
        std::uint64_t completed = 0;
        QueuedVaultController vault(
            cfg, queue,
            [&completed](const Packet &, Tick) { ++completed; });

        CapturingRegistry cap;
        vault.registerCheckers(cap.registry, "vault0");
        queue.setCheckers(&cap.registry, 1);

        // Rejected offers are held and retried in order (the caller's
        // side of the backpressure contract), so every request lands.
        std::deque<Packet> held;
        const auto retry = [&] {
            while (!held.empty() && vault.offer(held.front()))
                held.pop_front();
        };
        Xoshiro256StarStar rng(43);
        const unsigned n = 400;
        for (unsigned i = 0; i < n; ++i) {
            queue.runUntil(queue.now() +
                           (i % 100 == 99 ? 5 * tickUs : 400));
            Packet pkt;
            pkt.id = i;
            pkt.cmd = i % 7 == 0   ? Command::Atomic
                      : i % 3 == 0 ? Command::Write
                                   : Command::Read;
            pkt.payload = pkt.cmd == Command::Atomic
                              ? 16
                              : 32u << rng.nextBounded(3);
            pkt.addr = rng.nextBounded(1u << 20) * 16;
            pkt.bank = static_cast<std::uint8_t>(
                rng.nextBounded(cfg.base.numBanks));
            pkt.row = static_cast<std::uint32_t>(rng.nextBounded(4096));
            held.push_back(pkt);
            retry();
        }
        while (!held.empty()) {
            queue.runUntil(queue.now() + 1000);
            retry();
        }
        queue.runToCompletion();

        EXPECT_TRUE(cap.reports.empty()) << cap.reports.front();
        EXPECT_GT(vault.stats().rejected, 0u);
        EXPECT_EQ(vault.stats().accepted, n);
        EXPECT_EQ(completed, n);
        EXPECT_GT(cap.registry.checksRun(), 0u);
    }
}

TEST(VaultInvariants, AnalyticVaultCheckersStayQuiet)
{
    VaultConfig cfg;
    VaultController vault(cfg);
    CapturingRegistry cap;
    vault.registerCheckers(cap.registry, "vault0");

    Packet pkt;
    pkt.cmd = Command::Read;
    pkt.payload = 128;
    for (unsigned i = 0; i < 32; ++i) {
        pkt.bank = i % cfg.numBanks;
        pkt.row = i;
        vault.service(pkt, i * 1000);
    }
    cap.registry.runAll(100000);
    EXPECT_TRUE(cap.reports.empty()) << cap.reports.front();
}

// ---------------------------------------------------------------------------
// Full system: a healthy run never trips a checker
// ---------------------------------------------------------------------------

TEST(SystemInvariants, FullSystemRunIsClean)
{
    Ac510Config sys;
    sys.numPorts = 4;
    sys.port.mix = RequestMix::ReadModifyWrite;
    Ac510Module module(sys);

    // Force the full sweep on regardless of build type, capturing
    // instead of aborting so a regression reports nicely.
    module.enableInvariantChecks(8);
    std::vector<std::string> reports;
    module.checkers().setFailureHandler(
        [&reports](const std::string &r) { reports.push_back(r); });

    module.start();
    module.runUntil(50 * tickUs);
    module.stop();
    module.runToCompletion();

    EXPECT_TRUE(reports.empty()) << reports.front();
    EXPECT_GT(module.checkers().checksRun(), 0u);
    EXPECT_GT(module.aggregateStats().readsCompleted, 0u);
}

TEST(SystemInvariants, FlowControlledSystemRunIsClean)
{
    Ac510Config sys;
    sys.numPorts = 9;
    // Engage the token flow-control path with a tight buffer so the
    // stop signal actually asserts during the run.
    sys.controller.inputBufferFlits = 32;
    Ac510Module module(sys);

    module.enableInvariantChecks(4);
    std::vector<std::string> reports;
    module.checkers().setFailureHandler(
        [&reports](const std::string &r) { reports.push_back(r); });

    module.start();
    module.runUntil(50 * tickUs);
    module.stop();
    module.runToCompletion();

    EXPECT_TRUE(reports.empty()) << reports.front();
    EXPECT_GT(module.controller().stats().flowControlStalls, 0u);
}

// ---------------------------------------------------------------------------
// Determinism self-check
// ---------------------------------------------------------------------------

TEST(SelfCheck, BackToBackRunsAreBitIdentical)
{
    ExperimentConfig cfg;
    cfg.numPorts = 2;
    cfg.warmup = 5 * tickUs;
    cfg.measure = 20 * tickUs;
    const SelfCheckResult res = runSelfCheck(cfg);
    EXPECT_TRUE(res.identical())
        << "first mismatch: " << res.firstMismatch;
    EXPECT_GT(res.numStats, 0u);
    EXPECT_EQ(res.digestFirst, res.digestSecond);
}

TEST(SelfCheck, DigestIsSensitiveToValues)
{
    StatRegistry a;
    double va = 1.0;
    a.addValue("x", "", &va);
    const std::uint64_t d1 = a.digest();
    va = 2.0;
    const std::uint64_t d2 = a.digest();
    EXPECT_NE(d1, d2);
}

TEST(SelfCheck, DigestIgnoresRegistrationOrder)
{
    double x = 3.5, y = -7.25;
    StatRegistry a;
    a.addValue("alpha", "", &x);
    a.addValue("beta", "", &y);
    StatRegistry b;
    b.addValue("beta", "", &y);
    b.addValue("alpha", "", &x);
    EXPECT_EQ(a.digest(), b.digest());
}

} // namespace
} // namespace hmcsim
