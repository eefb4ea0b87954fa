/**
 * @file
 * Stat-digest goldens for closed-loop GUPS. Every value below was
 * recorded before closed-loop ports learned to reserve issue slots and
 * to issue inline from a delivery (src/gups/gups_port.cc,
 * docs/performance.md); the configs between them reach every branch
 * of GupsPort::canIssue(): all four mixes, a request budget that runs
 * out, a stopped port that still retires dependent rw writes, cube
 * input-buffer flow control (requests park in the controller and are
 * released by a delivery), link-error retries, thermal shutdown, tiny
 * tag pools and write FIFOs, and a warm-start sweep whose forks hold
 * reserved slots. Any event-order change shows up here as a digest
 * change.
 */

#include <gtest/gtest.h>

#include <cinttypes>
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "host/ac510.hh"
#include "host/experiment.hh"
#include "runner/sweep.hh"
#include "sim/stat_registry.hh"

namespace hmcsim
{
namespace
{

std::string
hex(std::uint64_t v)
{
    char buf[17];
    std::snprintf(buf, sizeof(buf), "%016" PRIx64, v);
    return buf;
}

/** A small full-system config: short windows, the paper's defaults
 *  otherwise. */
Ac510Config
smallSystem(RequestMix mix, unsigned ports = 4)
{
    Ac510Config sys;
    sys.numPorts = ports;
    sys.port.mix = mix;
    sys.port.requestSize = 64;
    sys.seed = 17;
    return sys;
}

/** Digest of every registered stat after running @p sys to @p end,
 *  or until the queue drains when @p end is 0; @p mid runs on the
 *  module at tick @p at. */
template <typename Mid>
std::string
runDigest(const Ac510Config &sys, Tick at, Tick end, Mid mid)
{
    Ac510Module module(sys);
    StatRegistry registry;
    module.registerStats(registry, StatPath("system"));
    module.start();
    module.runUntil(at);
    mid(module);
    if (end == 0)
        module.runToCompletion();
    else
        module.runUntil(end);
    return hex(registry.digest());
}

std::string
runDigest(const Ac510Config &sys, Tick end)
{
    return runDigest(sys, end / 2, end, [](Ac510Module &) {});
}

/** A module run to @p end, for checking that a config reaches the
 *  path it is meant to. */
std::unique_ptr<Ac510Module>
ran(const Ac510Config &sys, Tick end)
{
    auto module = std::make_unique<Ac510Module>(sys);
    module->start();
    module->runUntil(end);
    return module;
}

TEST(ClosedLoopGolden, EachMix)
{
    EXPECT_EQ(runDigest(smallSystem(RequestMix::ReadOnly), 30 * tickUs),
              "38308ebd2e564f30");
    EXPECT_EQ(runDigest(smallSystem(RequestMix::WriteOnly), 30 * tickUs),
              "4800c4b6476868ad");
    EXPECT_EQ(runDigest(smallSystem(RequestMix::ReadModifyWrite),
                        30 * tickUs),
              "55c0b73e017b6655");
    EXPECT_EQ(runDigest(smallSystem(RequestMix::Atomic), 30 * tickUs),
              "c9a389c9cb6fe703");
}

TEST(ClosedLoopGolden, MixedPortsOnNarrowPools)
{
    // One port per mix, with tag pools and write FIFOs small enough
    // that every port spends most of the run blocked.
    Ac510Config sys = smallSystem(RequestMix::ReadOnly);
    const RequestMix mixes[] = {RequestMix::ReadOnly, RequestMix::WriteOnly,
                                RequestMix::ReadModifyWrite,
                                RequestMix::Atomic};
    for (unsigned i = 0; i < sys.numPorts; ++i) {
        GupsPortConfig port = sys.port;
        port.mix = mixes[i];
        port.requestSize = 32 << (i % 3);
        port.tagPoolDepth = 2 + i;
        port.writeCreditDepth = 3;
        sys.perPort.push_back(port);
    }
    EXPECT_EQ(runDigest(sys, 30 * tickUs), "5c6a5ec21d4fa6e7");
}

TEST(ClosedLoopGolden, RequestBudgetRunsOut)
{
    for (const RequestMix mix :
         {RequestMix::ReadOnly, RequestMix::ReadModifyWrite}) {
        Ac510Config sys = smallSystem(mix);
        sys.port.requestBudget = 150;
        sys.port.tagPoolDepth = 8;
        EXPECT_EQ(runDigest(sys, 5 * tickUs, 0, [](Ac510Module &) {}),
                  mix == RequestMix::ReadOnly ? "f77dbb8dd17b300c"
                                              : "2bb3b756487a90df");
    }
}

TEST(ClosedLoopGolden, StoppedRmwPortRetiresPendingWrites)
{
    // Four credits make the write FIFO the limit; that run drains.
    // With 64 credits and 16 B requests, read responses return faster
    // than one issue per cycle, so dependent writes queue behind the
    // issue interval; that run stops mid-drain, so the digest sees
    // when each write went out.
    for (const unsigned credits : {4u, 64u}) {
        Ac510Config sys = smallSystem(RequestMix::ReadModifyWrite);
        sys.port.writeCreditDepth = credits;
        if (credits == 64)
            sys.port.requestSize = 16;
        EXPECT_EQ(runDigest(sys, 10 * tickUs, credits == 4 ? 0 : 11 * tickUs,
                            [](Ac510Module &m) { m.stop(); }),
                  credits == 4 ? "4d1a03261a066ea4" : "8d86d39ba455c91c");
    }
}

TEST(ClosedLoopGolden, InputBufferParksRequests)
{
    for (const RequestMix mix :
         {RequestMix::ReadOnly, RequestMix::WriteOnly,
          RequestMix::ReadModifyWrite}) {
        Ac510Config sys = smallSystem(mix, 9);
        sys.controller.inputBufferFlits = 24;
        EXPECT_GT(ran(sys, 30 * tickUs)->controller().stats().flowControlStalls,
                  0u);
        EXPECT_EQ(runDigest(sys, 30 * tickUs),
                  mix == RequestMix::ReadOnly    ? "06e6642bc0863d8f"
                  : mix == RequestMix::WriteOnly ? "10955792f4ec297b"
                                                 : "c23db1137c14db93");
    }
}

TEST(ClosedLoopGolden, LinkErrorRetries)
{
    Ac510Config sys = smallSystem(RequestMix::ReadModifyWrite, 9);
    sys.controller.bitErrorRate = 2e-6;
    EXPECT_GT(ran(sys, 30 * tickUs)->controller().linkRetries(), 0u);
    EXPECT_EQ(runDigest(sys, 30 * tickUs), "355b9dde169818f2");
}

TEST(ClosedLoopGolden, ThermalShutdownMidRun)
{
    Ac510Config sys = smallSystem(RequestMix::ReadOnly, 9);
    EXPECT_EQ(runDigest(sys, 12 * tickUs, 30 * tickUs,
                        [](Ac510Module &m) {
                            m.device().setThermalShutdown(true);
                        }),
              "16dd8916c3702882");
}

TEST(ClosedLoopGolden, WarmStartSweep)
{
    SweepAxes axes;
    axes.base.numPorts = 9;
    axes.base.seed = 5;
    axes.base.warmup = 15 * tickUs;
    axes.mixes = {RequestMix::ReadOnly, RequestMix::WriteOnly,
                  RequestMix::ReadModifyWrite, RequestMix::Atomic};
    axes.sizes = {32, 128};
    axes.measures = {7 * tickUs, 19 * tickUs};
    SweepOptions opts;
    opts.jobs = 2;
    opts.warmStart = true;
    opts.deriveSeeds = false;
    std::string digests;
    for (const SweepPointResult &point : SweepRunner(opts).run(axes))
        digests += hex(point.statDigest) + " ";
    EXPECT_EQ(digests,
              "5e591a4e598f8cdb 387a0595b0b63610 956903040cd38b2b "
              "135578574b1cfe87 ffc6739a9e8286bd fffe954de5b5d6aa "
              "aefd6499e5c46a87 83e9c0312ac1006d 4bec6aab34ef1642 "
              "2919e2af66f25d70 0ed8b50f4b2ebf16 fbb75850957fca09 "
              "1a5824866b265fe2 2d1b215c2c4ce778 1a5824866b265fe2 "
              "2d1b215c2c4ce778 ");
}

} // namespace
} // namespace hmcsim
