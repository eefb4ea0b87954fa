/**
 * @file
 * hmcbench: one process of one benchmark workload.
 *
 * run.py launches this binary once per repetition and reads the JSON
 * object it prints as its last stdout line. Every mode times only its
 * own phase and reports `t_first_ns` (CLOCK_MONOTONIC just before the
 * first timed operation, after the mode's own set-up) so the caller can
 * measure set-up from its spawn.
 *
 *   hmcbench gups      --seed S [--trace] [--setup-only]
 *   hmcbench fleet     --seed S --calls N [--trace] [--setup-only]
 *   hmcbench serve     --seed S --cli PATH --dir DIR [--trace]
 *   hmcbench serve-ref --seed S
 *
 * Untraced modes call the program the way a user does: SweepRunner,
 * runFleet, or an `hmcsim_cli serve` child over pipes. With --trace
 * the same work is re-driven through each layer's public functions
 * with a span around every call, and each layer's per-call cost is
 * replayed in isolation on inputs generated from the workload's own
 * configs (see README.md in this directory).
 */

#include <fcntl.h>
#include <poll.h>
#include <signal.h>
#include <spawn.h>
#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <memory>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "dist/store.hh"
#include "gups/address_generator.hh"
#include "gups/arrival_feed.hh"
#include "gups/patterns.hh"
#include "hmc/address_mapper.hh"
#include "hmc/vault_controller.hh"
#include "host/ac510.hh"
#include "host/experiment.hh"
#include "link/link.hh"
#include "mem/backend.hh"
#include "protocol/fields.hh"
#include "runner/config_digest.hh"
#include "runner/result_cache.hh"
#include "runner/sink.hh"
#include "runner/sweep.hh"
#include "runner/thread_pool.hh"
#include "service/fleet.hh"
#include "sim/event_queue.hh"
#include "sim/random.hh"
#include "sim/stat_registry.hh"

extern char **environ;

namespace
{

using namespace hmcsim;
using Clock = std::chrono::steady_clock;

// ---------------------------------------------------------------------------
// Small utilities
// ---------------------------------------------------------------------------

std::int64_t
monoNs()
{
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               Clock::now().time_since_epoch())
        .count();
}

double
nsSince(Clock::time_point t0)
{
    return std::chrono::duration<double, std::nano>(Clock::now() - t0)
        .count();
}

/** Workload seed stream: distinct salts give decorrelated seeds. */
std::uint64_t
mixSeed(std::uint64_t seed, std::uint64_t salt)
{
    std::uint64_t state = seed ^ salt;
    const std::uint64_t out = splitMix64(state);
    return out ? out : 1;
}

std::uint64_t
fnv1a(const std::string &bytes)
{
    std::uint64_t h = 0xcbf29ce484222325ULL;
    for (const unsigned char c : bytes) {
        h ^= c;
        h *= 0x100000001b3ULL;
    }
    return h;
}

std::string
hex64(std::uint64_t v)
{
    char buf[20];
    std::snprintf(buf, sizeof(buf), "%016" PRIx64, v);
    return buf;
}

std::string
num(double v)
{
    char buf[40];
    std::snprintf(buf, sizeof(buf), "%.17g", v);
    return buf;
}

std::string
quote(const std::string &s)
{
    std::string out = "\"";
    for (const char c : s) {
        if (c == '\n') {
            out += "\\n";
            continue;
        }
        if (c == '"' || c == '\\')
            out += '\\';
        out += c;
    }
    return out + "\"";
}

/** The text of one JSON object, keys in insertion order. */
class JsonObject
{
  public:
    JsonObject &
    raw(const std::string &key, const std::string &value)
    {
        text += (text.empty() ? "{" : ",") + quote(key) + ":" + value;
        return *this;
    }
    JsonObject &
    add(const std::string &key, double value)
    {
        return raw(key, num(value));
    }
    JsonObject &
    str(const std::string &key, const std::string &value)
    {
        return raw(key, quote(value));
    }
    std::string
    done() const
    {
        return text.empty() ? "{}" : text + "}";
    }

  private:
    std::string text;
};

std::string
jsonList(const std::vector<std::string> &items)
{
    std::string out = "[";
    for (std::size_t i = 0; i < items.size(); ++i)
        out += (i ? "," : "") + items[i];
    return out + "]";
}

std::string
jsonNumbers(const std::vector<double> &values)
{
    std::vector<std::string> items;
    items.reserve(values.size());
    for (const double v : values)
        items.push_back(num(v));
    return jsonList(items);
}

/** Output of a --setup-only launch: it stops at the first timed op. */
int
printSetupOnly(std::int64_t t_first)
{
    std::printf("%s\n", JsonObject()
                            .add("t_first_ns", static_cast<double>(t_first))
                            .done()
                            .c_str());
    return 0;
}

/** Largest peak RSS (kB) of any `serve` child reaped so far. */
double gChildPeakKb = 0.0;

/**
 * Peak resident set (kB) of this process and its reaped children.
 * VmHWM, not getrusage: ru_maxrss survives exec, so it would report
 * the launching interpreter's footprint.
 */
double
peakRssKb()
{
    std::ifstream status("/proc/self/status");
    std::string line;
    double self = 0.0;
    while (std::getline(status, line))
        if (line.rfind("VmHWM:", 0) == 0)
            self = std::strtod(line.c_str() + 6, nullptr);
    return std::max(self, gChildPeakKb);
}

struct Args
{
    std::string mode;
    std::uint64_t seed = 1;
    bool trace = false;
    bool setupOnly = false;
    unsigned calls = 8;
    std::string cli;
    std::string dir;
};

[[noreturn]] void
die(const char *msg)
{
    std::fprintf(stderr, "hmcbench: %s\n", msg);
    std::exit(2);
}

Args
parseArgs(int argc, char **argv)
{
    if (argc < 2)
        die("usage: hmcbench gups|fleet|serve|serve-ref --seed S ...");
    Args a;
    a.mode = argv[1];
    for (int i = 2; i < argc; ++i) {
        const std::string arg = argv[i];
        const auto value = [&]() -> std::string {
            if (++i >= argc)
                die("missing flag value");
            return argv[i];
        };
        const auto count = [&]() -> unsigned {
            return static_cast<unsigned>(
                std::strtoul(value().c_str(), nullptr, 0));
        };
        if (arg == "--seed")
            a.seed = std::strtoull(value().c_str(), nullptr, 0);
        else if (arg == "--trace")
            a.trace = true;
        else if (arg == "--setup-only")
            a.setupOnly = true;
        else if (arg == "--calls")
            a.calls = count();
        else if (arg == "--cli")
            a.cli = value();
        else if (arg == "--dir")
            a.dir = value();
        else
            die("unknown flag");
    }
    return a;
}

// ---------------------------------------------------------------------------
// Spans and counts
// ---------------------------------------------------------------------------

/** Accumulated duration and call count of one span name. */
struct Span
{
    double ns = 0.0;
    std::uint64_t calls = 0;

    void
    add(double d)
    {
        ns += d;
        ++calls;
    }
    void
    merge(const Span &o)
    {
        ns += o.ns;
        calls += o.calls;
    }
    double
    meanNs() const
    {
        return calls ? ns / static_cast<double>(calls) : 0.0;
    }
};

/** Deterministic counts of one simulation (must repeat exactly). */
struct SimCounts
{
    std::uint64_t events = 0;       ///< every event executed
    std::uint64_t windowEvents = 0; ///< events in the measured window
    std::uint64_t requests = 0;     ///< completed in the window
    std::uint64_t readsIssued = 0;
    std::uint64_t writesIssued = 0;
    std::uint64_t windowWireBytes = 0; ///< controller tx+rx, window
    std::uint64_t wireBytes = 0;       ///< controller tx+rx, whole run
    std::uint64_t retries = 0;
    std::uint64_t flowControlStalls = 0;
    std::uint64_t vaultAccesses = 0;
    std::uint64_t rowHits = 0;
    std::uint64_t pendingPeak = 0;
    std::uint64_t overflowPeak = 0;
    double pendingSum = 0.0;
    std::uint64_t pendingSamples = 0;
    double busBusy = 0.0;     ///< sum of vault data-bus busy ticks
    double busCapacity = 0.0; ///< vaults x elapsed ticks
    /** Sampled scheduling distances (probeDeltas). */
    std::vector<Tick> deltas;

    void
    merge(const SimCounts &o)
    {
        events += o.events;
        windowEvents += o.windowEvents;
        requests += o.requests;
        readsIssued += o.readsIssued;
        writesIssued += o.writesIssued;
        windowWireBytes += o.windowWireBytes;
        wireBytes += o.wireBytes;
        retries += o.retries;
        flowControlStalls += o.flowControlStalls;
        vaultAccesses += o.vaultAccesses;
        rowHits += o.rowHits;
        pendingPeak = std::max(pendingPeak, o.pendingPeak);
        overflowPeak = std::max(overflowPeak, o.overflowPeak);
        pendingSum += o.pendingSum;
        pendingSamples += o.pendingSamples;
        busBusy += o.busBusy;
        busCapacity += o.busCapacity;
        deltas.insert(deltas.end(), o.deltas.begin(), o.deltas.end());
    }

    std::string
    json() const
    {
        return JsonObject()
            .add("events", static_cast<double>(events))
            .add("window_events", static_cast<double>(windowEvents))
            .add("requests", static_cast<double>(requests))
            .add("reads_issued", static_cast<double>(readsIssued))
            .add("writes_issued", static_cast<double>(writesIssued))
            .add("wire_bytes", static_cast<double>(wireBytes))
            .add("retries", static_cast<double>(retries))
            .add("flow_control_stalls",
                 static_cast<double>(flowControlStalls))
            .add("vault_accesses", static_cast<double>(vaultAccesses))
            .add("row_hits", static_cast<double>(rowHits))
            .done();
    }
};

/** Host-time spans of the host layer for one simulated system. */
struct HostSpans
{
    Span build, warmup, measure, stats, total;

    void
    merge(const HostSpans &o)
    {
        build.merge(o.build);
        warmup.merge(o.warmup);
        measure.merge(o.measure);
        stats.merge(o.stats);
        total.merge(o.total);
    }
};

/**
 * Record scheduling distances: step the queue in 1 ns sub-slices and,
 * after each, take every newly scheduled event still pending (seq at
 * or past the previous counter) as when - now. Events scheduled and
 * run inside one sub-slice count as distance 0.
 */
void
probeDeltas(EventQueue &q, SimCounts &c)
{
    constexpr unsigned subSlices = 50;
    std::uint64_t seq = q.seqCounter();
    for (unsigned i = 0; i < subSlices; ++i) {
        q.runUntil(q.now() + tickNs);
        const auto pending = q.pendingSnapshot();
        auto it = std::lower_bound(
            pending.begin(), pending.end(), seq,
            [](const EventQueue::PendingView &v, std::uint64_t s) {
                return v.seq < s;
            });
        const auto fresh = static_cast<std::uint64_t>(pending.end() - it);
        for (; it != pending.end(); ++it)
            c.deltas.push_back(it->when - q.now());
        for (std::uint64_t k = fresh; k < q.seqCounter() - seq; ++k)
            c.deltas.push_back(0);
        seq = q.seqCounter();
    }
}

/**
 * Run to @p limit in 1 us runUntil slices, sampling the queue depth
 * after each; with @p probe, every 64th slice also records scheduling
 * distances for the queue replay.
 */
void
runSliced(Ac510Module &module, Tick limit, SimCounts &c, bool probe)
{
    constexpr Tick slice = tickUs;
    EventQueue &q = module.queue();
    while (q.now() < limit) {
        if (probe && c.pendingSamples % 64 == 8 && q.now() + tickUs <= limit)
            probeDeltas(q, c);
        q.runUntil(std::min(limit, q.now() + slice));
        c.pendingPeak = std::max<std::uint64_t>(c.pendingPeak, q.pending());
        c.overflowPeak =
            std::max<std::uint64_t>(c.overflowPeak, q.overflowPending());
        c.pendingSum += static_cast<double>(q.pending());
        ++c.pendingSamples;
    }
}

std::uint64_t
controllerWireBytes(Ac510Module &module)
{
    const ControllerStats &s = module.controller().stats();
    return s.txWireBytes + s.rxWireBytes;
}

/** Fold the end-of-run component counters into @p c. */
void
collectComponentCounts(Ac510Module &module, SimCounts &c)
{
    c.events = module.queue().executed();
    c.wireBytes = controllerWireBytes(module);
    c.retries = module.controller().linkRetries();
    c.flowControlStalls = module.controller().stats().flowControlStalls;
    const Tick elapsed = module.queue().now();
    for (unsigned v = 0; v < module.device().numVaults(); ++v) {
        const VaultController &vault = module.device().vault(v);
        const VaultStats &vs = vault.stats();
        c.vaultAccesses += vs.reads + vs.writes + vs.atomics;
        c.rowHits += vs.rowHits;
        c.busBusy += vault.busUtilization(elapsed) *
                     static_cast<double>(elapsed);
        c.busCapacity += static_cast<double>(elapsed);
    }
}

/**
 * The plot-unit fold runExperiment applies to the module's port
 * counters (host/experiment.cc). Replicated so the traced pass can
 * produce the JSONL line itself; run.py checks it byte-equal to the
 * untraced program's line.
 */
MeasurementResult
summarizeRun(const Ac510Module &module, const ExperimentConfig &cfg)
{
    const GupsPortStats agg = module.aggregateStats();
    const double seconds = ticksToSeconds(cfg.measure);
    MeasurementResult res;
    res.patternName = cfg.pattern.name;
    res.mix = cfg.mix;
    res.requestSize = cfg.requestSize;
    res.rawGBps = toGBps(static_cast<double>(agg.rawBytes) / seconds);
    res.readMrps = static_cast<double>(agg.readsCompleted) / seconds / 1e6;
    res.writeMrps =
        static_cast<double>(agg.writesCompleted) / seconds / 1e6;
    res.mrps = res.readMrps + res.writeMrps;
    res.readPayloadGBps =
        toGBps(static_cast<double>(agg.readPayloadBytes) / seconds);
    res.writePayloadGBps =
        toGBps(static_cast<double>(agg.writePayloadBytes) / seconds);
    res.readLatencyNs = agg.readLatencyNs;
    res.writeLatencyNs = agg.writeLatencyNs;
    if (agg.readLatencyHistNs.totalSamples() > 0) {
        res.readLatencyP50Ns = agg.readLatencyHistNs.quantile(0.5);
        res.readLatencyP99Ns = agg.readLatencyHistNs.quantile(0.99);
        res.readLatencyP999Ns = agg.readLatencyHistNs.quantile(0.999);
    }
    return res;
}

/** Requests completed in a result's measurement window. */
std::uint64_t
completedRequests(const MeasurementResult &m, const ExperimentConfig &cfg)
{
    return static_cast<std::uint64_t>(std::llround(
        m.mrps * 1e6 * ticksToSeconds(cfg.measure)));
}

/** One point simulated through the host layer's public calls. */
struct TracedPoint
{
    MeasurementResult result;
    std::uint64_t statDigest = 0;
    SimCounts counts;
    HostSpans host;
};

/** runExperiment's call sequence with a span around each call. */
TracedPoint
tracePoint(const ExperimentConfig &cfg)
{
    TracedPoint t;
    const auto t0 = Clock::now();
    auto mark = Clock::now();
    const auto lap = [&mark](Span &span) {
        const auto now = Clock::now();
        span.add(std::chrono::duration<double, std::nano>(now - mark)
                     .count());
        mark = now;
    };

    Ac510Module module(makeSystemConfig(cfg));
    lap(t.host.build);
    StatRegistry registry;
    module.registerStats(registry, StatPath("system"));
    module.start();
    runSliced(module, cfg.warmup, t.counts, false);
    module.resetPortStats();
    lap(t.host.warmup);

    const std::uint64_t events0 = module.queue().executed();
    const std::uint64_t wire0 = controllerWireBytes(module);
    runSliced(module, cfg.warmup + cfg.measure, t.counts, false);
    lap(t.host.measure);
    t.counts.windowEvents = module.queue().executed() - events0;
    t.counts.windowWireBytes = controllerWireBytes(module) - wire0;

    t.statDigest = registry.digest();
    t.result = summarizeRun(module, cfg);
    lap(t.host.stats);
    t.host.total.add(nsSince(t0));

    const GupsPortStats agg = module.aggregateStats();
    t.counts.readsIssued = agg.readsIssued;
    t.counts.writesIssued = agg.writesIssued;
    t.counts.requests = completedRequests(t.result, cfg);
    collectComponentCounts(module, t.counts);
    return t;
}

/**
 * Scheduling distances of @p cfg's warm-up for the queue replay, from
 * an untimed run (probing inside a timed span would inflate it).
 */
std::vector<Tick>
probeWarmup(const ExperimentConfig &cfg)
{
    Ac510Module module(makeSystemConfig(cfg));
    module.start();
    SimCounts c;
    runSliced(module, cfg.warmup, c, true);
    return std::move(c.deltas);
}

// ---------------------------------------------------------------------------
// Layer replays: per-call cost of each layer's public function on the
// workload's own inputs, timed in isolation.
// ---------------------------------------------------------------------------

double
meanPending(const SimCounts &c)
{
    return c.pendingSamples ? c.pendingSum /
                                  static_cast<double>(c.pendingSamples)
                            : 1.0;
}

/** One config of the workload and its simulated request interval. */
struct ReplayInput
{
    ExperimentConfig cfg;
    /** Simulated ticks between requests (paces link/vault replays). */
    Tick interval = tickNs;
};

struct ReplayCosts
{
    double fillNsPerAddr = 0, decodeNs = 0, crcNsPerReq = 0,
           transmitNs = 0, vaultServiceNs = 0, queueNsPerOp = 0;
    double acceptNs[3] = {0, 0, 0};
};

/** The request stream one config's ports would issue. */
std::vector<Packet>
makePackets(const ExperimentConfig &cfg, std::size_t n)
{
    const HmcDevice device(cfg.device);
    AddressGenerator gen(
        AddressGeneratorConfig{cfg.mode, cfg.requestSize,
                               cfg.device.structure.capacity,
                               cfg.pattern.mask, cfg.pattern.antiMask, 0},
        cfg.seed);
    std::vector<Packet> pkts(n);
    for (std::size_t i = 0; i < n; ++i) {
        Packet &p = pkts[i];
        p.id = i;
        p.addr = gen.next();
        p.payload = cfg.requestSize;
        p.link = static_cast<std::uint8_t>(i & 1);
        switch (cfg.mix) {
          case RequestMix::ReadOnly:
            p.cmd = Command::Read;
            break;
          case RequestMix::WriteOnly:
            p.cmd = Command::Write;
            break;
          case RequestMix::ReadModifyWrite:
            p.cmd = (i & 1) ? Command::Write : Command::Read;
            break;
          case RequestMix::Atomic:
            p.cmd = Command::Atomic;
            break;
        }
        const DecodedAddress d = device.mapper().decode(p.addr);
        p.quadrant = d.quadrant;
        p.vault = d.vault;
        p.bank = d.bank;
        p.row = d.row;
        p.headerBits = encodeRequestHeader(makeRequestHeader(p));
    }
    return pkts;
}

/** Keeps a replayed value observable so the loop is not elided. */
volatile std::uint64_t gSink = 0;

/** Scheduling distances the queue replay draws from. */
struct ReplayDeltas
{
    Xoshiro256StarStar rng;
    std::vector<Tick> deltas;

    Tick next() { return deltas[rng.nextBounded(deltas.size())]; }
};

/** One self-rescheduling event of the queue replay. */
struct ReplayEvent
{
    EventQueue *q;
    ReplayDeltas *d;
    void
    operator()()
    {
        q->schedule(q->now() + d->next(), ReplayEvent{q, d});
    }
};

ReplayCosts
replayLayers(const std::vector<ReplayInput> &inputs, const SimCounts &counts,
             std::uint64_t seed)
{
    constexpr std::size_t callsTarget = 200000;
    const std::size_t per =
        std::max<std::size_t>(512, callsTarget / inputs.size());
    ReplayCosts c;
    Span fill, decode, crc, transmit, vault, accept[3];

    for (const ReplayInput &in : inputs) {
        const ExperimentConfig &cfg = in.cfg;
        const std::vector<Packet> pkts = makePackets(cfg, per);

        {   // gups: AddressGenerator::fill in the port's 32-address windows
            AddressGenerator gen(
                AddressGeneratorConfig{cfg.mode, cfg.requestSize,
                                       cfg.device.structure.capacity,
                                       cfg.pattern.mask,
                                       cfg.pattern.antiMask, 0},
                cfg.seed);
            Addr window[32];
            const auto t0 = Clock::now();
            for (std::size_t i = 0; i < per; i += 32) {
                gen.fill(window, 32);
                gSink = gSink + window[31];
            }
            fill.ns += nsSince(t0);
            fill.calls += (per + 31) / 32 * 32;
        }
        {   // hmc: AddressMapper::decode
            const HmcDevice device(cfg.device);
            const AddressMapper &mapper = device.mapper();
            std::uint64_t acc = 0;
            const auto t0 = Clock::now();
            for (const Packet &p : pkts)
                acc += mapper.decode(p.addr).row;
            decode.ns += nsSince(t0);
            decode.calls += pkts.size();
            gSink = gSink + acc;
        }
        {   // protocol: packetCrc, stamped by the controller and
            // verified by the cube -- two per request.
            std::uint64_t acc = 0;
            const auto t0 = Clock::now();
            for (const Packet &p : pkts) {
                acc += packetCrc(p, p.headerBits);
                acc += packetCrc(p, p.headerBits);
            }
            crc.ns += nsSince(t0);
            crc.calls += pkts.size();
            gSink = gSink + acc;
        }
        {   // link: LinkDirection::transmit at the workload's pace
            LinkDirection link(cfg.controller.txLinkConfig(),
                               cfg.controller.txPropagation, seed);
            Tick acc = 0;
            const auto t0 = Clock::now();
            for (std::size_t i = 0; i < pkts.size(); ++i)
                acc += link.transmit(i * in.interval, pkts[i].reqBytes());
            transmit.ns += nsSince(t0);
            transmit.calls += pkts.size();
            gSink = gSink + acc;
        }
        {   // hmc: VaultController::service with the packet stream
            VaultConfig vcfg = cfg.device.vault;
            vcfg.numBanks = cfg.device.structure.banksPerVault();
            std::vector<std::unique_ptr<VaultController>> vaults;
            for (unsigned v = 0; v < cfg.device.structure.numVaults; ++v)
                vaults.push_back(std::make_unique<VaultController>(vcfg));
            Tick acc = 0;
            const auto t0 = Clock::now();
            for (std::size_t i = 0; i < pkts.size(); ++i)
                acc += vaults[pkts[i].vault]->service(pkts[i],
                                                      i * in.interval);
            vault.ns += nsSince(t0);
            vault.calls += pkts.size();
            gSink = gSink + acc;
        }
        // mem: MemoryBackend::accept for each engine
        const BackendKind kinds[3] = {BackendKind::HmcDram,
                                      BackendKind::Ddr4, BackendKind::Nvm};
        for (unsigned k = 0; k < 3; ++k) {
            BackendEnvironment env;
            env.numBanks = cfg.device.structure.banksPerVault();
            env.timings = cfg.device.vault.timings;
            env.policy = cfg.device.vault.policy;
            MemoryBackendConfig bcfg = cfg.device.vault.backend;
            bcfg.kind = kinds[k];
            std::vector<std::unique_ptr<MemoryBackend>> backends;
            for (unsigned v = 0; v < cfg.device.structure.numVaults; ++v)
                backends.push_back(makeMemoryBackend(env, bcfg));
            Tick acc = 0;
            const auto t0 = Clock::now();
            for (std::size_t i = 0; i < pkts.size(); ++i)
                acc += backends[pkts[i].vault]
                           ->accept(pkts[i], i * in.interval)
                           .dataReady;
            accept[k].ns += nsSince(t0);
            accept[k].calls += pkts.size();
            gSink = gSink + acc;
        }
    }

    {   // sim: schedule+step at the workload's mean pending depth,
        // each event rescheduling at a distance drawn from the
        // workload's sampled scheduling distances.
        EventQueue q;
        ReplayDeltas d{Xoshiro256StarStar(mixSeed(seed, 0x71)),
                       counts.deltas};
        if (d.deltas.empty())
            d.deltas.push_back(tickUs);
        const std::size_t depth = static_cast<std::size_t>(
            std::max(1.0, meanPending(counts)));
        for (std::size_t i = 0; i < depth; ++i)
            q.schedule(d.next(), ReplayEvent{&q, &d});
        constexpr std::size_t ops = 400000;
        const auto t0 = Clock::now();
        for (std::size_t i = 0; i < ops; ++i)
            q.step();
        c.queueNsPerOp = nsSince(t0) / static_cast<double>(ops);
    }

    c.fillNsPerAddr = fill.meanNs();
    c.decodeNs = decode.meanNs();
    c.crcNsPerReq = crc.meanNs();
    c.transmitNs = transmit.meanNs();
    c.vaultServiceNs = vault.meanNs();
    for (unsigned k = 0; k < 3; ++k)
        c.acceptNs[k] = accept[k].meanNs();
    return c;
}

/** Per-layer metrics shared by every workload that simulates. */
void
addSimLayers(JsonObject &layers, const SimCounts &c, const HostSpans &host,
             const ReplayCosts &r)
{
    const double reqs =
        static_cast<double>(std::max<std::uint64_t>(1, c.requests));
    const double windowEvents =
        static_cast<double>(std::max<std::uint64_t>(1, c.windowEvents));
    layers.add("sim.events_per_req", windowEvents / reqs)
        .add("sim.ns_per_event", host.measure.ns / windowEvents)
        .add("sim.pending_peak", static_cast<double>(c.pendingPeak))
        .add("sim.overflow_peak", static_cast<double>(c.overflowPeak))
        .add("sim.queue_ns_per_op", r.queueNsPerOp)
        .add("protocol.crc_ns_per_req", r.crcNsPerReq)
        .add("host.wire_bytes_per_req",
             static_cast<double>(c.windowWireBytes) / reqs)
        .add("link.transmit_ns", r.transmitNs)
        .add("link.retries", static_cast<double>(c.retries))
        .add("link.flow_control_stalls",
             static_cast<double>(c.flowControlStalls))
        .add("hmc.decode_ns", r.decodeNs)
        .add("hmc.vault_service_ns", r.vaultServiceNs)
        .add("hmc.row_hit_ratio",
             c.vaultAccesses ? static_cast<double>(c.rowHits) /
                                   static_cast<double>(c.vaultAccesses)
                             : 0.0)
        .add("hmc.vault_bus_busy_frac",
             c.busCapacity > 0 ? c.busBusy / c.busCapacity : 0.0)
        .add("mem.accept_ns.hmc", r.acceptNs[0])
        .add("mem.accept_ns.ddr4", r.acceptNs[1])
        .add("mem.accept_ns.nvm", r.acceptNs[2])
        .add("gups.fill_ns_per_addr", r.fillNsPerAddr)
        .add("host.build_ms", host.build.meanNs() / 1e6)
        .add("host.warmup_ms", host.warmup.meanNs() / 1e6)
        .add("host.measure_ms", host.measure.meanNs() / 1e6)
        .add("host.stats_us", host.stats.meanNs() / 1e3);

    // Share of the measured windows' host time the replayed per-call
    // costs do not explain. Each request costs events_per_req queue
    // operations, two CRCs, two link transmissions, one decode, one
    // vault service (backend accept included) and one generated
    // address.
    const double perReq = (windowEvents / reqs) * r.queueNsPerOp +
                          r.crcNsPerReq + 2.0 * r.transmitNs +
                          r.decodeNs + r.vaultServiceNs + r.fillNsPerAddr;
    layers.add("bench.unattributed_frac",
               host.measure.ns > 0 ? 1.0 - perReq * reqs / host.measure.ns
                                   : 0.0);
}

// ---------------------------------------------------------------------------
// gups-hiload: the paper's pattern x mix x size sweep, cold, jobs 2
// ---------------------------------------------------------------------------

constexpr unsigned benchJobs = 2;

SweepAxes
gupsAxes()
{
    const HmcDeviceConfig device;
    const AddressMapper mapper(device.structure, device.maxBlock, 256,
                               device.mapping);
    SweepAxes axes;
    axes.patterns = paperPatternAxis(mapper);
    axes.mixes = {RequestMix::ReadOnly, RequestMix::WriteOnly,
                  RequestMix::ReadModifyWrite};
    axes.sizes = {64, 128};
    return axes;
}

std::string
sweepJsonl(const std::vector<SweepPointResult> &results)
{
    std::ostringstream out;
    JsonLinesSink sink(out);
    for (const SweepPointResult &p : results)
        sink.write(p);
    sink.finish();
    return out.str();
}

int
runGups(const Args &a)
{
    const SweepAxes axes = gupsAxes();
    const std::uint64_t sweepSeed = mixSeed(a.seed, 0x67757073);
    SweepOptions opts;
    opts.jobs = benchJobs;
    opts.sweepSeed = sweepSeed;
    SweepRunner runner(opts);
    const std::int64_t tFirst = monoNs();
    if (a.setupOnly)
        return printSetupOnly(tFirst);
    JsonObject out;
    out.add("t_first_ns", static_cast<double>(tFirst));

    if (!a.trace) {
        const auto t0 = Clock::now();
        const std::vector<SweepPointResult> results = runner.run(axes);
        const double wallNs = nsSince(t0);

        std::vector<std::string> digests;
        std::vector<double> opMs;
        std::uint64_t requests = 0;
        for (const SweepPointResult &p : results) {
            digests.push_back(quote(hex64(p.statDigest)));
            opMs.push_back(p.wallMs);
            requests += completedRequests(p.result, p.config);
        }
        out.add("wall_s", wallNs / 1e9)
            .add("requests", static_cast<double>(requests))
            .raw("op_ms", jsonNumbers(opMs))
            .raw("digests", jsonList(digests))
            .str("jsonl_fnv", hex64(fnv1a(sweepJsonl(results))));
        out.add("rss_kb", peakRssKb());
        std::printf("%s\n", out.done().c_str());
        return 0;
    }

    // Traced pass: SweepRunner's seed derivation, then each point's
    // runExperiment call sequence on a 2-thread pool.
    const auto t0 = Clock::now();
    Span digestSpan;
    std::vector<ExperimentConfig> configs = axes.expand();
    std::vector<std::uint64_t> keys(configs.size());
    for (std::size_t i = 0; i < configs.size(); ++i) {
        const auto s0 = Clock::now();
        configs[i].seed = deriveSeed(sweepSeed, configs[i]);
        keys[i] = configDigest(configs[i]);
        digestSpan.add(nsSince(s0));
    }
    std::vector<TracedPoint> traced(configs.size());
    {
        ThreadPool pool(benchJobs);
        pool.parallelFor(configs.size(), [&](std::size_t i) {
            traced[i] = tracePoint(configs[i]);
        });
    }
    std::vector<SweepPointResult> results(configs.size());
    Span sinkSpan;
    std::ostringstream jsonl;
    JsonLinesSink sink(jsonl);
    for (std::size_t i = 0; i < configs.size(); ++i) {
        SweepPointResult &p = results[i];
        p.index = i;
        p.config = configs[i];
        p.digest = keys[i];
        p.statDigest = traced[i].statDigest;
        p.result = traced[i].result;
        const auto s0 = Clock::now();
        sink.write(p);
        sinkSpan.add(nsSince(s0));
    }
    sink.finish();
    const double wallNs = nsSince(t0);

    SimCounts counts;
    HostSpans host;
    std::vector<std::string> digests;
    std::vector<ReplayInput> inputs;
    for (std::size_t i = 0; i < configs.size(); ++i) {
        counts.merge(traced[i].counts);
        host.merge(traced[i].host);
        digests.push_back(quote(hex64(traced[i].statDigest)));
        const std::uint64_t reqs =
            std::max<std::uint64_t>(1, traced[i].counts.requests);
        inputs.push_back({configs[i], configs[i].measure / reqs});
    }
    for (std::size_t i = 0; i < configs.size(); i += 6) {
        const std::vector<Tick> d = probeWarmup(configs[i]);
        counts.deltas.insert(counts.deltas.end(), d.begin(), d.end());
    }
    const ReplayCosts replay = replayLayers(inputs, counts, a.seed);

    JsonObject layers;
    addSimLayers(layers, counts, host, replay);
    layers.add("runner.digest_us", digestSpan.meanNs() / 1e3)
        .add("runner.sink_us", sinkSpan.meanNs() / 1e3)
        .add("runner.pool_busy_frac",
             host.total.ns / (benchJobs * wallNs));

    out.add("wall_s", wallNs / 1e9)
        .raw("digests", jsonList(digests))
        .str("jsonl_fnv", hex64(fnv1a(jsonl.str())))
        .raw("counts", counts.json())
        .raw("layers", layers.done())
        .add("rss_kb", peakRssKb());
    std::printf("%s\n", out.done().c_str());
    return 0;
}

// ---------------------------------------------------------------------------
// fleet-lowload: runFleet, 4 nodes, Poisson 2e7 req/s, 16 B reads
// ---------------------------------------------------------------------------

/** Distinct fleet seeds a run cycles through. */
constexpr unsigned fleetSeedCycle = 8;

FleetConfig
fleetConfig(std::uint64_t seed, unsigned call)
{
    FleetConfig cfg;
    cfg.numNodes = 4;
    cfg.requests = 100000;
    cfg.arrival.kind = ArrivalKind::Poisson;
    cfg.arrival.ratePerSec = 2e7;
    cfg.router = RouterPolicy::Uniform;
    cfg.jobs = 1;
    cfg.node.requestSize = 16;
    cfg.seed = mixSeed(seed, 0x666c656574ULL + call % fleetSeedCycle);
    return cfg;
}

/** runServiceNode's arrival feed, replicated for the traced pass. */
class BenchArrivalFeed final : public ArrivalFeed
{
  public:
    BenchArrivalFeed(const std::vector<Tick> &arrivals, ServiceStats &stats)
        : arrivals(arrivals), stats(stats)
    {
    }
    Tick
    peekArrival() const override
    {
        return pos < arrivals.size() ? arrivals[pos] : maxTick;
    }
    void pop() override { ++pos; }
    void
    complete(Tick arrival, Tick completion) override
    {
        stats.record(arrival, completion);
    }

  private:
    const std::vector<Tick> &arrivals;
    ServiceStats &stats;
    std::size_t pos = 0;
};

/** The config runServiceNode builds, for the traced node. */
Ac510Config
nodeSystem(const ServiceNodeConfig &cfg, ArrivalFeed *feed)
{
    Ac510Config sys;
    sys.numPorts = 1;
    sys.port.mix = RequestMix::ReadOnly;
    sys.port.requestSize = cfg.requestSize;
    sys.port.mode = cfg.mode;
    sys.port.mask = cfg.pattern.mask;
    sys.port.antiMask = cfg.pattern.antiMask;
    sys.port.arrivals = feed;
    sys.device = cfg.device;
    sys.controller = cfg.controller;
    sys.seed = cfg.seed;
    return sys;
}

int
runFleetMode(const Args &a)
{
    std::vector<FleetConfig> configs;
    for (unsigned call = 0; call < a.calls; ++call)
        configs.push_back(fleetConfig(a.seed, call));
    const std::int64_t tFirst = monoNs();
    if (a.setupOnly)
        return printSetupOnly(tFirst);
    JsonObject out;
    out.add("t_first_ns", static_cast<double>(tFirst));
    std::vector<std::string> digests;
    std::vector<double> opMs;
    std::uint64_t requests = 0;

    if (!a.trace) {
        const auto t0 = Clock::now();
        for (const FleetConfig &cfg : configs) {
            const auto c0 = Clock::now();
            const FleetResult res = runFleet(cfg);
            opMs.push_back(nsSince(c0) / 1e6);
            requests += res.aggregate.requests;
            digests.push_back(quote(hex64(res.aggregate.digest())));
        }
        out.add("wall_s", nsSince(t0) / 1e9)
            .add("requests", static_cast<double>(requests))
            .raw("op_ms", jsonNumbers(opMs))
            .raw("digests", jsonList(digests))
            .add("rss_kb", peakRssKb());
        std::printf("%s\n", out.done().c_str());
        return 0;
    }

    // Traced pass: runFleet's call sequence -- generate and route the
    // stream, shard it, run each node, merge in node order.
    Span arrivals, merge, node;
    SimCounts counts;
    HostSpans host;
    std::vector<ReplayInput> inputs;
    {   // Scheduling distances for the queue replay, from an untimed
        // run of the first node (probing inside the timed runs would
        // inflate their spans).
        const FleetConfig cfg = fleetConfig(a.seed, 0);
        std::vector<Tick> arrivalTicks;
        for (const FleetRequest &req : generateFleetRequests(cfg))
            if (req.node == 0)
                arrivalTicks.push_back(req.arrival);
        ServiceNodeConfig nodeCfg = cfg.node;
        nodeCfg.seed = fleetNodeSeed(cfg, 0);
        ServiceStats ignored;
        BenchArrivalFeed feed(arrivalTicks, ignored);
        Ac510Module module(nodeSystem(nodeCfg, &feed));
        module.start();
        SimCounts probe;
        while (module.queue().pending() > 0)
            runSliced(module, module.queue().now() + tickUs, probe, true);
        counts.deltas = std::move(probe.deltas);
    }
    const auto t0 = Clock::now();
    for (unsigned call = 0; call < a.calls; ++call) {
        const FleetConfig &cfg = configs[call];
        auto s0 = Clock::now();
        const std::vector<FleetRequest> stream = generateFleetRequests(cfg);
        std::vector<std::vector<Tick>> perNode(cfg.numNodes);
        for (const FleetRequest &req : stream)
            perNode[req.node].push_back(req.arrival);
        arrivals.add(nsSince(s0));

        FleetResult res;
        res.nodes.resize(cfg.numNodes);
        for (unsigned n = 0; n < cfg.numNodes; ++n) {
            s0 = Clock::now();
            ServiceNodeConfig nodeCfg = cfg.node;
            nodeCfg.seed = fleetNodeSeed(cfg, n);
            BenchArrivalFeed feed(perNode[n], res.nodes[n]);
            auto mark = Clock::now();
            Ac510Module module(nodeSystem(nodeCfg, &feed));
            host.build.add(nsSince(mark));
            mark = Clock::now();
            module.start();
            SimCounts c;
            while (module.queue().pending() > 0)
                runSliced(module, module.queue().now() + tickUs, c, false);
            host.measure.add(nsSince(mark));
            collectComponentCounts(module, c);
            const GupsPortStats agg = module.aggregateStats();
            c.readsIssued = agg.readsIssued;
            c.writesIssued = agg.writesIssued;
            c.windowEvents = c.events;
            c.windowWireBytes = c.wireBytes;
            c.requests = res.nodes[n].requests;
            counts.merge(c);
            node.add(nsSince(s0));
            host.total.add(nsSince(s0));

            ExperimentConfig rc;
            static_cast<CommonExperimentConfig &>(rc) = nodeCfg;
            rc.mix = RequestMix::ReadOnly;
            rc.mode = nodeCfg.mode;
            rc.numPorts = 1;
            const double seconds = res.nodes[n].elapsedSeconds();
            const std::uint64_t reqs =
                std::max<std::uint64_t>(1, res.nodes[n].requests);
            if (call < fleetSeedCycle)
                inputs.push_back(
                    {rc, static_cast<Tick>(seconds * 1e12 /
                                           static_cast<double>(reqs))});
        }
        s0 = Clock::now();
        for (const ServiceStats &stats : res.nodes)
            res.aggregate.merge(stats);
        merge.add(nsSince(s0));
        digests.push_back(quote(hex64(res.aggregate.digest())));
    }
    const double wallNs = nsSince(t0);
    const ReplayCosts replay = replayLayers(inputs, counts, a.seed);

    JsonObject layers;
    addSimLayers(layers, counts, host, replay);
    layers.add("service.arrivals_ms", arrivals.meanNs() / 1e6)
        .add("service.node_ms", node.meanNs() / 1e6)
        .add("service.merge_us", merge.meanNs() / 1e3)
        .add("runner.pool_busy_frac", node.ns / wallNs);
    out.add("wall_s", wallNs / 1e9)
        .raw("digests", jsonList(digests))
        .raw("counts", counts.json())
        .raw("layers", layers.done())
        .add("rss_kb", peakRssKb());
    std::printf("%s\n", out.done().c_str());
    return 0;
}

// ---------------------------------------------------------------------------
// serve-store: one client, one outstanding request, `hmcsim_cli serve
// --jobs 1 --store DIR` over pipes
// ---------------------------------------------------------------------------

enum class Kind
{
    Miss,
    StoreHit,
    MemHit
};

/** One `sweep` request point of the serve session. */
struct ServePoint
{
    const char *mix;
    unsigned size;
    unsigned vaults;
    const char *backend;
    std::uint64_t seed;

    std::string
    line() const
    {
        char buf[160];
        std::snprintf(buf, sizeof(buf),
                      "sweep mix=%s size=%u vaults=%u backend=%s "
                      "seed=%" PRIu64,
                      mix, size, vaults, backend, seed);
        return buf;
    }

    /** The config `serve` builds from line() (before seed derivation). */
    ExperimentConfig
    config() const
    {
        ExperimentConfig cfg;
        cfg.warmup = 10 * tickUs;
        cfg.measure = 100 * tickUs;
        cfg.mix = std::strcmp(mix, "ro") == 0   ? RequestMix::ReadOnly
                  : std::strcmp(mix, "wo") == 0 ? RequestMix::WriteOnly
                                                : RequestMix::ReadModifyWrite;
        cfg.requestSize = size;
        parseBackendKind(backend, cfg.device.vault.backend.kind);
        const AddressMapper mapper(cfg.device.structure, cfg.device.maxBlock,
                                   256, cfg.device.mapping);
        cfg.pattern = vaultPattern(mapper, vaults);
        return cfg;
    }
};

/**
 * The seeded session: points[0] is the readiness probe, points
 * [1, 1+storePoints) are published during set-up (store hits), the
 * rest are misses; session lists (point, kind) in request order.
 */
struct ServePlan
{
    std::vector<ServePoint> points;
    std::vector<std::pair<std::size_t, Kind>> session;
    std::size_t storePoints = 0;
};

/** Repeats within a serve session: its memory hits. */
constexpr std::size_t serveMemHits = 1000;

/**
 * The store-hit and miss sets each hold every mix x size x backend
 * once, with a seeded vault count from {2, 4, 8, 16} (whose points
 * cost about the same to simulate), so every seed's session costs
 * about the same. The seed also picks the probe, every point's sweep
 * seed and the request order.
 */
ServePlan
makeServePlan(std::uint64_t seed)
{
    static const char *mixes[] = {"ro", "wo", "rw"};
    static const unsigned sizes[] = {16, 32, 64, 128};
    static const unsigned vaults[] = {2, 4, 8, 16};
    static const char *backends[] = {"hmc", "ddr4", "nvm"};

    Xoshiro256StarStar rng(mixSeed(seed, 0x7365727665ULL));
    const auto pick = [&]() { return vaults[rng.nextBounded(4)]; };
    ServePlan plan;
    plan.points.push_back({mixes[rng.nextBounded(3)],
                           sizes[rng.nextBounded(4)], pick(),
                           backends[rng.nextBounded(3)], 0});
    for (unsigned set = 0; set < 2; ++set)
        for (const char *mix : mixes)
            for (const unsigned size : sizes)
                for (const char *backend : backends)
                    plan.points.push_back({mix, size, pick(), backend, 0});
    plan.storePoints = (plan.points.size() - 1) / 2;
    for (std::size_t i = 0; i < plan.points.size(); ++i)
        plan.points[i].seed = mixSeed(seed, 0x7074 + i) >> 1;

    std::vector<std::size_t> firsts;
    for (std::size_t i = 1; i < plan.points.size(); ++i)
        firsts.push_back(i);
    for (std::size_t i = firsts.size() - 1; i > 0; --i)
        std::swap(firsts[i], firsts[rng.nextBounded(i + 1)]);

    std::vector<std::size_t> visited;
    std::size_t next = 0;
    std::size_t repeats = serveMemHits;
    while (next < firsts.size() || repeats > 0) {
        const std::size_t left = firsts.size() - next;
        const bool first = visited.empty() ||
                           rng.nextBounded(left + repeats) < left;
        if (first) {
            const std::size_t p = firsts[next++];
            visited.push_back(p);
            plan.session.emplace_back(
                p, p <= plan.storePoints ? Kind::StoreHit : Kind::Miss);
        } else {
            --repeats;
            plan.session.emplace_back(
                visited[rng.nextBounded(visited.size())], Kind::MemHit);
        }
    }
    return plan;
}

/** Config of point @p p exactly as `serve` simulates it. */
ExperimentConfig
derivedConfig(const ServePoint &p)
{
    ExperimentConfig cfg = p.config();
    cfg.seed = deriveSeed(p.seed, cfg);
    return cfg;
}

/** An `hmcsim_cli serve` child process with piped stdin/stdout. */
class ServeChild
{
  public:
    ServeChild(const std::string &cli, const std::string &store,
               const std::string &err_path)
    {
        int in[2], out[2];
        if (::pipe(in) != 0 || ::pipe(out) != 0)
            die("pipe failed");
        posix_spawn_file_actions_t fa;
        posix_spawn_file_actions_init(&fa);
        posix_spawn_file_actions_adddup2(&fa, in[0], 0);
        posix_spawn_file_actions_adddup2(&fa, out[1], 1);
        posix_spawn_file_actions_addopen(&fa, 2, err_path.c_str(),
                                         O_WRONLY | O_CREAT | O_TRUNC, 0644);
        posix_spawn_file_actions_addclose(&fa, in[1]);
        posix_spawn_file_actions_addclose(&fa, out[0]);
        std::vector<std::string> argv = {cli, "serve", "--jobs", "1",
                                         "--store", store};
        std::vector<char *> cargv;
        for (std::string &s : argv)
            cargv.push_back(s.data());
        cargv.push_back(nullptr);
        if (posix_spawn(&pid, cli.c_str(), &fa, nullptr, cargv.data(),
                        environ) != 0)
            die("cannot spawn hmcsim_cli serve");
        posix_spawn_file_actions_destroy(&fa);
        ::close(in[0]);
        ::close(out[1]);
        toChild = in[1];
        fromChild = out[0];
    }

    ServeChild(const ServeChild &) = delete;
    ServeChild &operator=(const ServeChild &) = delete;

    ~ServeChild()
    {
        if (pid > 0) {
            ::kill(pid, SIGKILL);
            finish();
        }
    }

    /** Send one line and read one reply line; false on EOF/timeout. */
    bool
    request(const std::string &line, std::string &reply)
    {
        const std::string msg = line + "\n";
        std::size_t off = 0;
        while (off < msg.size()) {
            const ssize_t n = ::write(toChild, msg.data() + off,
                                      msg.size() - off);
            if (n <= 0)
                return false;
            off += static_cast<std::size_t>(n);
        }
        for (;;) {
            const std::size_t nl = buf.find('\n');
            if (nl != std::string::npos) {
                reply = buf.substr(0, nl + 1);
                buf.erase(0, nl + 1);
                return true;
            }
            pollfd pfd{fromChild, POLLIN, 0};
            if (::poll(&pfd, 1, 60000) <= 0)
                return false;
            char tmp[8192];
            const ssize_t n = ::read(fromChild, tmp, sizeof(tmp));
            if (n <= 0)
                return false;
            buf.append(tmp, static_cast<std::size_t>(n));
        }
    }

    /** Send `shutdown`, drain, reap; returns the exit status (-1 if
     *  killed). Output after the last reply counts as trailing bytes. */
    int
    finish()
    {
        if (toChild >= 0) {
            const char bye[] = "shutdown\n";
            (void)!::write(toChild, bye, sizeof(bye) - 1);
            ::close(toChild);
            toChild = -1;
        }
        if (fromChild >= 0) {
            char tmp[4096];
            for (;;) {
                pollfd pfd{fromChild, POLLIN, 0};
                if (::poll(&pfd, 1, 60000) <= 0)
                    break;
                const ssize_t n = ::read(fromChild, tmp, sizeof(tmp));
                if (n <= 0)
                    break;
                buf.append(tmp, static_cast<std::size_t>(n));
            }
            ::close(fromChild);
            fromChild = -1;
        }
        int status = 0;
        rusage usage{};
        if (pid > 0 && ::wait4(pid, &status, 0, &usage) == pid) {
            pid = -1;
            gChildPeakKb = std::max(gChildPeakKb,
                                    static_cast<double>(usage.ru_maxrss));
            return WIFEXITED(status) ? WEXITSTATUS(status) : -1;
        }
        pid = -1;
        return -1;
    }

    const std::string &trailing() const { return buf; }

  private:
    pid_t pid = -1;
    int toChild = -1;
    int fromChild = -1;
    std::string buf;
};

std::string
readFile(const std::string &path)
{
    std::ifstream in(path);
    std::ostringstream ss;
    ss << in.rdbuf();
    return ss.str();
}

std::size_t
countStoreObjects(const std::string &store)
{
    std::size_t n = 0;
    std::error_code ec;
    for (const auto &e : std::filesystem::recursive_directory_iterator(
             std::filesystem::path(store) / "objects", ec))
        if (e.is_regular_file() && e.path().extension() == ".result")
            ++n;
    return n;
}

/** A ResultStorage decorator timing the store layer's load/save. */
class TimedStorage final : public ResultStorage
{
  public:
    explicit TimedStorage(ResultStorage &inner) : inner(inner) {}

    std::optional<CachedResult>
    load(std::uint64_t key) override
    {
        const auto t0 = Clock::now();
        auto r = inner.load(key);
        loadSpan.add(nsSince(t0));
        return r;
    }
    void
    save(std::uint64_t key, const CachedResult &value) override
    {
        const auto t0 = Clock::now();
        inner.save(key, value);
        saveSpan.add(nsSince(t0));
    }

    Span loadSpan, saveSpan;

  private:
    ResultStorage &inner;
};

/** Publish the probe and store-hit points with a separate `serve`. */
bool
publishStore(const Args &a, const ServePlan &plan, const std::string &store,
             std::vector<std::string> &replies)
{
    ServeChild pub(a.cli, store, a.dir + "/publish.err");
    for (std::size_t i = 0; i <= plan.storePoints; ++i) {
        std::string reply;
        if (!pub.request(plan.points[i].line(), reply))
            return false;
        replies.push_back(quote(reply));
    }
    return pub.finish() == 0 && pub.trailing().empty();
}

int
runServe(const Args &a)
{
    if (a.cli.empty() || a.dir.empty())
        die("serve needs --cli and --dir");
    ::signal(SIGPIPE, SIG_IGN);
    const ServePlan plan = makeServePlan(a.seed);
    const std::string store = a.dir + "/store";
    std::filesystem::remove_all(a.dir);
    std::filesystem::create_directories(a.dir);

    bool ok = true;
    std::vector<std::string> publishReplies;
    ok = publishStore(a, plan, store, publishReplies) && ok;
    if (a.trace)
        std::filesystem::copy(store, a.dir + "/store-trace",
                              std::filesystem::copy_options::recursive);

    // Session: the probe (a store hit) proves the child is up; the
    // timed phase starts with the first request after it.
    ServeChild session(a.cli, store, a.dir + "/session.err");
    std::string probeReply;
    ok = session.request(plan.points[0].line(), probeReply) && ok;
    const std::int64_t tFirst = monoNs();

    std::vector<double> lat[3];
    std::vector<std::string> replies;
    replies.reserve(plan.session.size());
    const auto t0 = Clock::now();
    for (const auto &[p, kind] : plan.session) {
        std::string reply;
        const auto r0 = Clock::now();
        const bool got = session.request(plan.points[p].line(), reply);
        lat[static_cast<int>(kind)].push_back(nsSince(r0) / 1e3);
        ok = got && ok;
        replies.push_back(quote(reply));
        if (!got)
            break;
    }
    const double wallNs = nsSince(t0);
    const int status = session.finish();
    const std::string err = readFile(a.dir + "/session.err");
    unsigned long long served = 0, failed = 0, cacheHits = 0;
    const std::size_t at = err.find("session done");
    if (at == std::string::npos ||
        std::sscanf(err.c_str() + at,
                    "session done, %llu served, %llu failed (%llu cache hits)",
                    &served, &failed, &cacheHits) != 3)
        ok = false;
    ok = ok && status == 0 && session.trailing().empty();

    std::vector<double> sessionPoints;
    for (const auto &entry : plan.session)
        sessionPoints.push_back(static_cast<double>(entry.first));
    // What the counts must be if every request was served as planned.
    const JsonObject wantCounts =
        JsonObject()
            .add("served", static_cast<double>(1 + plan.session.size()))
            .add("failed", 0)
            .add("cache_hits",
                 static_cast<double>(1 + plan.storePoints + serveMemHits))
            .add("store_objects", static_cast<double>(plan.points.size()));
    JsonObject out;
    out.add("t_first_ns", static_cast<double>(tFirst))
        .add("ok", ok ? 1 : 0)
        .add("store_points", static_cast<double>(plan.storePoints))
        .raw("session_points", jsonNumbers(sessionPoints))
        .raw("want_counts", wantCounts.done())
        .add("wall_s", wallNs / 1e9)
        .raw("miss_us", jsonNumbers(lat[0]))
        .raw("store_hit_us", jsonNumbers(lat[1]))
        .raw("mem_hit_us", jsonNumbers(lat[2]))
        .raw("publish_replies", jsonList(publishReplies))
        .str("probe_reply", probeReply)
        .raw("replies", jsonList(replies))
        .raw("counts",
             JsonObject()
                 .add("served", static_cast<double>(served))
                 .add("failed", static_cast<double>(failed))
                 .add("cache_hits", static_cast<double>(cacheHits))
                 .add("store_objects",
                      static_cast<double>(countStoreObjects(store)))
                 .done());

    if (a.trace) {
        // Traced pass: the session's requests re-driven in-process
        // through the runner and store layers' public calls, against
        // a copy of the store as it was before the session.
        SharedResultStore shared(
            SharedResultStore::Options{a.dir + "/store-trace", 300});
        ClaimedResultStorage claimed(shared);
        TimedStorage timed(claimed);
        ResultCache cache(timed);
        Span digestSpan, lookupSpan, storeSpan, sinkSpan;
        SimCounts counts;
        HostSpans host;
        std::vector<ReplayInput> inputs;
        std::vector<std::string> tracedReplies;

        const auto serveOne = [&](std::size_t p) {
            SweepPointResult point;
            auto s0 = Clock::now();
            point.config = derivedConfig(plan.points[p]);
            point.digest = configDigest(point.config);
            digestSpan.add(nsSince(s0));
            const double load0 = timed.loadSpan.ns;
            s0 = Clock::now();
            const std::optional<CachedResult> hit = cache.lookup(point.digest);
            lookupSpan.add(nsSince(s0) - (timed.loadSpan.ns - load0));
            if (hit) {
                point.result = hit->result;
                point.statDigest = hit->statDigest;
                point.fromCache = true;
            } else {
                TracedPoint t = tracePoint(point.config);
                point.result = t.result;
                point.statDigest = t.statDigest;
                counts.merge(t.counts);
                host.merge(t.host);
                const std::uint64_t reqs =
                    std::max<std::uint64_t>(1, t.counts.requests);
                inputs.push_back({point.config, point.config.measure / reqs});
                const double save0 = timed.saveSpan.ns;
                s0 = Clock::now();
                cache.store(point.digest, {point.result, point.statDigest});
                storeSpan.add(nsSince(s0) - (timed.saveSpan.ns - save0));
            }
            std::ostringstream line;
            JsonLinesSink sink(line);
            s0 = Clock::now();
            sink.write(point);
            sinkSpan.add(nsSince(s0));
            return line.str();
        };

        const std::string tracedProbe = serveOne(0);
        const auto w0 = Clock::now();
        for (const auto &entry : plan.session)
            tracedReplies.push_back(quote(serveOne(entry.first)));
        const double tracedWallNs = nsSince(w0);
        for (const ReplayInput &in : inputs) {
            const std::vector<Tick> d = probeWarmup(in.cfg);
            counts.deltas.insert(counts.deltas.end(), d.begin(), d.end());
        }
        const SharedResultStore::Counters sc = shared.counters();
        const ReplayCosts replay = replayLayers(inputs, counts, a.seed);

        JsonObject layers;
        addSimLayers(layers, counts, host, replay);
        layers.add("runner.digest_us", digestSpan.meanNs() / 1e3)
            .add("runner.cache_lookup_us", lookupSpan.meanNs() / 1e3)
            .add("runner.cache_store_us", storeSpan.meanNs() / 1e3)
            .add("runner.sink_us", sinkSpan.meanNs() / 1e3)
            .add("runner.cache_hits", static_cast<double>(cache.hits()))
            .add("runner.cache_misses", static_cast<double>(cache.misses()))
            .add("dist.store_load_us", timed.loadSpan.meanNs() / 1e3)
            .add("dist.store_save_us", timed.saveSpan.meanNs() / 1e3)
            .add("dist.store_hits", static_cast<double>(sc.hits))
            .add("dist.store_misses", static_cast<double>(sc.misses))
            .add("dist.store_corrupt", static_cast<double>(sc.corrupt));
        out.add("traced_wall_s", tracedWallNs / 1e9)
            .str("traced_probe_reply", tracedProbe)
            .raw("traced_replies", jsonList(tracedReplies))
            .raw("trace_counts",
                 JsonObject()
                     .raw("sim", counts.json())
                     .add("cache_hits", static_cast<double>(cache.hits()))
                     .add("cache_misses", static_cast<double>(cache.misses()))
                     .add("store_hits", static_cast<double>(sc.hits))
                     .add("store_misses", static_cast<double>(sc.misses))
                     .add("store_corrupt", static_cast<double>(sc.corrupt))
                     .done())
            .raw("layers", layers.done());
    }
    out.add("rss_kb", peakRssKb());
    std::printf("%s\n", out.done().c_str());
    return ok ? 0 : 1;
}

/** In-process JSONL of every serve point, the reply reference. */
int
runServeRef(const Args &a)
{
    const ServePlan plan = makeServePlan(a.seed);
    std::vector<ExperimentConfig> configs;
    for (const ServePoint &p : plan.points)
        configs.push_back(derivedConfig(p));
    SweepOptions opts;
    opts.jobs = benchJobs;
    opts.deriveSeeds = false;
    SweepRunner runner(opts);
    const std::vector<SweepPointResult> results = runner.run(configs);
    std::vector<std::string> lines;
    std::vector<std::string> requestCounts;
    for (const SweepPointResult &p : results) {
        lines.push_back(quote(sweepJsonl({p})));
        requestCounts.push_back(
            num(static_cast<double>(completedRequests(p.result, p.config))));
    }
    std::printf("%s\n", JsonObject()
                            .raw("lines", jsonList(lines))
                            .raw("requests", jsonList(requestCounts))
                            .done()
                            .c_str());
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    const Args a = parseArgs(argc, argv);
    if (a.mode == "gups")
        return runGups(a);
    if (a.mode == "fleet")
        return runFleetMode(a);
    if (a.mode == "serve")
        return runServe(a);
    if (a.mode == "serve-ref")
        return runServeRef(a);
    die("unknown mode");
}
