/**
 * @file
 * The field table of ExperimentConfig and StreamExperimentConfig.
 *
 * forEachField() is the one place that enumerates a configuration:
 * it hands a visitor each field's key, a reference to the field, and
 * (for enums) the field's valid values. The canonical config digests
 * (runner/config_digest.cc) and the dist wire codec (dist/wire.cc)
 * are visitors over this walk, so the hashed field set and the
 * shipped field set cannot drift apart.
 *
 * A field's kind is its C++ type: std::uint64_t, unsigned, double,
 * std::string or bool, or an enum with its list of valid values.
 * Visitors are called as
 *
 *   v(const FieldKey &key, T &field)
 *   v(const FieldKey &key, E &field, const E (&valid)[N])   // enums
 *
 * where T and E are const-qualified when the walk is over a const
 * config. The walk order is part of the contract: the digests hash
 * and the wire format lists fields in exactly this order, so any
 * change here changes every digest -- bump the version tags in
 * runner/config_digest.cc with it.
 */

#ifndef HMCSIM_HOST_EXPERIMENT_FIELDS_HH
#define HMCSIM_HOST_EXPERIMENT_FIELDS_HH

#include <cstdint>
#include <type_traits>

#include "host/experiment.hh"

namespace hmcsim
{

/** Fields that some visitors treat specially. */
enum class FieldRole : std::uint8_t
{
    Plain,
    Seed,    ///< Skipped by configDigest(cfg, false).
    Measure, ///< The measurement window, skipped by warmupDigest().
};

/**
 * A field's name. Its wire key is prefix + name, so the DRAM timing
 * fields can sit under both "vault.timings." and
 * "backend.ddrTimings."; both parts are literals, and only a visitor
 * that needs the full key (the wire codec) joins them.
 */
struct FieldKey
{
    const char *prefix;
    const char *name;
    FieldRole role = FieldRole::Plain;
};

/** Valid values of the enum fields; the wire codec rejects others. */
inline constexpr RequestMix requestMixValues[] = {
    RequestMix::ReadOnly, RequestMix::WriteOnly,
    RequestMix::ReadModifyWrite, RequestMix::Atomic};
inline constexpr AddressingMode addressingModeValues[] = {
    AddressingMode::Random, AddressingMode::Linear};
inline constexpr PagePolicy pagePolicyValues[] = {PagePolicy::Closed,
                                                  PagePolicy::Open};
inline constexpr BackendKind backendKindValues[] = {
    BackendKind::HmcDram, BackendKind::Ddr4, BackendKind::Nvm};
inline constexpr MaxBlockSize maxBlockSizeValues[] = {
    MaxBlockSize::B16, MaxBlockSize::B32, MaxBlockSize::B64,
    MaxBlockSize::B128};
inline constexpr MappingScheme mappingSchemeValues[] = {
    MappingScheme::VaultFirst, MappingScheme::BankFirst,
    MappingScheme::ContiguousVault};

namespace detail
{

template <typename Timings, typename V>
void
forEachTimingField(const char *prefix, Timings &t, V &v)
{
    v({prefix, "tRcd"}, t.tRcd);
    v({prefix, "tCl"}, t.tCl);
    v({prefix, "tRp"}, t.tRp);
    v({prefix, "tRas"}, t.tRas);
    v({prefix, "tWr"}, t.tWr);
    v({prefix, "tCcd"}, t.tCcd);
    v({prefix, "tBeat"}, t.tBeat);
    v({prefix, "beatBytes"}, t.beatBytes);
    v({prefix, "rowBytes"}, t.rowBytes);
    v({prefix, "tRefi"}, t.tRefi);
    v({prefix, "tRfc"}, t.tRfc);
}

} // namespace detail

/**
 * Visit every field of @p cfg, an ExperimentConfig or a
 * StreamExperimentConfig (const or not), in canonical order.
 */
template <typename Cfg, typename V>
void
forEachField(Cfg &cfg, V &&v)
{
    using Plain = std::remove_const_t<Cfg>;
    constexpr bool bandwidth = std::is_same_v<Plain, ExperimentConfig>;
    static_assert(bandwidth ||
                  std::is_same_v<Plain, StreamExperimentConfig>);

    // The pattern name is cosmetic for simulation but flows into
    // MeasurementResult::patternName, so it is part of the identity a
    // cached result must reproduce.
    auto &p = cfg.pattern;
    v({"pattern.", "name"}, p.name);
    v({"pattern.", "mask"}, p.mask);
    v({"pattern.", "antiMask"}, p.antiMask);
    v({"pattern.", "vaultSpan"}, p.vaultSpan);
    v({"pattern.", "bankSpan"}, p.bankSpan);

    if constexpr (bandwidth)
        v({"", "mix"}, cfg.mix, requestMixValues);
    v({"", "requestSize"}, cfg.requestSize);
    if constexpr (bandwidth) {
        v({"", "mode"}, cfg.mode, addressingModeValues);
        v({"", "numPorts"}, cfg.numPorts);
        v({"", "warmup"}, cfg.warmup);
        v({"", "measure", FieldRole::Measure}, cfg.measure);
    } else {
        v({"", "requestsPerStream"}, cfg.requestsPerStream);
        v({"", "repetitions"}, cfg.repetitions);
    }
    v({"", "seed", FieldRole::Seed}, cfg.seed);

    auto &s = cfg.device.structure;
    v({"structure.", "name"}, s.name);
    v({"structure.", "capacity"}, s.capacity);
    v({"structure.", "numDramLayers"}, s.numDramLayers);
    v({"structure.", "dramLayerGbits"}, s.dramLayerGbits);
    v({"structure.", "numQuadrants"}, s.numQuadrants);
    v({"structure.", "numVaults"}, s.numVaults);
    v({"structure.", "partitionsPerLayer"}, s.partitionsPerLayer);
    v({"structure.", "banksPerPartition"}, s.banksPerPartition);

    auto &vault = cfg.device.vault;
    v({"vault.", "numBanks"}, vault.numBanks);
    detail::forEachTimingField("vault.timings.", vault.timings, v);
    v({"vault.", "policy"}, vault.policy, pagePolicyValues);
    v({"vault.", "controllerLatency"}, vault.controllerLatency);
    v({"vault.", "commandBeats"}, vault.commandBeats);
    v({"vault.", "atomicLatency"}, vault.atomicLatency);
    v({"vault.", "refreshEnabled"}, vault.refreshEnabled);
    v({"vault.", "refreshMultiplier"}, vault.refreshMultiplier);

    auto &b = vault.backend;
    v({"backend.", "kind"}, b.kind, backendKindValues);
    detail::forEachTimingField("backend.ddrTimings.", b.ddrTimings, v);
    v({"backend.", "ddrPolicy"}, b.ddrPolicy, pagePolicyValues);
    v({"backend.", "ddrBusBytesPerSecond"}, b.ddrBusBytesPerSecond);
    v({"backend.", "ddrTFaw"}, b.ddrTFaw);
    v({"backend.", "ddrActivatesPerFaw"}, b.ddrActivatesPerFaw);
    v({"backend.", "nvmReadLatency"}, b.nvmReadLatency);
    v({"backend.", "nvmWriteLatency"}, b.nvmWriteLatency);
    v({"backend.", "nvmWriteAck"}, b.nvmWriteAck);
    v({"backend.", "nvmWriteQueueDepth"}, b.nvmWriteQueueDepth);

    auto &d = cfg.device;
    v({"device.", "maxBlock"}, d.maxBlock, maxBlockSizeValues);
    v({"device.", "mapping"}, d.mapping, mappingSchemeValues);
    v({"device.", "quadrantLocalLatency"}, d.quadrantLocalLatency);
    v({"device.", "quadrantHopLatency"}, d.quadrantHopLatency);
    v({"device.", "responsePathLatency"}, d.responsePathLatency);

    auto &c = cfg.controller;
    v({"controller.", "fpgaCyclePs"}, c.fpgaCyclePs);
    v({"controller.", "flitsToParallelCycles"}, c.flitsToParallelCycles);
    v({"controller.", "arbiterCycles"}, c.arbiterCycles);
    v({"controller.", "seqFlowCrcCycles"}, c.seqFlowCrcCycles);
    v({"controller.", "serdesConvertCycles"}, c.serdesConvertCycles);
    v({"controller.", "txPropagation"}, c.txPropagation);
    v({"controller.", "rxPropagation"}, c.rxPropagation);
    v({"controller.", "rxFixedCycles"}, c.rxFixedCycles);
    v({"controller.", "rxPerFlit"}, c.rxPerFlit);
    v({"controller.", "txBytesPerSecondPerLink"},
      c.txBytesPerSecondPerLink);
    v({"controller.", "rxBytesPerSecondPerLink"},
      c.rxBytesPerSecondPerLink);
    v({"controller.", "txPerPacketOverheadBytes"},
      c.txPerPacketOverheadBytes);
    v({"controller.", "rxPerPacketOverheadBytes"},
      c.rxPerPacketOverheadBytes);
    v({"controller.", "numLinks"}, c.numLinks);
    v({"controller.", "bitErrorRate"}, c.bitErrorRate);
    v({"controller.", "inputBufferFlits"}, c.inputBufferFlits);
}

} // namespace hmcsim

#endif // HMCSIM_HOST_EXPERIMENT_FIELDS_HH
