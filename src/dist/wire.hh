/**
 * @file
 * Wire codec for ExperimentConfig.
 *
 * The coordinator ships fully-resolved configurations (derived seed
 * included) to workers, so a worker never re-derives anything -- the
 * point it simulates is byte-for-byte the point the coordinator
 * expanded. Encoder and decoder are visitors over the field table
 * (host/experiment_fields.hh), the same walk configDigest() hashes,
 * so the codec covers exactly the digest's field set by construction.
 * Every frame still carries the coordinator-computed digest, and the
 * worker recomputes configDigest() over the decoded struct and refuses
 * the point on mismatch: frames arrive from outside the process.
 *
 * Format: "hmcsim-config v1" header line, then one "key value" line
 * per field in field-table order. Doubles are C99 hexfloats (%a);
 * strings are percent-escaped so embedded newlines cannot break
 * framing.
 */

#ifndef HMCSIM_DIST_WIRE_HH
#define HMCSIM_DIST_WIRE_HH

#include <string>

#include "host/experiment.hh"

namespace hmcsim
{

/** Canonical text form of @p cfg (digest-complete, see file docs). */
std::string encodeExperimentConfig(const ExperimentConfig &cfg);

/**
 * Parse encodeExperimentConfig() output into @p out. Strict: fields
 * must appear in canonical order with a recognized header, numbers
 * must be whole decimal tokens that fit their field, and enum fields
 * must hold one of their valid values. Returns false (leaving @p out
 * untouched) on any malformed or missing field.
 */
bool decodeExperimentConfig(const std::string &text,
                            ExperimentConfig &out);

} // namespace hmcsim

#endif // HMCSIM_DIST_WIRE_HH
