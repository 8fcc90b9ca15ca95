/**
 * @file
 * Canonical ExperimentSpec serialization and content addressing.
 *
 * serializeSpec() emits a stable, versioned `sysscale-spec v<N>`
 * record (the sim/snapshot.hh codec every on-disk file shares) of
 * everything a cell's simulation depends on — the full
 * SocConfig (including the DRAM population), the workload profile
 * phase by phase, governor name, measurement window, pinning
 * overrides, and RNG seed — plus the presentation-only id and
 * labels. parseSpec() inverts it exactly:
 *
 *     parseSpec(serializeSpec(s)) == s
 *
 * is a hard invariant for every spec: a spec has no runtime-only
 * fields, so every one is content-addressable.
 *
 * Numbers are exp::formatDouble() text, not bit patterns, so the
 * record reads like the document it has always been. specKey() is
 * the checksum line of the *canonical* record — the same encoding
 * with the id and label lines dropped, so renaming or relabeling a
 * cell does not change its identity: fnv1a64() of the text above the
 * checksum line, as 16 lowercase hex digits. The format version line
 * is part of the hashed text: bumping kSpecFormatVersion invalidates
 * every existing key, which is exactly what a result cache keyed on
 * specKey() needs when the encoding (or the simulation semantics
 * behind any encoded field) changes. See docs/EXPERIMENTS.md for the
 * versioning policy.
 */

#ifndef SYSSCALE_EXP_SPEC_CODEC_HH
#define SYSSCALE_EXP_SPEC_CODEC_HH

#include <string>
#include <string_view>

#include "exp/experiment.hh"

namespace sysscale {
namespace exp {

/**
 * Encoding version. Bump whenever serializeSpec() changes shape OR
 * the meaning of an encoded field changes in the model, so stale
 * cache entries can never alias new cells.
 */
constexpr int kSpecFormatVersion = 6;

/** Versioned text encoding of @p spec (id and labels included). */
std::string serializeSpec(const ExperimentSpec &spec);

/**
 * Canonical record: serializeSpec() minus the presentation-only
 * lines (cell id, labels, pinned-op-point name — the fields spec
 * equality ignores too), sealed by its own checksum line. Two cells
 * with equal canonical text run the identical simulation.
 */
std::string canonicalSpec(const ExperimentSpec &spec);

/**
 * Content key of @p spec: the checksum of canonicalSpec(spec), 16
 * lowercase hex digits. Stable across processes, platforms, and runs.
 */
std::string specKey(const ExperimentSpec &spec);

/**
 * specKey() for a canonical record already produced by
 * canonicalSpec(): reads its checksum line, so callers that need
 * both the text and the key serialize and hash once.
 */
std::string specKeyForCanonical(std::string_view canonical);

/**
 * Invert serializeSpec(). Throws std::invalid_argument on any
 * malformed input: bad checksum, missing/garbled header, version
 * mismatch, unknown or duplicate keys, unparsable values, or field
 * values a spec cannot hold (e.g. residency fractions that do not
 * sum to 1).
 */
ExperimentSpec parseSpec(const std::string &text);

} // namespace exp
} // namespace sysscale

#endif // SYSSCALE_EXP_SPEC_CODEC_HH
