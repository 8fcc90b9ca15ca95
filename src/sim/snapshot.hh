/**
 * @file
 * Versioned, deterministic simulator snapshots — and the one record
 * codec every file the repo reads back shares.
 *
 * A snapshot is a line-oriented text image of the full simulator
 * state at one tick — every component's private state, the whole
 * stats hierarchy, the pending event queue in exact
 * `(tick, priority, seq)` order, the RNG stream, the installed PMU
 * policy, and (optionally) the trace buffer. Restoring a snapshot
 * into a freshly constructed cell and resuming is byte-identical to
 * never having stopped; the restore and chain modes of
 * `tests/test_contracts.cc` pin that over a corpus.
 *
 * Record format (all text, one `key = value` pair per line):
 *
 *     <name> v<version>
 *     <dotted.scoped.key> = <value>
 *     ...
 *     checksum = <16-hex FNV-1a of everything above>
 *
 * A snapshot's header is `sysscale-snap v<kSnapFormatVersion>` and
 * its first two keys are `spec` (16-hex spec key) and `tick`. The
 * experiment spec, the result cache, the work queue's slice entries
 * and failure markers, and worker metrics are records with their own
 * header lines (see docs/ARCHITECTURE.md, "On-disk formats"). The
 * checksum is fnv1a64() of the record text above it, so the checksum
 * line of a canonical spec record is that spec's key.
 *
 * Every record is one walk that both writes and reads it (StateIO,
 * below): a component's visitState(StateIO &) for snapshots, and one
 * visit(StateIO &, T &) per record type for the others. Adding a
 * field to any record is one io.field(...) call in its walk.
 *
 * Doubles are encoded as the 16-hex IEEE-754 bit pattern so round
 * trips are bit-exact (NaNs, infinities and signed zeros included);
 * a field that should read as a number (the spec's, host_seconds)
 * is a Decimal, formatDouble() text instead. The trailing checksum
 * catches truncation and bit flips; the header line is rejected
 * loudly on mismatch. Writers are strict about duplicate keys and
 * readers are strict about *unconsumed* keys, so a divergence
 * bisects to a named field instead of silently misaligning
 * (`tools/snap_inspect` dumps the decoded view).
 *
 * Bump kSnapFormatVersion whenever the serialized field set changes
 * shape OR the meaning of any serialized field changes in the model;
 * the golden fixture check (`snap_inspect --check`) plus the
 * repo-invariant linter enforce that the committed fixture always
 * matches the in-tree version.
 */

#ifndef SYSSCALE_SIM_SNAPSHOT_HH
#define SYSSCALE_SIM_SNAPSHOT_HH

#include <cstdint>
#include <initializer_list>
#include <stdexcept>
#include <string>
#include <string_view>
#include <type_traits>
#include <vector>

#include "sim/types.hh"

namespace sysscale {

namespace stats {
class ExactSum;
}

/**
 * Snapshot encoding version. Bump on any change to the serialized
 * field set, the semantics behind a serialized field, or the record
 * checksum. v2: checksums use the standard FNV-1a/64 offset basis.
 * v3: counter sampling is a phase of the Soc's step, so the saved
 * event list no longer holds `pmu.sample`. v4: the PMU hosts the
 * governor, so the driver and governor state move from the `policy`
 * section under the PMU's object scope, next to the PMU's run sum.
 * v5: every slow step captures a plan and re-derives its rail watts,
 * so the capture-backoff counters and the plan's rail watts and step
 * power leave the Soc's section.
 * v6: the Soc's one plan becomes a ring of plans, saved most recently
 * used first (`plan0`, `plan1`, ...; one that can no longer replay
 * saves only `valid`).
 * A plan's granted P-states are table indices (`cpu_state`,
 * `gfx_state`), it keeps its thread activity, `gfx_active` and
 * `latency_out_ns`, and it drops `workload_bound`, `iso` (the same
 * value as `md_io_iso`) and `miss_scale` (a constant of the Soc).
 * v7: every accumulator is a stats::ExactSum, saved as its 128-bit
 * quanta count (32 hex digits), and so is a plan's
 * `transitions_seen`.
 */
constexpr int kSnapFormatVersion = 7;

/**
 * Every snapshot failure mode — unreadable file, bad header, stale
 * version, checksum mismatch, missing/duplicate/unconsumed keys,
 * unparsable values, wrong spec — throws this. Callers that want
 * "degrade to a cache miss" catch it and re-simulate from scratch.
 */
class SnapshotError : public std::runtime_error
{
  public:
    explicit SnapshotError(const std::string &what)
        : std::runtime_error(what)
    {}
};

/**
 * FNV-1a/64 with the standard offset basis: the repo's one hash. It
 * seals every record (so a spec record's checksum is its key) and
 * salts multi-link slice keys.
 */
std::uint64_t fnv1a64(std::string_view data);

/** Bit-exact double encoding: 16 lowercase hex of the bit pattern. */
std::string encodeDouble(double v);

/** Invert encodeDouble(). Throws SnapshotError on malformed input. */
double decodeDouble(std::string_view text);

/** The value of an exact sum's field text, rounded; throws like
 *  decodeDouble(). */
double decodeExactSum(std::string_view text);

/** Decimal double text: "%.17g", which round-trips every finite
 *  double and reads as the number it is. */
std::string formatDouble(double v);

/** Invert formatDouble(): all of @p text must be one number. Throws
 *  SnapshotError otherwise. */
double parseDouble(const std::string &text);

/** Header line of a simulator snapshot: "sysscale-snap v<N>". */
std::string snapshotHeader();

/**
 * Builds a record's text. Scopes nest via push()/pop() and turn into
 * dotted key prefixes; duplicate full keys throw.
 */
class SnapshotWriter
{
  public:
    /** A record whose first line is @p header ("<name> v<N>"). */
    explicit SnapshotWriter(std::string header);

    /** A simulator snapshot: snapshotHeader(), then spec and tick. */
    SnapshotWriter(const std::string &spec_key, Tick tick);

    /** Enter a key scope (becomes a dotted prefix). */
    void push(const std::string &scope);
    void pop();

    void putU64(const std::string &key, std::uint64_t v);
    void putBool(const std::string &key, bool v);
    void putDouble(const std::string &key, double v);
    /** Strings are escaped (\\n, \\r, \\\\) so values stay one line. */
    void putString(const std::string &key, const std::string &v);

    /** Full record text: header + body + checksum line. */
    std::string str() const;

  private:
    void emit(const std::string &key, const std::string &value);

    /**
     * Record the full key body_ holds at [@p at, @p at + @p len);
     * false if an earlier line already has it.
     */
    bool claimKey(std::size_t at, std::size_t len);

    /** One key of body_, by position, in the open-addressed set. */
    struct KeySlot
    {
        std::size_t at = std::string::npos; //!< npos = empty slot.
        std::size_t len = 0;
        std::uint64_t hash = 0;
    };

    std::string header_;
    std::string prefix_;
    std::vector<std::size_t> prefixLens_;
    std::string body_;
    /**
     * Every emitted key, as offsets into body_: a power-of-two table,
     * at most half full, so the duplicate check allocates no node per
     * key.
     */
    std::vector<KeySlot> keys_;
    std::size_t keyCount_ = 0;
};

/**
 * Parses and fully validates a record text up front (checksum, then
 * header line), then serves typed key lookups. Every get consumes
 * its key; finish() throws if any key was never consumed, so adding
 * a field without bumping the header's version cannot pass
 * silently. skipScope() consumes a whole optional section (e.g. the
 * trace buffer when the restoring cell is not tracing).
 */
class SnapshotReader
{
  public:
    /** Validate @p text as a record whose header is @p header. */
    SnapshotReader(std::string text, std::string_view header);

    /** Validate @p text as a simulator snapshot; reads spec, tick. */
    explicit SnapshotReader(std::string text);

    SnapshotReader(const SnapshotReader &) = delete;
    SnapshotReader &operator=(const SnapshotReader &) = delete;

    /** Snapshots only: the spec key and tick of the header keys. */
    const std::string &specKey() const { return specKey_; }
    Tick tick() const { return tick_; }

    void push(const std::string &scope);
    void pop();

    bool has(const std::string &key) const;

    std::uint64_t getU64(const std::string &key);
    bool getBool(const std::string &key);
    double getDouble(const std::string &key);
    std::string getString(const std::string &key);

    /** Consume every key under @p scope (relative to the prefix). */
    void skipScope(const std::string &scope);

    /** Throw SnapshotError when any key remains unconsumed. */
    void finish() const;

  private:
    /** One `key = value` line; views into text_. */
    struct Entry
    {
        std::string_view key;
        std::string_view value;
        bool consumed = false;
    };

    /** Index of prefix_ + @p key in entries_; size() when absent. */
    std::size_t find(const std::string &key) const;
    std::string_view consume(const std::string &key);

    std::string text_;
    std::vector<Entry> entries_; //!< Sorted by key.
    std::string specKey_;
    Tick tick_ = 0;
    std::string prefix_;
    std::vector<std::size_t> prefixLens_;
    mutable std::string full_; //!< Scratch: prefix_ + key.
};

/** A double field stored as formatDouble() text, not bit patterns. */
struct Decimal
{
    double &value;
};

/**
 * One walk over a record that both saves and restores. A walk names
 * each field once, with one field() call; over a writer it emits the
 * keys in call order, over a reader it consumes them into the same
 * members. Work that only a restore does (re-deriving caches,
 * validating outside input, building immutable values) sits in
 * `if (io.loading())` blocks of the same walk, so the save and
 * restore halves cannot drift apart. A saving walk only reads what
 * it visits, so a writer may walk a const record via const_cast.
 */
class StateIO
{
  public:
    explicit StateIO(SnapshotWriter &w) : writer_(&w) {}
    explicit StateIO(SnapshotReader &r) : reader_(&r) {}

    /** True when the walk restores into the visited members. */
    bool loading() const { return reader_ != nullptr; }

    /** The record a loading walk reads; for asymmetric sections. */
    SnapshotReader &reader() { return *reader_; }

    void push(const std::string &scope);
    void pop();

    void field(const std::string &key, double &v);
    void field(const std::string &key, std::uint64_t &v);
    void field(const std::string &key, bool &v);
    void field(const std::string &key, std::string &v);

    /** Other integers travel as a u64 (signed values two's-complement
     *  wrapped). Enums go through a validated local instead. */
    template <typename T>
    void
    field(const std::string &key, T &v)
    {
        static_assert(std::is_integral_v<T>,
                      "StateIO::field: unsupported member type");
        auto u = static_cast<std::uint64_t>(v);
        field(key, u);
        if (loading())
            v = static_cast<T>(u);
    }

    /** A decimal double (formatDouble() text). */
    void field(const std::string &key, Decimal v);

    /** An exact sum: its quanta count, as 32 hex digits of the
     *  two's complement. */
    void field(const std::string &key, stats::ExactSum &v);

    /**
     * Numbers as one line of space-separated formatDouble() text. A
     * loading walk requires exactly @p arity of them; arity 0 accepts
     * any count, none included.
     */
    void field(const std::string &key, std::vector<double> &values,
               std::size_t arity);

    /**
     * An enum as the token @p name(v) gives it. A loading walk
     * accepts only the tokens of @p all.
     */
    template <typename E, typename Name>
    void
    field(const std::string &key, E &v, std::initializer_list<E> all,
          Name name)
    {
        std::string token = loading() ? std::string() : name(v);
        field(key, token);
        if (!loading())
            return;
        for (const E e : all) {
            if (token == name(e)) {
                v = e;
                return;
            }
        }
        throw SnapshotError("unknown token \"" + token +
                            "\" for key \"" + key + "\"");
    }

  private:
    SnapshotWriter *writer_ = nullptr;
    SnapshotReader *reader_ = nullptr;
};

/**
 * Publish @p text at @p path: stage it in @p stage_dir (next to
 * @p path when empty), flush, then rename over @p path, so
 * concurrent readers never observe a partial file. The staged file
 * is removed on any failure. Throws SnapshotError on any IO failure.
 * Every file the repo reads back is published through here.
 */
void writeSnapshotFile(const std::string &path,
                       const std::string &text,
                       const std::string &stage_dir = std::string());

/** Read a whole file. Throws SnapshotError on IO failure. */
std::string readSnapshotFile(const std::string &path);

} // namespace sysscale

#endif // SYSSCALE_SIM_SNAPSHOT_HH
