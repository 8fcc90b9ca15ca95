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
 * never having stopped; `tests/test_snapshot.cc` pins that with a
 * randomized differential battery.
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
 * A component's snapshot state is one visitState(StateIO &) walk
 * that both saves and restores (StateIO, below): adding a state
 * field is one io.field() call there.
 *
 * Doubles are encoded as the 16-hex IEEE-754 bit pattern so round
 * trips are bit-exact (NaNs, infinities and signed zeros included);
 * the spec record stores its numbers as exp::formatDouble() text
 * through putString() instead. The trailing checksum catches
 * truncation and bit flips; the header line is rejected loudly on
 * mismatch. Writers are strict about duplicate keys and readers are
 * strict about *unconsumed* keys, so a divergence bisects to a named
 * field instead of silently misaligning (`tools/snap_inspect` dumps
 * the decoded view).
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
#include <set>
#include <stdexcept>
#include <string>
#include <string_view>
#include <type_traits>
#include <vector>

#include "sim/types.hh"

namespace sysscale {

/**
 * Snapshot encoding version. Bump on any change to the serialized
 * field set, the semantics behind a serialized field, or the record
 * checksum. v2: checksums use the standard FNV-1a/64 offset basis.
 * v3: counter sampling is a phase of the Soc's step, so the saved
 * event list no longer holds `pmu.sample`. v4: the PMU hosts the
 * governor, so the driver and governor state move from the `policy`
 * section under the PMU's object scope, next to the PMU's run sum.
 */
constexpr int kSnapFormatVersion = 4;

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

    std::string header_;
    std::string prefix_;
    std::vector<std::size_t> prefixLens_;
    std::set<std::string> seen_;
    std::string body_;
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

/**
 * One walk over a component's state that both saves and restores.
 * A component's visitState(StateIO &) names each of its fields once,
 * with one field() call; over a writer the walk emits the keys in
 * call order, over a reader it consumes them into the same members.
 * Work that only a restore does (re-deriving caches, validating
 * outside input) sits in `if (io.loading())` blocks of the same
 * walk, so the save and restore halves cannot drift apart.
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
