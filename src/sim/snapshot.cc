#include "sim/snapshot.hh"

#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <sstream>

namespace sysscale {

namespace {

// Both directions copy the runs between special characters in
// bulk: stats dumps and spec texts are kilobytes of plain text.

std::string
escapeValue(const std::string &v)
{
    std::string out;
    out.reserve(v.size() + v.size() / 16);
    std::size_t i = 0;
    std::size_t j;
    while ((j = v.find_first_of("\\\n\r", i)) != std::string::npos) {
        out.append(v, i, j - i);
        out += v[j] == '\\' ? "\\\\" : v[j] == '\n' ? "\\n" : "\\r";
        i = j + 1;
    }
    out.append(v, i, std::string::npos);
    return out;
}

std::string
unescapeValue(std::string_view v)
{
    std::string out;
    out.reserve(v.size());
    std::size_t i = 0;
    std::size_t j;
    while ((j = v.find('\\', i)) != std::string_view::npos) {
        out.append(v.substr(i, j - i));
        if (j + 1 >= v.size())
            throw SnapshotError("dangling escape in string value");
        switch (v[j + 1]) {
          case '\\':
            out += '\\';
            break;
          case 'n':
            out += '\n';
            break;
          case 'r':
            out += '\r';
            break;
          default:
            throw SnapshotError("unknown escape in string value");
        }
        i = j + 2;
    }
    out.append(v.substr(i));
    return out;
}

std::string
hex16(std::uint64_t v)
{
    char buf[17];
    std::snprintf(buf, sizeof(buf), "%016llx",
                  static_cast<unsigned long long>(v));
    return std::string(buf);
}

std::uint64_t
parseHex16(std::string_view text, const char *what)
{
    if (text.size() != 16)
        throw SnapshotError(std::string(what) + " is not 16 hex digits: \"" +
                            std::string(text) + "\"");
    std::uint64_t v = 0;
    for (const char c : text) {
        v <<= 4;
        if (c >= '0' && c <= '9')
            v |= static_cast<std::uint64_t>(c - '0');
        else if (c >= 'a' && c <= 'f')
            v |= static_cast<std::uint64_t>(c - 'a' + 10);
        else
            throw SnapshotError(std::string(what) +
                                " has a non-hex digit: \"" +
                                std::string(text) + "\"");
    }
    return v;
}

std::uint64_t
parseU64(std::string_view text, const std::string &key)
{
    if (text.empty())
        throw SnapshotError("empty integer for key \"" + key + "\"");
    std::uint64_t v = 0;
    for (const char c : text) {
        if (c < '0' || c > '9')
            throw SnapshotError("non-decimal integer for key \"" + key +
                                "\": \"" + std::string(text) + "\"");
        const std::uint64_t digit = static_cast<std::uint64_t>(c - '0');
        if (v > (UINT64_MAX - digit) / 10)
            throw SnapshotError("integer overflow for key \"" + key +
                                "\": \"" + std::string(text) + "\"");
        v = v * 10 + digit;
    }
    return v;
}

} // anonymous namespace

std::uint64_t
fnv1a64(std::string_view data)
{
    std::uint64_t h = 14695981039346656037ull;
    for (const char c : data) {
        h ^= static_cast<unsigned char>(c);
        h *= 1099511628211ull;
    }
    return h;
}

std::string
encodeDouble(double v)
{
    std::uint64_t bits = 0;
    static_assert(sizeof(bits) == sizeof(v), "double is not 64-bit");
    std::memcpy(&bits, &v, sizeof(bits));
    return hex16(bits);
}

double
decodeDouble(std::string_view text)
{
    const std::uint64_t bits = parseHex16(text, "double");
    double v = 0.0;
    std::memcpy(&v, &bits, sizeof(v));
    return v;
}

std::string
snapshotHeader()
{
    return "sysscale-snap v" + std::to_string(kSnapFormatVersion);
}

SnapshotWriter::SnapshotWriter(std::string header)
    : header_(std::move(header))
{
}

SnapshotWriter::SnapshotWriter(const std::string &spec_key, Tick tick)
    : SnapshotWriter(snapshotHeader())
{
    putString("spec", spec_key);
    putU64("tick", tick);
}

void
SnapshotWriter::push(const std::string &scope)
{
    prefixLens_.push_back(prefix_.size());
    prefix_ += scope;
    prefix_ += '.';
}

void
SnapshotWriter::pop()
{
    if (prefixLens_.empty())
        throw SnapshotError("SnapshotWriter::pop with empty scope stack");
    prefix_.resize(prefixLens_.back());
    prefixLens_.pop_back();
}

void
SnapshotWriter::emit(const std::string &key, const std::string &value)
{
    const std::string full = prefix_ + key;
    if (!seen_.insert(full).second)
        throw SnapshotError("duplicate snapshot key \"" + full + "\"");
    body_ += full;
    body_ += " = ";
    body_ += value;
    body_ += '\n';
}

void
SnapshotWriter::putU64(const std::string &key, std::uint64_t v)
{
    emit(key, std::to_string(v));
}

void
SnapshotWriter::putBool(const std::string &key, bool v)
{
    emit(key, v ? "1" : "0");
}

void
SnapshotWriter::putDouble(const std::string &key, double v)
{
    emit(key, encodeDouble(v));
}

void
SnapshotWriter::putString(const std::string &key, const std::string &v)
{
    emit(key, escapeValue(v));
}

std::string
SnapshotWriter::str() const
{
    std::string out;
    out.reserve(header_.size() + body_.size() + 30);
    out += header_;
    out += '\n';
    out += body_;
    out += "checksum = " + hex16(fnv1a64(out)) + "\n";
    return out;
}

SnapshotReader::SnapshotReader(std::string text, std::string_view header)
    : text_(std::move(text))
{
    // Validate the trailing checksum first: it covers every byte up
    // to its own line, so truncation and bit flips both fail here
    // before any value is interpreted.
    const std::string_view all(text_);
    const std::string_view marker = "checksum = ";
    const std::size_t pos = all.rfind(marker);
    if (pos == std::string_view::npos ||
        (pos != 0 && all[pos - 1] != '\n')) {
        throw SnapshotError("snapshot has no checksum line");
    }
    const std::size_t value_at = pos + marker.size();
    std::size_t end = all.find('\n', value_at);
    if (end == std::string_view::npos)
        end = all.size();
    if (all.find('\n', end + 1) != std::string_view::npos)
        throw SnapshotError("trailing data after snapshot checksum");
    const std::uint64_t want =
        parseHex16(all.substr(value_at, end - value_at), "checksum");
    const std::uint64_t got = fnv1a64(all.substr(0, pos));
    if (want != got) {
        throw SnapshotError("snapshot checksum mismatch (stored " +
                            hex16(want) + ", computed " + hex16(got) +
                            "): truncated or corrupted file");
    }

    // The header names the record type and its version; the same
    // type at another version is stale, anything else is foreign.
    const std::string_view body = all.substr(0, pos);
    std::size_t at = body.find('\n');
    const std::string_view line = body.substr(0, at);
    if (line != header) {
        const std::size_t v = header.rfind(" v");
        if (v != std::string_view::npos &&
            line.substr(0, v + 2) == header.substr(0, v + 2)) {
            throw SnapshotError(
                "\"" + std::string(line) + "\" does not match this "
                "build's \"" + std::string(header) +
                "\"; stale records must be re-simulated");
        }
        throw SnapshotError("not a \"" + std::string(header) +
                            "\" record (bad header line)");
    }

    // The body ends with the newline before the checksum line.
    std::size_t lineno = 1;
    for (std::size_t begin = at + 1; begin < body.size(); begin = at + 1) {
        at = body.find('\n', begin);
        const std::string_view row = body.substr(begin, at - begin);
        ++lineno;
        const std::size_t sep = row.find(" = ");
        if (sep == std::string_view::npos)
            throw SnapshotError("malformed snapshot line " +
                                std::to_string(lineno) + ": \"" +
                                std::string(row) + "\"");
        entries_.push_back({row.substr(0, sep), row.substr(sep + 3)});
    }
    std::sort(entries_.begin(), entries_.end(),
              [](const Entry &a, const Entry &b) { return a.key < b.key; });
    for (std::size_t i = 1; i < entries_.size(); ++i) {
        if (entries_[i].key == entries_[i - 1].key)
            throw SnapshotError("duplicate snapshot key \"" +
                                std::string(entries_[i].key) + "\"");
    }
}

SnapshotReader::SnapshotReader(std::string text)
    : SnapshotReader(std::move(text), snapshotHeader())
{
    specKey_ = getString("spec");
    tick_ = getU64("tick");
}

void
SnapshotReader::push(const std::string &scope)
{
    prefixLens_.push_back(prefix_.size());
    prefix_ += scope;
    prefix_ += '.';
}

void
SnapshotReader::pop()
{
    if (prefixLens_.empty())
        throw SnapshotError("SnapshotReader::pop with empty scope stack");
    prefix_.resize(prefixLens_.back());
    prefixLens_.pop_back();
}

std::size_t
SnapshotReader::find(const std::string &key) const
{
    full_.assign(prefix_).append(key);
    const auto it = std::lower_bound(
        entries_.begin(), entries_.end(), std::string_view(full_),
        [](const Entry &e, std::string_view k) { return e.key < k; });
    if (it == entries_.end() || it->key != full_)
        return entries_.size();
    return static_cast<std::size_t>(it - entries_.begin());
}

bool
SnapshotReader::has(const std::string &key) const
{
    return find(key) != entries_.size();
}

std::string_view
SnapshotReader::consume(const std::string &key)
{
    const std::size_t i = find(key);
    if (i == entries_.size())
        throw SnapshotError("snapshot is missing key \"" + full_ + "\"");
    entries_[i].consumed = true;
    return entries_[i].value;
}

std::uint64_t
SnapshotReader::getU64(const std::string &key)
{
    const std::string_view v = consume(key);
    return parseU64(v, full_);
}

bool
SnapshotReader::getBool(const std::string &key)
{
    const std::string_view v = consume(key);
    if (v == "1")
        return true;
    if (v == "0")
        return false;
    throw SnapshotError("non-boolean value for key \"" + full_ +
                        "\": \"" + std::string(v) + "\"");
}

double
SnapshotReader::getDouble(const std::string &key)
{
    const std::string_view v = consume(key);
    try {
        return decodeDouble(v);
    } catch (const SnapshotError &) {
        throw SnapshotError("malformed double for key \"" + full_ +
                            "\"");
    }
}

std::string
SnapshotReader::getString(const std::string &key)
{
    return unescapeValue(consume(key));
}

void
SnapshotReader::skipScope(const std::string &scope)
{
    const std::string p = prefix_ + scope + ".";
    auto it = std::lower_bound(
        entries_.begin(), entries_.end(), std::string_view(p),
        [](const Entry &e, std::string_view k) { return e.key < k; });
    for (; it != entries_.end() && it->key.substr(0, p.size()) == p;
         ++it) {
        it->consumed = true;
    }
}

void
SnapshotReader::finish() const
{
    for (const Entry &e : entries_) {
        if (!e.consumed)
            throw SnapshotError(
                "snapshot key \"" + std::string(e.key) +
                "\" was never consumed: field-set mismatch "
                "(the header's version should have been bumped)");
    }
}

void
StateIO::push(const std::string &scope)
{
    if (reader_)
        reader_->push(scope);
    else
        writer_->push(scope);
}

void
StateIO::pop()
{
    if (reader_)
        reader_->pop();
    else
        writer_->pop();
}

void
StateIO::field(const std::string &key, double &v)
{
    if (reader_)
        v = reader_->getDouble(key);
    else
        writer_->putDouble(key, v);
}

void
StateIO::field(const std::string &key, std::uint64_t &v)
{
    if (reader_)
        v = reader_->getU64(key);
    else
        writer_->putU64(key, v);
}

void
StateIO::field(const std::string &key, bool &v)
{
    if (reader_)
        v = reader_->getBool(key);
    else
        writer_->putBool(key, v);
}

void
StateIO::field(const std::string &key, std::string &v)
{
    if (reader_)
        v = reader_->getString(key);
    else
        writer_->putString(key, v);
}

void
writeSnapshotFile(const std::string &path, const std::string &text,
                  const std::string &stage_dir)
{
    // lint:allow nondeterminism -- pid/serial only name the temp file
    static std::atomic<std::uint64_t> serial{0};
    const std::string staged =
        stage_dir.empty()
            ? path
            : stage_dir + "/" + path.substr(path.rfind('/') + 1);
    const std::string tmp = staged + ".tmp." +
                            std::to_string(::getpid()) + "." +
                            std::to_string(serial.fetch_add(1));
    {
        std::ofstream os(tmp, std::ios::binary | std::ios::trunc);
        if (os) {
            os << text;
            os.close();
        }
        if (!os) {
            std::remove(tmp.c_str());
            throw SnapshotError("cannot write \"" + tmp + "\"");
        }
    }
    if (std::rename(tmp.c_str(), path.c_str()) != 0) {
        std::remove(tmp.c_str());
        throw SnapshotError("cannot rename \"" + tmp + "\" to \"" +
                            path + "\"");
    }
}

std::string
readSnapshotFile(const std::string &path)
{
    std::ifstream is(path, std::ios::binary);
    if (!is)
        throw SnapshotError("cannot open snapshot \"" + path + "\"");
    std::ostringstream os;
    os << is.rdbuf();
    if (is.bad())
        throw SnapshotError("read error on snapshot \"" + path + "\"");
    return os.str();
}

} // namespace sysscale
