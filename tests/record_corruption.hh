/**
 * @file
 * The corruption battery every on-disk record (the sim/snapshot.hh
 * codec: cache entries, slice entries, failure markers, worker
 * metrics) is fed back. Each case must read back as a miss, a
 * quarantine or a skip — never a wrong value.
 */

#ifndef SYSSCALE_TESTS_RECORD_CORRUPTION_HH
#define SYSSCALE_TESTS_RECORD_CORRUPTION_HH

#include <cstdio>
#include <fstream>
#include <iterator>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "sim/snapshot.hh"

namespace sysscale {
namespace test {

inline std::string
readText(const std::string &path)
{
    std::ifstream is(path, std::ios::binary);
    return std::string((std::istreambuf_iterator<char>(is)),
                       std::istreambuf_iterator<char>());
}

inline void
writeText(const std::string &path, const std::string &text)
{
    std::ofstream os(path, std::ios::binary | std::ios::trunc);
    os << text;
}

/** @p text with its checksum line recomputed after a deliberate edit. */
inline std::string
restampRecord(const std::string &text)
{
    const std::string body = text.substr(0, text.rfind("checksum = "));
    char sum[17];
    std::snprintf(sum, sizeof(sum), "%016llx",
                  static_cast<unsigned long long>(fnv1a64(body)));
    return body + "checksum = " + sum + "\n";
}

/** Offsets [begin, end) of the encoded value of @p key in @p text. */
inline std::pair<std::size_t, std::size_t>
valueSpan(const std::string &text, const std::string &key)
{
    const std::size_t at = text.find("\n" + key + " = ");
    if (at == std::string::npos)
        throw std::logic_error("record has no key \"" + key + "\"");
    const std::size_t begin = at + key.size() + 4;
    return {begin, text.find('\n', begin)};
}

/** The encoded (still escaped) value of @p key in @p text. */
inline std::string
rawValue(const std::string &text, const std::string &key)
{
    const auto span = valueSpan(text, key);
    return text.substr(span.first, span.second - span.first);
}

/**
 * @p text with the encoded value of @p key replaced by @p value,
 * re-stamped so only the edit — not the checksum — can reject it.
 */
inline std::string
replaceValue(const std::string &text, const std::string &key,
             const std::string &value)
{
    const auto span = valueSpan(text, key);
    std::string out = text;
    out.replace(span.first, span.second - span.first, value);
    return restampRecord(out);
}

/**
 * Named corruptions of record @p text: a truncation at every line
 * boundary, one flipped byte (low bit of the last character) in the
 * value of @p key, and the header's version one lower with the
 * checksum re-stamped.
 */
inline std::vector<std::pair<std::string, std::string>>
recordCorruptions(const std::string &text, const std::string &key)
{
    std::vector<std::pair<std::string, std::string>> out;
    for (std::size_t i = text.find('\n'); i + 1 < text.size();
         i = text.find('\n', i + 1)) {
        out.emplace_back("truncated at byte " + std::to_string(i + 1),
                         text.substr(0, i + 1));
    }

    std::string flipped = text;
    flipped[valueSpan(text, key).second - 1] ^= 0x01;
    out.emplace_back("flipped byte in " + key, flipped);

    const std::size_t eol = text.find('\n');
    const std::size_t v = text.rfind(" v", eol) + 2;
    const int version = std::stoi(text.substr(v, eol - v));
    out.emplace_back("stale header",
                     restampRecord(text.substr(0, v) +
                                   std::to_string(version - 1) +
                                   text.substr(eol)));
    return out;
}

} // namespace test
} // namespace sysscale

#endif // SYSSCALE_TESTS_RECORD_CORRUPTION_HH
