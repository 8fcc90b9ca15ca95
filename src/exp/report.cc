#include "exp/report.hh"

#include <cstdio>
#include <cstdlib>

#include "power/dvfs_types.hh"
#include "sim/snapshot.hh"
#include "soc/counters.hh"

namespace sysscale {
namespace exp {

std::string
formatDouble(double v)
{
    char buf[40];
    std::snprintf(buf, sizeof(buf), "%.17g", v);
    return buf;
}

double
parseDouble(const std::string &text)
{
    char *end = nullptr;
    const double v = std::strtod(text.c_str(), &end);
    if (text.empty() || end != text.c_str() + text.size())
        throw SnapshotError("malformed number \"" + text + "\"");
    return v;
}

std::string
jsonQuote(const std::string &s)
{
    std::string out = "\"";
    for (char c : s) {
        switch (c) {
          case '"': out += "\\\""; break;
          case '\\': out += "\\\\"; break;
          case '\n': out += "\\n"; break;
          case '\t': out += "\\t"; break;
          default:
            if (static_cast<unsigned char>(c) < 0x20) {
                char esc[8];
                std::snprintf(esc, sizeof(esc), "\\u%04x", c);
                out += esc;
            } else {
                out += c;
            }
        }
    }
    out += "\"";
    return out;
}

namespace {

/** Local alias keeping the emitter bodies readable. */
std::string
num(double v)
{
    return formatDouble(v);
}

std::string
csvQuote(const std::string &s)
{
    std::string out = "\"";
    for (char c : s) {
        if (c == '"')
            out += "\"\"";
        else
            out += c;
    }
    out += "\"";
    return out;
}

std::string
labelsColumn(const Labels &labels)
{
    std::string out;
    for (const auto &kv : labels) {
        if (!out.empty())
            out += ";";
        out += kv.first + "=" + kv.second;
    }
    return out;
}

} // anonymous namespace

std::string
csvHeader()
{
    std::string head =
        "id,governor,workload,ok,error,host_seconds,seconds,"
        "instructions,ips,frames,fps,avg_power_w,energy_j,edp,"
        "avg_mem_latency_ns,avg_mem_bandwidth,avg_core_freq_hz,"
        "qos_violations,transitions,stall_ticks,low_point_residency";
    for (const auto rail : power::kAllRails) {
        head += ",energy_";
        head += power::railName(rail);
    }
    for (const auto counter : soc::kAllCounters) {
        head += ",ctr_";
        head += soc::counterName(counter);
    }
    head += ",labels";
    return head;
}

std::string
csvRow(const RunResult &res)
{
    const soc::RunMetrics &m = res.metrics;
    std::string row = csvQuote(res.id) + "," +
                      csvQuote(res.governor) + "," +
                      csvQuote(res.workload) + "," +
                      (res.ok ? "1" : "0") + "," +
                      csvQuote(res.error) + "," +
                      num(res.hostSeconds) + "," + num(m.seconds) +
                      "," + num(m.instructions) + "," + num(m.ips) +
                      "," + num(m.frames) + "," + num(m.fps) + "," +
                      num(m.avgPower) + "," + num(m.energy) + "," +
                      num(m.edp) + "," + num(m.avgMemLatencyNs) +
                      "," + num(m.avgMemBandwidth) + "," +
                      num(m.avgCoreFreq) + "," +
                      std::to_string(m.qosViolations) + "," +
                      std::to_string(m.transitions) + "," +
                      std::to_string(m.stallTicks) + "," +
                      num(m.lowPointResidency);
    for (const Joule e : m.railEnergy)
        row += "," + num(e);
    for (const double c : res.counters.values)
        row += "," + num(c);
    row += "," + csvQuote(labelsColumn(res.labels));
    return row;
}

CsvWriter::CsvWriter(std::ostream &os, bool flushEachRow)
    : os_(os), flushEachRow_(flushEachRow)
{
    os_ << csvHeader() << "\n";
    if (flushEachRow_)
        os_.flush();
}

void
CsvWriter::append(const RunResult &res)
{
    os_ << csvRow(res) << "\n";
    if (flushEachRow_)
        os_.flush();
    ++rows_;
}

void
writeCsv(std::ostream &os, const std::vector<RunResult> &results)
{
    CsvWriter writer(os);
    for (const auto &res : results)
        writer.append(res);
}

std::string
jsonObject(const RunResult &res)
{
    const soc::RunMetrics &m = res.metrics;
    std::string obj = "{";
    obj += "\"id\":" + jsonQuote(res.id);
    obj += ",\"governor\":" + jsonQuote(res.governor);
    obj += ",\"workload\":" + jsonQuote(res.workload);
    obj += std::string(",\"ok\":") + (res.ok ? "true" : "false");
    obj += ",\"error\":" + jsonQuote(res.error);
    obj += ",\"host_seconds\":" + num(res.hostSeconds);
    obj += ",\"metrics\":{";
    obj += "\"seconds\":" + num(m.seconds);
    obj += ",\"instructions\":" + num(m.instructions);
    obj += ",\"ips\":" + num(m.ips);
    obj += ",\"frames\":" + num(m.frames);
    obj += ",\"fps\":" + num(m.fps);
    obj += ",\"avg_power_w\":" + num(m.avgPower);
    obj += ",\"energy_j\":" + num(m.energy);
    obj += ",\"edp\":" + num(m.edp);
    obj += ",\"avg_mem_latency_ns\":" + num(m.avgMemLatencyNs);
    obj += ",\"avg_mem_bandwidth\":" + num(m.avgMemBandwidth);
    obj += ",\"avg_core_freq_hz\":" + num(m.avgCoreFreq);
    obj += ",\"qos_violations\":" + std::to_string(m.qosViolations);
    obj += ",\"transitions\":" + std::to_string(m.transitions);
    obj += ",\"stall_ticks\":" + std::to_string(m.stallTicks);
    obj += ",\"low_point_residency\":" + num(m.lowPointResidency);
    obj += ",\"rail_energy_j\":{";
    bool first = true;
    for (const auto rail : power::kAllRails) {
        if (!first)
            obj += ",";
        first = false;
        obj += "\"" + std::string(power::railName(rail)) +
               "\":" + num(m.railEnergy[power::railIndex(rail)]);
    }
    obj += "}},\"counters\":{";
    first = true;
    for (const auto counter : soc::kAllCounters) {
        if (!first)
            obj += ",";
        first = false;
        obj += "\"" + std::string(soc::counterName(counter)) + "\":" +
               num(res.counters.values[soc::counterIndex(counter)]);
    }
    obj += "},\"labels\":{";
    first = true;
    for (const auto &kv : res.labels) {
        if (!first)
            obj += ",";
        first = false;
        obj += jsonQuote(kv.first) + ":" + jsonQuote(kv.second);
    }
    obj += "}}";
    return obj;
}

void
writeJson(std::ostream &os, const std::vector<RunResult> &results)
{
    os << "[\n";
    for (std::size_t i = 0; i < results.size(); ++i) {
        os << "  " << jsonObject(results[i]);
        if (i + 1 < results.size())
            os << ",";
        os << "\n";
    }
    os << "]\n";
}

} // namespace exp
} // namespace sysscale
